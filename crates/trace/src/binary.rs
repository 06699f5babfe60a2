//! Compact binary trace codec.
//!
//! Memory traces compress extremely well because consecutive addresses are
//! strongly correlated (sequential instruction fetches, strided data). The
//! format stores, per record, one kind byte followed by the **zigzag-encoded
//! delta** of the address against the previous record's address, as an
//! LEB128 varint. Small forward or backward strides therefore cost two bytes
//! per record instead of nine.
//!
//! Layout:
//!
//! ```text
//! magic  b"DEWT"          4 bytes
//! version u8              currently 1
//! records:  ( kind u8 , zigzag(addr - prev_addr) varint )*   until EOF
//! ```
//!
//! # Examples
//!
//! ```
//! use dew_trace::binary::{BinReader, BinWriter};
//! use dew_trace::{Record, TraceError};
//!
//! # fn main() -> Result<(), TraceError> {
//! let mut out = Vec::new();
//! let mut w = BinWriter::new(&mut out)?;
//! w.write_record(Record::read(0x1000))?;
//! w.write_record(Record::read(0x1004))?;
//! w.finish()?;
//!
//! let back: Vec<Record> = BinReader::new(out.as_slice())?.collect::<Result<_, _>>()?;
//! assert_eq!(back, vec![Record::read(0x1000), Record::read(0x1004)]);
//! # Ok(())
//! # }
//! ```

use std::io::{Read, Write};

use crate::error::TraceError;
use crate::record::{AccessKind, Record};

/// File magic for the binary trace format.
pub const MAGIC: [u8; 4] = *b"DEWT";
/// Current format version.
pub const VERSION: u8 = 1;

/// Maps a signed delta onto an unsigned integer so small magnitudes of either
/// sign encode as short varints (the protobuf "zigzag" mapping).
#[must_use]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[must_use]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint(out: &mut impl Write, mut v: u64) -> std::io::Result<usize> {
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        n += 1;
        if v == 0 {
            out.write_all(&[byte])?;
            return Ok(n);
        }
        out.write_all(&[byte | 0x80])?;
    }
}

/// Bytes [`BinReader`] reads from its source per refill.
const READ_BUF: usize = 64 * 1024;

/// The longest well-formed record: one kind byte and a ten-byte varint. A
/// buffer holding this many bytes always decodes to a record or an error.
const MAX_RECORD: usize = 11;

/// What the bytes at the front of a [`BinReader`]'s buffer hold.
enum Decoded {
    /// A whole record: its kind, the zigzag delta and its encoded length.
    Record(AccessKind, u64, usize),
    /// A format error, reported at the byte that decides it.
    Bad(TraceError),
    /// The bytes end before the record does.
    Incomplete,
}

/// Decodes the record at the front of `bytes`; `position` is its 1-based
/// record number. Errors are decided byte by byte in stream order, so a
/// malformed prefix fails the same way however much of the stream follows.
#[inline]
fn decode_record(bytes: &[u8], position: u64) -> Decoded {
    let Some((&label, varint)) = bytes.split_first() else {
        return Decoded::Incomplete;
    };
    let Some(kind) = AccessKind::from_din_label(label) else {
        return Decoded::Bad(TraceError::Parse {
            position,
            source: crate::ParseRecordError::UnknownLabel(label),
        });
    };
    let mut value = 0u64;
    for (i, &byte) in varint.iter().enumerate() {
        let shift = 7 * i as u32;
        let payload = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && payload > 1) {
            return Decoded::Bad(TraceError::VarintOverflow { position });
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Decoded::Record(kind, value, i + 2);
        }
    }
    Decoded::Incomplete
}

/// Streaming writer for the binary trace format.
#[derive(Debug)]
pub struct BinWriter<W> {
    inner: W,
    prev_addr: u64,
    written: u64,
}

impl<W: Write> BinWriter<W> {
    /// Creates a writer and emits the header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the sink fails.
    pub fn new(mut inner: W) -> Result<Self, TraceError> {
        inner.write_all(&MAGIC)?;
        inner.write_all(&[VERSION])?;
        Ok(BinWriter {
            inner,
            prev_addr: 0,
            written: 0,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the sink fails.
    pub fn write_record(&mut self, record: Record) -> Result<(), TraceError> {
        let delta = record.addr.wrapping_sub(self.prev_addr) as i64;
        self.inner.write_all(&[record.kind.din_label()])?;
        write_varint(&mut self.inner, zigzag_encode(delta))?;
        self.prev_addr = record.addr;
        self.written += 1;
        Ok(())
    }

    /// Appends every record of an iterator.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the sink fails.
    pub fn write_all<I: IntoIterator<Item = Record>>(&mut self, iter: I) -> Result<(), TraceError> {
        for r in iter {
            self.write_record(r)?;
        }
        Ok(())
    }

    /// Number of records written so far.
    #[must_use]
    pub fn records_written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying sink.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the flush fails.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming reader for the binary trace format.
///
/// Implements [`Iterator`] over `Result<Record, TraceError>`. Records are
/// decoded from an internal 64 KiB buffer, so the source sees one large
/// `read` per refill and needs no `BufReader` of its own. A source error
/// is reported only after every record whose bytes arrived before it, and
/// the iterator yields nothing after its first error.
pub struct BinReader<R> {
    inner: R,
    buf: Box<[u8]>,
    /// The undecoded bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    prev_addr: u64,
    position: u64,
    failed: bool,
}

impl<R: std::fmt::Debug> std::fmt::Debug for BinReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinReader")
            .field("inner", &self.inner)
            .field("buffered", &(self.end - self.start))
            .field("prev_addr", &self.prev_addr)
            .field("position", &self.position)
            .field("failed", &self.failed)
            .finish()
    }
}

impl<R: Read> BinReader<R> {
    /// Creates a reader, validating the header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadMagic`] or [`TraceError::UnsupportedVersion`]
    /// for foreign input, [`TraceError::Io`] on I/O failure.
    pub fn new(mut inner: R) -> Result<Self, TraceError> {
        let mut header = [0u8; 5];
        inner.read_exact(&mut header).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceError::BadMagic
            } else {
                TraceError::Io(e)
            }
        })?;
        if header[..4] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        if header[4] != VERSION {
            return Err(TraceError::UnsupportedVersion(header[4]));
        }
        Ok(BinReader {
            inner,
            buf: vec![0; READ_BUF].into_boxed_slice(),
            start: 0,
            end: 0,
            prev_addr: 0,
            position: 0,
            failed: false,
        })
    }

    /// Moves the undecoded tail to the front of the buffer and appends one
    /// `read` of the source; `Ok(0)` is end of stream.
    fn refill(&mut self) -> std::io::Result<usize> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        loop {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn next_record(&mut self) -> Option<Result<Record, TraceError>> {
        if self.failed {
            return None;
        }
        loop {
            let err = match decode_record(&self.buf[self.start..self.end], self.position + 1) {
                Decoded::Record(kind, zigzag, len) => {
                    self.start += len;
                    self.position += 1;
                    self.prev_addr = self.prev_addr.wrapping_add(zigzag_decode(zigzag) as u64);
                    return Some(Ok(Record::new(self.prev_addr, kind)));
                }
                Decoded::Bad(e) => e,
                Decoded::Incomplete => {
                    debug_assert!(self.end - self.start < MAX_RECORD);
                    match self.refill() {
                        Ok(0) if self.start == self.end => return None, // clean EOF
                        Ok(0) => TraceError::Truncated {
                            position: self.position + 1,
                        },
                        Ok(_) => continue,
                        Err(e) => TraceError::Io(e),
                    }
                }
            };
            self.failed = true;
            return Some(Err(err));
        }
    }
}

impl<R: Read> Iterator for BinReader<R> {
    type Item = Result<Record, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(records: &[Record]) -> Vec<Record> {
        let mut out = Vec::new();
        let mut w = BinWriter::new(&mut out).expect("header");
        w.write_all(records.iter().copied()).expect("write");
        w.finish().expect("finish");
        BinReader::new(out.as_slice())
            .expect("header")
            .collect::<Result<_, _>>()
            .expect("read")
    }

    #[test]
    fn zigzag_is_a_bijection_on_samples() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_codes() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }

    #[test]
    fn round_trips_mixed_records() {
        let records = vec![
            Record::read(0x1000),
            Record::read(0x1004),
            Record::write(0xffff_ffff_ffff_fff0),
            Record::ifetch(0),
            Record::read(u64::MAX),
        ];
        assert_eq!(round_trip(&records), records);
    }

    #[test]
    fn sequential_trace_is_compact() {
        let records: Vec<Record> = (0..1000u64)
            .map(|i| Record::ifetch(0x4000 + i * 4))
            .collect();
        let mut out = Vec::new();
        let mut w = BinWriter::new(&mut out).expect("header");
        w.write_all(records.iter().copied()).expect("write");
        w.finish().expect("finish");
        // Header + first record + 2 bytes per subsequent record.
        assert!(out.len() < 5 + 10 + 2 * 1000, "got {} bytes", out.len());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(matches!(
            BinReader::new(&b"NOPE\x01rest"[..]),
            Err(TraceError::BadMagic)
        ));
        assert!(matches!(
            BinReader::new(&b"DEW"[..]),
            Err(TraceError::BadMagic)
        ));
        assert!(matches!(
            BinReader::new(&b"DEWT\x63"[..]),
            Err(TraceError::UnsupportedVersion(0x63))
        ));
    }

    #[test]
    fn detects_truncation_mid_record() {
        let mut out = Vec::new();
        let mut w = BinWriter::new(&mut out).expect("header");
        w.write_record(Record::read(0x1234_5678_9abc))
            .expect("write");
        w.finish().expect("finish");
        out.pop(); // chop the last varint byte
        let mut reader = BinReader::new(out.as_slice()).expect("header");
        assert!(matches!(
            reader.next(),
            Some(Err(TraceError::Truncated { position: 1 }))
        ));
        assert!(reader.next().is_none(), "reader stops after failure");
    }

    #[test]
    fn detects_unknown_kind_byte() {
        let mut out = Vec::new();
        BinWriter::new(&mut out)
            .expect("header")
            .finish()
            .expect("finish");
        out.push(9); // bogus kind
        out.push(0); // delta 0
        let mut reader = BinReader::new(out.as_slice()).expect("header");
        assert!(matches!(
            reader.next(),
            Some(Err(TraceError::Parse { position: 1, .. }))
        ));
    }

    #[test]
    fn detects_varint_overflow() {
        let mut out = Vec::new();
        BinWriter::new(&mut out)
            .expect("header")
            .finish()
            .expect("finish");
        out.push(0); // kind: read
        out.extend_from_slice(&[0xff; 10]); // 70 payload bits, all continuations
        out.push(0x7f);
        let mut reader = BinReader::new(out.as_slice()).expect("header");
        assert!(matches!(
            reader.next(),
            Some(Err(TraceError::VarintOverflow { position: 1 }))
        ));
    }

    #[test]
    fn empty_stream_yields_no_records() {
        let mut out = Vec::new();
        BinWriter::new(&mut out)
            .expect("header")
            .finish()
            .expect("finish");
        let mut reader = BinReader::new(out.as_slice()).expect("header");
        assert!(reader.next().is_none());
    }
}
