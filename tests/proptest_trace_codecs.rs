//! Property-based round-trip tests for the trace file formats, and a
//! differential test of the buffered binary decoder against a
//! byte-at-a-time reference decoder.

use std::io::{self, Read};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use dew_trace::binary::{zigzag_decode, BinReader, BinWriter, MAGIC, VERSION};
use dew_trace::din::{DinReader, DinWriter};
use dew_trace::{AccessKind, ParseRecordError, Record, TraceError};

fn record_strategy() -> impl Strategy<Value = Record> {
    (any::<u64>(), 0u8..3).prop_map(|(addr, k)| {
        Record::new(
            addr,
            AccessKind::from_din_label(k).expect("0..3 are valid labels"),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn din_round_trips(records in prop::collection::vec(record_strategy(), 0..200)) {
        let mut buf = Vec::new();
        let mut w = DinWriter::new(&mut buf);
        w.write_all(records.iter().copied()).expect("write");
        w.finish().expect("finish");
        let back: Vec<Record> = DinReader::new(buf.as_slice())
            .collect::<Result<_, _>>()
            .expect("read");
        prop_assert_eq!(back, records);
    }

    #[test]
    fn binary_round_trips(records in prop::collection::vec(record_strategy(), 0..200)) {
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf).expect("header");
        w.write_all(records.iter().copied()).expect("write");
        w.finish().expect("finish");
        let back: Vec<Record> = BinReader::new(buf.as_slice())
            .expect("header")
            .collect::<Result<_, _>>()
            .expect("read");
        prop_assert_eq!(back, records);
    }

    #[test]
    fn binary_never_larger_than_fixed_encoding_for_local_traces(
        base in 0u64..1_000_000,
        steps in prop::collection::vec(-512i64..512, 1..300),
    ) {
        // Locality-heavy traces (small deltas) must encode in <= 3 bytes per
        // record: 1 kind byte + <= 2 varint bytes for |delta| < 8192.
        let mut addr = base;
        let records: Vec<Record> = steps
            .iter()
            .map(|&d| {
                addr = addr.wrapping_add(d as u64);
                Record::read(addr)
            })
            .collect();
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf).expect("header");
        w.write_all(records.iter().copied()).expect("write");
        w.finish().expect("finish");
        let payload = buf.len() - 5; // minus header
        prop_assert!(payload <= records.len() * 3 + 10);
    }

    #[test]
    fn record_display_parses_back(record in record_strategy()) {
        let shown = record.to_string();
        let parsed: Record = shown.parse().expect("display output is valid din");
        prop_assert_eq!(parsed, record);
    }
}

/// The reference binary decoder: one `Read::read` call per byte, every
/// error decided at the byte that causes it. [`BinReader`] must yield
/// exactly what this yields, however its source splits the stream.
struct ByteReader<R> {
    inner: R,
    prev_addr: u64,
    position: u64,
    failed: bool,
}

impl<R: Read> ByteReader<R> {
    fn new(mut inner: R) -> Result<Self, TraceError> {
        let mut header = [0u8; 5];
        inner.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
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
        Ok(ByteReader {
            inner,
            prev_addr: 0,
            position: 0,
            failed: false,
        })
    }

    /// One byte, `None` at end of stream.
    fn byte(&mut self) -> Result<Option<u8>, TraceError> {
        let mut byte = [0u8; 1];
        loop {
            match self.inner.read(&mut byte) {
                Ok(0) => return Ok(None),
                Ok(_) => return Ok(Some(byte[0])),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TraceError::Io(e)),
            }
        }
    }

    fn record(&mut self) -> Result<Option<Record>, TraceError> {
        let Some(label) = self.byte()? else {
            return Ok(None);
        };
        self.position += 1;
        let kind = AccessKind::from_din_label(label).ok_or(TraceError::Parse {
            position: self.position,
            source: ParseRecordError::UnknownLabel(label),
        })?;
        let (mut shift, mut value) = (0u32, 0u64);
        loop {
            let byte = self.byte()?.ok_or(TraceError::Truncated)?;
            let payload = u64::from(byte & 0x7f);
            if shift >= 64 || (shift == 63 && payload > 1) {
                return Err(TraceError::VarintOverflow);
            }
            value |= payload << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        self.prev_addr = self.prev_addr.wrapping_add(zigzag_decode(value) as u64);
        Ok(Some(Record::new(self.prev_addr, kind)))
    }
}

impl<R: Read> Iterator for ByteReader<R> {
    type Item = Result<Record, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let out = self.record().transpose();
        self.failed = matches!(out, Some(Err(_)));
        out
    }
}

/// A source that splits `data` into short reads (lengths cycling through
/// `lens`), interrupts every third call, and fails for good at byte
/// offset `fail_at` when one is given.
struct ChoppyReader<'a> {
    data: &'a [u8],
    pos: usize,
    lens: Vec<usize>,
    calls: usize,
    fail_at: Option<usize>,
}

impl<'a> ChoppyReader<'a> {
    fn new(data: &'a [u8], lens: &[usize], fail_at: Option<usize>) -> Self {
        ChoppyReader {
            data,
            pos: 0,
            lens: lens.to_vec(),
            calls: 0,
            fail_at,
        }
    }
}

impl Read for ChoppyReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls % 3 == 0 {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let end = self.fail_at.unwrap_or(usize::MAX).min(self.data.len());
        if self.fail_at == Some(self.pos) {
            return Err(io::Error::other(format!(
                "injected fault at byte {}",
                self.pos
            )));
        }
        let n = self.lens[self.calls % self.lens.len()]
            .min(buf.len())
            .min(end - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Everything a decoder yields, errors rendered through `Debug` (which
/// names the variant, the record position and the I/O message); a header
/// error is the one entry.
fn decode_all<I>(opened: Result<I, TraceError>) -> Vec<Result<Record, String>>
where
    I: Iterator<Item = Result<Record, TraceError>>,
{
    match opened {
        Ok(iter) => iter.map(|r| r.map_err(|e| format!("{e:?}"))).collect(),
        Err(e) => vec![Err(format!("{e:?}"))],
    }
}

/// Asserts the buffered and the reference decoder agree on `bytes` read
/// through the same short-read schedule and fault.
fn same_decode(bytes: &[u8], lens: &[usize], fail_at: Option<usize>) -> Result<(), TestCaseError> {
    let buffered = decode_all(BinReader::new(ChoppyReader::new(bytes, lens, fail_at)));
    let reference = decode_all(ByteReader::new(ChoppyReader::new(bytes, lens, fail_at)));
    prop_assert_eq!(
        &buffered,
        &reference,
        "{} bytes, reads {:?}, fault at {:?}",
        bytes.len(),
        lens,
        fail_at
    );
    Ok(())
}

fn encode(records: &[Record]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = BinWriter::new(&mut buf).expect("header");
    w.write_all(records.iter().copied()).expect("write");
    w.finish().expect("finish");
    buf
}

/// Short-read schedules: read lengths of 1..=N bytes.
fn reads_strategy(max: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=max, 1..8)
}

/// Bytes that stress the decoder: valid kind labels, continuation bytes
/// (long and overflowing varints) and anything at all.
fn garbage_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop_oneof![0u8..3, 0x80u8..=0xff, any::<u8>()], 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn buffered_decoder_matches_reference_on_every_prefix(
        records in prop::collection::vec(record_strategy(), 0..40),
        lens in reads_strategy(16),
    ) {
        let bytes = encode(&records);
        for cut in 0..=bytes.len() {
            same_decode(&bytes[..cut], &lens, None)?;
        }
    }

    #[test]
    fn buffered_decoder_matches_reference_on_damaged_streams(
        records in prop::collection::vec(record_strategy(), 0..120),
        flips in prop::collection::vec((any::<usize>(), 0u32..8), 0..4),
        garbage in garbage_strategy(),
        lens in reads_strategy(24),
        fault in any::<u64>(),
    ) {
        let mut bytes = encode(&records);
        for (at, bit) in flips {
            let i = at % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        bytes.extend_from_slice(&garbage);
        same_decode(&bytes, &lens, None)?;
        // The same stream with the source failing at one offset: every
        // record before the fault, then the same error.
        let fail_at = (fault % (bytes.len() as u64 + 1)) as usize;
        same_decode(&bytes, &lens, Some(fail_at))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Streams several times the decoder's buffer, read in pieces up to
    /// twice its size, so records straddle full-buffer refills.
    #[test]
    fn buffered_decoder_matches_reference_across_buffer_refills(
        records in prop::collection::vec(record_strategy(), 20_000..30_000),
        lens in prop::collection::vec(1usize..=128 * 1024, 1..6),
        garbage in garbage_strategy(),
    ) {
        let mut bytes = encode(&records);
        bytes.extend_from_slice(&garbage);
        same_decode(&bytes, &lens, None)?;
    }
}
