//! Reader and writer for the Dinero IV `din` text trace format.
//!
//! Each line is `<label> <hex-address>`, where the label is `0` (data read),
//! `1` (data write) or `2` (instruction fetch). Blank lines and lines starting
//! with `#` are skipped by the reader; a trailing third column (the optional
//! Dinero size field) is tolerated and ignored. A line that is not valid
//! UTF-8 is a malformed record like any other, reported with its line
//! number.
//!
//! # Examples
//!
//! ```
//! use dew_trace::din::{DinReader, DinWriter};
//! use dew_trace::{Record, TraceError};
//!
//! # fn main() -> Result<(), TraceError> {
//! let mut out = Vec::new();
//! let mut w = DinWriter::new(&mut out);
//! w.write_record(Record::read(0x400))?;
//! w.write_record(Record::write(0x404))?;
//! w.finish()?;
//!
//! let records: Result<Vec<_>, _> = DinReader::new(out.as_slice()).collect();
//! assert_eq!(records?.len(), 2);
//! # Ok(())
//! # }
//! ```

use std::io::{BufRead, Write};

use crate::error::{ParseRecordError, TraceError};
use crate::record::Record;

/// Streaming reader for `din` text traces.
///
/// Implements [`Iterator`] over `Result<Record, TraceError>`, so it can be
/// consumed lazily or `collect()`ed into a `Result<Trace, _>`.
#[derive(Debug)]
pub struct DinReader<R> {
    inner: R,
    line: u64,
    buf: Vec<u8>,
}

impl<R: BufRead> DinReader<R> {
    /// Creates a reader over any buffered source. A plain `&[u8]` works for
    /// in-memory parsing; pass `&mut reader` to keep ownership.
    pub fn new(inner: R) -> Self {
        DinReader {
            inner,
            line: 0,
            buf: Vec::new(),
        }
    }

    /// The number of source lines consumed so far (including skipped ones).
    #[must_use]
    pub fn lines_read(&self) -> u64 {
        self.line
    }

    /// Consumes the reader, returning the underlying source.
    pub fn into_inner(self) -> R {
        self.inner
    }

    fn next_record(&mut self) -> Option<Result<Record, TraceError>> {
        loop {
            self.buf.clear();
            match self.inner.read_until(b'\n', &mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(TraceError::Io(e))),
            }
            self.line += 1;
            let parsed = match std::str::from_utf8(&self.buf) {
                Ok(text) => {
                    let trimmed = text.trim();
                    if trimmed.is_empty() || trimmed.starts_with('#') {
                        continue;
                    }
                    trimmed.parse::<Record>()
                }
                Err(_) => Err(ParseRecordError::NotUtf8),
            };
            return Some(parsed.map_err(|source| TraceError::Parse {
                position: self.line,
                source,
            }));
        }
    }
}

impl<R: BufRead> Iterator for DinReader<R> {
    type Item = Result<Record, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record()
    }
}

/// Streaming writer for `din` text traces.
#[derive(Debug)]
pub struct DinWriter<W> {
    inner: W,
    written: u64,
}

impl<W: Write> DinWriter<W> {
    /// Creates a writer over any sink. Pass `&mut writer` to keep ownership.
    pub fn new(inner: W) -> Self {
        DinWriter { inner, written: 0 }
    }

    /// Writes one record as a `din` line.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the sink fails.
    pub fn write_record(&mut self, record: Record) -> Result<(), TraceError> {
        writeln!(self.inner, "{} {:x}", record.kind.din_label(), record.addr)?;
        self.written += 1;
        Ok(())
    }

    /// Writes every record of an iterator.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessKind;

    #[test]
    fn reads_skipping_comments_and_blanks() {
        let src = "# header\n\n0 100\n   \n2 200\n";
        let recs: Vec<Record> = DinReader::new(src.as_bytes())
            .collect::<Result<_, _>>()
            .expect("parse");
        assert_eq!(recs, vec![Record::read(0x100), Record::ifetch(0x200)]);
    }

    #[test]
    fn reports_line_numbers_on_error() {
        let src = "0 100\n7 200\n";
        let mut reader = DinReader::new(src.as_bytes());
        assert!(reader.next().expect("first").is_ok());
        match reader.next().expect("second") {
            Err(TraceError::Parse { position, source }) => {
                assert_eq!(position, 2);
                assert_eq!(source, ParseRecordError::UnknownLabel(7));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn a_non_utf8_line_is_a_numbered_parse_error() {
        let mut reader = DinReader::new(&b"0 10\n1 \xff20\n2 30\n"[..]);
        assert_eq!(
            reader.next().expect("first").expect("ok"),
            Record::read(0x10)
        );
        match reader.next().expect("second") {
            Err(err @ TraceError::Parse { position: 2, .. }) => {
                assert!(!err.is_transient(), "{err}");
                assert!(matches!(
                    err,
                    TraceError::Parse {
                        source: ParseRecordError::NotUtf8,
                        ..
                    }
                ));
            }
            other => panic!("expected a parse error at line 2, got {other:?}"),
        }
        // The bad line is counted, so later positions stay right.
        assert_eq!(reader.lines_read(), 2);
        assert_eq!(
            reader.next().expect("third").expect("ok"),
            Record::ifetch(0x30)
        );
        assert!(reader.next().is_none());
    }

    #[test]
    fn writer_output_is_reader_input() {
        let records = vec![
            Record::read(0xdead),
            Record::write(0xbeef),
            Record::ifetch(0x1234_5678),
        ];
        let mut out = Vec::new();
        let mut w = DinWriter::new(&mut out);
        w.write_all(records.iter().copied()).expect("write");
        assert_eq!(w.records_written(), 3);
        w.finish().expect("finish");

        let back: Vec<Record> = DinReader::new(out.as_slice())
            .collect::<Result<_, _>>()
            .expect("read");
        assert_eq!(back, records);
    }

    #[test]
    fn tolerates_dinero_size_column() {
        let src = "1 400 4\n";
        let recs: Vec<Record> = DinReader::new(src.as_bytes())
            .collect::<Result<_, _>>()
            .expect("parse");
        assert_eq!(recs, vec![Record::new(0x400, AccessKind::Write)]);
    }

    #[test]
    fn lines_read_counts_every_source_line() {
        let src = "# c\n0 1\n# c\n0 2\n";
        let mut reader = DinReader::new(src.as_bytes());
        while reader.next().is_some() {}
        assert_eq!(reader.lines_read(), 4);
    }
}
