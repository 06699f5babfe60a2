//! The in-memory [`Trace`] container.

use std::fmt;
use std::path::Path;

use crate::binary::{BinReader, BinWriter};
use crate::din::{DinReader, DinWriter};
use crate::record::Record;
use crate::stats::TraceStats;
use crate::TraceError;

/// An in-memory, ordered sequence of memory requests.
///
/// `Trace` is deliberately a thin wrapper over `Vec<Record>`: simulators take
/// `&[Record]` or any `IntoIterator<Item = Record>`, so the container only
/// adds file I/O and statistics convenience.
///
/// # Examples
///
/// ```
/// use dew_trace::{Record, Trace};
///
/// let trace: Trace = (0..8u64).map(|i| Record::read(i * 4)).collect();
/// assert_eq!(trace.len(), 8);
/// let stats = trace.stats();
/// assert_eq!(stats.total(), 8);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    records: Vec<Record>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace {
            records: Vec::new(),
        }
    }

    /// Creates a trace from a vector of records.
    #[must_use]
    pub fn from_records(records: Vec<Record>) -> Self {
        Trace { records }
    }

    /// The records, in request order.
    #[must_use]
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of requests in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace holds no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends one record.
    pub fn push(&mut self, record: Record) {
        self.records.push(record);
    }

    /// Borrowing iterator over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, Record> {
        self.records.iter()
    }

    /// Consumes the trace, returning the underlying vector.
    #[must_use]
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }

    /// Computes streaming statistics over the whole trace.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats::new();
        for r in &self.records {
            stats.observe(*r);
        }
        stats
    }

    /// Reads a trace from a Dinero `din` text file.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on I/O failure and [`TraceError::Parse`] on
    /// the first malformed line.
    pub fn read_din_file(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let file = std::fs::File::open(path)?;
        let reader = DinReader::new(std::io::BufReader::new(file));
        reader.collect()
    }

    /// Writes the trace as a Dinero `din` text file.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on I/O failure.
    pub fn write_din_file(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let file = std::fs::File::create(path)?;
        let mut writer = DinWriter::new(std::io::BufWriter::new(file));
        writer.write_all(self.records.iter().copied())?;
        writer.finish()?;
        Ok(())
    }

    /// Reads a trace from the compact binary format.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on I/O failure or a malformed stream.
    pub fn read_bin_file(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        BinReader::new(std::fs::File::open(path)?)?.collect()
    }

    /// Writes the trace in the compact binary format.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on I/O failure.
    pub fn write_bin_file(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let file = std::fs::File::create(path)?;
        let mut writer = BinWriter::new(std::io::BufWriter::new(file))?;
        writer.write_all(self.records.iter().copied())?;
        writer.finish()?;
        Ok(())
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace with {} requests", self.records.len())
    }
}

impl FromIterator<Record> for Trace {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<Record> for Trace {
    fn extend<I: IntoIterator<Item = Record>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = Record;
    type IntoIter = std::vec::IntoIter<Record>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Record;
    type IntoIter = std::slice::Iter<'a, Record>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl AsRef<[Record]> for Trace {
    fn as_ref(&self) -> &[Record] {
        &self.records
    }
}

impl From<Vec<Record>> for Trace {
    fn from(records: Vec<Record>) -> Self {
        Trace { records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessKind;

    fn sample() -> Trace {
        Trace::from_records(vec![
            Record::read(0x100),
            Record::write(0x104),
            Record::ifetch(0x4000),
            Record::read(0x100),
        ])
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Trace = (0..4u64).map(Record::read).collect();
        t.extend([Record::write(9)]);
        assert_eq!(t.len(), 5);
        assert_eq!(t.records()[4], Record::write(9));
    }

    #[test]
    fn iteration_orders_match() {
        let t = sample();
        let by_ref: Vec<Record> = t.iter().copied().collect();
        let owned: Vec<Record> = t.clone().into_iter().collect();
        assert_eq!(by_ref, owned);
    }

    #[test]
    fn stats_counts_kinds() {
        let s = sample().stats();
        assert_eq!(s.total(), 4);
        assert_eq!(s.count(AccessKind::Read), 2);
        assert_eq!(s.count(AccessKind::Write), 1);
        assert_eq!(s.count(AccessKind::InstrFetch), 1);
    }

    #[test]
    fn din_file_round_trip() {
        let dir = std::env::temp_dir().join("dew_trace_test_din");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join(format!("t{}.din", std::process::id()));
        let t = sample();
        t.write_din_file(&path).expect("write");
        let back = Trace::read_din_file(&path).expect("read");
        assert_eq!(back, t);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bin_file_round_trip() {
        let dir = std::env::temp_dir().join("dew_trace_test_bin");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join(format!("t{}.dewt", std::process::id()));
        let t = sample();
        t.write_bin_file(&path).expect("write");
        let back = Trace::read_bin_file(&path).expect("read");
        assert_eq!(back, t);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn display_mentions_length() {
        assert!(sample().to_string().contains('4'));
    }
}
