//! Streaming, bounded-memory trace ingestion.
//!
//! [`crate::BlockChunks`] batches block numbers out of a fully-decoded
//! `&[Record]`; that caps the trace length at available RAM. A
//! [`TraceSource`] is instead "a trace that can be traversed from the start
//! more than once" over *any* fallible record iterator — a
//! [`crate::binary::BinReader`] over a file, a synthetic generator, a
//! network stream — so arbitrarily long traces feed the batched kernels
//! without ever being materialised: a multi-pass sweep opens one fresh
//! iterator per block size and fills its own block buffer from it.
//! Closures returning record iterators implement the trait directly, and
//! [`SliceSource`] adapts an in-memory `&[Record]`.
//!
//! Unlike `BlockChunks`, a streamed source can fail mid-trace (truncated
//! file, corrupt varint), so its items are `Result`s — a malformed tail
//! surfaces as the underlying [`TraceError`] instead of a panic or silent
//! truncation.
//!
//! # Examples
//!
//! ```
//! use dew_trace::binary::{BinReader, BinWriter};
//! use dew_trace::{Record, TraceSource};
//!
//! let mut bytes = Vec::new();
//! let mut w = BinWriter::new(&mut bytes).expect("header");
//! w.write_all((0..100u64).map(|i| Record::read(i * 4))).expect("write");
//! w.finish().expect("finish");
//!
//! // Each traversal re-opens the encoded trace from its first record.
//! let source = || BinReader::new(bytes.as_slice());
//! for _ in 0..2 {
//!     let blocks: Vec<u64> = source
//!         .open()
//!         .expect("opens")
//!         .map(|r| r.expect("clean trace").addr >> 4)
//!         .collect();
//!     assert_eq!(blocks.len(), 100);
//!     assert_eq!(blocks[5], 5 * 4 >> 4);
//! }
//! ```

use crate::error::TraceError;
use crate::record::Record;

/// A trace that can be traversed from the start any number of times.
///
/// Multi-pass simulation needs one full traversal per block size;
/// a streaming sweep therefore re-opens its source once per fused pass
/// instead of holding the decoded trace in memory. Implementors are
/// shared across worker threads, hence the `Sync` bound.
///
/// Any `Fn() -> Result<I, TraceError>` closure producing a record iterator
/// is a source, so a deterministic generator or a file re-opener needs no
/// wrapper type:
///
/// ```
/// use dew_trace::{Record, TraceError, TraceSource};
///
/// let source = || {
///     Ok((0..1000u64).map(|i| Ok::<_, TraceError>(Record::read(i % 640))))
/// };
/// let n: usize = source.open().expect("opens").count();
/// assert_eq!(n, 1000);
/// ```
pub trait TraceSource: Sync {
    /// The record iterator one traversal consumes.
    type Iter: Iterator<Item = Result<Record, TraceError>>;

    /// Starts a fresh traversal from the first record.
    ///
    /// # Errors
    ///
    /// [`TraceError`] when the underlying medium cannot be (re)opened.
    fn open(&self) -> Result<Self::Iter, TraceError>;
}

impl<F, I> TraceSource for F
where
    F: Fn() -> Result<I, TraceError> + Sync,
    I: Iterator<Item = Result<Record, TraceError>>,
{
    type Iter = I;

    fn open(&self) -> Result<I, TraceError> {
        self()
    }
}

/// [`TraceSource`] view of an in-memory record slice, for driving the
/// streaming path with a materialised trace (tests, equivalence checks).
#[derive(Debug, Clone, Copy)]
pub struct SliceSource<'a>(pub &'a [Record]);

/// Infallible record iterator over a slice.
#[derive(Debug)]
pub struct SliceIter<'a>(std::slice::Iter<'a, Record>);

impl Iterator for SliceIter<'_> {
    type Item = Result<Record, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|r| Ok(*r))
    }
}

impl<'a> TraceSource for SliceSource<'a> {
    type Iter = SliceIter<'a>;

    fn open(&self) -> Result<SliceIter<'a>, TraceError> {
        Ok(SliceIter(self.0.iter()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::BinWriter;
    use crate::binary::{BinReader, MAGIC};

    fn records(n: u64) -> Vec<Record> {
        (0..n).map(|i| Record::read(i * 3 + 1)).collect()
    }

    #[test]
    fn truncated_binary_trace_is_an_error_not_a_panic() {
        // A valid header and one record, then chop the final varint byte:
        // the streaming path must surface `Truncated`, not panic or hang.
        let mut out = Vec::new();
        let mut w = BinWriter::new(&mut out).expect("header");
        w.write_record(Record::read(0x1234_5678)).expect("write");
        w.write_record(Record::read(0x9abc_def0)).expect("write");
        w.finish().expect("finish");
        out.pop();
        let mut reader = BinReader::new(out.as_slice()).expect("header");
        // The first record decodes; the stream stops at the corrupt tail.
        assert_eq!(
            reader.next().expect("first record").expect("clean"),
            Record::read(0x1234_5678)
        );
        assert!(matches!(
            reader.next(),
            Some(Err(TraceError::Truncated { position: 2 }))
        ));
        assert!(
            reader.next().is_none(),
            "a failed stream yields no further records"
        );
    }

    #[test]
    fn corrupt_kind_byte_is_an_error_with_position() {
        let mut out = Vec::new();
        BinWriter::new(&mut out)
            .expect("header")
            .finish()
            .expect("finish");
        out.push(7); // bogus access kind
        out.push(0);
        let source = || BinReader::new(out.as_slice());
        let mut reader = source.open().expect("header");
        assert!(matches!(
            reader.next(),
            Some(Err(TraceError::Parse { position: 1, .. }))
        ));
        assert!(reader.next().is_none());
    }

    #[test]
    fn foreign_bytes_fail_at_open_not_in_the_chunk_loop() {
        // A source that reopens foreign bytes fails at `open`, before any
        // record is read.
        let mut garbage = Vec::from(&MAGIC[..2]);
        garbage.extend_from_slice(b"zz\x01\x00");
        let source = || BinReader::new(garbage.as_slice());
        assert!(matches!(source.open(), Err(TraceError::BadMagic)));
    }

    #[test]
    fn closure_and_slice_sources_reopen_identically() {
        let r = records(300);
        let slice_src = SliceSource(&r);
        let closure_src = || Ok((0..300u64).map(|i| Ok(Record::read(i * 3 + 1))));
        for _ in 0..2 {
            let a: Vec<Record> = slice_src
                .open()
                .expect("slice opens")
                .collect::<Result<_, _>>()
                .expect("slice is clean");
            let b: Vec<Record> = TraceSource::open(&closure_src)
                .expect("closure opens")
                .collect::<Result<_, _>>()
                .expect("generator is clean");
            assert_eq!(a, r);
            assert_eq!(b, r);
        }
    }
}
