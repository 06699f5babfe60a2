//! Batched block-number decoding: turn a record stream into the bare `u64`
//! block numbers a simulation kernel consumes.
//!
//! Simulators only look at `addr >> block_bits`, and a multi-pass sweep
//! re-reads the same trace once per pass. Decoding the block numbers **once**
//! per block size — and handing every pass (and every worker thread) the same
//! flat `&[u64]` — removes the per-pass re-iteration over 16-byte [`Record`]s
//! from the hot path entirely. [`decode_blocks`] materialises the whole
//! stream; [`BlockChunks`] streams it through a reusable fixed-size buffer
//! when the trace is too large to hold twice in memory.
//!
//! # Examples
//!
//! ```
//! use dew_trace::{decode_blocks, BlockChunks, Record};
//!
//! let records: Vec<Record> = (0..100u64).map(|i| Record::read(i * 4)).collect();
//! let blocks = decode_blocks(&records, 4); // 16-byte blocks
//! assert_eq!(blocks.len(), 100);
//! assert_eq!(blocks[5], 5 * 4 >> 4);
//!
//! // Chunked: same numbers, bounded memory.
//! let mut chunks = BlockChunks::new(&records, 4, 32);
//! let mut streamed = Vec::new();
//! while let Some(chunk) = chunks.next_chunk() {
//!     streamed.extend_from_slice(chunk);
//! }
//! assert_eq!(streamed, blocks);
//! ```

use crate::record::Record;

/// Decodes every record's block number (`addr >> block_bits`) into a fresh
/// vector.
#[must_use]
pub fn decode_blocks(records: &[Record], block_bits: u32) -> Vec<u64> {
    let mut out = Vec::new();
    decode_blocks_into(records, block_bits, &mut out);
    out
}

/// Decodes every record's block number into `out`, clearing it first.
/// Reusing one buffer across decodes avoids reallocation when a sweep walks
/// several block sizes.
pub(crate) fn decode_blocks_into(records: &[Record], block_bits: u32, out: &mut Vec<u64>) {
    out.clear();
    out.reserve(records.len());
    out.extend(records.iter().map(|r| r.addr >> block_bits));
}

/// A streaming block decoder: yields the trace's block numbers as `&[u64]`
/// chunks through one reusable buffer, so arbitrarily long traces can feed
/// batched kernels with bounded extra memory.
#[derive(Debug)]
pub struct BlockChunks<'a> {
    records: &'a [Record],
    block_bits: u32,
    /// Requested chunk length. Kept separately from `buf.capacity()`, which
    /// `Vec` is allowed to round up.
    chunk_len: usize,
    buf: Vec<u64>,
}

impl<'a> BlockChunks<'a> {
    /// Default chunk length: 64 Ki blocks (512 KiB of buffer) — big enough
    /// to amortise per-batch dispatch, small enough to stay cache-friendly.
    pub const DEFAULT_CHUNK: usize = 1 << 16;

    /// Creates a decoder over `records` yielding at most `chunk_len` block
    /// numbers per call (a zero `chunk_len` is promoted to 1).
    #[must_use]
    pub fn new(records: &'a [Record], block_bits: u32, chunk_len: usize) -> Self {
        let chunk_len = chunk_len.max(1);
        BlockChunks {
            records,
            block_bits,
            chunk_len,
            buf: Vec::with_capacity(chunk_len),
        }
    }

    /// Re-targets the decoder at a new record stream and block size while
    /// keeping the allocated buffer, so one decoder can serve many passes
    /// (a sweep resets it once per block size instead of allocating per
    /// pass).
    pub fn reset(&mut self, records: &'a [Record], block_bits: u32) {
        self.records = records;
        self.block_bits = block_bits;
    }

    /// Decodes and returns the next chunk, or `None` once the trace is
    /// exhausted. The returned slice is only valid until the next call.
    pub fn next_chunk(&mut self) -> Option<&[u64]> {
        if self.records.is_empty() {
            return None;
        }
        let n = self.records.len().min(self.chunk_len);
        let (head, rest) = self.records.split_at(n);
        self.records = rest;
        decode_blocks_into(head, self.block_bits, &mut self.buf);
        Some(&self.buf)
    }

    /// Records not yet decoded.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: u64) -> Vec<Record> {
        (0..n).map(|i| Record::read(i * 3 + 1)).collect()
    }

    #[test]
    fn decode_matches_manual_shift() {
        let r = records(257);
        for bits in [0u32, 2, 6] {
            let blocks = decode_blocks(&r, bits);
            assert_eq!(blocks.len(), r.len());
            for (b, rec) in blocks.iter().zip(&r) {
                assert_eq!(*b, rec.addr >> bits);
            }
        }
    }

    #[test]
    fn decode_into_reuses_and_clears() {
        let r = records(10);
        let mut buf = vec![99; 500];
        decode_blocks_into(&r, 1, &mut buf);
        assert_eq!(buf.len(), 10);
        assert_eq!(buf[3], r[3].addr >> 1);
    }

    #[test]
    fn chunks_cover_everything_in_order() {
        let r = records(1000);
        let whole = decode_blocks(&r, 2);
        for chunk_len in [1usize, 7, 256, 1000, 5000] {
            let mut chunks = BlockChunks::new(&r, 2, chunk_len);
            let mut got = Vec::new();
            while let Some(c) = chunks.next_chunk() {
                assert!(c.len() <= chunk_len.max(1));
                got.extend_from_slice(c);
            }
            assert_eq!(got, whole, "chunk_len={chunk_len}");
            assert_eq!(chunks.remaining(), 0);
        }
    }

    #[test]
    fn empty_trace_yields_no_chunks() {
        let mut chunks = BlockChunks::new(&[], 4, 16);
        assert!(chunks.next_chunk().is_none());
    }

    #[test]
    fn reset_reuses_one_decoder_across_block_sizes() {
        let r = records(300);
        let mut chunks = BlockChunks::new(&[], 0, 64);
        assert!(chunks.next_chunk().is_none());
        for bits in [0u32, 3, 5] {
            chunks.reset(&r, bits);
            let mut got = Vec::new();
            while let Some(c) = chunks.next_chunk() {
                got.extend_from_slice(c);
            }
            assert_eq!(got, decode_blocks(&r, bits), "bits={bits}");
        }
    }
}
