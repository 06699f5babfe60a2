//! Checkpointing support: the error type and shared helpers of the kernel
//! snapshot codec, which serialises a fused arena kernel's complete state
//! to bytes and restores it later ([`crate::Arena::to_snapshot`] /
//! [`crate::Arena::from_snapshot`]).
//!
//! Real traces are long (the paper's MPEG2 encode trace has 3.7 billion
//! requests); snapshots let a simulation be split across batch jobs, saved
//! before the interesting region of a trace, or shipped between machines,
//! and they carry the checkpoint sidecars' per-job state. Each policy's kernel writes its own
//! magic (FIFO `DEWM`, LRU `DEWL`, tree-PLRU `DEWP`, SLRU `DEWU`) over one
//! little-endian layout; geometry and options are embedded, so a snapshot
//! is self-describing:
//!
//! ```text
//! magic    4 bytes, the policy's
//! version  u8
//! geometry block_bits, min_set_bits, max_set_bits, min_assoc_bits,
//!          max_assoc_bits                                 (u32 each)
//! flags    u8 (the policy's options and the instrumented bit)
//! state    the policy's counters, its per-lane tallies, and the previous
//!          block when the policy elides duplicates
//! arena    misses per (level, lane), direct-mapped misses per level, the
//!          MRA lane, every node's way tags, then the policy's own lanes —
//!          sizes derived from the header and checked before allocating
//! ```
//!
//! The way tags are sparse since `DEWM` 3, `DEWL` 2, `DEWP` 3 and `DEWU` 3:
//! each node's region goes out in 64-word chunks, each an occupancy bitmap
//! (bit `i` set iff word `i` holds a tag, not the invalid-tag sentinel)
//! followed by the chunk's set words in order. Ways never filled, which are
//! most of a forest's deep levels, cost one bit each. The decoder starts
//! from an all-sentinel arena and refuses a bitmap bit past the region or
//! a set bit whose word is the sentinel, so each kernel state has exactly
//! one image. Older versions carry every word of every region and still
//! decode that way.
//!
//! # Examples
//!
//! ```
//! use dew_core::{DewOptions, MultiAssocTree, PassConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pass = PassConfig::new(2, 0, 4, 2)?;
//! let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), false)?;
//! for a in 0..1000u64 {
//!     tree.step(a * 4 % 512);
//! }
//! let snapshot = tree.to_snapshot();
//!
//! let mut restored = MultiAssocTree::from_snapshot(&snapshot)?;
//! restored.step(0x40); // continues exactly where `tree` would
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

pub(crate) use crate::arena::{ArenaDims, Cursor};

/// Errors restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The buffer is a valid kernel snapshot, but for a *different* policy's
    /// kernel — each fused kernel writes its own magic (FIFO `DEWM`, LRU
    /// `DEWL`, tree-PLRU `DEWP`, SLRU `DEWU`) and rejects its siblings'.
    /// Distinguished from [`SnapshotError::BadMagic`] so resume paths can
    /// report a policy mixup rather than generic corruption.
    PolicyMismatch {
        /// The magic of the kernel that tried to restore the buffer.
        expected: [u8; 4],
        /// The magic actually found in the buffer.
        found: [u8; 4],
    },
    /// The snapshot was written by an unsupported format version.
    UnsupportedVersion(u8),
    /// The buffer ended before the state was complete, or geometry fields
    /// were invalid.
    Corrupt(&'static str),
    /// Trailing bytes after the complete state.
    TrailingBytes(usize),
    /// A version-1 `DEWM` image counts work settled by the retired FIFO
    /// intersection link, which no current kernel can continue.
    RetiredLink,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a dew snapshot (bad magic)"),
            SnapshotError::PolicyMismatch { expected, found } => write!(
                f,
                "kernel snapshot policy mismatch: expected a {} buffer, found {}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found),
            ),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after snapshot state")
            }
            SnapshotError::RetiredLink => write!(
                f,
                "the snapshot counts work of the retired FIFO intersection link; \
                 re-run its sweep instead of resuming it"
            ),
        }
    }
}

impl Error for SnapshotError {}

/// Checks, before a kernel decoder allocates anything, that the rest of
/// the buffer can hold the body its header describes: a forest over set
/// counts `2^set_bits.0..=2^set_bits.1`, whose lanes `body` maps to the
/// body's least `(fixed, per-level, per-node)` byte counts. The total is
/// computed with checked arithmetic, so a hostile header costs a few
/// integer operations, not an arena sized from it.
///
/// The bound this gives: a sparse way-tag region costs at least one
/// bitmap word per 64 region words, and every other lane is dense, so a
/// buffer that passes allocates at most about 64 lane words per word it
/// holds (tested on inflated headers in
/// `tests/proptest_snapshot_decoders.rs`). The dense versions allocate at
/// most about one.
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] when the associativity cannot be a `u32`
/// power of two, when the dimensions overflow, or when fewer bytes remain
/// than the body needs.
pub(crate) fn check_body_len(
    cur: &Cursor<'_>,
    set_bits: (u32, u32),
    assoc_bits: (u32, u32),
    body: impl FnOnce(ArenaDims) -> (u64, u64, u64),
) -> Result<(), SnapshotError> {
    const GEOMETRY: SnapshotError = SnapshotError::Corrupt("invalid arena geometry");
    let pow2 = |bits: u32| 1u64.checked_shl(bits);
    if assoc_bits.1 >= u32::BITS {
        return Err(GEOMETRY);
    }
    let levels = u64::from(set_bits.1.checked_sub(set_bits.0).ok_or(GEOMETRY)?) + 1;
    let nodes = set_bits
        .1
        .checked_add(1)
        .and_then(pow2)
        .and_then(|top| top.checked_sub(pow2(set_bits.0)?))
        .ok_or(GEOMETRY)?;
    let first_lane = assoc_bits.0.max(1);
    let (lanes, stride) = if assoc_bits.1 < first_lane {
        (0, 0)
    } else {
        // Bounded by the check above: at most 31 lanes, under 2^32 tags.
        (
            u64::from(assoc_bits.1 - first_lane + 1),
            (1u64 << (assoc_bits.1 + 1)) - (1u64 << first_lane),
        )
    };
    let dims = ArenaDims {
        lanes,
        stride,
        width: 1u64 << assoc_bits.1,
    };
    let (fixed, per_level, per_node) = body(dims);
    let need = levels
        .checked_mul(per_level)
        .and_then(|n| n.checked_add(nodes.checked_mul(per_node)?))
        .and_then(|n| n.checked_add(fixed));
    match need {
        Some(need) if need <= cur.remaining() as u64 => Ok(()),
        _ => Err(SnapshotError::Corrupt("unexpected end of snapshot")),
    }
}

/// Little-endian append helpers for the writer side.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_what_writers_wrote() {
        let mut buf = Vec::new();
        buf.push(7u8);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().expect("u8"), 7);
        assert_eq!(c.u32().expect("u32"), 0xdead_beef);
        assert_eq!(c.u64().expect("u64"), u64::MAX - 1);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn cursor_detects_truncation() {
        let buf = [1u8, 2, 3];
        let mut c = Cursor::new(&buf);
        assert!(c.u32().is_err());
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            SnapshotError::BadMagic,
            SnapshotError::PolicyMismatch {
                expected: *b"DEWM",
                found: *b"DEWL",
            },
            SnapshotError::UnsupportedVersion(3),
            SnapshotError::Corrupt("x"),
            SnapshotError::TrailingBytes(9),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
