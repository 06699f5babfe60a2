//! Per-node sentinels and the FIFO round-robin step shared by the arena
//! kernels.
//!
//! The paper's layout (Section 5): each tag-list entry holds a tag and a wave
//! pointer; each tree node additionally holds the MRA tag, the MRE tag and
//! the MRE entry's wave pointer. Per node that is `96 + 64·A` bits in the
//! paper's 32-bit implementation. This crate keeps 32-bit MRA and way tags
//! while every block fits below the 32-bit sentinel and widens them to 64
//! bits, once, when one does not (see `DESIGN.md`, substitutions, and
//! `crate::arena::Tag`); every field is a dense per-field lane of the arena
//! (`crate::arena`).

/// Sentinel for "no tag" at 64 bits: cold MRE entries, the previous block
/// before the first request, invalid ways of promoted (64-bit) lanes and of
/// every snapshot image. Narrow lanes use `u32::MAX`.
///
/// Block numbers are bounded by the `max_set_bits + block_bits <= 58`
/// validation in [`crate::PassConfig::new`] plus a runtime assert in
/// the batch loop, so real tags can never equal the sentinel.
pub(crate) const INVALID_TAG: u64 = u64::MAX;

/// Sentinel for an "empty" wave pointer (paper Algorithm 2, line 7).
pub(crate) const EMPTY_WAVE: u32 = u32::MAX;

/// Advances a FIFO round-robin pointer with a conditional wrap: `%` on a
/// runtime associativity would be a hardware divide in the per-miss path.
#[inline]
pub(crate) fn fifo_advance(ptr: u32, assoc: usize) -> u32 {
    let next = ptr + 1;
    if next as usize == assoc {
        0
    } else {
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_advance_wraps_at_assoc() {
        assert_eq!(fifo_advance(0, 4), 1);
        assert_eq!(fifo_advance(3, 4), 0);
        assert_eq!(fifo_advance(0, 1), 0);
    }
}
