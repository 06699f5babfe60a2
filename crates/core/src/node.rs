//! Per-node sentinels and the FIFO round-robin step shared by the arena
//! kernels.
//!
//! The paper's layout (Section 5): each tag-list entry holds a tag and a wave
//! pointer; each tree node additionally holds the MRA tag, the MRE tag and
//! the MRE entry's wave pointer. Per node that is `96 + 64·A` bits in the
//! paper's 32-bit implementation; this crate widens tags to 64 bits (see
//! `DESIGN.md`, substitutions) and stores every field as a dense per-field
//! lane of the arena (`crate::arena`).

/// Sentinel for "no tag": cold MRA/MRE entries and invalid ways.
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
