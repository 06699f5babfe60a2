//! The arena's tag width never shows in a result. Every fused kernel keeps
//! 32-bit MRA and way tags while its blocks fit below the 32-bit sentinel
//! and widens them to 64 bits, once, at the first block that does not.
//! For all four policies, fast and instrumented:
//!
//! * a random trace and the same trace shifted up by 2^32 blocks (wide from
//!   its first block, every set index unchanged) report identical results
//!   and per-pass counters;
//! * a stream crossing `u32::MAX` mid-batch and between batches, a narrow
//!   snapshot restored and then fed wide blocks, and the block `u32::MAX`
//!   itself (the narrow sentinel, which must promote) agree with the
//!   `dew_cachesim` oracle and with the uninterrupted run;
//! * `u64::MAX`, the 64-bit sentinel, still panics at either width.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
use dew_core::kernel::{FusedKernel, PolicyKernel};
use dew_core::{DewOptions, TreePolicy};
use dew_trace::Record;

/// Block size of every kernel here: 4-byte blocks, so block `b` is the
/// address `b << 2`.
const BLOCK_BITS: u32 = 2;
/// Set counts 1..=16 and associativities 1..=8.
const SET_BITS: (u32, u32) = (0, 4);
const ASSOC_BITS: (u32, u32) = (0, 3);

/// The first block that does not fit a 32-bit tag: the narrow sentinel.
const NARROW_LIMIT: u64 = u32::MAX as u64;

fn modes() -> impl Iterator<Item = (TreePolicy, bool)> {
    TreePolicy::ALL
        .into_iter()
        .flat_map(|p| [(p, false), (p, true)])
}

fn build(policy: TreePolicy, instrument: bool) -> FusedKernel {
    FusedKernel::build(
        BLOCK_BITS,
        SET_BITS,
        ASSOC_BITS,
        DewOptions::for_policy(policy),
        instrument,
    )
    .expect("valid geometry")
}

/// Runs `blocks` through a fresh kernel in chunks of `chunk` blocks.
fn run(policy: TreePolicy, instrument: bool, blocks: &[u64], chunk: usize) -> FusedKernel {
    let mut k = build(policy, instrument);
    for c in blocks.chunks(chunk.max(1)) {
        k.run_blocks(c);
    }
    k
}

fn assocs() -> impl Iterator<Item = u32> {
    (ASSOC_BITS.0..=ASSOC_BITS.1).map(|b| 1 << b)
}

/// `a` and `b` report the same results and per-pass counters everywhere.
fn same_reports(a: &FusedKernel, b: &FusedKernel) -> bool {
    assocs()
        .all(|x| a.pass_results(x) == b.pass_results(x) && a.pass_counters(x) == b.pass_counters(x))
}

/// Asserts `k`'s miss counts against the single-configuration simulator
/// at every `(sets, assoc)` pair.
fn assert_oracle(k: &FusedKernel, policy: TreePolicy, blocks: &[u64], who: &str) {
    let replacement = match policy {
        TreePolicy::Fifo => Replacement::Fifo,
        TreePolicy::Lru => Replacement::Lru,
        TreePolicy::Plru => Replacement::Plru,
        TreePolicy::Slru => Replacement::Slru,
    };
    let records: Vec<Record> = blocks
        .iter()
        .map(|&b| Record::read(b << BLOCK_BITS))
        .collect();
    for assoc in assocs() {
        let pass = k.pass_results(assoc).expect("simulated");
        for level in pass.levels() {
            let config = CacheConfig::new(level.sets(), assoc, 1 << BLOCK_BITS, replacement)
                .expect("valid config");
            assert_eq!(
                level.misses(),
                simulate_trace(config, &records).misses(),
                "{who}: {policy} sets={} assoc={assoc}",
                level.sets()
            );
        }
    }
}

/// A mixed narrow trace: a hot set, a medium working set and cold fills.
fn narrow_trace(n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match i % 5 {
                0 | 1 => x % 24,
                2 | 3 => x % 160,
                _ => 4096 + x % 4096,
            }
        })
        .collect()
}

/// `narrow` with every second block from `from` on moved past the 32-bit
/// range (same low bits, so the same sets, and aliases of the narrow
/// tags), led by the narrow sentinel itself.
fn crossing_trace(narrow: &[u64], from: usize) -> Vec<u64> {
    let mut blocks = narrow.to_vec();
    blocks.insert(from, NARROW_LIMIT);
    for b in blocks.iter_mut().skip(from + 1).step_by(2) {
        *b += 1 << 32;
    }
    blocks
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Shifting every block up by 2^32 changes no set index and no tag
    /// comparison, only the width the kernel runs at.
    #[test]
    fn a_trace_shifted_past_32_bits_reports_identically(
        blocks in prop::collection::vec(
            prop_oneof![0u64..32, 0u64..512, 0u64..65_536],
            1..400,
        ),
        chunk in 1usize..200,
    ) {
        let shifted: Vec<u64> = blocks.iter().map(|&b| b + (1 << 32)).collect();
        for (policy, instrument) in modes() {
            let narrow = run(policy, instrument, &blocks, chunk);
            let wide = run(policy, instrument, &shifted, chunk);
            prop_assert!(
                same_reports(&narrow, &wide),
                "{} instrument={}: the shifted trace reports differently",
                policy, instrument
            );
            // The shifted run held 64-bit tags from its first block.
            prop_assert!(wide.footprint_bytes() > narrow.footprint_bytes());
        }
    }
}

#[test]
fn a_stream_crossing_u32_max_mid_batch_and_mid_stream_agrees_with_the_oracle() {
    let blocks = crossing_trace(&narrow_trace(3000, 0xC0FFEE), 1700);
    for (policy, instrument) in modes() {
        let whole = run(policy, instrument, &blocks, blocks.len());
        assert_oracle(&whole, policy, &blocks, "one batch");
        // 1700 is a chunk boundary at 100 and mid-chunk at 97.
        for chunk in [1, 97, 100] {
            let chunked = run(policy, instrument, &blocks, chunk);
            assert!(
                same_reports(&whole, &chunked),
                "{policy} instrument={instrument} chunk={chunk}"
            );
            assert_eq!(chunked.to_snapshot(), whole.to_snapshot(), "{policy}");
        }
    }
}

#[test]
fn a_narrow_snapshot_restored_and_fed_wide_blocks_agrees() {
    let blocks = crossing_trace(&narrow_trace(2500, 0xBEEF), 1200);
    for (policy, instrument) in modes() {
        let whole = run(policy, instrument, &blocks, 256);
        assert_oracle(&whole, policy, &blocks, "uninterrupted");
        let head = run(policy, instrument, &blocks[..1200], 256);
        let image = head.to_snapshot();
        let mut resumed = FusedKernel::from_snapshot(policy, &image).expect("own image");
        // The image decodes narrow: same footprint, same bytes back.
        assert_eq!(resumed.footprint_bytes(), head.footprint_bytes());
        assert_eq!(resumed.to_snapshot(), image);
        for c in blocks[1200..].chunks(256) {
            resumed.run_blocks(c);
        }
        assert!(
            resumed.footprint_bytes() > head.footprint_bytes(),
            "{policy}"
        );
        assert!(
            same_reports(&whole, &resumed),
            "{policy} instrument={instrument}"
        );
        let image = resumed.to_snapshot();
        assert_eq!(image, whole.to_snapshot(), "{policy}");
        // A promoted kernel's image stays wide and resumes identically.
        let again = FusedKernel::from_snapshot(policy, &image).expect("own image");
        assert_eq!(again.footprint_bytes(), whole.footprint_bytes());
        assert_eq!(again.to_snapshot(), image);
    }
}

#[test]
fn the_narrow_sentinel_block_promotes_and_simulates() {
    // u32::MAX first as a cold miss, then as a re-hit among narrow blocks
    // sharing its sets.
    let mut blocks = narrow_trace(600, 0x5EED);
    for at in [300, 302, 305, 450] {
        blocks.insert(at, NARROW_LIMIT);
    }
    for (policy, instrument) in modes() {
        let k = run(policy, instrument, &blocks, 64);
        assert_oracle(&k, policy, &blocks, "u32::MAX");
        let narrow = run(policy, instrument, &blocks[..300], 64);
        assert!(k.footprint_bytes() > narrow.footprint_bytes(), "{policy}");
    }
}

#[test]
fn the_wide_sentinel_still_panics_at_either_width() {
    for (policy, instrument) in modes() {
        for prefix in [vec![0, 1], vec![0, 1 << 32]] {
            let panic = catch_unwind(AssertUnwindSafe(|| {
                let mut k = build(policy, instrument);
                k.run_blocks(&prefix);
                k.run_blocks(&[7, u64::MAX]);
            }))
            .expect_err("u64::MAX must panic");
            let msg = panic.downcast_ref::<String>().expect("formatted message");
            assert!(
                msg.contains("exceeds the supported range"),
                "{policy} instrument={instrument}: {msg}"
            );
        }
    }
}
