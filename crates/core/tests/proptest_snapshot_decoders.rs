//! Hostile-input robustness of the four kernel snapshot decoders (`DEWM`,
//! `DEWL`, `DEWP`, `DEWU`), fast and instrumented.
//!
//! Each case starts from a valid image and damages it: a cut at every
//! prefix length, a single flipped bit, or an inflated header or body
//! field. [`FusedKernel::from_snapshot`] must never panic on any of them,
//! and every truncated image must be refused.

use proptest::prelude::*;

use dew_core::kernel::{FusedKernel, PolicyKernel};
use dew_core::{DewOptions, TreePolicy};

/// Byte offsets of the five `u32` geometry fields after magic and version:
/// block bits, min/max set bits, min/max associativity bits.
const HEADER_FIELDS: [usize; 5] = [5, 9, 13, 17, 21];

/// A valid image of `policy`'s kernel (three lanes of 2, 4 and 8 ways over
/// four levels) after a short trace with reuse, evictions and cold fills.
fn image(policy: TreePolicy, instrument: bool) -> Vec<u8> {
    let options = DewOptions::for_policy(policy);
    let mut kernel =
        FusedKernel::build(2, (0, 3), (0, 3), options, instrument).expect("valid geometry");
    let blocks: Vec<u64> = (0..400u64).map(|i| (i * 7 + i / 5) % 61).collect();
    kernel.run_blocks(&blocks);
    kernel.to_snapshot()
}

/// Every `(policy, instrumented)` image.
fn images() -> Vec<(TreePolicy, Vec<u8>)> {
    TreePolicy::ALL
        .iter()
        .flat_map(|&p| [false, true].map(|instrument| (p, image(p, instrument))))
        .collect()
}

#[test]
fn every_truncation_is_refused() {
    for (policy, bytes) in images() {
        assert!(
            FusedKernel::from_snapshot(policy, &bytes).is_ok(),
            "{policy}"
        );
        for n in 0..bytes.len() {
            assert!(
                FusedKernel::from_snapshot(policy, &bytes[..n]).is_err(),
                "{policy}: a {n}-byte prefix of a {}-byte image decoded",
                bytes.len()
            );
        }
    }
}

/// One way to damage an image.
#[derive(Debug, Clone)]
enum Mutation {
    /// Flip bit `bit % 8` of byte `at % len`.
    FlipBit { at: usize, bit: u8 },
    /// Overwrite geometry field `field % 5` with `value`.
    Header { field: usize, value: u32 },
    /// Overwrite the eight bytes at `at % len` (a counter, tag or lane
    /// word) with `value`.
    Word { at: usize, value: u64 },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, bit)| Mutation::FlipBit { at, bit }),
        (
            0usize..5,
            prop_oneof![
                Just(u32::MAX),
                Just(u32::MAX / 2),
                (0u32..80).prop_map(|v| v),
                any::<u32>(),
            ]
        )
            .prop_map(|(field, value)| Mutation::Header { field, value }),
        (any::<usize>(), any::<u64>()).prop_map(|(at, value)| Mutation::Word { at, value }),
    ]
}

fn apply(bytes: &mut [u8], m: &Mutation) {
    match *m {
        Mutation::FlipBit { at, bit } => bytes[at % bytes.len()] ^= 1 << (bit % 8),
        Mutation::Header { field, value } => {
            let at = HEADER_FIELDS[field % HEADER_FIELDS.len()];
            bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        }
        Mutation::Word { at, value } => {
            let at = (at % bytes.len()).min(bytes.len() - 8);
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// A damaged image decodes or is refused; it never panics. An image
    /// that still decodes is a consistent kernel: it re-encodes, and the
    /// re-encoded image decodes again.
    #[test]
    fn mutated_images_never_panic(
        which in 0usize..8,
        mutations in prop::collection::vec(mutation(), 1..4),
    ) {
        let policy = TreePolicy::ALL[which / 2];
        let mut bytes = image(policy, which % 2 == 1);
        for m in &mutations {
            apply(&mut bytes, m);
        }
        if let Ok(kernel) = FusedKernel::from_snapshot(policy, &bytes) {
            let again = kernel.to_snapshot();
            prop_assert!(FusedKernel::from_snapshot(policy, &again).is_ok());
        }
    }
}
