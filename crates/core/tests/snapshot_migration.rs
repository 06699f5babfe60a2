//! Pinned kernel snapshot formats: golden images of the current `DEWM`,
//! `DEWL`, `DEWP` and `DEWU` encoders, and the version migration of every
//! older image a current kernel still decodes.
//!
//! The `golden_*` fixtures were written by the current encoders, from
//! [`trace`] below: each is a kernel (block bits 2, set bits 0..=3, assoc
//! bits 0..=3, so three lanes of 2, 4 and 8 ways) after the first [`SPLIT`]
//! blocks, fast and instrumented. The encoders must reproduce them byte for
//! byte, so a refactor cannot silently change a current format.
//!
//! Version 2 of `DEWM` dropped the retired intersection link: its two
//! counters, its per-lane hit/miss tallies and its per-way link lane.
//! Version 2 of `DEWP` dropped the per-lane MRA way pointers, and version 2
//! of `DEWU` added the per-node settled flags that gate its MRA early stop.
//! The current versions (`DEWM` 3, `DEWL` 2, `DEWP` 3, `DEWU` 3) write the
//! way tags sparsely; every older version carries them word for word.
//! The other fixtures under `tests/fixtures/` were written by older
//! encoders, from [`trace`] below:
//!
//! * `dewm_v2_*.bin`, `dewl_v1_*.bin`, `dewp_v2_*.bin`, `dewu_v2_*.bin` —
//!   the previous golden images (the golden kernel below, fast and
//!   instrumented), whose way tags are dense;
//! * `dewp_v1.bin` / `dewu_v1.bin` — an instrumented kernel (block bits 2,
//!   set bits 0..=3, assoc bits 0..=2) after the first [`SPLIT`] blocks;
//! * `dewm_v1_fast.bin` / `dewm_v1_instr.bin` — the version-1 `DEWM`
//!   golden images (the golden kernel below, fast and instrumented);
//! * `dewm_v1_pass.bin` — the paper's single instrumented pass (block bits
//!   2, set bits 0..=3, associativity 4) after the first [`SPLIT`] blocks;
//! * `dewc_fifo_v1.bin` / `dewc_plru_v1.bin` / `dewc_slru_v1.bin` — the
//!   second image of a `DEWC` checkpoint store for a sweep over [`space`],
//!   checkpointed every 500 records on one thread, so one job is mid-trace
//!   and the kernels inside are version 1.
//!
//! Each image, resumed under the current kernels, must reproduce the
//! uninterrupted run's results bit for bit. The one exception is
//! `dewm_v1_instr.bin`: it counts evaluations the retired link settled,
//! which no current kernel can continue, so it is refused.

use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
use dew_core::kernel::{FusedKernel, PolicyKernel};
use dew_core::snapshot::SnapshotError;
use dew_core::{
    ConfigSpace, DewOptions, NoSleep, Resilience, RetryPolicy, SweepCheckpoint, SweepRequest,
    TreePolicy,
};
use dew_trace::{decode_blocks, Record};

const DEWP_V1: &[u8] = include_bytes!("fixtures/dewp_v1.bin");
const DEWU_V1: &[u8] = include_bytes!("fixtures/dewu_v1.bin");
const DEWC_PLRU_V1: &[u8] = include_bytes!("fixtures/dewc_plru_v1.bin");
const DEWC_SLRU_V1: &[u8] = include_bytes!("fixtures/dewc_slru_v1.bin");
const DEWM_V1_FAST: &[u8] = include_bytes!("fixtures/dewm_v1_fast.bin");
const DEWM_V1_INSTR: &[u8] = include_bytes!("fixtures/dewm_v1_instr.bin");
const DEWM_V1_PASS: &[u8] = include_bytes!("fixtures/dewm_v1_pass.bin");
const DEWC_FIFO_V1: &[u8] = include_bytes!("fixtures/dewc_fifo_v1.bin");

/// The current-format golden images: `(policy, instrumented, bytes)`.
const GOLDEN: [(TreePolicy, bool, &[u8]); 8] = [
    (
        TreePolicy::Fifo,
        false,
        include_bytes!("fixtures/golden_dewm_fast.bin"),
    ),
    (
        TreePolicy::Fifo,
        true,
        include_bytes!("fixtures/golden_dewm_instr.bin"),
    ),
    (
        TreePolicy::Lru,
        false,
        include_bytes!("fixtures/golden_dewl_fast.bin"),
    ),
    (
        TreePolicy::Lru,
        true,
        include_bytes!("fixtures/golden_dewl_instr.bin"),
    ),
    (
        TreePolicy::Plru,
        false,
        include_bytes!("fixtures/golden_dewp_fast.bin"),
    ),
    (
        TreePolicy::Plru,
        true,
        include_bytes!("fixtures/golden_dewp_instr.bin"),
    ),
    (
        TreePolicy::Slru,
        false,
        include_bytes!("fixtures/golden_dewu_fast.bin"),
    ),
    (
        TreePolicy::Slru,
        true,
        include_bytes!("fixtures/golden_dewu_instr.bin"),
    ),
];

/// The previous version's golden images, dense way tags:
/// `(policy, instrumented, bytes)`, in [`GOLDEN`]'s order.
const PREVIOUS: [(TreePolicy, bool, &[u8]); 8] = [
    (
        TreePolicy::Fifo,
        false,
        include_bytes!("fixtures/dewm_v2_fast.bin"),
    ),
    (
        TreePolicy::Fifo,
        true,
        include_bytes!("fixtures/dewm_v2_instr.bin"),
    ),
    (
        TreePolicy::Lru,
        false,
        include_bytes!("fixtures/dewl_v1_fast.bin"),
    ),
    (
        TreePolicy::Lru,
        true,
        include_bytes!("fixtures/dewl_v1_instr.bin"),
    ),
    (
        TreePolicy::Plru,
        false,
        include_bytes!("fixtures/dewp_v2_fast.bin"),
    ),
    (
        TreePolicy::Plru,
        true,
        include_bytes!("fixtures/dewp_v2_instr.bin"),
    ),
    (
        TreePolicy::Slru,
        false,
        include_bytes!("fixtures/dewu_v2_fast.bin"),
    ),
    (
        TreePolicy::Slru,
        true,
        include_bytes!("fixtures/dewu_v2_instr.bin"),
    ),
];

/// The snapshot version each policy's kernel writes.
fn current_version(policy: TreePolicy) -> u8 {
    match policy {
        TreePolicy::Lru => 2,
        TreePolicy::Fifo | TreePolicy::Plru | TreePolicy::Slru => 3,
    }
}

/// Blocks the kernel fixtures consumed before they were written.
const SPLIT: usize = 600;

/// The fixtures' trace: 1,200 reads heavy in short reuse (`ABAB`, `AABA`,
/// loops of up to 16 blocks) with scattered far references.
fn trace() -> Vec<Record> {
    let mut x = 0x5EED_F1C5_u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = Vec::new();
    while out.len() < 1200 {
        let r = next();
        let (a, b) = (r % 48, (r >> 8) % 48);
        match (r >> 16) % 4 {
            0 => out.extend([a, b, a, b]),
            1 => out.extend([a, a, b, a]),
            2 => {
                let len = 2 + (r >> 20) % 15;
                for i in 0..2 * len {
                    out.push(a + i % len);
                }
            }
            _ => out.push(64 + (r >> 24) % 4096),
        }
    }
    out.truncate(1200);
    out.into_iter().map(|b| Record::read(b * 4)).collect()
}

fn space() -> ConfigSpace {
    ConfigSpace::new((0, 3), (2, 3), (0, 2)).expect("valid space")
}

/// Restores a version-1 kernel image, finishes the trace, and checks the
/// results against an uninterrupted current kernel and the oracle.
fn kernel_image_resumes(policy: TreePolicy, image: &[u8], replacement: Replacement) {
    assert_eq!(image[4], 1, "the fixture is a version-1 image");
    let records = trace();
    let blocks = decode_blocks(&records, 2);
    let mut resumed = FusedKernel::from_snapshot(policy, image).expect("a v1 image decodes");
    resumed.run_blocks(&blocks[SPLIT..]);
    let mut straight = FusedKernel::build(2, (0, 3), (0, 2), DewOptions::for_policy(policy), true)
        .expect("valid geometry");
    straight.run_blocks(&blocks);
    for assoc in [1u32, 2, 4] {
        let got = resumed.pass_results(assoc).expect("covered");
        assert_eq!(Some(got.clone()), straight.pass_results(assoc), "{policy}");
        for level in got.levels() {
            let config = CacheConfig::new(level.sets(), assoc, 4, replacement).expect("valid");
            assert_eq!(
                level.misses(),
                simulate_trace(config, &records).misses(),
                "{policy} sets={} assoc={assoc}",
                level.sets()
            );
        }
    }
    // The re-encoded image is the current version and round-trips.
    let current = resumed.to_snapshot();
    assert_eq!(current[4], current_version(policy));
    let back = FusedKernel::from_snapshot(policy, &current).expect("current decodes");
    assert_eq!(back.to_snapshot(), current);
    // Versions beyond the current one are refused.
    let mut future = current;
    future[4] += 1;
    assert_eq!(
        FusedKernel::from_snapshot(policy, &future).err(),
        Some(SnapshotError::UnsupportedVersion(future[4]))
    );
}

/// Resumes a `DEWC` checkpoint holding version-1 kernels and compares the
/// finished sweep with an uninterrupted one.
fn checkpoint_resumes(policy: TreePolicy, image: &[u8]) {
    let ckpt = SweepCheckpoint::from_bytes(image).expect("the checkpoint decodes");
    assert_eq!(ckpt.policy(), policy);
    assert!(
        ckpt.jobs().iter().any(|j| !j.complete),
        "a job is mid-trace"
    );
    assert!(ckpt.jobs().iter().all(|j| j.kernel[4] == 1), "v1 kernels");
    let records = trace();
    let space = space();
    let baseline = SweepRequest::new(&space)
        .policy(policy)
        .run(&records)
        .expect("sweep");
    let res = Resilience::new()
        .with_retry(RetryPolicy::none())
        .with_sleeper(&NoSleep)
        .resume_from(&ckpt);
    let resumed = SweepRequest::new(&space)
        .policy(policy)
        .threads(1)
        .resilient(&res)
        .run(&records)
        .expect("resumed sweep");
    assert!(!resumed.is_partial());
    assert_eq!(resumed.sorted(), baseline.sorted(), "{policy}");
}

/// The golden images' kernel: three lanes (2, 4 and 8 ways) over four
/// levels.
fn golden_kernel(policy: TreePolicy, instrument: bool) -> FusedKernel {
    FusedKernel::build(
        2,
        (0, 3),
        (0, 3),
        DewOptions::for_policy(policy),
        instrument,
    )
    .expect("valid geometry")
}

#[test]
fn current_encoders_reproduce_the_golden_images() {
    let blocks = decode_blocks(&trace(), 2);
    for (policy, instrument, golden) in GOLDEN {
        assert_eq!(golden[4], current_version(policy), "{policy}");
        let mut kernel = golden_kernel(policy, instrument);
        kernel.run_blocks(&blocks[..SPLIT]);
        assert!(
            kernel.to_snapshot() == golden,
            "{policy} (instrumented: {instrument}) no longer encodes its golden image"
        );
    }
}

#[test]
fn previous_golden_images_resume_bit_identically() {
    let blocks = decode_blocks(&trace(), 2);
    for ((policy, instrument, old), (_, _, golden)) in PREVIOUS.into_iter().zip(GOLDEN) {
        assert_eq!(old[4] + 1, current_version(policy), "{policy}");
        let mut resumed = FusedKernel::from_snapshot(policy, old).expect("dense image decodes");
        // The same state, re-encoded: the sparse image is the golden one.
        assert!(
            resumed.to_snapshot() == golden,
            "{policy} (instrumented: {instrument}) migrates to another image"
        );
        resumed.run_blocks(&blocks[SPLIT..]);
        let mut straight = golden_kernel(policy, instrument);
        straight.run_blocks(&blocks);
        for assoc in [1u32, 2, 4, 8] {
            assert_eq!(
                resumed.pass_results(assoc),
                straight.pass_results(assoc),
                "{policy}"
            );
            assert_eq!(
                resumed.pass_counters(assoc),
                straight.pass_counters(assoc),
                "{policy}"
            );
        }
        assert_eq!(resumed.to_snapshot(), straight.to_snapshot(), "{policy}");
    }
}

#[test]
fn golden_images_resume_like_an_uninterrupted_run() {
    let blocks = decode_blocks(&trace(), 2);
    for (policy, instrument, golden) in GOLDEN {
        let mut resumed = FusedKernel::from_snapshot(policy, golden).expect("golden decodes");
        resumed.run_blocks(&blocks[SPLIT..]);
        let mut straight = golden_kernel(policy, instrument);
        straight.run_blocks(&blocks);
        for assoc in [1u32, 2, 4, 8] {
            assert_eq!(
                resumed.pass_results(assoc),
                straight.pass_results(assoc),
                "{policy}"
            );
            assert_eq!(
                resumed.pass_counters(assoc),
                straight.pass_counters(assoc),
                "{policy}"
            );
        }
        assert_eq!(resumed.to_snapshot(), straight.to_snapshot(), "{policy}");
    }
}

/// `DEWL` keeps the retired depth-0-stop flag (bit 0) set and carries the
/// instrumented valid counts, which the decoder recomputes from the tags.
#[test]
fn dewl_flag_bit_0_and_valid_counts_are_checked() {
    let [(_, _, fast), (_, _, instr)] = [GOLDEN[2], GOLDEN[3]]; // the DEWL pair
    assert_eq!(&fast[..4], b"DEWL");
    // The flags byte follows magic, version and five u32 geometry fields.
    for image in [fast, instr] {
        assert_eq!(image[25] & 1, 1, "encoders write flag bit 0");
        let mut cleared = image.to_vec();
        cleared[25] &= !1;
        assert!(matches!(
            FusedKernel::from_snapshot(TreePolicy::Lru, &cleared),
            Err(SnapshotError::Corrupt(_))
        ));
    }
    // The last u32 is the finest level's last node's valid count.
    let mut off_by_one = instr.to_vec();
    let n = off_by_one.len();
    off_by_one[n - 4] ^= 1;
    assert_eq!(
        FusedKernel::from_snapshot(TreePolicy::Lru, &off_by_one).err(),
        Some(SnapshotError::Corrupt("valid prefix out of range"))
    );
}

#[test]
fn dewp_v1_kernel_image_resumes_bit_identically() {
    kernel_image_resumes(TreePolicy::Plru, DEWP_V1, Replacement::Plru);
}

#[test]
fn dewu_v1_kernel_image_resumes_bit_identically() {
    kernel_image_resumes(TreePolicy::Slru, DEWU_V1, Replacement::Slru);
}

#[test]
fn dewc_checkpoint_with_dewp_v1_kernels_resumes() {
    checkpoint_resumes(TreePolicy::Plru, DEWC_PLRU_V1);
}

#[test]
fn dewc_checkpoint_with_dewu_v1_kernels_resumes() {
    checkpoint_resumes(TreePolicy::Slru, DEWC_SLRU_V1);
}

#[test]
fn dewp_v1_way_pointers_are_range_checked() {
    // The last u32 of the image is a way pointer of the widest lane (4).
    let mut bad = DEWP_V1.to_vec();
    let n = bad.len();
    bad[n - 4..].copy_from_slice(&4u32.to_le_bytes());
    assert_eq!(
        FusedKernel::from_snapshot(TreePolicy::Plru, &bad).err(),
        Some(SnapshotError::Corrupt("way pointer out of range"))
    );
}

/// Restores a version-1 `DEWM` image, finishes the trace, and checks it
/// against `straight`, the same kernel run uninterrupted: results,
/// counters and the re-encoded (current) image match, and every result
/// matches the oracle.
fn dewm_v1_image_resumes(image: &[u8], mut straight: FusedKernel, assocs: &[u32]) {
    assert_eq!(
        (&image[..4], image[4]),
        (&b"DEWM"[..], 1),
        "a v1 DEWM image"
    );
    let records = trace();
    let blocks = decode_blocks(&records, 2);
    let mut resumed =
        FusedKernel::from_snapshot(TreePolicy::Fifo, image).expect("a v1 image decodes");
    resumed.run_blocks(&blocks[SPLIT..]);
    straight.run_blocks(&blocks);
    for &assoc in assocs {
        let got = resumed.pass_results(assoc).expect("covered");
        assert_eq!(Some(got.clone()), straight.pass_results(assoc));
        assert_eq!(resumed.pass_counters(assoc), straight.pass_counters(assoc));
        for level in got.levels() {
            let config =
                CacheConfig::new(level.sets(), assoc, 4, Replacement::Fifo).expect("valid");
            assert_eq!(
                level.misses(),
                simulate_trace(config, &records).misses(),
                "sets={} assoc={assoc}",
                level.sets()
            );
        }
    }
    let current = resumed.to_snapshot();
    assert_eq!(current[4], current_version(TreePolicy::Fifo));
    assert_eq!(current, straight.to_snapshot());
}

#[test]
fn dewm_v1_fast_image_resumes_bit_identically() {
    dewm_v1_image_resumes(
        DEWM_V1_FAST,
        golden_kernel(TreePolicy::Fifo, false),
        &[1, 2, 4, 8],
    );
}

#[test]
fn dewm_v1_single_pass_instrumented_image_resumes_bit_identically() {
    let straight =
        FusedKernel::build(2, (0, 3), (2, 2), DewOptions::default(), true).expect("valid geometry");
    dewm_v1_image_resumes(DEWM_V1_PASS, straight, &[4]);
}

#[test]
fn dewm_v1_image_with_link_counts_is_refused() {
    assert_eq!(&DEWM_V1_INSTR[..5], b"DEWM\x01");
    // The aggregate counters follow the 26-byte header: accesses,
    // evaluations, MRA stops, wave hits/misses, MRE misses, then the
    // retired link's hits and misses.
    let word = |i: usize| {
        let at = 26 + 8 * i;
        u64::from_le_bytes(DEWM_V1_INSTR[at..at + 8].try_into().expect("8 bytes"))
    };
    assert_eq!((word(6), word(7)), (177, 6), "the link settled evaluations");
    let refused = FusedKernel::from_snapshot(TreePolicy::Fifo, DEWM_V1_INSTR).err();
    assert_eq!(refused, Some(SnapshotError::RetiredLink));
    assert!(refused
        .expect("refused")
        .to_string()
        .contains("intersection link"));
}

#[test]
fn dewc_checkpoint_with_dewm_v1_kernels_resumes() {
    checkpoint_resumes(TreePolicy::Fifo, DEWC_FIFO_V1);
}
