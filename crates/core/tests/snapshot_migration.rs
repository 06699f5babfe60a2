//! Version migration of the tree-PLRU (`DEWP`) and SLRU (`DEWU`) kernel
//! snapshots.
//!
//! Version 2 of `DEWP` dropped the per-lane MRA way pointers, and version 2
//! of `DEWU` added the per-node settled flags that gate its MRA early stop.
//! The fixtures under `tests/fixtures/` were written by the version-1
//! encoders, from [`trace`] below:
//!
//! * `dewp_v1.bin` / `dewu_v1.bin` — an instrumented kernel (block bits 2,
//!   set bits 0..=3, assoc bits 0..=2) after the first [`SPLIT`] blocks;
//! * `dewc_plru_v1.bin` / `dewc_slru_v1.bin` — the second image of a `DEWC`
//!   checkpoint store for a sweep over [`space`], checkpointed every 500
//!   records on one thread, so one job is mid-trace and the kernels inside
//!   are version 1.
//!
//! Each image, resumed under the current kernels, must reproduce the
//! uninterrupted run's results bit for bit.

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
    let v2 = resumed.to_snapshot();
    assert_eq!(v2[4], 2);
    let back = FusedKernel::from_snapshot(policy, &v2).expect("v2 decodes");
    assert_eq!(back.to_snapshot(), v2);
    // Versions beyond the current one are refused.
    let mut future = v2;
    future[4] = 3;
    assert_eq!(
        FusedKernel::from_snapshot(policy, &future).err(),
        Some(SnapshotError::UnsupportedVersion(3))
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
