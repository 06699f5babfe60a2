//! Hostile-input robustness of the four kernel snapshot decoders (`DEWM`,
//! `DEWL`, `DEWP`, `DEWU`), fast and instrumented, and of the `DEWC`
//! sweep-checkpoint decoder and resume path.
//!
//! Each case starts from a valid image and damages it: a cut at every
//! prefix length, a single flipped bit, or an inflated header or body
//! field. [`FusedKernel::from_snapshot`] and [`SweepCheckpoint::from_bytes`]
//! must never panic on any of them, and every truncated image must be
//! refused. A damaged checkpoint that still decodes must resume to a
//! result or an error, never to a worker panic.

use proptest::prelude::*;

use dew_core::kernel::{FusedKernel, PolicyKernel};
use dew_core::{
    CancelToken, ConfigSpace, DewError, DewOptions, MemoryCheckpointStore, NoSleep, Resilience,
    SweepCheckpoint, SweepRequest, TreePolicy,
};
use dew_trace::{Record, TraceError};

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

#[test]
fn every_bit_flip_of_a_fast_kernel_runs_or_is_refused() {
    // A small fast kernel (three levels, lanes of 2 and 4 ways) so every
    // bit of its image can be flipped: an image that still decodes must
    // keep simulating without a panic. Fast kernels are what checkpoint
    // resume restores (a resilient sweep is never instrumented).
    let blocks: Vec<u64> = (0..300u64).map(|i| (i * 5 + i / 7) % 23).collect();
    for policy in TreePolicy::ALL {
        let options = DewOptions::for_policy(policy);
        let mut kernel = FusedKernel::build(0, (0, 2), (0, 2), options, false).expect("valid");
        kernel.run_blocks(&blocks[..150]);
        let image = kernel.to_snapshot();
        for at in 0..image.len() {
            for bit in 0..8 {
                let mut bytes = image.clone();
                bytes[at] ^= 1 << bit;
                let Ok(mut damaged) = FusedKernel::from_snapshot(policy, &bytes) else {
                    continue;
                };
                let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    damaged.run_blocks(&blocks[150..]);
                }));
                assert!(ran.is_ok(), "{policy}: byte {at} bit {bit}");
            }
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

/// The sweep the `DEWC` images belong to: two block sizes (two jobs).
fn ckpt_space() -> ConfigSpace {
    ConfigSpace::new((0, 4), (2, 3), (0, 2)).expect("valid space")
}

fn ckpt_trace() -> Vec<Record> {
    (0..1000u64)
        .map(|i| Record::read((i * 7 + i / 5) % 97 * 4))
        .collect()
}

/// A `DEWC` image of `policy`'s sweep holding one complete and one
/// in-flight job. One worker runs the jobs in turn; the second job's
/// source fires the cancel token at record 300, so the final image has the
/// 4-byte job complete at 1000 records and the 8-byte job in flight.
fn ckpt_image(policy: TreePolicy) -> Vec<u8> {
    let records = ckpt_trace();
    let token = CancelToken::new();
    let opens = std::sync::atomic::AtomicUsize::new(0);
    let source = || {
        let second = opens.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 1;
        let trip = token.clone();
        Ok(records.clone().into_iter().enumerate().map(move |(i, r)| {
            if second && i == 300 {
                trip.cancel();
            }
            Ok::<Record, TraceError>(r)
        }))
    };
    let store = MemoryCheckpointStore::new();
    let res = Resilience::new()
        .with_checkpoint(200, &store)
        .with_cancel(&token)
        .with_sleeper(&NoSleep);
    let outcome = SweepRequest::new(&ckpt_space())
        .policy(policy)
        .threads(1)
        .resilient(&res)
        .run_streamed(&source)
        .expect("a cancelled sweep degrades");
    assert!(
        outcome.is_partial(),
        "{policy}: the second job was cancelled"
    );
    let image = store.latest().expect("final image saved");
    let ckpt = SweepCheckpoint::from_bytes(&image).expect("image decodes");
    let complete: Vec<bool> = ckpt.jobs().iter().map(|j| j.complete).collect();
    assert_eq!(complete, [true, false], "{policy}");
    image
}

/// Byte offset of the `job_count` word in a `DEWC` image (after magic,
/// version, policy and fingerprint); the jobs follow it.
const JOB_COUNT_AT: usize = 14;

/// Byte offsets of every job's `records_done` and `kernel_len` words in a
/// valid `DEWC` image.
fn ckpt_fields(image: &[u8]) -> (Vec<usize>, Vec<usize>) {
    let word = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().expect("4 bytes"));
    let (mut records_done, mut kernel_len) = (Vec::new(), Vec::new());
    let mut at = JOB_COUNT_AT + 4;
    for _ in 0..word(JOB_COUNT_AT) {
        records_done.push(at + 4);
        kernel_len.push(at + 13);
        at += 17 + word(at + 13) as usize;
    }
    assert_eq!(at, image.len());
    (records_done, kernel_len)
}

#[test]
fn every_checkpoint_truncation_is_refused() {
    for policy in TreePolicy::ALL {
        let image = ckpt_image(policy);
        for n in 0..image.len() {
            assert!(
                SweepCheckpoint::from_bytes(&image[..n]).is_err(),
                "{policy}: a {n}-byte prefix of a {}-byte image decoded",
                image.len()
            );
        }
    }
}

/// Resumes `policy`'s checkpoint sweep from `ckpt` under fail-fast, so a
/// worker panic surfaces as [`DewError::WorkerPanic`].
fn resume(policy: TreePolicy, ckpt: &SweepCheckpoint) -> Result<(), DewError> {
    let res = Resilience::new()
        .fail_fast(true)
        .resume_from(ckpt)
        .with_sleeper(&NoSleep);
    SweepRequest::new(&ckpt_space())
        .policy(policy)
        .threads(1)
        .resilient(&res)
        .run(&ckpt_trace())
        .map(|_| ())
}

#[test]
fn every_job_header_bit_flip_resumes_or_is_refused() {
    // The words around each kernel — block bits, records done, the
    // completion flag, the kernel length — flipped one bit at a time.
    for policy in TreePolicy::ALL {
        let image = ckpt_image(policy);
        let (records_done, _) = ckpt_fields(&image);
        for at in records_done.iter().flat_map(|&r| r - 4..r + 13) {
            for bit in 0..8 {
                let mut bytes = image.clone();
                bytes[at] ^= 1 << bit;
                let Ok(ckpt) = SweepCheckpoint::from_bytes(&bytes) else {
                    continue;
                };
                let resumed = std::panic::catch_unwind(|| resume(policy, &ckpt));
                assert!(
                    matches!(
                        resumed,
                        Ok(Ok(()) | Err(DewError::Checkpoint(_) | DewError::TraceRead(_)))
                    ),
                    "{policy}: byte {at} bit {bit}: {resumed:?}"
                );
            }
        }
    }
}

/// One way to damage a `DEWC` image.
#[derive(Debug, Clone)]
enum CkptMutation {
    /// Flip bit `bit % 8` of byte `at % len`.
    FlipBit { at: usize, bit: u8 },
    /// Overwrite the `job_count` word.
    JobCount(u32),
    /// Overwrite job `job % 2`'s `kernel_len` word.
    KernelLen { job: usize, value: u32 },
    /// Overwrite job `job % 2`'s `records_done` word.
    RecordsDone { job: usize, value: u64 },
}

/// Large, small and arbitrary `u32` words.
fn word32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(u32::MAX), Just(u32::MAX / 2), 0u32..4096, any::<u32>()]
}

fn ckpt_mutation() -> impl Strategy<Value = CkptMutation> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, bit)| CkptMutation::FlipBit { at, bit }),
        word32().prop_map(CkptMutation::JobCount),
        (0usize..2, word32()).prop_map(|(job, value)| CkptMutation::KernelLen { job, value }),
        (
            0usize..2,
            prop_oneof![Just(u64::MAX), 0u64..2000, any::<u64>()]
        )
            .prop_map(|(job, value)| CkptMutation::RecordsDone { job, value }),
    ]
}

fn apply_ckpt(bytes: &mut [u8], m: &CkptMutation) {
    let (records_done, kernel_len) = ckpt_fields(bytes);
    let put = |bytes: &mut [u8], at: usize, word: &[u8]| {
        bytes[at..at + word.len()].copy_from_slice(word);
    };
    match *m {
        CkptMutation::FlipBit { at, bit } => bytes[at % bytes.len()] ^= 1 << (bit % 8),
        CkptMutation::JobCount(v) => put(bytes, JOB_COUNT_AT, &v.to_le_bytes()),
        CkptMutation::KernelLen { job, value } => {
            put(bytes, kernel_len[job % 2], &value.to_le_bytes());
        }
        CkptMutation::RecordsDone { job, value } => {
            put(bytes, records_done[job % 2], &value.to_le_bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// A damaged `DEWC` image decodes or is refused without a panic; one
    /// that still decodes resumes to a result or an error, and a worker
    /// never panics on it.
    #[test]
    fn mutated_checkpoints_never_panic(
        which in 0usize..4,
        mutation in ckpt_mutation(),
    ) {
        let policy = TreePolicy::ALL[which];
        let mut bytes = ckpt_image(policy);
        apply_ckpt(&mut bytes, &mutation);
        let Ok(ckpt) = SweepCheckpoint::from_bytes(&bytes) else {
            return Ok(());
        };
        let resumed = resume(policy, &ckpt);
        prop_assert!(
            !matches!(resumed, Err(DewError::WorkerPanic(_))),
            "{:?} resumed into {:?}", mutation, resumed
        );
    }
}
