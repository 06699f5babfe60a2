//! Hostile-input robustness of the four kernel snapshot decoders (`DEWM`,
//! `DEWL`, `DEWP`, `DEWU`), fast and instrumented, and of the `DEWC`
//! sweep-checkpoint decoder and resume path.
//!
//! Each case starts from a valid image and damages it: a cut at every
//! prefix length, a single flipped bit, or an inflated header or body
//! field. [`FusedKernel::from_snapshot`] and [`SweepCheckpoint::from_bytes`]
//! must never panic on any of them, and every truncated image must be
//! refused. A damaged checkpoint that still decodes must resume to a
//! result or an error, never to a worker panic. The sparse way-tag
//! regions are damaged on their own too: a bitmap bit past the region, a
//! set bit over the sentinel, and an inflated geometry over a short body,
//! whose refusal bounds what a decoder allocates per byte of input.

use proptest::prelude::*;

use dew_core::kernel::{FusedKernel, PolicyKernel};
use dew_core::snapshot::SnapshotError;
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

/// The nodes of [`image`]'s forest (set bits 0..=3).
const NODES: usize = 15;

/// A fresh image of [`image`]'s geometry, and the offset of its way-tag
/// section. Nothing ran, so every MRA tag and way is the sentinel: the
/// section is one zero bitmap per node, right after the MRA lane, the
/// image's first run of one all-`0xFF` word per node.
fn fresh_image(policy: TreePolicy, instrument: bool) -> (Vec<u8>, usize) {
    let options = DewOptions::for_policy(policy);
    let kernel = FusedKernel::build(2, (0, 3), (0, 3), options, instrument).expect("valid");
    let bytes = kernel.to_snapshot();
    let mra = bytes
        .windows(8 * NODES)
        .position(|w| w.iter().all(|&b| b == 0xFF))
        .expect("an MRA lane");
    let at = mra + 8 * NODES;
    assert!(
        bytes[at..at + 8 * NODES].iter().all(|&b| b == 0),
        "{policy}"
    );
    (bytes, at)
}

/// [`fresh_image`] with node `node`'s bitmap set to `bits`, followed by
/// the word `word` for each set bit.
fn with_bitmap(policy: TreePolicy, instrument: bool, node: usize, bits: u64, word: u64) -> Vec<u8> {
    let (mut bytes, at) = fresh_image(policy, instrument);
    let at = at + 8 * node;
    bytes[at..at + 8].copy_from_slice(&bits.to_le_bytes());
    let words = (0..bits.count_ones()).flat_map(|_| word.to_le_bytes());
    bytes.splice(at + 8..at + 8, words);
    bytes
}

#[test]
fn sparse_bitmaps_are_range_and_sentinel_checked() {
    const PAST: SnapshotError = SnapshotError::Corrupt("way bitmap runs past the region");
    const SENTINEL: SnapshotError = SnapshotError::Corrupt("way bitmap marks an invalid way");
    for policy in TreePolicy::ALL {
        // LRU keeps one 8-way stack per node; the others keep lanes of
        // 2, 4 and 8 ways back to back.
        let region = if policy == TreePolicy::Lru { 8 } else { 14 };
        for instrument in [false, true] {
            let decode = |node, bits, word| {
                FusedKernel::from_snapshot(
                    policy,
                    &with_bitmap(policy, instrument, node, bits, word),
                )
                .err()
            };
            for node in 0..NODES {
                for past in [region, 63] {
                    assert_eq!(
                        decode(node, 1 << past, 5),
                        Some(PAST),
                        "{policy} node {node}"
                    );
                }
                assert_eq!(
                    decode(node, 1, u64::MAX),
                    Some(SENTINEL),
                    "{policy} node {node}"
                );
                assert_eq!(decode(node, 0b101, u64::MAX), Some(SENTINEL), "{policy}");
                if !instrument {
                    // The same edits in range and over a real tag decode
                    // (instrumented decoders also check the lane counts).
                    let last = 1 << (region - 1);
                    assert_eq!(decode(node, 1 | last, 5), None, "{policy} node {node}");
                }
            }
        }
    }
}

/// The `(set bits, assoc bits)` an inflated header claims: a deep forest,
/// and lanes as wide as the policy holds. Tree-PLRU holds 64 ways, and
/// its image's body is short of that over 127 nodes, not over 15.
fn inflations(policy: TreePolicy) -> [((u32, u32), (u32, u32)); 2] {
    let wide = if policy == TreePolicy::Plru {
        ((0, 6), (0, 6))
    } else {
        ((0, 3), (0, 12))
    };
    [((0, 12), (0, 3)), wide]
}

/// `bytes` with its header claiming geometry `(sets, assocs)`.
fn inflate(bytes: &[u8], (sets, assocs): ((u32, u32), (u32, u32))) -> Vec<u8> {
    let mut inflated = bytes.to_vec();
    for (at, value) in HEADER_FIELDS[1..]
        .iter()
        .zip([sets.0, sets.1, assocs.0, assocs.1])
    {
        inflated[*at..at + 4].copy_from_slice(&value.to_le_bytes());
    }
    inflated
}

#[test]
fn inflated_geometry_over_a_short_sparse_body_is_refused() {
    for (policy, bytes) in images() {
        for geometry in inflations(policy) {
            assert_eq!(
                FusedKernel::from_snapshot(policy, &inflate(&bytes, geometry)).err(),
                Some(SnapshotError::Corrupt("unexpected end of snapshot")),
                "{policy}: {geometry:?}"
            );
        }
    }
}

/// The allocation bound `check_body_len` documents. A fresh kernel's image
/// is the shortest of its geometry (every bitmap is zero), so the arena an
/// image of that geometry can make a decoder allocate is at most the
/// fresh kernel's footprint: about 64 lane words per image word, reached
/// by wide lanes, whose 64 ways cost one bitmap word. A shorter body, such
/// as a valid image under an inflated header, is refused before then.
#[test]
fn inflated_headers_allocate_at_most_64_words_per_image_word() {
    for (policy, instrument) in TreePolicy::ALL
        .into_iter()
        .flat_map(|p| [(p, false), (p, true)])
    {
        let bytes = image(policy, instrument);
        for (sets, assocs) in inflations(policy) {
            let options = DewOptions::for_policy(policy);
            let fresh =
                FusedKernel::build(2, sets, assocs, options, instrument).expect("valid geometry");
            let least = fresh.to_snapshot();
            assert!(
                fresh.footprint_bytes() <= 64 * least.len(),
                "{policy} {sets:?} {assocs:?}: {} bytes from a {}-byte image",
                fresh.footprint_bytes(),
                least.len()
            );
            assert!(FusedKernel::from_snapshot(policy, &least).is_ok());
            assert!(FusedKernel::from_snapshot(policy, &least[..least.len() - 1]).is_err());
            assert!(bytes.len() < least.len(), "{policy}: the body is short");
        }
    }
}

/// Flips every bit of a small kernel's image (three levels, lanes of 2 and
/// 4 ways): an image that still decodes must keep simulating, and report
/// every associativity's counters, without a panic.
fn every_bit_flip_runs_or_is_refused(policy: TreePolicy, instrument: bool) {
    let blocks: Vec<u64> = (0..300u64).map(|i| (i * 5 + i / 7) % 23).collect();
    let options = DewOptions::for_policy(policy);
    let mut kernel = FusedKernel::build(0, (0, 2), (0, 2), options, instrument).expect("valid");
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
                // A flipped geometry bit changes which associativities
                // the kernel covers; read every one it might.
                for bits in 0..32 {
                    let _ = damaged.pass_counters(1 << bits);
                }
            }));
            assert!(
                ran.is_ok(),
                "{policy} (instrumented: {instrument}): byte {at} bit {bit}"
            );
        }
    }
}

#[test]
fn every_bit_flip_of_a_fast_kernel_runs_or_is_refused() {
    // Fast kernels are what checkpoint resume restores (a resilient sweep
    // is never instrumented).
    for policy in TreePolicy::ALL {
        every_bit_flip_runs_or_is_refused(policy, false);
    }
}

#[test]
fn every_bit_flip_of_an_instrumented_kernel_runs_or_is_refused() {
    // The decoders refuse counters that break the walk identities and each
    // policy's own tally identities, so restored tallies cannot underflow
    // or overflow; the FIFO decoder also refuses lanes that break the
    // wave/MRE ladder invariants its debug assertions check.
    for policy in TreePolicy::ALL {
        every_bit_flip_runs_or_is_refused(policy, true);
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
/// in-flight job: the 4-byte job complete at 1000 records and the 8-byte
/// job at 400. One worker feeds both jobs from one traversal, so a cut
/// leaves them at one position; the image therefore takes the 4-byte
/// job's capture from a finished sweep and the 8-byte job's from a sweep
/// whose source fires the cancel token at record 300.
fn ckpt_image(policy: TreePolicy) -> Vec<u8> {
    let records = ckpt_trace();
    let run = |trip: Option<usize>| {
        let token = CancelToken::new();
        let source = || {
            let trip_token = token.clone();
            Ok(records.clone().into_iter().enumerate().map(move |(i, r)| {
                if trip == Some(i) {
                    trip_token.cancel();
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
        assert_eq!(outcome.is_partial(), trip.is_some(), "{policy}");
        store.latest().expect("final image saved")
    };
    let done = run(None);
    let cut = SweepCheckpoint::from_bytes(&run(Some(300))).expect("image decodes");
    let finished = SweepCheckpoint::from_bytes(&done).expect("image decodes");
    let mut image = done[..JOB_COUNT_AT].to_vec();
    image.extend_from_slice(&2u32.to_le_bytes());
    for job in [finished.job(2), cut.job(3)] {
        let job = job.expect("both jobs captured");
        image.extend_from_slice(&job.block_bits.to_le_bytes());
        image.extend_from_slice(&job.records_done.to_le_bytes());
        image.push(u8::from(job.complete));
        let len = u32::try_from(job.kernel.len()).expect("kernel length");
        image.extend_from_slice(&len.to_le_bytes());
        image.extend_from_slice(&job.kernel);
    }
    let ckpt = SweepCheckpoint::from_bytes(&image).expect("image decodes");
    let jobs: Vec<(u64, bool)> = ckpt
        .jobs()
        .iter()
        .map(|j| (j.records_done, j.complete))
        .collect();
    assert_eq!(jobs, [(1000, true), (400, false)], "{policy}");
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
