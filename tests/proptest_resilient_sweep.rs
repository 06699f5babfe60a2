//! Property-based contract of the resilient sweep drivers.
//!
//! The headline: **kill-anywhere resume is bit-identical**. A sweep
//! checkpointed every few records can be killed at *any* checkpoint image —
//! first, middle, last, property-chosen — and resuming from that image
//! reproduces the uninterrupted sweep's miss table exactly, across random
//! traces, spaces, checkpoint cadences, all four policies, and both
//! resilient drivers (in-memory and streamed). The
//! second property: deterministic transient faults injected by
//! [`FaultyTraceSource`] are fully absorbed by the retry/backoff path —
//! the recovered table equals the fault-free one, never an approximation.
//! The third: a checkpoint store that fails is fatal — the sweep returns
//! [`DewError::Checkpoint`], nothing is saved after the failure, and every
//! image saved before it still resumes bit-identically.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::prelude::*;

use dew_core::{
    CheckpointStore, ConfigSpace, DewError, DewOptions, MemoryCheckpointStore, NoSleep, Resilience,
    RetryPolicy, SweepCheckpoint, SweepOutcome, SweepRequest, TreePolicy,
};
use dew_trace::{FaultPlan, FaultyTraceSource, Record, SliceSource};

/// Traces mixing tight locality with scattered far references, as in the
/// other sweep properties.
fn trace_strategy() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..256).prop_map(|a| Record::read(a * 4)), // hot words
            (0u64..65_536).prop_map(Record::read),         // scattered
            (0u64..64).prop_map(Record::write),            // hot bytes
        ],
        1..400,
    )
}

/// Small but shape-diverse spaces: varying set ranges, 1-2 block sizes,
/// associativity ranges that may or may not include 1.
fn space_strategy() -> impl Strategy<Value = ConfigSpace> {
    (0u32..3, 0u32..4, 0u32..4, 0u32..2, 0u32..3, 0u32..2).prop_map(
        |(min_s, extra_s, min_b, extra_b, min_a, extra_a)| {
            ConfigSpace::new(
                (min_s, min_s + extra_s),
                (min_b, min_b + extra_b),
                (min_a, min_a + extra_a),
            )
            .expect("ranges are non-inverted by construction")
        },
    )
}

fn options_for(policy_idx: usize) -> DewOptions {
    DewOptions::for_policy(TreePolicy::ALL[policy_idx % TreePolicy::ALL.len()])
}

/// Runs the property-selected resilient driver over `records`.
fn run_driver(
    driver: usize,
    space: &ConfigSpace,
    records: &[Record],
    options: DewOptions,
    res: &Resilience<'_>,
) -> SweepOutcome {
    match driver {
        0 => SweepRequest::new(space)
            .options(options)
            .threads(1)
            .resilient(res)
            .run(records)
            .expect("resilient sweep"),
        _ => SweepRequest::new(space)
            .options(options)
            .threads(1)
            .resilient(res)
            .run_streamed(&SliceSource(records))
            .expect("streamed resilient sweep"),
    }
}

/// A store whose `fail_on`-th save (1-based) fails; earlier images are
/// kept, and every call is counted.
struct FailsOnSave {
    fail_on: usize,
    calls: AtomicUsize,
    kept: MemoryCheckpointStore,
}

impl CheckpointStore for FailsOnSave {
    fn save(&self, bytes: &[u8]) -> Result<(), String> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if call >= self.fail_on {
            return Err(format!("injected failure of save {call}"));
        }
        self.kept.save(bytes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn kill_at_any_checkpoint_and_resume_is_bit_identical(
        records in trace_strategy(),
        space in space_strategy(),
        every in 1u64..200,
        kill_pick in 0usize..1000,
        driver in 0usize..2,
        policy_idx in 0usize..4,
    ) {
        let options = options_for(policy_idx);
        let baseline = SweepRequest::new(&space).options(options).threads(1).run(&records).expect("sweep");

        // Checkpointed run: its own table must already match the plain
        // sweep (resilience never perturbs results).
        let store = MemoryCheckpointStore::new();
        let res = Resilience::new()
            .with_retry(RetryPolicy::none())
            .with_sleeper(&NoSleep)
            .with_checkpoint(every, &store);
        let full = run_driver(driver, &space, &records, options, &res);
        prop_assert!(!full.is_partial());
        prop_assert_eq!(full.sorted(), baseline.sorted(),
            "checkpointed run diverged: driver={} every={}", driver, every);

        // Kill at a property-chosen checkpoint image and resume: the store
        // kept every image in order, so indexing into the history is
        // exactly "the process died right after this save hit disk".
        let history = store.history();
        prop_assert!(!history.is_empty(), "at least the completion image was saved");
        let kill_at = kill_pick % history.len();
        let ckpt = SweepCheckpoint::from_bytes(&history[kill_at]).expect("image decodes");
        let res = Resilience::new()
            .with_retry(RetryPolicy::none())
            .with_sleeper(&NoSleep)
            .resume_from(&ckpt);
        let resumed = run_driver(driver, &space, &records, options, &res);
        prop_assert!(!resumed.is_partial());
        prop_assert_eq!(resumed.accesses(), baseline.accesses());
        prop_assert_eq!(resumed.sorted(), baseline.sorted(),
            "resume diverged: killed at image {}/{} driver={} every={} policy_idx={}",
            kill_at, history.len(), driver, every, policy_idx);
    }

    #[test]
    fn retries_absorb_deterministic_transient_faults(
        records in trace_strategy(),
        space in space_strategy(),
        seed in any::<u64>(),
        policy_idx in 0usize..4,
    ) {
        let options = options_for(policy_idx);
        let baseline = SweepRequest::new(&space).options(options).threads(1).run(&records).expect("sweep");
        // A failed first open plus up to 5 seeded transient read faults:
        // all within the retry budget, so recovery must be total.
        let plan = FaultPlan {
            seed,
            fail_opens: 1,
            transient_per_10k: 50,
            transient_budget: 5,
            ..FaultPlan::none()
        };
        let faulty = FaultyTraceSource::new(SliceSource(&records), plan);
        let retry = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        };
        let res = Resilience::new().with_retry(retry).with_sleeper(&NoSleep);
        let outcome = SweepRequest::new(&space).options(options).threads(1).resilient(&res).run_streamed(&faulty)
            .expect("transient faults must be absorbed");
        prop_assert!(!outcome.is_partial());
        prop_assert!(outcome.retries() >= 1, "the failed open alone forces a retry");
        prop_assert_eq!(outcome.sorted(), baseline.sorted(),
            "recovered table diverged from the fault-free sweep (seed={})", seed);
    }

    #[test]
    fn a_failed_save_aborts_the_sweep_and_earlier_images_resume(
        records in trace_strategy(),
        space in space_strategy(),
        every in 1u64..100,
        fail_on in 1usize..5,
        threads in 1usize..3,
        policy_idx in 0usize..4,
    ) {
        let options = options_for(policy_idx);
        let baseline = SweepRequest::new(&space).options(options).threads(1).run(&records).expect("sweep");
        let store = FailsOnSave { fail_on, calls: AtomicUsize::new(0), kept: MemoryCheckpointStore::new() };
        let res = Resilience::new()
            .with_retry(RetryPolicy::none())
            .with_sleeper(&NoSleep)
            .with_checkpoint(every, &store);
        let outcome = SweepRequest::new(&space).options(options).threads(threads).resilient(&res).run(&records);
        let calls = store.calls.load(Ordering::SeqCst);
        if calls < fail_on {
            // Too few images to reach the failing save: a clean run.
            let outcome = outcome.expect("no save failed");
            prop_assert_eq!(outcome.sorted(), baseline.sorted());
        } else {
            let failed = matches!(&outcome, Err(DewError::Checkpoint(why)) if why.contains("injected failure"));
            prop_assert!(failed, "expected the save failure, got {:?}", outcome.map(|o| o.sorted()));
            prop_assert_eq!(calls, fail_on, "save was called after it failed");
        }
        let history = store.kept.history();
        prop_assert_eq!(history.len(), fail_on.min(calls + 1) - 1);
        for (i, image) in history.iter().enumerate() {
            let ckpt = SweepCheckpoint::from_bytes(image).expect("image decodes");
            let res = Resilience::new()
                .with_retry(RetryPolicy::none())
                .with_sleeper(&NoSleep)
                .resume_from(&ckpt);
            let resumed = run_driver(1, &space, &records, options, &res);
            prop_assert_eq!(resumed.sorted(), baseline.sorted(), "resume from image {} diverged", i);
        }
    }
}
