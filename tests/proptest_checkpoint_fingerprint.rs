//! Property-based contract of the checkpoint *fingerprint*: a sidecar can
//! only ever resume the sweep that wrote it.
//!
//! [`SweepCheckpoint`] images embed a fingerprint of the sweep's identity
//! (configuration space + kernel options). Resuming under a different
//! identity must be one clean structured rejection — never N confused job
//! deaths, and never a silently wrong table. These properties pin that
//! down across random space/option pairs, and close the loop on the
//! deadline path: a sweep cut by an already-expired [`CancelToken`]
//! deadline flushes a final image whose resume reproduces the
//! uninterrupted table bit for bit.

use proptest::prelude::*;

use dew_core::{
    CancelReason, CancelToken, ConfigSpace, DewError, DewOptions, MemoryCheckpointStore, NoSleep,
    Resilience, RetryPolicy, SweepCheckpoint, SweepRequest, TreePolicy,
};
use dew_trace::Record;

fn trace_strategy() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..256).prop_map(|a| Record::read(a * 4)),
            (0u64..65_536).prop_map(Record::read),
            (0u64..64).prop_map(Record::write),
        ],
        1..300,
    )
}

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

/// A checkpointed run of `space` over `records`, returning the final image.
fn checkpoint_image(space: &ConfigSpace, records: &[Record], options: DewOptions) -> Vec<u8> {
    let store = MemoryCheckpointStore::new();
    let res = Resilience::new()
        .with_retry(RetryPolicy::none())
        .with_sleeper(&NoSleep)
        .with_checkpoint(64, &store);
    SweepRequest::new(space)
        .options(options)
        .threads(1)
        .resilient(&res)
        .run(records)
        .expect("checkpointed sweep");
    store.latest().expect("at least the completion image")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A checkpoint resumes its own sweep and is rejected — with the
    /// structured fingerprint error, before any job starts — by any sweep
    /// with a different space, and by the other replacement policy.
    #[test]
    fn foreign_checkpoints_are_rejected_up_front(
        records in trace_strategy(),
        space_a in space_strategy(),
        space_b in space_strategy(),
        policy_idx in 0usize..4,
    ) {
        let options = DewOptions::for_policy(TreePolicy::ALL[policy_idx]);
        let image = checkpoint_image(&space_a, &records, options);
        let ckpt = SweepCheckpoint::from_bytes(&image).expect("image decodes");

        // Control: the same identity accepts the image and reproduces the
        // plain sweep exactly.
        let baseline = SweepRequest::new(&space_a).options(options).threads(1).run(&records).expect("sweep");
        let res = Resilience::new().with_sleeper(&NoSleep).resume_from(&ckpt);
        let resumed = SweepRequest::new(&space_a).options(options).threads(1).resilient(&res).run(&records)
            .expect("own sweep accepts its checkpoint");
        prop_assert_eq!(resumed.sorted(), baseline.sorted());

        // A different space is a different fingerprint, and must be one
        // clean `DewError::Checkpoint` naming the mismatch.
        if space_b != space_a {
            let res = Resilience::new().with_sleeper(&NoSleep).resume_from(&ckpt);
            let err = SweepRequest::new(&space_b).options(options).threads(1).resilient(&res).run(&records)
                .expect_err("foreign space must be rejected");
            match err {
                DewError::Checkpoint(msg) => prop_assert!(
                    msg.contains("fingerprint"),
                    "rejection names the fingerprint: {msg}"
                ),
                other => prop_assert!(false, "expected DewError::Checkpoint, got {other:?}"),
            }
        }

        // Any other registered policy is rejected too (before fingerprints
        // are even compared — the kernel snapshots would not decode).
        let flipped = DewOptions::for_policy(TreePolicy::ALL[(policy_idx + 1) % 4]);
        let res = Resilience::new().with_sleeper(&NoSleep).resume_from(&ckpt);
        let err = SweepRequest::new(&space_a).options(flipped).threads(1).resilient(&res).run(&records)
            .expect_err("policy flip must be rejected");
        prop_assert!(matches!(err, DewError::Checkpoint(_)), "got {err:?}");
    }

    /// The deadline path flushes a resumable cut: a sweep whose cancel
    /// token is born expired terminates as a partial outcome with every
    /// job cut at a checkpoint, and resuming that final image (minus the
    /// token) reproduces the uninterrupted table bit for bit.
    #[test]
    fn an_expired_deadline_cuts_at_a_resumable_checkpoint(
        records in trace_strategy(),
        space in space_strategy(),
        every in 1u64..100,
        policy_idx in 0usize..4,
    ) {
        let options = DewOptions::for_policy(TreePolicy::ALL[policy_idx]);
        let baseline = SweepRequest::new(&space).options(options).threads(1).run(&records).expect("sweep");

        let store = MemoryCheckpointStore::new();
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        prop_assert_eq!(token.cancelled(), Some(CancelReason::DeadlineExceeded));
        let res = Resilience::new()
            .with_retry(RetryPolicy::none())
            .with_sleeper(&NoSleep)
            .with_checkpoint(every, &store)
            .with_cancel(&token);
        let cut = SweepRequest::new(&space).options(options).threads(1).resilient(&res).run(&records)
            .expect("a deadline cut is a partial outcome, not an error");
        prop_assert!(cut.is_partial(), "an expired deadline admits no progress");

        let image = store.latest().expect("the cut flushed a final image");
        let ckpt = SweepCheckpoint::from_bytes(&image).expect("image decodes");
        let res = Resilience::new().with_sleeper(&NoSleep).resume_from(&ckpt);
        let resumed = SweepRequest::new(&space).options(options).threads(1).resilient(&res).run(&records)
            .expect("resume after the deadline cut");
        prop_assert!(!resumed.is_partial());
        prop_assert_eq!(resumed.sorted(), baseline.sorted(),
            "deadline cut + resume diverged (every={}, policy_idx={})", every, policy_idx);
    }
}
