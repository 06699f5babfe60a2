//! Unit tests of the paper's single DEW pass: the FIFO arena kernel at one
//! associativity ([`crate::Arena::for_pass`]), plus the single-width LRU
//! passes the paper's Section 2.1 comparison runs. The module is named
//! `tree` so the tests keep the names they had when a dedicated tree type
//! ran the single pass.

#[cfg(test)]
mod tests {
    use dew_cachesim::{Cache, CacheConfig, Replacement};
    use dew_trace::Record;

    use crate::arena::{Arena, Policy};
    use crate::kernel::{FusedKernel, PolicyKernel};
    use crate::lru_tree::{Lru, LruTreeSimulator};
    use crate::multi_assoc::Fifo;
    use crate::options::{DewOptions, TreePolicy};
    use crate::plru_tree::Plru;
    use crate::simd::KernelBackend;
    use crate::slru_tree::Slru;
    use crate::snapshot::SnapshotError;
    use crate::space::PassConfig;
    use crate::MultiAssocTree;

    /// LRU options with the CRCB-style duplicate elision on.
    fn lru_elided() -> DewOptions {
        DewOptions {
            dup_elision: true,
            ..DewOptions::for_policy(TreePolicy::Lru)
        }
    }

    /// The paper's pass with every counter live.
    fn fifo_tree(block_bits: u32, min: u32, max: u32, assoc: u32) -> MultiAssocTree {
        let pass = PassConfig::new(block_bits, min, max, assoc).expect("valid pass");
        MultiAssocTree::for_pass(pass, DewOptions::default(), true).expect("valid options")
    }

    /// One single-associativity pass under `opts.policy`.
    fn single_pass(pass: PassConfig, opts: DewOptions, instrument: bool) -> FusedKernel {
        let bits = pass.assoc().trailing_zeros();
        let sets = (pass.min_set_bits(), pass.max_set_bits());
        FusedKernel::build(pass.block_bits(), sets, (bits, bits), opts, instrument).expect("sound")
    }

    /// Runs `addrs` through `kernel` at `pass`'s block size.
    fn run(kernel: &mut FusedKernel, pass: PassConfig, addrs: &[u64]) {
        let blocks: Vec<u64> = addrs.iter().map(|a| a >> pass.block_bits()).collect();
        kernel.run_blocks(&blocks);
    }

    /// Reference miss count via the per-configuration simulator.
    fn reference_misses(
        sets: u32,
        assoc: u32,
        block_bytes: u32,
        policy: Replacement,
        addrs: &[u64],
    ) -> u64 {
        let mut cache =
            Cache::new(CacheConfig::new(sets, assoc, block_bytes, policy).expect("valid config"));
        for &a in addrs {
            cache.access(Record::read(a));
        }
        cache.stats().misses()
    }

    fn pseudo_random_addrs(n: usize, span: u64, seed: u64) -> Vec<u64> {
        // Deterministic xorshift mix: localised with occasional far jumps.
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 7 == 0 {
                    x % span
                } else {
                    (x % 64) * 4 + (i as u64 % 3) * 128
                }
            })
            .collect()
    }

    #[test]
    fn streaming_trace_misses_everywhere() {
        let mut t = fifo_tree(2, 0, 3, 2);
        for i in 0..64u64 {
            t.step(i * 4);
        }
        let r = t.pass_results(2).expect("simulated");
        for sets in [1u32, 2, 4, 8] {
            assert_eq!(r.misses(sets, 2), Some(64), "sets={sets}");
            assert_eq!(r.misses(sets, 1), Some(64), "sets={sets}");
        }
    }

    #[test]
    fn repeated_address_stops_at_the_root() {
        let mut t = fifo_tree(2, 0, 4, 4);
        for _ in 0..10 {
            t.step(0x40);
        }
        let c = t.pass_counters(4).expect("simulated");
        // First request walks all 5 levels; the other 9 stop at the root.
        assert_eq!(c.node_evaluations, 5 + 9);
        assert_eq!(c.mra_stops, 9);
        assert!(c.is_consistent());
        let r = t.pass_results(4).expect("simulated");
        assert_eq!(r.misses(1, 4), Some(1));
        assert_eq!(r.misses(16, 1), Some(1));
    }

    #[test]
    fn matches_reference_fifo_on_mixed_trace() {
        let addrs = pseudo_random_addrs(4000, 1 << 14, 0xDEB5_1234);
        for (block_bits, assoc) in [(0u32, 2u32), (2, 4), (4, 8), (6, 16), (2, 1)] {
            let mut t = fifo_tree(block_bits, 0, 6, assoc);
            for &a in &addrs {
                t.step(a);
            }
            assert!(t.pass_counters(assoc).expect("simulated").is_consistent());
            let r = t.pass_results(assoc).expect("simulated");
            for set_bits in 0..=6u32 {
                let sets = 1u32 << set_bits;
                let block = 1 << block_bits;
                let expected = reference_misses(sets, assoc, block, Replacement::Fifo, &addrs);
                assert_eq!(
                    r.misses(sets, assoc),
                    Some(expected),
                    "sets={sets} assoc={assoc} block_bits={block_bits}"
                );
                let expected_dm = reference_misses(sets, 1, block, Replacement::Fifo, &addrs);
                assert_eq!(r.misses(sets, 1), Some(expected_dm), "DM sets={sets}");
            }
        }
    }

    /// `P`'s fast single pass against the reference simulator.
    fn check_uninstrumented_pass<P: Policy>(replacement: Replacement, addrs: &[u64]) {
        let pass = PassConfig::new(2, 0, 6, 4).expect("valid");
        let options = DewOptions::for_policy(P::POLICY);
        let mut t = Arena::<P>::for_pass(pass, options, false).expect("sound");
        assert!(!t.is_instrumented());
        for &a in addrs {
            t.step(a);
        }
        let c = t.pass_counters(4).expect("simulated");
        assert_eq!(c.accesses, addrs.len() as u64);
        assert_eq!(
            c.node_evaluations, 0,
            "the fast kernel performs no per-node counting"
        );
        let r = t.pass_results(4).expect("simulated");
        for set_bits in 0..=6u32 {
            let sets = 1u32 << set_bits;
            let expected = reference_misses(sets, 4, 4, replacement, addrs);
            assert_eq!(
                r.misses(sets, 4),
                Some(expected),
                "{replacement:?} sets={sets}"
            );
        }
    }

    #[test]
    fn uninstrumented_kernel_matches_reference_too() {
        let addrs = pseudo_random_addrs(4000, 1 << 14, 0xDEB5_1234);
        check_uninstrumented_pass::<Fifo>(Replacement::Fifo, &addrs);
        check_uninstrumented_pass::<Lru>(Replacement::Lru, &addrs);
        check_uninstrumented_pass::<Plru>(Replacement::Plru, &addrs);
        check_uninstrumented_pass::<Slru>(Replacement::Slru, &addrs);
    }

    #[test]
    fn instrumented_and_fast_kernels_are_bit_identical() {
        let addrs = pseudo_random_addrs(5000, 1 << 13, 0x00DD_BA11);
        let pass = PassConfig::new(2, 0, 6, 4).expect("valid");
        for opts in [
            DewOptions::default(),
            DewOptions::unoptimized(),
            DewOptions::for_policy(TreePolicy::Lru),
        ] {
            let mut slow = single_pass(pass, opts, true);
            let mut fast = single_pass(pass, opts, false);
            run(&mut slow, pass, &addrs);
            run(&mut fast, pass, &addrs);
            assert_eq!(slow.pass_results(4), fast.pass_results(4), "{opts}");
        }
    }

    #[test]
    fn run_blocks_matches_per_record_stepping() {
        let addrs = pseudo_random_addrs(3000, 1 << 12, 0xB10C_B10C);
        let pass = PassConfig::new(4, 0, 5, 4).expect("valid");
        let blocks: Vec<u64> = addrs.iter().map(|&a| a >> 4).collect();
        for instrument in [false, true] {
            let build = || MultiAssocTree::for_pass(pass, DewOptions::default(), instrument);
            // Per-record steps on the scalar scan, batches on the active
            // backend: the comparison doubles as a backend check.
            let mut stepped = build().expect("sound");
            stepped
                .force_scan_backend(KernelBackend::Scalar)
                .expect("scalar is always available");
            for &a in &addrs {
                stepped.step(a);
            }
            let mut batched = build().expect("sound");
            batched.run_blocks(&blocks);
            assert_eq!(stepped.pass_results(4), batched.pass_results(4));
            assert_eq!(stepped.pass_counters(4), batched.pass_counters(4));
        }
    }

    /// DEW-LRU as `lru_compare` runs it: one single-width LRU pass.
    #[test]
    fn matches_reference_lru_on_mixed_trace() {
        let addrs = pseudo_random_addrs(3000, 1 << 12, 0xABCD_EF01);
        let pass = PassConfig::new(2, 0, 5, 4).expect("valid");
        let mut t = LruTreeSimulator::for_pass(pass, lru_elided(), true).expect("valid");
        for &a in &addrs {
            t.step(a);
        }
        assert!(t.pass_counters(4).expect("simulated").is_consistent());
        let r = t.pass_results(4).expect("simulated");
        for set_bits in 0..=5u32 {
            let sets = 1u32 << set_bits;
            let expected = reference_misses(sets, 4, 4, Replacement::Lru, &addrs);
            assert_eq!(r.misses(sets, 4), Some(expected), "LRU sets={sets}");
            let expected_dm = reference_misses(sets, 1, 4, Replacement::Lru, &addrs);
            assert_eq!(r.misses(sets, 1), Some(expected_dm), "LRU DM sets={sets}");
        }
    }

    #[test]
    fn properties_do_not_change_results() {
        let addrs = pseudo_random_addrs(2500, 1 << 12, 0x1357_9BDF);
        let pass = PassConfig::new(2, 0, 5, 4).expect("valid");
        let run = |opts: DewOptions, instrument: bool| {
            let mut t = MultiAssocTree::for_pass(pass, opts, instrument).expect("valid");
            for &a in &addrs {
                t.step(a);
            }
            (t.pass_results(4), t.pass_counters(4).expect("simulated"))
        };
        let (baseline, _) = run(DewOptions::unoptimized(), false);
        for opts in DewOptions::ablation_grid(TreePolicy::Fifo) {
            let (results, counters) = run(opts, true);
            assert!(counters.is_consistent(), "{opts}");
            assert_eq!(results, baseline, "results changed under {opts}");
        }
    }

    #[test]
    fn properties_reduce_work_monotonically() {
        // Byte-addressable sequential loop: consecutive requests share a
        // block (the paper's traces have this shape), so the MRA stop fires
        // on most requests and the short-circuit checks pay off.
        let addrs: Vec<u64> = (0..4000u64).map(|i| i % 640).collect();
        let pass = PassConfig::new(2, 0, 6, 4).expect("valid");
        let run = |opts: DewOptions| {
            let mut t = MultiAssocTree::for_pass(pass, opts, true).expect("valid");
            for &a in &addrs {
                t.step(a);
            }
            t.pass_counters(4).expect("simulated")
        };
        let none = run(DewOptions::unoptimized());
        let full = run(DewOptions::default());
        assert!(
            full.node_evaluations < none.node_evaluations,
            "MRA stop prunes evaluations"
        );
        assert!(
            full.tag_comparisons < none.tag_comparisons,
            "properties cut comparisons"
        );
        assert_eq!(
            none.node_evaluations,
            none.unoptimized_evaluations(pass.num_levels()),
            "without the stop, every request visits every level"
        );
    }

    #[test]
    fn forest_with_min_sets_above_one() {
        let addrs = pseudo_random_addrs(1500, 1 << 10, 0xFEED_BEEF);
        let mut t = fifo_tree(2, 3, 6, 2);
        for &a in &addrs {
            t.step(a);
        }
        let r = t.pass_results(2).expect("simulated");
        assert_eq!(
            r.misses(4, 2),
            None,
            "below the forest's smallest set count"
        );
        for set_bits in 3..=6u32 {
            let sets = 1u32 << set_bits;
            let expected = reference_misses(sets, 2, 4, Replacement::Fifo, &addrs);
            assert_eq!(r.misses(sets, 2), Some(expected), "forest sets={sets}");
        }
    }

    #[test]
    fn single_level_tree_works() {
        let addrs = pseudo_random_addrs(500, 1 << 8, 0x600D_CAFE);
        let mut t = fifo_tree(0, 4, 4, 4);
        for &a in &addrs {
            t.step(a);
        }
        let expected = reference_misses(16, 4, 1, Replacement::Fifo, &addrs);
        let r = t.pass_results(4).expect("simulated");
        assert_eq!(r.misses(16, 4), Some(expected));
    }

    #[test]
    fn assoc_one_tree_agrees_with_its_own_dm_results() {
        let addrs = pseudo_random_addrs(1000, 1 << 10, 0x0BAD_F00D);
        let mut t = fifo_tree(2, 0, 5, 1);
        for &a in &addrs {
            t.step(a);
        }
        let r = t.pass_results(1).expect("simulated");
        for l in r.levels() {
            assert_eq!(
                l.misses(),
                l.dm_misses(),
                "at associativity 1 the MRA lane is the simulation"
            );
        }
    }

    /// At associativity 1 the MRA comparison is the whole simulation: every
    /// evaluation the MRA stop did not settle counts as one search of one
    /// comparison, and no wave pointer or MRE entry ever settles one (see
    /// DESIGN.md, "The A = 1 accounting convention").
    #[test]
    fn assoc_one_counts_every_unsettled_evaluation_as_one_search() {
        let addrs = pseudo_random_addrs(1000, 1 << 10, 0x0BAD_F00D);
        for opts in DewOptions::ablation_grid(TreePolicy::Fifo) {
            let pass = PassConfig::new(2, 0, 5, 1).expect("valid");
            let mut t = MultiAssocTree::for_pass(pass, opts, true).expect("valid");
            for &a in &addrs {
                t.step(a);
            }
            let c = t.pass_counters(1).expect("simulated");
            assert!(c.is_consistent(), "{opts}: {c}");
            assert_eq!(c.searches, c.node_evaluations - c.mra_stops, "{opts}");
            assert_eq!(c.search_comparisons, c.searches, "{opts}");
            assert_eq!(c.tag_comparisons, c.node_evaluations + c.searches, "{opts}");
            assert_eq!(c.wave_total() + c.mre_misses, 0, "{opts}");
            if !opts.mra_stop {
                assert_eq!(c.node_evaluations, 6 * addrs.len() as u64, "{opts}");
            }
        }
    }

    #[test]
    fn mre_restores_wave_pointers_across_evictions() {
        // Cycle three blocks through a 2-way root so evict/re-insert cycles
        // exercise the MRE exchange path (Algorithm 2 line 5).
        let addrs: Vec<u64> = (0..60u64).map(|i| (i % 3) * 0x100).collect();
        let mut t = fifo_tree(2, 0, 2, 2);
        for &a in &addrs {
            t.step(a);
        }
        let c = t.pass_counters(2).expect("simulated");
        assert!(c.mre_misses > 0, "MRE determinations must fire: {c}");
        assert!(c.is_consistent());
        // Exactness under thrashing:
        let r = t.pass_results(2).expect("simulated");
        for set_bits in 0..=2u32 {
            let sets = 1u32 << set_bits;
            for assoc in [1, 2] {
                let expected = reference_misses(sets, assoc, 4, Replacement::Fifo, &addrs);
                assert_eq!(r.misses(sets, assoc), Some(expected), "sets={sets}");
            }
        }
    }

    #[test]
    fn wave_pointers_fire_on_tree_descent() {
        // A loop over a few blocks: after warm-up, descents should be decided
        // by wave pointers or MRA stops, not searches.
        let mut t = fifo_tree(2, 0, 3, 4);
        for i in 0..12u64 {
            t.step((i % 3) * 4);
        }
        let c = t.pass_counters(4).expect("simulated");
        assert!(c.wave_hits > 0, "wave hits expected: {c}");
        assert!(c.is_consistent());
    }

    #[test]
    fn belady_anomaly_exists_under_fifo() {
        // The canonical Belady sequence: FIFO with MORE capacity can miss
        // MORE. This is why FIFO has no inclusion property and why DEW cannot
        // reuse the LRU single-pass machinery (paper Section 1).
        let seq = [1u64, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
        // Direct check of the anomaly with exact FIFO frame counts 3 and 4
        // using a tiny inline model (power-of-two caches can't express 3
        // ways).
        fn fifo_misses(frames: usize, seq: &[u64]) -> u32 {
            let mut q: Vec<u64> = Vec::new();
            let mut misses = 0;
            for &b in seq {
                if !q.contains(&b) {
                    misses += 1;
                    if q.len() == frames {
                        q.remove(0);
                    }
                    q.push(b);
                }
            }
            misses
        }
        assert!(
            fifo_misses(4, &seq) > fifo_misses(3, &seq),
            "Belady's anomaly: 4 frames must miss more than 3 on this sequence"
        );
    }

    #[test]
    fn memory_models() {
        let pass = PassConfig::new(2, 0, 2, 4).expect("valid");
        // Levels with 1, 2 and 4 sets: (1+2+4) x (96 + 64*4) bits.
        assert_eq!(pass.paper_model_bits(), 7 * (96 + 256));
        let fast = MultiAssocTree::for_pass(pass, DewOptions::default(), false).expect("sound");
        let counted = fifo_tree(2, 0, 2, 4);
        assert!(fast.footprint_bytes() > 0);
        assert!(
            counted.footprint_bytes() > fast.footprint_bytes(),
            "the ladder stores wave pointers, MRE entries and valid counts"
        );
    }

    #[test]
    fn run_and_step_record_are_step_by_address() {
        let records: Vec<Record> = (0..50u64).map(|i| Record::read((i % 9) * 8)).collect();
        let mut a = fifo_tree(2, 0, 3, 2);
        a.run(records.iter().copied());
        let mut b = fifo_tree(2, 0, 3, 2);
        for r in &records {
            b.step_record(*r);
        }
        assert_eq!(a.pass_results(2), b.pass_results(2));
        assert_eq!(a.pass_counters(2), b.pass_counters(2));
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_address_panics() {
        let mut t = fifo_tree(0, 0, 1, 1);
        t.step(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        let pass = PassConfig::new(0, 0, 1, 1).expect("valid");
        let mut t = MultiAssocTree::for_pass(pass, DewOptions::default(), false).expect("sound");
        t.run_blocks(&[0, 1, u64::MAX]);
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        let addrs = pseudo_random_addrs(3000, 1 << 12, 0x5AFE_5AFE);
        let (first, second) = addrs.split_at(1500);
        let pass = PassConfig::new(2, 0, 6, 4).expect("valid");
        for opts in [
            DewOptions::default(),
            DewOptions::for_policy(TreePolicy::Lru),
            DewOptions::unoptimized(),
        ] {
            for instrument in [false, true] {
                // Uninterrupted run.
                let mut straight = single_pass(pass, opts, instrument);
                run(&mut straight, pass, &addrs);
                // Checkpointed run: simulate half, snapshot, restore, finish.
                let mut head = single_pass(pass, opts, instrument);
                run(&mut head, pass, first);
                let snapshot = head.to_snapshot();
                drop(head);
                let mut tail =
                    FusedKernel::from_snapshot(opts.policy, &snapshot).expect("restores");
                run(&mut tail, pass, second);
                assert_eq!(tail.pass_results(4), straight.pass_results(4), "{opts}");
                assert_eq!(tail.pass_counters(4), straight.pass_counters(4), "{opts}");
            }
        }
    }

    #[test]
    fn snapshot_rejects_foreign_and_corrupt_buffers() {
        assert!(matches!(
            MultiAssocTree::from_snapshot(b"nope"),
            Err(SnapshotError::Corrupt(_)) | Err(SnapshotError::BadMagic)
        ));
        let mut t = fifo_tree(2, 0, 2, 2);
        t.step(0x100);
        let mut snap = t.to_snapshot();
        // Unknown version.
        let mut wrong_version = snap.clone();
        wrong_version[4] = 99;
        assert!(matches!(
            MultiAssocTree::from_snapshot(&wrong_version),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
        // Truncated.
        snap.truncate(snap.len() - 3);
        assert!(matches!(
            MultiAssocTree::from_snapshot(&snap),
            Err(SnapshotError::Corrupt(_))
        ));
        // Trailing garbage.
        let mut long = t.to_snapshot();
        long.push(0);
        assert!(matches!(
            MultiAssocTree::from_snapshot(&long),
            Err(SnapshotError::TrailingBytes(1))
        ));
    }

    #[test]
    fn duplicate_elision_preserves_results_and_skips_work() {
        // Byte-sequential accesses: with 16-byte blocks, 15 of every 16
        // requests repeat the previous block.
        let addrs: Vec<u64> = (0..2000u64).map(|i| i % 512).collect();
        let pass = PassConfig::new(4, 0, 5, 4).expect("valid");
        let run = |opts: DewOptions| {
            let mut t = MultiAssocTree::for_pass(pass, opts, true).expect("sound");
            for &a in &addrs {
                t.step(a);
            }
            (t.pass_results(4), t.pass_counters(4).expect("simulated"))
        };
        let plain = run(DewOptions::default());
        let elided = run(DewOptions {
            dup_elision: true,
            ..DewOptions::default()
        });
        assert_eq!(plain.0, elided.0, "elision must not change results");
        assert!(
            elided.1.duplicate_skips > 1000,
            "skips: {}",
            elided.1.duplicate_skips
        );
        assert!(elided.1.node_evaluations < plain.1.node_evaluations);
        assert!(elided.1.is_consistent());
    }

    #[test]
    fn duplicate_elision_is_exact_under_lru_too() {
        let addrs: Vec<u64> = (0..3000u64)
            .map(|i| {
                let x = (i * 2654435761) >> 5;
                (x % 128) * 2 // pairs of accesses to nearby bytes
            })
            .collect();
        let pass = PassConfig::new(2, 0, 4, 4).expect("valid");
        let mut t = LruTreeSimulator::for_pass(pass, lru_elided(), false).expect("valid");
        for &a in &addrs {
            t.step(a);
        }
        let r = t.pass_results(4).expect("simulated");
        for set_bits in 0..=4u32 {
            let sets = 1u32 << set_bits;
            for a in [1u32, 4] {
                let expected = reference_misses(sets, a, 4, Replacement::Lru, &addrs);
                assert_eq!(r.misses(sets, a), Some(expected), "sets={sets} assoc={a}");
            }
        }
    }
}
