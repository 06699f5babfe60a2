//! Property tests for the supporting models: the energy model's orderings,
//! workload generators' address discipline, and the all-associativity
//! extension against the per-configuration reference.

use proptest::prelude::*;

use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
use dew_core::{DewOptions, MultiAssocTree};
use dew_explore::{EnergyModel, Geometry};
use dew_trace::Record;
use dew_workloads::kernels::{Kernel, PointerChase, StridedStream};
use dew_workloads::mediabench::App;

fn geometry_strategy() -> impl Strategy<Value = Geometry> {
    (0u32..12, 0u32..5, 0u32..7).prop_map(|(s, a, b)| Geometry {
        sets: 1 << s,
        assoc: 1 << a,
        block_bytes: 1 << b,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn energy_model_orderings(g in geometry_strategy(), misses in 0u64..1_000_000) {
        let m = EnergyModel::default();
        let accesses = 1_000_000u64;
        let misses = misses.min(accesses);
        // More ways at the same geometry always costs more per access.
        if g.assoc < 16 {
            let wider = Geometry { assoc: g.assoc * 2, ..g };
            prop_assert!(m.access_energy_pj(wider) > m.access_energy_pj(g));
        }
        // Fewer misses never cost more energy or time.
        if misses > 0 {
            prop_assert!(
                m.total_energy_nj(g, accesses, misses - 1)
                    <= m.total_energy_nj(g, accesses, misses)
            );
            prop_assert!(
                m.total_cycles(g, accesses, misses - 1) <= m.total_cycles(g, accesses, misses)
            );
        }
        // Energies are finite and non-negative.
        let e = m.total_energy_nj(g, accesses, misses);
        prop_assert!(e.is_finite() && e >= 0.0);
    }

    #[test]
    fn strided_stream_stays_in_bounds(
        base in 0u64..1 << 40,
        count in 1u64..2_000,
        stride in 1u64..256,
        passes in 1u32..4,
    ) {
        let k = StridedStream {
            base,
            count,
            stride,
            kind: dew_trace::AccessKind::Read,
            passes,
        };
        let t = k.generate(0);
        prop_assert_eq!(t.len() as u64, count * u64::from(passes));
        let hi = base + (count - 1) * stride;
        prop_assert!(t.iter().all(|r| r.addr >= base && r.addr <= hi));
    }

    #[test]
    fn pointer_chase_stays_in_pool(
        nodes in 1u32..512,
        node_bytes in 1u32..128,
        steps in 0u64..2_000,
        seed in any::<u64>(),
    ) {
        let k = PointerChase { base: 0x1000, nodes, node_bytes, steps };
        let t = k.generate(seed);
        prop_assert_eq!(t.len() as u64, steps);
        let hi = 0x1000 + u64::from(nodes - 1) * u64::from(node_bytes);
        prop_assert!(t.iter().all(|r| r.addr >= 0x1000 && r.addr <= hi));
    }

    #[test]
    fn mediabench_lengths_are_exact(requests in 1u64..20_000, seed in any::<u64>()) {
        for app in [App::JpegEncode, App::G721Decode, App::Mpeg2Decode] {
            prop_assert_eq!(app.generate(requests, seed).len() as u64, requests);
        }
    }

    /// Every associativity of the fused pass against the per-configuration
    /// reference (the oracle every single-associativity pass answers to).
    #[test]
    fn multi_assoc_agrees_with_dew_tree(
        seed in any::<u64>(),
        max_set_bits in 0u32..5,
        assoc_bits in 1u32..4,
    ) {
        let mut x = seed | 1;
        let addrs: Vec<u64> = (0..800)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 5 == 0 { x % 4096 } else { (x % 70) * 4 }
            })
            .collect();
        let assoc = 1u32 << assoc_bits;
        let mut multi =
            MultiAssocTree::new(2, (0, max_set_bits), (0, assoc.trailing_zeros()), DewOptions::default(), false)
                .expect("valid");
        for &a in &addrs {
            multi.step(a);
        }
        let mr = multi.results();
        let records: Vec<Record> = addrs.iter().map(|&a| Record::read(a)).collect();
        for set_bits in 0..=max_set_bits {
            let sets = 1u32 << set_bits;
            for a in (0..=assoc_bits).map(|b| 1u32 << b) {
                let config = CacheConfig::new(sets, a, 4, Replacement::Fifo).expect("valid");
                let expected = simulate_trace(config, &records).misses();
                prop_assert_eq!(mr.misses(sets, a), Some(expected));
            }
        }
    }
}
