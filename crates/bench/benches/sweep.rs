//! Criterion benchmark: end-to-end multi-configuration sweeps — one DEW pass
//! versus per-configuration reference passes over the same space, and the
//! LRU-tree comparator. The in-the-small version of Table 3's headline.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dew_bench::suite::SuiteScale;
use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
use dew_core::lru_tree::LruTreeSimulator;
use dew_core::{ConfigSpace, DewOptions, SweepRequest, TreePolicy};
use dew_trace::Record;
use dew_workloads::mediabench::App;

fn trace_records(n: u64) -> Vec<Record> {
    App::JpegDecode
        .generate(n, SuiteScale::default().seed)
        .into_records()
}

fn bench_sweep(c: &mut Criterion) {
    let records = trace_records(50_000);
    let space = ConfigSpace::new((0, 10), (2, 2), (0, 2)).expect("valid");
    let mut group = c.benchmark_group("sweep");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.sample_size(10);

    group.bench_function("dew_single_thread", |b| {
        b.iter(|| {
            SweepRequest::new(&space)
                .threads(1)
                .run(&records)
                .expect("sweep")
                .config_count()
        });
    });

    group.bench_function("dew_parallel", |b| {
        b.iter(|| {
            SweepRequest::new(&space)
                .run(&records)
                .expect("sweep")
                .config_count()
        });
    });

    group.bench_function("reference_per_config", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for (sets, assoc, block) in space.configs() {
                let config =
                    CacheConfig::new(sets, assoc, block, Replacement::Fifo).expect("valid");
                total += simulate_trace(config, &records).misses();
            }
            total
        });
    });

    group.bench_function("lru_tree_all_assoc", |b| {
        b.iter(|| {
            // The fast arena kernel keeps no comparison counters; anchor the
            // work through a result the simulation must have produced.
            let opts = DewOptions {
                dup_elision: true,
                ..DewOptions::for_policy(TreePolicy::Lru)
            };
            let mut sim = LruTreeSimulator::new(2, (0, 10), (0, 2), opts, false).expect("valid");
            for r in &records {
                sim.step(r.addr);
            }
            sim.results().misses(1 << 10, 4).expect("simulated")
        });
    });

    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
