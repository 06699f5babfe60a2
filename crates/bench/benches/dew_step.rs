//! Criterion micro-benchmark: per-request throughput of the paper's single
//! DEW pass (a one-width arena kernel) across associativities and block
//! sizes, and with properties toggled.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dew_bench::suite::SuiteScale;
use dew_core::lru_tree::LruTreeSimulator;
use dew_core::{DewOptions, MultiAssocTree, PassConfig, TreePolicy};
use dew_workloads::mediabench::App;

/// The paper's pass at `pass.assoc()`.
fn single_pass(pass: PassConfig, opts: DewOptions, instrument: bool) -> MultiAssocTree {
    MultiAssocTree::for_pass(pass, opts, instrument).expect("sound")
}

fn trace_addrs(n: u64) -> Vec<u64> {
    App::JpegEncode
        .generate(n, SuiteScale::default().seed)
        .records()
        .iter()
        .map(|r| r.addr)
        .collect()
}

fn bench_assoc(c: &mut Criterion) {
    let addrs = trace_addrs(100_000);
    let mut group = c.benchmark_group("dew_step/assoc");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    for assoc in [1u32, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(assoc), &assoc, |b, &assoc| {
            b.iter(|| {
                let pass = PassConfig::new(2, 0, 14, assoc).expect("valid");
                let mut tree = single_pass(pass, DewOptions::default(), false);
                for &a in &addrs {
                    tree.step(a);
                }
                tree.pass_results(assoc)
            });
        });
    }
    group.finish();
}

fn bench_block_size(c: &mut Criterion) {
    let addrs = trace_addrs(100_000);
    let mut group = c.benchmark_group("dew_step/block");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    for block_bits in [2u32, 4, 6] {
        group.bench_with_input(
            BenchmarkId::from_parameter(1u32 << block_bits),
            &block_bits,
            |b, &bits| {
                b.iter(|| {
                    let pass = PassConfig::new(bits, 0, 14, 4).expect("valid");
                    let mut tree = single_pass(pass, DewOptions::default(), false);
                    for &a in &addrs {
                        tree.step(a);
                    }
                    tree.pass_results(4)
                });
            },
        );
    }
    group.finish();
}

/// The fast kernel (per-record and batched) against the instrumented one,
/// same pass, same trace.
fn bench_kernel_variants(c: &mut Criterion) {
    let addrs = trace_addrs(100_000);
    let pass = PassConfig::new(2, 0, 14, 4).expect("valid");
    let blocks: Vec<u64> = addrs.iter().map(|&a| a >> 2).collect();
    let mut group = c.benchmark_group("dew_step/kernel");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("instrumented"),
        &addrs,
        |b, addrs| {
            b.iter(|| {
                let mut tree = single_pass(pass, DewOptions::default(), true);
                for &a in addrs {
                    tree.step(a);
                }
                tree.pass_results(4)
            });
        },
    );
    group.bench_with_input(BenchmarkId::from_parameter("fast"), &addrs, |b, addrs| {
        b.iter(|| {
            let mut tree = single_pass(pass, DewOptions::default(), false);
            for &a in addrs {
                tree.step(a);
            }
            tree.pass_results(4)
        });
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("run_blocks"),
        &blocks,
        |b, blocks| {
            b.iter(|| {
                let mut tree = single_pass(pass, DewOptions::default(), false);
                tree.run_blocks(blocks);
                tree.pass_results(4)
            });
        },
    );
    group.finish();
}

fn bench_properties(c: &mut Criterion) {
    let addrs = trace_addrs(100_000);
    let pass = PassConfig::new(2, 0, 14, 4).expect("valid");
    let mut group = c.benchmark_group("dew_step/properties");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    for (name, opts) in [
        ("all_on", DewOptions::default()),
        ("all_off", DewOptions::unoptimized()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, &opts| {
            b.iter(|| {
                let mut tree = single_pass(pass, opts, false);
                for &a in &addrs {
                    tree.step(a);
                }
                tree.pass_results(4)
            });
        });
    }
    group.bench_function(BenchmarkId::from_parameter("lru"), |b| {
        b.iter(|| {
            let opts = DewOptions {
                dup_elision: true,
                ..DewOptions::for_policy(TreePolicy::Lru)
            };
            let mut tree = LruTreeSimulator::for_pass(pass, opts, false).expect("valid");
            for &a in &addrs {
                tree.step(a);
            }
            tree.pass_results(4)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_assoc,
    bench_block_size,
    bench_kernel_variants,
    bench_properties
);
criterion_main!(benches);
