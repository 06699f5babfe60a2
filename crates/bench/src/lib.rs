//! Benchmark harness for the DEW reproduction.
//!
//! One binary per table/figure of the paper's evaluation (Section 5):
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `table1` | Table 1 — the 525-configuration space |
//! | `table2` | Table 2 — the workload inventory |
//! | `table3` | Table 3 — DEW vs reference: time and tag comparisons |
//! | `figure5` | Figure 5 — speedup of DEW over the reference |
//! | `figure6` | Figure 6 — % reduction in tag comparisons |
//! | `table4` | Table 4 — effectiveness of each DEW property |
//! | `ablation` | extra: full on/off grid of the three properties |
//! | `lru_compare` | extra: DEW-LRU vs the LRU-tree comparator |
//! | `multi_assoc` | extra: one all-associativity pass vs per-assoc passes |
//! | `hot_loop` | extra: kernel-variant steps/sec, writes `BENCH_hot_loop.json` |
//!
//! Run them with `cargo run --release -p dew-bench --bin <name>`. Scale is
//! controlled by `DEW_BENCH_QUICK=1` and `DEW_BENCH_MAX_REQUESTS=n`
//! (see [`suite::SuiteScale::from_env`]). `table3` writes
//! `results/table3.csv`, which the figure binaries reuse when present.
//!
//! Criterion micro-benchmarks (`cargo bench -p dew-bench`) measure
//! per-request throughput of the DEW step and the reference step, and a
//! small end-to-end sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod per_assoc;
pub mod report;
pub mod suite;
pub mod table3;
