//! Bench regression guard: compares a freshly measured `BENCH_hot_loop.json`
//! against the committed one and **warns** (never fails) when any variant's
//! `steps_per_sec` dropped by more than the threshold (default 30%, override
//! with `DEW_BENCH_GUARD_THRESHOLD=0.2`-style fractions).
//!
//! Usage: `bench_guard [--strict] <committed.json> <fresh.json>`
//!
//! CI runs it after the hot-loop smoke so a kernel regression shows up in
//! the job log (as a GitHub `::warning::` annotation) without blocking
//! unrelated work; absolute throughput on shared runners is too noisy for a
//! hard gate. `--strict` escalates: regressions print as `::error::`
//! annotations and the process exits nonzero (the chaos CI step uses this
//! to make a resilience-layer slowdown a hard failure). A missing or
//! unparsable baseline stays tolerated even under `--strict` — only a
//! measured regression fails the run. When `GITHUB_STEP_SUMMARY` is set (it always is on GitHub
//! runners), the guard additionally appends a markdown comparison table —
//! variant, baseline steps/sec, fresh steps/sec, delta — to the job
//! summary, so the trajectory is readable without opening the log, and the
//! artifact upload of both JSON files makes it diffable per run.
//!
//! **Ratio gates** are always hard, `--strict` or not: speedup ratios in
//! the fresh JSON compare two variants measured in the *same* run on the
//! *same* machine, so runner-class noise cancels and a violation is a real
//! kernel property, not a slow runner. Gated (when the fields are present;
//! older baselines without them are skipped):
//!
//! * `speedup_fused_vs_per_assoc >= 2.0` when the fresh run's
//!   `kernel_backend` is `avx2` — the wide-scan fused FIFO walk must beat
//!   the pre-fusion schedule at least twofold on full hardware;
//! * `instrumented_over_fast_fused_fifo <= 8.0` — the full counter ladder
//!   costs about 5–6× the fast fused walk on the tracked machine (the
//!   counters serialize the ladder's loads; see `EXPERIMENTS.md`), and this
//!   ceiling keeps that honest overhead from silently growing;
//! * `plru_over_fused_fifo <= 4.3` when the fresh run's `kernel_backend` is
//!   `avx2` — the fused tree-PLRU walk scans each node's whole region once,
//!   as FIFO's does. Twenty runs on the tracked 2-core host read 1.28–3.25
//!   (median about 1.9); the ceiling sits 30% above the highest. The walk
//!   with two scans per lane read 2.6–6.0 (see `EXPERIMENTS.md`).
//!
//! **Work-count gates** are hard too, and exact: instrumented node
//! evaluations per request depend on the kernels and the trace only, so no
//! noise can trip or hide them.
//!
//! * `node_evals_per_req_plru == node_evals_per_req_lru` — tree-PLRU stops
//!   its walk at the first MRA hit, exactly as LRU does;
//! * `node_evals_per_req_slru < node_evals_full_walk` — SLRU's settled-node
//!   stop fires (a first MRA re-hit still walks on, so it may exceed LRU).

use std::process::ExitCode;

/// Minimum fused-vs-per-assoc FIFO speedup on an `avx2` run (same-machine
/// ratio, so gated hard).
const FUSED_SPEEDUP_FLOOR: f64 = 2.0;
/// Maximum instrumented-over-fast ratio on the fused FIFO walk (same-machine
/// ratio; the measured honest cost is ~5–6×).
const INSTR_OVERHEAD_CEILING: f64 = 8.0;
/// Maximum fused tree-PLRU over fused FIFO time per request on an `avx2`
/// run (same-machine ratio, so gated hard; 30% above the highest of the
/// runs listed in `EXPERIMENTS.md`).
const PLRU_OVER_FIFO_CEILING: f64 = 4.3;

/// Extracts `(name, steps_per_sec)` pairs from a `BENCH_hot_loop.json`
/// document. The format is the one `hot_loop.rs` writes: each variant
/// object carries a `"name"` and a `"steps_per_sec"` field, in that order;
/// anything else is ignored.
fn parse_variants(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find("\"name\": \"") {
        rest = &rest[i + "\"name\": \"".len()..];
        let Some(end) = rest.find('"') else { break };
        let name = rest[..end].to_owned();
        rest = &rest[end..];
        // The rate must belong to this object: stop at the object's end.
        let object_end = rest.find('}').unwrap_or(rest.len());
        if let Some(j) = rest[..object_end].find("\"steps_per_sec\": ") {
            let num = rest[j + "\"steps_per_sec\": ".len()..object_end]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                .collect::<String>();
            if let Ok(rate) = num.parse::<f64>() {
                out.push((name, rate));
            }
        }
    }
    out
}

/// Extracts a top-level numeric field (`"key": 1.234`) from the JSON text.
fn parse_scalar(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let i = text.find(&pat)?;
    text[i + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect::<String>()
        .parse()
        .ok()
}

/// Extracts a top-level string field (`"key": "value"`) from the JSON text.
fn parse_string(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let i = text.find(&pat)?;
    let rest = &text[i + pat.len()..];
    Some(rest[..rest.find('"')?].to_owned())
}

/// The hard same-run ratio and work-count gates (see the module docs): one
/// error line per violated gate in the fresh JSON. Fields absent from older
/// formats are skipped, never failed.
fn ratio_gates(fresh: &str) -> Vec<String> {
    let mut out = Vec::new();
    let backend = parse_string(fresh, "kernel_backend");
    if let Some(speedup) = parse_scalar(fresh, "speedup_fused_vs_per_assoc") {
        if backend.as_deref() == Some("avx2") && speedup < FUSED_SPEEDUP_FLOOR {
            out.push(format!(
                "speedup_fused_vs_per_assoc {speedup:.3} is below the \
                 {FUSED_SPEEDUP_FLOOR:.1} floor on an avx2 run"
            ));
        }
    }
    if let Some(ratio) = parse_scalar(fresh, "instrumented_over_fast_fused_fifo") {
        if ratio > INSTR_OVERHEAD_CEILING {
            out.push(format!(
                "instrumented_over_fast_fused_fifo {ratio:.3} exceeds the \
                 {INSTR_OVERHEAD_CEILING:.1} ceiling"
            ));
        }
    }
    if let Some(ratio) = parse_scalar(fresh, "plru_over_fused_fifo") {
        if backend.as_deref() == Some("avx2") && ratio > PLRU_OVER_FIFO_CEILING {
            out.push(format!(
                "plru_over_fused_fifo {ratio:.3} exceeds the \
                 {PLRU_OVER_FIFO_CEILING:.1} ceiling on an avx2 run"
            ));
        }
    }
    let evals = |p: &str| parse_scalar(fresh, &format!("node_evals_per_req_{p}"));
    if let (Some(plru), Some(lru)) = (evals("plru"), evals("lru")) {
        if plru != lru {
            out.push(format!(
                "node_evals_per_req_plru {plru} differs from node_evals_per_req_lru {lru}: \
                 the tree-PLRU walk no longer stops at the first MRA hit"
            ));
        }
    }
    if let (Some(slru), Some(full)) = (evals("slru"), parse_scalar(fresh, "node_evals_full_walk")) {
        if slru >= full {
            out.push(format!(
                "node_evals_per_req_slru {slru} is not below the full walk of {full} levels: \
                 the SLRU settled-node stop never fires"
            ));
        }
    }
    out
}

/// Compares the two variant sets and returns one warning line per variant
/// whose fresh rate dropped below `(1 - threshold) ×` the committed rate.
/// Variants present on only one side are skipped (new or retired variants
/// are not regressions).
fn regressions(
    committed: &[(String, f64)],
    fresh: &[(String, f64)],
    threshold: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    for (name, base) in committed {
        let Some((_, now)) = fresh.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if *base > 0.0 && *now < *base * (1.0 - threshold) {
            out.push(format!(
                "{name}: {now:.0} steps/s is {:.0}% below the committed {base:.0}",
                (1.0 - now / base) * 100.0
            ));
        }
    }
    out
}

/// Renders the markdown comparison table for the step summary: one row per
/// fresh variant (baseline-only variants are retired and omitted), with the
/// committed rate, the fresh rate and the signed delta. New variants show a
/// dash for the baseline columns.
fn summary_table(committed: &[(String, f64)], fresh: &[(String, f64)], threshold: f64) -> String {
    let mut out = String::from(
        "## hot_loop bench guard\n\n\
         | variant | baseline steps/sec | fresh steps/sec | delta |\n\
         |---|---:|---:|---:|\n",
    );
    for (name, now) in fresh {
        match committed.iter().find(|(n, _)| n == name) {
            Some((_, base)) if *base > 0.0 => {
                let delta = (now / base - 1.0) * 100.0;
                let marker = if *now < *base * (1.0 - threshold) {
                    " ⚠️"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "| `{name}` | {base:.0} | {now:.0} | {delta:+.1}%{marker} |\n"
                ));
            }
            _ => {
                out.push_str(&format!("| `{name}` | — | {now:.0} | new |\n"));
            }
        }
    }
    out.push_str(&format!(
        "\nAdvisory threshold: warn below −{:.0}% of the committed baseline. \
         Both `BENCH_hot_loop.json` (committed) and `BENCH_hot_loop.fresh.json` \
         (this run) are in the job artifact.\n",
        threshold * 100.0
    ));
    out
}

/// Appends the table to `$GITHUB_STEP_SUMMARY` when the variable is set
/// (appending is the documented contract for step summaries: every step
/// shares the file).
fn write_step_summary(table: &str) {
    let Some(path) = std::env::var_os("GITHUB_STEP_SUMMARY") else {
        return;
    };
    use std::io::Write as _;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(table.as_bytes()));
    if let Err(e) = appended {
        println!("::warning::bench_guard: cannot write step summary: {e}");
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let strict = args.first().is_some_and(|a| a == "--strict");
    if strict {
        args.remove(0);
    }
    let [committed_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: bench_guard [--strict] <committed.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    let threshold = std::env::var("DEW_BENCH_GUARD_THRESHOLD")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.30);
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) => {
            // Missing baselines must not fail CI either (first run on a
            // fresh branch): warn and carry on.
            println!("::warning::bench_guard: cannot read {path}: {e}");
            None
        }
    };
    let (Some(committed), Some(fresh)) = (read(committed_path), read(fresh_path)) else {
        return ExitCode::SUCCESS;
    };
    let base = parse_variants(&committed);
    let now = parse_variants(&fresh);
    if base.is_empty() || now.is_empty() {
        println!(
            "::warning::bench_guard: no variants parsed (committed: {}, fresh: {})",
            base.len(),
            now.len()
        );
        return ExitCode::SUCCESS;
    }
    write_step_summary(&summary_table(&base, &now, threshold));
    let warnings = regressions(&base, &now, threshold);
    for w in &warnings {
        // Advisory by default: the committed baseline may come from a
        // different machine class than this runner, so a drop is a prompt
        // to compare trajectories, not a verdict. --strict makes it one.
        if strict {
            println!("::error::throughput regression — {w}");
        } else {
            println!("::warning::hot_loop throughput regression — {w}");
        }
    }
    if warnings.is_empty() {
        println!(
            "bench_guard: {} variants within {:.0}% of the committed baseline",
            now.len(),
            threshold * 100.0
        );
    }
    let gate_errors = ratio_gates(&fresh);
    for g in &gate_errors {
        // Same-run ratios are machine-relative: a violation is a kernel
        // property, not runner noise, so these fail hard either way.
        println!("::error::ratio gate violated — {g}");
    }
    if gate_errors.is_empty() {
        println!("bench_guard: same-run ratio gates hold");
    }
    if !gate_errors.is_empty() || (strict && !warnings.is_empty()) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "hot_loop",
  "variants": [
    {"name": "step", "ns_per_step": 50.460, "steps_per_sec": 19817516},
    {"name": "run_blocks", "ns_per_step": 51.129, "steps_per_sec": 19558401}
  ],
  "sweep_shapes": [
    {"name": "fused_a1_8", "trace_traversals": 1}
  ]
}"#;

    #[test]
    fn parses_variant_rates_and_skips_shapes_without_rates() {
        let v = parse_variants(SAMPLE);
        assert_eq!(
            v,
            vec![
                ("step".to_owned(), 19817516.0),
                ("run_blocks".to_owned(), 19558401.0)
            ]
        );
    }

    #[test]
    fn flags_only_drops_beyond_threshold() {
        let base = vec![("a".to_owned(), 1000.0), ("b".to_owned(), 1000.0)];
        let fresh = vec![
            ("a".to_owned(), 650.0), // 35% drop: flagged
            ("b".to_owned(), 750.0), // 25% drop: within threshold
            ("c".to_owned(), 1.0),   // new variant: ignored
        ];
        let w = regressions(&base, &fresh, 0.30);
        assert_eq!(w.len(), 1);
        assert!(w[0].starts_with("a:"), "{w:?}");
    }

    #[test]
    fn missing_and_faster_variants_do_not_warn() {
        let base = vec![("gone".to_owned(), 500.0), ("fast".to_owned(), 100.0)];
        let fresh = vec![("fast".to_owned(), 400.0)];
        assert!(regressions(&base, &fresh, 0.30).is_empty());
    }

    const RATIOS: &str = r#"{
  "kernel_backend": "avx2",
  "speedup_fused_vs_per_assoc": 2.39,
  "speedup_fused_plru_vs_per_assoc": 1.22,
  "instrumented_over_fast_fused_fifo": 5.95,
  "plru_over_fused_fifo": 1.93,
  "node_evals_per_req_lru": 5.8125,
  "node_evals_per_req_plru": 5.8125,
  "node_evals_per_req_slru": 6.9375,
  "node_evals_full_walk": 15
}"#;

    #[test]
    fn parses_top_level_scalar_and_string_fields() {
        assert_eq!(
            parse_scalar(RATIOS, "speedup_fused_vs_per_assoc"),
            Some(2.39)
        );
        assert_eq!(
            parse_scalar(RATIOS, "instrumented_over_fast_fused_fifo"),
            Some(5.95)
        );
        assert_eq!(parse_scalar(RATIOS, "absent_field"), None);
        assert_eq!(
            parse_string(RATIOS, "kernel_backend").as_deref(),
            Some("avx2")
        );
        assert_eq!(parse_string(RATIOS, "absent_field"), None);
    }

    #[test]
    fn ratio_gates_hold_on_the_tracked_numbers() {
        assert!(ratio_gates(RATIOS).is_empty(), "{:?}", ratio_gates(RATIOS));
    }

    #[test]
    fn low_fused_speedup_fails_only_on_avx2_runs() {
        let slow_avx2 = RATIOS.replace("2.39", "1.40");
        let e = ratio_gates(&slow_avx2);
        assert_eq!(e.len(), 1, "{e:?}");
        assert!(e[0].contains("speedup_fused_vs_per_assoc 1.400"), "{e:?}");
        // The same ratio on a scalar run is expected (no wide scans): no gate.
        let slow_scalar = slow_avx2.replace("avx2", "scalar");
        assert!(ratio_gates(&slow_scalar).is_empty());
    }

    #[test]
    fn slow_plru_fails_only_on_avx2_runs() {
        let slow_avx2 = RATIOS.replace("1.93", "4.51");
        let e = ratio_gates(&slow_avx2);
        assert_eq!(e.len(), 1, "{e:?}");
        assert!(e[0].contains("plru_over_fused_fifo 4.510"), "{e:?}");
        let slow_scalar = slow_avx2.replace("avx2", "scalar");
        assert!(ratio_gates(&slow_scalar).is_empty());
    }

    #[test]
    fn runaway_instrumentation_overhead_fails_on_any_backend() {
        let heavy = RATIOS.replace("5.95", "9.10").replace("avx2", "scalar");
        let e = ratio_gates(&heavy);
        assert_eq!(e.len(), 1, "{e:?}");
        assert!(
            e[0].contains("instrumented_over_fast_fused_fifo 9.100"),
            "{e:?}"
        );
    }

    #[test]
    fn plru_walking_past_the_mra_hit_fails_the_work_gate() {
        let e = ratio_gates(&RATIOS.replace(
            "\"node_evals_per_req_plru\": 5.8125",
            "\"node_evals_per_req_plru\": 15.0000",
        ));
        assert_eq!(e.len(), 1, "{e:?}");
        assert!(e[0].contains("node_evals_per_req_plru 15"), "{e:?}");
    }

    #[test]
    fn slru_full_walk_fails_the_work_gate() {
        let e = ratio_gates(&RATIOS.replace("6.9375", "15.0000"));
        assert_eq!(e.len(), 1, "{e:?}");
        assert!(e[0].contains("node_evals_per_req_slru 15"), "{e:?}");
    }

    #[test]
    fn json_without_ratio_fields_is_not_gated() {
        assert!(ratio_gates(SAMPLE).is_empty());
    }

    #[test]
    fn summary_table_reports_deltas_new_and_regressed_variants() {
        let base = vec![
            ("steady".to_owned(), 1000.0),
            ("regressed".to_owned(), 1000.0),
            ("retired".to_owned(), 42.0),
        ];
        let fresh = vec![
            ("steady".to_owned(), 1100.0),
            ("regressed".to_owned(), 500.0),
            ("fused_lru".to_owned(), 2000.0),
        ];
        let t = summary_table(&base, &fresh, 0.30);
        assert!(t.starts_with("## hot_loop bench guard"), "{t}");
        assert!(t.contains("| variant | baseline steps/sec | fresh steps/sec | delta |"));
        assert!(t.contains("| `steady` | 1000 | 1100 | +10.0% |"), "{t}");
        assert!(
            t.contains("| `regressed` | 1000 | 500 | -50.0% ⚠️ |"),
            "{t}"
        );
        assert!(t.contains("| `fused_lru` | — | 2000 | new |"), "{t}");
        assert!(
            !t.contains("retired"),
            "baseline-only variants omitted: {t}"
        );
        assert!(t.contains("−30%"), "threshold documented: {t}");
    }
}
