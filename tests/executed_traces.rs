//! End-to-end: traces from *executed programs* (the dew-isa interpreter, our
//! SimpleScalar stand-in) flow through DEW and the reference simulator with
//! exact agreement — the full shape of the paper's pipeline:
//! program → trace → single-pass multi-config simulation → verification.

use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
use dew_core::{ConfigSpace, DewOptions, MultiAssocTree, PassConfig, SweepRequest};
use dew_isa::programs::{
    fib_recursive, histogram, matmul, memcpy_words, run_program, vector_sum, A_BASE,
};
use dew_isa::Stop;
use dew_trace::Trace;

fn executed_trace(source: &str, inputs: &[(u64, u32)], fuel: u64) -> Trace {
    let (_, out) = run_program(source, inputs, fuel).expect("program assembles");
    assert_eq!(out.stop, Stop::Halted, "program must run to completion");
    out.trace
}

fn word_inputs(n: u64) -> Vec<(u64, u32)> {
    (0..n)
        .map(|i| (A_BASE + i * 4, (i * 7 + 3) as u32))
        .collect()
}

#[test]
fn dew_is_exact_on_executed_program_traces() {
    let programs: Vec<(&str, Trace)> = vec![
        (
            "vector_sum",
            executed_trace(&vector_sum(400), &word_inputs(400), 100_000),
        ),
        (
            "memcpy",
            executed_trace(&memcpy_words(300), &word_inputs(300), 100_000),
        ),
        (
            "matmul",
            executed_trace(&matmul(8), &word_inputs(128), 500_000),
        ),
        (
            "histogram",
            executed_trace(&histogram(256), &word_inputs(64), 100_000),
        ),
        ("fib", executed_trace(&fib_recursive(14), &[], 2_000_000)),
    ];
    let space = ConfigSpace::new((0, 7), (2, 4), (0, 2)).expect("valid");
    for (name, trace) in &programs {
        let sweep = SweepRequest::new(&space)
            .options(DewOptions::default())
            .threads(0)
            .run(trace.records())
            .expect("sweep");
        for (sets, assoc, block) in space.configs() {
            let config = CacheConfig::new(sets, assoc, block, Replacement::Fifo).expect("valid");
            let expected = simulate_trace(config, trace.records()).misses();
            assert_eq!(
                sweep.misses(sets, assoc, block),
                Some(expected),
                "{name}: sets={sets} assoc={assoc} block={block}"
            );
        }
    }
}

#[test]
fn executed_loops_fire_dews_properties() {
    // A tight loop over instructions: the instruction stream alone should
    // drive heavy MRA-stop rates at block sizes holding several instructions.
    let trace = executed_trace(&vector_sum(2_000), &word_inputs(2_000), 100_000);
    let pass = PassConfig::new(4, 0, 10, 4).expect("valid");
    let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), true).expect("sound");
    tree.run(trace.iter().copied());
    let c = tree.pass_counters(4).expect("the pass associativity");
    assert!(c.is_consistent());
    assert!(
        c.mra_stops * 2 > c.accesses,
        "a loop body refetches the same blocks constantly: {c}"
    );
}

#[test]
fn recursive_and_streaming_programs_prefer_different_caches() {
    // fib's stack reuse is happy with a tiny cache; matmul's column walks
    // want capacity — the tuning premise, from actually-executed programs.
    let fib = executed_trace(&fib_recursive(15), &[], 4_000_000);
    let mm = executed_trace(&matmul(16), &word_inputs(512), 2_000_000);
    let small = CacheConfig::new(16, 2, 16, Replacement::Fifo).expect("512 B");
    let fib_small = simulate_trace(small, fib.records()).miss_rate();
    let mm_small = simulate_trace(small, mm.records()).miss_rate();
    assert!(
        fib_small < mm_small,
        "stack recursion ({fib_small:.4}) should outperform matmul ({mm_small:.4}) in 512 B"
    );
}

#[test]
fn executed_traces_survive_file_round_trips() {
    let trace = executed_trace(&histogram(128), &word_inputs(32), 100_000);
    let dir = std::env::temp_dir().join("dew_isa_roundtrip");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join(format!("h{}.dewt", std::process::id()));
    trace.write_bin_file(&path).expect("write");
    let back = Trace::read_bin_file(&path).expect("read");
    assert_eq!(back, trace);
    let _ = std::fs::remove_file(&path);
}
