//! Verification run: DEW versus the per-configuration reference simulator.
//!
//! Mirrors the paper's methodology ("We have verified hit and miss rates of
//! DEW by comparing with Dinero IV and found that they are exactly the
//! same"): both simulators process the same trace; every configuration's
//! miss count must match exactly. Also reports the wall-clock advantage of
//! the single pass.
//!
//! Run with: `cargo run --release --example verify_against_reference`

use std::time::Instant;

use dew_cachesim::{Cache, CacheConfig, Replacement};
use dew_core::{DewOptions, MultiAssocTree, PassConfig};
use dew_workloads::mediabench::App;

const BLOCK_BYTES: u32 = 4;
const ASSOC: u32 = 4;
const SET_BITS: (u32, u32) = (0, 12);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = App::G721Decode.generate(500_000, 7);
    println!(
        "verifying DEW against the reference on {} ({} requests, sets 2^{}..2^{}, assoc 1 & {}, block {} B)",
        App::G721Decode,
        trace.len(),
        SET_BITS.0,
        SET_BITS.1,
        ASSOC,
        BLOCK_BYTES
    );

    // DEW: one pass.
    let start = Instant::now();
    let pass = PassConfig::new(BLOCK_BYTES.trailing_zeros(), SET_BITS.0, SET_BITS.1, ASSOC)?;
    let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), false)?;
    tree.run(trace.iter().copied());
    let dew_time = start.elapsed();
    let dew = tree.pass_results(ASSOC).expect("the pass associativity");

    // Reference: one pass per configuration.
    let start = Instant::now();
    let mut mismatches = 0u32;
    let mut configs = 0u32;
    for assoc in [1, ASSOC] {
        for set_bits in SET_BITS.0..=SET_BITS.1 {
            let sets = 1u32 << set_bits;
            let config = CacheConfig::new(sets, assoc, BLOCK_BYTES, Replacement::Fifo)?;
            let mut cache = Cache::new(config);
            for r in &trace {
                cache.access(*r);
            }
            configs += 1;
            let expected = cache.stats().misses();
            let got = dew.misses(sets, assoc).expect("simulated by the pass");
            if got == expected {
                println!("  sets {sets:>5} assoc {assoc:>2}: {got:>8} misses  ok");
            } else {
                println!("  sets {sets:>5} assoc {assoc:>2}: DEW {got} != reference {expected}  MISMATCH");
                mismatches += 1;
            }
        }
    }
    let ref_time = start.elapsed();

    println!("\nconfigurations checked: {configs}, mismatches: {mismatches}");
    println!(
        "DEW single pass: {:.3}s; reference ({} passes): {:.3}s; speedup {:.1}x",
        dew_time.as_secs_f64(),
        configs,
        ref_time.as_secs_f64(),
        ref_time.as_secs_f64() / dew_time.as_secs_f64()
    );
    assert_eq!(mismatches, 0, "DEW must match the reference exactly");
    println!("exactness verified.");
    Ok(())
}
