//! Property tests for the ISA crate: display/assemble round trips and
//! interpreter safety under arbitrary programs.

use proptest::prelude::*;

use dew_isa::isa::{Instr, Reg};
use dew_isa::{assemble, Cpu};

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg)
}

/// Arbitrary instructions with branch targets inside `0..len` and memory
/// addressing kept in a safe data window.
fn instr_strategy(len: usize) -> impl Strategy<Value = Instr> {
    let r = reg_strategy;
    prop_oneof![
        (r(), -1_000_000i64..1_000_000).prop_map(|(d, i)| Instr::Li(d, i)),
        (r(), r(), r()).prop_map(|(d, a, b)| Instr::Add(d, a, b)),
        (r(), r(), r()).prop_map(|(d, a, b)| Instr::Sub(d, a, b)),
        (r(), r(), r()).prop_map(|(d, a, b)| Instr::Mul(d, a, b)),
        (r(), r(), -4096i64..4096).prop_map(|(d, a, i)| Instr::Addi(d, a, i)),
        (r(), r(), 0u32..64).prop_map(|(d, a, i)| Instr::Sari(d, a, i)),
        (r(), r(), 0i64..0xffff).prop_map(|(d, a, i)| Instr::Andi(d, a, i)),
        (r(), r(), 0i64..4096).prop_map(|(d, a, i)| Instr::Lw(d, a, i)),
        (r(), r(), 0i64..4096).prop_map(|(s, a, i)| Instr::Sw(s, a, i)),
        (r(), r(), 0i64..4096).prop_map(|(d, a, i)| Instr::Lb(d, a, i)),
        (r(), r(), 0i64..4096).prop_map(|(s, a, i)| Instr::Sb(s, a, i)),
        (r(), r(), 0..len).prop_map(|(a, b, t)| Instr::Beq(a, b, t)),
        (r(), r(), 0..len).prop_map(|(a, b, t)| Instr::Bne(a, b, t)),
        (r(), r(), 0..len).prop_map(|(a, b, t)| Instr::Blt(a, b, t)),
        (0..len).prop_map(Instr::Jmp),
        Just(Instr::Nop),
        Just(Instr::Halt),
    ]
}

fn program_strategy() -> impl Strategy<Value = Vec<Instr>> {
    (1usize..40).prop_flat_map(|len| prop::collection::vec(instr_strategy(len), len))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn display_then_assemble_round_trips(program in program_strategy()) {
        let source: String =
            program.iter().map(|i| format!("{i}\n")).collect();
        let back = assemble(&source).expect("display output assembles");
        prop_assert_eq!(back, program);
    }

    #[test]
    fn interpreter_is_fuel_safe_on_arbitrary_programs(
        program in program_strategy(),
        fuel in 1u64..20_000,
    ) {
        // No panic, bounded work, bounded trace, regardless of the program.
        let mut cpu = Cpu::new();
        let out = cpu.run(&program, fuel);
        prop_assert!(out.instructions <= fuel);
        // Each instruction emits at most 2 records (ifetch + 1 data access).
        prop_assert!(out.trace.len() as u64 <= 2 * out.instructions);
        prop_assert!(cpu.reg(Reg::ZERO) == 0, "r0 stays zero");
    }

    #[test]
    fn executed_traces_feed_dew_exactly(program in program_strategy()) {
        use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
        use dew_core::{DewOptions, MultiAssocTree, PassConfig};

        let mut cpu = Cpu::new();
        let out = cpu.run(&program, 3_000);
        if out.trace.is_empty() {
            return Ok(());
        }
        let pass = PassConfig::new(2, 0, 4, 2).expect("valid");
        let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), false).expect("sound");
        tree.run(out.trace.iter().copied());
        let results = tree.pass_results(2).expect("the pass associativity");
        for set_bits in 0..=4u32 {
            let sets = 1u32 << set_bits;
            for assoc in [1u32, 2] {
                let config =
                    CacheConfig::new(sets, assoc, 4, Replacement::Fifo).expect("valid");
                let expected = simulate_trace(config, out.trace.records()).misses();
                prop_assert_eq!(results.misses(sets, assoc), Some(expected));
            }
        }
    }
}
