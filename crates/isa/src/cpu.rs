//! The trace-emitting interpreter: the workspace's SimpleScalar stand-in.
//!
//! Executes an assembled program, emitting one instruction-fetch record per
//! executed instruction plus a data record per load/store — the same record
//! stream SimpleScalar produced for the paper's Mediabench runs. Memory is a
//! sparse byte store, so programs can use realistic embedded address maps.

use std::collections::HashMap;

use dew_trace::{Record, Trace};

use crate::isa::{Instr, Reg};

/// Base byte address of the text segment (each instruction occupies 4
/// bytes, as in the PISA traces).
const TEXT_BASE: u64 = 0x0040_0000;
/// Conventional initial stack pointer (the stack grows down).
const STACK_TOP: u64 = 0x7fff_f000;

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// A `halt` instruction was executed.
    Halted,
    /// The step budget ran out first.
    FuelExhausted,
    /// The program counter left the program.
    PcOutOfRange(usize),
    /// `ret` with an empty call stack.
    ReturnUnderflow,
}

/// The result of a run: the emitted trace plus machine state for assertions.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The emitted memory-access trace (ifetches + data records).
    pub trace: Trace,
    /// Why execution ended.
    pub stop: Stop,
    /// Instructions executed.
    pub instructions: u64,
    /// Final register file.
    pub regs: [i64; 16],
}

/// The interpreter.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [i64; 16],
    mem: HashMap<u64, u8>,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// A fresh machine: zero registers (SP at `0x7fff_f000`, the stack
    /// growing down), empty memory.
    #[must_use]
    pub fn new() -> Self {
        let mut regs = [0i64; 16];
        regs[Reg::SP.0 as usize] = STACK_TOP as i64;
        Cpu {
            regs,
            mem: HashMap::new(),
        }
    }

    /// Reads a register (`r0` is always zero).
    #[must_use]
    pub fn reg(&self, r: Reg) -> i64 {
        if r.0 == 0 {
            0
        } else {
            self.regs[r.0 as usize]
        }
    }

    /// Writes a register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, v: i64) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = v;
        }
    }

    /// Pre-loads a 32-bit word (for program inputs), without emitting trace
    /// records.
    pub fn poke_word(&mut self, addr: u64, value: u32) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.mem.insert(addr + i as u64, *b);
        }
    }

    /// Reads a 32-bit word back (for result assertions), without emitting
    /// trace records.
    #[must_use]
    pub fn peek_word(&self, addr: u64) -> u32 {
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.mem.get(&(addr + i as u64)).copied().unwrap_or(0);
        }
        u32::from_le_bytes(bytes)
    }

    fn load(&mut self, addr: u64, bytes: u64, out: &mut Vec<Record>) -> i64 {
        out.push(Record::read(addr));
        let mut v = 0u64;
        for i in 0..bytes {
            let byte = self.mem.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            v |= u64::from(byte) << (8 * i);
        }
        v as i64
    }

    fn store(&mut self, addr: u64, bytes: u64, value: i64, out: &mut Vec<Record>) {
        out.push(Record::write(addr));
        for i in 0..bytes {
            self.mem
                .insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Runs `program` for at most `fuel` instructions, emitting the trace.
    pub fn run(&mut self, program: &[Instr], fuel: u64) -> RunOutcome {
        let mut out: Vec<Record> = Vec::new();
        let mut call_stack: Vec<usize> = Vec::new();
        let mut pc = 0usize;
        let mut executed = 0u64;
        let stop = loop {
            if executed >= fuel {
                break Stop::FuelExhausted;
            }
            let Some(&instr) = program.get(pc) else {
                break Stop::PcOutOfRange(pc);
            };
            out.push(Record::ifetch(TEXT_BASE + pc as u64 * 4));
            executed += 1;
            pc += 1;
            match instr {
                Instr::Li(d, i) => self.set_reg(d, i),
                Instr::Add(d, a, b) => self.set_reg(d, self.reg(a).wrapping_add(self.reg(b))),
                Instr::Sub(d, a, b) => self.set_reg(d, self.reg(a).wrapping_sub(self.reg(b))),
                Instr::Mul(d, a, b) => self.set_reg(d, self.reg(a).wrapping_mul(self.reg(b))),
                Instr::Addi(d, a, i) => self.set_reg(d, self.reg(a).wrapping_add(i)),
                Instr::Sari(d, a, i) => self.set_reg(d, self.reg(a) >> i),
                Instr::Andi(d, a, i) => self.set_reg(d, self.reg(a) & i),
                Instr::Lw(d, a, off) => {
                    let addr = (self.reg(a).wrapping_add(off)) as u64;
                    let v = self.load(addr, 4, &mut out);
                    self.set_reg(d, v as u32 as i64);
                }
                Instr::Sw(s, a, off) => {
                    let addr = (self.reg(a).wrapping_add(off)) as u64;
                    self.store(addr, 4, self.reg(s), &mut out);
                }
                Instr::Lb(d, a, off) => {
                    let addr = (self.reg(a).wrapping_add(off)) as u64;
                    let v = self.load(addr, 1, &mut out);
                    self.set_reg(d, v as u8 as i64);
                }
                Instr::Sb(s, a, off) => {
                    let addr = (self.reg(a).wrapping_add(off)) as u64;
                    self.store(addr, 1, self.reg(s), &mut out);
                }
                Instr::Beq(a, b, t) => {
                    if self.reg(a) == self.reg(b) {
                        pc = t;
                    }
                }
                Instr::Bne(a, b, t) => {
                    if self.reg(a) != self.reg(b) {
                        pc = t;
                    }
                }
                Instr::Blt(a, b, t) => {
                    if self.reg(a) < self.reg(b) {
                        pc = t;
                    }
                }
                Instr::Jmp(t) => pc = t,
                Instr::Call(t) => {
                    // Push the return index on the memory stack, like a real
                    // ABI would — call-heavy code produces stack traffic.
                    let sp = (self.reg(Reg::SP).wrapping_sub(4)) as u64;
                    self.set_reg(Reg::SP, sp as i64);
                    self.store(sp, 4, pc as i64, &mut out);
                    call_stack.push(pc);
                    pc = t;
                }
                Instr::Ret => {
                    if call_stack.pop().is_none() {
                        break Stop::ReturnUnderflow;
                    }
                    let sp = self.reg(Reg::SP) as u64;
                    let ret = self.load(sp, 4, &mut out);
                    self.set_reg(Reg::SP, sp.wrapping_add(4) as i64);
                    pc = ret as usize;
                }
                Instr::Halt => break Stop::Halted,
                Instr::Nop => {}
            }
        };
        RunOutcome {
            trace: Trace::from_records(out),
            stop,
            instructions: executed,
            regs: self.regs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use dew_trace::AccessKind;

    fn run(src: &str, fuel: u64) -> (Cpu, RunOutcome) {
        let program = assemble(src).expect("assembles");
        let mut cpu = Cpu::new();
        let out = cpu.run(&program, fuel);
        (cpu, out)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (cpu, out) = run("li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n", 100);
        assert_eq!(out.stop, Stop::Halted);
        assert_eq!(cpu.reg(Reg(3)), 42);
        assert_eq!(out.instructions, 4);
        // 4 ifetches, no data traffic.
        assert_eq!(out.trace.len(), 4);
        assert!(out.trace.iter().all(|r| r.kind == AccessKind::InstrFetch));
    }

    #[test]
    fn loops_execute_and_fetch_sequentially() {
        let (cpu, out) = run(
            "li r1, 10\nli r2, 0\nloop: add r2, r2, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
            1000,
        );
        assert_eq!(out.stop, Stop::Halted);
        assert_eq!(cpu.reg(Reg(2)), (1..=10).sum::<i64>());
        // The loop body refetches the same three instruction addresses.
        let fetches: Vec<u64> = out
            .trace
            .iter()
            .filter(|r| r.kind == AccessKind::InstrFetch)
            .map(|r| r.addr)
            .collect();
        assert!(fetches.iter().filter(|&&a| a == TEXT_BASE + 2 * 4).count() == 10);
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let (cpu, out) = run(
            "li r1, 0x1000\nli r2, 123456\nsw r2, 8(r1)\nlw r3, 8(r1)\nhalt\n",
            100,
        );
        assert_eq!(cpu.reg(Reg(3)), 123456);
        let reads = out
            .trace
            .iter()
            .filter(|r| r.kind == AccessKind::Read)
            .count();
        let writes = out
            .trace
            .iter()
            .filter(|r| r.kind == AccessKind::Write)
            .count();
        assert_eq!((reads, writes), (1, 1));
        assert_eq!(cpu.peek_word(0x1008), 123456);
    }

    #[test]
    fn byte_accesses_are_byte_sized() {
        let (cpu, _) = run(
            "li r1, 0x2000\nli r2, 0x1ff\nsb r2, (r1)\nlb r3, (r1)\nhalt\n",
            100,
        );
        assert_eq!(cpu.reg(Reg(3)), 0xff, "byte store truncates");
    }

    #[test]
    fn calls_produce_stack_traffic_and_return() {
        let (cpu, out) = run(
            "li r1, 5\ncall double\nhalt\ndouble: add r1, r1, r1\nret\n",
            100,
        );
        assert_eq!(out.stop, Stop::Halted);
        assert_eq!(cpu.reg(Reg(1)), 10);
        // call pushes, ret pops: one write + one read near STACK_TOP.
        let stack_traffic: Vec<&Record> = out
            .trace
            .iter()
            .filter(|r| r.kind != AccessKind::InstrFetch)
            .collect();
        assert_eq!(stack_traffic.len(), 2);
        assert!(stack_traffic.iter().all(|r| r.addr >= STACK_TOP - 64));
    }

    #[test]
    fn fuel_bounds_runaway_programs() {
        let (_, out) = run("spin: jmp spin\n", 5_000);
        assert_eq!(out.stop, Stop::FuelExhausted);
        assert_eq!(out.instructions, 5_000);
    }

    #[test]
    fn falling_off_the_end_and_ret_underflow_are_reported() {
        let (_, out) = run("nop\n", 10);
        assert_eq!(out.stop, Stop::PcOutOfRange(1));
        let (_, out) = run("ret\n", 10);
        assert_eq!(out.stop, Stop::ReturnUnderflow);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (cpu, _) = run("li r0, 99\nadd r1, r0, r0\nhalt\n", 10);
        assert_eq!(cpu.reg(Reg(0)), 0);
        assert_eq!(cpu.reg(Reg(1)), 0);
    }

    #[test]
    fn poke_and_peek_do_not_emit_records() {
        let mut cpu = Cpu::new();
        cpu.poke_word(0x3000, 77);
        let program = assemble("li r1, 0x3000\nlw r2, (r1)\nhalt\n").expect("assembles");
        let out = cpu.run(&program, 10);
        assert_eq!(cpu.reg(Reg(2)), 77);
        assert_eq!(
            out.trace
                .iter()
                .filter(|r| r.kind == AccessKind::Read)
                .count(),
            1
        );
    }
}
