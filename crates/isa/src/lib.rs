//! A little RISC ISA, assembler and trace-emitting interpreter.
//!
//! The DEW paper's traces come from **executing programs** (Mediabench
//! binaries under SimpleScalar/PISA); this crate is the workspace's
//! SimpleScalar stand-in. Programs written in a small assembly language are
//! executed by [`Cpu`], which emits one instruction fetch per executed
//! instruction plus a data record per load/store — a trace stream with the
//! structure of the paper's inputs, backed by a computation whose *results*
//! can be asserted (so the traces are known to come from real executions,
//! not just plausible-looking generators).
//!
//! * [`mod@isa`] — the instruction set (16 registers, 4-byte
//!   instructions, word/byte memory ops, calls through a memory stack);
//! * [`assemble`] — a two-pass assembler with labels and line-precise
//!   errors;
//! * [`Cpu`] — the interpreter (fuel-bounded, sparse byte memory);
//! * [`programs`] — verifiable kernels: vector sum, memcpy, naive matmul,
//!   histogram, recursive Fibonacci.
//!
//! # Examples
//!
//! ```
//! use dew_isa::{assemble, Cpu};
//!
//! let program = assemble(
//!     "li r1, 0x1000\n\
//!      li r2, 41\n\
//!      addi r2, r2, 1\n\
//!      sw r2, (r1)\n\
//!      halt\n",
//! )?;
//! let mut cpu = Cpu::new();
//! let run = cpu.run(&program, 1_000);
//! assert_eq!(cpu.peek_word(0x1000), 42);
//! assert_eq!(run.trace.len(), 6); // 5 ifetches + 1 store
//! # Ok::<(), dew_isa::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod cpu;
pub mod isa;
pub mod programs;

pub use asm::{assemble, AsmError, AsmErrorKind};
pub use cpu::{Cpu, RunOutcome, Stop};
