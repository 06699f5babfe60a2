//! Memory-access trace model for the DEW cache-simulation workspace.
//!
//! A *trace* is an ordered sequence of [`Record`]s, each describing one memory
//! request: an address plus an [`AccessKind`] (data read, data write, or
//! instruction fetch). This mirrors the input of the DEW paper, where traces
//! produced by SimpleScalar were fed to both Dinero IV and DEW.
//!
//! The crate provides:
//!
//! * the in-memory [`Trace`] container and the [`Record`] / [`AccessKind`]
//!   value types;
//! * a reader/writer pair for the Dinero IV `din` text format
//!   ([`din::DinReader`], [`din::DinWriter`]);
//! * a compact binary codec using zigzag-delta varint encoding
//!   ([`binary::BinReader`], [`binary::BinWriter`]);
//! * streaming [`stats::TraceStats`] (request counts per kind, address range,
//!   unique-block footprints per block size);
//! * batched block-number decoding ([`decode_blocks`], [`BlockChunks`]) so
//!   multi-pass simulators decode `Record → u64` once per block size instead
//!   of once per pass;
//! * bounded-memory streaming ingestion ([`TraceSource`]) so traces longer
//!   than RAM feed the same batched kernels straight from a reader or
//!   generator;
//! * deterministic fault injection ([`FaultyTraceSource`], [`FaultPlan`])
//!   wrapping any source with a seed-controlled schedule of transient I/O
//!   errors, short reads, corrupt records and latency, for exercising
//!   retry/checkpoint/degradation paths reproducibly.
//!
//! This crate is the first stage of the pipeline documented in the
//! repository's `docs/GUIDE.md`: traces flow through the block decoder
//! into `dew-core`'s fused kernels and onward to sweeps and design-space
//! exploration.
//!
//! # Examples
//!
//! ```
//! use dew_trace::{AccessKind, Record, Trace};
//!
//! let trace = Trace::from_records(vec![
//!     Record::new(0x1000, AccessKind::Read),
//!     Record::new(0x1004, AccessKind::Write),
//!     Record::new(0x2000, AccessKind::InstrFetch),
//! ]);
//! assert_eq!(trace.len(), 3);
//! assert_eq!(trace.records()[1].kind, AccessKind::Write);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
mod blocks;
pub mod din;
mod error;
mod fault;
mod record;
pub mod sample;
pub mod stats;
mod stream;
mod trace;

pub use blocks::{decode_blocks, decode_blocks_into, BlockChunks};
pub use error::{ParseRecordError, TraceError};
pub use fault::{FaultPlan, FaultyIter, FaultyTraceSource};
pub use record::{AccessKind, BlockAddr, Record};
pub use stats::TraceStats;
pub use stream::{SliceIter, SliceSource, TraceSource};
pub use trace::Trace;
