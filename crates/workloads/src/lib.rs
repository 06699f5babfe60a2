//! Synthetic memory-trace workload generators for the DEW reproduction.
//!
//! The DEW paper evaluates on Mediabench applications traced with
//! SimpleScalar; those artefacts are not available offline, so this crate
//! synthesises traces with equivalent *structure* (see `DESIGN.md` for the
//! substitution argument):
//!
//! * [`mediabench`] — six surrogates mirroring the paper's Table 2
//!   applications (JPEG/G721/MPEG2, encode and decode), each built from its
//!   own per-app unit generators, which interleave loop-body instruction
//!   fetches the way SimpleScalar traces do;
//! * [`kernels`] — two archetypal locality patterns (streaming and pointer
//!   chasing) behind the [`kernels::Kernel`] trait, used as inputs to the
//!   exactness tests;
//! * [`zipf`] — the popularity distribution shaping temporal locality;
//! * [`traffic`] — compact, replayable request-mix specs (zipf/loop/scan)
//!   for the `dew serve` job protocol and the `dew gen` load generator.
//!
//! # Examples
//!
//! ```
//! use dew_workloads::mediabench::App;
//! use dew_workloads::kernels::{Kernel, PointerChase};
//!
//! // A scaled-down CJPEG-like trace:
//! let trace = App::JpegEncode.generate(50_000, 1);
//! assert_eq!(trace.len(), 50_000);
//!
//! // A cache-hostile kernel for stress tests:
//! let chase = PointerChase { base: 0, nodes: 4096, node_bytes: 64, steps: 10_000 };
//! assert_eq!(chase.generate(1).len(), 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod code;
pub mod kernels;
pub mod mediabench;
pub mod traffic;
pub mod zipf;
