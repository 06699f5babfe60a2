//! `dew serve` — a fault-tolerant, concurrent simulation service — and
//! `dew gen`, its load generator.
//!
//! This crate turns the batch sweep machinery of `dew-core` into a
//! long-running service with the robustness properties a shared simulation
//! box needs:
//!
//! * **admission control** — a bounded queue ([`queue::BoundedQueue`])
//!   between the accept loop and a fixed worker pool; when it fills, new
//!   submissions are *shed* with a structured `rejected: overloaded`
//!   response instead of queueing unboundedly or blocking the accept loop;
//! * **deadlines** — every job carries a [`dew_core::CancelToken`] whose
//!   deadline starts at admission; the resilient sweep drivers poll it at
//!   chunk boundaries, and the job terminates as `deadline_exceeded` with
//!   its partial progress accounted for;
//! * **graceful drain** — shutdown (protocol `shutdown` or SIGINT via
//!   [`signal`]) stops admissions, sheds the queue, gives in-flight jobs a
//!   drain window, then cancels stragglers (which stop at their next chunk
//!   boundary the same way) and reports drained vs cancelled vs shed
//!   ([`server::DrainReport`]);
//! * **accounting that reconciles** — every submission ends in exactly one
//!   terminal state, client-observable and server-counted, so the
//!   `serve_soak` bench can assert zero lost and zero duplicated
//!   responses under overload, chaos, and shutdown.
//!
//! The wire protocol is line-delimited JSON over TCP ([`protocol`]),
//! parsed with a small vendored-free JSON module ([`json`]) because the
//! build environment is offline. No async runtime anywhere: blocking
//! threads, `Mutex`/`Condvar`, and a nonblocking accept poll.
//!
//! # Example
//!
//! ```
//! use dew_serve::gen::{run_gen, GenConfig};
//! use dew_serve::server::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default()).expect("binds");
//! let report = run_gen(&GenConfig {
//!     addr: server.addr().to_string(),
//!     jobs: 4,
//!     concurrency: 2,
//!     requests: 2_000,
//!     ..GenConfig::default()
//! });
//! assert!(report.reconciles(), "every job reached one terminal state");
//! assert_eq!(report.completed, 4);
//! let drain = server.stop();
//! assert_eq!(drain.in_flight, 0, "nothing was running at shutdown");
//! ```

// `signal` declares libc's `signal()` — the one unsafe block in the
// workspace — so this crate cannot carry `#![forbid(unsafe_code)]`; the
// rest of the crate is kept unsafe-free by the deny + targeted allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;
#[allow(unsafe_code)]
pub mod signal;

pub use gen::{run_gen, Client, GenConfig, GenReport, JobOutcome};
pub use protocol::{JobKind, Request, SubmitRequest};
pub use server::{DrainReport, ServeConfig, Server};
