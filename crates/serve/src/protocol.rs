//! The line-delimited JSON request protocol of `dew serve`.
//!
//! Every request is one JSON object on one line; every request gets
//! exactly one JSON object back on one line. That invariant is what lets
//! the load generator reconcile its client-side log against the server's
//! counters: a submitted job ends in exactly one terminal state, and the
//! response stream never interleaves.
//!
//! The verbs and their fields are tabulated in the crate docs. Unknown
//! fields are rejected (like the CLI's `reject_unknown`).

use std::str::FromStr;

use dew_core::TreePolicy;
use dew_workloads::traffic::{MixKind, TrafficSpec};

use crate::json::Json;

/// Default request count for a submit that omits `requests`.
pub const DEFAULT_REQUESTS: u64 = 20_000;
/// Cap on per-job request counts, so one submission cannot wedge a worker
/// for minutes. Large studies belong in batch `dew sweep`.
pub const MAX_REQUESTS: u64 = 5_000_000;

/// What a submitted job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A fused miss-rate sweep over the configuration space.
    Sweep,
    /// The sweep plus energy/EDP evaluation and a Pareto front.
    Explore,
}

/// A validated `submit` request: everything a worker needs to run the job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmitRequest {
    /// Sweep or explore.
    pub kind: JobKind,
    /// The synthetic request stream to simulate.
    pub traffic: TrafficSpec,
    /// Inclusive log2 set-count range.
    pub set_bits: (u32, u32),
    /// Inclusive log2 block-size range.
    pub block_bits: (u32, u32),
    /// Inclusive log2 associativity range.
    pub assoc_bits: (u32, u32),
    /// Replacement policy.
    pub policy: TreePolicy,
    /// Per-job wall-clock deadline; `None` means the server default.
    pub deadline_ms: Option<u64>,
    /// Wrap the trace source in fault injection (transients + latency).
    pub chaos: bool,
}

/// One parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job for admission.
    Submit(SubmitRequest),
    /// Poll a job's current state.
    Status {
        /// Job id from the submit response.
        id: u64,
    },
    /// Block until the job reaches a terminal state (or the wait times out).
    Wait {
        /// Job id from the submit response.
        id: u64,
        /// Optional cap on the wait, in milliseconds.
        timeout_ms: Option<u64>,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job id from the submit response.
        id: u64,
    },
    /// Server counters (submitted/completed/rejected/…).
    Stats,
    /// Liveness probe.
    Health,
    /// Begin graceful shutdown: stop admissions, drain, report.
    Shutdown,
}

impl Request {
    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// A human-readable message (sent back as an `error` response) on
    /// malformed JSON, an unknown `cmd`, unknown fields, or out-of-range
    /// values.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let Json::Obj(_) = &v else {
            return Err("request must be a JSON object".to_owned());
        };
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing string field `cmd`")?;
        match cmd {
            "submit" => parse_submit(&v),
            "status" => Ok(Request::Status {
                id: required_id(&v)?,
            }),
            "wait" => {
                reject_unknown(&v, &["cmd", "id", "timeout_ms"])?;
                Ok(Request::Wait {
                    id: required_id(&v)?,
                    timeout_ms: opt_u64(&v, "timeout_ms")?,
                })
            }
            "cancel" => Ok(Request::Cancel {
                id: required_id(&v)?,
            }),
            "stats" => {
                reject_unknown(&v, &["cmd"])?;
                Ok(Request::Stats)
            }
            "health" => {
                reject_unknown(&v, &["cmd"])?;
                Ok(Request::Health)
            }
            "shutdown" => {
                reject_unknown(&v, &["cmd"])?;
                Ok(Request::Shutdown)
            }
            other => Err(format!(
                "unknown cmd `{other}` (expected submit|status|wait|cancel|stats|health|shutdown)"
            )),
        }
    }
}

fn parse_submit(v: &Json) -> Result<Request, String> {
    reject_unknown(
        v,
        &[
            "cmd",
            "kind",
            "mix",
            "requests",
            "seed",
            "sets",
            "blocks",
            "assocs",
            "policy",
            "deadline_ms",
            "chaos",
        ],
    )?;
    let kind = match v.get("kind").map(|k| k.as_str().ok_or(k)) {
        None => JobKind::Sweep,
        Some(Ok("sweep")) => JobKind::Sweep,
        Some(Ok("explore")) => JobKind::Explore,
        Some(Ok(other)) => return Err(format!("unknown kind `{other}` (expected sweep|explore)")),
        Some(Err(_)) => return Err("field `kind` must be a string".to_owned()),
    };
    let mix = match v.get("mix") {
        None => MixKind::Zipf,
        Some(m) => MixKind::from_str(m.as_str().ok_or("field `mix` must be a string")?)?,
    };
    let requests = opt_u64(v, "requests")?.unwrap_or(DEFAULT_REQUESTS);
    if requests == 0 || requests > MAX_REQUESTS {
        return Err(format!(
            "requests must be in 1..={MAX_REQUESTS}, got {requests}"
        ));
    }
    let seed = opt_u64(v, "seed")?.unwrap_or(1);
    // An unknown policy dies here, as a structured protocol error on the
    // submit response — never as a worker-side job failure.
    let policy = match v.get("policy").map(Json::as_str) {
        None => TreePolicy::Fifo,
        Some(Some(name)) => TreePolicy::from_name(name).ok_or(format!(
            "unknown policy `{name}` (expected fifo|lru|plru|slru)"
        ))?,
        Some(None) => return Err("field `policy` must be a string".to_owned()),
    };
    let deadline_ms = opt_u64(v, "deadline_ms")?;
    if deadline_ms == Some(0) {
        return Err("deadline_ms must be positive".to_owned());
    }
    let chaos = match v.get("chaos") {
        None => false,
        Some(b) => b.as_bool().ok_or("field `chaos` must be a boolean")?,
    };
    Ok(Request::Submit(SubmitRequest {
        kind,
        traffic: TrafficSpec {
            kind: mix,
            requests,
            seed,
        },
        set_bits: opt_range(v, "sets")?.unwrap_or((4, 8)),
        block_bits: opt_range(v, "blocks")?.unwrap_or((5, 7)),
        assoc_bits: opt_range(v, "assocs")?.unwrap_or((0, 2)),
        policy,
        deadline_ms,
        chaos,
    }))
}

fn reject_unknown(v: &Json, known: &[&str]) -> Result<(), String> {
    let Json::Obj(map) = v else { return Ok(()) };
    for key in map.keys() {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}`"));
        }
    }
    Ok(())
}

fn required_id(v: &Json) -> Result<u64, String> {
    reject_unknown(v, &["cmd", "id", "timeout_ms"])?;
    v.get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing integer field `id`".to_owned())
}

fn opt_u64(v: &Json, field: &str) -> Result<Option<u64>, String> {
    match v.get(field) {
        None => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{field}` must be a non-negative integer")),
    }
}

/// Parses an inclusive `LO..HI` log2 range (same grammar as the CLI's
/// `--sets`/`--blocks`/`--assocs` flags).
fn opt_range(v: &Json, field: &str) -> Result<Option<(u32, u32)>, String> {
    let Some(raw) = v.get(field) else {
        return Ok(None);
    };
    let text = raw
        .as_str()
        .ok_or_else(|| format!("field `{field}` must be a `LO..HI` string"))?;
    let (lo, hi) = text
        .split_once("..")
        .ok_or_else(|| format!("field `{field}`: expected LO..HI, got `{text}`"))?;
    let lo: u32 = lo
        .trim()
        .parse()
        .map_err(|_| format!("field `{field}`: bad low bound `{lo}`"))?;
    let hi: u32 = hi
        .trim()
        .parse()
        .map_err(|_| format!("field `{field}`: bad high bound `{hi}`"))?;
    if lo > hi {
        return Err(format!("field `{field}`: empty range {lo}..{hi}"));
    }
    Ok(Some((lo, hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    #[test]
    fn submit_defaults_and_full_form() {
        let def = Request::parse(r#"{"cmd":"submit"}"#).expect("defaults ok");
        let Request::Submit(s) = def else { panic!() };
        assert_eq!(s.kind, JobKind::Sweep);
        assert_eq!(s.traffic.kind, MixKind::Zipf);
        assert_eq!(s.traffic.requests, DEFAULT_REQUESTS);
        assert_eq!(s.set_bits, (4, 8));
        assert_eq!(s.deadline_ms, None);
        assert!(!s.chaos);

        let full = Request::parse(
            r#"{"cmd":"submit","kind":"explore","mix":"mix","requests":5000,"seed":9,"sets":"3..6","blocks":"5..6","assocs":"0..1","policy":"lru","deadline_ms":750,"chaos":true}"#,
        )
        .expect("full ok");
        let Request::Submit(s) = full else { panic!() };
        assert_eq!(s.kind, JobKind::Explore);
        assert_eq!(s.traffic.kind, MixKind::Mix);
        assert_eq!(s.traffic.requests, 5_000);
        assert_eq!(s.traffic.seed, 9);
        assert_eq!(
            (s.set_bits, s.block_bits, s.assoc_bits),
            ((3, 6), (5, 6), (0, 1))
        );
        assert_eq!(s.policy, TreePolicy::Lru);
        assert_eq!(s.deadline_ms, Some(750));
        assert!(s.chaos);
    }

    #[test]
    fn every_fused_policy_name_parses() {
        for (name, policy) in [
            ("fifo", TreePolicy::Fifo),
            ("lru", TreePolicy::Lru),
            ("plru", TreePolicy::Plru),
            ("slru", TreePolicy::Slru),
        ] {
            let line = format!(r#"{{"cmd":"submit","policy":"{name}"}}"#);
            let Request::Submit(s) = Request::parse(&line).expect(name) else {
                panic!("{name} must parse as a submit");
            };
            assert_eq!(s.policy, policy);
        }
    }

    #[test]
    fn the_other_verbs_parse() {
        assert_eq!(
            Request::parse(r#"{"cmd":"status","id":3}"#).expect("ok"),
            Request::Status { id: 3 }
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"wait","id":3,"timeout_ms":100}"#).expect("ok"),
            Request::Wait {
                id: 3,
                timeout_ms: Some(100)
            }
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"cancel","id":1}"#).expect("ok"),
            Request::Cancel { id: 1 }
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"stats"}"#).expect("ok"),
            Request::Stats
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"health"}"#).expect("ok"),
            Request::Health
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"shutdown"}"#).expect("ok"),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("nonsense", "bad JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"id":1}"#, "missing string field `cmd`"),
            (r#"{"cmd":"fly"}"#, "unknown cmd `fly`"),
            (r#"{"cmd":"status"}"#, "missing integer field `id`"),
            (r#"{"cmd":"submit","mix":"belady"}"#, "unknown mix"),
            (r#"{"cmd":"submit","requests":0}"#, "requests must be"),
            (r#"{"cmd":"submit","deadline_ms":0}"#, "must be positive"),
            (r#"{"cmd":"submit","sets":"9..4"}"#, "empty range"),
            (r#"{"cmd":"submit","sets":"abc"}"#, "expected LO..HI"),
            (
                r#"{"cmd":"submit","deadine_ms":5}"#,
                "unknown field `deadine_ms`",
            ),
            (r#"{"cmd":"stats","id":1}"#, "unknown field `id`"),
            (r#"{"cmd":"submit","policy":"rand"}"#, "unknown policy"),
            (r#"{"cmd":"submit","kind":"dream"}"#, "unknown kind"),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(
                err.contains(needle),
                "`{line}` → `{err}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn oversized_requests_are_capped() {
        let line = format!(r#"{{"cmd":"submit","requests":{}}}"#, MAX_REQUESTS + 1);
        assert!(Request::parse(&line)
            .expect_err("over cap")
            .contains("requests"));
    }

    /// A valid line of every verb that names a job.
    const VALID: [&str; 4] = [
        r#"{"cmd":"submit","kind":"explore","requests":50000,"sets":"3..6","policy":"lru","deadline_ms":750,"chaos":true}"#,
        r#"{"cmd":"status","id":3}"#,
        r#"{"cmd":"wait","id":3,"timeout_ms":100}"#,
        r#"{"cmd":"cancel","id":1}"#,
    ];

    /// Bytes JSON gives meaning to, so random lines get past the first byte.
    const ALPHABET: &[u8] = b"{}[]\",:-+.0123456789eEtrufalsn\\ u";

    /// Both parsers on one hostile line: neither panics (a panic fails the
    /// property), and a JSON error points inside the line. `at` may equal
    /// the length: an unexpected end is reported where the input ends.
    fn check_hostile(line: &str) -> Result<(), TestCaseError> {
        if let Err(e) = Json::parse(line) {
            prop_assert!(
                e.at <= line.len(),
                "{e} is past the {} input bytes",
                line.len()
            );
        }
        let _ = Request::parse(line);
        Ok(())
    }

    proptest! {
        #[test]
        fn random_bytes_never_panic(
            bytes in prop::collection::vec(
                prop_oneof![any::<u8>(), (0..ALPHABET.len()).prop_map(|i| ALPHABET[i])],
                0..200,
            ),
        ) {
            check_hostile(&String::from_utf8_lossy(&bytes))?;
        }

        #[test]
        fn truncated_lines_never_panic(verb in 0..VALID.len(), cut in 0usize..128) {
            let line = VALID[verb];
            check_hostile(&line[..cut.min(line.len())])?;
        }

        #[test]
        fn flipped_bytes_never_panic(
            verb in 0..VALID.len(),
            at in 0usize..128,
            mask in 1u8..=255,
        ) {
            let mut bytes = VALID[verb].as_bytes().to_vec();
            let at = at % bytes.len();
            bytes[at] ^= mask;
            check_hostile(&String::from_utf8_lossy(&bytes))?;
        }

        /// A field value nested around the 128-level cap, inside a valid
        /// line: refused with an error, never a panic or a stack overflow.
        #[test]
        fn nested_field_values_are_refused(
            verb in 0..VALID.len(),
            depth in 120usize..136,
            closed in any::<bool>(),
        ) {
            let mut value = "[".repeat(depth);
            if closed {
                value.push_str(&"]".repeat(depth));
            }
            let line = VALID[verb].replacen('}', &format!(r#","x":{value}}}"#), 1);
            check_hostile(&line)?;
            prop_assert!(Request::parse(&line).is_err(), "{line}");
        }
    }
}
