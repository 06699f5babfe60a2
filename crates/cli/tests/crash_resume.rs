//! Checkpoints survive `kill -9`: a checkpointing `dew sweep` is killed
//! with SIGKILL (`Child::kill`) at a seeded point, then resumed to
//! completion, and the resumed CSV must be byte-identical to a plain run.
//!
//! The cases cover a kill before the first save (resume refuses cleanly,
//! a fresh run succeeds), a kill mid-run with a leftover `.dewc.tmp` from
//! an interrupted save, and a kill after completion — each at
//! `--threads 1` (one traversal feeds every block size) and `--threads 2`.
//! Children run one after another, never two at once, so the cases live
//! in one test.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use dew_workloads::mediabench::App;

/// Trace length: long enough for a dozen checkpoints, short enough that
/// every case together stays a few seconds in a debug build.
const REQUESTS: u64 = 120_000;
/// Records between checkpoint saves.
const EVERY: &str = "10000";
/// The swept space: 9 set counts × 3 block sizes × 3 associativities.
const SPACE: [&str; 6] = ["--sets", "0..8", "--blocks", "2..4", "--assocs", "0..2"];

/// The trace and the plain run's CSV and wall time, in a scratch
/// directory removed on drop.
struct Fixture {
    dir: PathBuf,
    trace: PathBuf,
    plain_csv: Vec<u8>,
    plain_time: Duration,
}

impl Fixture {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("dew_crash_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let trace = dir.join("t.dewt");
        App::JpegEncode
            .generate(REQUESTS, 1)
            .write_bin_file(&trace)
            .expect("trace written");
        let csv = dir.join("plain.csv");
        let start = Instant::now();
        let out = dew(&trace, &["--csv", path(&csv)])
            .output()
            .expect("plain run");
        let plain_time = start.elapsed();
        assert_success(&out, "plain run");
        Fixture {
            plain_csv: std::fs::read(&csv).expect("plain csv"),
            dir,
            trace,
            plain_time,
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

/// `dew sweep` over the fixture space with `extra` flags, output captured.
fn dew(trace: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dew"));
    cmd.args(["sweep", "--trace", path(trace)])
        .args(SPACE)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// One case's files: a checkpoint sidecar, its temp twin and a CSV.
struct Case {
    ckpt: PathBuf,
    tmp: PathBuf,
    csv: PathBuf,
    threads: String,
}

impl Case {
    fn new(fx: &Fixture, name: &str, threads: u32) -> Self {
        let stem = format!("{name}_t{threads}");
        Case {
            ckpt: fx.dir.join(format!("{stem}.dewc")),
            tmp: fx.dir.join(format!("{stem}.dewc.tmp")),
            csv: fx.dir.join(format!("{stem}.csv")),
            threads: threads.to_string(),
        }
    }

    /// A checkpointing sweep, optionally resuming from the sidecar.
    fn sweep(&self, fx: &Fixture, resume: bool) -> Command {
        let mut flags = vec![
            "--threads",
            &self.threads,
            "--checkpoint",
            path(&self.ckpt),
            "--checkpoint-every",
            EVERY,
            "--csv",
            path(&self.csv),
        ];
        if resume {
            flags.extend(["--resume", path(&self.ckpt)]);
        }
        dew(&fx.trace, &flags)
    }

    /// Starts a checkpointing sweep and SIGKILLs it after `delay`.
    fn kill_after(&self, fx: &Fixture, delay: Duration) {
        let mut child = self.sweep(fx, false).spawn().expect("spawn dew");
        std::thread::sleep(delay);
        // The child may have finished already; killing a finished child
        // is not an error worth failing on.
        let _ = child.kill();
        child.wait().expect("reap dew");
    }

    /// Resumes from the sidecar and checks the CSV against the plain run.
    fn resume_matches_plain(&self, fx: &Fixture) {
        let out = self.sweep(fx, true).output().expect("resume");
        assert_success(&out, "resume");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("resumed from checkpoint"), "{stdout}");
        self.assert_csv_matches(fx);
    }

    fn assert_csv_matches(&self, fx: &Fixture) {
        let csv = std::fs::read(&self.csv).expect("csv written");
        assert!(
            csv == fx.plain_csv,
            "--threads {}: CSV differs from the plain run",
            self.threads
        );
    }
}

/// A seeded fraction in `[lo, hi)` (SplitMix64 over `seed`).
fn seeded_fraction(seed: u64, lo: f64, hi: f64) -> f64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    lo + (hi - lo) * (z >> 11) as f64 / (1u64 << 53) as f64
}

#[test]
fn checkpoints_survive_kill_9() {
    let fx = Fixture::new();
    for threads in [1, 2] {
        kill_before_the_first_save(&fx, threads);
        kill_mid_run_with_a_leftover_temp_file(&fx, threads);
        kill_after_completion(&fx, threads);
    }
}

/// Resume refuses cleanly when no image was saved; a fresh run succeeds.
fn kill_before_the_first_save(fx: &Fixture, threads: u32) {
    let case = Case::new(fx, "early", threads);
    case.kill_after(fx, Duration::ZERO);
    assert!(!case.ckpt.exists(), "no save happened before the kill");

    let out = case.sweep(fx, true).output().expect("resume");
    assert_eq!(out.status.code(), Some(1), "resume refuses with exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let sidecar = case.ckpt.to_string_lossy();
    assert!(
        stderr.contains(&*sidecar),
        "the error names {sidecar}: {stderr}"
    );

    let out = case.sweep(fx, false).output().expect("fresh run");
    assert_success(&out, "fresh run");
    case.assert_csv_matches(fx);
}

/// A kill at a seeded point of the run, plus the half-written temp file
/// an interrupted save leaves behind: the resume neither reads it nor
/// trips over it.
fn kill_mid_run_with_a_leftover_temp_file(fx: &Fixture, threads: u32) {
    let case = Case::new(fx, "mid", threads);
    let fraction = seeded_fraction(u64::from(threads), 0.3, 0.8);
    case.kill_after(fx, fx.plain_time.mul_f64(fraction));
    std::fs::write(&case.tmp, b"DEWC half-written").expect("plant temp file");
    if case.ckpt.exists() {
        case.resume_matches_plain(fx);
    } else {
        // The kill outran the first save: start over.
        let out = case.sweep(fx, false).output().expect("fresh run");
        assert_success(&out, "fresh run");
        case.assert_csv_matches(fx);
    }
    assert!(!case.tmp.exists(), "a later save replaced the temp file");
}

/// A kill that lands after the run finished: its final image resumes to
/// the same table.
fn kill_after_completion(fx: &Fixture, threads: u32) {
    let case = Case::new(fx, "done", threads);
    let mut child = case.sweep(fx, false).spawn().expect("spawn dew");
    let status = child.wait().expect("reap dew");
    assert!(status.success(), "{status}");
    let _ = child.kill();
    assert!(case.ckpt.exists(), "the finished run left its final image");
    case.resume_matches_plain(fx);
}
