//! Library backing the `dew` command-line tool.
//!
//! The binary (`src/main.rs`) is a thin dispatcher over [`run`]; all command
//! logic lives here so it can be unit-tested without spawning processes.
//!
//! ```text
//! dew simulate --trace t.din --sets 64 --assoc 4 --block 16 [--policy fifo]
//! dew sweep    --trace t.din [--sets 0..14 --blocks 0..6 --assocs 0..4]
//! dew explore  --trace t.din [--policies fifo,lru,plru,slru --budget 8192 --json out.json]
//! dew stats    --trace t.din
//! dew convert  --input t.din --output t.dewt
//! dew generate --app cjpeg --requests 100000 --output t.dewt [--seed 1]
//! dew serve    [--addr 127.0.0.1:4960 --workers 2 --queue 16]
//! dew gen      [--addr 127.0.0.1:4960 --jobs 16 --concurrency 4 --rate 50]
//! ```
//!
//! Exit codes are documented on [`CliError::exit_code`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
mod commands;
mod error;

pub use commands::run;
pub use error::CliError;

/// Usage text printed for `dew help` and argument errors.
pub const USAGE: &str = "\
dew — trace-driven L1 cache simulation tools (DEW reproduction)

USAGE:
  dew <command> [options]

COMMANDS:
  simulate   simulate one cache configuration over a trace file
             --trace FILE --sets N --assoc N --block BYTES
             [--policy fifo|lru|plru|slru|random] [--seed N]
             [--write-policy wb|wt] [--allocate wa|nwa] [--classify]
  sweep      simulate a whole configuration space in fused passes: one
             decode + one trace traversal per block size covers every
             associativity at once (FIFO via per-associativity DEW tag
             lists; LRU, tree-PLRU and SLRU via their fused arena
             kernels); passes run in parallel
             --trace FILE [--sets LO..HI] [--blocks LO..HI] [--assocs LO..HI]
             (ranges are log2, inclusive; defaults 0..14, 0..6, 0..4)
             [--policy fifo|lru|plru|slru] [--threads N (0 = auto)]
             [--csv FILE] [--budget BYTES]
             [--counters]  (instrumented kernel: per-pass work breakdown)
             [--sample PERIOD:LEN]  (keep the leading LEN of every PERIOD
              requests; reports a per-cluster cold-start slack bound per
              configuration, guaranteed under lru, heuristic otherwise)
             [--checkpoint FILE] [--checkpoint-every N (default 1000000)]
              (periodically persist every job's kernel snapshot + position
              to a sidecar file; a killed run resumes bit-identically)
             [--resume FILE]  (resume from a checkpoint sidecar; rejected
              if it was taken under a different space/options/policy)
             [--retries N (default 4)]  (bounded-backoff retries of
              transient trace-source faults before a job fails)
             [--fail-fast]  (abort on the first job failure instead of the
              default degraded mode, which reports the surviving results,
              lists the failed jobs, and exits with code 3)
             [--timeout SECS]  (wall-clock budget; on expiry every job cuts
              at its next chunk boundary, the final checkpoint is flushed,
              and the partial table is printed with exit code 3)
              With --checkpoint, Ctrl-C does the same cooperative cut and
              the report prints the exact resume command.
  explore    design-space exploration: fused sweeps (one trace traversal
             per block size per policy) -> analytic energy/cycle scoring ->
             miss-rate x energy x size Pareto frontier
             --trace FILE [--sets LO..HI] [--blocks LO..HI] [--assocs LO..HI]
             [--policies any of fifo,lru,plru,slru (default fifo)]
             [--mode pruned|exhaustive (default pruned; identical frontiers,
              pruned drops associativity-dominated points before the scan)]
             [--budget BYTES (drop configurations larger than the budget)]
             [--threads N (0 = auto)] [--top N (frontier rows shown)]
             [--json FILE] [--csv FILE]  (full per-point report emission)
  verify     run DEW and the reference simulator, cross-check every config
             --trace FILE [--sets LO..HI] [--blocks LO..HI] [--assocs LO..HI]
             [--policy fifo|lru|plru|slru] [--threads N (0 = auto)]
  stats      print trace statistics
             --trace FILE
  convert    convert between trace formats (by file extension)
             --input FILE --output FILE
  generate   synthesise a Mediabench-like workload trace
             --app cjpeg|djpeg|g721_enc|g721_dec|mpeg2_enc|mpeg2_dec
             --requests N --output FILE [--seed N]
  serve      run a concurrent simulation service over TCP: line-delimited
             JSON requests (submit/status/wait/cancel/stats/health/shutdown),
             a fixed worker pool behind a bounded admission queue (full ->
             structured `rejected: overloaded`, never a blocked accept loop),
             per-job deadlines with cooperative cancellation, and graceful
             drain on Ctrl-C or a `shutdown` request (a second Ctrl-C
             force-quits with code 130)
             [--addr HOST:PORT (default 127.0.0.1:4960; port 0 = ephemeral)]
             [--workers N (default 2)] [--queue N (admission capacity, 16)]
             [--deadline-ms N (default job deadline, 10000)]
             [--max-deadline-ms N (cap on client deadlines, 60000)]
             [--io-timeout-ms N (per-connection read/write, 30000)]
             [--drain-ms N (natural-drain window before stragglers are
              cancelled at a chunk boundary, 5000)] [--sim-threads N (per job)]
             [--shutdown-after-ms N (self-initiated drain; CI smoke hook)]
  gen        load-generate against a running `dew serve`: submits sweep
             jobs, waits for terminal states, and prints a client-side
             ledger (completed / deadline / cancelled / rejected / shed,
             latency p50/p95/p99, jobs/s) plus the server's own counters
             so the two sides can be reconciled line by line
             [--addr HOST:PORT (default 127.0.0.1:4960)]
             [--jobs N (default 16)] [--concurrency N (client threads, 4)]
             [--rate R (open-loop jobs/second; omit for closed-loop)]
             [--mix zipf|loop|scan|mix (request mix, default zipf)]
             [--requests N (per job, default 20000)] [--seed N]
             [--deadline-ms N (per-job deadline sent with each submit)]
             [--chaos]  (ask the server to wrap each job's trace source in
              the fault injector: flaky opens, transient faults, latency)
             [--wait-timeout-ms N (default 60000)] [--json FILE]
  help       print this message (as do --help and -h after any command)

EXAMPLES:
  # Generate a Mediabench-like trace and explore the paper's Table 1 space:
  dew generate --app mpeg2_dec --requests 400000 --output mpeg2.dewt
  dew explore --trace mpeg2.dewt --json pareto.json --csv pareto.csv

  # Compare all four policies under an 8 KiB budget, exhaustive frontier:
  dew explore --trace mpeg2.dewt --policies fifo,lru,plru,slru \\
      --budget 8192 --mode exhaustive --top 20

  # Quick sweep of one block size with the instrumented work breakdown:
  dew sweep --trace mpeg2.dewt --sets 0..8 --blocks 4..4 --assocs 0..2 \\
      --counters

Trace files: `.din` is the Dinero text format; anything else is the compact
dew binary format.

EXIT CODES: 0 success; 1 execution failure (I/O, bad trace, failed
verification); 2 usage error (unknown command, bad arguments); 3 partial
success (a resilient sweep degraded, hit --timeout, or was interrupted:
the printed table covers the survivors, names what was lost, and — when a
checkpoint sidecar is active — ends with the exact resume command); 130
forced quit (second Ctrl-C during a serve drain).
";
