//! Sweep-level checkpoints: periodically persisted per-job kernel state so
//! a long sweep can crash at any point and resume bit-identically.
//!
//! A [`SweepCheckpoint`] is a sidecar file (magic `DEWC`) bundling, for
//! every fused job of a sweep (one per block size), the job's decode
//! position and its kernel snapshot in the policy's versioned
//! `DEWM`/`DEWL`/`DEWP`/`DEWU` format. Because a kernel snapshot restores
//! *exact* state (property-tested in `tests/snapshot_and_timeline.rs` and
//! `tests/proptest_sharded_sweep.rs`) and the fused kernels are insensitive
//! to how the record stream is chunked, "restore every job's kernel and
//! replay the remaining records" is not an approximation: it reproduces the
//! uninterrupted sweep bit for bit. The sweep driver in
//! [`crate::sweep`] writes and consumes these through a [`CheckpointStore`].
//!
//! A checkpoint also records a *fingerprint* of the sweep it belongs to
//! (configuration space + options + policy), so resuming with a different
//! sweep shape is rejected up front instead of corrupting results. Resume
//! also checks every restored kernel against its job: its geometry must be
//! the job's and its access count the job's `records_done`.
//!
//! # Wire format (version 1, little-endian)
//!
//! ```text
//! magic        b"DEWC"
//! version      u8 (currently 1)
//! policy       u8 (0 = fifo, 1 = lru, 2 = plru, 3 = slru)
//! fingerprint  u64
//! job_count    u32
//! per job:     block_bits u32, records_done u64, complete u8,
//!              kernel_len u32, kernel bytes (the policy kernel's own
//!              snapshot format; a complete job stores its final kernel
//!              so a resumed sweep can still fan its results out)
//! ```
//!
//! The kernel images are the bulk of a sidecar. Their current versions
//! (`DEWM` 3, `DEWL` 2, `DEWP` 3, `DEWU` 3) write the way tags sparsely,
//! one occupancy bitmap per 64 ways and then only the filled ways (see
//! [`crate::snapshot`]), so a sidecar grows with the ways a sweep has
//! filled, not with its configuration space. The container is the same
//! for every kernel version, and a sidecar holding older, dense kernel
//! images still resumes.
//!
//! A job captures its state once per checkpoint position: a capture due
//! at a cadence point is taken when the next fill delivers anything, and
//! dropped when the stream ends there, where the completion capture
//! supersedes it.

use std::borrow::Borrow;
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::options::{DewOptions, TreePolicy};
use crate::snapshot::{put_u32, put_u64, Cursor, SnapshotError};
use crate::space::ConfigSpace;

/// File magic of the sweep-checkpoint sidecar format.
pub const CKPT_MAGIC: [u8; 4] = *b"DEWC";
/// Current sweep-checkpoint format version.
pub const CKPT_VERSION: u8 = 1;

/// Persisted progress of one fused sweep job (one block size).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobCheckpoint {
    /// log2 of the job's block size in bytes.
    pub block_bits: u32,
    /// Records the job has consumed; resume replays the source from here.
    pub records_done: u64,
    /// Whether the job ran to the end of the trace (its results are final
    /// and `kernel` is the job's final kernel).
    pub complete: bool,
    /// The kernel's `to_snapshot` buffer at `records_done`.
    pub kernel: Vec<u8>,
}

/// A point-in-time capture of a whole sweep: every job's kernel state and
/// decode position, plus the identity of the sweep they belong to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCheckpoint {
    fingerprint: u64,
    policy: TreePolicy,
    jobs: Vec<JobCheckpoint>,
}

impl SweepCheckpoint {
    /// The fingerprint of the sweep this checkpoint belongs to
    /// ([`sweep_fingerprint`]).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The replacement policy of the checkpointed sweep.
    #[must_use]
    pub fn policy(&self) -> TreePolicy {
        self.policy
    }

    /// All per-job captures, in no particular order.
    #[must_use]
    pub fn jobs(&self) -> &[JobCheckpoint] {
        &self.jobs
    }

    /// The capture for the job simulating `1 << block_bits`-byte blocks.
    #[must_use]
    pub fn job(&self, block_bits: u32) -> Option<&JobCheckpoint> {
        self.jobs.iter().find(|j| j.block_bits == block_bits)
    }

    /// Serialises the checkpoint to the `DEWC` wire format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_image(&mut out, self.fingerprint, self.policy, &self.jobs);
        out
    }

    /// Decodes a checkpoint written by [`SweepCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] for foreign, truncated, trailing-garbage or
    /// internally inconsistent buffers. Per-job kernel buffers are carried
    /// opaquely; they are validated by the kernel's own `from_snapshot`
    /// when the resume actually restores them.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut cur = Cursor::new(bytes);
        if cur.bytes(4)? != CKPT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = cur.u8()?;
        if version != CKPT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let policy = match cur.u8()? {
            0 => TreePolicy::Fifo,
            1 => TreePolicy::Lru,
            2 => TreePolicy::Plru,
            3 => TreePolicy::Slru,
            _ => return Err(SnapshotError::Corrupt("unknown checkpoint policy byte")),
        };
        let fingerprint = cur.u64()?;
        let job_count = cur.u32()? as usize;
        let mut jobs = Vec::with_capacity(job_count.min(1024));
        for _ in 0..job_count {
            let block_bits = cur.u32()?;
            let records_done = cur.u64()?;
            let complete = match cur.u8()? {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::Corrupt("bad job completion flag")),
            };
            let kernel_len = cur.u32()? as usize;
            let kernel = cur.bytes(kernel_len)?.to_vec();
            if jobs
                .iter()
                .any(|j: &JobCheckpoint| j.block_bits == block_bits)
            {
                return Err(SnapshotError::Corrupt("duplicate job block size"));
            }
            jobs.push(JobCheckpoint {
                block_bits,
                records_done,
                complete,
                kernel,
            });
        }
        if cur.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes(cur.remaining()));
        }
        Ok(SweepCheckpoint {
            fingerprint,
            policy,
            jobs,
        })
    }
}

/// Writes the `DEWC` image of `jobs` into `out` (cleared first, so a
/// writer can reuse one allocation across images).
fn encode_image<J: Borrow<JobCheckpoint>>(
    out: &mut Vec<u8>,
    fingerprint: u64,
    policy: TreePolicy,
    jobs: &[J],
) {
    out.clear();
    out.reserve(
        18 + jobs
            .iter()
            .map(|j| 17 + j.borrow().kernel.len())
            .sum::<usize>(),
    );
    out.extend_from_slice(&CKPT_MAGIC);
    out.push(CKPT_VERSION);
    out.push(match policy {
        TreePolicy::Fifo => 0,
        TreePolicy::Lru => 1,
        TreePolicy::Plru => 2,
        TreePolicy::Slru => 3,
    });
    put_u64(out, fingerprint);
    put_u32(out, u32::try_from(jobs.len()).expect("job count"));
    for job in jobs {
        let job = job.borrow();
        put_u32(out, job.block_bits);
        put_u64(out, job.records_done);
        out.push(u8::from(job.complete));
        put_u32(out, u32::try_from(job.kernel.len()).expect("kernel"));
        out.extend_from_slice(&job.kernel);
    }
}

/// The hand-off between a checkpointing sweep's workers and its one writer
/// thread: the latest capture of every job, and a generation count that
/// each capture bumps.
///
/// A worker encodes its kernel snapshot outside any lock and only swaps it
/// in here ([`CheckpointLog::update_job`]). The writer
/// ([`CheckpointLog::write_all`]) takes the newest set of captures under
/// the lock, then serialises and saves the image outside it. Captures that
/// arrive while a save is in flight coalesce into the next image, so the
/// store receives images in generation order, possibly skipping some.
pub(crate) struct CheckpointLog {
    fingerprint: u64,
    policy: TreePolicy,
    state: Mutex<LogState>,
    wake: Condvar,
}

struct LogState {
    /// One capture per job, in order of first capture; shared so the
    /// writer takes them without copying kernels under the lock.
    jobs: Vec<Arc<JobCheckpoint>>,
    /// Captures taken so far (resumed captures are not counted).
    generation: u64,
    /// Set once no worker will capture again.
    closed: bool,
}

impl CheckpointLog {
    /// A log for the sweep identified by `fingerprint`, seeded with the
    /// captures of the checkpoint it resumes from, if any.
    pub(crate) fn new(
        fingerprint: u64,
        policy: TreePolicy,
        resume: Option<&SweepCheckpoint>,
    ) -> Self {
        let jobs = resume.map_or_else(Vec::new, |c| {
            c.jobs.iter().map(|j| Arc::new(j.clone())).collect()
        });
        CheckpointLog {
            fingerprint,
            policy,
            state: Mutex::new(LogState {
                jobs,
                generation: 0,
                closed: false,
            }),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Inserts or replaces the capture for `block_bits` and wakes the
    /// writer.
    pub(crate) fn update_job(
        &self,
        block_bits: u32,
        records_done: u64,
        kernel: Vec<u8>,
        complete: bool,
    ) {
        let job = Arc::new(JobCheckpoint {
            block_bits,
            records_done,
            complete,
            kernel,
        });
        let mut state = self.lock();
        match state.jobs.iter_mut().find(|j| j.block_bits == block_bits) {
            Some(slot) => *slot = job,
            None => state.jobs.push(job),
        }
        state.generation += 1;
        drop(state);
        self.wake.notify_one();
    }

    /// Tells the writer that no capture follows: it saves the newest image
    /// (unless already saved) and returns.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_one();
    }

    /// The writer loop: saves the newest image whenever the generation has
    /// moved past the last one saved, until [`CheckpointLog::close`] was
    /// called and the last image is through.
    ///
    /// # Errors
    ///
    /// The first failed save's message; nothing is saved after it.
    pub(crate) fn write_all(&self, store: &dyn CheckpointStore) -> Result<(), String> {
        let mut saved = 0u64;
        let mut image = Vec::new();
        loop {
            let jobs = {
                let mut state = self.lock();
                while state.generation == saved && !state.closed {
                    state = self
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if state.generation == saved {
                    return Ok(());
                }
                saved = state.generation;
                state.jobs.clone()
            };
            encode_image(&mut image, self.fingerprint, self.policy, &jobs);
            store.save(&image)?;
        }
    }
}

/// Fingerprint of a sweep's identity — configuration space, kernel options
/// and policy folded through FNV-1a — used to reject resuming a checkpoint
/// into a *different* sweep. The thread count is excluded on purpose: it
/// does not affect results (job scheduling is deterministic per job), so a
/// checkpoint is portable across thread counts.
#[must_use]
pub fn sweep_fingerprint(space: &ConfigSpace, options: DewOptions) -> u64 {
    let (s0, s1) = space.set_bits();
    let (b0, b1) = space.block_bits();
    let (a0, a1) = space.assoc_bits();
    // Two policy bits at 4..=5: FIFO=0 and LRU=1 keep the exact encodings
    // (and therefore fingerprints) of the two-policy format, so old
    // checkpoints resume unchanged.
    let policy_code: u64 = match options.policy {
        TreePolicy::Fifo => 0,
        TreePolicy::Lru => 1,
        TreePolicy::Plru => 2,
        TreePolicy::Slru => 3,
    };
    let flags = u64::from(options.mra_stop)
        | u64::from(options.wave) << 1
        | u64::from(options.mre) << 2
        | u64::from(options.dup_elision) << 3
        | policy_code << 4;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [
        u64::from(s0),
        u64::from(s1),
        u64::from(b0),
        u64::from(b1),
        u64::from(a0),
        u64::from(a1),
        flags,
    ] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Where resilient sweeps persist their periodic [`SweepCheckpoint`]s.
///
/// A sweep calls `save` from one writer thread of its own, never
/// concurrently, with full-checkpoint images in capture order: each call
/// replaces the previous image. Captures that arrive while a save is in
/// flight coalesce into the next image, so intermediate images may be
/// skipped; the image of the last capture is always saved before the
/// sweep returns. The trait is `Sync` because the writer borrows the store
/// from the caller's thread.
pub trait CheckpointStore: Sync {
    /// Atomically replaces the persisted checkpoint with `bytes`.
    ///
    /// # Errors
    ///
    /// A human-readable message when persisting failed; the sweep treats a
    /// failed save as fatal for the *checkpointing contract* (the run
    /// aborts rather than silently continuing unprotected).
    fn save(&self, bytes: &[u8]) -> Result<(), String>;
}

/// A [`CheckpointStore`] writing to a file via tmp-file-then-rename, so a
/// crash mid-save never leaves a torn checkpoint behind. Each save syncs
/// the file before the rename and, on Unix, the parent directory after it,
/// so a saved image survives a power loss.
#[derive(Debug)]
pub struct FileCheckpointStore {
    path: std::path::PathBuf,
}

impl FileCheckpointStore {
    /// A store persisting to `path` (its parent directory must exist).
    #[must_use]
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        FileCheckpointStore { path: path.into() }
    }

    /// The destination path of the checkpoint file.
    #[must_use]
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl CheckpointStore for FileCheckpointStore {
    fn save(&self, bytes: &[u8]) -> Result<(), String> {
        let mut tmp = self.path.clone();
        let mut name = self.path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        tmp.set_file_name(name);
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            std::fs::rename(&tmp, &self.path)?;
            // The rename itself is durable once the directory entry is.
            #[cfg(unix)]
            {
                let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
                std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")))?.sync_all()?;
            }
            Ok(())
        };
        write().map_err(|e| format!("cannot write checkpoint {}: {e}", self.path.display()))
    }
}

/// An in-memory [`CheckpointStore`] recording every saved image, for tests
/// and for the chaos harness: each history entry is a valid kill point a
/// resume can start from. The history holds the images the sweep's writer
/// saved, not one per capture: captures that arrived during a save are
/// coalesced (see [`CheckpointStore`]).
#[derive(Debug, Default)]
pub struct MemoryCheckpointStore {
    history: Mutex<Vec<Vec<u8>>>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        MemoryCheckpointStore::default()
    }

    /// The most recently saved checkpoint image, if any.
    #[must_use]
    pub fn latest(&self) -> Option<Vec<u8>> {
        self.history
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .last()
            .cloned()
    }

    /// Every image ever saved, oldest first.
    #[must_use]
    pub fn history(&self) -> Vec<Vec<u8>> {
        self.history
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save(&self, bytes: &[u8]) -> Result<(), String> {
        self.history
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(bytes.to_vec());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(block_bits: u32, records_done: u64, kernel: Vec<u8>, complete: bool) -> JobCheckpoint {
        JobCheckpoint {
            block_bits,
            records_done,
            complete,
            kernel,
        }
    }

    fn image(fingerprint: u64, policy: TreePolicy, jobs: Vec<JobCheckpoint>) -> SweepCheckpoint {
        SweepCheckpoint {
            fingerprint,
            policy,
            jobs,
        }
    }

    fn sample() -> SweepCheckpoint {
        let jobs = vec![
            job(4, 1_000, vec![1, 2, 3], false),
            job(5, 2_500, vec![9; 40], true),
        ];
        image(0xFEED_F00D, TreePolicy::Lru, jobs)
    }

    /// Every image a log's writer saves once closed.
    fn drain(log: &CheckpointLog) -> Vec<SweepCheckpoint> {
        let store = MemoryCheckpointStore::new();
        log.close();
        log.write_all(&store).expect("memory saves succeed");
        store
            .history()
            .iter()
            .map(|b| SweepCheckpoint::from_bytes(b).expect("image decodes"))
            .collect()
    }

    #[test]
    fn wire_format_round_trips() {
        let c = sample();
        let bytes = c.to_bytes();
        let back = SweepCheckpoint::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, c);
        assert_eq!(back.job(5).expect("job").records_done, 2_500);
        assert!(back.job(5).expect("job").complete);
        assert!(back.job(6).is_none());
    }

    #[test]
    fn update_job_replaces_in_place() {
        let log = CheckpointLog::new(0xFEED_F00D, TreePolicy::Lru, Some(&sample()));
        log.update_job(4, 1_500, vec![7], false);
        let images = drain(&log);
        assert_eq!(images.len(), 1);
        let c = &images[0];
        assert_eq!(c.jobs().len(), 2);
        assert_eq!(c.job(4).expect("job").records_done, 1_500);
        assert_eq!(c.job(5), sample().job(5), "the resumed capture is kept");
    }

    #[test]
    fn log_coalesces_captures_into_the_newest_image() {
        let log = CheckpointLog::new(7, TreePolicy::Fifo, None);
        assert!(drain(&log).is_empty(), "no capture, no image");
        let log = CheckpointLog::new(7, TreePolicy::Fifo, None);
        log.update_job(4, 100, vec![1], false);
        log.update_job(5, 100, vec![2], false);
        log.update_job(4, 200, vec![3], true);
        let images = drain(&log);
        assert_eq!(images.len(), 1, "captures before the writer ran coalesce");
        let want = vec![job(4, 200, vec![3], true), job(5, 100, vec![2], false)];
        assert_eq!(images[0], image(7, TreePolicy::Fifo, want));
    }

    #[test]
    fn damaged_buffers_are_rejected() {
        let bytes = sample().to_bytes();
        assert_eq!(
            SweepCheckpoint::from_bytes(b"DEWS rest"),
            Err(SnapshotError::BadMagic)
        );
        assert_eq!(
            SweepCheckpoint::from_bytes(&bytes[..bytes.len() - 2]),
            Err(SnapshotError::Corrupt("unexpected end of snapshot"))
        );
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            SweepCheckpoint::from_bytes(&padded),
            Err(SnapshotError::TrailingBytes(1))
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert_eq!(
            SweepCheckpoint::from_bytes(&bad_version),
            Err(SnapshotError::UnsupportedVersion(99))
        );
        let mut bad_policy = bytes;
        bad_policy[5] = 7;
        assert!(matches!(
            SweepCheckpoint::from_bytes(&bad_policy),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn policy_byte_round_trips_for_every_policy() {
        for policy in TreePolicy::ALL {
            let c = image(1, policy, Vec::new());
            let back = SweepCheckpoint::from_bytes(&c.to_bytes()).expect("round trip");
            assert_eq!(back.policy(), policy);
        }
    }

    #[test]
    fn fingerprint_separates_policies() {
        let space = ConfigSpace::new((0, 4), (2, 4), (0, 2)).expect("valid");
        let prints: Vec<u64> = TreePolicy::ALL
            .iter()
            .map(|&p| sweep_fingerprint(&space, DewOptions::for_policy(p)))
            .collect();
        for i in 0..prints.len() {
            for j in i + 1..prints.len() {
                assert_ne!(prints[i], prints[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn fingerprint_separates_sweep_shapes() {
        let a = ConfigSpace::new((0, 4), (2, 4), (0, 2)).expect("valid");
        let b = ConfigSpace::new((0, 4), (2, 5), (0, 2)).expect("valid");
        let opts = DewOptions::default();
        assert_eq!(sweep_fingerprint(&a, opts), sweep_fingerprint(&a, opts));
        assert_ne!(sweep_fingerprint(&a, opts), sweep_fingerprint(&b, opts));
        let lru = DewOptions {
            policy: TreePolicy::Lru,
            mra_stop: false,
            ..opts
        };
        assert_ne!(sweep_fingerprint(&a, opts), sweep_fingerprint(&a, lru));
        let mra_off = DewOptions {
            mra_stop: false,
            ..opts
        };
        assert_ne!(sweep_fingerprint(&a, opts), sweep_fingerprint(&a, mra_off));
    }

    #[test]
    fn file_store_replaces_atomically() {
        let dir = std::env::temp_dir().join(format!("dew_ckpt_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("sweep.dewc");
        let store = FileCheckpointStore::new(&path);
        store.save(&sample().to_bytes()).expect("first save");
        let mut second = sample();
        second.jobs[0] = job(4, 9_999, vec![4, 5], false);
        store.save(&second.to_bytes()).expect("second save");
        let back =
            SweepCheckpoint::from_bytes(&std::fs::read(&path).expect("read")).expect("decode");
        assert_eq!(back.job(4).expect("job").records_done, 9_999);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn memory_store_keeps_history() {
        let store = MemoryCheckpointStore::new();
        assert!(store.latest().is_none());
        store.save(&[1]).expect("save");
        store.save(&[2, 2]).expect("save");
        assert_eq!(store.latest(), Some(vec![2, 2]));
        assert_eq!(store.history().len(), 2);
    }
}
