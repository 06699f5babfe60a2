//! Outside-in tracing: everything the traced run learns about a layer is
//! measured around calls into that layer's public functions. Nothing here
//! reaches inside a crate.
//!
//! * [`TimedSource`] wraps a [`TraceSource`] and times record delivery in
//!   batches of [`BATCH`] records (never per record).
//! * [`TimedStore`] wraps a [`FileCheckpointStore`] and times each save.
//! * [`replay`] repeats, step by step, what the fused sweep driver does for
//!   each block-size job: `FusedKernel::build`, `run_blocks` over the same
//!   64 Ki-block chunks, then `pass_results` for every associativity, on the
//!   same number of worker threads as the measured sweep.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dew_core::{
    CheckpointStore, ConfigSpace, DewOptions, FileCheckpointStore, FusedKernel, PolicyKernel,
    TreePolicy,
};
use dew_trace::{BlockChunks, Record, TraceError, TraceSource};

/// Records fetched per timed batch by [`TimedSource`].
pub const BATCH: usize = 4096;

const MIB: f64 = 1024.0 * 1024.0;

/// Busy seconds and counts per layer metric, accumulated from any thread at
/// batch granularity.
#[derive(Debug, Default)]
pub struct Layers(Mutex<BTreeMap<String, f64>>);

impl Layers {
    fn with<T>(&self, f: impl FnOnce(&mut BTreeMap<String, f64>) -> T) -> T {
        f(&mut self.0.lock().expect("layer accumulator poisoned"))
    }

    pub fn add(&self, name: &str, v: f64) {
        self.with(|m| *m.entry(name.to_owned()).or_default() += v);
    }

    pub fn max(&self, name: &str, v: f64) {
        self.with(|m| {
            let e = m.entry(name.to_owned()).or_default();
            *e = e.max(v);
        });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.with(|m| m.get(name).copied().unwrap_or(0.0))
    }

    /// Runs `f`, adding its duration to `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    pub fn into_map(self) -> BTreeMap<String, f64> {
        self.0.into_inner().expect("layer accumulator poisoned")
    }
}

/// A [`TraceSource`] that counts opens and records and times how long the
/// wrapped source takes to deliver them (`trace.stream_s`).
pub struct TimedSource<'a, S> {
    pub inner: S,
    pub layers: &'a Layers,
}

impl<'a, S: TraceSource> TraceSource for TimedSource<'a, S> {
    type Iter = TimedIter<'a, S::Iter>;

    fn open(&self) -> Result<Self::Iter, TraceError> {
        let inner = self.layers.time("trace.stream_s", || self.inner.open())?;
        self.layers.add("trace.opens", 1.0);
        Ok(TimedIter {
            inner,
            layers: self.layers,
            buf: VecDeque::with_capacity(BATCH),
        })
    }
}

/// The iterator of a [`TimedSource`]: fills [`BATCH`] records at a time
/// from the wrapped iterator under one timer, then hands them out.
pub struct TimedIter<'a, I> {
    inner: I,
    layers: &'a Layers,
    buf: VecDeque<Result<Record, TraceError>>,
}

impl<I: Iterator<Item = Result<Record, TraceError>>> Iterator for TimedIter<'_, I> {
    type Item = Result<Record, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.buf.is_empty() {
            let t = Instant::now();
            while self.buf.len() < BATCH {
                match self.inner.next() {
                    Some(item) => {
                        let failed = item.is_err();
                        self.buf.push_back(item);
                        if failed {
                            break;
                        }
                    }
                    None => break,
                }
            }
            self.layers.add("trace.stream_s", t.elapsed().as_secs_f64());
            self.layers.add("trace.records", self.buf.len() as f64);
        }
        self.buf.pop_front()
    }
}

/// A [`CheckpointStore`] delegating to [`FileCheckpointStore`] that records
/// `checkpoint.saves`, `checkpoint.save_s`, `checkpoint.bytes` and the
/// largest image in `checkpoint.image_mib`.
pub struct TimedStore<'a> {
    pub inner: FileCheckpointStore,
    pub layers: &'a Layers,
}

impl CheckpointStore for TimedStore<'_> {
    fn save(&self, bytes: &[u8]) -> Result<(), String> {
        let out = self
            .layers
            .time("checkpoint.save_s", || self.inner.save(bytes));
        self.layers.add("checkpoint.saves", 1.0);
        self.layers.add("checkpoint.bytes", bytes.len() as f64);
        self.layers
            .max("checkpoint.image_mib", bytes.len() as f64 / MIB);
        out
    }
}

/// One fused job of a sweep: a block size and the associativities of its
/// passes, grouped exactly as the sweep driver groups them.
struct Job {
    block_bits: u32,
    assocs: Vec<u32>,
}

fn jobs(space: &ConfigSpace) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    for pass in space.passes() {
        match jobs.iter_mut().find(|j| j.block_bits == pass.block_bits()) {
            Some(job) => job.assocs.push(pass.assoc()),
            None => jobs.push(Job {
                block_bits: pass.block_bits(),
                assocs: vec![pass.assoc()],
            }),
        }
    }
    jobs
}

fn assoc_bits(assocs: &[u32]) -> (u32, u32) {
    let bits = assocs.iter().map(|a| a.trailing_zeros());
    (
        bits.clone().min().expect("a job has passes"),
        bits.max().expect("a job has passes"),
    )
}

/// Step-by-step replay of one policy's fused sweep over `records` on
/// `workers` threads, adding busy time per step:
/// `kernel.<p>.build_s`, `trace.decode_s`, `kernel.<p>.run_s`,
/// `results.fanout_s`, and `kernel.<p>.footprint_mib` (summed over jobs).
/// With `snapshot` set it also times one `to_snapshot` and one
/// `FusedKernel::from_snapshot` per job (`snapshot.encode_s`,
/// `snapshot.decode_s`, `snapshot.bytes`).
pub fn replay(
    space: &ConfigSpace,
    policy: TreePolicy,
    records: &[Record],
    workers: usize,
    snapshot: bool,
    layers: &Layers,
) {
    let jobs = jobs(space);
    let next = AtomicUsize::new(0);
    let p = policy.name();
    std::thread::scope(|s| {
        for _ in 0..workers.clamp(1, jobs.len()) {
            s.spawn(|| {
                let mut chunks = BlockChunks::new(&[], 0, BlockChunks::DEFAULT_CHUNK);
                while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let mut kernel = layers.time(&format!("kernel.{p}.build_s"), || {
                        FusedKernel::build(
                            job.block_bits,
                            space.set_bits(),
                            assoc_bits(&job.assocs),
                            DewOptions::for_policy(policy),
                            false,
                        )
                        .expect("the measured sweep accepted this geometry")
                    });
                    chunks.reset(records, job.block_bits);
                    let (mut decode, mut run) = (0.0, 0.0);
                    loop {
                        let t = Instant::now();
                        let Some(chunk) = chunks.next_chunk() else {
                            decode += t.elapsed().as_secs_f64();
                            break;
                        };
                        let t1 = Instant::now();
                        decode += (t1 - t).as_secs_f64();
                        kernel.run_blocks(chunk);
                        run += t1.elapsed().as_secs_f64();
                    }
                    layers.add("trace.decode_s", decode);
                    layers.add(&format!("kernel.{p}.run_s"), run);
                    layers.time("results.fanout_s", || {
                        for &a in &job.assocs {
                            std::hint::black_box(kernel.pass_results(a));
                        }
                    });
                    layers.add(
                        &format!("kernel.{p}.footprint_mib"),
                        kernel.footprint_bytes() as f64 / MIB,
                    );
                    if snapshot {
                        let bytes = layers.time("snapshot.encode_s", || kernel.to_snapshot());
                        layers.add("snapshot.bytes", bytes.len() as f64);
                        let back = layers.time("snapshot.decode_s", || {
                            FusedKernel::from_snapshot(policy, &bytes)
                        });
                        assert!(back.is_ok(), "a kernel snapshot decodes");
                    }
                }
            });
        }
    });
}

/// Work counts of one policy's sweep from instrumented kernels (untimed):
/// `[tag comparisons, node evaluations, MRA-settled evaluations]` summed
/// over every pass.
pub fn count_work(space: &ConfigSpace, policy: TreePolicy, records: &[Record]) -> [u64; 3] {
    let mut total = [0u64; 3];
    for job in jobs(space) {
        let mut kernel = FusedKernel::build(
            job.block_bits,
            space.set_bits(),
            assoc_bits(&job.assocs),
            DewOptions::for_policy(policy),
            true,
        )
        .expect("the measured sweep accepted this geometry");
        let mut chunks = BlockChunks::new(records, job.block_bits, BlockChunks::DEFAULT_CHUNK);
        while let Some(chunk) = chunks.next_chunk() {
            kernel.run_blocks(chunk);
        }
        for &a in &job.assocs {
            let c = kernel.pass_counters(a).expect("job covers its passes");
            total[0] += c.tag_comparisons;
            total[1] += c.node_evaluations;
            total[2] += c.mra_stops;
        }
    }
    total
}
