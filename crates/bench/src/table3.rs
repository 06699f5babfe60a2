//! The Table 3 harness: DEW vs the per-configuration reference simulator,
//! simulation time and tag comparisons, per application × block size ×
//! associativity. Figures 5 and 6 are derived from the same rows.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use dew_cachesim::{Cache, CacheConfig, Replacement};
use dew_core::{DewOptions, MultiAssocTree, PassConfig};
use dew_trace::{BlockChunks, Trace};
use dew_workloads::mediabench::App;

/// Set-count range of the paper's Table 1 (`2^0 ..= 2^14`).
pub const SET_BITS: (u32, u32) = (0, 14);
/// Block sizes of Table 3, in bytes.
pub const BLOCK_BYTES: [u32; 3] = [4, 16, 64];
/// Associativities of Table 3's column pairs ("assoc 1 & A").
pub const ASSOCS: [u32; 3] = [4, 8, 16];

/// One cell of Table 3: one application at one block size and one
/// associativity pair (1 & `assoc`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// The application.
    pub app: App,
    /// Block size in bytes.
    pub block_bytes: u32,
    /// The non-trivial associativity of the pair (direct-mapped rides along).
    pub assoc: u32,
    /// Requests in the trace.
    pub requests: u64,
    /// DEW single-pass wall time in seconds.
    pub dew_seconds: f64,
    /// Reference-simulator wall time in seconds (one pass per configuration:
    /// 15 set counts × associativities {1, A}).
    pub ref_seconds: f64,
    /// DEW tag comparisons.
    pub dew_comparisons: u64,
    /// Reference tag comparisons summed over its passes.
    pub ref_comparisons: u64,
}

impl Table3Row {
    /// Speedup of DEW over the reference (Figure 5's quantity).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.dew_seconds > 0.0 {
            self.ref_seconds / self.dew_seconds
        } else {
            f64::INFINITY
        }
    }

    /// Percentage reduction of tag comparisons (Figure 6's quantity).
    #[must_use]
    pub fn comparison_reduction_pct(&self) -> f64 {
        if self.ref_comparisons > 0 {
            (1.0 - self.dew_comparisons as f64 / self.ref_comparisons as f64) * 100.0
        } else {
            0.0
        }
    }
}

/// Runs one DEW pass and the matching reference passes over `trace`,
/// returning the filled row. Results are cross-checked for exact equality —
/// the harness doubles as a verification run, like the paper's Section 5
/// ("We have verified hit and miss rates of DEW by comparing with
/// Dinero IV").
///
/// # Panics
///
/// Panics if DEW and the reference disagree on any miss count (they never
/// should; the test-suite proves it on smaller grids).
#[must_use]
pub fn measure_cell(app: App, trace: &Trace, block_bytes: u32, assoc: u32) -> Table3Row {
    let block_bits = block_bytes.trailing_zeros();
    let records = trace.records();

    // DEW: one pass over the trace for all 15 set counts x {1, assoc}.
    let pass = PassConfig::new(block_bits, SET_BITS.0, SET_BITS.1, assoc)
        .expect("table 3 pass geometry is valid");
    let start = Instant::now();
    // Instrumented: Table 3 reports the tag-comparison breakdown, so the
    // timed pass is the counting kernel (matching the paper, whose counts
    // and times come from one run). It is driven like the sweep drives it:
    // bounded decode chunks, decode inside the timed region.
    let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), true)
        .expect("default options are sound");
    let mut chunks = BlockChunks::new(records, block_bits, BlockChunks::DEFAULT_CHUNK);
    while let Some(chunk) = chunks.next_chunk() {
        tree.run_blocks(chunk);
    }
    let dew_seconds = start.elapsed().as_secs_f64();
    let dew_results = tree.pass_results(assoc).expect("the pass associativity");
    let dew_comparisons = tree
        .pass_counters(assoc)
        .expect("the pass associativity")
        .tag_comparisons;

    // Reference: one full pass per configuration, Dinero-style.
    let mut ref_comparisons = 0u64;
    let mut ref_seconds = 0.0;
    for a in [1u32, assoc] {
        for set_bits in SET_BITS.0..=SET_BITS.1 {
            let config = CacheConfig::new(1 << set_bits, a, block_bytes, Replacement::Fifo)
                .expect("table 3 reference config is valid");
            let start = Instant::now();
            let mut cache = Cache::new(config);
            for r in records {
                cache.access(*r);
            }
            ref_seconds += start.elapsed().as_secs_f64();
            ref_comparisons += cache.stats().tag_comparisons();
            let expected = cache.stats().misses();
            let got = dew_results
                .misses(1 << set_bits, a)
                .expect("simulated by the pass");
            assert_eq!(
                got, expected,
                "{app}: DEW and reference disagree at sets=2^{set_bits} assoc={a} block={block_bytes}"
            );
        }
    }

    Table3Row {
        app,
        block_bytes,
        assoc,
        requests: records.len() as u64,
        dew_seconds,
        ref_seconds,
        dew_comparisons,
        ref_comparisons,
    }
}

/// Collects the full grid for a suite of app traces. `progress` receives a
/// line per finished cell.
#[must_use]
pub fn collect(suite: &[(App, Trace)], mut progress: impl FnMut(&Table3Row)) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for (app, trace) in suite {
        for &block_bytes in &BLOCK_BYTES {
            for &assoc in &ASSOCS {
                let row = measure_cell(*app, trace, block_bytes, assoc);
                progress(&row);
                rows.push(row);
            }
        }
    }
    rows
}

/// Writes rows as CSV (with a header) to `path`.
///
/// # Errors
///
/// Any I/O failure creating or writing the file.
pub fn save_csv(rows: &[Table3Row], path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "app,block_bytes,assoc,requests,dew_seconds,ref_seconds,dew_comparisons,ref_comparisons"
    )?;
    for r in rows {
        writeln!(
            f,
            "{},{},{},{},{:.6},{:.6},{},{}",
            r.app.name(),
            r.block_bytes,
            r.assoc,
            r.requests,
            r.dew_seconds,
            r.ref_seconds,
            r.dew_comparisons,
            r.ref_comparisons
        )?;
    }
    f.flush()
}

/// Reads rows back from a CSV produced by [`save_csv`]; `None` when the file
/// is missing or malformed.
#[must_use]
pub fn load_csv(path: &Path) -> Option<Vec<Table3Row>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut rows = Vec::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 8 {
            return None;
        }
        let app = *App::ALL.iter().find(|a| a.name() == f[0])?;
        rows.push(Table3Row {
            app,
            block_bytes: f[1].parse().ok()?,
            assoc: f[2].parse().ok()?,
            requests: f[3].parse().ok()?,
            dew_seconds: f[4].parse().ok()?,
            ref_seconds: f[5].parse().ok()?,
            dew_comparisons: f[6].parse().ok()?,
            ref_comparisons: f[7].parse().ok()?,
        });
    }
    Some(rows)
}

/// Default location of the Table 3 CSV (shared with the figure binaries).
#[must_use]
pub fn default_csv_path() -> std::path::PathBuf {
    std::path::PathBuf::from("results/table3.csv")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_cell_cross_checks_and_fills_row() {
        let trace = App::JpegDecode.generate(20_000, 3);
        let row = measure_cell(App::JpegDecode, &trace, 4, 4);
        assert_eq!(row.requests, 20_000);
        assert!(row.dew_comparisons > 0);
        assert!(
            row.ref_comparisons > row.dew_comparisons,
            "DEW compares less"
        );
        assert!(row.speedup() > 0.0);
        assert!(row.comparison_reduction_pct() > 0.0);
    }

    #[test]
    fn csv_round_trip() {
        let trace = App::G721Encode.generate(5_000, 1);
        let rows = vec![measure_cell(App::G721Encode, &trace, 16, 8)];
        let path = std::env::temp_dir().join(format!("dew_table3_{}.csv", std::process::id()));
        save_csv(&rows, &path).expect("save");
        let back = load_csv(&path).expect("load");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].app, rows[0].app);
        assert_eq!(back[0].dew_comparisons, rows[0].dew_comparisons);
        // The CSV stores 6 decimal places.
        assert!((back[0].dew_seconds - rows[0].dew_seconds).abs() < 1e-5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_csv_rejects_garbage() {
        let path = std::env::temp_dir().join(format!("dew_table3_bad_{}.csv", std::process::id()));
        std::fs::write(&path, "header\nnot,a,row\n").expect("write");
        assert!(load_csv(&path).is_none());
        let _ = std::fs::remove_file(&path);
        assert!(load_csv(Path::new("/nonexistent/x.csv")).is_none());
    }
}
