//! Mediabench-like surrogate workloads.
//!
//! The paper evaluates DEW on six Mediabench applications traced with
//! SimpleScalar (Table 2). Neither the binaries nor the traces are available
//! here, so this module synthesises traces with the same *structural* memory
//! behaviour (see `DESIGN.md`, substitutions):
//!
//! * **JPEG encode/decode** — 8×8-block transforms over an image with
//!   quantisation-table reuse and sequential coefficient I/O;
//! * **G721 encode/decode** — a long sample loop over streaming input with a
//!   small, extremely hot predictor state and quantiser tables;
//! * **MPEG2 encode** — macroblock motion search scanning overlapping
//!   windows of a reference frame (heavy spatial reuse);
//! * **MPEG2 decode** — IDCT workspaces plus motion-compensation copies at
//!   small random displacements.
//!
//! Instruction fetches are interleaved through sequential loop-body
//! walkers, as in a SimpleScalar trace. Every generator is deterministic
//! given a seed, and emits exactly the requested number of records.
//!
//! # Examples
//!
//! ```
//! use dew_workloads::mediabench::App;
//!
//! let trace = App::JpegEncode.generate(10_000, 42);
//! assert_eq!(trace.len(), 10_000);
//! // Table 2 reference count for scaling experiments:
//! assert_eq!(App::JpegEncode.paper_requests(), 25_680_911);
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dew_trace::{Record, Trace};

use crate::code::CodeWalker;

/// Data-segment base addresses (disjoint regions of a flat address space).
mod layout {
    pub const CODE: u64 = 0x0040_0000;
    pub const INPUT: u64 = 0x1000_0000;
    pub const OUTPUT: u64 = 0x1800_0000;
    pub const TABLES: u64 = 0x2000_0000;
    pub const STATE: u64 = 0x2100_0000;
    pub const WORK: u64 = 0x2200_0000;
    pub const REF_FRAME: u64 = 0x3000_0000;
}

/// The six Mediabench applications of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// JPEG compression (`cjpeg`).
    JpegEncode,
    /// JPEG decompression (`djpeg`).
    JpegDecode,
    /// G.721 voice encoding.
    G721Encode,
    /// G.721 voice decoding.
    G721Decode,
    /// MPEG-2 video encoding.
    Mpeg2Encode,
    /// MPEG-2 video decoding.
    Mpeg2Decode,
}

impl App {
    /// All six applications, in the paper's Table 2 order.
    pub const ALL: [App; 6] = [
        App::JpegEncode,
        App::JpegDecode,
        App::G721Encode,
        App::G721Decode,
        App::Mpeg2Encode,
        App::Mpeg2Decode,
    ];

    /// The short name used in the paper's tables and figures.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            App::JpegEncode => "CJPEG",
            App::JpegDecode => "DJPEG",
            App::G721Encode => "G721_Enc",
            App::G721Decode => "G721_Dec",
            App::Mpeg2Encode => "MPEG2_Enc",
            App::Mpeg2Decode => "MPEG2_Dec",
        }
    }

    /// The request count of the paper's trace (Table 2), for scaling.
    #[must_use]
    pub const fn paper_requests(self) -> u64 {
        match self {
            App::JpegEncode => 25_680_911,
            App::JpegDecode => 7_617_458,
            App::G721Encode => 154_999_563,
            App::G721Decode => 154_856_346,
            App::Mpeg2Encode => 3_738_851_450,
            App::Mpeg2Decode => 1_411_434_040,
        }
    }

    /// Generates a surrogate trace of exactly `requests` records.
    #[must_use]
    pub fn generate(self, requests: u64, seed: u64) -> Trace {
        let mut rng = SmallRng::seed_from_u64(seed ^ (self as u64) << 32);
        let mut out: Vec<Record> = Vec::with_capacity(requests as usize);
        let target = requests as usize;
        while out.len() < target {
            match self {
                App::JpegEncode => jpeg_unit(&mut out, &mut rng, true),
                App::JpegDecode => jpeg_unit(&mut out, &mut rng, false),
                App::G721Encode => g721_unit(&mut out, &mut rng, true),
                App::G721Decode => g721_unit(&mut out, &mut rng, false),
                App::Mpeg2Encode => mpeg2_encode_unit(&mut out, &mut rng),
                App::Mpeg2Decode => mpeg2_decode_unit(&mut out, &mut rng),
            }
        }
        out.truncate(target);
        Trace::from_records(out)
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Image geometry shared by the JPEG and MPEG2 models.
const IMG_W: u64 = 512;
const IMG_H: u64 = 512;

/// One 8×8 MCU of JPEG work: pixel block I/O, a DCT workspace, quantisation
/// table lookups, and sequential coefficient traffic.
fn jpeg_unit(out: &mut Vec<Record>, rng: &mut SmallRng, encode: bool) {
    let mcu_per_row = IMG_W / 8;
    let mcu_count = mcu_per_row * (IMG_H / 8);
    // Walk MCUs in raster order, deriving the index from how many units ran.
    let unit = (out.len() as u64 / 640) % mcu_count;
    let (mx, my) = (unit % mcu_per_row, unit / mcu_per_row);
    let pixel_base = layout::INPUT + (my * 8 * IMG_W + mx * 8);
    let coeff_base = layout::OUTPUT + unit * 128; // 64 i16 coefficients
    let mut code = CodeWalker::new(layout::CODE, 24);

    for row in 0..8u64 {
        for col in 0..8u64 {
            code.fetch_into(2, out);
            let pixel = pixel_base + row * IMG_W + col;
            let coeff = coeff_base + (row * 8 + col) * 2;
            if encode {
                out.push(Record::read(pixel));
            } else {
                out.push(Record::read(coeff));
            }
            // DCT workspace: a hot 64-entry i32 scratch block.
            out.push(Record::write(layout::WORK + (row * 8 + col) * 4));
        }
    }
    // Transform + quantise: workspace read/write sweeps and table lookups.
    let mut helper = CodeWalker::new(layout::CODE + 0x200, 40);
    for i in 0..64u64 {
        helper.fetch_into(3, out);
        out.push(Record::read(layout::WORK + i * 4));
        out.push(Record::read(layout::TABLES + i * 2)); // quant table
        if encode {
            out.push(Record::write(coeff_base + i * 2));
        } else {
            // Huffman/zigzag tables with skewed popularity.
            let e = rng.gen_range(0..256u64);
            out.push(Record::read(layout::TABLES + 0x400 + ((e * e) >> 8) * 2));
            out.push(Record::write(pixel_base + (i / 8) * IMG_W + (i % 8)));
        }
    }
}

/// One G.721 ADPCM sample: streaming input, a ~26-word predictor state that
/// is touched many times per sample, small quantiser tables, nibble output.
fn g721_unit(out: &mut Vec<Record>, rng: &mut SmallRng, encode: bool) {
    let sample = out.len() as u64 / 60;
    let mut code = CodeWalker::new(layout::CODE + 0x1000, 52);

    code.fetch_into(3, out);
    if encode {
        out.push(Record::read(layout::INPUT + sample * 2)); // 16-bit PCM in
    } else {
        out.push(Record::read(layout::INPUT + sample / 2)); // packed nibbles in
    }
    // Predictor update: the hot state struct dominates (b-coefficients,
    // delayed samples, step size), read-modify-write.
    for w in 0..13u64 {
        code.fetch_into(2, out);
        out.push(Record::read(layout::STATE + w * 4));
        if w % 3 == 0 {
            out.push(Record::write(layout::STATE + w * 4));
        }
    }
    // Log-quantiser table lookups (skewed: quiet samples hit low entries).
    let mut helper = CodeWalker::new(layout::CODE + 0x1200, 16);
    for _ in 0..4 {
        helper.fetch_into(2, out);
        let idx = (rng.gen_range(0..16u64) * rng.gen_range(0..16u64)) >> 4;
        out.push(Record::read(layout::TABLES + 0x800 + idx * 2));
    }
    code.fetch_into(2, out);
    if encode {
        out.push(Record::write(layout::OUTPUT + sample / 2)); // nibble out
    } else {
        out.push(Record::write(layout::OUTPUT + sample * 2)); // PCM out
    }
}

/// Macroblock geometry of the MPEG2 models.
const MB: u64 = 16;

/// One MPEG2-encode macroblock: read the current block, scan candidate
/// positions of a search window in the reference frame (the dominant,
/// high-reuse phase), then write reconstruction and coefficients.
fn mpeg2_encode_unit(out: &mut Vec<Record>, rng: &mut SmallRng) {
    let mb_per_row = IMG_W / MB;
    let mb_count = mb_per_row * (IMG_H / MB);
    let unit = (out.len() as u64 / 3600) % mb_count;
    let (mx, my) = (unit % mb_per_row, unit / mb_per_row);
    let cur_base = layout::INPUT + (my * MB * IMG_W + mx * MB);
    let mut code = CodeWalker::new(layout::CODE + 0x2000, 32);

    // Load the current macroblock once.
    for row in 0..MB {
        code.fetch_into(2, out);
        for col in (0..MB).step_by(4) {
            out.push(Record::read(cur_base + row * IMG_W + col));
        }
    }
    // Three-step-search style motion estimation: candidate displacements
    // re-read overlapping reference rows (spatial + temporal reuse).
    let mut search = CodeWalker::new(layout::CODE + 0x2400, 48);
    for step in [4i64, 2, 1] {
        for (dy, dx) in [
            (0i64, 0i64),
            (-1, 0),
            (1, 0),
            (0, -1),
            (0, 1),
            (-1, -1),
            (1, 1),
        ] {
            let ry = (my * MB) as i64 + dy * step + rng.gen_range(-1i64..=1);
            let rx = (mx * MB) as i64 + dx * step + rng.gen_range(-1i64..=1);
            let ry = ry.clamp(0, (IMG_H - MB) as i64) as u64;
            let rx = rx.clamp(0, (IMG_W - MB) as i64) as u64;
            let cand = layout::REF_FRAME + ry * IMG_W + rx;
            for row in 0..MB {
                search.fetch_into(2, out);
                for col in (0..MB).step_by(4) {
                    out.push(Record::read(cand + row * IMG_W + col));
                }
            }
        }
    }
    // Residual transform and output.
    for i in 0..64u64 {
        code.fetch_into(1, out);
        out.push(Record::read(layout::TABLES + i * 2));
        out.push(Record::write(layout::OUTPUT + unit * 256 + i * 4));
    }
}

/// One MPEG2-decode macroblock: coefficient input, IDCT workspace sweeps,
/// one motion-compensated copy from the reference frame.
fn mpeg2_decode_unit(out: &mut Vec<Record>, rng: &mut SmallRng) {
    let mb_per_row = IMG_W / MB;
    let mb_count = mb_per_row * (IMG_H / MB);
    let unit = (out.len() as u64 / 1300) % mb_count;
    let (mx, my) = (unit % mb_per_row, unit / mb_per_row);
    let out_base = layout::OUTPUT + (my * MB * IMG_W + mx * MB);
    let mut code = CodeWalker::new(layout::CODE + 0x3000, 36);

    // Coefficients in, IDCT over four 8x8 blocks in a hot workspace.
    for blk in 0..4u64 {
        for i in 0..64u64 {
            code.fetch_into(2, out);
            out.push(Record::read(layout::INPUT + unit * 512 + blk * 128 + i * 2));
            out.push(Record::write(layout::WORK + 0x100 + i * 4));
            if i % 8 == 7 {
                out.push(Record::read(layout::WORK + 0x100 + (i - 7) * 4));
            }
        }
    }
    // Motion compensation: copy a displaced reference macroblock.
    let dy = rng.gen_range(-8i64..=8);
    let dx = rng.gen_range(-8i64..=8);
    let ry = ((my * MB) as i64 + dy).clamp(0, (IMG_H - MB) as i64) as u64;
    let rx = ((mx * MB) as i64 + dx).clamp(0, (IMG_W - MB) as i64) as u64;
    let mc = layout::REF_FRAME + ry * IMG_W + rx;
    let mut copy = CodeWalker::new(layout::CODE + 0x3400, 12);
    for row in 0..MB {
        copy.fetch_into(2, out);
        for col in (0..MB).step_by(4) {
            out.push(Record::read(mc + row * IMG_W + col));
            out.push(Record::write(out_base + row * IMG_W + col));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dew_trace::{AccessKind, TraceStats};

    #[test]
    fn exact_lengths_and_determinism() {
        for app in App::ALL {
            let t1 = app.generate(5_000, 7);
            let t2 = app.generate(5_000, 7);
            assert_eq!(t1.len(), 5_000, "{app}");
            assert_eq!(t1, t2, "{app} deterministic per seed");
            // JPEG encode is a fully deterministic pipeline (no stochastic
            // component); every other surrogate draws from its RNG.
            if app != App::JpegEncode {
                let t3 = app.generate(5_000, 8);
                assert_ne!(t1, t3, "{app} varies with seed");
            }
        }
    }

    #[test]
    fn traces_mix_all_access_kinds() {
        for app in App::ALL {
            let stats = app.generate(30_000, 1).stats();
            for kind in AccessKind::ALL {
                assert!(stats.count(kind) > 0, "{app} lacks {kind} accesses");
            }
            let f = stats.ifetch_fraction();
            assert!((0.2..0.8).contains(&f), "{app} ifetch fraction {f}");
        }
    }

    #[test]
    fn paper_request_counts_match_table2() {
        let total: u64 = App::ALL.iter().map(|a| a.paper_requests()).sum();
        assert_eq!(
            total,
            25_680_911 + 7_617_458 + 154_999_563 + 154_856_346 + 3_738_851_450 + 1_411_434_040
        );
    }

    #[test]
    fn apps_have_distinct_locality_signatures() {
        let mut footprints = Vec::new();
        for app in App::ALL {
            let t = app.generate(40_000, 3);
            let mut s = TraceStats::new();
            for r in &t {
                s.observe(*r);
            }
            footprints.push((app, s.unique_blocks(4).expect("tracked")));
        }
        // G721's footprint (tiny hot state + streaming) is far below MPEG2
        // encode's (large search windows over a frame).
        let g721 = footprints
            .iter()
            .find(|(a, _)| *a == App::G721Encode)
            .expect("present")
            .1;
        let mpeg2 = footprints
            .iter()
            .find(|(a, _)| *a == App::Mpeg2Encode)
            .expect("present")
            .1;
        assert!(mpeg2 > g721, "mpeg2 {mpeg2} vs g721 {g721}");
    }

    #[test]
    fn regions_do_not_collide() {
        use super::layout::*;
        let mut bases = [CODE, INPUT, OUTPUT, TABLES, STATE, WORK, REF_FRAME];
        bases.sort_unstable();
        for w in bases.windows(2) {
            assert!(w[1] - w[0] >= 0x0010_0000, "regions at least 1 MiB apart");
        }
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(App::JpegEncode.name(), "CJPEG");
        assert_eq!(App::Mpeg2Decode.name(), "MPEG2_Dec");
        assert_eq!(App::ALL.len(), 6);
    }
}
