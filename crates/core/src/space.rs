//! The cache-configuration search space and per-pass specifications.
//!
//! One DEW *pass* over a trace simulates every power-of-two set count in a
//! range, at one block size and one associativity (plus the free direct-mapped
//! results) — see [`PassConfig`]. A [`ConfigSpace`] describes a full
//! three-dimensional sweep like the paper's Table 1 and knows how to
//! decompose itself into the minimal list of passes.

use std::error::Error;
use std::fmt;

/// Specification of a single DEW pass: the shape of one simulation forest.
///
/// A pass simulates set counts `2^min_set_bits ..= 2^max_set_bits` at block
/// size `2^block_bits` bytes and associativity `assoc`, producing in the same
/// pass the direct-mapped (associativity 1) results for every set count
/// (paper Section 5: "Direct mapped cache results are used in both cases as
/// DEW automatically simulates it while simulating any other associativity").
///
/// When `min_set_bits > 0` the structure is a forest of `2^min_set_bits`
/// binomial trees rather than a single tree.
///
/// # Examples
///
/// ```
/// use dew_core::PassConfig;
///
/// # fn main() -> Result<(), dew_core::DewError> {
/// // The paper's Table 3 "assoc 1 & 4, block 4B" pass:
/// let pass = PassConfig::new(2, 0, 14, 4)?;
/// assert_eq!(pass.num_levels(), 15);
/// assert_eq!(pass.block_bytes(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PassConfig {
    block_bits: u32,
    min_set_bits: u32,
    max_set_bits: u32,
    assoc: u32,
}

impl PassConfig {
    /// Creates a validated pass specification.
    ///
    /// # Errors
    ///
    /// * [`DewError::EmptySetRange`] if `min_set_bits > max_set_bits`;
    /// * [`DewError::BadAssoc`] if `assoc` is zero or not a power of two;
    /// * [`DewError::TooLarge`] if `max_set_bits + block_bits > 58` (which
    ///   also guarantees block numbers can never collide with the internal
    ///   invalid-tag sentinel) or if `max_set_bits > 30`.
    pub fn new(
        block_bits: u32,
        min_set_bits: u32,
        max_set_bits: u32,
        assoc: u32,
    ) -> Result<Self, DewError> {
        if min_set_bits > max_set_bits {
            return Err(DewError::EmptySetRange {
                min_set_bits,
                max_set_bits,
            });
        }
        if assoc == 0 || !assoc.is_power_of_two() {
            return Err(DewError::BadAssoc(assoc));
        }
        if max_set_bits > 30 || block_bits > 58 - max_set_bits {
            return Err(DewError::TooLarge);
        }
        Ok(PassConfig {
            block_bits,
            min_set_bits,
            max_set_bits,
            assoc,
        })
    }

    /// `log2` of the block size in bytes.
    #[must_use]
    pub const fn block_bits(&self) -> u32 {
        self.block_bits
    }

    /// Block size in bytes.
    #[must_use]
    pub const fn block_bytes(&self) -> u32 {
        1 << self.block_bits
    }

    /// `log2` of the smallest simulated set count.
    #[must_use]
    pub const fn min_set_bits(&self) -> u32 {
        self.min_set_bits
    }

    /// `log2` of the largest simulated set count.
    #[must_use]
    pub const fn max_set_bits(&self) -> u32 {
        self.max_set_bits
    }

    /// The simulated associativity (the tag-list width of every tree node).
    #[must_use]
    pub const fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of forest levels (simulated set counts).
    #[must_use]
    pub const fn num_levels(&self) -> u32 {
        self.max_set_bits - self.min_set_bits + 1
    }

    /// Total number of tree nodes in the forest:
    /// `2^min + 2^(min+1) + … + 2^max`.
    #[must_use]
    pub const fn num_nodes(&self) -> u64 {
        (1u64 << (self.max_set_bits + 1)) - (1u64 << self.min_set_bits)
    }

    /// Storage the paper's 32-bit model assigns to this pass's forest:
    /// `Σ_levels S × (96 + 64·A)` bits (Section 5).
    #[must_use]
    pub const fn paper_model_bits(&self) -> u64 {
        self.num_nodes() * (96 + 64 * self.assoc as u64)
    }
}

impl fmt::Display for PassConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sets 2^{}..2^{}, assoc {}, block {}B",
            self.min_set_bits,
            self.max_set_bits,
            self.assoc,
            self.block_bytes()
        )
    }
}

/// A three-dimensional configuration space `S × B × A`, all powers of two.
///
/// [`ConfigSpace::paper`] reproduces Table 1 of the paper: `S = 2^0..2^14`,
/// `B = 2^0..2^6` bytes, `A = 2^0..2^4` — 525 configurations.
///
/// # Examples
///
/// ```
/// use dew_core::ConfigSpace;
///
/// let space = ConfigSpace::paper();
/// assert_eq!(space.config_count(), 525);
/// // One DEW pass is needed per (block size, associativity > 1) pair;
/// // associativity 1 rides along with every pass.
/// assert_eq!(space.passes().len(), 7 * 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigSpace {
    min_set_bits: u32,
    max_set_bits: u32,
    min_block_bits: u32,
    max_block_bits: u32,
    min_assoc_bits: u32,
    max_assoc_bits: u32,
}

impl ConfigSpace {
    /// Creates a validated space from inclusive `log2` ranges.
    ///
    /// # Errors
    ///
    /// [`DewError`] variants as for [`PassConfig::new`], applied to the
    /// extreme corners of the space, plus [`DewError::EmptySetRange`] when a
    /// range is inverted.
    pub fn new(
        set_bits: (u32, u32),
        block_bits: (u32, u32),
        assoc_bits: (u32, u32),
    ) -> Result<Self, DewError> {
        if block_bits.0 > block_bits.1 || assoc_bits.0 > assoc_bits.1 {
            return Err(DewError::EmptySetRange {
                min_set_bits: block_bits.0.max(assoc_bits.0),
                max_set_bits: block_bits.1.min(assoc_bits.1),
            });
        }
        if assoc_bits.1 >= 31 {
            return Err(DewError::BadAssoc(0));
        }
        // Validate the most demanding corner.
        PassConfig::new(block_bits.1, set_bits.0, set_bits.1, 1 << assoc_bits.1)?;
        Ok(ConfigSpace {
            min_set_bits: set_bits.0,
            max_set_bits: set_bits.1,
            min_block_bits: block_bits.0,
            max_block_bits: block_bits.1,
            min_assoc_bits: assoc_bits.0,
            max_assoc_bits: assoc_bits.1,
        })
    }

    /// The paper's Table 1 space: 15 set counts × 7 block sizes ×
    /// 5 associativities = 525 configurations.
    #[must_use]
    pub fn paper() -> Self {
        ConfigSpace::new((0, 14), (0, 6), (0, 4)).expect("paper space is valid")
    }

    /// Inclusive `log2` range of set counts.
    #[must_use]
    pub const fn set_bits(&self) -> (u32, u32) {
        (self.min_set_bits, self.max_set_bits)
    }

    /// Inclusive `log2` range of block sizes.
    #[must_use]
    pub const fn block_bits(&self) -> (u32, u32) {
        (self.min_block_bits, self.max_block_bits)
    }

    /// Inclusive `log2` range of associativities.
    #[must_use]
    pub const fn assoc_bits(&self) -> (u32, u32) {
        (self.min_assoc_bits, self.max_assoc_bits)
    }

    /// Total number of `(S, A, B)` configurations in the space.
    #[must_use]
    pub const fn config_count(&self) -> u64 {
        let s = (self.max_set_bits - self.min_set_bits + 1) as u64;
        let b = (self.max_block_bits - self.min_block_bits + 1) as u64;
        let a = (self.max_assoc_bits - self.min_assoc_bits + 1) as u64;
        s * b * a
    }

    /// Iterates every configuration as `(sets, assoc, block_bytes)`.
    pub fn configs(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        let set_range = self.min_set_bits..=self.max_set_bits;
        let this = *self;
        set_range.flat_map(move |s| {
            (this.min_assoc_bits..=this.max_assoc_bits).flat_map(move |a| {
                (this.min_block_bits..=this.max_block_bits)
                    .map(move |b| (1u32 << s, 1u32 << a, 1u32 << b))
            })
        })
    }

    /// The minimal list of DEW passes covering the space.
    ///
    /// One pass is needed per `(block size, associativity)` pair with
    /// associativity above 1; direct-mapped results ride along with every
    /// pass. When the space contains *only* associativity 1, one pass per
    /// block size with a 1-way tag list is produced.
    #[must_use]
    pub fn passes(&self) -> Vec<PassConfig> {
        let mut passes = Vec::new();
        let assoc_lo = if self.min_assoc_bits == 0 && self.max_assoc_bits > 0 {
            1
        } else {
            self.min_assoc_bits
        };
        for block_bits in self.min_block_bits..=self.max_block_bits {
            for assoc_bits in assoc_lo..=self.max_assoc_bits {
                passes.push(
                    PassConfig::new(
                        block_bits,
                        self.min_set_bits,
                        self.max_set_bits,
                        1 << assoc_bits,
                    )
                    .expect("space corners validated at construction"),
                );
            }
        }
        passes
    }

    /// `true` when `(sets, assoc, block_bytes)` lies in the space.
    #[must_use]
    pub fn contains(&self, sets: u32, assoc: u32, block_bytes: u32) -> bool {
        let in_range = |v: u32, lo: u32, hi: u32| {
            v.is_power_of_two() && {
                let bits = v.trailing_zeros();
                bits >= lo && bits <= hi
            }
        };
        in_range(sets, self.min_set_bits, self.max_set_bits)
            && in_range(assoc, self.min_assoc_bits, self.max_assoc_bits)
            && in_range(block_bytes, self.min_block_bits, self.max_block_bits)
    }
}

impl fmt::Display for ConfigSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "S=2^{}..2^{}, B=2^{}..2^{} bytes, A=2^{}..2^{} ({} configurations)",
            self.min_set_bits,
            self.max_set_bits,
            self.min_block_bits,
            self.max_block_bits,
            self.min_assoc_bits,
            self.max_assoc_bits,
            self.config_count()
        )
    }
}

/// Errors raised when building DEW structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DewError {
    /// The set-count range is inverted.
    EmptySetRange {
        /// The requested lower bound.
        min_set_bits: u32,
        /// The requested upper bound.
        max_set_bits: u32,
    },
    /// The associativity is zero or not a power of two.
    BadAssoc(u32),
    /// The geometry exceeds the supported address arithmetic.
    TooLarge,
    /// The requested option combination is unsound (e.g. the MRA early stop
    /// with LRU tag lists, whose recency state must be refreshed at every
    /// level).
    UnsoundOptions(&'static str),
    /// A streaming trace source failed mid-sweep (truncated or corrupt
    /// input, I/O failure). Carries the source error's message — the
    /// underlying `TraceError` is not `Clone`, which this error type
    /// requires.
    TraceRead(String),
    /// A resume checkpoint was rejected: wrong file format, a policy or
    /// sweep-configuration fingerprint that does not match the requested
    /// sweep, or an undecodable kernel buffer — or the checkpoint sidecar
    /// could not be written mid-sweep.
    Checkpoint(String),
    /// A sweep worker panicked while running a kernel job and `fail_fast`
    /// (or an all-jobs failure) turned it into a sweep-level error. Carries
    /// the panic message.
    WorkerPanic(String),
    /// The sweep was cancelled cooperatively (explicit request or expired
    /// deadline) under `fail_fast`, so no partial outcome was assembled.
    /// Carries the first cancelled job's description.
    Cancelled(String),
}

impl fmt::Display for DewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DewError::EmptySetRange {
                min_set_bits,
                max_set_bits,
            } => {
                write!(
                    f,
                    "empty range: min 2^{min_set_bits} > max 2^{max_set_bits}"
                )
            }
            DewError::BadAssoc(a) => {
                write!(f, "associativity must be a nonzero power of two, got {a}")
            }
            DewError::TooLarge => {
                write!(
                    f,
                    "max_set_bits must be <= 30 and max_set_bits + block_bits <= 58"
                )
            }
            DewError::UnsoundOptions(why) => write!(f, "unsound option combination: {why}"),
            DewError::TraceRead(why) => write!(f, "trace source failed mid-sweep: {why}"),
            DewError::Checkpoint(why) => write!(f, "sweep checkpoint error: {why}"),
            DewError::WorkerPanic(why) => write!(f, "sweep worker panicked: {why}"),
            DewError::Cancelled(why) => write!(f, "sweep cancelled: {why}"),
        }
    }
}

impl Error for DewError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_config_validation() {
        assert!(PassConfig::new(2, 3, 1, 4).is_err(), "inverted range");
        assert!(
            PassConfig::new(2, 0, 4, 3).is_err(),
            "non power-of-two assoc"
        );
        assert!(PassConfig::new(2, 0, 4, 0).is_err(), "zero assoc");
        assert!(PassConfig::new(40, 0, 31, 2).is_err(), "too large");
        assert!(
            PassConfig::new(6, 0, 14, 16).is_ok(),
            "paper's largest pass"
        );
    }

    #[test]
    fn pass_geometry() {
        let p = PassConfig::new(4, 2, 5, 8).expect("valid");
        assert_eq!(p.num_levels(), 4);
        assert_eq!(p.num_nodes(), 4 + 8 + 16 + 32);
        assert_eq!(p.block_bytes(), 16);
        assert_eq!(p.assoc(), 8);
    }

    #[test]
    fn paper_space_matches_table1() {
        let s = ConfigSpace::paper();
        assert_eq!(s.config_count(), 525);
        assert_eq!(s.configs().count(), 525);
        // 7 block sizes x 4 passes (assoc 2, 4, 8, 16); assoc 1 rides along.
        assert_eq!(s.passes().len(), 28);
        assert!(s.contains(1 << 14, 16, 64));
        assert!(s.contains(1, 1, 1));
        assert!(!s.contains(1 << 15, 16, 64));
        assert!(!s.contains(3, 1, 4), "non power of two never contained");
    }

    #[test]
    fn assoc_one_only_space_still_produces_passes() {
        let s = ConfigSpace::new((0, 3), (2, 2), (0, 0)).expect("valid");
        let passes = s.passes();
        assert_eq!(passes.len(), 1);
        assert_eq!(passes[0].assoc(), 1);
    }

    #[test]
    fn passes_cover_every_non_dm_config() {
        let s = ConfigSpace::new((1, 3), (0, 1), (1, 3)).expect("valid");
        let passes = s.passes();
        for (sets, assoc, block) in s.configs() {
            let covered = passes.iter().any(|p| {
                p.block_bytes() == block
                    && (p.assoc() == assoc || assoc == 1)
                    && sets.trailing_zeros() >= p.min_set_bits()
                    && sets.trailing_zeros() <= p.max_set_bits()
            });
            assert!(covered, "({sets},{assoc},{block}) uncovered");
        }
    }

    #[test]
    fn display_mentions_counts() {
        assert!(ConfigSpace::paper().to_string().contains("525"));
        let p = PassConfig::new(0, 0, 2, 2).expect("valid");
        assert!(p.to_string().contains("assoc 2"));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            DewError::EmptySetRange {
                min_set_bits: 2,
                max_set_bits: 1,
            },
            DewError::BadAssoc(3),
            DewError::TooLarge,
            DewError::UnsoundOptions("demo"),
            DewError::TraceRead("short read".into()),
            DewError::Checkpoint("fingerprint mismatch".into()),
            DewError::WorkerPanic("index out of bounds".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
