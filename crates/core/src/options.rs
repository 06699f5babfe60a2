//! Simulation options: replacement policy of the simulated caches and the
//! per-property toggles used for the paper's Table 4 ablation.

use std::fmt;

use crate::space::DewError;

/// Replacement policy simulated by a DEW tree's tag lists.
///
/// The paper's target is [`TreePolicy::Fifo`]. [`TreePolicy::Lru`] backs the
/// paper's Section 2.1 remark that DEW "can simulate caches with the LRU
/// replacement policy, but will typically be slower" than LRU-specialised
/// methods: without a stack property DEW needs one pass per associativity,
/// while an LRU tree answers every associativity in one (the `lru_compare`
/// bench).
///
/// Every policy runs on its own arena kernel, and every one of them stops
/// the walk at an MRA hit (Property 2); only FIFO's stop is a toggle
/// ([`DewOptions::mra_stop`], for the Table 4 ablation):
/// [`crate::lru_tree`] (an MRU block stays MRU at every larger set count),
/// [`crate::plru_tree`] for [`TreePolicy::Plru`] (tree pseudo-LRU, the
/// policy real embedded L1s ship; re-touching the MRA way is a no-op), and
/// [`crate::slru_tree`] for [`TreePolicy::Slru`] (segmented LRU,
/// scan-resistant; it stops once a node is *settled*, because a first MRA
/// re-hit may still promote the block). Each module states its argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TreePolicy {
    /// First-in first-out tag lists (the paper's subject).
    #[default]
    Fifo,
    /// Least-recently-used tag lists (see above).
    Lru,
    /// Tree pseudo-LRU: one direction bit per internal node of a binary tree
    /// over the ways approximates LRU (power-of-two associativity only).
    Plru,
    /// Segmented LRU: a protected segment (capacity `assoc / 2`) fed by hits
    /// out of a probationary segment; victims always come from the
    /// probationary side, making the policy scan-resistant.
    Slru,
}

impl fmt::Display for TreePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl TreePolicy {
    /// Every policy the fused sweep drivers support, in canonical order.
    pub const ALL: [TreePolicy; 4] = [
        TreePolicy::Fifo,
        TreePolicy::Lru,
        TreePolicy::Plru,
        TreePolicy::Slru,
    ];

    /// A short lowercase name (`fifo`, `lru`, `plru`, `slru`) — the wire
    /// spelling used by the CLI flags and the serve protocol.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            TreePolicy::Fifo => "fifo",
            TreePolicy::Lru => "lru",
            TreePolicy::Plru => "plru",
            TreePolicy::Slru => "slru",
        }
    }

    /// Parses a [`TreePolicy::name`] spelling.
    #[must_use]
    pub fn from_name(name: &str) -> Option<TreePolicy> {
        TreePolicy::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Per-property toggles for DEW's optimisations (paper Section 3.2).
///
/// The properties are pure *optimisations*: disabling any combination must
/// not change the simulated miss counts, only the amount of work performed —
/// an invariant the test-suite checks exhaustively. All properties default to
/// enabled.
///
/// * `mra_stop` — Property 2: when the requested tag equals a node's MRA tag,
///   stop the walk and count hits for every larger set count. A toggle of
///   the FIFO kernels only (for the Table 4 ablation); the LRU, tree-PLRU
///   and SLRU arena kernels stop unconditionally (see [`TreePolicy`]).
/// * `wave` — Property 3: use (and maintain) wave pointers to decide hit or
///   miss with one comparison instead of a tag-list search.
/// * `mre` — Property 4: use (and maintain) the most-recently-evicted entry
///   to decide misses without a search, and to preserve wave pointers across
///   evict/re-insert cycles.
/// * `dup_elision` — *extension* (off by default): skip a request whose
///   block equals the immediately preceding request's block, in the spirit
///   of Tojo et al.'s CRCB enhancements, whose "findings … are also true for
///   FIFO replacement policy" (paper Section 2). Sound for FIFO, LRU and
///   tree-PLRU: a repeated block hits at every level, FIFO hits change
///   nothing, the LRU recency order within every set is unaffected because
///   no other block intervened, and re-touching a way is idempotent on the
///   PLRU direction bits. Unsound for SLRU, where a repeated access promotes
///   a probationary block ([`DewOptions::validate`] rejects it).
///
/// # Examples
///
/// ```
/// use dew_core::DewOptions;
///
/// let all_on = DewOptions::default();
/// assert!(all_on.mra_stop && all_on.wave && all_on.mre);
/// assert!(!all_on.dup_elision, "the CRCB-style extension is opt-in");
///
/// // Property-1-only DEW: the "unoptimized" baseline of Table 4.
/// let plain = DewOptions::unoptimized();
/// assert!(!plain.mra_stop && !plain.wave && !plain.mre);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DewOptions {
    /// Property 2: MRA early termination (and free direct-mapped results).
    pub mra_stop: bool,
    /// Property 3: wave pointers.
    pub wave: bool,
    /// Property 4: most-recently-evicted entry.
    pub mre: bool,
    /// CRCB-style consecutive-duplicate elision (extension, off by default).
    pub dup_elision: bool,
    /// Replacement policy of the simulated tag lists.
    pub policy: TreePolicy,
}

impl Default for DewOptions {
    fn default() -> Self {
        DewOptions {
            mra_stop: true,
            wave: true,
            mre: true,
            dup_elision: false,
            policy: TreePolicy::Fifo,
        }
    }
}

impl DewOptions {
    /// All properties enabled, FIFO policy (the paper's configuration).
    #[must_use]
    pub fn new() -> Self {
        DewOptions::default()
    }

    /// Only Property 1 (the binomial tree) — every node on the path is
    /// evaluated with a full search. Table 4's worst-case baseline.
    #[must_use]
    pub fn unoptimized() -> Self {
        DewOptions {
            mra_stop: false,
            wave: false,
            mre: false,
            dup_elision: false,
            policy: TreePolicy::Fifo,
        }
    }

    /// The sound preset for `policy`: [`DewOptions::default`] for FIFO, and
    /// for every other policy the same with the FIFO-only `mra_stop` toggle
    /// off, as [`DewOptions::validate`] requires. The LRU and tree-PLRU
    /// kernels stop at an MRA hit on their own, and the SLRU kernel at
    /// settled nodes; the wave/MRE toggles are carried but only the FIFO
    /// ladder spends them. Duplicate elision stays off: it is opt-in for
    /// every policy and unsound for SLRU (a repeated access promotes a
    /// probationary block, so skipping it would change state). The one entry
    /// point the CLI, the exploration engine and the serve protocol all use
    /// to map a policy name to kernel options.
    #[must_use]
    pub fn for_policy(policy: TreePolicy) -> Self {
        DewOptions {
            mra_stop: policy == TreePolicy::Fifo,
            policy,
            ..DewOptions::default()
        }
    }

    /// Checks the combination for soundness.
    ///
    /// # Errors
    ///
    /// [`DewError::UnsoundOptions`] when `mra_stop` is combined with any
    /// policy other than [`TreePolicy::Fifo`] (the toggle is FIFO-only: the
    /// arena kernels of the other policies apply their own stop), or when
    /// `dup_elision` is combined with
    /// [`TreePolicy::Slru`] (a repeated access promotes a probationary
    /// block, so skipping it changes state).
    pub fn validate(&self) -> Result<(), DewError> {
        if self.mra_stop && self.policy != TreePolicy::Fifo {
            return Err(DewError::UnsoundOptions(
                "the mra_stop toggle is FIFO-only: the LRU, tree-PLRU and SLRU kernels apply \
                 their own MRA stop",
            ));
        }
        if self.dup_elision && self.policy == TreePolicy::Slru {
            return Err(DewError::UnsoundOptions(
                "duplicate elision is unsound under SLRU: a repeated access promotes a \
                 probationary block, so skipping it changes replacement state",
            ));
        }
        Ok(())
    }

    /// Enumerates the 8 on/off combinations of the three properties at a
    /// given policy, skipping unsound ones (used by the ablation bench).
    #[must_use]
    pub fn ablation_grid(policy: TreePolicy) -> Vec<DewOptions> {
        let mut grid = Vec::new();
        for bits in 0..8u8 {
            let opts = DewOptions {
                mra_stop: bits & 1 != 0,
                wave: bits & 2 != 0,
                mre: bits & 4 != 0,
                dup_elision: false,
                policy,
            };
            if opts.validate().is_ok() {
                grid.push(opts);
            }
        }
        grid
    }
}

impl fmt::Display for DewOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[mra:{} wave:{} mre:{}{}]",
            self.policy,
            if self.mra_stop { "on" } else { "off" },
            if self.wave { "on" } else { "off" },
            if self.mre { "on" } else { "off" },
            if self.dup_elision { " dup-elision" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let o = DewOptions::new();
        assert!(o.mra_stop && o.wave && o.mre);
        assert_eq!(o.policy, TreePolicy::Fifo);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn lru_with_mra_stop_is_rejected() {
        let o = DewOptions {
            policy: TreePolicy::Lru,
            ..DewOptions::default()
        };
        assert!(matches!(o.validate(), Err(DewError::UnsoundOptions(_))));
        assert!(DewOptions::for_policy(TreePolicy::Lru).validate().is_ok());
    }

    #[test]
    fn ablation_grid_sizes() {
        assert_eq!(DewOptions::ablation_grid(TreePolicy::Fifo).len(), 8);
        // Non-FIFO policies drop the 4 combinations with mra_stop on.
        assert_eq!(DewOptions::ablation_grid(TreePolicy::Lru).len(), 4);
        assert_eq!(DewOptions::ablation_grid(TreePolicy::Plru).len(), 4);
        assert_eq!(DewOptions::ablation_grid(TreePolicy::Slru).len(), 4);
    }

    #[test]
    fn policy_names_round_trip() {
        for p in TreePolicy::ALL {
            assert_eq!(TreePolicy::from_name(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(TreePolicy::from_name("rand"), None);
    }

    #[test]
    fn presets_are_sound_for_every_policy() {
        for p in TreePolicy::ALL {
            let o = DewOptions::for_policy(p);
            assert_eq!(o.policy, p);
            assert!(o.validate().is_ok(), "{p}");
            assert_eq!(o.mra_stop, p == TreePolicy::Fifo, "{p}");
        }
    }

    #[test]
    fn non_fifo_mra_stop_and_slru_dup_elision_are_rejected() {
        for p in [TreePolicy::Plru, TreePolicy::Slru] {
            let o = DewOptions {
                mra_stop: true,
                ..DewOptions::for_policy(p)
            };
            assert!(matches!(o.validate(), Err(DewError::UnsoundOptions(_))));
        }
        let o = DewOptions {
            dup_elision: true,
            ..DewOptions::for_policy(TreePolicy::Slru)
        };
        assert!(matches!(o.validate(), Err(DewError::UnsoundOptions(_))));
        // ...but duplicate elision stays sound for PLRU (touching the same
        // way twice is idempotent on the direction bits).
        let o = DewOptions {
            dup_elision: true,
            ..DewOptions::for_policy(TreePolicy::Plru)
        };
        assert!(o.validate().is_ok());
    }

    #[test]
    fn display_encodes_toggles() {
        let s = DewOptions::unoptimized().to_string();
        assert!(s.contains("mra:off"), "{s}");
        assert!(s.contains("fifo"), "{s}");
    }
}
