//! A table-based Zipf sampler used to shape temporal locality.
//!
//! Memory reuse distances in real programs are heavy-tailed; sampling
//! popularity ranks from a Zipf distribution is the standard way to
//! synthesise traces with controllable locality (see the Zipf mixes of
//! [`crate::traffic`], which share one immutable table process-wide).
//!
//! A draw inverts the CDF at a uniform `u`. A guide table of `M` buckets
//! (`M` the power of two at or above the rank count) stores, for each
//! bucket edge `j / M`, the first rank whose CDF value reaches it, so a
//! draw searches only the ranks between its bucket's two edges instead of
//! the whole table. `M` being a power of two makes `u * M` and `j / M`
//! exact in `f64`: no rounding can put `u` in a bucket whose edges do not
//! bracket its rank, and the rank returned is exactly the one a binary
//! search over the whole CDF returns.

use rand::Rng;

/// Zipf distribution over `0..n` with exponent `s`: weight of rank `k` is
/// `1 / (k + 1)^s`.
///
/// # Examples
///
/// ```
/// use dew_workloads::zipf::Zipf;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let z = Zipf::new(100, 1.0);
/// let mut rng = SmallRng::seed_from_u64(7);
/// let samples: Vec<usize> = (0..1000).map(|_| z.sample(&mut rng)).collect();
/// // Rank 0 is the most popular by a wide margin.
/// let zeros = samples.iter().filter(|&&x| x == 0).count();
/// let nineties = samples.iter().filter(|&&x| x >= 90).count();
/// assert!(zeros > nineties);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF value is at least `j / M`,
    /// for `j` in `0..=M` with `M = guide.len() - 1` a power of two (`n`
    /// when no CDF value reaches the edge).
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n` exceeds `u32::MAX`, or `s` is not finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(u32::try_from(n).is_ok(), "zipf ranks must fit in u32");
        assert!(s.is_finite(), "zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        let buckets = n.next_power_of_two();
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut rank = 0;
        for j in 0..=buckets {
            let edge = j as f64 / buckets as f64;
            rank += cdf[rank..].partition_point(|&c| c < edge);
            guide.push(rank as u32);
        }
        Zipf { cdf, guide }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `false`: the sampler always has at least one rank.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one rank in `0..len()`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank(rng.gen())
    }

    /// The rank a uniform `u` in `[0, 1)` maps to: the first rank whose CDF
    /// value is at least `u`, or the last rank when none is.
    fn rank(&self, u: f64) -> usize {
        let buckets = self.guide.len() - 1;
        // Exact: `buckets` is a power of two, so `j / buckets <= u` and
        // `u < (j + 1) / buckets` hold without rounding, and the rank lies
        // between the two guide entries.
        let j = ((u * buckets as f64) as usize).min(buckets - 1);
        let lo = self.guide[j] as usize;
        let hi = self.guide[j + 1] as usize;
        let rank = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        rank.min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(10, 1.2);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn exponent_zero_is_roughly_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn higher_exponent_concentrates_mass() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut head_share = |s: f64| {
            let z = Zipf::new(50, s);
            let hits = (0..20_000).filter(|_| z.sample(&mut rng) == 0).count();
            hits as f64 / 20_000.0
        };
        assert!(head_share(2.0) > head_share(0.5));
    }

    /// The rank the sampler returned before the guide table: a binary
    /// search over the whole CDF.
    fn searched(z: &Zipf, u: f64) -> usize {
        match z
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) | Err(i) => i.min(z.cdf.len() - 1),
        }
    }

    /// The largest `f64` below `1.0`.
    const BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

    /// `u` and its neighbours one ulp either side, kept inside `[0, 1)`.
    fn around(u: f64) -> impl Iterator<Item = f64> {
        let bits = u.to_bits();
        [bits.saturating_sub(1), bits, bits + 1]
            .into_iter()
            .map(f64::from_bits)
            .filter(|v| (0.0..1.0).contains(v))
    }

    #[test]
    fn every_guide_edge_maps_to_the_searched_rank() {
        // The serve traffic table and a few small shapes, including a rank
        // count that is not a power of two.
        for (n, s) in [(1 << 18, 0.8), (1000, 1.2), (5, 0.0), (1, 3.0)] {
            let z = Zipf::new(n, s);
            let buckets = z.guide.len() - 1;
            assert!(buckets.is_power_of_two() && buckets >= n);
            for j in 0..=buckets {
                for u in around(j as f64 / buckets as f64) {
                    assert_eq!(z.rank(u), searched(&z, u), "n {n} s {s} edge {j} u {u:e}");
                }
            }
            for u in [0.0, BELOW_ONE] {
                assert_eq!(z.rank(u), searched(&z, u), "n {n} s {s} u {u:e}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn guide_sample_is_the_searched_rank(
            n in 1usize..5000,
            tenths in 0u32..30,
            draws in prop::collection::vec(any::<u64>(), 1..200),
            at in prop::collection::vec(0usize..5000, 1..50),
        ) {
            let z = Zipf::new(n, f64::from(tenths) / 10.0);
            // Uniform draws the way `rand` makes them: 53 random bits.
            let uniform = draws.iter().map(|&x| (x >> 11) as f64 / (1u64 << 53) as f64);
            // CDF values themselves, where the search flips, and one ulp
            // either side.
            let cdf_edges = at.iter().flat_map(|&k| around(z.cdf[k % n]));
            for u in uniform.chain(cdf_edges).chain([0.0, BELOW_ONE]) {
                prop_assert_eq!(z.rank(u), searched(&z, u), "n {} u {:e}", n, u);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panic() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn single_rank_always_zero() {
        let z = Zipf::new(1, 3.0);
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }
}
