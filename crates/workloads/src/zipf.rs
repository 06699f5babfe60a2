//! A small table-based Zipf sampler used to shape temporal locality.
//!
//! Memory reuse distances in real programs are heavy-tailed; sampling
//! popularity ranks from a Zipf distribution is the standard way to
//! synthesise traces with controllable locality (see the Zipf mixes of
//! [`crate::traffic`]).

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
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
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
        Zipf { cdf }
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
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
