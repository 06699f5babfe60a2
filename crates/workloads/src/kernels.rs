//! Generic memory-locality kernels.
//!
//! Each kernel synthesises one archetypal access pattern: pure streaming
//! ([`StridedStream`]) and cache-hostile pointer chasing
//! ([`PointerChase`]). The workspace's exactness tests feed them to DEW and
//! to the reference simulator as the two locality extremes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dew_trace::{AccessKind, Record, Trace};

/// A deterministic trace generator.
///
/// Implementations append records to a caller-provided buffer so kernels can
/// be interleaved; [`Kernel::generate`] is the one-shot convenience.
pub trait Kernel {
    /// Short, stable identifier.
    fn name(&self) -> &'static str;

    /// Appends this kernel's records to `out`, drawing randomness from `rng`.
    fn emit_into(&self, rng: &mut SmallRng, out: &mut Vec<Record>);

    /// Generates the kernel's trace from a seed.
    fn generate(&self, seed: u64) -> Trace {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        self.emit_into(&mut rng, &mut out);
        Trace::from_records(out)
    }
}

/// Linear streaming: `count` accesses of `elem_bytes` each, `stride` bytes
/// apart, repeated for `passes` sweeps — a memcpy/DSP-style pattern with
/// pure spatial locality.
///
/// # Examples
///
/// ```
/// use dew_workloads::kernels::{Kernel, StridedStream};
/// use dew_trace::AccessKind;
///
/// let k = StridedStream {
///     base: 0x1000,
///     count: 8,
///     stride: 16,
///     kind: AccessKind::Read,
///     passes: 1,
/// };
/// let t = k.generate(0);
/// assert_eq!(t.len(), 8);
/// assert_eq!(t.records()[1].addr, 0x1010);
/// ```
#[derive(Debug, Clone)]
pub struct StridedStream {
    /// First element's byte address.
    pub base: u64,
    /// Number of elements per sweep.
    pub count: u64,
    /// Distance between consecutive elements in bytes.
    pub stride: u64,
    /// Kind of every access.
    pub kind: AccessKind,
    /// Number of sweeps over the element range.
    pub passes: u32,
}

impl Kernel for StridedStream {
    fn name(&self) -> &'static str {
        "strided_stream"
    }

    fn emit_into(&self, _rng: &mut SmallRng, out: &mut Vec<Record>) {
        for _ in 0..self.passes {
            for i in 0..self.count {
                out.push(Record::new(self.base + i * self.stride, self.kind));
            }
        }
    }
}

/// Pointer chasing over a random permutation cycle of `nodes` records of
/// `node_bytes` each: every access depends on the previous one and spatial
/// locality is destroyed — the worst case for caches, common in linked data
/// structures.
#[derive(Debug, Clone)]
pub struct PointerChase {
    /// Base byte address of the node pool.
    pub base: u64,
    /// Number of nodes in the cycle.
    pub nodes: u32,
    /// Size of each node in bytes.
    pub node_bytes: u32,
    /// Chase steps to perform.
    pub steps: u64,
}

impl Kernel for PointerChase {
    fn name(&self) -> &'static str {
        "pointer_chase"
    }

    fn emit_into(&self, rng: &mut SmallRng, out: &mut Vec<Record>) {
        let n = self.nodes.max(1) as usize;
        // Sattolo's algorithm: a uniform random single-cycle permutation.
        let mut next: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..i);
            next.swap(i, j);
        }
        let mut cur = 0usize;
        for _ in 0..self.steps {
            out.push(Record::read(
                self.base + cur as u64 * u64::from(self.node_bytes),
            ));
            cur = next[cur] as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_stream_is_exactly_strided() {
        let k = StridedStream {
            base: 0,
            count: 4,
            stride: 8,
            kind: AccessKind::Write,
            passes: 2,
        };
        let t = k.generate(0);
        assert_eq!(t.len(), 8);
        let addrs: Vec<u64> = t.iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0, 8, 16, 24, 0, 8, 16, 24]);
        assert!(t.iter().all(|r| r.kind == AccessKind::Write));
    }

    #[test]
    fn pointer_chase_visits_whole_cycle() {
        let k = PointerChase {
            base: 0,
            nodes: 16,
            node_bytes: 64,
            steps: 16,
        };
        let t = k.generate(9);
        let mut visited: Vec<u64> = t.iter().map(|r| r.addr / 64).collect();
        visited.sort_unstable();
        visited.dedup();
        assert_eq!(
            visited.len(),
            16,
            "a single cycle visits every node once per lap"
        );
    }

    #[test]
    fn pointer_chase_is_deterministic_per_seed() {
        let k = PointerChase {
            base: 0,
            nodes: 32,
            node_bytes: 16,
            steps: 100,
        };
        assert_eq!(k.generate(5), k.generate(5));
        assert_ne!(k.generate(5), k.generate(6));
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(
            StridedStream {
                base: 0,
                count: 1,
                stride: 1,
                kind: AccessKind::Read,
                passes: 1
            }
            .name(),
            "strided_stream"
        );
        assert_eq!(
            PointerChase {
                base: 0,
                nodes: 1,
                node_bytes: 1,
                steps: 0
            }
            .name(),
            "pointer_chase"
        );
    }
}
