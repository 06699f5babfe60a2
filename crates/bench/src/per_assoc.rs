//! The retired per-associativity tree's fast FIFO pass (default options; no
//! counters, wave pointers, MRE entries or snapshots), kept only as the
//! denominator of `hot_loop`'s `speedup_fused_vs_per_assoc`, which
//! `bench_guard` gates hard. Every other single pass runs on `Arena::for_pass`.

use dew_core::PassConfig;

const INVALID_TAG: u64 = u64::MAX;

/// A node's FIFO state, padded to the retired tree's 24-byte node record.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    fifo_ptr: u32,
    valid: u32,
    _ladder: [u32; 4],
}

/// One FIFO pass over set counts `2^min_set_bits..=2^max_set_bits` at one
/// associativity; see the module docs.
#[derive(Debug, Clone)]
pub struct PerAssocPass {
    assoc: usize,
    mra: Vec<u64>,
    nodes: Vec<Node>,
    /// Way tags, node `i`'s list at `tags[i * assoc..][..assoc]`.
    tags: Vec<u64>,
    node_off: Vec<usize>,
    set_mask: Vec<u64>,
    misses: Vec<u64>,
    dm_misses: Vec<u64>,
}

impl PerAssocPass {
    /// An empty forest for `pass`.
    pub fn new(pass: PassConfig) -> Self {
        let bits = pass.min_set_bits()..=pass.max_set_bits();
        let first = pass.min_set_bits();
        let node_off = bits.clone().map(|b| (1 << b) - (1 << first)).collect();
        let set_mask: Vec<u64> = bits.map(|b| (1 << b) - 1).collect();
        let (assoc, levels) = (pass.assoc() as usize, set_mask.len());
        let total = pass.num_nodes() as usize;
        PerAssocPass {
            assoc,
            mra: vec![INVALID_TAG; total],
            nodes: vec![Node::default(); total],
            tags: vec![INVALID_TAG; total * assoc],
            node_off,
            set_mask,
            misses: vec![0; levels],
            dm_misses: vec![0; levels],
        }
    }

    /// Misses per level at the pass associativity, smallest set count first.
    pub fn misses(&self) -> &[u64] {
        &self.misses
    }

    /// Simulates a batch of pre-decoded block numbers; panics on the
    /// invalid-way sentinel.
    pub fn run_blocks(&mut self, blocks: &[u64]) {
        match self.assoc {
            1 => self.run::<1>(blocks),
            2 => self.run::<2>(blocks),
            _ => self.run::<0>(blocks),
        }
    }

    fn run<const ASSOC: usize>(&mut self, blocks: &[u64]) {
        for &block in blocks {
            assert_ne!(block, INVALID_TAG, "block out of range");
            self.step::<ASSOC>(block);
        }
    }

    fn step<const ASSOC: usize>(&mut self, block: u64) {
        let assoc = if ASSOC == 0 { self.assoc } else { ASSOC };
        let PerAssocPass {
            mra,
            nodes,
            tags,
            node_off,
            set_mask,
            misses,
            dm_misses,
            ..
        } = self;
        let levels = set_mask
            .iter()
            .zip(node_off.iter())
            .zip(misses.iter_mut().zip(dm_misses.iter_mut()));
        for ((&mask, &off), (level_misses, level_dm_misses)) in levels {
            let node = off + (block & mask) as usize;
            if mra[node] == block {
                return; // Property 2: a hit here and at every larger set count.
            }
            *level_dm_misses += 1;
            mra[node] = block;
            let base = node * assoc;
            let mut hit_way = usize::MAX;
            for (i, &tag) in tags[base..base + assoc].iter().enumerate() {
                hit_way = if tag == block { i } else { hit_way };
            }
            if hit_way == usize::MAX {
                *level_misses += 1;
                let m = &mut nodes[node];
                let slot = &mut tags[base + m.fifo_ptr as usize];
                if *slot == INVALID_TAG {
                    m.valid += 1;
                }
                *slot = block;
                m.fifo_ptr += 1;
                if m.fifo_ptr as usize == assoc {
                    m.fifo_ptr = 0;
                }
            }
        }
    }
}
