//! Stable structural digests of graphs.
//!
//! Every random generator in [`crate::generators`] is pinned by a
//! seed-stability test: a fixed seed must keep hashing to the same
//! [`edge_digest`] forever, so refactors of a generator (or of the RNG
//! plumbing underneath it) cannot silently change the inputs of every
//! experiment in the workspace. The scenario engine records the same
//! digest per cell in `BENCH_scenarios.json`, which makes two runs
//! comparable at a glance: same digest, same instance.
//!
//! The digest is FNV-1a over a canonical byte stream — `n`, `m`, then
//! every undirected edge `(u, v)` with `u < v` in CSR (i.e. sorted)
//! order, then the weight vector when it is not all-ones. It is a
//! change-detector, not a cryptographic commitment.

use crate::{Graph, GraphDelta};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k = 0..=8`, in wrapping arithmetic.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Folds one little-endian `u64` into an FNV-1a state.
///
/// FNV-1a folds a byte as `h = (h ^ byte)·P`. A zero byte's xor is a
/// no-op, so the word's zero high bytes fold as one multiply by the
/// matching power of `P`, which merges into the multiply of the last
/// nonzero byte; this is exact in wrapping arithmetic. A node id below
/// 2¹⁶ then costs 2 multiplies instead of 8. The tests pin the result
/// against the bytewise fold.
fn fold(mut h: u64, word: u64) -> u64 {
    // Bytes up to the highest nonzero one; at least one, for the zero word.
    let len = (8 - word.leading_zeros() / 8).max(1) as usize;
    let bytes = word.to_le_bytes();
    for &byte in &bytes[..len - 1] {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    (h ^ u64::from(bytes[len - 1])).wrapping_mul(PRIME_POWERS[9 - len])
}

/// A stable 64-bit digest of the graph's structure (and non-unit weights).
///
/// Two graphs compare equal iff they have the same node count, the same
/// edge set, and the same weights — and equal graphs always produce equal
/// digests, regardless of the order edges were inserted (the CSR
/// canonicalizes adjacency).
///
/// # Example
///
/// ```
/// use arbodom_graph::{digest, generators};
/// use rand::SeedableRng;
///
/// let a = generators::gnp(100, 0.05, &mut rand::rngs::StdRng::seed_from_u64(7));
/// let b = generators::gnp(100, 0.05, &mut rand::rngs::StdRng::seed_from_u64(7));
/// assert_eq!(digest::edge_digest(&a), digest::edge_digest(&b));
/// ```
pub fn edge_digest(g: &Graph) -> u64 {
    let mut h = FNV_OFFSET;
    h = fold(h, g.n() as u64);
    h = fold(h, g.m() as u64);
    // `Graph::edges` order, straight over the CSR arrays: lists are
    // sorted, so u's edges to higher ids are a suffix of its list.
    let (offsets, neighbors) = g.csr();
    for (u, range) in offsets.windows(2).enumerate() {
        let adj = &neighbors[range[0] as usize..range[1] as usize];
        for v in &adj[adj.partition_point(|v| v.index() <= u)..] {
            h = fold(h, u as u64);
            h = fold(h, v.get() as u64);
        }
    }
    if let Some(ws) = g.explicit_weights() {
        for &w in ws {
            h = fold(h, w);
        }
    }
    h
}

/// Advances a digest chain by one [`GraphDelta`] hop.
///
/// A dynamic instance is identified by its *history*: the
/// [`edge_digest`] of the base graph folded with every delta batch
/// applied since, in order. Two sessions hold byte-identical graphs iff
/// they started from the same base and applied the same batches in the
/// same sequence — which is exactly what the chain certifies. Note the
/// chain digest is **not** the `edge_digest` of the mutated graph (two
/// histories can reach the same structure); it identifies the path, not
/// just the endpoint, and every hop — even an empty batch — advances it.
///
/// # Example
///
/// ```
/// use arbodom_graph::{digest, Graph, GraphDelta};
///
/// let g = Graph::from_edges(3, [(0, 1)])?;
/// let d = GraphDelta::new([(1, 2)], [])?;
/// let chained = digest::chain_digest(digest::edge_digest(&g), &d);
/// assert_ne!(chained, digest::edge_digest(&g));
/// # Ok::<(), arbodom_graph::GraphError>(())
/// ```
pub fn chain_digest(parent: u64, delta: &GraphDelta) -> u64 {
    let mut h = fold(FNV_OFFSET, parent);
    h = fold(h, delta.inserts().len() as u64);
    for &(u, v) in delta.inserts() {
        h = fold(h, u.get() as u64);
        h = fold(h, v.get() as u64);
    }
    h = fold(h, delta.deletes().len() as u64);
    for &(u, v) in delta.deletes() {
        h = fold(h, u.get() as u64);
        h = fold(h, v.get() as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference fold: FNV-1a over the word's eight little-endian
    /// bytes, one xor and one multiply each.
    fn bytewise_fold(mut h: u64, word: u64) -> u64 {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// [`edge_digest`] over the same byte stream with the reference fold.
    fn bytewise_edge_digest(g: &crate::Graph) -> u64 {
        let mut h = FNV_OFFSET;
        h = bytewise_fold(h, g.n() as u64);
        h = bytewise_fold(h, g.m() as u64);
        for (u, v) in g.edges() {
            h = bytewise_fold(h, u.get() as u64);
            h = bytewise_fold(h, v.get() as u64);
        }
        if let Some(ws) = g.explicit_weights() {
            for &w in ws {
                h = bytewise_fold(h, w);
            }
        }
        h
    }

    /// Strategy: graphs whose node ids pass 2⁸ or 2¹⁶, with unit weights
    /// or with weights of every byte length, and the graphs on zero and
    /// one node.
    fn arb_digest_graph() -> impl Strategy<Value = crate::Graph> {
        (0u64..1_000, 0usize..3, prop::bool::ANY).prop_map(|(seed, size, weighted)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = match size {
                0 => (seed % 2) as u32,
                1 => 257 + (seed % 700) as u32,
                _ => 65_537 + (seed % 3_000) as u32,
            };
            let edges: Vec<(u32, u32)> = (0..if n > 1 { 120 } else { 0 })
                .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                .filter(|&(u, v)| u != v)
                .collect();
            let g = crate::Graph::from_edges(n as usize, edges).expect("edges are in range");
            if !weighted {
                return g;
            }
            let weights = (0..n)
                .map(|_| (rng.random::<u64>() >> rng.random_range(0..64u32)).max(1))
                .collect();
            g.with_weights(weights).expect("weights are positive")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fold_matches_the_bytewise_fold(h: u64, word: u64, shift in 0u32..64) {
            // Shifting covers every byte length, down to the zero word.
            for w in [word, word >> shift, 0] {
                prop_assert_eq!(fold(h, w), bytewise_fold(h, w));
            }
        }

        #[test]
        fn edge_digest_matches_the_bytewise_fold(g in arb_digest_graph()) {
            prop_assert_eq!(edge_digest(&g), bytewise_edge_digest(&g));
        }
    }

    #[test]
    fn edge_digest_matches_the_bytewise_fold_past_2_pow_24() {
        let top = 1u32 << 24;
        let g = crate::Graph::from_edges(
            top as usize + 2,
            [(0, top + 1), (300, top), (70_000, top + 1), (top, top + 1)],
        )
        .expect("edges are in range");
        assert_eq!(edge_digest(&g), bytewise_edge_digest(&g));
    }

    #[test]
    fn digest_is_structure_sensitive() {
        let p4 = generators::path(4);
        let c4 = generators::cycle(4);
        assert_ne!(edge_digest(&p4), edge_digest(&c4));
        assert_ne!(
            edge_digest(&generators::path(4)),
            edge_digest(&generators::path(5))
        );
        assert_eq!(edge_digest(&p4), edge_digest(&generators::path(4)));
    }

    #[test]
    fn digest_sees_weights() {
        let g = generators::path(3);
        let w = g.with_weights(vec![1, 2, 3]).unwrap();
        assert_ne!(edge_digest(&g), edge_digest(&w));
    }

    #[test]
    fn digest_ignores_insertion_order() {
        let a = crate::Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let b = crate::Graph::from_edges(3, [(1, 2), (0, 1)]).unwrap();
        assert_eq!(edge_digest(&a), edge_digest(&b));
    }

    #[test]
    fn digest_distinguishes_random_seeds() {
        let g1 = generators::random_tree(50, &mut StdRng::seed_from_u64(1));
        let g2 = generators::random_tree(50, &mut StdRng::seed_from_u64(2));
        assert_ne!(edge_digest(&g1), edge_digest(&g2));
    }
}
