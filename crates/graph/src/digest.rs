//! Stable structural digests of graphs.
//!
//! [`edge_digest`] names a graph state: the scenario engine records it
//! per cell in `BENCH_scenarios.json`, the daemon keys its graph cache on
//! it, and every `JobResult` carries it as `graph_digest`. Same digest,
//! same instance, at a glance.
//!
//! # Definition
//!
//! The digest is built from four parts:
//!
//! * the node count `n` and the edge count `m`;
//! * the wrapping sum, over undirected edges `{u, v}` with `u < v`, of a
//!   64-bit mix of the word `u·2³² + v`;
//! * only on explicitly weighted graphs, the wrapping sum over nodes of a
//!   mix of `(v, w_v)`. Unit-weight graphs are canonical
//!   ([`crate::Graph::with_weights`] collapses an all-ones vector), so
//!   they have no weight term however they were built.
//!
//! [`EdgeDigest::value`] folds those parts into one word. The mix is
//! SplitMix64's finalizer. Edge terms, weight terms and the final fold
//! each offset their input by a domain constant of their own. Everything
//! is integer arithmetic, so every platform gets the same bits, and equal
//! graphs hash equal whatever route built them.
//!
//! A sum changes by one term per edge. [`EdgeDigest`] therefore keeps
//! the parts, and [`EdgeDigest::apply`] folds in an applied
//! [`GraphDelta`] in `O(|δ|)`: a session that mutates a 50k-node graph
//! by 8 edges updates its digest in 8 mixes, not in a pass over the
//! graph. This is the incremental "AdHash" of Bellare and Micciancio
//! (EUROCRYPT 1997).
//!
//! # Identifier, not commitment
//!
//! Equal graphs give equal digests; unequal graphs give unequal digests
//! only with high probability. Additive hashes admit cheap *crafted*
//! collisions (Wagner's k-sum algorithm, CRYPTO 2002), so no code whose
//! correctness matters may treat equal digests as equal graphs: the
//! daemon's cache, for one, compares the graphs themselves before two
//! builds share an entry.
//!
//! # The FNV reference
//!
//! Every random generator in [`crate::generators`] is pinned by a
//! seed-stability test: a fixed seed must keep producing the same graph
//! forever. The pins are stated in FNV-1a over the sorted edge stream, a
//! digest no batch can update, kept as [`fnv_edge_digest`] for them
//! alone. [`chain_digest`] folds deltas with FNV-1a too, starting from an
//! [`edge_digest`].

use crate::{Graph, GraphDelta};

/// SplitMix64's finalizer: a bijective 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// Domain constants: the first 64 fractional bits of √2, √3 and √5.
const EDGE_DOMAIN: u64 = 0x6a09_e667_f3bc_c908;
const WEIGHT_DOMAIN: u64 = 0xbb67_ae85_84ca_a73b;
const FINAL_DOMAIN: u64 = 0x3c6e_f372_fe94_f82b;

/// The term of edge `{u, v}`, `u < v`: the mix of the word `u·2³² + v`.
fn edge_term(u: u32, v: u32) -> u64 {
    mix(EDGE_DOMAIN ^ (u64::from(u) << 32 | u64::from(v)))
}

/// The term of node `v` with explicit weight `w`.
fn weight_term(v: usize, w: u64) -> u64 {
    mix(mix(WEIGHT_DOMAIN ^ v as u64) ^ w)
}

/// The parts [`edge_digest`] folds, kept so that a [`GraphDelta`] can
/// update them in `O(|δ|)`.
///
/// # Example
///
/// ```
/// use arbodom_graph::digest::{edge_digest, EdgeDigest};
/// use arbodom_graph::{Graph, GraphDelta};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let mut digest = EdgeDigest::of(&g);
/// let d = GraphDelta::new([(0, 3)], [(1, 2)])?;
/// let next = d.apply(&g)?;
/// digest.apply(&d);
/// assert_eq!(digest.value(), edge_digest(&next));
/// # Ok::<(), arbodom_graph::GraphError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeDigest {
    n: u64,
    m: u64,
    edges: u64,
    weights: Option<u64>,
}

impl EdgeDigest {
    /// The digest parts of a whole graph: one mix per adjacency entry
    /// (two per edge), and two per node on an explicitly weighted graph.
    pub fn of(g: &Graph) -> EdgeDigest {
        let mut edges = 0u64;
        let (offsets, neighbors) = g.csr();
        for (u, range) in (0u32..).zip(offsets.windows(2)) {
            // Each edge is listed at both ends; keep the `u < v` end. Mixing
            // every entry and masking is cheaper than finding where the
            // higher ids start, a branch whose outcome varies per node.
            for v in &neighbors[range[0] as usize..range[1] as usize] {
                let keep = 0u64.wrapping_sub(u64::from(u < v.get()));
                edges = edges.wrapping_add(edge_term(u, v.get()) & keep);
            }
        }
        let weights = g.explicit_weights().map(|ws| {
            ws.iter()
                .enumerate()
                .fold(0u64, |sum, (v, &w)| sum.wrapping_add(weight_term(v, w)))
        });
        EdgeDigest {
            n: g.n() as u64,
            m: g.m() as u64,
            edges,
            weights,
        }
    }

    /// Folds in a delta that was applied successfully to the graph these
    /// parts describe: one mix per inserted or deleted edge. Deltas never
    /// change the node count or the weights.
    ///
    /// The parts stay exact only for a delta that applied: a strict
    /// delta's inserts were absent and its deletes present. After a
    /// rejected one, leave the parts as they were.
    pub fn apply(&mut self, delta: &GraphDelta) {
        for &(u, v) in delta.inserts() {
            self.edges = self.edges.wrapping_add(edge_term(u.get(), v.get()));
        }
        for &(u, v) in delta.deletes() {
            self.edges = self.edges.wrapping_sub(edge_term(u.get(), v.get()));
        }
        self.m = self.m + delta.inserts().len() as u64 - delta.deletes().len() as u64;
    }

    /// The digest: `n`, `m`, the edge sum and, on weighted graphs, the
    /// weight sum, folded in that order.
    pub fn value(&self) -> u64 {
        let mut h = mix(FINAL_DOMAIN ^ self.n);
        h = mix(h ^ self.m);
        h = mix(h ^ self.edges);
        if let Some(weights) = self.weights {
            h = mix(h ^ weights);
        }
        h
    }
}

/// A stable 64-bit digest of the graph's structure (and non-unit weights):
/// [`EdgeDigest::of`]`(g).value()`. See the module docs for the
/// definition.
///
/// Equal graphs always produce equal digests, regardless of the order
/// edges were inserted (the CSR canonicalizes adjacency).
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
    EdgeDigest::of(g).value()
}

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

/// FNV-1a over `n`, `m`, every undirected edge `(u, v)` with `u < v` in
/// CSR (sorted) order, then the weight vector when it is not all-ones,
/// each as a little-endian `u64`.
///
/// The generator seed-stability pins are stated in this digest, and it
/// is kept for them alone: a sorted stream cannot follow a delta, so
/// everything else uses [`edge_digest`].
pub fn fnv_edge_digest(g: &Graph) -> u64 {
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

    /// [`fnv_edge_digest`] over the same byte stream with the reference
    /// fold.
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
            prop_assert_eq!(fnv_edge_digest(&g), bytewise_edge_digest(&g));
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
        assert_eq!(fnv_edge_digest(&g), bytewise_edge_digest(&g));
    }

    /// Pins the definition on fixed graphs, so that any change to it is
    /// loud: every `graph_digest` a reply or artifact carries would move.
    /// The values were checked against an independent model of the
    /// definition.
    #[test]
    fn edge_digest_is_pinned_on_fixed_graphs() {
        let weighted_path = generators::path(4).with_weights(vec![3, 1, 4, 1]).unwrap();
        let pins = [
            (
                "empty",
                crate::Graph::from_edges(0, []).unwrap(),
                0x4dd6_b639_e337_7e86,
            ),
            (
                "one node",
                crate::Graph::from_edges(1, []).unwrap(),
                0x63a2_6781_5dca_a86a,
            ),
            ("path 5", generators::path(5), 0x59ee_3bbd_e5f9_bf6b),
            ("cycle 6", generators::cycle(6), 0x78f7_044f_3462_5427),
            ("weighted path 4", weighted_path, 0x3bae_389d_b466_0f00u64),
        ];
        for (name, g, pin) in &pins {
            let digest = edge_digest(g);
            assert_eq!(digest, *pin, "{name}: {digest:#018x}");
        }
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
