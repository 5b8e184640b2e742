//! Degeneracy orderings and low out-degree orientations.
//!
//! Observation 3.5 of the paper: a graph of arboricity α can be oriented
//! with out-degree at most α. The paper's analysis only needs such an
//! orientation to *exist*; these utilities construct concrete ones (via
//! degeneracy, giving out-degree ≤ 2α − 1) for use by baselines, the
//! lower-bound verifier, and the test suite.

use crate::{Graph, NodeId};

/// An acyclic orientation of a graph's edges, stored as out-adjacency lists.
#[derive(Clone, Debug)]
pub struct Orientation {
    out: Vec<Vec<NodeId>>,
}

impl Orientation {
    /// Builds an orientation from explicit out-neighbor lists.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a listed arc references an out-of-range
    /// node.
    pub fn from_out_lists(out: Vec<Vec<NodeId>>) -> Self {
        debug_assert!(out.iter().flatten().all(|v| v.index() < out.len()));
        Orientation { out }
    }

    /// Orients every edge of `g` from the endpoint earlier in `order` to the
    /// later one (positions are compared; `order` must be a permutation of
    /// the nodes).
    pub fn from_order(g: &Graph, order: &[NodeId]) -> Self {
        let mut pos = vec![0usize; g.n()];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        let mut out = vec![Vec::new(); g.n()];
        for (u, v) in g.edges() {
            if pos[u.index()] < pos[v.index()] {
                out[u.index()].push(v);
            } else {
                out[v.index()].push(u);
            }
        }
        Orientation { out }
    }

    /// Out-neighbors of `v`.
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.out[v.index()]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out[v.index()].len()
    }

    /// Maximum out-degree over all nodes; the quantity Observation 3.5
    /// bounds by α.
    pub fn max_out_degree(&self) -> usize {
        self.out.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.out.len()
    }

    /// In-neighbor lists (computed by transposing the out lists).
    pub fn in_neighbors_all(&self) -> Vec<Vec<NodeId>> {
        let mut incoming = vec![Vec::new(); self.out.len()];
        for (u, outs) in self.out.iter().enumerate() {
            for &v in outs {
                incoming[v.index()].push(NodeId::from_index(u));
            }
        }
        incoming
    }

    /// Checks that this orientation covers exactly the edges of `g`, each
    /// once.
    pub fn is_orientation_of(&self, g: &Graph) -> bool {
        if self.out.len() != g.n() {
            return false;
        }
        let mut count = 0usize;
        for (u, outs) in self.out.iter().enumerate() {
            let u = NodeId::from_index(u);
            for &v in outs {
                if !g.has_edge(u, v) {
                    return false;
                }
                // The reverse arc must not also be present.
                if self.out[v.index()].contains(&u) {
                    return false;
                }
                count += 1;
            }
        }
        count == g.m()
    }
}

/// Computes a degeneracy ordering by repeatedly removing a minimum-degree
/// node (bucket queue, `O(n + m)`).
///
/// Returns the elimination order and the degeneracy `d` — the maximum,
/// over the peeling, of the degree at removal time. Standard facts used
/// throughout the workspace: `α ≤ d ≤ 2α − 1`.
pub fn degeneracy_order(g: &Graph) -> (Vec<NodeId>, usize) {
    let n = g.n();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(NodeId::from_index(v))).collect();
    let maxd = g.max_degree();
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); maxd + 1];
    for v in 0..n {
        buckets[deg[v]].push(v as u32);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0usize;
    let mut cur = 0usize;
    for _ in 0..n {
        // Find the lowest nonempty bucket holding a live node.
        let v = loop {
            while cur > 0 && !buckets[cur - 1].is_empty() {
                cur -= 1; // degrees can drop below the cursor
            }
            while buckets[cur].is_empty() {
                cur += 1;
            }
            let cand = buckets[cur].pop().expect("bucket nonempty") as usize;
            if !removed[cand] && deg[cand] == cur {
                break cand;
            }
            // Stale entry; skip it.
        };
        removed[v] = true;
        degeneracy = degeneracy.max(cur);
        order.push(NodeId::from_index(v));
        for &u in g.neighbors(NodeId::from_index(v)) {
            let u = u.index();
            if !removed[u] {
                deg[u] -= 1;
                buckets[deg[u]].push(u as u32);
            }
        }
    }
    (order, degeneracy)
}

/// The degeneracy of `g` alone: the number [`degeneracy_order`] returns,
/// without the order.
///
/// A Batagelj–Zaversnik core peel ("An O(m) Algorithm for Cores
/// Decomposition of Networks", 2003) over four flat `u32` arrays: nodes
/// sit in one array sorted by current degree, and removing a node moves
/// each higher-degree neighbor down one bin by a swap, with no bucket
/// lists and no stale entries. `O(n + m)`. The degeneracy is the largest
/// core number, a graph invariant, so it equals `degeneracy_order(g).1`
/// even though the two peels remove nodes in different orders.
pub fn degeneracy(g: &Graph) -> usize {
    let (offsets, neighbors) = g.csr();
    let n = g.n();
    let mut deg: Vec<u32> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;
    // Counting sort of the nodes by degree into `vert`; `pos` inverts it
    // and bin[d] ends up at the first slot of the degree-d nodes.
    let mut bin = vec![0u32; max_deg + 1];
    for &d in &deg {
        bin[d as usize] += 1;
    }
    let mut start = 0;
    for b in &mut bin {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0u32; n];
    let mut vert = vec![0u32; n];
    for (v, &d) in deg.iter().enumerate() {
        let slot = &mut bin[d as usize];
        pos[v] = *slot;
        vert[*slot as usize] = v as u32;
        *slot += 1;
    }
    // Filling moved each bin's start to its end, the next bin's start.
    bin.copy_within(..max_deg, 1);
    bin[0] = 0;
    let mut degeneracy = 0;
    for i in 0..n {
        let v = vert[i] as usize;
        let dv = deg[v];
        degeneracy = degeneracy.max(dv);
        for &u in &neighbors[offsets[v] as usize..offsets[v + 1] as usize] {
            let u = u.index();
            let du = deg[u];
            if du > dv {
                // Swap u with the first node of its bin, then move the
                // bin's start past it: u is now in bin du − 1.
                let (pu, pw) = (pos[u], bin[du as usize]);
                let w = vert[pw as usize];
                if u as u32 != w {
                    pos[u] = pw;
                    pos[w as usize] = pu;
                    vert[pu as usize] = w;
                    vert[pw as usize] = u as u32;
                }
                bin[du as usize] += 1;
                deg[u] = du - 1;
            }
        }
    }
    degeneracy as usize
}

/// Orients `g` along a degeneracy ordering; the out-degree of every node is
/// at most the degeneracy (≤ 2α − 1).
pub fn degeneracy_orientation(g: &Graph) -> Orientation {
    let (order, _) = degeneracy_order(g);
    Orientation::from_order(g, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tree_degeneracy_one() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::random_tree(200, &mut rng);
        let (order, d) = degeneracy_order(&g);
        assert_eq!(d, 1);
        assert_eq!(order.len(), 200);
        let o = degeneracy_orientation(&g);
        assert_eq!(o.max_out_degree(), 1);
        assert!(o.is_orientation_of(&g));
    }

    #[test]
    fn complete_graph_degeneracy() {
        let g = generators::complete(7);
        let (_, d) = degeneracy_order(&g);
        assert_eq!(d, 6);
        let o = degeneracy_orientation(&g);
        assert!(o.is_orientation_of(&g));
        assert_eq!(o.max_out_degree(), 6);
    }

    #[test]
    fn cycle_degeneracy_two() {
        let g = generators::cycle(50);
        let (_, d) = degeneracy_order(&g);
        assert_eq!(d, 2);
    }

    #[test]
    fn grid_degeneracy_at_most_two() {
        let g = generators::grid2d(10, 12, false);
        let (_, d) = degeneracy_order(&g);
        assert!(d <= 2, "open grid has degeneracy 2, got {d}");
    }

    #[test]
    fn forest_union_out_degree() {
        let mut rng = StdRng::seed_from_u64(22);
        for alpha in [2usize, 3, 5] {
            let g = generators::forest_union(300, alpha, &mut rng);
            let o = degeneracy_orientation(&g);
            assert!(o.is_orientation_of(&g));
            assert!(
                o.max_out_degree() < 2 * alpha,
                "out-degree {} exceeds 2α−1 for α={alpha}",
                o.max_out_degree()
            );
        }
    }

    #[test]
    fn orientation_transpose_consistent() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::gnp(100, 0.05, &mut rng);
        let o = degeneracy_orientation(&g);
        let incoming = o.in_neighbors_all();
        let arcs_out: usize = (0..g.n())
            .map(|v| o.out_degree(NodeId::from_index(v)))
            .sum();
        let arcs_in: usize = incoming.iter().map(Vec::len).sum();
        assert_eq!(arcs_out, arcs_in);
        assert_eq!(arcs_out, g.m());
    }

    #[test]
    fn empty_graph_orientation() {
        let g = crate::Graph::from_edges(0, []).unwrap();
        let (order, d) = degeneracy_order(&g);
        assert!(order.is_empty());
        assert_eq!(d, 0);
    }

    #[test]
    fn flat_peel_on_known_graphs() {
        let mut rng = StdRng::seed_from_u64(24);
        let edgeless = |n| crate::Graph::from_edges(n, []).unwrap();
        let cases = [
            (edgeless(0), 0),
            (edgeless(1), 0),
            (edgeless(5), 0),
            (generators::path(2), 1),
            (generators::random_tree(200, &mut rng), 1),
            (generators::star(40), 1),
            (generators::cycle(50), 2),
            (generators::complete(7), 6),
        ];
        for (g, expected) in cases {
            assert_eq!(degeneracy(&g), expected, "n = {}, m = {}", g.n(), g.m());
            assert_eq!(degeneracy_order(&g).1, expected);
        }
    }
}
