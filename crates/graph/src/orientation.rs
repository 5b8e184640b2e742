//! Degeneracy orderings and low out-degree orientations.
//!
//! Observation 3.5 of the paper: a graph of arboricity α can be oriented
//! with out-degree at most α. The paper's analysis only needs such an
//! orientation to *exist*; these utilities construct concrete ones (via
//! degeneracy, giving out-degree ≤ 2α − 1) for use by baselines, the
//! lower-bound verifier, and the test suite.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{Graph, GraphDelta, NodeId};

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

/// Computes a degeneracy ordering: the removal order of the flat core
/// peel behind [`degeneracy`], `O(n + m)`.
///
/// Returns the elimination order and the degeneracy `d` — the maximum,
/// over the peeling, of the degree at removal time. Standard facts used
/// throughout the workspace: `α ≤ d ≤ 2α − 1`.
pub fn degeneracy_order(g: &Graph) -> (Vec<NodeId>, usize) {
    let peel = flat_peel::<false>(g);
    let order = peel.order.into_iter().map(NodeId::new).collect();
    (order, peel.degeneracy as usize)
}

/// The degeneracy of `g`, without the order [`degeneracy_order`] also
/// returns.
///
/// A Batagelj–Zaversnik core peel ("An O(m) Algorithm for Cores
/// Decomposition of Networks", 2003) over four flat `u32` arrays: nodes
/// sit in one array sorted by current degree, and removing a node moves
/// each higher-degree neighbor down one bin by a swap, with no bucket
/// lists and no stale entries. `O(n + m)`. The degeneracy is the largest
/// core number.
pub fn degeneracy(g: &Graph) -> usize {
    flat_peel::<false>(g).degeneracy as usize
}

/// What one flat core peel leaves behind.
struct FlatPeel {
    /// The nodes in removal order.
    order: Vec<u32>,
    /// Each node's core number.
    core: Vec<u32>,
    /// The largest core number.
    degeneracy: u32,
    /// Filled only by a certifying peel: the number of nodes of each
    /// degree, indexed by degree.
    degree_count: Vec<u32>,
    /// Filled only by a certifying peel: each node's place in the removal
    /// order, counting from 1.
    label: Vec<u64>,
    /// Filled only by a certifying peel: each node's neighbors still
    /// present at its removal, its later neighbors in the order.
    later: Vec<u32>,
}

/// The Batagelj–Zaversnik peel behind [`degeneracy_order`],
/// [`degeneracy`] and [`DegeneracyCertificate::of`]; `vert` ends up as
/// the removal order. With `CERTIFY`, it also labels the removal order
/// from 1 and counts each node's later neighbors inside its own neighbor
/// loop.
///
/// At a node's turn, every neighbor of higher current degree is still
/// present and every neighbor of lower degree is gone: a removed node
/// keeps its core number, at most the current level, and a present one
/// never falls below the level. Only a neighbor of equal degree needs its
/// slot compared with the node's.
fn flat_peel<const CERTIFY: bool>(g: &Graph) -> FlatPeel {
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
    let degree_count = if CERTIFY { bin.clone() } else { Vec::new() };
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
    let len = if CERTIFY { n } else { 0 };
    let (mut label, mut later) = (vec![0u64; len], vec![0u32; len]);
    let mut degeneracy = 0;
    for i in 0..n {
        let v = vert[i] as usize;
        let dv = deg[v];
        degeneracy = degeneracy.max(dv);
        let mut present = 0;
        for &u in &neighbors[offsets[v] as usize..offsets[v + 1] as usize] {
            let u = u.index();
            let du = deg[u];
            if du > dv {
                present += 1;
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
            } else if CERTIFY && du == dv && pos[u] as usize > i {
                present += 1;
            }
        }
        if CERTIFY {
            later[v] = present;
            label[v] = i as u64 + 1;
        }
    }
    FlatPeel {
        order: vert,
        core: deg,
        degeneracy,
        degree_count,
        label,
        later,
    }
}

/// The degeneracy `d` of a graph with a two-sided proof, kept current
/// across edge batches, together with the graph's maximum degree.
///
/// # The two halves
///
/// * **Upper:** an order of the nodes in which every node has at most `d`
///   later neighbors proves degeneracy ≤ `d`: removing the nodes in that
///   order never removes one of degree above `d`. Observation 3.5's low
///   out-degree orientation is this order with every edge pointing from
///   its earlier end. The order is stored as one `u64` label per node,
///   with ties broken by node id, and each node's later-neighbor count.
/// * **Lower:** a witness set W in which every node has at least `d`
///   neighbors inside W proves degeneracy ≥ `d`: W's induced subgraph
///   has minimum degree `d`, so any removal order meets a node of degree
///   ≥ `d` the first time it removes a node of W. W is stored as one flag
///   per node; a member's number of neighbors in W is read from its
///   adjacency list when a deletion may have lowered it.
///
/// # Building
///
/// [`DegeneracyCertificate::of`] runs the flat core peel of
/// [`degeneracy`] once. Its removal order is a valid upper half: at a
/// node's turn its unremoved neighbors are exactly its later ones, and
/// they number at most its core number, hence at most `d`. The peel
/// counts them inside its own neighbor loop. The labels are the removal
/// positions, 1 to n. W is the top core, the nodes whose core number is
/// `d`: the `d`-core of the graph, nonempty, and of minimum degree `d` by
/// definition. The certificate holds 13 bytes a node: a label, a count
/// and a flag.
///
/// # Folding a batch
///
/// [`DegeneracyCertificate::apply`] first makes every count change of
/// the batch. A deletion takes one from its earlier end's later count,
/// which keeps the upper half, and a deletion inside W cascades: an
/// endpoint left with fewer than `d` neighbors in W leaves it, which may
/// push its neighbors in W below `d` in turn. An insertion adds one to
/// its earlier end's later count and keeps the lower half. The nodes left
/// with more than `d` later neighbors, the overfull ones, are then
/// repaired together by one reorder, the order-based insertion of Zhang
/// et al. ("A Fast Order-Based Approach for Core Maintenance", ICDE 2017)
/// at the fixed threshold `d`. It reads the applied graph's adjacency and
/// runs in three steps:
///
/// * **Scan.** Visit nodes in key order from the overfull ones, with a
///   min-heap. A node becomes a *candidate* when its later count plus
///   `ds`, its number of earlier neighbors that are candidates, exceeds
///   `d`; an overfull node always does. A candidate pushes its later
///   neighbors onto the heap. A visited node that is not a candidate keeps
///   its place, and its later count grows by exactly `ds`: those
///   candidates move past it. A node the scan never visits has no
///   candidate before it among its neighbors, so it keeps its count too.
/// * **Move.** Each candidate goes past every neighbor it has that is not
///   a candidate: the candidates take the labels just above the largest
///   label among those neighbors, one apart.
/// * **Order the candidates.** Peel the subgraph the candidates induce at
///   threshold `d`, removing next a candidate with at most `d` candidate
///   neighbors left. The removal order is their new order among
///   themselves, and the candidate neighbors left at a candidate's
///   removal are its later neighbors.
///
/// A move never needs room between two labels, since a candidate only
/// goes above a floor. Its new label may tie with another node's, but not
/// with a neighbor's: every neighbor outside the candidates sits at or
/// below the floor.
///
/// # Failure
///
/// The fold fails and returns `None` in three cases, and the caller
/// rebuilds with one peel, which also relabels:
///
/// * the candidates' peel gets stuck: every candidate left has more than
///   `d` candidate neighbors left, so together they are a
///   `(d + 1)`-core, and an insertion raised the degeneracy;
/// * W empties: a deletion that lowers the degeneracy must do this, and
///   W, which no insertion regrows, can also empty while it stays `d`;
/// * no label is free: the candidates' labels would pass `u64::MAX`. A
///   reorder raises the largest label by at most its candidate count, so
///   from a build's 1 to n this takes on the order of 2⁶⁴ moves.
///
/// A failure is not an error. The reorder is complete: while the
/// degeneracy stays `d` and W keeps a member, the fold succeeds. When it
/// does, `d` is the degeneracy of the applied graph, exactly.
///
/// The maximum degree comes from a count of nodes per degree, which each
/// fold updates at the batch's touched nodes.
///
/// # Example
///
/// ```
/// use arbodom_graph::orientation::{degeneracy, DegeneracyCertificate};
/// use arbodom_graph::{generators, GraphDelta};
///
/// let g = generators::cycle(6);
/// let certificate = DegeneracyCertificate::of(&g);
/// assert_eq!(certificate.value(), 2);
/// let d = GraphDelta::new([], [(0, 1)])?;
/// let path = d.apply(&g)?;
/// // Deleting an edge of a cycle empties its 2-core: the fold fails and
/// // the caller peels again.
/// assert!(certificate.apply(&path, &d).is_none());
/// assert_eq!(DegeneracyCertificate::of(&path).value(), degeneracy(&path));
/// # Ok::<(), arbodom_graph::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct DegeneracyCertificate {
    /// The certified degeneracy.
    d: u32,
    /// Each node's place in the order, ties broken by node id.
    label: Vec<u64>,
    /// Each node's number of later neighbors, at most `d`.
    later: Vec<u32>,
    /// Whether each node is in the witness set W.
    in_witness: Vec<bool>,
    /// Members of W.
    witness_size: usize,
    /// The number of nodes of each degree, indexed by degree.
    degree_count: Vec<u32>,
    /// The highest degree with a node.
    max_degree: usize,
}

impl DegeneracyCertificate {
    /// The certificate of `g`, built with one flat core peel.
    pub fn of(g: &Graph) -> Self {
        let peel = flat_peel::<true>(g);
        let d = peel.degeneracy;
        let in_witness: Vec<bool> = peel.core.iter().map(|&c| c == d).collect();
        DegeneracyCertificate {
            d,
            label: peel.label,
            later: peel.later,
            witness_size: in_witness.iter().filter(|&&w| w).count(),
            in_witness,
            max_degree: peel.degree_count.len() - 1,
            degree_count: peel.degree_count,
        }
    }

    /// A certificate of `g` whose order is `order`, labelled `first`,
    /// `first + 1`, and so on; `order` must be a valid upper half.
    #[cfg(test)]
    fn with_order(g: &Graph, order: &[u32], first: u64) -> Self {
        let mut certificate = Self::of(g);
        for (place, &v) in (0..).zip(order) {
            certificate.label[v as usize] = first + place;
        }
        certificate.later.fill(0);
        for (u, v) in g.edges() {
            let e = certificate.earlier(u.index(), v.index());
            certificate.later[e] += 1;
        }
        assert!(certificate.certifies(g), "{order:?} is not a valid order");
        certificate
    }

    /// The certified degeneracy: the number [`degeneracy`] returns.
    pub fn value(&self) -> usize {
        self.d as usize
    }

    /// The graph's maximum degree: the number [`Graph::max_degree`]
    /// returns.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Heap bytes held: 13 per node (a label, a count and a flag) and
    /// four per degree up to the maximum.
    pub fn heap_bytes(&self) -> usize {
        self.label.capacity() * 8
            + self.later.capacity() * 4
            + self.in_witness.capacity()
            + self.degree_count.capacity() * 4
    }

    /// Folds in `delta`, which was applied successfully to the graph this
    /// certificate describes, giving `g`. Returns the certificate of `g`,
    /// or `None` when it broke (see the type docs); then build a new one
    /// with [`DegeneracyCertificate::of`].
    ///
    /// Costs `O(|δ| log |δ|)`, plus `O(a log a)` for the reorder, where `a`
    /// is the total degree of its candidates, plus the adjacency lists the
    /// witness cascade reads.
    pub fn apply(mut self, g: &Graph, delta: &GraphDelta) -> Option<Self> {
        self.follow_degrees(g, delta);
        let d = self.d;
        let mut cascade = Vec::new();
        for &(u, v) in delta.deletes() {
            let (u, v) = (u.index(), v.index());
            let e = self.earlier(u, v);
            self.later[e] -= 1;
            if self.in_witness[u] && self.in_witness[v] {
                cascade.extend([u, v]);
            }
        }
        let mut overfull = BinaryHeap::new();
        for &(u, v) in delta.inserts() {
            let e = self.earlier(u.index(), v.index());
            self.later[e] += 1;
            if self.later[e] > d {
                overfull.push(Reverse(self.key(e)));
            }
        }
        // A member that lost a neighbor in W leaves it if it has fewer
        // than d left, and its neighbors in W are checked in turn.
        while let Some(x) = cascade.pop() {
            if !self.in_witness[x] || self.witness_degree(g, x) >= d {
                continue;
            }
            self.in_witness[x] = false;
            self.witness_size -= 1;
            cascade.extend(
                g.neighbors(NodeId::from_index(x))
                    .iter()
                    .map(|z| z.index())
                    .filter(|&z| self.in_witness[z]),
            );
        }
        if d > 0 && self.witness_size == 0 {
            return None;
        }
        self.reorder(g, overfull)?;
        Some(self)
    }

    /// The reorder of the type docs, from the overfull nodes in `scan`.
    /// `None` when the candidates' peel gets stuck or no label is free.
    fn reorder(&mut self, g: &Graph, mut scan: BinaryHeap<Reverse<(u64, usize)>>) -> Option<()> {
        let d = self.d;
        let adjacency = |v: usize| g.neighbors(NodeId::from_index(v)).iter().map(|u| u.index());
        // Keys pop in ascending order, so a node's copies pop together. A
        // node that is not overfull was pushed once by each of its earlier
        // neighbors that is a candidate, so its copies are its ds; an
        // overfull one is a candidate whatever its copies.
        let mut candidates = Vec::new();
        while let Some(Reverse(key)) = scan.pop() {
            let mut copies = 1;
            while scan.peek() == Some(&Reverse(key)) {
                scan.pop();
                copies += 1;
            }
            let x = key.1;
            if self.later[x] + copies > d {
                candidates.push(x);
                for u in adjacency(x) {
                    if self.key(u) > key {
                        scan.push(Reverse(self.key(u)));
                    }
                }
            } else {
                self.later[x] += copies;
            }
        }
        // Candidates sit in key order. Record each one's candidate
        // neighbors, by index, and the floor its new label must pass.
        let mut start = Vec::with_capacity(candidates.len() + 1);
        let mut links = Vec::new();
        let mut floor = 0;
        for &c in &candidates {
            start.push(links.len());
            for u in adjacency(c) {
                match candidates.binary_search_by_key(&self.key(u), |&w| self.key(w)) {
                    Ok(j) => links.push(j),
                    Err(_) => floor = floor.max(self.label[u]),
                }
            }
        }
        start.push(links.len());
        // The peel at threshold d; `left` holds each candidate's candidate
        // neighbors not yet removed, and PLACED once it is removed.
        const PLACED: u32 = u32::MAX;
        let mut left: Vec<u32> = start.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        let mut ready: Vec<usize> = (0..candidates.len()).filter(|&i| left[i] <= d).collect();
        let mut label = floor;
        while let Some(i) = ready.pop() {
            label = label.checked_add(1)?;
            let c = candidates[i];
            self.label[c] = label;
            self.later[c] = left[i];
            left[i] = PLACED;
            for &j in &links[start[i]..start[i + 1]] {
                if left[j] != PLACED {
                    left[j] -= 1;
                    if left[j] == d {
                        ready.push(j);
                    }
                }
            }
        }
        (label - floor == candidates.len() as u64).then_some(())
    }

    /// Whether this certificate proves its value on `g`, checked over the
    /// whole graph: its later counts equal a fresh count and are at most
    /// `d`; W is nonempty (unless `d` is 0) and each member has at least
    /// `d` neighbors in W; the degree counts are fresh. For tests and
    /// debug builds.
    pub fn certifies(&self, g: &Graph) -> bool {
        let n = g.n();
        if self.label.len() != n {
            return false;
        }
        let mut later = vec![0u32; n];
        let mut degree_count = vec![0u32; self.degree_count.len().max(g.max_degree() + 1)];
        for v in g.nodes() {
            degree_count[g.degree(v)] += 1;
        }
        for (u, v) in g.edges() {
            later[self.earlier(u.index(), v.index())] += 1;
        }
        let witness: Vec<usize> = (0..n).filter(|&v| self.in_witness[v]).collect();
        later == self.later
            && later.iter().all(|&c| c <= self.d)
            && witness.iter().all(|&v| self.witness_degree(g, v) >= self.d)
            && witness.len() == self.witness_size
            && (self.d == 0 || !witness.is_empty())
            && degree_count[..self.degree_count.len()] == self.degree_count[..]
            && degree_count[self.degree_count.len()..]
                .iter()
                .all(|&c| c == 0)
            && self.max_degree == g.max_degree()
    }

    /// The number of `v`'s neighbors in W.
    fn witness_degree(&self, g: &Graph, v: usize) -> u32 {
        let adj = g.neighbors(NodeId::from_index(v));
        adj.iter().filter(|u| self.in_witness[u.index()]).count() as u32
    }

    /// Node `v`'s place in the order: its label, ties broken by id.
    fn key(&self, v: usize) -> (u64, usize) {
        (self.label[v], v)
    }

    /// The endpoint of `{u, v}` that comes first in the order.
    fn earlier(&self, u: usize, v: usize) -> usize {
        if self.key(u) < self.key(v) {
            u
        } else {
            v
        }
    }

    /// Updates the degree counts at the batch's touched nodes: a node's
    /// old degree is its new degree less its inserts plus its deletes.
    fn follow_degrees(&mut self, g: &Graph, delta: &GraphDelta) {
        let mut shifts: Vec<(NodeId, i64)> = delta
            .inserts()
            .iter()
            .flat_map(|&(u, v)| [(u, -1), (v, -1)])
            .chain(delta.deletes().iter().flat_map(|&(u, v)| [(u, 1), (v, 1)]))
            .collect();
        shifts.sort_unstable_by_key(|&(v, _)| v);
        for run in shifts.chunk_by(|a, b| a.0 == b.0) {
            let new = g.degree(run[0].0);
            let old = (new as i64 + run.iter().map(|&(_, s)| s).sum::<i64>()) as usize;
            self.degree_count[old] -= 1;
            if new >= self.degree_count.len() {
                self.degree_count.resize(new + 1, 0);
            }
            self.degree_count[new] += 1;
            self.max_degree = self.max_degree.max(new);
        }
        while self.max_degree > 0 && self.degree_count[self.max_degree] == 0 {
            self.max_degree -= 1;
        }
    }
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

    fn delta(inserts: &[(u32, u32)], deletes: &[(u32, u32)]) -> GraphDelta {
        GraphDelta::new(inserts.iter().copied(), deletes.iter().copied()).unwrap()
    }

    /// Folds `d` into `c`, which certifies `g`; returns the applied graph
    /// and the folded certificate, checked against the whole graph when
    /// the fold held.
    fn fold(
        c: DegeneracyCertificate,
        g: &Graph,
        d: &GraphDelta,
    ) -> (Graph, Option<DegeneracyCertificate>) {
        let next = d.apply(g).unwrap();
        let folded = c.apply(&next, d);
        if let Some(c) = &folded {
            assert!(c.certifies(&next));
            assert_eq!(c.value(), degeneracy(&next));
        }
        (next, folded)
    }

    #[test]
    fn built_certificates_certify_known_graphs() {
        let mut rng = StdRng::seed_from_u64(25);
        let edgeless = |n| crate::Graph::from_edges(n, []).unwrap();
        let mut cases = vec![
            edgeless(0),
            edgeless(1),
            edgeless(5),
            generators::path(2),
            generators::random_tree(200, &mut rng),
            generators::star(40),
            generators::cycle(50),
            generators::complete(7),
            generators::grid2d(10, 12, false),
        ];
        for alpha in 1..=5 {
            cases.push(generators::forest_union(300, alpha, &mut rng));
        }
        for g in cases {
            let c = DegeneracyCertificate::of(&g);
            assert!(c.certifies(&g), "n = {}, m = {}", g.n(), g.m());
            assert_eq!(c.value(), degeneracy(&g));
            assert_eq!(c.max_degree(), g.max_degree());
            assert_eq!(c.heap_bytes(), 13 * g.n() + 4 * (g.max_degree() + 1));
        }
    }

    #[test]
    fn an_insertion_that_raises_d_breaks_the_certificate() {
        // K4 less the edge {2, 3} is two triangles: degeneracy 2.
        let g = crate::Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        let c = DegeneracyCertificate::of(&g);
        assert_eq!(c.value(), 2);
        let (k4, folded) = fold(c, &g, &delta(&[(2, 3)], &[]));
        assert!(
            folded.is_none(),
            "no order of K4 has 2 later neighbors per node"
        );
        assert_eq!(degeneracy(&k4), 3);
    }

    #[test]
    fn a_deletion_that_empties_the_witness_breaks_the_certificate() {
        let g = generators::complete(4);
        let c = DegeneracyCertificate::of(&g);
        assert_eq!((c.value(), c.witness_size), (3, 4));
        let (next, folded) = fold(c, &g, &delta(&[], &[(0, 1)]));
        assert!(folded.is_none(), "K4 less an edge has no 3-core");
        assert_eq!(degeneracy(&next), 2);
        // A deletion that leaves the top core standing keeps it: of two
        // K4s, one loses an edge and the other still witnesses d = 3.
        let two = crate::Graph::from_edges(
            8,
            generators::complete(4)
                .edges()
                .flat_map(|(u, v)| [(u.get(), v.get()), (u.get() + 4, v.get() + 4)]),
        )
        .unwrap();
        let c = DegeneracyCertificate::of(&two);
        let (_, folded) = fold(c, &two, &delta(&[], &[(0, 1)]));
        let c = folded.expect("the second K4 is a witness");
        assert_eq!((c.value(), c.witness_size), (3, 4));
    }

    /// The forest 0–1–4 and 2–3 in the order 0, 1, 2, 3, 4 (each node
    /// has one later neighbor, except 3 and 4), then the edge {0, 2}: 0
    /// gets a second later neighbor. Passing its nearest later neighbor
    /// 1, which has no spare slot, or pulling 1 or 2 before it, would
    /// leave a node with two, so no single move repairs it. The reorder
    /// moves 0, 1 and 2 past 3 and 4.
    #[test]
    fn an_overfull_node_no_single_move_repairs_is_reordered() {
        let g = crate::Graph::from_edges(5, [(0, 1), (1, 4), (2, 3)]).unwrap();
        let c = DegeneracyCertificate::with_order(&g, &[0, 1, 2, 3, 4], 1);
        let (next, folded) = fold(c, &g, &delta(&[(0, 2)], &[]));
        let c = folded.expect("the degeneracy stays 1");
        assert!(c.certifies(&next));
        assert_eq!(c.value(), 1);
        assert!(c.key(4) < c.key(1) && c.key(3) < c.key(2));
    }

    /// The forest 0–1 and 2–3 in the order 0, 1, 2, 3, then the edge
    /// {0, 2}. The overfull 0 is a candidate. Of its later neighbors, 1
    /// has a spare slot and stays, and 2 has none and becomes one; 2's
    /// later neighbor 3 has a spare slot and stays. The candidates pass
    /// 1 and 3, which each gain one later neighbor.
    #[test]
    fn a_reorder_moves_its_candidates_past_their_other_neighbors() {
        let g = crate::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let c = DegeneracyCertificate::with_order(&g, &[0, 1, 2, 3], 1);
        let (_, folded) = fold(c, &g, &delta(&[(0, 2)], &[]));
        let c = folded.expect("the degeneracy stays 1");
        // 1 and 3 keep labels 2 and 4; 2 and then 0 take the two above.
        assert_eq!(c.label, [6, 2, 5, 4]);
        assert!(c.key(1) < c.key(0) && c.key(3) < c.key(2));
        assert_eq!(c.later, [0, 1, 1, 1]);
    }

    /// The forest 0–1–4 and 2–3 in the order 3, 0, 1, 2, 4, then the
    /// edge {0, 2}. The candidates are 0 and 1: 2 and 4 each take the
    /// one later neighbor they have room for. The candidates' peel
    /// removes 1 before 0, reversing their old order, and puts both past
    /// 2 and 4, the largest of their other neighbors.
    #[test]
    fn a_reorder_orders_its_candidates_by_their_peel() {
        let g = crate::Graph::from_edges(5, [(0, 1), (1, 4), (2, 3)]).unwrap();
        let c = DegeneracyCertificate::with_order(&g, &[3, 0, 1, 2, 4], 1);
        let (_, folded) = fold(c, &g, &delta(&[(0, 2)], &[]));
        let c = folded.expect("the degeneracy stays 1");
        assert_eq!(c.label, [7, 6, 4, 1, 5]);
        assert!(c.key(4) < c.key(1) && c.key(1) < c.key(0) && c.key(2) < c.key(0));
        assert_eq!(c.later, [0, 1, 1, 1, 1]);
    }

    /// A reorder takes one label per candidate above its floor, and fails
    /// if they would pass `u64::MAX`. In the forest 0–1, 2–3 plus the edge
    /// {0, 2}, the candidates 0 and 2 go above 3, the last node: they fit
    /// when 3 sits two below the top, and not when it sits one below.
    #[test]
    fn a_gap_that_runs_out_breaks_the_certificate() {
        let g = crate::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let d = delta(&[(0, 2)], &[]);
        let c = DegeneracyCertificate::with_order(&g, &[0, 1, 2, 3], u64::MAX - 5);
        let c = fold(c, &g, &d).1.expect("two free labels");
        assert_eq!(
            c.label,
            [u64::MAX, u64::MAX - 4, u64::MAX - 1, u64::MAX - 2]
        );
        let c = DegeneracyCertificate::with_order(&g, &[0, 1, 2, 3], u64::MAX - 4);
        assert!(fold(c, &g, &d).1.is_none());
    }

    /// A random batch on `g`: up to `k` of its edges deleted and up to
    /// `k` absent pairs inserted.
    fn random_batch(g: &Graph, k: usize, rng: &mut StdRng) -> GraphDelta {
        use rand::seq::IndexedRandom;
        use rand::Rng;
        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        let deletes: Vec<(u32, u32)> = (0..rng.random_range(0..=k))
            .filter_map(|_| edges.choose(rng))
            .map(|&(u, v)| (u.get(), v.get()))
            .collect();
        let n = g.n() as u32;
        let inserts: Vec<(u32, u32)> = (0..rng.random_range(0..=k))
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .filter(|&(u, v)| u != v && !g.has_edge(NodeId::new(u), NodeId::new(v)))
            .collect();
        GraphDelta::new(inserts, deletes).unwrap()
    }

    /// Whether the witness `w` cascades to nothing on `g` at `d`: the
    /// largest subset of `w` in which every member has `d` neighbors
    /// inside it is empty.
    fn witness_empties(w: &[bool], g: &Graph, d: u32) -> bool {
        let mut w = w.to_vec();
        loop {
            let short: Vec<usize> = (0..g.n())
                .filter(|&v| w[v])
                .filter(|&v| {
                    let adj = g.neighbors(NodeId::from_index(v));
                    (adj.iter().filter(|u| w[u.index()]).count() as u32) < d
                })
                .collect();
            if short.is_empty() {
                return !w.contains(&true);
            }
            for v in short {
                w[v] = false;
            }
        }
    }

    /// The reorder is complete. Over random churn streams on forest
    /// unions with α from 1 to 5, G(n, p), stars and cliques, a fold
    /// breaks only when the degeneracy changed or W emptied, and every
    /// fold that holds certifies the degeneracy (checked in `fold`). No
    /// fold runs out of labels: a build labels 1 to n, far below the top.
    #[test]
    fn a_fold_breaks_only_when_the_degeneracy_changes_or_the_witness_empties() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut graphs = Vec::new();
        for round in 0..6 {
            for alpha in 1..=5 {
                graphs.push(generators::forest_union(40 + 10 * round, alpha, &mut rng));
            }
            graphs.push(generators::gnp(30, 0.05 + 0.05 * round as f64, &mut rng));
            graphs.push(generators::star(12 + round));
            graphs.push(generators::complete(4 + round));
        }
        let (mut kept, mut raised, mut emptied) = (0, 0, 0);
        for (i, mut g) in graphs.into_iter().enumerate() {
            let mut c = DegeneracyCertificate::of(&g);
            for batch in 0..60 {
                let d = random_batch(&g, 1 + batch % 4, &mut rng);
                let (value, witness) = (c.d, c.in_witness.clone());
                let (next, folded) = fold(c, &g, &d);
                c = match folded {
                    Some(c) => {
                        kept += 1;
                        c
                    }
                    None => {
                        let changed = degeneracy(&next) != value as usize;
                        let empty = value > 0 && witness_empties(&witness, &next, value);
                        assert!(changed || empty, "graph {i}, batch {batch}");
                        raised += usize::from(degeneracy(&next) > value as usize);
                        emptied += usize::from(empty);
                        DegeneracyCertificate::of(&next)
                    }
                };
                g = next;
            }
        }
        assert!(
            kept > 0 && raised > 0 && emptied > 0,
            "{kept} {raised} {emptied}"
        );
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
