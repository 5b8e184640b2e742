//! Compressed-sparse-row graph representation.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{GraphBuilder, GraphError, Result};

/// Identifier of a node in a [`Graph`].
///
/// Node ids are dense: a graph with `n` nodes uses ids `0..n`. The type is a
/// thin newtype over `u32` so that node ids cannot be confused with counts,
/// weights, or other integers in algorithm code.
///
/// # Example
///
/// ```
/// use arbodom_graph::NodeId;
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(u32::from(v), 3);
/// ```
#[derive(
    Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    pub const fn new(id: u32) -> Self {
        NodeId(id)
    }

    /// Returns the id as a `usize` index, suitable for indexing node arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Creates a node id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }
}

impl From<u32> for NodeId {
    fn from(id: u32) -> Self {
        NodeId(id)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> Self {
        id.index()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An immutable undirected graph with positive integer node weights, stored
/// in compressed-sparse-row form.
///
/// Invariants maintained by construction ([`GraphBuilder`]):
///
/// * no self-loops, no parallel edges;
/// * adjacency lists are sorted by neighbor id (so [`Graph::has_edge`] is a
///   binary search);
/// * all node weights are positive.
///
/// The CONGEST model of the paper identifies the communication network with
/// the input graph, so this type doubles as the network topology in
/// `arbodom-congest`.
///
/// # Example
///
/// ```
/// use arbodom_graph::{Graph, NodeId};
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(NodeId::new(0)), 2);
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
/// assert!(!g.has_edge(NodeId::new(0), NodeId::new(2)));
/// # Ok::<(), arbodom_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    pub(crate) offsets: Vec<u32>,
    pub(crate) neighbors: Vec<NodeId>,
    pub(crate) weights: Weights,
}

/// Memory-tiered node-weight storage.
///
/// Unit-weight graphs — every generator output before a
/// [`crate::weights::WeightModel`] is applied, the whole `huge` scenario
/// tier — store **zero** weight bytes instead of an 8-bytes-per-node
/// all-ones vector. Only genuinely weighted graphs pay for a `Vec<u64>`.
///
/// Canonical-form invariant: `Explicit` is never all-ones. Every
/// constructor ([`GraphBuilder::build`], [`Graph::with_weights`],
/// [`crate::io::read_edge_list`]) canonicalizes through
/// [`Weights::from_vec`], so the derived `PartialEq` on [`Graph`] makes a
/// compact unit-weight graph equal to one built from an explicit all-ones
/// weight vector — the two are literally the same value.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Weights {
    /// Every node has weight 1; stored in zero heap bytes.
    Unit,
    /// At least one node has weight ≠ 1 (canonical: never all-ones).
    Explicit(Vec<u64>),
}

impl Weights {
    /// Canonicalizes a full weight vector: all-ones collapses to
    /// [`Weights::Unit`], anything else is kept explicit. Callers have
    /// already validated positivity and length.
    pub(crate) fn from_vec(weights: Vec<u64>) -> Weights {
        if weights.iter().all(|&w| w == 1) {
            Weights::Unit
        } else {
            Weights::Explicit(weights)
        }
    }
}

/// The most undirected edges a [`Graph`] can hold: each edge takes two
/// slots of the flat neighbor array, and `u32` offsets index that array.
pub(crate) const MAX_EDGES: usize = (u32::MAX / 2) as usize;

/// The edge-count check every CSR construction path runs before its `u32`
/// offset prefix sum could wrap.
///
/// # Errors
///
/// [`GraphError::TooManyEdges`] when `edges > MAX_EDGES`.
pub(crate) fn check_edge_count(edges: usize) -> Result<()> {
    if edges > MAX_EDGES {
        return Err(GraphError::TooManyEdges { edges });
    }
    Ok(())
}

impl Graph {
    /// Starts building a graph with `n` nodes.
    pub fn builder(n: usize) -> GraphBuilder {
        GraphBuilder::new(n)
    }

    /// Builds a unit-weight graph directly from an edge list.
    ///
    /// Duplicate edges are merged; edges are undirected, so `(u, v)` and
    /// `(v, u)` denote the same edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] for edges of the form `(u, u)` and
    /// [`GraphError::NodeOutOfRange`] when an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Result<Graph> {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(NodeId::new(u), NodeId::new(v))?;
        }
        Ok(b.build())
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n() as u32).map(NodeId::new)
    }

    /// Iterates over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Maximum degree Δ of the graph (`0` for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The sorted adjacency list of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// The raw compressed-sparse-row arrays: `(offsets, neighbors)`.
    ///
    /// `neighbors[offsets[v] as usize..offsets[v + 1] as usize]` is the
    /// sorted adjacency list of node `v` — the same slice
    /// [`Graph::neighbors`] returns. Exposing the flat arrays lets hot loops
    /// (the CONGEST simulator's fan-out, edge-parallel kernels) walk the
    /// whole adjacency structure without per-node slicing overhead, and
    /// lets auxiliary per-edge tables (e.g. reverse-port maps) share this
    /// graph's offset table.
    pub fn csr(&self) -> (&[u32], &[NodeId]) {
        (&self.offsets, &self.neighbors)
    }

    /// The half-open index range of `v`'s adjacency inside the flat
    /// [`Graph::csr`] neighbor array. The `p`-th port of `v` lives at flat
    /// index `neighbor_range(v).start + p`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbor_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
    }

    /// Iterates over the closed neighborhood `N⁺(v) = {v} ∪ N(v)`.
    pub fn closed_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(v).chain(self.neighbors(v).iter().copied())
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The weight `w_v` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn weight(&self, v: NodeId) -> u64 {
        match &self.weights {
            Weights::Unit => {
                assert!(
                    v.index() < self.n(),
                    "node {v} out of range (n = {})",
                    self.n()
                );
                1
            }
            Weights::Explicit(ws) => ws[v.index()],
        }
    }

    /// The explicit weight vector, when one is stored: `Some` iff the
    /// graph is *not* unit-weighted. Unit-weight graphs store no weight
    /// array at all (see [`Graph::memory_footprint`]) — callers that need
    /// per-node weights regardless use [`Graph::weight`] or
    /// [`Graph::weights_vec`].
    pub fn explicit_weights(&self) -> Option<&[u64]> {
        match &self.weights {
            Weights::Unit => None,
            Weights::Explicit(ws) => Some(ws),
        }
    }

    /// All node weights as an owned vector, materializing `vec![1; n]`
    /// for unit-weight graphs. Intended for export paths; hot loops use
    /// [`Graph::weight`].
    pub fn weights_vec(&self) -> Vec<u64> {
        match &self.weights {
            Weights::Unit => vec![1; self.n()],
            Weights::Explicit(ws) => ws.clone(),
        }
    }

    /// Returns `true` if every node has weight 1. `O(1)`: the compact
    /// representation is canonical, so unit-weightedness is a tag check.
    pub fn is_unit_weighted(&self) -> bool {
        matches!(self.weights, Weights::Unit)
    }

    /// Total weight of a set of nodes.
    pub fn set_weight(&self, set: impl IntoIterator<Item = NodeId>) -> u64 {
        set.into_iter().map(|v| self.weight(v)).sum()
    }

    /// Returns a copy of this graph with new node weights.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::WeightCount`] when `weights.len() != n` and
    /// [`GraphError::ZeroWeight`] when any weight is zero (the paper assumes
    /// positive integer weights).
    pub fn with_weights(&self, weights: Vec<u64>) -> Result<Graph> {
        if weights.len() != self.n() {
            return Err(GraphError::WeightCount {
                expected: self.n(),
                got: weights.len(),
            });
        }
        if let Some(i) = weights.iter().position(|&w| w == 0) {
            return Err(GraphError::ZeroWeight(NodeId::from_index(i)));
        }
        Ok(Graph {
            offsets: self.offsets.clone(),
            neighbors: self.neighbors.clone(),
            weights: Weights::from_vec(weights),
        })
    }

    /// The heap footprint of the frozen representation, by component —
    /// byte-accurate for the memory-tiered layout.
    ///
    /// The CSR arrays are sized exactly at build time, so this is the
    /// steady-state cost of *holding* the graph: `4(n + 1)` offset bytes,
    /// `8m` neighbor bytes (each undirected edge appears in both
    /// endpoints' lists), and either **0** weight bytes (unit-weight
    /// graphs — the compact `Weights::Unit` tier) or `8n` (explicit
    /// weights). So `4n + 8m` bytes for the unweighted tier and
    /// `12n + 8m` for the weighted one. Memory-tiered planning math lives
    /// on top of this accessor; see the workspace README's memory-tiered
    /// section.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            offsets_bytes: self.offsets.len() * std::mem::size_of::<u32>(),
            neighbors_bytes: self.neighbors.len() * std::mem::size_of::<NodeId>(),
            weights_bytes: match &self.weights {
                Weights::Unit => 0,
                Weights::Explicit(ws) => ws.len() * std::mem::size_of::<u64>(),
            },
        }
    }

    /// The minimum weight over the closed neighborhood of `v`:
    /// `τ_v = min_{u ∈ N⁺(v)} w_u`, the cheapest node that can dominate `v`.
    pub fn tau(&self, v: NodeId) -> u64 {
        self.closed_neighbors(v)
            .map(|u| self.weight(u))
            .min()
            .expect("closed neighborhood is nonempty")
    }

    /// The node of minimum `(weight, id)` in the closed neighborhood of `v`
    /// — the canonical dominator the completion step of Theorem 1.1 elects.
    pub fn tau_argmin(&self, v: NodeId) -> NodeId {
        self.closed_neighbors(v)
            .min_by_key(|&u| (self.weight(u), u))
            .expect("closed neighborhood is nonempty")
    }
}

/// Heap bytes of a frozen [`Graph`], by component — see
/// [`Graph::memory_footprint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// The `n + 1` CSR offset table (`u32` each).
    pub offsets_bytes: usize,
    /// The `2m` flat neighbor array (`u32` node ids).
    pub neighbors_bytes: usize,
    /// The node weights: `0` for the compact unit-weight tier, `8n` for
    /// explicit weights.
    pub weights_bytes: usize,
}

impl MemoryFootprint {
    /// Total heap bytes across all components.
    pub fn total(&self) -> usize {
        self.offsets_bytes + self.neighbors_bytes + self.weights_bytes
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("max_degree", &self.max_degree())
            .field("unit_weighted", &self.is_unit_weighted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_check_stops_at_the_u32_offset_boundary() {
        // 2 · MAX_EDGES neighbor slots still fit a u32 offset; one more
        // edge would wrap the prefix sum.
        assert!(2 * MAX_EDGES <= u32::MAX as usize);
        assert!(2 * (MAX_EDGES + 1) > u32::MAX as usize);
        assert_eq!(check_edge_count(MAX_EDGES), Ok(()));
        assert_eq!(
            check_edge_count(MAX_EDGES + 1),
            Err(GraphError::TooManyEdges {
                edges: MAX_EDGES + 1
            })
        );
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn triangle_basics() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.max_degree(), 2);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.tau(NodeId::new(0)), 1);
        assert!(g.is_unit_weighted());
    }

    #[test]
    fn duplicate_edges_merge() {
        let g = Graph::from_edges(2, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let err = Graph::from_edges(2, [(1, 1)]).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop(_)));
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Graph::from_edges(2, [(0, 2)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { .. }));
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        let nb: Vec<u32> = g
            .neighbors(NodeId::new(2))
            .iter()
            .map(|v| v.get())
            .collect();
        assert_eq!(nb, vec![0, 1, 3, 4]);
    }

    #[test]
    fn closed_neighbors_includes_self() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let cn: Vec<NodeId> = g.closed_neighbors(NodeId::new(0)).collect();
        assert_eq!(cn, vec![NodeId::new(0), NodeId::new(1)]);
        let isolated: Vec<NodeId> = g.closed_neighbors(NodeId::new(2)).collect();
        assert_eq!(isolated, vec![NodeId::new(2)]);
    }

    #[test]
    fn weights_roundtrip() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let g = g.with_weights(vec![5, 1, 7]).unwrap();
        assert_eq!(g.weight(NodeId::new(0)), 5);
        assert_eq!(g.tau(NodeId::new(0)), 1);
        assert_eq!(g.tau_argmin(NodeId::new(0)), NodeId::new(1));
        assert_eq!(g.tau(NodeId::new(2)), 1);
        assert_eq!(g.set_weight(g.nodes()), 13);
        assert!(!g.is_unit_weighted());
    }

    #[test]
    fn zero_weight_rejected() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        assert!(matches!(
            g.with_weights(vec![1, 0]).unwrap_err(),
            GraphError::ZeroWeight(_)
        ));
        assert!(matches!(
            g.with_weights(vec![1]).unwrap_err(),
            GraphError::WeightCount { .. }
        ));
    }

    #[test]
    fn edges_iterator_each_once() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.get(), v.get())).collect();
        assert_eq!(edges.len(), g.m());
        for &(u, v) in &edges {
            assert!(u < v);
        }
    }

    #[test]
    fn csr_arrays_match_neighbor_slices() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)]).unwrap();
        let (offsets, neighbors) = g.csr();
        assert_eq!(offsets.len(), g.n() + 1);
        assert_eq!(neighbors.len(), 2 * g.m());
        for v in g.nodes() {
            let r = g.neighbor_range(v);
            assert_eq!(&neighbors[r.clone()], g.neighbors(v));
            assert_eq!(r.start, offsets[v.index()] as usize);
            assert_eq!(r.end, offsets[v.index() + 1] as usize);
        }
    }

    #[test]
    fn unit_graphs_store_zero_weight_bytes() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(g.is_unit_weighted());
        assert!(g.explicit_weights().is_none());
        assert_eq!(g.memory_footprint().weights_bytes, 0);
        assert_eq!(g.weights_vec(), vec![1; 4]);
        // Explicit weights pay 8n; reverting to all-ones collapses back
        // to the compact tier — the canonical form is a true invariant.
        let w = g.with_weights(vec![2, 1, 1, 1]).unwrap();
        assert_eq!(w.memory_footprint().weights_bytes, 8 * 4);
        assert_eq!(w.explicit_weights(), Some(&[2, 1, 1, 1][..]));
        let back = w.with_weights(vec![1; 4]).unwrap();
        assert!(back.is_unit_weighted());
        assert_eq!(back, g, "all-ones explicit must equal compact unit");
        assert_eq!(back.memory_footprint().weights_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unit_weight_lookup_panics_out_of_range() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        g.weight(NodeId::new(2));
    }

    #[test]
    fn tau_argmin_breaks_ties_by_id() {
        let g = Graph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        // all weights 1: the minimum id in N⁺(0) wins, which is 0 itself.
        assert_eq!(g.tau_argmin(NodeId::new(0)), NodeId::new(0));
        assert_eq!(g.tau_argmin(NodeId::new(1)), NodeId::new(0));
    }
}
