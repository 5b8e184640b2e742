//! Batched edge mutations over frozen [`Graph`]s.
//!
//! A [`GraphDelta`] is a canonicalized batch of edge insertions and
//! deletions against a fixed node set. It is the unit of change for the
//! dynamic-graph stack: churn scenarios generate deltas, `arbodomd`
//! sessions accept them over the wire, and the repair layer in
//! `arbodom-core` patches dominating sets around them.
//!
//! Two apply paths produce **byte-identical** CSR representations:
//!
//! * [`GraphDelta::apply_rebuild`] — the reference path: re-run
//!   [`GraphBuilder`] over the full surviving edge list. `O(n + m log m)`.
//! * [`GraphDelta::apply`] — the overlay path: merge each touched node's
//!   sorted adjacency with its run of one sorted patch list directly into
//!   fresh CSR arrays, copying untouched ranges wholesale.
//!   `O(n + m + |δ| log |δ|)`, no global sort and no per-node lists.
//!
//! Deltas are *strict*: inserting an edge that is already present, or
//! deleting one that is absent, is an [`GraphError::EdgeConflict`] — not
//! a no-op. Serving layers want churn streams to be honest about what
//! they changed, and strictness is what makes the digest chain
//! ([`crate::digest::chain_digest`]) a faithful identity for
//! "base instance + exactly this mutation history".
//!
//! Deltas never change the node count or the weight vector; both are
//! carried over from the base graph unchanged.

use crate::csr::check_edge_count;
use crate::{Graph, GraphBuilder, GraphError, NodeId, Result};

/// A canonicalized batch of edge insertions and deletions.
///
/// Canonical form (established by [`GraphDelta::new`]): every edge is
/// normalized to `(min, max)`, both lists are sorted and deduplicated,
/// and no edge appears in both lists. Self-loops are rejected at
/// construction; endpoint range is checked against the base graph at
/// apply time (a delta is not tied to one `n`).
///
/// # Example
///
/// ```
/// use arbodom_graph::{Graph, GraphDelta};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let d = GraphDelta::new([(0, 3)], [(1, 2)])?;
/// let g2 = d.apply(&g)?;
/// assert_eq!(g2.m(), 3);
/// assert!(g2.has_edge(0.into(), 3.into()));
/// assert!(!g2.has_edge(1.into(), 2.into()));
/// # Ok::<(), arbodom_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    inserts: Vec<(NodeId, NodeId)>,
    deletes: Vec<(NodeId, NodeId)>,
}

/// Normalizes raw endpoint pairs: orient `(min, max)`, reject self-loops,
/// sort, dedup.
fn canonicalize(edges: impl IntoIterator<Item = (u32, u32)>) -> Result<Vec<(NodeId, NodeId)>> {
    let mut out: Vec<(NodeId, NodeId)> = Vec::new();
    for (u, v) in edges {
        if u == v {
            return Err(GraphError::SelfLoop(NodeId::new(u)));
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        out.push((NodeId::new(a), NodeId::new(b)));
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

impl GraphDelta {
    /// Builds a delta from raw insert and delete edge lists.
    ///
    /// Edges are undirected — `(u, v)` and `(v, u)` denote the same edge
    /// — and duplicates within a list are merged.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] for `(v, v)` entries and
    /// [`GraphError::InvalidParameter`] when an edge appears in both the
    /// insert and the delete list (the batch would be ambiguous: deltas
    /// are sets of changes, not ordered scripts).
    pub fn new(
        inserts: impl IntoIterator<Item = (u32, u32)>,
        deletes: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<GraphDelta> {
        let inserts = canonicalize(inserts)?;
        let deletes = canonicalize(deletes)?;
        if let Some((u, v)) = inserts.iter().find(|e| deletes.binary_search(e).is_ok()) {
            return Err(GraphError::InvalidParameter(format!(
                "edge ({u}, {v}) appears in both the insert and delete list"
            )));
        }
        Ok(GraphDelta { inserts, deletes })
    }

    /// The canonical insert list: sorted `(min, max)` pairs.
    pub fn inserts(&self) -> &[(NodeId, NodeId)] {
        &self.inserts
    }

    /// The canonical delete list: sorted `(min, max)` pairs.
    pub fn deletes(&self) -> &[(NodeId, NodeId)] {
        &self.deletes
    }

    /// Total number of edge mutations in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the batch mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Every node incident to a mutated edge, sorted and deduplicated —
    /// the vertices a repair pass must re-examine.
    pub fn touched(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .inserts
            .iter()
            .chain(&self.deletes)
            .flat_map(|&(u, v)| [u, v])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Checks every endpoint against the base graph's node count.
    fn check_range(&self, g: &Graph) -> Result<()> {
        let n = g.n();
        for &(u, v) in self.inserts.iter().chain(&self.deletes) {
            for w in [u, v] {
                if w.index() >= n {
                    return Err(GraphError::NodeOutOfRange { node: w, n });
                }
            }
        }
        Ok(())
    }

    /// Reference apply: rebuilds the full CSR from the surviving edge
    /// list via [`GraphBuilder`]. Weights carry over unchanged.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] for endpoints `>= g.n()`,
    /// [`GraphError::EdgeConflict`] when an insert is already present or
    /// a delete is absent, and [`GraphError::TooManyEdges`] from
    /// [`GraphBuilder::add_edge`].
    pub fn apply_rebuild(&self, g: &Graph) -> Result<Graph> {
        self.check_range(g)?;
        // Absent deletes first, as `apply` reports them.
        for &(u, v) in &self.deletes {
            if !g.has_edge(u, v) {
                return Err(GraphError::EdgeConflict {
                    u,
                    v,
                    present: false,
                });
            }
        }
        for &(u, v) in &self.inserts {
            if g.has_edge(u, v) {
                return Err(GraphError::EdgeConflict {
                    u,
                    v,
                    present: true,
                });
            }
        }
        let mut b = GraphBuilder::new(g.n());
        for (u, v) in g.edges() {
            if self.deletes.binary_search(&(u, v)).is_err() {
                b.add_edge(u, v)?;
            }
        }
        for &(u, v) in &self.inserts {
            b.add_edge(u, v)?;
        }
        let rebuilt = b.build();
        // Carry the base graph's weights over verbatim — cloning the
        // memory-tiered enum keeps a unit-weight base at zero weight
        // bytes instead of materializing an all-ones vector.
        Ok(Graph {
            weights: g.weights.clone(),
            ..rebuilt
        })
    }

    /// Overlay apply: sorts one patch list over the touched nodes only
    /// (`2|δ|` entries, no per-node lists), merges each touched node's
    /// sorted base adjacency with its run of patches straight into fresh
    /// CSR arrays, and copies the untouched ranges between touched nodes
    /// wholesale. Produces a graph byte-identical to
    /// [`GraphDelta::apply_rebuild`] without a global edge sort.
    ///
    /// # Errors
    ///
    /// Same contract as [`GraphDelta::apply_rebuild`], including
    /// [`GraphError::TooManyEdges`] (checked before any CSR array is
    /// filled) when the result would exceed `u32::MAX / 2` edges. When a
    /// batch has several faults, the first in this order is reported: an
    /// out-of-range endpoint, an absent delete in list order, the edge
    /// count, a present insert in canonical order.
    pub fn apply(&self, g: &Graph) -> Result<Graph> {
        self.check_range(g)?;
        // Deletes must exist in the base graph before the merge drops
        // them. Insert conflicts surface during the merge.
        for &(u, v) in &self.deletes {
            if !g.has_edge(u, v) {
                return Err(GraphError::EdgeConflict {
                    u,
                    v,
                    present: false,
                });
            }
        }
        // Deletes are distinct present edges, so this is the result's edge
        // count, unless an insert conflicts, which the merge rejects anyway.
        let m = g.m() - self.deletes.len() + self.inserts.len();
        check_edge_count(m)?;

        // One patch per mutated edge end, `(node, neighbor, is_insert)`,
        // sorted by node and then neighbor: each touched node's patches
        // form one sorted run. The lists are disjoint, so no two patches
        // share a `(node, neighbor)` pair.
        let mut patches: Vec<(NodeId, NodeId, bool)> = Vec::with_capacity(2 * self.len());
        for (list, insert) in [(&self.inserts, true), (&self.deletes, false)] {
            for &(u, v) in list {
                patches.push((u, v, insert));
                patches.push((v, u, insert));
            }
        }
        patches.sort_unstable();

        let (base_offsets, base) = g.csr();
        let mut offsets: Vec<u32> = Vec::with_capacity(g.n() + 1);
        let mut neighbors: Vec<NodeId> = Vec::with_capacity(2 * m);
        // Copies the adjacency of the untouched nodes `from..to` wholesale,
        // shifting their offsets by what the touched nodes below them
        // gained or lost.
        let copy_untouched =
            |offsets: &mut Vec<u32>, neighbors: &mut Vec<NodeId>, from: usize, to: usize| {
                let (lo, hi) = (base_offsets[from], base_offsets[to]);
                let shift = (neighbors.len() as u32).wrapping_sub(lo);
                offsets.extend(
                    base_offsets[from..to]
                        .iter()
                        .map(|&o| o.wrapping_add(shift)),
                );
                neighbors.extend_from_slice(&base[lo as usize..hi as usize]);
            };
        let mut done = 0;
        for run in patches.chunk_by(|a, b| a.0 == b.0) {
            let node = run[0].0;
            let v = node.index();
            copy_untouched(&mut offsets, &mut neighbors, done, v);
            offsets.push(neighbors.len() as u32);
            // Merge: copy the base list up to each patched neighbor, then
            // weave the insert in or skip the deleted entry.
            let adj = g.neighbors(node);
            let mut bi = 0;
            for &(_, x, insert) in run {
                let below = bi + adj[bi..].partition_point(|&b| b < x);
                neighbors.extend_from_slice(&adj[bi..below]);
                bi = below;
                let present = adj.get(bi) == Some(&x);
                if insert {
                    if present {
                        return Err(GraphError::EdgeConflict {
                            u: node.min(x),
                            v: node.max(x),
                            present: true,
                        });
                    }
                    neighbors.push(x);
                } else {
                    debug_assert!(present, "pre-validated delete ({node}, {x}) is present");
                    bi += 1;
                }
            }
            neighbors.extend_from_slice(&adj[bi..]);
            done = v + 1;
        }
        copy_untouched(&mut offsets, &mut neighbors, done, g.n());
        offsets.push(neighbors.len() as u32);
        debug_assert_eq!(neighbors.len(), 2 * m);
        Ok(Graph {
            offsets,
            neighbors,
            weights: g.weights.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{chain_digest, edge_digest};
    use crate::generators;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn csr_bytes(g: &Graph) -> (Vec<u32>, Vec<NodeId>, Vec<u64>) {
        let (offsets, neighbors) = g.csr();
        (offsets.to_vec(), neighbors.to_vec(), g.weights_vec())
    }

    #[test]
    fn canonical_form_orients_sorts_and_dedups() {
        let d = GraphDelta::new([(3, 1), (1, 3), (0, 2)], [(5, 4)]).unwrap();
        assert_eq!(
            d.inserts(),
            &[
                (NodeId::new(0), NodeId::new(2)),
                (NodeId::new(1), NodeId::new(3))
            ]
        );
        assert_eq!(d.deletes(), &[(NodeId::new(4), NodeId::new(5))]);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        let touched: Vec<u32> = d.touched().iter().map(|v| v.get()).collect();
        assert_eq!(touched, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn self_loops_and_overlap_rejected() {
        assert!(matches!(
            GraphDelta::new([(2, 2)], []).unwrap_err(),
            GraphError::SelfLoop(_)
        ));
        assert!(matches!(
            GraphDelta::new([(0, 1)], [(1, 0)]).unwrap_err(),
            GraphError::InvalidParameter(_)
        ));
    }

    #[test]
    fn conflicts_are_detected_on_both_paths() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let dup = GraphDelta::new([(0, 1)], []).unwrap();
        let gone = GraphDelta::new([], [(1, 2)]).unwrap();
        let both = GraphDelta::new([(0, 1)], [(1, 2)]).unwrap();
        for d in [&dup, &gone, &both] {
            let (a, b) = (d.apply(&g).unwrap_err(), d.apply_rebuild(&g).unwrap_err());
            assert!(matches!(a, GraphError::EdgeConflict { .. }), "{a:?}");
            assert_eq!(a, b, "both paths must report the same conflict");
        }
        let oob = GraphDelta::new([(0, 9)], []).unwrap();
        assert!(matches!(
            oob.apply(&g).unwrap_err(),
            GraphError::NodeOutOfRange { .. }
        ));
    }

    /// With several faults in one batch, `apply` reports the first in its
    /// documented order. The error string is the job-level error a session
    /// client gets back, so the choice is pinned.
    #[test]
    fn batches_with_several_conflicts_report_the_first() {
        // Path 0-1-2-3-4-5.
        let g = generators::path(6);
        let conflict = |u: u32, v: u32, present| GraphError::EdgeConflict {
            u: NodeId::new(u),
            v: NodeId::new(v),
            present,
        };
        // An absent delete wins over a present insert, even one that comes
        // first in node order.
        let both = GraphDelta::new([(0, 1)], [(2, 5)]).unwrap();
        assert_eq!(both.apply(&g).unwrap_err(), conflict(2, 5, false));
        // Absent deletes in list order.
        let deletes = GraphDelta::new([], [(1, 3), (0, 4)]).unwrap();
        assert_eq!(deletes.apply(&g).unwrap_err(), conflict(0, 4, false));
        // Two present inserts, given in reverse: the first in canonical
        // order.
        let inserts = GraphDelta::new([(4, 3), (2, 1)], []).unwrap();
        assert_eq!(inserts.apply(&g).unwrap_err(), conflict(1, 2, true));
        // An absent insert on a smaller node does not hide the conflict.
        let mixed = GraphDelta::new([(0, 5), (3, 4), (1, 2)], []).unwrap();
        assert_eq!(mixed.apply(&g).unwrap_err(), conflict(1, 2, true));
        // Out of range beats everything.
        let range = GraphDelta::new([(0, 1)], [(2, 9)]).unwrap();
        assert!(matches!(
            range.apply(&g).unwrap_err(),
            GraphError::NodeOutOfRange { .. }
        ));
    }

    /// A delta that touches only the first and the last node leaves one
    /// untouched range between them, copied wholesale, and none outside.
    #[test]
    fn delta_on_the_first_and_last_node_matches_rebuild() {
        let mut rng = StdRng::seed_from_u64(29);
        let g = generators::forest_union(50, 2, &mut rng);
        let last = (g.n() - 1) as u32;
        let d = if g.has_edge(NodeId::new(0), NodeId::new(last)) {
            GraphDelta::new([], [(0, last)]).unwrap()
        } else {
            GraphDelta::new([(0, last)], []).unwrap()
        };
        let touched: Vec<u32> = d.touched().iter().map(|v| v.get()).collect();
        assert_eq!(touched, vec![0, last]);
        let fast = d.apply(&g).unwrap();
        assert_eq!(csr_bytes(&fast), csr_bytes(&d.apply_rebuild(&g).unwrap()));
        // And back: the inverse restores the base bytes.
        let inverse = GraphDelta::new(
            d.deletes().iter().map(|&(u, v)| (u.get(), v.get())),
            d.inserts().iter().map(|&(u, v)| (u.get(), v.get())),
        )
        .unwrap();
        assert_eq!(csr_bytes(&inverse.apply(&fast).unwrap()), csr_bytes(&g));
    }

    #[test]
    fn weights_carry_over() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)])
            .unwrap()
            .with_weights(vec![5, 1, 7])
            .unwrap();
        let d = GraphDelta::new([(0, 2)], [(0, 1)]).unwrap();
        let g2 = d.apply(&g).unwrap();
        assert_eq!(g2.weights_vec(), vec![5, 1, 7]);
        assert_eq!(csr_bytes(&g2), csr_bytes(&d.apply_rebuild(&g).unwrap()));
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = generators::gnp(40, 0.1, &mut StdRng::seed_from_u64(3));
        let d = GraphDelta::default();
        assert_eq!(csr_bytes(&d.apply(&g).unwrap()), csr_bytes(&g));
    }

    #[test]
    fn chain_digest_is_order_and_content_sensitive() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let base = edge_digest(&g);
        let d1 = GraphDelta::new([(1, 2)], []).unwrap();
        let d2 = GraphDelta::new([(0, 3)], []).unwrap();
        let ab = chain_digest(chain_digest(base, &d1), &d2);
        let ba = chain_digest(chain_digest(base, &d2), &d1);
        assert_ne!(ab, ba, "chain must encode history order");
        assert_ne!(chain_digest(base, &d1), base);
        assert_ne!(
            chain_digest(base, &GraphDelta::default()),
            base,
            "even an empty batch advances the chain"
        );
    }

    /// Deterministically derives a valid delta for `g`: a sample of
    /// existing edges to delete and absent edges to insert.
    fn random_delta(g: &Graph, seed: u64) -> GraphDelta {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        let mut deletes = Vec::new();
        for _ in 0..edges.len().min(8) {
            let (u, v) = edges[(next() % edges.len().max(1) as u64) as usize];
            deletes.push((u.get(), v.get()));
        }
        let mut inserts = Vec::new();
        let n = g.n() as u64;
        while inserts.len() < 8 {
            let (u, v) = ((next() % n) as u32, (next() % n) as u32);
            if u != v && !g.has_edge(NodeId::new(u), NodeId::new(v)) {
                inserts.push((u, v));
            }
        }
        GraphDelta::new(inserts, deletes).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tentpole invariant: overlay and rebuild produce
        /// byte-identical CSR arrays, and the result matches a from-scratch
        /// construction of the expected edge set.
        #[test]
        fn overlay_equals_rebuild_byte_identically(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp(30 + (seed % 40) as usize, 0.12, &mut rng);
            let d = random_delta(&g, seed ^ 0xabcd);
            let fast = d.apply(&g).unwrap();
            let slow = d.apply_rebuild(&g).unwrap();
            prop_assert_eq!(csr_bytes(&fast), csr_bytes(&slow));

            let mut expected: Vec<(u32, u32)> = g
                .edges()
                .filter(|e| d.deletes().binary_search(e).is_err())
                .map(|(u, v)| (u.get(), v.get()))
                .collect();
            expected.extend(d.inserts().iter().map(|&(u, v)| (u.get(), v.get())));
            let scratch = Graph::from_edges(g.n(), expected).unwrap();
            prop_assert_eq!(csr_bytes(&fast), csr_bytes(&scratch));
            prop_assert_eq!(edge_digest(&fast), edge_digest(&scratch));
        }

        /// Chained digests are deterministic and sensitive to each hop.
        #[test]
        fn chain_digest_deterministic(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp(25, 0.15, &mut rng);
            let d = random_delta(&g, seed);
            let base = edge_digest(&g);
            prop_assert_eq!(chain_digest(base, &d), chain_digest(base, &d));
            prop_assert_ne!(chain_digest(base, &d), chain_digest(base ^ 1, &d));
        }
    }
}
