//! Incremental dominating-set repair under edge churn.
//!
//! The paper solves a *frozen* instance; this module keeps a solved
//! instance valid while the graph mutates. The key locality fact: after
//! applying a [`GraphDelta`], only the **endpoints of deleted edges** can
//! lose domination (an insertion only grows closed neighborhoods, and a
//! set member is never removed), so validity is restored by re-running
//! the paper's completion step — elect `tau_argmin`, the cheapest
//! `(weight, id)` node of the closed neighborhood, exactly the rule of
//! Theorem 1.1's completion — around the touched vertices only. That is
//! `O(Σ deg)` over the touched set, against `O(n + m)` plus simulation
//! rounds for a full re-solve.
//!
//! Repair alone only *adds* nodes, so quality would decay monotonically
//! between re-solves. Each batch therefore follows the addition step with
//! a local **shrink pass** ([`shrink_step`]): dominating-set members in
//! the closed neighborhoods of the batch's touched and freshly added
//! vertices are retired greedily (ascending id, for determinism) whenever
//! every vertex they cover has another dominator. Shrink is exactly as
//! local as repair — a redundancy can only appear where the batch changed
//! coverage — and it is what lets a deletion-heavy workload *lower* the
//! maintained weight instead of ratcheting it up. [`Maintainer`] tracks
//! the residual decay as a **drift estimate** — current weight over the
//! weight of the last full solve — and falls back to a caller-supplied
//! certified re-solve when the estimate exceeds
//! [`RepairConfig::max_drift`]. The churn scenarios
//! (`arbodom-scenarios`) run the equivalence harness on top of this:
//! every batch, the repaired set is checked valid and its weight compared
//! against a fresh certified reference, so measured (not just estimated)
//! drift is recorded per batch.
//!
//! The maintained state also carries two digests. The
//! [`chain digest`](arbodom_graph::digest::chain_digest) of its mutation
//! history gives every dynamic instance a stable identity: base
//! [`edge_digest`](arbodom_graph::digest::edge_digest) plus the exact
//! delta sequence applied. The [`EdgeDigest`] of the current graph names
//! the graph state itself; each batch folds into it in `O(|δ|)`, so a
//! caller reads the current graph's `edge_digest` without a pass over
//! the graph.
//!
//! # Example
//!
//! ```
//! use arbodom_core::repair::{Maintainer, RepairConfig};
//! use arbodom_core::{verify, weighted};
//! use arbodom_graph::{generators, GraphDelta};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let g = generators::forest_union(300, 2, &mut rng);
//! let cfg = weighted::Config::new(2, 0.2)?;
//! let sol = weighted::solve(&g, &cfg)?;
//! let mut state = Maintainer::new(g, &sol, RepairConfig::default());
//!
//! let delta = GraphDelta::new([], [(0, state.graph().neighbors(0.into())[0].get())])?;
//! let outcome = state.apply(&delta, |g| weighted::solve(g, &cfg))?;
//! assert!(verify::is_dominating_set(state.graph(), state.in_ds()));
//! assert_eq!(outcome.weight, state.weight());
//! # Ok::<(), arbodom_core::CoreError>(())
//! ```

use arbodom_graph::digest::{chain_digest, EdgeDigest};
use arbodom_graph::{Graph, GraphDelta, NodeId};

use crate::{verify, CoreError, DsResult, Result};

/// Policy knobs for [`Maintainer`].
#[derive(Clone, Copy, Debug)]
pub struct RepairConfig {
    /// Maximum tolerated *estimated* drift before [`Maintainer::apply`]
    /// falls back to a full re-solve: the fallback fires when
    /// `weight > (1 + max_drift) · anchor_weight`, where the anchor is
    /// the weight right after the last full solve.
    pub max_drift: f64,
    /// Force a full re-solve after this many consecutive repaired
    /// batches regardless of drift (`0` disables the limit). Guards
    /// against slow quality decay that individual batches hide.
    pub max_batches: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            max_drift: 0.25,
            max_batches: 0,
        }
    }
}

/// What one [`Maintainer::apply`] call did.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// `true` when local repair was kept; `false` when the drift bound
    /// tripped and the certified fallback re-solved from scratch.
    pub repaired: bool,
    /// Nodes the local repair added (empty when the batch re-solved).
    pub added: Vec<NodeId>,
    /// Nodes the local shrink pass retired as redundant (empty when the
    /// batch re-solved).
    pub removed: Vec<NodeId>,
    /// Touched vertices that had lost domination before the repair.
    pub undominated_before: usize,
    /// Set weight after the batch.
    pub weight: u64,
    /// `weight / anchor_weight` after the batch — 1.0 right after a full
    /// solve, growing as repair additions outpace shrink removals (and
    /// dipping below 1.0 when a deletion-heavy batch lets shrink retire
    /// more weight than repair added).
    pub drift_estimate: f64,
    /// Chain digest of the mutation history after this batch.
    pub chain: u64,
    /// Iterations reported by the fallback solve (`0` when repaired —
    /// local repair runs no simulation rounds at all).
    pub solve_iterations: usize,
}

/// Restores validity of `in_ds` on `g` after a mutation that touched the
/// given vertices: every touched vertex that lost domination elects its
/// `tau_argmin` (the completion rule of Theorem 1.1) into the set.
///
/// Correct under the locality fact in the module docs: if `in_ds` was
/// valid before an edge-only mutation, every invalid vertex afterwards is
/// an endpoint of a deleted edge, hence in `touched`. Vertices are
/// processed in the order given (keep it sorted for determinism); the
/// nodes added are returned in that order.
pub fn repair_step(g: &Graph, in_ds: &mut [bool], touched: &[NodeId]) -> Vec<NodeId> {
    assert_eq!(in_ds.len(), g.n(), "flag vector must cover all nodes");
    let mut added = Vec::new();
    for &u in touched {
        if !g.closed_neighbors(u).any(|w| in_ds[w.index()]) {
            let dominator = g.tau_argmin(u);
            in_ds[dominator.index()] = true;
            added.push(dominator);
        }
    }
    added
}

/// Retires redundant dominating-set members around `seeds`: every set
/// member in the closed neighborhood of a seed is removed — greedily, in
/// ascending id order — whenever every vertex of *its* closed
/// neighborhood keeps another dominator without it.
///
/// This is the deletion-side counterpart of [`repair_step`], and just as
/// local: after a batch, a member can only have become redundant if the
/// batch changed coverage somewhere in its neighborhood, i.e. near a
/// touched vertex (edge endpoints) or a freshly elected dominator — pass
/// both as seeds. The fixed ascending order makes the greedy outcome
/// deterministic regardless of seed order. Returns the removed nodes in
/// that order; `in_ds` stays a valid dominating set throughout.
pub fn shrink_step(g: &Graph, in_ds: &mut [bool], seeds: &[NodeId]) -> Vec<NodeId> {
    assert_eq!(in_ds.len(), g.n(), "flag vector must cover all nodes");
    let mut candidates: Vec<NodeId> = seeds
        .iter()
        .flat_map(|&u| g.closed_neighbors(u))
        .filter(|&w| in_ds[w.index()])
        .collect();
    candidates.sort_unstable();
    candidates.dedup();

    let mut removed = Vec::new();
    for u in candidates {
        in_ds[u.index()] = false;
        let safe = g
            .closed_neighbors(u)
            .all(|w| g.closed_neighbors(w).any(|x| in_ds[x.index()]));
        if safe {
            removed.push(u);
        } else {
            in_ds[u.index()] = true;
        }
    }
    removed
}

/// Counts the nodes of `g` that `in_ds` leaves undominated after a
/// repaired batch, checking only where the batch can change domination:
/// the `touched` vertices, whose closed neighborhoods changed, and the
/// closed neighborhoods of the members the batch `added` or `removed`.
///
/// Equals `verify::undominated_nodes(g, in_ds).len()` whenever `in_ds`
/// dominated the graph before the batch and the batch changed membership
/// only at `added` and `removed`, at `O(Σ deg)` over those nodes instead
/// of `O(n + m)`. After a full re-solve every node may have changed, so
/// count over the whole graph there.
pub fn undominated_after_batch(
    g: &Graph,
    in_ds: &[bool],
    touched: &[NodeId],
    added: &[NodeId],
    removed: &[NodeId],
) -> usize {
    assert_eq!(in_ds.len(), g.n(), "flag vector must cover all nodes");
    let mut region: Vec<NodeId> = added
        .iter()
        .chain(removed)
        .flat_map(|&u| g.closed_neighbors(u))
        .chain(touched.iter().copied())
        .collect();
    region.sort_unstable();
    region.dedup();
    region
        .into_iter()
        .filter(|&v| !g.closed_neighbors(v).any(|u| in_ds[u.index()]))
        .count()
}

/// Owned solve state for one dynamic instance: the current graph and its
/// digest, the maintained dominating set, the drift anchor, and the
/// digest chain of the mutation history. This is the state an `arbodomd`
/// session holds.
#[derive(Clone, Debug)]
pub struct Maintainer {
    graph: Graph,
    /// The digest parts of `graph`, updated with every applied batch.
    digest: EdgeDigest,
    in_ds: Vec<bool>,
    weight: u64,
    anchor_weight: u64,
    chain: u64,
    cfg: RepairConfig,
    batches_since_solve: usize,
}

impl Maintainer {
    /// Adopts a solved instance. `solution` must be a valid dominating
    /// set of `graph`.
    ///
    /// # Panics
    ///
    /// Panics when the solution's flag vector does not cover the graph or
    /// does not dominate it — the maintainer's invariant is validity, and
    /// adopting an invalid set would silently break every later batch.
    pub fn new(graph: Graph, solution: &DsResult, cfg: RepairConfig) -> Self {
        assert!(
            verify::is_dominating_set(&graph, &solution.in_ds),
            "maintainer requires a valid dominating set to start from"
        );
        let digest = EdgeDigest::of(&graph);
        Maintainer {
            in_ds: solution.in_ds.clone(),
            weight: solution.weight,
            anchor_weight: solution.weight.max(1),
            chain: digest.value(),
            digest,
            graph,
            cfg,
            batches_since_solve: 0,
        }
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Membership flags of the maintained dominating set.
    pub fn in_ds(&self) -> &[bool] {
        &self.in_ds
    }

    /// Total weight of the maintained set.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// The current graph's
    /// [`edge_digest`](arbodom_graph::digest::edge_digest), kept current
    /// batch by batch instead of rehashed.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }

    /// Chain digest of the mutation history: the base graph's
    /// [`edge_digest`](arbodom_graph::digest::edge_digest) folded with
    /// every applied delta, in order.
    pub fn chain(&self) -> u64 {
        self.chain
    }

    /// Batches repaired since the last full solve.
    pub fn batches_since_solve(&self) -> usize {
        self.batches_since_solve
    }

    /// Current drift estimate: maintained weight over the last full
    /// solve's weight.
    pub fn drift_estimate(&self) -> f64 {
        self.weight as f64 / self.anchor_weight as f64
    }

    /// Applies one delta batch: mutates the graph (overlay apply), folds
    /// the delta into the graph's digest and the digest chain, repairs
    /// validity locally, retires redundant members via [`shrink_step`],
    /// and — when the drift estimate exceeds [`RepairConfig::max_drift`]
    /// or the batch budget [`RepairConfig::max_batches`] is spent —
    /// replaces the set with a fresh certified solution from `resolve`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Graph`] when the delta conflicts with the maintained
    /// graph (the state is left unchanged), any error of `resolve`, and
    /// [`CoreError::Simulation`] when `resolve` returns a non-dominating
    /// set. After a failed `resolve` the batch stays applied: the graph,
    /// its digest and the chain include it.
    pub fn apply<F>(&mut self, delta: &GraphDelta, resolve: F) -> Result<BatchOutcome>
    where
        F: FnOnce(&Graph) -> Result<DsResult>,
    {
        let next = delta.apply(&self.graph)?;
        self.graph = next;
        self.digest.apply(delta);
        self.chain = chain_digest(self.chain, delta);

        let touched = delta.touched();
        let undominated_before = touched
            .iter()
            .filter(|&&u| {
                !self
                    .graph
                    .closed_neighbors(u)
                    .any(|w| self.in_ds[w.index()])
            })
            .count();
        let added = repair_step(&self.graph, &mut self.in_ds, &touched);
        self.weight += self.graph.set_weight(added.iter().copied());
        let mut seeds = touched.clone();
        seeds.extend(added.iter().copied());
        let removed = shrink_step(&self.graph, &mut self.in_ds, &seeds);
        self.weight -= self.graph.set_weight(removed.iter().copied());
        self.batches_since_solve += 1;

        let over_drift = self.drift_estimate() > 1.0 + self.cfg.max_drift;
        let over_budget =
            self.cfg.max_batches > 0 && self.batches_since_solve >= self.cfg.max_batches;
        if !(over_drift || over_budget) {
            return Ok(BatchOutcome {
                repaired: true,
                added,
                removed,
                undominated_before,
                weight: self.weight,
                drift_estimate: self.drift_estimate(),
                chain: self.chain,
                solve_iterations: 0,
            });
        }
        let iterations = self.resolve_with(resolve)?;
        Ok(BatchOutcome {
            repaired: false,
            added: Vec::new(),
            removed: Vec::new(),
            undominated_before,
            weight: self.weight,
            drift_estimate: 1.0,
            chain: self.chain,
            solve_iterations: iterations,
        })
    }

    /// Forces a full re-solve through `resolve`, re-anchoring the drift
    /// estimate at the fresh solution's weight. Returns the solve's
    /// iteration count.
    ///
    /// # Errors
    ///
    /// Any error of `resolve`, and [`CoreError::Simulation`] when the
    /// returned set does not dominate the current graph.
    pub fn resolve_with<F>(&mut self, resolve: F) -> Result<usize>
    where
        F: FnOnce(&Graph) -> Result<DsResult>,
    {
        let fresh = resolve(&self.graph)?;
        if !verify::is_dominating_set(&self.graph, &fresh.in_ds) {
            return Err(CoreError::Simulation(
                "fallback re-solve produced a non-dominating set".into(),
            ));
        }
        self.in_ds = fresh.in_ds;
        self.weight = fresh.weight;
        self.anchor_weight = fresh.weight.max(1);
        self.batches_since_solve = 0;
        Ok(fresh.iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted;
    use arbodom_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn solver(alpha: usize) -> impl Fn(&Graph) -> Result<DsResult> {
        move |g: &Graph| weighted::solve(g, &weighted::Config::new(alpha, 0.2)?)
    }

    /// A deterministic valid delta against `g`: delete a few existing
    /// edges, insert a few absent ones.
    fn churn(g: &Graph, seed: u64, dels: usize, inss: usize) -> GraphDelta {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let edges: Vec<_> = g.edges().collect();
        let mut deletes = Vec::new();
        for _ in 0..dels.min(edges.len()) {
            let (u, v) = edges[(next() % edges.len() as u64) as usize];
            deletes.push((u.get(), v.get()));
        }
        let mut inserts = Vec::new();
        while inserts.len() < inss {
            let (u, v) = (
                (next() % g.n() as u64) as u32,
                (next() % g.n() as u64) as u32,
            );
            if u != v && !g.has_edge(NodeId::new(u), NodeId::new(v)) {
                inserts.push((u, v));
            }
        }
        GraphDelta::new(inserts, deletes).unwrap()
    }

    #[test]
    fn repair_step_restores_validity_on_deletion() {
        // Path 0-1-2-3-4 dominated by {1, 3}; delete (3, 4): node 4
        // loses its only dominator and must elect tau_argmin.
        let g = generators::path(5);
        let mut in_ds = vec![false, true, false, true, false];
        let d = GraphDelta::new([], [(3, 4)]).unwrap();
        let g2 = d.apply(&g).unwrap();
        let added = repair_step(&g2, &mut in_ds, &d.touched());
        assert!(verify::is_dominating_set(&g2, &in_ds));
        assert_eq!(added, vec![NodeId::new(4)], "isolated node self-elects");
    }

    #[test]
    fn batch_local_count_sees_a_touched_node_that_lost_its_dominator() {
        // Path 0-1-2-3-4 dominated by {1, 3}; delete (3, 4) and skip the
        // repair: node 4 is undominated, and it is only a touched node.
        let g = generators::path(5);
        let in_ds = vec![false, true, false, true, false];
        let d = GraphDelta::new([], [(3, 4)]).unwrap();
        let g2 = d.apply(&g).unwrap();
        assert_eq!(
            undominated_after_batch(&g2, &in_ds, &d.touched(), &[], &[]),
            1
        );
        assert_eq!(verify::undominated_nodes(&g2, &in_ds).len(), 1);
    }

    /// The batch-local count equals the whole-graph count after every kept
    /// repair of random streams: balanced churn under the default bound,
    /// and deletion-heavy churn under a bound so tight that some batches
    /// fall back. Clearing a needed member that the batch added, by hand,
    /// must raise both counts alike.
    #[test]
    fn batch_local_count_matches_the_whole_graph() {
        let mut broken_sets = 0;
        for (seed, max_drift, dels, inss) in [(41, 0.25, 4, 4), (43, 0.0, 8, 2)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::forest_union(300, 2, &mut rng);
            let sol = solver(2)(&g).unwrap();
            let cfg = RepairConfig {
                max_drift,
                max_batches: 0,
            };
            let mut state = Maintainer::new(g, &sol, cfg);
            let (mut kept, mut fell_back) = (0, 0);
            for batch in 0..40 {
                let delta = churn(state.graph(), 100 * seed + batch, dels, inss);
                let out = state.apply(&delta, solver(3)).unwrap();
                if !out.repaired {
                    fell_back += 1;
                    continue;
                }
                kept += 1;
                let (g, in_ds) = (state.graph(), state.in_ds());
                let local = |flags: &[bool]| {
                    undominated_after_batch(g, flags, &delta.touched(), &out.added, &out.removed)
                };
                assert_eq!(local(in_ds), verify::undominated_nodes(g, in_ds).len());
                for &d in out.added.iter().filter(|d| in_ds[d.index()]) {
                    let mut broken = in_ds.to_vec();
                    broken[d.index()] = false;
                    let whole = verify::undominated_nodes(g, &broken).len();
                    assert_eq!(local(&broken), whole, "batch {batch}, member {d} cleared");
                    broken_sets += usize::from(whole > 0);
                }
            }
            assert!(kept > 0, "seed {seed}: no batch kept its repair");
            if max_drift == 0.0 {
                assert!(fell_back > 0, "seed {seed}: the tight bound never tripped");
            }
        }
        assert!(broken_sets > 0, "no batch added a needed member");
    }

    #[test]
    fn maintainer_stays_valid_over_many_batches() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::forest_union(400, 2, &mut rng);
        let sol = solver(2)(&g).unwrap();
        let mut state = Maintainer::new(g, &sol, RepairConfig::default());
        for batch in 0..30 {
            let delta = churn(state.graph(), batch, 5, 5);
            let out = state.apply(&delta, solver(3)).unwrap();
            assert!(
                verify::is_dominating_set(state.graph(), state.in_ds()),
                "batch {batch} left an invalid set"
            );
            assert_eq!(out.weight, state.weight());
            assert!(out.drift_estimate > 0.0);
        }
    }

    #[test]
    fn shrink_retires_member_made_redundant_by_repair() {
        // Two hubs over five leaves: an expensive hub c (weight 10) and a
        // cheap one h (weight 1), every leaf (weight 5) adjacent to both.
        // Start from DS = {c}, valid with weight 10. Deleting edge (c,
        // leaf2) undominates leaf2, whose tau_argmin is h; once h joins,
        // *everything* c covers is covered by h, so shrink must retire c
        // and the maintained weight must DROP from 10 to 1 — the behavior
        // a repair-only maintainer (weight ratcheting up to 11) cannot
        // produce.
        let c = 0u32;
        let h = 1u32;
        let leaves = 2u32..=6;
        let mut edges = Vec::new();
        edges.push((c, h));
        for l in leaves.clone() {
            edges.push((c, l));
            edges.push((h, l));
        }
        let g = Graph::from_edges(7, edges.iter().copied())
            .unwrap()
            .with_weights(vec![10, 1, 5, 5, 5, 5, 5])
            .unwrap();
        let mut in_ds = vec![false; 7];
        in_ds[c as usize] = true;
        assert!(verify::is_dominating_set(&g, &in_ds));
        let sol = DsResult::from_flags(&g, in_ds, 0, None);
        assert_eq!(sol.weight, 10);
        let mut state = Maintainer::new(g, &sol, RepairConfig::default());

        let delta = GraphDelta::new([], [(c, 2)]).unwrap();
        let out = state.apply(&delta, solver(2)).unwrap();
        assert!(out.repaired, "local repair must handle one deletion");
        assert_eq!(out.added, vec![NodeId::new(h)], "leaf elects the cheap hub");
        assert_eq!(out.removed, vec![NodeId::new(c)], "expensive hub retired");
        assert_eq!(state.weight(), 1, "weight must shrink, not ratchet up");
        assert!(out.drift_estimate < 1.0);
        assert!(verify::is_dominating_set(state.graph(), state.in_ds()));
    }

    #[test]
    fn shrink_step_keeps_needed_members() {
        // Path 0-1-2-3-4 with DS = {1, 3}: both members are needed (0 and
        // 4 have unique dominators), so shrinking around any seed must be
        // a no-op.
        let g = generators::path(5);
        let mut in_ds = vec![false, true, false, true, false];
        let seeds: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let removed = shrink_step(&g, &mut in_ds, &seeds);
        assert!(removed.is_empty(), "removed {removed:?}");
        assert_eq!(in_ds, vec![false, true, false, true, false]);
        assert!(verify::is_dominating_set(&g, &in_ds));
    }

    #[test]
    fn drift_bound_triggers_fallback() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::forest_union(300, 2, &mut rng);
        let sol = solver(2)(&g).unwrap();
        // With the shrink pass, balanced churn barely moves the weight;
        // delete-only churn fragments the forest, and every stranded
        // vertex must self-elect — weight climbs no matter how well
        // shrink compensates, so a razor-thin bound must trip.
        let mut state = Maintainer::new(
            g,
            &sol,
            RepairConfig {
                max_drift: 0.0,
                max_batches: 0,
            },
        );
        let mut resolved = 0;
        for batch in 0..40 {
            let out = state
                .apply(&churn(state.graph(), 1000 + batch, 10, 0), solver(3))
                .unwrap();
            if !out.repaired {
                resolved += 1;
                assert!((out.drift_estimate - 1.0).abs() < 1e-12);
                assert_eq!(state.batches_since_solve(), 0);
            }
        }
        assert!(
            resolved > 0,
            "tight drift bound never tripped in 40 batches"
        );
    }

    #[test]
    fn batch_budget_forces_periodic_resolve() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = generators::forest_union(200, 2, &mut rng);
        let sol = solver(2)(&g).unwrap();
        let mut state = Maintainer::new(
            g,
            &sol,
            RepairConfig {
                max_drift: f64::INFINITY,
                max_batches: 4,
            },
        );
        for batch in 0..8 {
            let out = state
                .apply(&churn(state.graph(), 99 + batch, 2, 2), solver(3))
                .unwrap();
            let expect_resolve = (batch + 1) % 4 == 0;
            assert_eq!(out.repaired, !expect_resolve, "batch {batch}");
        }
    }

    #[test]
    fn conflicting_delta_leaves_state_unchanged() {
        let g = generators::path(6);
        let sol = solver(1)(&g).unwrap();
        let mut state = Maintainer::new(g, &sol, RepairConfig::default());
        let chain = state.chain();
        let weight = state.weight();
        // (0, 5) is absent in a path: deleting it must fail cleanly.
        let bad = GraphDelta::new([], [(0, 5)]).unwrap();
        let err = state.apply(&bad, solver(1)).unwrap_err();
        assert!(matches!(err, CoreError::Graph(_)), "{err:?}");
        assert_eq!(state.chain(), chain, "failed batch must not advance chain");
        assert_eq!(state.weight(), weight);
        assert!(verify::is_dominating_set(state.graph(), state.in_ds()));
    }

    /// The maintained digest is the current graph's `edge_digest` after
    /// every outcome: a kept repair, a fallback, a conflicting batch (the
    /// graph is unchanged) and a batch whose fallback solve fails (the
    /// batch stays applied).
    #[test]
    fn maintained_digest_matches_the_graph_after_every_outcome() {
        use arbodom_graph::digest::edge_digest;
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::forest_union(200, 2, &mut rng);
        let sol = solver(2)(&g).unwrap();
        let cfg = RepairConfig {
            max_drift: f64::INFINITY,
            max_batches: 3,
        };
        let mut state = Maintainer::new(g, &sol, cfg);
        assert_eq!(state.digest(), edge_digest(state.graph()));
        assert_eq!(
            state.chain(),
            state.digest(),
            "the chain starts at the digest"
        );
        for batch in 0..6 {
            let out = state
                .apply(&churn(state.graph(), 300 + batch, 3, 3), solver(3))
                .unwrap();
            assert_eq!(out.repaired, (batch + 1) % 3 != 0, "batch {batch}");
            assert_eq!(state.digest(), edge_digest(state.graph()), "batch {batch}");
        }

        let before = (state.graph().clone(), state.digest(), state.chain());
        let (u, v) = state.graph().edges().next().expect("the forest has edges");
        let conflict = GraphDelta::new([(u.get(), v.get())], []).unwrap();
        assert!(state.apply(&conflict, solver(3)).is_err());
        assert_eq!(
            (state.graph().clone(), state.digest(), state.chain()),
            before
        );

        // Two repaired batches spend the budget, and the third's fallback
        // fails: its batch stays applied, and the digest follows it.
        for batch in 0..3 {
            let delta = churn(state.graph(), 400 + batch, 2, 2);
            let applied = delta.apply(state.graph()).unwrap();
            let result = state.apply(&delta, |_: &Graph| {
                Err(CoreError::Simulation("the fallback solve fails".into()))
            });
            assert_eq!(result.is_err(), batch == 2, "batch {batch}");
            assert_eq!(state.graph(), &applied, "batch {batch}");
            assert_eq!(state.digest(), edge_digest(&applied), "batch {batch}");
        }
    }

    #[test]
    fn equivalence_harness_repair_tracks_certified_reference() {
        // The acceptance harness in miniature: after every batch the
        // repaired set is valid, and its weight stays within the drift
        // bound of a fresh certified re-solve on the same graph.
        let mut rng = StdRng::seed_from_u64(17);
        let g = generators::forest_union(350, 3, &mut rng);
        let sol = solver(3)(&g).unwrap();
        let cfg = RepairConfig {
            max_drift: 0.30,
            max_batches: 0,
        };
        let mut state = Maintainer::new(g, &sol, cfg);
        for batch in 0..20 {
            let delta = churn(state.graph(), 31 * batch + 5, 4, 4);
            state.apply(&delta, solver(4)).unwrap();
            assert!(verify::is_dominating_set(state.graph(), state.in_ds()));
            let reference = solver(4)(state.graph()).unwrap();
            assert!(verify::is_dominating_set(state.graph(), &reference.in_ds));
            let measured_drift = state.weight() as f64 / reference.weight.max(1) as f64;
            // Repair is allowed to be worse than a fresh solve, but the
            // maintainer's own anchor keeps the decay bounded; allow the
            // anchor slack on top of the configured bound.
            assert!(
                measured_drift <= (1.0 + cfg.max_drift) * 1.5,
                "batch {batch}: measured drift {measured_drift} out of bounds"
            );
        }
    }

    #[test]
    fn chain_digest_identifies_history() {
        let g = generators::path(8);
        let sol = solver(1)(&g).unwrap();
        let d1 = GraphDelta::new([(0, 2)], []).unwrap();
        let d2 = GraphDelta::new([(0, 3)], []).unwrap();
        let mut a = Maintainer::new(g.clone(), &sol, RepairConfig::default());
        let mut b = Maintainer::new(g, &sol, RepairConfig::default());
        a.apply(&d1, solver(1)).unwrap();
        a.apply(&d2, solver(1)).unwrap();
        b.apply(&d2, solver(1)).unwrap();
        b.apply(&d1, solver(1)).unwrap();
        // Same final structure, different history: digests must differ.
        assert_eq!(
            arbodom_graph::digest::edge_digest(a.graph()),
            arbodom_graph::digest::edge_digest(b.graph())
        );
        assert_ne!(a.chain(), b.chain());
    }

    #[test]
    #[should_panic(expected = "valid dominating set")]
    fn adopting_invalid_solution_panics() {
        let g = generators::path(4);
        let mut sol = solver(1)(&g).unwrap();
        sol.in_ds.iter_mut().for_each(|b| *b = false);
        let _ = Maintainer::new(g, &sol, RepairConfig::default());
    }
}
