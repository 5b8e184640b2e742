//! Fractional relaxation machinery: packing lower bounds and a
//! multiplicative-weights covering-LP solver.
//!
//! The dominating-set LP is `min Σ w_v x_v` s.t. `Σ_{u∈N⁺(v)} x_u ≥ 1` for
//! all `v`; its dual is the packing of Lemma 2.1. This module provides
//! both sides:
//!
//! * [`maximal_packing`] — a greedy *maximal* feasible packing, an OPT
//!   lower bound computed independently of the paper's algorithms (used to
//!   cross-check their certificates). It costs one `O(n + m)` greedy
//!   pass, and on a weighted graph also one `O(n + m)` pass that computes
//!   every `τ_v` and one `O(n log n)` sort of the `(τ_v, id)` keys;
//! * [`MaintainedPacking`] — the same greedy packing of a unit-weight
//!   graph, kept current across edge batches at a cost that follows the
//!   batch rather than the graph;
//! * [`fractional_mwu`] — a primal solution via the classic
//!   Plotkin–Shmoys–Tardos multiplicative-weights scheme with a
//!   best-single-node oracle, repaired to exact feasibility by scaling.
//!   Input for [`crate::bu_rounding`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use arbodom_core::PackingCertificate;
use arbodom_graph::{Graph, NodeId};

/// Greedily raises each node's packing value to the maximum the
/// constraints allow, processing nodes by `(τ_v, id)` (cheapest dominators
/// first, which empirically tightens the bound).
///
/// The result is maximal: no single `y_v` can be raised further. By
/// Lemma 2.1 its total is a lower bound on OPT.
///
/// Cost: one `O(n + m)` greedy pass that walks each closed neighborhood
/// at most twice, straight over the CSR arrays. On a unit-weight graph
/// ([`Graph::is_unit_weighted`]) every `τ_v` is 1, so the `(τ_v, id)`
/// order is id order and the greedy pass is all there is. A weighted
/// graph first pays one `O(n + m)` pass that computes every `τ_v` once
/// and one `O(n log n)` sort of the `(τ_v, id)` keys. The tests pin the
/// order and every `f64` operation bit for bit, on both paths, against a
/// reference that re-derives `τ` on every comparison.
pub fn maximal_packing(g: &Graph) -> PackingCertificate {
    let n = g.n();
    let (offsets, neighbors) = g.csr();
    let open = |v: usize| &neighbors[offsets[v] as usize..offsets[v + 1] as usize];
    // `None` on a unit-weight graph.
    let weights = g.explicit_weights();
    // Remaining slack of each constraint u: w_u − Σ_{v∈N⁺(u)} y_v.
    let mut slack: Vec<f64> = match weights {
        None => vec![1.0; n],
        Some(w) => w.iter().map(|&w| w as f64).collect(),
    };
    let mut y = vec![0.0f64; n];
    let mut raise = |v: usize| {
        let adj = open(v);
        let room = adj
            .iter()
            .map(|u| slack[u.index()])
            .fold(slack[v], f64::min);
        if room > 0.0 {
            y[v] = room;
            slack[v] -= room;
            for u in adj {
                slack[u.index()] -= room;
            }
        }
    };
    match weights {
        None => (0..n).for_each(raise),
        Some(w) => {
            let mut keys: Vec<(u64, u32)> = (0..n)
                .map(|v| {
                    let tau = open(v).iter().map(|u| w[u.index()]).fold(w[v], u64::min);
                    (tau, v as u32)
                })
                .collect();
            // Ids make every key distinct, so an unstable sort is exact.
            keys.sort_unstable();
            keys.into_iter().for_each(|(_, v)| raise(v as usize));
        }
    }
    PackingCertificate::new(y)
}

/// The [`maximal_packing`] of a unit-weight graph, kept current across
/// edge batches.
///
/// On unit weights every slack of the greedy stays 0.0 or 1.0, so each
/// `y_v` is 0 or 1: node `v` takes 1 exactly when no node of lower id
/// within two hops took 1. The packing is therefore the lexicographically
/// first set of nodes, in id order, whose members are pairwise at least 3
/// hops apart, and its bound is that set's size.
///
/// A batch that changes only edges among its `touched` nodes changes the
/// two-hop neighborhoods of those nodes and their neighbors, and of no
/// other node. [`MaintainedPacking::update`] re-decides those nodes in
/// ascending id order, and every node whose decision flips queues the
/// higher-id nodes within two hops of it. By induction on id order, a
/// node that is never queued keeps the greedy's decision. When the
/// re-decisions read more adjacency entries than one whole greedy pass
/// would, the update recomputes the whole packing instead. Either
/// way the result is [`maximal_packing`]'s, bit for bit; the tests pin
/// both paths against it along churn streams.
#[derive(Clone, Debug)]
pub struct MaintainedPacking {
    /// Whether each node's packing value is 1.
    in_packing: Vec<bool>,
    /// Number of nodes whose value is 1.
    size: usize,
    /// Nodes left to re-decide, lowest id first. Empty between updates;
    /// kept for its capacity.
    queue: BinaryHeap<Reverse<u32>>,
}

impl MaintainedPacking {
    /// The packing of `g`, computed by [`maximal_packing`]. `None` when
    /// `g` has explicit weights: its packing values are not all 0 or 1,
    /// and only the whole-graph function computes them.
    pub fn new(g: &Graph) -> Option<Self> {
        g.is_unit_weighted().then(|| {
            let in_packing: Vec<bool> = maximal_packing(g)
                .values()
                .iter()
                .map(|&y| y > 0.0)
                .collect();
            let size = in_packing.iter().filter(|&&b| b).count();
            MaintainedPacking {
                in_packing,
                size,
                queue: BinaryHeap::new(),
            }
        })
    }

    /// The packing's total, `Σ_v y_v`, with the bits of
    /// `maximal_packing(g).lower_bound()`.
    pub fn lower_bound(&self) -> f64 {
        match self.size {
            // A float sum of no terms is −0.0; any other sum of zeros and
            // ones is exactly the number of ones.
            0 => std::iter::empty::<f64>().sum(),
            size => size as f64,
        }
    }

    /// Whether each node's packing value is 1 (the packing's support).
    pub fn in_packing(&self) -> &[bool] {
        &self.in_packing
    }

    /// Heap bytes this packing holds: one flag per node and the update
    /// queue's capacity.
    pub fn heap_bytes(&self) -> usize {
        self.in_packing.capacity() + self.queue.capacity() * std::mem::size_of::<Reverse<u32>>()
    }

    /// Brings the packing up to date after one edge batch. `g` is the
    /// graph after the batch, the packing must be current for the graph
    /// before it, and every edge the batch inserted or deleted must join
    /// two nodes of `touched`.
    pub fn update(&mut self, g: &Graph, touched: &[NodeId]) {
        let (offsets, neighbors) = g.csr();
        if !self.redecide(g, touched, offsets.len() + neighbors.len()) {
            *self = MaintainedPacking::new(g).expect("edge batches keep a graph unit-weight");
        }
    }

    /// Re-decides the batch's region as [`MaintainedPacking::update`]
    /// describes. Returns `false`, with the packing half-updated, once it
    /// has read more than `budget` adjacency entries.
    fn redecide(&mut self, g: &Graph, touched: &[NodeId], budget: usize) -> bool {
        let (offsets, neighbors) = g.csr();
        let open = |v: usize| &neighbors[offsets[v] as usize..offsets[v + 1] as usize];
        let mut read = 0;
        for &t in touched {
            let adj = open(t.index());
            read += 1 + adj.len();
            self.queue.push(Reverse(t.get()));
            self.queue.extend(adj.iter().map(|u| Reverse(u.get())));
        }
        let mut last = None;
        while let Some(Reverse(v)) = self.queue.pop() {
            if read > budget {
                self.queue.clear();
                return false;
            }
            // Pushes only ever queue ids above the one being decided, so
            // duplicates pop back to back.
            if last == Some(v) {
                continue;
            }
            last = Some(v);
            let vi = v as usize;
            // The nodes within two hops of v are the neighbors of N⁺[v].
            // Adjacency lists are sorted, so the lower ids of each list
            // are a prefix and the higher ids a suffix.
            let closed = std::iter::once(vi).chain(open(vi).iter().map(|u| u.index()));
            let below = |w: usize| &open(w)[..open(w).partition_point(|u| u.get() < v)];
            let above = |w: usize| &open(w)[open(w).partition_point(|u| u.get() <= v)..];
            let blocked = closed.clone().any(|w| {
                let lower = below(w);
                read += 1 + lower.len();
                lower.iter().any(|u| self.in_packing[u.index()])
            });
            if self.in_packing[vi] != blocked {
                continue;
            }
            self.in_packing[vi] = !blocked;
            if blocked {
                self.size -= 1;
            } else {
                self.size += 1;
            }
            for w in closed {
                let higher = above(w);
                read += 1 + higher.len();
                self.queue.extend(higher.iter().map(|u| Reverse(u.get())));
            }
        }
        true
    }
}

/// Options for the multiplicative-weights LP solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MwuConfig {
    /// Step-size / accuracy parameter in `(0, 1)`; smaller is slower and
    /// more accurate.
    pub eta: f64,
    /// Number of oracle iterations; `0` (the default) sizes the budget
    /// automatically as `8·n`, enough for the constraint weights to
    /// separate and every constraint to be covered several times.
    pub iterations: usize,
}

impl Default for MwuConfig {
    fn default() -> Self {
        MwuConfig {
            eta: 0.25,
            iterations: 0,
        }
    }
}

/// A feasible fractional dominating set (coverage ≥ 1 everywhere) and its
/// cost.
#[derive(Clone, Debug)]
pub struct FractionalSolution {
    /// Fractional values per node.
    pub x: Vec<f64>,
    /// `Σ w_v x_v`.
    pub cost: f64,
}

impl FractionalSolution {
    /// Minimum coverage over all constraints (≥ 1 for a feasible point).
    pub fn min_coverage(&self, g: &Graph) -> f64 {
        g.nodes()
            .map(|v| {
                g.closed_neighbors(v)
                    .map(|u| self.x[u.index()])
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Solves the covering LP approximately by multiplicative weights:
/// maintain a weight per constraint, repeatedly buy the node with the best
/// (dual-weighted coverage)/(cost) ratio, and decay the weights of the
/// constraints it covers. The accumulated point is scaled by
/// `1/min_coverage` at the end, which makes it exactly feasible.
///
/// The oracle uses a lazy max-heap (scores only decrease as constraint
/// weights decay), so a full run is `O(iterations · d̄ · log n)` — fast
/// enough for the `n ≈ 10⁴` comparison experiments. The test suite
/// sandwiches the result between the packing bound and integral OPT on
/// small instances.
pub fn fractional_mwu(g: &Graph, cfg: &MwuConfig) -> FractionalSolution {
    let n = g.n();
    if n == 0 {
        return FractionalSolution {
            x: Vec::new(),
            cost: 0.0,
        };
    }
    let iterations = if cfg.iterations == 0 {
        8 * n
    } else {
        cfg.iterations
    };
    let mut constraint_w = vec![1.0f64; n];
    let mut x_acc = vec![0.0f64; n];

    #[derive(PartialEq)]
    struct Entry(f64, u32);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }
    let score_of = |u: NodeId, cw: &[f64]| -> f64 {
        g.closed_neighbors(u).map(|v| cw[v.index()]).sum::<f64>() / g.weight(u) as f64
    };
    let mut heap: std::collections::BinaryHeap<Entry> = g
        .nodes()
        .map(|u| Entry(score_of(u, &constraint_w), u.get()))
        .collect();
    for _ in 0..iterations {
        // Lazy pop: re-score and re-push until the top is current.
        let u = loop {
            let Entry(score, u) = heap.pop().expect("heap never empties");
            let u = NodeId::new(u);
            let fresh = score_of(u, &constraint_w);
            if fresh >= score * (1.0 - 1e-12) {
                heap.push(Entry(fresh, u.get()));
                break u;
            }
            heap.push(Entry(fresh, u.get()));
        };
        x_acc[u.index()] += 1.0;
        for v in g.closed_neighbors(u) {
            constraint_w[v.index()] *= 1.0 - cfg.eta;
        }
    }
    // Repair any constraint the budget never reached (rare: only when the
    // iteration budget is much smaller than n).
    for v in g.nodes() {
        let cov: f64 = g.closed_neighbors(v).map(|u| x_acc[u.index()]).sum();
        if cov <= 0.0 {
            x_acc[g.tau_argmin(v).index()] += 1.0;
        }
    }
    let mut sol = FractionalSolution {
        x: x_acc,
        cost: 0.0,
    };
    let cov = sol.min_coverage(g);
    debug_assert!(cov > 0.0);
    for x in &mut sol.x {
        *x /= cov;
    }
    minimalize(g, &mut sol.x);
    sol.cost = g
        .nodes()
        .map(|v| g.weight(v) as f64 * sol.x[v.index()])
        .sum();
    sol
}

/// Shrinks a feasible fractional cover to a *minimal* one: every `x_u` is
/// reduced by the largest amount that keeps all of `N⁺(u)`'s constraints
/// at coverage ≥ 1 (processed from the most expensive mass down, two
/// passes). Feasibility is preserved exactly; cost can only drop. This is
/// the fractional analogue of the reverse-delete step in Sun's
/// \[Sun21\] centralized algorithm — inherently sequential, which is
/// precisely why the paper's distributed algorithms avoid it; here it only
/// sharpens a *baseline*.
pub fn minimalize(g: &Graph, x: &mut [f64]) {
    assert_eq!(x.len(), g.n(), "x must cover all nodes");
    let mut cov: Vec<f64> = g
        .nodes()
        .map(|v| g.closed_neighbors(v).map(|u| x[u.index()]).sum())
        .collect();
    let mut order: Vec<NodeId> = g.nodes().collect();
    // Expensive mass first: weight descending, then value descending.
    order.sort_by(|&a, &b| {
        let ka = g.weight(a) as f64 * x[a.index()];
        let kb = g.weight(b) as f64 * x[b.index()];
        kb.total_cmp(&ka).then(a.cmp(&b))
    });
    for _pass in 0..2 {
        for &u in &order {
            let ui = u.index();
            if x[ui] <= 0.0 {
                continue;
            }
            let slack = g
                .closed_neighbors(u)
                .map(|v| cov[v.index()] - 1.0)
                .fold(f64::INFINITY, f64::min);
            let cut = slack.max(0.0).min(x[ui]);
            if cut > 0.0 {
                x[ui] -= cut;
                for v in g.closed_neighbors(u) {
                    cov[v.index()] -= cut;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbodom_graph::{generators, weights::WeightModel, GraphDelta};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn maximal_packing_is_feasible() {
        let mut rng = StdRng::seed_from_u64(221);
        for _ in 0..5 {
            let g = generators::gnp(120, 0.06, &mut rng);
            let g = WeightModel::Uniform { lo: 1, hi: 12 }.assign(&g, &mut rng);
            let cert = maximal_packing(&g);
            assert!(cert.is_feasible(&g, 1e-9));
            assert!(cert.lower_bound() > 0.0);
        }
    }

    /// The straightforward greedy that [`maximal_packing`] must match bit
    /// for bit: the same loop with τ re-derived inside the sort key on
    /// every comparison.
    fn naive_packing(g: &Graph) -> Vec<f64> {
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.sort_by_key(|&v| (g.tau(v), v));
        let mut slack: Vec<f64> = g.nodes().map(|u| g.weight(u) as f64).collect();
        let mut y = vec![0.0f64; g.n()];
        for v in order {
            let room = g
                .closed_neighbors(v)
                .map(|u| slack[u.index()])
                .fold(f64::INFINITY, f64::min);
            if room > 0.0 {
                y[v.index()] = room;
                for u in g.closed_neighbors(v) {
                    slack[u.index()] -= room;
                }
            }
        }
        y
    }

    #[test]
    fn maximal_packing_matches_naive_reference_bit_for_bit() {
        let models = [
            WeightModel::Unit,
            WeightModel::Uniform { lo: 1, hi: 100 },
            WeightModel::DegreeCorrelated,
        ];
        let bits = |y: &[f64]| y.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 10 + 7 * (seed as usize % 9);
            // A random tree on the first half of the nodes; the rest stay
            // isolated, so their closed neighborhood is themselves.
            let half = generators::random_tree(n / 2, &mut rng);
            let isolated = Graph::from_edges(n, half.edges().map(|(u, v)| (u.get(), v.get())))
                .expect("tree edges stay in range");
            let mut graphs = vec![
                generators::gnp(n, 0.1, &mut rng),
                generators::star(n),
                isolated,
            ];
            for alpha in 1..=3 {
                graphs.push(generators::forest_union(n, alpha, &mut rng));
            }
            for g in &graphs {
                for model in models {
                    let g = model.assign(g, &mut rng);
                    assert_eq!(
                        bits(maximal_packing(&g).values()),
                        bits(&naive_packing(&g)),
                        "seed {seed}, {} weights, n = {}, m = {}",
                        model.label(),
                        g.n(),
                        g.m()
                    );
                }
            }
        }
    }

    /// A random batch against `g`: up to `deletes` present edges and up
    /// to `inserts` absent pairs.
    fn random_batch(g: &Graph, deletes: usize, inserts: usize, rng: &mut StdRng) -> GraphDelta {
        let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.get(), v.get())).collect();
        let dels: Vec<(u32, u32)> = (0..deletes.min(edges.len()))
            .map(|_| edges[rng.random_range(0..edges.len())])
            .collect();
        let n = g.n() as u32;
        let ins: Vec<(u32, u32)> = (0..if n >= 2 { inserts } else { 0 })
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .filter(|&(u, v)| u != v && !g.has_edge(NodeId::new(u), NodeId::new(v)))
            .collect();
        GraphDelta::new(ins, dels).expect("present deletes and absent inserts never collide")
    }

    /// The batch-local path alone, with no budget to fall back on, keeps
    /// the whole-graph packing's bits and support along balanced,
    /// insert-only and delete-only streams.
    #[test]
    fn maintained_packing_redecides_the_batch_region_exactly() {
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = [64, 300, 2000][seed as usize % 3];
            let mut g = generators::forest_union(n, 1 + seed as usize % 5, &mut rng);
            let mut packing = MaintainedPacking::new(&g).expect("unit weights");
            for batch in 0..24 {
                let (deletes, inserts) = [(4, 4), (0, 8), (8, 0)][batch % 3];
                let delta = random_batch(&g, deletes, inserts, &mut rng);
                g = delta.apply(&g).expect("the batch was drawn against g");
                assert!(packing.redecide(&g, &delta.touched(), usize::MAX));
                let whole = maximal_packing(&g);
                let support: Vec<bool> = whole.values().iter().map(|&y| y > 0.0).collect();
                assert_eq!(packing.in_packing(), support, "seed {seed}, batch {batch}");
                assert_eq!(
                    packing.lower_bound().to_bits(),
                    whole.lower_bound().to_bits()
                );
            }
        }
    }

    #[test]
    fn maintained_packing_is_unit_weight_only_and_sums_like_the_certificate() {
        let g = generators::path(4);
        assert!(MaintainedPacking::new(&g.with_weights(vec![1, 2, 1, 1]).unwrap()).is_none());
        let empty = Graph::from_edges(0, []).unwrap();
        let packing = MaintainedPacking::new(&empty).expect("unit weights");
        assert_eq!(
            packing.lower_bound().to_bits(),
            maximal_packing(&empty).lower_bound().to_bits(),
            "an empty sum is -0.0"
        );
    }

    #[test]
    fn packing_bounds_exact_opt() {
        let mut rng = StdRng::seed_from_u64(222);
        for _ in 0..8 {
            let g = generators::gnp(22, 0.15, &mut rng);
            let cert = maximal_packing(&g);
            let exact = crate::exact::solve(&g).expect("small");
            assert!(
                cert.lower_bound() <= exact.weight as f64 + 1e-9,
                "packing LB {} exceeds OPT {}",
                cert.lower_bound(),
                exact.weight
            );
        }
    }

    #[test]
    fn packing_on_star_equals_one() {
        // Every node is in N⁺(hub) with w_hub = 1, so Σy ≤ 1; maximality
        // reaches exactly 1.
        let g = generators::star(30);
        let cert = maximal_packing(&g);
        assert!((cert.lower_bound() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mwu_is_feasible_and_sandwiched() {
        let mut rng = StdRng::seed_from_u64(223);
        for _ in 0..5 {
            let g = generators::gnp(24, 0.18, &mut rng);
            let sol = fractional_mwu(&g, &MwuConfig::default());
            assert!(sol.min_coverage(&g) >= 1.0 - 1e-9, "must be feasible");
            let exact = crate::exact::solve(&g).expect("small");
            // LP ≤ OPT; allow MWU 60% slack above OPT... it must at least
            // not exceed OPT by much more than the scale repair costs.
            assert!(
                sol.cost <= 1.6 * exact.weight as f64 + 1e-9,
                "MWU cost {} far above OPT {}",
                sol.cost,
                exact.weight
            );
            let lb = maximal_packing(&g).lower_bound();
            assert!(
                sol.cost >= lb - 1e-6,
                "LP cost {} below a valid lower bound {}",
                sol.cost,
                lb
            );
        }
    }

    #[test]
    fn mwu_handles_isolated_nodes() {
        let g = arbodom_graph::Graph::from_edges(3, [(0, 1)]).unwrap();
        let sol = fractional_mwu(
            &g,
            &MwuConfig {
                eta: 0.2,
                iterations: 300,
            },
        );
        assert!(sol.min_coverage(&g) >= 1.0 - 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = arbodom_graph::Graph::from_edges(0, []).unwrap();
        let sol = fractional_mwu(&g, &MwuConfig::default());
        assert!(sol.x.is_empty());
        let cert = maximal_packing(&g);
        assert_eq!(cert.lower_bound(), 0.0);
    }
}
