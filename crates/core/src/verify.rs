//! Verification: dominating-set checking and dual (packing) certificates.
//!
//! Lemma 2.1 of the paper: if `{x_v}` satisfies `Σ_{v ∈ N⁺(u)} x_v ≤ w_u`
//! for every node `u`, then `Σ_v x_v ≤ OPT`. The primal-dual algorithms
//! emit exactly such a packing, so every run carries a machine-checkable
//! lower bound on the optimum — the experiments' measured ratios are
//! certified, not estimated.

use arbodom_graph::{Graph, NodeId};

/// Whether `in_ds` flags a dominating set of `g`.
pub fn is_dominating_set(g: &Graph, in_ds: &[bool]) -> bool {
    assert_eq!(in_ds.len(), g.n(), "flag vector must cover all nodes");
    g.nodes()
        .all(|v| g.closed_neighbors(v).any(|u| in_ds[u.index()]))
}

/// The nodes not dominated by `in_ds`, in id order.
pub fn undominated_nodes(g: &Graph, in_ds: &[bool]) -> Vec<NodeId> {
    assert_eq!(in_ds.len(), g.n(), "flag vector must cover all nodes");
    g.nodes()
        .filter(|&v| !g.closed_neighbors(v).any(|u| in_ds[u.index()]))
        .collect()
}

/// Marks `N⁺[S]` for the given membership flags.
pub fn dominated_flags(g: &Graph, in_ds: &[bool]) -> Vec<bool> {
    let mut dom = vec![false; g.n()];
    for v in g.nodes() {
        if in_ds[v.index()] {
            dom[v.index()] = true;
            for &u in g.neighbors(v) {
                dom[u.index()] = true;
            }
        }
    }
    dom
}

/// A packing `{x_v}` in the sense of Lemma 2.1.
#[derive(Clone, Debug)]
pub struct PackingCertificate {
    x: Vec<f64>,
}

impl PackingCertificate {
    /// Wraps raw packing values (indexed by node id).
    pub fn new(x: Vec<f64>) -> Self {
        PackingCertificate { x }
    }

    /// The packing values.
    pub fn values(&self) -> &[f64] {
        &self.x
    }

    /// `Σ_v x_v`, a lower bound on OPT when the packing is feasible.
    pub fn lower_bound(&self) -> f64 {
        self.x.iter().sum()
    }

    /// The largest relative constraint violation
    /// `max_u (Σ_{v∈N⁺(u)} x_v − w_u) / w_u` (0 if none).
    ///
    /// The algorithms maintain feasibility exactly in real arithmetic; in
    /// `f64` a violation up to a few ulps can appear, which is why
    /// [`PackingCertificate::is_feasible`] takes a tolerance.
    pub fn max_violation(&self, g: &Graph) -> f64 {
        assert_eq!(self.x.len(), g.n(), "packing must cover all nodes");
        g.nodes()
            .map(|u| {
                let xu: f64 = g.closed_neighbors(u).map(|v| self.x[v.index()]).sum();
                let wu = g.weight(u) as f64;
                (xu - wu) / wu
            })
            .fold(0.0f64, f64::max)
    }

    /// Whether every packing constraint holds up to relative tolerance
    /// `tol` (use `1e-9` for the f64 algorithms).
    pub fn is_feasible(&self, g: &Graph, tol: f64) -> bool {
        self.max_violation(g) <= tol
    }

    /// Certified ratio of a solution of total weight `w` against this
    /// certificate: an upper bound on the true approximation ratio.
    pub fn ratio_of(&self, weight: u64) -> f64 {
        weight as f64 / self.lower_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbodom_graph::generators;

    #[test]
    fn dominating_set_detection() {
        let g = generators::path(5); // 0-1-2-3-4
        assert!(is_dominating_set(&g, &[false, true, false, true, false]));
        assert!(!is_dominating_set(&g, &[true, false, false, false, true]));
        assert_eq!(
            undominated_nodes(&g, &[true, false, false, false, true]),
            vec![NodeId::new(2)]
        );
    }

    #[test]
    fn empty_set_dominates_empty_graph() {
        let g = arbodom_graph::Graph::from_edges(0, []).unwrap();
        assert!(is_dominating_set(&g, &[]));
    }

    #[test]
    fn isolated_node_needs_itself() {
        let g = arbodom_graph::Graph::from_edges(3, [(0, 1)]).unwrap();
        assert!(!is_dominating_set(&g, &[true, false, false]));
        assert!(is_dominating_set(&g, &[true, false, true]));
    }

    #[test]
    fn dominated_flags_match_undominated() {
        let g = generators::star(6);
        let in_ds = [false, true, false, false, false, false];
        let dom = dominated_flags(&g, &in_ds);
        // leaf 1 dominates itself and the hub only
        assert_eq!(dom, vec![true, true, false, false, false, false]);
        assert_eq!(undominated_nodes(&g, &in_ds).len(), 4);
    }

    #[test]
    fn packing_feasibility() {
        let g = generators::path(3).with_weights(vec![2, 2, 2]).unwrap();
        // X_1 = x_0 + x_1 + x_2 must be ≤ 2.
        let ok = PackingCertificate::new(vec![0.5, 0.5, 0.5]);
        assert!(ok.is_feasible(&g, 0.0));
        assert!((ok.lower_bound() - 1.5).abs() < 1e-12);
        let bad = PackingCertificate::new(vec![1.0, 1.0, 1.0]);
        assert!(!bad.is_feasible(&g, 1e-9));
        assert!(bad.max_violation(&g) > 0.49);
    }

    #[test]
    fn ratio_of_divides() {
        let cert = PackingCertificate::new(vec![2.0, 2.0]);
        assert!((cert.ratio_of(8) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn packing_lower_bound_at_most_opt_on_star() {
        // For a star, OPT = 1 (the hub). Any feasible packing sums to ≤ 1
        // because every node is in N⁺(hub).
        let g = generators::star(8);
        let uniform = 1.0 / 8.0;
        let cert = PackingCertificate::new(vec![uniform; 8]);
        assert!(cert.is_feasible(&g, 1e-12));
        assert!(cert.lower_bound() <= 1.0 + 1e-12);
    }
}
