//! Approximation-ratio accounting against the best available reference.
//!
//! Every cell of the matrix reports `ratio = w(DS) / reference`, where the
//! reference is selected by a strict preference order:
//!
//! 1. **exact optimum** — the forest DP (any size, forests only) or the
//!    branch-and-bound solver (`n ≤ 64`): the true OPT;
//! 2. **planted optimum** — on [`arbodom_graph::generators::planted_ds`]-style instances
//!    the planted set's weight, a certified *upper* bound on OPT;
//! 3. **packing lower bound** — the larger of the run's own dual
//!    certificate and an independent greedy maximal packing (both are
//!    certified *lower* bounds on OPT by Lemma 2.1).
//!
//! The accounting is deliberately incapable of under-reporting: the ratio
//! is the plain quotient of the measured weight — never clamped, never
//! capped — so inflating a solution inflates the ratio proportionally,
//! and a ratio above the theorem bound raises `flagged` (for
//! deterministic algorithms, whose bound is certified per run). A ratio
//! *below* 1 against an exact reference flags too: it means the
//! "solution" beat the optimum, i.e. it is not actually dominating or the
//! weights disagree.

use arbodom_baselines::{exact, lp, tree_dp};
use arbodom_core::DsResult;
use arbodom_graph::{Graph, NodeId};

use crate::spec::Guarantee;

/// Which reference the ratio is measured against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefKind {
    /// The exact optimum (forest DP or branch-and-bound).
    Exact,
    /// The planted dominating set (certified upper bound on OPT).
    Planted,
    /// A feasible packing (certified lower bound on OPT).
    PackingLb,
}

impl RefKind {
    /// Stable label used in JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            RefKind::Exact => "exact",
            RefKind::Planted => "planted",
            RefKind::PackingLb => "packing-lb",
        }
    }
}

/// The outcome of ratio accounting for one cell.
#[derive(Clone, Copy, Debug)]
pub struct RatioAccount {
    /// Reference kind the ratio is measured against.
    pub reference: RefKind,
    /// The reference value (weight or bound).
    pub opt_estimate: f64,
    /// `w(DS) / opt_estimate`, unclamped.
    pub ratio: f64,
    /// The theorem's bound for this parameterization.
    pub guarantee: f64,
    /// Whether `ratio <= guarantee`.
    pub within_guarantee: bool,
    /// Raised when the cell's quality accounting is inconsistent or a
    /// certified (deterministic) bound is violated — see module docs.
    pub flagged: bool,
}

/// Floating-point slack for guarantee comparisons.
const TOL: f64 = 1e-9;

/// Upper size limit for the branch-and-bound exact reference.
const EXACT_MAX_N: usize = 64;

/// Selects the best available reference and accounts the ratio of `sol`
/// on `g`. `planted` is the planted optimum when the generator provides
/// one; `valid` is the caller's verdict of `verify::is_dominating_set`;
/// `fault_injected` marks cells run under message loss — their outputs
/// may degrade arbitrarily (invalid sets, bounds exceeded, partial sets
/// "beating" OPT), so *that degradation is the measurement* and never
/// raises `flagged`. The ratio itself is accounted identically either
/// way.
pub fn account(
    g: &Graph,
    sol: &DsResult,
    planted: Option<&[NodeId]>,
    guarantee: Guarantee,
    valid: bool,
    fault_injected: bool,
) -> RatioAccount {
    let (reference, opt_estimate) = select_reference(g, sol, planted);
    let ratio = sol.weight as f64 / opt_estimate.max(f64::MIN_POSITIVE);
    let within_guarantee = ratio <= guarantee.bound * (1.0 + TOL);
    // An invalid solution is always flagged. A certified bound violation
    // flags deterministic algorithms (for randomized ones the bound holds
    // in expectation, so a single cell above it is data, not an error).
    // Beating an *exact* optimum flags too: a genuine dominating set
    // cannot weigh less than OPT, so it can only mean broken accounting.
    let beats_exact = reference == RefKind::Exact && ratio < 1.0 - TOL;
    let flagged = !fault_injected
        && (!valid || beats_exact || (guarantee.deterministic && !within_guarantee));
    RatioAccount {
        reference,
        opt_estimate,
        ratio,
        guarantee: guarantee.bound,
        within_guarantee,
        flagged,
    }
}

/// The preference order of the module docs.
fn select_reference(g: &Graph, sol: &DsResult, planted: Option<&[NodeId]>) -> (RefKind, f64) {
    if let Some(t) = tree_dp::solve(g) {
        return (RefKind::Exact, t.weight as f64);
    }
    if g.n() <= EXACT_MAX_N {
        if let Some(e) = exact::solve(g) {
            return (RefKind::Exact, e.weight as f64);
        }
    }
    if let Some(planted) = planted {
        return (
            RefKind::Planted,
            g.set_weight(planted.iter().copied()) as f64,
        );
    }
    // Independent maximal packing vs the run's own dual certificate:
    // both are ≤ OPT, so the larger is the sharper reference.
    let packing = lp::maximal_packing(g).lower_bound();
    let cert = sol
        .certificate
        .as_ref()
        .map(|c| c.lower_bound())
        .unwrap_or(0.0);
    (RefKind::PackingLb, packing.max(cert).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbodom_core::{verify, weighted};
    use arbodom_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn det_guarantee(alpha: usize, eps: f64) -> Guarantee {
        Guarantee {
            bound: (2 * alpha + 1) as f64 * (1.0 + eps),
            deterministic: true,
        }
    }

    fn solve_weighted(g: &Graph, alpha: usize, eps: f64) -> DsResult {
        weighted::solve(g, &weighted::Config::new(alpha, eps).unwrap()).unwrap()
    }

    #[test]
    fn planted_instances_use_the_planted_reference() {
        let mut rng = StdRng::seed_from_u64(40);
        let inst = generators::planted_ds(500, 25, 2, &mut rng);
        let sol = solve_weighted(&inst.graph, 3, 0.2);
        let valid = verify::is_dominating_set(&inst.graph, &sol.in_ds);
        let acc = account(
            &inst.graph,
            &sol,
            Some(&inst.planted),
            det_guarantee(3, 0.2),
            valid,
            false,
        );
        assert_eq!(acc.reference, RefKind::Planted);
        assert_eq!(acc.opt_estimate, 25.0, "unit weights: planted weight = k");
        assert!(
            (acc.ratio - sol.weight as f64 / 25.0).abs() < 1e-12,
            "ratio must be the plain quotient against the planted optimum"
        );
    }

    #[test]
    fn inflated_solution_is_never_under_reported_and_gets_flagged() {
        let mut rng = StdRng::seed_from_u64(41);
        let inst = generators::planted_ds(400, 20, 2, &mut rng);
        let honest = solve_weighted(&inst.graph, 3, 0.2);
        let honest_acc = account(
            &inst.graph,
            &honest,
            Some(&inst.planted),
            det_guarantee(3, 0.2),
            true,
            false,
        );
        // Deliberately inflate: take every node.
        let inflated = DsResult::from_flags(
            &inst.graph,
            vec![true; inst.graph.n()],
            honest.iterations,
            honest.certificate.clone(),
        );
        let inflated_acc = account(
            &inst.graph,
            &inflated,
            Some(&inst.planted),
            det_guarantee(3, 0.2),
            true,
            false,
        );
        // Proportionality: the ratio scales exactly with the weight — no
        // clamping, no cap, no "best-of" substitution.
        let expected = inflated.weight as f64 / honest_acc.opt_estimate;
        assert!((inflated_acc.ratio - expected).abs() < 1e-12);
        assert!(inflated_acc.ratio > honest_acc.ratio);
        // 400 nodes over a planted optimum of 20 is ratio 20 — far past
        // the (2·3+1)(1.2) = 8.4 certified bound: must be flagged.
        assert!(!inflated_acc.within_guarantee);
        assert!(inflated_acc.flagged, "inflated solution must be flagged");
    }

    #[test]
    fn forests_use_the_exact_dp_reference() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = generators::random_tree(200, &mut rng);
        let sol = solve_weighted(&g, 1, 0.3);
        let acc = account(&g, &sol, None, det_guarantee(1, 0.3), true, false);
        assert_eq!(acc.reference, RefKind::Exact);
        assert!(acc.ratio >= 1.0 - 1e-9, "cannot beat the exact optimum");
        assert!(acc.within_guarantee, "certified bound holds vs exact OPT");
        assert!(!acc.flagged);
    }

    #[test]
    fn small_instances_use_branch_and_bound() {
        let g = generators::cycle(12);
        let sol = solve_weighted(&g, 2, 0.3);
        let acc = account(&g, &sol, None, det_guarantee(2, 0.3), true, false);
        assert_eq!(acc.reference, RefKind::Exact);
        assert_eq!(acc.opt_estimate, 4.0, "OPT of C12 is 4");
    }

    #[test]
    fn general_graphs_fall_back_to_packing_lb() {
        let mut rng = StdRng::seed_from_u64(43);
        let g = generators::forest_union(300, 3, &mut rng);
        let sol = solve_weighted(&g, 3, 0.2);
        let acc = account(&g, &sol, None, det_guarantee(3, 0.2), true, false);
        assert_eq!(acc.reference, RefKind::PackingLb);
        // The reference is at least the run's own certificate, so the
        // accounted ratio can only be *larger* (more conservative) than
        // the certified one... and still within the theorem bound.
        let cert_lb = sol.certificate.as_ref().unwrap().lower_bound();
        assert!(acc.opt_estimate >= cert_lb - 1e-12);
        assert!(acc.within_guarantee && !acc.flagged);
    }

    #[test]
    fn invalid_solutions_are_flagged_regardless_of_ratio() {
        let g = generators::path(10);
        let empty = DsResult::from_flags(&g, vec![false; 10], 0, None);
        let acc = account(&g, &empty, None, det_guarantee(1, 0.3), false, false);
        assert!(acc.flagged);
    }

    #[test]
    fn fault_injected_cells_are_accounted_but_never_flagged() {
        // An undominated partial set on a tree weighs less than OPT —
        // under loss that is expected degradation, not broken accounting.
        let g = generators::path(30);
        let partial = DsResult::from_flags(&g, vec![false; 30], 0, None);
        let lossy = account(&g, &partial, None, det_guarantee(1, 0.3), false, true);
        assert!(!lossy.flagged, "loss degradation must not trip the alarm");
        assert!(
            lossy.ratio < 1.0,
            "the ratio itself is still reported honestly"
        );
        let lossless = account(&g, &partial, None, det_guarantee(1, 0.3), false, false);
        assert!(lossless.flagged, "the same output without loss is an error");
    }
}
