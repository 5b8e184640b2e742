//! Remark 4.5: dominating set when α is unknown (n is known).
//!
//! Pipeline:
//!
//! 1. **α-oblivious peeling orientation** ([`be_orientation`]), in the
//!    spirit of Barenboim–Elkin: peel all nodes of residual degree at most
//!    `(2+ε)·â` for doubling estimates `â = 1, 2, 4, …`, orienting each
//!    peeled node's residual edges outward (ties within a peel batch go to
//!    the smaller id). When a node peels at estimate `â`, `â/2 < α` held
//!    before the final estimate, so every out-degree is at most
//!    `(2+ε)·2α`.
//! 2. Each node computes the **local arboricity estimate**
//!    `α̂_v = max_{u∈N⁺(v)} outdeg(u)` and its own floor
//!    `λ_v = 1/((2α̂_v+1)(1+ε))`.
//! 3. The unknown-Δ iteration of Remark 4.4 runs with the per-node `λ_v`
//!    and initializer `x_v = τ_v/(n+1)`, giving a `(2α+1)(2+O(ε))`
//!    approximation.
//!
//! **Fidelity note.** The Remark cites \[BE10\] for an `O(log n/ε)`-round
//! orientation with unknown α; our doubling search spends `O(log n/ε)`
//! rounds per estimate, i.e. `O(log α · log n/ε)` in total. Round counts
//! reported by experiments use our variant; the approximation guarantee is
//! unaffected. (With α known, [`be_orientation_known`] matches the
//! `O(log n/ε)` bound.)

use arbodom_graph::orientation::Orientation;
use arbodom_graph::{Graph, NodeId};

use crate::{CoreError, DsResult, PackingCertificate, Result};

/// Outcome of the peeling orientation.
#[derive(Clone, Debug)]
pub struct PeelOrientation {
    /// The acyclic orientation produced.
    pub orientation: Orientation,
    /// Synchronous peel rounds executed.
    pub rounds: usize,
    /// The estimate `â` in force when each node peeled.
    pub peel_estimate: Vec<usize>,
}

fn peel_with_schedule(
    g: &Graph,
    epsilon: f64,
    mut threshold_for: impl FnMut(usize) -> f64,
) -> PeelOrientation {
    let n = g.n();
    let mut remaining: Vec<bool> = vec![true; n];
    let mut residual_deg: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    let mut remaining_count = n;
    let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut peel_estimate = vec![0usize; n];
    let mut rounds = 0usize;
    // Rounds needed at a *correct* estimate: each removes an ε/(2+ε)
    // fraction of the residual graph.
    let per_estimate = (((n + 1) as f64).ln() / (1.0 - epsilon / (2.0 + epsilon)).recip().ln())
        .ceil() as usize
        + 1;
    let mut estimate = 1usize;
    while remaining_count > 0 {
        let threshold = threshold_for(estimate);
        let mut progressed_any = false;
        for _ in 0..per_estimate {
            let batch: Vec<NodeId> = g
                .nodes()
                .filter(|&v| remaining[v.index()] && (residual_deg[v.index()] as f64) <= threshold)
                .collect();
            if batch.is_empty() {
                break;
            }
            progressed_any = true;
            rounds += 1;
            let in_batch: Vec<bool> = {
                let mut b = vec![false; n];
                for &v in &batch {
                    b[v.index()] = true;
                }
                b
            };
            for &v in &batch {
                peel_estimate[v.index()] = estimate;
                for &u in g.neighbors(v) {
                    if !remaining[u.index()] {
                        continue; // edge already oriented when u peeled
                    }
                    if in_batch[u.index()] {
                        // Same-batch tie: lower id takes the out-edge.
                        if v < u {
                            out[v.index()].push(u);
                        }
                    } else {
                        out[v.index()].push(u);
                    }
                }
            }
            for &v in &batch {
                remaining[v.index()] = false;
                remaining_count -= 1;
            }
            for &v in &batch {
                for &u in g.neighbors(v) {
                    if remaining[u.index()] {
                        residual_deg[u.index()] -= 1;
                    }
                }
            }
            if remaining_count == 0 {
                break;
            }
        }
        if remaining_count > 0 {
            estimate *= 2;
            if !progressed_any {
                rounds += 1; // an unproductive probe round at this estimate
            }
        }
    }
    PeelOrientation {
        orientation: Orientation::from_out_lists(out),
        rounds,
        peel_estimate,
    }
}

/// α-oblivious peeling: doubling estimates, threshold `(2+ε)·â`.
/// Out-degrees are at most `(2+ε)·2α`.
pub fn be_orientation(g: &Graph, epsilon: f64) -> PeelOrientation {
    peel_with_schedule(g, epsilon, |estimate| (2.0 + epsilon) * estimate as f64)
}

/// Known-α Barenboim–Elkin peeling: fixed threshold `(2+ε)·α`, finishing in
/// `O(log n/ε)` rounds with out-degree at most `(2+ε)·α`.
pub fn be_orientation_known(g: &Graph, alpha: usize, epsilon: f64) -> PeelOrientation {
    let th = (2.0 + epsilon) * alpha.max(1) as f64;
    peel_with_schedule(g, epsilon, move |_| th)
}

/// Parameters for Remark 4.5.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Config {
    /// Approximation slack ε ∈ (0, 1).
    pub epsilon: f64,
}

impl Config {
    /// Validates `ε ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] outside that range.
    pub fn new(epsilon: f64) -> Result<Self> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CoreError::param("epsilon", "must be in (0, 1)"));
        }
        Ok(Config { epsilon })
    }
}

/// Runs the unknown-α variant. Neither Δ nor α is read globally; the
/// algorithm uses only `n` and local information, as a CONGEST node could.
///
/// # Errors
///
/// Propagates parameter validation errors.
pub fn solve(g: &Graph, cfg: &Config) -> Result<DsResult> {
    let n = g.n();
    let one_plus_eps = 1.0 + cfg.epsilon;
    let peel = be_orientation(g, cfg.epsilon);
    // Local arboricity estimate: max out-degree over the closed
    // neighborhood (one CONGEST round after orientation).
    let lambda_v: Vec<f64> = g
        .nodes()
        .map(|v| {
            let ahat = g
                .closed_neighbors(v)
                .map(|u| peel.orientation.out_degree(u))
                .max()
                .expect("closed neighborhood nonempty")
                .max(1);
            1.0 / ((2 * ahat + 1) as f64 * one_plus_eps)
        })
        .collect();
    let tau: Vec<u64> = g.nodes().map(|v| g.tau(v)).collect();
    let mut x: Vec<f64> = tau.iter().map(|&t| t as f64 / (n + 1) as f64).collect();
    let mut in_s = vec![false; n];
    let mut in_s_prime = vec![false; n];
    let mut dominated = vec![false; n];
    let mut iterations = 0usize;
    let cap = ((2.0 * (n as f64 + 2.0) * (n as f64 + 2.0)).ln() / cfg.epsilon.ln_1p()).ceil()
        as usize
        + 3;

    while dominated.iter().any(|&d| !d) {
        assert!(
            iterations <= cap,
            "unknown-α loop exceeded its provable iteration cap"
        );
        // Simultaneous elections, as in Remark 4.4.
        let electors: Vec<_> = g
            .nodes()
            .filter(|&v| {
                !dominated[v.index()] && x[v.index()] > lambda_v[v.index()] * tau[v.index()] as f64
            })
            .collect();
        for v in electors {
            let dominator = g.tau_argmin(v);
            in_s_prime[dominator.index()] = true;
            dominated[dominator.index()] = true;
            for &u in g.neighbors(dominator) {
                dominated[u.index()] = true;
            }
        }
        let mut joined = Vec::new();
        for u in g.nodes() {
            if in_s[u.index()] {
                continue;
            }
            let xu: f64 = g.closed_neighbors(u).map(|v| x[v.index()]).sum();
            if xu >= g.weight(u) as f64 / one_plus_eps {
                joined.push(u);
            }
        }
        for &u in &joined {
            in_s[u.index()] = true;
            dominated[u.index()] = true;
            for &w in g.neighbors(u) {
                dominated[w.index()] = true;
            }
        }
        for v in 0..n {
            if !dominated[v] {
                x[v] *= one_plus_eps;
            }
        }
        iterations += 1;
    }

    let mut in_ds = in_s;
    for v in 0..n {
        in_ds[v] = in_ds[v] || in_s_prime[v];
    }
    Ok(DsResult::from_flags(
        g,
        in_ds,
        peel.rounds + iterations,
        Some(PackingCertificate::new(x)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use arbodom_graph::{generators, weights::WeightModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn orientation_out_degree_bounded() {
        let mut rng = StdRng::seed_from_u64(141);
        for alpha in [1usize, 2, 4, 8] {
            let g = generators::forest_union(300, alpha, &mut rng);
            let eps = 0.5;
            let peel = be_orientation(&g, eps);
            assert!(peel.orientation.is_orientation_of(&g), "α={alpha}");
            let bound = ((2.0 + eps) * 2.0 * alpha as f64).ceil() as usize;
            assert!(
                peel.orientation.max_out_degree() <= bound,
                "α={alpha}: out-degree {} > (2+ε)·2α = {bound}",
                peel.orientation.max_out_degree()
            );
        }
    }

    #[test]
    fn known_alpha_orientation_tighter() {
        let mut rng = StdRng::seed_from_u64(142);
        let alpha = 4usize;
        let g = generators::forest_union(300, alpha, &mut rng);
        let eps = 0.5;
        let peel = be_orientation_known(&g, alpha, eps);
        assert!(peel.orientation.is_orientation_of(&g));
        let bound = ((2.0 + eps) * alpha as f64).ceil() as usize;
        assert!(peel.orientation.max_out_degree() <= bound);
        // Known-α peeling is O(log n / ε) rounds.
        assert!(peel.rounds <= 60, "rounds {}", peel.rounds);
    }

    #[test]
    fn dominates_with_remark_guarantee() {
        let mut rng = StdRng::seed_from_u64(143);
        for alpha in [1usize, 2, 4] {
            let g = generators::forest_union(250, alpha, &mut rng);
            let g = WeightModel::Uniform { lo: 1, hi: 20 }.assign(&g, &mut rng);
            let cfg = Config::new(0.25).unwrap();
            let sol = solve(&g, &cfg).unwrap();
            assert!(verify::is_dominating_set(&g, &sol.in_ds), "α={alpha}");
            let cert = sol.certificate.as_ref().unwrap();
            assert!(cert.is_feasible(&g, 1e-9), "α={alpha}");
            // (2α+1)(2+O(ε)) bound with the doubled α̂ from peeling.
            let bound = (2.0 * (2.25 * 2.0 * alpha as f64) + 1.0) * 1.25 * 1.25;
            let ratio = sol.certified_ratio().unwrap();
            assert!(
                ratio <= bound,
                "α={alpha}: certified ratio {ratio} above remark bound {bound}"
            );
        }
    }

    #[test]
    fn orientation_on_empty_and_tiny_graphs() {
        let g = arbodom_graph::Graph::from_edges(0, []).unwrap();
        let peel = be_orientation(&g, 0.3);
        assert_eq!(peel.rounds, 0);
        let g = arbodom_graph::Graph::from_edges(3, []).unwrap();
        let peel = be_orientation(&g, 0.3);
        assert!(peel.orientation.is_orientation_of(&g));
        let sol = solve(&g, &Config::new(0.3).unwrap()).unwrap();
        assert!(verify::is_dominating_set(&g, &sol.in_ds));
    }

    #[test]
    fn config_validation() {
        assert!(Config::new(0.0).is_err());
        assert!(Config::new(1.0).is_err());
        assert!(Config::new(0.5).is_ok());
    }
}
