//! Lemma 4.1: the primal-dual partial dominating set.
//!
//! Every node carries a packing value `x_v`, initialized to `τ_v/(Δ+1)`
//! (where `τ_v = min_{u∈N⁺(v)} w_u`). For `r = Θ(log(λ(Δ+1))/ε)`
//! iterations, all nodes simultaneously:
//!
//! 1. compute `X_u = Σ_{v∈N⁺(u)} x_v`;
//! 2. join the partial set `S` if `X_u ≥ w_u/(1+ε)`;
//! 3. multiply `x_v` by `(1+ε)` if `v` is still undominated.
//!
//! Guarantees (Lemma 4.1): the packing stays feasible throughout
//! (Observation 4.2); `w_S ≤ α(1/(1+ε) − λ(α+1))⁻¹ · Σ_{v∈N⁺(S)} x_v`
//! (property (a)); and every undominated node ends with `x_v > λτ_v`
//! (property (b), Observation 4.3).
//!
//! The per-iteration update order matters and is replicated exactly by the
//! CONGEST program in [`crate::distributed`]: joins are decided from the
//! packing values at the *start* of the iteration, domination is then
//! updated, and only still-undominated nodes raise `x`.

use std::cell::Cell;

use arbodom_graph::Graph;

use crate::{CoreError, Result};

/// Parameters of Lemma 4.1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartialConfig {
    /// The slack `ε ∈ (0, 1)` of the join threshold.
    pub epsilon: f64,
    /// The packing floor `λ > 0` demanded of undominated nodes. Lemma 4.1
    /// additionally requires `λ < 1/((α+1)(1+ε))` for property (a) to be
    /// non-vacuous, which the theorem-level wrappers enforce.
    pub lambda: f64,
}

impl PartialConfig {
    /// Validates `ε ∈ (0, 1)` and `λ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] outside those ranges.
    pub fn new(epsilon: f64, lambda: f64) -> Result<Self> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CoreError::param("epsilon", "must be in (0, 1)"));
        }
        if !(lambda > 0.0 && lambda.is_finite()) {
            return Err(CoreError::param("lambda", "must be positive and finite"));
        }
        Ok(PartialConfig { epsilon, lambda })
    }

    /// The iteration count `r`: the integer with
    /// `(1+ε)^(r−1)/(Δ+1) ≤ λ < (1+ε)^r/(Δ+1)`, or 0 when `λ < 1/(Δ+1)`
    /// (in which case the lemma is satisfied by `S = ∅`).
    ///
    /// Every node of a CONGEST run computes `r` from the same public
    /// `(ε, λ, Δ)`, so each thread remembers its last key and count: the
    /// two logarithms and the `powi` loops run once per run, not once per
    /// node. The key is the exact bits of ε and λ, so the count is the
    /// one the computation would give.
    pub fn iterations(&self, max_degree: usize) -> usize {
        thread_local! {
            static LAST: Cell<Option<(u64, u64, usize, usize)>> = const { Cell::new(None) };
        }
        let (eps, lambda) = (self.epsilon.to_bits(), self.lambda.to_bits());
        LAST.with(|last| match last.get() {
            Some((e, l, d, r)) if (e, l, d) == (eps, lambda, max_degree) => r,
            _ => {
                let r = self.count_iterations(max_degree);
                last.set(Some((eps, lambda, max_degree, r)));
                r
            }
        })
    }

    /// [`PartialConfig::iterations`], computed.
    fn count_iterations(&self, max_degree: usize) -> usize {
        let dp1 = (max_degree + 1) as f64;
        if self.lambda < 1.0 / dp1 {
            return 0;
        }
        // r − 1 = ⌊log_{1+ε}(λ(Δ+1))⌋ in exact arithmetic; guard the f64
        // edge where λ(Δ+1) is an exact power of (1+ε).
        let target = self.lambda * dp1;
        let mut r = (target.ln() / self.epsilon.ln_1p()).floor() as usize + 1;
        // Enforce the defining inequalities numerically.
        let pow = |k: usize| (1.0 + self.epsilon).powi(k as i32);
        while r > 1 && pow(r - 1) > target {
            r -= 1;
        }
        while pow(r) <= target {
            r += 1;
        }
        r
    }
}

/// The outcome of Lemma 4.1.
#[derive(Clone, Debug)]
pub struct PartialOutcome {
    /// Membership in the partial dominating set `S`.
    pub in_s: Vec<bool>,
    /// `N⁺[S]` flags: which nodes are dominated by `S`.
    pub dominated: Vec<bool>,
    /// Final packing values; feasible (Observation 4.2), with
    /// `x_v > λτ_v` for undominated `v` (Observation 4.3).
    pub x: Vec<f64>,
    /// Iterations executed (`r`).
    pub iterations: usize,
}

impl PartialOutcome {
    /// Total weight of `S`.
    pub fn s_weight(&self, g: &Graph) -> u64 {
        g.nodes()
            .filter(|v| self.in_s[v.index()])
            .map(|v| g.weight(v))
            .sum()
    }

    /// Number of nodes not dominated by `S`.
    pub fn undominated_count(&self) -> usize {
        self.dominated.iter().filter(|&&d| !d).count()
    }
}

/// Runs Lemma 4.1 on `g`.
///
/// This is the centralized, round-faithful simulation: it performs exactly
/// the synchronous iterations of the distributed algorithm (each is `O(1)`
/// CONGEST rounds) and is deterministic.
pub fn partial_dominating_set(g: &Graph, cfg: &PartialConfig) -> PartialOutcome {
    partial_dominating_set_iterations(g, cfg.epsilon, cfg.iterations(g.max_degree()))
}

/// Runs the Lemma 4.1 iteration for an explicit number of rounds instead
/// of the λ-derived count.
///
/// This is the knob for the *locality* experiments (Theorem 1.4): an
/// `r`-round algorithm is the paper's engine truncated at `r` iterations
/// plus the take-all-undominated completion; ratios must degrade as `r`
/// shrinks on the lower-bound construction.
pub fn partial_dominating_set_iterations(g: &Graph, epsilon: f64, r: usize) -> PartialOutcome {
    let n = g.n();
    let delta_p1 = (g.max_degree() + 1) as f64;
    let one_plus_eps = 1.0 + epsilon;
    let tau: Vec<u64> = g.nodes().map(|v| g.tau(v)).collect();
    let mut x: Vec<f64> = tau.iter().map(|&t| t as f64 / delta_p1).collect();
    let mut in_s = vec![false; n];
    let mut dominated = vec![false; n];
    for _ in 0..r {
        // Step 1: X_u from the current (start-of-iteration) packing.
        // Step 2: simultaneous joins.
        let mut joined: Vec<u32> = Vec::new();
        for u in g.nodes() {
            if in_s[u.index()] {
                continue;
            }
            let xu: f64 = g.closed_neighbors(u).map(|v| x[v.index()]).sum();
            if xu >= g.weight(u) as f64 / one_plus_eps {
                joined.push(u.get());
            }
        }
        for &u in &joined {
            let u = arbodom_graph::NodeId::new(u);
            in_s[u.index()] = true;
            dominated[u.index()] = true;
            for &w in g.neighbors(u) {
                dominated[w.index()] = true;
            }
        }
        // Step 3: raise undominated packing values.
        for v in 0..n {
            if !dominated[v] {
                x[v] *= one_plus_eps;
            }
        }
    }
    PartialOutcome {
        in_s,
        dominated,
        x,
        iterations: r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::PackingCertificate;
    use arbodom_graph::{generators, weights::WeightModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn theorem11_lambda(alpha: usize, eps: f64) -> f64 {
        1.0 / ((2 * alpha + 1) as f64 * (1.0 + eps))
    }

    #[test]
    fn config_validation() {
        assert!(PartialConfig::new(0.0, 0.1).is_err());
        assert!(PartialConfig::new(1.0, 0.1).is_err());
        assert!(PartialConfig::new(0.5, 0.0).is_err());
        assert!(PartialConfig::new(0.5, f64::INFINITY).is_err());
        assert!(PartialConfig::new(0.5, 0.1).is_ok());
    }

    #[test]
    fn iteration_count_satisfies_definition() {
        for &(delta, eps, lambda) in &[
            (10usize, 0.3f64, 0.2f64),
            (100, 0.1, 0.05),
            (1000, 0.5, 0.001),
            (7, 0.9, 0.9),
        ] {
            let cfg = PartialConfig::new(eps, lambda).unwrap();
            let r = cfg.iterations(delta);
            let dp1 = (delta + 1) as f64;
            if lambda < 1.0 / dp1 {
                assert_eq!(r, 0);
                continue;
            }
            assert!(r >= 1, "r must be ≥ 1 when λ ≥ 1/(Δ+1)");
            let p = 1.0 + eps;
            assert!(
                p.powi(r as i32 - 1) / dp1 <= lambda + 1e-12,
                "lower side fails: Δ={delta} ε={eps} λ={lambda} r={r}"
            );
            assert!(
                lambda < p.powi(r as i32) / dp1 + 1e-12,
                "upper side fails: Δ={delta} ε={eps} λ={lambda} r={r}"
            );
        }
    }

    /// The per-thread memo returns the computed count whatever key came
    /// before it: the sweep interleaves ε, λ and Δ so that every call
    /// changes at least one part of the key, and repeats each key once.
    #[test]
    fn memoized_iterations_equal_the_computed_count() {
        for &eps in &[0.05, 0.1, 0.2, 0.5, 0.9] {
            for alpha in 1..=6 {
                let cfg = PartialConfig::new(eps, theorem11_lambda(alpha, eps)).unwrap();
                let other = PartialConfig::new(1.0 - eps, 0.5 / alpha as f64).unwrap();
                for delta in [0usize, 1, 2, 3, 7, 64, 1_000, 1 << 20] {
                    for (c, d) in [
                        (cfg, delta),
                        (other, delta),
                        (cfg, delta + 1),
                        (cfg, delta + 1),
                    ] {
                        assert_eq!(c.iterations(d), c.count_iterations(d), "{c:?}, Δ = {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn packing_stays_feasible_observation_4_2() {
        let mut rng = StdRng::seed_from_u64(61);
        for alpha in [1usize, 2, 4] {
            let g = generators::forest_union(200, alpha, &mut rng);
            let g = WeightModel::Uniform { lo: 1, hi: 50 }.assign(&g, &mut rng);
            let cfg = PartialConfig::new(0.25, theorem11_lambda(alpha, 0.25)).unwrap();
            let out = partial_dominating_set(&g, &cfg);
            let cert = PackingCertificate::new(out.x.clone());
            assert!(
                cert.is_feasible(&g, 1e-9),
                "violation {} for α={alpha}",
                cert.max_violation(&g)
            );
        }
    }

    #[test]
    fn property_b_undominated_have_large_packing() {
        let mut rng = StdRng::seed_from_u64(62);
        let g = generators::forest_union(300, 3, &mut rng);
        let g = WeightModel::Exponential { max_exp: 8 }.assign(&g, &mut rng);
        let eps = 0.2;
        let lambda = theorem11_lambda(3, eps);
        let cfg = PartialConfig::new(eps, lambda).unwrap();
        let out = partial_dominating_set(&g, &cfg);
        for v in g.nodes() {
            if !out.dominated[v.index()] {
                let tau = g.tau(v) as f64;
                assert!(
                    out.x[v.index()] >= lambda * tau * (1.0 - 1e-12),
                    "undominated {v} has x = {} < λτ = {}",
                    out.x[v.index()],
                    lambda * tau
                );
            } else {
                // Dominated nodes were multiplied at most r−1 times.
                let tau = g.tau(v) as f64;
                assert!(
                    out.x[v.index()] <= lambda * tau * (1.0 + 1e-9),
                    "dominated {v} has x = {} > λτ = {}",
                    out.x[v.index()],
                    lambda * tau
                );
            }
        }
    }

    #[test]
    fn property_a_weight_bound() {
        let mut rng = StdRng::seed_from_u64(63);
        for alpha in [2usize, 4] {
            let g = generators::forest_union(400, alpha, &mut rng);
            let g = WeightModel::Uniform { lo: 1, hi: 20 }.assign(&g, &mut rng);
            let eps = 0.3;
            let lambda = theorem11_lambda(alpha, eps);
            let cfg = PartialConfig::new(eps, lambda).unwrap();
            let out = partial_dominating_set(&g, &cfg);
            let af = alpha as f64;
            let coeff = af / (1.0 / (1.0 + eps) - lambda * (af + 1.0));
            let dominated_x: f64 = g
                .nodes()
                .filter(|v| out.dominated[v.index()])
                .map(|v| out.x[v.index()])
                .sum();
            assert!(
                out.s_weight(&g) as f64 <= coeff * dominated_x + 1e-6,
                "property (a) violated for α={alpha}: wS={} bound={}",
                out.s_weight(&g),
                coeff * dominated_x
            );
        }
    }

    #[test]
    fn lambda_below_floor_returns_empty() {
        let g = generators::star(100); // Δ = 99
        let cfg = PartialConfig::new(0.5, 1.0 / 500.0).unwrap();
        let out = partial_dominating_set(&g, &cfg);
        assert_eq!(out.iterations, 0);
        assert!(out.in_s.iter().all(|&b| !b));
        assert_eq!(out.undominated_count(), 100);
    }

    #[test]
    fn complete_graph_selects_quickly() {
        let g = generators::complete(20);
        // K20: Δ = 19; with α = 7, λ = 1/(15·1.2) = 1/18 ≥ 1/20, so r ≥ 1.
        // Every X_v starts at 20/20 = 1 ≥ 1/(1+ε) ⇒ everyone joins in
        // iteration 1 and everyone is dominated.
        let cfg = PartialConfig::new(0.2, theorem11_lambda(7, 0.2)).unwrap();
        let out = partial_dominating_set(&g, &cfg);
        assert!(out.iterations >= 1);
        assert_eq!(out.undominated_count(), 0);
        assert!(out.in_s.iter().all(|&b| b));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = arbodom_graph::Graph::from_edges(0, []).unwrap();
        let cfg = PartialConfig::new(0.2, 0.3).unwrap();
        let out = partial_dominating_set(&g, &cfg);
        assert!(out.in_s.is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let mut rng = StdRng::seed_from_u64(64);
        let g = generators::gnp(150, 0.05, &mut rng);
        let cfg = PartialConfig::new(0.3, 0.05).unwrap();
        let a = partial_dominating_set(&g, &cfg);
        let b = partial_dominating_set(&g, &cfg);
        assert_eq!(a.in_s, b.in_s);
        assert_eq!(a.x, b.x);
    }
}
