//! Theorem 1.2: randomized `(α + O(α/t))`-approximate weighted MDS in
//! `O(t·log Δ)` rounds.
//!
//! Composition of Lemma 4.1 and Lemma 4.6 with the parameter choice from
//! the paper's proof: `ε = 1/(4t)`, `λ = ε/(α+1)`, `γ = max(2, α^{1/(2t)})`.
//! The partial set then costs `w_S ≤ (α + α/t)·OPT` and the extension
//! `E[w_{S′}] = O(α/t)·OPT`, for `t ≤ α/log α` — the paper's
//! first-order-optimal regime (NP-hard to beat `α − 1 − ε` \[BU17\]).
//!
//! Setting `t = α/log α` gives `(α + O(log α))`-approximation in
//! `O(α·log Δ)` rounds.

use arbodom_graph::Graph;

use crate::extend::{extend, ExtendConfig};
use crate::partial::{partial_dominating_set, PartialConfig};
use crate::{CoreError, DsResult, PackingCertificate, Result};

/// Parameters for Theorem 1.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    /// Arboricity bound α ≥ 1 known to all nodes.
    pub alpha: usize,
    /// Trade-off parameter `t ≥ 1`: approximation `α + O(α/t)`, round
    /// complexity `O(t log Δ)`. The theorem's stated regime is
    /// `t ≤ α/log α`; larger values are accepted (the bound is just no
    /// longer interesting).
    pub t: usize,
    /// Seed for the sampling randomness of Lemma 4.6.
    pub seed: u64,
}

impl Config {
    /// Validates `alpha ≥ 1` and `t ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] outside those ranges.
    pub fn new(alpha: usize, t: usize, seed: u64) -> Result<Self> {
        if alpha == 0 {
            return Err(CoreError::param("alpha", "must be at least 1"));
        }
        if t == 0 {
            return Err(CoreError::param("t", "must be at least 1"));
        }
        Ok(Config { alpha, t, seed })
    }

    /// `ε = 1/(4t)`.
    pub fn epsilon(&self) -> f64 {
        1.0 / (4.0 * self.t as f64)
    }

    /// `λ = ε/(α+1)`.
    pub fn lambda(&self) -> f64 {
        self.epsilon() / (self.alpha as f64 + 1.0)
    }

    /// `γ = max(2, α^{1/(2t)})`.
    pub fn gamma(&self) -> f64 {
        2.0f64.max((self.alpha as f64).powf(1.0 / (2.0 * self.t as f64)))
    }

    /// The expected approximation factor `α(1 + 1/t) + c·α/t` with the
    /// paper's constants folded into `guarantee ≈ α + O(α/t)`; exposed for
    /// the experiment tables as the *proof-side* value
    /// `α(1+4ε) + γ(γ+1)⌈log_γ λ⁻¹⌉`.
    pub fn guarantee(&self, max_degree: usize) -> f64 {
        let alpha = self.alpha as f64;
        let _ = max_degree;
        let partial = alpha * (1.0 + 4.0 * self.epsilon());
        let g = self.gamma();
        let ext = g * (g + 1.0) * ((1.0 / self.lambda()).ln() / g.ln()).ceil();
        partial + ext
    }
}

/// Runs Theorem 1.2.
///
/// # Errors
///
/// Propagates parameter validation errors.
pub fn solve(g: &Graph, cfg: &Config) -> Result<DsResult> {
    let pcfg = PartialConfig::new(cfg.epsilon(), cfg.lambda())?;
    let part = partial_dominating_set(g, &pcfg);
    let ecfg = ExtendConfig::new(cfg.lambda(), cfg.gamma(), cfg.seed)?;
    let ext = extend(g, &part.dominated, &part.in_s, &part.x, &ecfg);
    let mut in_ds = part.in_s;
    for (flag, &added) in in_ds.iter_mut().zip(&ext.in_s_prime) {
        *flag = *flag || added;
    }
    Ok(DsResult::from_flags(
        g,
        in_ds,
        part.iterations + ext.iterations,
        Some(PackingCertificate::new(part.x)),
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
    fn config_validation_and_parameters() {
        assert!(Config::new(0, 1, 0).is_err());
        assert!(Config::new(4, 0, 0).is_err());
        let c = Config::new(8, 2, 0).unwrap();
        assert!((c.epsilon() - 0.125).abs() < 1e-12);
        assert!((c.lambda() - 0.125 / 9.0).abs() < 1e-12);
        assert!((c.gamma() - 2.0f64.max(8f64.powf(0.25))).abs() < 1e-12);
    }

    #[test]
    fn always_dominating() {
        let mut rng = StdRng::seed_from_u64(101);
        for alpha in [1usize, 2, 4, 8] {
            for t in [1usize, 2, 3] {
                let g = generators::forest_union(250, alpha, &mut rng);
                let g = WeightModel::Uniform { lo: 1, hi: 30 }.assign(&g, &mut rng);
                let cfg = Config::new(alpha, t, 42).unwrap();
                let sol = solve(&g, &cfg).unwrap();
                assert!(
                    verify::is_dominating_set(&g, &sol.in_ds),
                    "α={alpha}, t={t}"
                );
                let cert = sol.certificate.as_ref().unwrap();
                assert!(cert.is_feasible(&g, 1e-9));
            }
        }
    }

    #[test]
    fn rounds_grow_with_t() {
        let mut rng = StdRng::seed_from_u64(102);
        let alpha = 8;
        let g = generators::forest_union(500, alpha, &mut rng);
        let i1 = solve(&g, &Config::new(alpha, 1, 7).unwrap())
            .unwrap()
            .iterations;
        let i4 = solve(&g, &Config::new(alpha, 4, 7).unwrap())
            .unwrap()
            .iterations;
        assert!(
            i4 > i1,
            "more phases at larger t: t=1 → {i1}, t=4 → {i4} iterations"
        );
    }

    #[test]
    fn average_ratio_beats_deterministic_guarantee_at_large_t() {
        // The whole point of Thm 1.2: for large t the measured ratio
        // certificate should comfortably undercut (2α+1).
        let mut rng = StdRng::seed_from_u64(103);
        let alpha = 6usize;
        let g = generators::forest_union(600, alpha, &mut rng);
        let mut ratios = Vec::new();
        for seed in 0..5 {
            let cfg = Config::new(alpha, 3, seed).unwrap();
            let sol = solve(&g, &cfg).unwrap();
            ratios.push(sol.certified_ratio().unwrap());
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            avg < (2 * alpha + 1) as f64,
            "expected randomized avg ratio {avg} below deterministic bound {}",
            2 * alpha + 1
        );
    }

    #[test]
    fn reproducible_with_seed() {
        let mut rng = StdRng::seed_from_u64(104);
        let g = generators::gnp(120, 0.06, &mut rng);
        let cfg = Config::new(3, 2, 11).unwrap();
        let a = solve(&g, &cfg).unwrap();
        let b = solve(&g, &cfg).unwrap();
        assert_eq!(a.in_ds, b.in_ds);
    }

    #[test]
    fn alpha_one_works() {
        let mut rng = StdRng::seed_from_u64(105);
        let g = generators::random_tree(200, &mut rng);
        let cfg = Config::new(1, 1, 3).unwrap();
        let sol = solve(&g, &cfg).unwrap();
        assert!(verify::is_dominating_set(&g, &sol.in_ds));
    }
}
