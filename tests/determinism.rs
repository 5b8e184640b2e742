//! Reproducibility contract: every run in this repository is a pure
//! function of (graph, parameters, seed). These tests pin that across
//! generators, solvers, the CONGEST runners, and the experiment harness.

use arbodom::congest::{det_rand, RunOptions};
use arbodom::core::{distributed, general, randomized, weighted};
use arbodom::graph::{generators, weights::WeightModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn generators_are_pure_functions_of_seed() {
    for seed in [0u64, 1, 99] {
        let a = generators::forest_union(500, 3, &mut StdRng::seed_from_u64(seed));
        let b = generators::forest_union(500, 3, &mut StdRng::seed_from_u64(seed));
        assert_eq!(a, b);
        let a = generators::preferential_attachment(300, 2, &mut StdRng::seed_from_u64(seed));
        let b = generators::preferential_attachment(300, 2, &mut StdRng::seed_from_u64(seed));
        assert_eq!(a, b);
        let a = generators::planted_ds(200, 10, 1, &mut StdRng::seed_from_u64(seed));
        let b = generators::planted_ds(200, 10, 1, &mut StdRng::seed_from_u64(seed));
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.planted, b.planted);
    }
}

#[test]
fn weight_models_are_reproducible() {
    let g = generators::path(200);
    for model in [
        WeightModel::Uniform { lo: 1, hi: 100 },
        WeightModel::Exponential { max_exp: 8 },
    ] {
        let a = model.assign(&g, &mut StdRng::seed_from_u64(5));
        let b = model.assign(&g, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.weights_vec(), b.weights_vec());
    }
}

#[test]
fn solvers_are_deterministic_given_seed() {
    let mut rng = StdRng::seed_from_u64(11);
    let g = generators::gnp(300, 0.04, &mut rng);
    let w = weighted::Config::new(3, 0.25).unwrap();
    assert_eq!(
        weighted::solve(&g, &w).unwrap().in_ds,
        weighted::solve(&g, &w).unwrap().in_ds
    );
    let r = randomized::Config::new(3, 2, 77).unwrap();
    assert_eq!(
        randomized::solve(&g, &r).unwrap().in_ds,
        randomized::solve(&g, &r).unwrap().in_ds
    );
    let k = general::Config::new(3, 77).unwrap();
    assert_eq!(
        general::solve(&g, &k).unwrap().in_ds,
        general::solve(&g, &k).unwrap().in_ds
    );
}

#[test]
fn congest_runs_are_deterministic() {
    let mut rng = StdRng::seed_from_u64(13);
    let g = generators::forest_union(200, 2, &mut rng);
    let cfg = randomized::Config::new(2, 2, 31).unwrap();
    let (a, ta) = distributed::run_randomized(&g, &cfg, &RunOptions::default(), 1).unwrap();
    let (b, tb) = distributed::run_randomized(&g, &cfg, &RunOptions::default(), 1).unwrap();
    assert_eq!(a.in_ds, b.in_ds);
    assert_eq!(ta.rounds, tb.rounds);
    assert_eq!(ta.total_bits, tb.total_bits);
}

#[test]
fn counter_rng_is_stable_across_releases() {
    // These constants pin the det_rand stream; changing the mixer would
    // silently re-randomize every experiment in EXPERIMENTS.md, so any
    // intentional change must update both.
    assert_eq!(det_rand::mix64(0), 16294208416658607535);
    assert_eq!(det_rand::stream(42, &[1, 2, 3]), 10399575839878339911);
    let u = det_rand::unit_f64(det_rand::stream(7, &[9]));
    assert!((0.0..1.0).contains(&u));
    assert!(det_rand::bernoulli(1, &[2, 3], 1.0));
    assert!(!det_rand::bernoulli(1, &[2, 3], 0.0));
}

#[test]
fn experiment_tables_are_reproducible() {
    use arbodom_bench_shim::*;
    // The bench crate is not a dependency of the umbrella; replicate its
    // contract at the API level instead: two full solver sweeps on the
    // same seeds must produce identical summaries.
    let summary_a = sweep();
    let summary_b = sweep();
    assert_eq!(summary_a, summary_b);
}

mod arbodom_bench_shim {
    use super::*;

    pub fn sweep() -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        for alpha in [1usize, 2, 4] {
            let mut rng = StdRng::seed_from_u64(alpha as u64);
            let g = generators::forest_union(400, alpha, &mut rng);
            let sol = weighted::solve(&g, &weighted::Config::new(alpha, 0.2).unwrap()).unwrap();
            out.push((sol.size, sol.weight));
        }
        out
    }
}
