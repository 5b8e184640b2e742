//! Delta-determinism guarantees of the dynamic-graph stack.
//!
//! Two invariants make churn artifacts trustworthy:
//!
//! 1. **Apply ≡ rebuild.** Solving a graph produced by a chain of
//!    overlay [`GraphDelta::apply`] calls is *bit-identical* to solving
//!    the same edge set built from scratch — at any thread count. The
//!    mutation path can never leak into algorithm outputs.
//! 2. **Seed stability.** Registered churn streams are pinned by chain
//!    digest: regenerating a registry cell's stream reproduces the exact
//!    delta sequence, forever (the pin itself lives in the `churn`
//!    module's unit tests; here we check the repair/resolve pair shares
//!    one stream).

use arbodom_congest::RunOptions;
use arbodom_core::distributed::run_weighted;
use arbodom_core::weighted;
use arbodom_graph::digest::edge_digest;
use arbodom_graph::{generators, Graph};
use arbodom_scenarios::churn::{churn_delta, churn_registry, stream_digest};
use arbodom_scenarios::Scale;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Apply-deltas-then-solve ≡ solve-on-rebuilt-graph, bit-identically,
    /// across 0/1/2/4 simulator threads (0 and 1 both run inline).
    #[test]
    fn apply_then_solve_equals_rebuilt_solve_across_threads(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = generators::forest_union(120, 2, &mut rng);
        for batch in 0u64..3 {
            let k = 1 + (seed % 4) as usize;
            let d = churn_delta(&g, seed ^ (batch + 1), k);
            g = d.apply(&g).unwrap();
        }
        let rebuilt =
            Graph::from_edges(g.n(), g.edges().map(|(u, v)| (u.get(), v.get()))).unwrap();
        prop_assert_eq!(edge_digest(&g), edge_digest(&rebuilt));

        let cfg = weighted::Config::new(3, 0.2).unwrap();
        let mut outputs = Vec::new();
        for threads in [0usize, 1, 2, 4] {
            for graph in [&g, &rebuilt] {
                let (sol, tel) =
                    run_weighted(graph, &cfg, 7, &RunOptions::default(), threads).unwrap();
                outputs.push((sol.in_ds, sol.weight, sol.size, tel.rounds));
            }
        }
        for o in &outputs[1..] {
            prop_assert_eq!(o, &outputs[0]);
        }
    }
}

/// The repair and resolve cells of one sweep point must share one churn
/// stream — the policy is not a seed coordinate — so their trajectories
/// are directly comparable.
#[test]
fn stream_digests_are_policy_independent_and_coordinate_sensitive() {
    for spec in churn_registry() {
        let a = stream_digest(&spec, Scale::Quick, 0, 0, 0).unwrap();
        let b = stream_digest(&spec, Scale::Quick, 0, 0, 0).unwrap();
        assert_eq!(a, b, "{}: stream must be reproducible", spec.name);
        if spec.rates.len() > 1 {
            let other = stream_digest(&spec, Scale::Quick, 1, 0, 0).unwrap();
            assert_ne!(a, other, "{}: rate axis must change the stream", spec.name);
        }
        if spec.seeds > 1 {
            let other = stream_digest(&spec, Scale::Quick, 0, 0, 1).unwrap();
            assert_ne!(a, other, "{}: seed axis must change the stream", spec.name);
        }
    }
}
