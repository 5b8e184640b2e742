//! Property-based invariants spanning crates: for arbitrary generated
//! graphs, weights, and parameters, the primal-dual machinery must keep
//! its Lemma 4.1 invariants, every solver must dominate, and certificates
//! must stay dual-feasible. The flat degeneracy peel must agree with the
//! ordered one on every family and along churn streams, and the
//! maintained packing with the whole-graph one along churn streams.

use arbodom::baselines::lp::{maximal_packing, MaintainedPacking};
use arbodom::core::partial::{partial_dominating_set, PartialConfig};
use arbodom::core::{general, randomized, verify, weighted, PackingCertificate};
use arbodom::graph::digest::{edge_digest, EdgeDigest};
use arbodom::graph::orientation::{degeneracy, degeneracy_order};
use arbodom::graph::{generators, weights::WeightModel, Graph, GraphDelta, NodeId};
use arbodom::scenarios::churn::churn_delta;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a reproducible graph from one of the experiment families.
fn arb_graph() -> impl Strategy<Value = (Graph, usize)> {
    (0u64..1_000, 0usize..4, 10usize..120).prop_map(|(seed, family, n)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match family {
            0 => (
                generators::forest_union(n, 1 + (seed % 4) as usize, &mut rng),
                1 + (seed % 4) as usize,
            ),
            1 => {
                let g = generators::gnp(n, 0.08, &mut rng);
                let a = arbodom::graph::arboricity::arboricity_bounds(&g).1.max(1);
                (g, a)
            }
            2 => (generators::random_tree(n.max(2), &mut rng), 1),
            _ => {
                let g = generators::preferential_attachment(n.max(4), 2, &mut rng);
                (g, 2)
            }
        }
    })
}

fn arb_weighted_graph() -> impl Strategy<Value = (Graph, usize)> {
    (arb_graph(), 0u64..500, prop::bool::ANY).prop_map(|((g, a), wseed, weighted)| {
        if weighted {
            let mut rng = StdRng::seed_from_u64(wseed);
            (
                WeightModel::Uniform { lo: 1, hi: 64 }.assign(&g, &mut rng),
                a,
            )
        } else {
            (g, a)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lemma_41_invariants((g, _a) in arb_weighted_graph(),
                           eps in 0.05f64..0.9,
                           lambda_scale in 0.05f64..2.0) {
        let delta_p1 = (g.max_degree() + 1) as f64;
        let lambda = lambda_scale / delta_p1;
        let cfg = PartialConfig::new(eps, lambda).unwrap();
        let out = partial_dominating_set(&g, &cfg);
        // Observation 4.2: packing feasible throughout (checked at end).
        let cert = PackingCertificate::new(out.x.clone());
        prop_assert!(cert.is_feasible(&g, 1e-9),
                     "violation {}", cert.max_violation(&g));
        // Observation 4.3 / property (b).
        for v in g.nodes() {
            let tau = g.tau(v) as f64;
            if !out.dominated[v.index()] {
                prop_assert!(out.x[v.index()] >= lambda.min(1.0 / delta_p1) * tau * (1.0 - 1e-12));
            } else {
                prop_assert!(out.x[v.index()] <= lambda * tau * (1.0 + 1e-9));
            }
        }
        // S ⊆ dominated.
        for v in 0..g.n() {
            if out.in_s[v] {
                prop_assert!(out.dominated[v]);
            }
        }
    }

    #[test]
    fn weighted_solver_always_valid((g, a) in arb_weighted_graph(), eps in 0.05f64..0.9) {
        let cfg = weighted::Config::new(a, eps).unwrap();
        let sol = weighted::solve(&g, &cfg).unwrap();
        prop_assert!(verify::is_dominating_set(&g, &sol.in_ds));
        let cert = sol.certificate.as_ref().unwrap();
        prop_assert!(cert.is_feasible(&g, 1e-9));
        if cert.lower_bound() > 0.0 {
            prop_assert!(sol.weight as f64 <= cfg.guarantee() * cert.lower_bound() * (1.0 + 1e-9));
        }
    }

    #[test]
    fn randomized_solver_always_valid((g, a) in arb_weighted_graph(),
                                      t in 1usize..4,
                                      seed in 0u64..1_000) {
        let cfg = randomized::Config::new(a, t, seed).unwrap();
        let sol = randomized::solve(&g, &cfg).unwrap();
        prop_assert!(verify::is_dominating_set(&g, &sol.in_ds));
        prop_assert!(sol.certificate.as_ref().unwrap().is_feasible(&g, 1e-9));
    }

    #[test]
    fn general_solver_always_valid((g, _a) in arb_weighted_graph(),
                                   k in 1usize..5,
                                   seed in 0u64..1_000) {
        let cfg = general::Config::new(k, seed).unwrap();
        let sol = general::solve(&g, &cfg).unwrap();
        prop_assert!(verify::is_dominating_set(&g, &sol.in_ds));
    }

    #[test]
    fn dsresult_weight_is_sum_of_members((g, a) in arb_weighted_graph()) {
        let sol = weighted::solve(&g, &weighted::Config::new(a, 0.3).unwrap()).unwrap();
        let recomputed: u64 = sol.members().iter().map(|&v| g.weight(v)).sum();
        prop_assert_eq!(sol.weight, recomputed);
        prop_assert_eq!(sol.size, sol.members().len());
    }
}

/// Strategy: a graph for the degeneracy cross-check. Gnp graphs, stars,
/// complete graphs, forest unions with α = 1..5, a forest union padded
/// with isolated nodes, and the graphs on zero and one node.
fn arb_peel_graph() -> impl Strategy<Value = Graph> {
    (0u64..1_000, 0usize..6, 0usize..120).prop_map(|(seed, family, n)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = 1 + (seed % 5) as usize;
        match family {
            0 => generators::gnp(n, 0.02 + 0.03 * (seed % 10) as f64, &mut rng),
            1 => generators::star(n),
            2 => generators::complete(n % 24),
            3 => generators::forest_union(n.max(1), alpha, &mut rng),
            4 => {
                let part = generators::forest_union(n / 2 + 1, alpha, &mut rng);
                Graph::from_edges(n + 2, part.edges().map(|(u, v)| (u.get(), v.get())))
                    .expect("the forest's nodes are in range")
            }
            _ => Graph::from_edges(n % 2, []).expect("an edgeless graph"),
        }
    })
}

/// Strategy: a unit-weight graph for packing and digest maintenance —
/// forest unions with α = 1..5, gnp, stars, and the edgeless graphs on
/// zero, one and two nodes.
fn arb_packing_graph() -> impl Strategy<Value = Graph> {
    (0u64..1_000, 0usize..4, 0usize..400).prop_map(|(seed, family, n)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match family {
            0 => generators::forest_union(n.max(1), 1 + (seed % 5) as usize, &mut rng),
            1 => generators::gnp(n, 0.005 + 0.01 * (seed % 5) as f64, &mut rng),
            2 => generators::star(n),
            _ => Graph::from_edges(n % 3, []).expect("an edgeless graph"),
        }
    })
}

/// Batch `batch` of a churn stream of shape `stream` against `g`:
/// balanced (`k` deletions and `k` insertions), insert-only or
/// delete-only. Graphs on fewer than two nodes get empty batches.
fn stream_batch(g: &Graph, seed: u64, batch: u64, k: usize, stream: usize) -> GraphDelta {
    if g.n() < 2 {
        return GraphDelta::new([], []).expect("the empty batch");
    }
    let d = churn_delta(g, seed.wrapping_mul(31).wrapping_add(batch), k);
    let pairs = |edges: &[(NodeId, NodeId)]| -> Vec<(u32, u32)> {
        edges.iter().map(|&(u, v)| (u.get(), v.get())).collect()
    };
    match stream {
        0 => d,
        1 => GraphDelta::new(pairs(d.inserts()), []).expect("a sampled insert list"),
        _ => GraphDelta::new([], pairs(d.deletes())).expect("a sampled delete list"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_degeneracy_equals_the_ordered_peel(g in arb_peel_graph()) {
        prop_assert_eq!(degeneracy(&g), degeneracy_order(&g).1);
    }

    #[test]
    fn flat_degeneracy_follows_a_churn_stream(seed in 0u64..1_000,
                                              alpha in 1usize..6,
                                              k in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = generators::forest_union(120, alpha, &mut rng);
        for batch in 0..16u64 {
            prop_assert_eq!(degeneracy(&g), degeneracy_order(&g).1, "batch {}", batch);
            g = churn_delta(&g, seed.wrapping_mul(31).wrapping_add(batch), k)
                .apply(&g)
                .expect("churn deltas apply to the graph they were drawn from");
        }
        prop_assert_eq!(degeneracy(&g), degeneracy_order(&g).1);
    }

    #[test]
    fn maintained_packing_follows_a_churn_stream(g in arb_packing_graph(),
                                                 seed in 0u64..1_000,
                                                 k in 1usize..12,
                                                 stream in 0usize..3) {
        let mut g = g;
        let mut packing = MaintainedPacking::new(&g).expect("generated graphs are unit-weight");
        for batch in 0..16u64 {
            let delta = stream_batch(&g, seed, batch, k, stream);
            g = delta
                .apply(&g)
                .expect("stream batches apply to the graph they were drawn from");
            packing.update(&g, &delta.touched());
            let whole = maximal_packing(&g);
            prop_assert_eq!(
                packing.lower_bound().to_bits(),
                whole.lower_bound().to_bits(),
                "batch {}", batch
            );
            let support: Vec<bool> = whole.values().iter().map(|&y| y > 0.0).collect();
            prop_assert_eq!(packing.in_packing(), support.as_slice(), "batch {}", batch);
        }
    }

    #[test]
    fn maintained_digest_follows_a_churn_stream(g in arb_packing_graph(),
                                                weighted in prop::bool::ANY,
                                                seed in 0u64..1_000,
                                                k in 1usize..12,
                                                stream in 0usize..3) {
        let mut g = if weighted {
            WeightModel::Uniform { lo: 1, hi: 1_000 }.assign(&g, &mut StdRng::seed_from_u64(seed))
        } else {
            g
        };
        let mut digest = EdgeDigest::of(&g);
        prop_assert_eq!(digest.value(), edge_digest(&g));
        for batch in 0..16u64 {
            let delta = stream_batch(&g, seed, batch, k, stream);
            g = delta
                .apply(&g)
                .expect("stream batches apply to the graph they were drawn from");
            digest.apply(&delta);
            prop_assert_eq!(digest.value(), edge_digest(&g), "batch {}", batch);
        }
    }
}
