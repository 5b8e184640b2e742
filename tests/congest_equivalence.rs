//! The contract between the two implementations of every algorithm: the
//! bit-faithful CONGEST node program and the centralized simulation must
//! produce **identical** outputs — sets, packing values, and coin flips —
//! on every topology, weight model, and seed. Also pins the exact round
//! schedule and CONGEST bandwidth compliance.
//!
//! The four primal-dual programs (Theorem 1.1, Remark 4.4, Theorems 1.2
//! and 1.3) each run the same sweep: every topology below under every
//! weight model, compared with their centralized solver on the set, the
//! packing values bit for bit, and the iteration count.

use arbodom::congest::{MeterMode, RunOptions, Telemetry};
use arbodom::core::{distributed, general, randomized, trees, unknown_delta, weighted, DsResult};
use arbodom::graph::{generators, weights::WeightModel, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn strict() -> RunOptions {
    RunOptions {
        meter: MeterMode::Strict,
        ..RunOptions::default()
    }
}

fn topologies(rng: &mut StdRng) -> Vec<(String, Graph)> {
    vec![
        ("path".into(), generators::path(60)),
        ("star".into(), generators::star(80)),
        ("cycle".into(), generators::cycle(45)),
        ("grid".into(), generators::grid2d(7, 8, false)),
        ("torus".into(), generators::grid2d(6, 6, true)),
        ("forest-α3".into(), generators::forest_union(150, 3, rng)),
        ("gnp".into(), generators::gnp(120, 0.06, rng)),
        (
            "pa".into(),
            generators::preferential_attachment(150, 2, rng),
        ),
        ("two-components".into(), {
            let mut b = Graph::builder(40);
            for i in 1..20u32 {
                b.add_edge_u32(0, i).unwrap();
            }
            for i in 21..40u32 {
                b.add_edge_u32(20, i).unwrap();
            }
            b.build()
        }),
        (
            "isolated-nodes".into(),
            Graph::from_edges(10, [(0, 1), (2, 3)]).unwrap(),
        ),
    ]
}

/// Every topology under every weight model, in one fixed order: the
/// graphs are the same in each program's sweep.
fn weighted_instances() -> Vec<(String, WeightModel, Graph)> {
    let mut rng = StdRng::seed_from_u64(801);
    let mut out = Vec::new();
    for (name, g) in topologies(&mut rng) {
        for model in [
            WeightModel::Unit,
            WeightModel::Uniform { lo: 1, hi: 30 },
            WeightModel::Exponential { max_exp: 6 },
        ] {
            let g = model.assign(&g, &mut rng);
            out.push((name.clone(), model, g));
        }
    }
    out
}

/// The CONGEST run equals the centralized one on the set, the packing
/// values (by `to_bits`) and the iteration count, within budget.
fn assert_equal_runs(central: &DsResult, dist: &DsResult, telemetry: &Telemetry, label: &str) {
    assert_eq!(central.in_ds, dist.in_ds, "{label}: sets differ");
    let bits = |r: &DsResult| -> Vec<u64> {
        let cert = r.certificate.as_ref().expect("primal-dual certificate");
        cert.values().iter().map(|x| x.to_bits()).collect()
    };
    assert_eq!(bits(central), bits(dist), "{label}: packing values differ");
    assert_eq!(
        central.iterations, dist.iterations,
        "{label}: iteration counts differ"
    );
    assert!(
        telemetry.is_congest_compliant(),
        "{label}: bandwidth violation"
    );
}

#[test]
fn weighted_program_equals_centralized_everywhere() {
    for (name, model, g) in weighted_instances() {
        for alpha in [1usize, 3] {
            let cfg = weighted::Config::new(alpha, 0.3).unwrap();
            let central = weighted::solve(&g, &cfg).unwrap();
            let (dist, telemetry) = distributed::run_weighted(&g, &cfg, 5, &strict(), 1).unwrap();
            assert_equal_runs(
                &central,
                &dist,
                &telemetry,
                &format!("{name} {model:?} α={alpha}"),
            );
        }
    }
}

#[test]
fn unknown_delta_program_equals_centralized_everywhere() {
    for (name, model, g) in weighted_instances() {
        for alpha in [1usize, 3] {
            let cfg = unknown_delta::Config::new(alpha, 0.3).unwrap();
            let central = unknown_delta::solve(&g, &cfg).unwrap();
            let (dist, telemetry) =
                distributed::run_unknown_delta(&g, &cfg, 5, &strict(), 1).unwrap();
            assert_equal_runs(
                &central,
                &dist,
                &telemetry,
                &format!("{name} {model:?} α={alpha}"),
            );
        }
    }
}

#[test]
fn randomized_program_equals_centralized_everywhere() {
    for (name, model, g) in weighted_instances() {
        for alpha in [1usize, 3] {
            for seed in [0u64, 7] {
                let cfg = randomized::Config::new(alpha, 2, seed).unwrap();
                let central = randomized::solve(&g, &cfg).unwrap();
                let (dist, telemetry) =
                    distributed::run_randomized(&g, &cfg, &strict(), 1).unwrap();
                let label = format!("{name} {model:?} α={alpha} seed={seed}");
                assert_equal_runs(&central, &dist, &telemetry, &label);
            }
        }
    }
}

#[test]
fn general_program_equals_centralized_everywhere() {
    for (name, model, g) in weighted_instances() {
        for k in [1usize, 2] {
            let cfg = general::Config::new(k, 3).unwrap();
            let central = general::solve(&g, &cfg).unwrap();
            let (dist, telemetry) = distributed::run_general(&g, &cfg, &strict(), 1).unwrap();
            assert_equal_runs(
                &central,
                &dist,
                &telemetry,
                &format!("{name} {model:?} k={k}"),
            );
        }
    }
}

#[test]
fn randomized_program_equals_centralized_across_seeds() {
    let mut rng = StdRng::seed_from_u64(802);
    for (name, g) in topologies(&mut rng).into_iter().take(6) {
        for seed in [0u64, 7, 1234] {
            let cfg = randomized::Config::new(2, 2, seed).unwrap();
            let central = randomized::solve(&g, &cfg).unwrap();
            let (dist, telemetry) = distributed::run_randomized(&g, &cfg, &strict(), 1).unwrap();
            assert_eq!(
                central.in_ds, dist.in_ds,
                "{name} seed={seed}: same coin flips must give same set"
            );
            assert!(telemetry.is_congest_compliant());
        }
    }
}

#[test]
fn tree_program_equals_centralized() {
    let mut rng = StdRng::seed_from_u64(803);
    for n in [2usize, 3, 17, 200] {
        let g = generators::random_tree(n, &mut rng);
        let central = trees::solve(&g).unwrap();
        let (dist, telemetry) = distributed::run_trees(&g, &strict()).unwrap();
        assert_eq!(central.in_ds, dist.in_ds, "n={n}");
        assert!(telemetry.rounds <= 2);
    }
}

#[test]
fn round_schedule_is_exact() {
    // rounds = 2 setup + 2·iterations + 2 completion, pinned.
    let mut rng = StdRng::seed_from_u64(804);
    let g = generators::forest_union(200, 2, &mut rng);
    let cfg = weighted::Config::new(2, 0.4).unwrap();
    let central = weighted::solve(&g, &cfg).unwrap();
    let r = central.iterations - 1; // solve() adds the completion iteration
    let (_, telemetry) = distributed::run_weighted(&g, &cfg, 0, &strict(), 1).unwrap();
    assert_eq!(telemetry.rounds, 2 + 2 * r + 2);
}

#[test]
fn steady_state_traffic_is_constant_bits() {
    let mut rng = StdRng::seed_from_u64(805);
    let g = generators::forest_union(400, 3, &mut rng);
    let g = WeightModel::Uniform {
        lo: 1,
        hi: 1_000_000,
    }
    .assign(&g, &mut rng);
    let cfg = weighted::Config::new(3, 0.2).unwrap();
    let opts = RunOptions {
        track_rounds: true,
        ..strict()
    };
    let (_, telemetry) = distributed::run_weighted(&g, &cfg, 0, &opts, 1).unwrap();
    // After the two setup rounds every message is a 1-byte event.
    for (i, rs) in telemetry.per_round.iter().enumerate().skip(2) {
        assert!(
            rs.max_message_bits <= 8,
            "round {i}: steady-state message of {} bits",
            rs.max_message_bits
        );
    }
}

#[test]
fn parallel_runner_reproduces_sequential_for_node_programs() {
    let mut rng = StdRng::seed_from_u64(806);
    let g = generators::forest_union(600, 2, &mut rng);
    let cfg = weighted::Config::new(2, 0.3).unwrap();
    let globals = arbodom::congest::Globals::new(&g, 3).with_arboricity(2);
    let make =
        |v: arbodom::graph::NodeId, g: &Graph| distributed::WeightedProgram::new(cfg, g.degree(v));
    let seq = arbodom::congest::run(&g, &globals, make, &RunOptions::default()).unwrap();
    let par =
        arbodom::congest::run_parallel(&g, &globals, make, &RunOptions::default(), 4).unwrap();
    let seq_sets: Vec<bool> = seq.outputs.iter().map(|o| o.in_ds).collect();
    let par_sets: Vec<bool> = par.outputs.iter().map(|o| o.in_ds).collect();
    assert_eq!(seq_sets, par_sets);
    assert_eq!(seq.telemetry.rounds, par.telemetry.rounds);
    assert_eq!(seq.telemetry.total_bits, par.telemetry.total_bits);
}
