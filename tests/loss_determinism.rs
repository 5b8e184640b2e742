//! Fault-injection determinism: the `LossModel` is a pure function of
//! `(seed, round, sender, port)`, so two runs with the same
//! `(seed, drop_probability)` must produce **bit-identical** telemetry —
//! including `dropped_messages` and the per-round breakdown — and
//! identical outputs, at every thread count and meter mode. Different
//! seeds or probabilities must actually change what is dropped.

use arbodom::congest::{
    run, run_parallel, Globals, LossModel, MeterMode, RunOptions, RunResult, Telemetry,
};
use arbodom::core::distributed::{self, WeightedProgram};
use arbodom::core::{general, randomized, weighted, DsResult};
use arbodom::graph::{generators, weights::WeightModel, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance(n: usize) -> (Graph, weighted::Config) {
    let mut rng = StdRng::seed_from_u64(2024);
    let g = generators::forest_union(n, 3, &mut rng);
    let g = WeightModel::Uniform { lo: 1, hi: 20 }.assign(&g, &mut rng);
    (g, weighted::Config::new(3, 0.3).unwrap())
}

fn lossy_opts(seed: u64, p: f64, meter: MeterMode) -> RunOptions {
    RunOptions {
        meter,
        track_rounds: true,
        loss: Some(LossModel {
            drop_probability: p,
            seed,
        }),
        ..RunOptions::default()
    }
}

fn run_once(
    g: &Graph,
    cfg: weighted::Config,
    opts: &RunOptions,
    threads: usize,
) -> RunResult<arbodom::core::distributed::NodeOutput> {
    let globals = Globals::new(g, 7).with_arboricity(cfg.alpha);
    let make = |v: arbodom::graph::NodeId, g: &Graph| WeightedProgram::new(cfg, g.degree(v));
    if threads <= 1 {
        run(g, &globals, make, opts).unwrap()
    } else {
        run_parallel(g, &globals, make, opts, threads).unwrap()
    }
}

#[test]
fn same_seed_same_probability_is_bit_identical_across_runs_and_threads() {
    let (g, cfg) = instance(400);
    for meter in [MeterMode::Measure, MeterMode::Strict, MeterMode::Off] {
        let opts = lossy_opts(11, 0.15, meter);
        let reference = run_once(&g, cfg, &opts, 1);
        assert!(
            reference.telemetry.dropped_messages > 0,
            "{meter:?}: the workload must actually lose messages"
        );
        // Repeat runs and every thread count reproduce it exactly.
        for threads in [1usize, 2, 4] {
            for rep in 0..2 {
                let again = run_once(&g, cfg, &opts, threads);
                assert_eq!(
                    reference.telemetry, again.telemetry,
                    "{meter:?} threads={threads} rep={rep}: telemetry diverged"
                );
                assert_eq!(
                    reference.outputs, again.outputs,
                    "{meter:?} threads={threads} rep={rep}: outputs diverged"
                );
            }
        }
    }
}

#[test]
fn drops_are_keyed_by_seed_and_probability() {
    let (g, cfg) = instance(400);
    let base = run_once(&g, cfg, &lossy_opts(11, 0.15, MeterMode::Measure), 1);
    let other_seed = run_once(&g, cfg, &lossy_opts(12, 0.15, MeterMode::Measure), 1);
    // Same probability, different coin flips: the drop *pattern* differs
    // (outputs diverge), even if counts happen to be close.
    assert_ne!(
        base.outputs, other_seed.outputs,
        "different seeds must drop different messages"
    );
    let heavier = run_once(&g, cfg, &lossy_opts(11, 0.6, MeterMode::Measure), 1);
    assert!(
        heavier.telemetry.dropped_messages > base.telemetry.dropped_messages,
        "higher drop probability must drop more: {} vs {}",
        heavier.telemetry.dropped_messages,
        base.telemetry.dropped_messages
    );
    // p = 0 is exactly the lossless run.
    let lossless = run_once(&g, cfg, &lossy_opts(11, 0.0, MeterMode::Measure), 1);
    let no_model = run_once(
        &g,
        cfg,
        &RunOptions {
            track_rounds: true,
            ..RunOptions::default()
        },
        1,
    );
    assert_eq!(lossless.telemetry, no_model.telemetry);
    assert_eq!(lossless.outputs, no_model.outputs);
    assert_eq!(lossless.telemetry.dropped_messages, 0);
}

#[test]
fn dropped_messages_are_metered_but_not_delivered() {
    let (g, cfg) = instance(300);
    let lossy = run_once(&g, cfg, &lossy_opts(5, 0.3, MeterMode::Measure), 1);
    let clean = run_once(
        &g,
        cfg,
        &RunOptions {
            track_rounds: true,
            ..RunOptions::default()
        },
        1,
    );
    // Setup rounds (0 and 1) broadcast unconditionally in both runs, so
    // their *sent* traffic is identical even under loss — drops consume
    // bandwidth.
    for round in 0..2 {
        assert_eq!(
            lossy.telemetry.per_round[round].messages, clean.telemetry.per_round[round].messages,
            "round {round}: dropped messages must still be metered as sent"
        );
        assert_eq!(
            lossy.telemetry.per_round[round].bits, clean.telemetry.per_round[round].bits,
            "round {round}: dropped messages must still consume bandwidth"
        );
    }
    assert!(lossy.telemetry.dropped_messages > 0);
}

/// FNV-1a over 64-bit words.
fn fold(acc: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One word sequence for a lossy run: the set, the packing bits and the
/// telemetry, per-round rows included.
fn lossy_digest(sol: &DsResult, t: &Telemetry) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for &member in &sol.in_ds {
        h = fold(h, u64::from(member));
    }
    let cert = sol.certificate.as_ref().expect("primal-dual certificate");
    for x in cert.values() {
        h = fold(h, x.to_bits());
    }
    for word in [
        t.rounds,
        t.total_messages,
        t.total_bits,
        t.max_message_bits,
        t.bandwidth_budget_bits,
        t.budget_violations,
        t.dropped_messages,
        sol.iterations,
    ] {
        h = fold(h, word as u64);
    }
    for rs in &t.per_round {
        for word in [rs.messages, rs.bits, rs.max_message_bits] {
            h = fold(h, word as u64);
        }
    }
    h
}

/// Theorems 1.1, 1.2 and 1.3 under loss have no centralized twin, so
/// their lossy outputs are pinned as digests: each run's set, packing
/// bits and telemetry, at two drop probabilities on one fixed graph.
#[test]
fn lossy_primal_dual_outputs_are_pinned() {
    let (g, cfg) = instance(400);
    let thm12 = randomized::Config::new(3, 2, 7).unwrap();
    let thm13 = general::Config::new(2, 7).unwrap();
    let mut digests = Vec::new();
    for p in [0.01, 0.2] {
        let opts = lossy_opts(11, p, MeterMode::Measure);
        let runs = [
            distributed::run_weighted(&g, &cfg, 7, &opts, 1).unwrap(),
            distributed::run_randomized(&g, &thm12, &opts, 1).unwrap(),
            distributed::run_general(&g, &thm13, &opts, 1).unwrap(),
        ];
        for (sol, telemetry) in &runs {
            assert!(telemetry.dropped_messages > 0, "p={p}: nothing was dropped");
            digests.push(lossy_digest(sol, telemetry));
        }
    }
    // Theorems 1.1, 1.2 and 1.3 at p = 0.01, then at p = 0.2.
    let pinned: [u64; 6] = [
        0x1547_7277_520c_16a8,
        0xa984_55ae_fb16_12cc,
        0x72a9_69f6_595d_3a0e,
        0xa0d4_466b_8e7d_39f1,
        0x4fac_16e2_f751_217b,
        0x24c1_07d7_ddb2_b611,
    ];
    assert_eq!(digests, pinned, "lossy outputs moved");
}
