//! Differential property tests for the simulator core: on random
//! bounded-arboricity graphs, the sequential and sharded parallel
//! runners must be observationally identical — same outputs *and* same
//! telemetry, down to the per-round breakdown — at every thread count,
//! at every shard size (one-node shards, a mid size, one whole-graph
//! shard, and the automatic choice), and in every [`MeterMode`], for
//! every node program with per-port state (Theorem 1.1, Remark 4.4,
//! Theorems 1.2 and 1.3); and the Theorem 1.1 node program must match its
//! centralized counterpart node for node.
//!
//! These tests are the safety net under the simulator's performance work:
//! any scheduling, arena, or metering change that perturbs observable
//! behavior fails here before it can skew an experiment.

use arbodom::congest::{
    run, run_parallel, run_parallel_in, Globals, MeterMode, NodeProgram, RunOptions, SimObs,
    Telemetry, WorkerPool,
};
use arbodom::core::{distributed, general, randomized, unknown_delta, weighted};
use arbodom::graph::{generators, weights::WeightModel, Graph, GraphBuilder, NodeId};
use arbodom::obs::Registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random bounded-arboricity instance: α forests over `n` nodes, with
/// random positive weights.
fn instance(n: usize, alpha: usize, seed: u64, wseed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::forest_union(n, alpha, &mut rng);
    let mut wrng = StdRng::seed_from_u64(wseed);
    WeightModel::Uniform { lo: 1, hi: 30 }.assign(&g, &mut wrng)
}

fn opts(meter: MeterMode) -> RunOptions {
    RunOptions {
        meter,
        track_rounds: true, // make telemetry comparison as strong as possible
        ..RunOptions::default()
    }
}

/// Runs `make`'s node program under both runners — across thread
/// counts **and shard sizes**, from degenerate one-node shards through
/// the automatic cache-sized choice to a single whole-graph shard — and
/// asserts they are indistinguishable, outputs and telemetry; returns
/// the sequential telemetry for further use.
fn assert_runners_agree<P>(
    label: &str,
    g: &Graph,
    globals: &Globals,
    make: impl Fn(NodeId, &Graph) -> P + Copy,
    meter: MeterMode,
) -> Result<Telemetry, proptest::test_runner::TestCaseError>
where
    P: NodeProgram,
    P::Output: PartialEq + std::fmt::Debug,
{
    let seq = run(g, globals, make, &opts(meter)).expect("sequential run succeeds");
    for shard_size in [None, Some(1), Some(64), Some(g.n())] {
        let o = RunOptions {
            shard_size,
            ..opts(meter)
        };
        for threads in [1usize, 2, 4] {
            let par = run_parallel(g, globals, make, &o, threads).expect("parallel run succeeds");
            prop_assert_eq!(
                &seq.outputs,
                &par.outputs,
                "{} {:?} threads={} shard={:?}: outputs differ",
                label,
                meter,
                threads,
                shard_size
            );
            prop_assert_eq!(
                &seq.telemetry,
                &par.telemetry,
                "{} {:?} threads={} shard={:?}: telemetry differs",
                label,
                meter,
                threads,
                shard_size
            );
        }
    }
    Ok(seq.telemetry)
}

/// Theorem 1.1's node program under [`assert_runners_agree`].
fn assert_thm11_runners_agree(
    g: &Graph,
    cfg: weighted::Config,
    seed: u64,
    meter: MeterMode,
) -> Result<Telemetry, proptest::test_runner::TestCaseError> {
    let globals = Globals::new(g, seed).with_arboricity(cfg.alpha);
    let make = |v: NodeId, g: &Graph| distributed::WeightedProgram::new(cfg, g.degree(v));
    assert_runners_agree("thm1.1", g, &globals, make, meter)
}

/// The other node programs with per-port state — Remark 4.4 and
/// Theorems 1.2 and 1.3 — under [`assert_runners_agree`], metered.
fn assert_per_port_programs_agree(
    g: &Graph,
    alpha: usize,
    seed: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let meter = MeterMode::Measure;
    let ud = unknown_delta::Config::new(alpha, 0.3).expect("valid config");
    let globals = Globals::new(g, seed).with_arboricity(alpha);
    let make = |v: NodeId, g: &Graph| distributed::UnknownDeltaProgram::new(ud, g.degree(v));
    assert_runners_agree("remark4.4", g, &globals, make, meter)?;
    let rnd = randomized::Config::new(alpha, 2, seed).expect("valid config");
    let globals = Globals::new(g, rnd.seed).with_arboricity(alpha);
    let make = |v: NodeId, g: &Graph| distributed::RandomizedProgram::new(rnd, g.degree(v));
    assert_runners_agree("thm1.2", g, &globals, make, meter)?;
    let gen = general::Config::new(2, seed).expect("valid config");
    let globals = Globals::new(g, gen.seed);
    let make = |v: NodeId, g: &Graph| distributed::RandomizedProgram::new_general(gen, g.degree(v));
    assert_runners_agree("thm1.3", g, &globals, make, meter)?;
    Ok(())
}

/// 320 weighted nodes: a hub (node 1) adjacent to 2..64 and 129..192, a
/// path over 193..320 broken at multiples of 64, and everything else
/// isolated (0, 64..=128, 192, 256). With one-node and 64-node shards,
/// shards start on zero-degree nodes and whole shards (64..128) own
/// empty port slices, while the hub's ports span shards.
fn hub_with_isolated_nodes() -> Graph {
    let mut b = GraphBuilder::new(320);
    for u in (2..64).chain(129..192) {
        b.add_edge_u32(1, u).expect("valid edge");
    }
    for u in (193..319).filter(|u| u % 64 != 0 && (u + 1) % 64 != 0) {
        b.add_edge_u32(u, u + 1).expect("valid edge");
    }
    let mut wrng = StdRng::seed_from_u64(5);
    WeightModel::Uniform { lo: 1, hi: 30 }.assign(&b.build(), &mut wrng)
}

#[test]
fn per_port_programs_agree_on_a_hub_with_isolated_nodes() {
    let g = hub_with_isolated_nodes();
    assert_eq!(g.degree(NodeId::from_index(1)), 125);
    for v in [0, 64, 100, 128, 192, 256] {
        assert_eq!(g.degree(NodeId::from_index(v)), 0, "node {v}");
    }
    for seed in [3u64, 8] {
        let cfg = weighted::Config::new(1, 0.3).expect("valid config");
        for meter in [MeterMode::Measure, MeterMode::Strict, MeterMode::Off] {
            assert_thm11_runners_agree(&g, cfg, seed, meter).expect("runners agree");
        }
        assert_per_port_programs_agree(&g, 1, seed).expect("runners agree");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `run` and `run_parallel` (1/2/4 threads × shard sizes
    /// {auto, 1, 64, whole-graph}) are observationally identical for
    /// every meter mode. Sizes straddle the parallel runner's
    /// sequential-fallback threshold (128 nodes), so both the fallback
    /// and the real sharded path are exercised.
    #[test]
    fn parallel_is_indistinguishable_from_sequential(
        n in 100usize..350,
        alpha in 1usize..4,
        seed: u64,
        wseed: u64,
    ) {
        let g = instance(n, alpha, seed, wseed);
        let cfg = weighted::Config::new(alpha, 0.3).expect("valid config");
        let measure_t = assert_thm11_runners_agree(&g, cfg, seed, MeterMode::Measure)?;
        let strict_t = assert_thm11_runners_agree(&g, cfg, seed, MeterMode::Strict)?;
        let off_t = assert_thm11_runners_agree(&g, cfg, seed, MeterMode::Off)?;
        // Cross-mode invariants: metering changes what is measured, never
        // what happens.
        prop_assert_eq!(measure_t.rounds, strict_t.rounds);
        prop_assert_eq!(measure_t.rounds, off_t.rounds);
        prop_assert_eq!(measure_t.total_messages, strict_t.total_messages);
        prop_assert_eq!(measure_t.total_messages, off_t.total_messages);
        prop_assert_eq!(measure_t.total_bits, strict_t.total_bits);
        prop_assert_eq!(off_t.total_bits, 0);
        prop_assert_eq!(off_t.max_message_bits, 0);
    }

    /// The same sweep for the other programs with per-port state: Remark
    /// 4.4 (`UnknownDeltaProgram`) and Theorems 1.2 and 1.3
    /// (`RandomizedProgram::new` and `new_general`) produce the
    /// sequential runner's outputs and telemetry at every thread count
    /// and shard size.
    #[test]
    fn per_port_programs_are_indistinguishable_across_runners(
        n in 100usize..350,
        alpha in 1usize..4,
        seed: u64,
        wseed: u64,
    ) {
        let g = instance(n, alpha, seed, wseed);
        assert_per_port_programs_agree(&g, alpha, seed)?;
    }

    /// Worker-pool reuse: back-to-back runs on one persistent
    /// [`WorkerPool`] are observationally identical to fresh
    /// per-run-pool executions — outputs and telemetry, at several shard
    /// sizes — and the pool spawns **zero** OS threads after
    /// construction, however many runs it executes (the spawn-count pin
    /// for the epoch-driven round barrier).
    #[test]
    fn pool_reuse_is_observationally_fresh(
        n in 150usize..350,
        alpha in 1usize..4,
        seed: u64,
        wseed: u64,
    ) {
        let g = instance(n, alpha, seed, wseed);
        let cfg = weighted::Config::new(alpha, 0.3).expect("valid config");
        let globals = Globals::new(&g, seed).with_arboricity(cfg.alpha);
        let make = |v: arbodom::graph::NodeId, g: &Graph| {
            distributed::WeightedProgram::new(cfg, g.degree(v))
        };
        let pool = WorkerPool::new(4);
        let spawned_at_construction = pool.threads_spawned();
        prop_assert_eq!(spawned_at_construction, 3, "4 workers = caller + 3 spawns");
        for shard_size in [None, Some(1), Some(64)] {
            let o = RunOptions { shard_size, ..opts(MeterMode::Measure) };
            let fresh = run_parallel(&g, &globals, make, &o, 4).expect("fresh run");
            let first = run_parallel_in(&pool, &g, &globals, make, &o).expect("pooled run 1");
            let second = run_parallel_in(&pool, &g, &globals, make, &o).expect("pooled run 2");
            for (label, pooled) in [("first", &first), ("second", &second)] {
                let fresh_ds: Vec<bool> = fresh.outputs.iter().map(|out| out.in_ds).collect();
                let pooled_ds: Vec<bool> = pooled.outputs.iter().map(|out| out.in_ds).collect();
                prop_assert_eq!(
                    fresh_ds,
                    pooled_ds,
                    "{} pooled run, shard={:?}: set differs",
                    label,
                    shard_size
                );
                let fresh_x: Vec<f64> = fresh.outputs.iter().map(|out| out.x).collect();
                let pooled_x: Vec<f64> = pooled.outputs.iter().map(|out| out.x).collect();
                prop_assert_eq!(
                    fresh_x,
                    pooled_x,
                    "{} pooled run, shard={:?}: packing values differ",
                    label,
                    shard_size
                );
                prop_assert_eq!(
                    &fresh.telemetry,
                    &pooled.telemetry,
                    "{} pooled run, shard={:?}: telemetry differs",
                    label,
                    shard_size
                );
            }
        }
        prop_assert_eq!(
            pool.threads_spawned(),
            spawned_at_construction,
            "steady state must never spawn threads"
        );
    }

    /// The observability side channel is *only* a side channel: runs
    /// with [`SimObs`] attached produce bit-identical outputs and
    /// telemetry to unobserved runs — across both runners, thread
    /// counts, shard sizes, and every meter mode — while the observed
    /// registry actually accumulates (rounds counted, phase histograms
    /// populated) and the unobserved path touches no registry at all.
    #[test]
    fn observed_runs_are_bit_identical_to_unobserved(
        n in 100usize..300,
        alpha in 1usize..4,
        seed: u64,
        wseed: u64,
    ) {
        let g = instance(n, alpha, seed, wseed);
        let cfg = weighted::Config::new(alpha, 0.3).expect("valid config");
        let globals = Globals::new(&g, seed).with_arboricity(cfg.alpha);
        let make = |v: arbodom::graph::NodeId, g: &Graph| {
            distributed::WeightedProgram::new(cfg, g.degree(v))
        };
        let registry = Registry::new();
        let obs = SimObs::new(&registry);
        let mut rounds = 0u64;
        let mut messages = 0u64;
        for meter in [MeterMode::Measure, MeterMode::Strict, MeterMode::Off] {
            let plain = opts(meter);
            let observed = RunOptions { obs: Some(obs.clone()), ..opts(meter) };
            let baseline = run(&g, &globals, make, &plain).expect("unobserved sequential");
            let base_ds: Vec<bool> = baseline.outputs.iter().map(|out| out.in_ds).collect();
            let base_x: Vec<f64> = baseline.outputs.iter().map(|out| out.x).collect();
            rounds = baseline.telemetry.rounds as u64;
            messages = baseline.telemetry.total_messages as u64;
            let seq_obs = run(&g, &globals, make, &observed).expect("observed sequential");
            prop_assert_eq!(
                &base_ds,
                &seq_obs.outputs.iter().map(|out| out.in_ds).collect::<Vec<_>>(),
                "{:?}: sequential set differs under observation",
                meter
            );
            prop_assert_eq!(
                &base_x,
                &seq_obs.outputs.iter().map(|out| out.x).collect::<Vec<_>>(),
                "{:?}: sequential packing values differ under observation",
                meter
            );
            prop_assert_eq!(
                &baseline.telemetry,
                &seq_obs.telemetry,
                "{:?}: sequential telemetry differs under observation",
                meter
            );
            for threads in [1usize, 2, 4] {
                for shard_size in [None, Some(1), Some(64)] {
                    let o = RunOptions {
                        shard_size,
                        obs: Some(obs.clone()),
                        ..opts(meter)
                    };
                    let par = run_parallel(&g, &globals, make, &o, threads)
                        .expect("observed parallel");
                    prop_assert_eq!(
                        &base_ds,
                        &par.outputs.iter().map(|out| out.in_ds).collect::<Vec<_>>(),
                        "{:?} threads={} shard={:?}: set differs under observation",
                        meter,
                        threads,
                        shard_size
                    );
                    prop_assert_eq!(
                        &base_x,
                        &par.outputs.iter().map(|out| out.x).collect::<Vec<_>>(),
                        "{:?} threads={} shard={:?}: packing values differ under observation",
                        meter,
                        threads,
                        shard_size
                    );
                    prop_assert_eq!(
                        &baseline.telemetry,
                        &par.telemetry,
                        "{:?} threads={} shard={:?}: telemetry differs under observation",
                        meter,
                        threads,
                        shard_size
                    );
                }
            }
        }
        // The side channel really observed: 3 meter modes × (1 observed
        // sequential + 3 thread counts × 3 shard sizes) runs, each
        // `rounds` long. (The unobserved baselines contribute nothing.)
        let observed_runs = 3 * (1 + 3 * 3) as u64;
        prop_assert_eq!(
            registry.counter(arbodom::congest::obs::SIM_ROUNDS_TOTAL).get(),
            observed_runs * rounds,
            "round counter must see every observed run"
        );
        prop_assert!(
            registry.histogram(arbodom::congest::obs::SIM_ROUND_NANOS).count() > 0,
            "round-wall histogram must be populated"
        );
        // Message sizes are metered in Measure and Strict but never Off:
        // 2 of 3 modes contribute, each delivering `total_messages`.
        prop_assert_eq!(
            registry.histogram(arbodom::congest::obs::SIM_MESSAGE_BITS).count(),
            (2 * (1 + 3 * 3)) as u64 * messages,
            "message-size histogram must see exactly the metered deliveries"
        );
    }

    /// Theorem 1.1 as a message-passing computation equals the
    /// centralized solver node for node — membership and dual
    /// certificate, bit-identical.
    #[test]
    fn thm11_distributed_matches_centralized_node_for_node(
        n in 60usize..300,
        alpha in 1usize..4,
        seed: u64,
        wseed: u64,
    ) {
        let g = instance(n, alpha, seed, wseed);
        let cfg = weighted::Config::new(alpha, 0.25).expect("valid config");
        let central = weighted::solve(&g, &cfg).expect("centralized solve");
        let (dist, telemetry) =
            distributed::run_weighted(&g, &cfg, seed, &opts(MeterMode::Strict), 1)
                .expect("distributed run");
        prop_assert_eq!(&central.in_ds, &dist.in_ds, "membership differs");
        prop_assert_eq!(
            central.certificate.as_ref().expect("centralized certificate").values(),
            dist.certificate.as_ref().expect("distributed certificate").values(),
            "packing certificates must be bit-identical"
        );
        prop_assert!(telemetry.is_congest_compliant());
        // And the distributed result is a real dominating set.
        prop_assert!(arbodom::core::verify::is_dominating_set(&g, &dist.in_ds));
    }
}
