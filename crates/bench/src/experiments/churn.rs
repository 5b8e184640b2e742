//! E-CHURN — dynamic-graph serving cost: incremental repair (Theorem
//! 1.1's completion rule around the touched vertices) vs full re-solve,
//! measured over the churn scenario registry.
//!
//! Both policies of every sweep point replay the **same** deterministic
//! mutation stream (equal final chain digests witness it), so the cost
//! difference is attributable to the maintenance policy alone. The table
//! gates on repair being measurably cheaper than re-solve over the same
//! stream. The per-batch trajectories of these cells are recorded in the
//! `churn` block of `BENCH_scenarios.json`.

use std::time::Instant;

use crate::report::{check, f3, Table};
use crate::Scale;
use arbodom_scenarios::churn::{churn_registry, run_churn_cell, ChurnCellReport, ChurnPolicy};
use arbodom_scenarios::RunConfig;

/// One sweep point measured under both policies over the same stream.
struct Point {
    scenario: &'static str,
    seed_idx: u64,
    repair: Measured,
    resolve: Measured,
}

/// One churn cell plus its wall-clock cost.
struct Measured {
    cell: ChurnCellReport,
    wall_s: f64,
}

fn measure(
    spec: &arbodom_scenarios::ChurnSpec,
    cfg: &RunConfig,
    rate_idx: usize,
    batches_idx: usize,
    policy: ChurnPolicy,
    seed_idx: u64,
) -> Measured {
    let t = Instant::now();
    let cell = run_churn_cell(spec, cfg, rate_idx, batches_idx, policy, seed_idx)
        .expect("registry churn cell runs");
    Measured {
        cell,
        wall_s: t.elapsed().as_secs_f64(),
    }
}

/// Runs the experiment: every sweep point of every registered churn
/// scenario, each under both maintenance policies.
pub fn run(scale: Scale) -> Vec<Table> {
    // One simulation thread: churn cells are thread-count independent by
    // construction, and sequential wall clocks keep the repair-vs-resolve
    // timing comparison free of scheduling noise.
    let cfg = RunConfig { scale, threads: 1 };
    let mut points = Vec::new();
    for spec in churn_registry() {
        for rate_idx in 0..spec.rates.len() {
            for batches_idx in 0..spec.batches(cfg.scale).len() {
                for seed_idx in 0..spec.seeds {
                    let repair = measure(
                        &spec,
                        &cfg,
                        rate_idx,
                        batches_idx,
                        ChurnPolicy::Repair,
                        seed_idx,
                    );
                    let resolve = measure(
                        &spec,
                        &cfg,
                        rate_idx,
                        batches_idx,
                        ChurnPolicy::Resolve,
                        seed_idx,
                    );
                    // Same stream on both policies, or the comparison is
                    // meaningless.
                    assert_eq!(repair.cell.final_chain, resolve.cell.final_chain);
                    points.push(Point {
                        scenario: spec.name,
                        seed_idx,
                        repair,
                        resolve,
                    });
                }
            }
        }
    }

    let mut table = Table::new(
        "E-CHURN",
        "incremental repair vs full re-solve over identical churn streams",
        &[
            "scenario",
            "n",
            "rate",
            "batches",
            "seed",
            "repair rounds",
            "resolve rounds",
            "repair wall s",
            "resolve wall s",
            "worst drift",
            "valid",
            "cheaper",
        ],
    );
    for p in &points {
        let (rep, res) = (&p.repair, &p.resolve);
        let valid = rep.cell.all_valid && res.cell.all_valid;
        // The acceptance gate, on the deterministic cost metric: fewer
        // simulation rounds than re-solving after every batch. Wall
        // clocks are reported alongside but never gated — at quick scale
        // they are scheduler noise.
        let cheaper = rep.cell.total_rounds < res.cell.total_rounds;
        table.row(vec![
            p.scenario.to_string(),
            rep.cell.n.to_string(),
            f3(rep.cell.rate),
            rep.cell.batches.to_string(),
            p.seed_idx.to_string(),
            rep.cell.total_rounds.to_string(),
            res.cell.total_rounds.to_string(),
            f3(rep.wall_s),
            f3(res.wall_s),
            f3(rep.cell.max_measured_drift),
            check(valid),
            check(cheaper),
        ]);
    }
    let (rep_rounds, res_rounds): (usize, usize) = points
        .iter()
        .map(|p| (p.repair.cell.total_rounds, p.resolve.cell.total_rounds))
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    table.note(format!(
        "both columns replay the same mutation \
         stream (chain digests asserted equal). Repaired batches cost 0 \
         simulation rounds; aggregate: {rep_rounds} repair vs {res_rounds} \
         re-solve rounds ({:.1}% saved). \"worst drift\" is the repair \
         policy's maintained weight over a fresh certified re-solve, \
         measured after every batch.",
        100.0 * (1.0 - rep_rounds as f64 / res_rounds.max(1) as f64),
    ));

    vec![table]
}
