//! E-CHURN — dynamic-graph serving cost: incremental repair (Theorem
//! 1.1's completion rule around the touched vertices) vs full re-solve,
//! measured over the churn scenario registry.
//!
//! Both policies of every sweep point replay the **same** deterministic
//! mutation stream (equal final chain digests witness it), so the cost
//! difference is attributable to the maintenance policy alone. The
//! per-batch trajectory — cumulative simulation rounds and measured
//! quality drift after every batch — is written to `BENCH_churn.json`;
//! the table gates on the PR's acceptance criterion: repair must be
//! measurably cheaper than re-solve on the recorded trajectory.

use std::time::Instant;

use crate::report::{check, f3, Table};
use crate::Scale;
use arbodom_scenarios::churn::{churn_registry, run_churn_cell, ChurnCellReport, ChurnPolicy};
use arbodom_scenarios::json::{JsonArr, JsonObj};
use arbodom_scenarios::RunConfig;

/// The trajectory artifact at the workspace root.
pub const ARTIFACT_NAME: &str = "BENCH_churn.json";

/// One sweep point measured under both policies over the same stream.
struct Point {
    scenario: &'static str,
    family: String,
    algorithm: String,
    max_drift: f64,
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
                        family: spec.family.label(),
                        algorithm: spec.algorithm.label(),
                        max_drift: spec.max_drift,
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
        "written to {ARTIFACT_NAME}; both columns replay the same mutation \
         stream (chain digests asserted equal). Repaired batches cost 0 \
         simulation rounds; aggregate: {rep_rounds} repair vs {res_rounds} \
         re-solve rounds ({:.1}% saved). \"worst drift\" is the repair \
         policy's maintained weight over a fresh certified re-solve, \
         measured after every batch.",
        100.0 * (1.0 - rep_rounds as f64 / res_rounds.max(1) as f64),
    ));

    crate::write_artifact(scale, ARTIFACT_NAME, &artifact_json(scale, &points));
    vec![table]
}

/// One policy's JSON leg: totals plus the per-batch trajectory.
fn policy_json(m: &Measured) -> String {
    let c = &m.cell;
    let mut rounds_cum = 0usize;
    let trajectory = JsonArr::from_raw(c.batch_reports.iter().map(|b| {
        rounds_cum += b.rounds;
        JsonObj::new()
            .int("batch", b.batch)
            .bool("repaired", b.repaired)
            .int("rounds", b.rounds)
            .int("rounds_cum", rounds_cum)
            .num("measured_drift", b.measured_drift)
            .num("drift_estimate", b.drift_estimate)
            .bool("valid", b.valid)
            .render()
    }));
    JsonObj::new()
        .num("wall_seconds", m.wall_s)
        .int("initial_rounds", c.initial_rounds)
        .int("total_rounds", c.total_rounds)
        .int("resolves", c.resolves)
        .u64("initial_weight", c.initial_weight)
        .u64("final_weight", c.final_weight)
        .num("max_measured_drift", c.max_measured_drift)
        .bool("all_valid", c.all_valid)
        .raw("trajectory", trajectory.render())
        .render()
}

/// The `BENCH_churn.json` document.
fn artifact_json(scale: Scale, points: &[Point]) -> String {
    let rows = JsonArr::from_raw(points.iter().map(|p| {
        JsonObj::new()
            .str("scenario", p.scenario)
            .str("family", &p.family)
            .str("algorithm", &p.algorithm)
            .num("max_drift", p.max_drift)
            .int("n", p.repair.cell.n)
            .int("m0", p.repair.cell.m0)
            .num("rate", p.repair.cell.rate)
            .int("batches", p.repair.cell.batches)
            .u64("seed_idx", p.seed_idx)
            .str("cell_seed", &format!("{:#018x}", p.repair.cell.cell_seed))
            .str(
                "final_chain",
                &format!("{:#018x}", p.repair.cell.final_chain),
            )
            .bool(
                "repair_cheaper",
                p.repair.cell.total_rounds < p.resolve.cell.total_rounds,
            )
            .raw("repair", policy_json(&p.repair))
            .raw("resolve", policy_json(&p.resolve))
            .render()
    }));
    JsonObj::new()
        .str("schema", "arbodom-churn/v1")
        .str("scale", scale.label())
        .int("points", points.len())
        .raw("rows", rows.render())
        .render()
}
