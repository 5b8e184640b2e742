//! E-CMP — the Section 1.1 comparison: the paper's algorithms against the
//! baseline portfolio on a fixed workload set.
//!
//! The workload portfolio is **defined in the scenario registry** (the
//! `compare`-tagged scenarios): each table reuses the registry cell's
//! instance — rebuilt bit-for-bit through
//! [`arbodom_scenarios::runner::cell_instance`] and verified against the
//! reported graph digest — so the baselines run on exactly the graphs the
//! scenario matrix tracks in `BENCH_scenarios.json`. The paper rows come
//! from the scenario engine's typed [`Algorithm`] axis; the baselines are
//! centralized reference algorithms, which is why they run outside the
//! CONGEST matrix.

use crate::report::{f2, f3, Table};
use crate::Scale;
use arbodom_baselines::{bu_rounding, greedy, lp, parallel_greedy, trivial};
use arbodom_congest::RunOptions;
use arbodom_core::verify;
use arbodom_graph::digest::edge_digest;
use arbodom_graph::orientation;
use arbodom_scenarios::runner::{cell_instance, run_first_cell, RunConfig};
use arbodom_scenarios::spec::Algorithm;

struct Row {
    name: String,
    rounds_class: &'static str,
    weight: u64,
    rounds: Option<usize>,
}

/// The registry scenarios whose instances form the portfolio.
const SCENARIOS: &[&str] = &["compare-pref-attach", "compare-torus", "compare-planted"];

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let cfg = RunConfig { scale, threads: 4 };
    let mut tables = Vec::new();
    for name in SCENARIOS {
        let spec = arbodom_scenarios::find(name).expect("scenario registered");
        // Only the anchor cell is needed here — the full matrix is the
        // `scenarios` CLI's job.
        let cell = run_first_cell(&spec, &cfg).expect("scenario cell runs");
        assert!(
            cell.valid && !cell.flagged,
            "{name}: scenario cell failed quality accounting"
        );

        // Rebuild the cell's instance and prove it is the same graph the
        // matrix measured.
        let n = spec.sizes(cfg.scale)[0];
        let built = cell_instance(&spec, n, 0, 0, 0, 0).expect("instance rebuilds");
        let g = &built.graph;
        assert_eq!(
            edge_digest(g),
            cell.graph_digest,
            "rebuilt instance must match the scenario cell"
        );
        let alpha = spec
            .family
            .alpha_bound()
            .unwrap_or_else(|| orientation::degeneracy_order(g).1.max(1));

        let lb = cell.opt_estimate.max(1.0);
        let mut table = Table::new(
            "E-CMP",
            format!(
                "algorithm comparison on {} n={} (Δ = {}, {} ref = {:.0})",
                spec.family.label(),
                g.n(),
                g.max_degree(),
                cell.reference.label(),
                lb
            ),
            &["algorithm", "round class", "|DS| (=w)", "vs ref", "rounds"],
        );
        let mut rows: Vec<Row> = Vec::new();

        // The scenario's own cell IS the Theorem 1.1 row.
        rows.push(Row {
            name: format!("Thm 1.1 det (2α+1)(1+ε) [{}]", spec.algorithm.label()),
            rounds_class: "O(log(Δ/α)/ε)",
            weight: cell.ds_weight,
            rounds: Some(cell.rounds),
        });

        // The other paper algorithms run on the same instance through the
        // same typed Algorithm axis.
        let opts = RunOptions::default();
        for (alg, label, class) in [
            (
                Algorithm::Randomized { t: 2 },
                "Thm 1.2 rand α+O(α/t), t=2",
                "O(t log Δ)",
            ),
            (
                Algorithm::General { k: 2 },
                "Thm 1.3 general O(kΔ^{2/k}), k=2",
                "O(k²)",
            ),
        ] {
            let (sol, telemetry) = alg
                .execute(g, alpha, cell.cell_seed, &opts, cfg.threads)
                .expect("algorithm runs");
            assert!(verify::is_dominating_set(g, &sol.in_ds));
            rows.push(Row {
                name: label.to_string(),
                rounds_class: class,
                weight: sol.weight,
                rounds: Some(telemetry.rounds),
            });
        }

        let seq = greedy::solve(g);
        rows.push(Row {
            name: "greedy ln Δ [Joh74] (sequential)".into(),
            rounds_class: "not distributed",
            weight: seq.weight,
            rounds: None,
        });

        let par = parallel_greedy::solve(g);
        rows.push(Row {
            name: "parallel greedy (folklore)".into(),
            rounds_class: "O(log² Δ)-ish",
            weight: par.weight,
            rounds: None,
        });

        if g.is_unit_weighted() {
            let bu = bu_rounding::solve(g).expect("unit weights");
            assert!(verify::is_dominating_set(g, &bu.in_ds));
            rows.push(Row {
                name: "LP+round, BU17-style O(α)".into(),
                rounds_class: "O(log²Δ/ε⁴) via [KMW06]",
                weight: bu.weight,
                rounds: None,
            });
        }

        let all = trivial::all_nodes(g);
        rows.push(Row {
            name: "all nodes (anchor)".into(),
            rounds_class: "0",
            weight: all.weight,
            rounds: None,
        });

        for r in rows {
            table.row(vec![
                r.name,
                r.rounds_class.into(),
                r.weight.to_string(),
                f3(r.weight as f64 / lb),
                r.rounds
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "—".into()),
            ]);
        }
        let packing_lb = lp::maximal_packing(g).lower_bound().max(1.0);
        table.note(format!(
            "instance {}, digest {:#018x}, from the scenario registry; theorem bounds at \
             α = {alpha}: det (2α+1)(1+ε) = {}, rand t=2 ≈ α+α/2 = {}; 'vs ref' divides by \
             the cell's reference ({}; independent maximal-packing LB = {:.0}), so ratios \
             of the paper rows are conservative overestimates.",
            spec.name,
            cell.graph_digest,
            f2((2 * alpha + 1) as f64 * 1.2),
            f2(alpha as f64 * 1.5),
            cell.reference.label(),
            packing_lb,
        ));
        tables.push(table);
    }
    tables
}
