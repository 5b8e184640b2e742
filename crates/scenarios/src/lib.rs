//! Declarative experiment matrix for the `arbodom` workspace.
//!
//! PR 2 made the CONGEST simulator fast; this crate makes the speed buy
//! *breadth*. Instead of one hand-rolled binary per experiment, an
//! experiment is a [`ScenarioSpec`] **value**: a graph family × a size
//! sweep × weight models × a loss sweep × a seed set × an algorithm × a
//! meter mode. The typed [`registry`](mod@registry) names ≥ 12 of them; the matrix
//! [`runner`] expands each into cells and executes every cell through the
//! thread-parallel simulator; the [`report`] serializes solution quality
//! (approximation ratio against the best certified reference) and round
//! counts (against the theorems' `O(ε⁻¹ log Δ)`-style budgets) to
//! `BENCH_scenarios.json` at the workspace root, next to `BENCH_sim.json`.
//!
//! # Scenario cookbook
//!
//! **Run scenarios.** The `scenarios` binary lists and runs the registry:
//!
//! ```text
//! cargo run --release -p arbodom-scenarios --bin scenarios -- list
//! cargo run --release -p arbodom-scenarios --bin scenarios -- run            # full matrix
//! cargo run --release -p arbodom-scenarios --bin scenarios -- run thm11     # name/tag filter
//! cargo run --release -p arbodom-scenarios --bin scenarios -- run --quick --threads 8
//! ```
//!
//! `run` executes every matching cell, prints one summary row per
//! scenario, and writes `BENCH_scenarios.json`. `--quick` (or
//! `ARBODOM_QUICK=1`, the CI convention) selects the small size sweeps.
//!
//! **Define a scenario.** A scenario is data — pick a family, an
//! algorithm, and the sweep axes:
//!
//! ```
//! use arbodom_scenarios::spec::{Algorithm, Family, ScenarioSpec};
//! use arbodom_scenarios::runner::{run_scenario, RunConfig};
//! use arbodom_congest::MeterMode;
//! use arbodom_graph::weights::WeightModel;
//!
//! let spec = ScenarioSpec {
//!     name: "my-planar-sweep",
//!     title: "Theorem 1.1 on dense planar graphs",
//!     tags: &["mine", "planar"],
//!     family: Family::RandomPlanar { diag_p: 0.9 },
//!     quick_sizes: &[200],
//!     full_sizes: &[5_000, 20_000],
//!     weights: &[WeightModel::Unit],
//!     loss: &[0.0],
//!     seeds: 2,
//!     algorithm: Algorithm::Weighted { eps: 0.2 },
//!     meter: MeterMode::Measure,
//! };
//! let report = run_scenario(&spec, &RunConfig::default())?;
//! assert_eq!(report.cells.len(), 2);        // 1 size × 1 weight × 1 loss × 2 seeds
//! assert_eq!(report.flagged_cells(), 0);    // quality accounting is clean
//! # Ok::<(), arbodom_scenarios::runner::RunError>(())
//! ```
//!
//! **Register it** by adding the value to [`registry::registry`] — the
//! CLI, the CI smoke job, and the `arbodom-bench` experiments all read
//! that one list.
//!
//! **Read a cell.** Each [`report::CellReport`] row answers three
//! questions:
//!
//! * *Is the solution good?* — `ratio` = solution weight over the best
//!   available reference (`reference` ∈ exact | planted | packing-lb, in
//!   that preference order; see [`quality`]), `within_guarantee` compares
//!   it to the theorem bound, and `flagged` raises on accounting
//!   inconsistencies (invalid solution, certified bound violated, exact
//!   optimum "beaten").
//! * *Was it fast in rounds?* — `rounds` vs `round_budget`, the
//!   implemented schedule of the theorem's `O(ε⁻¹ log Δ)` statement.
//! * *What did the network do?* — message/bit telemetry from the metered
//!   simulator, including `budget_violations` (CONGEST compliance) and
//!   `dropped_messages` (fault injection).
//!
//! **Determinism.** A cell's seed is derived from the scenario name and
//! cell coordinates ([`runner::cell_seed`]); the simulator's parallel
//! runner is bit-identical to its sequential one. Consequently the whole
//! artifact is byte-identical at any `--threads` value — tested end to
//! end, and the reason wall-clock timings are deliberately absent from
//! it. `BENCH_sim.json` records how fast the simulator runs;
//! `BENCH_scenarios.json` records what the algorithms achieve. The
//! `graph_digest` column ties each cell to the seed-stability pins in
//! `arbodom-graph`, and [`runner::cell_instance`] rebuilds the exact
//! instance of any cell for offline inspection.
//!
//! **Dynamic graphs.** The [`churn`] module is the dynamic sibling of
//! the static matrix: named [`churn::ChurnSpec`]s drive a solved
//! instance through deterministic [`arbodom_graph::GraphDelta`] streams
//! (update-rate sweep × batch-count sweep × repair-vs-resolve policy),
//! check validity and measure quality drift against a certified
//! re-solve after **every** batch, and land in the `churn` block of the
//! same artifact. `scenarios run` executes both registries; filters
//! apply to both (`scenarios run churn` selects just the dynamic
//! family).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod json;
pub mod quality;
pub mod registry;
pub mod report;
pub mod runner;
pub mod spec;

pub use churn::{churn_registry, run_churn_matching, run_churn_scenario, ChurnReport, ChurnSpec};
pub use registry::{find, registry};
pub use report::{render_artifact, write_workspace_artifact, CellReport, ScenarioReport};
pub use runner::{run_matching, run_scenario, RunConfig, RunError};
pub use spec::{Algorithm, Family, Scale, ScenarioSpec};
