//! The matrix runner: expands a [`ScenarioSpec`] into cells and executes
//! each one through the thread-parallel CONGEST simulator.
//!
//! A cell is one point of `sizes × weights × loss × seeds`. Every cell is
//! deterministic: its RNG seed is derived ([`cell_seed`]) from the
//! scenario name and the cell coordinates — never from global state — and
//! the simulator's parallel runner is bit-identical to the sequential one,
//! so the produced [`ScenarioReport`] (and therefore
//! `BENCH_scenarios.json`) is byte-identical at any thread count.

use arbodom_congest::{LossModel, RunOptions};
use arbodom_core::verify;
use arbodom_graph::digest::edge_digest;
use arbodom_graph::orientation;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::quality;
use crate::report::{CellReport, ScenarioReport};
use crate::spec::{Built, Scale, ScenarioSpec};

/// Options of a matrix run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Quick or full size sweeps.
    pub scale: Scale,
    /// Worker threads for the CONGEST simulator (results are identical at
    /// any value; wall clock is not).
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: Scale::Quick,
            threads: 4,
        }
    }
}

/// Errors surfaced by the matrix runner.
#[derive(Debug)]
pub enum RunError {
    /// A generator rejected its parameters.
    Graph(arbodom_graph::GraphError),
    /// An algorithm or the simulator failed.
    Core(arbodom_core::CoreError),
    /// A filter matched zero scenarios. Surfaced as a hard error so no
    /// caller can run an empty matrix and silently clobber the report
    /// artifact with an empty-but-valid document.
    NoMatch(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Graph(e) => write!(f, "graph generation failed: {e}"),
            RunError::Core(e) => write!(f, "algorithm run failed: {e}"),
            RunError::NoMatch(filter) => write!(f, "no scenarios matched `{filter}`"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<arbodom_graph::GraphError> for RunError {
    fn from(e: arbodom_graph::GraphError) -> Self {
        RunError::Graph(e)
    }
}

impl From<arbodom_core::CoreError> for RunError {
    fn from(e: arbodom_core::CoreError) -> Self {
        RunError::Core(e)
    }
}

/// SplitMix64 — the scenario engine's seed derivation. Shared with the
/// churn runner ([`crate::churn`]) so every seed in the engine comes
/// from the same chain construction.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a scenario name.
pub(crate) fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The deterministic seed of one cell, derived from the scenario name and
/// the cell coordinates. Exposed so experiments can rebuild the exact
/// instance a report row came from.
pub fn cell_seed(
    spec: &ScenarioSpec,
    size_idx: usize,
    weight_idx: usize,
    loss_idx: usize,
    seed_idx: u64,
) -> u64 {
    let mut z = name_hash(spec.name);
    for part in [
        size_idx as u64,
        weight_idx as u64,
        loss_idx as u64,
        seed_idx,
    ] {
        z = splitmix64(z ^ part);
    }
    z
}

/// Rebuilds the instance of one cell — graph, weights, planted set —
/// exactly as the runner sees it. Experiments use this to run *other*
/// algorithms (baselines, centralized cross-checks) on the same instance;
/// [`CellReport::graph_digest`] certifies the rebuild matched.
///
/// # Errors
///
/// Propagates generator parameter validation.
pub fn cell_instance(
    spec: &ScenarioSpec,
    n: usize,
    size_idx: usize,
    weight_idx: usize,
    loss_idx: usize,
    seed_idx: u64,
) -> Result<Built, RunError> {
    let seed = cell_seed(spec, size_idx, weight_idx, loss_idx, seed_idx);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut built = spec.family.build(n, &mut rng)?;
    built.graph = spec.weights[weight_idx].assign(&built.graph, &mut rng);
    Ok(built)
}

/// Runs every cell of one scenario and assembles its report.
///
/// # Errors
///
/// Returns the first cell failure; cells before it are discarded (a
/// scenario report is all-or-nothing so the artifact never contains
/// partially-run scenarios).
pub fn run_scenario(spec: &ScenarioSpec, cfg: &RunConfig) -> Result<ScenarioReport, RunError> {
    let mut cells = Vec::with_capacity(spec.cell_count(cfg.scale));
    for (size_idx, &n) in spec.sizes(cfg.scale).iter().enumerate() {
        for weight_idx in 0..spec.weights.len() {
            for (loss_idx, &drop_p) in spec.loss.iter().enumerate() {
                for seed_idx in 0..spec.seeds {
                    cells.push(run_cell(
                        spec, cfg, n, size_idx, weight_idx, loss_idx, seed_idx, drop_p,
                    )?);
                }
            }
        }
    }
    Ok(ScenarioReport::new(spec, cells))
}

/// Runs only the **anchor cell** of a scenario — first size, first weight
/// model, first loss level, seed 0. Experiments that need one
/// representative instance (e.g. to run baselines against) use this
/// instead of paying for the whole matrix.
///
/// # Errors
///
/// Propagates generation and simulation errors.
pub fn run_first_cell(spec: &ScenarioSpec, cfg: &RunConfig) -> Result<CellReport, RunError> {
    let n = spec.sizes(cfg.scale)[0];
    run_cell(spec, cfg, n, 0, 0, 0, 0, spec.loss[0])
}

/// Runs every registered scenario matching `filter`; `progress` is called
/// with each scenario's name before it runs (the CLI prints, tests pass a
/// no-op).
///
/// # Errors
///
/// Returns [`RunError::NoMatch`] when `filter` selects zero scenarios
/// (an empty matrix must never silently produce an empty artifact), and
/// otherwise the first scenario failure.
pub fn run_matching(
    specs: &[ScenarioSpec],
    filter: &str,
    cfg: &RunConfig,
    mut progress: impl FnMut(&ScenarioSpec),
) -> Result<Vec<ScenarioReport>, RunError> {
    let mut reports = Vec::new();
    for spec in specs.iter().filter(|s| s.matches(filter)) {
        progress(spec);
        reports.push(run_scenario(spec, cfg)?);
    }
    if reports.is_empty() {
        return Err(RunError::NoMatch(filter.to_string()));
    }
    Ok(reports)
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    spec: &ScenarioSpec,
    cfg: &RunConfig,
    n: usize,
    size_idx: usize,
    weight_idx: usize,
    loss_idx: usize,
    seed_idx: u64,
    drop_p: f64,
) -> Result<CellReport, RunError> {
    let seed = cell_seed(spec, size_idx, weight_idx, loss_idx, seed_idx);
    let built = cell_instance(spec, n, size_idx, weight_idx, loss_idx, seed_idx)?;
    let g = &built.graph;
    // Families without a constructive arboricity bound run with the
    // measured degeneracy (a valid α upper bound: arboricity ≤ degeneracy).
    let alpha = spec
        .family
        .alpha_bound()
        .unwrap_or_else(|| orientation::degeneracy(g).max(1));
    let opts = RunOptions {
        meter: spec.meter,
        loss: (drop_p > 0.0).then_some(LossModel {
            drop_probability: drop_p,
            seed,
        }),
        ..RunOptions::default()
    };
    let (sol, telemetry) = spec.algorithm.execute(g, alpha, seed, &opts, cfg.threads)?;
    let undominated = verify::undominated_nodes(g, &sol.in_ds).len();
    let valid = undominated == 0;
    let guarantee = spec.algorithm.guarantee(alpha, g.max_degree());
    // `flagged` is an *accounting* alarm, not a measurement: cells with
    // injected loss are expected to degrade (invalid outputs, bounds
    // exceeded) — that degradation is the scenario's data, recorded in
    // `valid`/`undominated`/`ratio`, and must not trip the alarm.
    let quality = quality::account(
        g,
        &sol,
        built.planted.as_deref(),
        guarantee,
        valid,
        drop_p > 0.0,
    );
    let round_budget = spec.algorithm.round_budget(alpha, g.max_degree());
    Ok(CellReport {
        n: g.n(),
        m: g.m(),
        max_degree: g.max_degree(),
        alpha,
        weights: spec.weights[weight_idx].label().to_string(),
        drop_p,
        seed_idx,
        cell_seed: seed,
        graph_digest: edge_digest(g),
        ds_size: sol.size,
        ds_weight: sol.weight,
        valid,
        undominated,
        reference: quality.reference,
        opt_estimate: quality.opt_estimate,
        ratio: quality.ratio,
        guarantee: quality.guarantee,
        within_guarantee: quality.within_guarantee,
        flagged: quality.flagged,
        rounds: telemetry.rounds,
        round_budget,
        within_round_budget: drop_p > 0.0 || telemetry.rounds <= round_budget,
        messages: telemetry.total_messages,
        total_bits: telemetry.total_bits,
        max_message_bits: telemetry.max_message_bits,
        budget_violations: telemetry.budget_violations,
        dropped_messages: telemetry.dropped_messages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn zero_match_filter_is_a_hard_error() {
        let specs = registry();
        let err = run_matching(
            &specs,
            "no-such-scenario-xyz",
            &RunConfig::default(),
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, RunError::NoMatch(_)), "{err:?}");
        assert!(err.to_string().contains("no scenarios matched"), "{err}");
        // An empty registry is an empty matrix too, whatever the filter.
        assert!(matches!(
            run_matching(&[], "", &RunConfig::default(), |_| {}),
            Err(RunError::NoMatch(_))
        ));
    }
}
