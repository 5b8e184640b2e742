//! The churn scenario family: dynamic-graph experiments over the
//! mutation API.
//!
//! A churn scenario starts from a solved instance and drives it through a
//! deterministic stream of [`GraphDelta`] batches — an **update-rate
//! sweep** (fraction of edges mutated per batch) × a **batch-count
//! sweep** × the two maintenance **policies**:
//!
//! * [`ChurnPolicy::Repair`] — [`Maintainer`] keeps the set valid by
//!   local repair (Theorem 1.1's completion rule around the touched
//!   vertices), falling back to a certified full re-solve only when the
//!   drift estimate exceeds the spec's bound;
//! * [`ChurnPolicy::Resolve`] — a full re-solve after *every* batch, the
//!   from-scratch baseline repair is measured against.
//!
//! Every batch runs the equivalence harness: the maintained set is
//! checked valid, and its weight is compared against a **fresh certified
//! re-solve** of the mutated graph — the *measured* drift, recorded per
//! batch in the `churn` block of `BENCH_scenarios.json` next to the
//! maintainer's own estimate. Cost is recorded as simulation rounds:
//! repaired batches cost zero rounds (repair is a local scan), re-solved
//! batches pay the full CONGEST schedule.
//!
//! Determinism matches the static matrix: a cell's seed is derived from
//! the spec name and the cell coordinates ([`churn_cell_seed`]), each
//! batch's delta from the cell seed and the batch index
//! ([`churn_delta`]), so the whole block is byte-identical at any thread
//! count, and the final [`chain digest`](arbodom_graph::digest::chain_digest)
//! pins the exact mutation history a row came from.

use std::cell::Cell;

use arbodom_congest::RunOptions;
use arbodom_core::repair::{Maintainer, RepairConfig};
use arbodom_core::verify;
use arbodom_graph::digest::{chain_digest, edge_digest};
use arbodom_graph::{orientation, Graph, GraphDelta, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::json::{JsonArr, JsonObj};
use crate::runner::{name_hash, splitmix64, RunConfig, RunError};
use crate::spec::{Algorithm, Family, Scale};

/// How a churn cell maintains its dominating set between batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnPolicy {
    /// Incremental local repair with certified fallback (the tentpole).
    Repair,
    /// Full re-solve after every batch (the baseline).
    Resolve,
}

/// Both policies, in the order cells are expanded.
pub const POLICIES: [ChurnPolicy; 2] = [ChurnPolicy::Repair, ChurnPolicy::Resolve];

impl ChurnPolicy {
    /// Stable label used in JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            ChurnPolicy::Repair => "repair",
            ChurnPolicy::Resolve => "resolve",
        }
    }
}

/// A named churn experiment: one dynamic instance family and its sweep
/// axes. The declarative sibling of [`crate::spec::ScenarioSpec`] for
/// mutating graphs.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSpec {
    /// Unique scenario name (`list`/`run` address it by this).
    pub name: &'static str,
    /// One-line description shown by `scenarios list`.
    pub title: &'static str,
    /// Filter tags (shared filter semantics with the static matrix).
    pub tags: &'static [&'static str],
    /// The base-graph family.
    pub family: Family,
    /// Base-graph size at quick scale.
    pub quick_size: usize,
    /// Base-graph size at full scale.
    pub full_size: usize,
    /// Update-rate sweep: fraction of current edges mutated per batch
    /// (half deleted, half inserted).
    pub rates: &'static [f64],
    /// Batch-count sweep at quick scale.
    pub quick_batches: &'static [usize],
    /// Batch-count sweep at full scale.
    pub full_batches: &'static [usize],
    /// Number of seed replicas per point.
    pub seeds: u64,
    /// The algorithm used for the initial solve, the fallback, and the
    /// per-batch certified reference.
    pub algorithm: Algorithm,
    /// Drift bound handed to [`RepairConfig::max_drift`] for the repair
    /// policy.
    pub max_drift: f64,
}

impl ChurnSpec {
    /// Base-graph size at the given scale.
    pub fn size(&self, scale: Scale) -> usize {
        match scale {
            Scale::Quick => self.quick_size,
            Scale::Full => self.full_size,
        }
    }

    /// Batch-count sweep at the given scale.
    pub fn batches(&self, scale: Scale) -> &'static [usize] {
        match scale {
            Scale::Quick => self.quick_batches,
            Scale::Full => self.full_batches,
        }
    }

    /// Number of churn cells at the given scale
    /// (rates × batch counts × policies × seeds).
    pub fn cell_count(&self, scale: Scale) -> usize {
        self.rates.len() * self.batches(scale).len() * POLICIES.len() * self.seeds as usize
    }

    /// Same filter semantics as the static matrix: empty matches
    /// everything, otherwise a name substring or an exact tag.
    pub fn matches(&self, filter: &str) -> bool {
        filter.is_empty() || self.name.contains(filter) || self.tags.contains(&filter)
    }
}

/// Every registered churn scenario, in display order.
pub fn churn_registry() -> Vec<ChurnSpec> {
    vec![
        ChurnSpec {
            name: "churn-forest-a2",
            title: "Repair vs re-solve on a churning forest union (α=2)",
            tags: &["churn", "dynamic", "forest-union"],
            family: Family::ForestUnion {
                alpha: 2,
                keep: 1.0,
            },
            quick_size: 180,
            full_size: 1_500,
            rates: &[0.01, 0.05],
            quick_batches: &[4],
            full_batches: &[8, 16],
            seeds: 1,
            algorithm: Algorithm::Weighted { eps: 0.2 },
            max_drift: 0.25,
        },
        ChurnSpec {
            name: "churn-planar",
            title: "Repair vs re-solve on a churning random planar graph",
            tags: &["churn", "dynamic", "new-family"],
            family: Family::RandomPlanar { diag_p: 0.5 },
            quick_size: 180,
            full_size: 1_500,
            rates: &[0.02],
            quick_batches: &[4],
            full_batches: &[12],
            seeds: 2,
            algorithm: Algorithm::Weighted { eps: 0.3 },
            max_drift: 0.20,
        },
    ]
}

/// The deterministic seed of one churn cell, derived from the spec name
/// and the cell coordinates — the churn analogue of
/// [`crate::runner::cell_seed`]. The **policy is deliberately not a
/// coordinate**: the repair and resolve cells of one sweep point share
/// the same base graph and the same churn stream, so their trajectories
/// are directly comparable (and their final chain digests equal).
pub fn churn_cell_seed(
    spec: &ChurnSpec,
    rate_idx: usize,
    batches_idx: usize,
    seed_idx: u64,
) -> u64 {
    let mut z = name_hash(spec.name);
    for part in [rate_idx as u64, batches_idx as u64, seed_idx] {
        z = splitmix64(z ^ part);
    }
    z
}

/// The seed of one batch within a cell's churn stream.
fn batch_seed(cell_seed: u64, batch: usize) -> u64 {
    splitmix64(cell_seed ^ (batch as u64 + 1))
}

/// Generates one deterministic churn batch against `g`: `k` deletions
/// sampled from the present edges and `k` insertions sampled from the
/// absent pairs (both via a SplitMix64 stream from `seed`). Deletions
/// and insertions cannot collide — one samples present edges, the other
/// absent pairs — so the delta is always accepted by [`GraphDelta::new`].
///
/// # Panics
///
/// Panics when `g` has fewer than two nodes (no absent pair to insert).
pub fn churn_delta(g: &Graph, seed: u64, k: usize) -> GraphDelta {
    assert!(g.n() >= 2, "churn needs at least two nodes");
    let mut state = seed;
    let mut next = move || {
        state = splitmix64(state);
        state
    };
    let edges: Vec<_> = g.edges().collect();
    let mut deletes = Vec::new();
    for _ in 0..k.min(edges.len()) {
        let (u, v) = edges[(next() % edges.len() as u64) as usize];
        deletes.push((u.get(), v.get()));
    }
    let mut inserts: Vec<(u32, u32)> = Vec::new();
    // Rejection-sample absent pairs; sparse graphs accept almost every
    // draw, and the attempt cap keeps dense corner cases from spinning.
    let mut attempts = 0usize;
    while inserts.len() < k && attempts < 64 * (k + 1) {
        attempts += 1;
        let u = (next() % g.n() as u64) as u32;
        let v = (next() % g.n() as u64) as u32;
        if u != v && !g.has_edge(NodeId::new(u), NodeId::new(v)) {
            inserts.push((u, v));
        }
    }
    GraphDelta::new(inserts, deletes).expect("sampled delta is canonical by construction")
}

/// A cell's churn stream *without executing any solver*: the base graph
/// and every batch delta, in order. Each batch is sampled against the
/// graph the batches before it produced, exactly as [`run_churn_cell`]
/// samples it, so both policies of a sweep point replay this stream.
///
/// # Errors
///
/// Propagates generation errors; delta application cannot fail because
/// each batch is sampled against the graph it applies to.
pub fn churn_stream(
    spec: &ChurnSpec,
    scale: Scale,
    rate_idx: usize,
    batches_idx: usize,
    seed_idx: u64,
) -> Result<(Graph, Vec<GraphDelta>), RunError> {
    let cell_seed = churn_cell_seed(spec, rate_idx, batches_idx, seed_idx);
    let mut rng = StdRng::seed_from_u64(cell_seed);
    let base = spec.family.build(spec.size(scale), &mut rng)?.graph;
    let batches = spec.batches(scale)[batches_idx];
    let mut deltas = Vec::with_capacity(batches);
    let mut g = base.clone();
    for batch in 0..batches {
        let k = batch_k(&g, spec.rates[rate_idx]);
        let delta = churn_delta(&g, batch_seed(cell_seed, batch), k);
        g = delta.apply(&g).map_err(arbodom_core::CoreError::from)?;
        deltas.push(delta);
    }
    Ok((base, deltas))
}

/// The chain digest of a cell's full churn stream ([`churn_stream`]): the
/// base graph's digest folded with every batch delta in order. This is
/// the seed-stability pin for dynamic instances — the churn analogue of
/// the generator digest pins in `arbodom-graph`.
///
/// # Errors
///
/// Propagates generation errors.
pub fn stream_digest(
    spec: &ChurnSpec,
    scale: Scale,
    rate_idx: usize,
    batches_idx: usize,
    seed_idx: u64,
) -> Result<u64, RunError> {
    let (base, deltas) = churn_stream(spec, scale, rate_idx, batches_idx, seed_idx)?;
    Ok(deltas.iter().fold(edge_digest(&base), chain_digest))
}

/// Mutations per batch at the given rate: `max(1, round(m · rate))` each
/// of deletions and insertions.
fn batch_k(g: &Graph, rate: f64) -> usize {
    ((g.m() as f64 * rate).round() as usize).max(1)
}

/// The measured outcome of one churn batch.
#[derive(Clone, Debug)]
pub struct ChurnBatchReport {
    /// Batch index within the stream.
    pub batch: usize,
    /// Edges inserted by this batch.
    pub inserts: usize,
    /// Edges deleted by this batch.
    pub deletes: usize,
    /// `true` when local repair was kept; `false` when this batch paid
    /// for a full re-solve (always `false` under [`ChurnPolicy::Resolve`]).
    pub repaired: bool,
    /// Nodes the local repair added.
    pub added: usize,
    /// Nodes the local shrink pass retired as redundant.
    pub removed: usize,
    /// Touched vertices that had lost domination before the repair.
    pub undominated_before: usize,
    /// Maintained set weight after the batch.
    pub weight: u64,
    /// The maintainer's own drift estimate (weight over last-solve anchor).
    pub drift_estimate: f64,
    /// Weight of a fresh certified re-solve of the mutated graph.
    pub reference_weight: u64,
    /// **Measured** drift: `weight / reference_weight`.
    pub measured_drift: f64,
    /// Whether the maintained set dominates the mutated graph.
    pub valid: bool,
    /// Simulation rounds this batch cost (0 for repaired batches).
    pub rounds: usize,
    /// Chain digest of the mutation history after this batch.
    pub chain: u64,
}

impl ChurnBatchReport {
    fn to_json(&self) -> String {
        JsonObj::new()
            .int("batch", self.batch)
            .int("inserts", self.inserts)
            .int("deletes", self.deletes)
            .bool("repaired", self.repaired)
            .int("added", self.added)
            .int("removed", self.removed)
            .int("undominated_before", self.undominated_before)
            .u64("weight", self.weight)
            .num("drift_estimate", self.drift_estimate)
            .u64("reference_weight", self.reference_weight)
            .num("measured_drift", self.measured_drift)
            .bool("valid", self.valid)
            .int("rounds", self.rounds)
            .str("chain", &format!("{:#018x}", self.chain))
            .render()
    }
}

/// The measured outcome of one churn cell: a full stream of batches
/// under one policy.
#[derive(Clone, Debug)]
pub struct ChurnCellReport {
    /// Nodes in the base graph.
    pub n: usize,
    /// Edges in the base graph (before any churn).
    pub m0: usize,
    /// Update rate (fraction of edges mutated per batch).
    pub rate: f64,
    /// Number of batches in the stream.
    pub batches: usize,
    /// Maintenance policy of this cell.
    pub policy: ChurnPolicy,
    /// Seed replica index within the scenario.
    pub seed_idx: u64,
    /// The derived deterministic seed of this cell.
    pub cell_seed: u64,
    /// [`edge_digest`] of the base graph.
    pub base_digest: u64,
    /// Chain digest of the full mutation history.
    pub final_chain: u64,
    /// [`edge_digest`] of the final mutated graph.
    pub final_digest: u64,
    /// Weight of the initial solve.
    pub initial_weight: u64,
    /// Maintained weight after the last batch.
    pub final_weight: u64,
    /// Rounds of the initial solve (paid by both policies).
    pub initial_rounds: usize,
    /// Total rounds the policy paid across all batches (excludes the
    /// initial solve and the per-batch reference solves).
    pub total_rounds: usize,
    /// Batches that fell back to (or mandated) a full re-solve.
    pub resolves: usize,
    /// Largest measured drift over the stream.
    pub max_measured_drift: f64,
    /// Whether every batch left a valid dominating set.
    pub all_valid: bool,
    /// Harness alarm: raised when any batch left an invalid set.
    pub flagged: bool,
    /// Per-batch outcomes, in stream order.
    pub batch_reports: Vec<ChurnBatchReport>,
}

impl ChurnCellReport {
    fn to_json(&self) -> String {
        JsonObj::new()
            .int("n", self.n)
            .int("m0", self.m0)
            .num("rate", self.rate)
            .int("batches", self.batches)
            .str("policy", self.policy.label())
            .u64("seed_idx", self.seed_idx)
            .str("cell_seed", &format!("{:#018x}", self.cell_seed))
            .str("base_digest", &format!("{:#018x}", self.base_digest))
            .str("final_chain", &format!("{:#018x}", self.final_chain))
            .str("final_digest", &format!("{:#018x}", self.final_digest))
            .u64("initial_weight", self.initial_weight)
            .u64("final_weight", self.final_weight)
            .int("initial_rounds", self.initial_rounds)
            .int("total_rounds", self.total_rounds)
            .int("resolves", self.resolves)
            .num("max_measured_drift", self.max_measured_drift)
            .bool("all_valid", self.all_valid)
            .bool("flagged", self.flagged)
            .raw(
                "batch_reports",
                JsonArr::from_raw(self.batch_reports.iter().map(|b| b.to_json())).render(),
            )
            .render()
    }
}

/// One churn scenario's identity plus all its cell outcomes.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// Scenario name (registry key).
    pub name: String,
    /// One-line description.
    pub title: String,
    /// Filter tags.
    pub tags: Vec<String>,
    /// Family label with parameters.
    pub family: String,
    /// Algorithm label with parameters.
    pub algorithm: String,
    /// Drift bound of the repair policy.
    pub max_drift: f64,
    /// All cell outcomes, in sweep order.
    pub cells: Vec<ChurnCellReport>,
}

impl ChurnReport {
    /// Number of cells whose harness raised the alarm.
    pub fn flagged_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.flagged).count()
    }

    pub(crate) fn to_json(&self) -> String {
        JsonObj::new()
            .str("name", &self.name)
            .str("title", &self.title)
            .raw(
                "tags",
                JsonArr::from_raw(
                    self.tags
                        .iter()
                        .map(|t| format!("\"{}\"", crate::json::escape(t))),
                )
                .render(),
            )
            .str("family", &self.family)
            .str("algorithm", &self.algorithm)
            .num("max_drift", self.max_drift)
            .int("flagged_cells", self.flagged_cells())
            .raw(
                "cells",
                JsonArr::from_raw(self.cells.iter().map(|c| c.to_json())).render(),
            )
            .render()
    }
}

/// α for a (possibly mutated) graph: churn can push a family past its
/// constructive arboricity bound, so every solve over a mutated graph is
/// parameterized with the measured degeneracy — always a valid upper
/// bound on arboricity.
fn alpha_for(g: &Graph) -> usize {
    orientation::degeneracy(g).max(1)
}

/// Runs one churn cell: initial solve, then the full batch stream under
/// the cell's policy, with the equivalence harness (validity check +
/// certified reference re-solve) after every batch.
///
/// # Errors
///
/// Propagates generation and simulation errors; a delta conflict is a
/// bug in the stream generator and surfaces as [`RunError::Core`].
pub fn run_churn_cell(
    spec: &ChurnSpec,
    cfg: &RunConfig,
    rate_idx: usize,
    batches_idx: usize,
    policy: ChurnPolicy,
    seed_idx: u64,
) -> Result<ChurnCellReport, RunError> {
    let cell_seed = churn_cell_seed(spec, rate_idx, batches_idx, seed_idx);
    let rate = spec.rates[rate_idx];
    let batch_count = spec.batches(cfg.scale)[batches_idx];
    let mut rng = StdRng::seed_from_u64(cell_seed);
    let g = spec.family.build(spec.size(cfg.scale), &mut rng)?.graph;
    let (n, m0) = (g.n(), g.m());
    let opts = RunOptions::default();

    let (sol, telemetry) =
        spec.algorithm
            .execute(&g, alpha_for(&g), cell_seed, &opts, cfg.threads)?;
    let initial_weight = sol.weight;
    let initial_rounds = telemetry.rounds;
    let repair_cfg = RepairConfig {
        max_drift: spec.max_drift,
        // The resolve policy is "re-solve after every batch": a batch
        // budget of 1 makes the maintainer take the certified fallback
        // unconditionally.
        max_batches: match policy {
            ChurnPolicy::Repair => 0,
            ChurnPolicy::Resolve => 1,
        },
    };
    let mut state = Maintainer::new(g, &sol, repair_cfg);
    let base_digest = state.digest();

    let mut batch_reports = Vec::with_capacity(batch_count);
    let (mut total_rounds, mut resolves) = (0usize, 0usize);
    let mut max_measured_drift = 0.0f64;
    let mut all_valid = true;
    for batch in 0..batch_count {
        let seed = batch_seed(cell_seed, batch);
        let k = batch_k(state.graph(), rate);
        let delta = churn_delta(state.graph(), seed, k);
        let (inserts, deletes) = (delta.inserts().len(), delta.deletes().len());
        let rounds_spent = Cell::new(0usize);
        let out = state.apply(&delta, |g| {
            let (fresh, tel) = spec
                .algorithm
                .execute(g, alpha_for(g), seed, &opts, cfg.threads)?;
            rounds_spent.set(tel.rounds);
            Ok(fresh)
        })?;
        let valid = verify::is_dominating_set(state.graph(), state.in_ds());
        all_valid &= valid;
        // The equivalence harness: a fresh certified solve of the same
        // mutated graph, *outside* the policy's cost accounting.
        let (reference, _) = spec.algorithm.execute(
            state.graph(),
            alpha_for(state.graph()),
            splitmix64(seed),
            &opts,
            cfg.threads,
        )?;
        let measured_drift = out.weight as f64 / reference.weight.max(1) as f64;
        max_measured_drift = max_measured_drift.max(measured_drift);
        total_rounds += rounds_spent.get();
        resolves += usize::from(!out.repaired);
        batch_reports.push(ChurnBatchReport {
            batch,
            inserts,
            deletes,
            repaired: out.repaired,
            added: out.added.len(),
            removed: out.removed.len(),
            undominated_before: out.undominated_before,
            weight: out.weight,
            drift_estimate: out.drift_estimate,
            reference_weight: reference.weight,
            measured_drift,
            valid,
            rounds: rounds_spent.get(),
            chain: out.chain,
        });
    }
    Ok(ChurnCellReport {
        n,
        m0,
        rate,
        batches: batch_count,
        policy,
        seed_idx,
        cell_seed,
        base_digest,
        final_chain: state.chain(),
        final_digest: state.digest(),
        initial_weight,
        final_weight: state.weight(),
        initial_rounds,
        total_rounds,
        resolves,
        max_measured_drift,
        all_valid,
        flagged: !all_valid,
        batch_reports,
    })
}

/// Runs every cell of one churn scenario and assembles its report.
///
/// # Errors
///
/// Returns the first cell failure (all-or-nothing, like the static
/// matrix).
pub fn run_churn_scenario(spec: &ChurnSpec, cfg: &RunConfig) -> Result<ChurnReport, RunError> {
    let mut cells = Vec::with_capacity(spec.cell_count(cfg.scale));
    for rate_idx in 0..spec.rates.len() {
        for batches_idx in 0..spec.batches(cfg.scale).len() {
            for policy in POLICIES {
                for seed_idx in 0..spec.seeds {
                    cells.push(run_churn_cell(
                        spec,
                        cfg,
                        rate_idx,
                        batches_idx,
                        policy,
                        seed_idx,
                    )?);
                }
            }
        }
    }
    Ok(ChurnReport {
        name: spec.name.to_string(),
        title: spec.title.to_string(),
        tags: spec.tags.iter().map(|t| t.to_string()).collect(),
        family: spec.family.label(),
        algorithm: spec.algorithm.label(),
        max_drift: spec.max_drift,
        cells,
    })
}

/// Runs every registered churn scenario matching `filter`. Unlike
/// [`crate::runner::run_matching`], an empty match returns an empty
/// vector: the CLI combines this with the static matrix and raises
/// `NoMatch` only when *both* sides matched nothing.
///
/// # Errors
///
/// Returns the first scenario failure.
pub fn run_churn_matching(
    specs: &[ChurnSpec],
    filter: &str,
    cfg: &RunConfig,
    mut progress: impl FnMut(&ChurnSpec),
) -> Result<Vec<ChurnReport>, RunError> {
    let mut reports = Vec::new();
    for spec in specs.iter().filter(|s| s.matches(filter)) {
        progress(spec);
        reports.push(run_churn_scenario(spec, cfg)?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbodom_graph::digest::fnv_edge_digest;

    fn quick(threads: usize) -> RunConfig {
        RunConfig {
            scale: Scale::Quick,
            threads,
        }
    }

    #[test]
    fn registry_names_are_unique_and_cells_nonzero() {
        let specs = churn_registry();
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate churn scenario names");
        for s in &specs {
            assert!(s.cell_count(Scale::Quick) > 0, "{}", s.name);
            assert!(s.cell_count(Scale::Full) > 0, "{}", s.name);
            assert!(s.matches("churn"), "{}: every spec carries the tag", s.name);
        }
    }

    #[test]
    fn churn_stream_is_seed_stable() {
        // The digest pin for dynamic instances: regenerating the exact
        // churn stream of a registry cell must reproduce this chain, on
        // any platform, forever. If this test breaks, generated dynamic
        // workloads changed and every recorded churn artifact is stale.
        let specs = churn_registry();
        let spec = &specs[0];
        assert_eq!(spec.name, "churn-forest-a2");
        let chain = stream_digest(spec, Scale::Quick, 0, 0, 0).unwrap();
        let again = stream_digest(spec, Scale::Quick, 0, 0, 0).unwrap();
        assert_eq!(chain, again, "stream generation must be deterministic");
        assert_eq!(
            chain, CHURN_FOREST_A2_QUICK_CHAIN,
            "churn-forest-a2 quick stream drifted: {chain:#018x}"
        );
        // The pin moved once, when `edge_digest` became an additive hash.
        // Folded from the FNV base digest the pins are stated in, the same
        // stream still gives the chain pinned before, so the stream itself
        // did not move.
        let (base, deltas) = churn_stream(spec, Scale::Quick, 0, 0, 0).unwrap();
        let fnv_chain = deltas.iter().fold(fnv_edge_digest(&base), chain_digest);
        assert_eq!(
            fnv_chain, CHURN_FOREST_A2_QUICK_FNV_CHAIN,
            "churn-forest-a2 quick stream drifted: {fnv_chain:#018x} from the FNV base"
        );
    }

    /// Pinned by `churn_stream_is_seed_stable`.
    const CHURN_FOREST_A2_QUICK_CHAIN: u64 = 0x001b_cc70_b97a_8b05;

    /// The same stream's chain from the FNV base digest: the value the pin
    /// held while `edge_digest` was FNV-1a.
    const CHURN_FOREST_A2_QUICK_FNV_CHAIN: u64 = 0x26e7_c0ff_d505_40c4;

    #[test]
    fn deltas_are_valid_against_their_graph() {
        let specs = churn_registry();
        let spec = &specs[0];
        let cell_seed = churn_cell_seed(spec, 0, 0, 0);
        let mut rng = StdRng::seed_from_u64(cell_seed);
        let mut g = spec.family.build(spec.quick_size, &mut rng).unwrap().graph;
        for batch in 0..6 {
            let k = batch_k(&g, 0.05);
            let delta = churn_delta(&g, batch_seed(cell_seed, batch), k);
            assert!(!delta.is_empty());
            assert!(delta.deletes().len() <= k && delta.inserts().len() <= k);
            // Strict semantics: sampled deltas never conflict.
            g = delta.apply(&g).expect("sampled delta applies cleanly");
        }
    }

    #[test]
    fn repair_cell_is_valid_and_cheaper_than_resolve() {
        let specs = churn_registry();
        let spec = &specs[0];
        let repair = run_churn_cell(spec, &quick(1), 0, 0, ChurnPolicy::Repair, 0).unwrap();
        let resolve = run_churn_cell(spec, &quick(1), 0, 0, ChurnPolicy::Resolve, 0).unwrap();
        assert!(repair.all_valid && !repair.flagged);
        assert!(resolve.all_valid && !resolve.flagged);
        // The resolve policy re-solves every batch by construction…
        assert_eq!(resolve.resolves, resolve.batches);
        // …so repair must cost strictly fewer simulation rounds.
        assert!(
            repair.total_rounds < resolve.total_rounds,
            "repair {} rounds vs resolve {}",
            repair.total_rounds,
            resolve.total_rounds
        );
        // Deterministic algorithm: a resolve-policy batch equals its own
        // reference solve, so measured drift is exactly 1.
        for b in &resolve.batch_reports {
            assert!(
                (b.measured_drift - 1.0).abs() < 1e-12,
                "batch {}: drift {}",
                b.batch,
                b.measured_drift
            );
        }
        // The repair policy tracks the reference within the spec's
        // anchor-relative bound (the equivalence harness, in CI).
        for b in &repair.batch_reports {
            assert!(b.valid);
            assert!(
                b.measured_drift <= (1.0 + spec.max_drift) * 1.5,
                "batch {}: measured drift {} out of bounds",
                b.batch,
                b.measured_drift
            );
        }
        // Same stream on both policies: identical mutation history.
        assert_eq!(repair.final_chain, resolve.final_chain);
        assert_eq!(repair.final_digest, resolve.final_digest);
    }

    #[test]
    fn churn_cells_are_thread_count_independent() {
        let specs = churn_registry();
        let spec = &specs[1];
        let a = run_churn_cell(spec, &quick(1), 0, 0, ChurnPolicy::Repair, 1).unwrap();
        let b = run_churn_cell(spec, &quick(3), 0, 0, ChurnPolicy::Repair, 1).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "threads changed a churn cell");
    }
}
