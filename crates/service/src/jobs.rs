//! Job execution: resolve a [`GraphSource`] to a (cached) instance, run
//! the requested algorithm through the thread-parallel CONGEST runner,
//! and account the result with the scenario engine's quality machinery.
//!
//! Everything here is deterministic: instances are rebuilt from seeds
//! (or shipped inline), algorithm runs are seeded, and the quality
//! accounting is pure — so a job's [`JobResult`] is a function of its
//! [`JobSpec`] and the server's scale, independent of worker count,
//! scheduling order, and cache state. The cache changes *when* a result
//! is computed, never *what* it is.

use std::sync::{Arc, Mutex};

use arbodom_congest::{LossModel, MeterMode, RunOptions, SimObs};
use arbodom_core::{verify, DsResult};
use arbodom_graph::digest::edge_digest;
use arbodom_graph::weights::WeightModel;
use arbodom_graph::{orientation, GraphBuilder, NodeId};
use arbodom_obs::Stopwatch;
use arbodom_scenarios::runner::{cell_instance, cell_seed};
use arbodom_scenarios::spec::Built;
use arbodom_scenarios::{find, quality, Algorithm, Scale, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{CachedGraph, GraphCache};
use crate::obs::ServiceObs;
use crate::protocol::{encode_payload, GraphSource, JobResult, JobSpec};
use crate::session::{Session, SessionTable};

/// The algorithm ad-hoc jobs run when the spec does not name one:
/// Theorem 1.1 with ε = 0.2.
pub const DEFAULT_ALGORITHM: Algorithm = Algorithm::Weighted { eps: 0.2 };

/// Hard cap on nodes per job for wire-supplied sources. A ~10-byte
/// `Generator` frame could otherwise request a multi-gigabyte build —
/// the frame-size limit guards the payload, this guards what the payload
/// *describes*. Registered scenario cells are exempt (their sizes come
/// from the trusted registry).
pub const MAX_JOB_NODES: u32 = 1 << 24;

/// Hard cap on `edges-per-node`-shaped generator parameters (`α`,
/// `m_per_node`, `k`, degeneracy cap, …): bounds the edge count of a
/// generated instance at `MAX_JOB_NODES × MAX_DENSITY_PARAM`.
pub const MAX_DENSITY_PARAM: usize = 512;

/// Everything a worker needs to execute jobs. Cheap to clone per job;
/// deliberately does **not** reference the scheduler, so job closures can
/// never keep the worker pool alive transitively.
#[derive(Clone)]
pub struct ExecContext {
    /// The shared graph cache.
    pub cache: Arc<Mutex<GraphCache>>,
    /// The shared session registry (v2 dynamic-graph state).
    pub sessions: Arc<SessionTable>,
    /// Simulator threads handed to [`Algorithm::execute`] per job
    /// (results are identical at any value).
    pub sim_threads: usize,
    /// Scale used to resolve scenario-cell size sweeps.
    pub scale: Scale,
    /// The daemon's always-on request/lifecycle metrics.
    pub obs: ServiceObs,
    /// Simulator phase-timing side channel, threaded into every job's
    /// [`RunOptions`] when the daemon runs with `--sim-obs`. `None`
    /// (the default) keeps the simulator provably instrumentation-free.
    pub sim_obs: Option<SimObs>,
}

/// The cache identity of a source: its wire encoding plus the server
/// scale. Scale participates because a scenario cell's size sweep (and
/// therefore its instance) depends on it. These bytes are stored in the
/// cache and compared on lookup, so the 64-bit [`source_key`] hash can
/// collide without ever serving the wrong graph.
pub fn source_bytes(source: &GraphSource, scale: Scale) -> Vec<u8> {
    let mut bytes = encode_payload(source);
    bytes.extend_from_slice(scale.label().as_bytes());
    bytes
}

/// FNV-1a over [`source_bytes`] — the cache's spec-index key.
pub fn source_key(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Executes one job end to end. Never panics on malformed input: every
/// failure is a job-level error string shipped back in the reply.
///
/// # Errors
///
/// Returns a human-readable message when the source is invalid, the
/// scenario/cell address does not exist, or the simulation fails.
pub fn execute_job(ctx: &ExecContext, spec: &JobSpec) -> Result<JobResult, String> {
    ctx.obs.jobs.inc();
    let outcome = (|| {
        let instance = resolve_instance(ctx, &spec.source)?;
        let run = run_parameters(ctx, spec)?;
        let (result, _) = solve_on(ctx, &instance, &run, spec.return_members)?;
        Ok(result)
    })();
    if outcome.is_err() {
        ctx.obs.job_errors.inc();
    }
    outcome
}

/// Opens a session: resolves and solves the spec like a regular job, then
/// registers the solved instance with the session table so later `Mutate`
/// / `Resolve` / `Release` requests (and `GraphSource::Session` jobs) can
/// address its live state.
///
/// # Errors
///
/// Everything [`execute_job`] can report, plus: the source is itself a
/// session snapshot, the cell is lossy, or the initial solve came back
/// non-dominating — a session's maintained set must start valid.
pub fn open_session(ctx: &ExecContext, spec: &JobSpec) -> Result<(u64, JobResult), String> {
    if matches!(spec.source, GraphSource::Session { .. }) {
        return Err("open: a session cannot be seeded from another session snapshot".into());
    }
    let instance = resolve_instance(ctx, &spec.source)?;
    let run = run_parameters(ctx, spec)?;
    if run.drop_p > 0.0 {
        return Err(
            "open: lossy scenario cells cannot seed a session (the maintained set must start valid)"
                .into(),
        );
    }
    let (result, sol) = solve_on(ctx, &instance, &run, false)?;
    if !result.valid {
        return Err(format!(
            "open: initial solve left {} undominated nodes",
            result.undominated
        ));
    }
    let session = Session::new(
        instance.graph.clone(),
        &sol,
        run.algorithm,
        instance.alpha,
        run.seed,
    );
    Ok((ctx.sessions.insert(session), result))
}

/// The shared solve-and-account core: runs `run` on `instance` and
/// returns both the wire result and the raw solution (sessions keep the
/// latter).
fn solve_on(
    ctx: &ExecContext,
    instance: &CachedGraph,
    run: &RunParameters,
    return_members: bool,
) -> Result<(JobResult, DsResult), String> {
    let g = &instance.graph;
    let opts = RunOptions {
        meter: run.meter,
        loss: (run.drop_p > 0.0).then_some(LossModel {
            drop_probability: run.drop_p,
            seed: run.seed,
        }),
        obs: ctx.sim_obs.clone(),
        ..RunOptions::default()
    };
    let watch = Stopwatch::start();
    let (sol, telemetry) = run
        .algorithm
        .execute(g, instance.alpha, run.seed, &opts, ctx.sim_threads)
        .map_err(|e| format!("algorithm run failed: {e}"))?;
    ctx.obs.solve.observe(watch.elapsed_nanos());
    let undominated = verify::undominated_nodes(g, &sol.in_ds).len();
    let valid = undominated == 0;
    let guarantee = run.algorithm.guarantee(instance.alpha, g.max_degree());
    let account = quality::account(
        g,
        &sol,
        instance.planted.as_deref(),
        guarantee,
        valid,
        run.drop_p > 0.0,
    );
    let members = return_members.then(|| sol.members().iter().map(|v| v.get()).collect());
    let result = JobResult {
        n: g.n() as u64,
        m: g.m() as u64,
        max_degree: g.max_degree() as u64,
        alpha: instance.alpha as u64,
        graph_digest: instance.digest,
        ds_size: sol.size as u64,
        ds_weight: sol.weight,
        valid,
        undominated: undominated as u64,
        reference: account.reference,
        opt_estimate: account.opt_estimate,
        ratio: account.ratio,
        guarantee: account.guarantee,
        within_guarantee: account.within_guarantee,
        flagged: account.flagged,
        rounds: telemetry.rounds as u64,
        round_budget: run.algorithm.round_budget(instance.alpha, g.max_degree()) as u64,
        messages: telemetry.total_messages as u64,
        total_bits: telemetry.total_bits as u64,
        max_message_bits: telemetry.max_message_bits as u64,
        budget_violations: telemetry.budget_violations as u64,
        dropped_messages: telemetry.dropped_messages as u64,
        members,
    };
    Ok((result, sol))
}

/// How one job runs: algorithm, seed, loss, metering.
struct RunParameters {
    algorithm: Algorithm,
    seed: u64,
    drop_p: f64,
    meter: MeterMode,
}

fn run_parameters(ctx: &ExecContext, spec: &JobSpec) -> Result<RunParameters, String> {
    match &spec.source {
        GraphSource::Inline { .. } | GraphSource::Generator { .. } => Ok(RunParameters {
            algorithm: spec.algorithm.unwrap_or(DEFAULT_ALGORITHM),
            seed: spec.seed,
            drop_p: 0.0,
            meter: MeterMode::Measure,
        }),
        GraphSource::ScenarioCell {
            name,
            size_idx,
            weight_idx,
            loss_idx,
            seed_idx,
        } => {
            let scenario = find_scenario(name)?;
            check_cell_bounds(
                &scenario,
                ctx.scale,
                *size_idx,
                *weight_idx,
                *loss_idx,
                *seed_idx,
            )?;
            Ok(RunParameters {
                algorithm: spec.algorithm.unwrap_or(scenario.algorithm),
                seed: cell_seed(
                    &scenario,
                    *size_idx as usize,
                    *weight_idx as usize,
                    *loss_idx as usize,
                    *seed_idx,
                ),
                drop_p: scenario.loss[*loss_idx as usize],
                meter: scenario.meter,
            })
        }
        GraphSource::Session { id } => {
            // Default to the algorithm the session was opened with, so a
            // bare snapshot job reproduces the session's own solve.
            let session = find_session(ctx, *id)?;
            let default = session.lock().expect("session poisoned").algorithm();
            Ok(RunParameters {
                algorithm: spec.algorithm.unwrap_or(default),
                seed: spec.seed,
                drop_p: 0.0,
                meter: MeterMode::Measure,
            })
        }
    }
}

fn find_session(ctx: &ExecContext, id: u64) -> Result<Arc<Mutex<Session>>, String> {
    ctx.sessions.get(id).map_err(|lost| lost.describe(id))
}

fn find_scenario(name: &str) -> Result<ScenarioSpec, String> {
    find(name).ok_or_else(|| format!("unknown scenario `{name}`"))
}

fn check_cell_bounds(
    scenario: &ScenarioSpec,
    scale: Scale,
    size_idx: u32,
    weight_idx: u32,
    loss_idx: u32,
    seed_idx: u64,
) -> Result<(), String> {
    let sizes = scenario.sizes(scale).len();
    let bounds = [
        (size_idx as usize, sizes, "size_idx"),
        (weight_idx as usize, scenario.weights.len(), "weight_idx"),
        (loss_idx as usize, scenario.loss.len(), "loss_idx"),
        (seed_idx as usize, scenario.seeds as usize, "seed_idx"),
    ];
    for (idx, limit, label) in bounds {
        if idx >= limit {
            return Err(format!(
                "{label} {idx} out of range for scenario `{}` (limit {limit})",
                scenario.name
            ));
        }
    }
    Ok(())
}

/// Resolves a source through the cache: lookup under the lock, build
/// outside it (construction can be expensive and must not serialize the
/// pool), insert on completion. Concurrent identical misses may build
/// twice; the insert converges them onto one canonical `Arc`.
///
/// Session snapshots bypass the cache entirely: the graph behind a
/// session id changes with every `Mutate`, so caching by source bytes
/// would serve stale state.
fn resolve_instance(ctx: &ExecContext, source: &GraphSource) -> Result<Arc<CachedGraph>, String> {
    if let GraphSource::Session { id } = source {
        let session = find_session(ctx, *id)?;
        let guard = session.lock().expect("session poisoned");
        let graph = guard.graph_snapshot();
        let alpha = guard.alpha();
        drop(guard);
        let digest = edge_digest(&graph);
        return Ok(Arc::new(CachedGraph {
            graph,
            planted: None,
            alpha,
            digest,
        }));
    }
    let bytes = source_bytes(source, ctx.scale);
    let key = source_key(&bytes);
    let watch = Stopwatch::start();
    let cached = ctx
        .cache
        .lock()
        .expect("cache poisoned")
        .lookup(key, &bytes);
    ctx.obs.cache_lookup.observe(watch.elapsed_nanos());
    if let Some(cached) = cached {
        return Ok(cached);
    }
    let built = build_instance(source, ctx.scale)?;
    Ok(ctx
        .cache
        .lock()
        .expect("cache poisoned")
        .insert(key, bytes, built))
}

/// Validates wire-supplied sizes and generator parameters against the
/// service's resource caps before any allocation happens.
fn check_job_limits(n: u32, family: Option<&arbodom_scenarios::Family>) -> Result<(), String> {
    use arbodom_scenarios::Family;
    if n > MAX_JOB_NODES {
        return Err(format!(
            "n = {n} exceeds the service limit of {MAX_JOB_NODES} nodes per job"
        ));
    }
    let density = match family {
        Some(Family::ForestUnion { alpha, .. }) => Some(("α", *alpha as f64)),
        Some(Family::PrefAttach { m_per_node }) => Some(("m_per_node", *m_per_node as f64)),
        Some(Family::PlantedDs { extra_per_node, .. }) => {
            Some(("extra_per_node", *extra_per_node as f64))
        }
        Some(Family::KTree { k }) => Some(("k", *k as f64)),
        Some(Family::PowerLawCapped { cap, .. }) => Some(("cap", *cap as f64)),
        // avg_degree is a density knob too: Gnp clamps p to 1.0, so a
        // huge value silently requests the complete graph on n nodes.
        Some(Family::Gnp { avg_degree }) | Some(Family::UnitDisk { avg_degree }) => {
            Some(("avg_degree", *avg_degree))
        }
        _ => None,
    };
    if let Some((label, value)) = density {
        if !(0.0..=MAX_DENSITY_PARAM as f64).contains(&value) {
            return Err(format!(
                "{label} = {value} exceeds the service limit of {MAX_DENSITY_PARAM}"
            ));
        }
    }
    Ok(())
}

/// Validates wire-supplied weight models whose `assign` would otherwise
/// panic (the daemon must never die on untrusted input).
fn check_weight_model(weights: &WeightModel) -> Result<(), String> {
    match weights {
        WeightModel::Uniform { lo, hi } if *lo == 0 || lo > hi => Err(format!(
            "generator weights: uniform needs 1 <= lo <= hi, got [{lo}, {hi}]"
        )),
        WeightModel::Exponential { max_exp } if *max_exp > 63 => Err(format!(
            "generator weights: exponential needs max_exp <= 63, got {max_exp}"
        )),
        _ => Ok(()),
    }
}

fn build_instance(source: &GraphSource, scale: Scale) -> Result<CachedGraph, String> {
    match source {
        GraphSource::Inline { n, edges, weights } => {
            check_job_limits(*n, None)?;
            let mut b =
                GraphBuilder::try_new(*n as usize).map_err(|e| format!("inline graph: {e}"))?;
            for &(u, v) in edges {
                b.add_edge_u32(u, v)
                    .map_err(|e| format!("inline graph: {e}"))?;
            }
            let mut graph = b.build();
            if let Some(ws) = weights {
                graph = graph
                    .with_weights(ws.clone())
                    .map_err(|e| format!("inline graph: {e}"))?;
            }
            Ok(finish(graph, None, None))
        }
        GraphSource::Generator {
            family,
            n,
            weights,
            seed,
        } => {
            check_job_limits(*n, Some(family))?;
            check_weight_model(weights)?;
            let mut rng = StdRng::seed_from_u64(*seed);
            let built = family
                .build(*n as usize, &mut rng)
                .map_err(|e| format!("generator: {e}"))?;
            let graph = weights.assign(&built.graph, &mut rng);
            Ok(finish(graph, built.planted, family.alpha_bound()))
        }
        GraphSource::ScenarioCell {
            name,
            size_idx,
            weight_idx,
            loss_idx,
            seed_idx,
        } => {
            let scenario = find_scenario(name)?;
            check_cell_bounds(
                &scenario,
                scale,
                *size_idx,
                *weight_idx,
                *loss_idx,
                *seed_idx,
            )?;
            let n = scenario.sizes(scale)[*size_idx as usize];
            let built: Built = cell_instance(
                &scenario,
                n,
                *size_idx as usize,
                *weight_idx as usize,
                *loss_idx as usize,
                *seed_idx,
            )
            .map_err(|e| format!("scenario cell: {e}"))?;
            Ok(finish(
                built.graph,
                built.planted,
                scenario.family.alpha_bound(),
            ))
        }
        // Session snapshots are materialized (and never cached) in
        // `resolve_instance`; they cannot be "built" from scratch.
        GraphSource::Session { id } => Err(format!("session {id} cannot be rebuilt from a spec")),
    }
}

/// Stamps digest and α (the constructive bound when the family promises
/// one, the measured degeneracy otherwise — the matrix runner's rule).
fn finish(
    graph: arbodom_graph::Graph,
    planted: Option<Vec<NodeId>>,
    alpha_bound: Option<usize>,
) -> CachedGraph {
    let alpha = alpha_bound.unwrap_or_else(|| orientation::degeneracy_order(&graph).1.max(1));
    let digest = edge_digest(&graph);
    CachedGraph {
        graph,
        planted,
        alpha,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbodom_graph::generators;

    fn ctx() -> ExecContext {
        ExecContext {
            cache: Arc::new(Mutex::new(GraphCache::new(64 << 20))),
            sessions: Arc::new(SessionTable::new()),
            sim_threads: 1,
            scale: Scale::Quick,
            obs: ServiceObs::new(&arbodom_obs::Registry::new()),
            sim_obs: None,
        }
    }

    fn inline_path(n: u32) -> GraphSource {
        GraphSource::Inline {
            n,
            edges: (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect(),
            weights: None,
        }
    }

    #[test]
    fn inline_job_solves_and_accounts_quality() {
        let ctx = ctx();
        let mut spec = JobSpec::new(inline_path(30));
        spec.return_members = true;
        let result = execute_job(&ctx, &spec).expect("job runs");
        assert!(result.valid);
        assert!(!result.flagged);
        assert_eq!(result.n, 30);
        assert_eq!(result.alpha, 1);
        let members = result.members.expect("requested members");
        assert_eq!(members.len() as u64, result.ds_size);
        let g = generators::path(30);
        assert_eq!(result.graph_digest, edge_digest(&g));
    }

    #[test]
    fn repeated_source_hits_the_cache_with_identical_results() {
        let ctx = ctx();
        let spec = JobSpec::new(GraphSource::Generator {
            family: arbodom_scenarios::Family::RandomTree,
            n: 80,
            weights: WeightModel::Unit,
            seed: 7,
        });
        let first = execute_job(&ctx, &spec).unwrap();
        let second = execute_job(&ctx, &spec).unwrap();
        assert_eq!(first, second);
        let stats = ctx.cache.lock().unwrap().stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn scenario_cell_matches_the_matrix_runner() {
        // The service must reproduce the exact instance and seed the
        // matrix runner uses for the same cell address.
        let spec = JobSpec::new(GraphSource::ScenarioCell {
            name: "trees-exact".into(),
            size_idx: 0,
            weight_idx: 0,
            loss_idx: 0,
            seed_idx: 0,
        });
        let result = execute_job(&ctx(), &spec).unwrap();
        let scenario = find("trees-exact").unwrap();
        let cell = arbodom_scenarios::runner::run_first_cell(
            &scenario,
            &arbodom_scenarios::RunConfig {
                scale: Scale::Quick,
                threads: 1,
            },
        )
        .unwrap();
        assert_eq!(result.graph_digest, cell.graph_digest);
        assert_eq!(result.ds_weight, cell.ds_weight);
        assert_eq!(result.rounds, cell.rounds as u64);
        assert_eq!(result.ratio, cell.ratio);
        assert!(!result.flagged);
    }

    #[test]
    fn session_jobs_snapshot_live_state() {
        use crate::protocol::{DeltaSpec, SessionPolicy};
        let ctx = ctx();
        let (id, opened) = open_session(&ctx, &JobSpec::new(inline_path(30))).expect("opens");
        assert!(opened.valid);
        // A job addressing the session reproduces the opening solve.
        let snap = execute_job(&ctx, &JobSpec::new(GraphSource::Session { id })).unwrap();
        assert_eq!(snap.graph_digest, opened.graph_digest);
        assert_eq!(snap.ds_weight, opened.ds_weight);
        // Mutating the session changes what later snapshot jobs see.
        let delta = DeltaSpec {
            inserts: vec![(0, 29)],
            deletes: vec![],
        };
        let session = ctx.sessions.get(id).unwrap();
        let (after, stats) = session
            .lock()
            .unwrap()
            .mutate(&delta, SessionPolicy::Repair, 1)
            .expect("mutates");
        assert!(after.valid);
        assert!(
            stats.repaired,
            "a single insert must not trip the drift bound"
        );
        assert_eq!(stats.batches_since_solve, 1);
        let snap2 = execute_job(&ctx, &JobSpec::new(GraphSource::Session { id })).unwrap();
        assert_eq!(snap2.graph_digest, after.graph_digest);
        assert_ne!(snap2.graph_digest, snap.graph_digest);
        assert_eq!(snap2.m, snap.m + 1);
        // Session snapshots never touch the cache.
        assert_eq!(ctx.cache.lock().unwrap().stats().entries, 1);
        // Release makes the id unresolvable.
        assert!(ctx.sessions.remove(id));
        let err = execute_job(&ctx, &JobSpec::new(GraphSource::Session { id })).unwrap_err();
        assert!(err.contains("unknown session"), "{err:?}");
    }

    #[test]
    fn open_rejects_sources_that_cannot_seed_a_session() {
        let ctx = ctx();
        let err = open_session(&ctx, &JobSpec::new(GraphSource::Session { id: 1 })).unwrap_err();
        assert!(err.contains("cannot be seeded"), "{err:?}");
    }

    #[test]
    fn malformed_sources_error_instead_of_panicking() {
        let ctx = ctx();
        for (source, needle) in [
            (
                GraphSource::Inline {
                    n: 2,
                    edges: vec![(0, 5)],
                    weights: None,
                },
                "out of range",
            ),
            (
                GraphSource::Inline {
                    n: 2,
                    edges: vec![(0, 1)],
                    weights: Some(vec![1]),
                },
                "expected 2 weights",
            ),
            (
                GraphSource::Generator {
                    family: arbodom_scenarios::Family::RandomTree,
                    n: 10,
                    weights: WeightModel::Uniform { lo: 0, hi: 5 },
                    seed: 0,
                },
                "uniform",
            ),
            (
                // max_exp >= 64 would overflow `1u64 << e` in assign().
                GraphSource::Generator {
                    family: arbodom_scenarios::Family::RandomTree,
                    n: 10,
                    weights: WeightModel::Exponential { max_exp: 100 },
                    seed: 0,
                },
                "max_exp",
            ),
            (
                // A ~10-byte frame must not trigger a multi-GB build.
                GraphSource::Generator {
                    family: arbodom_scenarios::Family::RandomTree,
                    n: u32::MAX,
                    weights: WeightModel::Unit,
                    seed: 0,
                },
                "service limit",
            ),
            (
                GraphSource::Inline {
                    n: u32::MAX,
                    edges: vec![],
                    weights: None,
                },
                "service limit",
            ),
            (
                GraphSource::Generator {
                    family: arbodom_scenarios::Family::PrefAttach {
                        m_per_node: 100_000,
                    },
                    n: 1000,
                    weights: WeightModel::Unit,
                    seed: 0,
                },
                "service limit",
            ),
            (
                GraphSource::ScenarioCell {
                    name: "no-such-scenario".into(),
                    size_idx: 0,
                    weight_idx: 0,
                    loss_idx: 0,
                    seed_idx: 0,
                },
                "unknown scenario",
            ),
            (
                GraphSource::ScenarioCell {
                    name: "trees-exact".into(),
                    size_idx: 9,
                    weight_idx: 0,
                    loss_idx: 0,
                    seed_idx: 0,
                },
                "size_idx",
            ),
        ] {
            let err = execute_job(&ctx, &JobSpec::new(source)).unwrap_err();
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
    }
}
