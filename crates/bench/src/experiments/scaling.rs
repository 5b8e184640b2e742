//! E-SCALE — round complexity scaling: iterations grow with `log Δ` and
//! are independent of `n` at fixed Δ, as Theorem 1.1 requires — plus the
//! **simulator throughput bench**, the wall-clock counterpart: how many
//! metered CONGEST messages per second the `arbodom-congest` core pushes
//! on a 50k-node bounded-arboricity workload. Its numbers are written to
//! `BENCH_sim.json` so every PR's simulator performance is recorded
//! against the pre-rework baseline.

use crate::report::{check, f2, Table};
use crate::workloads::Flood;
use crate::Scale;
use arbodom_congest::obs::{
    self as sim_obs_names, SIM_ROUND_NANOS, SIM_SETUP_NANOS, SIM_TEARDOWN_NANOS,
};
use arbodom_congest::{
    run as congest_run, run_parallel, run_parallel_in, Globals, MeterMode, RunOptions, SimObs,
    WorkerPool,
};
use arbodom_core::{distributed, weighted};
use arbodom_graph::{generators, weights::WeightModel, Graph};
use arbodom_obs::Registry;
use arbodom_scenarios::json::{fmt_num, JsonObj};
use std::time::Instant;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut rng = crate::seeded_rng(1050);
    let alpha = 2usize;
    let eps = 0.3;
    let cfg = weighted::Config::new(alpha, eps).expect("valid");

    // Δ grows (preferential attachment hubs grow with n).
    let mut delta_table = Table::new(
        "E-SCALE-a",
        "iterations vs Δ (preferential attachment, α = 2, ε = 0.3)",
        &["n", "Δ", "iters", "log_{1+ε}(λ(Δ+1))+1", "within 2×"],
    );
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![1_000, 4_000],
        Scale::Full => vec![1_000, 4_000, 16_000, 64_000],
    };
    for &n in &sizes {
        let g = generators::preferential_attachment(n, alpha, &mut rng);
        let sol = weighted::solve(&g, &cfg).expect("solves");
        let theory =
            ((cfg.lambda() * (g.max_degree() + 1) as f64).ln() / eps.ln_1p()).floor() + 2.0;
        delta_table.row(vec![
            n.to_string(),
            g.max_degree().to_string(),
            sol.iterations.to_string(),
            f2(theory.max(1.0)),
            check((sol.iterations as f64) <= 2.0 * theory.max(1.0)),
        ]);
    }

    // n grows at fixed Δ: iterations must be flat.
    let mut n_table = Table::new(
        "E-SCALE-b",
        "iterations vs n at fixed Δ (forest unions, α = 2, ε = 0.3)",
        &["n", "Δ", "iters", "flat"],
    );
    let mut iters_seen = Vec::new();
    for &n in &sizes {
        // Forest unions have Δ = O(log n) slowly varying; cap degree shape
        // by using a fixed-degree family instead: random 6-regular.
        let g = generators::random_regular(n, 6, &mut rng);
        let sol = weighted::solve(&g, &cfg).expect("solves");
        iters_seen.push(sol.iterations);
        n_table.row(vec![
            n.to_string(),
            g.max_degree().to_string(),
            sol.iterations.to_string(),
            check(sol.iterations == iters_seen[0]),
        ]);
    }
    n_table.note(
        "at fixed Δ the iteration count is exactly n-independent — locality is \
         the paper's whole point; contrast with the O(α log n) rounds of [MSW21] \
         or O(log n) of [LW10]'s randomized algorithm.",
    );
    let mut tables = vec![delta_table, n_table];
    tables.extend(sim_bench(scale));
    tables
}

// ---------------------------------------------------------------------------
// Simulator throughput bench (E-SCALE-c / BENCH_sim.json)
// ---------------------------------------------------------------------------

/// The scaling workload at full scale: 50k nodes.
const SIM_BENCH_FULL_N: usize = 50_000;
/// CI / quick scale.
const SIM_BENCH_QUICK_N: usize = 5_000;
/// Broadcast rounds of the flood workload.
const FLOOD_ROUNDS: u32 = 20;
/// The million-node trajectory workload at full scale.
const HUGE_BENCH_FULL_N: usize = 1_000_000;
/// CI / quick scale of the million-node trajectory: same code path
/// (streamed generation, sharded parallel runner), CI-sized.
const HUGE_BENCH_QUICK_N: usize = 25_000;
/// The 10⁷-node tier at full scale: the largest instance the compact
/// unit-weight representation and the exact-capacity two-pass build are
/// sized for.
const TEN_MILLION_FULL_N: usize = 10_000_000;
/// CI / quick scale of the 10⁷ tier: same code path
/// (`Graph::from_edge_stream` + direct Theorem 1.1 solve), CI-sized.
const TEN_MILLION_QUICK_N: usize = 100_000;

/// Pre-rework throughput baseline (messages/second), measured at the
/// commit before the arena-mailbox simulator core landed
/// (`92bbb82`, 50k-node workload, best of 3). Kept so `BENCH_sim.json`
/// always records the before/after pair and future regressions have a
/// fixed reference point. The sequential `thm11_*` baselines were taken
/// through the `run_weighted` wrapper (raw runner + a few ms of result
/// assembly at 50k nodes); current rows time the raw runner in all
/// cases.
const PRE_PR_BASELINE: &[(&str, f64)] = &[
    ("flood_measure_seq", 6_780_170.0),
    ("flood_off_seq", 10_039_709.0),
    ("flood_strict_seq", 6_103_245.0),
    ("flood_measure_par4", 8_602_180.0),
    ("thm11_measure_seq", 3_821_953.0),
    ("thm11_off_seq", 5_533_580.0),
    ("thm11_strict_seq", 3_780_261.0),
    ("thm11_measure_par4", 5_782_912.0),
];

struct SimBenchRow {
    name: &'static str,
    rounds: usize,
    messages: usize,
    wall_s: f64,
}

impl SimBenchRow {
    fn msgs_per_sec(&self) -> f64 {
        self.messages as f64 / self.wall_s
    }
}

/// Times `workload` `reps` times, keeping the fastest run.
fn time_best(
    name: &'static str,
    reps: usize,
    mut workload: impl FnMut() -> (usize, usize),
) -> SimBenchRow {
    let mut best = f64::INFINITY;
    let mut rounds = 0;
    let mut messages = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let (r, m) = workload();
        let dt = t.elapsed().as_secs_f64().max(1e-9);
        if dt < best {
            best = dt;
        }
        rounds = r;
        messages = m;
    }
    SimBenchRow {
        name,
        rounds,
        messages,
        wall_s: best,
    }
}

/// One timed flood execution over `g`: pure simulator throughput.
///
/// Times the raw runner (`run`/`run_parallel`/`run_parallel_in`) only —
/// never result-assembly wrappers — so every row is pure simulator time
/// and sequential/parallel rows compare apples to apples. The `*_par4`
/// rows (`pool: None`, `threads > 1`) pay pool construction inside the
/// timed window, like a one-shot caller; the `*_pool4` rows run on a
/// caller-owned pool built before the clock starts, like a long-lived
/// server reusing one pool across runs.
fn flood_once(
    g: &Graph,
    globals: &Globals,
    meter: MeterMode,
    threads: usize,
    pool: Option<&WorkerPool>,
) -> (usize, usize) {
    let opts = RunOptions {
        meter,
        ..RunOptions::default()
    };
    let mk = |_: arbodom_graph::NodeId, _: &Graph| Flood::new(FLOOD_ROUNDS);
    let out = match pool {
        Some(pool) => run_parallel_in(pool, g, globals, mk, &opts).expect("flood runs"),
        None if threads <= 1 => congest_run(g, globals, mk, &opts).expect("flood runs"),
        None => run_parallel(g, globals, mk, &opts, threads).expect("flood runs"),
    };
    (out.telemetry.rounds, out.telemetry.total_messages)
}

/// One timed Theorem 1.1 node-program execution over `g` (see
/// [`flood_once`] for what is and is not inside the timed window).
fn thm11_once(
    g: &Graph,
    wglobals: &Globals,
    cfg: weighted::Config,
    meter: MeterMode,
    threads: usize,
    pool: Option<&WorkerPool>,
) -> (usize, usize) {
    let opts = RunOptions {
        meter,
        ..RunOptions::default()
    };
    let mk =
        |v: arbodom_graph::NodeId, g: &Graph| distributed::WeightedProgram::new(cfg, g.degree(v));
    let out = match pool {
        Some(pool) => run_parallel_in(pool, g, wglobals, mk, &opts).expect("thm11 runs"),
        None if threads <= 1 => congest_run(g, wglobals, mk, &opts).expect("thm11 runs"),
        None => run_parallel(g, wglobals, mk, &opts, threads).expect("thm11 runs"),
    };
    (out.telemetry.rounds, out.telemetry.total_messages)
}

/// The phase metrics the instrumented run must populate, in display
/// order — the same names the daemon exposes under `--sim-obs`.
const PHASE_METRICS: &[&str] = &[
    sim_obs_names::SIM_SETUP_NANOS,
    sim_obs_names::SIM_ROUND_NANOS,
    sim_obs_names::SIM_DELIVER_NANOS,
    sim_obs_names::SIM_COMPUTE_NANOS,
    sim_obs_names::SIM_POOL_DISPATCH_NANOS,
    sim_obs_names::SIM_WORKER_BUSY_NANOS,
    sim_obs_names::SIM_POOL_BARRIER_NANOS,
    sim_obs_names::SIM_TEARDOWN_NANOS,
    sim_obs_names::SIM_MESSAGE_BITS,
];

/// One instrumented Theorem 1.1 run on `pool`, observed into `registry`:
/// its wall seconds and its coverage, `(sim_setup + Σ sim_round +
/// sim_teardown) / wall`, the share of the call the simulator's own spans
/// account for.
fn instrumented_thm11(
    pool: &WorkerPool,
    g: &Graph,
    wglobals: &Globals,
    cfg: weighted::Config,
    registry: &Registry,
) -> (f64, f64) {
    let opts = RunOptions {
        obs: Some(SimObs::new(registry)),
        ..RunOptions::default()
    };
    let mk =
        |v: arbodom_graph::NodeId, g: &Graph| distributed::WeightedProgram::new(cfg, g.degree(v));
    let start = Instant::now();
    run_parallel_in(pool, g, wglobals, mk, &opts).expect("instrumented thm11 runs");
    let wall_ns = start.elapsed().as_nanos().max(1) as f64;
    let spans = [SIM_SETUP_NANOS, SIM_ROUND_NANOS, SIM_TEARDOWN_NANOS];
    let inside: u64 = spans
        .map(|name| registry.histogram(name).sum())
        .iter()
        .sum();
    (wall_ns / 1e9, inside as f64 / wall_ns)
}

/// Runs the simulator throughput workloads (the 50k trajectory, the
/// million-node tier, and the streamed 10⁷ tier), writes
/// `BENCH_sim.json`, and returns the human-readable tables.
fn sim_bench(scale: Scale) -> Vec<Table> {
    let n = scale.pick(SIM_BENCH_QUICK_N, SIM_BENCH_FULL_N);
    // Best-of-5 at full scale: the parallel rows are scheduling-noise
    // sensitive, and the trajectory should record capability, not load.
    let reps = scale.pick(1, 5);
    let mut rng = crate::seeded_rng(1050);
    let g = generators::forest_union(n, 3, &mut rng);
    let g = WeightModel::Uniform { lo: 1, hi: 20 }.assign(&g, &mut rng);
    let cfg = weighted::Config::new(3, 0.3).expect("valid");
    let globals = Globals::new(&g, 0);
    let wglobals = Globals::new(&g, 0).with_arboricity(cfg.alpha);
    // Shared borrows so the workload factories below stay callable
    // repeatedly (their `move` closures capture these `Copy` references).
    let (g, globals, wglobals) = (&g, &globals, &wglobals);
    // One persistent 4-worker pool shared by every `*_pool4` row in both
    // tiers: its threads are spawned here, once, and every timed run
    // reuses them (`run_parallel_in`), which is the serving layer's
    // steady state. The `*_par4` rows keep paying per-run pool
    // construction, so the pair of rows brackets the spawn overhead.
    let pool = WorkerPool::new(4);
    let pool = &pool;
    let flood =
        |meter: MeterMode, threads: usize| move || flood_once(g, globals, meter, threads, None);
    let flood_pool = |meter: MeterMode| move || flood_once(g, globals, meter, 4, Some(pool));
    let thm11 = |meter: MeterMode, threads: usize| {
        move || thm11_once(g, wglobals, cfg, meter, threads, None)
    };
    let thm11_pool = |meter: MeterMode| move || thm11_once(g, wglobals, cfg, meter, 4, Some(pool));
    let rows = [
        time_best("flood_measure_seq", reps, flood(MeterMode::Measure, 1)),
        time_best("flood_off_seq", reps, flood(MeterMode::Off, 1)),
        time_best("flood_strict_seq", reps, flood(MeterMode::Strict, 1)),
        time_best("flood_measure_par4", reps, flood(MeterMode::Measure, 4)),
        time_best("flood_measure_pool4", reps, flood_pool(MeterMode::Measure)),
        time_best("thm11_measure_seq", reps, thm11(MeterMode::Measure, 1)),
        time_best("thm11_off_seq", reps, thm11(MeterMode::Off, 1)),
        time_best("thm11_strict_seq", reps, thm11(MeterMode::Strict, 1)),
        time_best("thm11_measure_par4", reps, thm11(MeterMode::Measure, 4)),
        time_best("thm11_measure_pool4", reps, thm11_pool(MeterMode::Measure)),
    ];

    // --- the million-node tier (E-SCALE-d / BENCH_sim.json "huge") ---
    // Streamed generation (no intermediate per-tree graphs), then the
    // same two workloads through the sharded parallel runner. Quick scale
    // downsizes the graph but keeps the code path identical, so the CI
    // artifact has the same shape as the committed full-scale one.
    let huge_n = scale.pick(HUGE_BENCH_QUICK_N, HUGE_BENCH_FULL_N);
    let huge_reps = scale.pick(1, 2);
    let mut hrng = crate::seeded_rng(1051);
    let t_build = Instant::now();
    let hg = generators::forest_union(huge_n, 3, &mut hrng);
    let hg = WeightModel::Uniform { lo: 1, hi: 20 }.assign(&hg, &mut hrng);
    let build_secs = t_build.elapsed().as_secs_f64();
    let hfp = hg.memory_footprint();
    let hglobals = Globals::new(&hg, 0);
    let hwglobals = Globals::new(&hg, 0).with_arboricity(cfg.alpha);
    let (hg, hglobals, hwglobals) = (&hg, &hglobals, &hwglobals);
    let hflood =
        |meter: MeterMode, threads: usize| move || flood_once(hg, hglobals, meter, threads, None);
    let hflood_pool = |meter: MeterMode| move || flood_once(hg, hglobals, meter, 4, Some(pool));
    let hthm11 = |meter: MeterMode, threads: usize| {
        move || thm11_once(hg, hwglobals, cfg, meter, threads, None)
    };
    let hthm11_pool =
        |meter: MeterMode| move || thm11_once(hg, hwglobals, cfg, meter, 4, Some(pool));
    let huge_rows = [
        time_best(
            "flood_measure_seq",
            huge_reps,
            hflood(MeterMode::Measure, 1),
        ),
        time_best(
            "flood_measure_par4",
            huge_reps,
            hflood(MeterMode::Measure, 4),
        ),
        time_best(
            "flood_measure_pool4",
            huge_reps,
            hflood_pool(MeterMode::Measure),
        ),
        time_best(
            "thm11_measure_seq",
            huge_reps,
            hthm11(MeterMode::Measure, 1),
        ),
        time_best(
            "thm11_measure_par4",
            huge_reps,
            hthm11(MeterMode::Measure, 4),
        ),
        time_best(
            "thm11_measure_pool4",
            huge_reps,
            hthm11_pool(MeterMode::Measure),
        ),
    ];

    // --- the 10⁷ tier (E-SCALE-f / BENCH_sim.json "ten_million") ---
    // The memory-tiered representation's reason to exist: a unit-weight
    // forest union streamed straight into frozen CSR form
    // (`Graph::from_edge_stream`: two generator passes, exact-capacity
    // allocation, `Weights::Unit` so weight storage costs zero bytes),
    // then one direct Theorem 1.1 solve. No metered simulator rows at
    // this size — the artifact records that the tier *instantiates and
    // solves* (build seconds, byte-accurate footprint, solve seconds),
    // which is what the ratchet gates structurally.
    let tm_n = scale.pick(TEN_MILLION_QUICK_N, TEN_MILLION_FULL_N);
    let t_tm_build = Instant::now();
    let tm_g = Graph::from_edge_stream(tm_n, |mut sink| {
        // Re-seeded per pass: both passes of the two-pass build must
        // replay the identical edge stream.
        let mut rng = crate::seeded_rng(1052);
        generators::try_forest_union_into(tm_n, 3, 1.0, &mut rng, &mut sink)
    })
    .expect("ten-million tier builds");
    let tm_build_secs = t_tm_build.elapsed().as_secs_f64();
    let tm_fp = tm_g.memory_footprint();
    let t_tm_solve = Instant::now();
    let tm_sol = weighted::solve(&tm_g, &cfg).expect("ten-million tier solves");
    let tm_solve_secs = t_tm_solve.elapsed().as_secs_f64();
    let tm_m = tm_g.m();
    drop(tm_g);

    // --- instrumented phase breakdown (E-SCALE-e / "phase_breakdown") ---
    // One Theorem 1.1 run on the 50k workload through the persistent pool
    // with the [`SimObs`] side channel attached: where the run's wall
    // clock actually goes (set-up, then per round deliver vs compute vs
    // dispatch vs barrier, then tear-down), as log₂-bucket histograms —
    // the same metrics `arbodomd --sim-obs` serves, so the bench artifact
    // and a live scrape are directly comparable. It and the same run on
    // the million-node graph also give the `coverage` figures.
    let registry = Registry::new();
    let (obs_wall_s, coverage) = instrumented_thm11(pool, g, wglobals, cfg, &registry);
    let (huge_obs_wall_s, huge_coverage) =
        instrumented_thm11(pool, hg, hwglobals, cfg, &Registry::new());

    let mut phase_table = Table::new(
        "E-SCALE-e",
        format!("thm11_measure_pool4 phase breakdown, n = {n} (instrumented run)"),
        &["phase", "count", "total ms", "p50", "p95", "p99"],
    );
    for &name in PHASE_METRICS {
        let h = registry.histogram(name);
        let (p50, p95, p99) = h.percentiles();
        let fmt_bound = |b: u64| {
            if name == sim_obs_names::SIM_MESSAGE_BITS {
                format!("≤{b} bits")
            } else {
                format!("≤{:.3} ms", b as f64 / 1e6)
            }
        };
        phase_table.row(vec![
            name.to_string(),
            h.count().to_string(),
            f2(h.sum() as f64 / 1e6),
            fmt_bound(p50),
            fmt_bound(p95),
            fmt_bound(p99),
        ]);
    }
    phase_table.note(format!(
        "one instrumented run ({:.0} ms wall); percentiles are log₂-bucket \
         upper bounds (≤2× the true value), identical to what `arbodomd \
         --sim-obs` exposes via `arbodom-client metrics`. Coverage \
         (setup + Σ round + teardown) / wall: {coverage:.3} here, \
         {huge_coverage:.3} for the same run at n = {huge_n} ({:.0} ms \
         wall). Observability is off in every timed row above — the \
         differential and allocation-pin tests prove the off path costs \
         nothing.",
        obs_wall_s * 1e3,
        huge_obs_wall_s * 1e3,
    ));

    let phase_json = JsonObj::new().entries(
        PHASE_METRICS
            .iter()
            .map(|&name| {
                let h = registry.histogram(name);
                let (p50, p95, p99) = h.percentiles();
                (
                    name.to_string(),
                    JsonObj::new()
                        .u64("count", h.count())
                        .u64("total", h.sum())
                        .u64("p50_le", p50)
                        .u64("p95_le", p95)
                        .u64("p99_le", p99)
                        .render(),
                )
            })
            .chain([
                (
                    sim_obs_names::SIM_ROUNDS_TOTAL.to_string(),
                    registry
                        .counter(sim_obs_names::SIM_ROUNDS_TOTAL)
                        .get()
                        .to_string(),
                ),
                (
                    sim_obs_names::SIM_MESSAGES_TOTAL.to_string(),
                    registry
                        .counter(sim_obs_names::SIM_MESSAGES_TOTAL)
                        .get()
                        .to_string(),
                ),
            ]),
    );

    let baseline = |name: &str| -> Option<f64> {
        PRE_PR_BASELINE
            .iter()
            .find(|(b, _)| *b == name)
            .map(|&(_, v)| v)
    };
    let mut table = Table::new(
        "E-SCALE-c",
        format!("simulator throughput, n = {n} forest union (α = 3)"),
        &[
            "workload",
            "rounds",
            "messages",
            "wall ms",
            "Mmsg/s",
            "vs pre-PR",
        ],
    );
    for r in rows.iter() {
        // The recorded baseline is the 50k-node workload; comparing the
        // quick (downscaled) run against it would be meaningless.
        let vs = match (scale, baseline(r.name)) {
            (Scale::Full, Some(b)) => format!("{:.2}x", r.msgs_per_sec() / b),
            _ => "—".into(),
        };
        table.row(vec![
            r.name.to_string(),
            r.rounds.to_string(),
            r.messages.to_string(),
            f2(r.wall_s * 1e3),
            f2(r.msgs_per_sec() / 1e6),
            vs,
        ]);
    }
    table.note(format!(
        "written to BENCH_sim.json (baseline: pre-arena core at 92bbb82, \
         n = {SIM_BENCH_FULL_N}); flood = {FLOOD_ROUNDS}-round u64 broadcast, \
         thm11 = the Theorem 1.1 node program end to end. par4 rows pay \
         4-thread pool construction inside the timed window (one-shot \
         caller); pool4 rows reuse one pre-built persistent pool across \
         runs (server steady state, zero spawns in the window)."
    ));

    let mut huge_table = Table::new(
        "E-SCALE-d",
        format!("million-node tier, n = {huge_n} forest union (α = 3, streamed)"),
        &["workload", "rounds", "messages", "wall ms", "Mmsg/s"],
    );
    for r in huge_rows.iter() {
        huge_table.row(vec![
            r.name.to_string(),
            r.rounds.to_string(),
            r.messages.to_string(),
            f2(r.wall_s * 1e3),
            f2(r.msgs_per_sec() / 1e6),
        ]);
    }
    huge_table.note(format!(
        "written to BENCH_sim.json under \"huge\"; graph streamed in \
         {build_secs:.2}s, frozen CSR footprint {} MB ({} edges). Full \
         scale is n = {HUGE_BENCH_FULL_N}; quick scale downsizes the graph \
         but keeps the code path.",
        hfp.total() / (1024 * 1024),
        hg.m(),
    ));

    let mut tm_table = Table::new(
        "E-SCALE-f",
        format!("10⁷ tier, n = {tm_n} unit-weight forest union (α = 3, streamed)"),
        &["stage", "wall s", "detail"],
    );
    tm_table.row(vec![
        "stream build".into(),
        f2(tm_build_secs),
        format!(
            "{} edges; footprint {} MB = offsets {} + neighbors {} + weights {} bytes",
            tm_m,
            tm_fp.total() / (1024 * 1024),
            tm_fp.offsets_bytes,
            tm_fp.neighbors_bytes,
            tm_fp.weights_bytes,
        ),
    ]);
    tm_table.row(vec![
        "thm11 solve".into(),
        f2(tm_solve_secs),
        format!(
            "{} iterations, |DS| = {}, weight {}",
            tm_sol.iterations, tm_sol.size, tm_sol.weight,
        ),
    ]);
    tm_table.note(format!(
        "written to BENCH_sim.json under \"ten_million\": the compact \
         unit-weight tier (4 bytes/node offsets + 8 bytes/edge neighbors, \
         zero weight bytes) streamed via the exact-capacity two-pass build \
         and solved once end to end. Full scale is n = {TEN_MILLION_FULL_N}; \
         quick scale downsizes the instance but keeps the code path.",
    ));

    // --- BENCH_sim.json ---
    // Rendered with the tiny JSON builder below (keys and values here are
    // plain identifiers and finite numbers, nothing needs escaping), so
    // this file needs no JSON dependency.
    let current = JsonObj::new().entries(rows.iter().map(|r| {
        (
            r.name.to_string(),
            JsonObj::new()
                .int("rounds", r.rounds)
                .int("messages", r.messages)
                .num("wall_seconds", r.wall_s)
                .num("msgs_per_sec", r.msgs_per_sec().round())
                .render(),
        )
    }));
    let speedups = JsonObj::new().entries(rows.iter().filter_map(|r| {
        if scale != Scale::Full {
            return None;
        }
        baseline(r.name).map(|b| {
            (
                r.name.to_string(),
                fmt_num((r.msgs_per_sec() / b * 100.0).round() / 100.0),
            )
        })
    }));
    let huge_current = JsonObj::new().entries(huge_rows.iter().map(|r| {
        (
            r.name.to_string(),
            JsonObj::new()
                .int("rounds", r.rounds)
                .int("messages", r.messages)
                .num("wall_seconds", r.wall_s)
                .num("msgs_per_sec", r.msgs_per_sec().round())
                .render(),
        )
    }));
    let huge_json = JsonObj::new()
        .raw(
            "workload",
            JsonObj::new()
                .str("graph", "forest_union")
                .int("alpha", 3)
                .int("n", huge_n)
                .int("m", hg.m())
                .int("flood_rounds", FLOOD_ROUNDS as usize)
                .str(
                    "scale",
                    if scale == Scale::Full {
                        "full"
                    } else {
                        "quick"
                    },
                )
                .int("reps_best_of", huge_reps)
                .num("build_seconds", build_secs)
                .int("graph_bytes", hfp.total())
                .render(),
        )
        .raw("current", huge_current.render());
    let tm_json = JsonObj::new()
        .raw(
            "workload",
            JsonObj::new()
                .str("graph", "forest_union")
                .int("alpha", 3)
                .int("n", tm_n)
                .int("m", tm_m)
                .str("weights", "unit")
                .str(
                    "scale",
                    if scale == Scale::Full {
                        "full"
                    } else {
                        "quick"
                    },
                )
                .num("build_seconds", tm_build_secs)
                .raw(
                    "footprint",
                    JsonObj::new()
                        .int("offsets_bytes", tm_fp.offsets_bytes)
                        .int("neighbors_bytes", tm_fp.neighbors_bytes)
                        .int("weights_bytes", tm_fp.weights_bytes)
                        .int("total_bytes", tm_fp.total())
                        .render(),
                )
                .render(),
        )
        .raw(
            "thm11",
            JsonObj::new()
                .int("iterations", tm_sol.iterations)
                .int("ds_size", tm_sol.size)
                .u64("ds_weight", tm_sol.weight)
                .num("solve_seconds", tm_solve_secs)
                .num(
                    "nodes_per_sec",
                    (tm_n as f64 / tm_solve_secs.max(1e-9)).round(),
                )
                .render(),
        );
    let coverage_json = JsonObj::new().num("50k", coverage);
    let coverage_json = coverage_json.num("huge", huge_coverage);
    let json = JsonObj::new()
        .str("schema", "arbodom-sim-bench/v4")
        .raw(
            "workload",
            JsonObj::new()
                .str("graph", "forest_union")
                .int("alpha", 3)
                .int("n", n)
                .int("flood_rounds", FLOOD_ROUNDS as usize)
                .str(
                    "scale",
                    if scale == Scale::Full {
                        "full"
                    } else {
                        "quick"
                    },
                )
                .int("reps_best_of", reps)
                .render(),
        )
        .raw(
            "baseline_pre_pr",
            JsonObj::new()
                .str("commit", "92bbb82")
                .int("n", SIM_BENCH_FULL_N)
                .raw(
                    "msgs_per_sec",
                    JsonObj::new()
                        .entries(
                            PRE_PR_BASELINE
                                .iter()
                                .map(|&(k, v)| (k.to_string(), fmt_num(v))),
                        )
                        .render(),
                )
                .render(),
        )
        .raw("current", current.render())
        .raw("speedup_vs_pre_pr", speedups.render())
        .raw("phase_breakdown", phase_json.render())
        .raw("coverage", coverage_json.render())
        .raw("huge", huge_json.render())
        .raw("ten_million", tm_json.render())
        .render();
    // Write the trajectory file for real invocations only: full-scale
    // runs, or explicitly downscaled ones (CI sets `ARBODOM_QUICK=1` and
    // uploads the file as an artifact). In-process test harness calls
    // (quick scale without the env var) must not litter the package
    // directory or clobber the committed full-scale numbers. The path is
    // pinned to the workspace root so the committed file is updated no
    // matter which directory the binary runs from.
    let explicit_quick = std::env::var("ARBODOM_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    if scale == Scale::Full || explicit_quick {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_sim.json");
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    vec![table, phase_table, huge_table, tm_table]
}

// The JSON builder previously defined here moved to
// `arbodom_scenarios::json`, where `BENCH_scenarios.json` shares it.
