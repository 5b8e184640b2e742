//! Load generator for the `arbodomd` serving layer.
//!
//! Drives a live daemon (external via `--addr`, or an in-process one on
//! an ephemeral port) with a deterministic mix of batched jobs from
//! several client threads and records the **sustained queries/sec** into
//! `BENCH_service.json` at the workspace root — the serving-layer
//! counterpart of `BENCH_sim.json` (raw simulator throughput) and
//! `BENCH_scenarios.json` (solution quality).
//!
//! The v4 artifact carries three measurement families:
//!
//! * **sustained** — the submit→last-reply queries/sec ladder across
//!   client counts (1, half, full), ending at the configured fleet whose
//!   run is the headline `queries_per_sec`;
//! * **batch_latency_ms** — per-batch round-trip percentiles at several
//!   batch sizes;
//! * **admission** — a semantic probe of the reactor's admission
//!   control, always against a dedicated in-process daemon with tight
//!   knobs so the expected shed counts are deterministic: a pipelined
//!   burst past the per-connection cap (typed `Overloaded` sheds), a
//!   retrying flood that must fully succeed, and the daemon's own
//!   admitted/shed/queue-wait metrics scraped after the fact.
//!
//! The job mix is mostly repeated sources, so after warm-up the graph
//! cache answers construction and the measurement isolates the
//! orchestration path: framing, the reactor, scheduling, simulator runs,
//! quality accounting. A slice of cold sources keeps eviction and
//! construction in the loop.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use arbodom_scenarios::json::{JsonArr, JsonObj};
use arbodom_service::protocol::{decode_payload, read_frame, write_message, PROTOCOL_V3};
use arbodom_service::{
    obs, CacheStats, Client, GraphSource, JobSpec, Request, Response, Server, ServerConfig,
    ServerLimits, ServiceError,
};

use crate::Scale;

/// The artifact file name at the workspace root.
pub const ARTIFACT_NAME: &str = "BENCH_service.json";

/// Shape of one load run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Address of a live daemon; `None` boots an in-process server on an
    /// ephemeral port (still real TCP loopback).
    pub addr: Option<String>,
    /// Concurrent client threads at the top of the sustained sweep.
    pub clients: usize,
    /// Batches each client submits.
    pub batches_per_client: usize,
    /// Jobs per batch.
    pub jobs_per_batch: usize,
    /// Workload scale (graph sizes; also the in-process server's scale).
    pub scale: Scale,
}

impl LoadConfig {
    /// The load shape for a scale: quick for CI smoke, full for the
    /// recorded artifact.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => LoadConfig {
                addr: None,
                clients: 2,
                batches_per_client: 4,
                jobs_per_batch: 8,
                scale,
            },
            Scale::Full => LoadConfig {
                addr: None,
                clients: 8,
                batches_per_client: 12,
                jobs_per_batch: 16,
                scale,
            },
        }
    }

    fn total_jobs(&self) -> usize {
        self.clients * self.batches_per_client * self.jobs_per_batch
    }

    /// The client counts of the sustained sweep: 1, half the fleet, and
    /// the full fleet (deduplicated, ascending — the last entry is the
    /// headline run).
    fn client_sweep(&self) -> Vec<usize> {
        let mut counts = vec![1, self.clients / 2, self.clients];
        counts.retain(|&c| c >= 1);
        counts.sort_unstable();
        counts.dedup();
        counts
    }
}

/// The measured outcome of one load run.
#[derive(Clone, Debug)]
pub struct LoadOutcome {
    /// Client threads driven in the headline run.
    pub clients: usize,
    /// Total batches submitted in the headline run.
    pub batches: usize,
    /// Total jobs answered in the headline run.
    pub jobs: usize,
    /// Wall-clock seconds of the **submit → last-reply window only**:
    /// every batch is built and every connection established before the
    /// clock starts, so client-side job construction cannot dilute the
    /// daemon's measured throughput (it used to — see
    /// [`measure_submit_window`]).
    pub wall_secs: f64,
    /// Sustained queries (jobs) per second across all clients.
    pub queries_per_sec: f64,
    /// Jobs that returned an error across every sweep (0 in a healthy run).
    pub job_errors: usize,
    /// Jobs whose quality accounting raised a flag (0 in a healthy run).
    pub flagged: usize,
    /// Daemon cache counters after the run.
    pub cache: CacheStats,
    /// Per-batch round-trip latency percentiles, one row per batch size
    /// swept (the main run's size plus smaller single-client sweeps).
    pub latency: Vec<BatchLatency>,
    /// The sustained queries/sec ladder across client counts; the last
    /// row is the headline run.
    pub sustained: Vec<SustainedRow>,
    /// The admission-control probe (in-process daemon, tight knobs).
    pub admission: AdmissionProbe,
}

/// One row of the sustained-throughput ladder.
#[derive(Clone, Debug)]
pub struct SustainedRow {
    /// Concurrent client connections in this row.
    pub clients: usize,
    /// Batches submitted across all of them.
    pub batches: usize,
    /// Jobs answered.
    pub jobs: usize,
    /// Submit → last-reply wall seconds.
    pub wall_secs: f64,
    /// Jobs per second over that window.
    pub queries_per_sec: f64,
}

/// Exact round-trip latency percentiles for batches of one size: the
/// submit→last-reply wall time of each batch, sorted, read at the
/// nearest-rank 50th/95th/99th percentiles. Exact because the sample
/// count is small and fully retained — the daemon's own scrapeable
/// histograms (`arbodom_request_nanos_batch`) are the bounded-memory
/// counterpart for live traffic.
#[derive(Clone, Debug)]
pub struct BatchLatency {
    /// Jobs per batch in this sweep.
    pub jobs_per_batch: usize,
    /// Batches measured.
    pub batches: usize,
    /// Median batch round-trip, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile batch round-trip, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile batch round-trip, milliseconds.
    pub p99_ms: f64,
}

impl BatchLatency {
    /// Nearest-rank percentiles of `nanos` (consumed and sorted).
    fn from_samples(jobs_per_batch: usize, mut nanos: Vec<u64>) -> Self {
        assert!(!nanos.is_empty(), "latency sweep measured no batches");
        nanos.sort_unstable();
        let pick = |q: f64| -> f64 {
            let rank = ((q * nanos.len() as f64).ceil() as usize).clamp(1, nanos.len());
            nanos[rank - 1] as f64 / 1e6
        };
        BatchLatency {
            jobs_per_batch,
            batches: nanos.len(),
            p50_ms: pick(0.50),
            p95_ms: pick(0.95),
            p99_ms: pick(0.99),
        }
    }
}

/// The four warm sources of the job mix — repeated verbatim across the
/// run, so after warm-up the cache answers their construction. One per
/// ingestion path (inline, two generators, a registered scenario cell).
fn warm_sources(scale: Scale) -> [GraphSource; 4] {
    let n_small = scale.pick(60, 400) as u32;
    let n_tree = scale.pick(150, 2_000) as u32;
    [
        GraphSource::Inline {
            n: n_small,
            edges: (0..n_small - 1).map(|v| (v, v + 1)).collect(),
            weights: None,
        },
        GraphSource::Generator {
            family: arbodom_scenarios::Family::RandomTree,
            n: n_tree,
            weights: arbodom_graph::weights::WeightModel::Unit,
            seed: 42,
        },
        GraphSource::Generator {
            family: arbodom_scenarios::Family::ForestUnion {
                alpha: 3,
                keep: 1.0,
            },
            n: n_tree,
            weights: arbodom_graph::weights::WeightModel::Uniform { lo: 1, hi: 100 },
            seed: 7,
        },
        GraphSource::ScenarioCell {
            name: "trees-exact".into(),
            size_idx: 0,
            weight_idx: 0,
            loss_idx: 0,
            seed_idx: 0,
        },
    ]
}

/// The deterministic job mix: index `i` of a client's whole job stream
/// maps to a source. Three of every four jobs reuse one of the four warm
/// sources (rotating through all of them across blocks — cache hits
/// after warm-up); every fourth is a cold generator seed so construction
/// and eviction stay exercised.
fn job_for(scale: Scale, client: usize, i: usize) -> JobSpec {
    let source = if i % 4 == 3 {
        GraphSource::Generator {
            family: arbodom_scenarios::Family::RandomTree,
            n: scale.pick(150, 2_000) as u32,
            weights: arbodom_graph::weights::WeightModel::Unit,
            seed: (client * 1_000 + i) as u64, // cold: unique per job
        }
    } else {
        let warm = warm_sources(scale);
        // `i % 4` alone never reaches warm[3]; rotating by the block
        // index cycles every warm source into the mix.
        warm[(i + i / 4) % warm.len()].clone()
    };
    JobSpec::new(source)
}

/// Builds every client's batches up front for a `clients`-wide row. Job
/// construction is client work, not daemon work — it happens **before**
/// the measured window so `queries_per_sec` reports what the daemon
/// sustained, not how fast the load generator assembled its inputs.
fn prepare_batches(cfg: &LoadConfig, clients: usize) -> Vec<Vec<Vec<JobSpec>>> {
    (0..clients)
        .map(|client| {
            (0..cfg.batches_per_client)
                .map(|batch| {
                    (0..cfg.jobs_per_batch)
                        .map(|j| job_for(cfg.scale, client, batch * cfg.jobs_per_batch + j))
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Submits pre-built batches — one thread per connection — and measures
/// the **submit → last-reply window only**. Connections are established
/// and batches are built by the caller, outside the window; the clock
/// starts when the first submission can go out and stops when the last
/// client has read its last reply. Returns the wall seconds, the
/// per-batch submit→reply latencies in nanoseconds (all clients merged,
/// client-major order), and the job error / quality-flag counts.
///
/// This function is the regression boundary for the historical
/// measurement bug where `queries_per_sec` was computed over a window
/// that *included* client-side batch construction: a slow batch build
/// diluted the daemon's reported throughput.
///
/// # Errors
///
/// Propagates transport errors; job-level failures are counted instead.
pub fn measure_submit_window(
    conns: Vec<Client>,
    batches: Vec<Vec<Vec<JobSpec>>>,
) -> Result<SubmitWindow, ServiceError> {
    assert_eq!(conns.len(), batches.len(), "one connection per client");
    let started = Instant::now();
    let per_client: Vec<(Vec<u64>, usize, usize)> = std::thread::scope(
        |scope| -> Result<Vec<(Vec<u64>, usize, usize)>, ServiceError> {
            let handles: Vec<_> = conns
                .into_iter()
                .zip(batches)
                .map(|(mut conn, client_batches)| {
                    scope.spawn(move || -> Result<(Vec<u64>, usize, usize), ServiceError> {
                        let mut latencies = Vec::with_capacity(client_batches.len());
                        let mut errors = 0;
                        let mut flagged = 0;
                        for jobs in &client_batches {
                            let batch_clock = Instant::now();
                            let outcomes = conn.submit(jobs)?;
                            latencies.push(batch_clock.elapsed().as_nanos() as u64);
                            for outcome in outcomes {
                                match outcome {
                                    Ok(result) if result.flagged => flagged += 1,
                                    Ok(_) => {}
                                    Err(_) => errors += 1,
                                }
                            }
                        }
                        Ok((latencies, errors, flagged))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        },
    )?;
    let wall_secs = started.elapsed().as_secs_f64();
    Ok(SubmitWindow {
        wall_secs,
        batch_nanos: per_client.iter().flat_map(|(l, _, _)| l.clone()).collect(),
        job_errors: per_client.iter().map(|(_, e, _)| e).sum(),
        flagged: per_client.iter().map(|(_, _, f)| f).sum(),
    })
}

/// What [`measure_submit_window`] measured.
#[derive(Clone, Debug)]
pub struct SubmitWindow {
    /// Submit → last-reply wall seconds across all clients.
    pub wall_secs: f64,
    /// Per-batch submit→reply latency in nanoseconds, all clients.
    pub batch_nanos: Vec<u64>,
    /// Jobs that returned an error.
    pub job_errors: usize,
    /// Jobs whose quality accounting raised a flag.
    pub flagged: usize,
}

/// The admission-control probe: what the reactor did when pushed past
/// its caps. Always measured against a dedicated in-process daemon with
/// tight knobs (`per_conn_inflight = 2`, `max_pending_jobs = 8`), so the
/// expected shape is deterministic regardless of any `--addr` target of
/// the sustained sweep.
#[derive(Clone, Debug)]
pub struct AdmissionProbe {
    /// The limits the daemon advertised over `Hello` (protocol v3).
    pub limits: ServerLimits,
    /// Single-connection pipelined burst size (2 × per-conn cap + 4).
    pub pipelined_requests: usize,
    /// Burst requests answered with results.
    pub accepted: usize,
    /// Burst requests answered with a typed `Overloaded`.
    pub shed: usize,
    /// Smallest `retry_after_ms` hint among the sheds (0 if none shed).
    pub min_retry_after_ms: u64,
    /// Submits attempted by the retrying flood.
    pub flood_submits: usize,
    /// Flood submits that eventually succeeded (must equal the above).
    pub flood_succeeded: usize,
    /// Transport-level errors across the whole probe (must be 0).
    pub errors: usize,
    /// `arbodom_requests_admitted_total` scraped after the probe.
    pub admitted_total: f64,
    /// `arbodom_requests_shed_total` scraped after the probe.
    pub shed_total: f64,
    /// `arbodom_job_errors_total` scraped after the probe (must be 0).
    pub job_errors_total: f64,
    /// Queue-wait distribution scraped from `arbodom_queue_wait_nanos`.
    pub queue_wait: QueueWait,
}

/// Bucket-quantile summary of the daemon's queue-wait histogram, in
/// milliseconds. Quantiles are upper bucket bounds, so they inherit the
/// registry's ≤2× bucket guarantee.
#[derive(Clone, Copy, Debug)]
pub struct QueueWait {
    /// Observations (admitted jobs that waited in the scheduler queue).
    pub count: u64,
    /// Median queue wait upper bound, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile queue wait upper bound, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile queue wait upper bound, milliseconds.
    pub p99_ms: f64,
}

/// Reads a histogram's (count, p50, p95, p99) off its cumulative `le`
/// buckets in a parsed exposition; values are converted nanos → ms.
fn scrape_queue_wait(exp: &arbodom_obs::prom::Exposition, name: &str) -> QueueWait {
    let count = exp.value(&format!("{name}_count")).unwrap_or(0.0);
    let bucket_name = format!("{name}_bucket");
    let buckets: Vec<(f64, f64)> = exp
        .samples
        .iter()
        .filter(|s| s.name == bucket_name)
        .filter_map(|s| {
            let le = match s.label("le")? {
                "+Inf" => f64::MAX,
                v => v.parse().ok()?,
            };
            Some((le, s.value))
        })
        .collect();
    let q = |q: f64| -> f64 {
        if count == 0.0 {
            return 0.0;
        }
        let rank = (q * count).ceil().max(1.0);
        buckets
            .iter()
            .find(|(_, cum)| *cum >= rank)
            .map_or(f64::MAX, |(le, _)| *le)
            / 1e6
    };
    QueueWait {
        count: count as u64,
        p50_ms: q(0.50),
        p95_ms: q(0.95),
        p99_ms: q(0.99),
    }
}

/// A single-job batch over a random tree — heavy enough that a pipelined
/// burst outruns the workers, so arrival-time admission is what gets
/// measured, not job latency.
fn probe_job(scale: Scale, seed: u64) -> JobSpec {
    JobSpec::new(GraphSource::Generator {
        family: arbodom_scenarios::Family::RandomTree,
        n: scale.pick(4_000, 20_000) as u32,
        weights: arbodom_graph::weights::WeightModel::Unit,
        seed,
    })
}

/// Runs the admission probe against its own tightly-capped in-process
/// daemon and scrapes the admission metrics afterwards.
///
/// # Errors
///
/// Propagates daemon boot and transport errors; shed replies are the
/// *measurement*, never an error.
pub fn run_admission(scale: Scale) -> Result<AdmissionProbe, ServiceError> {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            per_conn_inflight: 2,
            max_pending_jobs: 8,
            scale,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.local_addr();

    let limits = Client::connect(addr)?.hello()?;
    let cap = limits.per_conn_inflight as usize;
    let pipelined_requests = 2 * cap + 4;

    // Phase 1 — pipelined burst on one raw connection, all frames in one
    // write: arrival-time classification sees every request before the
    // first job finishes, so with a cap of `cap` exactly `cap` requests
    // are accepted and the rest shed with typed `Overloaded` replies.
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let mut burst = Vec::new();
    for i in 0..pipelined_requests {
        let batch = Request::Batch(vec![probe_job(scale, i as u64)]);
        write_message(&mut burst, PROTOCOL_V3, &batch)?;
    }
    stream.write_all(&burst)?;
    let (mut accepted, mut shed, mut errors) = (0usize, 0usize, 0usize);
    let mut min_retry_after_ms = u64::MAX;
    for _ in 0..pipelined_requests {
        loop {
            let (_, payload) = read_frame(&mut stream)?;
            match decode_payload::<Response>(&payload)? {
                Response::Job { outcome, .. } => {
                    if outcome.is_err() {
                        errors += 1;
                    }
                }
                Response::BatchDone { .. } => {
                    accepted += 1;
                    break;
                }
                Response::Overloaded { retry_after_ms, .. } => {
                    shed += 1;
                    min_retry_after_ms = min_retry_after_ms.min(retry_after_ms);
                    break;
                }
                _ => {
                    errors += 1;
                    break;
                }
            }
        }
    }
    drop(stream);

    // Phase 2 — a retrying flood: more concurrent work than the caps
    // admit, driven through the client's bounded-retry loop honoring the
    // daemon's `retry_after_ms` hints. Every submit must land.
    let flood_threads = 3usize;
    let submits_per_thread = 4usize;
    let flood_submits = flood_threads * submits_per_thread;
    let flood_results: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..flood_threads)
            .map(|t| {
                scope.spawn(move || {
                    let client = Client::builder()
                        .retries(64)
                        .backoff(Duration::from_millis(2), Duration::from_millis(100))
                        .jitter_seed(t as u64 + 1)
                        .connect(addr);
                    let Ok(mut client) = client else {
                        return (0, submits_per_thread);
                    };
                    let mut ok = 0;
                    let mut bad = 0;
                    for b in 0..submits_per_thread {
                        let jobs: Vec<JobSpec> =
                            (0..4).map(|j| job_for(scale, t, b * 4 + j)).collect();
                        match client.submit(&jobs) {
                            Ok(outcomes) if outcomes.iter().all(Result::is_ok) => ok += 1,
                            _ => bad += 1,
                        }
                    }
                    (ok, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("flood thread panicked"))
            .collect()
    });
    let flood_succeeded: usize = flood_results.iter().map(|(ok, _)| ok).sum();
    errors += flood_results.iter().map(|(_, bad)| bad).sum::<usize>();

    // Phase 3 — scrape the daemon's own ledger of what just happened.
    let text = Client::connect(addr)?.metrics()?;
    let exp = arbodom_obs::prom::parse(&text)
        .map_err(|e| ServiceError::Protocol(format!("metrics scrape: {e}")))?;
    let value = |name: &str| exp.value(name).unwrap_or(0.0);
    let probe = AdmissionProbe {
        limits,
        pipelined_requests,
        accepted,
        shed,
        min_retry_after_ms: if shed == 0 { 0 } else { min_retry_after_ms },
        flood_submits,
        flood_succeeded,
        errors,
        admitted_total: value(obs::REQUESTS_ADMITTED_TOTAL),
        shed_total: value(obs::REQUESTS_SHED_TOTAL),
        job_errors_total: value(obs::JOB_ERRORS_TOTAL),
        queue_wait: scrape_queue_wait(&exp, obs::QUEUE_WAIT_NANOS),
    };
    server.shutdown();
    Ok(probe)
}

/// Runs the load and measures sustained throughput, the latency ladder,
/// and the admission probe.
///
/// # Errors
///
/// Propagates daemon boot and transport errors; job-level failures are
/// counted in [`LoadOutcome::job_errors`] instead.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadOutcome, ServiceError> {
    // An in-process daemon when no live address was given. Scale quick
    // keeps scenario cells at CI size.
    let local_server = match &cfg.addr {
        Some(_) => None,
        None => Some(Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                scale: cfg.scale,
                ..ServerConfig::default()
            },
        )?),
    };
    let addr = match (&cfg.addr, &local_server) {
        (Some(addr), _) => addr.clone(),
        (None, Some(server)) => server.local_addr().to_string(),
        (None, None) => unreachable!(),
    };

    // Warm-up: one untimed batch covering every warm source.
    let mut probe = Client::connect(addr.as_str())?;
    probe.ping()?;
    let warmup: Vec<JobSpec> = warm_sources(cfg.scale)
        .into_iter()
        .map(JobSpec::new)
        .collect();
    probe.submit(&warmup)?;

    // The sustained sweep: ascending client counts, the last of which is
    // the headline fleet. Everything client-side — batch construction,
    // connection setup — happens before each row's clock starts.
    let mut sustained = Vec::new();
    let mut job_errors = 0;
    let mut flagged = 0;
    let mut headline: Option<SubmitWindow> = None;
    for clients in cfg.client_sweep() {
        let batches = prepare_batches(cfg, clients);
        let conns: Vec<Client> = (0..clients)
            .map(|_| Client::connect(addr.as_str()))
            .collect::<Result<_, _>>()?;
        let window = measure_submit_window(conns, batches)?;
        job_errors += window.job_errors;
        flagged += window.flagged;
        let jobs = clients * cfg.batches_per_client * cfg.jobs_per_batch;
        sustained.push(SustainedRow {
            clients,
            batches: clients * cfg.batches_per_client,
            jobs,
            wall_secs: window.wall_secs,
            queries_per_sec: jobs as f64 / window.wall_secs.max(1e-9),
        });
        headline = Some(window);
    }
    let window = headline.expect("client sweep is never empty");

    // Latency sweeps at smaller batch sizes: single-client, against the
    // now-warm daemon, measuring round-trip only (throughput above is
    // untouched). Together with the main run this gives the per-batch
    // p50/p95/p99 ladder the artifact records.
    let mut latency = Vec::new();
    for sweep_size in [1usize, 4] {
        if sweep_size >= cfg.jobs_per_batch {
            continue;
        }
        let sweep_batches: Vec<Vec<JobSpec>> = (0..cfg.batches_per_client)
            .map(|batch| {
                (0..sweep_size)
                    .map(|j| job_for(cfg.scale, 0, batch * sweep_size + j))
                    .collect()
            })
            .collect();
        let sweep =
            measure_submit_window(vec![Client::connect(addr.as_str())?], vec![sweep_batches])?;
        latency.push(BatchLatency::from_samples(sweep_size, sweep.batch_nanos));
    }
    latency.push(BatchLatency::from_samples(
        cfg.jobs_per_batch,
        window.batch_nanos.clone(),
    ));

    let cache = probe.stats()?;
    if let Some(server) = local_server {
        server.shutdown();
    }

    // The admission probe runs last, against its own daemon: it floods
    // on purpose and must not perturb the sustained measurement.
    let admission = run_admission(cfg.scale)?;

    let jobs = cfg.total_jobs();
    Ok(LoadOutcome {
        clients: cfg.clients,
        batches: cfg.clients * cfg.batches_per_client,
        jobs,
        wall_secs: window.wall_secs,
        queries_per_sec: jobs as f64 / window.wall_secs.max(1e-9),
        job_errors,
        flagged,
        cache,
        latency,
        sustained,
        admission,
    })
}

/// Renders the `BENCH_service.json` document (schema v4).
pub fn render_artifact(outcome: &LoadOutcome, cfg: &LoadConfig) -> String {
    let latency = JsonArr::from_raw(outcome.latency.iter().map(|row| {
        JsonObj::new()
            .int("jobs_per_batch", row.jobs_per_batch)
            .int("batches", row.batches)
            .num("p50_ms", row.p50_ms)
            .num("p95_ms", row.p95_ms)
            .num("p99_ms", row.p99_ms)
            .render()
    }));
    let sustained = JsonArr::from_raw(outcome.sustained.iter().map(|row| {
        JsonObj::new()
            .int("clients", row.clients)
            .int("batches", row.batches)
            .int("jobs", row.jobs)
            .num("wall_secs", row.wall_secs)
            .num("queries_per_sec", row.queries_per_sec)
            .render()
    }));
    let adm = &outcome.admission;
    let admission = JsonObj::new()
        .raw(
            "limits",
            JsonObj::new()
                .u64("max_pending_jobs", adm.limits.max_pending_jobs)
                .u64("max_pending_bytes", adm.limits.max_pending_bytes)
                .u64("per_conn_inflight", adm.limits.per_conn_inflight)
                .u64("idle_timeout_ms", adm.limits.idle_timeout_ms)
                .render(),
        )
        .raw(
            "pipelined",
            JsonObj::new()
                .int("requests", adm.pipelined_requests)
                .int("accepted", adm.accepted)
                .int("shed", adm.shed)
                .u64("min_retry_after_ms", adm.min_retry_after_ms)
                .render(),
        )
        .raw(
            "flood",
            JsonObj::new()
                .int("submits", adm.flood_submits)
                .int("succeeded", adm.flood_succeeded)
                .render(),
        )
        .int("errors", adm.errors)
        .num("admitted_total", adm.admitted_total)
        .num("shed_total", adm.shed_total)
        .num("job_errors_total", adm.job_errors_total)
        .raw(
            "queue_wait_ms",
            JsonObj::new()
                .u64("count", adm.queue_wait.count)
                .num("p50", adm.queue_wait.p50_ms)
                .num("p95", adm.queue_wait.p95_ms)
                .num("p99", adm.queue_wait.p99_ms)
                .render(),
        )
        .render();
    JsonObj::new()
        .str("schema", "arbodom-service/v4")
        .str("scale", cfg.scale.label())
        .str(
            "target",
            cfg.addr.as_deref().unwrap_or("in-process ephemeral daemon"),
        )
        .int("clients", outcome.clients)
        .int("batches", outcome.batches)
        .int("jobs_per_batch", cfg.jobs_per_batch)
        .int("jobs", outcome.jobs)
        .num("wall_secs", outcome.wall_secs)
        .num("queries_per_sec", outcome.queries_per_sec)
        .int("job_errors", outcome.job_errors)
        .int("flagged", outcome.flagged)
        .raw("sustained", sustained.render())
        .raw("batch_latency_ms", latency.render())
        .raw("admission", admission)
        .raw(
            "cache",
            JsonObj::new()
                .u64("entries", outcome.cache.entries)
                .u64("capacity", outcome.cache.capacity)
                .u64("bytes", outcome.cache.bytes)
                .u64("hits", outcome.cache.hits)
                .u64("misses", outcome.cache.misses)
                .u64("evictions", outcome.cache.evictions)
                .render(),
        )
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_exercises_every_warm_source_and_cold_seeds() {
        let sources: Vec<GraphSource> = (0..16)
            .map(|i| job_for(Scale::Quick, 0, i).source)
            .collect();
        for warm in warm_sources(Scale::Quick) {
            assert!(
                sources.contains(&warm),
                "warm source {warm:?} never enters the mix"
            );
        }
        assert_eq!(
            sources
                .iter()
                .filter(|s| !warm_sources(Scale::Quick).contains(s))
                .count(),
            4,
            "one cold source per block of four"
        );
    }

    #[test]
    fn client_sweep_is_ascending_and_ends_at_the_fleet() {
        let quick = LoadConfig::for_scale(Scale::Quick);
        assert_eq!(quick.client_sweep(), vec![1, 2]);
        let full = LoadConfig::for_scale(Scale::Full);
        assert_eq!(full.client_sweep(), vec![1, 4, 8]);
        let one = LoadConfig {
            clients: 1,
            ..LoadConfig::for_scale(Scale::Quick)
        };
        assert_eq!(one.client_sweep(), vec![1]);
    }

    /// Regression pin for the measurement bug this module used to have:
    /// `queries_per_sec` was computed over a wall clock that *included*
    /// client-side batch construction. With a deliberately delayed batch
    /// build, the old-style window (clock around build + submit) and the
    /// new submit→last-reply window must visibly differ — the measured
    /// window excludes the build delay entirely.
    #[test]
    fn submit_window_excludes_delayed_batch_construction() {
        let cfg = LoadConfig {
            addr: None,
            clients: 1,
            batches_per_client: 1,
            jobs_per_batch: 2,
            scale: Scale::Quick,
        };
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                scale: cfg.scale,
                ..ServerConfig::default()
            },
        )
        .expect("in-process daemon boots");
        let addr = server.local_addr().to_string();

        let old_style_clock = Instant::now();
        // A delayed build: simulates expensive client-side job assembly.
        std::thread::sleep(std::time::Duration::from_millis(300));
        let batches = prepare_batches(&cfg, cfg.clients);
        let conns = vec![Client::connect(addr.as_str()).expect("connects")];
        let window = measure_submit_window(conns, batches).expect("load runs");
        let old_style_secs = old_style_clock.elapsed().as_secs_f64();
        server.shutdown();

        assert_eq!((window.job_errors, window.flagged), (0, 0));
        assert_eq!(
            window.batch_nanos.len(),
            cfg.batches_per_client,
            "one latency sample per batch"
        );
        assert!(
            old_style_secs >= window.wall_secs + 0.25,
            "the submit window ({:.3}s) must exclude the delayed \
             batch build (old-style window: {old_style_secs:.3}s)",
            window.wall_secs
        );
    }

    #[test]
    fn nearest_rank_percentiles_are_exact_and_ordered() {
        // 100 distinct samples: nearest-rank percentiles are the exact
        // order statistics, so the expectations are closed-form.
        let nanos: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        let lat = BatchLatency::from_samples(8, nanos);
        assert_eq!(lat.batches, 100);
        assert_eq!(lat.jobs_per_batch, 8);
        assert_eq!(lat.p50_ms, 50.0);
        assert_eq!(lat.p95_ms, 95.0);
        assert_eq!(lat.p99_ms, 99.0);
        assert!(lat.p50_ms <= lat.p95_ms && lat.p95_ms <= lat.p99_ms);
        // A single sample answers every percentile with itself.
        let one = BatchLatency::from_samples(1, vec![7_500_000]);
        assert_eq!((one.p50_ms, one.p95_ms, one.p99_ms), (7.5, 7.5, 7.5));
    }

    /// The admission probe against its tight in-process daemon: the
    /// pipelined burst sheds deterministically past the per-conn cap,
    /// the retrying flood fully lands, the scraped ledger agrees, and
    /// the queue-wait histogram counted every admitted job.
    #[test]
    fn admission_probe_sheds_and_recovers() {
        let probe = run_admission(Scale::Quick).expect("probe runs");
        assert_eq!(probe.limits.per_conn_inflight, 2);
        assert_eq!(probe.limits.max_pending_jobs, 8);
        assert_eq!(probe.pipelined_requests, 8);
        assert_eq!(
            (probe.accepted, probe.shed),
            (2, 6),
            "arrival-time classification at cap 2"
        );
        assert!(probe.min_retry_after_ms >= 10);
        assert_eq!(probe.errors, 0);
        assert_eq!(probe.flood_succeeded, probe.flood_submits);
        assert!(probe.shed_total >= probe.shed as f64);
        assert!(probe.admitted_total >= probe.accepted as f64);
        assert_eq!(probe.job_errors_total, 0.0);
        assert!(probe.queue_wait.count > 0, "admitted jobs waited in queue");
        assert!(
            probe.queue_wait.p50_ms <= probe.queue_wait.p95_ms
                && probe.queue_wait.p95_ms <= probe.queue_wait.p99_ms
        );
    }

    fn sample_outcome() -> LoadOutcome {
        LoadOutcome {
            clients: 2,
            batches: 8,
            jobs: 64,
            wall_secs: 0.5,
            queries_per_sec: 128.0,
            job_errors: 0,
            flagged: 0,
            cache: CacheStats {
                entries: 5,
                capacity: 64 << 20,
                bytes: 1 << 20,
                hits: 50,
                misses: 14,
                evictions: 0,
                ..CacheStats::default()
            },
            latency: vec![
                BatchLatency {
                    jobs_per_batch: 1,
                    batches: 8,
                    p50_ms: 2.0,
                    p95_ms: 3.5,
                    p99_ms: 4.0,
                },
                BatchLatency {
                    jobs_per_batch: 8,
                    batches: 8,
                    p50_ms: 9.0,
                    p95_ms: 14.0,
                    p99_ms: 15.5,
                },
            ],
            sustained: vec![
                SustainedRow {
                    clients: 1,
                    batches: 4,
                    jobs: 32,
                    wall_secs: 0.4,
                    queries_per_sec: 80.0,
                },
                SustainedRow {
                    clients: 2,
                    batches: 8,
                    jobs: 64,
                    wall_secs: 0.5,
                    queries_per_sec: 128.0,
                },
            ],
            admission: AdmissionProbe {
                limits: ServerLimits {
                    protocol_min: 1,
                    protocol_max: 3,
                    workers: 2,
                    max_pending_jobs: 8,
                    max_pending_bytes: 64 << 20,
                    per_conn_inflight: 2,
                    idle_timeout_ms: 900_000,
                    max_frame_len: 64 << 20,
                    max_batch_jobs: 10_000,
                },
                pipelined_requests: 8,
                accepted: 2,
                shed: 6,
                min_retry_after_ms: 10,
                flood_submits: 12,
                flood_succeeded: 12,
                errors: 0,
                admitted_total: 16.0,
                shed_total: 9.0,
                job_errors_total: 0.0,
                queue_wait: QueueWait {
                    count: 16,
                    p50_ms: 0.5,
                    p95_ms: 2.0,
                    p99_ms: 4.0,
                },
            },
        }
    }

    #[test]
    fn artifact_shape_is_stable() {
        let cfg = LoadConfig::for_scale(Scale::Quick);
        let json = render_artifact(&sample_outcome(), &cfg);
        assert!(json.starts_with("{\"schema\":\"arbodom-service/v4\""));
        assert!(json.contains("\"queries_per_sec\":128"));
        assert!(json.contains("\"hits\":50"));
        assert!(json.contains("\"bytes\":1048576"));
        assert!(json.contains("\"batch_latency_ms\":[{\"jobs_per_batch\":1"));
        assert!(json.contains("\"p99_ms\":15.5"));
        assert!(json.contains("\"sustained\":[{\"clients\":1"));
        assert!(json.contains("\"admission\":{\"limits\":{\"max_pending_jobs\":8"));
        assert!(json.contains("\"pipelined\":{\"requests\":8,\"accepted\":2,\"shed\":6"));
        assert!(json.contains("\"flood\":{\"submits\":12,\"succeeded\":12}"));
        assert!(json.contains("\"queue_wait_ms\":{\"count\":16,\"p50\":0.5"));
        // Parses back with the workspace's own JSON reader.
        arbodom_scenarios::json::JsonValue::parse(&json).expect("artifact parses");
    }

    #[test]
    fn queue_wait_scrape_reads_bucket_quantiles() {
        let text = "# TYPE arbodom_queue_wait_nanos histogram\n\
             arbodom_queue_wait_nanos_bucket{le=\"1048576\"} 10\n\
             arbodom_queue_wait_nanos_bucket{le=\"2097152\"} 19\n\
             arbodom_queue_wait_nanos_bucket{le=\"+Inf\"} 20\n\
             arbodom_queue_wait_nanos_sum 12345678\n\
             arbodom_queue_wait_nanos_count 20\n";
        let exp = arbodom_obs::prom::parse(text).expect("parses");
        let qw = scrape_queue_wait(&exp, "arbodom_queue_wait_nanos");
        assert_eq!(qw.count, 20);
        assert_eq!(qw.p50_ms, 1048576.0 / 1e6);
        assert_eq!(qw.p95_ms, 2097152.0 / 1e6);
        // The top observation only fits the +Inf bucket.
        assert!(qw.p99_ms > 1e9);
        // An empty histogram answers zeros, not infinities.
        let empty = arbodom_obs::prom::parse("arbodom_queue_wait_nanos_count 0\n").expect("parses");
        let qw = scrape_queue_wait(&empty, "arbodom_queue_wait_nanos");
        assert_eq!((qw.count, qw.p50_ms), (0, 0.0));
    }

    /// The quick load run produces the full v4 surface end to end:
    /// ordered latency percentiles per swept batch size, an ascending
    /// sustained ladder ending at the fleet, and a healthy admission
    /// probe.
    #[test]
    fn load_run_reports_ordered_latency_percentiles() {
        let cfg = LoadConfig {
            addr: None,
            clients: 2,
            batches_per_client: 3,
            jobs_per_batch: 6,
            scale: Scale::Quick,
        };
        let outcome = run_load(&cfg).expect("quick load runs");
        assert_eq!((outcome.job_errors, outcome.flagged), (0, 0));
        let sizes: Vec<usize> = outcome.latency.iter().map(|l| l.jobs_per_batch).collect();
        assert_eq!(sizes, vec![1, 4, 6], "sweeps plus the main run's size");
        for row in &outcome.latency {
            assert!(row.batches > 0);
            assert!(row.p50_ms > 0.0, "{}: zero median", row.jobs_per_batch);
            assert!(
                row.p50_ms <= row.p95_ms && row.p95_ms <= row.p99_ms,
                "{}: percentiles out of order",
                row.jobs_per_batch
            );
        }
        assert_eq!(
            outcome.latency.last().map(|l| l.batches),
            Some(outcome.batches),
            "the main run contributes every batch as a sample"
        );
        let clients: Vec<usize> = outcome.sustained.iter().map(|r| r.clients).collect();
        assert_eq!(clients, vec![1, 2], "sweep ends at the fleet");
        for row in &outcome.sustained {
            assert!(row.queries_per_sec > 0.0);
            assert_eq!(row.jobs, row.clients * 3 * 6);
        }
        assert!(outcome.admission.shed > 0, "the probe must shed");
        assert_eq!(outcome.admission.errors, 0);
    }
}
