//! Daemon-side observability: the pre-resolved metric handles the
//! server records request lifecycles into, and the names they render
//! under in the [`crate::protocol::Request::Metrics`] scrape.
//!
//! The service metrics are **always on** — unlike the simulator's
//! opt-in phase timing ([`arbodom_congest::RunOptions::obs`]), a
//! daemon's request latencies cost a handful of clock reads per request
//! against work that opens sockets and runs distributed simulations, so
//! there is nothing worth switching off. Everything is a side channel:
//! replies are byte-identical with or without a scraper attached.
//!
//! Naming: flat Prometheus-legal names only (no labels). Per-request-
//! kind series put the kind in a `_<kind>` suffix —
//! `arbodom_request_nanos_batch`, `arbodom_requests_total_open` — so
//! the renderer and parser stay label-free; lifecycle phases get one
//! histogram each (`arbodom_decode_nanos` … `arbodom_write_nanos`).
//! Gauges mirroring cache/session state are refreshed from their
//! authoritative sources at scrape time and at shutdown, never
//! incrementally.

use arbodom_obs::{Counter, Gauge, Histogram, Registry};

use crate::protocol::Request;

/// Request kinds a connection can serve, in wire-tag order — the
/// `_<kind>` suffixes of the per-kind series.
pub const REQUEST_KINDS: [&str; 10] = [
    "ping", "batch", "stats", "shutdown", "open", "mutate", "resolve", "release", "metrics",
    "hello",
];

/// Prefix of the per-kind whole-request latency histograms
/// (`arbodom_request_nanos_batch`, …): nanoseconds from a decoded frame
/// to the last response byte handed to the socket.
pub const REQUEST_NANOS_PREFIX: &str = "arbodom_request_nanos_";
/// Prefix of the per-kind request counters
/// (`arbodom_requests_total_batch`, …).
pub const REQUESTS_TOTAL_PREFIX: &str = "arbodom_requests_total_";

/// Nanoseconds decoding one request payload.
pub const DECODE_NANOS: &str = "arbodom_decode_nanos";
/// Nanoseconds a graph-cache lookup held the cache lock (hit or miss).
pub const CACHE_LOOKUP_NANOS: &str = "arbodom_cache_lookup_nanos";
/// Nanoseconds a scheduled job — one batch job or one session operation
/// (`Open`, `Mutate`, `Resolve`) — waited between scheduler submission
/// and a worker picking it up.
pub const QUEUE_WAIT_NANOS: &str = "arbodom_queue_wait_nanos";
/// Nanoseconds one algorithm run (the simulator solve) took.
pub const SOLVE_NANOS: &str = "arbodom_solve_nanos";
/// Nanoseconds encoding one response payload.
pub const ENCODE_NANOS: &str = "arbodom_encode_nanos";
/// Nanoseconds writing one response frame to the socket.
pub const WRITE_NANOS: &str = "arbodom_write_nanos";

/// Batch jobs executed (one per `Response::Job` frame).
pub const JOBS_TOTAL: &str = "arbodom_jobs_total";
/// Batch jobs that returned a job-level error.
pub const JOB_ERRORS_TOTAL: &str = "arbodom_job_errors_total";
/// Panics converted into job-level errors (batch workers and guarded
/// session operations).
pub const PANICS_CAUGHT_TOTAL: &str = "arbodom_panics_caught_total";
/// Sessions successfully opened.
pub const SESSIONS_OPENED_TOTAL: &str = "arbodom_sessions_opened_total";
/// Mutation batches kept by local incremental repair.
pub const REPAIRS_TOTAL: &str = "arbodom_repairs_total";
/// Mutation batches that fell back to (or forced) a full re-solve.
pub const REPAIR_FALLBACKS_TOTAL: &str = "arbodom_repair_fallbacks_total";
/// Nanoseconds of each stage of a session mutate: the maintainer's
/// apply, α, the packing update, verify, and account. They run in that
/// order, except that a re-solve, when one runs, comes after the packing
/// update and still counts in `apply`. `apply` is observed for every
/// batch that reaches the maintainer, one that conflicts or whose
/// re-solve fails included; the other four once per successful mutate.
pub const SESSION_STAGE_NANOS: [&str; 5] = [
    "arbodom_session_apply_nanos",
    "arbodom_session_alpha_nanos",
    "arbodom_session_packing_nanos",
    "arbodom_session_verify_nanos",
    "arbodom_session_account_nanos",
];
/// Whole-graph α peels sessions ran: each builds a degeneracy
/// certificate, on a session's first mutate or resolve and after a batch
/// broke the last one. Only a batch that changes the degeneracy or
/// empties the certificate's witness set breaks it.
pub const ALPHA_PEELS_TOTAL: &str = "arbodom_alpha_peels_total";

/// Graphs resident in the cache (scrape-time mirror).
pub const CACHE_ENTRIES: &str = "arbodom_cache_entries";
/// Bytes resident in the cache (scrape-time mirror).
pub const CACHE_BYTES: &str = "arbodom_cache_bytes";
/// Cache hits so far (scrape-time mirror of the cache's own counter).
pub const CACHE_HITS: &str = "arbodom_cache_hits";
/// Cache misses so far (scrape-time mirror).
pub const CACHE_MISSES: &str = "arbodom_cache_misses";
/// Cache LRU evictions so far (scrape-time mirror).
pub const CACHE_EVICTIONS: &str = "arbodom_cache_evictions";
/// Live sessions (scrape-time mirror).
pub const SESSIONS_LIVE: &str = "arbodom_sessions_live";
/// Resident bytes of live sessions (scrape-time mirror).
pub const SESSION_BYTES: &str = "arbodom_session_bytes";
/// Sessions evicted by policy so far (scrape-time mirror).
pub const SESSION_EVICTIONS: &str = "arbodom_session_evictions";

/// Admitted-but-unfinished jobs (live reactor gauge, the admission
/// queue depth).
pub const PENDING_JOBS: &str = "arbodom_pending_jobs";
/// Admitted-but-unfinished request payload bytes (live reactor gauge).
pub const PENDING_BYTES: &str = "arbodom_pending_bytes";
/// Connections the reactor currently owns (live reactor gauge).
pub const CONNECTIONS_OPEN: &str = "arbodom_connections_open";
/// Connections accepted since boot.
pub const CONNECTIONS_ACCEPTED_TOTAL: &str = "arbodom_connections_accepted_total";
/// Connections closed by the idle timeout (slow-loris defense).
pub const CONNECTIONS_IDLE_CLOSED_TOTAL: &str = "arbodom_connections_idle_closed_total";
/// Requests admitted past admission control (dispatched to workers).
pub const REQUESTS_ADMITTED_TOTAL: &str = "arbodom_requests_admitted_total";
/// Requests shed by admission control (answered `Overloaded` without
/// executing).
pub const REQUESTS_SHED_TOTAL: &str = "arbodom_requests_shed_total";

/// The wire request kinds, as indices into the per-kind metric arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    /// [`Request::Ping`].
    Ping = 0,
    /// [`Request::Batch`].
    Batch = 1,
    /// [`Request::Stats`].
    Stats = 2,
    /// [`Request::Shutdown`].
    Shutdown = 3,
    /// [`Request::Open`].
    Open = 4,
    /// [`Request::Mutate`].
    Mutate = 5,
    /// [`Request::Resolve`].
    Resolve = 6,
    /// [`Request::Release`].
    Release = 7,
    /// [`Request::Metrics`].
    Metrics = 8,
    /// [`Request::Hello`].
    Hello = 9,
}

impl ReqKind {
    /// The kind of a decoded request.
    pub fn of(request: &Request) -> Self {
        match request {
            Request::Ping => ReqKind::Ping,
            Request::Batch(_) => ReqKind::Batch,
            Request::Stats => ReqKind::Stats,
            Request::Shutdown => ReqKind::Shutdown,
            Request::Open(_) => ReqKind::Open,
            Request::Mutate { .. } => ReqKind::Mutate,
            Request::Resolve { .. } => ReqKind::Resolve,
            Request::Release { .. } => ReqKind::Release,
            Request::Metrics => ReqKind::Metrics,
            Request::Hello => ReqKind::Hello,
        }
    }

    /// The `_<kind>` suffix this kind renders under.
    pub fn label(self) -> &'static str {
        REQUEST_KINDS[self as usize]
    }
}

/// The session metrics a mutate or resolve records into. The default
/// handles belong to no registry.
#[derive(Clone, Debug, Default)]
pub struct SessionObs {
    // One histogram per `SESSION_STAGE_NANOS` stage, in order.
    pub(crate) apply: Histogram,
    pub(crate) alpha: Histogram,
    pub(crate) packing: Histogram,
    pub(crate) verify: Histogram,
    pub(crate) account: Histogram,
    pub(crate) alpha_peels: Counter,
}

impl SessionObs {
    fn new(registry: &Registry) -> Self {
        let [apply, alpha, packing, verify, account] =
            SESSION_STAGE_NANOS.map(|name| registry.histogram(name));
        SessionObs {
            apply,
            alpha,
            packing,
            verify,
            account,
            alpha_peels: registry.counter(ALPHA_PEELS_TOTAL),
        }
    }
}

/// Pre-resolved daemon metric handles, cheap to clone (every handle is
/// an `Arc`). One is built per [`crate::Server`] and threaded into the
/// [`crate::jobs::ExecContext`] every worker clones.
#[derive(Clone, Debug)]
pub struct ServiceObs {
    pub(crate) request_nanos: [Histogram; 10],
    pub(crate) requests_total: [Counter; 10],
    pub(crate) decode: Histogram,
    pub(crate) cache_lookup: Histogram,
    pub(crate) queue_wait: Histogram,
    pub(crate) solve: Histogram,
    pub(crate) encode: Histogram,
    pub(crate) write: Histogram,
    pub(crate) jobs: Counter,
    pub(crate) job_errors: Counter,
    pub(crate) panics: Counter,
    pub(crate) sessions_opened: Counter,
    pub(crate) repairs: Counter,
    pub(crate) repair_fallbacks: Counter,
    pub(crate) session: SessionObs,
    pub(crate) cache_entries: Gauge,
    pub(crate) cache_bytes: Gauge,
    pub(crate) cache_hits: Gauge,
    pub(crate) cache_misses: Gauge,
    pub(crate) cache_evictions: Gauge,
    pub(crate) sessions_live: Gauge,
    pub(crate) session_bytes: Gauge,
    pub(crate) session_evictions: Gauge,
    pub(crate) pending_jobs: Gauge,
    pub(crate) pending_bytes: Gauge,
    pub(crate) connections_open: Gauge,
    pub(crate) connections_accepted: Counter,
    pub(crate) connections_idle_closed: Counter,
    pub(crate) requests_admitted: Counter,
    pub(crate) requests_shed: Counter,
}

impl ServiceObs {
    /// Resolves (registering on first use) the daemon metrics in
    /// `registry`.
    pub fn new(registry: &Registry) -> Self {
        ServiceObs {
            request_nanos: std::array::from_fn(|i| {
                registry.histogram(&format!("{REQUEST_NANOS_PREFIX}{}", REQUEST_KINDS[i]))
            }),
            requests_total: std::array::from_fn(|i| {
                registry.counter(&format!("{REQUESTS_TOTAL_PREFIX}{}", REQUEST_KINDS[i]))
            }),
            decode: registry.histogram(DECODE_NANOS),
            cache_lookup: registry.histogram(CACHE_LOOKUP_NANOS),
            queue_wait: registry.histogram(QUEUE_WAIT_NANOS),
            solve: registry.histogram(SOLVE_NANOS),
            encode: registry.histogram(ENCODE_NANOS),
            write: registry.histogram(WRITE_NANOS),
            jobs: registry.counter(JOBS_TOTAL),
            job_errors: registry.counter(JOB_ERRORS_TOTAL),
            panics: registry.counter(PANICS_CAUGHT_TOTAL),
            sessions_opened: registry.counter(SESSIONS_OPENED_TOTAL),
            repairs: registry.counter(REPAIRS_TOTAL),
            repair_fallbacks: registry.counter(REPAIR_FALLBACKS_TOTAL),
            session: SessionObs::new(registry),
            cache_entries: registry.gauge(CACHE_ENTRIES),
            cache_bytes: registry.gauge(CACHE_BYTES),
            cache_hits: registry.gauge(CACHE_HITS),
            cache_misses: registry.gauge(CACHE_MISSES),
            cache_evictions: registry.gauge(CACHE_EVICTIONS),
            sessions_live: registry.gauge(SESSIONS_LIVE),
            session_bytes: registry.gauge(SESSION_BYTES),
            session_evictions: registry.gauge(SESSION_EVICTIONS),
            pending_jobs: registry.gauge(PENDING_JOBS),
            pending_bytes: registry.gauge(PENDING_BYTES),
            connections_open: registry.gauge(CONNECTIONS_OPEN),
            connections_accepted: registry.counter(CONNECTIONS_ACCEPTED_TOTAL),
            connections_idle_closed: registry.counter(CONNECTIONS_IDLE_CLOSED_TOTAL),
            requests_admitted: registry.counter(REQUESTS_ADMITTED_TOTAL),
            requests_shed: registry.counter(REQUESTS_SHED_TOTAL),
        }
    }

    /// Records a kept-vs-fallback maintenance outcome.
    pub(crate) fn record_repair(&self, repaired: bool) {
        if repaired {
            self.repairs.inc();
        } else {
            self.repair_fallbacks.inc();
        }
    }

    /// Refreshes the scrape-time mirror gauges from their authoritative
    /// sources (the cache's own stats and the session table's usage).
    pub(crate) fn set_resource_gauges(
        &self,
        cache: &crate::protocol::CacheStats,
        sessions: (u64, u64, u64),
    ) {
        self.cache_entries.set(cache.entries);
        self.cache_bytes.set(cache.bytes);
        self.cache_hits.set(cache.hits);
        self.cache_misses.set(cache.misses);
        self.cache_evictions.set(cache.evictions);
        let (live, bytes, evictions) = sessions;
        self.sessions_live.set(live);
        self.session_bytes.set(bytes);
        self.session_evictions.set(evictions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_their_wire_requests() {
        assert_eq!(ReqKind::of(&Request::Ping).label(), "ping");
        assert_eq!(ReqKind::of(&Request::Metrics).label(), "metrics");
        assert_eq!(ReqKind::of(&Request::Hello).label(), "hello");
        assert_eq!(ReqKind::of(&Request::Batch(vec![])).label(), "batch");
        assert_eq!(
            ReqKind::of(&Request::Release { session: 1 }).label(),
            "release"
        );
    }

    #[test]
    fn service_obs_registers_prometheus_legal_names() {
        let registry = Registry::new();
        let obs = ServiceObs::new(&registry);
        obs.requests_total[ReqKind::Batch as usize].inc();
        obs.request_nanos[ReqKind::Batch as usize].observe(1_000);
        obs.jobs.add(3);
        let text = registry.render_prometheus();
        let exp = arbodom_obs::prom::parse(&text).expect("scrape parses");
        exp.validate_histograms().expect("histograms consistent");
        assert_eq!(exp.value("arbodom_requests_total_batch"), Some(1.0));
        assert_eq!(exp.value("arbodom_jobs_total"), Some(3.0));
        // Every registered kind series exists, even before traffic.
        for kind in REQUEST_KINDS {
            assert!(
                exp.value(&format!("{REQUESTS_TOTAL_PREFIX}{kind}"))
                    .is_some(),
                "missing counter for {kind}"
            );
        }
        // The admission surface registers too, zeroed before traffic.
        for name in [
            PENDING_JOBS,
            PENDING_BYTES,
            CONNECTIONS_OPEN,
            CONNECTIONS_ACCEPTED_TOTAL,
            CONNECTIONS_IDLE_CLOSED_TOTAL,
            REQUESTS_ADMITTED_TOTAL,
            REQUESTS_SHED_TOTAL,
        ] {
            assert_eq!(
                exp.value(name),
                Some(0.0),
                "missing admission series {name}"
            );
        }
    }
}
