//! Server-side sessions: owned dynamic solve state behind the v2
//! protocol.
//!
//! A [`Session`] is what [`crate::protocol::Request::Open`] creates — a
//! [`arbodom_core::repair::Maintainer`] (the mutated graph, the
//! maintained dominating set, the drift anchor, and the digest chain of
//! the mutation history) plus the algorithm and seed the instance was
//! opened with. `Mutate` requests apply edge-delta batches and keep the
//! set valid by **local incremental repair**, falling back to a certified
//! full re-solve when the drift bound trips (or unconditionally under
//! [`SessionPolicy::Resolve`]); `Resolve` forces the fallback;
//! `Release` drops the state.
//!
//! Sessions are heavyweight (an owned graph plus the maintained set), and
//! clients crash or wander off without releasing — an unbounded registry
//! is a memory leak with a protocol attached. [`SessionTable`] therefore
//! evicts on two axes, both lazy (enforced on the next table access, no
//! background thread): an **idle TTL** ([`SessionLimits::idle_ttl`]) and
//! a **hard cap** on live sessions ([`SessionLimits::max_sessions`],
//! least-recently-used victim). Evicted ids keep answering with a *typed*
//! reason ([`SessionLost::Expired`] / [`SessionLost::Displaced`]) so a
//! returning client can tell "the server dropped my state" from "I never
//! had a session", and the daemon's `Stats` reply reports live session
//! count and resident bytes alongside the graph cache's.
//!
//! Sessions are addressable from regular batch jobs too:
//! [`crate::protocol::GraphSource::Session`] snapshots a session's
//! *current* graph, so the whole read-side query surface works on a
//! mutating instance.
//!
//! Determinism: a session's replies are a pure function of the open spec
//! and the mutation history. Repairs run no simulation at all; fallback
//! solves run the same thread-count-independent simulator entry points
//! batch jobs use. The graph's α is re-measured (degeneracy) after every
//! batch — churn can push an instance out of its family's constructive
//! bound, and the accounting must say so rather than inherit a stale α.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use arbodom_congest::{RunOptions, Telemetry};
use arbodom_core::repair::{Maintainer, RepairConfig};
use arbodom_core::{verify, DsResult};
use arbodom_graph::digest::edge_digest;
use arbodom_graph::{orientation, Graph, GraphDelta};
use arbodom_scenarios::{quality, Algorithm};

use crate::protocol::{DeltaSpec, JobResult, RepairStats, SessionPolicy};

/// Measured degeneracy of `g` — the honest α for a mutated graph, which
/// may have left its family's constructive bound.
fn measured_alpha(g: &Graph) -> usize {
    orientation::degeneracy_order(g).1.max(1)
}

/// The full re-solve every session path hands its maintainer:
/// `algorithm` on the current graph at its measured α. The run's
/// telemetry lands in `telemetry`, for the reply.
fn solver(
    algorithm: Algorithm,
    seed: u64,
    sim_threads: usize,
    telemetry: &RefCell<Option<Telemetry>>,
) -> impl Fn(&Graph) -> arbodom_core::Result<DsResult> + '_ {
    move |g| {
        let (sol, tel) = algorithm.execute(
            g,
            measured_alpha(g),
            seed,
            &RunOptions::default(),
            sim_threads,
        )?;
        *telemetry.borrow_mut() = Some(tel);
        Ok(sol)
    }
}

/// One open session: the maintainer plus how its solves run.
#[derive(Debug)]
pub struct Session {
    maintainer: Maintainer,
    algorithm: Algorithm,
    alpha: usize,
    seed: u64,
}

impl Session {
    /// Adopts a solved instance. `solution` must be a valid dominating
    /// set of `graph` (checked by the caller; the maintainer asserts it).
    pub fn new(
        graph: Graph,
        solution: &DsResult,
        algorithm: Algorithm,
        alpha: usize,
        seed: u64,
    ) -> Self {
        Session {
            maintainer: Maintainer::new(graph, solution, RepairConfig::default()),
            algorithm,
            alpha,
            seed,
        }
    }

    /// A snapshot of the session's current graph, for
    /// [`crate::protocol::GraphSource::Session`] jobs.
    pub fn graph_snapshot(&self) -> Graph {
        self.maintainer.graph().clone()
    }

    /// The α the session's accounting currently runs with.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// The algorithm the session was opened with (the default for jobs
    /// addressing this session).
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Resident bytes this session charges against the daemon's session
    /// accounting: the owned graph's footprint plus the membership flags
    /// (the counterpart of the graph cache's per-entry cost).
    pub fn cost_bytes(&self) -> u64 {
        (self.maintainer.graph().memory_footprint().total() + self.maintainer.in_ds().len()) as u64
    }

    /// Applies one edge-delta batch under `policy`.
    ///
    /// # Errors
    ///
    /// A job-level message when the delta is malformed or conflicts with
    /// the current edge set (the session is unchanged), or when the
    /// fallback re-solve fails.
    pub fn mutate(
        &mut self,
        delta: &DeltaSpec,
        policy: SessionPolicy,
        sim_threads: usize,
    ) -> Result<(JobResult, RepairStats), String> {
        let delta = GraphDelta::new(delta.inserts.iter().copied(), delta.deletes.iter().copied())
            .map_err(|e| format!("invalid delta: {e}"))?;
        let telemetry = RefCell::new(None);
        let solve = solver(self.algorithm, self.seed, sim_threads, &telemetry);
        let mut outcome = self
            .maintainer
            .apply(&delta, &solve)
            .map_err(|e| format!("mutate failed: {e}"))?;
        if policy == SessionPolicy::Resolve && outcome.repaired {
            // The drift bound did not trip, but the client asked for a
            // certified batch: run the fallback anyway.
            self.maintainer
                .resolve_with(&solve)
                .map_err(|e| format!("re-solve failed: {e}"))?;
            outcome.repaired = false;
            outcome.added.clear();
            outcome.removed.clear();
            outcome.weight = self.maintainer.weight();
            outcome.drift_estimate = self.maintainer.drift_estimate();
        }
        self.alpha = measured_alpha(self.maintainer.graph());
        let repair = RepairStats {
            repaired: outcome.repaired,
            added: outcome.added.len() as u64,
            removed: outcome.removed.len() as u64,
            undominated_before: outcome.undominated_before as u64,
            drift_estimate: outcome.drift_estimate,
            batches_since_solve: self.maintainer.batches_since_solve() as u64,
            chain: self.maintainer.chain(),
        };
        Ok((self.result_snapshot(telemetry.take()), repair))
    }

    /// Forces a certified full re-solve on the current graph.
    ///
    /// # Errors
    ///
    /// A job-level message when the solve fails.
    pub fn resolve(&mut self, sim_threads: usize) -> Result<(JobResult, RepairStats), String> {
        let telemetry = RefCell::new(None);
        self.maintainer
            .resolve_with(solver(self.algorithm, self.seed, sim_threads, &telemetry))
            .map_err(|e| format!("re-solve failed: {e}"))?;
        self.alpha = measured_alpha(self.maintainer.graph());
        let repair = RepairStats {
            repaired: false,
            added: 0,
            removed: 0,
            undominated_before: 0,
            drift_estimate: self.maintainer.drift_estimate(),
            batches_since_solve: self.maintainer.batches_since_solve() as u64,
            chain: self.maintainer.chain(),
        };
        Ok((self.result_snapshot(telemetry.into_inner()), repair))
    }

    /// Quality-accounts the maintained set on the current graph. The
    /// planted reference (if the instance had one) is stale after any
    /// mutation, so sessions always account against exact/packing
    /// references; rounds and message counters reflect only what this
    /// batch actually simulated (all zero for a kept local repair).
    fn result_snapshot(&self, telemetry: Option<Telemetry>) -> JobResult {
        let g = self.maintainer.graph();
        let sol = DsResult::from_flags(g, self.maintainer.in_ds().to_vec(), 0, None);
        let undominated = verify::undominated_nodes(g, &sol.in_ds).len();
        let valid = undominated == 0;
        let guarantee = self.algorithm.guarantee(self.alpha, g.max_degree());
        let account = quality::account(g, &sol, None, guarantee, valid, false);
        let tel = telemetry.unwrap_or_default();
        JobResult {
            n: g.n() as u64,
            m: g.m() as u64,
            max_degree: g.max_degree() as u64,
            alpha: self.alpha as u64,
            graph_digest: edge_digest(g),
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
            rounds: tel.rounds as u64,
            round_budget: self.algorithm.round_budget(self.alpha, g.max_degree()) as u64,
            messages: tel.total_messages as u64,
            total_bits: tel.total_bits as u64,
            max_message_bits: tel.max_message_bits as u64,
            budget_violations: tel.budget_violations as u64,
            dropped_messages: tel.dropped_messages as u64,
            members: None,
        }
    }
}

/// Eviction policy for the session registry.
#[derive(Clone, Copy, Debug)]
pub struct SessionLimits {
    /// Sessions untouched for longer than this are evicted (lazily, on
    /// the next table access — there is no background sweeper thread).
    pub idle_ttl: Duration,
    /// Hard cap on live sessions; inserting past it evicts the
    /// least-recently-used session first. Clamped to at least 1 — the
    /// session just opened must be addressable.
    pub max_sessions: usize,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            idle_ttl: Duration::from_secs(900),
            max_sessions: 64,
        }
    }
}

/// Why a session id no longer resolves — the typed half of the session
/// lookup contract, turned into a job-level error string at the server
/// boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionLost {
    /// Evicted after idling past [`SessionLimits::idle_ttl`].
    Expired,
    /// Evicted as the least-recently-used victim of
    /// [`SessionLimits::max_sessions`].
    Displaced,
    /// Released by a client, or never opened.
    Unknown,
}

impl SessionLost {
    /// The job-level error message for a failed lookup of `id`.
    pub fn describe(self, id: u64) -> String {
        format!("{} session {id} ({})", self.noun(), self)
    }

    fn noun(self) -> &'static str {
        match self {
            SessionLost::Expired => "expired",
            SessionLost::Displaced => "evicted",
            SessionLost::Unknown => "unknown",
        }
    }
}

impl fmt::Display for SessionLost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SessionLost::Expired => "idle past the server's session TTL; reopen to continue",
            SessionLost::Displaced => {
                "evicted to stay under the server's session cap; reopen to continue"
            }
            SessionLost::Unknown => "released or never opened",
        })
    }
}

struct TableEntry {
    session: Arc<Mutex<Session>>,
    last_used: Instant,
    bytes: u64,
}

#[derive(Default)]
struct TableInner {
    live: HashMap<u64, TableEntry>,
    /// Ids evicted *by policy* and why, so later lookups get a typed
    /// answer instead of "unknown". Bounded: ids are monotonic, so the
    /// smallest key is the oldest record and is dropped past the cap.
    lost: BTreeMap<u64, SessionLost>,
    evictions: u64,
}

/// How many policy-evicted ids keep their typed reason. Past this, the
/// oldest degrade to [`SessionLost::Unknown`] — a bounded table cannot
/// grow an unbounded tombstone map in a leak fix.
const LOST_RECORDS_MAX: usize = 1024;

impl TableInner {
    fn mark_lost(&mut self, id: u64, why: SessionLost) {
        self.lost.insert(id, why);
        self.evictions += 1;
        while self.lost.len() > LOST_RECORDS_MAX {
            self.lost.pop_first();
        }
    }

    /// Evicts everything idle past the TTL. Runs on every table access;
    /// cheap because tables are small by construction (`max_sessions`).
    fn sweep(&mut self, now: Instant, ttl: Duration) {
        let expired: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, e)| now.duration_since(e.last_used) > ttl)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.live.remove(&id);
            self.mark_lost(id, SessionLost::Expired);
        }
    }
}

/// The daemon's session registry: ids to live sessions. Shared across
/// connections — a session opened on one connection is addressable from
/// any other (ids are capabilities only in the loopback-trust sense the
/// whole daemon operates under). Bounded by [`SessionLimits`]: idle
/// sessions expire, and the cap evicts least-recently-used — see the
/// module docs.
#[derive(Default)]
pub struct SessionTable {
    inner: Mutex<TableInner>,
    next_id: AtomicU64,
    limits: SessionLimits,
}

impl SessionTable {
    /// An empty table with the default [`SessionLimits`].
    pub fn new() -> Self {
        SessionTable::default()
    }

    /// An empty table with explicit limits.
    pub fn with_limits(limits: SessionLimits) -> Self {
        SessionTable {
            limits,
            ..SessionTable::default()
        }
    }

    /// Registers a session, returning its id (ids start at 1; 0 is the
    /// wire's "no session" sentinel). Sweeps expired sessions first, then
    /// evicts least-recently-used live ones until the new session fits
    /// under [`SessionLimits::max_sessions`].
    pub fn insert(&self, session: Session) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let bytes = session.cost_bytes();
        let now = Instant::now();
        let mut inner = self.lock();
        inner.sweep(now, self.limits.idle_ttl);
        while inner.live.len() >= self.limits.max_sessions.max(1) {
            let victim = inner
                .live
                .iter()
                .min_by_key(|(&vid, e)| (e.last_used, vid))
                .map(|(&vid, _)| vid);
            let Some(victim) = victim else { break };
            inner.live.remove(&victim);
            inner.mark_lost(victim, SessionLost::Displaced);
        }
        inner.live.insert(
            id,
            TableEntry {
                session: Arc::new(Mutex::new(session)),
                last_used: now,
                bytes,
            },
        );
        id
    }

    /// Looks up a live session, bumping its recency.
    ///
    /// # Errors
    ///
    /// [`SessionLost`] saying *why* the id does not resolve: expired,
    /// displaced by the cap, or plain unknown.
    pub fn get(&self, id: u64) -> Result<Arc<Mutex<Session>>, SessionLost> {
        let now = Instant::now();
        let mut inner = self.lock();
        inner.sweep(now, self.limits.idle_ttl);
        if let Some(entry) = inner.live.get_mut(&id) {
            entry.last_used = now;
            return Ok(Arc::clone(&entry.session));
        }
        Err(inner.lost.get(&id).copied().unwrap_or(SessionLost::Unknown))
    }

    /// Re-records a session's resident bytes (after a mutation changed
    /// its graph) and bumps its recency. A no-op for ids already evicted.
    pub fn record_usage(&self, id: u64, bytes: u64) {
        let now = Instant::now();
        let mut inner = self.lock();
        if let Some(entry) = inner.live.get_mut(&id) {
            entry.last_used = now;
            entry.bytes = bytes;
        }
    }

    /// Drops a session; returns whether it was live.
    pub fn remove(&self, id: u64) -> bool {
        let now = Instant::now();
        let mut inner = self.lock();
        inner.sweep(now, self.limits.idle_ttl);
        inner.live.remove(&id).is_some()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.usage().0 as usize
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live session count, their resident bytes, and sessions evicted by
    /// policy so far — the session block of the daemon's `Stats` reply.
    pub fn usage(&self) -> (u64, u64, u64) {
        let now = Instant::now();
        let mut inner = self.lock();
        inner.sweep(now, self.limits.idle_ttl);
        let bytes = inner.live.values().map(|e| e.bytes).sum();
        (inner.live.len() as u64, bytes, inner.evictions)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner> {
        self.inner.lock().expect("session table poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbodom_core::weighted;
    use arbodom_graph::generators;

    fn session(n: usize) -> Session {
        let g = generators::path(n);
        let sol = weighted::solve(&g, &weighted::Config::new(1, 0.2).unwrap()).unwrap();
        Session::new(g, &sol, Algorithm::Weighted { eps: 0.2 }, 1, 7)
    }

    fn limits(ttl: Duration, max_sessions: usize) -> SessionLimits {
        SessionLimits {
            idle_ttl: ttl,
            max_sessions,
        }
    }

    /// The leak regression: before eviction existed, an abandoned
    /// session lived (and held its graph) forever. Now idling past the
    /// TTL evicts it, and the id answers with the *typed* expiry reason.
    #[test]
    fn idle_sessions_expire_with_a_typed_reason() {
        let table = SessionTable::with_limits(limits(Duration::from_millis(30), 8));
        let id = table.insert(session(20));
        assert!(table.get(id).is_ok(), "fresh session resolves");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(table.get(id).unwrap_err(), SessionLost::Expired);
        let (live, bytes, evictions) = table.usage();
        assert_eq!(live, 0, "expired session must be gone");
        assert_eq!(bytes, 0, "its graph must no longer be charged");
        assert_eq!(evictions, 1);
        assert!(!table.remove(id), "nothing left to release");
    }

    #[test]
    fn touches_keep_a_session_alive_past_its_original_deadline() {
        let table = SessionTable::with_limits(limits(Duration::from_millis(80), 8));
        let id = table.insert(session(20));
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(30));
            assert!(table.get(id).is_ok(), "touched session never expires");
        }
    }

    #[test]
    fn session_cap_displaces_the_least_recently_used() {
        let table = SessionTable::with_limits(limits(Duration::from_secs(3600), 2));
        let a = table.insert(session(10));
        std::thread::sleep(Duration::from_millis(5));
        let b = table.insert(session(10));
        std::thread::sleep(Duration::from_millis(5));
        table.get(a).unwrap(); // b is now the coldest
        std::thread::sleep(Duration::from_millis(5));
        let c = table.insert(session(10));
        assert_eq!(table.get(b).unwrap_err(), SessionLost::Displaced);
        assert!(table.get(a).is_ok(), "recently touched survives");
        assert!(table.get(c).is_ok(), "the new session is admitted");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn released_and_never_opened_ids_are_unknown_not_expired() {
        let table = SessionTable::new();
        let id = table.insert(session(10));
        assert!(table.remove(id));
        assert_eq!(table.get(id).unwrap_err(), SessionLost::Unknown);
        assert_eq!(table.get(9999).unwrap_err(), SessionLost::Unknown);
        let (live, bytes, evictions) = table.usage();
        assert_eq!(
            (live, bytes, evictions),
            (0, 0, 0),
            "release is not eviction"
        );
    }

    #[test]
    fn usage_reports_resident_bytes_and_tracks_mutations() {
        let table = SessionTable::new();
        let s = session(30);
        let cost = s.cost_bytes();
        assert!(cost > 0);
        let id = table.insert(s);
        assert_eq!(table.usage().1, cost);
        // A mutation grew the graph: the server re-records the new cost.
        table.record_usage(id, cost + 128);
        assert_eq!(table.usage().1, cost + 128);
    }

    #[test]
    fn lost_reasons_render_the_wire_error_strings() {
        assert_eq!(
            SessionLost::Unknown.describe(3),
            "unknown session 3 (released or never opened)"
        );
        assert!(SessionLost::Expired
            .describe(4)
            .starts_with("expired session 4"));
        assert!(SessionLost::Displaced
            .describe(5)
            .starts_with("evicted session 5"));
    }
}
