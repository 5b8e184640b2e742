//! Server-side sessions: owned dynamic solve state behind the session
//! requests.
//!
//! A [`Session`] is what [`crate::protocol::Request::Open`] creates — a
//! [`arbodom_core::repair::Maintainer`] (the mutated graph and its
//! digest, the maintained dominating set, the drift anchor, and the
//! digest chain of the mutation history) plus the algorithm and seed the
//! instance was opened with. `Mutate` requests apply edge-delta batches
//! and keep the set valid by **local incremental repair**, falling back
//! to a certified full re-solve when the drift bound trips (or
//! unconditionally under [`SessionPolicy::Resolve`]); `Resolve` forces
//! the fallback; `Release` drops the state.
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
//! batch jobs use. Every reply, and every re-solve, runs at the current
//! graph's measured α, its degeneracy: churn can push an instance out of
//! its family's constructive bound, and the accounting must say so rather
//! than inherit a stale α.
//!
//! Cost: every reply restates the quality reference of the current graph
//! ([`arbodom_scenarios::quality`]). On a unit-weight graph the session
//! keeps the greedy packing behind the packing lower bound current with
//! each batch ([`MaintainedPacking`]), so that reference costs what the
//! batch costs; a weighted session recomputes it over the whole graph.
//! The reply's `graph_digest` is the maintainer's digest, which each batch
//! updates in `O(|δ|)`. α and Δ come from a [`DegeneracyCertificate`]
//! that folds each batch, reordering the few nodes an insertion leaves
//! with too many later neighbors. A whole-graph core peel runs only to
//! build one: on the session's first mutate or resolve, and after a batch
//! that changed the degeneracy or emptied the certificate's witness set.
//! The set's size and weight are the maintainer's counters.
//!
//! Failures: a mutate runs [`Maintainer::repair`], then folds the batch
//! into the certificate and the packing, and only then re-solves, if the
//! drift bound or the policy asks for it. Every value the session keeps
//! of its graph is current before anything that can fail. A conflicting
//! batch therefore changes nothing, and a failed re-solve leaves the
//! batch applied with every value already current; no failure drops or
//! rebuilds one.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use arbodom_congest::{RunOptions, Telemetry};
use arbodom_core::repair::{self, BatchOutcome, Maintainer, RepairConfig};
use arbodom_core::{verify, DsResult};
use arbodom_graph::digest::edge_digest;
use arbodom_graph::orientation::{self, DegeneracyCertificate};
use arbodom_graph::{Graph, GraphDelta};
use arbodom_obs::{Counter, Stopwatch};
use arbodom_scenarios::quality::{self, maximal_packing, MaintainedPacking};
use arbodom_scenarios::Algorithm;

use crate::obs::SessionObs;
use crate::protocol::{DeltaSpec, JobResult, RepairStats, SessionPolicy};

/// One open session: the maintainer plus how its solves run.
#[derive(Debug)]
pub struct Session {
    maintainer: Maintainer,
    /// The greedy packing of the maintainer's graph, current after every
    /// batch; `None` on a weighted graph.
    packing: Option<MaintainedPacking>,
    /// The degeneracy certificate of the maintainer's graph; `None` until
    /// the first mutate or resolve builds one.
    certificate: Option<DegeneracyCertificate>,
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
            packing: MaintainedPacking::new(&graph),
            certificate: None,
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

    /// The current graph's [`edge_digest`], as the maintainer keeps it.
    pub fn digest(&self) -> u64 {
        self.maintainer.digest()
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
    /// accounting: the owned graph's footprint, the membership flags, the
    /// maintained packing and the degeneracy certificate (the counterpart
    /// of the graph cache's per-entry cost).
    pub fn cost_bytes(&self) -> u64 {
        let packing = self
            .packing
            .as_ref()
            .map_or(0, MaintainedPacking::heap_bytes);
        let certificate = self
            .certificate
            .as_ref()
            .map_or(0, DegeneracyCertificate::heap_bytes);
        (self.maintainer.graph().memory_footprint().total()
            + self.maintainer.in_ds().len()
            + packing
            + certificate) as u64
    }

    /// The quality reference of the current graph. A planted reference
    /// (if the instance had one) is stale after any mutation, so sessions
    /// account against exact and packing references only.
    pub(crate) fn reference(&self) -> quality::Reference {
        let g = self.maintainer.graph();
        quality::reference_with_packing(g, None, || match &self.packing {
            Some(packing) => packing.lower_bound(),
            None => maximal_packing(g).lower_bound(),
        })
    }

    /// Applies one edge-delta batch under `policy`, recording each stage's
    /// time and any α peel in `obs`.
    ///
    /// # Errors
    ///
    /// A job-level message when the delta is malformed or conflicts with
    /// the current edge set (the session is unchanged), or when the
    /// re-solve fails (the batch stays applied, and every maintained
    /// value follows it).
    pub fn mutate(
        &mut self,
        delta: &DeltaSpec,
        policy: SessionPolicy,
        sim_threads: usize,
        obs: &SessionObs,
    ) -> Result<(JobResult, RepairStats), String> {
        let delta = GraphDelta::new(delta.inserts.iter().copied(), delta.deletes.iter().copied())
            .map_err(|e| format!("invalid delta: {e}"))?;
        let touched = delta.touched();
        let mut watch = Stopwatch::start();
        let repaired = self.maintainer.repair(&delta);
        let apply = watch.lap_nanos();
        let outcome = repaired.map_err(|e| {
            obs.apply.observe(apply);
            format!("mutate failed: {e}")
        })?;
        let g = self.maintainer.graph();
        self.certificate = self.certificate.take().and_then(|c| c.apply(g, &delta));
        let (alpha, max_degree) = self.measure(&obs.alpha_peels);
        let alpha_nanos = watch.lap_nanos();
        if let Some(packing) = &mut self.packing {
            packing.update(self.maintainer.graph(), &touched);
        }
        let packing_nanos = watch.lap_nanos();
        let due = self.maintainer.due();
        let solved = (due || policy == SessionPolicy::Resolve)
            .then(|| self.solve(alpha, sim_threads))
            .transpose();
        obs.apply.observe(apply + watch.lap_nanos());
        // A drift fallback fails as the mutate, a forced one as the re-solve.
        let what = if due { "mutate" } else { "re-solve" };
        let telemetry = solved.map_err(|e| format!("{what} failed: {e}"))?;
        obs.alpha.observe(alpha_nanos);
        obs.packing.observe(packing_nanos);
        let kept = telemetry.is_none().then_some(&outcome);
        let (g, in_ds) = (self.maintainer.graph(), self.maintainer.in_ds());
        let undominated = match kept {
            Some(o) => repair::undominated_after_batch(g, in_ds, &touched, &o.added, &o.removed),
            None => verify::undominated_nodes(g, in_ds).len(),
        };
        obs.verify.observe(watch.lap_nanos());
        let tel = telemetry.unwrap_or_default();
        let reply = self.reply(alpha, max_degree, tel, undominated);
        obs.account.observe(watch.lap_nanos());
        Ok((reply, self.stats(kept, outcome.undominated_before)))
    }

    /// Forces a certified full re-solve on the current graph. It peels
    /// only if the session holds no certificate yet.
    ///
    /// # Errors
    ///
    /// A job-level message when the solve fails.
    pub fn resolve(
        &mut self,
        sim_threads: usize,
        obs: &SessionObs,
    ) -> Result<(JobResult, RepairStats), String> {
        let (alpha, max_degree) = self.measure(&obs.alpha_peels);
        let telemetry = self
            .solve(alpha, sim_threads)
            .map_err(|e| format!("re-solve failed: {e}"))?;
        let undominated =
            verify::undominated_nodes(self.maintainer.graph(), self.maintainer.in_ds()).len();
        let reply = self.reply(alpha, max_degree, telemetry, undominated);
        Ok((reply, self.stats(None, 0)))
    }

    /// α and Δ of the maintainer's graph, read off its degeneracy
    /// certificate, which one whole-graph peel builds when the session
    /// holds none. The session's accounting runs with this α from now on.
    fn measure(&mut self, peels: &Counter) -> (usize, usize) {
        let certificate = self.certificate.get_or_insert_with(|| {
            peels.inc();
            DegeneracyCertificate::of(self.maintainer.graph())
        });
        self.alpha = certificate.value().max(1);
        (self.alpha, certificate.max_degree())
    }

    /// The one re-solve of every session path: replaces the maintained
    /// set with the session's algorithm run on the current graph at
    /// `alpha`, and returns the run's telemetry.
    fn solve(&mut self, alpha: usize, sim_threads: usize) -> arbodom_core::Result<Telemetry> {
        let (algorithm, seed) = (self.algorithm, self.seed);
        let mut telemetry = Telemetry::default();
        self.maintainer.resolve_with(|g| {
            let (sol, run) =
                algorithm.execute(g, alpha, seed, &RunOptions::default(), sim_threads)?;
            telemetry = run;
            Ok(sol)
        })?;
        Ok(telemetry)
    }

    /// The repair half of a reply. `kept` is the batch's outcome when its
    /// repair stands, and `None` after a re-solve.
    fn stats(&self, kept: Option<&BatchOutcome>, undominated_before: usize) -> RepairStats {
        RepairStats {
            repaired: kept.is_some(),
            added: kept.map_or(0, |o| o.added.len()) as u64,
            removed: kept.map_or(0, |o| o.removed.len()) as u64,
            undominated_before: undominated_before as u64,
            drift_estimate: self.maintainer.drift_estimate(),
            batches_since_solve: self.maintainer.batches_since_solve() as u64,
            chain: self.maintainer.chain(),
        }
    }

    /// Checks every value the session maintains against the whole graph,
    /// in debug builds: the degeneracy certificate, the packing bound, the
    /// set's size, the digest, and the `undominated` count of the reply.
    fn debug_check(&self, undominated: usize) {
        let (g, in_ds) = (self.maintainer.graph(), self.maintainer.in_ds());
        debug_assert!(
            self.certificate
                .as_ref()
                .is_some_and(|c| c.certifies(g) && c.value() == orientation::degeneracy(g)),
            "the maintained degeneracy certificate disagrees with the whole graph"
        );
        if let Some(packing) = &self.packing {
            debug_assert_eq!(
                packing.lower_bound().to_bits(),
                maximal_packing(g).lower_bound().to_bits(),
                "the maintained packing bound disagrees with the whole graph"
            );
        }
        debug_assert_eq!(
            self.maintainer.size(),
            in_ds.iter().filter(|&&b| b).count(),
            "the maintained set size disagrees with the flags"
        );
        debug_assert_eq!(
            self.maintainer.digest(),
            edge_digest(g),
            "the maintained digest disagrees with the whole graph"
        );
        debug_assert_eq!(
            undominated,
            verify::undominated_nodes(g, in_ds).len(),
            "the undominated count disagrees with the whole graph"
        );
    }

    /// Quality-accounts the maintained set on the current graph, at α and
    /// Δ as [`Session::measure`] read them, against
    /// [`Session::reference`]; the set's size, weight and digest are the
    /// maintainer's. The maintained set carries no dual certificate.
    /// Rounds and message counters reflect only what this batch actually
    /// simulated (all zero for a kept local repair).
    fn reply(
        &self,
        alpha: usize,
        max_degree: usize,
        tel: Telemetry,
        undominated: usize,
    ) -> JobResult {
        self.debug_check(undominated);
        let g = self.maintainer.graph();
        let weight = self.maintainer.weight();
        let valid = undominated == 0;
        let guarantee = self.algorithm.guarantee(alpha, max_degree);
        let account = self
            .reference()
            .account(weight, None, guarantee, valid, false);
        JobResult {
            n: g.n() as u64,
            m: g.m() as u64,
            max_degree: max_degree as u64,
            alpha: alpha as u64,
            graph_digest: self.maintainer.digest(),
            ds_size: self.maintainer.size() as u64,
            ds_weight: weight,
            valid,
            undominated: undominated as u64,
            reference: account.reference,
            opt_estimate: account.opt_estimate,
            ratio: account.ratio,
            guarantee: account.guarantee,
            within_guarantee: account.within_guarantee,
            flagged: account.flagged,
            rounds: tel.rounds as u64,
            round_budget: self.algorithm.round_budget(alpha, max_degree) as u64,
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
    use crate::obs::SessionObs;
    use arbodom_core::weighted;
    use arbodom_graph::generators;
    use arbodom_graph::weights::WeightModel;
    use arbodom_graph::NodeId;
    use arbodom_scenarios::churn::churn_delta;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn session(n: usize) -> Session {
        let g = generators::path(n);
        let sol = weighted::solve(&g, &weighted::Config::new(1, 0.2).unwrap()).unwrap();
        Session::new(g, &sol, Algorithm::Weighted { eps: 0.2 }, 1, 7)
    }

    /// A session on `g` at `alpha` whose maintainer runs under `cfg`.
    fn session_on(g: Graph, alpha: usize, cfg: RepairConfig) -> Session {
        let algorithm = Algorithm::Weighted { eps: 0.2 };
        let (sol, _) = algorithm
            .execute(&g, alpha, 7, &RunOptions::default(), 1)
            .unwrap();
        Session {
            packing: MaintainedPacking::new(&g),
            certificate: None,
            maintainer: Maintainer::new(g, &sol, cfg),
            algorithm,
            alpha,
            seed: 7,
        }
    }

    /// A session on a 400-node α = 2 forest union whose maintainer runs
    /// under `cfg`, with unit weights or, if `weights` says so, others.
    fn forest_session(seed: u64, weights: WeightModel, cfg: RepairConfig) -> Session {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::forest_union(400, 2, &mut rng);
        session_on(weights.assign(&g, &mut rng), 2, cfg)
    }

    fn pairs(edges: &[(NodeId, NodeId)]) -> Vec<(u32, u32)> {
        edges.iter().map(|&(u, v)| (u.get(), v.get())).collect()
    }

    /// Asserts that a reply says what the whole-graph functions say about
    /// the session's current state: undominated count, α, Δ, digest, the
    /// set's size and weight, and every field of `quality::account`.
    fn assert_reply_matches_the_whole_graph(s: &Session, reply: &JobResult, context: &str) {
        let (g, in_ds) = (s.maintainer.graph(), s.maintainer.in_ds());
        let undominated = verify::undominated_nodes(g, in_ds).len();
        assert_eq!(reply.undominated as usize, undominated, "{context}");
        assert_eq!(
            reply.alpha as usize,
            orientation::degeneracy(g).max(1),
            "{context}"
        );
        assert_eq!(s.alpha(), reply.alpha as usize, "{context}");
        assert_eq!(reply.max_degree as usize, g.max_degree(), "{context}");
        assert_eq!(reply.graph_digest, edge_digest(g), "{context}");
        let sol = DsResult::from_flags(g, in_ds.to_vec(), 0, None);
        assert_eq!(reply.ds_size, sol.size as u64, "{context}");
        assert_eq!(reply.ds_weight, sol.weight, "{context}");
        let guarantee = s.algorithm.guarantee(reply.alpha as usize, g.max_degree());
        let whole = quality::account(g, &sol, None, guarantee, undominated == 0, false);
        assert_eq!(reply.reference, whole.reference, "{context}");
        assert_eq!(
            reply.opt_estimate.to_bits(),
            whole.opt_estimate.to_bits(),
            "{context}"
        );
        assert_eq!(reply.ratio.to_bits(), whole.ratio.to_bits(), "{context}");
        assert_eq!(reply.guarantee.to_bits(), whole.guarantee.to_bits());
        assert_eq!(reply.within_guarantee, whole.within_guarantee, "{context}");
        assert_eq!(reply.flagged, whole.flagged, "{context}");
    }

    /// Every mutate reply says what the whole-graph functions say: under
    /// `Repair`, under `Resolve`, with a drift bound so tight that
    /// deletion-heavy batches fall back, and on a weighted graph. In debug
    /// builds the session also checks each batch-local undominated count,
    /// each maintained packing bound and each maintained digest against
    /// the whole graph.
    #[test]
    fn mutate_replies_match_the_whole_graph_under_every_policy() {
        let tight = RepairConfig {
            max_drift: 0.0,
            max_batches: 0,
        };
        let weighted = WeightModel::Uniform { lo: 1, hi: 20 };
        // (policy, weights, drift bound, deletions per batch, insertions kept).
        let cases = [
            (
                SessionPolicy::Repair,
                WeightModel::Unit,
                RepairConfig::default(),
                4,
                4,
            ),
            (
                SessionPolicy::Resolve,
                WeightModel::Unit,
                RepairConfig::default(),
                4,
                4,
            ),
            (SessionPolicy::Repair, WeightModel::Unit, tight, 10, 0),
            (
                SessionPolicy::Repair,
                weighted,
                RepairConfig::default(),
                4,
                4,
            ),
        ];
        for (case, (policy, weights, cfg, k, inserts)) in cases.into_iter().enumerate() {
            let obs = SessionObs::default();
            let mut s = forest_session(3, weights, cfg);
            assert_eq!(s.packing.is_some(), weights == WeightModel::Unit);
            let (mut kept, mut solved) = (0, 0);
            for batch in 0..48 {
                let d = churn_delta(s.maintainer.graph(), 500 + batch, k);
                let spec = DeltaSpec {
                    inserts: pairs(&d.inserts()[..inserts.min(d.inserts().len())]),
                    deletes: pairs(d.deletes()),
                };
                let (reply, stats) = s.mutate(&spec, policy, 1, &obs).unwrap();
                assert!(reply.valid);
                assert_reply_matches_the_whole_graph(
                    &s,
                    &reply,
                    &format!("case {case}, batch {batch}"),
                );
                if stats.repaired {
                    kept += 1;
                } else {
                    solved += 1;
                }
            }
            match policy {
                SessionPolicy::Resolve => assert_eq!(kept, 0, "Resolve re-solves every batch"),
                SessionPolicy::Repair => assert!(kept > 0, "no batch kept its repair"),
            }
            // One stage time per mutate, and a peel only to build the
            // certificate: first, and after a batch broke it.
            for stage in [
                &obs.apply,
                &obs.alpha,
                &obs.packing,
                &obs.verify,
                &obs.account,
            ] {
                assert_eq!(stage.count(), 48, "case {case}");
            }
            let peels = obs.alpha_peels.get();
            assert!((1..48).contains(&peels), "case {case}: {peels} peels");
            if cfg.max_drift == 0.0 {
                assert!(solved > 0, "the tight drift bound never tripped");
            }
        }
    }

    /// A session whose graph becomes a forest is accounted against the
    /// forest DP's exact optimum, and against the maintained packing again
    /// once a batch closes a cycle.
    #[test]
    fn a_session_follows_its_graph_into_and_out_of_the_forest_dp() {
        let mut rng = StdRng::seed_from_u64(5);
        let tree = generators::random_tree(300, &mut rng);
        let chord = (1..300)
            .map(|v| (0, v))
            .find(|&(u, v)| !tree.has_edge(NodeId::new(u), NodeId::new(v)))
            .expect("a tree on 300 nodes leaves 0 non-adjacent to someone");
        let g = Graph::from_edges(
            300,
            pairs(&tree.edges().collect::<Vec<_>>())
                .into_iter()
                .chain([chord]),
        )
        .unwrap();
        let mut s = session_on(g, 2, RepairConfig::default());
        let steps = [
            (vec![], vec![chord], quality::RefKind::Exact),
            (vec![chord], vec![], quality::RefKind::PackingLb),
        ];
        for (step, (inserts, deletes, kind)) in steps.into_iter().enumerate() {
            let (reply, _) = s
                .mutate(
                    &DeltaSpec { inserts, deletes },
                    SessionPolicy::Repair,
                    1,
                    &SessionObs::default(),
                )
                .unwrap();
            assert_eq!(reply.reference, kind, "step {step}");
            assert_reply_matches_the_whole_graph(&s, &reply, &format!("step {step}"));
        }
        for batch in 0..8 {
            let d = churn_delta(s.maintainer.graph(), 900 + batch, 3);
            let spec = DeltaSpec {
                inserts: pairs(d.inserts()),
                deletes: pairs(d.deletes()),
            };
            let (reply, _) = s
                .mutate(&spec, SessionPolicy::Repair, 1, &SessionObs::default())
                .unwrap();
            assert_reply_matches_the_whole_graph(&s, &reply, &format!("batch {batch}"));
        }
    }

    /// `Stats` session bytes count the maintained packing and the
    /// degeneracy certificate: the packing's flags, the update queue's
    /// capacity once a mutate has grown it, and the certificate once a
    /// mutate has built it. A weighted session holds no packing.
    #[test]
    fn cost_bytes_count_the_maintained_packing() {
        let held = |s: &Session| {
            s.maintainer.graph().memory_footprint().total() + s.maintainer.in_ds().len()
        };
        let mut s = forest_session(3, WeightModel::Unit, RepairConfig::default());
        let packing = |s: &Session| s.packing.as_ref().expect("unit weights").heap_bytes();
        assert_eq!(packing(&s), 400, "one flag per node before any update");
        assert!(s.certificate.is_none(), "a session opens without one");
        assert_eq!(s.cost_bytes(), (held(&s) + 400) as u64);
        let d = churn_delta(s.maintainer.graph(), 77, 4);
        let spec = DeltaSpec {
            inserts: pairs(d.inserts()),
            deletes: pairs(d.deletes()),
        };
        s.mutate(&spec, SessionPolicy::Repair, 1, &SessionObs::default())
            .unwrap();
        assert!(packing(&s) > 400, "the update queue's capacity is counted");
        let certificate = s.certificate.as_ref().expect("a mutate builds one");
        let max_degree = s.maintainer.graph().max_degree();
        assert_eq!(certificate.heap_bytes(), 13 * 400 + 4 * (max_degree + 1));
        assert_eq!(
            s.cost_bytes(),
            (held(&s) + packing(&s) + certificate.heap_bytes()) as u64
        );
        let w = forest_session(
            3,
            WeightModel::Uniform { lo: 1, hi: 20 },
            RepairConfig::default(),
        );
        assert!(w.packing.is_none());
        assert_eq!(w.cost_bytes(), held(&w) as u64);
    }

    /// After a batch that fails, whether it conflicted (the graph is
    /// unchanged) or its re-solve failed (the batch stays applied), every
    /// value the session maintains describes the graph it holds, and the
    /// next batch's reply matches the whole graph. Neither failure drops
    /// the certificate: the conflict leaves it as it was, without a peel,
    /// and the failed re-solve leaves it folded to the applied batch. Only
    /// the `apply` stage time counts a failed mutate.
    #[test]
    fn a_failed_batch_leaves_every_maintained_value_current() {
        let obs = SessionObs::default();
        let mut s = forest_session(9, WeightModel::Unit, RepairConfig::default());
        let batch = |s: &Session, seed| {
            let d = churn_delta(s.maintainer.graph(), seed, 4);
            DeltaSpec {
                inserts: pairs(d.inserts()),
                deletes: pairs(d.deletes()),
            }
        };
        let current = |s: &Session| {
            let g = s.maintainer.graph();
            let packing = s.packing.as_ref().expect("unit weights");
            assert_eq!(
                packing.lower_bound().to_bits(),
                maximal_packing(g).lower_bound().to_bits()
            );
            let certificate = s.certificate.as_ref().expect("the certificate is kept");
            assert!(certificate.certifies(g), "a stale certificate");
            assert_eq!(certificate.value().max(1), s.alpha());
        };
        let stages = |obs: &SessionObs| {
            [&obs.alpha, &obs.packing, &obs.verify, &obs.account].map(|h| h.count())
        };
        for seed in 0..4 {
            let spec = batch(&s, 600 + seed);
            s.mutate(&spec, SessionPolicy::Repair, 1, &obs).unwrap();
        }
        let (u, v) = s.maintainer.graph().edges().next().expect("edges");
        let conflict = DeltaSpec {
            inserts: vec![(u.get(), v.get())],
            deletes: vec![],
        };
        let before = s.maintainer.graph().clone();
        let (peels, applies, counts) = (obs.alpha_peels.get(), obs.apply.count(), stages(&obs));
        assert!(s.mutate(&conflict, SessionPolicy::Repair, 1, &obs).is_err());
        assert_eq!(s.maintainer.graph(), &before);
        current(&s);
        assert_eq!(obs.alpha_peels.get(), peels, "a conflict needs no peel");
        assert_eq!((obs.apply.count(), stages(&obs)), (applies + 1, counts));
        // A weighted solve at ε = 2 fails its configuration check, so a
        // forced re-solve fails after the batch applied.
        let algorithm = s.algorithm;
        s.algorithm = Algorithm::Weighted { eps: 2.0 };
        let spec = batch(&s, 700);
        assert!(s.mutate(&spec, SessionPolicy::Resolve, 1, &obs).is_err());
        assert_ne!(s.maintainer.graph(), &before, "the batch stays applied");
        current(&s);
        assert_eq!((obs.apply.count(), stages(&obs)), (applies + 2, counts));
        s.algorithm = algorithm;
        for seed in 0..4 {
            let spec = batch(&s, 800 + seed);
            let (reply, _) = s.mutate(&spec, SessionPolicy::Repair, 1, &obs).unwrap();
            current(&s);
            assert_reply_matches_the_whole_graph(&s, &reply, &format!("batch {seed}"));
        }
    }

    /// A resolve reads α from the session's certificate: it peels only
    /// when the session has none yet, and a resolve right after a mutate
    /// does not peel.
    #[test]
    fn resolve_peels_only_to_build_the_certificate() {
        let obs = SessionObs::default();
        let mut s = forest_session(4, WeightModel::Unit, RepairConfig::default());
        let (reply, _) = s.resolve(1, &obs).unwrap();
        assert_reply_matches_the_whole_graph(&s, &reply, "first resolve");
        assert_eq!(obs.alpha_peels.get(), 1, "the first resolve builds it");
        s.resolve(1, &obs).unwrap();
        let d = churn_delta(s.maintainer.graph(), 31, 2);
        let spec = DeltaSpec {
            inserts: pairs(d.inserts()),
            deletes: pairs(d.deletes()),
        };
        s.mutate(&spec, SessionPolicy::Repair, 1, &obs).unwrap();
        let peels = obs.alpha_peels.get();
        let (reply, _) = s.resolve(1, &obs).unwrap();
        assert_reply_matches_the_whole_graph(&s, &reply, "resolve after a mutate");
        assert_eq!(
            obs.alpha_peels.get(),
            peels,
            "an unchanged graph needs no peel"
        );
    }

    /// serve-churn's shape at a tenth of its size: a 5,000-node α = 2
    /// unit-weight forest union streams 128 forward 4 + 4 batches and
    /// their inverses, twice, under `Repair`. The reorder repairs every
    /// overfull node, so only the first mutate peels, to build the
    /// certificate.
    #[test]
    fn a_churn_cycle_peels_only_to_build_the_certificate() {
        let obs = SessionObs::default();
        let mut rng = StdRng::seed_from_u64(30);
        let g = generators::forest_union(5_000, 2, &mut rng);
        let mut s = session_on(g, 2, RepairConfig::default());
        let mut mirror = s.maintainer.graph().clone();
        let mut forward = Vec::new();
        for batch in 0..128 {
            let d = churn_delta(&mirror, 1 + batch, 4);
            mirror = d.apply(&mirror).unwrap();
            forward.push(d);
        }
        let cycle: Vec<DeltaSpec> = forward
            .iter()
            .map(|d| (d.inserts(), d.deletes()))
            .chain(forward.iter().rev().map(|d| (d.deletes(), d.inserts())))
            .map(|(inserts, deletes)| DeltaSpec {
                inserts: pairs(inserts),
                deletes: pairs(deletes),
            })
            .collect();
        for _ in 0..2 {
            for spec in &cycle {
                s.mutate(spec, SessionPolicy::Repair, 1, &obs).unwrap();
            }
        }
        assert_eq!(obs.alpha.count(), 512);
        assert_eq!(obs.alpha_peels.get(), 1, "a peel after the first mutate");
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
