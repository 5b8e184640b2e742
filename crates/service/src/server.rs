//! The `arbodomd` daemon: an event-driven TCP server over the job
//! executor.
//!
//! One reactor thread owns **every** socket: a nonblocking listener, a
//! self-wake channel, and all client connections, multiplexed through
//! `poll(2)` ([`arbodom_netpoll`]). Connections are never given
//! threads — reads feed an incremental [`FrameAssembler`], writes go
//! through a per-connection buffer with partial-write continuation, and
//! complete requests are queued per connection and processed strictly
//! in arrival order. Heavy requests (batches and session operations)
//! are dispatched onto the shared FIFO [`Scheduler`]; their
//! completions come back over a channel (plus a reactor wakeup) and are
//! reassembled **in submission order** before hitting the write buffer,
//! so the response stream stays byte-deterministic at any worker count.
//!
//! # Admission control
//!
//! The daemon bounds its pending work explicitly instead of letting
//! the accept backlog or OS socket buffers absorb overload:
//!
//! - a global cap on admitted-but-unfinished **jobs**
//!   (`max_pending_jobs`) and request payload **bytes**
//!   (`max_pending_bytes`), checked when a heavy request reaches the
//!   head of its connection's queue — except that an empty queue always
//!   admits, so a batch larger than the cap can never starve;
//! - a per-connection cap on in-flight heavy requests
//!   (`per_conn_inflight`), checked at arrival so a pipelining client
//!   is answered in request order.
//!
//! A shed request is **answered, never dropped**: it gets the typed
//! [`Response::Overloaded`] (with a retry hint) and the connection stays
//! open. Shed requests never execute.
//!
//! # Protocol version
//!
//! Every frame, the first as much as any later one, must carry
//! [`PROTOCOL_V3`]. A frame carrying any other byte gets
//! [`Response::UnsupportedVersion`] once the requests before it are
//! answered, and the connection closes.
//!
//! # Idle timeout
//!
//! A connection with no in-flight or queued work that stays silent past
//! `idle_timeout` is closed with a typed `Error` reply and counted in
//! `arbodom_connections_idle_closed_total` — a stalled or half-dead
//! peer (slow loris) can no longer pin reactor state forever.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use arbodom_congest::SimObs;
use arbodom_netpoll::wake::{wake_pair, WakeReceiver, Waker};
use arbodom_netpoll::{poll, PollFd, POLLIN, POLLOUT};
use arbodom_obs::{Counter, Registry, Stopwatch};
use arbodom_scenarios::Scale;

use crate::cache::GraphCache;
use crate::jobs::{execute_job, open_session, ExecContext};
use crate::obs::{ReqKind, ServiceObs};
use crate::protocol::{
    decode_payload, encode_payload, CacheStats, FrameAssembler, JobResult, RepairStats, Request,
    Response, ServerLimits, SessionUpdate, FRAME_HEADER_LEN, MAX_BATCH_JOBS, MAX_FRAME_LEN,
    PROTOCOL_MAX, PROTOCOL_MIN, PROTOCOL_V3,
};
use crate::scheduler::Scheduler;
use crate::session::{Session, SessionLimits, SessionTable};

/// Stop reading from a connection whose unflushed replies exceed this
/// many bytes: a client that floods requests without reading responses
/// gets natural backpressure instead of unbounded server memory.
const READ_PAUSE_BACKLOG: usize = 8 << 20;

/// Hard deadline for the post-shutdown grace period (finish in-flight
/// dispatches, flush replies) before the reactor exits regardless.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// Daemon tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads in the job scheduler.
    pub workers: usize,
    /// Simulator threads per job, handed to
    /// [`arbodom_scenarios::Algorithm::execute`] (results identical at any
    /// value).
    pub sim_threads: usize,
    /// Graph-cache budget in **bytes** of resident instance memory
    /// ([`arbodom_graph::Graph::memory_footprint`] plus planted sets).
    pub cache_bytes: usize,
    /// Scale scenario-cell jobs resolve their size sweeps at.
    pub scale: Scale,
    /// Idle sessions are evicted after this long without a touch
    /// (lazily, on the next session-table access).
    pub session_ttl: Duration,
    /// Hard cap on concurrently open sessions; the least-recently-used
    /// session is evicted to admit a new one.
    pub max_sessions: usize,
    /// Whether jobs run with the simulator's phase-timing side channel
    /// attached ([`arbodom_congest::RunOptions::obs`]): per-round
    /// deliver/compute/dispatch/barrier nanoseconds and message-size
    /// histograms land in the daemon's metrics registry under the
    /// `sim_*` names. Off by default — the simulator stays provably
    /// instrumentation-free, and results are identical either way.
    pub sim_obs: bool,
    /// Global admission cap on admitted-but-unfinished jobs. A heavy
    /// request whose job count would push past this is shed — unless
    /// the queue is empty, which always admits (no starvation of large
    /// batches).
    pub max_pending_jobs: usize,
    /// Global admission cap on admitted-but-unfinished request payload
    /// bytes (same empty-queue exception).
    pub max_pending_bytes: usize,
    /// Per-connection cap on in-flight heavy requests (dispatched +
    /// queued). Requests past it are shed at arrival, in request order.
    pub per_conn_inflight: usize,
    /// Close connections with no in-flight or queued work after this
    /// long without any socket activity (`None` disables the timeout).
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let limits = SessionLimits::default();
        ServerConfig {
            workers: 4,
            sim_threads: 1,
            cache_bytes: 256 << 20,
            scale: Scale::Full,
            session_ttl: limits.idle_ttl,
            max_sessions: limits.max_sessions,
            sim_obs: false,
            max_pending_jobs: 256,
            max_pending_bytes: 64 << 20,
            per_conn_inflight: 16,
            idle_timeout: Some(Duration::from_secs(900)),
        }
    }
}

/// Admission-control knobs, normalized from [`ServerConfig`].
#[derive(Clone, Copy, Debug)]
struct Admission {
    max_pending_jobs: u64,
    max_pending_bytes: u64,
    per_conn_inflight: usize,
    idle_timeout: Option<Duration>,
}

/// Shared state of a running daemon. The reactor holds an `Arc` of
/// this; job closures deliberately get only the [`ExecContext`] slice
/// of it (see [`ExecContext`] for why).
struct ServerState {
    exec: ExecContext,
    scheduler: Scheduler,
    shutdown: AtomicBool,
    addr: SocketAddr,
    registry: Registry,
    /// Wakes the reactor out of `poll(2)`: job completions and shutdown
    /// requests both go through here.
    waker: Arc<Waker>,
    admission: Admission,
    threads_spawned: AtomicU64,
}

impl ServerState {
    /// Flags shutdown and wakes the reactor so it observes the flag
    /// immediately.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// The daemon counters behind [`Response::Stats`]: the graph cache's
    /// own, with the session table's block filled in.
    fn daemon_stats(&self) -> CacheStats {
        let mut stats = self.exec.cache.lock().expect("cache poisoned").stats();
        let (sessions, session_bytes, session_evictions) = self.exec.sessions.usage();
        stats.sessions = sessions;
        stats.session_bytes = session_bytes;
        stats.session_evictions = session_evictions;
        stats
    }

    /// Refreshes the scrape-time resource gauges and renders the whole
    /// registry in Prometheus text-exposition format.
    fn render_metrics(&self) -> String {
        let stats = self.daemon_stats();
        self.exec.obs.set_resource_gauges(
            &stats,
            (stats.sessions, stats.session_bytes, stats.session_evictions),
        );
        self.registry.render_prometheus()
    }

    /// The limits advertised to [`Request::Hello`].
    fn server_limits(&self) -> ServerLimits {
        ServerLimits {
            protocol_min: PROTOCOL_MIN,
            protocol_max: PROTOCOL_MAX,
            workers: self.scheduler.worker_count() as u64,
            max_pending_jobs: self.admission.max_pending_jobs,
            max_pending_bytes: self.admission.max_pending_bytes,
            per_conn_inflight: self.admission.per_conn_inflight as u64,
            idle_timeout_ms: self
                .admission
                .idle_timeout
                .map(|d| (d.as_millis() as u64).max(1))
                .unwrap_or(0),
            max_frame_len: MAX_FRAME_LEN as u64,
            max_batch_jobs: MAX_BATCH_JOBS as u64,
        }
    }
}

/// A running daemon, stoppable from the owning thread or via a client's
/// [`Request::Shutdown`].
pub struct Server {
    state: Arc<ServerState>,
    reactor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// reactor.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let (waker, wake_rx) = wake_pair()?;
        let registry = Registry::new();
        let threads_spawned = AtomicU64::new(0);
        let scheduler = Scheduler::new(cfg.workers, &threads_spawned);
        let state = Arc::new(ServerState {
            exec: ExecContext {
                cache: Arc::new(Mutex::new(GraphCache::new(cfg.cache_bytes))),
                sessions: Arc::new(SessionTable::with_limits(SessionLimits {
                    idle_ttl: cfg.session_ttl,
                    max_sessions: cfg.max_sessions.max(1),
                })),
                sim_threads: cfg.sim_threads.max(1),
                scale: cfg.scale,
                obs: ServiceObs::new(&registry),
                sim_obs: cfg.sim_obs.then(|| SimObs::new(&registry)),
            },
            scheduler,
            shutdown: AtomicBool::new(false),
            addr: local,
            registry,
            waker: Arc::new(waker),
            admission: Admission {
                max_pending_jobs: cfg.max_pending_jobs.max(1) as u64,
                max_pending_bytes: cfg.max_pending_bytes.max(1) as u64,
                per_conn_inflight: cfg.per_conn_inflight.max(1),
                idle_timeout: cfg.idle_timeout,
            },
            threads_spawned,
        });
        let reactor_state = Arc::clone(&state);
        state.threads_spawned.fetch_add(1, Ordering::SeqCst);
        let reactor = std::thread::Builder::new()
            .name("arbodomd-reactor".into())
            .spawn(move || Reactor::new(listener, wake_rx, reactor_state).run())?;
        Ok(Server {
            state,
            reactor: Some(reactor),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The admission limits this daemon advertises to
    /// [`Request::Hello`].
    pub fn limits(&self) -> ServerLimits {
        self.state.server_limits()
    }

    /// Threads the server itself spawned: one reactor plus the
    /// scheduler workers, all at [`Server::bind`]. The count is flat for
    /// the daemon's lifetime — connections never get threads — which the
    /// overload e2e tests pin. It does not count simulator threads: with
    /// [`ServerConfig::sim_threads`] > 1, every job on a graph of 128 or
    /// more nodes builds and joins its own worker pool inside
    /// [`arbodom_scenarios::Algorithm::execute`].
    pub fn threads_spawned(&self) -> u64 {
        self.state.threads_spawned.load(Ordering::SeqCst)
    }

    /// A handle to the daemon's metrics registry. Clones share storage,
    /// so a handle taken before [`Server::wait`] still reads the final
    /// counter values after shutdown — that is how the `arbodomd` binary
    /// prints its exit snapshot.
    pub fn registry(&self) -> Registry {
        self.state.registry.clone()
    }

    /// Refreshes the resource gauges and renders the current metrics in
    /// Prometheus text-exposition format — exactly what a
    /// [`Request::Metrics`] scrape returns.
    pub fn metrics_prometheus(&self) -> String {
        self.state.render_metrics()
    }

    /// Blocks until the daemon shuts down (via a client's `Shutdown`
    /// request). Used by the `arbodomd` binary.
    pub fn wait(mut self) {
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }

    /// Stops the reactor and joins it. In-flight dispatches finish and
    /// their replies are flushed (bounded by a grace deadline); queued
    /// requests that never dispatched are dropped with their
    /// connections.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(handle) = self.reactor.take() {
            self.state.request_shutdown();
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Reactor data model
// ---------------------------------------------------------------------------

/// One queued request on a connection, decoded but not yet processed.
struct QueuedReq {
    kind: ReqKind,
    /// Started when the complete frame was in hand — time blocked
    /// waiting for the client is not request latency.
    watch: Stopwatch,
    payload_len: usize,
    body: QueuedBody,
}

enum QueuedBody {
    /// Cheap request, answered on the reactor when it reaches the head.
    Inline(Request),
    /// Heavy request (batch / session op): admission-checked at the
    /// head, then dispatched to the scheduler.
    Heavy(Request),
    /// The per-connection in-flight cap was hit at arrival: answer
    /// `Overloaded` when this reaches the head.
    Shed,
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    /// Write buffer with partial-write continuation: `out[out_pos..]`
    /// is still owed to the socket.
    out: Vec<u8>,
    out_pos: usize,
    queue: VecDeque<QueuedReq>,
    /// Heavy requests currently queued (not counting the dispatched
    /// one) — the arrival-time half of the per-connection cap.
    heavy_queued: usize,
    /// A dispatch is in flight; the queue is paused behind it.
    busy: bool,
    /// Terminal reply to emit once the queue drains, then close (a
    /// version byte other than v3, an undecodable request, desynced
    /// framing).
    fatal: Option<Response>,
    /// Read side saw EOF or the framing desynced: stop reading.
    read_closed: bool,
    /// Flush `out`, then drop the connection.
    closing: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            assembler: FrameAssembler::new(),
            out: Vec::new(),
            out_pos: 0,
            queue: VecDeque::new(),
            heavy_queued: 0,
            busy: false,
            fatal: None,
            read_closed: false,
            closing: false,
            last_activity: Instant::now(),
        }
    }

    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Whether the reactor should poll this connection for reads.
    fn wants_read(&self) -> bool {
        !self.read_closed && !self.closing && self.backlog() < READ_PAUSE_BACKLOG
    }
}

/// Reply reassembly state of one dispatched request.
struct Dispatch {
    conn: u64,
    kind: ReqKind,
    watch: Stopwatch,
    /// Payload bytes held against `max_pending_bytes` until the
    /// dispatch completes.
    bytes: u64,
    /// Outstanding job completions (1 for session operations).
    jobs_left: u32,
    reply: DispatchReply,
}

enum DispatchReply {
    /// In-order batch reassembly: completions arriving early are parked
    /// until their index is next.
    Batch {
        total: u32,
        next: u32,
        parked: BTreeMap<u32, Result<JobResult, String>>,
    },
    /// A single-reply session operation.
    Control,
}

enum Completion {
    Job {
        dispatch: u64,
        index: u32,
        outcome: Result<JobResult, String>,
    },
    Control {
        dispatch: u64,
        reply: Response,
    },
}

struct Reactor {
    state: Arc<ServerState>,
    listener: TcpListener,
    wake_rx: WakeReceiver,
    completions_tx: mpsc::Sender<Completion>,
    completions_rx: mpsc::Receiver<Completion>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    dispatches: HashMap<u64, Dispatch>,
    next_dispatch: u64,
    /// Admitted-but-unfinished jobs (the admission queue depth).
    pending_jobs: u64,
    /// Admitted-but-unfinished request payload bytes.
    pending_bytes: u64,
    shutdown_since: Option<Instant>,
}

/// The server's suggested client backoff: scales with queue depth, so a
/// deeper queue spreads retries further apart.
fn retry_hint_ms(queue_depth: u64) -> u64 {
    (10 + queue_depth.saturating_mul(5)).min(2_000)
}

/// Appends one v3 frame carrying `payload` to the connection's write
/// buffer.
fn push_frame(conn: &mut Conn, payload: &[u8]) {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0] = PROTOCOL_V3;
    header[1..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    conn.out.extend_from_slice(&header);
    conn.out.extend_from_slice(payload);
}

/// Encodes `msg` and appends it to the connection's write buffer,
/// recording the encode phase.
fn append_frame(conn: &mut Conn, msg: &Response, obs: &ServiceObs) {
    let mut watch = Stopwatch::start();
    let payload = encode_payload(msg);
    obs.encode.observe(watch.lap_nanos());
    debug_assert!(payload.len() <= MAX_FRAME_LEN, "server reply oversized");
    push_frame(conn, &payload);
}

/// Appends one in-order batch job reply. A legal job can still produce
/// an over-limit frame (a huge member list): degrade that one job to a
/// deterministic error instead of killing the whole connection
/// mid-batch.
fn append_job_frame(
    conn: &mut Conn,
    index: u32,
    outcome: Result<JobResult, String>,
    obs: &ServiceObs,
) {
    let mut watch = Stopwatch::start();
    let mut payload = encode_payload(&Response::Job { index, outcome });
    if payload.len() > MAX_FRAME_LEN {
        payload = encode_payload(&Response::Job {
            index,
            outcome: Err(format!(
                "result exceeds the {MAX_FRAME_LEN}-byte frame limit (retry without return_members)"
            )),
        });
    }
    obs.encode.observe(watch.lap_nanos());
    push_frame(conn, &payload);
}

fn record_request(obs: &ServiceObs, kind: ReqKind, watch: &Stopwatch) {
    obs.requests_total[kind as usize].inc();
    obs.request_nanos[kind as usize].observe(watch.elapsed_nanos());
}

/// Converts a panic inside a session operation into a deterministic
/// job-level error, exactly like batch workers do — the daemon must
/// never die on one bad request. Caught panics are counted in `panics`.
fn guarded<T>(panics: &Counter, op: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|_| {
        panics.inc();
        Err("session operation panicked inside the server".to_string())
    })
}

/// Runs a `Mutate` or `Resolve` operation on session `id`.
fn update_session(
    exec: &ExecContext,
    id: u64,
    op: impl FnOnce(&mut Session) -> Result<(JobResult, RepairStats), String>,
) -> Result<SessionUpdate, String> {
    let session = exec.sessions.get(id).map_err(|lost| lost.describe(id))?;
    let mut guard = session
        .lock()
        .map_err(|_| format!("session {id} was poisoned by an earlier panic"))?;
    let outcome = op(&mut guard);
    // Failed or not, the operation may have changed the graph or what the
    // session maintains of it: refresh the byte accounting (and recency)
    // while we still hold the session.
    exec.sessions.record_usage(id, guard.cost_bytes());
    let (result, repair) = outcome?;
    Ok(SessionUpdate { result, repair })
}

impl Reactor {
    fn new(listener: TcpListener, wake_rx: WakeReceiver, state: Arc<ServerState>) -> Self {
        let (completions_tx, completions_rx) = mpsc::channel();
        Reactor {
            state,
            listener,
            wake_rx,
            completions_tx,
            completions_rx,
            conns: HashMap::new(),
            next_conn: 0,
            dispatches: HashMap::new(),
            next_dispatch: 0,
            pending_jobs: 0,
            pending_bytes: 0,
            shutdown_since: None,
        }
    }

    fn obs(&self) -> &ServiceObs {
        &self.state.exec.obs
    }

    fn sync_admission_gauges(&self) {
        let obs = self.obs();
        obs.pending_jobs.set(self.pending_jobs);
        obs.pending_bytes.set(self.pending_bytes);
    }

    fn run(mut self) {
        loop {
            let shutting_down = self.state.shutdown.load(Ordering::SeqCst);
            if shutting_down {
                let since = *self.shutdown_since.get_or_insert_with(Instant::now);
                let drained =
                    self.dispatches.is_empty() && self.conns.values().all(|c| c.backlog() == 0);
                if drained || since.elapsed() >= SHUTDOWN_GRACE {
                    break;
                }
            }

            // Build the poll set: listener (until shutdown), the wake
            // channel, then every connection that wants events.
            let mut fds = Vec::with_capacity(2 + self.conns.len());
            let listener_slot = if shutting_down {
                usize::MAX
            } else {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
                fds.len() - 1
            };
            fds.push(PollFd::new(self.wake_rx.fd(), POLLIN));
            let mut conn_ids = Vec::with_capacity(self.conns.len());
            for (&id, conn) in &self.conns {
                let mut events = 0i16;
                if !shutting_down && conn.wants_read() {
                    events |= POLLIN;
                }
                if conn.backlog() > 0 {
                    events |= POLLOUT;
                }
                if events != 0 {
                    conn_ids.push((fds.len(), id));
                    fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                }
            }

            let timeout = self.poll_timeout(shutting_down);
            if poll(&mut fds, timeout).is_err() {
                // poll(2) failing outright (EINVAL/ENOMEM) means the fd
                // set is broken; back off rather than spin.
                std::thread::sleep(Duration::from_millis(10));
            }

            self.wake_rx.drain();
            self.drain_completions();

            if listener_slot != usize::MAX && fds[listener_slot].readable() {
                self.accept_ready();
            }
            let readable: Vec<u64> = conn_ids
                .iter()
                .filter(|&&(slot, _)| fds[slot].readable())
                .map(|&(_, id)| id)
                .collect();
            for id in readable {
                self.read_conn(id);
                self.pump(id);
            }

            self.sweep_idle();
            self.flush_all();
            self.remove_finished();
        }
        // Shutting down: refresh the resource gauges one last time so a
        // registry handle held across `Server::wait` reads final values
        // (the binary's exit snapshot).
        let _ = self.state.render_metrics();
    }

    /// Poll timeout: the nearest idle deadline, capped by a safety tick
    /// (tighter while draining a shutdown).
    fn poll_timeout(&self, shutting_down: bool) -> Option<Duration> {
        let cap = if shutting_down {
            Duration::from_millis(50)
        } else {
            Duration::from_millis(500)
        };
        let idle = self.state.admission.idle_timeout.and_then(|timeout| {
            self.conns
                .values()
                .filter(|c| !c.busy && c.queue.is_empty() && !c.closing)
                .map(|c| timeout.saturating_sub(c.last_activity.elapsed()))
                .min()
        });
        Some(idle.map_or(cap, |d| d.min(cap)))
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(id, Conn::new(stream));
                    self.obs().connections_accepted.inc();
                    self.obs().connections_open.set(self.conns.len() as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (ECONNABORTED
                // and friends): skip and keep serving.
                Err(_) => break,
            }
        }
    }

    /// Drains the socket into the frame assembler and queues every
    /// complete request.
    fn read_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut buf = [0u8; 16 * 1024];
        while conn.wants_read() {
            match (&conn.stream).read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.assembler.push(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // The socket is broken; nothing we write can arrive.
                    conn.read_closed = true;
                    conn.closing = true;
                    conn.out.clear();
                    conn.out_pos = 0;
                    break;
                }
            }
        }
        while conn.fatal.is_none() {
            match conn.assembler.next_frame() {
                Ok(None) => break,
                Ok(Some((version, payload))) => {
                    ingest_frame(&self.state, conn, version, payload);
                }
                Err(e) => {
                    // Framing desynced (oversized header): report once
                    // after the queue drains, then close.
                    conn.fatal = Some(Response::Error(e.to_string()));
                    conn.read_closed = true;
                }
            }
        }
    }

    /// Processes a connection's queue head until a dispatch blocks it.
    fn pump(&mut self, id: u64) {
        loop {
            let head = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.busy || conn.closing {
                    return;
                }
                match conn.queue.pop_front() {
                    Some(req) => {
                        if matches!(req.body, QueuedBody::Heavy(_)) {
                            conn.heavy_queued -= 1;
                        }
                        req
                    }
                    None => break,
                }
            };
            match head.body {
                QueuedBody::Shed => self.shed(id, head.kind, &head.watch),
                QueuedBody::Inline(request) => self.handle_inline(id, request, &head.watch),
                QueuedBody::Heavy(request) => {
                    let cost = match &request {
                        Request::Batch(jobs) => jobs.len() as u64,
                        _ => 1,
                    };
                    let fits = self.pending_jobs + cost <= self.state.admission.max_pending_jobs
                        && self.pending_bytes + head.payload_len as u64
                            <= self.state.admission.max_pending_bytes;
                    // An empty queue always admits: a batch larger than
                    // the global cap must be able to run once the queue
                    // drains, or it could never run at all.
                    if self.pending_jobs == 0 || fits {
                        self.dispatch(id, request, head.kind, head.watch, head.payload_len);
                        return; // busy now; the queue waits
                    }
                    self.shed(id, head.kind, &head.watch);
                }
            }
        }
        // Queue drained: emit any terminal reply, then let the removal
        // pass close the connection once the flush completes.
        if let Some(conn) = self.conns.get_mut(&id) {
            if !conn.busy && conn.queue.is_empty() {
                if let Some(reply) = conn.fatal.take() {
                    append_frame(conn, &reply, &self.state.exec.obs);
                    conn.closing = true;
                }
            }
        }
    }

    /// Answers a shed request with the typed `Overloaded`; the
    /// connection stays open.
    fn shed(&mut self, id: u64, kind: ReqKind, watch: &Stopwatch) {
        let depth = self.pending_jobs;
        let obs = &self.state.exec.obs;
        obs.requests_shed.inc();
        record_request(obs, kind, watch);
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        append_frame(
            conn,
            &Response::Overloaded {
                retry_after_ms: retry_hint_ms(depth),
                queue_depth: depth,
            },
            obs,
        );
    }

    /// Serves a cheap request on the reactor thread.
    fn handle_inline(&mut self, id: u64, request: Request, watch: &Stopwatch) {
        let state = Arc::clone(&self.state);
        let obs = &state.exec.obs;
        let kind = ReqKind::of(&request);
        let reply = match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(state.daemon_stats()),
            Request::Metrics => Response::MetricsReport(state.render_metrics()),
            Request::Hello => Response::Limits(state.server_limits()),
            Request::Release { session } => Response::Released {
                id: session,
                existed: state.exec.sessions.remove(session),
            },
            // Empty batches never dispatch: the trailer is the answer.
            Request::Batch(jobs) if jobs.is_empty() => Response::BatchDone { jobs: 0 },
            Request::Shutdown => {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                append_frame(conn, &Response::ShuttingDown, obs);
                conn.closing = true;
                record_request(obs, kind, watch);
                state.request_shutdown();
                return;
            }
            other => unreachable!("non-inline request {other:?} reached handle_inline"),
        };
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        append_frame(conn, &reply, obs);
        conn.last_activity = Instant::now();
        record_request(obs, kind, watch);
    }

    /// Fans a heavy request onto the scheduler and registers its reply
    /// reassembly state.
    fn dispatch(
        &mut self,
        conn_id: u64,
        request: Request,
        kind: ReqKind,
        watch: Stopwatch,
        payload_len: usize,
    ) {
        let dispatch_id = self.next_dispatch;
        self.next_dispatch += 1;
        self.obs().requests_admitted.inc();
        let (jobs_left, bytes, reply) = match request {
            Request::Batch(jobs) => {
                let total = jobs.len() as u32;
                for (index, job) in jobs.into_iter().enumerate() {
                    self.submit(move |exec| {
                        // Every job sends exactly one reply, even if it
                        // panics — otherwise the in-order reassembly
                        // would stall forever on the missing index. The
                        // message is fixed (not the panic payload) to
                        // keep the response stream deterministic.
                        let outcome = catch_unwind(AssertUnwindSafe(|| execute_job(exec, &job)))
                            .unwrap_or_else(|_| {
                                exec.obs.panics.inc();
                                exec.obs.job_errors.inc();
                                Err("job panicked inside the worker".to_string())
                            });
                        Completion::Job {
                            dispatch: dispatch_id,
                            index: index as u32,
                            outcome,
                        }
                    });
                }
                (
                    total,
                    payload_len as u64,
                    DispatchReply::Batch {
                        total,
                        next: 0,
                        parked: BTreeMap::new(),
                    },
                )
            }
            Request::Open(spec) => {
                self.submit(move |exec| {
                    let (id, outcome) =
                        match guarded(&exec.obs.panics, || open_session(exec, &spec)) {
                            Ok((id, result)) => {
                                exec.obs.sessions_opened.inc();
                                (id, Ok(result))
                            }
                            Err(e) => (0, Err(e)),
                        };
                    Completion::Control {
                        dispatch: dispatch_id,
                        reply: Response::Session { id, outcome },
                    }
                });
                (1, payload_len as u64, DispatchReply::Control)
            }
            Request::Mutate {
                session,
                delta,
                policy,
            } => {
                self.submit(move |exec| {
                    let outcome = guarded(&exec.obs.panics, || {
                        update_session(exec, session, |s| {
                            s.mutate(&delta, policy, exec.sim_threads, &exec.obs.session)
                        })
                    });
                    if let Ok(update) = &outcome {
                        exec.obs.record_repair(update.repair.repaired);
                    }
                    Completion::Control {
                        dispatch: dispatch_id,
                        reply: Response::Mutated {
                            id: session,
                            outcome,
                        },
                    }
                });
                (1, payload_len as u64, DispatchReply::Control)
            }
            Request::Resolve { session } => {
                self.submit(move |exec| {
                    let outcome = guarded(&exec.obs.panics, || {
                        update_session(exec, session, |s| {
                            s.resolve(exec.sim_threads, &exec.obs.session)
                        })
                    });
                    if outcome.is_ok() {
                        exec.obs.record_repair(false);
                    }
                    Completion::Control {
                        dispatch: dispatch_id,
                        reply: Response::Mutated {
                            id: session,
                            outcome,
                        },
                    }
                });
                (1, payload_len as u64, DispatchReply::Control)
            }
            other => unreachable!("non-heavy request {other:?} reached dispatch"),
        };
        self.pending_jobs += u64::from(jobs_left);
        self.pending_bytes += bytes;
        self.sync_admission_gauges();
        self.dispatches.insert(
            dispatch_id,
            Dispatch {
                conn: conn_id,
                kind,
                watch,
                bytes,
                jobs_left,
                reply,
            },
        );
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.busy = true;
        }
    }

    /// Queues `op` on the scheduler: the one submission path of batch
    /// jobs and session operations alike. The worker records the queue
    /// wait, runs `op`, sends its completion and wakes the reactor.
    fn submit(&self, op: impl FnOnce(&ExecContext) -> Completion + Send + 'static) {
        let exec = self.state.exec.clone();
        let waker = Arc::clone(&self.state.waker);
        let tx = self.completions_tx.clone();
        let queued = Stopwatch::start();
        self.state.scheduler.spawn(move || {
            exec.obs.queue_wait.observe(queued.elapsed_nanos());
            let _ = tx.send(op(&exec));
            waker.wake();
        });
    }

    fn drain_completions(&mut self) {
        let mut finished = Vec::new();
        while let Ok(completion) = self.completions_rx.try_recv() {
            let obs = self.state.exec.obs.clone();
            let (dispatch_id, conn_id, done) = match completion {
                Completion::Job {
                    dispatch,
                    index,
                    outcome,
                } => {
                    let Some(d) = self.dispatches.get_mut(&dispatch) else {
                        continue;
                    };
                    self.pending_jobs = self.pending_jobs.saturating_sub(1);
                    d.jobs_left = d.jobs_left.saturating_sub(1);
                    let DispatchReply::Batch {
                        total,
                        ref mut next,
                        ref mut parked,
                    } = d.reply
                    else {
                        continue;
                    };
                    parked.insert(index, outcome);
                    if let Some(conn) = self.conns.get_mut(&d.conn) {
                        while let Some(outcome) = parked.remove(next) {
                            append_job_frame(conn, *next, outcome, &obs);
                            *next += 1;
                        }
                        if *next == total {
                            append_frame(conn, &Response::BatchDone { jobs: total }, &obs);
                        }
                    } else {
                        // The client went away: discard replies but keep
                        // the accounting exact.
                        while parked.remove(next).is_some() {
                            *next += 1;
                        }
                    }
                    (dispatch, d.conn, d.jobs_left == 0)
                }
                Completion::Control { dispatch, reply } => {
                    let Some(d) = self.dispatches.get_mut(&dispatch) else {
                        continue;
                    };
                    self.pending_jobs = self.pending_jobs.saturating_sub(1);
                    d.jobs_left = 0;
                    if let Some(conn) = self.conns.get_mut(&d.conn) {
                        append_frame(conn, &reply, &obs);
                    }
                    (dispatch, d.conn, true)
                }
            };
            if done {
                let dispatch = self
                    .dispatches
                    .remove(&dispatch_id)
                    .expect("finished dispatch present");
                self.pending_bytes = self.pending_bytes.saturating_sub(dispatch.bytes);
                record_request(&obs, dispatch.kind, &dispatch.watch);
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.busy = false;
                    conn.last_activity = Instant::now();
                    finished.push(conn_id);
                }
            }
        }
        if !finished.is_empty() {
            self.sync_admission_gauges();
        }
        for id in finished {
            if !self.state.shutdown.load(Ordering::SeqCst) {
                self.pump(id);
            }
        }
    }

    /// Closes connections with no in-flight or queued work that have
    /// been silent past the idle timeout — the slow-loris defense.
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.state.admission.idle_timeout else {
            return;
        };
        let obs = self.state.exec.obs.clone();
        for conn in self.conns.values_mut() {
            if conn.closing || conn.busy || !conn.queue.is_empty() {
                continue;
            }
            if conn.last_activity.elapsed() >= timeout {
                obs.connections_idle_closed.inc();
                append_frame(
                    conn,
                    &Response::Error(format!(
                        "idle timeout: no activity for {}s, closing connection",
                        timeout.as_secs()
                    )),
                    &obs,
                );
                conn.read_closed = true;
                conn.closing = true;
            }
        }
    }

    fn flush_all(&mut self) {
        let obs = self.state.exec.obs.clone();
        for conn in self.conns.values_mut() {
            while conn.backlog() > 0 {
                let watch = Stopwatch::start();
                match (&conn.stream).write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        conn.closing = true;
                        conn.out.clear();
                        conn.out_pos = 0;
                        break;
                    }
                    Ok(n) => {
                        obs.write.observe(watch.elapsed_nanos());
                        conn.out_pos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.closing = true;
                        conn.out.clear();
                        conn.out_pos = 0;
                        break;
                    }
                }
            }
            if conn.out_pos == conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
            } else if conn.out_pos >= 256 * 1024 {
                conn.out.drain(..conn.out_pos);
                conn.out_pos = 0;
            }
        }
    }

    /// Drops connections that are done: flushed after `closing`, or
    /// EOF'd with nothing left to answer.
    fn remove_finished(&mut self) {
        let before = self.conns.len();
        self.conns.retain(|_, conn| {
            if conn.closing && conn.backlog() == 0 {
                return false;
            }
            let drained =
                conn.read_closed && !conn.busy && conn.queue.is_empty() && conn.backlog() == 0;
            !(drained && conn.fatal.is_none())
        });
        if self.conns.len() != before {
            self.obs().connections_open.set(self.conns.len() as u64);
        }
    }
}

/// Checks the frame's version byte, decodes the request, and queues it
/// on the connection — shedding at arrival if the per-connection
/// in-flight cap is hit.
fn ingest_frame(state: &ServerState, conn: &mut Conn, version: u8, payload: Vec<u8>) {
    if version != PROTOCOL_V3 {
        conn.fatal = Some(Response::UnsupportedVersion {
            got: version,
            min: PROTOCOL_MIN,
            max: PROTOCOL_MAX,
        });
        conn.read_closed = true;
        return;
    }
    let obs = &state.exec.obs;
    // The request clock starts when a complete frame is in hand — time
    // blocked waiting on the client's segmentation is not request
    // latency.
    let mut watch = Stopwatch::start();
    let request = match decode_payload::<Request>(&payload) {
        Ok(request) => request,
        Err(e) => {
            conn.fatal = Some(Response::Error(e.to_string()));
            conn.read_closed = true;
            return;
        }
    };
    obs.decode.observe(watch.lap_nanos());
    let kind = ReqKind::of(&request);
    let body = match request {
        Request::Ping
        | Request::Stats
        | Request::Shutdown
        | Request::Metrics
        | Request::Hello
        | Request::Release { .. } => QueuedBody::Inline(request),
        Request::Batch(ref jobs) if jobs.is_empty() => QueuedBody::Inline(request),
        Request::Batch(_) | Request::Open(_) | Request::Mutate { .. } | Request::Resolve { .. } => {
            let inflight = conn.heavy_queued + usize::from(conn.busy);
            if inflight >= state.admission.per_conn_inflight {
                QueuedBody::Shed
            } else {
                conn.heavy_queued += 1;
                QueuedBody::Heavy(request)
            }
        }
    };
    conn.queue.push_back(QueuedReq {
        kind,
        watch,
        payload_len: payload.len(),
        body,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DeltaSpec, SessionPolicy};
    use arbodom_core::weighted;
    use arbodom_graph::generators;
    use arbodom_scenarios::Algorithm;

    /// `update_session` records a session's bytes after an operation that
    /// changed the session and then failed, not only after a success.
    #[test]
    fn a_failed_session_operation_still_records_the_session_bytes() {
        let exec = ExecContext {
            cache: Arc::new(Mutex::new(GraphCache::new(1 << 20))),
            sessions: Arc::new(SessionTable::new()),
            sim_threads: 1,
            scale: Scale::Quick,
            obs: ServiceObs::new(&Registry::new()),
            sim_obs: None,
        };
        let g = generators::path(50);
        let sol = weighted::solve(&g, &weighted::Config::new(1, 0.2).unwrap()).unwrap();
        let session = Session::new(g, &sol, Algorithm::Weighted { eps: 0.2 }, 1, 7);
        let id = exec.sessions.insert(session);
        let opened = exec.sessions.usage().1;
        // An insert-only batch grows m, and the session keeps it.
        let grow = DeltaSpec {
            inserts: vec![(0, 49)],
            deletes: vec![],
        };
        let result = update_session(&exec, id, |s| {
            s.mutate(&grow, SessionPolicy::Repair, 1, &exec.obs.session)?;
            Err("the operation fails after changing the session".into())
        });
        assert!(result.is_err());
        let held = exec.sessions.get(id).unwrap().lock().unwrap().cost_bytes();
        assert_ne!(held, opened, "the operation changed the session");
        assert_eq!(exec.sessions.usage().1, held);
    }
}
