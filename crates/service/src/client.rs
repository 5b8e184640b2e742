//! Blocking client for `arbodomd` — used by the CLI, `arbobench`, and
//! the end-to-end tests.
//!
//! [`Client`] is a reusable handle, not a bare socket: it remembers the
//! daemon's address, lazily (re)establishes its connection, and retries
//! requests the server shed with [`Response::Overloaded`] under a
//! bounded exponential-backoff-with-jitter policy that honors the
//! server's `retry_after_ms` hint. Configure it through
//! [`Client::builder`]:
//!
//! ```no_run
//! use arbodom_service::{Client, RetryPolicy};
//! use std::time::Duration;
//!
//! let mut client = Client::builder()
//!     .retries(8)
//!     .backoff(Duration::from_millis(10), Duration::from_secs(1))
//!     .connect("127.0.0.1:4310")?;
//! client.ping()?;
//! # Ok::<(), arbodom_service::ServiceError>(())
//! ```
//!
//! With `retries(0)` every shed surfaces immediately as
//! [`ServiceError::Overloaded`] — that is how `arbobench` counts raw
//! sheds instead of masking them.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    decode_payload, read_frame, write_message, CacheStats, DeltaSpec, JobResult, JobSpec, Request,
    Response, ServerLimits, SessionPolicy, SessionUpdate, PROTOCOL_V3,
};
use crate::ServiceError;

/// How a [`Client`] retries requests shed by admission control.
///
/// The delay before attempt `k` (1-based) is
/// `clamp(max(base_backoff · 2^(k-1), retry_after_ms), ..=max_backoff)`,
/// then jittered uniformly into its upper half so synchronized clients
/// don't re-flood the server in lockstep.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = surface every shed).
    pub max_retries: u32,
    /// First-retry backoff (doubles per attempt).
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

/// Builder-style configuration for [`Client`].
#[derive(Clone, Debug, Default)]
pub struct ClientBuilder {
    retry: RetryPolicy,
}

impl ClientBuilder {
    /// A builder with the default retry policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximum retries after a shed (0 surfaces every shed as
    /// [`ServiceError::Overloaded`]).
    pub fn retries(mut self, max_retries: u32) -> Self {
        self.retry.max_retries = max_retries;
        self
    }

    /// First-retry backoff and its ceiling.
    pub fn backoff(mut self, base: Duration, max: Duration) -> Self {
        self.retry.base_backoff = base;
        self.retry.max_backoff = max;
        self
    }

    /// Seed of the deterministic backoff jitter (distinct seeds decorrelate
    /// concurrent clients).
    pub fn jitter_seed(mut self, seed: u64) -> Self {
        self.retry.jitter_seed = seed;
        self
    }

    /// Full retry policy at once.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Resolves `addr` and establishes the first connection.
    ///
    /// # Errors
    ///
    /// Propagates resolution and socket errors.
    pub fn connect(self, addr: impl ToSocketAddrs) -> Result<Client, ServiceError> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            ServiceError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ))
        })?;
        // A nonzero xorshift state derived from the seed (0 is a fixed
        // point of xorshift, so fold in a constant).
        let rng = self.retry.jitter_seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut client = Client {
            addr,
            retry: self.retry,
            stream: None,
            rng: rng | 1,
        };
        client.ensure_connected()?;
        Ok(client)
    }
}

/// One logical connection to a daemon. Requests are strictly sequential
/// per client; open several clients for concurrency.
///
/// The handle survives server-side closes: a failed or closed
/// connection is re-established on the next request. Shed requests
/// (typed [`Response::Overloaded`]) are retried per the configured
/// [`RetryPolicy`]; when the budget runs out the shed surfaces as
/// [`ServiceError::Overloaded`].
pub struct Client {
    addr: SocketAddr,
    retry: RetryPolicy,
    stream: Option<TcpStream>,
    rng: u64,
}

impl Client {
    /// A [`ClientBuilder`] with defaults (4 retries).
    pub fn builder() -> ClientBuilder {
        ClientBuilder::new()
    }

    /// Connects to a daemon with the default retry policy.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        Self::builder().connect(addr)
    }

    /// The daemon address this handle reconnects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn ensure_connected(&mut self) -> Result<&mut TcpStream, ServiceError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Drops the connection so the next request reconnects. Called on
    /// transport failures and on server replies whose contract closes
    /// the connection ([`Response::Error`] and
    /// [`Response::UnsupportedVersion`]).
    fn disconnect(&mut self) {
        self.stream = None;
    }

    fn send(&mut self, request: &Request) -> Result<(), ServiceError> {
        let stream = self.ensure_connected()?;
        write_message(stream, PROTOCOL_V3, request).inspect_err(|_| self.disconnect())
    }

    /// Reads one reply frame: its payload and the decoded message. The
    /// connection-level replies surface as errors.
    fn recv(&mut self) -> Result<(Vec<u8>, Response), ServiceError> {
        let stream = self.ensure_connected()?;
        let payload = match read_frame(stream) {
            Ok((_, payload)) => payload,
            Err(e) => {
                self.disconnect();
                return Err(e);
            }
        };
        let closed = match decode_payload::<Response>(&payload)? {
            Response::Error(msg) => ServiceError::Remote(msg),
            Response::UnsupportedVersion { got, min, max } => {
                ServiceError::UnsupportedVersion { got, min, max }
            }
            Response::Overloaded {
                retry_after_ms,
                queue_depth,
            } => {
                return Err(ServiceError::Overloaded {
                    retry_after_ms,
                    queue_depth,
                })
            }
            other => return Ok((payload, other)),
        };
        // The server closes the connection after these; match it.
        self.disconnect();
        Err(closed)
    }

    /// Next backoff delay for retry attempt `attempt` (1-based),
    /// honoring the server's hint.
    fn backoff_delay(&mut self, attempt: u32, hint_ms: u64) -> Duration {
        let base = (self.retry.base_backoff.as_millis() as u64).max(1);
        let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
        let cap = (self.retry.max_backoff.as_millis() as u64).max(1);
        let ms = exp.max(hint_ms).clamp(1, cap);
        // xorshift64: deterministic per-client jitter into [ms/2, ms].
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        Duration::from_millis(ms / 2 + self.rng % (ms / 2 + 1))
    }

    /// One request/response exchange with overload retries.
    fn round_trip(&mut self, request: &Request) -> Result<Response, ServiceError> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.send(request).and_then(|()| self.recv());
            match outcome.map(|(_, reply)| reply) {
                Err(ServiceError::Overloaded { retry_after_ms, .. })
                    if attempt < self.retry.max_retries =>
                {
                    attempt += 1;
                    std::thread::sleep(self.backoff_delay(attempt, retry_after_ms));
                }
                other => return other,
            }
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn ping(&mut self) -> Result<(), ServiceError> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Fetches the daemon's advertised protocol range and admission
    /// limits.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn hello(&mut self) -> Result<ServerLimits, ServiceError> {
        match self.round_trip(&Request::Hello)? {
            Response::Limits(limits) => Ok(limits),
            other => Err(unexpected("Limits", &other)),
        }
    }

    /// Fetches the daemon's graph-cache counters.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn stats(&mut self) -> Result<CacheStats, ServiceError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Asks the daemon to shut down.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn shutdown_server(&mut self) -> Result<(), ServiceError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }

    /// Opens a session: solves `spec` and keeps the instance alive
    /// server-side. Returns the session id and the opening solve's
    /// result.
    ///
    /// # Errors
    ///
    /// Job-level failures (bad source, lossy cell, invalid initial
    /// solution) surface as [`ServiceError::Remote`] — no session was
    /// created. An exhausted retry budget surfaces as
    /// [`ServiceError::Overloaded`].
    pub fn open(&mut self, spec: &JobSpec) -> Result<(u64, JobResult), ServiceError> {
        match self.round_trip(&Request::Open(spec.clone()))? {
            Response::Session { id, outcome } => match outcome {
                Ok(result) => Ok((id, result)),
                Err(msg) => Err(ServiceError::Remote(msg)),
            },
            other => Err(unexpected("Session", &other)),
        }
    }

    /// Applies an edge-delta batch to a session under `policy`.
    ///
    /// # Errors
    ///
    /// Job-level failures (unknown session, conflicting delta, failed
    /// fallback solve) surface as [`ServiceError::Remote`]; the session
    /// survives unless the message says otherwise.
    pub fn mutate(
        &mut self,
        session: u64,
        delta: &DeltaSpec,
        policy: SessionPolicy,
    ) -> Result<SessionUpdate, ServiceError> {
        let request = Request::Mutate {
            session,
            delta: delta.clone(),
            policy,
        };
        let reply = self.round_trip(&request)?;
        read_mutated(session, reply)
    }

    /// Forces a certified full re-solve on a session's current graph,
    /// re-anchoring its drift estimate.
    ///
    /// # Errors
    ///
    /// Job-level failures surface as [`ServiceError::Remote`].
    pub fn resolve_session(&mut self, session: u64) -> Result<SessionUpdate, ServiceError> {
        let reply = self.round_trip(&Request::Resolve { session })?;
        read_mutated(session, reply)
    }

    /// Releases a session (idempotent). Returns whether it existed.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn release(&mut self, session: u64) -> Result<bool, ServiceError> {
        match self.round_trip(&Request::Release { session })? {
            Response::Released { id, existed } => {
                if id != session {
                    return Err(ServiceError::Protocol(format!(
                        "reply addresses session {id}, expected {session}"
                    )));
                }
                Ok(existed)
            }
            other => Err(unexpected("Released", &other)),
        }
    }

    /// Scrapes the daemon's metrics registry: returns the Prometheus
    /// text-exposition rendering (parse it with
    /// `arbodom_obs::prom::parse`).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn metrics(&mut self) -> Result<String, ServiceError> {
        match self.round_trip(&Request::Metrics)? {
            Response::MetricsReport(text) => Ok(text),
            other => Err(unexpected("MetricsReport", &other)),
        }
    }

    /// Submits a batch and returns the **raw response frame payloads** in
    /// arrival order (every `Job` frame, then the `BatchDone` trailer).
    /// This is the byte stream the determinism tests compare (the frame's
    /// version byte, always v3, is excluded).
    ///
    /// A shed batch (typed `Overloaded` instead of the first `Job`
    /// frame) is retried under the client's [`RetryPolicy`]; nothing is
    /// executed server-side before the shed, so the retry is safe.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, a server-reported connection error, or
    /// [`ServiceError::Overloaded`] once the retry budget is exhausted.
    pub fn submit_raw(&mut self, jobs: &[JobSpec]) -> Result<Vec<Vec<u8>>, ServiceError> {
        let request = Request::Batch(jobs.to_vec());
        let mut attempt = 0u32;
        loop {
            match self.submit_raw_once(&request) {
                Err(ServiceError::Overloaded { retry_after_ms, .. })
                    if attempt < self.retry.max_retries =>
                {
                    attempt += 1;
                    std::thread::sleep(self.backoff_delay(attempt, retry_after_ms));
                }
                other => return other,
            }
        }
    }

    fn submit_raw_once(&mut self, request: &Request) -> Result<Vec<Vec<u8>>, ServiceError> {
        self.send(request)?;
        let mut frames = Vec::new();
        loop {
            // The server sheds a batch *before* dispatching any of it, so
            // an `Overloaded` error here means no partial results.
            let (payload, reply) = self.recv()?;
            let done = match reply {
                Response::BatchDone { .. } => true,
                Response::Job { .. } => false,
                other => return Err(unexpected("Job/BatchDone", &other)),
            };
            frames.push(payload);
            if done {
                return Ok(frames);
            }
        }
    }

    /// Submits a batch and returns one outcome per job, in submission
    /// order.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, a server-reported connection error, or
    /// a protocol violation (job indices out of order or miscounted).
    pub fn submit(
        &mut self,
        jobs: &[JobSpec],
    ) -> Result<Vec<Result<JobResult, String>>, ServiceError> {
        let frames = self.submit_raw(jobs)?;
        let mut outcomes = Vec::with_capacity(jobs.len());
        for payload in &frames {
            match decode_payload::<Response>(payload)? {
                Response::Job { index, outcome } => {
                    if index as usize != outcomes.len() {
                        return Err(ServiceError::Protocol(format!(
                            "job index {index} arrived out of order"
                        )));
                    }
                    outcomes.push(outcome);
                }
                Response::BatchDone { jobs: count } => {
                    if count as usize != outcomes.len() {
                        return Err(ServiceError::Protocol(format!(
                            "batch trailer counts {count} jobs, received {}",
                            outcomes.len()
                        )));
                    }
                }
                other => return Err(unexpected("Job/BatchDone", &other)),
            }
        }
        if outcomes.len() != jobs.len() {
            return Err(ServiceError::Protocol(format!(
                "submitted {} jobs, received {} replies",
                jobs.len(),
                outcomes.len()
            )));
        }
        Ok(outcomes)
    }
}

fn read_mutated(session: u64, reply: Response) -> Result<SessionUpdate, ServiceError> {
    match reply {
        Response::Mutated { id, outcome } => {
            if id != session {
                return Err(ServiceError::Protocol(format!(
                    "reply addresses session {id}, expected {session}"
                )));
            }
            outcome.map_err(ServiceError::Remote)
        }
        other => Err(unexpected("Mutated", &other)),
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServiceError {
    ServiceError::Protocol(format!("expected {wanted}, got {got:?}"))
}
