//! `arbodomd` — the serving layer over the scenario engine.
//!
//! Everything below PR 4 was batch: one-shot CLIs building a graph,
//! running an algorithm, exiting. This crate turns the stack into a
//! long-running **batch-query daemon**: a std-only threaded TCP server
//! that amortizes graph construction across queries (a byte-budgeted
//! LRU cache keyed by [`arbodom_graph::digest::edge_digest`]) and fans
//! jobs across a FIFO worker pool; each job runs its solver through
//! [`arbodom_scenarios::Algorithm::execute`] on
//! [`ServerConfig::sim_threads`] simulator threads. It also serves
//! **dynamic graphs**: a session protocol holds `(graph,
//! solution, quality)` state server-side and maintains the dominating set under
//! edge churn by incremental local repair
//! ([`arbodom_core::repair`]), falling back to a certified full
//! re-solve when the quality drift bound trips.
//!
//! # Service cookbook
//!
//! **Run the daemon.**
//!
//! ```text
//! cargo run --release -p arbodom-service --bin arbodomd -- --addr 127.0.0.1:4310 --workers 8
//! ```
//!
//! **Talk to it** with the bundled CLI:
//!
//! ```text
//! arbodom-client ping      --addr 127.0.0.1:4310
//! arbodom-client run       --addr 127.0.0.1:4310 --generator random-tree --n 1000
//! arbodom-client run       --addr 127.0.0.1:4310 --edge-list my_graph.txt --members
//! arbodom-client run       --addr 127.0.0.1:4310 --cell trees-exact 0 0 0 0
//! arbodom-client stats     --addr 127.0.0.1:4310
//! arbodom-client shutdown  --addr 127.0.0.1:4310
//! ```
//!
//! **Or programmatically** — boot an in-process daemon on an ephemeral
//! port and submit a batch:
//!
//! ```
//! use arbodom_service::{Client, GraphSource, JobSpec, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let jobs = vec![JobSpec::new(GraphSource::Inline {
//!     n: 4,
//!     edges: vec![(0, 1), (1, 2), (2, 3)],
//!     weights: None,
//! })];
//! let replies = client.submit(&jobs)?;
//! let result = replies[0].as_ref().expect("job succeeds");
//! assert!(result.valid && !result.flagged);
//! server.shutdown();
//! # Ok::<(), arbodom_service::ServiceError>(())
//! ```
//!
//! **Serve a mutating graph** — open a session, stream edge churn at it,
//! and let the server keep the dominating set valid (local repair per
//! batch, certified re-solve on demand or when drift accumulates):
//!
//! ```
//! use arbodom_service::{
//!     Client, DeltaSpec, GraphSource, JobSpec, Server, ServerConfig, SessionPolicy,
//! };
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let spec = JobSpec::new(GraphSource::Inline {
//!     n: 6,
//!     edges: vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
//!     weights: None,
//! });
//! let (session, opened) = client.open(&spec)?;
//! assert!(opened.valid);
//!
//! // One churn batch: drop an edge, add another. Repair keeps the set
//! // valid without re-running the distributed algorithm.
//! let delta = DeltaSpec {
//!     inserts: vec![(0, 5)],
//!     deletes: vec![(2, 3)],
//! };
//! let update = client.mutate(session, &delta, SessionPolicy::Repair)?;
//! assert!(update.result.valid);
//! assert_eq!(update.result.rounds, 0, "local repair simulates nothing");
//!
//! // Regular jobs can query the session's live graph...
//! let snap = client.submit(&[JobSpec::new(GraphSource::Session { id: session })])?;
//! assert_eq!(snap[0].as_ref().unwrap().graph_digest, update.result.graph_digest);
//!
//! // ...and a certified re-solve re-anchors the drift estimate.
//! let resolved = client.resolve_session(session)?;
//! assert!(!resolved.repair.repaired);
//! assert!(client.release(session)?);
//! server.shutdown();
//! # Ok::<(), arbodom_service::ServiceError>(())
//! ```
//!
//! # Protocol
//!
//! Versioned length-prefixed frames (a version byte, a 4-byte
//! little-endian payload length, then the payload encoded with the
//! CONGEST [`arbodom_congest::Wire`] codecs); see [`protocol`] for the
//! message grammar and the version rule (every frame carries
//! [`PROTOCOL_V3`]; a frame carrying any other byte gets a typed
//! `UnsupportedVersion` reply and the connection closes). A batch request
//! is answered with one [`protocol::Response::Job`] frame per job **in
//! submission order** plus a `BatchDone` trailer, which makes the
//! response stream byte-deterministic: identical batches yield
//! identical bytes at any server worker count (the end-to-end tests
//! compare raw frames).
//!
//! # Job specs
//!
//! A job names a graph ([`GraphSource`]: inline edge list, named
//! generator + params + seed, a registered scenario cell, or a live
//! session snapshot), optionally an algorithm override, a seed, and
//! whether to return the member list. Results carry the solution, the
//! certified approximation ratio from [`arbodom_scenarios::quality`]
//! (exact / planted / packing-lb reference), the round count against
//! the theorem budget, and the full simulator telemetry.
//!
//! # Cache semantics
//!
//! Graphs are cached by edge digest with **byte-budgeted** LRU eviction
//! ([`cache::GraphCache`]): each entry is charged its
//! [`arbodom_graph::Graph::memory_footprint`] (plus any planted set)
//! and least-recently-used instances are evicted until resident bytes
//! fit the budget, so one million-node instance and a thousand toy
//! graphs are accounted at their true cost. A spec index maps encoded
//! sources to digests so repeated generator/scenario queries skip
//! construction entirely. Session graphs are never cached — they mutate.
//! Caching changes *when* work happens, never *what* a job returns —
//! results are pure functions of the job spec and the server scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cliargs;
mod client;
mod error;
pub mod jobs;
pub mod obs;
pub mod protocol;
mod scheduler;
mod server;
pub mod session;

pub use client::{Client, ClientBuilder, RetryPolicy};
pub use error::ServiceError;
pub use jobs::{execute_job, open_session, ExecContext};
pub use obs::ServiceObs;
pub use protocol::{
    CacheStats, DeltaSpec, FrameAssembler, GraphSource, JobResult, JobSpec, RepairStats, Request,
    Response, ServerLimits, SessionPolicy, SessionUpdate, PROTOCOL_V3,
};
pub use server::{Server, ServerConfig};
pub use session::{Session, SessionLimits, SessionLost, SessionTable};
