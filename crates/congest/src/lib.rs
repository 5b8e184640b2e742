//! A synchronous CONGEST-model simulator.
//!
//! The CONGEST model (Section 2 of the paper): the communication network is
//! the input graph; computation proceeds in synchronous rounds; per round,
//! each node may send one message of `O(log n)` bits along each incident
//! edge (different messages on different edges are allowed). At the end,
//! each node knows its part of the output.
//!
//! This crate executes [`NodeProgram`]s — per-node state machines — over an
//! [`arbodom_graph::Graph`] topology and *meters* every message: messages
//! are encoded to concrete bytes through the [`Wire`] trait, so bandwidth
//! compliance is measured, never assumed. [`Telemetry`] reports rounds,
//! message counts, total bits, the largest message, and the number of
//! messages exceeding the configured CONGEST budget.
//!
//! One round loop drives every run. [`run`] makes each round inline on
//! the calling thread; [`run_parallel`] and [`run_parallel_in`] share
//! each round among a pool of worker threads and produce bit-identical
//! results (node programs draw randomness only through the deterministic
//! [`det_rand`] utilities, keyed by seed, node, and round).
//!
//! # Simulator performance model
//!
//! The inner loop is built for large-`n` experiments; the trajectory of
//! its throughput is recorded in `BENCH_sim.json` at the workspace root
//! (regenerated by `exp_scaling`, see the README). The load-bearing
//! design decisions:
//!
//! * **Per-round mailbox arenas.** A round's messages live in one flat
//!   buffer grouped by destination, with an `n + 1` offset table; a
//!   node's inbox is a borrowed [`Inbox`] slice of that arena. Delivery
//!   is one out-of-place stable counting sort straight from the staged
//!   sends (count per destination, prefix sum, clone into slot) — no
//!   gather copy, no in-place permutation — and every buffer keeps its
//!   capacity across rounds, so steady-state delivery performs **zero
//!   heap allocations** regardless of traffic volume.
//! * **Run-owned per-port state.** What a node keeps per incident edge
//!   ([`NodeProgram::PortState`]) lives in one CSR-ordered array of `2m`
//!   entries owned by the run, and each round a node borrows its
//!   `degree`-long slice, indexed by port. Node programs need no heap
//!   allocation of their own — at 10⁶ nodes, per-node mirror `Vec`s
//!   would be millions of allocations to build and free — and programs
//!   without per-port state declare `()`, which takes no memory.
//! * **Encode-once metering.** A node sends through an [`Outbox`], and
//!   each of its send calls is encoded at most once per round into a
//!   reusable scratch buffer — a broadcast to `d` neighbors is metered
//!   once and fanned out as `d` in-memory clones. The outbox and the
//!   scratch buffer are one per worker, reused for every node, so
//!   sending allocates nothing per node.
//!   [`MeterMode::Measure`] encodes to count bits; [`MeterMode::Strict`]
//!   additionally decodes and delivers the round-tripped value;
//!   [`MeterMode::Off`] never touches an encoder and reports zero bits.
//! * **CSR fan-out.** [`Outbox::broadcast`] and [`Outbox::send`] expand
//!   through the graph's flat CSR arrays ([`arbodom_graph::Graph::csr`])
//!   and a flat reverse-port table sharing the same offsets, so fan-out
//!   walks contiguous memory. The round loop builds that table before
//!   round 0 in one `O(n + m)` pass: CSR adjacency lists are sorted and
//!   symmetric, so walking the flat neighbor array (senders in
//!   ascending id) with one cursor per receiver yields each reverse port
//!   in order, with no per-edge search.
//! * **Sharded round loop.** The loop partitions the node ids into
//!   contiguous shards — one whole-graph shard for a single worker,
//!   several cache-sized shards per worker on a pool (tunable via
//!   [`RunOptions::shard_size`]) — each owning its node programs, its
//!   per-destination-shard send buckets, its own mailbox arena, and the
//!   contiguous slice of the port-state array covering its nodes.
//!   Workers claim shards from an atomic queue, so a few high-degree
//!   hubs cannot strand the other threads; each claimed shard first
//!   *delivers* the previous round's sends into its arena, reading its
//!   bucket in every source shard, then *computes* its nodes, staging
//!   sends straight into destination-shard buckets. A shard's sends to
//!   its own nodes stay in one buffer of its own, so a one-shard run
//!   holds a single staging buffer. Buckets and delivery preserve
//!   staging order and source shards are read in ascending order, so
//!   every inbox lists its senders in ascending id — the same inbox
//!   order, and therefore the same outputs and telemetry, bit for bit,
//!   at any shard size and thread count.
//! * **Persistent worker pool.** Threads are spawned once, when a
//!   [`WorkerPool`] is constructed — not once per round. Each round is
//!   an *epoch*: the caller installs the round's work as a shared
//!   closure, bumps an epoch counter under a mutex, and wakes the
//!   workers through a condvar; the caller itself runs the closure as
//!   worker 0 and a second condvar signals when the last worker checks
//!   back in. The previous design re-`thread::scope`d every round, so
//!   at 10⁶ nodes × hundreds of rounds the spawn/join overhead made
//!   `run_parallel` *slower* than [`run`];
//!   [`WorkerPool::threads_spawned`] pins the steady state at zero
//!   spawns per round. [`run`] uses no pool: its one worker is the
//!   calling thread. [`run_parallel`] creates a pool per call;
//!   [`run_parallel_in`] reuses a caller-owned pool across runs (what
//!   the benches and the daemon do).
//! * **Decentralized halting.** No central `O(n)` scan decides when the
//!   run is over. Each shard owns its nodes' active flags and, after
//!   computing a round, subtracts the number of nodes that just halted
//!   from one shared atomic counter; the round loop exits when the
//!   counter reaches zero. Halt bookkeeping per round costs one atomic
//!   op per *shard*, not one check per node.
//! * **Opt-in phase timing.** [`RunOptions::obs`] attaches an
//!   [`arbodom_obs::Registry`]-backed [`SimObs`] side channel: run
//!   set-up and tear-down nanoseconds, per-shard deliver/compute
//!   nanoseconds, on a pool the dispatch and barrier-wait time and
//!   per-worker busy time, and a delivered-message-size histogram (see
//!   [`obs`] for the metric names). It is off by default and *provably
//!   free when off* — no clocks, no allocations, outputs and telemetry
//!   bit-identical either way, pinned by the differential proptests.
//!
//! # Million-node mode
//!
//! The sharded layout is what lets one process push `n = 10⁶` CONGEST
//! nodes (see the `huge` section of `BENCH_sim.json` and the `huge`
//! scenario tier). The shard layout per round:
//!
//! ```text
//!            shard 0              shard 1        …       shard S−1
//!   ┌──────────────────────┐ ┌───────────────┐      ┌───────────────┐
//!   │ programs[0..c]       │ │ programs[c..]  │  …   │ programs[..n] │
//!   │ ports (CSR slice)    │ │ ports          │      │ ports         │
//!   │ arena (inboxes)      │ │ arena          │      │ arena         │
//!   │ buckets[0..S] ───────┼─┼────────────────┼──────┼──▶ delivered  │
//!   └──────────────────────┘ └───────────────┘      │  by dest shard │
//!                                                    └───────────────┘
//! ```
//!
//! Steady-state memory is `O(edges + live messages)`:
//!
//! * graph: `≈ 12n + 8m` bytes (CSR offsets + neighbors + weights, see
//!   `Graph::memory_footprint`) plus a `4·2m`-byte reverse-port table;
//! * per live message: one staged copy (source bucket) and one delivered
//!   copy (destination arena), `16 bytes + payload` each;
//! * per directed edge: one [`NodeProgram::PortState`] (zero bytes for
//!   `()`, 24 bytes for the Theorem 1.1 program's neighbor mirror);
//! * per node: its program state plus two `u32` offset-table entries.
//!
//! A 10⁶-node forest union (α = 3) is ≈ 34 MB of graph and tens of MB of
//! message buffers at flood load — far below commodity-laptop memory,
//! with throughput in the tens of millions of delivered messages per
//! second (the `huge.current` rows of `BENCH_sim.json`).
//!
//! # Example: one round of neighbor counting
//!
//! Each node broadcasts its id, then records the id heard on each port
//! in its per-port state (`ports[p]` belongs to the edge at port `p`;
//! programs that need none declare `type PortState = ()`).
//!
//! ```
//! use arbodom_congest::{run, Globals, Inbox, NodeCtx, NodeProgram, Outbox, RunOptions};
//! use arbodom_graph::generators;
//!
//! struct CountNeighbors { heard: usize }
//!
//! impl NodeProgram for CountNeighbors {
//!     type Message = u32;
//!     type PortState = Option<u32>; // the id heard on this port
//!     type Output = usize;
//!     fn round(
//!         &mut self,
//!         ctx: &NodeCtx<'_>,
//!         inbox: Inbox<'_, u32>,
//!         ports: &mut [Option<u32>],
//!         out: &mut Outbox<u32>,
//!     ) -> bool {
//!         if ctx.round == 0 {
//!             out.broadcast(ctx.id.get());
//!             return false; // keep running
//!         }
//!         for (port, &id) in inbox {
//!             ports[port] = Some(id);
//!         }
//!         self.heard = ports.iter().flatten().count();
//!         true // halt
//!     }
//!     fn output(&self) -> usize { self.heard }
//! }
//!
//! let g = generators::cycle(8);
//! let globals = Globals::new(&g, 42);
//! let result = run(&g, &globals, |_, _| CountNeighbors { heard: 0 }, &RunOptions::default())?;
//! assert!(result.outputs.iter().all(|&h| h == 2));
//! assert_eq!(result.telemetry.rounds, 2);
//! # Ok::<(), arbodom_congest::SimError>(())
//! ```

// `deny`, not `forbid`: the worker pool is the one module allowed to use
// `unsafe` (lifetime-erased job dispatch — see `pool.rs` for the
// containment argument). Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod det_rand;
mod error;
mod mailbox;
pub mod obs;
pub mod pool;
mod program;
mod sim;
mod telemetry;
mod wire;

pub use error::{SimError, WireError};
pub use mailbox::{Inbox, InboxIter};
pub use obs::SimObs;
pub use pool::WorkerPool;
pub use program::{Globals, NodeCtx, NodeProgram, Outbox};
pub use sim::{run, run_parallel, run_parallel_in, LossModel, MeterMode, RunOptions, RunResult};
pub use telemetry::{RoundStats, Telemetry};
pub use wire::{
    assert_wire_conformance, get_bool, get_u32, get_u64, get_uvarint, put_bool, put_u32, put_u64,
    put_uvarint, Wire,
};
