//! The synchronous round loop.
//!
//! [`run`], [`run_parallel`] and [`run_parallel_in`] all drive one round
//! loop. It splits the node ids into contiguous shards and runs each
//! round as one pass over them: a pool's workers share the pass, and a
//! single worker — [`run`], a one-thread pool, or a graph too small to
//! split — makes it inline on the calling thread. The crate docs'
//! performance model describes its parts: arena delivery, run-owned port
//! state, encode-once metering, CSR fan-out, the sharded schedule and
//! decentralized halting.

use arbodom_graph::{Graph, NodeId};
use bytes::BytesMut;

use crate::mailbox::{Delivery, MailArena};
use crate::obs::SimObs;
use crate::pool::WorkerPool;
use crate::telemetry::SendStats;
use crate::{Globals, NodeCtx, NodeProgram, Outbox, SimError, Telemetry, Wire};
use arbodom_obs::{SpanAcc, Stopwatch};

/// How thoroughly messages are serialized for metering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MeterMode {
    /// Encode each outgoing message once to measure it; deliver in-memory
    /// clones. The default: accurate metering at low cost.
    #[default]
    Measure,
    /// Encode *and decode* every outgoing message, erroring on mismatch,
    /// and deliver the round-tripped value. Slow; used by tests to prove
    /// `Wire` implementations round-trip.
    Strict,
    /// Skip encoding entirely; telemetry reports zero bits. For benchmarks
    /// that only care about round counts.
    Off,
}

/// Fault injection: every delivered message is dropped independently with
/// the given probability. Drops are deterministic — keyed by
/// `(seed, round, sender, port)` through [`crate::det_rand`] — so faulty
/// runs are exactly reproducible. Dropped messages still consume
/// bandwidth (they were sent); they are counted in
/// [`Telemetry::dropped_messages`] and never delivered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossModel {
    /// Per-message drop probability in `[0, 1]`.
    pub drop_probability: f64,
    /// Seed of the drop coin flips.
    pub seed: u64,
}

/// Options controlling a run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Hard limit on executed rounds. A program that halts within exactly
    /// `max_rounds` rounds succeeds; needing even one more round fails
    /// with [`SimError::MaxRoundsExceeded`].
    pub max_rounds: usize,
    /// Metering behavior.
    pub meter: MeterMode,
    /// Record per-round statistics (costs memory proportional to rounds).
    pub track_rounds: bool,
    /// Optional message-loss fault injection.
    pub loss: Option<LossModel>,
    /// Nodes per shard, honoured by every entry point. `None` makes one
    /// whole-graph shard when a single worker runs the rounds ([`run`],
    /// or a pool that runs inline) and picks a cache-sized shard for a
    /// pool; explicit values are rounded up to the next power of two (the
    /// destination-shard lookup is a shift). Results are bit-identical at
    /// **any** value — only wall clock and peak per-shard memory change.
    /// Tiny explicit shards on huge graphs cost `O((n / shard_size)²)`
    /// bucket memory — the auto choice keeps the shard count small.
    pub shard_size: Option<usize>,
    /// Observability side channel: when set, the round loop records
    /// phase timings (deliver/compute per shard, and on a pool the
    /// dispatch, barrier-wait and per-worker busy time) and a
    /// delivered-message-size histogram into the handles' registry.
    /// `None` (the default) records nothing and costs nothing — no
    /// clocks, no allocations, and outputs and telemetry stay
    /// bit-identical either way (see [`crate::obs`]).
    pub obs: Option<SimObs>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_rounds: 1_000_000,
            meter: MeterMode::Measure,
            track_rounds: false,
            loss: None,
            shard_size: None,
            obs: None,
        }
    }
}

/// The result of a completed run.
#[derive(Clone, Debug)]
pub struct RunResult<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// Aggregate statistics.
    pub telemetry: Telemetry,
}

/// For each directed edge at flat CSR index `e = offsets[v] + p` (port `p`
/// of node `v`), the port index of the reverse edge at the neighbor: if
/// `neighbors(v)[p] == u`, then `rev[e]` is the position of `v` in
/// `neighbors(u)` — i.e. the port a message from `v` *arrives on* at `u`.
/// Flat and offset-shared with [`Graph::csr`], unlike a per-node
/// `Vec<Vec<u32>>`, so fan-out walks contiguous memory.
///
/// One `O(n + m)` pass over the flat neighbor array with a per-receiver
/// cursor. It relies on the CSR invariant that every adjacency list is
/// sorted and the lists are symmetric: the flat array walks senders `v`
/// in ascending id, which is the order `neighbors(u)` lists them, so
/// `u`'s next unclaimed port is exactly `v`'s position there.
fn reverse_ports(g: &Graph) -> Vec<u32> {
    let (_, nbrs_flat) = g.csr();
    let mut next = vec![0u32; g.n()];
    let mut rev = Vec::with_capacity(nbrs_flat.len());
    for &u in nbrs_flat {
        let port = &mut next[u.index()];
        rev.push(*port);
        *port += 1;
    }
    rev
}

/// Domain-separation tag for fault-injection coin flips.
const LOSS_TAG: u64 = 0x4c4f5353; // "LOSS"

/// Below this node count a pool is not woken and the rounds run inline
/// on the calling thread: waking workers costs more than the round work
/// they would split.
const PARALLEL_MIN_NODES: usize = 128;

/// Immutable per-run routing state, shared by every worker.
struct Router<'a> {
    g: &'a Graph,
    globals: &'a Globals,
    rev: &'a [u32],
    opts: &'a RunOptions,
    /// The CONGEST per-message budget, for violation counting.
    budget: usize,
}

impl Router<'_> {
    /// Expands the sends one node just put into its [`Outbox`] into
    /// staged deliveries. `ctx` is the context the node stepped with, and
    /// `first_port` the flat CSR index of its port 0.
    ///
    /// Each send call is metered **once** — encoded into `scratch` in
    /// `Measure`/`Strict` modes, skipped entirely in `Off` — then fanned
    /// out through the CSR adjacency slice, a broadcast's ports
    /// ascending. Dropped messages (fault injection) are metered as sent
    /// but never staged. Surviving deliveries are handed to `stage` in
    /// call order (the round loop appends each to its destination
    /// shard's bucket).
    fn expand<M: Wire + Clone>(
        &self,
        ctx: &NodeCtx<'_>,
        first_port: usize,
        outbox: &Outbox<M>,
        scratch: &mut BytesMut,
        stats: &mut SendStats,
        mut stage: impl FnMut(Delivery<M>),
    ) -> Result<(), SimError> {
        if outbox.sends.is_empty() {
            return Ok(());
        }
        let (v, round, nbrs) = (ctx.id, ctx.round, ctx.neighbors);
        let deg = nbrs.len();
        let rev = &self.rev[first_port..first_port + deg];
        for (to, msg) in &outbox.sends {
            let (bits, roundtripped) = match self.opts.meter {
                MeterMode::Off => (0, None),
                MeterMode::Measure => {
                    scratch.clear();
                    msg.encode(scratch);
                    (scratch.len() * 8, None)
                }
                MeterMode::Strict => {
                    scratch.clear();
                    msg.encode(scratch);
                    let bits = scratch.len() * 8;
                    let mut slice: &[u8] = scratch;
                    let decoded = M::decode(&mut slice)?;
                    if !slice.is_empty() {
                        return Err(SimError::Wire(crate::WireError::Invalid(
                            "decode left trailing bytes",
                        )));
                    }
                    (bits, Some(decoded))
                }
            };
            // Strict mode delivers the round-tripped value, proving the
            // decoded bytes — not the in-memory original — drive the run.
            let payload = roundtripped.as_ref().unwrap_or(msg);
            let mut send_one = |port: usize, stats: &mut SendStats| -> Result<(), SimError> {
                if port >= deg {
                    return Err(SimError::BadPort {
                        node: v.get(),
                        port,
                        degree: deg,
                    });
                }
                stats.note(bits, self.budget);
                if let Some(loss) = self.opts.loss {
                    if crate::det_rand::bernoulli(
                        loss.seed,
                        &[LOSS_TAG, round as u64, u64::from(v.get()), port as u64],
                        loss.drop_probability,
                    ) {
                        stats.dropped += 1;
                        return Ok(());
                    }
                }
                stage(Delivery {
                    dest: nbrs[port].get(),
                    port: rev[port],
                    msg: payload.clone(),
                });
                Ok(())
            };
            let sent_before = stats.messages;
            match *to {
                None => {
                    for port in 0..deg {
                        send_one(port, stats)?;
                    }
                }
                Some(port) => send_one(port, stats)?,
            }
            // Message-size side channel: one histogram entry per
            // delivered message, paid as a single atomic per send call
            // (the fan-out shares one encoding). Off-mode runs never
            // compute sizes, so there is nothing truthful to record.
            if let Some(obs) = &self.opts.obs {
                if self.opts.meter != MeterMode::Off {
                    let fanned = (stats.messages - sent_before) as u64;
                    obs.message_bits.observe_n(bits as u64, fanned);
                }
            }
        }
        Ok(())
    }
}

/// Upper bound on the automatically chosen shard size: a shard's node
/// programs, inbox arena, and staged sends should stay cache-resident.
const AUTO_SHARD_MAX: usize = 32_768;

/// Lower bound on the automatically chosen shard size: claiming a shard
/// (an atomic increment plus an uncontended lock) must be noise next to
/// stepping its nodes.
const AUTO_SHARD_MIN: usize = 64;

/// The cache-sized shard a pool gets when [`RunOptions::shard_size`] is
/// `None`: several shards per thread so the work queue can rebalance
/// skewed-degree graphs, capped so a shard's working set stays
/// cache-resident and the shard count stays small enough that the
/// per-shard routing tables are negligible.
fn auto_shard_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * 4)
        .clamp(AUTO_SHARD_MIN, AUTO_SHARD_MAX)
}

/// One shard's staged sends for one round, bucketed by destination
/// shard: `buckets[d]` holds its deliveries to shard `d` in expansion
/// order (= ascending sender id within the shard). Double-buffered across
/// rounds (`prev` is read by everyone delivering, `cur` is written by the
/// claiming worker) and every bucket persists, so steady-state rounds
/// allocate nothing. A shard's sends to itself go to its single-buffered
/// [`Shard::own`] instead; its own bucket here stays empty.
type Buckets<M> = Vec<Vec<Delivery<M>>>;

/// One shard's owned state, built once per run and locked (uncontended —
/// the work queue hands each shard to exactly one worker per round) by
/// whichever worker claims the shard: its node programs, its **owned**
/// active flags (decentralized halting — the worker flips a flag the
/// instant the node halts, no post-round merge), its slice of the run's
/// per-port state, its inbox arena, and its sends to itself.
struct Shard<'p, P: NodeProgram> {
    /// First node id of the shard.
    base: usize,
    nodes: Vec<P>,
    /// `active[i]` for local node index `i`; owned by the shard, so
    /// halting needs no cross-shard coordination beyond one atomic
    /// subtraction of the shard's halt count per round.
    active: Vec<bool>,
    /// The shard's contiguous slice of the run's CSR-ordered port state,
    /// starting at the flat index of its first node's port 0.
    ports: &'p mut [P::PortState],
    arena: MailArena<P::Message>,
    /// The previous round's sends from this shard to its own nodes. Only
    /// this shard reads them, and it delivers them before it computes
    /// again, so one buffer suffices: a one-shard run holds one staging
    /// buffer, not two.
    own: Vec<Delivery<P::Message>>,
}

impl<P: NodeProgram> Shard<'_, P> {
    /// Steps the shard's active nodes through `round` against its freshly
    /// delivered arena, flipping its active flags as nodes halt and
    /// handing every send to `stage`. Returns how many nodes halted.
    ///
    /// A function of its own, not inlined into the round closure: kept
    /// apart, the per-node loop compiles as tightly at one whole-graph
    /// shard as at many small ones. Each node's CSR range is read once
    /// and serves its neighbor slice, its port-state slice and its
    /// fan-out. Every node sends through the worker's one outbox, cleared
    /// before the node steps.
    fn step(
        &mut self,
        router: &Router<'_>,
        round: usize,
        slot: &mut WorkerSlot<P::Message>,
        stats: &mut SendStats,
        mut stage: impl FnMut(Delivery<P::Message>),
    ) -> Result<usize, SimError> {
        let g = router.g;
        let (offsets, nbrs_flat) = g.csr();
        let offsets = &offsets[self.base..=self.base + self.nodes.len()];
        let port_base = offsets[0] as usize;
        let mut halted = 0;
        for (i, (node, active)) in self.nodes.iter_mut().zip(&mut self.active).enumerate() {
            if !*active {
                continue;
            }
            let v = NodeId::new((self.base + i) as u32);
            let (start, end) = (offsets[i] as usize, offsets[i + 1] as usize);
            let ctx = NodeCtx {
                id: v,
                weight: g.weight(v),
                neighbors: &nbrs_flat[start..end],
                globals: router.globals,
                round,
            };
            let ports = &mut self.ports[start - port_base..end - port_base];
            let out = &mut slot.outbox;
            out.sends.clear();
            if node.round(&ctx, self.arena.inbox(i), ports, out) {
                *active = false;
                halted += 1;
            }
            router.expand(&ctx, start, out, &mut slot.scratch, stats, &mut stage)?;
        }
        Ok(halted)
    }
}

/// One worker's state that persists across rounds: its encode scratch,
/// the outbox every node it steps sends through, and on a pool its
/// (dispatch, busy) nanos for the running round, read back by the caller
/// to derive the barrier-wait residue.
struct WorkerSlot<M> {
    scratch: BytesMut,
    outbox: Outbox<M>,
    dispatch: u64,
    busy: u64,
}

/// Runs `make(v, g)`-constructed node programs over `g` on the calling
/// thread, deterministically, until every node halts.
///
/// This is the round loop with one worker: one whole-graph shard (more
/// if [`RunOptions::shard_size`] asks for them), stepped inline with no
/// pool. [`run_parallel`] and [`run_parallel_in`] run the same loop on
/// several workers and produce identical outputs and telemetry.
///
/// # Errors
///
/// Returns [`SimError::MaxRoundsExceeded`] if any node is still active
/// after `opts.max_rounds` rounds, [`SimError::BadPort`] on invalid
/// addressing, and [`SimError::Wire`] on strict-mode decode failures.
pub fn run<P: NodeProgram>(
    g: &Graph,
    globals: &Globals,
    make: impl FnMut(NodeId, &Graph) -> P,
    opts: &RunOptions,
) -> Result<RunResult<P::Output>, SimError> {
    run_rounds(None, g, globals, make, opts)
}

/// Thread-parallel [`run`], producing identical outputs and telemetry.
/// Constructs a private [`WorkerPool`] of `threads` workers for the run
/// and delegates to [`run_parallel_in`]; callers executing many runs
/// should build one pool and call [`run_parallel_in`] directly so the
/// threads are spawned once, not once per run. With one thread, or a
/// graph below the parallel break-even point, no pool is built and the
/// run is [`run`]'s.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_parallel<P: NodeProgram>(
    g: &Graph,
    globals: &Globals,
    make: impl FnMut(NodeId, &Graph) -> P,
    opts: &RunOptions,
    threads: usize,
) -> Result<RunResult<P::Output>, SimError> {
    if threads <= 1 || g.n() < PARALLEL_MIN_NODES {
        return run(g, globals, make, opts);
    }
    run_parallel_in(&WorkerPool::new(threads), g, globals, make, opts)
}

/// Runs `make(v, g)`-constructed node programs over `g` on a caller-owned
/// [`WorkerPool`], producing outputs and telemetry **bit-identical** to
/// [`run`]'s at any pool size and [`RunOptions::shard_size`].
///
/// The node ids are split into cache-sized shards, several per worker,
/// each owning its node programs, active flags, port-state slice, send
/// buckets and mailbox arena, all built once per run. Every round is one
/// pool epoch, so no thread is spawned after the pool's construction. A
/// one-worker pool, or a graph smaller than the parallel break-even
/// point, runs the rounds inline on the calling thread, as [`run`] does.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_parallel_in<P: NodeProgram>(
    pool: &WorkerPool,
    g: &Graph,
    globals: &Globals,
    make: impl FnMut(NodeId, &Graph) -> P,
    opts: &RunOptions,
) -> Result<RunResult<P::Output>, SimError> {
    let pool = (pool.threads() > 1 && g.n() >= PARALLEL_MIN_NODES).then_some(pool);
    run_rounds(pool, g, globals, make, opts)
}

/// The one round loop: on `pool`'s workers, or inline on the calling
/// thread as worker 0 when `pool` is `None`.
///
/// Every round, workers claim shards from an atomic queue (on a pool the
/// round is one [`WorkerPool::broadcast`] epoch), and each claimed shard
/// runs a fused two-phase pass:
///
/// 1. **deliver** — rebuild the shard's arena from its bucket in every
///    source shard's *previous-round* output, its own sends in their
///    place (sources ascending = senders ascending), with one stable
///    counting sort;
/// 2. **compute** — step the shard's active nodes, staging each send in
///    its destination shard's bucket of the *current-round* output and
///    folding the shard's halts into one atomic counter.
///
/// The previous-round outputs stay immutable while a round runs (they are
/// double-buffered), which is what lets the phases fuse with no global
/// merge or sort. Send statistics merge once per round, and every field
/// is a sum or a maximum, so worker order cannot change them. Errors are
/// deterministic: shards are claimed in ascending order and an erroring
/// worker stops claiming, so the error returned is the lowest faulty
/// shard's — the first fault in node order.
fn run_rounds<P: NodeProgram>(
    pool: Option<&WorkerPool>,
    g: &Graph,
    globals: &Globals,
    mut make: impl FnMut(NodeId, &Graph) -> P,
    opts: &RunOptions,
) -> Result<RunResult<P::Output>, SimError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let setup = opts.obs.as_ref().map(|_| Stopwatch::start());
    let n = g.n();
    let workers = pool.map_or(1, WorkerPool::threads);
    let rev = reverse_ports(g);
    let router = Router {
        g,
        globals,
        rev: &rev,
        opts,
        budget: globals.congest_bits(),
    };
    let mut telemetry = Telemetry {
        bandwidth_budget_bits: router.budget,
        ..Telemetry::default()
    };
    // One worker steps one whole-graph shard; a pool gets several
    // cache-sized shards per worker. Shard sizes are rounded up to a
    // power of two so the per-message destination-shard lookup in the
    // staging hot path is a shift, not an integer division (measurably
    // faster at millions of messages/round).
    let shard_size = opts
        .shard_size
        .unwrap_or_else(|| match pool {
            Some(_) => auto_shard_size(n, workers),
            None => n,
        })
        .max(1)
        .next_power_of_two();
    let shard_shift = shard_size.trailing_zeros();
    let num_shards = n.div_ceil(shard_size);
    // Per-shard owned state, built once for the whole run. The slot
    // mutexes are uncontended — the queue hands each shard to exactly one
    // worker per round — they exist to prove exclusive access to the
    // borrow checker across epochs. Each shard borrows the contiguous
    // slice of the run's one CSR-ordered port-state array that covers its
    // nodes' ports.
    let (csr_offsets, nbrs_flat) = g.csr();
    let mut ports = vec![P::PortState::default(); nbrs_flat.len()];
    let mut unclaimed: &mut [P::PortState] = &mut ports;
    let shards: Vec<Mutex<Shard<P>>> = (0..num_shards)
        .map(|s| {
            let base = s * shard_size;
            let len = shard_size.min(n - base);
            let port_base = csr_offsets[base] as usize;
            let port_len = csr_offsets[base + len] as usize - port_base;
            let (mine, rest) = std::mem::take(&mut unclaimed).split_at_mut(port_len);
            unclaimed = rest;
            Mutex::new(Shard {
                base,
                nodes: (base..base + len)
                    .map(|vi| make(NodeId::from_index(vi), g))
                    .collect(),
                active: vec![true; len],
                ports: mine,
                arena: MailArena::with_range(base as u32, len),
                own: Vec::new(),
            })
        })
        .collect();
    // Double-buffered shard outputs: `prev` holds the finished round's
    // sends (read-shared by every delivering shard), `cur` collects the
    // running round's (locked by the claiming worker). The coordinator
    // swaps their contents between epochs, recycling all capacity.
    let mut prev_outs: Vec<Buckets<P::Message>> = (0..num_shards)
        .map(|_| vec![Vec::new(); num_shards])
        .collect();
    let mut cur_outs: Vec<Mutex<Buckets<P::Message>>> = (0..num_shards)
        .map(|_| Mutex::new(vec![Vec::new(); num_shards]))
        .collect();
    // Per-worker state, persistent across rounds and indexed by worker
    // id, so each slot is used by exactly one worker per epoch. Built
    // whether or not the run is observed, so observing allocates nothing.
    let slots: Vec<Mutex<WorkerSlot<P::Message>>> = (0..workers)
        .map(|_| {
            Mutex::new(WorkerSlot {
                scratch: BytesMut::new(),
                outbox: Outbox::new(),
                dispatch: 0,
                busy: 0,
            })
        })
        .collect();
    // Decentralized halting: the only shared halt state is this counter;
    // the flags live in the shards that own them.
    let active_count = AtomicUsize::new(n);
    // The pool series (dispatch, busy, barrier) describe a pool; inline
    // rounds record only the shard phases and the round wall time.
    let pool_obs = opts.obs.as_ref().filter(|_| pool.is_some());
    if let (Some(obs), Some(watch)) = (&opts.obs, &setup) {
        obs.setup.observe(watch.elapsed_nanos());
    }
    let mut round = 0usize;
    loop {
        // The epoch barrier at the end of the previous broadcast ordered
        // every worker's subtraction before this load.
        let remaining = active_count.load(Ordering::Relaxed);
        if remaining == 0 {
            break;
        }
        if round >= opts.max_rounds {
            return Err(SimError::MaxRoundsExceeded {
                limit: opts.max_rounds,
                active: remaining,
            });
        }
        let queue = AtomicUsize::new(0);
        let round_stats = Mutex::new(SendStats::default());
        let first_err: Mutex<Option<(usize, SimError)>> = Mutex::new(None);
        let round_watch = opts.obs.as_ref().map(|_| Stopwatch::start());
        let work = |w: usize| {
            // Pool wake-up latency: round start to this worker entering
            // the epoch. Workers then accumulate their shard-phase time
            // in a plain per-thread accumulator, drained once per round.
            let dispatch_nanos = pool_obs
                .and(round_watch.as_ref())
                .map(Stopwatch::elapsed_nanos);
            let mut busy = SpanAcc::default();
            let mut slot = slots[w].lock().expect("one worker per slot");
            let mut stats = SendStats::default();
            let mut err: Option<(usize, SimError)> = None;
            loop {
                let s = queue.fetch_add(1, Ordering::Relaxed);
                if s >= num_shards {
                    break;
                }
                let mut shard = shards[s].lock().expect("shard claimed once");
                let mut out = cur_outs[s].lock().expect("output claimed once");
                let shard = &mut *shard;
                let mut shard_watch = opts.obs.as_ref().map(|_| Stopwatch::start());
                // Deliver: rebuild the arena from this shard's bucket in
                // every source, ascending, its own sends in its place.
                // Round 0 delivers nothing.
                let own = shard.own.as_slice();
                shard
                    .arena
                    .deliver(prev_outs.iter().enumerate().map(|(src, prev)| {
                        if src == s {
                            own
                        } else {
                            prev[s].as_slice()
                        }
                    }));
                if let (Some(obs), Some(watch)) = (&opts.obs, shard_watch.as_mut()) {
                    let deliver = watch.lap_nanos();
                    obs.deliver.observe(deliver);
                    busy.add(deliver);
                }
                // Compute: step the shard's nodes, bucketing sends by
                // destination shard. The shard's own buffer stands in
                // for its bucket during the pass and is taken back after.
                // The buckets are captured as a slice, so the staging
                // closure keeps their base and length in registers.
                std::mem::swap(&mut shard.own, &mut out[s]);
                for bucket in out.iter_mut() {
                    bucket.clear();
                }
                let staged = out.as_mut_slice();
                let stepped = shard.step(&router, round, &mut slot, &mut stats, move |d| {
                    staged[(d.dest as usize) >> shard_shift].push(d)
                });
                std::mem::swap(&mut shard.own, &mut out[s]);
                match stepped {
                    Ok(0) => {}
                    Ok(halted) => {
                        active_count.fetch_sub(halted, Ordering::Relaxed);
                    }
                    Err(e) => err = Some((s, e)),
                }
                if let (Some(obs), Some(watch)) = (&opts.obs, shard_watch.as_mut()) {
                    let compute = watch.lap_nanos();
                    obs.compute.observe(compute);
                    busy.add(compute);
                }
                if err.is_some() {
                    // Stop claiming: shards this worker already finished
                    // form an error-free prefix of its claims, so the
                    // lowest reported shard is the first fault in node
                    // order.
                    break;
                }
            }
            round_stats
                .lock()
                .expect("round stats poisoned")
                .merge(&stats);
            if let Some((s, e)) = err {
                let mut first = first_err.lock().expect("error slot poisoned");
                if first.as_ref().is_none_or(|(fs, _)| s < *fs) {
                    *first = Some((s, e));
                }
            }
            if let (Some(obs), Some(dispatch)) = (pool_obs, dispatch_nanos) {
                obs.dispatch.observe(dispatch);
                obs.busy.observe(busy.nanos);
                slot.dispatch = dispatch;
                slot.busy = busy.nanos;
            }
        };
        match pool {
            Some(pool) => pool.broadcast(work),
            None => work(0),
        }
        if let Some((_, e)) = first_err.into_inner().expect("error slot poisoned") {
            return Err(e);
        }
        let stats = round_stats.into_inner().expect("round stats poisoned");
        telemetry.absorb(round, &stats, opts.track_rounds);
        if let (Some(obs), Some(watch)) = (&opts.obs, round_watch.as_ref()) {
            let wall = watch.elapsed_nanos();
            obs.round_wall.observe(wall);
            obs.rounds.inc();
            obs.messages.add(stats.messages as u64);
            // What a pool worker did not spend on dispatch or shard work
            // it spent waiting on the epoch barrier for slower workers.
            if pool_obs.is_some() {
                for slot in &slots {
                    let slot = slot.lock().expect("worker slot poisoned");
                    obs.barrier
                        .observe(wall.saturating_sub(slot.dispatch.saturating_add(slot.busy)));
                }
            }
        }
        // Swap the double buffers' contents (the epoch is over, so the
        // coordinator has exclusive access again).
        for (s, cur) in cur_outs.iter_mut().enumerate() {
            std::mem::swap(&mut prev_outs[s], cur.get_mut().expect("output poisoned"));
        }
        round += 1;
    }
    let teardown = opts.obs.as_ref().map(|_| Stopwatch::start());
    telemetry.rounds = round;
    let mut outputs = Vec::with_capacity(n);
    for slot in shards {
        let shard = slot.into_inner().expect("shard poisoned");
        outputs.extend(shard.nodes.iter().map(NodeProgram::output));
    }
    // Free the rest of the run state here, inside the tear-down span.
    drop((ports, rev, prev_outs, cur_outs, slots));
    if let (Some(obs), Some(watch)) = (&opts.obs, &teardown) {
        obs.teardown.observe(watch.elapsed_nanos());
    }
    Ok(RunResult { outputs, telemetry })
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{det_rand, Inbox};
    use arbodom_graph::generators;

    /// Each node floods its id once; everyone halts after hearing neighbors.
    struct Echo {
        sum: u64,
    }

    impl NodeProgram for Echo {
        type Message = u32;
        type PortState = ();
        type Output = u64;
        fn round(
            &mut self,
            ctx: &NodeCtx<'_>,
            inbox: Inbox<'_, u32>,
            _ports: &mut [()],
            out: &mut Outbox<u32>,
        ) -> bool {
            match ctx.round {
                0 => {
                    out.broadcast(ctx.id.get());
                    false
                }
                _ => {
                    self.sum = inbox.iter().map(|(_, &m)| u64::from(m)).sum();
                    true
                }
            }
        }
        fn output(&self) -> u64 {
            self.sum
        }
    }

    #[test]
    fn echo_sums_neighbor_ids() {
        let g = generators::path(4); // 0-1-2-3
        let globals = Globals::new(&g, 0);
        let r = run(&g, &globals, |_, _| Echo { sum: 0 }, &RunOptions::default()).unwrap();
        assert_eq!(r.outputs, vec![1, 2, 4, 2]);
        assert_eq!(r.telemetry.rounds, 2);
        assert_eq!(r.telemetry.total_messages, 6); // one per edge direction
        assert!(r.telemetry.is_congest_compliant());
    }

    #[test]
    fn strict_mode_matches_measure() {
        let g = generators::grid2d(5, 5, false);
        let globals = Globals::new(&g, 0);
        let a = run(
            &g,
            &globals,
            |_, _| Echo { sum: 0 },
            &RunOptions {
                meter: MeterMode::Strict,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let b = run(&g, &globals, |_, _| Echo { sum: 0 }, &RunOptions::default()).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.telemetry.total_bits, b.telemetry.total_bits);
    }

    #[test]
    fn off_mode_reports_zero_bits_same_outputs() {
        let g = generators::grid2d(6, 4, true);
        let globals = Globals::new(&g, 0);
        let off = run(
            &g,
            &globals,
            |_, _| Echo { sum: 0 },
            &RunOptions {
                meter: MeterMode::Off,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let measured = run(&g, &globals, |_, _| Echo { sum: 0 }, &RunOptions::default()).unwrap();
        assert_eq!(off.outputs, measured.outputs);
        assert_eq!(
            off.telemetry.total_messages,
            measured.telemetry.total_messages
        );
        assert_eq!(off.telemetry.total_bits, 0);
        assert_eq!(off.telemetry.max_message_bits, 0);
    }

    #[test]
    fn per_round_stats_recorded() {
        let g = generators::cycle(6);
        let globals = Globals::new(&g, 0);
        let r = run(
            &g,
            &globals,
            |_, _| Echo { sum: 0 },
            &RunOptions {
                track_rounds: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.telemetry.per_round.len(), 1); // all sends in round 0
        assert_eq!(r.telemetry.per_round[0].messages, 12);
    }

    /// A program that never halts, to exercise the round limit.
    struct Forever;
    impl NodeProgram for Forever {
        type Message = bool;
        type PortState = ();
        type Output = ();
        fn round(
            &mut self,
            _ctx: &NodeCtx<'_>,
            _inbox: Inbox<'_, bool>,
            _ports: &mut [()],
            _out: &mut Outbox<bool>,
        ) -> bool {
            false
        }
        fn output(&self) {}
    }

    #[test]
    fn round_limit_enforced() {
        let g = generators::path(3);
        let globals = Globals::new(&g, 0);
        let err = run(
            &g,
            &globals,
            |_, _| Forever,
            &RunOptions {
                max_rounds: 10,
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::MaxRoundsExceeded {
                limit: 10,
                active: 3
            }
        ));
    }

    /// Halts (all nodes simultaneously) at the end of round `total - 1`,
    /// i.e. after executing exactly `total` rounds.
    struct ExactRounds {
        total: usize,
    }
    impl NodeProgram for ExactRounds {
        type Message = bool;
        type PortState = ();
        type Output = ();
        fn round(
            &mut self,
            ctx: &NodeCtx<'_>,
            _inbox: Inbox<'_, bool>,
            _ports: &mut [()],
            _out: &mut Outbox<bool>,
        ) -> bool {
            ctx.round + 1 == self.total
        }
        fn output(&self) {}
    }

    /// `max_rounds` is an *inclusive* budget: a program needing exactly
    /// the configured limit succeeds; one more round fails. Pinned at the
    /// boundary for both runners so an off-by-one cannot creep in.
    #[test]
    fn max_rounds_boundary_is_exact_sequential() {
        let g = generators::path(5);
        let globals = Globals::new(&g, 0);
        for total in [1usize, 2, 7] {
            let ok = run(
                &g,
                &globals,
                |_, _| ExactRounds { total },
                &RunOptions {
                    max_rounds: total,
                    ..RunOptions::default()
                },
            )
            .unwrap();
            assert_eq!(ok.telemetry.rounds, total);
            let err = run(
                &g,
                &globals,
                |_, _| ExactRounds { total },
                &RunOptions {
                    max_rounds: total - 1,
                    ..RunOptions::default()
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, SimError::MaxRoundsExceeded { limit, active }
                    if limit == total - 1 && active == g.n()),
                "total={total}: {err:?}"
            );
        }
    }

    #[test]
    fn max_rounds_boundary_is_exact_parallel() {
        // Large enough that run_parallel does not fall back to run().
        let g = generators::path(200);
        let globals = Globals::new(&g, 0);
        let total = 5usize;
        let ok = run_parallel(
            &g,
            &globals,
            |_, _| ExactRounds { total },
            &RunOptions {
                max_rounds: total,
                ..RunOptions::default()
            },
            3,
        )
        .unwrap();
        assert_eq!(ok.telemetry.rounds, total);
        let err = run_parallel(
            &g,
            &globals,
            |_, _| ExactRounds { total },
            &RunOptions {
                max_rounds: total - 1,
                ..RunOptions::default()
            },
            3,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::MaxRoundsExceeded { limit, active }
            if limit == total - 1 && active == g.n()));
    }

    /// Halts at the end of round `total - 1` iff `halts`; otherwise runs
    /// forever — for pinning the `active` count reported at the limit.
    struct HaltSome {
        total: usize,
        halts: bool,
    }
    impl NodeProgram for HaltSome {
        type Message = bool;
        type PortState = ();
        type Output = ();
        fn round(
            &mut self,
            ctx: &NodeCtx<'_>,
            _inbox: Inbox<'_, bool>,
            _ports: &mut [()],
            _out: &mut Outbox<bool>,
        ) -> bool {
            self.halts && ctx.round + 1 == self.total
        }
        fn output(&self) {}
    }

    /// When some nodes halt in the very last allowed round and the rest
    /// never halt, [`SimError::MaxRoundsExceeded::active`] must report
    /// the count *after* that final round's halts are merged — in the
    /// sharded path just as in the sequential one. (The sharded runner's
    /// halt accounting is decentralized: per-shard owned flags folded
    /// into one atomic — this pins that the fold lands before the limit
    /// check reads the counter.)
    #[test]
    fn max_rounds_active_counts_final_round_halts() {
        // Large enough that run_parallel does not fall back to run().
        let g = generators::path(300);
        let globals = Globals::new(&g, 0);
        let total = 4usize;
        let make = |v: NodeId, _: &arbodom_graph::Graph| HaltSome {
            total,
            halts: v.index() % 3 == 0,
        };
        let halters = (0..g.n()).filter(|i| i % 3 == 0).count();
        let expected_active = g.n() - halters;
        let seq = run(
            &g,
            &globals,
            make,
            &RunOptions {
                max_rounds: total,
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(seq, SimError::MaxRoundsExceeded { limit, active }
                if limit == total && active == expected_active),
            "sequential: {seq:?}"
        );
        for threads in [2usize, 4] {
            for shard_size in [None, Some(1), Some(64), Some(g.n())] {
                let par = run_parallel(
                    &g,
                    &globals,
                    make,
                    &RunOptions {
                        max_rounds: total,
                        shard_size,
                        ..RunOptions::default()
                    },
                    threads,
                )
                .unwrap_err();
                assert_eq!(seq, par, "threads={threads} shard={shard_size:?}");
            }
        }
    }

    #[test]
    fn zero_max_rounds_fails_immediately_when_nodes_exist() {
        let g = generators::path(3);
        let globals = Globals::new(&g, 0);
        let err = run(
            &g,
            &globals,
            |_, _| ExactRounds { total: 1 },
            &RunOptions {
                max_rounds: 0,
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::MaxRoundsExceeded {
                limit: 0,
                active: 3
            }
        ));
        // An empty graph needs zero rounds, so the zero budget suffices.
        let empty = arbodom_graph::Graph::from_edges(0, []).unwrap();
        let eg = Globals::new(&empty, 0);
        let ok = run(
            &empty,
            &eg,
            |_, _| ExactRounds { total: 1 },
            &RunOptions {
                max_rounds: 0,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(ok.telemetry.rounds, 0);
    }

    /// Sends to a bogus port.
    struct BadSender;
    impl NodeProgram for BadSender {
        type Message = bool;
        type PortState = ();
        type Output = ();
        fn round(
            &mut self,
            _ctx: &NodeCtx<'_>,
            _inbox: Inbox<'_, bool>,
            _ports: &mut [()],
            out: &mut Outbox<bool>,
        ) -> bool {
            out.send(99, true);
            true
        }
        fn output(&self) {}
    }

    #[test]
    fn bad_port_detected() {
        let g = generators::path(3);
        let globals = Globals::new(&g, 0);
        let err = run(&g, &globals, |_, _| BadSender, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::BadPort { .. }));
    }

    /// Faults in one node only; everyone else idles forever.
    struct FaultAt {
        faulty: bool,
    }
    impl NodeProgram for FaultAt {
        type Message = bool;
        type PortState = ();
        type Output = ();
        fn round(
            &mut self,
            _ctx: &NodeCtx<'_>,
            _inbox: Inbox<'_, bool>,
            _ports: &mut [()],
            out: &mut Outbox<bool>,
        ) -> bool {
            if self.faulty {
                out.send(99, true);
            }
            false
        }
        fn output(&self) {}
    }

    /// With several nodes faulting in the same round, both runners must
    /// report the *lowest* faulting node, deterministically — whichever
    /// worker happens to claim which batch.
    #[test]
    fn multi_fault_error_is_deterministic_and_matches_sequential() {
        let g = generators::path(600);
        let globals = Globals::new(&g, 0);
        let make = |v: NodeId, _: &arbodom_graph::Graph| FaultAt {
            faulty: v.index() == 77 || v.index() == 350 || v.index() == 599,
        };
        let seq = run(&g, &globals, make, &RunOptions::default()).unwrap_err();
        assert!(matches!(seq, SimError::BadPort { node: 77, .. }), "{seq:?}");
        for _ in 0..10 {
            for threads in [2usize, 4] {
                let par =
                    run_parallel(&g, &globals, make, &RunOptions::default(), threads).unwrap_err();
                assert_eq!(seq, par, "threads={threads}");
            }
        }
    }

    /// Ping-pong along a path to verify port addressing: node 0 sends a
    /// counter to port 0; each receiver forwards incremented to the other
    /// side until it reaches the last node.
    struct Relay {
        value: u64,
        is_source: bool,
        is_sink: bool,
    }
    impl NodeProgram for Relay {
        type Message = u64;
        type PortState = ();
        type Output = u64;
        fn round(
            &mut self,
            ctx: &NodeCtx<'_>,
            inbox: Inbox<'_, u64>,
            _ports: &mut [()],
            out: &mut Outbox<u64>,
        ) -> bool {
            if ctx.round == 0 && self.is_source {
                out.send(0, 1);
                return true;
            }
            if let Some((from, &v)) = inbox.first() {
                self.value = v;
                if !self.is_sink {
                    // forward out the other port
                    out.send(1 - from, v + 1);
                }
                return true;
            }
            ctx.round > 0 && self.is_source
        }
        fn output(&self) -> u64 {
            self.value
        }
    }

    #[test]
    fn relay_travels_the_path() {
        let n = 6;
        let g = generators::path(n);
        let globals = Globals::new(&g, 0);
        let r = run(
            &g,
            &globals,
            |v, g| Relay {
                value: 0,
                is_source: v.index() == 0,
                is_sink: v.index() == g.n() - 1,
            },
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(r.outputs[n - 1], (n - 1) as u64);
        assert_eq!(r.telemetry.rounds as usize, n);
    }

    #[test]
    fn loss_model_drops_and_is_reproducible() {
        let g = generators::grid2d(8, 8, true);
        let globals = Globals::new(&g, 0);
        let opts = RunOptions {
            loss: Some(crate::LossModel {
                drop_probability: 0.3,
                seed: 5,
            }),
            ..RunOptions::default()
        };
        let a = run(&g, &globals, |_, _| Echo { sum: 0 }, &opts).unwrap();
        let b = run(&g, &globals, |_, _| Echo { sum: 0 }, &opts).unwrap();
        assert_eq!(a.outputs, b.outputs, "faulty runs must be reproducible");
        assert!(a.telemetry.dropped_messages > 0);
        // Sent bandwidth is still metered for dropped messages.
        assert_eq!(a.telemetry.total_messages, 256);
        // Some node heard fewer neighbors than its degree.
        let lossless = run(&g, &globals, |_, _| Echo { sum: 0 }, &RunOptions::default()).unwrap();
        assert_ne!(a.outputs, lossless.outputs);
    }

    #[test]
    fn loss_parallel_matches_sequential() {
        let g = generators::grid2d(12, 12, true);
        let globals = Globals::new(&g, 3);
        let opts = RunOptions {
            loss: Some(crate::LossModel {
                drop_probability: 0.2,
                seed: 11,
            }),
            ..RunOptions::default()
        };
        let seq = run(&g, &globals, |_, _| Echo { sum: 0 }, &opts).unwrap();
        let par = run_parallel(&g, &globals, |_, _| Echo { sum: 0 }, &opts, 4).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(
            seq.telemetry.dropped_messages,
            par.telemetry.dropped_messages
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = generators::grid2d(16, 16, true);
        let globals = Globals::new(&g, 7);
        let seq = run(&g, &globals, |_, _| Echo { sum: 0 }, &RunOptions::default()).unwrap();
        let par = run_parallel(
            &g,
            &globals,
            |_, _| Echo { sum: 0 },
            &RunOptions::default(),
            4,
        )
        .unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.telemetry.rounds, par.telemetry.rounds);
        assert_eq!(seq.telemetry.total_messages, par.telemetry.total_messages);
        assert_eq!(seq.telemetry.total_bits, par.telemetry.total_bits);
    }

    /// A hub-heavy topology (star inside a path) exercises the work
    /// queue's rebalancing: one batch holds the hub with degree ≈ n.
    #[test]
    fn parallel_matches_sequential_on_skewed_degrees() {
        let mut b = arbodom_graph::Graph::builder(600);
        for i in 1..600u32 {
            b.add_edge_u32(0, i).unwrap();
        }
        for i in 1..599u32 {
            b.add_edge_u32(i, i + 1).unwrap();
        }
        let g = b.build();
        let globals = Globals::new(&g, 1);
        let opts = RunOptions {
            track_rounds: true,
            ..RunOptions::default()
        };
        let seq = run(&g, &globals, |_, _| Echo { sum: 0 }, &opts).unwrap();
        for threads in [2usize, 3, 8] {
            let par = run_parallel(&g, &globals, |_, _| Echo { sum: 0 }, &opts, threads).unwrap();
            assert_eq!(seq.outputs, par.outputs, "threads={threads}");
            assert_eq!(seq.telemetry, par.telemetry, "threads={threads}");
        }
    }

    /// Explicit shard sizes — degenerate 1-node shards, a mid size, and a
    /// single whole-graph shard — all reproduce the sequential runner
    /// exactly, outputs and telemetry.
    #[test]
    fn parallel_matches_sequential_at_any_shard_size() {
        let g = generators::grid2d(15, 15, true);
        let globals = Globals::new(&g, 2);
        let base = RunOptions {
            track_rounds: true,
            ..RunOptions::default()
        };
        let seq = run(&g, &globals, |_, _| Echo { sum: 0 }, &base).unwrap();
        for shard in [1usize, 64, g.n()] {
            let opts = RunOptions {
                shard_size: Some(shard),
                ..base.clone()
            };
            for threads in [2usize, 4] {
                let par =
                    run_parallel(&g, &globals, |_, _| Echo { sum: 0 }, &opts, threads).unwrap();
                assert_eq!(seq.outputs, par.outputs, "shard={shard} threads={threads}");
                assert_eq!(
                    seq.telemetry, par.telemetry,
                    "shard={shard} threads={threads}"
                );
            }
        }
    }

    /// The `O(m log Δ)` per-edge binary search that [`reverse_ports`]
    /// replaced: the reference its cursor pass must match.
    fn reverse_ports_by_search(g: &Graph) -> Vec<u32> {
        let (_, nbrs_flat) = g.csr();
        let mut rev = vec![0u32; nbrs_flat.len()];
        for v in g.nodes() {
            let range = g.neighbor_range(v);
            for (p, &u) in g.neighbors(v).iter().enumerate() {
                rev[range.start + p] = g
                    .neighbors(u)
                    .binary_search(&v)
                    .expect("edges are symmetric") as u32;
            }
        }
        rev
    }

    #[test]
    fn reverse_ports_match_binary_search_reference() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut with_isolated = arbodom_graph::GraphBuilder::new(9);
        for (u, v) in [(1, 4), (4, 7), (2, 4), (7, 8)] {
            with_isolated.add_edge_u32(u, v).unwrap();
        }
        let mut graphs = vec![
            generators::path(6),
            generators::star(7),
            generators::complete(6),
            with_isolated.build(),
        ];
        let mut rng = StdRng::seed_from_u64(17);
        graphs.extend((1..=3).map(|alpha| generators::forest_union(300, alpha, &mut rng)));
        for g in &graphs {
            let rev = reverse_ports(g);
            assert_eq!(rev, reverse_ports_by_search(g), "m = {}", g.m());
            for v in g.nodes() {
                for (e, &u) in g.neighbor_range(v).zip(g.neighbors(v)) {
                    assert_eq!(g.neighbors(u)[rev[e] as usize], v, "edge {v:?} -> {u:?}");
                }
            }
        }
    }

    /// An observed run records exactly one set-up and one tear-down span,
    /// inline and on a pool. Set-up, the rounds and tear-down are disjoint
    /// intervals inside the call, so their sum cannot exceed the wall
    /// time measured around it. One worker records one deliver and one
    /// compute span per round and no pool series; a pool records every
    /// pool series once per worker per round and each shard phase once
    /// per shard per round.
    #[test]
    fn setup_and_teardown_are_timed_once_inside_the_call() {
        use crate::obs::{
            SIM_COMPUTE_NANOS, SIM_DELIVER_NANOS, SIM_POOL_BARRIER_NANOS, SIM_POOL_DISPATCH_NANOS,
            SIM_ROUND_NANOS, SIM_SETUP_NANOS, SIM_TEARDOWN_NANOS, SIM_WORKER_BUSY_NANOS,
        };

        let g = generators::grid2d(16, 16, true);
        let globals = Globals::new(&g, 0);
        for threads in [1usize, 2] {
            let pool = WorkerPool::new(threads);
            let registry = arbodom_obs::Registry::new();
            let opts = RunOptions {
                obs: Some(SimObs::new(&registry)),
                ..RunOptions::default()
            };
            let start = std::time::Instant::now();
            let result = run_parallel_in(&pool, &g, &globals, |_, _| Echo { sum: 0 }, &opts);
            let wall = u64::try_from(start.elapsed().as_nanos()).expect("short run");
            let rounds = result.expect("run succeeds").telemetry.rounds as u64;
            let [setup, round, teardown] = [SIM_SETUP_NANOS, SIM_ROUND_NANOS, SIM_TEARDOWN_NANOS]
                .map(|name| registry.histogram(name));
            assert_eq!(setup.count(), 1, "threads={threads}");
            assert_eq!(round.count(), rounds, "threads={threads}");
            assert_eq!(teardown.count(), 1, "threads={threads}");
            let inside = setup.sum() + round.sum() + teardown.sum();
            assert!(
                inside <= wall,
                "threads={threads}: {inside} ns > {wall} ns wall"
            );
            let (shards, pool_series) = match threads {
                1 => (1, 0),
                _ => {
                    let shard_size = auto_shard_size(g.n(), threads).next_power_of_two();
                    (g.n().div_ceil(shard_size) as u64, rounds * threads as u64)
                }
            };
            for name in [SIM_DELIVER_NANOS, SIM_COMPUTE_NANOS] {
                let count = registry.histogram(name).count();
                assert_eq!(count, rounds * shards, "threads={threads}: {name}");
            }
            for name in [
                SIM_POOL_DISPATCH_NANOS,
                SIM_WORKER_BUSY_NANOS,
                SIM_POOL_BARRIER_NANOS,
            ] {
                let count = registry.histogram(name).count();
                assert_eq!(count, pool_series, "threads={threads}: {name}");
            }
        }
    }

    /// An independent reference for the round loop, sharing nothing with
    /// it but the program interface: one `Vec` inbox per node, filled by
    /// walking senders in ascending id and each node's sends in call
    /// order. Each send call is encoded once to meter it (as
    /// [`MeterMode::Measure`] does), and the loss coin is keyed as
    /// [`Router::expand`] keys it.
    fn reference<P: NodeProgram>(
        g: &Graph,
        globals: &Globals,
        make: impl Fn(NodeId, &Graph) -> P,
        opts: &RunOptions,
    ) -> Result<(Vec<P::Output>, Telemetry), SimError> {
        let mut nodes: Vec<P> = g.nodes().map(|v| make(v, g)).collect();
        let default_ports = |v| vec![P::PortState::default(); g.degree(v)];
        let mut ports: Vec<Vec<P::PortState>> = g.nodes().map(default_ports).collect();
        let mut active = vec![true; g.n()];
        let mut inboxes: Vec<Vec<Delivery<P::Message>>> = vec![Vec::new(); g.n()];
        let mut t = Telemetry::default();
        while active.contains(&true) {
            if t.rounds >= opts.max_rounds {
                let (limit, active) = (opts.max_rounds, active.iter().filter(|&&a| a).count());
                return Err(SimError::MaxRoundsExceeded { limit, active });
            }
            let mut next: Vec<Vec<Delivery<P::Message>>> = vec![Vec::new(); g.n()];
            for v in g.nodes() {
                let (vi, nbrs, round) = (v.index(), g.neighbors(v), t.rounds);
                if !active[vi] {
                    continue;
                }
                let ctx = NodeCtx {
                    id: v,
                    weight: g.weight(v),
                    neighbors: nbrs,
                    globals,
                    round,
                };
                let mut out = Outbox::new();
                let inbox = Inbox::new(&inboxes[vi]);
                active[vi] = !nodes[vi].round(&ctx, inbox, &mut ports[vi], &mut out);
                for (to, msg) in out.sends {
                    let mut encoded = BytesMut::new();
                    msg.encode(&mut encoded);
                    let to: Vec<usize> = match to {
                        None => (0..nbrs.len()).collect(),
                        Some(port) => vec![port],
                    };
                    for port in to {
                        let (node, degree) = (v.get(), nbrs.len());
                        let u = *nbrs
                            .get(port)
                            .ok_or(SimError::BadPort { node, port, degree })?;
                        t.total_messages += 1;
                        t.total_bits += encoded.len() * 8;
                        let key = [LOSS_TAG, round as u64, u64::from(node), port as u64];
                        let coin =
                            |l: LossModel| det_rand::bernoulli(l.seed, &key, l.drop_probability);
                        if opts.loss.is_some_and(coin) {
                            t.dropped_messages += 1;
                            continue;
                        }
                        let back = g.neighbors(u).binary_search(&v).expect("symmetric");
                        let (dest, port, msg) = (u.get(), back as u32, msg.clone());
                        next[u.index()].push(Delivery { dest, port, msg });
                    }
                }
            }
            inboxes = next;
            t.rounds += 1;
        }
        Ok((nodes.iter().map(NodeProgram::output).collect(), t))
    }

    /// `run`, and `run_parallel_in` on every pool at shard sizes
    /// {auto, 1, 64}, against [`reference`]: the same outputs, rounds,
    /// total messages, total bits and dropped messages, or the same error.
    fn assert_matches_reference<P: NodeProgram>(
        label: &str,
        pools: &[WorkerPool],
        g: &Graph,
        make: impl Fn(NodeId, &Graph) -> P + Copy,
        opts: &RunOptions,
    ) where
        P::Output: PartialEq + std::fmt::Debug,
    {
        let globals = Globals::new(g, 9);
        let expected = reference(g, &globals, make, opts);
        let mut runs = vec![("run".to_string(), run(g, &globals, make, opts))];
        for pool in pools {
            for shard_size in [None, Some(1), Some(64)] {
                let o = RunOptions {
                    shard_size,
                    ..opts.clone()
                };
                let run = run_parallel_in(pool, g, &globals, make, &o);
                runs.push((
                    format!("{} workers, shard {shard_size:?}", pool.threads()),
                    run,
                ));
            }
        }
        for (how, got) in runs {
            match (&expected, got) {
                (Ok((outputs, t)), Ok(r)) => {
                    assert_eq!(outputs, &r.outputs, "{label}, {how}: outputs");
                    let u = &r.telemetry;
                    assert_eq!(
                        (t.rounds, t.total_messages, t.total_bits, t.dropped_messages),
                        (u.rounds, u.total_messages, u.total_bits, u.dropped_messages),
                        "{label}, {how}: rounds, messages, bits, dropped"
                    );
                }
                (Err(e), Err(f)) => assert_eq!(e, &f, "{label}, {how}: error"),
                (e, r) => panic!("{label}, {how}: reference {e:?}, loop {r:?}"),
            }
        }
    }

    /// Folds every `(port, message)` pair it hears, in arrival order, into
    /// a running hash: any change in delivery order, port or payload
    /// changes its output. Broadcasts for three rounds, halts in the
    /// fourth.
    struct Digest {
        hash: u64,
    }
    impl Digest {
        fn fold(&mut self, inbox: Inbox<'_, u64>) {
            for (port, &m) in inbox {
                self.hash = self.hash.wrapping_mul(1_000_003) ^ (port as u64) << 32 ^ m;
            }
        }
    }
    impl NodeProgram for Digest {
        type Message = u64;
        type PortState = ();
        type Output = u64;
        fn round(
            &mut self,
            ctx: &NodeCtx<'_>,
            inbox: Inbox<'_, u64>,
            _ports: &mut [()],
            out: &mut Outbox<u64>,
        ) -> bool {
            self.fold(inbox);
            if ctx.round == 3 {
                return true;
            }
            out.broadcast(u64::from(ctx.id.get()) * 4 + ctx.round as u64);
            false
        }
        fn output(&self) -> u64 {
            self.hash
        }
    }

    /// [`Digest`] with three sends a round: one on port 0, one broadcast,
    /// then one on the last port, each with its own payload. Its output
    /// changes if a sender's sends arrive out of call order.
    struct MultiSend(Digest);
    impl NodeProgram for MultiSend {
        type Message = u64;
        type PortState = ();
        type Output = u64;
        fn round(
            &mut self,
            ctx: &NodeCtx<'_>,
            inbox: Inbox<'_, u64>,
            _ports: &mut [()],
            out: &mut Outbox<u64>,
        ) -> bool {
            self.0.fold(inbox);
            if ctx.round == 3 {
                return true;
            }
            let tag = (u64::from(ctx.id.get()) * 4 + ctx.round as u64) * 3;
            if let Some(last) = ctx.degree().checked_sub(1) {
                out.send(0, tag);
                out.broadcast(tag + 1);
                out.send(last, tag + 2);
            }
            false
        }
        fn output(&self) -> u64 {
            self.0.hash
        }
    }

    /// The round loop agrees with the naive reference on every program —
    /// plain, order-sensitive, several sends a round, lossy, faulting and
    /// round-limited — over paths, grids, stars, a hub graph and forest
    /// unions, at every worker count and shard size.
    #[test]
    fn the_round_loop_matches_a_naive_reference() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut hub = arbodom_graph::Graph::builder(600);
        for i in 1..600u32 {
            hub.add_edge_u32(0, i).unwrap();
        }
        for i in 1..599u32 {
            hub.add_edge_u32(i, i + 1).unwrap();
        }
        let mut graphs = vec![
            ("path", generators::path(300)),
            ("grid", generators::grid2d(15, 15, true)),
            ("star", generators::star(200)),
            ("hub", hub.build()),
        ];
        let mut rng = StdRng::seed_from_u64(23);
        for alpha in 1..=3 {
            graphs.push((
                "forest union",
                generators::forest_union(300, alpha, &mut rng),
            ));
        }
        let pools = [WorkerPool::new(2), WorkerPool::new(4)];
        let lossy = RunOptions {
            loss: Some(crate::LossModel {
                drop_probability: 0.3,
                seed: 5,
            }),
            ..RunOptions::default()
        };
        let limited = RunOptions {
            max_rounds: 4,
            ..RunOptions::default()
        };
        let plain = RunOptions::default();
        for (name, g) in &graphs {
            let n = g.n();
            let echo = |_: NodeId, _: &Graph| Echo { sum: 0 };
            assert_matches_reference(name, &pools, g, echo, &plain);
            let digest = |_: NodeId, _: &Graph| Digest { hash: 0 };
            assert_matches_reference(name, &pools, g, digest, &plain);
            assert_matches_reference(name, &pools, g, digest, &lossy);
            let multi = |_: NodeId, _: &Graph| MultiSend(Digest { hash: 0 });
            assert_matches_reference(name, &pools, g, multi, &plain);
            assert_matches_reference(name, &pools, g, multi, &lossy);
            let fault = move |v: NodeId, _: &Graph| FaultAt {
                faulty: [n / 5, n / 2, n - 1].contains(&v.index()),
            };
            assert_matches_reference(name, &pools, g, fault, &plain);
            let halt_some = |v: NodeId, _: &Graph| HaltSome {
                total: 4,
                halts: v.index() % 3 == 0,
            };
            assert_matches_reference(name, &pools, g, halt_some, &limited);
        }
        let (_, path) = &graphs[0];
        let relay = |v: NodeId, g: &Graph| Relay {
            value: 0,
            is_source: v.index() == 0,
            is_sink: v.index() == g.n() - 1,
        };
        assert_matches_reference("path", &pools, path, relay, &plain);
    }

    #[test]
    fn unit_rand_is_deterministic_across_runs() {
        let g = generators::cycle(5);
        let globals = Globals::new(&g, 99);
        let ctx = NodeCtx {
            id: arbodom_graph::NodeId::new(3),
            weight: 1,
            neighbors: g.neighbors(arbodom_graph::NodeId::new(3)),
            globals: &globals,
            round: 4,
        };
        let a = ctx.unit_rand(1);
        let b = ctx.unit_rand(1);
        assert_eq!(a, b);
        assert_ne!(ctx.unit_rand(1), ctx.unit_rand(2));
    }
}
