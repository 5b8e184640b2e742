//! The synchronous round executors.
//!
//! Both runners share one high-throughput core:
//!
//! * **Arena delivery** — each round's messages live in one flat
//!   [`crate::mailbox`] arena grouped by destination; node programs
//!   receive borrowed [`Inbox`] slices, and the send buffer and arena
//!   swap storage every round, so steady-state delivery allocates
//!   nothing.
//! * **Encode-once metering** — [`MeterMode::Measure`] and
//!   [`MeterMode::Strict`] encode each [`Outgoing`] exactly once into a
//!   reusable scratch buffer, however many edges it fans out to;
//!   [`MeterMode::Off`] never touches an encoder.
//! * **CSR fan-out** — [`Recipients::Broadcast`] expands through the
//!   graph's flat CSR adjacency ([`Graph::csr`]) and a flat reverse-port
//!   table sharing the same offsets.
//! * **Sharded two-phase schedule** — [`run_parallel`] partitions the
//!   node ids into contiguous cache-sized shards, each owning its node
//!   programs, staged-send buffer, and mailbox arena. Every round,
//!   workers first claim shards to *compute* (step nodes, stage sends,
//!   group them by destination shard), then claim shards to *deliver*
//!   (gather each destination's slices from every source shard —
//!   sources ascending = senders ascending — and rebuild its arena).
//!   Both phases drain atomic work queues, so skewed-degree graphs keep
//!   every thread busy, and all grouping is stable, which is why the
//!   results are bit-identical to [`run`]'s at any shard/thread count.

use arbodom_graph::{Graph, NodeId};
use bytes::BytesMut;

use crate::mailbox::{Delivery, MailArena};
use crate::obs::SimObs;
use crate::pool::WorkerPool;
use crate::telemetry::SendStats;
use crate::{Globals, NodeCtx, NodeProgram, Outgoing, Recipients, SimError, Step, Telemetry, Wire};
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
    /// Nodes per shard in [`run_parallel`]. `None` picks a cache-sized
    /// shard automatically; explicit values are rounded up to the next
    /// power of two (the destination-shard lookup is a shift). Results
    /// are bit-identical at **any** value — only wall clock and peak
    /// per-shard memory change. Tiny explicit shards on huge graphs cost
    /// `O((n / shard_size)²)` bucket memory — the auto choice keeps the
    /// shard count small.
    pub shard_size: Option<usize>,
    /// Retention cap on [`Telemetry::per_round`] when
    /// [`RunOptions::track_rounds`] is on. `None` keeps every round
    /// (memory proportional to rounds); `Some(cap)` keeps at most `cap`
    /// entries by deterministic keep-every-k downsampling — the stride
    /// ends up in [`Telemetry::per_round_stride`]. Identical under both
    /// runners, so differential comparisons still hold with a cap.
    pub per_round_cap: Option<usize>,
    /// Observability side channel: when set, the runners record phase
    /// timings (deliver/compute per shard, pool dispatch and barrier
    /// wait, worker busy time) and a delivered-message-size histogram
    /// into the handles' registry. `None` (the default) records nothing
    /// and costs nothing — no clocks, no allocations, and outputs and
    /// telemetry stay bit-identical either way (see [`crate::obs`]).
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
            per_round_cap: None,
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

/// Below this node count the parallel runner falls back to [`run`]:
/// thread start-up costs more than the round work it would split.
const PARALLEL_MIN_NODES: usize = 128;

/// Immutable per-run routing state shared by both runners (and, in the
/// parallel runner, by every worker thread).
struct Router<'a> {
    g: &'a Graph,
    rev: &'a [u32],
    opts: &'a RunOptions,
    /// The CONGEST per-message budget, for violation counting.
    budget: usize,
}

impl Router<'_> {
    /// Expands one node's [`Step`] output into staged deliveries.
    ///
    /// Each `Outgoing` is metered **once** — encoded into `scratch` in
    /// `Measure`/`Strict` modes, skipped entirely in `Off` — then fanned
    /// out to its recipients through the CSR adjacency slice. Dropped
    /// messages (fault injection) are metered as sent but never staged.
    /// Surviving deliveries are handed to `stage` in deterministic order
    /// (the sequential runner pushes onto one buffer; the sharded runner
    /// appends to the destination shard's bucket).
    fn expand<M: Wire + Clone>(
        &self,
        v: NodeId,
        round: usize,
        outgoing: Vec<Outgoing<M>>,
        scratch: &mut BytesMut,
        stats: &mut SendStats,
        mut stage: impl FnMut(Delivery<M>),
    ) -> Result<(), SimError> {
        if outgoing.is_empty() {
            return Ok(());
        }
        let (_, nbrs_flat) = self.g.csr();
        let range = self.g.neighbor_range(v);
        let nbrs = &nbrs_flat[range.clone()];
        let rev = &self.rev[range];
        let deg = nbrs.len();
        for out in outgoing {
            let (bits, roundtripped) = match self.opts.meter {
                MeterMode::Off => (0, None),
                MeterMode::Measure => {
                    scratch.clear();
                    out.msg.encode(scratch);
                    (scratch.len() * 8, None)
                }
                MeterMode::Strict => {
                    scratch.clear();
                    out.msg.encode(scratch);
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
            let payload = roundtripped.as_ref().unwrap_or(&out.msg);
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
            match out.to {
                Recipients::Broadcast => {
                    for port in 0..deg {
                        send_one(port, stats)?;
                    }
                }
                Recipients::Port(port) => send_one(port, stats)?,
                Recipients::Ports(ports) => {
                    for port in ports {
                        send_one(port, stats)?;
                    }
                }
            }
            // Message-size side channel: one histogram entry per
            // delivered message, paid as a single atomic per `Outgoing`
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

/// Runs `make(v, g)`-constructed node programs over `g` sequentially and
/// deterministically until every node halts.
///
/// # Errors
///
/// Returns [`SimError::MaxRoundsExceeded`] if any node is still active
/// after `opts.max_rounds` rounds, [`SimError::BadPort`] on invalid
/// addressing, and [`SimError::Wire`] on strict-mode decode failures.
pub fn run<P: NodeProgram>(
    g: &Graph,
    globals: &Globals,
    mut make: impl FnMut(NodeId, &Graph) -> P,
    opts: &RunOptions,
) -> Result<RunResult<P::Output>, SimError> {
    let n = g.n();
    let mut nodes: Vec<P> = g.nodes().map(|v| make(v, g)).collect();
    let mut active = vec![true; n];
    let mut active_count = n;
    let rev = reverse_ports(g);
    let router = Router {
        g,
        rev: &rev,
        opts,
        budget: globals.congest_bits(),
    };
    let mut arena: MailArena<P::Message> = MailArena::new(n);
    let mut staged: Vec<Delivery<P::Message>> = Vec::new();
    let mut scratch = BytesMut::new();
    let mut telemetry = Telemetry {
        bandwidth_budget_bits: router.budget,
        ..Telemetry::default()
    };
    let mut round = 0usize;
    while active_count > 0 {
        if round >= opts.max_rounds {
            return Err(SimError::MaxRoundsExceeded {
                limit: opts.max_rounds,
                active: active_count,
            });
        }
        let mut watch = opts.obs.as_ref().map(|_| Stopwatch::start());
        let mut stats = SendStats::default();
        for v in g.nodes() {
            let vi = v.index();
            if !active[vi] {
                continue;
            }
            let ctx = NodeCtx {
                id: v,
                weight: g.weight(v),
                neighbors: g.neighbors(v),
                globals,
                round,
            };
            let step: Step<P::Message> = nodes[vi].round(&ctx, arena.inbox(vi));
            if step.done {
                active[vi] = false;
                active_count -= 1;
            }
            router.expand(v, round, step.outgoing, &mut scratch, &mut stats, |d| {
                staged.push(d)
            })?;
        }
        telemetry.absorb(round, &stats, opts.track_rounds, opts.per_round_cap);
        if let (Some(obs), Some(watch)) = (&opts.obs, watch.as_mut()) {
            let compute = watch.lap_nanos();
            arena.refill(&mut staged);
            let deliver = watch.elapsed_nanos();
            obs.compute.observe(compute);
            obs.deliver.observe(deliver);
            obs.round_wall.observe(compute + deliver);
            obs.rounds.inc();
            obs.messages.add(stats.messages as u64);
        } else {
            arena.refill(&mut staged);
        }
        round += 1;
    }
    telemetry.rounds = round;
    Ok(RunResult {
        outputs: nodes.iter().map(NodeProgram::output).collect(),
        telemetry,
    })
}

/// Upper bound on the automatically chosen shard size: a shard's node
/// programs, inbox arena, and staged sends should stay cache-resident.
const AUTO_SHARD_MAX: usize = 32_768;

/// Lower bound on the automatically chosen shard size: claiming a shard
/// (an atomic increment plus an uncontended lock) must be noise next to
/// stepping its nodes.
const AUTO_SHARD_MIN: usize = 64;

/// The cache-sized shard the parallel runner picks when
/// [`RunOptions::shard_size`] is `None`: several shards per thread so the
/// work queue can rebalance skewed-degree graphs, capped so a shard's
/// working set stays cache-resident and the shard count stays small
/// enough that the per-shard routing tables are negligible.
fn auto_shard_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * 4)
        .clamp(AUTO_SHARD_MIN, AUTO_SHARD_MAX)
}

/// Per-shard compute output: the shard's staged sends, bucketed by
/// destination shard as they are expanded. Double-buffered across rounds
/// (`prev` is read by everyone delivering, `cur` is written by the
/// claiming worker) and all buckets persist, so steady-state rounds
/// allocate nothing. Halting and statistics no longer live here: workers
/// fold halted counts straight into the shared atomic and accumulate
/// stats thread-locally, so nothing per-shard is left to merge serially.
struct ShardOut<M> {
    /// `staged[d]` holds this shard's deliveries to destination shard
    /// `d`, in expansion order (= ascending sender id within the shard).
    staged: Vec<Vec<Delivery<M>>>,
}

impl<M> ShardOut<M> {
    fn new(num_shards: usize) -> Self {
        ShardOut {
            staged: (0..num_shards).map(|_| Vec::new()).collect(),
        }
    }
}

/// One shard's owned state, built once per run and locked (uncontended —
/// the work queue hands each shard to exactly one worker per round) by
/// whichever pool worker claims the shard: its node programs, its
/// **owned** active flags (decentralized halting — the worker flips a
/// flag the instant the node halts, no post-round merge), and its inbox
/// arena plus the gather scratch the arena recycles every round.
struct Shard<P: NodeProgram> {
    nodes: Vec<P>,
    /// `active[i]` for local node index `i`; owned by the shard, so
    /// halting needs no cross-shard coordination beyond one atomic
    /// subtraction of the shard's halt count per round.
    active: Vec<bool>,
    arena: MailArena<P::Message>,
    gather: Vec<Delivery<P::Message>>,
}

/// Thread-parallel variant of [`run`], producing identical outputs and
/// telemetry. Constructs a private [`WorkerPool`] of `threads` workers
/// for the run and delegates to [`run_parallel_in`]; callers executing
/// many runs should build one pool and call [`run_parallel_in`] directly
/// so the threads are spawned once, not once per run.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_parallel<P>(
    g: &Graph,
    globals: &Globals,
    make: impl FnMut(NodeId, &Graph) -> P,
    opts: &RunOptions,
    threads: usize,
) -> Result<RunResult<P::Output>, SimError>
where
    P: NodeProgram + Send,
    P::Message: Send + Sync,
{
    let n = g.n();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n < PARALLEL_MIN_NODES {
        return run(g, globals, make, opts);
    }
    run_parallel_in(&WorkerPool::new(threads), g, globals, make, opts)
}

/// Runs `make(v, g)`-constructed node programs over `g` on a caller-owned
/// [`WorkerPool`], producing outputs and telemetry **bit-identical** to
/// [`run`]'s (totals, maxima, and per-round stats are all merged
/// order-independently or in node order).
///
/// The node ids are partitioned into contiguous cache-sized **shards**
/// (several per worker; size tunable via [`RunOptions::shard_size`]),
/// each owning its node programs, its active flags, per-destination-shard
/// send buckets, and its own mailbox arena — all built once per run.
/// Every round is one pool **epoch**: [`WorkerPool::broadcast`] wakes the
/// persistent workers (no threads are spawned after pool construction),
/// they claim shards from an atomic queue, and each claimed shard runs a
/// fused two-phase deliver/compute pass:
///
/// 1. **deliver** — gather the shard's bucket from every source shard's
///    *previous-round* output (sources in ascending order = ascending
///    sender id, exactly the sequential staging order) and rebuild the
///    shard's arena with the same stable per-node counting sort the
///    sequential runner uses;
/// 2. **compute** — step the shard's active nodes against the freshly
///    rebuilt arena, expanding each send straight into the destination
///    shard's bucket of the shard's *current-round* output, flipping the
///    shard's own active flags as nodes halt.
///
/// Halting is **decentralized**: each shard owns its active flags, and a
/// worker folds the shard's halt count into one shared atomic counter —
/// there is no serial post-round merge walking halted lists. Send
/// statistics accumulate per worker and merge once per round; every
/// `SendStats` field is a sum or a maximum, so the merge order cannot
/// change the result. The previous-round outputs are
/// immutable while a round runs (shard outputs are double-buffered and
/// their contents swapped by the coordinator between epochs), which is
/// what lets the two phases fuse into a single pass per shard — no global
/// merge, no global sort. All per-shard buffers persist and swap storage
/// across rounds, so steady-state rounds allocate nothing and peak
/// memory stays `O(edges + live messages)` at any graph size. Because
/// bucketing and gathering preserve staging order and shards are walked
/// in ascending order, each inbox sees the same arrival order as in the
/// sequential runner — which is why the results are bit-identical at any
/// shard size and thread count.
///
/// Error reporting is deterministic: the queue hands out shard indices in
/// ascending order and an erroring worker stops claiming, so every shard
/// below the lowest reported faulty shard was processed cleanly — the
/// propagated error is exactly the one the sequential runner (ascending
/// node ids) would have hit first, regardless of worker scheduling.
///
/// Falls back to [`run`] when the pool has a single worker or the graph
/// is smaller than the parallel break-even point; the results are
/// identical either way.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_parallel_in<P>(
    pool: &WorkerPool,
    g: &Graph,
    globals: &Globals,
    mut make: impl FnMut(NodeId, &Graph) -> P,
    opts: &RunOptions,
) -> Result<RunResult<P::Output>, SimError>
where
    P: NodeProgram + Send,
    P::Message: Send + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = g.n();
    let threads = pool.threads().min(n.max(1));
    if threads <= 1 || n < PARALLEL_MIN_NODES {
        return run(g, globals, make, opts);
    }
    let rev = reverse_ports(g);
    let router = Router {
        g,
        rev: &rev,
        opts,
        budget: globals.congest_bits(),
    };
    let mut telemetry = Telemetry {
        bandwidth_budget_bits: router.budget,
        ..Telemetry::default()
    };
    // Shard sizes are rounded up to a power of two so the per-message
    // destination-shard lookup in the staging hot path is a shift, not an
    // integer division (measurably faster at millions of messages/round).
    let shard_size = opts
        .shard_size
        .unwrap_or_else(|| auto_shard_size(n, threads))
        .max(1)
        .next_power_of_two();
    let shard_shift = shard_size.trailing_zeros();
    let num_shards = n.div_ceil(shard_size);
    // Per-shard owned state, built once for the whole run. The slot
    // mutexes are uncontended — the queue hands each shard to exactly one
    // worker per round — they exist to prove exclusive access to the
    // borrow checker across epochs.
    let shards: Vec<Mutex<Shard<P>>> = (0..num_shards)
        .map(|s| {
            let base = s * shard_size;
            let len = shard_size.min(n - base);
            Mutex::new(Shard {
                nodes: (base..base + len)
                    .map(|vi| make(NodeId::from_index(vi), g))
                    .collect(),
                active: vec![true; len],
                arena: MailArena::with_range(base as u32, len),
                gather: Vec::new(),
            })
        })
        .collect();
    // Double-buffered shard outputs: `prev` holds the finished round's
    // sends (read-shared by every delivering shard), `cur` collects the
    // running round's (locked by the claiming worker). The coordinator
    // swaps their contents between epochs, recycling all capacity.
    let mut prev_outs: Vec<ShardOut<P::Message>> =
        (0..num_shards).map(|_| ShardOut::new(num_shards)).collect();
    let mut cur_outs: Vec<Mutex<ShardOut<P::Message>>> = (0..num_shards)
        .map(|_| Mutex::new(ShardOut::new(num_shards)))
        .collect();
    // Per-worker encode scratch, persistent across rounds (indexed by the
    // pool worker id, so each buffer is reused by exactly one worker per
    // epoch).
    let scratches: Vec<Mutex<BytesMut>> = (0..pool.threads())
        .map(|_| Mutex::new(BytesMut::new()))
        .collect();
    // Decentralized halting: the only shared halt state is this counter;
    // the flags live in the shards that own them.
    let active_count = AtomicUsize::new(n);
    // Per-worker (dispatch, busy) nanos for the running round, written by
    // each worker and read back by the coordinator to derive the
    // barrier-wait residue. Allocated once per run, and only when the
    // observability side channel is on — disabled runs keep the
    // zero-steady-state-allocation property untouched.
    let worker_times: Option<Vec<Mutex<(u64, u64)>>> = opts
        .obs
        .as_ref()
        .map(|_| (0..pool.threads()).map(|_| Mutex::new((0, 0))).collect());
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
        pool.broadcast(|w| {
            // Pool wake-up latency: round start to this worker entering
            // the epoch. Workers then accumulate their shard-phase time
            // in a plain per-thread accumulator, drained once per round.
            let dispatch_nanos = round_watch.as_ref().map(Stopwatch::elapsed_nanos);
            let mut busy = SpanAcc::default();
            let mut scratch = scratches[w].lock().expect("one worker per scratch slot");
            let mut stats = SendStats::default();
            let mut err: Option<(usize, SimError)> = None;
            loop {
                let s = queue.fetch_add(1, Ordering::Relaxed);
                if s >= num_shards {
                    break;
                }
                let mut shard = shards[s].lock().expect("shard claimed once");
                let mut out = cur_outs[s].lock().expect("output claimed once");
                let Shard {
                    nodes,
                    active,
                    arena,
                    gather,
                } = &mut *shard;
                let mut shard_watch = opts.obs.as_ref().map(|_| Stopwatch::start());
                // Deliver: rebuild the arena from this shard's bucket in
                // every source (ascending = sequential staging order).
                // Round 0 gathers nothing.
                arena.refill_gathered(gather, prev_outs.iter().map(|src| src.staged[s].as_slice()));
                if let (Some(obs), Some(watch)) = (&opts.obs, shard_watch.as_mut()) {
                    let deliver = watch.lap_nanos();
                    obs.deliver.observe(deliver);
                    busy.add(deliver);
                }
                // Compute: step the shard's active nodes against the
                // fresh arena, bucketing sends by destination shard and
                // flipping the shard-owned active flags as nodes halt.
                for bucket in &mut out.staged {
                    bucket.clear();
                }
                let base = s * shard_size;
                let mut halted = 0usize;
                for (i, node) in nodes.iter_mut().enumerate() {
                    if !active[i] {
                        continue;
                    }
                    let v = NodeId::from_index(base + i);
                    let ctx = NodeCtx {
                        id: v,
                        weight: router.g.weight(v),
                        neighbors: router.g.neighbors(v),
                        globals,
                        round,
                    };
                    let step = node.round(&ctx, arena.inbox(i));
                    if step.done {
                        active[i] = false;
                        halted += 1;
                    }
                    let staged = &mut out.staged;
                    if let Err(e) =
                        router.expand(v, round, step.outgoing, &mut scratch, &mut stats, |d| {
                            staged[(d.dest >> shard_shift) as usize].push(d)
                        })
                    {
                        err = Some((s, e));
                        break;
                    }
                }
                if halted > 0 {
                    active_count.fetch_sub(halted, Ordering::Relaxed);
                }
                if let (Some(obs), Some(watch)) = (&opts.obs, shard_watch.as_mut()) {
                    let compute = watch.lap_nanos();
                    obs.compute.observe(compute);
                    busy.add(compute);
                }
                if err.is_some() {
                    // Stop claiming: shards this worker already finished
                    // form an error-free prefix of its claims, so the
                    // lowest reported shard stays the sequential answer.
                    break;
                }
            }
            round_stats
                .lock()
                .expect("round stats poisoned")
                .merge(&stats);
            if let Some((s, e)) = err {
                let mut slot = first_err.lock().expect("error slot poisoned");
                if slot.as_ref().is_none_or(|(fs, _)| s < *fs) {
                    *slot = Some((s, e));
                }
            }
            if let (Some(obs), Some(times), Some(dispatch)) =
                (&opts.obs, worker_times.as_ref(), dispatch_nanos)
            {
                obs.dispatch.observe(dispatch);
                obs.busy.observe(busy.nanos);
                *times[w].lock().expect("worker time slot poisoned") = (dispatch, busy.nanos);
            }
        });
        if let Some((_, e)) = first_err.into_inner().expect("error slot poisoned") {
            return Err(e);
        }
        let stats = round_stats.into_inner().expect("round stats poisoned");
        telemetry.absorb(round, &stats, opts.track_rounds, opts.per_round_cap);
        if let (Some(obs), Some(times), Some(watch)) =
            (&opts.obs, worker_times.as_ref(), round_watch.as_ref())
        {
            let wall = watch.elapsed_nanos();
            obs.round_wall.observe(wall);
            obs.rounds.inc();
            obs.messages.add(stats.messages as u64);
            // What a worker did not spend on dispatch or shard work it
            // spent waiting on the epoch barrier for slower workers.
            for slot in times {
                let (dispatch, busy) = *slot.lock().expect("worker time slot poisoned");
                obs.barrier
                    .observe(wall.saturating_sub(dispatch.saturating_add(busy)));
            }
        }
        // Swap the double buffers' contents (the epoch is over, so the
        // coordinator has exclusive access again).
        for (s, cur) in cur_outs.iter_mut().enumerate() {
            std::mem::swap(&mut prev_outs[s], cur.get_mut().expect("output poisoned"));
        }
        round += 1;
    }
    telemetry.rounds = round;
    let mut outputs = Vec::with_capacity(n);
    for slot in shards {
        let shard = slot.into_inner().expect("shard poisoned");
        outputs.extend(shard.nodes.iter().map(NodeProgram::output));
    }
    Ok(RunResult { outputs, telemetry })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Inbox;
    use arbodom_graph::generators;

    /// Each node floods its id once; everyone halts after hearing neighbors.
    struct Echo {
        sum: u64,
    }

    impl NodeProgram for Echo {
        type Message = u32;
        type Output = u64;
        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: Inbox<'_, u32>) -> Step<u32> {
            match ctx.round {
                0 => Step::continue_with(vec![Outgoing::broadcast(ctx.id.get())]),
                _ => {
                    self.sum = inbox.iter().map(|(_, &m)| u64::from(m)).sum();
                    Step::halt()
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
        type Output = ();
        fn round(&mut self, _ctx: &NodeCtx<'_>, _inbox: Inbox<'_, bool>) -> Step<bool> {
            Step::idle()
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
        type Output = ();
        fn round(&mut self, ctx: &NodeCtx<'_>, _inbox: Inbox<'_, bool>) -> Step<bool> {
            if ctx.round + 1 == self.total {
                Step::halt()
            } else {
                Step::idle()
            }
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
        type Output = ();
        fn round(&mut self, ctx: &NodeCtx<'_>, _inbox: Inbox<'_, bool>) -> Step<bool> {
            if self.halts && ctx.round + 1 == self.total {
                Step::halt()
            } else {
                Step::idle()
            }
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
        type Output = ();
        fn round(&mut self, _ctx: &NodeCtx<'_>, _inbox: Inbox<'_, bool>) -> Step<bool> {
            Step::halt_with(vec![Outgoing::to_port(99, true)])
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
        type Output = ();
        fn round(&mut self, _ctx: &NodeCtx<'_>, _inbox: Inbox<'_, bool>) -> Step<bool> {
            if self.faulty {
                Step::continue_with(vec![Outgoing::to_port(99, true)])
            } else {
                Step::idle()
            }
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
        type Output = u64;
        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: Inbox<'_, u64>) -> Step<u64> {
            if ctx.round == 0 && self.is_source {
                return Step::halt_with(vec![Outgoing::to_port(0, 1)]);
            }
            if let Some((from, &v)) = inbox.first() {
                self.value = v;
                if self.is_sink {
                    return Step::halt();
                }
                // forward out the other port
                let other = 1 - from;
                return Step::halt_with(vec![Outgoing::to_port(other, v + 1)]);
            }
            if ctx.round > 0 && self.is_source {
                return Step::halt();
            }
            Step::idle()
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
