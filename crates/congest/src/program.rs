//! Node programs: the per-node state machines executed by the simulator.

use arbodom_graph::{Graph, NodeId};

use crate::{Inbox, Wire};

/// Information every node knows before the first round.
///
/// The paper (Section 1.2) assumes all nodes know the maximum degree Δ and
/// the arboricity α; `n` is standard knowledge in CONGEST. Algorithms for
/// the unknown-Δ/unknown-α settings (Remarks 4.4, 4.5) simply ignore the
/// corresponding fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Globals {
    /// Number of nodes in the network.
    pub n: usize,
    /// Maximum degree Δ.
    pub max_degree: usize,
    /// Arboricity bound α, when known.
    pub arboricity: Option<usize>,
    /// Seed for deterministic randomness (see [`crate::det_rand`]).
    pub seed: u64,
}

impl Globals {
    /// Globals for graph `g` with a randomness seed; Δ is computed, α left
    /// unknown.
    pub fn new(g: &Graph, seed: u64) -> Self {
        Globals {
            n: g.n(),
            max_degree: g.max_degree(),
            arboricity: None,
            seed,
        }
    }

    /// Sets the arboricity known to all nodes.
    #[must_use]
    pub fn with_arboricity(mut self, alpha: usize) -> Self {
        self.arboricity = Some(alpha);
        self
    }

    /// The standard CONGEST bandwidth budget in bits: `c · ⌈log₂(n+1)⌉`
    /// with `c = 8`, generous enough for a constant number of ids/weights
    /// per message while still `O(log n)`.
    pub fn congest_bits(&self) -> usize {
        8 * usize::try_from((self.n as u64 + 1).next_power_of_two().trailing_zeros())
            .expect("log fits usize")
            .max(1)
    }
}

/// Per-round, per-node context handed to [`NodeProgram::round`].
#[derive(Debug)]
pub struct NodeCtx<'a> {
    /// This node's id.
    pub id: NodeId,
    /// This node's weight `w_v`.
    pub weight: u64,
    /// Ids of the node's neighbors; the index into this slice is the *port*
    /// used for addressing messages.
    pub neighbors: &'a [NodeId],
    /// Network-wide knowledge.
    pub globals: &'a Globals,
    /// Current round number, starting at 0.
    pub round: usize,
}

impl NodeCtx<'_> {
    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Deterministic uniform draw in `[0, 1)` for this node and round,
    /// optionally distinguished by `tag`. The value depends only on the
    /// seed, node, round and tag — never on the worker or shard that
    /// steps the node — which is how randomized node programs stay
    /// reproducible at every thread count.
    pub fn unit_rand(&self, tag: u64) -> f64 {
        crate::det_rand::unit_f64(crate::det_rand::stream(
            self.globals.seed,
            &[u64::from(self.id.get()), self.round as u64, tag],
        ))
    }
}

/// Where a message goes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Recipients {
    /// One copy along every incident edge.
    Broadcast,
    /// Along the edge at one port index.
    Port(usize),
    /// Along the edges at several port indices.
    Ports(Vec<usize>),
}

/// A message together with its recipients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// Destination edge(s).
    pub to: Recipients,
    /// Payload.
    pub msg: M,
}

impl<M> Outgoing<M> {
    /// Sends `msg` along every incident edge.
    pub fn broadcast(msg: M) -> Self {
        Outgoing {
            to: Recipients::Broadcast,
            msg,
        }
    }

    /// Sends `msg` along the edge at `port`.
    pub fn to_port(port: usize, msg: M) -> Self {
        Outgoing {
            to: Recipients::Port(port),
            msg,
        }
    }
}

/// The result of one local round: messages to send, and whether this node
/// has halted.
///
/// A halted node sends nothing, ignores late messages, and is never stepped
/// again; the simulation ends when every node has halted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step<M> {
    /// Messages to deliver at the start of the next round.
    pub outgoing: Vec<Outgoing<M>>,
    /// Whether this node is done.
    pub done: bool,
}

impl<M> Step<M> {
    /// Continue running, sending nothing.
    pub fn idle() -> Self {
        Step {
            outgoing: Vec::new(),
            done: false,
        }
    }

    /// Continue running and send `outgoing`.
    pub fn continue_with(outgoing: Vec<Outgoing<M>>) -> Self {
        Step {
            outgoing,
            done: false,
        }
    }

    /// Halt without sending.
    pub fn halt() -> Self {
        Step {
            outgoing: Vec::new(),
            done: true,
        }
    }

    /// Send `outgoing`, then halt (messages are still delivered).
    pub fn halt_with(outgoing: Vec<Outgoing<M>>) -> Self {
        Step {
            outgoing,
            done: true,
        }
    }
}

/// A per-node state machine in the CONGEST model.
///
/// The simulator calls [`NodeProgram::round`] once per round for every
/// active node: at round 0 with an empty inbox, afterwards with the
/// messages sent to it in the previous round as an [`Inbox`] — a borrowed
/// slice of the round's mailbox arena yielding `(port, message)` pairs,
/// where the port identifies which incident edge delivered the message.
/// Programs never own their inbox, which is what lets the simulator keep
/// every round's traffic in one flat allocation-free buffer.
///
/// Per-port state works the same way: whatever a node remembers about
/// each incident edge (typically a mirror of the neighbor behind it)
/// lives in a run-owned array, not in the program, and each round the
/// node borrows its slice of it. See [`NodeProgram::PortState`].
///
/// Any run may step its shards on a pool's worker threads, so programs
/// and their port state are `Send`, and messages — read by every shard
/// that delivers them — are `Send + Sync`.
pub trait NodeProgram: Send {
    /// Message type exchanged along edges.
    type Message: Wire + Clone + std::fmt::Debug + Send + Sync;
    /// What the node keeps per incident edge, handed to
    /// [`NodeProgram::round`] as `ports`, indexed by port exactly like
    /// [`NodeCtx::neighbors`] and the inbox. Every entry starts as
    /// `Default::default()` and persists across rounds.
    ///
    /// The runner owns one array of these for the whole run, laid out in
    /// CSR order (`2m` entries, node `v`'s ports at
    /// [`Graph::neighbor_range`]`(v)`), so a program needs no heap
    /// allocation of its own for per-neighbor state. Programs without
    /// per-port state declare `()`, which takes no memory.
    type PortState: Clone + Default + Send;
    /// Per-node output extracted when the run completes.
    type Output;

    /// Executes one synchronous round. `ports` is this node's per-port
    /// state: `ports.len() == ctx.degree()`, and `ports[p]` belongs to the
    /// edge at port `p`.
    fn round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: Inbox<'_, Self::Message>,
        ports: &mut [Self::PortState],
    ) -> Step<Self::Message>;

    /// This node's part of the global output.
    fn output(&self) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbodom_graph::generators;

    #[test]
    fn globals_congest_bits_scale() {
        let g = generators::path(1000);
        let globals = Globals::new(&g, 0);
        assert_eq!(globals.max_degree, 2);
        assert!(globals.congest_bits() >= 8 * 10);
        assert!(globals.congest_bits() <= 8 * 16);
    }

    #[test]
    fn globals_with_arboricity() {
        let g = generators::cycle(5);
        let globals = Globals::new(&g, 1).with_arboricity(2);
        assert_eq!(globals.arboricity, Some(2));
    }

    #[test]
    fn step_constructors() {
        let s: Step<u32> = Step::idle();
        assert!(!s.done && s.outgoing.is_empty());
        let s: Step<u32> = Step::halt();
        assert!(s.done);
        let s = Step::halt_with(vec![Outgoing::broadcast(1u32)]);
        assert!(s.done && s.outgoing.len() == 1);
    }
}
