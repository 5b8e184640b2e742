//! The primal-dual core the Theorem 1.1, Remark 4.4 and Theorem 1.2/1.3
//! node programs share.
//!
//! Every primal-dual program is Lemma 4.1's partial dominating set followed
//! by a completion, so each node keeps the same state ([`Node`]), mirrors
//! the same three values per neighbor ([`Port`]) and runs the same steps:
//! the `Weight`/`Tau` setup rounds, the Lemma 4.1 iteration, the
//! `Joined`/`Dominated` digest, the raise of undominated packing values,
//! the `Dominated` announce and the `Elect` completion. The programs differ
//! only in their schedules, and [`run_primal_dual`] assembles all their
//! results.

use arbodom_congest::{
    run_parallel, Globals, Inbox, NodeCtx, NodeProgram, Outbox, RunOptions, Telemetry,
};
use arbodom_graph::{Graph, NodeId};

use super::msg::ProtocolMsg;
use crate::{DsResult, PackingCertificate, Result};

/// Per-node output of the primal-dual programs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeOutput {
    /// Membership in `S ∪ S′`.
    pub in_ds: bool,
    /// Final packing value `x_v` (the dual certificate entry).
    pub x: f64,
}

/// What a node mirrors about the neighbor behind one port: its weight,
/// its packing value `x` and whether it is dominated. The primal-dual
/// programs' [`NodeProgram::PortState`], so the mirrors live in the
/// simulator's run-owned port array and no program allocates.
#[derive(Clone, Copy, Debug, Default)]
pub struct Port {
    pub(super) weight: u64,
    pub(super) x: f64,
    pub(super) dominated: bool,
}

/// A node's own primal-dual state.
#[derive(Debug, Default)]
pub(super) struct Node {
    pub(super) weight: u64,
    pub(super) tau: u64,
    pub(super) x: f64,
    pub(super) in_s: bool,
    pub(super) in_s_prime: bool,
    pub(super) dominated: bool,
    /// A `Joined` or `Dominated` broadcast already told the neighbors.
    pub(super) announced: bool,
}

impl Node {
    /// Setup rounds 0 and 1: broadcast `Weight(w_v)`; then learn the
    /// neighbors' weights and broadcast `Tau(τ_v)`,
    /// `τ_v = min_{u∈N⁺(v)} w_u`.
    pub(super) fn setup(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: Inbox<'_, ProtocolMsg>,
        ports: &mut [Port],
        out: &mut Outbox<ProtocolMsg>,
    ) {
        if ctx.round == 0 {
            self.weight = ctx.weight;
            out.broadcast(ProtocolMsg::Weight(self.weight));
            return;
        }
        for (port, &msg) in inbox {
            if let ProtocolMsg::Weight(w) = msg {
                ports[port].weight = w;
            }
        }
        self.tau = ports
            .iter()
            .map(|port| port.weight)
            .chain(std::iter::once(self.weight))
            .min()
            .expect("nonempty");
        out.broadcast(ProtocolMsg::Tau(self.tau));
    }

    /// Round 2: the neighbors' `Tau` arrive. Sets the initial packing
    /// values `x = τ / norm`, own and mirrored.
    pub(super) fn init_packing(
        &mut self,
        inbox: Inbox<'_, ProtocolMsg>,
        ports: &mut [Port],
        norm: f64,
    ) {
        self.x = self.tau as f64 / norm;
        for (port, &msg) in inbox {
            if let ProtocolMsg::Tau(t) = msg {
                ports[port].x = t as f64 / norm;
            }
        }
    }

    /// The Lemma 4.1 join test: the node is not in `S` yet and
    /// `X_v ≥ w_v/(1+ε)`, with `X_v` summed in the centralized solvers'
    /// order (self first, then ports ascending).
    pub(super) fn crosses_threshold(&self, ports: &[Port], one_plus_eps: f64) -> bool {
        if self.in_s {
            return false;
        }
        let mut x_sum = self.x;
        for port in ports {
            x_sum += port.x;
        }
        x_sum >= self.weight as f64 / one_plus_eps
    }

    /// The `(weight, id)`-minimal member of the closed neighborhood;
    /// `None` means "self".
    fn cheapest_dominator(&self, ctx: &NodeCtx<'_>, ports: &[Port]) -> Option<usize> {
        let mut best: (u64, NodeId) = (self.weight, ctx.id);
        let mut best_port = None;
        for (p, (&u, port)) in ctx.neighbors.iter().zip(ports).enumerate() {
            let cand = (port.weight, u);
            if cand < best {
                best = cand;
                best_port = Some(p);
            }
        }
        best_port
    }

    /// Digests `Joined` and `Dominated` events into the mirrors; a
    /// neighbor's `Joined` also dominates this node.
    pub(super) fn digest(&mut self, inbox: Inbox<'_, ProtocolMsg>, ports: &mut [Port]) {
        for (port, &msg) in inbox {
            match msg {
                ProtocolMsg::Joined => {
                    ports[port].dominated = true;
                    self.dominated = true;
                }
                ProtocolMsg::Dominated => ports[port].dominated = true,
                _ => {}
            }
        }
    }

    /// Raises every still-undominated packing value, own and mirrored, by
    /// `factor` — the multiplication each owner performs, so the mirrors
    /// stay bit-exact.
    pub(super) fn raise(&mut self, ports: &mut [Port], factor: f64) {
        if !self.dominated {
            self.x *= factor;
        }
        for port in ports {
            if !port.dominated {
                port.x *= factor;
            }
        }
    }

    /// Joins the set the caller has flagged and broadcasts `Joined`, which
    /// dominates the node and tells every neighbor at once.
    pub(super) fn join(&mut self, out: &mut Outbox<ProtocolMsg>) {
        self.dominated = true;
        self.announced = true;
        out.broadcast(ProtocolMsg::Joined);
    }

    /// Digests the round's events and broadcasts `Dominated` if the node
    /// is dominated and has not said so yet.
    pub(super) fn announce(
        &mut self,
        inbox: Inbox<'_, ProtocolMsg>,
        ports: &mut [Port],
        out: &mut Outbox<ProtocolMsg>,
    ) {
        self.digest(inbox, ports);
        if self.dominated && !self.announced {
            self.announced = true;
            out.broadcast(ProtocolMsg::Dominated);
        }
    }

    /// Lemma 4.1 at `step = round − 2`, for `step ≤ 2r`. An even step first
    /// finishes the previous iteration (digest the `Dominated` events,
    /// raise the undominated values by `1+ε`) and then, below `2r`, joins
    /// `S` when `X_v ≥ w_v/(1+ε)`; an odd step digests the joins and
    /// announces fresh domination. Step `2r` only finishes iteration
    /// `r − 1`: the completion follows in the same round.
    pub(super) fn lemma41(
        &mut self,
        step: usize,
        r: usize,
        one_plus_eps: f64,
        inbox: Inbox<'_, ProtocolMsg>,
        ports: &mut [Port],
        out: &mut Outbox<ProtocolMsg>,
    ) {
        if step % 2 == 1 {
            self.announce(inbox, ports, out);
            return;
        }
        if step > 0 {
            self.digest(inbox, ports);
            self.raise(ports, one_plus_eps);
        }
        if step < 2 * r && self.crosses_threshold(ports, one_plus_eps) {
            self.in_s = true;
            self.join(out);
        }
    }

    /// The completion rule: an undominated node elects the cheapest member
    /// of its closed neighborhood, sending `Elect` to its port. Returns
    /// `true` when the node elects itself; it is then in `S′` at once.
    pub(super) fn elect(
        &mut self,
        ctx: &NodeCtx<'_>,
        ports: &[Port],
        out: &mut Outbox<ProtocolMsg>,
    ) -> bool {
        if self.dominated {
            return false;
        }
        match self.cheapest_dominator(ctx, ports) {
            None => {
                self.in_s_prime = true;
                true
            }
            Some(port) => {
                out.send(port, ProtocolMsg::Elect);
                false
            }
        }
    }

    /// Joins `S′` if a neighbor's `Elect` is in the inbox, and returns
    /// whether one was.
    pub(super) fn accept_election(&mut self, inbox: Inbox<'_, ProtocolMsg>) -> bool {
        let elected = inbox.iter().any(|(_, &m)| m == ProtocolMsg::Elect);
        if elected {
            self.in_s_prime = true;
        }
        elected
    }

    /// The node's output with the packing value `x`.
    pub(super) fn output(&self, x: f64) -> NodeOutput {
        NodeOutput {
            in_ds: self.in_s || self.in_s_prime,
            x,
        }
    }
}

/// Runs a primal-dual program on every node on `threads` worker threads
/// through [`run_parallel`] and assembles the set, the packing
/// certificate and the telemetry.
pub(super) fn run_primal_dual<P: NodeProgram<Output = NodeOutput>>(
    g: &Graph,
    globals: &Globals,
    make: impl FnMut(NodeId, &Graph) -> P,
    opts: &RunOptions,
    threads: usize,
    iterations: usize,
) -> Result<(DsResult, Telemetry)> {
    let run_out = run_parallel(g, globals, make, opts, threads)?;
    let in_ds: Vec<bool> = run_out.outputs.iter().map(|o| o.in_ds).collect();
    let x: Vec<f64> = run_out.outputs.iter().map(|o| o.x).collect();
    Ok((
        DsResult::from_flags(g, in_ds, iterations, Some(PackingCertificate::new(x))),
        run_out.telemetry,
    ))
}
