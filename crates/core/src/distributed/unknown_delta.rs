//! CONGEST node program for Remark 4.4 (Theorem 1.1 without knowing Δ).
//!
//! The interesting systems problem here is **termination**: with Δ
//! unknown, no node can compute the iteration count in advance. Instead,
//! every node runs the iteration loop until *local stabilization* — itself
//! and its whole neighborhood dominated — and halts; the simulation ends
//! when the last node stabilizes, which Remark 4.4 bounds by
//! `O(log Δ/ε)` iterations.
//!
//! Each algorithm iteration spans **three rounds**:
//!
//! | sub-round | action |
//! |---|---|
//! | A | finish the previous iteration (apply `Dominated` events, raise undominated packing values); then, from the start-of-iteration snapshot: confident undominated nodes (`x_v > λτ_v`) send `Elect` to their cheapest closed neighbor, and threshold-crossing nodes with an undominated closed neighbor broadcast `Joined` |
//! | B | digest `Joined`; elected nodes join `S′` and broadcast `Joined` |
//! | C | digest the late `Joined`s; freshly dominated nodes broadcast `Dominated` |
//!
//! The centralized [`crate::unknown_delta::solve`] uses the same
//! simultaneous-snapshot semantics, and the equivalence tests require
//! bit-identical dominating sets and packing values. Per-neighbor mirrors
//! are the program's [`NodeProgram::PortState`] ([`UnknownDeltaPort`]),
//! so the program itself allocates nothing.

use arbodom_congest::{
    run_parallel, Globals, Inbox, NodeCtx, NodeProgram, Outbox, RunOptions, Telemetry,
};
use arbodom_graph::{Graph, NodeId};

use super::msg::ProtocolMsg;
use crate::unknown_delta::Config;
use crate::{DsResult, PackingCertificate, Result};

/// Per-node output of the unknown-Δ program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeOutput {
    /// Membership in `S ∪ S′`.
    pub in_ds: bool,
    /// Final packing value (certificate entry).
    pub x: f64,
    /// The iteration (0-based) at which this node stabilized.
    pub stabilized_at: usize,
}

/// The Remark 4.4 node program.
#[derive(Debug)]
pub struct UnknownDeltaProgram {
    cfg: Config,
    // ---- own state ----
    weight: u64,
    tau: u64,
    x: f64,
    in_s: bool,
    in_s_prime: bool,
    dominated: bool,
    /// Some broadcast already told neighbors this node is dominated.
    announced_dominated: bool,
    /// A `Joined` broadcast (membership, which also dominates the
    /// neighborhood) was already sent.
    announced_joined: bool,
    stabilized_at: usize,
}

/// What a Remark 4.4 node mirrors about the neighbor behind one port: its
/// weight, its `τ`, its packing value `x` and whether it is dominated.
/// The program's [`NodeProgram::PortState`].
#[derive(Clone, Copy, Debug, Default)]
pub struct UnknownDeltaPort {
    weight: u64,
    tau: u64,
    x: f64,
    dominated: bool,
}

impl UnknownDeltaProgram {
    /// Creates the program for a node of the given degree. Construction
    /// allocates nothing: the per-neighbor mirrors ([`UnknownDeltaPort`])
    /// are run state the simulator sizes, so `_degree` is unused.
    pub fn new(cfg: Config, _degree: usize) -> Self {
        UnknownDeltaProgram {
            cfg,
            weight: 0,
            tau: 0,
            x: 0.0,
            in_s: false,
            in_s_prime: false,
            dominated: false,
            announced_dominated: false,
            announced_joined: false,
            stabilized_at: 0,
        }
    }

    fn lambda(&self) -> f64 {
        self.cfg.lambda()
    }

    fn x_sum(&self, ports: &[UnknownDeltaPort]) -> f64 {
        let mut sum = self.x;
        for port in ports {
            sum += port.x;
        }
        sum
    }

    fn cheapest_dominator(&self, ctx: &NodeCtx<'_>, ports: &[UnknownDeltaPort]) -> Option<usize> {
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

    /// Digest `Joined`/`Dominated` events into the mirrors and own state.
    fn digest(&mut self, inbox: Inbox<'_, ProtocolMsg>, ports: &mut [UnknownDeltaPort]) -> bool {
        let mut heard_join = false;
        for (port, &msg) in inbox {
            match msg {
                ProtocolMsg::Joined => {
                    ports[port].dominated = true;
                    heard_join = true;
                }
                ProtocolMsg::Dominated => {
                    ports[port].dominated = true;
                }
                _ => {}
            }
        }
        if heard_join {
            self.dominated = true;
        }
        heard_join
    }

    fn announce_if_fresh(&mut self, out: &mut Outbox<ProtocolMsg>) {
        if self.dominated && !self.announced_dominated {
            self.announced_dominated = true;
            out.broadcast(ProtocolMsg::Dominated);
        }
    }

    /// First `Joined` broadcast: marks both announcement flags.
    fn broadcast_joined(&mut self, out: &mut Outbox<ProtocolMsg>) {
        debug_assert!(!self.announced_joined);
        self.announced_joined = true;
        self.announced_dominated = true;
        self.dominated = true;
        out.broadcast(ProtocolMsg::Joined);
    }

    fn stabilized(&self, ports: &[UnknownDeltaPort]) -> bool {
        self.dominated && ports.iter().all(|port| port.dominated)
    }
}

impl NodeProgram for UnknownDeltaProgram {
    type Message = ProtocolMsg;
    type PortState = UnknownDeltaPort;
    type Output = NodeOutput;

    fn round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: Inbox<'_, ProtocolMsg>,
        ports: &mut [UnknownDeltaPort],
        out: &mut Outbox<ProtocolMsg>,
    ) -> bool {
        let rd = ctx.round;
        match rd {
            0 => {
                self.weight = ctx.weight;
                out.broadcast(ProtocolMsg::Weight(self.weight));
                false
            }
            1 => {
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
                false
            }
            2 => {
                // Second setup round: exchange closed-neighborhood sizes so
                // every node can form the local normalizer
                // max_{u∈N⁺(v)} |N⁺(u)| — Remark 4.4's replacement for Δ+1.
                for (port, &msg) in inbox {
                    if let ProtocolMsg::Tau(t) = msg {
                        ports[port].tau = t;
                    }
                }
                out.broadcast(ProtocolMsg::Degree(ctx.degree() as u64 + 1));
                false
            }
            _ => {
                if rd == 3 {
                    let my_closed = ctx.degree() as u64 + 1;
                    let max_closed = inbox
                        .iter()
                        .filter_map(|(_, &m)| match m {
                            ProtocolMsg::Degree(d) => Some(d),
                            _ => None,
                        })
                        .chain(std::iter::once(my_closed))
                        .max()
                        .expect("self always counted");
                    self.x = self.tau as f64 / max_closed as f64;
                    // Mirrors need neighbors' normalizers too; they are a
                    // function of *their* neighborhoods, which we cannot
                    // see. Send our normalizer so mirrors can initialize.
                    out.broadcast(ProtocolMsg::Weight(max_closed));
                    return false;
                }
                if rd == 4 {
                    for (port, &msg) in inbox {
                        if let ProtocolMsg::Weight(m) = msg {
                            let port = &mut ports[port];
                            port.x = port.tau as f64 / m as f64;
                        }
                    }
                    // Fall through into sub-round A of iteration 0 below.
                }
                let phase = (rd - 4) % 3;
                let iteration = (rd - 4) / 3;
                let one_plus_eps = 1.0 + self.cfg.epsilon;
                match phase {
                    0 => {
                        // ---- sub-round A ----
                        if iteration > 0 {
                            self.digest(inbox, ports);
                            // Raise every still-undominated packing value:
                            // the finish of iteration −1.
                            if !self.dominated {
                                self.x *= one_plus_eps;
                            }
                            for port in ports.iter_mut() {
                                if !port.dominated {
                                    port.x *= one_plus_eps;
                                }
                            }
                            if self.stabilized(ports) {
                                self.stabilized_at = iteration;
                                return true;
                            }
                        }
                        // Election (start-of-iteration snapshot).
                        if !self.dominated && self.x > self.lambda() * self.tau as f64 {
                            match self.cheapest_dominator(ctx, ports) {
                                None => {
                                    self.in_s_prime = true;
                                    self.broadcast_joined(out);
                                }
                                Some(port) => out.send(port, ProtocolMsg::Elect),
                            }
                        }
                        // Join (start-of-iteration snapshot; only useful
                        // joins — see the centralized solver's comment).
                        let any_undominated =
                            !self.dominated || ports.iter().any(|port| !port.dominated);
                        if !self.in_s
                            && any_undominated
                            && !self.announced_joined
                            && self.x_sum(ports) >= self.weight as f64 / one_plus_eps
                        {
                            self.in_s = true;
                            self.broadcast_joined(out);
                        }
                        false
                    }
                    1 => {
                        // ---- sub-round B ----
                        self.digest(inbox, ports);
                        if inbox.iter().any(|(_, &m)| m == ProtocolMsg::Elect) {
                            self.in_s_prime = true;
                            if !self.announced_joined {
                                // Announce membership — even if a plain
                                // `Dominated` was sent before, the elector
                                // needs to learn it is now dominated.
                                self.broadcast_joined(out);
                            }
                        }
                        false
                    }
                    _ => {
                        // ---- sub-round C ----
                        self.digest(inbox, ports);
                        self.announce_if_fresh(out);
                        false
                    }
                }
            }
        }
    }

    fn output(&self) -> NodeOutput {
        NodeOutput {
            in_ds: self.in_s || self.in_s_prime,
            x: self.x,
            stabilized_at: self.stabilized_at,
        }
    }
}

/// Runs Remark 4.4 as a real message-passing computation.
///
/// The rounds run on `threads` worker threads through [`run_parallel`];
/// `0` and `1` both run them inline on the calling thread. Outputs and
/// telemetry are bit-identical at any thread count.
///
/// # Errors
///
/// Propagates configuration validation and simulation errors.
pub fn run_unknown_delta(
    g: &Graph,
    cfg: &Config,
    seed: u64,
    opts: &RunOptions,
    threads: usize,
) -> Result<(DsResult, Telemetry)> {
    let globals = Globals::new(g, seed).with_arboricity(cfg.alpha);
    let make = |v: NodeId, g: &Graph| UnknownDeltaProgram::new(*cfg, g.degree(v));
    let run_out = run_parallel(g, &globals, make, opts, threads)?;
    let in_ds: Vec<bool> = run_out.outputs.iter().map(|o| o.in_ds).collect();
    let x: Vec<f64> = run_out.outputs.iter().map(|o| o.x).collect();
    let iterations = run_out
        .outputs
        .iter()
        .map(|o| o.stabilized_at)
        .max()
        .unwrap_or(0);
    Ok((
        DsResult::from_flags(g, in_ds, iterations, Some(PackingCertificate::new(x))),
        run_out.telemetry,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{unknown_delta, verify};
    use arbodom_congest::{run, MeterMode};
    use arbodom_graph::{generators, weights::WeightModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn strict() -> RunOptions {
        RunOptions {
            meter: MeterMode::Strict,
            ..RunOptions::default()
        }
    }

    #[test]
    fn matches_centralized_sets() {
        let mut rng = StdRng::seed_from_u64(181);
        for alpha in [1usize, 2, 4] {
            for model in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 40 }] {
                let g = generators::forest_union(150, alpha, &mut rng);
                let g = model.assign(&g, &mut rng);
                let cfg = Config::new(alpha, 0.3).unwrap();
                let central = unknown_delta::solve(&g, &cfg).unwrap();
                let (dist, telemetry) = run_unknown_delta(&g, &cfg, 0, &strict(), 1).unwrap();
                assert_eq!(central.in_ds, dist.in_ds, "α={alpha} {model:?}");
                assert!(telemetry.is_congest_compliant());
            }
        }
    }

    #[test]
    fn dominates_on_varied_topologies() {
        let mut rng = StdRng::seed_from_u64(182);
        let graphs = vec![
            generators::path(50),
            generators::star(70),
            generators::grid2d(8, 8, true),
            generators::gnp(100, 0.07, &mut rng),
            arbodom_graph::Graph::from_edges(6, [(0, 1), (2, 3)]).unwrap(),
        ];
        for g in graphs {
            let cfg = Config::new(2, 0.4).unwrap();
            let (sol, _) = run_unknown_delta(&g, &cfg, 1, &strict(), 1).unwrap();
            assert!(verify::is_dominating_set(&g, &sol.in_ds));
        }
    }

    #[test]
    fn terminates_locally_without_global_knowledge() {
        // The program never reads globals.max_degree — spoof it to prove
        // the algorithm cannot be using it.
        let mut rng = StdRng::seed_from_u64(183);
        let g = generators::forest_union(200, 2, &mut rng);
        let cfg = Config::new(2, 0.25).unwrap();
        let mut globals = Globals::new(&g, 0);
        globals.max_degree = 999_999; // wrong on purpose
        let run_out = run(
            &g,
            &globals,
            |v, g| UnknownDeltaProgram::new(cfg, g.degree(v)),
            &strict(),
        )
        .unwrap();
        let in_ds: Vec<bool> = run_out.outputs.iter().map(|o| o.in_ds).collect();
        assert!(verify::is_dominating_set(&g, &in_ds));
    }

    #[test]
    fn rounds_scale_with_iterations_not_n() {
        let mut rng = StdRng::seed_from_u64(184);
        let small = generators::random_regular(200, 6, &mut rng);
        let large = generators::random_regular(3_200, 6, &mut rng);
        let cfg = Config::new(2, 0.3).unwrap();
        let (_, t_small) = run_unknown_delta(&small, &cfg, 0, &strict(), 1).unwrap();
        let (_, t_large) = run_unknown_delta(&large, &cfg, 0, &strict(), 1).unwrap();
        assert!(
            t_large.rounds <= t_small.rounds + 6,
            "rounds must not grow with n at fixed Δ: {} vs {}",
            t_small.rounds,
            t_large.rounds
        );
    }
}
