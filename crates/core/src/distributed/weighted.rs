//! CONGEST node program for Theorem 1.1 (deterministic weighted MDS).
//!
//! Round schedule (`r` = Lemma 4.1 iteration count, computed locally from
//! the public `Δ, α, ε`):
//!
//! | round | action |
//! |---|---|
//! | 0 | broadcast `Weight(w_v)` |
//! | 1 | learn neighbor weights; compute and broadcast `Tau(τ_v)` |
//! | 2+2i | *iteration i, part A*: finish iteration i−1 bookkeeping (apply `Dominated` events, raise undominated mirrors), compute `X_u`, possibly join `S`, broadcast `Joined` |
//! | 3+2i | *iteration i, part B*: apply `Joined` events; if newly dominated, broadcast `Dominated` |
//! | 2+2r | completion: undominated nodes elect the cheapest closed neighbor (`Elect` to its port, or join themselves) |
//! | 3+2r | elected nodes join `S′`; all halt |
//!
//! Neighbors never exchange packing values: each node mirrors its
//! neighbors' `x` (initialized from the `Tau` exchange, multiplied by
//! `(1+ε)` in exactly the rounds the owner multiplies), so after setup all
//! traffic is single-byte events — which is how the paper's
//! `O(log(Δ/α)/ε)`-round claim translates to `O(log n)`-bit CONGEST
//! compliance with room to spare. The mirrors are the program's
//! [`NodeProgram::PortState`] ([`WeightedPort`]), so they live in the
//! simulator's run-owned port array and the program itself allocates
//! nothing.

use arbodom_congest::{
    run_parallel, Globals, Inbox, NodeCtx, NodeProgram, Outbox, RunOptions, Telemetry,
};
use arbodom_graph::{Graph, NodeId};

use super::msg::ProtocolMsg;
use crate::partial::PartialConfig;
use crate::weighted::Config;
use crate::{DsResult, PackingCertificate, Result};

/// Per-node output of the weighted program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeOutput {
    /// Membership in `S ∪ S′`.
    pub in_ds: bool,
    /// Final packing value `x_v` (the dual certificate entry).
    pub x: f64,
}

/// The Theorem 1.1 node program.
#[derive(Debug)]
pub struct WeightedProgram {
    cfg: Config,
    // ---- own state ----
    weight: u64,
    tau: u64,
    x: f64,
    in_s: bool,
    in_s_prime: bool,
    dominated: bool,
    announced: bool,
    // ---- schedule ----
    r: usize,
}

/// What a Theorem 1.1 node mirrors about the neighbor behind one port:
/// its weight, its packing value `x` and whether it is dominated. The
/// program's [`NodeProgram::PortState`].
#[derive(Clone, Copy, Debug, Default)]
pub struct WeightedPort {
    weight: u64,
    x: f64,
    dominated: bool,
}

impl WeightedProgram {
    /// Creates the program for a node of the given degree. Construction
    /// allocates nothing: the per-neighbor mirrors ([`WeightedPort`]) are
    /// run state the simulator sizes, so `_degree` is unused.
    pub fn new(cfg: Config, _degree: usize) -> Self {
        WeightedProgram {
            cfg,
            weight: 0,
            tau: 0,
            x: 0.0,
            in_s: false,
            in_s_prime: false,
            dominated: false,
            announced: false,
            r: 0,
        }
    }

    /// `X_u` in the same summation order as the centralized solver
    /// (self first, then ports ascending).
    fn x_sum(&self, ports: &[WeightedPort]) -> f64 {
        let mut sum = self.x;
        for port in ports {
            sum += port.x;
        }
        sum
    }

    /// The `(weight, id)`-minimal member of the closed neighborhood; `None`
    /// means "self".
    fn cheapest_dominator(&self, ctx: &NodeCtx<'_>, ports: &[WeightedPort]) -> Option<usize> {
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

    fn apply_dominated_events(inbox: Inbox<'_, ProtocolMsg>, ports: &mut [WeightedPort]) {
        for (port, &msg) in inbox {
            match msg {
                ProtocolMsg::Dominated | ProtocolMsg::Joined => {
                    ports[port].dominated = true;
                }
                _ => {}
            }
        }
    }

    /// End-of-iteration bookkeeping: raise every still-undominated packing
    /// value (own and mirrored) by `(1+ε)` — the same multiplication the
    /// owner performs, so mirrors stay bit-exact.
    fn raise_undominated(&mut self, ports: &mut [WeightedPort]) {
        let f = 1.0 + self.cfg.epsilon;
        if !self.dominated {
            self.x *= f;
        }
        for port in ports {
            if !port.dominated {
                port.x *= f;
            }
        }
    }

    /// Part A of an iteration: threshold test and join.
    fn part_a(&mut self, ports: &[WeightedPort], out: &mut Outbox<ProtocolMsg>) {
        if !self.in_s {
            let threshold = self.weight as f64 / (1.0 + self.cfg.epsilon);
            if self.x_sum(ports) >= threshold {
                self.in_s = true;
                self.dominated = true;
                self.announced = true; // Joined broadcast implies domination
                out.broadcast(ProtocolMsg::Joined);
            }
        }
    }

    /// Part B of an iteration: digest joins, announce fresh domination.
    fn part_b(
        &mut self,
        inbox: Inbox<'_, ProtocolMsg>,
        ports: &mut [WeightedPort],
        out: &mut Outbox<ProtocolMsg>,
    ) {
        let mut heard_join = false;
        for (port, &msg) in inbox {
            if msg == ProtocolMsg::Joined {
                ports[port].dominated = true;
                heard_join = true;
            }
        }
        if heard_join && !self.dominated {
            self.dominated = true;
        }
        if self.dominated && !self.announced {
            self.announced = true;
            out.broadcast(ProtocolMsg::Dominated);
        }
    }
}

impl NodeProgram for WeightedProgram {
    type Message = ProtocolMsg;
    type PortState = WeightedPort;
    type Output = NodeOutput;

    fn round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: Inbox<'_, ProtocolMsg>,
        ports: &mut [WeightedPort],
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
            _ => {
                if rd == 2 {
                    // Initialize packing values and the schedule.
                    let dp1 = (ctx.globals.max_degree + 1) as f64;
                    self.x = self.tau as f64 / dp1;
                    for (port, &msg) in inbox {
                        if let ProtocolMsg::Tau(t) = msg {
                            ports[port].x = t as f64 / dp1;
                        }
                    }
                    let pcfg = PartialConfig::new(self.cfg.epsilon, self.cfg.lambda())
                        .expect("validated at run_weighted entry");
                    self.r = pcfg.iterations(ctx.globals.max_degree);
                }
                let completion_round = 2 + 2 * self.r;
                if rd < completion_round {
                    let i = (rd - 2) / 2;
                    if (rd - 2) % 2 == 0 {
                        // Part A of iteration i: first digest last
                        // iteration's Dominated events and apply the raise.
                        if i > 0 {
                            Self::apply_dominated_events(inbox, ports);
                            self.raise_undominated(ports);
                        }
                        self.part_a(ports, out);
                    } else {
                        self.part_b(inbox, ports, out);
                    }
                    false
                } else if rd == completion_round {
                    // Final bookkeeping of iteration r−1, then elections.
                    if self.r > 0 {
                        Self::apply_dominated_events(inbox, ports);
                        self.raise_undominated(ports);
                    }
                    if !self.dominated {
                        match self.cheapest_dominator(ctx, ports) {
                            None => self.in_s_prime = true,
                            Some(port) => out.send(port, ProtocolMsg::Elect),
                        }
                    }
                    false
                } else {
                    // completion_round + 1: receive elections, halt.
                    if inbox.iter().any(|(_, &m)| m == ProtocolMsg::Elect) {
                        self.in_s_prime = true;
                    }
                    true
                }
            }
        }
    }

    fn output(&self) -> NodeOutput {
        NodeOutput {
            in_ds: self.in_s || self.in_s_prime,
            x: self.x,
        }
    }
}

/// Runs Theorem 1.1 as a real message-passing computation and assembles the
/// global result plus the exact CONGEST telemetry.
///
/// The rounds run on `threads` worker threads through [`run_parallel`];
/// `0` and `1` both run them inline on the calling thread. Outputs and
/// telemetry are bit-identical at any thread count.
///
/// # Example
///
/// ```
/// use arbodom_congest::{MeterMode, RunOptions};
/// use arbodom_core::distributed::run_weighted;
/// use arbodom_core::weighted;
/// use arbodom_graph::generators;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let g = generators::forest_union(200, 2, &mut rng);
/// let cfg = weighted::Config::new(2, 0.2)?;
/// let opts = RunOptions {
///     meter: MeterMode::Strict,
///     ..RunOptions::default()
/// };
/// let (sol, telemetry) = run_weighted(&g, &cfg, 7, &opts, 2)?;
/// assert!(telemetry.rounds > 0);
/// assert_eq!(sol.in_ds.len(), g.n());
/// # Ok::<(), arbodom_core::CoreError>(())
/// ```
///
/// # Errors
///
/// Propagates configuration validation and simulation errors.
pub fn run_weighted(
    g: &Graph,
    cfg: &Config,
    seed: u64,
    opts: &RunOptions,
    threads: usize,
) -> Result<(DsResult, Telemetry)> {
    // Validate before constructing node programs.
    PartialConfig::new(cfg.epsilon, cfg.lambda())?;
    let globals = Globals::new(g, seed).with_arboricity(cfg.alpha);
    let make = |v: NodeId, g: &Graph| WeightedProgram::new(*cfg, g.degree(v));
    let run_out = run_parallel(g, &globals, make, opts, threads)?;
    let in_ds: Vec<bool> = run_out.outputs.iter().map(|o| o.in_ds).collect();
    let x: Vec<f64> = run_out.outputs.iter().map(|o| o.x).collect();
    let iterations = PartialConfig::new(cfg.epsilon, cfg.lambda())?.iterations(g.max_degree()) + 1;
    Ok((
        DsResult::from_flags(g, in_ds, iterations, Some(PackingCertificate::new(x))),
        run_out.telemetry,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, weighted};
    use arbodom_congest::MeterMode;
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
    fn matches_centralized_exactly() {
        let mut rng = StdRng::seed_from_u64(151);
        for alpha in [1usize, 2, 4] {
            for model in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 50 }] {
                let g = generators::forest_union(150, alpha, &mut rng);
                let g = model.assign(&g, &mut rng);
                let cfg = Config::new(alpha, 0.3).unwrap();
                let central = weighted::solve(&g, &cfg).unwrap();
                let (dist, telemetry) = run_weighted(&g, &cfg, 0, &strict(), 1).unwrap();
                assert_eq!(central.in_ds, dist.in_ds, "α={alpha} {model:?}");
                let cx = central.certificate.as_ref().unwrap().values();
                let dx = dist.certificate.as_ref().unwrap().values();
                assert_eq!(cx, dx, "packing values must be bit-identical");
                assert!(telemetry.is_congest_compliant());
            }
        }
    }

    #[test]
    fn round_count_matches_schedule() {
        let mut rng = StdRng::seed_from_u64(152);
        let g = generators::forest_union(100, 2, &mut rng);
        let cfg = Config::new(2, 0.3).unwrap();
        let r = PartialConfig::new(cfg.epsilon, cfg.lambda())
            .unwrap()
            .iterations(g.max_degree());
        let (_, telemetry) = run_weighted(&g, &cfg, 0, &strict(), 1).unwrap();
        assert_eq!(telemetry.rounds, 2 + 2 * r + 2);
    }

    #[test]
    fn steady_state_messages_are_tiny() {
        let mut rng = StdRng::seed_from_u64(153);
        let g = generators::forest_union(200, 3, &mut rng);
        let g = WeightModel::Uniform { lo: 1, hi: 1000 }.assign(&g, &mut rng);
        let cfg = Config::new(3, 0.2).unwrap();
        let (_, telemetry) = run_weighted(&g, &cfg, 0, &strict(), 1).unwrap();
        // The largest message is a setup Weight/Tau; events are 8 bits.
        assert!(telemetry.max_message_bits <= 8 + 8 * 10);
        assert!(telemetry.is_congest_compliant());
    }

    #[test]
    fn result_is_dominating_on_varied_graphs() {
        let mut rng = StdRng::seed_from_u64(154);
        let graphs = vec![
            generators::path(40),
            generators::star(60),
            generators::cycle(30),
            generators::grid2d(8, 9, false),
            generators::gnp(80, 0.08, &mut rng),
        ];
        for g in graphs {
            let cfg = Config::new(2, 0.4).unwrap();
            let (sol, _) = run_weighted(&g, &cfg, 1, &strict(), 1).unwrap();
            assert!(verify::is_dominating_set(&g, &sol.in_ds));
        }
    }

    #[test]
    fn isolated_nodes_self_elect() {
        let g = arbodom_graph::Graph::from_edges(4, [(0, 1)]).unwrap();
        let cfg = Config::new(1, 0.5).unwrap();
        let (sol, _) = run_weighted(&g, &cfg, 0, &strict(), 1).unwrap();
        assert!(verify::is_dominating_set(&g, &sol.in_ds));
        assert!(sol.in_ds[2] && sol.in_ds[3]);
    }
}
