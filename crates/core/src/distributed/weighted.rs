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
//! compliance with room to spare.

use arbodom_congest::{
    run_parallel, Globals, Inbox, NodeCtx, NodeProgram, Outgoing, RunOptions, Step, Telemetry,
};
use arbodom_graph::{Graph, NodeId};

use super::msg::ProtocolMsg;
use super::RunConfig;
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
    // ---- per-port mirrors ----
    nbr_weight: Vec<u64>,
    nbr_x: Vec<f64>,
    nbr_dominated: Vec<bool>,
    // ---- schedule ----
    r: usize,
}

impl WeightedProgram {
    /// Creates the program for a node of the given degree.
    pub fn new(cfg: Config, degree: usize) -> Self {
        WeightedProgram {
            cfg,
            weight: 0,
            tau: 0,
            x: 0.0,
            in_s: false,
            in_s_prime: false,
            dominated: false,
            announced: false,
            nbr_weight: vec![0; degree],
            nbr_x: vec![0.0; degree],
            nbr_dominated: vec![false; degree],
            r: 0,
        }
    }

    /// `X_u` in the same summation order as the centralized solver
    /// (self first, then ports ascending).
    fn x_sum(&self) -> f64 {
        let mut sum = self.x;
        for &xv in &self.nbr_x {
            sum += xv;
        }
        sum
    }

    /// The `(weight, id)`-minimal member of the closed neighborhood; `None`
    /// means "self".
    fn cheapest_dominator(&self, ctx: &NodeCtx<'_>) -> Option<usize> {
        let mut best: (u64, NodeId) = (self.weight, ctx.id);
        let mut best_port = None;
        for (p, &u) in ctx.neighbors.iter().enumerate() {
            let cand = (self.nbr_weight[p], u);
            if cand < best {
                best = cand;
                best_port = Some(p);
            }
        }
        best_port
    }

    fn apply_dominated_events(&mut self, inbox: Inbox<'_, ProtocolMsg>) {
        for (port, &msg) in inbox {
            match msg {
                ProtocolMsg::Dominated | ProtocolMsg::Joined => {
                    self.nbr_dominated[port] = true;
                }
                _ => {}
            }
        }
    }

    /// End-of-iteration bookkeeping: raise every still-undominated packing
    /// value (own and mirrored) by `(1+ε)` — the same multiplication the
    /// owner performs, so mirrors stay bit-exact.
    fn raise_undominated(&mut self) {
        let f = 1.0 + self.cfg.epsilon;
        if !self.dominated {
            self.x *= f;
        }
        for p in 0..self.nbr_x.len() {
            if !self.nbr_dominated[p] {
                self.nbr_x[p] *= f;
            }
        }
    }

    /// Part A of an iteration: threshold test and join.
    fn part_a(&mut self) -> Vec<Outgoing<ProtocolMsg>> {
        if !self.in_s {
            let threshold = self.weight as f64 / (1.0 + self.cfg.epsilon);
            if self.x_sum() >= threshold {
                self.in_s = true;
                self.dominated = true;
                self.announced = true; // Joined broadcast implies domination
                return vec![Outgoing::broadcast(ProtocolMsg::Joined)];
            }
        }
        Vec::new()
    }

    /// Part B of an iteration: digest joins, announce fresh domination.
    fn part_b(&mut self, inbox: Inbox<'_, ProtocolMsg>) -> Vec<Outgoing<ProtocolMsg>> {
        let mut heard_join = false;
        for (port, &msg) in inbox {
            if msg == ProtocolMsg::Joined {
                self.nbr_dominated[port] = true;
                heard_join = true;
            }
        }
        if heard_join && !self.dominated {
            self.dominated = true;
        }
        if self.dominated && !self.announced {
            self.announced = true;
            return vec![Outgoing::broadcast(ProtocolMsg::Dominated)];
        }
        Vec::new()
    }
}

impl NodeProgram for WeightedProgram {
    type Message = ProtocolMsg;
    type Output = NodeOutput;

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: Inbox<'_, ProtocolMsg>) -> Step<ProtocolMsg> {
        let rd = ctx.round;
        match rd {
            0 => {
                self.weight = ctx.weight;
                Step::continue_with(vec![Outgoing::broadcast(ProtocolMsg::Weight(self.weight))])
            }
            1 => {
                for (port, &msg) in inbox {
                    if let ProtocolMsg::Weight(w) = msg {
                        self.nbr_weight[port] = w;
                    }
                }
                self.tau = self
                    .nbr_weight
                    .iter()
                    .copied()
                    .chain(std::iter::once(self.weight))
                    .min()
                    .expect("nonempty");
                Step::continue_with(vec![Outgoing::broadcast(ProtocolMsg::Tau(self.tau))])
            }
            _ => {
                if rd == 2 {
                    // Initialize packing values and the schedule.
                    let dp1 = (ctx.globals.max_degree + 1) as f64;
                    self.x = self.tau as f64 / dp1;
                    for (port, &msg) in inbox {
                        if let ProtocolMsg::Tau(t) = msg {
                            self.nbr_x[port] = t as f64 / dp1;
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
                            self.apply_dominated_events(inbox);
                            self.raise_undominated();
                        }
                        Step::continue_with(self.part_a())
                    } else {
                        Step::continue_with(self.part_b(inbox))
                    }
                } else if rd == completion_round {
                    // Final bookkeeping of iteration r−1, then elections.
                    if self.r > 0 {
                        self.apply_dominated_events(inbox);
                        self.raise_undominated();
                    }
                    if self.dominated {
                        return Step::idle();
                    }
                    match self.cheapest_dominator(ctx) {
                        None => {
                            self.in_s_prime = true;
                            Step::idle()
                        }
                        Some(port) => {
                            Step::continue_with(vec![Outgoing::to_port(port, ProtocolMsg::Elect)])
                        }
                    }
                } else {
                    // completion_round + 1: receive elections, halt.
                    if inbox.iter().any(|(_, &m)| m == ProtocolMsg::Elect) {
                        self.in_s_prime = true;
                    }
                    Step::halt()
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
/// # Errors
///
/// Propagates configuration validation and simulation errors.
pub fn run_weighted(
    g: &Graph,
    cfg: &Config,
    seed: u64,
    opts: &RunOptions,
) -> Result<(DsResult, Telemetry)> {
    run_weighted_with(g, cfg, seed, &RunConfig::from_options(opts))
}

/// Like [`run_weighted`], driven by a [`RunConfig`]: executed on
/// [`RunConfig::thread_count`] worker threads through [`run_parallel`]
/// (one thread falls back to the sequential [`arbodom_congest::run`]).
/// Outputs and telemetry are bit-identical at any thread count.
///
/// # Errors
///
/// Propagates configuration validation and simulation errors.
pub fn run_weighted_with(
    g: &Graph,
    cfg: &Config,
    seed: u64,
    run_cfg: &RunConfig,
) -> Result<(DsResult, Telemetry)> {
    let (opts, threads) = (run_cfg.options(), run_cfg.thread_count());
    // Validate before constructing node programs.
    PartialConfig::new(cfg.epsilon, cfg.lambda())?;
    let globals = Globals::new(g, seed).with_arboricity(cfg.alpha);
    let make = |v: NodeId, g: &Graph| WeightedProgram::new(*cfg, g.degree(v));
    // `run_parallel` itself falls back to the sequential runner for
    // `threads <= 1` or tiny graphs, so one call covers every case.
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
                let (dist, telemetry) = run_weighted(&g, &cfg, 0, &strict()).unwrap();
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
        let (_, telemetry) = run_weighted(&g, &cfg, 0, &strict()).unwrap();
        assert_eq!(telemetry.rounds, 2 + 2 * r + 2);
    }

    #[test]
    fn steady_state_messages_are_tiny() {
        let mut rng = StdRng::seed_from_u64(153);
        let g = generators::forest_union(200, 3, &mut rng);
        let g = WeightModel::Uniform { lo: 1, hi: 1000 }.assign(&g, &mut rng);
        let cfg = Config::new(3, 0.2).unwrap();
        let (_, telemetry) = run_weighted(&g, &cfg, 0, &strict()).unwrap();
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
            let (sol, _) = run_weighted(&g, &cfg, 1, &strict()).unwrap();
            assert!(verify::is_dominating_set(&g, &sol.in_ds));
        }
    }

    #[test]
    fn isolated_nodes_self_elect() {
        let g = arbodom_graph::Graph::from_edges(4, [(0, 1)]).unwrap();
        let cfg = Config::new(1, 0.5).unwrap();
        let (sol, _) = run_weighted(&g, &cfg, 0, &strict()).unwrap();
        assert!(verify::is_dominating_set(&g, &sol.in_ds));
        assert!(sol.in_ds[2] && sol.in_ds[3]);
    }
}
