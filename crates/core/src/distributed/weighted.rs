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
//! compliance with room to spare. The setup, the iteration and the
//! completion are the primal-dual core's ([`super::primal_dual`]); this
//! program is only their schedule. The mirrors are its
//! [`NodeProgram::PortState`], so they live in the simulator's run-owned
//! port array and the program itself allocates nothing.

use arbodom_congest::{Globals, Inbox, NodeCtx, NodeProgram, Outbox, RunOptions, Telemetry};
use arbodom_graph::{Graph, NodeId};

use super::msg::ProtocolMsg;
use super::primal_dual::{run_primal_dual, Node, NodeOutput, Port};
use crate::partial::PartialConfig;
use crate::weighted::Config;
use crate::{DsResult, Result};

/// The Theorem 1.1 node program.
#[derive(Debug)]
pub struct WeightedProgram {
    cfg: Config,
    node: Node,
    /// Lemma 4.1's iteration count, computed at round 2.
    r: usize,
}

impl WeightedProgram {
    /// Creates the program for a node of the given degree. Construction
    /// allocates nothing: the per-neighbor mirrors are run state the
    /// simulator sizes, so `_degree` is unused.
    pub fn new(cfg: Config, _degree: usize) -> Self {
        WeightedProgram {
            cfg,
            node: Node::default(),
            r: 0,
        }
    }
}

impl NodeProgram for WeightedProgram {
    type Message = ProtocolMsg;
    type PortState = Port;
    type Output = NodeOutput;

    fn round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: Inbox<'_, ProtocolMsg>,
        ports: &mut [Port],
        out: &mut Outbox<ProtocolMsg>,
    ) -> bool {
        let rd = ctx.round;
        if rd < 2 {
            self.node.setup(ctx, inbox, ports, out);
            return false;
        }
        if rd == 2 {
            let dp1 = (ctx.globals.max_degree + 1) as f64;
            self.node.init_packing(inbox, ports, dp1);
            let pcfg = PartialConfig::new(self.cfg.epsilon, self.cfg.lambda())
                .expect("validated at run_weighted entry");
            self.r = pcfg.iterations(ctx.globals.max_degree);
        }
        let step = rd - 2;
        if step > 2 * self.r {
            // The round after the completion: elected nodes join S′.
            self.node.accept_election(inbox);
            return true;
        }
        let one_plus_eps = 1.0 + self.cfg.epsilon;
        self.node
            .lemma41(step, self.r, one_plus_eps, inbox, ports, out);
        if step == 2 * self.r {
            self.node.elect(ctx, ports, out);
        }
        false
    }

    fn output(&self) -> NodeOutput {
        self.node.output(self.node.x)
    }
}

/// Runs Theorem 1.1 as a real message-passing computation and assembles the
/// global result plus the exact CONGEST telemetry.
///
/// The rounds run on `threads` worker threads through
/// [`run_parallel`](arbodom_congest::run_parallel);
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
    let r = PartialConfig::new(cfg.epsilon, cfg.lambda())?.iterations(g.max_degree());
    let globals = Globals::new(g, seed).with_arboricity(cfg.alpha);
    let make = |v: NodeId, g: &Graph| WeightedProgram::new(*cfg, g.degree(v));
    run_primal_dual(g, &globals, make, opts, threads, r + 1)
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

    /// Serve-batch and solve-large run this program on every job: neither
    /// the program nor its per-port mirror may grow.
    #[test]
    fn program_and_port_stay_small() {
        assert!(std::mem::size_of::<WeightedProgram>() <= 56);
        assert!(std::mem::size_of::<Port>() <= 24);
    }
}
