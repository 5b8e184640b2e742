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
//! bit-identical dominating sets, packing values and iteration counts.
//! The setup rounds, the digest, the raise, the join test, the announce
//! and the elections are the primal-dual core's (`primal_dual`); this
//! program keeps only the three-sub-round schedule and the stabilization
//! test. Its per-neighbor mirrors are the core's [`NodeProgram::PortState`],
//! so the program itself allocates nothing: a mirror holds the neighbor's
//! `τ` in its `x` until the neighbor's normalizer arrives in round 4.
//!
//! Termination by local stabilization needs every event delivered: one
//! lost `Joined` or `Dominated` leaves its receiver waiting until the
//! round limit. So [`run_unknown_delta`] refuses a lossy
//! [`RunOptions::loss`] model up front.

use arbodom_congest::{Globals, Inbox, NodeCtx, NodeProgram, Outbox, RunOptions, Telemetry};
use arbodom_graph::{Graph, NodeId};

use super::msg::ProtocolMsg;
use super::primal_dual::{run_primal_dual, Node, NodeOutput, Port};
use crate::unknown_delta::Config;
use crate::{CoreError, DsResult, Result};

/// The Remark 4.4 node program.
#[derive(Debug)]
pub struct UnknownDeltaProgram {
    cfg: Config,
    node: Node,
}

impl UnknownDeltaProgram {
    /// Creates the program for a node of the given degree. Construction
    /// allocates nothing: the per-neighbor mirrors are run state the
    /// simulator sizes, so `_degree` is unused.
    pub fn new(cfg: Config, _degree: usize) -> Self {
        UnknownDeltaProgram {
            cfg,
            node: Node::default(),
        }
    }

    /// Whether the node and its whole neighborhood are dominated.
    fn stabilized(&self, ports: &[Port]) -> bool {
        self.node.dominated && ports.iter().all(|port| port.dominated)
    }
}

impl NodeProgram for UnknownDeltaProgram {
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
        match rd {
            0 | 1 => {
                self.node.setup(ctx, inbox, ports, out);
                false
            }
            2 => {
                // Every `x` holds its `τ` until the normalizers are known.
                // Exchange closed-neighborhood sizes so every node can form
                // the local normalizer max_{u∈N⁺(v)} |N⁺(u)| — Remark 4.4's
                // replacement for Δ+1.
                self.node.init_packing(inbox, ports, 1.0);
                out.broadcast(ProtocolMsg::Degree(ctx.degree() as u64 + 1));
                false
            }
            3 => {
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
                self.node.x /= max_closed as f64;
                // Mirrors need neighbors' normalizers too; they are a
                // function of *their* neighborhoods, which we cannot see.
                // Send our normalizer so mirrors can initialize.
                out.broadcast(ProtocolMsg::Weight(max_closed));
                false
            }
            _ => {
                if rd == 4 {
                    for (port, &msg) in inbox {
                        if let ProtocolMsg::Weight(m) = msg {
                            ports[port].x /= m as f64;
                        }
                    }
                    // Fall through into sub-round A of iteration 0 below.
                }
                let one_plus_eps = 1.0 + self.cfg.epsilon;
                match (rd - 4) % 3 {
                    0 => {
                        // ---- sub-round A ----
                        if rd > 4 {
                            // Finish the previous iteration.
                            self.node.digest(inbox, ports);
                            self.node.raise(ports, one_plus_eps);
                            if self.stabilized(ports) {
                                return true;
                            }
                        }
                        // Election (start-of-iteration snapshot); a node
                        // that elects itself announces its membership.
                        if self.node.x > self.cfg.lambda() * self.node.tau as f64
                            && self.node.elect(ctx, ports, out)
                        {
                            self.node.join(out);
                        }
                        // Join (start-of-iteration snapshot; only useful
                        // joins — see the centralized solver's comment).
                        if !self.node.in_s_prime
                            && !self.stabilized(ports)
                            && self.node.crosses_threshold(ports, one_plus_eps)
                        {
                            self.node.in_s = true;
                            self.node.join(out);
                        }
                    }
                    1 => {
                        // ---- sub-round B ----
                        self.node.digest(inbox, ports);
                        let member = self.node.in_s || self.node.in_s_prime;
                        if self.node.accept_election(inbox) && !member {
                            // Announce membership — even if a plain
                            // `Dominated` was sent before, the elector
                            // needs to learn it is now dominated.
                            self.node.join(out);
                        }
                    }
                    _ => {
                        // ---- sub-round C ----
                        self.node.announce(inbox, ports, out);
                    }
                }
                false
            }
        }
    }

    fn output(&self) -> NodeOutput {
        self.node.output(self.node.x)
    }
}

/// Runs Remark 4.4 as a real message-passing computation.
///
/// The rounds run on `threads` worker threads through
/// [`run_parallel`](arbodom_congest::run_parallel); `0` and `1` both run
/// them inline on the calling thread. Outputs and telemetry are
/// bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for a [`RunOptions::loss`]
/// model that drops messages: the program halts by local stabilization,
/// which a lost event would postpone until `max_rounds`. Propagates
/// simulation errors.
pub fn run_unknown_delta(
    g: &Graph,
    cfg: &Config,
    seed: u64,
    opts: &RunOptions,
    threads: usize,
) -> Result<(DsResult, Telemetry)> {
    if opts.loss.is_some_and(|loss| loss.drop_probability > 0.0) {
        return Err(CoreError::param(
            "loss",
            "Remark 4.4 halts by local stabilization, which a dropped message prevents",
        ));
    }
    let globals = Globals::new(g, seed).with_arboricity(cfg.alpha);
    let make = |v: NodeId, g: &Graph| UnknownDeltaProgram::new(*cfg, g.degree(v));
    let (mut sol, telemetry) = run_primal_dual(g, &globals, make, opts, threads, 0)?;
    // Nodes halt only in sub-round A (round 4 + 3i) of an iteration i ≥ 1,
    // so the last one to stabilize did so at iteration (rounds − 5) / 3.
    sol.iterations = telemetry.rounds.saturating_sub(5) / 3;
    Ok((sol, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{unknown_delta, verify};
    use arbodom_congest::{run, LossModel, MeterMode};
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

    #[test]
    fn a_lossy_model_is_refused_and_a_zero_drop_rate_is_lossless() {
        let mut rng = StdRng::seed_from_u64(185);
        let g = generators::forest_union(120, 2, &mut rng);
        let cfg = Config::new(2, 0.25).unwrap();
        let with_loss = |drop_probability| RunOptions {
            loss: Some(LossModel {
                drop_probability,
                seed: 3,
            }),
            ..strict()
        };
        for p in [1e-9, 0.2, 1.0] {
            let err = run_unknown_delta(&g, &cfg, 0, &with_loss(p), 1).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidParameter { name: "loss", .. }),
                "p={p}: {err}"
            );
        }
        let (lossless, t_lossless) = run_unknown_delta(&g, &cfg, 0, &strict(), 1).unwrap();
        let (zero, t_zero) = run_unknown_delta(&g, &cfg, 0, &with_loss(0.0), 1).unwrap();
        assert_eq!(lossless.in_ds, zero.in_ds);
        assert_eq!(
            lossless.certificate.unwrap().values(),
            zero.certificate.unwrap().values()
        );
        assert_eq!(lossless.iterations, zero.iterations);
        assert_eq!(t_lossless, t_zero);
    }
}
