//! CONGEST node program for Observation A.1 (one-round tree 3-approx).
//!
//! One communication round: every node broadcasts its degree; each node
//! then decides membership locally — non-leaves join, isolated nodes join,
//! and in a `K₂` component the smaller id joins (see [`crate::trees`] for
//! why the boundary cases matter).

use arbodom_congest::{run, Globals, Inbox, NodeCtx, NodeProgram, Outbox, RunOptions, Telemetry};
use arbodom_graph::Graph;

use super::msg::ProtocolMsg;
use crate::{DsResult, Result};

/// The Observation A.1 node program.
#[derive(Debug, Default)]
pub struct TreeProgram {
    in_ds: bool,
}

impl NodeProgram for TreeProgram {
    type Message = ProtocolMsg;
    type PortState = ();
    type Output = bool;

    fn round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: Inbox<'_, ProtocolMsg>,
        _ports: &mut [()],
        out: &mut Outbox<ProtocolMsg>,
    ) -> bool {
        match ctx.round {
            0 => {
                let deg = ctx.degree() as u64;
                if deg == 0 {
                    self.in_ds = true;
                    return true;
                }
                if deg >= 2 {
                    self.in_ds = true;
                }
                // Leaves still need their neighbor's degree for the K₂ rule;
                // non-leaves broadcast so those leaves can decide.
                out.broadcast(ProtocolMsg::Degree(deg));
                false
            }
            _ => {
                if ctx.degree() == 1 && !self.in_ds {
                    let nbr_deg = inbox
                        .iter()
                        .find_map(|(_, &m)| match m {
                            ProtocolMsg::Degree(d) => Some(d),
                            _ => None,
                        })
                        .expect("the unique neighbor always reports");
                    let nbr = ctx.neighbors[0];
                    self.in_ds = nbr_deg == 1 && ctx.id < nbr;
                }
                true
            }
        }
    }

    fn output(&self) -> bool {
        self.in_ds
    }
}

/// Runs Observation A.1 as a real message-passing computation, inline on
/// the calling thread: the program is one communication round.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_trees(g: &Graph, opts: &RunOptions) -> Result<(DsResult, Telemetry)> {
    let globals = Globals::new(g, 0).with_arboricity(1);
    let make = |_, _: &Graph| TreeProgram::default();
    let run_out = run(g, &globals, make, opts)?;
    Ok((
        DsResult::from_flags(g, run_out.outputs, 1, None),
        run_out.telemetry,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trees, verify};
    use arbodom_congest::MeterMode;
    use arbodom_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn strict() -> RunOptions {
        RunOptions {
            meter: MeterMode::Strict,
            ..RunOptions::default()
        }
    }

    #[test]
    fn matches_centralized_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(171);
        for n in [2usize, 3, 50, 500] {
            let g = generators::random_tree(n, &mut rng);
            let central = trees::solve(&g).unwrap();
            let (dist, telemetry) = run_trees(&g, &strict()).unwrap();
            assert_eq!(central.in_ds, dist.in_ds, "n={n}");
            assert!(telemetry.rounds <= 2, "one communication round");
            assert!(telemetry.is_congest_compliant());
        }
    }

    #[test]
    fn forest_with_isolated_and_k2() {
        let g = arbodom_graph::Graph::from_edges(6, [(0, 1), (2, 3), (3, 4)]).unwrap();
        let (sol, _) = run_trees(&g, &strict()).unwrap();
        assert!(verify::is_dominating_set(&g, &sol.in_ds));
        assert_eq!(sol.in_ds, trees::solve(&g).unwrap().in_ds);
    }
}
