//! Node programs used as benchmark workloads by the `BENCH_sim.json`
//! throughput trajectory.

use arbodom_congest::{Inbox, NodeCtx, NodeProgram, Outgoing, Step};

/// Pure simulator throughput: every node broadcasts a `u64` for a fixed
/// number of rounds and sums what it hears. No algorithm compute, so the
/// wall clock measures the delivery/metering core itself.
pub struct Flood {
    /// Sum of all received payloads (the per-node output).
    pub seen: u64,
    /// Broadcast rounds remaining.
    pub rounds_left: u32,
}

impl Flood {
    /// A flood program broadcasting for `rounds` rounds.
    pub fn new(rounds: u32) -> Self {
        Flood {
            seen: 0,
            rounds_left: rounds,
        }
    }
}

impl NodeProgram for Flood {
    type Message = u64;
    type PortState = ();
    type Output = u64;

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: Inbox<'_, u64>, _ports: &mut [()]) -> Step<u64> {
        self.seen += inbox.iter().map(|(_, &m)| m).sum::<u64>();
        if self.rounds_left == 0 {
            return Step::halt();
        }
        self.rounds_left -= 1;
        Step::continue_with(vec![Outgoing::broadcast(u64::from(ctx.id.get()))])
    }

    fn output(&self) -> u64 {
        self.seen
    }
}
