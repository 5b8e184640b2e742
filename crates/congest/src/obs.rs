//! Simulator-side observability: the pre-resolved metric handles the
//! round loop records into when [`crate::RunOptions::obs`] is set.
//!
//! Everything here is a **side channel**: enabling it never changes what
//! a run computes — outputs, telemetry, and RNG draws are bit-identical
//! with observability on or off (pinned by the differential proptests in
//! `tests/sim_differential.rs`) — and leaving it off (the default) costs
//! one branch per hook, no clocks, no allocations.
//!
//! Durations are nanoseconds; one histogram observation is one shard
//! phase, one worker round, one whole round, or one run's set-up or
//! tear-down, as each metric's name says. A run's set-up, its rounds and
//! its tear-down are disjoint intervals inside the runner call, so
//! `sim_setup_nanos + Σ sim_round_nanos + sim_teardown_nanos` is at most
//! the call's wall time, and the gap is the round loop's own
//! bookkeeping. The message-size histogram sees one entry per *delivered*
//! message (a broadcast fans one encoding out to `d` entries of the same
//! size) and is only populated in [`crate::MeterMode::Measure`] and
//! [`crate::MeterMode::Strict`] — with metering off the sizes are never
//! computed.

use arbodom_obs::{Counter, Histogram, Registry};

/// Nanoseconds one run spent before round 0: building the node programs,
/// the per-port state, the reverse-port table and the round buffers. One
/// observation per run, inline or on a pool.
pub const SIM_SETUP_NANOS: &str = "sim_setup_nanos";
/// Wall-clock nanoseconds of one executed round, inline or on a pool.
pub const SIM_ROUND_NANOS: &str = "sim_round_nanos";
/// Nanoseconds one run spent after its last round: assembling the outputs
/// and dropping the run's state. One observation per run, inline or on a
/// pool.
pub const SIM_TEARDOWN_NANOS: &str = "sim_teardown_nanos";
/// Nanoseconds one shard spent rebuilding its inbox arena (the deliver
/// phase): one entry per shard per round, so one per round when a single
/// worker runs one whole-graph shard.
pub const SIM_DELIVER_NANOS: &str = "sim_deliver_nanos";
/// Nanoseconds one shard spent stepping its node programs (the compute
/// phase): one entry per shard per round, so one per round when a single
/// worker runs one whole-graph shard.
pub const SIM_COMPUTE_NANOS: &str = "sim_compute_nanos";
/// Nanoseconds between a round's broadcast and a worker picking the
/// epoch up: pool wake-up latency, one entry per worker per round. Runs
/// made inline on the calling thread record none.
pub const SIM_POOL_DISPATCH_NANOS: &str = "sim_pool_dispatch_nanos";
/// Nanoseconds one pool worker spent doing shard work in one round (one
/// entry per worker per round; none for inline runs).
pub const SIM_WORKER_BUSY_NANOS: &str = "sim_worker_busy_nanos";
/// Nanoseconds one pool worker spent neither dispatching nor busy in one
/// round — dominated by the epoch-barrier wait for slower workers (one
/// entry per worker per round; none for inline runs).
pub const SIM_POOL_BARRIER_NANOS: &str = "sim_pool_barrier_nanos";
/// Size in bits of each delivered message (Measure/Strict metering only).
pub const SIM_MESSAGE_BITS: &str = "sim_message_bits";
/// Rounds executed across all observed runs.
pub const SIM_ROUNDS_TOTAL: &str = "sim_rounds_total";
/// Messages delivered across all observed runs.
pub const SIM_MESSAGES_TOTAL: &str = "sim_messages_total";

/// Pre-resolved simulator metric handles, cheap to clone (each handle is
/// an `Arc`). Build one per [`Registry`] and put it in
/// [`crate::RunOptions::obs`]; every run sharing the handles accumulates
/// into the same registry.
#[derive(Clone, Debug)]
pub struct SimObs {
    pub(crate) setup: Histogram,
    pub(crate) round_wall: Histogram,
    pub(crate) teardown: Histogram,
    pub(crate) deliver: Histogram,
    pub(crate) compute: Histogram,
    pub(crate) dispatch: Histogram,
    pub(crate) busy: Histogram,
    pub(crate) barrier: Histogram,
    pub(crate) message_bits: Histogram,
    pub(crate) rounds: Counter,
    pub(crate) messages: Counter,
}

impl SimObs {
    /// Resolves (registering on first use) the simulator metrics in
    /// `registry`.
    pub fn new(registry: &Registry) -> Self {
        SimObs {
            setup: registry.histogram(SIM_SETUP_NANOS),
            round_wall: registry.histogram(SIM_ROUND_NANOS),
            teardown: registry.histogram(SIM_TEARDOWN_NANOS),
            deliver: registry.histogram(SIM_DELIVER_NANOS),
            compute: registry.histogram(SIM_COMPUTE_NANOS),
            dispatch: registry.histogram(SIM_POOL_DISPATCH_NANOS),
            busy: registry.histogram(SIM_WORKER_BUSY_NANOS),
            barrier: registry.histogram(SIM_POOL_BARRIER_NANOS),
            message_bits: registry.histogram(SIM_MESSAGE_BITS),
            rounds: registry.counter(SIM_ROUNDS_TOTAL),
            messages: registry.counter(SIM_MESSAGES_TOTAL),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_obs_registers_every_metric() {
        let registry = Registry::new();
        let obs = SimObs::new(&registry);
        let names: Vec<String> = registry.names().into_iter().map(|(n, _)| n).collect();
        for expected in [
            SIM_SETUP_NANOS,
            SIM_ROUND_NANOS,
            SIM_TEARDOWN_NANOS,
            SIM_DELIVER_NANOS,
            SIM_COMPUTE_NANOS,
            SIM_POOL_DISPATCH_NANOS,
            SIM_WORKER_BUSY_NANOS,
            SIM_POOL_BARRIER_NANOS,
            SIM_MESSAGE_BITS,
            SIM_ROUNDS_TOTAL,
            SIM_MESSAGES_TOTAL,
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
        // Handles share storage with the registry.
        obs.rounds.inc();
        assert_eq!(registry.counter(SIM_ROUNDS_TOTAL).get(), 1);
    }
}
