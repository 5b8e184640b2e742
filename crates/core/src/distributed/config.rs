//! Unified run configuration for the distributed entry points.
//!
//! [`RunConfig`] folds the execution knobs (worker threads, meter mode,
//! round limit, shard size, loss injection, round tracking) into one
//! builder instead of a growing list of positional parameters. The
//! `run_*_with` functions are the canonical entry points; each `run_*`
//! function is a shorthand for `run_*_with` on
//! [`RunConfig::from_options`].
//!
//! Every knob is execution-only: outputs and telemetry are bit-identical
//! for any `threads`/`shard_size` choice, so a `RunConfig` never changes
//! *what* is computed, only how it is driven.
//!
//! # Example
//!
//! ```
//! use arbodom_congest::MeterMode;
//! use arbodom_core::distributed::{run_weighted_with, RunConfig};
//! use arbodom_core::weighted;
//! use arbodom_graph::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let g = generators::forest_union(200, 2, &mut rng);
//! let cfg = weighted::Config::new(2, 0.2)?;
//! let run = RunConfig::new().threads(2).meter(MeterMode::Strict);
//! let (sol, telemetry) = run_weighted_with(&g, &cfg, 7, &run)?;
//! assert!(telemetry.rounds > 0);
//! assert_eq!(sol.in_ds.len(), g.n());
//! # Ok::<(), arbodom_core::CoreError>(())
//! ```

use arbodom_congest::{LossModel, MeterMode, RunOptions};

/// Execution configuration for the `run_*_with` entry points: worker
/// threads plus the simulator's [`RunOptions`], assembled through a
/// builder.
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    threads: usize,
    opts: RunOptions,
}

impl RunConfig {
    /// The default configuration: sequential execution, measured
    /// metering, default round limit, no fault injection.
    pub fn new() -> Self {
        RunConfig::default()
    }

    /// Wraps existing simulator options (bridge for call sites that
    /// already hold a [`RunOptions`]).
    pub fn from_options(opts: &RunOptions) -> Self {
        RunConfig {
            threads: 0,
            opts: opts.clone(),
        }
    }

    /// Number of worker threads. `0` or `1` selects the sequential
    /// runner; results are bit-identical either way.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Metering behavior for the CONGEST bit budget.
    pub fn meter(mut self, meter: MeterMode) -> Self {
        self.opts.meter = meter;
        self
    }

    /// Hard limit on executed rounds.
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.opts.max_rounds = max_rounds;
        self
    }

    /// Record per-round statistics (costs memory proportional to rounds).
    pub fn track_rounds(mut self, track: bool) -> Self {
        self.opts.track_rounds = track;
        self
    }

    /// Message-loss fault injection (`None` disables it).
    pub fn loss(mut self, loss: Option<LossModel>) -> Self {
        self.opts.loss = loss;
        self
    }

    /// Nodes per shard for the parallel runner (`None` auto-sizes).
    pub fn shard_size(mut self, shard_size: Option<usize>) -> Self {
        self.opts.shard_size = shard_size;
        self
    }

    /// The simulator options this configuration resolves to.
    pub fn options(&self) -> &RunOptions {
        &self.opts
    }

    /// The effective worker-thread count (at least 1).
    pub fn thread_count(&self) -> usize {
        self.threads.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_knob() {
        let run = RunConfig::new()
            .threads(4)
            .meter(MeterMode::Off)
            .max_rounds(123)
            .track_rounds(true)
            .shard_size(Some(64))
            .loss(Some(LossModel {
                drop_probability: 0.5,
                seed: 9,
            }));
        assert_eq!(run.thread_count(), 4);
        assert_eq!(run.options().meter, MeterMode::Off);
        assert_eq!(run.options().max_rounds, 123);
        assert!(run.options().track_rounds);
        assert_eq!(run.options().shard_size, Some(64));
        assert_eq!(run.options().loss.as_ref().unwrap().seed, 9);
    }

    #[test]
    fn zero_threads_means_sequential() {
        assert_eq!(RunConfig::new().thread_count(), 1);
        assert_eq!(RunConfig::new().threads(0).thread_count(), 1);
    }

    #[test]
    fn from_options_preserves_fields() {
        let opts = RunOptions {
            max_rounds: 7,
            meter: MeterMode::Strict,
            ..RunOptions::default()
        };
        let run = RunConfig::from_options(&opts);
        assert_eq!(run.options().max_rounds, 7);
        assert_eq!(run.options().meter, MeterMode::Strict);
    }
}
