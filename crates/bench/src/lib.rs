//! Experiment harness regenerating every empirical claim of the paper.
//!
//! The paper is a theory paper: its "evaluation" is a set of theorems,
//! remarks, and one construction figure. Each module in [`experiments`]
//! regenerates the empirical counterpart of one of them — measured
//! approximation ratios against certified lower bounds, measured round
//! counts against the stated complexities — and prints a markdown table.
//! README "Experiments and benches" shows how to run them.
//!
//! Run one experiment:
//!
//! ```text
//! cargo run --release -p arbodom-bench --bin exp_thm11
//! ```
//!
//! or everything (prints every table in turn):
//!
//! ```text
//! cargo run --release -p arbodom-bench --bin exp_all
//! ```
//!
//! The end-to-end and per-layer wall-clock benchmark is the standalone
//! `arbobench/` package at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod ratchet;
pub mod report;
pub mod workloads;

/// Workload scale shared by all experiments: the scenario engine's, so
/// an experiment hands its scale to the matrix runner as is.
pub use arbodom_scenarios::Scale;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The workspace experiment RNG: every experiment draws its randomness
/// from a `StdRng` keyed by a per-experiment stream id, so runs are
/// reproducible and two experiments never share a stream. This is the one
/// place the choice of RNG lives — previously copy-pasted into every
/// module.
pub fn seeded_rng(stream: u64) -> StdRng {
    StdRng::seed_from_u64(stream)
}

/// Writes `json` to the workspace-root artifact `name` for real
/// invocations only: full-scale runs, or quick ones asked for with
/// `ARBODOM_QUICK=1` (CI uploads those). In-process quick calls, such as
/// the test harness's, write nothing, so they can neither litter the
/// tree nor clobber the committed full-scale numbers.
pub fn write_artifact(scale: Scale, name: &str, json: &str) {
    if scale == Scale::Full || Scale::from_env() == Scale::Quick {
        match arbodom_scenarios::write_workspace_artifact(name, json) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {name}: {e}"),
        }
    }
}

/// The shared `main` of every `exp_*` binary: read the scale from the
/// environment, run the experiment, print its tables. Keeps the binaries
/// at one line each instead of a copy of the same ritual in each.
pub fn experiment_main(run: fn(Scale) -> Vec<report::Table>) {
    let scale = Scale::from_env();
    for table in run(scale) {
        println!("{table}");
    }
}
