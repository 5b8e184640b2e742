//! Bit-faithful CONGEST implementations of the paper's algorithms.
//!
//! The centralized solvers in this crate simulate the algorithms round by
//! round but "teleport" state between neighbors. The node programs here
//! exchange *actual messages* through [`arbodom_congest`] — every bit is
//! encoded, metered against the CONGEST `O(log n)` budget, and delivered
//! with one round of latency.
//!
//! The message protocol is deliberately frugal, matching the paper's
//! `O(1)`-rounds-per-iteration claim:
//!
//! * two setup rounds exchange weights and `τ` values (`O(log n)` bits,
//!   once);
//! * each Lemma 4.1 / Lemma 4.6 iteration costs **two rounds of
//!   single-byte events** (`Joined`, `Dominated`): packing values are never
//!   transmitted — neighbors *mirror* each other's `x_v` exactly, because
//!   `x_v` is a deterministic function of `τ_v` and the public event
//!   history;
//! * the completion step costs two more rounds (`Elect`).
//!
//! Every program is tested to produce **identical output** (sets *and*
//! packing values) to its centralized counterpart; randomized programs
//! share their coin flips with the centralized solver through
//! [`arbodom_congest::det_rand`].
//!
//! Coverage: Theorem 1.1 ([`run_weighted`]), Theorem 1.2
//! ([`run_randomized`]), Theorem 1.3 ([`run_general`]), Observation A.1
//! ([`run_trees`]), and Remark 4.4 ([`run_unknown_delta`] — the
//! unknown-Δ variant, whose termination is by *local stabilization*
//! rather than a precomputed round count).

mod config;
mod msg;
mod randomized;
mod trees;
mod unknown_delta;
mod weighted;

pub use config::RunConfig;
pub use msg::ProtocolMsg;
pub use randomized::{
    run_general, run_general_with, run_randomized, run_randomized_with,
    NodeOutput as RandomizedNodeOutput, RandomizedProgram,
};
pub use trees::{run_trees, run_trees_with, TreeProgram};
pub use unknown_delta::{
    run_unknown_delta, run_unknown_delta_with, NodeOutput as UnknownDeltaNodeOutput,
    UnknownDeltaProgram,
};
pub use weighted::{
    run_weighted, run_weighted_with, NodeOutput as WeightedNodeOutput, WeightedProgram,
};
