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
//!
//! Each program has one entry point. It takes the graph, the algorithm's
//! config, a seed where the program has its own, the simulator's
//! [`RunOptions`](arbodom_congest::RunOptions) and a worker-thread count;
//! outputs and telemetry are bit-identical at any thread count.
//! [`run_trees`] takes no thread count: its one communication round runs
//! inline on the calling thread.

mod msg;
mod randomized;
mod trees;
mod unknown_delta;
mod weighted;

pub use msg::ProtocolMsg;
pub use randomized::{
    run_general, run_randomized, NodeOutput as RandomizedNodeOutput, RandomizedPort,
    RandomizedProgram,
};
pub use trees::{run_trees, TreeProgram};
pub use unknown_delta::{
    run_unknown_delta, NodeOutput as UnknownDeltaNodeOutput, UnknownDeltaPort, UnknownDeltaProgram,
};
pub use weighted::{run_weighted, NodeOutput as WeightedNodeOutput, WeightedPort, WeightedProgram};
