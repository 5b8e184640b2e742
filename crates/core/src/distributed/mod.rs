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
//! The four primal-dual programs share one core, as the centralized
//! solvers share [`crate::partial`] and [`crate::extend`]: one
//! per-neighbor mirror (weight, packing value, dominated flag), one node
//! state, and one implementation of the setup rounds, the Lemma 4.1
//! iteration, `X_v`, the cheapest closed dominator, the
//! `Joined`/`Dominated` digest, the raise of undominated values, the
//! `Dominated` announce, the `Elect` completion and the result assembly.
//! Each program is a schedule over those steps: Theorem 1.1 runs setup,
//! Lemma 4.1 and the completion; Theorems 1.2 and 1.3 run the same
//! Lemma 4.1 iterations (none for Theorem 1.3) before Lemma 4.6's
//! sampling phases; Remark 4.4 runs the steps in three sub-rounds per
//! iteration until local stabilization.
//!
//! Every program is tested to produce **identical output** to its
//! centralized counterpart: the set, the packing values bit for bit and
//! the iteration count, on every topology and weight model of the
//! equivalence sweep. Randomized programs share their coin flips with the
//! centralized solver through [`arbodom_congest::det_rand`].
//!
//! Coverage: Theorem 1.1 ([`run_weighted`]), Theorem 1.2
//! ([`run_randomized`]), Theorem 1.3 ([`run_general`]), Observation A.1
//! ([`run_trees`]), and Remark 4.4 ([`run_unknown_delta`] — the
//! unknown-Δ variant, whose termination is by *local stabilization*
//! rather than a precomputed round count). Under message loss
//! ([`RunOptions::loss`](arbodom_congest::RunOptions::loss)) the
//! fixed-schedule programs still halt on time, while a lost event would
//! keep a Remark 4.4 node waiting forever, so [`run_unknown_delta`]
//! refuses a lossy model with [`crate::CoreError::InvalidParameter`].
//!
//! Each program has one entry point. It takes the graph, the algorithm's
//! config, a seed where the program has its own, the simulator's
//! [`RunOptions`](arbodom_congest::RunOptions) and a worker-thread count;
//! outputs and telemetry are bit-identical at any thread count.
//! [`run_trees`] takes no thread count: its one communication round runs
//! inline on the calling thread.

mod msg;
mod primal_dual;
mod randomized;
mod trees;
mod unknown_delta;
mod weighted;

pub use msg::ProtocolMsg;
pub use primal_dual::NodeOutput;
pub use randomized::{run_general, run_randomized, RandomizedProgram};
pub use trees::{run_trees, TreeProgram};
pub use unknown_delta::{run_unknown_delta, UnknownDeltaProgram};
pub use weighted::{run_weighted, WeightedProgram};
