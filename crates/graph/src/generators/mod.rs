//! Graph generators: the workload families of the experiments.
//!
//! Three groups:
//!
//! * deterministic topologies ([`path`], [`cycle`], [`star`], [`complete`],
//!   [`complete_bipartite`], [`kary_tree`], [`caterpillar`], [`grid2d`]);
//! * random families ([`gnp`], [`gnm`], [`random_tree`], [`random_regular`],
//!   [`bipartite_random`]);
//! * bounded-arboricity families central to the paper
//!   ([`forest_union`], [`preferential_attachment`], [`planted_ds`]);
//! * structured families for the scenario matrix ([`random_planar`],
//!   [`k_tree`], [`power_law_capped`], [`unit_disk`]).
//!
//! All random generators take an explicit `&mut impl Rng` so that every
//! experiment in the workspace is reproducible from a seed, and each is
//! pinned by a seed-stability test (`tests/seed_stability.rs`) through
//! [`crate::digest::fnv_edge_digest`].
//!
//! Parameter validation comes in two flavors: every random generator has a
//! `try_*` form returning a typed [`crate::GraphError::InvalidParameter`]
//! for out-of-domain parameters, and the historical panicking form
//! delegating to it. The scenario-matrix families are new enough to have
//! only the fallible form.
//!
//! Every memory-tiered family additionally has a **streaming**
//! `try_*_into` form ([`try_random_tree_into`], [`try_forest_union_into`],
//! [`try_random_planar_into`], [`try_power_law_capped_into`],
//! [`try_preferential_attachment_into`], [`try_unit_disk_into`]) that
//! emits edges straight into an [`crate::EdgeSink`] — a
//! [`crate::GraphBuilder`], an [`crate::EdgeCounter`] dry-run, or the
//! two-pass [`crate::Graph::from_edge_stream`] path — so a huge instance
//! builds without transient per-tree graphs or intermediate edge
//! vectors. The builder-returning forms are thin wrappers over the
//! streaming cores and draw the same random values, so the
//! seed-stability pins cover both.

mod basic;
mod bounded;
mod random;
mod structured;

pub use basic::{
    caterpillar, complete, complete_bipartite, cycle, grid2d, kary_tree, path, spider, star,
};
pub use bounded::{
    forest_union, forest_union_partial, planted_ds, preferential_attachment, try_forest_union_into,
    try_forest_union_partial, try_planted_ds, try_preferential_attachment,
    try_preferential_attachment_into, PlantedInstance,
};
pub use random::{
    bipartite_random, gnm, gnp, random_regular, random_tree, try_bipartite_random, try_gnm,
    try_gnp, try_random_regular, try_random_tree_into,
};
pub use structured::{
    k_tree, power_law_capped, random_planar, try_power_law_capped_into, try_random_planar_into,
    try_unit_disk_into, unit_disk,
};
