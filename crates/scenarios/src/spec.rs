//! The declarative scenario model.
//!
//! A [`ScenarioSpec`] is a pure description: a graph [`Family`], a size
//! sweep, a weight-model sweep, a loss sweep, a seed set, an
//! [`Algorithm`], and a [`MeterMode`]. The matrix runner
//! ([`crate::runner`]) expands the description into cells (size × weights
//! × loss × seed) and executes every cell through the parallel CONGEST
//! runner; nothing in this module performs work.

use arbodom_congest::{MeterMode, RunOptions, Telemetry};
use arbodom_core::{distributed, general, partial, randomized, unknown_delta, weighted, DsResult};
use arbodom_graph::weights::WeightModel;
use arbodom_graph::{
    generators, EdgeCounter, EdgeSink, Graph, GraphError, MemoryFootprint, NodeId,
};
use rand::rngs::StdRng;

/// Workload scale of a matrix run or an experiment: `Quick` for CI
/// smoke, `Full` for the recorded artifacts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes for CI and `cargo test`.
    Quick,
    /// The sizes recorded in `BENCH_scenarios.json` and the other
    /// committed `BENCH_*.json` artifacts.
    Full,
}

impl Scale {
    /// Picks `quick` or `full` by variant.
    pub fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Reads `ARBODOM_QUICK=1` (the CI convention shared with
    /// `arbodom-bench`).
    pub fn from_env() -> Self {
        if std::env::var("ARBODOM_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// A generated instance: the graph plus, when the family plants one, a
/// certified small dominating set.
#[derive(Clone, Debug)]
pub struct Built {
    /// The generated (and weighted) graph.
    pub graph: Graph,
    /// The planted dominating set, when the family has one.
    pub planted: Option<Vec<NodeId>>,
}

/// A graph family with its parameters — one axis of the matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Family {
    /// Union of `alpha` random spanning trees, each edge kept with
    /// probability `keep`: arboricity ≤ α by construction.
    ForestUnion {
        /// Number of superimposed random trees.
        alpha: usize,
        /// Per-edge keep probability in `[0, 1]`.
        keep: f64,
    },
    /// Preferential attachment: heavy-tailed degrees, degeneracy ≤ m.
    PrefAttach {
        /// Edges per arriving node.
        m_per_node: usize,
    },
    /// Planted dominating set: `k = max(1, n·k_per_mille/1000)` centers.
    PlantedDs {
        /// Planted centers per thousand nodes.
        k_per_mille: usize,
        /// Extra random edges per node among non-centers.
        extra_per_node: usize,
    },
    /// A 2D grid (`torus = true` wraps both dimensions).
    Grid2d {
        /// Whether the grid wraps into a torus.
        torus: bool,
    },
    /// Erdős–Rényi with `p = avg_degree/(n−1)`.
    Gnp {
        /// Target average degree.
        avg_degree: f64,
    },
    /// A uniformly random labelled tree (arboricity 1; exact OPT via the
    /// forest DP).
    RandomTree,
    /// Grid plus random planar chords — planar, α ≤ 3. New in the
    /// scenario engine.
    RandomPlanar {
        /// Per-cell chord probability in `[0, 1]`.
        diag_p: f64,
    },
    /// Uniformly grown k-tree — treewidth k, α ≤ k. New in the scenario
    /// engine.
    KTree {
        /// Treewidth parameter `k ≥ 1`.
        k: usize,
    },
    /// Power-law degrees with a hard degeneracy cap. New in the scenario
    /// engine.
    PowerLawCapped {
        /// Zipf exponent of the back-degree draw (`> 1`).
        exponent: f64,
        /// Hard cap on back-degree (= degeneracy bound).
        cap: usize,
    },
    /// Unit-disk geometric graph with a target average degree. New in the
    /// scenario engine.
    UnitDisk {
        /// Target average degree (density knob).
        avg_degree: f64,
    },
}

impl Family {
    /// Human-readable label with parameters, used in tables and JSON.
    pub fn label(&self) -> String {
        match self {
            Family::ForestUnion { alpha, keep } if *keep >= 1.0 => {
                format!("forest-union(α={alpha})")
            }
            Family::ForestUnion { alpha, keep } => {
                format!("forest-union(α={alpha},keep={keep})")
            }
            Family::PrefAttach { m_per_node } => format!("pref-attach(m={m_per_node})"),
            Family::PlantedDs {
                k_per_mille,
                extra_per_node,
            } => format!("planted-ds(k={k_per_mille}‰,extra={extra_per_node})"),
            Family::Grid2d { torus: true } => "torus".into(),
            Family::Grid2d { torus: false } => "grid".into(),
            Family::Gnp { avg_degree } => format!("gnp(deg={avg_degree})"),
            Family::RandomTree => "random-tree".into(),
            Family::RandomPlanar { diag_p } => format!("random-planar(p={diag_p})"),
            Family::KTree { k } => format!("k-tree(k={k})"),
            Family::PowerLawCapped { exponent, cap } => {
                format!("power-law(β={exponent},cap={cap})")
            }
            Family::UnitDisk { avg_degree } => format!("unit-disk(deg={avg_degree})"),
        }
    }

    /// The generator this family draws from — distinct slugs count toward
    /// the "≥ 6 graph families" acceptance criterion.
    pub fn generator(&self) -> &'static str {
        match self {
            Family::ForestUnion { .. } => "forest_union",
            Family::PrefAttach { .. } => "preferential_attachment",
            Family::PlantedDs { .. } => "planted_ds",
            Family::Grid2d { .. } => "grid2d",
            Family::Gnp { .. } => "gnp",
            Family::RandomTree => "random_tree",
            Family::RandomPlanar { .. } => "random_planar",
            Family::KTree { .. } => "k_tree",
            Family::PowerLawCapped { .. } => "power_law_capped",
            Family::UnitDisk { .. } => "unit_disk",
        }
    }

    /// Whether the generator was added together with the scenario engine
    /// (the "≥ 3 newly added generators" acceptance criterion).
    pub fn uses_new_generator(&self) -> bool {
        matches!(
            self,
            Family::RandomPlanar { .. }
                | Family::KTree { .. }
                | Family::PowerLawCapped { .. }
                | Family::UnitDisk { .. }
        )
    }

    /// The arboricity bound the construction promises, if any. Families
    /// without a constructive bound (`Gnp`, `UnitDisk`, `PlantedDs`) are
    /// parameterized with the measured degeneracy instead.
    pub fn alpha_bound(&self) -> Option<usize> {
        match self {
            Family::ForestUnion { alpha, .. } => Some(*alpha),
            Family::PrefAttach { m_per_node } => Some(*m_per_node),
            Family::PlantedDs { .. } => None,
            // A planar bipartite grid has arboricity ≤ 2; the 4-regular
            // torus needs 3 forests; grid + chords is planar, so ≤ 3.
            Family::Grid2d { torus: false } => Some(2),
            Family::Grid2d { torus: true } => Some(3),
            Family::Gnp { .. } => None,
            Family::RandomTree => Some(1),
            Family::RandomPlanar { .. } => Some(3),
            Family::KTree { k } => Some(*k),
            Family::PowerLawCapped { cap, .. } => Some(*cap),
            Family::UnitDisk { .. } => None,
        }
    }

    /// Whether the family's generator has a streaming `try_*_into` form,
    /// i.e. whether [`Family::build`] goes through the exact-capacity
    /// two-pass path and [`Family::planned_footprint`] can size the
    /// instance without building it.
    pub fn streams(&self) -> bool {
        matches!(
            self,
            Family::ForestUnion { .. }
                | Family::PrefAttach { .. }
                | Family::RandomTree
                | Family::RandomPlanar { .. }
                | Family::PowerLawCapped { .. }
                | Family::UnitDisk { .. }
        )
    }

    /// Emits the family's edge stream into `sink`. Only valid for
    /// families where [`Family::streams`] is true.
    fn try_stream_into(
        &self,
        n: usize,
        rng: &mut StdRng,
        sink: &mut impl EdgeSink,
    ) -> Result<(), GraphError> {
        match self {
            Family::ForestUnion { alpha, keep } => {
                generators::try_forest_union_into(n, *alpha, *keep, rng, sink)
            }
            Family::PrefAttach { m_per_node } => {
                generators::try_preferential_attachment_into(n, *m_per_node, rng, sink)
            }
            Family::RandomTree => generators::try_random_tree_into(n, rng, sink),
            Family::RandomPlanar { diag_p } => {
                generators::try_random_planar_into(n, *diag_p, rng, sink)
            }
            Family::PowerLawCapped { exponent, cap } => {
                generators::try_power_law_capped_into(n, *exponent, *cap, rng, sink)
            }
            Family::UnitDisk { avg_degree } => {
                generators::try_unit_disk_into(n, *avg_degree, rng, sink)
            }
            other => unreachable!("{other:?} has no streaming form"),
        }
    }

    /// Byte-accurate instance planning: sizes the cell's frozen CSR
    /// before instantiating it, by replaying the generator (from a clone
    /// of `rng` — the caller's RNG is not advanced) into an
    /// [`EdgeCounter`] dry-run. The plan assumes the unit-weight tier
    /// (the huge tier's weight model); an explicit-weight cell costs
    /// `8n` bytes more. Returns `None` for families without a streaming
    /// form.
    ///
    /// The neighbor-array figure counts the generator's raw emissions;
    /// [`Graph::from_edge_stream`] deduplicates, so the plan is an upper
    /// bound that is exact whenever the generator emits no duplicate
    /// edge — true for every current streaming family except rare
    /// cross-tree collisions in `ForestUnion`.
    ///
    /// # Errors
    ///
    /// Propagates generator parameter validation
    /// ([`GraphError::InvalidParameter`]).
    pub fn planned_footprint(
        &self,
        n: usize,
        rng: &StdRng,
    ) -> Result<Option<MemoryFootprint>, GraphError> {
        if !self.streams() {
            return Ok(None);
        }
        let mut counter = EdgeCounter::default();
        self.try_stream_into(n, &mut rng.clone(), &mut counter)?;
        Ok(Some(MemoryFootprint {
            offsets_bytes: (n + 1) * std::mem::size_of::<u32>(),
            neighbors_bytes: 2 * counter.edges * std::mem::size_of::<NodeId>(),
            weights_bytes: 0,
        }))
    }

    /// Generates an instance with about `n` nodes (grid-shaped families
    /// round to the nearest full grid). Structural randomness comes from
    /// `rng`; weights are assigned by the caller.
    ///
    /// # Errors
    ///
    /// Propagates generator parameter validation
    /// ([`GraphError::InvalidParameter`]).
    pub fn build(&self, n: usize, rng: &mut StdRng) -> Result<Built, GraphError> {
        let plain = |graph: Graph| Built {
            graph,
            planted: None,
        };
        // Streaming families go through the exact-capacity two-pass
        // build: no intermediate edge vectors, no Vec-doubling peaks —
        // what makes the 10⁷-node tier fit. The first pass replays a
        // clone of the cell RNG and the second consumes the real one, so
        // the RNG state after `build` (and hence the weight draws that
        // follow) is identical to the historical single-pass path, and
        // the streamed edge sequence is digest-identical to the builder
        // forms by the seed-stability pins.
        if self.streams() {
            let mut first = Some(rng.clone());
            let graph = Graph::from_edge_stream(n, |mut sink| match first.take() {
                Some(mut pass_rng) => self.try_stream_into(n, &mut pass_rng, &mut sink),
                None => self.try_stream_into(n, rng, &mut sink),
            })?;
            return Ok(plain(graph));
        }
        Ok(match self {
            Family::ForestUnion { .. }
            | Family::PrefAttach { .. }
            | Family::RandomTree
            | Family::RandomPlanar { .. }
            | Family::PowerLawCapped { .. }
            | Family::UnitDisk { .. } => {
                unreachable!("streaming families are built by from_edge_stream above")
            }
            Family::PlantedDs {
                k_per_mille,
                extra_per_node,
            } => {
                let k = (n * k_per_mille / 1000).max(1);
                let inst = generators::try_planted_ds(n, k, *extra_per_node, rng)?;
                Built {
                    graph: inst.graph,
                    planted: Some(inst.planted),
                }
            }
            Family::Grid2d { torus } => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                plain(generators::grid2d(side, side, *torus))
            }
            Family::Gnp { avg_degree } => {
                let p = (avg_degree / (n.max(2) - 1) as f64).clamp(0.0, 1.0);
                plain(generators::try_gnp(n, p, rng)?)
            }
            Family::KTree { k } => plain(generators::k_tree(n, *k, rng)?),
        })
    }
}

/// The algorithm a scenario runs — always as a real message-passing
/// CONGEST computation through the thread-parallel simulator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// Theorem 1.1: deterministic weighted `(2α+1)(1+ε)`.
    Weighted {
        /// Approximation slack ε.
        eps: f64,
    },
    /// Remark 4.4: Theorem 1.1 without knowing Δ (local stabilization).
    UnknownDelta {
        /// Approximation slack ε.
        eps: f64,
    },
    /// Theorem 1.2: randomized `α + O(α/t)` in expectation.
    Randomized {
        /// Round/quality trade-off parameter `t ≥ 1`.
        t: usize,
    },
    /// Theorem 1.3: randomized `O(k·Δ^{2/k})` on general graphs.
    General {
        /// Round/quality trade-off parameter `k ≥ 1`.
        k: usize,
    },
}

impl Algorithm {
    /// Human-readable label used in tables and JSON.
    pub fn label(&self) -> String {
        match self {
            Algorithm::Weighted { eps } => format!("thm1.1(ε={eps})"),
            Algorithm::UnknownDelta { eps } => format!("rem4.4(ε={eps})"),
            Algorithm::Randomized { t } => format!("thm1.2(t={t})"),
            Algorithm::General { k } => format!("thm1.3(k={k})"),
        }
    }

    /// Executes the algorithm's node program over `g` on `threads` worker
    /// threads through its `core::distributed` entry point (`0` and `1`
    /// both run inline). Identical output at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and simulation errors.
    pub fn execute(
        &self,
        g: &Graph,
        alpha: usize,
        seed: u64,
        opts: &RunOptions,
        threads: usize,
    ) -> arbodom_core::Result<(DsResult, Telemetry)> {
        match self {
            Algorithm::Weighted { eps } => {
                let cfg = weighted::Config::new(alpha, *eps)?;
                distributed::run_weighted(g, &cfg, seed, opts, threads)
            }
            Algorithm::UnknownDelta { eps } => {
                let cfg = unknown_delta::Config::new(alpha, *eps)?;
                distributed::run_unknown_delta(g, &cfg, seed, opts, threads)
            }
            Algorithm::Randomized { t } => {
                let cfg = randomized::Config::new(alpha, *t, seed)?;
                distributed::run_randomized(g, &cfg, opts, threads)
            }
            Algorithm::General { k } => {
                let cfg = general::Config::new(*k, seed)?;
                distributed::run_general(g, &cfg, opts, threads)
            }
        }
    }

    /// The approximation bound the paper states for this parameterization,
    /// and whether it is deterministic (certified per run) or holds only
    /// in expectation.
    pub fn guarantee(&self, alpha: usize, max_degree: usize) -> Guarantee {
        match self {
            Algorithm::Weighted { eps } => Guarantee {
                bound: (2 * alpha + 1) as f64 * (1.0 + eps),
                deterministic: true,
            },
            Algorithm::UnknownDelta { eps } => Guarantee {
                bound: (2 * alpha + 1) as f64 * (1.0 + eps),
                deterministic: true,
            },
            Algorithm::Randomized { t } => Guarantee {
                bound: randomized::Config::new(alpha, *t, 0)
                    .map(|c| c.guarantee(max_degree))
                    .unwrap_or(f64::INFINITY),
                deterministic: false,
            },
            Algorithm::General { k } => Guarantee {
                bound: general::Config::new(*k, 0)
                    .map(|c| c.guarantee(max_degree))
                    .unwrap_or(f64::INFINITY),
                deterministic: false,
            },
        }
    }

    /// The round budget the paper's complexity statement allows on a graph
    /// of maximum degree `max_degree` — the `O(ε⁻¹ log Δ)` axis of the
    /// report. Budgets follow the implemented schedules exactly
    /// (setup + 2 rounds per iteration + completion); the unknown-Δ
    /// variant gets a 3× allowance for its doubling estimates.
    pub fn round_budget(&self, alpha: usize, max_degree: usize) -> usize {
        match self {
            Algorithm::Weighted { eps } => {
                let r = weighted::Config::new(alpha, *eps)
                    .ok()
                    .and_then(|cfg| partial::PartialConfig::new(*eps, cfg.lambda()).ok())
                    .map(|p| p.iterations(max_degree))
                    .unwrap_or(0);
                4 + 2 * r
            }
            Algorithm::UnknownDelta { eps } => {
                let r = weighted::Config::new(alpha, *eps)
                    .ok()
                    .and_then(|cfg| partial::PartialConfig::new(*eps, cfg.lambda()).ok())
                    .map(|p| p.iterations(max_degree))
                    .unwrap_or(0);
                3 * (4 + 2 * r)
            }
            Algorithm::Randomized { t } => {
                let Ok(cfg) = randomized::Config::new(alpha, *t, 0) else {
                    return 0;
                };
                let r1 = partial::PartialConfig::new(cfg.epsilon(), cfg.lambda())
                    .map(|p| p.iterations(max_degree))
                    .unwrap_or(0);
                let ext = arbodom_core::extend::ExtendConfig::new(cfg.lambda(), cfg.gamma(), 0)
                    .map(|e| e.phases() * e.iterations_per_phase(max_degree))
                    .unwrap_or(0);
                4 + 2 * (r1 + ext)
            }
            Algorithm::General { k } => {
                let Ok(cfg) = general::Config::new(*k, 0) else {
                    return 0;
                };
                let lambda = 1.0 / (max_degree + 1) as f64;
                let ext = arbodom_core::extend::ExtendConfig::new(lambda, cfg.gamma(max_degree), 0)
                    .map(|e| e.phases() * e.iterations_per_phase(max_degree))
                    .unwrap_or(0);
                4 + 2 * ext
            }
        }
    }
}

/// An approximation bound together with its strength.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Guarantee {
    /// The bound on the approximation ratio.
    pub bound: f64,
    /// `true` when the bound is certified per run (deterministic
    /// algorithms); `false` when it holds in expectation only.
    pub deterministic: bool,
}

/// A named point set in the experiment space: the declarative unit the
/// registry stores and the matrix runner expands.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioSpec {
    /// Unique scenario name (`list`/`run` address it by this).
    pub name: &'static str,
    /// One-line description shown by `scenarios list`.
    pub title: &'static str,
    /// Filter tags (`scenarios run thm11` matches name *or* tag).
    pub tags: &'static [&'static str],
    /// The graph family axis.
    pub family: Family,
    /// Size sweep at quick scale.
    pub quick_sizes: &'static [usize],
    /// Size sweep at full scale.
    pub full_sizes: &'static [usize],
    /// Weight-model sweep.
    pub weights: &'static [WeightModel],
    /// Loss sweep: per-message drop probabilities (`0.0` = reliable).
    pub loss: &'static [f64],
    /// Number of seed replicas per point.
    pub seeds: u64,
    /// The algorithm under test.
    pub algorithm: Algorithm,
    /// Metering mode for the CONGEST simulator.
    pub meter: MeterMode,
}

impl ScenarioSpec {
    /// The size sweep at the given scale.
    pub fn sizes(&self, scale: Scale) -> &'static [usize] {
        match scale {
            Scale::Quick => self.quick_sizes,
            Scale::Full => self.full_sizes,
        }
    }

    /// Number of matrix cells at the given scale.
    pub fn cell_count(&self, scale: Scale) -> usize {
        self.sizes(scale).len() * self.weights.len() * self.loss.len() * self.seeds as usize
    }

    /// Whether `filter` selects this scenario: empty matches everything,
    /// otherwise a case-sensitive substring of the name or an exact tag.
    pub fn matches(&self, filter: &str) -> bool {
        filter.is_empty() || self.name.contains(filter) || self.tags.contains(&filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Every streaming family, one parameterization each.
    fn streaming_families() -> [Family; 6] {
        [
            Family::ForestUnion {
                alpha: 3,
                keep: 1.0,
            },
            Family::PrefAttach { m_per_node: 3 },
            Family::RandomTree,
            Family::RandomPlanar { diag_p: 0.5 },
            Family::PowerLawCapped {
                exponent: 2.5,
                cap: 3,
            },
            Family::UnitDisk { avg_degree: 6.0 },
        ]
    }

    /// The two-pass streamed build must be invisible: same graph as the
    /// historical builder path *and* the same RNG state afterwards, so
    /// every committed cell digest (and every weight draw that follows a
    /// build) stays exactly where it was.
    #[test]
    fn streamed_build_is_rng_transparent() {
        let mut a = StdRng::seed_from_u64(123);
        let mut b = StdRng::seed_from_u64(123);
        let fam = Family::ForestUnion {
            alpha: 2,
            keep: 0.6,
        };
        let streamed = fam.build(500, &mut a).expect("builds").graph;
        let legacy =
            generators::try_forest_union_partial(500, 2, 0.6, &mut b).expect("legacy builds");
        assert_eq!(
            streamed, legacy,
            "streamed build drifted from the legacy path"
        );
        assert_eq!(
            a.random_range(0..u64::MAX),
            b.random_range(0..u64::MAX),
            "streamed build consumed a different amount of randomness"
        );
        assert!(
            streamed.is_unit_weighted(),
            "family builds are unit-weight until the weight model runs"
        );
    }

    /// `planned_footprint` prices a cell without building it: exact for
    /// duplicate-free streams, a tight upper bound otherwise, and
    /// side-effect free on the caller's RNG.
    #[test]
    fn planned_footprint_prices_cells_before_instantiation() {
        for fam in streaming_families() {
            let mut rng = StdRng::seed_from_u64(9);
            let planned = fam
                .planned_footprint(2_000, &rng)
                .expect("plan succeeds")
                .expect("streaming family has a plan");
            let built = fam.build(2_000, &mut rng).expect("family builds");
            let actual = built.graph.memory_footprint();
            assert_eq!(planned.offsets_bytes, actual.offsets_bytes, "{fam:?}");
            assert_eq!(planned.weights_bytes, 0, "{fam:?}");
            assert!(
                planned.neighbors_bytes >= actual.neighbors_bytes,
                "{fam:?}: plan undersized the neighbor array"
            );
            assert!(
                planned.total() - actual.total() <= 512,
                "{fam:?}: plan overshot by {} bytes — more than duplicate slack",
                planned.total() - actual.total()
            );
        }
        let rng = StdRng::seed_from_u64(9);
        assert!(
            Family::KTree { k: 3 }
                .planned_footprint(100, &rng)
                .expect("no parameter error")
                .is_none(),
            "non-streaming families have no plan"
        );
        assert!(
            Family::ForestUnion {
                alpha: 0,
                keep: 1.0
            }
            .planned_footprint(100, &rng)
            .is_err(),
            "planning validates parameters"
        );
    }

    #[test]
    fn families_build_and_respect_alpha_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let families = [
            Family::ForestUnion {
                alpha: 3,
                keep: 1.0,
            },
            Family::PrefAttach { m_per_node: 2 },
            Family::PlantedDs {
                k_per_mille: 50,
                extra_per_node: 2,
            },
            Family::Grid2d { torus: true },
            Family::Gnp { avg_degree: 4.0 },
            Family::RandomTree,
            Family::RandomPlanar { diag_p: 0.5 },
            Family::KTree { k: 2 },
            Family::PowerLawCapped {
                exponent: 2.5,
                cap: 3,
            },
            Family::UnitDisk { avg_degree: 5.0 },
        ];
        for f in families {
            let built = f.build(300, &mut rng).expect("family builds");
            assert!(
                built.graph.n() >= 250,
                "{}: n = {}",
                f.label(),
                built.graph.n()
            );
            if let Some(alpha) = f.alpha_bound() {
                let degeneracy = arbodom_graph::orientation::degeneracy(&built.graph);
                assert!(
                    degeneracy <= 2 * alpha,
                    "{}: degeneracy {degeneracy} > 2α = {}",
                    f.label(),
                    2 * alpha
                );
            }
        }
    }

    #[test]
    fn family_build_propagates_typed_errors() {
        let mut rng = StdRng::seed_from_u64(6);
        let bad = Family::ForestUnion {
            alpha: 0,
            keep: 1.0,
        };
        assert!(matches!(
            bad.build(100, &mut rng),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn round_budgets_grow_with_degree_and_shrink_with_eps() {
        let alg = Algorithm::Weighted { eps: 0.2 };
        assert!(alg.round_budget(2, 1000) > alg.round_budget(2, 10));
        let loose = Algorithm::Weighted { eps: 0.8 };
        assert!(loose.round_budget(2, 1000) < alg.round_budget(2, 1000));
    }

    #[test]
    fn spec_matching_by_name_and_tag() {
        let spec = ScenarioSpec {
            name: "thm11-forest-a2",
            title: "t",
            tags: &["thm11", "forest-union"],
            family: Family::ForestUnion {
                alpha: 2,
                keep: 1.0,
            },
            quick_sizes: &[100],
            full_sizes: &[1000],
            weights: &[WeightModel::Unit],
            loss: &[0.0],
            seeds: 2,
            algorithm: Algorithm::Weighted { eps: 0.2 },
            meter: MeterMode::Measure,
        };
        assert!(spec.matches(""));
        assert!(spec.matches("thm11"));
        assert!(spec.matches("forest-union"));
        assert!(spec.matches("thm11-forest-a2"));
        assert!(!spec.matches("thm12"));
        assert_eq!(spec.cell_count(Scale::Quick), 2);
    }
}
