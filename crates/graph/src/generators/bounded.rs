//! Bounded-arboricity workload families.
//!
//! These are the graphs the paper is about: families whose arboricity is
//! controlled by construction, so the approximation bound `(2α+1)(1+ε)` can
//! be evaluated against a *known* α instead of an estimated one.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{EdgeSink, Graph, GraphBuilder, GraphError, NodeId, Result};

/// The union of `alpha` independent uniformly random spanning trees on the
/// same `n` nodes. The edge set decomposes into `alpha` forests by
/// construction, so the arboricity is at most `alpha` (and, for `n` not too
/// small, typically exactly `alpha`).
///
/// This is the canonical "arboricity exactly α" workload of the experiment
/// suite.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let g = arbodom_graph::generators::forest_union(100, 4, &mut rng);
/// assert!(g.m() <= 4 * 99);
/// let (_, upper) = arbodom_graph::arboricity::arboricity_bounds(&g);
/// assert!(upper <= 2 * 4 - 1); // degeneracy ≤ 2α − 1
/// ```
pub fn forest_union(n: usize, alpha: usize, rng: &mut impl Rng) -> Graph {
    forest_union_partial(n, alpha, 1.0, rng)
}

/// Like [`forest_union`] but each tree edge is kept independently with
/// probability `keep`, yielding sparser unions of forests (arboricity still
/// at most `alpha`).
///
/// # Panics
///
/// Panics where [`try_forest_union_partial`] errors.
pub fn forest_union_partial(n: usize, alpha: usize, keep: f64, rng: &mut impl Rng) -> Graph {
    try_forest_union_partial(n, alpha, keep, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`forest_union_partial`]: validates every parameter
/// with a typed error instead of panicking or silently clamping.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if:
///
/// * `n == 0` — a forest union needs at least one node;
/// * `alpha == 0` — a union of zero forests is not an arboricity workload
///   (an edgeless graph is `keep = 0`, stated explicitly, not `α = 0`);
/// * `keep` is NaN or outside `[0, 1]`.
pub fn try_forest_union_partial(
    n: usize,
    alpha: usize,
    keep: f64,
    rng: &mut impl Rng,
) -> Result<Graph> {
    let mut b = GraphBuilder::new(n);
    try_forest_union_into(n, alpha, keep, rng, &mut b)?;
    Ok(b.build())
}

/// Streaming form of [`try_forest_union_partial`]: emits each kept tree
/// edge straight into `sink`, so building a huge union never materializes
/// per-tree graphs. Draws exactly the same random values in the same
/// order as the historical builder path — the per-seed output of
/// [`try_forest_union_partial`] is frozen by the seed-stability pins —
/// so both forms produce the same graph for the same `rng` state.
///
/// With `keep ≥ 1` the trees stream with **no intermediate edge storage**
/// at all. With `keep < 1` each tree's edges are buffered and sorted
/// (one `n − 1`-entry scratch, an order of magnitude smaller than a
/// materialized tree graph) because the keep-coins have always been
/// drawn in sorted edge order and the digests pin that.
///
/// # Errors
///
/// Same parameter validation as [`try_forest_union_partial`], plus sink
/// rejections.
pub fn try_forest_union_into(
    n: usize,
    alpha: usize,
    keep: f64,
    rng: &mut impl Rng,
    sink: &mut impl EdgeSink,
) -> Result<()> {
    if n == 0 {
        return Err(GraphError::InvalidParameter(
            "forest_union: n must be at least 1".into(),
        ));
    }
    if alpha == 0 {
        return Err(GraphError::InvalidParameter(
            "forest_union: alpha must be at least 1".into(),
        ));
    }
    if !(0.0..=1.0).contains(&keep) {
        return Err(GraphError::InvalidParameter(format!(
            "forest_union: keep must be in [0, 1], got {keep}"
        )));
    }
    if keep >= 1.0 {
        for _ in 0..alpha {
            super::try_random_tree_into(n, rng, sink)?;
        }
        return Ok(());
    }
    let mut tree: Vec<(u32, u32)> = Vec::with_capacity(n.saturating_sub(1));
    for _ in 0..alpha {
        tree.clear();
        super::try_random_tree_into(n, rng, &mut SortedScratch(&mut tree))?;
        tree.sort_unstable();
        for &(u, v) in &tree {
            if rng.random_bool(keep) {
                sink.accept_edge(u, v)?;
            }
        }
    }
    Ok(())
}

/// Collects canonicalized `(min, max)` pairs for the partial-union path,
/// which must draw its keep-coins in sorted edge order (the frozen
/// historical behavior).
struct SortedScratch<'a>(&'a mut Vec<(u32, u32)>);

impl EdgeSink for SortedScratch<'_> {
    fn accept_edge(&mut self, u: u32, v: u32) -> Result<()> {
        self.0.push((u.min(v), u.max(v)));
        Ok(())
    }
}

/// Preferential attachment (Barabási–Albert): nodes arrive one by one and
/// attach to `m_per_node` existing nodes chosen proportionally to degree.
///
/// The resulting graph has degeneracy at most `m_per_node` (every node has
/// at most `m_per_node` earlier neighbors), hence arboricity at most
/// `m_per_node`, while exhibiting a heavy-tailed degree distribution — the
/// "social network / WWW" motivation from the paper's introduction.
///
/// # Panics
///
/// Panics where [`try_preferential_attachment`] errors.
pub fn preferential_attachment(n: usize, m_per_node: usize, rng: &mut impl Rng) -> Graph {
    try_preferential_attachment(n, m_per_node, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`preferential_attachment`]: validates parameters
/// instead of panicking.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m_per_node == 0` or
/// `n < m_per_node + 1` (the seed clique would not fit).
pub fn try_preferential_attachment(
    n: usize,
    m_per_node: usize,
    rng: &mut impl Rng,
) -> Result<Graph> {
    try_preferential_attachment_check(n, m_per_node)?;
    // PA emits a known, duplicate-free edge count, so the builder's edge
    // buffer can be reserved exactly: seed-clique edges plus exactly
    // `m_per_node` attachments per later node.
    let seed = m_per_node + 1;
    let edges = seed * (seed - 1) / 2 + (n - seed) * m_per_node;
    let mut b = GraphBuilder::try_with_capacity(n, edges)?;
    try_preferential_attachment_into(n, m_per_node, rng, &mut b)?;
    Ok(b.build())
}

/// Shared parameter validation of the two preferential-attachment forms.
fn try_preferential_attachment_check(n: usize, m_per_node: usize) -> Result<()> {
    if m_per_node == 0 {
        return Err(GraphError::InvalidParameter(
            "preferential_attachment: m_per_node must be at least 1".into(),
        ));
    }
    if n <= m_per_node {
        return Err(GraphError::InvalidParameter(format!(
            "preferential_attachment: need n > m_per_node, got n = {n}, m_per_node = {m_per_node}"
        )));
    }
    Ok(())
}

/// Streaming form of [`preferential_attachment`]: emits each edge
/// straight into `sink` as it is decided. Draws exactly the same random
/// values in the same order as the historical builder path — the
/// per-seed output is frozen by the seed-stability pins — so both forms
/// produce the same graph for the same `rng` state.
///
/// The historical implementation kept an explicit endpoint *multiset*
/// (`2` entries per edge, `8` bytes per edge) for degree-proportional
/// sampling. That multiset is perfectly regular: entry `i < seed · m` is
/// the seed node `i / m`; past the seed block, the odd entry of edge `k`
/// is its source `seed + k / m` (every later node attaches exactly `m`
/// times) and the even entry is its sampled target. So only the flat
/// target list is actual information — this form stores exactly that
/// (`4` bytes per attachment edge, half the historical helper state) and
/// *computes* the rest of the multiset on demand, while drawing
/// identical indices from `rng`.
///
/// # Errors
///
/// Same parameter validation as [`try_preferential_attachment`], plus
/// sink rejections.
pub fn try_preferential_attachment_into(
    n: usize,
    m_per_node: usize,
    rng: &mut impl Rng,
    sink: &mut impl EdgeSink,
) -> Result<()> {
    try_preferential_attachment_check(n, m_per_node)?;
    // Seed clique on m_per_node + 1 nodes.
    let seed = m_per_node + 1;
    for u in 0..seed as u32 {
        for v in (u + 1)..seed as u32 {
            sink.accept_edge(u, v)?;
        }
    }
    // The virtual endpoint multiset: `base` seed entries, then two
    // entries per attachment edge, of which only the target is stored.
    let base = seed * m_per_node;
    let mut targets_flat: Vec<u32> = Vec::with_capacity((n - seed) * m_per_node);
    let chance = |i: usize, targets_flat: &[u32]| -> u32 {
        if i < base {
            (i / m_per_node) as u32
        } else {
            let k = i - base;
            if k % 2 == 1 {
                (seed + (k / 2) / m_per_node) as u32
            } else {
                targets_flat[k / 2]
            }
        }
    };
    for v in seed..n {
        let len = base + 2 * targets_flat.len();
        let mut targets = std::collections::HashSet::with_capacity(m_per_node);
        // Rejection-sample m distinct targets.
        let mut guard = 0;
        while targets.len() < m_per_node {
            let t = chance(rng.random_range(0..len), &targets_flat);
            targets.insert(t);
            guard += 1;
            if guard > 100 * m_per_node {
                // Extremely unlikely; fill with smallest ids not yet chosen.
                for u in 0..v as u32 {
                    if targets.len() >= m_per_node {
                        break;
                    }
                    targets.insert(u);
                }
            }
        }
        // HashSet iteration order is nondeterministic; sort so the
        // endpoint multiset (which feeds later draws) is reproducible.
        let mut targets: Vec<u32> = targets.into_iter().collect();
        targets.sort_unstable();
        for t in targets {
            sink.accept_edge(v as u32, t)?;
            targets_flat.push(t);
        }
    }
    Ok(())
}

/// A planted dominating-set instance with a known small dominating set.
#[derive(Clone, Debug)]
pub struct PlantedInstance {
    /// The generated graph.
    pub graph: Graph,
    /// The planted dominating set (an upper bound on OPT).
    pub planted: Vec<NodeId>,
}

/// Plants `k` centers among `n` nodes; every non-center attaches to one
/// random center, and `extra_per_node` additional random edges are scattered
/// among non-centers to thicken the graph while keeping degeneracy low.
///
/// The planted centers form a dominating set of size `k`, giving a certified
/// upper bound `OPT ≤ k` for ratio measurements on large instances.
///
/// # Panics
///
/// Panics where [`try_planted_ds`] errors.
pub fn planted_ds(
    n: usize,
    k: usize,
    extra_per_node: usize,
    rng: &mut impl Rng,
) -> PlantedInstance {
    try_planted_ds(n, k, extra_per_node, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`planted_ds`]: validates parameters instead of
/// panicking.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] unless `1 <= k <= n`.
pub fn try_planted_ds(
    n: usize,
    k: usize,
    extra_per_node: usize,
    rng: &mut impl Rng,
) -> Result<PlantedInstance> {
    if k == 0 || k > n {
        return Err(GraphError::InvalidParameter(format!(
            "planted_ds: need 1 <= k <= n, got k = {k}, n = {n}"
        )));
    }
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.shuffle(rng);
    let centers: Vec<u32> = ids[..k].to_vec();
    let mut b = GraphBuilder::new(n);
    for &v in &ids[k..] {
        let c = centers[rng.random_range(0..k)];
        b.add_edge_u32(v, c).expect("planted edges are valid");
    }
    // Sprinkle extra edges (each adds at most 1 to degeneracy per endpoint
    // on average; with extra_per_node = e the arboricity stays O(1 + e)).
    for _ in 0..n.saturating_mul(extra_per_node) {
        let u = rng.random_range(0..n as u32);
        let v = rng.random_range(0..n as u32);
        if u != v {
            b.add_edge_u32(u, v).expect("extra edges are valid");
        }
    }
    Ok(PlantedInstance {
        graph: b.build(),
        planted: centers.into_iter().map(NodeId::new).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arboricity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forest_union_arboricity_bounded() {
        let mut rng = StdRng::seed_from_u64(11);
        for alpha in [1usize, 2, 4, 8] {
            let g = forest_union(300, alpha, &mut rng);
            let (lo, hi) = arboricity::arboricity_bounds(&g);
            assert!(
                lo <= alpha,
                "lower bound {lo} exceeds construction α {alpha}"
            );
            assert!(hi <= 2 * alpha, "degeneracy {hi} exceeds 2α for α={alpha}");
        }
    }

    #[test]
    fn forest_union_alpha_one_is_tree() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = forest_union(50, 1, &mut rng);
        assert_eq!(g.m(), 49);
    }

    #[test]
    fn forest_union_partial_sparser() {
        let mut rng = StdRng::seed_from_u64(13);
        let dense = forest_union(200, 3, &mut rng);
        let sparse = forest_union_partial(200, 3, 0.3, &mut rng);
        assert!(sparse.m() < dense.m());
    }

    #[test]
    fn preferential_attachment_degeneracy() {
        let mut rng = StdRng::seed_from_u64(14);
        let g = preferential_attachment(500, 3, &mut rng);
        assert_eq!(g.n(), 500);
        let degeneracy = crate::orientation::degeneracy(&g);
        assert!(
            degeneracy <= 3,
            "PA graph must have degeneracy <= m_per_node"
        );
        // Heavy tail: the max degree should well exceed the average.
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(g.max_degree() as f64 > 3.0 * avg);
    }

    #[test]
    fn forest_union_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(16);
        for bad in [
            try_forest_union_partial(0, 2, 1.0, &mut rng),
            try_forest_union_partial(10, 0, 1.0, &mut rng),
            try_forest_union_partial(10, 2, -0.1, &mut rng),
            try_forest_union_partial(10, 2, 1.1, &mut rng),
            try_forest_union_partial(10, 2, f64::NAN, &mut rng),
        ] {
            assert!(
                matches!(bad, Err(GraphError::InvalidParameter(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "keep must be in [0, 1]")]
    fn forest_union_partial_panics_on_bad_keep() {
        let mut rng = StdRng::seed_from_u64(17);
        forest_union_partial(10, 2, 2.0, &mut rng);
    }

    #[test]
    fn preferential_attachment_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(18);
        for bad in [
            try_preferential_attachment(10, 0, &mut rng),
            try_preferential_attachment(3, 3, &mut rng),
        ] {
            assert!(
                matches!(bad, Err(GraphError::InvalidParameter(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn planted_ds_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(19);
        for bad in [
            try_planted_ds(10, 0, 1, &mut rng),
            try_planted_ds(10, 11, 1, &mut rng),
        ] {
            assert!(
                matches!(bad, Err(GraphError::InvalidParameter(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn planted_ds_dominates() {
        let mut rng = StdRng::seed_from_u64(15);
        let inst = planted_ds(400, 20, 2, &mut rng);
        let mut dominated = vec![false; 400];
        for &c in &inst.planted {
            dominated[c.index()] = true;
            for &u in inst.graph.neighbors(c) {
                dominated[u.index()] = true;
            }
        }
        assert!(dominated.iter().all(|&d| d), "planted set must dominate");
        assert_eq!(inst.planted.len(), 20);
    }
}
