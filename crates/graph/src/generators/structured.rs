//! Structured bounded-arboricity families for the scenario matrix.
//!
//! The paper's claims are parameterized over arboricity α, and its
//! motivating examples — planar graphs, bounded-treewidth graphs,
//! power-law networks with small degeneracy, geometric intersection
//! graphs — are exactly the families the scenario engine sweeps. Each
//! generator here validates its parameters with typed
//! [`GraphError::InvalidParameter`] errors (no implicit clamping, no
//! panics) and is covered by a seed-stability pin test, so its output for
//! a fixed seed is frozen.
//!
//! | generator | α control |
//! |---|---|
//! | [`random_planar`] | planar by construction ⇒ α ≤ 3 |
//! | [`k_tree`] | degeneracy = k ⇒ α ≤ k |
//! | [`power_law_capped`] | back-degree ≤ cap ⇒ degeneracy ≤ cap ⇒ α ≤ cap |
//! | [`unit_disk`] | density-controlled (α reported, not promised) |

use rand::Rng;

use crate::{EdgeSink, Graph, GraphBuilder, GraphError, Result};

/// A random planar graph: a near-square grid on exactly `n` nodes with a
/// random diagonal chord added in each unit cell independently with
/// probability `diag_p`.
///
/// Every chord subdivides one interior face, so the result stays planar —
/// hence arboricity ≤ 3 (Nash–Williams for planar graphs) — while `diag_p`
/// sweeps the density from the bipartite grid (α ≤ 2) toward a maximal
/// planar triangulation-like profile.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n == 0` or `diag_p` is not
/// in `[0, 1]`.
pub fn random_planar(n: usize, diag_p: f64, rng: &mut impl Rng) -> Result<Graph> {
    let mut b = GraphBuilder::new(n);
    try_random_planar_into(n, diag_p, rng, &mut b)?;
    Ok(b.build())
}

/// Streaming form of [`random_planar`]: emits grid and chord edges
/// straight into `sink` with no intermediate storage. Draws exactly the
/// same random values in the same order as [`random_planar`], so both
/// forms produce the same graph for the same `rng` state.
///
/// # Errors
///
/// Same parameter validation as [`random_planar`], plus sink rejections.
pub fn try_random_planar_into(
    n: usize,
    diag_p: f64,
    rng: &mut impl Rng,
    sink: &mut impl EdgeSink,
) -> Result<()> {
    if n == 0 {
        return Err(GraphError::InvalidParameter(
            "random_planar: n must be at least 1".into(),
        ));
    }
    if !(0.0..=1.0).contains(&diag_p) {
        return Err(GraphError::InvalidParameter(format!(
            "random_planar: diag_p must be in [0, 1], got {diag_p}"
        )));
    }
    let cols = (n as f64).sqrt().ceil() as usize;
    let at = |r: usize, c: usize| r * cols + c;
    for v in 0..n {
        let (r, c) = (v / cols, v % cols);
        if c + 1 < cols && at(r, c + 1) < n {
            sink.accept_edge(v as u32, at(r, c + 1) as u32)?;
        }
        if at(r + 1, c) < n {
            sink.accept_edge(v as u32, at(r + 1, c) as u32)?;
        }
    }
    // One chord per complete unit cell: the ⟍ or ⟋ diagonal, at random.
    for v in 0..n {
        let (r, c) = (v / cols, v % cols);
        if c + 1 >= cols || at(r + 1, c + 1) >= n {
            continue;
        }
        if diag_p > 0.0 && (diag_p >= 1.0 || rng.random_bool(diag_p)) {
            if rng.random_bool(0.5) {
                sink.accept_edge(at(r, c) as u32, at(r + 1, c + 1) as u32)?;
            } else {
                sink.accept_edge(at(r, c + 1) as u32, at(r + 1, c) as u32)?;
            }
        }
    }
    Ok(())
}

/// A uniformly grown `k`-tree: a `(k+1)`-clique, then each new node joins
/// a uniformly random existing `k`-clique.
///
/// The construction order is a degeneracy order with back-degree exactly
/// `k`, so the treewidth is `k` and the arboricity is at most `k` — the
/// canonical bounded-treewidth workload.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `k == 0` or `n < k + 1`.
pub fn k_tree(n: usize, k: usize, rng: &mut impl Rng) -> Result<Graph> {
    if k == 0 {
        return Err(GraphError::InvalidParameter(
            "k_tree: k must be at least 1".into(),
        ));
    }
    if n < k + 1 {
        return Err(GraphError::InvalidParameter(format!(
            "k_tree: need n >= k + 1, got n = {n}, k = {k}"
        )));
    }
    let mut b = GraphBuilder::new(n);
    for u in 0..=k as u32 {
        for v in (u + 1)..=k as u32 {
            b.add_edge_u32(u, v)?;
        }
    }
    // All k-subsets of the seed clique are attachable k-cliques.
    let mut cliques: Vec<Vec<u32>> = Vec::with_capacity((n - k) * k + 1);
    for skip in 0..=k as u32 {
        cliques.push((0..=k as u32).filter(|&u| u != skip).collect());
    }
    for v in (k + 1)..n {
        let pick = rng.random_range(0..cliques.len());
        let host = cliques[pick].clone();
        for &u in &host {
            b.add_edge_u32(v as u32, u)?;
        }
        for skip in 0..k {
            let mut fresh: Vec<u32> = host
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, &u)| u)
                .collect();
            fresh.push(v as u32);
            cliques.push(fresh);
        }
    }
    Ok(b.build())
}

/// A heavy-tailed graph with **capped degeneracy**: node `v` attaches to
/// `min(v, d_v)` distinct earlier nodes chosen degree-proportionally,
/// where the back-degree `d_v` is a truncated zipf(`exponent`) draw from
/// `1..=cap`.
///
/// Every node has at most `cap` earlier neighbors, so the degeneracy — and
/// hence the arboricity — is at most `cap` by construction, while the
/// degree distribution keeps the power-law hubs of the paper's "social
/// networks and the WWW graph" motivation.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 2`, `cap == 0`, or
/// `exponent` is not finite and `> 1`.
pub fn power_law_capped(n: usize, exponent: f64, cap: usize, rng: &mut impl Rng) -> Result<Graph> {
    let mut b = GraphBuilder::new(n);
    try_power_law_capped_into(n, exponent, cap, rng, &mut b)?;
    Ok(b.build())
}

/// Streaming form of [`power_law_capped`]: emits each attachment edge
/// straight into `sink` as it is drawn (the degree-proportional endpoint
/// multiset is the construction's state, not an edge buffer). Draws
/// exactly the same random values in the same order as
/// [`power_law_capped`], so both forms produce the same graph for the
/// same `rng` state.
///
/// # Errors
///
/// Same parameter validation as [`power_law_capped`], plus sink
/// rejections.
pub fn try_power_law_capped_into(
    n: usize,
    exponent: f64,
    cap: usize,
    rng: &mut impl Rng,
    sink: &mut impl EdgeSink,
) -> Result<()> {
    if n < 2 {
        return Err(GraphError::InvalidParameter(format!(
            "power_law_capped: need n >= 2, got {n}"
        )));
    }
    if cap == 0 {
        return Err(GraphError::InvalidParameter(
            "power_law_capped: cap must be at least 1".into(),
        ));
    }
    if !(exponent.is_finite() && exponent > 1.0) {
        return Err(GraphError::InvalidParameter(format!(
            "power_law_capped: exponent must be finite and > 1, got {exponent}"
        )));
    }
    // CDF of zipf(exponent) truncated to 1..=cap.
    let weights: Vec<f64> = (1..=cap).map(|d| (d as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(cap);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    // Endpoint multiset for degree-proportional target choice (as in
    // preferential attachment), seeded so node 0 is drawable.
    let mut chances: Vec<u32> = vec![0];
    for v in 1..n {
        let u: f64 = rng.random::<f64>();
        let back = cdf.iter().position(|&c| u <= c).unwrap_or(cap - 1) + 1;
        let back = back.min(v);
        let mut targets = std::collections::HashSet::with_capacity(back);
        let mut guard = 0usize;
        while targets.len() < back {
            let t = chances[rng.random_range(0..chances.len())];
            targets.insert(t);
            guard += 1;
            if guard > 100 * back {
                for w in 0..v as u32 {
                    if targets.len() >= back {
                        break;
                    }
                    targets.insert(w);
                }
            }
        }
        // Canonicalize HashSet order so later draws are reproducible.
        let mut targets: Vec<u32> = targets.into_iter().collect();
        targets.sort_unstable();
        for t in targets {
            sink.accept_edge(v as u32, t)?;
            chances.push(t);
            chances.push(v as u32);
        }
    }
    Ok(())
}

/// A unit-disk-style geometric graph: `n` uniform points in the unit
/// square, an edge between every pair at distance ≤ `r`, with `r` chosen
/// so the expected average degree is about `avg_degree` (`πr²n ≈
/// avg_degree`, ignoring boundary effects).
///
/// The wireless-network workload: locally dense, globally sparse. Its
/// arboricity is controlled by the density knob rather than promised by
/// construction; the scenario engine measures the degeneracy of each
/// sample and parameterizes the algorithms with that.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n == 0` or `avg_degree` is
/// not finite and positive.
pub fn unit_disk(n: usize, avg_degree: f64, rng: &mut impl Rng) -> Result<Graph> {
    let mut b = GraphBuilder::new(n);
    try_unit_disk_into(n, avg_degree, rng, &mut b)?;
    Ok(b.build())
}

/// Streaming form of [`unit_disk`]: every in-radius bucket pair is
/// emitted straight into `sink` as the deterministic bucket scan finds
/// it, so nothing edge-proportional is ever buffered — the only state is
/// the `n` points and the node-proportional bucket grid. Draws exactly
/// the same random values (the `2n` coordinates) in the same order as
/// [`unit_disk`], so both forms produce the same graph for the same
/// `rng` state.
///
/// # Errors
///
/// Same parameter validation as [`unit_disk`], plus sink rejections.
pub fn try_unit_disk_into(
    n: usize,
    avg_degree: f64,
    rng: &mut impl Rng,
    sink: &mut impl EdgeSink,
) -> Result<()> {
    if n == 0 {
        return Err(GraphError::InvalidParameter(
            "unit_disk: n must be at least 1".into(),
        ));
    }
    if !(avg_degree.is_finite() && avg_degree > 0.0) {
        return Err(GraphError::InvalidParameter(format!(
            "unit_disk: avg_degree must be finite and positive, got {avg_degree}"
        )));
    }
    let r = (avg_degree / (std::f64::consts::PI * n as f64))
        .sqrt()
        .min(1.0);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
        .collect();
    // Bucket grid with cell width ≥ r: candidates are the 9 surrounding
    // cells. Cells and nodes are scanned in index order, so edge
    // enumeration is deterministic.
    let cells = ((1.0 / r).floor() as usize).clamp(1, n.max(1));
    let cell_of = |x: f64| (((x * cells as f64) as usize).min(cells - 1)) as i64;
    let mut grid: std::collections::HashMap<(i64, i64), Vec<u32>> =
        std::collections::HashMap::new();
    for (i, &(x, y)) in pts.iter().enumerate() {
        grid.entry((cell_of(x), cell_of(y)))
            .or_default()
            .push(i as u32);
    }
    let r2 = r * r;
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = (cell_of(x), cell_of(y));
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(bucket) = grid.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &j in bucket {
                    if (j as usize) <= i {
                        continue;
                    }
                    let (px, py) = pts[j as usize];
                    if (px - x) * (px - x) + (py - y) * (py - y) <= r2 {
                        sink.accept_edge(i as u32, j)?;
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{orientation, traversal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_planar_edge_budget_and_connectivity() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(n, p) in &[(100usize, 0.0), (100, 0.5), (121, 1.0), (7, 0.7)] {
            let g = random_planar(n, p, &mut rng).unwrap();
            assert_eq!(g.n(), n);
            // Planar: m ≤ 3n − 6 for n ≥ 3.
            assert!(g.m() <= 3 * n.max(3) - 6, "n={n} p={p} m={}", g.m());
            assert!(traversal::is_connected(&g), "grid+chords is connected");
            let degeneracy = orientation::degeneracy(&g);
            assert!(degeneracy <= 5, "planar degeneracy ≤ 5, got {degeneracy}");
        }
    }

    #[test]
    fn random_planar_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(22);
        assert!(matches!(
            random_planar(0, 0.5, &mut rng),
            Err(GraphError::InvalidParameter(_))
        ));
        assert!(matches!(
            random_planar(10, -0.1, &mut rng),
            Err(GraphError::InvalidParameter(_))
        ));
        assert!(matches!(
            random_planar(10, 1.5, &mut rng),
            Err(GraphError::InvalidParameter(_))
        ));
        assert!(matches!(
            random_planar(10, f64::NAN, &mut rng),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn k_tree_has_degeneracy_k() {
        let mut rng = StdRng::seed_from_u64(23);
        for k in [1usize, 2, 3, 4] {
            let g = k_tree(200, k, &mut rng).unwrap();
            assert_eq!(g.n(), 200);
            assert_eq!(g.m(), k * (k + 1) / 2 + (200 - k - 1) * k);
            let degeneracy = orientation::degeneracy(&g);
            assert_eq!(degeneracy, k, "k-tree degeneracy is exactly k");
            assert!(traversal::is_connected(&g));
        }
    }

    #[test]
    fn k_tree_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(24);
        assert!(matches!(
            k_tree(10, 0, &mut rng),
            Err(GraphError::InvalidParameter(_))
        ));
        assert!(matches!(
            k_tree(3, 3, &mut rng),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn power_law_capped_degeneracy_and_tail() {
        let mut rng = StdRng::seed_from_u64(25);
        let cap = 3;
        let g = power_law_capped(2_000, 2.5, cap, &mut rng).unwrap();
        let degeneracy = orientation::degeneracy(&g);
        assert!(degeneracy <= cap, "degeneracy {degeneracy} > cap {cap}");
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(
            g.max_degree() as f64 > 4.0 * avg,
            "expected a heavy tail: max {} vs avg {avg:.2}",
            g.max_degree()
        );
    }

    #[test]
    fn power_law_capped_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(26);
        for bad in [
            power_law_capped(1, 2.5, 3, &mut rng),
            power_law_capped(100, 2.5, 0, &mut rng),
            power_law_capped(100, 1.0, 3, &mut rng),
            power_law_capped(100, f64::INFINITY, 3, &mut rng),
        ] {
            assert!(matches!(bad, Err(GraphError::InvalidParameter(_))));
        }
    }

    #[test]
    fn unit_disk_density_tracks_knob() {
        let mut rng = StdRng::seed_from_u64(27);
        let g = unit_disk(3_000, 6.0, &mut rng).unwrap();
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        // Boundary effects push the realized average a bit under 6.
        assert!(
            (3.0..=8.0).contains(&avg),
            "average degree {avg:.2} far from the 6.0 target"
        );
    }

    #[test]
    fn unit_disk_edges_respect_radius_symmetry() {
        // The bucket scan must find exactly the pairs a brute-force scan
        // finds.
        let mut rng = StdRng::seed_from_u64(28);
        let g = unit_disk(300, 5.0, &mut rng).unwrap();
        let mut rng2 = StdRng::seed_from_u64(28);
        let r = (5.0 / (std::f64::consts::PI * 300.0)).sqrt();
        let pts: Vec<(f64, f64)> = (0..300)
            .map(|_| (rng2.random::<f64>(), rng2.random::<f64>()))
            .collect();
        let mut brute = 0usize;
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                if dx * dx + dy * dy <= r * r {
                    brute += 1;
                }
            }
        }
        assert_eq!(g.m(), brute);
    }

    #[test]
    fn unit_disk_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(29);
        for bad in [
            unit_disk(0, 5.0, &mut rng),
            unit_disk(100, 0.0, &mut rng),
            unit_disk(100, f64::NAN, &mut rng),
        ] {
            assert!(matches!(bad, Err(GraphError::InvalidParameter(_))));
        }
    }
}
