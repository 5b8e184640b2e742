//! Classic random graph families.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{EdgeSink, Graph, GraphBuilder, GraphError, Result};

/// Erdős–Rényi `G(n, p)`: every pair is an edge independently with
/// probability `p`.
///
/// Uses geometric edge skipping, so the running time is `O(n + m)` rather
/// than `O(n²)` for sparse graphs.
///
/// # Panics
///
/// Panics where [`try_gnp`] errors.
pub fn gnp(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    try_gnp(n, p, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`gnp`]: validates parameters instead of panicking.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is NaN or outside
/// `[0, 1]`.
pub fn try_gnp(n: usize, p: f64, rng: &mut impl Rng) -> Result<Graph> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter(format!(
            "gnp: p must be in [0, 1], got {p}"
        )));
    }
    let mut b = GraphBuilder::new(n);
    if p == 0.0 || n < 2 {
        return Ok(b.build());
    }
    if p == 1.0 {
        return Ok(super::complete(n));
    }
    // Iterate over pair ranks 0..n(n-1)/2 with geometric skips.
    let total = n as u64 * (n as u64 - 1) / 2;
    let log_q = (1.0 - p).ln();
    let mut rank: u64 = 0;
    let mut first = true;
    loop {
        let u: f64 = rng.random::<f64>();
        // Number of failures before the next success in a Bernoulli(p) stream.
        let skip = if u <= 0.0 {
            0
        } else {
            (u.ln() / log_q).floor() as u64
        };
        rank = if first { skip } else { rank + 1 + skip };
        first = false;
        if rank >= total {
            break;
        }
        let (i, j) = pair_from_rank(rank, n as u64);
        b.add_edge_u32(i as u32, j as u32)
            .expect("gnp edges are valid");
    }
    Ok(b.build())
}

/// Maps a rank in `0..n(n-1)/2` to the corresponding unordered pair `(i, j)`
/// with `i < j`, ordering pairs row by row.
fn pair_from_rank(rank: u64, n: u64) -> (u64, u64) {
    // Row i owns (n-1-i) pairs; find i by solving the prefix sum.
    // prefix(i) = i*n - i(i+1)/2.
    let mut lo = 0u64;
    let mut hi = n - 1;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let prefix = mid * n - mid * (mid + 1) / 2;
        if prefix <= rank {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let i = lo;
    let prefix = i * n - i * (i + 1) / 2;
    let j = i + 1 + (rank - prefix);
    (i, j)
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges drawn uniformly.
///
/// # Panics
///
/// Panics where [`try_gnm`] errors.
pub fn gnm(n: usize, m: usize, rng: &mut impl Rng) -> Graph {
    try_gnm(n, m, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`gnm`]: validates parameters instead of panicking.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m` exceeds the number of
/// node pairs `n(n−1)/2`.
pub fn try_gnm(n: usize, m: usize, rng: &mut impl Rng) -> Result<Graph> {
    let total = if n < 2 {
        0
    } else {
        n as u64 * (n as u64 - 1) / 2
    };
    if m as u64 > total {
        return Err(GraphError::InvalidParameter(format!(
            "gnm: m exceeds the number of node pairs, got m = {m}, max = {total}"
        )));
    }
    let mut b = GraphBuilder::new(n);
    if m == 0 {
        return Ok(b.build());
    }
    // Floyd's algorithm for sampling m distinct ranks.
    let mut chosen = std::collections::HashSet::with_capacity(m);
    for t in (total - m as u64)..total {
        let r = rng.random_range(0..=t);
        let rank = if chosen.contains(&r) { t } else { r };
        chosen.insert(rank);
        let (i, j) = pair_from_rank(rank, n as u64);
        b.add_edge_u32(i as u32, j as u32)
            .expect("gnm edges are valid");
    }
    Ok(b.build())
}

/// A uniformly random labelled tree on `n` nodes via a Prüfer sequence
/// (arboricity 1).
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Graph {
    let mut b = GraphBuilder::new(n);
    try_random_tree_into(n, rng, &mut b).expect("tree edges are valid");
    b.build()
}

/// Streaming form of [`random_tree`]: emits the tree's `n − 1` edges
/// straight into `sink` (in Prüfer-elimination order) without building an
/// intermediate graph. Draws exactly the same random values as
/// [`random_tree`], so for the same `rng` state both produce the same
/// edge *set*.
///
/// Runs in `O(n)` time with 12 bytes of state per node (the `usize`
/// sequence and the `u32` degrees). The decode removes the smallest leaf
/// at every step: a forward pointer finds the smallest original leaf,
/// and a node that becomes a leaf below the pointer is taken at once. So
/// it emits the same edge sequence as an `O(n log n)` min-heap decoder,
/// which the tests keep as the reference.
///
/// # Errors
///
/// Propagates sink rejections (a [`GraphBuilder`] sink of at least `n`
/// nodes never rejects tree edges).
pub fn try_random_tree_into(n: usize, rng: &mut impl Rng, sink: &mut impl EdgeSink) -> Result<()> {
    if n < 2 {
        return Ok(());
    }
    if n == 2 {
        return sink.accept_edge(0, 1);
    }
    let seq: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1u32; n];
    for &s in &seq {
        degree[s] += 1;
    }
    // Every leaf below `ptr` is already removed, except `leaf` itself.
    // Node n − 1 is never the smallest of a tree's ≥ 2 leaves, so it is
    // one end of the last edge and bounds every scan.
    let mut ptr = degree
        .iter()
        .position(|&d| d == 1)
        .expect("a leaf always exists");
    let mut leaf = ptr;
    for &s in &seq {
        sink.accept_edge(leaf as u32, s as u32)?;
        degree[s] -= 1;
        if degree[s] == 1 && s < ptr {
            leaf = s;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    sink.accept_edge(leaf as u32, (n - 1) as u32)
}

/// A random `d`-regular multigraph flattened to a simple graph, via the
/// configuration model with up to 100 restarts; falls back to dropping the
/// conflicting stubs if no perfect matching of stubs is found.
///
/// For `n·d` even and `d ≪ n` the result is `d`-regular with high
/// probability; otherwise some nodes may have degree less than `d`.
///
/// # Panics
///
/// Panics where [`try_random_regular`] errors.
pub fn random_regular(n: usize, d: usize, rng: &mut impl Rng) -> Graph {
    try_random_regular(n, d, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`random_regular`]: validates parameters instead of
/// panicking.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n·d` is odd (no d-regular
/// graph exists) or `d >= n`.
pub fn try_random_regular(n: usize, d: usize, rng: &mut impl Rng) -> Result<Graph> {
    if n * d % 2 != 0 {
        return Err(GraphError::InvalidParameter(format!(
            "random_regular: n*d must be even, got n = {n}, d = {d}"
        )));
    }
    if d >= n {
        return Err(GraphError::InvalidParameter(format!(
            "random_regular: need d < n, got n = {n}, d = {d}"
        )));
    }
    for _attempt in 0..100 {
        let mut stubs: Vec<u32> = (0..n as u32)
            .flat_map(|v| std::iter::repeat_n(v, d))
            .collect();
        stubs.shuffle(rng);
        let mut ok = true;
        let mut seen = std::collections::HashSet::with_capacity(n * d / 2);
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v || !seen.insert((u.min(v), u.max(v))) {
                ok = false;
                break;
            }
        }
        if ok {
            let mut b = GraphBuilder::new(n);
            for pair in stubs.chunks_exact(2) {
                b.add_edge_u32(pair[0], pair[1])
                    .expect("regular edges are valid");
            }
            return Ok(b.build());
        }
    }
    // Fallback: keep the simple edges of one more pairing.
    let mut stubs: Vec<u32> = (0..n as u32)
        .flat_map(|v| std::iter::repeat_n(v, d))
        .collect();
    stubs.shuffle(rng);
    let mut b = GraphBuilder::new(n);
    for pair in stubs.chunks_exact(2) {
        if pair[0] != pair[1] {
            b.add_edge_u32(pair[0], pair[1])
                .expect("regular edges are valid");
        }
    }
    Ok(b.build())
}

/// A random bipartite graph: sides `0..a` and `a..a+b`, each cross pair an
/// edge independently with probability `p`.
///
/// # Panics
///
/// Panics where [`try_bipartite_random`] errors.
pub fn bipartite_random(a: usize, b: usize, p: f64, rng: &mut impl Rng) -> Graph {
    try_bipartite_random(a, b, p, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`bipartite_random`]: validates parameters instead of
/// panicking.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is NaN or outside
/// `[0, 1]`.
pub fn try_bipartite_random(a: usize, b: usize, p: f64, rng: &mut impl Rng) -> Result<Graph> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter(format!(
            "bipartite_random: p must be in [0, 1], got {p}"
        )));
    }
    let mut builder = GraphBuilder::new(a + b);
    for u in 0..a as u32 {
        for v in a as u32..(a + b) as u32 {
            if rng.random_bool(p) {
                builder
                    .add_edge_u32(u, v)
                    .expect("bipartite edges are valid");
            }
        }
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pair_rank_roundtrip() {
        let n = 7u64;
        let mut seen = std::collections::HashSet::new();
        for rank in 0..(n * (n - 1) / 2) {
            let (i, j) = pair_from_rank(rank, n);
            assert!(i < j && j < n, "bad pair ({i},{j}) at rank {rank}");
            assert!(seen.insert((i, j)));
        }
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(gnp(50, 0.0, &mut rng).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).m(), 45);
    }

    #[test]
    fn gnp_density_is_plausible() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 400;
        let p = 0.05;
        let g = gnp(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.m() as f64;
        assert!(
            (got - expected).abs() < 0.2 * expected,
            "got {got}, expected about {expected}"
        );
    }

    #[test]
    fn gnm_exact_edge_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gnm(100, 250, &mut rng);
        assert_eq!(g.m(), 250);
        let g = gnm(5, 10, &mut rng);
        assert_eq!(g.m(), 10); // complete K5
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [2usize, 3, 10, 100, 1000] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.m(), n - 1, "tree on {n} nodes must have n-1 edges");
            assert!(
                traversal::is_connected(&g),
                "tree on {n} nodes must be connected"
            );
        }
    }

    /// The `O(n log n)` min-heap Prüfer decoder that
    /// [`try_random_tree_into`] replaced: the reference its linear decode
    /// must match edge for edge.
    fn heap_random_tree_into(n: usize, rng: &mut impl Rng, sink: &mut impl EdgeSink) -> Result<()> {
        use std::cmp::Reverse;
        if n < 2 {
            return Ok(());
        }
        if n == 2 {
            return sink.accept_edge(0, 1);
        }
        let seq: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
        let mut degree = vec![1u32; n];
        for &s in &seq {
            degree[s] += 1;
        }
        let mut heap: std::collections::BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&v| degree[v] == 1).map(Reverse).collect();
        for &s in &seq {
            let Reverse(leaf) = heap.pop().expect("a leaf always exists");
            sink.accept_edge(leaf as u32, s as u32)?;
            degree[s] -= 1;
            if degree[s] == 1 {
                heap.push(Reverse(s));
            }
        }
        let Reverse(u) = heap.pop().expect("two nodes remain");
        let Reverse(v) = heap.pop().expect("two nodes remain");
        sink.accept_edge(u as u32, v as u32)
    }

    /// Collects the emitted edges in order.
    struct EdgeLog(Vec<(u32, u32)>);

    impl EdgeSink for EdgeLog {
        fn accept_edge(&mut self, u: u32, v: u32) -> Result<()> {
            self.0.push((u, v));
            Ok(())
        }
    }

    #[test]
    fn linear_prufer_decode_matches_heap_decoder() {
        let sizes = (0..300usize)
            .chain([1000, 4096])
            .map(|n| (n, 40u64))
            .chain([(65_537, 3)]);
        for (n, seeds) in sizes {
            for seed in 0..seeds {
                let mut fast_rng = StdRng::seed_from_u64(seed);
                let mut fast = EdgeLog(Vec::new());
                try_random_tree_into(n, &mut fast_rng, &mut fast).unwrap();
                let mut heap_rng = StdRng::seed_from_u64(seed);
                let mut heap = EdgeLog(Vec::new());
                heap_random_tree_into(n, &mut heap_rng, &mut heap).unwrap();
                assert_eq!(fast.0, heap.0, "edge sequence, n = {n}, seed = {seed}");
                assert_eq!(
                    format!("{fast_rng:?}"),
                    format!("{heap_rng:?}"),
                    "rng state after the build, n = {n}, seed = {seed}"
                );
            }
        }
    }

    #[test]
    fn random_regular_degrees() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_regular(60, 4, &mut rng);
        assert_eq!(g.n(), 60);
        // The configuration model with restarts almost surely produced a
        // simple 4-regular graph at this size.
        let deg4 = g.nodes().filter(|&v| g.degree(v) == 4).count();
        assert!(
            deg4 >= 58,
            "expected almost all nodes 4-regular, got {deg4}"
        );
    }

    #[test]
    fn bipartite_random_is_bipartite() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = bipartite_random(20, 30, 0.2, &mut rng);
        for u in 0..20u32 {
            for v in g.neighbors(crate::NodeId::new(u)) {
                assert!(v.get() >= 20);
            }
        }
    }

    #[test]
    fn random_generators_reject_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(7);
        for bad in [
            try_gnp(10, -0.5, &mut rng),
            try_gnp(10, 1.5, &mut rng),
            try_gnp(10, f64::NAN, &mut rng),
            try_gnm(5, 11, &mut rng),
            try_gnm(1, 1, &mut rng),
            try_random_regular(5, 3, &mut rng),
            try_random_regular(4, 4, &mut rng),
            try_bipartite_random(3, 4, 2.0, &mut rng),
        ] {
            assert!(
                matches!(bad, Err(GraphError::InvalidParameter(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn generators_are_reproducible() {
        let g1 = gnp(200, 0.03, &mut StdRng::seed_from_u64(42));
        let g2 = gnp(200, 0.03, &mut StdRng::seed_from_u64(42));
        assert_eq!(g1, g2);
        let t1 = random_tree(500, &mut StdRng::seed_from_u64(9));
        let t2 = random_tree(500, &mut StdRng::seed_from_u64(9));
        assert_eq!(t1, t2);
    }
}
