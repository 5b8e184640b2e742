//! Exact minimum *weighted* dominating set on forests in `O(n)`.
//!
//! The classic three-state dynamic program:
//!
//! * state 0 — `v` is in the set;
//! * state 1 — `v` is not in the set but dominated by a child;
//! * state 2 — `v` is not in the set and not yet dominated (its parent
//!   must join).
//!
//! Ground truth for the α = 1 experiments (Observation A.1) at any scale.

use arbodom_graph::{Graph, NodeId};

const INF: u64 = u64::MAX / 4;

/// An exact solution on a forest.
#[derive(Clone, Debug)]
pub struct TreeSolution {
    /// Membership flags of an optimal dominating set.
    pub in_ds: Vec<bool>,
    /// The optimal weight.
    pub weight: u64,
    /// Number of nodes in the set.
    pub size: usize,
}

/// Solves weighted MDS exactly on a forest. Returns `None` if `g` contains
/// a cycle: in `O(1)` when `m ≥ n` (a forest on `n ≥ 1` nodes has at most
/// `n − 1` edges), otherwise once the DFS has counted the components and
/// found `m + components ≠ n`.
pub fn solve(g: &Graph) -> Option<TreeSolution> {
    let n = g.n();
    if n == 0 {
        return Some(TreeSolution {
            in_ds: Vec::new(),
            weight: 0,
            size: 0,
        });
    }
    if g.m() >= n {
        return None; // too many edges for a forest
    }
    let mut dp = vec![[INF; 3]; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n); // DFS preorder
    let mut visited = vec![false; n];
    let mut stack = Vec::new();
    let mut components = 0;
    for root in g.nodes() {
        if visited[root.index()] {
            continue;
        }
        components += 1;
        // Iterative DFS to get a preorder; children processed in reverse
        // gives a valid postorder when iterated backwards.
        stack.push(root);
        visited[root.index()] = true;
        while let Some(v) = stack.pop() {
            order.push(v);
            for &u in g.neighbors(v) {
                if !visited[u.index()] {
                    visited[u.index()] = true;
                    parent[u.index()] = Some(v);
                    stack.push(u);
                }
            }
        }
    }
    if g.m() + components != n {
        return None; // not a forest
    }
    // One child buffer, refilled for each node in both passes below.
    let mut children: Vec<NodeId> = Vec::new();
    let fill_children = |v: NodeId, buf: &mut Vec<NodeId>| {
        buf.clear();
        buf.extend(
            g.neighbors(v)
                .iter()
                .filter(|u| parent[u.index()] == Some(v)),
        );
    };
    // Postorder = reverse preorder (parents appear before children in
    // `order`).
    for &v in order.iter().rev() {
        let vi = v.index();
        fill_children(v, &mut children);
        let mut s0 = g.weight(v);
        let mut s12 = 0u64; // Σ min(dp[c][0], dp[c][1])
        let mut any_child_in = false;
        let mut min_flip = INF; // min dp[c][0] − min(dp[c][0], dp[c][1])
        for &c in &children {
            let ci = c.index();
            s0 = s0.saturating_add(dp[ci][0].min(dp[ci][1]).min(dp[ci][2]));
            let m01 = dp[ci][0].min(dp[ci][1]);
            s12 = s12.saturating_add(m01);
            if dp[ci][0] <= dp[ci][1] {
                any_child_in = true;
            } else {
                min_flip = min_flip.min(dp[ci][0] - m01);
            }
        }
        dp[vi][0] = s0;
        dp[vi][1] = if children.is_empty() {
            INF
        } else if any_child_in {
            s12
        } else {
            s12.saturating_add(min_flip)
        };
        dp[vi][2] = s12; // for leaves: 0
    }
    // Top-down reconstruction.
    let mut state = vec![u8::MAX; n];
    let mut in_ds = vec![false; n];
    for &v in &order {
        let vi = v.index();
        if parent[vi].is_none() {
            state[vi] = if dp[vi][0] <= dp[vi][1] { 0 } else { 1 };
        }
        fill_children(v, &mut children);
        match state[vi] {
            0 => {
                in_ds[vi] = true;
                for &c in &children {
                    let ci = c.index();
                    // Prefer the cheapest; ties favor lower state index.
                    let best = dp[ci][0].min(dp[ci][1]).min(dp[ci][2]);
                    state[ci] = if dp[ci][0] == best {
                        0
                    } else if dp[ci][1] == best {
                        1
                    } else {
                        2
                    };
                }
            }
            1 => {
                // Children pick min(0, 1) with 0 preferred on ties; if none
                // picked 0, flip the cheapest-to-flip child.
                let mut any_in = false;
                for &c in &children {
                    let ci = c.index();
                    state[ci] = if dp[ci][0] <= dp[ci][1] { 0 } else { 1 };
                    any_in |= state[ci] == 0;
                }
                if !any_in {
                    let flip = children
                        .iter()
                        .min_by_key(|c| dp[c.index()][0] - dp[c.index()][0].min(dp[c.index()][1]))
                        .copied()
                        .expect("state 1 requires children");
                    state[flip.index()] = 0;
                }
            }
            2 => {
                for &c in &children {
                    let ci = c.index();
                    state[ci] = if dp[ci][0] <= dp[ci][1] { 0 } else { 1 };
                }
            }
            _ => unreachable!("every node is assigned a state before its children"),
        }
    }
    let weight = g
        .nodes()
        .filter(|v| in_ds[v.index()])
        .map(|v| g.weight(v))
        .sum();
    let size = in_ds.iter().filter(|&&b| b).count();
    Some(TreeSolution {
        in_ds,
        weight,
        size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbodom_core::verify;
    use arbodom_graph::{generators, weights::WeightModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_cycles() {
        assert!(solve(&generators::cycle(5)).is_none());
    }

    #[test]
    fn rejects_cycles_with_fewer_edges_than_nodes() {
        // A triangle plus two isolated nodes: m = 3 < n = 5, so only the
        // component count can expose the cycle.
        let g = arbodom_graph::Graph::from_edges(5, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(g.m() < g.n());
        assert!(solve(&g).is_none());
    }

    #[test]
    fn matches_exact_on_small_weighted_trees() {
        let mut rng = StdRng::seed_from_u64(251);
        for _ in 0..20 {
            let g = generators::random_tree(18, &mut rng);
            let g = WeightModel::Uniform { lo: 1, hi: 9 }.assign(&g, &mut rng);
            let dp = solve(&g).expect("tree");
            let bb = crate::exact::solve(&g).expect("small");
            assert_eq!(dp.weight, bb.weight, "DP and branch-and-bound disagree");
            assert!(verify::is_dominating_set(&g, &dp.in_ds));
        }
    }

    #[test]
    fn matches_exact_on_forests() {
        let mut rng = StdRng::seed_from_u64(252);
        // A forest: two trees plus isolated nodes.
        let mut b = arbodom_graph::Graph::builder(25);
        let t1 = generators::random_tree(10, &mut rng);
        for (u, v) in t1.edges() {
            b.add_edge(u, v).unwrap();
        }
        let t2 = generators::random_tree(10, &mut rng);
        for (u, v) in t2.edges() {
            b.add_edge_u32(u.get() + 10, v.get() + 10).unwrap();
        }
        let g = b.build();
        let dp = solve(&g).expect("forest");
        let bb = crate::exact::solve(&g).expect("small");
        assert_eq!(dp.weight, bb.weight);
    }

    #[test]
    fn known_path_optima() {
        for n in [1usize, 2, 3, 4, 5, 6, 9, 10] {
            let g = generators::path(n);
            let dp = solve(&g).unwrap();
            assert_eq!(dp.weight as usize, n.div_ceil(3), "P_{n}");
        }
    }

    #[test]
    fn star_picks_hub() {
        let g = generators::star(40);
        let dp = solve(&g).unwrap();
        assert_eq!(dp.weight, 1);
        assert!(dp.in_ds[0]);
    }

    #[test]
    fn large_tree_scales() {
        let mut rng = StdRng::seed_from_u64(253);
        let g = generators::random_tree(100_000, &mut rng);
        let dp = solve(&g).expect("tree");
        assert!(verify::is_dominating_set(&g, &dp.in_ds));
        assert!(dp.size < 100_000 / 2);
    }

    #[test]
    fn expensive_spine_avoided() {
        // Caterpillar where spine nodes are expensive: optimal still buys
        // the spine if legs are numerous, but the DP must verify against
        // branch and bound regardless of weights.
        let mut rng = StdRng::seed_from_u64(254);
        let g = generators::caterpillar(5, 3);
        let g = WeightModel::DegreeCorrelated.assign(&g, &mut rng);
        let dp = solve(&g).unwrap();
        let bb = crate::exact::solve(&g).unwrap();
        assert_eq!(dp.weight, bb.weight);
    }
}
