//! Node-weight models for weighted MDS experiments.
//!
//! The paper assumes positive integer weights bounded by `n^c`; every model
//! here respects that.

use rand::Rng;

use crate::{Graph, NodeId};

/// A distribution over node weights.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum WeightModel {
    /// All weights 1 (the unweighted problem of Section 3).
    Unit,
    /// Uniform integers in `[lo, hi]`.
    Uniform {
        /// Smallest weight (must be ≥ 1).
        lo: u64,
        /// Largest weight.
        hi: u64,
    },
    /// Powers of two `2^0 .. 2^max_exp`, exponent uniform — a heavy-tailed
    /// model where greedy weight mistakes are expensive.
    Exponential {
        /// Largest exponent.
        max_exp: u32,
    },
    /// `1 + degree(v)` — models "big hubs are expensive", penalizing the
    /// trivial strategy of buying high-degree nodes.
    DegreeCorrelated,
    /// `1 + Δ − degree(v)` — models "big hubs are cheap", the easy case.
    InverseDegree,
}

impl WeightModel {
    /// Assigns weights drawn from this model to a copy of `g`.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniform` model has `lo == 0` or `lo > hi`.
    pub fn assign(self, g: &Graph, rng: &mut impl Rng) -> Graph {
        let n = g.n();
        let weights: Vec<u64> = match self {
            WeightModel::Unit => vec![1; n],
            WeightModel::Uniform { lo, hi } => {
                assert!(lo >= 1 && lo <= hi, "need 1 <= lo <= hi");
                (0..n).map(|_| rng.random_range(lo..=hi)).collect()
            }
            WeightModel::Exponential { max_exp } => (0..n)
                .map(|_| 1u64 << rng.random_range(0..=max_exp))
                .collect(),
            WeightModel::DegreeCorrelated => (0..n)
                .map(|v| 1 + g.degree(NodeId::from_index(v)) as u64)
                .collect(),
            WeightModel::InverseDegree => {
                let delta = g.max_degree() as u64;
                (0..n)
                    .map(|v| 1 + delta - g.degree(NodeId::from_index(v)) as u64)
                    .collect()
            }
        };
        g.with_weights(weights)
            .expect("weight models produce valid weights")
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            WeightModel::Unit => "unit",
            WeightModel::Uniform { .. } => "uniform",
            WeightModel::Exponential { .. } => "exp2",
            WeightModel::DegreeCorrelated => "deg",
            WeightModel::InverseDegree => "invdeg",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_models_produce_positive_weights() {
        let mut rng = StdRng::seed_from_u64(51);
        let g = generators::gnp(100, 0.05, &mut rng);
        for model in [
            WeightModel::Unit,
            WeightModel::Uniform { lo: 1, hi: 100 },
            WeightModel::Exponential { max_exp: 10 },
            WeightModel::DegreeCorrelated,
            WeightModel::InverseDegree,
        ] {
            let wg = model.assign(&g, &mut rng);
            assert!(wg.weights_vec().iter().all(|&w| w >= 1), "{model:?}");
            assert_eq!(wg.n(), g.n());
            assert_eq!(wg.m(), g.m());
        }
    }

    #[test]
    fn unit_model_is_unit() {
        let mut rng = StdRng::seed_from_u64(52);
        let g = generators::path(10);
        assert!(WeightModel::Unit.assign(&g, &mut rng).is_unit_weighted());
    }

    #[test]
    fn degree_correlated_matches_degrees() {
        let mut rng = StdRng::seed_from_u64(53);
        let g = generators::star(6);
        let wg = WeightModel::DegreeCorrelated.assign(&g, &mut rng);
        assert_eq!(wg.weight(NodeId::new(0)), 6); // hub degree 5
        assert_eq!(wg.weight(NodeId::new(1)), 2);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = StdRng::seed_from_u64(54);
        let g = generators::path(50);
        let wg = WeightModel::Uniform { lo: 5, hi: 9 }.assign(&g, &mut rng);
        assert!(wg.weights_vec().iter().all(|&w| (5..=9).contains(&w)));
    }

    #[test]
    fn labels_distinct() {
        let labels = [
            WeightModel::Unit.label(),
            WeightModel::Uniform { lo: 1, hi: 2 }.label(),
            WeightModel::Exponential { max_exp: 3 }.label(),
            WeightModel::DegreeCorrelated.label(),
            WeightModel::InverseDegree.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
