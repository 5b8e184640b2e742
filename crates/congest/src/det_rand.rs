//! Deterministic, coordinate-addressable randomness.
//!
//! Randomized node programs cannot carry a stateful RNG if runs at every
//! thread count and shard size — and the centralized reference
//! implementations in `arbodom-core` — are to agree bit-for-bit. Instead, every random draw is
//! a pure function of `(seed, coordinates…)`: typically
//! `(seed, node, phase, iteration)`. This is the classic counter-based RNG
//! design; the mixer is SplitMix64, whose avalanche behaviour is more than
//! adequate for simulation (not cryptography).

/// SplitMix64 finalizer: a 64-bit mixing permutation.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Hashes a seed together with a coordinate vector into one 64-bit value.
///
/// Distinct coordinate vectors give independent-looking outputs; the fold is
/// not commutative, so `[1, 2]` and `[2, 1]` differ.
pub fn stream(seed: u64, coords: &[u64]) -> u64 {
    let mut h = mix64(seed ^ 0xd6e8feb86659fd93);
    for (i, &c) in coords.iter().enumerate() {
        h = mix64(h ^ c.wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1)));
    }
    h
}

/// Maps a hash to a uniform `f64` in `[0, 1)` using the top 53 bits.
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A Bernoulli draw with success probability `p`, addressed by coordinates.
pub fn bernoulli(seed: u64, coords: &[u64], p: f64) -> bool {
    unit_f64(stream(seed, coords)) < p
}

/// A uniform draw from `0..bound`, addressed by coordinates.
///
/// # Panics
///
/// Panics if `bound == 0`.
pub fn uniform(seed: u64, coords: &[u64], bound: u64) -> u64 {
    assert!(bound > 0, "bound must be positive");
    // Multiply-shift; bias is ≤ bound/2⁶⁴, irrelevant at simulation scale.
    ((u128::from(stream(seed, coords)) * u128::from(bound)) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_not_identity_and_deterministic() {
        assert_ne!(mix64(0), 0);
        assert_eq!(mix64(12345), mix64(12345));
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn stream_order_sensitive() {
        assert_ne!(stream(7, &[1, 2]), stream(7, &[2, 1]));
        assert_ne!(stream(7, &[1]), stream(8, &[1]));
        assert_eq!(stream(7, &[1, 2, 3]), stream(7, &[1, 2, 3]));
    }

    #[test]
    fn unit_f64_in_range() {
        for i in 0..1000u64 {
            let u = unit_f64(stream(3, &[i]));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn bernoulli_rate_close_to_p() {
        let trials = 20_000u64;
        for &p in &[0.1f64, 0.5, 0.9] {
            let hits = (0..trials).filter(|&i| bernoulli(11, &[i], p)).count() as f64;
            let rate = hits / trials as f64;
            assert!((rate - p).abs() < 0.02, "p={p}, rate={rate}");
        }
    }

    #[test]
    fn bernoulli_extremes() {
        assert!(!bernoulli(1, &[1], 0.0));
        assert!(bernoulli(1, &[1], 1.0));
    }

    #[test]
    fn uniform_in_bounds_and_covers() {
        let mut seen = [false; 10];
        for i in 0..1000u64 {
            let v = uniform(5, &[i], 10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    proptest::proptest! {
        #[test]
        fn uniform_always_below_bound(seed: u64, c: u64, bound in 1u64..1_000_000) {
            proptest::prop_assert!(uniform(seed, &[c], bound) < bound);
        }
    }
}
