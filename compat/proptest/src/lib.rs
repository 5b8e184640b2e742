//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! Supports the API subset the workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(..)]`, `pat in strategy`
//! bindings, and `name: Type` arbitrary bindings), range and tuple
//! strategies, [`strategy::Strategy::prop_map`], `prop::bool::ANY`, and the
//! `prop_assert!`/`prop_assert_eq!` macros.
//!
//! Differences from the real crate: inputs are sampled from a fixed
//! deterministic stream (reproducible across runs and platforms), and
//! failing cases are reported but **not shrunk**. That trades minimal
//! counterexamples for a zero-dependency implementation that runs in the
//! no-network build environment.

#![forbid(unsafe_code)]

/// Test-runner configuration and error types.
pub mod test_runner {
    use std::fmt;

    /// How many cases each property runs, mirroring
    /// `proptest::test_runner::Config`.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of sampled cases per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// A failed property case.
    #[derive(Clone, Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Constructs a failure with the given message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Result type property bodies evaluate to.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// The deterministic generator strategies draw from (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator for one test case, keyed by the property's name and
        /// the case index so distinct properties draw distinct streams.
        pub fn for_case(property: &str, case: u64) -> Self {
            // FNV-1a over the property name, folded with the case index.
            let mut h = 0xcbf29ce484222325u64;
            for b in property.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
            }
            TestRng {
                state: h ^ case.wrapping_mul(0x9e3779b97f4a7c15) ^ 0xa5a5_5a5a_dead_beef,
            }
        }

        /// Next uniform 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        /// Uniform draw below `bound` (must be positive).
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Value-producing strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_range_strategy_int {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    self.start + rng.below((self.end - self.start) as u64) as $t
                }
            }
        )*};
    }

    impl_range_strategy_int!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (S0.0, S1.1)
        (S0.0, S1.1, S2.2)
        (S0.0, S1.1, S2.2, S3.3)
        (S0.0, S1.1, S2.2, S3.3, S4.4)
    }
}

/// Boolean strategies, reachable as `prop::bool::ANY`.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `true`/`false` with equal probability.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The canonical boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Type-driven generation for `name: Type` bindings in [`proptest!`].
pub mod arbitrary {
    use crate::test_runner::TestRng;

    /// Types with a canonical full-range generation strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite and sign-balanced.
            rng.unit_f64() * 2e9 - 1e9
        }
    }
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::Arbitrary;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares property tests: each function runs `cases` times over freshly
/// sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::Config::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr); ) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($args:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            for __case in 0..u64::from(__config.cases) {
                let mut __rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), __case);
                $crate::__proptest_bind! { __rng; $($args)* }
                let __result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(__e) = __result {
                    panic!("proptest: case {} of {} failed: {}", __case, stringify!($name), __e);
                }
            }
        }
        $crate::__proptest_fns! { ($cfg); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident; ) => {};
    ($rng:ident; $var:ident : $ty:ty $(, $($rest:tt)*)?) => {
        let $var = <$ty as $crate::arbitrary::Arbitrary>::arbitrary(&mut $rng);
        $crate::__proptest_bind! { $rng; $($($rest)*)? }
    };
    ($rng:ident; $pat:pat in $strat:expr $(, $($rest:tt)*)?) => {
        let $pat = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind! { $rng; $($($rest)*)? }
    };
}

/// Asserts a condition inside a property body, failing the case (not the
/// whole process) on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: {} == {} (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l == *__r, $($fmt)+);
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: {} != {} (both: {:?})",
            stringify!($left),
            stringify!($right),
            __l
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn doubled() -> impl Strategy<Value = u64> {
        (1u64..100).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(a in 10usize..20, f in 0.0f64..1.0, b: bool) {
            prop_assert!((10..20).contains(&a));
            prop_assert!((0.0..1.0).contains(&f));
            let _ = b;
        }

        #[test]
        fn tuples_and_map((x, y) in (0u32..5, 0u32..5), d in doubled()) {
            prop_assert!(x < 5 && y < 5);
            prop_assert_eq!(d % 2, 0);
            prop_assert_ne!(d, 1);
        }

        #[test]
        fn bool_any_generates(flag in prop::bool::ANY) {
            let _ = flag;
            prop_assert!(true);
        }
    }

    #[test]
    fn failing_case_panics() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(4))]
                fn always_fails(x in 0u32..10) {
                    prop_assert!(x > 100, "x was {}", x);
                }
            }
            always_fails();
        });
        assert!(result.is_err());
    }
}
