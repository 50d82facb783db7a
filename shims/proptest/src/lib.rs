//! Minimal in-tree stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this shim implements the
//! slice of proptest the workspace's property tests use:
//!
//! - the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header and
//!   `binding in strategy` arguments,
//! - strategies: integer/float ranges, `any::<T>()`, tuples,
//!   [`collection::vec`], and [`bool::ANY`],
//! - `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`.
//!
//! There is no shrinking: a failing case panics with the generated inputs in
//! the message instead of a minimized counterexample. Generation is
//! deterministic per test name, so failures reproduce across runs.

pub mod strategy {
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A source of generated values (proptest's `Strategy`, sans shrinking).
    pub trait Strategy {
        type Value: std::fmt::Debug + Clone;
        fn generate(&self, rng: &mut SmallRng) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut SmallRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy that always yields a fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: std::fmt::Debug + Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut SmallRng) -> T {
            self.0.clone()
        }
    }

    /// Types with a canonical "any value" strategy.
    pub trait AnyValue: std::fmt::Debug + Clone {
        fn any_value(rng: &mut SmallRng) -> Self;
    }

    /// The `any::<T>()` strategy: uniform over the domain with a bias toward
    /// boundary values (zero/one/MAX), which is where codec bugs live.
    pub struct Any<T>(PhantomData<T>);

    pub fn any<T: AnyValue>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: AnyValue> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut SmallRng) -> T {
            T::any_value(rng)
        }
    }

    macro_rules! impl_any_uint {
        ($($t:ty),*) => {$(
            impl AnyValue for $t {
                fn any_value(rng: &mut SmallRng) -> $t {
                    if rng.gen_range(0u32..16) == 0 {
                        *[0 as $t, 1 as $t, <$t>::MAX]
                            .get(rng.gen_range(0usize..3))
                            .unwrap()
                    } else {
                        rng.gen::<$t>()
                    }
                }
            }
        )*};
    }
    impl_any_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl AnyValue for u128 {
        fn any_value(rng: &mut SmallRng) -> u128 {
            if rng.gen_range(0u32..16) == 0 {
                [0u128, 1, u128::MAX][rng.gen_range(0usize..3)]
            } else {
                rng.gen::<u128>()
            }
        }
    }

    impl AnyValue for bool {
        fn any_value(rng: &mut SmallRng) -> bool {
            rng.gen::<bool>()
        }
    }

    impl AnyValue for f64 {
        fn any_value(rng: &mut SmallRng) -> f64 {
            rng.gen::<f64>()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut SmallRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut SmallRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut SmallRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    impl Strategy for Range<u128> {
        type Value = u128;
        fn generate(&self, rng: &mut SmallRng) -> u128 {
            assert!(self.start < self.end);
            let span = self.end - self.start;
            self.start + rng.gen::<u128>() % span
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($n:tt $S:ident),+))*) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                    ($(self.$n.generate(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (0 S0)
        (0 S0, 1 S1)
        (0 S0, 1 S1, 2 S2)
        (0 S0, 1 S1, 2 S2, 3 S3)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Size specifications accepted by [`vec()`].
    pub trait SizeRange {
        fn pick(&self, rng: &mut SmallRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut SmallRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut SmallRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut SmallRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    /// Strategy for vectors whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod bool {
    use super::strategy::Strategy;
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Strategy yielding uniformly random booleans (`proptest::bool::ANY`).
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    pub const ANY: BoolAny = BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn generate(&self, rng: &mut SmallRng) -> bool {
            rng.gen::<bool>()
        }
    }
}

pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Runner configuration; only `cases` is honored by the shim.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic per-test RNG: seeded from the test's name so runs are
    /// reproducible and parallel tests draw independent streams.
    pub fn rng_for_test(name: &str) -> SmallRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SmallRng::seed_from_u64(h)
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Skip the current case when its inputs don't satisfy a precondition.
/// Expands to `continue` on the case loop (the shim does not re-draw, so the
/// effective case count shrinks by the rejection rate).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            continue;
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}

/// The `proptest!` macro: declares `#[test]` functions whose arguments are
/// drawn from strategies, run for `cases` iterations each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            cfg = (<$crate::test_runner::ProptestConfig as ::core::default::Default>::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($binding:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        // The `#[test]` attribute is written by the caller inside the macro
        // body (matching real proptest), so metas pass through unchanged.
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::rng_for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..__config.cases {
                let __case: u32 = __case;
                $(
                    let $binding =
                        $crate::strategy::Strategy::generate(&$strategy, &mut __rng);
                )+
                $body
            }
        }
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3u64..17, y in 0usize..4, f in 0.0f64..1.5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 4);
            prop_assert!((0.0..1.5).contains(&f));
        }

        #[test]
        fn vec_strategy_len(mut v in crate::collection::vec(any::<u32>(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
            v.sort_unstable();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }

        #[test]
        fn tuples_and_bools(pair in (0u32..5, crate::bool::ANY)) {
            prop_assert!(pair.0 < 5);
            let _: bool = pair.1;
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(seed in any::<u64>()) {
            prop_assert_eq!(seed.wrapping_add(0), seed);
        }
    }

    #[test]
    fn deterministic_per_name() {
        use crate::strategy::Strategy;
        let s = 0u64..1_000_000;
        let mut a = crate::test_runner::rng_for_test("t");
        let mut b = crate::test_runner::rng_for_test("t");
        let mut c = crate::test_runner::rng_for_test("u");
        let (va, vb, vc) = (s.generate(&mut a), s.generate(&mut b), s.generate(&mut c));
        assert_eq!(va, vb);
        // Different name should (overwhelmingly) give a different stream.
        assert!(va != vc || s.generate(&mut a) != s.generate(&mut c));
    }
}
