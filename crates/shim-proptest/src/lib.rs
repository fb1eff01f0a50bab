//! Offline stand-in for the subset of the `proptest` crate this workspace
//! uses. The build container has no crates.io access, so the workspace
//! renames this crate to `proptest`; the property tests keep their upstream
//! syntax (`proptest! { fn f(x in 0..10i64, ...) { ... } }`).
//!
//! Differences from upstream, deliberately accepted:
//! * no shrinking — a failing case panics with the raw assertion message;
//! * cases are generated from a fixed per-test seed (derived from the test
//!   name), so runs are fully deterministic;
//! * only the strategy combinators the repo uses exist: ranges, tuples,
//!   [`Just`], `prop_map`, [`prop_oneof!`], `any::<bool>()`, and
//!   `prop::collection::vec`.

use rand::{Rng, SeedableRng};

/// Deterministic per-test randomness source for strategies.
pub struct TestRng {
    inner: rand::rngs::SmallRng,
}

impl TestRng {
    /// A generator seeded from the test's name (stable across runs).
    pub fn from_name(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            inner: rand::rngs::SmallRng::seed_from_u64(h),
        }
    }
}

impl rand::RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// Run configuration: how many cases each property runs.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Always generates a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between boxed alternatives (built by [`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// A union of `options` (picked uniformly).
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.random_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

range_strategies!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.random_range(self.clone())
    }
}

impl Strategy for core::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        rng.random_range(self.clone())
    }
}

macro_rules! tuple_strategies {
    ($(($($name:ident),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A);
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F);
}

/// Marker for `any::<T>()` support.
pub trait Arbitrary: Sized {
    /// The strategy `any` returns.
    type Strategy: Strategy<Value = Self>;
    /// The canonical full-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Full-domain `bool`.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.random_range(0u8..2) == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

/// The full-domain strategy for `T`, mirroring `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Strategy namespace mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// `Vec`s of `element` with a length drawn from `size`.
        pub struct VecStrategy<S> {
            element: S,
            lo: usize,
            hi_exclusive: usize,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = rng.random_range(self.lo..self.hi_exclusive);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Bounds accepted by [`vec()`].
        pub trait SizeRange {
            /// Normalize to `[lo, hi)` half-open bounds.
            fn bounds(&self) -> (usize, usize);
        }

        impl SizeRange for core::ops::Range<usize> {
            fn bounds(&self) -> (usize, usize) {
                (self.start, self.end)
            }
        }

        impl SizeRange for core::ops::RangeInclusive<usize> {
            fn bounds(&self) -> (usize, usize) {
                (*self.start(), *self.end() + 1)
            }
        }

        impl SizeRange for usize {
            fn bounds(&self) -> (usize, usize) {
                (*self, *self + 1)
            }
        }

        /// A strategy for `Vec`s of `element` values, sized by `size`.
        pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
            let (lo, hi_exclusive) = size.bounds();
            assert!(lo < hi_exclusive, "empty size range");
            VecStrategy {
                element,
                lo,
                hi_exclusive,
            }
        }

        /// `BTreeSet`s of `element` with a *target* size drawn from `size`.
        ///
        /// As in upstream proptest, duplicate draws collapse, so the realized
        /// set may be smaller than the drawn length.
        pub struct BTreeSetStrategy<S> {
            element: S,
            lo: usize,
            hi_exclusive: usize,
        }

        impl<S: Strategy> Strategy for BTreeSetStrategy<S>
        where
            S::Value: Ord,
        {
            type Value = std::collections::BTreeSet<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> std::collections::BTreeSet<S::Value> {
                let len = rng.random_range(self.lo..self.hi_exclusive);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// A strategy for `BTreeSet`s of `element` values, sized by `size`.
        pub fn btree_set<S: Strategy>(element: S, size: impl SizeRange) -> BTreeSetStrategy<S>
        where
            S::Value: Ord,
        {
            let (lo, hi_exclusive) = size.bounds();
            assert!(lo < hi_exclusive, "empty size range");
            BTreeSetStrategy {
                element,
                lo,
                hi_exclusive,
            }
        }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy,
    };
}

/// The property-test entry macro. Expands each `fn name(arg in strategy, ...)`
/// into a `#[test]` running [`ProptestConfig::cases`] generated cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = (<$crate::ProptestConfig as ::core::default::Default>::default()); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (
        cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            #[allow(unused_imports)]
            use $crate::Strategy as _;
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let _ = __case;
                $(let $arg = ($strat).generate(&mut __rng);)+
                $body
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}

/// `assert!` under a property (no shrinking; panics with the message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// `assert_eq!` under a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// `assert_ne!` under a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Skip the current generated case when `cond` does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(::std::boxed::Box::new($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in -10i64..10, y in 1usize..4, b in any::<bool>()) {
            prop_assert!((-10..10).contains(&x));
            prop_assert!((1..4).contains(&y));
            let _ = b;
        }

        #[test]
        fn mapped_tuples_work(
            p in (0u32..5, 10.0f64..20.0).prop_map(|(a, f)| (a * 2, f / 2.0)),
            v in prop::collection::vec(0i32..3, 1..5),
        ) {
            prop_assert!(p.0 % 2 == 0);
            prop_assert!(p.1 < 10.0);
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert!(v.iter().all(|e| (0..3).contains(e)));
        }

        #[test]
        fn oneof_and_assume(choice in prop_oneof![Just(1u8), Just(2u8), 3u8..5]) {
            prop_assume!(choice != 2);
            prop_assert!(choice == 1 || (3..5).contains(&choice));
        }
    }

    #[test]
    fn config_controls_case_count() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // Indirect: a config of 3 cases runs the body exactly three times.
        static RUNS: AtomicU32 = AtomicU32::new(0);
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]
            #[allow(unused)]
            fn three_cases(x in 0i64..100) {
                RUNS.fetch_add(1, Ordering::Relaxed);
            }
        }
        three_cases();
        assert_eq!(RUNS.load(Ordering::Relaxed), 3);
    }
}
