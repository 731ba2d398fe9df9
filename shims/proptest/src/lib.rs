//! Offline shim for `proptest`.
//!
//! Implements the subset of the proptest API this workspace's property tests
//! use: the `proptest!` / `prop_assert!` / `prop_assert_eq!` / `prop_oneof!`
//! macros, `any`, `Just`, integer and float range strategies, tuple
//! strategies, `collection::vec`, `prop_map` / `prop_flat_map`, and
//! `ProptestConfig { cases }`. Inputs are generated from a deterministic
//! per-test-function RNG, so failures reproduce across runs. There is no
//! shrinking: a failing case panics with the generated inputs left to the
//! assertion message.

pub mod test_runner {
    //! Test configuration and the deterministic case RNG.

    /// Configuration accepted by `#![proptest_config(..)]` headers.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
        /// Accepted for real-proptest compatibility; the shim never shrinks.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Real proptest defaults to 256; the shim trades depth for
            // suite latency. Tests that need more ask via proptest_config.
            ProptestConfig { cases: 32, max_shrink_iters: 0 }
        }
    }

    /// Deterministic SplitMix64 RNG seeded from the test path and case index.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Builds the RNG for one case of one property function.
        pub fn deterministic(test_path: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_path.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h ^ (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15) }
        }

        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Returns a uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Object safe: the combinator methods are `Self: Sized`, so
    /// `Box<dyn Strategy<Value = T>>` works (see [`BoxedStrategy`]).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates an intermediate value, then generates from the strategy
        /// `f` builds from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy that always yields a clone of its value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Weighted choice between boxed strategies; built by `prop_oneof!`.
    pub struct Union<T> {
        branches: Vec<(u32, BoxedStrategy<T>)>,
    }

    impl<T> Union<T> {
        /// Builds a union; total weight must be nonzero.
        pub fn new(branches: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(
                branches.iter().map(|(w, _)| u64::from(*w)).sum::<u64>() > 0,
                "prop_oneof!: zero total weight"
            );
            Union { branches }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.branches.iter().map(|(w, _)| u64::from(*w)).sum();
            let mut pick = rng.below(total);
            for (w, s) in &self.branches {
                if pick < u64::from(*w) {
                    return s.generate(rng);
                }
                pick -= u64::from(*w);
            }
            unreachable!("prop_oneof!: weighted pick out of range")
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "strategy range is empty");
                    let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    ((self.start as i128) + v as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (s, e) = (*self.start(), *self.end());
                    assert!(s <= e, "strategy range is empty");
                    let span = (e as i128).wrapping_sub(s as i128) as u128 + 1;
                    let v = (rng.next_u64() as u128) % span;
                    ((s as i128) + v as i128) as $t
                }
            }
        )*};
    }
    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "strategy range is empty");
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            self.start + (self.end - self.start) * unit
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }
}

pub mod arbitrary {
    //! `any::<T>()` — full-range strategies for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value from the type's full range.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Clone, Debug)]
    pub struct Any<A>(PhantomData<A>);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    /// Full-range strategy for `A`.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! `vec` — strategies for collections.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: an exact `usize` or a half-open
    /// `Range<usize>`.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max_exclusive: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "vec strategy: empty size range");
            SizeRange { min: r.start, max_exclusive: r.end }
        }
    }

    /// Strategy for `Vec<S::Value>` with a random length.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates vectors whose elements come from `element` and whose length
    /// lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod prelude {
    //! Everything property tests conventionally glob-import.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Defines property test functions whose arguments are drawn from strategies.
///
/// Supports an optional `#![proptest_config(ProptestConfig { .. })]` header
/// and any number of `fn name(arg in strategy, ..) { body }` items, each
/// carrying its own attributes (typically `#[test]`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                $body
            }
        }
    )*};
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Weighted or unweighted choice between strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn ranges_and_tuples(a in 1usize..10, pair in (0u32..4, 5i64..=9)) {
            prop_assert!((1..10).contains(&a));
            prop_assert!(pair.0 < 4);
            prop_assert!((5..=9).contains(&pair.1));
        }

        #[test]
        fn oneof_and_vec(
            v in crate::collection::vec(prop_oneof![1 => Just(1u8), 2 => Just(2u8)], 0..8),
            n in any::<u64>(),
        ) {
            prop_assert!(v.len() < 8);
            prop_assert!(v.iter().all(|&x| x == 1 || x == 2));
            let _ = n;
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let gen = |case| {
            let mut rng = crate::test_runner::TestRng::deterministic("t", case);
            (0u64..1000).prop_map(|x| x * 2).generate(&mut rng)
        };
        assert_eq!(gen(3), gen(3));
        assert_ne!((0..16).map(gen).collect::<Vec<_>>(), vec![gen(0); 16]);
    }
}
