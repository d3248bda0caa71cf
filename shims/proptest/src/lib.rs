//! Offline substitute for the `proptest` crate.
//!
//! Implements the subset of proptest's API this workspace uses: the
//! [`Strategy`] trait with `prop_map` / `prop_flat_map`, range and tuple
//! strategies, [`collection::vec`], [`ProptestConfig`], and the
//! `proptest!` / `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//! `prop_assume!` macros.
//!
//! Differences from real proptest, deliberately accepted:
//! * cases are drawn from a **deterministic** per-test RNG (seeded from
//!   the test name), so failures are reproducible across runs;
//! * there is **no shrinking** — a failing case reports its index and
//!   message but not a minimized input;
//! * `prop_assume!` rejections simply skip the case (no rejection-rate
//!   bookkeeping).

use std::ops::{Range, RangeInclusive};

/// Deterministic per-test random source (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// An RNG for `case` of the test identified by `tag`.
    pub fn deterministic(tag: u64, case: u64) -> Self {
        Self { state: tag ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5DEE_CE66_D1CE_4E5B }
    }

    /// Next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, span)`.
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// FNV-1a hash of a test name, used to seed its RNG.
pub fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Outcome of one generated case.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the harness panics with the message.
    Fail(String),
    /// `prop_assume!` rejected the case; the harness skips it.
    Reject(String),
}

/// Run configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Boxes the strategy (API compatibility).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A boxed, dynamically-typed strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
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

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Lengths accepted by [`vec`](fn@vec).
    pub trait IntoSizeRange {
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            (self.start, self.end.max(self.start + 1) - 1)
        }
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    /// See [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.max > self.min {
                self.min + rng.below((self.max - self.min + 1) as u64) as usize
            } else {
                self.min
            };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// A strategy producing vectors of `elem`-generated values with a
    /// length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { elem, min, max }
    }
}

pub mod prelude {
    //! Everything a `proptest!` test file needs.

    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Asserts inside a proptest case; failure aborts the case with a message
/// instead of unwinding through generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
}

/// Inequality assertion inside a proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases as u64 {
                let mut __rng =
                    $crate::TestRng::deterministic($crate::fnv(stringify!($name)), case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (move || {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("proptest {} failed at case {}: {}", stringify!($name), case, msg);
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = TestRng::deterministic(1, 0);
        for _ in 0..500 {
            let x = Strategy::generate(&(3u32..9), &mut rng);
            assert!((3..9).contains(&x));
            let y = Strategy::generate(&(0usize..=4), &mut rng);
            assert!(y <= 4);
        }
    }

    #[test]
    fn map_flat_map_and_vec_compose() {
        let strat = (1usize..5).prop_flat_map(|n| {
            crate::collection::vec(0u32..10, n..(n + 1)).prop_map(move |v| (n, v))
        });
        let mut rng = TestRng::deterministic(2, 0);
        for _ in 0..100 {
            let (n, v) = Strategy::generate(&strat, &mut rng);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_machinery_works(a in 0u32..100, b in 0u32..100) {
            prop_assume!(a != b);
            prop_assert!(a < 100 && b < 100);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(a, b);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let draw = || {
            let mut rng = TestRng::deterministic(crate::fnv("x"), 3);
            Strategy::generate(&(0u64..1_000_000), &mut rng)
        };
        assert_eq!(draw(), draw());
    }
}
