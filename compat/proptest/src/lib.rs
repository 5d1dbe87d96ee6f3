//! Offline drop-in subset of the `proptest` API.
//!
//! Supports the surface this workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(...)]`), [`Strategy`] with
//! `prop_map`, [`Just`], `any::<T>()`, integer/float range strategies,
//! tuple strategies, [`collection::vec`], [`prop_oneof!`], and the
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Cases are generated from a deterministic per-test RNG (seeded from the
//! test's name), so failures are reproducible run over run. There is **no
//! shrinking**: a failing case reports its case number and message only.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;

pub mod strategy;
pub use strategy::{Just, Strategy};

/// Runner configuration; only `cases` is honoured.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a generated case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// An assertion failed; the property is falsified.
    Fail(String),
    /// `prop_assume!` rejected the inputs; skip the case.
    Reject,
}

/// Test-runner internals used by the macros.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Deterministic RNG for a named test.
    pub fn rng_for_test(name: &str) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }
}

/// Types with a canonical "anything goes" strategy.
pub trait Arbitrary: Sized {
    /// Generate an arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rand::Rng::gen(rng)
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f64);

impl Arbitrary for String {
    fn arbitrary(rng: &mut StdRng) -> Self {
        let len = rand::Rng::gen_range(rng, 0usize..12);
        (0..len)
            .map(|_| char::from(rand::Rng::gen_range(rng, 0x20u8..0x7f)))
            .collect()
    }
}

macro_rules! impl_arbitrary_tuple {
    ($(($($t:ident),+),)*) => {$(
        impl<$($t: Arbitrary),+> Arbitrary for ($($t,)+) {
            fn arbitrary(rng: &mut StdRng) -> Self {
                ($($t::arbitrary(rng),)+)
            }
        }
    )*};
}
impl_arbitrary_tuple! {
    (A),
    (A, B),
    (A, B, C),
    (A, B, C, D),
    (A, B, C, D, E),
    (A, B, C, D, E, F),
}

/// The strategy behind `any::<T>()`.
pub struct Any<T>(std::marker::PhantomData<T>);

/// Strategy producing arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;

    /// Length specifications accepted by [`vec()`].
    pub trait SizeRange {
        /// Draw a length.
        fn sample_len(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for std::ops::Range<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rand::Rng::gen_range(rng, self.clone())
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rand::Rng::gen_range(rng, self.clone())
        }
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    /// Strategy for vectors with lengths drawn from `size`.
    pub struct VecStrategy<S, R> {
        elem: S,
        size: R,
    }

    /// Vectors of `elem` values with a length drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(elem: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Everything a property-test module usually imports.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, ProptestConfig, TestCaseError,
    };
}

/// Define property tests: `proptest! { #[test] fn f(x in strat) { ... } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal: expand each `fn name(pat in strategy, ...)` into a test.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $( $pat:pat in $strat:expr ),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::rng_for_test(::core::stringify!($name));
            for __case in 0..__cfg.cases {
                let ( $($pat,)+ ) =
                    ( $( $crate::Strategy::sample(&($strat), &mut __rng), )+ );
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                match __outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => continue,
                    ::std::result::Result::Err($crate::TestCaseError::Fail(__msg)) => {
                        ::std::panic!(
                            "proptest `{}` falsified at case #{}: {}",
                            ::core::stringify!($name),
                            __case,
                            __msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
}

/// Assert inside a property; failure falsifies the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", ::core::stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{} == {}` ({:?} vs {:?})",
            ::core::stringify!($lhs),
            ::core::stringify!($rhs),
            __l,
            __r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*__l == *__r, $($fmt)+);
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{} != {}` (both {:?})",
            ::core::stringify!($lhs),
            ::core::stringify!($rhs),
            __l
        );
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice between strategies sharing a value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $( $crate::Strategy::boxed($arm) ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3u8..9, y in 0usize..=4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(y <= 4);
        }

        #[test]
        fn vec_lengths_in_range(xs in collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 5);
        }

        #[test]
        fn oneof_and_map_work(v in prop_oneof![
            Just(0u32),
            (10u32..20).prop_map(|x| x * 2),
        ]) {
            prop_assert!(v == 0 || (20..40).contains(&v));
        }

        #[test]
        fn assume_rejects_cases(x in 0u8..10) {
            prop_assume!(x < 5);
            prop_assert!(x < 5);
        }
    }

    #[test]
    fn runner_is_deterministic() {
        let mut a = crate::test_runner::rng_for_test("t");
        let mut b = crate::test_runner::rng_for_test("t");
        assert_eq!(rand::Rng::gen::<u64>(&mut a), rand::Rng::gen::<u64>(&mut b));
    }
}
