//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a deterministic property-testing harness exposing the same
//! names its tests already call: the [`proptest!`] macro (with optional
//! `#![proptest_config(...)]`), range / tuple / [`Just`] /
//! `prop::collection::vec` / [`prop_oneof!`] strategies, `prop_map`,
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!`, and
//! `prop::num::f32::NORMAL`.
//!
//! Differences from upstream proptest: sampling is seeded from the test
//! name (fully deterministic across runs — failures always reproduce),
//! and there is **no shrinking**; a failing case reports the values it
//! drew instead.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

/// Deterministic splitmix64 stream used to drive all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from an arbitrary string (the generated tests use their own
    /// fully-qualified name, so every test gets a distinct, stable
    /// stream).
    pub fn from_test_name(name: &str) -> TestRng {
        // FNV-1a over the name, then one splitmix round to spread it.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform usize in `[lo, hi)`; `lo` on an empty range.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        let span = (hi - lo) as u128;
        lo + ((self.next_u64() as u128 * span) >> 64) as usize
    }
}

// ---------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------

/// A generator of test values. Object-safe: `prop_map` carries a
/// `Sized` bound so `Box<dyn Strategy<Value = V>>` works (that is what
/// [`prop_oneof!`] builds).
pub trait Strategy {
    /// The type of values produced.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps produced values through `f` (same name as proptest).
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always produces a clone of the given value (proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + off) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128 + 1) as u128;
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (*self.start() as i128 + off) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let v = self.start + (self.end - self.start) * rng.unit_f64() as $t;
                if v >= self.end {
                    <$t>::from_bits(self.end.to_bits() - 1)
                } else {
                    v
                }
            }
        }
    )*};
}

impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Types with a canonical whole-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws a value from the type's whole domain.
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

/// Whole-domain strategy for `T` (proptest's `any::<T>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Output of [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Uniform choice between boxed strategies (built by [`prop_oneof!`]).
pub struct Union<V> {
    options: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// Builds a union; panics on an empty option list.
    pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Union<V> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.usize_in(0, self.options.len());
        self.options[i].sample(rng)
    }
}

// ---------------------------------------------------------------------
// prop:: namespace
// ---------------------------------------------------------------------

/// Mirror of proptest's `prop` module tree (only the paths this
/// workspace uses).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use std::ops::{Range, RangeInclusive};

        /// Anything usable as a size specification for [`vec()`].
        pub trait SizeRange {
            /// `(min, max_exclusive)` bounds.
            fn bounds(&self) -> (usize, usize);
        }

        impl SizeRange for usize {
            fn bounds(&self) -> (usize, usize) {
                (*self, *self + 1)
            }
        }

        impl SizeRange for Range<usize> {
            fn bounds(&self) -> (usize, usize) {
                (self.start, self.end)
            }
        }

        impl SizeRange for RangeInclusive<usize> {
            fn bounds(&self) -> (usize, usize) {
                (*self.start(), *self.end() + 1)
            }
        }

        /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
        // By-value `size` mirrors upstream proptest's signature.
        #[allow(clippy::needless_pass_by_value)]
        pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
            let (min, max) = size.bounds();
            assert!(min < max, "empty vec size range");
            VecStrategy { element, min, max }
        }

        /// Output of [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            min: usize,
            max: usize,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = rng.usize_in(self.min, self.max);
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }

    /// Numeric bit-pattern strategies.
    pub mod num {
        /// `f32` strategies.
        pub mod f32 {
            use crate::{Strategy, TestRng};

            /// Strategy over all *normal* `f32` values (no zeros,
            /// subnormals, infinities, or NaNs), uniform over bit
            /// patterns like upstream proptest.
            #[derive(Debug, Clone, Copy)]
            pub struct NormalF32;

            impl Strategy for NormalF32 {
                type Value = f32;

                fn sample(&self, rng: &mut TestRng) -> f32 {
                    loop {
                        let v = f32::from_bits(rng.next_u64() as u32);
                        if v.is_normal() {
                            return v;
                        }
                    }
                }
            }

            /// The normal-floats strategy constant.
            pub const NORMAL: NormalF32 = NormalF32;
        }
    }
}

// ---------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------

/// Per-test configuration (only the field this workspace sets).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed — the whole test fails.
    Fail(String),
    /// `prop_assume!` rejected the inputs — draw a fresh case.
    Reject(String),
}

impl TestCaseError {
    /// Failure with a message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// Rejection (assumption not met).
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

/// One import for everything, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Declares property tests (same surface syntax as proptest's macro).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { cfg = (<$crate::ProptestConfig as ::std::default::Default>::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( cfg = ($cfg:expr);
      $( $(#[$meta:meta])*
         fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::TestRng::from_test_name(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                let __strategies = ( $( $strat, )* );
                let mut __passed: u32 = 0;
                let mut __rejected: u32 = 0;
                while __passed < __config.cases {
                    #[allow(unused_variables)]
                    let ( $( ref $arg, )* ) = __strategies;
                    $( let $arg = $crate::Strategy::sample($arg, &mut __rng); )*
                    let __result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    match __result {
                        ::std::result::Result::Ok(()) => {
                            __passed += 1;
                        }
                        ::std::result::Result::Err($crate::TestCaseError::Reject(__why)) => {
                            __rejected += 1;
                            assert!(
                                __rejected < 100_000,
                                "prop_assume! rejected too many cases: {}",
                                __why
                            );
                        }
                        ::std::result::Result::Err($crate::TestCaseError::Fail(__msg)) => {
                            panic!("proptest case {} failed: {}", __passed, __msg);
                        }
                    }
                }
            }
        )*
    };
}

/// Boolean assertion usable inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion usable inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assert_eq failed: {} != {} ({:?} vs {:?})",
                stringify!($a),
                stringify!($b),
                __l,
                __r,
            )));
        }
    }};
}

/// Inequality assertion usable inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assert_ne failed: {} == {} ({:?})",
                stringify!($a),
                stringify!($b),
                __l,
            )));
        }
    }};
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {{
        let __options: ::std::vec::Vec<
            ::std::boxed::Box<dyn $crate::Strategy<Value = _>>,
        > = ::std::vec![$( ::std::boxed::Box::new($s), )+];
        $crate::Union::new(__options)
    }};
}

// ---------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vec_sample_in_bounds() {
        let mut rng = TestRng::from_test_name("bounds");
        let ints = 3u64..17;
        let floats = -2.0f64..2.0;
        let vecs = prop::collection::vec(0u32..10, 2..6);
        for _ in 0..1000 {
            let i = ints.sample(&mut rng);
            assert!((3..17).contains(&i));
            let f = floats.sample(&mut rng);
            assert!((-2.0..2.0).contains(&f));
            let v = vecs.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn prop_map_and_oneof_compose() {
        let mut rng = TestRng::from_test_name("compose");
        let s = prop_oneof![Just(0u64), (1u64..5, 1u64..5).prop_map(|(a, b)| a + b),];
        let mut seen_zero = false;
        let mut seen_sum = false;
        for _ in 0..200 {
            match s.sample(&mut rng) {
                0 => seen_zero = true,
                2..=8 => seen_sum = true,
                other => panic!("impossible value {other}"),
            }
        }
        assert!(seen_zero && seen_sum);
    }

    #[test]
    fn normal_f32_is_normal() {
        let mut rng = TestRng::from_test_name("normal");
        for _ in 0..1000 {
            assert!(prop::num::f32::NORMAL.sample(&mut rng).is_normal());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::from_test_name("same");
        let mut b = TestRng::from_test_name("same");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: args bind, assertions and assumptions work.
        #[test]
        fn macro_end_to_end(a in 1u64..100, xs in prop::collection::vec(0i32..10, 0..4)) {
            prop_assume!(a != 13);
            prop_assert!(a >= 1);
            prop_assert_eq!(xs.len(), xs.iter().filter(|&&x| x < 10).count());
            prop_assert_ne!(a, 0);
        }
    }
}
