//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset it uses: the [`Strategy`] trait with range, tuple,
//! and collection strategies plus `prop_map`/`prop_filter`; the
//! [`proptest!`]/[`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assume!`]
//! macros; and [`ProptestConfig::with_cases`]. Cases are generated from a
//! deterministic per-test stream (seeded by test path + case index), so a
//! failure reproduces on every run and machine. Shrinking is not
//! implemented — the failure message reports the generated inputs instead.

#![forbid(unsafe_code)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// A property assertion failed; the whole test fails.
    Fail(String),
    /// The inputs were rejected (e.g. by `prop_assume!`); the case is
    /// skipped and another one is drawn.
    Reject(String),
}

impl TestCaseError {
    /// A failing case with the given message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// A rejected (skipped) case with the given reason.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "test case rejected: {m}"),
        }
    }
}

/// Runner configuration. Only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases each property must pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` accepted cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic per-case random stream (SplitMix64).
///
/// Seeded from the test's module path + name and the case index, so every
/// run of the suite sees the same inputs in the same order.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Stream for case number `case` of the named test.
    pub fn for_case(test_path: &str, case: u64) -> TestRng {
        // FNV-1a over the test path, mixed with the case index.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in test_path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value from the deterministic stream.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform every generated value with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Keep only values satisfying `pred`, resampling on rejection.
    fn prop_filter<F>(self, reason: impl Into<String>, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason: reason.into(),
            pred,
        }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
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

/// Strategy adapter produced by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        // Local resampling keeps filters transparent to the case counter;
        // the call sites all use light filters (distinct endpoints etc.),
        // so exhaustion means the filter itself is broken.
        for _ in 0..100_000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter({:?}) rejected 100000 consecutive samples",
            self.reason
        );
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128 * span) >> 64;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                let v = (rng.next_u64() as u128 * span) >> 64;
                (*self.start() as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.unit_f64() * (self.end() - self.start())
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
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Types with a whole-domain uniform distribution, for [`any`].
pub trait ArbitraryPrim: Sized {
    #[doc(hidden)]
    fn from_bits(bits: u64) -> Self;
}

macro_rules! impl_arbitrary_prim {
    ($($t:ty),*) => {$(
        impl ArbitraryPrim for $t {
            fn from_bits(bits: u64) -> $t {
                bits as $t
            }
        }
    )*};
}

impl_arbitrary_prim!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ArbitraryPrim for bool {
    fn from_bits(bits: u64) -> bool {
        bits & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T> {
    _marker: PhantomData<T>,
}

impl<T: ArbitraryPrim> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::from_bits(rng.next_u64())
    }
}

/// Uniform over the full domain of `T`.
pub fn any<T: ArbitraryPrim>() -> Any<T> {
    Any {
        _marker: PhantomData,
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length bound for [`vec()`]: a range (`1..30`) or an exact size (`20`).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_excl: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_excl: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi_excl: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_excl: n + 1,
            }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_excl - self.size.lo) as u128;
            let len = self.size.lo + ((rng.next_u64() as u128 * span) >> 64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Namespace mirror of the real crate's `prop::` path (`prop::collection::vec`).
pub mod prop {
    pub use crate::collection;
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, prop, ProptestConfig, Strategy, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Define property tests. Mirrors the real crate's surface:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0u64..100, v in prop::collection::vec(any::<u8>(), 1..9)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    ( ($config:expr) ) => {};
    (
        ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut accepted: u32 = 0;
            let mut rejected: u64 = 0;
            let mut case: u64 = 0;
            while accepted < config.cases {
                let mut rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                case += 1;
                $( let $arg = $crate::Strategy::generate(&($strat), &mut rng); )+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {
                        rejected += 1;
                        assert!(
                            rejected < 1024 + 64 * config.cases as u64,
                            "{}: too many rejected cases ({} accepted so far)",
                            stringify!($name),
                            accepted,
                        );
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "property {} failed at case #{}: {}",
                            stringify!($name),
                            case - 1,
                            msg,
                        );
                    }
                }
            }
        }
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
}

/// Property-scoped assertion: fails the current case, reporting `cond`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+),
            )));
        }
    };
}

/// Property-scoped equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`: {:?} != {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`: {:?} != {:?}: {}",
                stringify!($left),
                stringify!($right),
                l,
                r,
                format!($($fmt)+),
            )));
        }
    }};
}

/// Property-scoped inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l != *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`: both {:?}",
                stringify!($left),
                stringify!($right),
                l,
            )));
        }
    }};
}

/// Skip the current case when its inputs don't fit the property's domain.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = TestRng::for_case("x::y", 3);
        let mut b = TestRng::for_case("x::y", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("x::y", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn strategies_stay_in_bounds() {
        let mut rng = TestRng::for_case("bounds", 0);
        for _ in 0..500 {
            let v = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let f = (-2.0f64..=2.0).generate(&mut rng);
            assert!((-2.0..=2.0).contains(&f));
            let (a, b) = ((0u64..5), (10u64..20)).generate(&mut rng);
            assert!(a < 5 && (10..20).contains(&b));
        }
    }

    #[test]
    fn vec_and_combinators() {
        let mut rng = TestRng::for_case("vecs", 1);
        let s = collection::vec((0usize..10, 0usize..10), 2..6).prop_map(|v| v.len());
        for _ in 0..100 {
            let len = s.generate(&mut rng);
            assert!((2..6).contains(&len));
        }
        let distinct = (0usize..3, 0usize..3).prop_filter("ne", |(a, b)| a != b);
        for _ in 0..100 {
            let (a, b) = distinct.generate(&mut rng);
            assert_ne!(a, b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro path itself: args, assume, assertions.
        #[test]
        fn macro_roundtrip(x in 1u64..50, v in collection::vec(any::<u8>(), 0..4)) {
            prop_assume!(x != 13);
            prop_assert!(x >= 1);
            prop_assert!(x < 50, "x was {}", x);
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(x, 13);
        }
    }
}
