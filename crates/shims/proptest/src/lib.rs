//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's
//! property tests use: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map`, range / `any` / tuple / string-pattern strategies,
//! [`collection::vec`], [`collection::btree_map`], [`option::of`],
//! weighted [`prop_oneof!`], [`Just`], and `prop_assert*` macros.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case reports the sampled inputs
//!   (via `Debug`) and the RNG seed, but is not minimized.
//! * **Deterministic seeding.** Each test derives its seed from its
//!   own name, so failures reproduce across runs; there is no
//!   failure-persistence file.

use std::fmt::Debug;

pub mod strategy;

pub use strategy::{any, Just, Strategy};

/// Deterministic RNG handed to strategies (xoshiro256**).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: [u64; 4],
}

impl TestRng {
    /// Creates a generator from a 64-bit seed (SplitMix64-expanded).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut splitmix = seed;
        let mut state = [0u64; 4];
        for word in &mut state {
            splitmix = splitmix.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = splitmix;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        if state.iter().all(|&w| w == 0) {
            state[0] = 1;
        }
        TestRng { state }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `[0, bound)`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "next_index bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }
}

/// Test-runner types ([`ProptestConfig`](test_runner::ProptestConfig),
/// failure reporting).
pub mod test_runner {
    /// A failed property within a test case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// A failure with the given explanation.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }

        /// The failure explanation.
        pub fn message(&self) -> &str {
            &self.message
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.message)
        }
    }

    /// Per-test configuration. Only `cases` is honored by the shim.
    #[derive(Debug, Clone)]
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
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }
}

/// Collection strategies (`vec`, `btree_map`).
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;

    /// Length specification for collection strategies.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            assert!(range.start < range.end, "empty collection size range");
            SizeRange {
                min: range.start,
                max_exclusive: range.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            SizeRange {
                min: len,
                max_exclusive: len + 1,
            }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            self.min + rng.next_index(self.max_exclusive - self.min)
        }
    }

    /// Strategy producing `Vec`s of values from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors with lengths drawn from `size`, elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy producing `BTreeMap`s.
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    /// Maps with *up to* the sampled number of entries (duplicate
    /// keys collapse, as in upstream proptest).
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn sample(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let len = self.size.sample(rng);
            (0..len)
                .map(|_| (self.key.sample(rng), self.value.sample(rng)))
                .collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Strategy producing `Option`s of the inner strategy's values.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `None` half the time, `Some` of the inner value otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                Some(self.inner.sample(rng))
            } else {
                None
            }
        }
    }
}

/// Everything a property test module usually imports.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Runs the body against `cases` sampled inputs; panics on the first
/// failing case, reporting the inputs and the derived seed.
#[doc(hidden)]
pub fn run_property<F>(name: &str, config: &test_runner::ProptestConfig, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<Option<String>, test_runner::TestCaseError>,
{
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut hasher);
    let seed = hasher.finish();
    let mut rng = TestRng::seed_from_u64(seed);
    for index in 0..config.cases {
        match case(&mut rng) {
            Ok(_) => {}
            Err(error) => panic!(
                "property `{name}` failed at case {index} (seed {seed:#x}): {}",
                error.message()
            ),
        }
    }
}

/// Helper so the macro can format sampled inputs lazily on failure.
#[doc(hidden)]
pub fn describe_inputs(parts: &[(&str, &dyn Debug)]) -> String {
    parts
        .iter()
        .map(|(name, value)| format!("{name} = {value:?}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The property-test entry point; see the crate docs for supported
/// syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $config;
            $crate::run_property(stringify!($name), &config, |rng| {
                $(let $arg = $crate::Strategy::sample(&$strategy, rng);)*
                // Described before the body runs: the body may consume
                // the inputs by value.
                let detail = $crate::describe_inputs(&[
                    $((stringify!($arg), &$arg as &dyn ::std::fmt::Debug)),*
                ]);
                let run = move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    Ok(())
                };
                match run() {
                    Ok(()) => Ok(None),
                    Err(error) => {
                        Err($crate::test_runner::TestCaseError::fail(format!(
                            "{error}\n  inputs: {detail}",
                            error = error.message(),
                        )))
                    }
                }
            });
        }
    )*};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    left,
                    right,
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "{}\n  left: {:?}\n right: {:?}",
                    format!($($fmt)+),
                    left,
                    right,
                ),
            ));
        }
    }};
}

/// Fails the current case if the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left == right {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{} != {}`\n  both: {:?}",
                    stringify!($left),
                    stringify!($right),
                    left,
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if left == right {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{}\n  both: {:?}", format!($($fmt)+), left),
            ));
        }
    }};
}

/// Picks one of several strategies, optionally weighted
/// (`weight => strategy`). All arms are boxed to a common type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strategy))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, f in -2.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn string_patterns_match_class(s in "[a-z]{1,8}") {
            prop_assert!(!s.is_empty() && s.len() <= 8);
            prop_assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }

        #[test]
        fn oneof_picks_each_arm(x in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert!(x == 1 || x == 2);
        }

        #[test]
        fn maps_and_options(
            m in crate::collection::btree_map("[a-z]{1,4}", any::<u32>(), 0..4),
            o in crate::option::of(any::<bool>()),
        ) {
            prop_assert!(m.len() < 4);
            let _ = o;
        }
    }

    #[test]
    #[should_panic(expected = "property `fails` failed")]
    fn failures_panic_with_context() {
        crate::run_property("fails", &ProptestConfig::with_cases(1), |_rng| {
            Err(crate::test_runner::TestCaseError::fail("boom"))
        });
    }
}
