//! A vendored, dependency-free subset of the `proptest` API.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! the slice of proptest it uses: the `proptest!` macro, range/tuple/`Just`/
//! `prop_map`/`prop_oneof!`/`collection::vec` strategies, and the
//! `prop_assert!` family.
//!
//! Differences from upstream, all in the direction of this repo's
//! determinism rules (DESIGN.md §6):
//!
//! - **Fixed seeding.** Case `i` of a test derives its generator from a
//!   constant base seed and `i` — never from OS entropy. The same binary
//!   always runs the identical cases, so a failure reported on one machine
//!   replays everywhere.
//! - **No shrinking.** A failing case reports its index and generated
//!   inputs (`Debug`) instead of searching for a smaller counterexample.
//! - **No persistence.** `.proptest-regressions` files are ignored.

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// `proptest::bool` — just the `ANY` strategy.
pub mod bool {
    use crate::strategy::Strategy;
    use rand::Rng;

    /// Uniformly `true` or `false`.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Upstream-compatible name: `proptest::bool::ANY`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut crate::test_runner::TestRng) -> bool {
            rng.gen_bool(0.5)
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Runs every test case of a `proptest!` body.
///
/// Not part of the public upstream API; the `proptest!` macro expands to a
/// call of this function so the expansion stays small.
pub fn run_cases<F>(cfg: &test_runner::ProptestConfig, test_name: &str, mut case: F)
where
    F: FnMut(&mut test_runner::TestRng, u32) -> Result<(), test_runner::TestCaseError>,
{
    for i in 0..cfg.cases {
        let mut rng = test_runner::TestRng::for_case(test_name, i);
        if let Err(e) = case(&mut rng, i) {
            panic!(
                "proptest `{test_name}` failed at case {i}/{} (deterministic; rerun reproduces it):\n{e}",
                cfg.cases
            );
        }
    }
}

#[macro_export]
macro_rules! proptest {
    (@body ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                $crate::run_cases(&cfg, stringify!($name), |rng, _case| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), rng);)*
                    let mut inputs = ::std::string::String::new();
                    $(
                        inputs.push_str(&::std::format!(
                            "  {} = {:?}\n", stringify!($arg), &$arg
                        ));
                    )*
                    let body = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    body().map_err(|e| e.with_inputs(&inputs))
                });
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@body ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@body ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: `{:?}` == `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`: {}", l, r, ::std::format!($($fmt)*)
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{:?}` != `{:?}`: {}", l, r, ::std::format!($($fmt)*)
        );
    }};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_tuples_and_map_compose() {
        let s = (0u8..4, 10u64..=20).prop_map(|(a, b)| a as u64 + b);
        let mut rng = TestRng::for_case("compose", 0);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((10..=23).contains(&v), "{v}");
        }
    }

    #[test]
    fn union_respects_zero_weight_absence() {
        // Only one arm: always that arm.
        let s = prop_oneof![Just(7u8)];
        let mut rng = TestRng::for_case("union", 0);
        assert_eq!(s.generate(&mut rng), 7);
    }

    #[test]
    fn weighted_union_hits_every_arm() {
        let s = prop_oneof![1 => Just(0u8), 2 => Just(1u8), 3 => Just(2u8)];
        let mut rng = TestRng::for_case("weighted", 0);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        let s = crate::collection::vec(0u8..5, 2..6);
        let mut rng = TestRng::for_case("vec", 0);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let s = crate::collection::vec(0u32..1000, 0..10);
        let a = s.generate(&mut TestRng::for_case("det", 3));
        let b = s.generate(&mut TestRng::for_case("det", 3));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn the_macro_itself_runs(x in 0u64..100, flips in crate::collection::vec(crate::bool::ANY, 0..4)) {
            prop_assert!(x < 100);
            prop_assert!(flips.len() < 4);
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1);
        }
    }

    proptest! {
        #[test]
        fn default_config_applies(x in 0u8..10) {
            prop_assert!(x < 10);
        }
    }
}
