//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the slice of `proptest` its test suites use: the [`Strategy`](strategy::Strategy)
//! trait with range/tuple/vec/map/union strategies, the `proptest!`,
//! `prop_assert*`, `prop_assume!` and `prop_oneof!` macros, and a
//! deterministic test runner.
//!
//! Differences from upstream, by design:
//! - **No shrinking.** A failing case panics with the failing assertion
//!   message; inputs are deterministic per test (seeded from the test's
//!   module path and name), so failures reproduce exactly on rerun.
//! - Strategies are samplers only (`Strategy::sample`), not value trees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// Namespaced strategy constructors, mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::collection::{vec, SizeRange, VecStrategy};
    }
}

/// Everything a test file needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

/// Asserts a condition inside a `proptest!` body, failing the current case
/// (not the whole process) so the runner can report the offending inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts two expressions are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Asserts two expressions are unequal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `left != right`\n  both: `{:?}`",
            left
        );
    }};
}

/// Rejects the current case (does not count toward `cases`) when the
/// sampled inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Weighted (or unweighted) union of strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::boxed($strategy))),+
        ])
    };
}

/// Declares property tests. Each `#[test] fn name(pat in strategy, ...)`
/// becomes a regular unit test that samples inputs deterministically and
/// runs the body until `config.cases` cases are accepted.
#[macro_export]
macro_rules! proptest {
    // Internal: config captured, expand each test.
    (@expand ($cfg:expr) $(
        #[test]
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::rng_for(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                let mut accepted: u32 = 0;
                let mut rejected: u32 = 0;
                while accepted < config.cases {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strategy), &mut rng);)+
                    let outcome = (|| -> $crate::test_runner::TestCaseResult {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    match outcome {
                        ::core::result::Result::Ok(()) => accepted += 1,
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {
                            rejected += 1;
                            assert!(
                                rejected <= config.max_global_rejects,
                                "proptest `{}`: too many prop_assume rejections ({} rejects \
                                 for {} accepted cases)",
                                stringify!($name), rejected, accepted
                            );
                        }
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(message),
                        ) => {
                            panic!(
                                "proptest `{}` failed after {} passing case(s): {}\n\
                                 (inputs are deterministic per test name; rerun reproduces)",
                                stringify!($name), accepted, message
                            );
                        }
                    }
                }
            }
        )*
    };
    // Leading inner config attribute.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@expand ($cfg) $($rest)*);
    };
    // No config: default.
    ($($rest:tt)*) => {
        $crate::proptest!(
            @expand (<$crate::test_runner::ProptestConfig as ::core::default::Default>::default())
            $($rest)*
        );
    };
}
