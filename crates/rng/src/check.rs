//! A minimal property-test helper.
//!
//! Replaces the `proptest` dependency for this workspace's needs: a
//! seeded case generator plus a `forall` loop over a fixed number of
//! cases. [`forall`] is shrink-free — on failure the panic message
//! carries the seed, the case index, and the `Debug` form of the
//! generated case, which is enough to reproduce deterministically.
//! [`forall_shrink`] additionally takes a candidate-reduction function
//! and greedily minimizes the failing case before panicking, so the
//! report shows the smallest reproducer the shrinker could reach.
//!
//! Case counts can be scaled globally (nightly soak runs, quick local
//! iterations) through the `PLATEAU_CHECK_CASES` environment variable,
//! read by [`cases`].
//!
//! # Examples
//!
//! ```
//! use plateau_rng::check::forall;
//! use plateau_rng::{prop_assert, Rng};
//!
//! forall(0xfeed, 64, |rng| rng.gen_range(-10.0..10.0), |&x| {
//!     prop_assert!(x.abs() <= 10.0, "out of range: {x}");
//!     Ok(())
//! });
//! ```

use crate::{SeedableRng, StdRng};
use std::fmt::Debug;

/// Number of cases the workspace's property tests run by default.
pub const DEFAULT_CASES: usize = 64;

/// Cap on greedy shrink acceptances, so a pathological candidate function
/// cannot loop forever.
const MAX_SHRINK_STEPS: usize = 10_000;

/// The case count a property test should run: `default` unless the
/// `PLATEAU_CHECK_CASES` environment variable overrides it.
///
/// The override is absolute, not a multiplier — `PLATEAU_CHECK_CASES=500`
/// runs every opted-in property at 500 cases. Unparseable or zero values
/// are ignored.
pub fn cases(default: usize) -> usize {
    parse_cases(std::env::var("PLATEAU_CHECK_CASES").ok().as_deref(), default)
}

/// [`cases`] for a given `PLATEAU_CHECK_CASES` value (`None` when unset).
fn parse_cases(raw: Option<&str>, default: usize) -> usize {
    raw.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n > 0).unwrap_or(default)
}

/// Runs `prop` against `cases` values drawn by `gen` from a generator
/// seeded with `seed`.
///
/// # Panics
///
/// Panics on the first failing case, reporting the seed, case index, and
/// the case itself.
pub fn forall<T: Debug>(
    seed: u64,
    cases: usize,
    mut gen: impl FnMut(&mut StdRng) -> T,
    mut prop: impl FnMut(&T) -> Result<(), String>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..cases {
        let case = gen(&mut rng);
        if let Err(msg) = prop(&case) {
            panic!(
                "property failed at case {i}/{cases} (seed {seed:#x}): {msg}\ncase: {case:#?}"
            );
        }
    }
}

/// Like [`forall`], but with greedy counterexample shrinking.
///
/// `shrink` proposes strictly-"smaller" variants of a case, most
/// aggressive first. When `prop` fails, the shrinker repeatedly replaces
/// the failing case with its first still-failing candidate until no
/// candidate fails (a local minimum) or [`MAX_SHRINK_STEPS`] acceptances,
/// then panics with both the original and the minimized case so the
/// smallest reproducer is front and center.
///
/// The shrink loop re-runs `prop`, so properties must be deterministic
/// functions of the case (every property in this workspace is).
///
/// # Panics
///
/// Panics on the first failing case, reporting the seed, case index, the
/// original case, the shrunk case, and both failure messages.
pub fn forall_shrink<T: Debug + Clone>(
    seed: u64,
    cases: usize,
    mut gen: impl FnMut(&mut StdRng) -> T,
    mut shrink: impl FnMut(&T) -> Vec<T>,
    mut prop: impl FnMut(&T) -> Result<(), String>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..cases {
        let case = gen(&mut rng);
        let Err(msg) = prop(&case) else { continue };
        let mut minimal = case.clone();
        let mut minimal_msg = msg.clone();
        let mut steps = 0;
        'minimize: while steps < MAX_SHRINK_STEPS {
            for candidate in shrink(&minimal) {
                if let Err(cand_msg) = prop(&candidate) {
                    minimal = candidate;
                    minimal_msg = cand_msg;
                    steps += 1;
                    continue 'minimize;
                }
            }
            break; // local minimum: no candidate still fails
        }
        panic!(
            "property failed at case {i}/{cases} (seed {seed:#x}): {msg}\n\
             case: {case:#?}\n\
             shrunk ({steps} step(s)): {minimal_msg}\n\
             minimal case: {minimal:#?}"
        );
    }
}

/// Generates a `Vec<T>` whose length is drawn from `len` and whose
/// elements come from `element` — the common "random op sequence" shape
/// of this workspace's circuit properties.
pub fn vec_of<T>(
    rng: &mut StdRng,
    len: std::ops::Range<usize>,
    mut element: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    use crate::Rng;
    let n = rng.gen_range(len);
    (0..n).map(|_| element(rng)).collect()
}

/// Property-scoped assertion: evaluates to `Err` (with an optional
/// formatted message) instead of panicking, so [`forall`] can attach the
/// case context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Equality form of [`prop_assert!`], printing both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn forall_passes_trivially_true_property() {
        forall(1, DEFAULT_CASES, |rng| rng.gen::<f64>(), |&x| {
            prop_assert!((0.0..1.0).contains(&x));
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "property failed at case")]
    fn forall_reports_failing_case() {
        forall(2, 64, |rng| rng.gen_range(0..100usize), |&x| {
            prop_assert!(x < 50, "x = {x} not below 50");
            Ok(())
        });
    }

    #[test]
    fn forall_is_deterministic_per_seed() {
        let mut a = Vec::new();
        forall(3, 16, |rng| rng.gen::<u64>(), |&x| {
            a.push(x);
            Ok(())
        });
        let mut b = Vec::new();
        forall(3, 16, |rng| rng.gen::<u64>(), |&x| {
            b.push(x);
            Ok(())
        });
        assert_eq!(a, b);
    }

    #[test]
    fn forall_shrink_passes_when_property_holds() {
        forall_shrink(
            5,
            DEFAULT_CASES,
            |rng| rng.gen_range(0..1000usize),
            |&x| if x > 0 { vec![x / 2, x - 1] } else { vec![] },
            |&x| {
                prop_assert!(x < 1000);
                Ok(())
            },
        );
    }

    #[test]
    fn forall_shrink_minimizes_to_boundary() {
        // Property: x < 100. Failing draws land anywhere in [100, 10000);
        // greedy halving + decrement must walk them down to exactly 100,
        // and the panic must report that minimal case.
        let err = std::panic::catch_unwind(|| {
            forall_shrink(
                6,
                64,
                |rng| rng.gen_range(0..10_000usize),
                |&x| if x > 0 { vec![x / 2, x - 1] } else { vec![] },
                |&x| {
                    prop_assert!(x < 100, "x = {x} too big");
                    Ok(())
                },
            );
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("minimal case: 100"), "panic was: {msg}");
        assert!(msg.contains("x = 100 too big"), "panic was: {msg}");
    }

    #[test]
    fn forall_shrink_handles_empty_candidate_lists() {
        let err = std::panic::catch_unwind(|| {
            forall_shrink(
                7,
                8,
                |rng| rng.gen::<u64>(),
                |_| Vec::new(),
                |_| Err("always fails".into()),
            );
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("shrunk (0 step(s))"), "panic was: {msg}");
    }

    #[test]
    fn cases_env_override() {
        assert_eq!(parse_cases(None, 64), 64);
        assert_eq!(parse_cases(Some("500"), 64), 500);
        assert_eq!(parse_cases(Some(" 500 "), 64), 500);
        assert_eq!(parse_cases(Some("0"), 64), 64, "zero must be ignored");
        assert_eq!(parse_cases(Some("not a number"), 64), 64, "garbage must be ignored");
    }

    #[test]
    fn vec_of_respects_length_range() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let v = vec_of(&mut rng, 1..30, |r| r.gen::<f64>());
            assert!((1..30).contains(&v.len()));
        }
    }

    #[test]
    fn prop_assert_eq_formats_both_sides() {
        let check = || -> Result<(), String> {
            prop_assert_eq!(1 + 1, 3);
            Ok(())
        };
        let err = check().unwrap_err();
        assert!(err.contains("left: 2"));
        assert!(err.contains("right: 3"));
    }
}
