//! A tiny deterministic property-testing harness.
//!
//! The repository's property tests run in hermetic environments with no
//! access to a package registry, so instead of an external framework the
//! tests draw their inputs from [`Gen`] — a thin layer over the kernel's
//! own [`SplitMix64`] — and run under [`forall`], which executes a fixed
//! number of seeded cases and reports the failing case's seed so any
//! counterexample can be replayed exactly.
//!
//! # Examples
//!
//! ```
//! use desim::check::forall;
//!
//! forall("addition commutes", 32, |g| {
//!     let a = g.u64(0, 1_000);
//!     let b = g.u64(0, 1_000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::rng::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A deterministic input generator for one property-test case.
pub struct Gen {
    rng: SplitMix64,
}

impl Gen {
    /// Creates a generator from an explicit seed (for replaying a
    /// reported counterexample).
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            rng: SplitMix64::new(seed),
        }
    }

    /// Uniform `u64` in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.rng.next_u64();
        }
        lo + self.rng.next_below(hi - lo + 1)
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive).
    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi]` (inclusive).
    pub fn u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.next_below(2) == 1
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.usize(0, items.len() - 1)]
    }

    /// A vector of `u64` values: length in `[min_len, max_len]`, values
    /// in `[lo, hi]`.
    pub fn vec_u64(&mut self, min_len: usize, max_len: usize, lo: u64, hi: u64) -> Vec<u64> {
        let n = self.usize(min_len, max_len);
        (0..n).map(|_| self.u64(lo, hi)).collect()
    }
}

/// Runs `prop` against `cases` deterministically seeded inputs.
///
/// Every case gets an independent [`Gen`]; the sequence of seeds is fixed,
/// so failures reproduce bit-for-bit across runs and machines. On failure
/// the panic message names the property, the case index, and the seed —
/// replay with [`Gen::from_seed`].
///
/// # Panics
///
/// Panics if any case panics (assertion failure inside `prop`).
pub fn forall(name: &str, cases: u64, mut prop: impl FnMut(&mut Gen)) {
    let mut seeder = SplitMix64::new(0x6870_6361_3937_u64); // "hpca97"
    for case in 0..cases {
        let seed = seeder.next_u64();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut g = Gen::from_seed(seed);
            prop(&mut g);
        }));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".into());
            panic!("property '{name}' failed on case {case}/{cases} (seed {seed:#x}): {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_stay_in_range() {
        forall("ranges", 64, |g| {
            let x = g.u64(10, 20);
            assert!((10..=20).contains(&x));
            let f = g.f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
            let v = g.vec_u64(1, 5, 0, 9);
            assert!(!v.is_empty() && v.len() <= 5);
            assert!(v.iter().all(|&x| x < 10));
            let item = *g.pick(&[1, 2, 3]);
            assert!((1..=3).contains(&item));
        });
    }

    #[test]
    fn cases_are_reproducible() {
        let collect = || {
            let mut seen = Vec::new();
            forall("collect", 8, |g| seen.push(g.u64(0, u64::MAX)));
            seen
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    #[should_panic(expected = "property 'always fails' failed on case 0")]
    fn failures_report_case_and_seed() {
        forall("always fails", 4, |_| panic!("boom"));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let mut g = Gen::from_seed(1);
        g.u64(5, 4);
    }
}
