//! Minimal, dependency-free stand-in for the [`proptest`] crate.
//!
//! The CI container cannot reach crates.io, so this workspace vendors the
//! slice of proptest's API its property tests actually use:
//!
//! * [`Strategy`] implemented for integer `Range`/`RangeInclusive`, tuples
//!   of strategies and [`prop::collection::vec`];
//! * the [`proptest!`] macro (including `#![proptest_config(..)]`);
//! * [`prop_assert!`] / [`prop_assert_eq!`];
//! * [`ProptestConfig::with_cases`].
//!
//! Generation is a deterministic xorshift64* stream seeded from the test
//! name, so failures are reproducible run-to-run. There is no shrinking:
//! a failing case reports its index and the failed assertion. Case counts
//! are bounded, and `PMC_PROPTEST_CASES` *overrides* every suite's
//! configured count — downwards to stay fast on shared CI runners,
//! upwards for deep sweeps (the nightly CI run sets 256).
//!
//! [`proptest`]: https://crates.io/crates/proptest

use std::ops::{Range, RangeInclusive};

/// Runner configuration — only the `cases` knob is supported.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// Case count after applying the global `PMC_PROPTEST_CASES`
    /// override (exact — it can lower *or* raise the configured count).
    pub fn effective_cases(&self) -> u32 {
        match std::env::var("PMC_PROPTEST_CASES").ok().and_then(|v| v.parse::<u32>().ok()) {
            Some(n) => n.max(1),
            None => self.cases,
        }
    }
}

/// Deterministic xorshift64* generator.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed deterministically from a test name (FNV-1a over the bytes).
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng { state: h | 1 }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw in `[0, bound)` (bound > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A value generator. Mirrors proptest's `Strategy` in name and associated
/// type so `impl Strategy<Value = T>` signatures carry over unchanged.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                assert!(span > 0, "empty range strategy");
                (self.start as u64 + rng.below(span)) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as u64, *self.end() as u64);
                let span = hi.wrapping_sub(lo).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range (e.g. 0..=u64::MAX).
                    return rng.next_u64() as $t;
                }
                (lo + rng.below(span)) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
}

/// `prop::collection::vec` and friends.
pub mod prop {
    pub mod collection {
        use crate::{Strategy, TestRng};
        use std::ops::Range;

        pub struct VecStrategy<S: Strategy> {
            element: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.end - self.size.start).max(1) as u64;
                let len = self.size.start + rng.below(span) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Strategy for a `Vec` of `size.start..size.end` elements.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Non-panicking assert: reports the failing case instead of unwinding from
/// deep inside generated data.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} at {}:{}", stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} ({}) at {}:{}",
                stringify!($cond), format!($($fmt)*), file!(), line!()
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        if !(l == r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{:?} == {:?}` at {}:{}", l, r, file!(), line!()
            ));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$lhs, &$rhs);
        if !(l == r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{:?} == {:?}` ({}) at {}:{}",
                l, r, format!($($fmt)*), file!(), line!()
            ));
        }
    }};
}

/// The `proptest!` block macro: wraps each `fn name(pat in strategy)` in a
/// deterministic loop over `config.cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($pat:pat in $strat:expr) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let strategy = $strat;
                let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.effective_cases() {
                    let $pat = $crate::Strategy::generate(&strategy, &mut rng);
                    let outcome: ::std::result::Result<(), ::std::string::String> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(msg) = outcome {
                        panic!("proptest case {case} of {}: {msg}", stringify!($name));
                    }
                }
            }
        )*
    };
    ( $($rest:tt)* ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $($rest)*
        }
    };
}
