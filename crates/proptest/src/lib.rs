//! A deliberately small, dependency-free stand-in for the `proptest`
//! crate, implementing exactly the subset of its API this workspace
//! uses. The build environment has no access to a crates.io registry,
//! so the real crate cannot be vendored; this shim keeps the property
//! tests (and their source-level idioms) working offline.
//!
//! Differences from real proptest, by design:
//!
//! * no shrinking — a failing case panics with its case number and the
//!   deterministic seed so it can be replayed by re-running the test;
//! * generation is fully deterministic (seeded from the test name), so
//!   failures reproduce without `.proptest-regressions` files;
//! * only the strategy combinators used in this repository exist:
//!   integer ranges, `any::<T>()`, tuples, `Just`, `prop_map`,
//!   `prop_filter`, `prop_oneof!`, `collection::vec`, and a tiny `[class]{m,n}`
//!   regex-string strategy.

use std::ops::Range;

/// Deterministic xorshift64* generator used by every strategy.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed (0 is mapped to a fixed odd seed).
    pub fn from_seed(seed: u64) -> TestRng {
        TestRng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A value generator. Unlike real proptest there is no shrinking, so a
/// strategy is just "generate one value from the RNG".
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Keeps only values for which `fun` holds, drawing again otherwise.
    /// `whence` says what the filter wants; a filter that rejects
    /// [`MAX_REJECTS`] draws in a row panics with it.
    fn prop_filter<F>(self, whence: &'static str, fun: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            fun,
        }
    }
}

/// Consecutive rejections after which [`Strategy::prop_filter`] gives up.
pub const MAX_REJECTS: u32 = 1 << 16;

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    fun: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..MAX_REJECTS {
            let v = self.inner.generate(rng);
            if (self.fun)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected {MAX_REJECTS} draws in a row: {}",
            self.whence
        );
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The `any::<T>()` strategy.
pub struct Any<T>(std::marker::PhantomData<T>);

/// Generates arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.below(span)) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($(($($n:ident . $i:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Minimal `[class]{m,n}`-style regex strategy for `&str` literals, e.g.
/// `"[a-z]{1,6}"` or `"[a-z./]{1,20}"`. Plain characters outside a class
/// are emitted literally; a class without a repeat count emits once.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        let (alphabet, after_atom) = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed class in pattern `{pattern}`"));
            (expand_class(&chars[i + 1..close]), close + 1)
        } else {
            (vec![chars[i]], i + 1)
        };
        let (lo, hi, next) = if after_atom < chars.len() && chars[after_atom] == '{' {
            let close = chars[after_atom..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| after_atom + p)
                .unwrap_or_else(|| panic!("unclosed repeat in pattern `{pattern}`"));
            let spec: String = chars[after_atom + 1..close].iter().collect();
            let (lo, hi) = match spec.split_once(',') {
                Some((a, b)) => (a.trim().parse().unwrap(), b.trim().parse().unwrap()),
                None => {
                    let n: usize = spec.trim().parse().unwrap();
                    (n, n)
                }
            };
            (lo, hi, close + 1)
        } else {
            (1, 1, after_atom)
        };
        let count = lo + rng.below((hi - lo + 1) as u64) as usize;
        for _ in 0..count {
            out.push(alphabet[rng.below(alphabet.len() as u64) as usize]);
        }
        i = next;
    }
    out
}

/// Expands a character-class body (`a-z./`) into its member characters.
fn expand_class(body: &[char]) -> Vec<char> {
    let mut set = Vec::new();
    let mut i = 0;
    while i < body.len() {
        if i + 2 < body.len() && body[i + 1] == '-' {
            for c in body[i]..=body[i + 2] {
                set.push(c);
            }
            i += 3;
        } else {
            set.push(body[i]);
            i += 1;
        }
    }
    assert!(!set.is_empty(), "empty character class");
    set
}

/// A type-erased strategy, produced by [`boxed_strategy`] and consumed
/// by [`prop_oneof!`].
pub struct BoxedStrategy<V> {
    gen_fn: Box<dyn Fn(&mut TestRng) -> V>,
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (self.gen_fn)(rng)
    }
}

/// Erases a strategy's concrete type (used by [`prop_oneof!`]).
pub fn boxed_strategy<S>(s: S) -> BoxedStrategy<S::Value>
where
    S: Strategy + 'static,
{
    BoxedStrategy {
        gen_fn: Box::new(move |rng| s.generate(rng)),
    }
}

/// Uniform choice among type-erased strategies (see [`prop_oneof!`]).
pub struct OneOf<V> {
    /// The alternatives.
    pub options: Vec<BoxedStrategy<V>>,
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` of `size.start..size.end` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1);
            let len = self.size.start + rng.below(span as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration; only `cases` is meaningful in the shim.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Accepted for source compatibility; ignored.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

/// The case count a test should actually run: the `PROPTEST_CASES`
/// environment variable (real proptest's knob, used by the chaos CI job
/// to crank coverage up) overrides any per-test config when it parses to
/// a positive number.
#[expect(clippy::disallowed_methods, reason = "real proptest's case knob")]
pub fn resolved_cases(config: &ProptestConfig) -> u32 {
    parse_cases(std::env::var("PROPTEST_CASES").ok().as_deref()).unwrap_or(config.cases)
}

fn parse_cases(raw: Option<&str>) -> Option<u32> {
    raw.and_then(|s| s.trim().parse().ok()).filter(|&n| n > 0)
}

/// Stable seed derived from the test name, so every run generates the
/// same cases (FNV-1a).
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01B3);
    }
    h
}

/// The proptest entry macro: wraps `fn name(arg in strategy, ...) { .. }`
/// items into `#[test]` functions that loop over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let cases = $crate::resolved_cases(&config);
            let seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cases {
                let mut rng = $crate::TestRng::from_seed(
                    seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let run = || {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    $body
                };
                if let Err(panic) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                    eprintln!(
                        "proptest case {} of {} failed (seed {:#x}); rerun `{}` to reproduce",
                        case, cases, seed, stringify!($name),
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `assert!` under a proptest-compatible name (no shrinking, so it just
/// panics; the runner prints the case/seed).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf { options: vec![$($crate::boxed_strategy($strat)),+] }
    };
}

/// The glob-importable prelude, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::from_seed(7);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn pattern_strings_match_shape() {
        let mut rng = TestRng::from_seed(9);
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z]{1,6}", &mut rng);
            assert!((1..=6).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn vec_sizes_in_range() {
        let mut rng = TestRng::from_seed(11);
        for _ in 0..200 {
            let v = Strategy::generate(&crate::collection::vec(0u8..10, 2..5), &mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = TestRng::from_seed(42);
        let mut b = TestRng::from_seed(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #[test]
        fn macro_generates_and_loops(x in 0u32..100, flip in any::<bool>()) {
            prop_assert!(x < 100);
            let _ = flip;
        }
    }

    #[test]
    fn cases_env_parsing() {
        assert_eq!(crate::parse_cases(None), None);
        assert_eq!(crate::parse_cases(Some("2048")), Some(2048));
        assert_eq!(crate::parse_cases(Some(" 16 ")), Some(16));
        assert_eq!(crate::parse_cases(Some("0")), None, "zero means 'unset'");
        assert_eq!(crate::parse_cases(Some("lots")), None);
    }

    #[test]
    fn oneof_covers_all_branches() {
        let s = prop_oneof![Just(1u32), Just(2u32), Just(3u32)];
        let mut rng = TestRng::from_seed(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(Strategy::generate(&s, &mut rng));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn filter_keeps_only_accepted_values() {
        let s = (0u32..10).prop_filter("even", |x| x % 2 == 0);
        let mut rng = TestRng::from_seed(9);
        for _ in 0..100 {
            assert_eq!(Strategy::generate(&s, &mut rng) % 2, 0);
        }
    }
}
