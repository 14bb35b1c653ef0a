//! Strategies: recipes that turn a choice tape into a test value.

use core::marker::PhantomData;
use core::ops::{Range, RangeInclusive};

use crate::source::DataSource;

/// A recipe for producing values of one type from a [`DataSource`].
///
/// Generation must be a pure function of the draw stream: same tape,
/// same value. Strategies should also map the all-zero tape to their
/// *simplest* value (range floors, empty-ish collections, first
/// `one_of` alternative) — the shrinker pushes tapes toward zero.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Build one value, consuming draws from `src`.
    fn generate(&self, src: &mut DataSource<'_>) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, src: &mut DataSource<'_>) -> Self::Value {
        (**self).generate(src)
    }
}

/// A heap-allocated, type-erased strategy (what [`one_of`] stores).
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, src: &mut DataSource<'_>) -> T {
        (**self).generate(src)
    }
}

/// Integers that strategies can scale a raw draw into.
pub trait TapeInt: Copy {
    /// Map a draw into `lo..=hi` (caller guarantees `lo <= hi`), with
    /// draw `0` landing on `lo`.
    fn from_draw(src: &mut DataSource<'_>, lo: Self, hi: Self) -> Self;

    /// Map a draw into `lo..hi` (caller guarantees `lo < hi`).
    fn from_draw_open(src: &mut DataSource<'_>, lo: Self, hi: Self) -> Self;
}

macro_rules! tape_int_impl {
    ($($t:ty => $u:ty),*) => {$(
        impl TapeInt for $t {
            fn from_draw(src: &mut DataSource<'_>, lo: Self, hi: Self) -> Self {
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                let offset = src.draw_in(0, span);
                (lo as $u).wrapping_add(offset as $u) as $t
            }

            fn from_draw_open(src: &mut DataSource<'_>, lo: Self, hi: Self) -> Self {
                let pred = ((hi as $u).wrapping_sub(1)) as $t;
                Self::from_draw(src, lo, pred)
            }
        }
    )*};
}

tape_int_impl!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
);

impl<T: TapeInt + PartialOrd> Strategy for Range<T> {
    type Value = T;

    fn generate(&self, src: &mut DataSource<'_>) -> T {
        assert!(self.start < self.end, "empty range strategy");
        T::from_draw_open(src, self.start, self.end)
    }
}

impl<T: TapeInt + PartialOrd> Strategy for RangeInclusive<T> {
    type Value = T;

    fn generate(&self, src: &mut DataSource<'_>) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        T::from_draw(src, lo, hi)
    }
}

/// A strategy that always yields a clone of one value (proptest's
/// `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _src: &mut DataSource<'_>) -> T {
        self.0.clone()
    }
}

/// Shorthand for [`Just`].
pub fn just<T: Clone>(value: T) -> Just<T> {
    Just(value)
}

/// The result of [`StrategyExt::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn generate(&self, src: &mut DataSource<'_>) -> T {
        (self.f)(self.inner.generate(src))
    }
}

/// Combinator methods on every strategy.
pub trait StrategyExt: Strategy + Sized {
    /// Transform generated values with `f` (shrinking happens on the
    /// underlying tape, so mapped strategies shrink for free).
    ///
    /// Named `prop_map` (proptest's spelling) rather than `map`: range
    /// strategies also implement `Iterator`, and a method literally
    /// called `map` would be ambiguous at every range call site.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Erase the concrete type (for heterogeneous [`one_of`] lists).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
    {
        Box::new(self)
    }
}

impl<S: Strategy + Sized> StrategyExt for S {}

/// Uniform choice between alternatives (proptest's `prop_oneof!`).
pub struct OneOf<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, src: &mut DataSource<'_>) -> T {
        assert!(!self.options.is_empty(), "one_of with no alternatives");
        // Draw 0 selects the first alternative: list simplest first.
        let idx = src.draw_in(0, self.options.len() as u64 - 1) as usize;
        self.options[idx].generate(src)
    }
}

/// Choose uniformly among `options` per generated value.
pub fn one_of<T>(options: Vec<BoxedStrategy<T>>) -> OneOf<T> {
    OneOf { options }
}

/// `one_of![a, b, c]`: sugar that boxes each alternative.
#[macro_export]
macro_rules! one_of {
    ($($option:expr),+ $(,)?) => {
        $crate::one_of(vec![$($crate::StrategyExt::boxed($option)),+])
    };
}

/// The result of [`vec()`].
pub struct VecStrategy<S> {
    elem: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, src: &mut DataSource<'_>) -> Vec<S::Value> {
        assert!(self.len.start < self.len.end, "empty length range");
        let len = usize::from_draw_open(src, self.len.start, self.len.end);
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.elem.generate(src));
        }
        out
    }
}

/// A `Vec` whose length is drawn from `len` and whose elements come
/// from `elem` (proptest's `collection::vec`).
pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
    VecStrategy { elem, len }
}

/// Types with a canonical whole-domain strategy (proptest's `any`).
pub trait Arbitrary: Sized {
    /// Build one value from the tape.
    fn arbitrary(src: &mut DataSource<'_>) -> Self;
}

macro_rules! arbitrary_int_impl {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(src: &mut DataSource<'_>) -> Self {
                src.draw() as $t
            }
        }
    )*};
}

arbitrary_int_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(src: &mut DataSource<'_>) -> Self {
        src.draw() & 1 == 1
    }
}

/// The result of [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, src: &mut DataSource<'_>) -> T {
        T::arbitrary(src)
    }
}

/// The whole-domain strategy for `T` (`any::<u64>()`, `any::<bool>()`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

macro_rules! tuple_strategy_impl {
    ($(($($s:ident $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, src: &mut DataSource<'_>) -> Self::Value {
                ($(self.$idx.generate(src),)+)
            }
        }
    )+};
}

tuple_strategy_impl!(
    (A 0, B 1),
    (A 0, B 1, C 2),
    (A 0, B 1, C 2, D 3),
    (A 0, B 1, C 2, D 3, E 4),
    (A 0, B 1, C 2, D 3, E 4, F 5),
);
