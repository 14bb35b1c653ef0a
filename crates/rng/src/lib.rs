//! # polar-rng — the in-tree PRNG substrate for POLaR
//!
//! POLaR's security argument rests on reproducible, seeded randomness:
//! the runtime draws a fresh layout per allocation, the evaluation
//! measures per-allocation entropy, and every test wants deterministic
//! replay. Owning the generator keeps the whole workspace building
//! offline with zero registry dependencies and makes the randomness
//! auditable: SplitMix64 expands a 64-bit seed into generator state,
//! and xoshiro256\*\* (Blackman–Vigna) produces the stream.
//!
//! The API mirrors the `rand` crate shapes the codebase was written
//! against, so call sites read idiomatically:
//!
//! ```
//! use polar_rng::rngs::StdRng;
//! use polar_rng::seq::SliceRandom;
//! use polar_rng::{Rng, RngExt, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let die: u32 = rng.random_range(1..=6);
//! assert!((1..=6).contains(&die));
//! let coin = rng.random_bool(0.5);
//! let word: u64 = rng.random();
//! let mut deck: Vec<u8> = (0..52).collect();
//! deck.shuffle(&mut rng);
//! let _ = (coin, word);
//! ```
//!
//! The crate also hosts [`Segments`], the stable-address table the
//! heap's slot records and the layout plan registry both grow in: it is
//! the one leaf crate both of them depend on. The generators and
//! samplers use only `core`.

#![forbid(unsafe_code)]

mod buffered;
mod distr;
mod segments;
mod splitmix;
mod xoshiro;
mod zipf;

pub mod rngs;
pub mod seq;

pub use buffered::{BufferedRng, BUFFERED_RNG_WORDS};
pub use distr::{Random, SampleRange, UniformInt};
pub use segments::Segments;
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256StarStar;
pub use zipf::Zipf;

/// A source of random 64-bit words.
///
/// This is the object-safe core trait (the analogue of `rand`'s
/// `RngCore`): implementors provide `next_u64`, everything else has
/// defaults. Derived draws (`random_range`, `shuffle`, …) live on
/// [`RngExt`] and [`seq::SliceRandom`].
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of a 64-bit draw, which is
    /// the better half for xoshiro-family generators).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes (little-endian word chunks).
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let word = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&word[..rest.len()]);
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Derived draws on top of any [`Rng`] — the helpers the layout engine,
/// fuzzer and runtime call (`random`, `random_range`, `random_bool`).
///
/// Blanket-implemented for every `Rng`, so `use polar_rng::RngExt`
/// brings the methods into scope on concrete generators and on
/// `R: Rng + ?Sized` generics alike.
pub trait RngExt: Rng {
    /// A uniformly random value of `T` over its whole domain
    /// (`bool` is a fair coin).
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// A uniform value in `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            // 53 high bits give an exact dyadic uniform on [0, 1).
            ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
        }
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Raw seed material (a fixed-size byte array).
    type Seed: AsMut<[u8]> + Default;

    /// Build the generator from raw seed material.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expand a 64-bit seed into full seed material via [`SplitMix64`]
    /// (the expansion the xoshiro authors recommend) and build the
    /// generator from it. Equal seeds give identical streams.
    fn seed_from_u64(state: u64) -> Self {
        let mut seeder = SplitMix64::new(state);
        let mut seed = Self::Seed::default();
        seeder.fill_bytes(seed.as_mut());
        Self::from_seed(seed)
    }
}
