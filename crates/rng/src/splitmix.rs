//! SplitMix64: the seed expander.
//!
//! A tiny, fast, full-period generator over a 64-bit state. Its one job
//! here is turning a user-facing 64-bit seed into well-mixed state for
//! [`Xoshiro256StarStar`](crate::Xoshiro256StarStar) — adjacent seeds
//! (0, 1, 2, …) must still produce uncorrelated streams, which the
//! finalizer's avalanche guarantees.

use crate::Rng;

/// The golden-ratio increment the state advances by on every draw.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// How many draws each [`SplitMix64::stream`] window spans (2^32).
///
/// Stream `i` starts exactly `i * STREAM_DRAWS` draws into the root
/// sequence, so two streams only collide if one of them consumes more
/// than 2^32 values — far beyond any use in this workspace.
pub const STREAM_DRAWS: u64 = 1 << 32;

/// Sebastiano Vigna's SplitMix64 (public-domain reference constants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Advance the generator by `draws` outputs in O(1).
    ///
    /// SplitMix64's state moves by a fixed increment per draw, so a jump
    /// is a single multiply — this is what makes cheap disjoint
    /// per-thread streams possible.
    pub fn jump(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(GAMMA.wrapping_mul(draws));
    }

    /// Stream `index` of the root sequence seeded by `root`: the
    /// generator positioned `STREAM_DRAWS * index` draws in.
    ///
    /// Streams with distinct indices are guaranteed non-overlapping
    /// windows of the same full-period sequence as long as each consumes
    /// fewer than 2^32 draws. The sharded runtime hands stream `t` to
    /// thread `t` so per-thread randomness stays independent of
    /// scheduling and of every other thread's consumption.
    pub fn stream(root: u64, index: u64) -> Self {
        let mut rng = SplitMix64::new(root);
        rng.jump(STREAM_DRAWS.wrapping_mul(index));
        rng
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // First three outputs of the public-domain reference
        // implementation seeded with 1234567.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn zero_seed_still_mixes() {
        let mut rng = SplitMix64::new(0);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn jump_matches_sequential_draws() {
        for n in [0u64, 1, 2, 17, 1000] {
            let mut walked = SplitMix64::new(0xDEAD_BEEF);
            for _ in 0..n {
                walked.next_u64();
            }
            let mut jumped = SplitMix64::new(0xDEAD_BEEF);
            jumped.jump(n);
            assert_eq!(walked, jumped, "jump({n}) diverged from {n} draws");
            assert_eq!(walked.next_u64(), jumped.next_u64());
        }
    }

    #[test]
    fn streams_are_disjoint_windows_of_the_root_sequence() {
        // Stream 0 is the root sequence itself.
        assert_eq!(SplitMix64::stream(42, 0), SplitMix64::new(42));
        // Stream i sits exactly i * STREAM_DRAWS draws in.
        let mut root = SplitMix64::new(42);
        root.jump(STREAM_DRAWS);
        assert_eq!(SplitMix64::stream(42, 1), root);
        let mut root = SplitMix64::new(42);
        root.jump(STREAM_DRAWS.wrapping_mul(7));
        assert_eq!(SplitMix64::stream(42, 7), root);
        // Distinct streams start from distinct states.
        let a = SplitMix64::stream(42, 1).next_u64();
        let b = SplitMix64::stream(42, 2).next_u64();
        assert_ne!(a, b);
    }
}
