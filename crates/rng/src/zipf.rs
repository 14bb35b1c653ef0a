//! Zipf(s, n) sampling by rejection-inversion.
//!
//! The session-store workload keys its traffic by a Zipf law — a few
//! hot keys absorb most operations, a long tail stays cold — which is
//! the canonical access pattern for cache/KV evaluations. Sampling it
//! naively (inverse CDF over a precomputed table) costs O(n) setup and
//! a binary search per draw; Hörmann & Derflinger's rejection-inversion
//! method ("Rejection-inversion to generate variates from monotone
//! discrete distributions", ACM TOMACS 1996) needs O(1) setup, O(1)
//! expected draws, and works for any exponent `s >= 0` including the
//! classic `s = 1` harmonic case.
//!
//! The samplers use only `core`, which has no float `ln` or `exp`, so
//! the method's transcendentals are implemented here on top of core
//! float arithmetic: argument reduction into a narrow interval plus a
//! short series, good to ~1e-14 relative error (verified against `std`
//! in the tests).
//! Sampling is fully deterministic per seed: every draw consumes raw
//! words from the caller's [`Rng`] and nothing else.

use crate::{Rng, RngExt};

/// A Zipf distribution over `1..=n` with `P(k)` proportional to
/// `k^-s`, sampled by rejection-inversion.
///
/// Construction is O(1) and the struct is `Copy`-cheap to clone, so
/// workloads can hold one per thread. Draws are deterministic per
/// seed: equal generator streams yield equal key sequences.
///
/// ```
/// use polar_rng::rngs::StdRng;
/// use polar_rng::{SeedableRng, Zipf};
///
/// let zipf = Zipf::new(1_000_000, 0.99);
/// let mut rng = StdRng::seed_from_u64(7);
/// let key = zipf.sample(&mut rng);
/// assert!((1..=1_000_000).contains(&key));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Zipf {
    n: f64,
    exponent: f64,
    /// `H(1.5) - h(1)`: the top of the inversion interval.
    h_integral_x1: f64,
    /// `H(n + 0.5)`: the bottom of the inversion interval.
    h_integral_n: f64,
    /// Shortcut threshold: candidates within `s` of their bucket centre
    /// are accepted without evaluating the hat function.
    s: f64,
}

impl Zipf {
    /// A Zipf distribution over `1..=n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or when `exponent` is negative or not
    /// finite (`s = 0` is allowed and degenerates to uniform).
    pub fn new(n: u64, exponent: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one element");
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "Zipf exponent must be finite and non-negative, got {exponent}"
        );
        let nf = n as f64;
        let h_integral_x1 = h_integral(1.5, exponent) - 1.0;
        let h_integral_n = h_integral(nf + 0.5, exponent);
        let s = 2.0 - h_integral_inverse(h_integral(2.5, exponent) - h(2.0, exponent), exponent);
        Zipf { n: nf, exponent, h_integral_x1, h_integral_n, s }
    }

    /// The number of elements `n`.
    pub fn elements(&self) -> u64 {
        self.n as u64
    }

    /// One draw from the distribution: a key in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            // u is uniform on (H(1.5) - h(1), H(n + 0.5)]; inverting H
            // proposes a continuous candidate x whose rounded bucket k
            // is accepted iff u lies under the discrete histogram.
            let f: f64 = rng.random();
            let u = self.h_integral_n + f * (self.h_integral_x1 - self.h_integral_n);
            let x = h_integral_inverse(u, self.exponent);
            let k64 = clamp(x, 1.0, self.n);
            // k64 >= 1 so truncation of k64 + 0.5 is round-to-nearest.
            let k = (k64 + 0.5) as u64 as f64;
            if k - x <= self.s || u >= h_integral(k + 0.5, self.exponent) - h(k, self.exponent) {
                return k as u64;
            }
        }
    }
}

fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    // f64::clamp rejects NaN bounds at runtime; ours are constants, but
    // the explicit form also pins NaN x to lo instead of propagating.
    if x >= hi {
        hi
    } else if x >= lo {
        x
    } else {
        lo
    }
}

/// `H(x) = (x^(1-s) - 1) / (1 - s)`, continued as `ln x` at `s = 1`.
///
/// Written as `helper2((1-s) ln x) * ln x` so the `s -> 1` limit is
/// taken by the series instead of a 0/0 division.
fn h_integral(x: f64, exponent: f64) -> f64 {
    let log_x = ln(x);
    helper2((1.0 - exponent) * log_x) * log_x
}

/// `h(x) = x^-s`, the (unnormalized) probability weight at `x`.
fn h(x: f64, exponent: f64) -> f64 {
    exp(-exponent * ln(x))
}

/// `H^-1(x)`: the inverse of [`h_integral`].
fn h_integral_inverse(x: f64, exponent: f64) -> f64 {
    let mut t = x * (1.0 - exponent);
    if t < -1.0 {
        // Limit the argument range of ln1p below; this only triggers
        // from rounding at the very bottom of the inversion interval
        // and the caller clamps the result into [1, n] anyway.
        t = -1.0;
    }
    exp(helper1(t) * x)
}

/// `ln(1 + x) / x`, with the series limit `1 - x/2 + x^2/3 - ...` near
/// zero where the direct form loses all its precision.
fn helper1(x: f64) -> f64 {
    if x > -0.5 && x < 0.5 {
        // Alternating series, |x| < 0.5: sum x^k (-1)^k / (k + 1).
        let mut sum = 0.0;
        let mut term = 1.0;
        let mut k = 0u32;
        loop {
            sum += term / (k + 1) as f64;
            k += 1;
            if k > 40 {
                break;
            }
            term *= -x;
            if term == 0.0 {
                break;
            }
        }
        sum
    } else if x <= -1.0 {
        // ln(0)/(-1): the inversion tail; saturate so exp() clamps.
        f64::INFINITY
    } else {
        ln(1.0 + x) / x
    }
}

/// `(exp(x) - 1) / x`, with the series limit `1 + x/2 + x^2/6 + ...`
/// near zero.
fn helper2(x: f64) -> f64 {
    if x > -0.5 && x < 0.5 {
        let mut sum = 0.0;
        let mut term = 1.0;
        for k in 1..=24u32 {
            sum += term;
            term *= x / (k + 1) as f64;
        }
        sum
    } else {
        (exp(x) - 1.0) / x
    }
}

const LN2: f64 = core::f64::consts::LN_2;

/// Natural log for positive finite normal inputs, in pure core math.
///
/// Decomposes `x = m * 2^e` with `m` in `[sqrt(1/2), sqrt(2))`, then
/// `ln m = 2 atanh((m-1)/(m+1))` by its odd series; the reduced
/// argument satisfies `|t| <= 0.1716` so ten terms reach ~1e-16.
pub(crate) fn ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite(), "ln domain: {x}");
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    if e == -1023 {
        // Subnormal input: renormalize by scaling up 2^52 first.
        let y = x * (1u64 << 52) as f64;
        let ybits = y.to_bits();
        e = ((ybits >> 52) & 0x7ff) as i64 - 1023 - 52;
        m = f64::from_bits((ybits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    }
    if m > core::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    // atanh(t) = t + t^3/3 + t^5/5 + ... ; evaluate by Horner from the
    // highest term so the small corrections accumulate first.
    let mut poly = 1.0 / 19.0;
    let mut k = 17i32;
    while k >= 1 {
        poly = poly * t2 + 1.0 / k as f64;
        k -= 2;
    }
    2.0 * t * poly + e as f64 * LN2
}

/// `e^x` for any finite input, in pure core math; saturates to
/// `f64::MAX` above the overflow threshold and to `0` below the
/// underflow threshold.
///
/// Reduces `x = k ln2 + r` with `|r| <= ln2 / 2`, sums thirteen Taylor
/// terms of `e^r`, and applies the exact power-of-two scale by bit
/// construction.
pub(crate) fn exp(x: f64) -> f64 {
    if x > 709.0 {
        return f64::MAX;
    }
    if x < -745.0 {
        return 0.0;
    }
    let k = if x >= 0.0 { (x / LN2 + 0.5) as i64 } else { (x / LN2 - 0.5) as i64 };
    // Split ln2 into a high part exact in the product and a low
    // correction, so r keeps full precision even for large k.
    const LN2_HI: f64 = 6.931_471_803_691_238_16e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_70e-10;
    let r = (x - k as f64 * LN2_HI) - k as f64 * LN2_LO;
    let mut term = 1.0;
    let mut sum = 1.0;
    for i in 1..=13u32 {
        term *= r / i as f64;
        sum += term;
    }
    sum * pow2i(k)
}

/// `2^k` as an f64, exact over the normal range.
fn pow2i(k: i64) -> f64 {
    if (-1022..=1023).contains(&k) {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else if k > 1023 {
        f64::MAX
    } else {
        // Subnormal or underflowed scale: build 2^-1022 and divide the
        // rest out (at most 52 further halvings matter).
        let mut v = f64::from_bits(1u64 << 52); // 2^-1022
        let mut left = -1022 - k;
        while left > 0 && v > 0.0 {
            v *= 0.5;
            left -= 1;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;
    use crate::SeedableRng;

    #[test]
    fn core_ln_matches_std() {
        let mut worst = 0.0f64;
        let mut x = 1e-8;
        while x < 1e12 {
            let got = ln(x);
            let want = x.ln();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x *= 1.37;
        }
        assert!(worst < 1e-13, "core ln drifts from std ln: rel err {worst:e}");
    }

    #[test]
    fn core_exp_matches_std() {
        let mut worst = 0.0f64;
        let mut x = -700.0;
        while x < 700.0 {
            let got = exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.789;
        }
        assert!(worst < 1e-13, "core exp drifts from std exp: rel err {worst:e}");
    }

    #[test]
    fn samples_stay_in_bounds() {
        for &(n, s) in &[(1u64, 1.0f64), (2, 0.0), (10, 0.5), (100, 1.0), (1_000_000, 1.2)] {
            let zipf = Zipf::new(n, s);
            let mut rng = StdRng::seed_from_u64(0x5A1F ^ n ^ s.to_bits());
            for _ in 0..2_000 {
                let k = zipf.sample(&mut rng);
                assert!(
                    (1..=n).contains(&k),
                    "Zipf({n}, {s}) produced out-of-range key {k}"
                );
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let zipf = Zipf::new(10_000, 0.99);
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64).map(|_| zipf.sample(&mut rng)).collect()
        };
        assert_eq!(draw(42), draw(42), "equal seeds must replay equal key streams");
        assert_ne!(draw(42), draw(43), "distinct seeds should diverge");
    }

    #[test]
    fn zipf_goodness_of_fit_chi_square() {
        // 20 cells, 400k draws, exponent 1 (the harmonic case the
        // helper-series limits exist for). Expected cell probabilities
        // are k^-1 / H_20; the 0.9999 chi-square quantile at 19 degrees
        // of freedom is ~49.6, checked with headroom at a fixed seed.
        const N: usize = 20;
        const DRAWS: u64 = 400_000;
        let zipf = Zipf::new(N as u64, 1.0);
        let mut rng = StdRng::seed_from_u64(0x21F0_F00D);
        let mut counts = [0u64; N];
        for _ in 0..DRAWS {
            counts[(zipf.sample(&mut rng) - 1) as usize] += 1;
        }
        let weight = |k: usize| (k as f64 + 1.0).powf(-1.0);
        let total_weight: f64 = (0..N).map(weight).sum();
        let chi2: f64 = (0..N)
            .map(|k| {
                let expected = DRAWS as f64 * weight(k) / total_weight;
                let d = counts[k] as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(
            chi2 < 55.0,
            "Zipf draws do not fit k^-s: chi^2 = {chi2:.1}, counts {counts:?}"
        );
    }

    #[test]
    fn steeper_exponents_concentrate_mass() {
        let flat = Zipf::new(1_000, 0.5);
        let steep = Zipf::new(1_000, 1.5);
        let head_share = |zipf: &Zipf, seed: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let hits = (0..20_000).filter(|_| zipf.sample(&mut rng) <= 10).count();
            hits as f64 / 20_000.0
        };
        let f = head_share(&flat, 9);
        let s = head_share(&steep, 9);
        assert!(
            s > f + 0.2,
            "exponent 1.5 should concentrate on the head far more than 0.5 (got {s:.3} vs {f:.3})"
        );
    }
}
