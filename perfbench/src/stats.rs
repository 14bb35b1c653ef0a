//! Summary statistics: a log-linear latency histogram with the
//! ten-samples-beyond percentile rule, medians, geomeans, and the
//! process's peak resident set.

/// Sub-buckets per power of two above the exact range: 64 gives a
/// worst-case bucket width of 1/64 (1.6 %) of the value.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are recorded exactly, one bucket per nanosecond.
const EXACT: u64 = 2 * SUB;
const BUCKETS: usize = (EXACT + (64 - SUB_BITS as u64 - 1) * SUB) as usize;

/// The fewest samples that must lie beyond a percentile for it to be
/// reported: with fewer, the "p99" of a run is just its largest values.
pub const MIN_BEYOND: u64 = 10;

/// Latency histogram over nanoseconds. Buckets are exact below 128 ns and
/// 1/64 of an octave wide above; merging is element-wise addition, so
/// per-thread histograms combine without coordination.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e >= SUB_BITS + 1
    let shift = e - SUB_BITS;
    let sub = (v >> shift) - SUB;
    (EXACT + u64::from(e - SUB_BITS - 1) * SUB + sub) as usize
}

/// `[low, high)` value range of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < EXACT {
        return (i as f64, (i + 1) as f64);
    }
    let octave = (i - EXACT) / SUB;
    let sub = (i - EXACT) % SUB;
    let shift = octave + 1;
    let low = (SUB + sub) << shift;
    (low as f64, (low + (1 << shift)) as f64)
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (0 < q < 1), interpolated linearly inside its
    /// bucket, or `None` when fewer than [`MIN_BEYOND`] samples lie
    /// beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        if self.total == 0 || self.total - rank.min(self.total) < MIN_BEYOND {
            return None;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (low, high) = bucket_range(i);
                let within = (rank - seen) as f64 / c as f64;
                return Some(low + (high - low) * within);
            }
            seen += c;
        }
        None
    }
}

/// Per-op latency reported round by round: each round's percentiles are
/// taken from that round's samples alone, and the run reports their
/// interquartile mean over rounds (see [`interquartile_mean`]), so a burst
/// of host noise moves a few rounds and not the result.
#[derive(Clone, Default)]
pub struct RoundLatency {
    current: Histogram,
    /// `[p50, p99, p999]` of every closed round that had enough samples.
    per_round: [Vec<f64>; 3],
    samples: u64,
    rounds: u64,
}

/// The percentiles [`RoundLatency`] keeps.
pub const QUANTILES: [f64; 3] = [0.50, 0.99, 0.999];

impl RoundLatency {
    /// Record one sample into the open round.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.current.record(ns);
    }

    /// Close the open round and start the next.
    pub fn close_round(&mut self) {
        if self.current.count() == 0 {
            return;
        }
        for (q, v) in QUANTILES.iter().zip(&mut self.per_round) {
            if let Some(x) = self.current.percentile(*q) {
                v.push(x);
            }
        }
        self.samples += self.current.count();
        self.rounds += 1;
        self.current = Histogram::default();
    }

    /// Drop the open round's samples (a warm-up round).
    pub fn discard_round(&mut self) {
        self.current = Histogram::default();
    }

    /// Add another thread's closed rounds.
    pub fn merge(&mut self, other: &RoundLatency) {
        for (a, b) in self.per_round.iter_mut().zip(&other.per_round) {
            a.extend_from_slice(b);
        }
        self.samples += other.samples;
        self.rounds += other.rounds;
    }

    /// Interquartile mean over rounds of the `QUANTILES[i]` percentile,
    /// with the number of rounds that had ten samples beyond it.
    pub fn over_rounds(&self, i: usize) -> Option<(f64, usize)> {
        interquartile_mean(&self.per_round[i]).map(|m| (m, self.per_round[i].len()))
    }

    /// Samples recorded in closed rounds.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Closed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), interpolated linearly
/// between neighbouring order statistics, or `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `values` (mean of the middle two for an even count), or
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Mean of the middle half of `values`: the lowest and the highest
/// quarter (rounded down) are dropped. Like the median it ignores outlier
/// rounds, but it moves in proportion to the share of rounds that ran
/// fast or slow: on a host that switches between a fast and a slow state,
/// the median of the rounds jumps from one state's value to the other's
/// when that share crosses one half. `None` when empty.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// Geometric mean of positive `values`, or `None` when empty or when a
/// value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// `num / den`, or 0 when the base is 0 (the base is reported beside
/// every ratio, so a 0 over a 0 base reads as "not exercised").
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB, or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_their_values() {
        let mut last = 0;
        for v in (0..5_000u64).chain([1 << 20, (1 << 20) + 12_345, u64::MAX / 3]) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order broke at {v}");
            last = b;
            let (low, high) = bucket_range(b);
            assert!(
                low <= v as f64 && (v as f64) < high,
                "{v} outside [{low}, {high})"
            );
            if v >= EXACT {
                assert!((high - low) / low <= 1.0 / SUB as f64 + 1e-12);
            }
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut h = Histogram::default();
        for v in 0..999 {
            h.record(v);
        }
        // 999 samples: the p99 rank is 990, leaving only 9 beyond.
        assert_eq!(h.percentile(0.99), None);
        h.record(999);
        // 1000 samples: exactly 10 beyond rank 990.
        let p99 = h.percentile(0.99).expect("ten samples beyond");
        assert!((989.0..=991.0).contains(&p99), "p99 = {p99}");
        assert_eq!(h.percentile(0.999), None);
        let p50 = h.percentile(0.5).expect("plenty beyond the median");
        assert!((499.0..=501.0).contains(&p50), "p50 = {p50}");
        assert_eq!(Histogram::default().percentile(0.5), None);
    }

    #[test]
    fn merged_histograms_agree_with_one_histogram() {
        let (mut a, mut b, mut all) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in 0..20_000u64 {
            let ns = (v * 7919) % 50_000;
            if v % 2 == 0 {
                a.record(ns)
            } else {
                b.record(ns)
            }
            all.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.percentile(0.99), all.percentile(0.99));
    }

    #[test]
    fn round_latency_drops_outlier_rounds() {
        let mut r = RoundLatency::default();
        // Four rounds of 2000 samples; one is 10x slower.
        for scale in [1u64, 10, 1, 1] {
            for v in 0..2_000u64 {
                r.record(scale * (100 + v % 100));
            }
            r.close_round();
        }
        let (p50, rounds) = r.over_rounds(0).expect("four rounds");
        assert_eq!(rounds, 4);
        assert!((145.0..=155.0).contains(&p50), "p50 = {p50}");
        // p999 of 2000 samples leaves only 2 beyond: no round reports it.
        assert_eq!(r.over_rounds(2), None);
        assert_eq!((r.samples(), r.rounds()), (8_000, 4));
        let mut other = RoundLatency::default();
        other.merge(&r);
        assert_eq!(other.over_rounds(0), r.over_rounds(0));
    }

    #[test]
    fn interquartile_mean_follows_the_share_of_slow_rounds() {
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[3.0]), Some(3.0));
        // Eight rounds: the lowest and highest two are dropped.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(interquartile_mean(&v), Some(3.5));
        // Rounds at 30 (fast) or 40 (slow): the median jumps from 30 to
        // 40 between 7 and 9 slow rounds of 16; the interquartile mean
        // moves by a quarter of the gap.
        let mixed = |slow: usize| -> Vec<f64> {
            (0..16)
                .map(|i| if i < slow { 40.0 } else { 30.0 })
                .collect()
        };
        assert_eq!(median(&mixed(7)), Some(30.0));
        assert_eq!(median(&mixed(9)), Some(40.0));
        assert_eq!(interquartile_mean(&mixed(7)), Some(33.75));
        assert_eq!(interquartile_mean(&mixed(9)), Some(36.25));
    }

    #[test]
    fn geomean_is_the_figure6_aggregate() {
        let g = geomean(&[1.0, 4.0]).expect("positive values");
        assert!((g - 2.0).abs() < 1e-12);
        let g = geomean(&[1.1, 1.1, 1.1]).expect("positive values");
        assert!((g - 1.1).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn quantile_median_and_ratio_edge_cases() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.1), Some(1.4));
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.9), Some(4.6));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(ratio(3, 0), 0.0);
    }
}
