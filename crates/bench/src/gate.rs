//! The bench gate's decisions, as pure functions of what was measured.
//!
//! `bench_json --gate <rev>` times each row of [`GATED`] in pairs: one
//! short run of the row's `runtime_ops` binary built on `<rev>`'s
//! libraries (the base) and one built on this tree's (the head), back to
//! back, the order alternating from pair to pair (ABBA…). This host
//! moves between a fast and a slow state about 2× apart, every second or
//! so, so absolute readings compare nothing; a short pair mostly sees one
//! state, and its ratio does not move with it. A row fails when the
//! median per-pair ratio head/base exceeds [`THRESHOLD`]. Pairs that
//! straddle a state change sit in the tails, which the median ignores;
//! a row whose ratios scatter more (the thread rows, whose threads
//! outnumber the vCPUs here) takes more pairs rather than a looser
//! threshold. The median's 95 % bootstrap interval is reported beside it.
//!
//! With at least 4 hardware threads the gate also holds the magazine's
//! scaling claim on the head side's own readings: 4 threads' aggregate
//! time per malloc/free pair stays within [`MT4_OVER_MT1`] of 1 thread's.
//!
//! Two rows are deterministic for a given seed, and they keep absolute
//! [`PINS`]: any move past the pin in the wrong direction fails.

use polar_rng::{rngs::StdRng, RngExt, SeedableRng};

use crate::micro::median;

/// The gated `runtime_ops` rows, in the order the gate runs them, each
/// with its pair count: 12 for the single-threaded rows, whose short run
/// takes ~0.1 s; 24 for the thread rows, whose per-pair ratios scatter
/// about twice as wide; 6 for the session store's, whose runs take
/// seconds and whose p99 moves less between host states.
pub const GATED: &[(&str, usize)] = &[
    ("alloc_free/olr_malloc_free", 12),
    ("alloc_free/olr_malloc_free_pooled", 12),
    ("alloc_free/olr_malloc_free_placement", 12),
    ("member_access/olr_getptr_cached", 12),
    ("member_access/olr_getptr_cached_pooled", 12),
    (MT[0], 24),
    (MT[1], 24),
    ("threads/olr_getptr_mt4", 24),
    ("session_store/p99", 6),
];

/// The rows of the magazine's scaling claim: malloc/free pairs on 1 and
/// on 4 threads, each thread on its own handle and shard.
pub const MT: [&str; 2] = ["threads/olr_malloc_free_mt1", "threads/olr_malloc_free_mt4"];

/// The largest `MT[1]`/`MT[0]` ratio of aggregate times per pair the
/// head passes with, checked only on hosts with at least 4 hardware
/// threads (4 threads on fewer cores measure the scheduler).
pub const MT4_OVER_MT1: f64 = 1.5;

/// Samples a gate run takes of a row (`--max-samples`), keeping a run
/// short enough that both runs of a pair mostly see one host state.
pub const SAMPLES: usize = 5;

/// The largest median head/base ratio a row passes with.
pub const THRESHOLD: f64 = 1.15;

/// Bootstrap resamples behind a row's interval.
const RESAMPLES: usize = 2000;

/// A deterministic row's pin.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// Row name.
    pub row: &'static str,
    /// The pinned value.
    pub value: f64,
    /// Unit of the value.
    pub unit: &'static str,
    /// Whether a lower value is the better one.
    pub lower_is_better: bool,
}

impl Pin {
    /// Whether `measured` is worse than the pin.
    pub fn fails(&self, measured: f64) -> bool {
        if self.lower_is_better {
            measured > self.value
        } else {
            measured < self.value
        }
    }
}

/// The deterministic rows' pins: the session store's POLaR metadata
/// bytes per live session at full scale, and the pooled/derived ratio
/// of metadata bytes after the same malloc/free churn of the probe class
/// (the Table III reduction).
pub const PINS: [Pin; 2] = [
    Pin {
        row: "session_store/meta_per_live",
        value: 122.27,
        unit: "B",
        lower_is_better: true,
    },
    Pin {
        row: "metadata_ratio/pooled_over_derived",
        value: 48.4,
        unit: "x",
        lower_is_better: false,
    },
];

/// A timed row's verdict over its pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioVerdict {
    /// Median of the per-pair ratios head/base.
    pub median: f64,
    /// Lower end of that median's 95 % bootstrap interval.
    pub low: f64,
    /// Upper end of the interval.
    pub high: f64,
}

impl RatioVerdict {
    /// Judge `(base, head)` pairs of a row's medians.
    ///
    /// # Panics
    ///
    /// On no pairs.
    pub fn of(pairs: &[(f64, f64)]) -> Self {
        assert!(!pairs.is_empty(), "a verdict needs pairs");
        let ratios: Vec<f64> = pairs.iter().map(|&(base, head)| head / base).collect();
        let mut rng = StdRng::seed_from_u64(0xB007);
        let mut resample = vec![0.0; ratios.len()];
        let mut medians: Vec<f64> = (0..RESAMPLES)
            .map(|_| {
                for r in &mut resample {
                    *r = ratios[rng.random_range(0..ratios.len())];
                }
                median(&mut resample)
            })
            .collect();
        medians.sort_by(f64::total_cmp);
        RatioVerdict {
            median: median(&mut ratios.clone()),
            low: medians[RESAMPLES / 40],
            high: medians[RESAMPLES - 1 - RESAMPLES / 40],
        }
    }

    /// Whether the row fails: a median over [`THRESHOLD`].
    pub fn fails(&self) -> bool {
        self.median > THRESHOLD
    }
}

/// The head side's `MT[1]`/`MT[0]` ratio: the median of 4 threads'
/// head readings over the median of 1 thread's, from each row's
/// `(base, head)` pairs.
pub fn mt4_over_mt1(mt1: &[(f64, f64)], mt4: &[(f64, f64)]) -> f64 {
    let heads = |pairs: &[(f64, f64)]| median(&mut pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    heads(mt4) / heads(mt1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eight pairs of a 10 ns row whose host flips to a 2× slower state
    /// and back: two pairs straddle a flip, the rest share a state, with
    /// a few percent of jitter. `slowdown` scales every head reading.
    fn flipping_pairs(slowdown: f64) -> Vec<(f64, f64)> {
        [
            (10.0, 10.3),
            (10.4, 10.1),
            (10.2, 20.6),
            (20.1, 19.8),
            (20.5, 20.9),
            (19.9, 10.2),
            (10.1, 9.8),
            (9.9, 10.2),
        ]
        .into_iter()
        .map(|(base, head)| (base, head * slowdown))
        .collect()
    }

    #[test]
    fn an_a_a_run_with_host_state_flips_passes() {
        let verdict = RatioVerdict::of(&flipping_pairs(1.0));
        assert!(!verdict.fails(), "{verdict:?}");
        assert!(verdict.low <= 1.0 && 1.0 <= verdict.high, "{verdict:?}");
    }

    #[test]
    fn a_uniform_slowdown_of_1_3_fails() {
        let verdict = RatioVerdict::of(&flipping_pairs(1.3));
        assert!(verdict.fails(), "{verdict:?}");
    }

    #[test]
    fn four_threads_past_1_5_times_one_thread_break_the_scaling_claim() {
        let mt1 = flipping_pairs(1.0);
        let scaled = |k: f64| mt4_over_mt1(&mt1, &flipping_pairs(k));
        assert!(scaled(1.4) <= MT4_OVER_MT1);
        assert!(scaled(1.6) > MT4_OVER_MT1);
    }

    #[test]
    fn a_deterministic_row_one_byte_over_its_pin_fails() {
        let [meta, ratio] = PINS;
        assert!(!meta.fails(meta.value));
        assert!(meta.fails(meta.value + 1.0));
        assert!(!ratio.fails(ratio.value));
        assert!(ratio.fails(ratio.value * 0.99));
    }
}
