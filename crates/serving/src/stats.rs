//! Exact latency statistics.

use std::cmp::Ordering;

/// Summary statistics over a set of request latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub n: usize,
    /// Mean latency, seconds.
    pub mean_s: f64,
    /// Median latency, seconds.
    pub p50_s: f64,
    /// 95th percentile, seconds.
    pub p95_s: f64,
    /// 99th percentile, seconds.
    pub p99_s: f64,
    /// Maximum, seconds.
    pub max_s: f64,
}

impl LatencyStats {
    /// Computes exact percentiles with the nearest-rank method, using
    /// O(n) selection instead of a full sort (this runs once per DES
    /// replication, and a 20k-sample sort was the single hottest spot
    /// in sweep profiles). Each percentile is the exact element a sorted
    /// array would hold at that rank.
    ///
    /// Returns all-zero stats for an empty input.
    pub fn from_samples(samples: &[f64]) -> LatencyStats {
        LatencyStats::from_scratch(&mut samples.to_vec())
    }

    /// [`LatencyStats::from_samples`] on a buffer the caller gives up:
    /// it selects in `samples` itself instead of a copy, and leaves them
    /// in an unspecified order. The mean sums `samples` in their given
    /// order first, so the result is bit-identical to
    /// `from_samples(samples)`.
    pub(crate) fn from_scratch(samples: &mut [f64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats {
                n: 0,
                mean_s: 0.0,
                p50_s: 0.0,
                p95_s: 0.0,
                p99_s: 0.0,
                max_s: 0.0,
            };
        }
        let n = samples.len();
        // One fused pass for sign check, mean accumulation, and max:
        // the sum accumulates in slice order (bit-identical to a
        // separate `iter().sum()`), and `total_cmp == Greater` keeps
        // the first maximal element — equal under `total_cmp` means
        // identical bits, so the result matches `max_by` exactly.
        let mut sum = 0.0f64;
        let mut max_s = f64::NEG_INFINITY;
        let mut all_nonneg = true;
        for s in samples.iter() {
            sum += s;
            if s.total_cmp(&max_s) == Ordering::Greater {
                max_s = *s;
            }
            all_nonneg &= s.to_bits() >> 63 == 0;
        }
        // For non-negative samples (every latency the engines record),
        // `total_cmp` coincides exactly with the unsigned order of the
        // IEEE-754 bit patterns, so selection can compare `u64` keys
        // with plain integer compares. Elements equal under either order
        // have identical bits, so the percentiles picked are
        // bit-identical to the `total_cmp` path's whatever the order the
        // selection leaves behind.
        let [p50_s, p95_s, p99_s] = if all_nonneg {
            select_percentiles(samples, |a, b| a.to_bits().cmp(&b.to_bits()))
        } else {
            select_percentiles(samples, f64::total_cmp)
        };
        LatencyStats {
            n,
            mean_s: sum / n as f64,
            p50_s,
            p95_s,
            p99_s,
            max_s,
        }
    }
}

/// The nearest-rank p50, p95 and p99 of `scratch` under `cmp`, picked
/// in ascending order. Each selection leaves every element from its
/// index on at least the element it picked, so the next, higher rank
/// is selected in that tail alone.
fn select_percentiles(scratch: &mut [f64], cmp: impl Fn(&f64, &f64) -> Ordering) -> [f64; 3] {
    let n = scratch.len();
    let mut from = 0;
    [0.50, 0.95, 0.99].map(|q| {
        let idx = tpu_numerics::stats::nearest_rank_index(q, n);
        let (_, v, _) = scratch[from..].select_nth_unstable_by(idx - from, &cmp);
        from = idx;
        *v
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        let s = LatencyStats::from_samples(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.p99_s, 0.0);
    }

    #[test]
    fn known_percentiles() {
        // 1..=100 in some order.
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        v.reverse();
        let s = LatencyStats::from_samples(&v);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50_s, 50.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.max_s, 100.0);
        assert!((s.mean_s - 50.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        let s = LatencyStats::from_samples(&[0.42]);
        assert_eq!(s.p50_s, 0.42);
        assert_eq!(s.p99_s, 0.42);
        assert_eq!(s.max_s, 0.42);
    }

    #[test]
    fn negative_samples_use_the_comparator_path() {
        // Mixed-sign inputs must fall back to `total_cmp` selection;
        // both paths agree on the all-positive suffix.
        let v = [-3.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let s = LatencyStats::from_samples(&v);
        assert_eq!(s.p50_s, 2.0);
        assert_eq!(s.max_s, 7.0);
        let pos: Vec<f64> = v.iter().map(|x| x + 3.0).collect();
        let sp = LatencyStats::from_samples(&pos);
        assert_eq!(sp.p50_s, 5.0);
    }

    /// `from_samples` computed by a full sort.
    fn sorted_reference(samples: &[f64]) -> LatencyStats {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let at = |q| sorted[tpu_numerics::stats::nearest_rank_index(q, n)];
        LatencyStats {
            n,
            mean_s: samples.iter().sum::<f64>() / n as f64,
            p50_s: at(0.50),
            p95_s: at(0.95),
            p99_s: at(0.99),
            max_s: sorted[n - 1],
        }
    }

    #[test]
    fn selection_matches_a_full_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for n in 1..=257usize {
            // Continuous draws, heavy ties, one repeated value, and
            // mixed signs (the comparator path).
            let inputs: [Vec<f64>; 4] = [
                (0..n).map(|_| rng.gen_range(0.0..1.0)).collect(),
                (0..n).map(|_| rng.gen_range(0..4) as f64 * 0.25).collect(),
                vec![0.125; n],
                (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            ];
            for samples in &inputs {
                let want = sorted_reference(samples);
                let bits = |s: &LatencyStats| {
                    [s.mean_s, s.p50_s, s.p95_s, s.p99_s, s.max_s].map(f64::to_bits)
                };
                // The copying entry point, and selection in place on
                // a buffer the caller gives up.
                for got in [
                    LatencyStats::from_samples(samples),
                    LatencyStats::from_scratch(&mut samples.clone()),
                ] {
                    assert_eq!(got.n, want.n);
                    assert_eq!(bits(&got), bits(&want), "n {n}: {samples:?}");
                }
            }
        }
    }

    #[test]
    fn percentiles_are_monotone() {
        let v: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let s = LatencyStats::from_samples(&v);
        assert!(s.p50_s <= s.p95_s);
        assert!(s.p95_s <= s.p99_s);
        assert!(s.p99_s <= s.max_s);
    }
}
