//! Serving metrics: counters and histograms threaded through the DES.
//!
//! Production serving systems live on exactly these signals (Lesson 10
//! is stated in terms of them): offered load, sheds, retries, batch-size
//! distribution, per-server busy time — and, once machines can fail,
//! availability accounting: faults injected/detected/recovered,
//! time-to-detect, time-to-recover, per-server downtime. The DES fills a
//! [`ServingMetrics`] as it runs and exposes it via
//! [`crate::des::ServingReport`].

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A fixed-bucket histogram over `f64` observations.
///
/// Buckets are defined by their inclusive upper bounds, plus an implicit
/// overflow bucket. Observation order does not matter: two histograms
/// with the same bounds fed the same multiset of values compare equal.
///
/// Empty-histogram behavior is defined, not incidental: `mean`, `max`,
/// and `quantile` all return 0 when no observation has been recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bound of each bucket, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket counts; `counts[bounds.len()]` is the overflow bucket.
    counts: Vec<u64>,
    /// Sum of all observations (exact means for integral observations).
    sum: f64,
    /// Number of observations.
    n: u64,
    /// Largest observation seen; meaningless until `n > 0`.
    max: f64,
}

impl Histogram {
    /// Builds a histogram from explicit bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: Vec<f64>) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must strictly increase"
        );
        let buckets = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; buckets],
            sum: 0.0,
            n: 0,
            // NEG_INFINITY, not 0: a histogram of negative observations
            // must not report a max of 0 (`max()` guards the empty case).
            max: f64::NEG_INFINITY,
        }
    }

    /// Exponential bounds: `start, start*factor, ...` (`count` buckets).
    ///
    /// # Panics
    ///
    /// Panics on `start <= 0`, `factor <= 1`, or `count == 0`.
    pub fn exponential(start: f64, factor: f64, count: usize) -> Histogram {
        assert!(
            start > 0.0 && factor > 1.0 && count > 0,
            "bad histogram spec"
        );
        let mut bounds = Vec::with_capacity(count);
        let mut b = start;
        for _ in 0..count {
            bounds.push(b);
            b *= factor;
        }
        Histogram::with_bounds(bounds)
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: f64) {
        self.observe_repeat(value, 1);
    }

    /// Records `k` observations of `value`: the same counts, `n`, `max`
    /// and, bit for bit, `sum` as `k` calls to [`Histogram::observe`],
    /// with one bucket lookup. The sum still adds `value` once per
    /// observation, since `k * value` can round differently.
    #[inline]
    pub fn observe_repeat(&mut self, value: f64, k: u64) {
        if k == 0 {
            return;
        }
        // Bounds strictly increase, so the number of bounds below the
        // value IS the bucket index (what partition_point would
        // return). A branchless count over <=16 f64s vectorizes and
        // beats binary search — this runs once per batch-member launch
        // in the DES hot loop.
        let idx = self
            .bounds
            .iter()
            .map(|&b| u64::from(value > b))
            .sum::<u64>() as usize;
        self.counts[idx] += k;
        for _ in 0..k {
            self.sum += value;
        }
        self.n += k;
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Largest observation, or 0 for an empty histogram.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Upper bound of the bucket where the `q`-quantile falls, capped at
    /// the observed max (exact for the overflow bucket). `q` is clamped
    /// to [0, 1]; `q = 0.0` reports the lowest non-empty bucket's bound
    /// (capped at the max), `q = 1.0` the observed max. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = tpu_numerics::stats::nearest_rank(q, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    /// Folds another histogram into this one **without re-observing raw
    /// samples**: per-bucket counts, the sum, the observation count, and
    /// the max all combine exactly, so merging per-cell histograms gives
    /// the same result as observing every value into one histogram
    /// (order invariance already holds per histogram).
    ///
    /// Merging an empty histogram is a no-op; merging *into* an empty
    /// one adopts the other's bucketing and moments (including the real
    /// max, not a fake 0). In both empty cases mismatched bounds are
    /// fine — no count has to be re-binned, so there is nothing to
    /// misbin (cells sized with different bucketings fold cleanly as
    /// long as at most one side has observations).
    ///
    /// # Panics
    ///
    /// Panics if both histograms hold observations and the bucket
    /// bounds differ — merging populated histograms with different
    /// bucketings would silently misbin counts.
    pub fn merge(&mut self, other: &Histogram) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.bounds, other.bounds,
            "histogram merge requires identical bucket bounds"
        );
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.n += other.n;
        // Both maxes start at NEG_INFINITY, so the fold is exact for
        // every empty/non-empty combination.
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// `(upper_bound, count)` pairs; the final pair is the overflow
    /// bucket reported as `(f64::INFINITY, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
    }
}

/// Everything the DES measures in one run.
///
/// Request accounting invariant (checked by the DES):
/// `arrivals == completed + shed_total + failed_permanent +
/// dropped_at_drain`, where [`ServingMetrics::shed_total`] counts
/// *permanently* shed requests and `failed_permanent` counts requests
/// permanently lost to server crashes (retries that ultimately succeed
/// appear in neither).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingMetrics {
    /// Fresh requests offered to the system.
    pub arrivals: Counter,
    /// Queue admissions, including re-admissions of retried or
    /// failover-redistributed requests.
    pub admitted: Counter,
    /// Requests that finished service.
    pub completed: Counter,
    /// Completions whose end-to-end latency exceeded the deadline
    /// (served, counted in throughput, but not in goodput).
    pub completed_late: Counter,
    /// Shed events due to the admission-control queue cap.
    pub shed_queue_full: Counter,
    /// Shed events due to in-queue deadline expiry.
    pub shed_deadline: Counter,
    /// Shed events because no server was believed healthy.
    pub shed_no_capacity: Counter,
    /// Requests permanently shed (terminal sheds, all reasons).
    pub shed_permanent: Counter,
    /// Retries scheduled after a shed or an in-flight failure.
    pub retries: Counter,
    /// Requests permanently lost after exhausting their retry budget.
    pub retries_exhausted: Counter,
    /// Requests still queued when the simulation drained.
    pub dropped_at_drain: Counter,
    /// Crash and hang faults injected into servers.
    pub failures_injected: Counter,
    /// Failures the health checker noticed (server pulled from rotation).
    pub failures_detected: Counter,
    /// Servers that came back up after a crash or hang.
    pub failures_recovered: Counter,
    /// Requests whose in-flight batch was killed by a server crash
    /// (counted per request, before any retry).
    pub in_flight_failures: Counter,
    /// Requests permanently lost to server failures (the `failed`
    /// terminal state).
    pub failed_permanent: Counter,
    /// Queued requests drained off a believed-down server and offered to
    /// the surviving replicas.
    pub failover_redistributed: Counter,
    /// Discrete events the engine processed (heap pops). The denominator
    /// for ns-per-event perf baselines.
    pub events_processed: Counter,
    /// Output tokens generated by the decode loop (generation engine
    /// only; the per-token conservation identity checks this against
    /// the completed requests' sampled output lengths).
    pub tokens_generated: Counter,
    /// Prompt tokens prefilled at admission (generation engine only).
    pub tokens_prefilled: Counter,
    /// Decode steps executed (generation engine only).
    pub decode_steps: Counter,
    /// Admissions deferred because KV-cache residency would overflow
    /// HBM (one count per blocked scheduling boundary, not per request;
    /// generation engine only — the decode loop defers, never sheds).
    pub kv_deferrals: Counter,
    /// Peak KV-cache bytes resident at any decode-step boundary
    /// (generation engine only).
    pub kv_peak_bytes: u64,
    /// Distribution of formed batch sizes.
    pub batch_sizes: Histogram,
    /// Distribution of in-flight decode batch sizes, one observation
    /// per decode step (generation engine only).
    pub decode_batch: Histogram,
    /// Distribution of per-admission queue waiting time, seconds.
    pub queue_wait_s: Histogram,
    /// Fault injection → health-checker detection lag, seconds.
    pub time_to_detect_s: Histogram,
    /// Fault injection → server back in service, seconds.
    pub time_to_recover_s: Histogram,
    /// Busy time accumulated by each server, seconds.
    pub per_server_busy_s: Vec<f64>,
    /// Time each server spent Down or Recovering, seconds.
    pub per_server_down_s: Vec<f64>,
    /// Requests completed by each server.
    pub per_server_completed: Vec<u64>,
}

impl ServingMetrics {
    /// Fresh metrics for a pool of `servers`.
    pub fn new(servers: usize) -> ServingMetrics {
        ServingMetrics {
            arrivals: Counter::default(),
            admitted: Counter::default(),
            completed: Counter::default(),
            completed_late: Counter::default(),
            shed_queue_full: Counter::default(),
            shed_deadline: Counter::default(),
            shed_no_capacity: Counter::default(),
            shed_permanent: Counter::default(),
            retries: Counter::default(),
            retries_exhausted: Counter::default(),
            dropped_at_drain: Counter::default(),
            failures_injected: Counter::default(),
            failures_detected: Counter::default(),
            failures_recovered: Counter::default(),
            in_flight_failures: Counter::default(),
            failed_permanent: Counter::default(),
            failover_redistributed: Counter::default(),
            events_processed: Counter::default(),
            tokens_generated: Counter::default(),
            tokens_prefilled: Counter::default(),
            decode_steps: Counter::default(),
            kv_deferrals: Counter::default(),
            kv_peak_bytes: 0,
            // Powers of two cover any practical batch cap.
            batch_sizes: Histogram::exponential(1.0, 2.0, 14),
            decode_batch: Histogram::exponential(1.0, 2.0, 14),
            // 10 us .. ~80 s in x3 steps.
            queue_wait_s: Histogram::exponential(1e-5, 3.0, 16),
            // 100 us .. ~50 s in x3 steps (probe lags and repair times).
            time_to_detect_s: Histogram::exponential(1e-4, 3.0, 12),
            time_to_recover_s: Histogram::exponential(1e-4, 3.0, 12),
            per_server_busy_s: vec![0.0; servers],
            per_server_down_s: vec![0.0; servers],
            per_server_completed: vec![0; servers],
        }
    }

    /// Total permanently shed requests (terminal sheds; requests that
    /// were shed but later retried successfully are not counted).
    pub fn shed_total(&self) -> u64 {
        self.shed_permanent.get()
    }

    /// Folds another run's metrics into this one: counters add,
    /// histograms [`Histogram::merge`] (exact, no re-observation),
    /// `kv_peak_bytes` takes the max, and per-server vectors add
    /// elementwise (the shorter side is padded with zeros, so fleets
    /// whose server count changed between runs still fold).
    ///
    /// This is how per-cell metrics aggregate into a global report:
    /// the fold of N runs equals one run that saw all N runs' events.
    ///
    /// # Panics
    ///
    /// Panics if any histogram's bucket bounds differ (all metrics
    /// built by [`ServingMetrics::new`] share bounds).
    pub fn merge_from(&mut self, other: &ServingMetrics) {
        self.arrivals.add(other.arrivals.get());
        self.admitted.add(other.admitted.get());
        self.completed.add(other.completed.get());
        self.completed_late.add(other.completed_late.get());
        self.shed_queue_full.add(other.shed_queue_full.get());
        self.shed_deadline.add(other.shed_deadline.get());
        self.shed_no_capacity.add(other.shed_no_capacity.get());
        self.shed_permanent.add(other.shed_permanent.get());
        self.retries.add(other.retries.get());
        self.retries_exhausted.add(other.retries_exhausted.get());
        self.dropped_at_drain.add(other.dropped_at_drain.get());
        self.failures_injected.add(other.failures_injected.get());
        self.failures_detected.add(other.failures_detected.get());
        self.failures_recovered.add(other.failures_recovered.get());
        self.in_flight_failures.add(other.in_flight_failures.get());
        self.failed_permanent.add(other.failed_permanent.get());
        self.failover_redistributed
            .add(other.failover_redistributed.get());
        self.events_processed.add(other.events_processed.get());
        self.tokens_generated.add(other.tokens_generated.get());
        self.tokens_prefilled.add(other.tokens_prefilled.get());
        self.decode_steps.add(other.decode_steps.get());
        self.kv_deferrals.add(other.kv_deferrals.get());
        self.kv_peak_bytes = self.kv_peak_bytes.max(other.kv_peak_bytes);
        self.batch_sizes.merge(&other.batch_sizes);
        self.decode_batch.merge(&other.decode_batch);
        self.queue_wait_s.merge(&other.queue_wait_s);
        self.time_to_detect_s.merge(&other.time_to_detect_s);
        self.time_to_recover_s.merge(&other.time_to_recover_s);
        merge_padded(&mut self.per_server_busy_s, &other.per_server_busy_s);
        merge_padded(&mut self.per_server_down_s, &other.per_server_down_s);
        merge_padded(&mut self.per_server_completed, &other.per_server_completed);
    }

    /// Fraction of the run each server was available (not Down or
    /// Recovering), given the run duration.
    pub fn per_server_availability(&self, duration_s: f64) -> Vec<f64> {
        let d = duration_s.max(1e-12);
        self.per_server_down_s
            .iter()
            .map(|&down| (1.0 - down / d).clamp(0.0, 1.0))
            .collect()
    }
}

/// Elementwise `a[i] += b[i]`, growing `a` with zeros when `b` is
/// longer (server counts may differ across folded runs).
fn merge_padded<T>(a: &mut Vec<T>, b: &[T])
where
    T: Copy + Default + std::ops::AddAssign,
{
    if a.len() < b.len() {
        a.resize(b.len(), T::default());
    }
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::with_bounds(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 21.2).abs() < 1e-12);
        assert_eq!(h.max(), 100.0);
        let buckets: Vec<(f64, u64)> = h.buckets().collect();
        assert_eq!(buckets[0], (1.0, 2)); // 0.5, 1.0
        assert_eq!(buckets[1], (2.0, 1)); // 1.5
        assert_eq!(buckets[2], (4.0, 1)); // 3.0
        assert_eq!(buckets[3], (f64::INFINITY, 1)); // 100.0
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::exponential(1.0, 2.0, 8);
        for v in 1..=100 {
            h.observe(v as f64);
        }
        assert_eq!(h.quantile(0.0), 1.0);
        // p50 of 1..=100 lands in the (32, 64] bucket.
        assert_eq!(h.quantile(0.5), 64.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let e = Histogram::exponential(1.0, 2.0, 4);
        assert_eq!(e.count(), 0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.max(), 0.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(e.quantile(q), 0.0);
        }
    }

    #[test]
    fn quantile_clamps_q() {
        let mut h = Histogram::with_bounds(vec![1.0, 10.0]);
        h.observe(0.5);
        h.observe(7.0);
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(1.0), 7.0);
    }

    #[test]
    fn single_bucket_histogram() {
        // One explicit bucket plus the overflow bucket.
        let mut h = Histogram::with_bounds(vec![1.0]);
        h.observe(0.25);
        h.observe(5.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), 1.0); // in-bucket bound
        assert_eq!(h.quantile(1.0), 5.0); // overflow reports the max
        assert!((h.mean() - 2.625).abs() < 1e-12);
    }

    #[test]
    fn negative_observations_do_not_fake_a_zero_max() {
        // Regression: `max` was initialized to 0.0, so a histogram of
        // strictly negative observations reported max() == 0.
        let mut h = Histogram::with_bounds(vec![1.0, 2.0]);
        h.observe(-3.0);
        h.observe(-0.5);
        assert_eq!(h.max(), -0.5);
        assert_eq!(h.quantile(1.0), -0.5);
        assert_eq!(h.quantile(0.0), -0.5); // bucket bound capped at max
        assert!((h.mean() + 1.75).abs() < 1e-12);
    }

    #[test]
    fn order_invariance() {
        let mut a = Histogram::exponential(1.0, 2.0, 6);
        let mut b = Histogram::exponential(1.0, 2.0, 6);
        let vals = [3.0, 1.0, 7.5, 0.1, 42.0];
        for v in vals {
            a.observe(v);
        }
        for v in vals.iter().rev() {
            b.observe(*v);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn observe_repeat_equals_repeated_observe() {
        // 0.1 added ten times is not 10 * 0.1, so `sum` must add one
        // term per observation; 1e6 lands in the overflow bucket; k = 0
        // must leave even `max` alone.
        for (v, k) in [(0.1, 10), (3.0, 7), (1e6, 3), (1e9, 0), (0.7, 1)] {
            let mut repeated = Histogram::exponential(1.0, 2.0, 14);
            repeated.observe(0.3);
            let mut one_by_one = repeated.clone();
            repeated.observe_repeat(v, k);
            for _ in 0..k {
                one_by_one.observe(v);
            }
            let buckets: Vec<_> = repeated.buckets().collect();
            assert_eq!(
                buckets,
                one_by_one.buckets().collect::<Vec<_>>(),
                "{v} x {k}"
            );
            assert_eq!(repeated.count(), one_by_one.count(), "{v} x {k}");
            assert_eq!(repeated.max(), one_by_one.max(), "{v} x {k}");
            assert_eq!(
                repeated.sum().to_bits(),
                one_by_one.sum().to_bits(),
                "{v} x {k}"
            );
        }
        let mut h = Histogram::exponential(1.0, 2.0, 14);
        h.observe_repeat(1e6, 2);
        assert_eq!(h.buckets().last(), Some((f64::INFINITY, 2)));
        h.observe_repeat(1e9, 0);
        assert_eq!((h.count(), h.max()), (2, 1e6));
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn bad_bounds_panic() {
        Histogram::with_bounds(vec![2.0, 1.0]);
    }

    #[test]
    fn metrics_shed_total_counts_terminal_sheds() {
        let mut m = ServingMetrics::new(2);
        m.shed_queue_full.add(5);
        m.shed_deadline.add(2);
        m.retries.add(4);
        m.shed_permanent.add(3);
        assert_eq!(m.shed_total(), 3);
        assert_eq!(m.per_server_busy_s.len(), 2);
        assert_eq!(m.per_server_down_s.len(), 2);
        assert_eq!(m.per_server_completed.len(), 2);
    }

    #[test]
    fn merge_equals_observing_everything_once() {
        // The defining property: merge(A, B) == observe(A ∪ B), bucket
        // by bucket and moment by moment.
        let mut a = Histogram::exponential(1e-3, 2.0, 10);
        let mut b = Histogram::exponential(1e-3, 2.0, 10);
        let mut whole = Histogram::exponential(1e-3, 2.0, 10);
        let va = [0.002, 0.5, 7.0, 0.0001];
        let vb = [0.9, 0.004, 123.0];
        for v in va {
            a.observe(v);
            whole.observe(v);
        }
        for v in vb {
            b.observe(v);
            whole.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.count(), 7);
        assert_eq!(a.max(), 123.0);
        let merged: Vec<_> = a.buckets().collect();
        let direct: Vec<_> = whole.buckets().collect();
        assert_eq!(merged, direct);
    }

    #[test]
    fn merge_empty_cases() {
        let empty = Histogram::with_bounds(vec![1.0, 2.0]);
        // empty ∪ empty stays empty and well-defined.
        let mut e = empty.clone();
        e.merge(&empty);
        assert_eq!(e.count(), 0);
        assert_eq!(e.max(), 0.0);
        assert_eq!(e.quantile(0.99), 0.0);
        // non-empty ∪ empty is a no-op.
        let mut h = empty.clone();
        h.observe(1.5);
        let before = h.clone();
        h.merge(&empty);
        assert_eq!(h, before);
        // empty ∪ non-empty copies the real max — including a negative
        // one (the NEG_INFINITY sentinel must not leak a fake 0).
        let mut neg = empty.clone();
        neg.observe(-2.0);
        let mut e2 = empty.clone();
        e2.merge(&neg);
        assert_eq!(e2, neg);
        assert_eq!(e2.max(), -2.0);
    }

    #[test]
    #[should_panic(expected = "identical bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        // Both populated: re-binning would be lossy, so this must panic.
        let mut a = Histogram::with_bounds(vec![1.0, 2.0]);
        let mut b = Histogram::with_bounds(vec![1.0, 3.0]);
        a.observe(0.5);
        b.observe(2.5);
        a.merge(&b);
    }

    #[test]
    fn merge_empty_with_mismatched_bounds_is_safe() {
        // Regression (PR 10): merging when either side is empty used to
        // panic on mismatched bucket maxes even though no count needs
        // re-binning. An empty `other` is a no-op; an empty `self`
        // adopts the other's bucketing and moments exactly.
        let mut a = Histogram::with_bounds(vec![1.0, 2.0]);
        a.observe(1.5);
        a.observe(0.25);
        let before = a.clone();
        let empty_other = Histogram::with_bounds(vec![1.0, 3.0]);
        a.merge(&empty_other);
        assert_eq!(a, before, "empty other must be a no-op");

        let mut empty_self = Histogram::with_bounds(vec![4.0, 8.0]);
        empty_self.merge(&a);
        assert_eq!(empty_self, a, "empty self adopts the other wholesale");
        assert_eq!(empty_self.count(), 2);
        assert_eq!(empty_self.max(), 1.5);

        // Empty ∪ empty with mismatched maxes stays empty and sane.
        let mut e = Histogram::with_bounds(vec![1.0, 2.0]);
        e.merge(&Histogram::with_bounds(vec![1.0, 3.0]));
        assert_eq!(e.count(), 0);
        assert_eq!(e.max(), 0.0);
    }

    #[test]
    fn metrics_fold_adds_counters_and_pads_servers() {
        let mut a = ServingMetrics::new(2);
        a.arrivals.add(10);
        a.completed.add(8);
        a.kv_peak_bytes = 100;
        a.batch_sizes.observe(4.0);
        a.per_server_busy_s[0] = 1.5;
        a.per_server_completed[1] = 8;
        let mut b = ServingMetrics::new(3);
        b.arrivals.add(5);
        b.completed.add(5);
        b.kv_peak_bytes = 70;
        b.batch_sizes.observe(4.0);
        b.batch_sizes.observe(2.0);
        b.per_server_busy_s[2] = 0.5;
        b.per_server_completed[2] = 5;
        a.merge_from(&b);
        assert_eq!(a.arrivals.get(), 15);
        assert_eq!(a.completed.get(), 13);
        // Peak is a max, not a sum.
        assert_eq!(a.kv_peak_bytes, 100);
        assert_eq!(a.batch_sizes.count(), 3);
        assert!((a.batch_sizes.sum() - 10.0).abs() < 1e-12);
        // Shorter per-server vectors grew to cover b's third server.
        assert_eq!(a.per_server_busy_s, vec![1.5, 0.0, 0.5]);
        assert_eq!(a.per_server_completed, vec![0, 8, 5]);
    }

    #[test]
    fn metrics_fold_is_associative_on_counts() {
        let mk = |n: u64| {
            let mut m = ServingMetrics::new(1);
            m.arrivals.add(n);
            m.queue_wait_s.observe(n as f64 * 1e-4);
            m
        };
        let (x, y, z) = (mk(1), mk(2), mk(3));
        let mut left = x.clone();
        left.merge_from(&y);
        left.merge_from(&z);
        let mut yz = y.clone();
        yz.merge_from(&z);
        let mut right = x;
        right.merge_from(&yz);
        assert_eq!(left, right);
    }

    #[test]
    fn availability_from_downtime() {
        let mut m = ServingMetrics::new(2);
        m.per_server_down_s[1] = 2.5;
        let a = m.per_server_availability(10.0);
        assert_eq!(a[0], 1.0);
        assert!((a[1] - 0.75).abs() < 1e-12);
    }
}
