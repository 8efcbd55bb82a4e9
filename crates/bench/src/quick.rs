//! A self-contained micro-benchmark harness (criterion is unavailable
//! offline): warm up, run timed batches, report mean and spread.
//!
//! Deliberately tiny — wall-clock `Instant` batches with outlier-robust
//! reporting (median of batch means), good enough to catch order-of-
//! magnitude regressions in the substrates. Results are printed, never
//! recorded: perfbench owns the timings that speed claims rest on.

use std::time::{Duration, Instant};

/// One benchmark group, printed as `group/name  <stats>` per function.
pub struct Group {
    name: String,
    /// Target wall-clock spent measuring each function.
    measurement: Duration,
    /// Batches the measurement window is split into.
    batches: usize,
}

impl Group {
    /// Creates a group with default settings (1 s per function).
    pub fn new(name: &str) -> Group {
        Group {
            name: name.to_owned(),
            measurement: Duration::from_secs(1),
            batches: 10,
        }
    }

    /// Sets the measurement window per benchmarked function.
    pub fn measurement_time(mut self, d: Duration) -> Group {
        self.measurement = d;
        self
    }

    /// Times `f`, printing `group/name  median ± spread  (iters,
    /// throughput)`.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        // Warm-up and calibration: find an iteration count whose batch
        // takes roughly measurement/batches.
        let calibrate_until = Instant::now() + self.measurement / 10;
        let mut iters = 0u64;
        let warm_start = Instant::now();
        loop {
            std::hint::black_box(f());
            iters += 1;
            if Instant::now() >= calibrate_until {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / iters as f64;
        let batch_budget = self.measurement.as_secs_f64() / self.batches as f64;
        let batch_iters = ((batch_budget / per_iter.max(1e-9)) as u64).max(1);

        let mut means: Vec<f64> = Vec::with_capacity(self.batches);
        for _ in 0..self.batches {
            let start = Instant::now();
            for _ in 0..batch_iters {
                std::hint::black_box(f());
            }
            means.push(start.elapsed().as_secs_f64() / batch_iters as f64);
        }
        means.sort_by(|a, b| a.total_cmp(b));
        let median = means[means.len() / 2];
        let min = means[0];
        let max = means[means.len() - 1];
        let iters_per_sec = 1.0 / median.max(1e-12);
        println!(
            "{}/{name:<24} {:>12}/iter  [{} .. {}]  ({batch_iters} iters x {} batches, \
             {iters_per_sec:.0} iters/s)",
            self.name,
            fmt_time(median),
            fmt_time(min),
            fmt_time(max),
            self.batches,
        );
    }
}

/// Formats seconds with an appropriate unit.
fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_formats() {
        let g = Group::new("self").measurement_time(Duration::from_millis(20));
        let mut calls = 0u64;
        g.bench("noop-ish", || {
            calls += 1;
            std::hint::black_box(1 + 1)
        });
        // At least one calibration call, then at least one per batch.
        assert!(calls > g.batches as u64, "{calls} calls");
        assert_eq!(fmt_time(2.0), "2.000 s");
        assert_eq!(fmt_time(2e-3), "2.000 ms");
        assert_eq!(fmt_time(2e-6), "2.000 us");
        assert_eq!(fmt_time(2e-9), "2.0 ns");
    }
}
