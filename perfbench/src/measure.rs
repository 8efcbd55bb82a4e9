//! Small measurement helpers: percentiles, digests, seeds, metric
//! names, and what the host tells about itself through `/proc`.

use std::fs;

/// A percentile is reported only when at least this many samples lie
/// beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above that rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Smallest window the windowed metrics use: p90 of at least this many
/// samples has [`MIN_BEYOND`] samples beyond it.
pub const MIN_WINDOW: usize = 100;

/// Throughput and item-time percentiles of one timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub items_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub windows: usize,
}

/// Splits `item_ns` (whole passes of `pass_len` items, in run order)
/// into windows of whole passes holding at least [`MIN_WINDOW`] items,
/// takes the mean item time, p50 and p90 of each window, and reports the
/// fast quartile of each over the windows. Host noise only ever slows a
/// window, and on a shared VM it comes and goes within a run, so the
/// fast quartile tracks the code's own speed: over ten seeds its spread
/// was a third of the median window's. `None` when not even one window
/// fits.
pub fn windowed(item_ns: &[u64], pass_len: usize) -> Option<Windowed> {
    let size = MIN_WINDOW.div_ceil(pass_len.max(1)) * pass_len.max(1);
    let (mut mean, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    for window in item_ns.chunks_exact(size) {
        let mut ms: Vec<f64> = window.iter().map(|&ns| ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        mean.push(ms.iter().sum::<f64>() / ms.len() as f64);
        p50.push(percentile(&ms, 0.5)?);
        p90.push(percentile(&ms, 0.9)?);
    }
    (!mean.is_empty()).then(|| Windowed {
        items_per_s: 1e3 / quantile(&mean, 0.25),
        p50_ms: quantile(&p50, 0.25),
        p90_ms: quantile(&p90, 0.25),
        windows: mean.len(),
    })
}

/// The value at index `⌊q·n⌋` of the sorted values of a non-empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((q * v.len() as f64) as usize).min(v.len() - 1)]
}

/// Median of a non-empty slice (upper median for even lengths).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// splitmix64: the seed expander for per-item seeds and the shuffle.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// FNV-1a over the bit patterns of the values folded in: two runs agree
/// on a digest only if every folded value is bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) -> &mut Digest {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, x: f64) -> &mut Digest {
        self.u64(x.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Metric and workload names: 1 to 64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host-noise readings taken around a timed phase.
#[derive(Debug, Clone)]
pub struct HostSample {
    /// Aggregate `steal` ticks from `/proc/stat` (time the hypervisor
    /// ran someone else on this machine's CPUs).
    pub steal_ticks: Option<u64>,
    /// The first three fields of `/proc/loadavg`.
    pub loadavg: String,
}

impl HostSample {
    pub fn now() -> HostSample {
        let steal_ticks = fs::read_to_string("/proc/stat").ok().and_then(|s| {
            let cpu = s.lines().next()?;
            // cpu user nice system idle iowait irq softirq steal ...
            cpu.split_whitespace().nth(8)?.parse().ok()
        });
        let loadavg = fs::read_to_string("/proc/loadavg")
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_else(|_| "n/a".to_owned());
        HostSample {
            steal_ticks,
            loadavg,
        }
    }

    /// One report line comparing this (earlier) reading with `after`.
    pub fn describe(&self, after: &HostSample) -> String {
        let steal = match (self.steal_ticks, after.steal_ticks) {
            (Some(a), Some(b)) => format!("{} ticks", b.saturating_sub(a)),
            _ => "n/a".to_owned(),
        };
        format!(
            "steal during timed phase {steal}; loadavg before [{}] after [{}]",
            self.loadavg, after.loadavg
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(100.0));
        assert_eq!(percentile(&v, 0.9), Some(180.0));
        // 200 samples leave only 2 beyond p99: not reported.
        assert_eq!(percentile(&v, 0.99), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(990.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let at = |n: usize| percentile(&(1..=n).map(|i| i as f64).collect::<Vec<_>>(), 0.9);
        // 100 samples: rank 90 leaves exactly 10 beyond.
        assert_eq!(at(100), Some(90.0));
        // 99 samples: rank 90 leaves 9 beyond.
        assert_eq!(at(99), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0; 5], 0.5), None);
    }

    #[test]
    fn windows_are_whole_passes_and_report_the_fast_quartile() {
        // Passes of 30 items: a window is 4 passes (120 items).
        let pass: Vec<u64> = (1..=30).map(|i| i * 100_000).collect();
        let mut run: Vec<u64> = pass.iter().cycle().take(30 * 20).copied().collect();
        let w = windowed(&run, 30).expect("five windows");
        assert_eq!(w.windows, 5);
        // Mean item time 1.55 ms; p50 and p90 by nearest rank.
        assert!((w.items_per_s - 1e3 / 1.55).abs() < 1e-9);
        assert_eq!((w.p50_ms, w.p90_ms), (1.5, 2.7));
        // One window ten times slower leaves every metric unchanged.
        for ns in &mut run[..120] {
            *ns *= 10;
        }
        assert_eq!(windowed(&run, 30), Some(w));
        // Windows slowed 1x..5x: of five, the second fastest is reported.
        for (k, window) in run.chunks_mut(120).enumerate() {
            window.copy_from_slice(&pass.repeat(4));
            window.iter_mut().for_each(|ns| *ns *= 5 - k as u64);
        }
        let w = windowed(&run, 30).expect("five windows");
        assert!((w.items_per_s - 1e3 / 3.1).abs() < 1e-9);
        assert_eq!((w.p50_ms, w.p90_ms), (3.0, 5.4));
        // Fewer items than one window: no metrics.
        assert_eq!(windowed(&run[..90], 30), None);
        // A trailing partial window is dropped.
        assert_eq!(windowed(&run[..150], 30).map(|w| w.windows), Some(1));
    }

    #[test]
    fn quantiles_of_unsorted_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        let v: Vec<f64> = (0..57).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 14.0);
        assert_eq!(quantile(&v, 1.0), 56.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "setup_s",
            "item_p90_ms",
            "serving.des.fleet.ns_per_unit",
            "zoo-compile",
            "9a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "-x",
            "a b",
            "ns/event",
            "a\"b",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn digest_is_bit_sensitive() {
        let d = |x: f64| Digest::default().f64(x).finish();
        assert_eq!(d(1.0), d(1.0));
        assert_ne!(d(0.0), d(-0.0));
        assert_ne!(d(1.0), d(1.0 + f64::EPSILON));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 9);
        shuffle(&mut b, 9);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 10);
        assert_ne!(a, c);
    }
}
