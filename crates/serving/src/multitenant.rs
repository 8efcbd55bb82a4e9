//! Multi-tenant serving: several models on one accelerator (Lesson 7).
//!
//! Production inference pools host many models per chip. The paper's
//! argument for big HBM and for CMEM partitioning: if every tenant's
//! weights stay resident in HBM, switching tenants is (nearly) free; if
//! not, each switch re-loads weights over the host link, and tail
//! latency collapses. Experiment E11 sweeps the tenant count through
//! this module.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tpu_arch::ChipConfig;

use crate::des::{validate_requests, ConfigError};
use crate::latency::LatencyModel;
use crate::stats::LatencyStats;

/// One tenant model resident (or not) on the chip.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Display name.
    pub name: String,
    /// Batch→latency curve of the tenant's model on this chip.
    pub latency: LatencyModel,
    /// Weight footprint in bytes (HBM residency).
    pub weight_bytes: u64,
    /// This tenant's Poisson arrival rate, requests/s.
    pub arrival_rate_rps: f64,
}

/// Configuration of a multi-tenant run.
#[derive(Debug, Clone)]
pub struct MultiTenantConfig {
    /// Largest batch per tenant dispatch.
    pub max_batch: u64,
    /// Batch formation timeout, seconds.
    pub batch_timeout_s: f64,
    /// Total requests to simulate (across tenants).
    pub requests: usize,
    /// RNG seed.
    pub seed: u64,
    /// Host-link bandwidth for weight swaps, bytes/s (PCIe-class).
    pub host_link_bps: f64,
}

impl Default for MultiTenantConfig {
    fn default() -> MultiTenantConfig {
        MultiTenantConfig {
            max_batch: 16,
            batch_timeout_s: 0.002,
            requests: 4000,
            seed: 7,
            host_link_bps: 16e9,
        }
    }
}

/// Result of a multi-tenant run.
#[derive(Debug, Clone)]
pub struct MultiTenantReport {
    /// Per-tenant latency statistics, in tenant order.
    pub per_tenant: Vec<LatencyStats>,
    /// Aggregate latency statistics.
    pub aggregate: LatencyStats,
    /// Aggregate throughput, requests/s.
    pub throughput_rps: f64,
    /// Whether every tenant's weights fit HBM simultaneously.
    pub all_resident: bool,
    /// Number of weight swaps that occurred.
    pub swaps: usize,
    /// Time spent swapping weights, seconds.
    pub swap_seconds: f64,
}

impl MultiTenantReport {
    /// Worst per-tenant p99 (the fairness metric of E11).
    pub fn worst_p99_s(&self) -> f64 {
        self.per_tenant
            .iter()
            .map(|s| s.p99_s)
            .fold(0.0f64, f64::max)
    }
}

/// Checks the tenant list and every knob of `cfg`, returning the first
/// problem found.
fn validate(tenants: &[Tenant], cfg: &MultiTenantConfig) -> Result<(), ConfigError> {
    if tenants.is_empty() {
        return Err(ConfigError::NoTenants);
    }
    if let Some(t) = tenants
        .iter()
        .find(|t| !t.arrival_rate_rps.is_finite() || t.arrival_rate_rps <= 0.0)
    {
        return Err(ConfigError::NonPositiveArrivalRate(t.arrival_rate_rps));
    }
    if cfg.max_batch == 0 {
        return Err(ConfigError::ZeroMaxBatch);
    }
    if !cfg.batch_timeout_s.is_finite() || cfg.batch_timeout_s < 0.0 {
        return Err(ConfigError::InvalidBatchTimeout(cfg.batch_timeout_s));
    }
    if !cfg.host_link_bps.is_finite() || cfg.host_link_bps <= 0.0 {
        return Err(ConfigError::InvalidHostLinkBandwidth(cfg.host_link_bps));
    }
    validate_requests(cfg.requests)
}

/// Runs the multi-tenant serving simulation.
///
/// Scheduling: when the chip is free, serve the tenant with the oldest
/// queued request (FIFO across tenants, batching within a tenant). If
/// the sum of weights exceeds HBM, tenants are kept resident LRU and a
/// non-resident dispatch first pays `weights / host_link_bps`.
///
/// # Errors
///
/// [`ConfigError`] for an empty tenant list, a non-positive or
/// non-finite tenant arrival rate, a zero batch cap, a negative or
/// non-finite batch timeout, a non-positive or non-finite host-link
/// bandwidth, or a request count of zero or past
/// [`MAX_REQUESTS`](crate::des::MAX_REQUESTS).
pub fn simulate_tenants(
    chip: &ChipConfig,
    tenants: &[Tenant],
    cfg: &MultiTenantConfig,
) -> Result<MultiTenantReport, ConfigError> {
    validate(tenants, cfg)?;
    // Byte sums are u128: no count of u64 footprints can overflow them.
    let hbm = u128::from(chip.hbm.capacity_bytes);
    let total_weights: u128 = tenants.iter().map(|t| u128::from(t.weight_bytes)).sum();
    let all_resident = total_weights <= hbm;

    // Pre-draw arrivals for each tenant, then merge.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let per_tenant_requests = (cfg.requests / tenants.len()).max(1);
    let mut arrivals: Vec<(f64, usize)> = Vec::new();
    for (ti, t) in tenants.iter().enumerate() {
        let mut time = 0.0f64;
        for _ in 0..per_tenant_requests {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            time += -u.ln() / t.arrival_rate_rps;
            arrivals.push((time, ti));
        }
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));

    // Residency: LRU set sized by capacity.
    let mut resident: Vec<usize> = Vec::new(); // most-recent last
    let mut resident_bytes = 0u128;

    let mut queues: Vec<Vec<f64>> = vec![Vec::new(); tenants.len()];
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); tenants.len()];
    let mut swaps = 0usize;
    let mut swap_seconds = 0.0f64;

    // Sequential single-server loop: between dispatches, drain arrivals.
    loop {
        // Ingest everything that has arrived by `now`.
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= now {
            let (at, ti) = arrivals[next_arrival];
            queues[ti].push(at);
            next_arrival += 1;
        }
        let any_queued = queues.iter().any(|q| !q.is_empty());
        if !any_queued {
            if next_arrival >= arrivals.len() {
                break;
            }
            now = arrivals[next_arrival].0;
            continue;
        }
        // Pick the tenant with the oldest queued request.
        let ti = (0..tenants.len())
            .filter(|&i| !queues[i].is_empty())
            .min_by(|&a, &b| queues[a][0].total_cmp(&queues[b][0]))
            .expect("some queue nonempty");
        // Wait for batch formation: until max_batch queued or timeout
        // after the oldest arrival (bounded by `now`, which only moves
        // forward).
        let oldest = queues[ti][0];
        let deadline = oldest + cfg.batch_timeout_s;
        if (queues[ti].len() as u64) < cfg.max_batch && now < deadline {
            // Advance to the earlier of: deadline, next arrival.
            let next_t = arrivals
                .get(next_arrival)
                .map(|&(t, _)| t)
                .unwrap_or(f64::INFINITY);
            now = deadline.min(next_t);
            continue;
        }
        // Dispatch.
        let take = (queues[ti].len() as u64).min(cfg.max_batch) as usize;
        let batch: Vec<f64> = queues[ti].drain(..take).collect();
        // Residency / swap cost.
        if !resident.contains(&ti) {
            let need = tenants[ti].weight_bytes;
            if !all_resident {
                // Evict LRU until it fits, then pay the transfer.
                while resident_bytes + u128::from(need) > hbm && !resident.is_empty() {
                    let evicted = resident.remove(0);
                    resident_bytes -= u128::from(tenants[evicted].weight_bytes);
                }
                let cost = need as f64 / cfg.host_link_bps;
                now += cost;
                swap_seconds += cost;
                swaps += 1;
            }
            resident.push(ti);
            resident_bytes += u128::from(need);
        } else {
            // Refresh LRU position.
            resident.retain(|&x| x != ti);
            resident.push(ti);
        }
        let service = tenants[ti].latency.latency(take as u64);
        now += service;
        for arr in batch {
            latencies[ti].push(now - arr);
        }
    }

    let all: Vec<f64> = latencies.iter().flatten().copied().collect();
    let total = all.len();
    Ok(MultiTenantReport {
        per_tenant: latencies
            .iter()
            .map(|l| LatencyStats::from_samples(l))
            .collect(),
        aggregate: LatencyStats::from_samples(&all),
        throughput_rps: total as f64 / now.max(1e-12),
        all_resident,
        swaps,
        swap_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_arch::catalog;

    fn tenant(name: &str, ms_per_batch1: f64, gib: f64, rps: f64) -> Tenant {
        Tenant {
            name: name.to_owned(),
            latency: LatencyModel::from_points(vec![
                (1, ms_per_batch1 * 1e-3),
                (64, ms_per_batch1 * 4e-3),
            ])
            .unwrap(),
            weight_bytes: (gib * (1u64 << 30) as f64) as u64,
            arrival_rate_rps: rps,
        }
    }

    #[test]
    fn single_tenant_runs() {
        let chip = catalog::tpu_v4i();
        let r = simulate_tenants(
            &chip,
            &[tenant("a", 1.0, 0.5, 500.0)],
            &MultiTenantConfig::default(),
        )
        .unwrap();
        assert!(r.all_resident);
        assert_eq!(r.swaps, 0);
        assert!(r.throughput_rps > 0.0);
        assert_eq!(r.per_tenant.len(), 1);
    }

    #[test]
    fn resident_tenants_do_not_swap() {
        let chip = catalog::tpu_v4i(); // 8 GiB HBM
        let tenants: Vec<Tenant> = (0..4)
            .map(|i| tenant(&format!("t{i}"), 1.0, 1.0, 300.0))
            .collect();
        let r = simulate_tenants(&chip, &tenants, &MultiTenantConfig::default()).unwrap();
        assert!(r.all_resident);
        assert_eq!(r.swaps, 0);
        assert_eq!(r.swap_seconds, 0.0);
    }

    #[test]
    fn oversubscribed_hbm_causes_swaps_and_tail_blowup() {
        let chip = catalog::tpu_v4i(); // 8 GiB HBM
        let fit: Vec<Tenant> = (0..3)
            .map(|i| tenant(&format!("t{i}"), 1.0, 2.0, 300.0))
            .collect();
        let burst: Vec<Tenant> = (0..6)
            .map(|i| tenant(&format!("t{i}"), 1.0, 2.0, 150.0))
            .collect();
        let r_fit = simulate_tenants(&chip, &fit, &MultiTenantConfig::default()).unwrap();
        let r_burst = simulate_tenants(&chip, &burst, &MultiTenantConfig::default()).unwrap();
        assert!(r_fit.all_resident);
        assert!(!r_burst.all_resident);
        assert!(r_burst.swaps > 0);
        assert!(
            r_burst.worst_p99_s() > 5.0 * r_fit.worst_p99_s(),
            "swapping must blow up tail latency: {} vs {}",
            r_burst.worst_p99_s(),
            r_fit.worst_p99_s()
        );
    }

    #[test]
    fn bigger_hbm_fixes_the_same_tenant_set() {
        // The same 12 GiB of tenants swap on v4i (8 GiB) and are
        // resident on v3 (32 GiB) — the paper's case for capacity.
        let tenants: Vec<Tenant> = (0..6)
            .map(|i| tenant(&format!("t{i}"), 1.0, 2.0, 150.0))
            .collect();
        let small =
            simulate_tenants(&catalog::tpu_v4i(), &tenants, &MultiTenantConfig::default()).unwrap();
        let big =
            simulate_tenants(&catalog::tpu_v3(), &tenants, &MultiTenantConfig::default()).unwrap();
        assert!(!small.all_resident);
        assert!(big.all_resident);
        assert_eq!(big.swaps, 0);
        assert!(big.worst_p99_s() < small.worst_p99_s());
    }

    #[test]
    fn fairness_across_symmetric_tenants() {
        let chip = catalog::tpu_v3();
        let tenants: Vec<Tenant> = (0..4)
            .map(|i| tenant(&format!("t{i}"), 1.0, 1.0, 200.0))
            .collect();
        let r = simulate_tenants(&chip, &tenants, &MultiTenantConfig::default()).unwrap();
        let p99s: Vec<f64> = r.per_tenant.iter().map(|s| s.p99_s).collect();
        let max = p99s.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = p99s.iter().fold(f64::MAX, |a, &b| a.min(b));
        assert!(
            max / min < 3.0,
            "symmetric tenants should see similar p99s: {p99s:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let chip = catalog::tpu_v4i();
        let tenants = vec![tenant("a", 1.0, 1.0, 400.0), tenant("b", 2.0, 1.0, 300.0)];
        let a = simulate_tenants(&chip, &tenants, &MultiTenantConfig::default()).unwrap();
        let b = simulate_tenants(&chip, &tenants, &MultiTenantConfig::default()).unwrap();
        assert_eq!(a.aggregate, b.aggregate);
        assert_eq!(a.swaps, b.swaps);
    }

    #[test]
    fn empty_tenants_is_a_typed_error() {
        assert_eq!(
            simulate_tenants(&catalog::tpu_v4i(), &[], &MultiTenantConfig::default()).unwrap_err(),
            ConfigError::NoTenants
        );
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        let chip = catalog::tpu_v4i();
        let one = [tenant("a", 1.0, 0.5, 500.0)];
        let run = |tenants: &[Tenant], edit: &dyn Fn(&mut MultiTenantConfig)| {
            let mut cfg = MultiTenantConfig::default();
            edit(&mut cfg);
            simulate_tenants(&chip, tenants, &cfg)
        };
        let err = |tenants: &[Tenant], edit: &dyn Fn(&mut MultiTenantConfig)| {
            run(tenants, edit).unwrap_err()
        };
        // A zero batch cap would dispatch empty batches forever.
        assert_eq!(err(&one, &|c| c.max_batch = 0), ConfigError::ZeroMaxBatch);
        assert!(matches!(
            err(&one, &|c| c.batch_timeout_s = f64::NAN),
            ConfigError::InvalidBatchTimeout(_)
        ));
        assert_eq!(err(&one, &|c| c.requests = 0), ConfigError::ZeroRequests);
        // A zero bandwidth makes a swap take forever; a negative one
        // runs time backwards.
        for bps in [0.0, -1e9] {
            assert_eq!(
                err(&one, &|c| c.host_link_bps = bps),
                ConfigError::InvalidHostLinkBandwidth(bps)
            );
        }
        // A non-positive rate is rejected, not clamped.
        assert_eq!(
            err(&[tenant("a", 1.0, 0.5, -5.0)], &|_| {}),
            ConfigError::NonPositiveArrivalRate(-5.0)
        );
        // Footprints whose sum overflows u64 are simply not resident.
        let mut huge = [tenant("a", 1.0, 0.5, 500.0), tenant("b", 1.0, 0.5, 500.0)];
        for t in &mut huge {
            t.weight_bytes = u64::MAX / 2 + 1;
        }
        let r = run(&huge, &|c| c.requests = 200).unwrap();
        assert!(!r.all_resident);
        assert!(r.swaps > 0);
    }
}
