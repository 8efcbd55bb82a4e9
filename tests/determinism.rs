//! Determinism properties of the parallel substrates: multi-seed
//! replication must be a pure, order-preserving fan-out, so a parallel
//! sweep is byte-identical to a sequential one — the invariant the
//! `--jobs` flag and the CI parallel-determinism job rely on.

use proptest::prelude::*;

use tpu_bench::multiseed::MultiSeedRunner;
use tpugen::prelude::*;
use tpugen::serving::des::{
    simulate_fleet, simulate_fleet_with_faults, FleetConfig, FleetPolicy, RetryPolicy,
    ServingConfig,
};

/// A small overloaded fleet run, seeded; returns a bit-exact digest of
/// the report (floats by their IEEE bits, so `==` means *identical*,
/// not merely close).
fn fleet_digest(seed: u64, rate: f64, requests: usize) -> Vec<u64> {
    let model = LatencyModel::from_points(vec![(1, 0.001), (128, 0.008)]).expect("valid");
    let base = ServingConfig {
        arrival_rate_rps: rate,
        max_batch: 16,
        batch_timeout_s: 0.002,
        requests,
        seed,
    };
    let fleet = FleetConfig::new(base.with_servers(2)).with_policy(FleetPolicy {
        deadline_s: Some(0.05),
        shed_expired: true,
        queue_budget_s: Some(0.04),
        queue_cap: Some(128),
        retry: RetryPolicy {
            max_retries: 1,
            backoff_s: 0.002,
            backoff_mult: 2.0,
        },
    });
    let r = simulate_fleet(&model, &fleet).expect("valid config");
    assert!(r.conservation_holds());
    vec![
        r.goodput_rps.to_bits(),
        r.throughput_rps.to_bits(),
        r.p99_s.to_bits(),
        r.duration_s.to_bits(),
        r.arrivals as u64,
        r.completed as u64,
        r.shed as u64,
        r.dropped as u64,
        r.failed as u64,
        r.metrics.events_processed.get(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// MultiSeedRunner's parallel fan-out returns bit-identical results
    /// to the sequential fold, in the same order, for real DES runs.
    #[test]
    fn parallel_replication_matches_sequential(
        base_seed in 0u64..1_000_000,
        reps in 1usize..5,
        rate in 2_000f64..12_000f64,
    ) {
        let runner = MultiSeedRunner::new(base_seed, reps);
        let par = runner.run(|seed| fleet_digest(seed, rate, 600));
        let seq = runner.run_sequential(|seed| fleet_digest(seed, rate, 600));
        prop_assert_eq!(par, seq);
    }

    /// The worker-pool primitive itself preserves order and values at
    /// every thread count, including more threads than items.
    #[test]
    fn par_map_with_is_order_preserving(
        base_seed in 0u64..1_000_000,
        threads in 2usize..6,
    ) {
        let seeds = MultiSeedRunner::new(base_seed, 4).seeds();
        let par = tpu_par::par_map_with(threads, &seeds, |&s| fleet_digest(s, 6_000.0, 400));
        let seq: Vec<_> = seeds.iter().map(|&s| fleet_digest(s, 6_000.0, 400)).collect();
        prop_assert_eq!(par, seq);
    }
}

/// The chaos path (faults + failover + probes) is replay-deterministic
/// too: same seed, same report, across parallel and sequential runs.
#[test]
fn chaos_replication_is_deterministic() {
    let model = LatencyModel::from_points(vec![(1, 0.001), (128, 0.008)]).expect("valid");
    let digest = |seed: u64| {
        let base = ServingConfig {
            arrival_rate_rps: 9_000.0,
            max_batch: 16,
            batch_timeout_s: 0.001,
            requests: 1_500,
            seed,
        };
        let fleet = FleetConfig::new(base.with_servers(3)).with_policy(FleetPolicy {
            deadline_s: Some(0.02),
            shed_expired: true,
            queue_budget_s: Some(0.015),
            queue_cap: Some(64),
            retry: RetryPolicy {
                max_retries: 1,
                backoff_s: 0.002,
                backoff_mult: 2.0,
            },
        });
        let plan = FaultPlan {
            scheduled: Vec::new(),
            mtbf: Some(MtbfFaults {
                mtbf_s: 0.1,
                mttr_s: 0.02,
                horizon_s: 0.5,
            }),
            fault_seed: 7,
            failover: FailoverConfig {
                enabled: true,
                probe_interval_s: 0.002,
                probe_timeout_s: 0.001,
                recovery_warmup_s: 0.005,
            },
        };
        let r = simulate_fleet_with_faults(&model, &fleet, &plan).expect("valid config");
        assert!(r.conservation_holds());
        (
            r.goodput_rps.to_bits(),
            r.p99_s.to_bits(),
            r.metrics.events_processed.get(),
            r.metrics.failures_detected.get(),
            r.metrics.failover_redistributed.get(),
        )
    };
    let runner = MultiSeedRunner::new(17, 4);
    let par = runner.run(digest);
    let seq = runner.run_sequential(digest);
    assert_eq!(par, seq);
    // And re-running the whole fan-out reproduces itself exactly.
    assert_eq!(runner.run(digest), par);
}

/// The planet-scale layer keeps the contract: a global run — geo
/// load-balancer, correlated cell faults, autoscaler, per-cell DES —
/// is a pure function of (config, seed), so a parallel multi-seed
/// sweep over it is bit-identical to the sequential fold.
#[test]
fn global_fleet_replication_is_deterministic() {
    use tpugen::serving::fleet::{
        simulate_global, AutoscalerConfig, Cell, CellFault, CellFaultKind, GeoPolicy, GlobalConfig,
        TrafficModel,
    };

    let model = LatencyModel::from_points(vec![(1, 0.001), (128, 0.008)]).expect("valid");
    let digest = |seed: u64| {
        let template = FleetConfig::new(
            ServingConfig {
                arrival_rate_rps: 1.0,
                max_batch: 16,
                batch_timeout_s: 0.002,
                requests: 1,
                seed: 0,
            }
            .with_servers(2),
        )
        .with_policy(FleetPolicy {
            deadline_s: Some(0.05),
            shed_expired: true,
            queue_budget_s: Some(0.04),
            queue_cap: Some(256),
            retry: RetryPolicy {
                max_retries: 1,
                backoff_s: 0.002,
                backoff_mult: 2.0,
            },
        });
        let cfg = GlobalConfig {
            cells: (0..3).map(|_| Cell::new(template, 2500.0, 5)).collect(),
            traffic: TrafficModel::diurnal(8_000.0, 0.3, 1.0).with_flash(0.4, 0.2, 1.6),
            cell_faults: vec![CellFault {
                cell: 0,
                at_s: 0.33,
                duration_s: 0.3,
                kind: CellFaultKind::Outage,
            }],
            autoscaler: AutoscalerConfig::default(),
            geo: GeoPolicy {
                redirect_latency_s: 0.01,
                ..GeoPolicy::default()
            },
            epoch_s: 0.1,
            horizon_s: 0.8,
            seed,
        };
        let r = simulate_global(&model, &cfg).expect("valid config");
        assert!(r.conservation_holds());
        (
            r.arrivals,
            r.good,
            r.redirected,
            r.p99_s.to_bits(),
            r.availability.to_bits(),
            r.metrics.events_processed.get(),
            r.autoscaler.scale_ups,
        )
    };
    let runner = MultiSeedRunner::new(23, 4);
    let par = runner.run(digest);
    let seq = runner.run_sequential(digest);
    assert_eq!(par, seq);
    assert_eq!(runner.run(digest), par);
}
