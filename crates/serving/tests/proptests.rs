//! Property tests for the serving DES: statistical invariants that must
//! hold for *any* valid configuration — with multi-server pools,
//! overload policies and faults in play.

use proptest::prelude::*;

use tpu_serving::des::{
    simulate_fleet, simulate_fleet_with_faults, ConfigError, FleetConfig, FleetPolicy, RetryPolicy,
    ServingConfig,
};
use tpu_serving::faults::{FailoverConfig, FaultKind, FaultPlan, MtbfFaults, ScheduledFault};
use tpu_serving::latency::LatencyModel;
use tpu_serving::multitenant::{simulate_tenants, MultiTenantConfig, Tenant};
use tpu_serving::slo::{max_batch_within_slo, replicas_for_rate};

fn model() -> LatencyModel {
    // 1 ms fixed + ~0.05 ms per item.
    LatencyModel::from_points(vec![(1, 0.00105), (100, 0.006)]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Percentile ordering, bounded utilization, and throughput no
    /// faster than the offered rate hold for any pool.
    #[test]
    fn pool_invariants(
        rate in 100.0f64..30_000.0,
        max_batch in 1u64..64,
        servers in 2usize..=8,
        requests in 300usize..1500,
        seed in any::<u64>(),
    ) {
        let cfg = ServingConfig {
            arrival_rate_rps: rate,
            max_batch,
            batch_timeout_s: 0.002,
            requests,
            seed,
        };
        let report = simulate_fleet(&model(), &FleetConfig::new(cfg.with_servers(servers)))
            .expect("generated config is valid");
        // Everything completes without an overload policy.
        prop_assert_eq!(report.completed, requests);
        prop_assert!(report.conservation_holds());
        // Percentile ordering.
        prop_assert!(report.p50_s <= report.p99_s + 1e-12);
        prop_assert!(report.p99_s <= report.stats.max_s + 1e-12);
        // Utilization is a fraction.
        prop_assert!(report.server_utilization >= 0.0);
        prop_assert!(report.server_utilization <= 1.0);
        // Goodput never exceeds throughput.
        prop_assert!(report.goodput_rps <= report.throughput_rps + 1e-9);
        // Batches respect the cap.
        prop_assert!(report.mean_batch >= 1.0 - 1e-9);
        prop_assert!(report.mean_batch <= max_batch as f64 + 1e-9);
        // Completed work cannot outpace arrivals by more than the final
        // drain (loose bound: 2x the offered rate).
        prop_assert!(report.throughput_rps <= 2.0 * rate);
    }

    /// The same seed and configuration reproduce the identical report,
    /// fleet policy included.
    #[test]
    fn identical_seeds_reproduce_identical_reports(
        rate in 500.0f64..25_000.0,
        max_batch in 1u64..32,
        servers in 2usize..=8,
        seed in any::<u64>(),
        deadline_ms in 5.0f64..50.0,
        cap in 8usize..256,
    ) {
        let fleet = FleetConfig::new(
            ServingConfig {
                arrival_rate_rps: rate,
                max_batch,
                batch_timeout_s: 0.001,
                requests: 600,
                seed,
            }
            .with_servers(servers),
        )
        .with_policy(FleetPolicy {
            deadline_s: Some(deadline_ms / 1e3),
            shed_expired: true,
            queue_cap: Some(cap),
            retry: RetryPolicy {
                max_retries: 1,
                backoff_s: 0.002,
                backoff_mult: 2.0,
            },
            ..FleetPolicy::default()
        });
        let a = simulate_fleet(&model(), &fleet).expect("valid");
        let b = simulate_fleet(&model(), &fleet).expect("valid");
        prop_assert_eq!(a, b);
    }

    /// Request conservation holds under any overload policy, and the
    /// report's counts agree with the metrics counters.
    #[test]
    fn conservation_under_random_policies(
        rate in 5_000.0f64..40_000.0,
        deadline_ms in 2.0f64..30.0,
        shed in any::<bool>(),
        cap in 4usize..128,
        retries in 0u32..3,
        seed in any::<u64>(),
    ) {
        let fleet = FleetConfig::new(
            ServingConfig {
                arrival_rate_rps: rate,
                max_batch: 16,
                batch_timeout_s: 0.001,
                requests: 1000,
                seed,
            }
            .with_servers(2),
        )
        .with_policy(FleetPolicy {
            deadline_s: Some(deadline_ms / 1e3),
            shed_expired: shed,
            queue_cap: Some(cap),
            retry: RetryPolicy {
                max_retries: retries,
                backoff_s: 0.001,
                backoff_mult: 2.0,
            },
            ..FleetPolicy::default()
        });
        let r = simulate_fleet(&model(), &fleet).expect("valid");
        prop_assert!(r.conservation_holds());
        prop_assert_eq!(r.completed as u64, r.metrics.completed.get());
        prop_assert_eq!(r.shed as u64, r.metrics.shed_total());
        prop_assert_eq!(r.dropped as u64, r.metrics.dropped_at_drain.get());
        // Late completions are a subset of completions.
        prop_assert!(r.metrics.completed_late.get() <= r.metrics.completed.get());
    }

    /// The extended conservation invariant and the availability
    /// accounting hold under arbitrary fault plans (a scheduled crash or
    /// hang, plus an MTBF crash stream), with failover on or off.
    #[test]
    fn conservation_and_accounting_under_faults(
        rate in 3_000.0f64..25_000.0,
        servers in 2usize..=6,
        deadline_ms in 5.0f64..40.0,
        retries in 0u32..3,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        fault_server in 0usize..6,
        fault_at_ms in 0.0f64..200.0,
        hang in any::<bool>(),
        mtbf_ms in 20.0f64..500.0,
        failover_on in any::<bool>(),
    ) {
        let fleet = FleetConfig::new(
            ServingConfig {
                arrival_rate_rps: rate,
                max_batch: 16,
                batch_timeout_s: 0.001,
                requests: 800,
                seed,
            }
            .with_servers(servers),
        )
        .with_policy(FleetPolicy {
            deadline_s: Some(deadline_ms / 1e3),
            shed_expired: true,
            queue_cap: Some(64),
            retry: RetryPolicy {
                max_retries: retries,
                backoff_s: 0.002,
                backoff_mult: 2.0,
            },
            ..FleetPolicy::default()
        });
        let kind = if hang {
            FaultKind::Hang { duration_s: 0.01 }
        } else {
            FaultKind::Crash { mttr_s: 0.02 }
        };
        let plan = FaultPlan {
            scheduled: vec![ScheduledFault {
                server: fault_server % servers,
                at_s: fault_at_ms / 1e3,
                kind,
            }],
            mtbf: Some(MtbfFaults {
                mtbf_s: mtbf_ms / 1e3,
                mttr_s: 0.01,
                horizon_s: 0.5,
            }),
            fault_seed,
            failover: FailoverConfig {
                enabled: failover_on,
                ..FailoverConfig::default()
            },
        };
        let r = simulate_fleet_with_faults(&model(), &fleet, &plan).expect("valid plan");
        // Extended conservation: every arrival is accounted for.
        prop_assert!(r.conservation_holds());
        prop_assert_eq!(r.failed as u64, r.metrics.failed_permanent.get());
        // Detection/recovery counters are bounded by injections, and an
        // oblivious fleet never detects anything.
        let injected = r.metrics.failures_injected.get();
        prop_assert!(r.metrics.failures_detected.get() <= injected);
        prop_assert!(r.metrics.failures_recovered.get() <= injected);
        if !failover_on {
            prop_assert_eq!(r.metrics.failures_detected.get(), 0);
        }
        // Availability accounting stays within the run.
        let avail = r.metrics.per_server_availability(r.duration_s);
        for (s, a) in avail.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(a), "server {} availability {}", s, a);
            prop_assert!(r.metrics.per_server_down_s[s] <= r.duration_s + 1e-9);
        }
        // Per-server completions sum to the total.
        let per_server: u64 = r.metrics.per_server_completed.iter().sum();
        prop_assert_eq!(per_server, r.completed as u64);
    }

    /// No completions are ever attributed to a server that is Down for
    /// the whole serving window, and recovery always re-admits a server
    /// (failover on: the health checker must bring it back).
    #[test]
    fn dead_servers_serve_nothing_and_recovery_readmits(
        rate in 4_000.0f64..20_000.0,
        servers in 2usize..=4,
        seed in any::<u64>(),
        dead in 0usize..4,
    ) {
        let dead = dead % servers;
        let fleet = FleetConfig::new(
            ServingConfig {
                arrival_rate_rps: rate,
                max_batch: 16,
                batch_timeout_s: 0.001,
                requests: 800,
                seed,
            }
            .with_servers(servers),
        )
        .with_policy(FleetPolicy {
            deadline_s: Some(0.03),
            shed_expired: true,
            ..FleetPolicy::default()
        });
        // Dead for the whole run: crashes at t=0, repairs far beyond it.
        let forever = FaultPlan::scheduled(vec![ScheduledFault {
            server: dead,
            at_s: 0.0,
            kind: FaultKind::Crash { mttr_s: 1e6 },
        }]);
        let r = simulate_fleet_with_faults(&model(), &fleet, &forever).expect("valid");
        prop_assert!(r.conservation_holds());
        prop_assert_eq!(r.metrics.per_server_completed[dead], 0u64);
        prop_assert_eq!(r.metrics.per_server_busy_s[dead], 0.0);

        // A short outage with failover on: the server must recover and
        // be re-admitted (detected, recovered, and serving again).
        let brief = FaultPlan::scheduled(vec![ScheduledFault {
            server: dead,
            at_s: 0.005,
            kind: FaultKind::Crash { mttr_s: 0.005 },
        }]);
        let r2 = simulate_fleet_with_faults(&model(), &fleet, &brief).expect("valid");
        prop_assert!(r2.conservation_holds());
        prop_assert_eq!(r2.metrics.failures_recovered.get(), 1);
        prop_assert!(r2.metrics.per_server_completed[dead] > 0,
            "recovered server {} never re-admitted", dead);
    }

    /// `FaultPlan` validation rejects NaN/negative MTBF, MTTR, and the
    /// rest of the degenerate knobs with typed errors.
    #[test]
    fn fault_plan_rejects_degenerate_knobs(
        bad in prop_oneof![Just(f64::NAN), Just(-1.0), Just(0.0), Just(f64::INFINITY)],
    ) {
        let mk_mtbf = |mtbf_s: f64, mttr_s: f64| FaultPlan {
            scheduled: Vec::new(),
            mtbf: Some(MtbfFaults { mtbf_s, mttr_s, horizon_s: 1.0 }),
            fault_seed: 0,
            failover: FailoverConfig::default(),
        };
        // NaN payloads never compare equal, so match on the variant.
        prop_assert!(matches!(
            mk_mtbf(bad, 0.1).validate(4),
            Err(ConfigError::InvalidMtbf(_))
        ));
        prop_assert!(matches!(
            mk_mtbf(1.0, bad).validate(4),
            Err(ConfigError::InvalidMttr(_))
        ));
        let crash = FaultPlan::scheduled(vec![ScheduledFault {
            server: 0,
            at_s: 0.1,
            kind: FaultKind::Crash { mttr_s: bad },
        }]);
        prop_assert!(matches!(
            crash.validate(4),
            Err(ConfigError::InvalidMttr(_))
        ));
        if bad.is_nan() || bad < 0.0 {
            let late = FaultPlan::scheduled(vec![ScheduledFault {
                server: 0,
                at_s: bad,
                kind: FaultKind::Crash { mttr_s: 0.1 },
            }]);
            prop_assert!(matches!(
                late.validate(4),
                Err(ConfigError::InvalidFaultTime(_))
            ));
        }
    }

    /// Multi-tenant work conservation and fairness bounds: every tenant
    /// gets its full share of requests, residency is exactly the HBM
    /// capacity test, and the fairness metric dominates every tenant.
    #[test]
    fn multitenant_work_conservation_and_residency(
        tenant_specs in prop::collection::vec(
            (0.5f64..3.0, 100.0f64..1200.0, 0.5f64..3.0), // (ms@1, rps, GiB)
            1..6,
        ),
        requests in 200usize..800,
        seed in any::<u64>(),
    ) {
        let chip = tpu_arch::catalog::tpu_v4i();
        let tenants: Vec<Tenant> = tenant_specs
            .iter()
            .enumerate()
            .map(|(i, &(ms, rps, gib))| Tenant {
                name: format!("t{i}"),
                latency: LatencyModel::from_points(vec![
                    (1, ms * 1e-3),
                    (64, ms * 4e-3),
                ])
                .unwrap(),
                weight_bytes: (gib * (1u64 << 30) as f64) as u64,
                arrival_rate_rps: rps,
            })
            .collect();
        let cfg = MultiTenantConfig { requests, seed, ..MultiTenantConfig::default() };
        let r = simulate_tenants(&chip, &tenants, &cfg).expect("valid tenant config");

        // Work conservation: each tenant receives exactly its share and
        // every injected request is answered.
        let per = (requests / tenants.len()).max(1);
        prop_assert_eq!(r.per_tenant.len(), tenants.len());
        for (i, s) in r.per_tenant.iter().enumerate() {
            prop_assert!(s.n == per, "tenant {} served {} of {}", i, s.n, per);
        }
        prop_assert_eq!(r.aggregate.n, per * tenants.len());
        prop_assert!(r.throughput_rps > 0.0);

        // Residency is exactly the capacity test, and resident fleets
        // never swap.
        let total: u64 = tenants.iter().map(|t| t.weight_bytes).sum();
        prop_assert_eq!(r.all_resident, total <= chip.hbm.capacity_bytes);
        if r.all_resident {
            prop_assert_eq!(r.swaps, 0);
            prop_assert_eq!(r.swap_seconds, 0.0);
        } else {
            prop_assert!(r.swaps > 0);
            prop_assert!(r.swap_seconds > 0.0);
        }

        // Fairness/share bounds: the worst p99 dominates every tenant,
        // and each tenant's percentile ladder is ordered.
        for s in &r.per_tenant {
            prop_assert!(r.worst_p99_s() >= s.p99_s - 1e-12);
            prop_assert!(s.p50_s <= s.p95_s + 1e-12);
            prop_assert!(s.p95_s <= s.p99_s + 1e-12);
            prop_assert!(s.p99_s <= s.max_s + 1e-12);
            prop_assert!(s.p50_s >= 0.0);
        }
    }

    /// `replicas_for_rate` is monotone in the required rate, antitone in
    /// availability and per-server capacity, and its answer is both
    /// sufficient and minimal (at 1 cell — the pinned legacy behavior).
    #[test]
    fn replicas_for_rate_monotone_sufficient_minimal(
        required in 1.0f64..1e6,
        extra in 0.0f64..1e6,
        per_server in 10.0f64..1e5,
        avail_lo in 0.5f64..1.0,
        avail_bump in 0.0f64..0.5,
    ) {
        let avail_hi = (avail_lo + avail_bump).min(1.0);
        let base = replicas_for_rate(required, per_server, avail_lo, 1);

        // Monotone nondecreasing in the required rate.
        prop_assert!(replicas_for_rate(required + extra, per_server, avail_lo, 1) >= base);
        // Nonincreasing in availability: healthier fleets never need more.
        prop_assert!(replicas_for_rate(required, per_server, avail_hi, 1) <= base);
        // Nonincreasing in per-server capacity.
        prop_assert!(replicas_for_rate(required, per_server * 2.0, avail_lo, 1) <= base);

        // Sufficiency: the sized fleet covers the demand...
        let eff = per_server * avail_lo;
        prop_assert!(
            base as f64 * eff >= required * (1.0 - 1e-9),
            "{} replicas x {} rps < {}", base, eff, required
        );
        // ...and minimality: one fewer replica would not.
        prop_assert!(base >= 1);
        prop_assert!(
            (base - 1) as f64 * eff < required * (1.0 + 1e-9),
            "{} replicas already sufficed for {}", base - 1, required
        );

        // Degenerate demand needs no fleet at all.
        prop_assert_eq!(replicas_for_rate(0.0, per_server, avail_lo, 1), 0);
        prop_assert_eq!(replicas_for_rate(-required, per_server, avail_lo, 1), 0);
    }

    /// The correlated-cell term: the sized fleet survives losing its
    /// largest cell and still meets the rate; more cells never require
    /// a bigger fleet (smaller blast radius); and the multi-cell answer
    /// never undercuts the 1-cell answer.
    #[test]
    fn replicas_for_rate_cell_term(
        required in 1.0f64..1e6,
        per_server in 10.0f64..1e5,
        avail in 0.5f64..1.0,
        cells in 2usize..12,
    ) {
        let independent = replicas_for_rate(required, per_server, avail, 1);
        let n = replicas_for_rate(required, per_server, avail, cells);
        prop_assert!(n >= independent);
        // Losing the largest of `cells` near-equal cells still leaves
        // enough derated capacity.
        let survivors = n - n.div_ceil(cells as u64);
        let eff = per_server * avail;
        prop_assert!(
            survivors as f64 * eff >= required * (1.0 - 1e-9),
            "{n} replicas over {cells} cells leave {survivors} survivors"
        );
        // A finer cell split (smaller largest cell) never needs more.
        prop_assert!(replicas_for_rate(required, per_server, avail, cells + 1) <= n);
    }

    /// The SLO-feasible batch cap is monotone in the SLO: loosening the
    /// latency budget never shrinks the feasible batch.
    #[test]
    fn max_batch_within_slo_monotone_in_slo(
        slo_ms in 2.2f64..20.0,
        slack_ms in 0.0f64..20.0,
        limit in 1u64..2048,
    ) {
        // 2 ms fixed + 0.1 ms per item.
        let m = LatencyModel::from_points(vec![(1, 0.0021), (200, 0.022)]).unwrap();
        let tight = max_batch_within_slo(&m, slo_ms * 1e-3, limit);
        let loose = max_batch_within_slo(&m, (slo_ms + slack_ms) * 1e-3, limit);
        match (tight, loose) {
            (Some(t), Some(l)) => {
                prop_assert!(l >= t);
                prop_assert!(t >= 1 && l <= limit);
                // Feasibility: the returned batch really meets the SLO.
                prop_assert!(m.latency(t) <= slo_ms * 1e-3 + 1e-12);
            }
            (None, Some(_)) | (None, None) => {}
            (Some(_), None) => prop_assert!(false, "loosening the SLO lost feasibility"),
        }
    }
}
