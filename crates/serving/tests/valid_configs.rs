//! Every config the validators accept must simulate cleanly, and every
//! fleet config they reject must map to one typed error.
//!
//! The generators below draw adversarial-but-valid configs for the
//! fleet, generation, and global engines: arrival rates across two
//! decades, deadlines with queue budgets, queue caps, retries,
//! scheduled plus MTBF faults with failover on or off, static
//! and continuous decode batching under KV pressure, and cell faults
//! under the geo load-balancer. For every drawn config the run must
//! return `Ok`, conserve requests, report only finite floats, and
//! return the same report when a telemetry recorder is attached
//! (telemetry is derived from, never an input to, simulation state).
//! For the fleet path, a fixed table corrupts one field of a drawn
//! config at a time, and the run must return exactly that field's
//! `ConfigError`.

use std::collections::HashSet;
use std::mem::discriminant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpu_serving::des::{MAX_REQUESTS, MAX_SERVERS};
use tpu_serving::faults::{FailoverConfig, FaultKind, FaultPlan, MtbfFaults, ScheduledFault};
use tpu_serving::fleet::{
    simulate_global, simulate_global_recorded, AutoscalerConfig, Cell, CellFault, CellFaultKind,
    GeoPolicy, GlobalConfig, GlobalReport, TrafficModel,
};
use tpu_serving::genmodel::{GenerationModel, TokenDistribution};
use tpu_serving::latency::{GenLatencyModel, LatencyModel};
use tpu_serving::{
    simulate_fleet_recorded, simulate_fleet_with_faults, simulate_generation,
    simulate_generation_recorded, BatchingMode, ConfigError, FleetConfig, FleetPolicy, GenConfig,
    GenReport, LatencyStats, PoolConfig, RetryPolicy, ServingConfig, ServingMetrics, ServingReport,
};
use tpu_telemetry::{span_balance, Recorder};

/// Configs drawn per test.
const FLEET_PAIRS: usize = 120;
const GEN_PAIRS: usize = 100;
const GLOBAL_PAIRS: usize = 24;
const RECORDED_PAIRS: usize = 16;

/// A random latency curve: ~0.5–2 ms base, clearly batch-sensitive.
fn random_latency(rng: &mut StdRng) -> LatencyModel {
    let base = rng.gen_range(0.0005..0.002);
    let top = rng.gen_range(0.004..0.012);
    LatencyModel::from_points(vec![(1, base), (128, top)]).expect("monotone points")
}

/// A random-but-valid chaos fleet: rates across two decades, optional
/// deadlines/shedding/caps/retries, scheduled + MTBF faults,
/// failover on or off. Everything `FleetConfig::validate` admits.
fn random_fleet(rng: &mut StdRng) -> (FleetConfig, FaultPlan) {
    let servers = rng.gen_range(1usize..7);
    let base = ServingConfig {
        arrival_rate_rps: rng.gen_range(300.0..30_000.0),
        max_batch: rng.gen_range(1u64..33),
        batch_timeout_s: rng.gen_range(0.0002..0.004),
        requests: rng.gen_range(150usize..500),
        seed: rng.gen_range(0..u64::MAX),
    };
    let deadline_s = rng.gen_bool(0.6).then(|| rng.gen_range(0.005..0.05));
    let shed_expired = deadline_s.is_some() && rng.gen_bool(0.7);
    let queue_budget_s = match deadline_s {
        Some(d) if shed_expired && rng.gen_bool(0.5) => Some(d * rng.gen_range(0.5..1.0)),
        _ => None,
    };
    let policy = FleetPolicy {
        deadline_s,
        shed_expired,
        queue_budget_s,
        queue_cap: rng.gen_bool(0.5).then(|| rng.gen_range(16usize..512)),
        retry: RetryPolicy {
            max_retries: rng.gen_range(0u32..3),
            backoff_s: rng.gen_range(0.001..0.01),
            backoff_mult: rng.gen_range(1.0..3.0),
        },
    };
    let fleet = FleetConfig::new(PoolConfig { base, servers }).with_policy(policy);

    let n_sched = rng.gen_range(0usize..4);
    let scheduled = (0..n_sched)
        .map(|_| ScheduledFault {
            server: rng.gen_range(0..servers),
            at_s: rng.gen_range(0.0..0.2),
            kind: if rng.gen_bool(0.5) {
                FaultKind::Crash {
                    mttr_s: rng.gen_range(0.01..0.5),
                }
            } else {
                FaultKind::Hang {
                    duration_s: rng.gen_range(0.005..0.05),
                }
            },
        })
        .collect();
    let mtbf = rng.gen_bool(0.4).then(|| MtbfFaults {
        mtbf_s: rng.gen_range(0.02..0.2),
        mttr_s: rng.gen_range(0.005..0.05),
        horizon_s: rng.gen_range(0.5..2.0),
    });
    let probe_interval_s = rng.gen_range(0.001..0.01);
    let plan = FaultPlan {
        scheduled,
        mtbf,
        fault_seed: rng.gen_range(0..u64::MAX),
        failover: FailoverConfig {
            enabled: rng.gen_bool(0.6),
            probe_interval_s,
            probe_timeout_s: probe_interval_s * 0.5,
            recovery_warmup_s: rng.gen_range(0.001..0.01),
        },
    };
    (fleet, plan)
}

/// Every float a latency summary carries.
fn stats_floats(s: &LatencyStats) -> [f64; 5] {
    [s.mean_s, s.p50_s, s.p95_s, s.p99_s, s.max_s]
}

/// Every computed float in a metrics block: the histogram summaries
/// (an empty histogram reports 0) and the per-server time vectors.
fn metrics_floats(m: &ServingMetrics) -> Vec<f64> {
    let mut v = Vec::new();
    for h in [
        &m.batch_sizes,
        &m.decode_batch,
        &m.queue_wait_s,
        &m.time_to_detect_s,
        &m.time_to_recover_s,
    ] {
        v.extend([
            h.sum(),
            h.mean(),
            h.max(),
            h.quantile(0.5),
            h.quantile(0.99),
        ]);
    }
    v.extend(&m.per_server_busy_s);
    v.extend(&m.per_server_down_s);
    v
}

fn serving_floats(r: &ServingReport) -> Vec<f64> {
    let mut v = vec![
        r.p50_s,
        r.p99_s,
        r.throughput_rps,
        r.goodput_rps,
        r.mean_batch,
        r.server_utilization,
        r.duration_s,
    ];
    v.extend(stats_floats(&r.stats));
    v.extend(metrics_floats(&r.metrics));
    v
}

fn gen_floats(r: &GenReport) -> Vec<f64> {
    let mut v = vec![
        r.p50_ttft_s,
        r.p99_ttft_s,
        r.p99_tpot_s,
        r.throughput_rps,
        r.goodput_rps,
        r.tokens_per_s,
        r.duration_s,
    ];
    for s in [&r.ttft_stats, &r.tpot_stats, &r.e2e_stats] {
        v.extend(stats_floats(s));
    }
    v.extend(metrics_floats(&r.metrics));
    v
}

fn global_floats(r: &GlobalReport) -> Vec<f64> {
    let mut v = vec![
        r.p50_s,
        r.p99_s,
        r.throughput_rps,
        r.goodput_rps,
        r.availability,
        r.duration_s,
    ];
    v.extend(stats_floats(&r.stats));
    v.extend(metrics_floats(&r.metrics));
    for c in &r.cells {
        v.push(c.cell_down_s);
        v.extend(stats_floats(&c.stats));
        v.extend(metrics_floats(&c.metrics));
    }
    v
}

fn assert_finite(floats: &[f64], what: &str) {
    for (i, x) in floats.iter().enumerate() {
        assert!(x.is_finite(), "{what}: report float #{i} is {x}");
    }
}

#[test]
fn every_valid_fleet_config_runs_clean() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0001);
    for case in 0..FLEET_PAIRS {
        let latency = random_latency(&mut rng);
        let (cfg, plan) = random_fleet(&mut rng);
        let what = format!("fleet case {case}: {cfg:?} {plan:?}");
        let r = simulate_fleet_with_faults(&latency, &cfg, &plan)
            .unwrap_or_else(|e| panic!("{what}: rejected: {e}"));
        assert!(r.conservation_holds(), "{what}: conservation");
        assert_finite(&serving_floats(&r), &what);
        let mut rec = Recorder::new();
        let recorded = simulate_fleet_recorded(&latency, &cfg, &plan, &mut rec)
            .unwrap_or_else(|e| panic!("{what}: recorded run rejected: {e}"));
        assert_eq!(recorded, r, "{what}: recorded report diverged");
    }
}

/// Out-of-domain values for a float knob that must be finite and > 0.
const NOT_POSITIVE: &[f64] = &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
/// Out-of-domain values for a float knob that must be finite and >= 1.
const BELOW_ONE: &[f64] = &[
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    0.5,
    1.0 - f64::EPSILON,
];
/// Out-of-domain values for a float knob that must be finite and >= 0.
const NEGATIVE: &[f64] = &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-300];
/// A corruption that ignores the value: one fixed bad input.
const ONCE: &[f64] = &[0.0];

/// Corrupts one field of a valid fleet config or fault plan with the
/// given value and returns the one error the run must report.
type Corrupt = fn(&mut FleetConfig, &mut FaultPlan, f64) -> ConfigError;

/// The plan's first scheduled fault, after adding a valid crash if it
/// has none.
fn first_fault(plan: &mut FaultPlan) -> &mut ScheduledFault {
    if plan.scheduled.is_empty() {
        plan.scheduled.push(ScheduledFault {
            server: 0,
            at_s: 0.05,
            kind: FaultKind::Crash { mttr_s: 0.1 },
        });
    }
    &mut plan.scheduled[0]
}

/// The plan's MTBF stream, after adding a valid one if it has none.
fn mtbf(plan: &mut FaultPlan) -> &mut MtbfFaults {
    plan.mtbf.get_or_insert(MtbfFaults {
        mtbf_s: 0.1,
        mttr_s: 0.01,
        horizon_s: 1.0,
    })
}

/// Every rejected fleet input: the field it corrupts, the bad values,
/// and the corruption. Together the rows reach every `ConfigError` that
/// `ServingConfig`, `PoolConfig`, `FleetPolicy`, `RetryPolicy`,
/// `ScheduledFault`, `MtbfFaults` and `FailoverConfig` can produce.
fn rejected_fleet_inputs() -> Vec<(&'static str, &'static [f64], Corrupt)> {
    vec![
        ("arrival_rate_rps", NOT_POSITIVE, |c, _, x| {
            c.pool.base.arrival_rate_rps = x;
            ConfigError::NonPositiveArrivalRate(x)
        }),
        ("max_batch", ONCE, |c, _, _| {
            c.pool.base.max_batch = 0;
            ConfigError::ZeroMaxBatch
        }),
        ("batch_timeout_s", NEGATIVE, |c, _, x| {
            c.pool.base.batch_timeout_s = x;
            ConfigError::InvalidBatchTimeout(x)
        }),
        ("requests = 0", ONCE, |c, _, _| {
            c.pool.base.requests = 0;
            ConfigError::ZeroRequests
        }),
        ("requests past the id space", ONCE, |c, _, _| {
            c.pool.base.requests = MAX_REQUESTS + 1;
            ConfigError::TooManyRequests(MAX_REQUESTS + 1)
        }),
        ("servers = 0", ONCE, |c, _, _| {
            c.pool.servers = 0;
            ConfigError::ZeroServers
        }),
        ("servers past the id space", ONCE, |c, _, _| {
            c.pool.servers = MAX_SERVERS + 1;
            ConfigError::TooManyServers(MAX_SERVERS + 1)
        }),
        ("deadline_s", NOT_POSITIVE, |c, _, x| {
            c.policy.deadline_s = Some(x);
            ConfigError::InvalidDeadline(x)
        }),
        ("shed_expired without a deadline", ONCE, |c, _, _| {
            c.policy.deadline_s = None;
            c.policy.shed_expired = true;
            ConfigError::SheddingWithoutDeadline
        }),
        ("queue_budget_s", NOT_POSITIVE, |c, _, x| {
            c.policy.queue_budget_s = Some(x);
            ConfigError::InvalidQueueBudget(x)
        }),
        ("queue_cap", ONCE, |c, _, _| {
            c.policy.queue_cap = Some(0);
            ConfigError::ZeroQueueCap
        }),
        ("backoff_s", NEGATIVE, |c, _, x| {
            c.policy.retry.backoff_s = x;
            ConfigError::InvalidRetryBackoff(x)
        }),
        ("backoff_mult", BELOW_ONE, |c, _, x| {
            c.policy.retry.backoff_mult = x;
            ConfigError::InvalidRetryBackoffMult(x)
        }),
        ("scheduled fault server", ONCE, |c, p, _| {
            let servers = c.pool.servers;
            first_fault(p).server = servers;
            ConfigError::FaultServerOutOfRange {
                server: servers,
                servers,
            }
        }),
        ("scheduled fault at_s", NEGATIVE, |_, p, x| {
            first_fault(p).at_s = x;
            ConfigError::InvalidFaultTime(x)
        }),
        ("crash mttr_s", NOT_POSITIVE, |_, p, x| {
            first_fault(p).kind = FaultKind::Crash { mttr_s: x };
            ConfigError::InvalidMttr(x)
        }),
        ("hang duration_s", NOT_POSITIVE, |_, p, x| {
            first_fault(p).kind = FaultKind::Hang { duration_s: x };
            ConfigError::InvalidFaultDuration(x)
        }),
        ("mtbf_s", NOT_POSITIVE, |_, p, x| {
            mtbf(p).mtbf_s = x;
            ConfigError::InvalidMtbf(x)
        }),
        ("mtbf mttr_s", NOT_POSITIVE, |_, p, x| {
            mtbf(p).mttr_s = x;
            ConfigError::InvalidMttr(x)
        }),
        ("mtbf horizon_s", NOT_POSITIVE, |_, p, x| {
            mtbf(p).horizon_s = x;
            ConfigError::InvalidFaultHorizon(x)
        }),
        ("probe_interval_s", NOT_POSITIVE, |_, p, x| {
            p.failover.probe_interval_s = x;
            ConfigError::InvalidProbeInterval(x)
        }),
        ("probe_timeout_s", NEGATIVE, |_, p, x| {
            p.failover.probe_timeout_s = x;
            ConfigError::InvalidProbeTimeout(x)
        }),
        ("recovery_warmup_s", NEGATIVE, |_, p, x| {
            p.failover.recovery_warmup_s = x;
            ConfigError::InvalidRecoveryWarmup(x)
        }),
    ]
}

#[test]
fn rejected_fleet_configs_map_to_one_typed_error() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0005);
    let latency = random_latency(&mut rng);
    let mut variants = HashSet::new();
    for (field, values, corrupt) in rejected_fleet_inputs() {
        for &x in values {
            let (mut cfg, mut plan) = random_fleet(&mut rng);
            let want = corrupt(&mut cfg, &mut plan, x);
            variants.insert(discriminant(&want));
            // Debug text, not `==`: a NaN payload never compares equal,
            // and the text also tells -0.0 from 0.0.
            match simulate_fleet_with_faults(&latency, &cfg, &plan) {
                Err(got) => assert_eq!(format!("{got:?}"), format!("{want:?}"), "{field} = {x}"),
                Ok(_) => panic!("{field} = {x}: accepted {cfg:?} {plan:?}"),
            }
        }
    }
    assert_eq!(variants.len(), 22, "one row per reachable variant");
}

/// A random-but-valid decode-loop config in either batching mode.
fn random_gen(rng: &mut StdRng) -> (GenLatencyModel, GenConfig) {
    let lat = GenLatencyModel {
        prefill: LatencyModel::from_points(vec![
            (1, rng.gen_range(0.0005..0.002)),
            (1000, rng.gen_range(0.005..0.02)),
        ])
        .expect("monotone points"),
        decode: LatencyModel::from_points(vec![
            (1, rng.gen_range(0.001..0.004)),
            (32, rng.gen_range(0.004..0.008)),
        ])
        .expect("monotone points"),
    };
    let model = GenerationModel {
        prompt: TokenDistribution::Uniform {
            min: 1,
            max: rng.gen_range(8u64..512),
        },
        output: TokenDistribution::Geometric {
            mean: rng.gen_range(1.0..48.0),
            max: rng.gen_range(16u64..128),
        },
        kv_bytes_per_token: 4096,
    };
    let cfg = GenConfig {
        arrival_rate_rps: rng.gen_range(5.0..400.0),
        requests: rng.gen_range(100usize..400),
        seed: rng.gen_range(0..u64::MAX),
        mode: if rng.gen_bool(0.5) {
            BatchingMode::Continuous
        } else {
            BatchingMode::Static
        },
        max_batch: rng.gen_range(1u64..24),
        kv_capacity_bytes: model.peak_request_kv_bytes() * rng.gen_range(1u64..6),
        ttft_slo_s: rng.gen_bool(0.7).then(|| rng.gen_range(0.05..0.5)),
        model,
    };
    (lat, cfg)
}

#[test]
fn every_valid_generation_config_runs_clean() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0002);
    for case in 0..GEN_PAIRS {
        let (lat, cfg) = random_gen(&mut rng);
        let what = format!("gen case {case}: {cfg:?}");
        let r = simulate_generation(&lat, &cfg).unwrap_or_else(|e| panic!("{what}: rejected: {e}"));
        assert!(r.conservation_holds(), "{what}: conservation");
        assert_finite(&gen_floats(&r), &what);
        let mut rec = Recorder::new();
        let recorded = simulate_generation_recorded(&lat, &cfg, &mut rec)
            .unwrap_or_else(|e| panic!("{what}: recorded run rejected: {e}"));
        assert_eq!(recorded, r, "{what}: recorded report diverged");
    }
}

/// A random-but-valid global config (compact horizon so the battery
/// stays fast: each run is still epochs x cells full DES runs).
fn random_global(rng: &mut StdRng) -> GlobalConfig {
    let n_cells = rng.gen_range(2usize..5);
    let cells = (0..n_cells)
        .map(|_| {
            let servers = rng.gen_range(2usize..5);
            let (mut fleet, _) = random_fleet(rng);
            fleet.pool.servers = servers;
            // The orchestrator substitutes per-epoch rate/count/seed.
            fleet.pool.base.requests = 1;
            fleet.pool.base.arrival_rate_rps = 1.0;
            Cell::new(fleet, rng.gen_range(1_500.0..4_000.0), servers * 2)
        })
        .collect();
    let n_faults = rng.gen_range(0usize..4);
    let cell_faults = (0..n_faults)
        .map(|_| CellFault {
            cell: rng.gen_range(0..n_cells),
            at_s: rng.gen_range(0.0..0.8),
            duration_s: rng.gen_range(0.05..0.4),
            kind: match rng.gen_range(0u32..3) {
                0 => CellFaultKind::Outage,
                1 => CellFaultKind::Partition,
                _ => CellFaultKind::Brownout {
                    fraction: rng.gen_range(0.2..1.0),
                },
            },
        })
        .collect();
    GlobalConfig {
        cells,
        traffic: TrafficModel::diurnal(
            rng.gen_range(1_000.0..12_000.0),
            rng.gen_range(0.0..0.6),
            1.0,
        )
        .with_flash(0.4, 0.2, 1.7),
        cell_faults,
        autoscaler: AutoscalerConfig {
            enabled: rng.gen_bool(0.5),
            target_utilization: 0.6,
            step_servers: 2,
            provisioning_lag_epochs: 1,
        },
        geo: GeoPolicy {
            failover: rng.gen_bool(0.5),
            redirect_latency_s: 0.01,
            overload_threshold: 1.0,
            detect_epochs: 1,
        },
        epoch_s: 0.1,
        horizon_s: 0.8,
        seed: rng.gen_range(0..u64::MAX),
    }
}

#[test]
fn every_valid_global_config_runs_clean() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0003);
    let latency = random_latency(&mut rng);
    for case in 0..GLOBAL_PAIRS {
        let cfg = random_global(&mut rng);
        let what = format!("global case {case}");
        let r = simulate_global(&latency, &cfg).unwrap_or_else(|e| panic!("{what}: rejected: {e}"));
        assert!(r.conservation_holds(), "{what}: conservation");
        assert_finite(&global_floats(&r), &what);
        let mut rec = Recorder::new();
        let recorded = simulate_global_recorded(&latency, &cfg, &mut rec)
            .unwrap_or_else(|e| panic!("{what}: recorded run rejected: {e}"));
        assert_eq!(recorded, r, "{what}: recorded report diverged");
    }
}

/// Telemetry streams are part of the contract: identical event
/// sequences (timestamp *bits*, track, phase, name, id, arg) and
/// identical counter maps, not just identical reports.
fn assert_streams_identical(a: &Recorder, b: &Recorder, what: &str) {
    assert_eq!(a.counters(), b.counters(), "{what}: counters diverged");
    assert_eq!(a.len(), b.len(), "{what}: event counts diverged");
    for (i, (x, y)) in a.events().zip(b.events()).enumerate() {
        assert_eq!(
            x.t_s.to_bits(),
            y.t_s.to_bits(),
            "{what}: event {i} timestamp bits diverged ({} vs {})",
            x.t_s,
            y.t_s
        );
        assert_eq!(
            (x.track, x.phase, &x.name, x.id, x.arg),
            (y.track, y.phase, &y.name, y.id, y.arg),
            "{what}: event {i} payload diverged"
        );
    }
}

/// A recorded stream is itself a deterministic function of the config:
/// two recordings of one drawn config match event for event, and every
/// span they open is closed.
#[test]
fn recorded_streams_are_deterministic_and_balanced() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0004);
    for case in 0..RECORDED_PAIRS {
        let latency = random_latency(&mut rng);
        let (cfg, plan) = random_fleet(&mut rng);
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        simulate_fleet_recorded(&latency, &cfg, &plan, &mut a).expect("valid");
        simulate_fleet_recorded(&latency, &cfg, &plan, &mut b).expect("valid");
        assert_streams_identical(&a, &b, &format!("fleet case {case}"));
        let events: Vec<_> = a.events().cloned().collect();
        span_balance(&events).unwrap_or_else(|e| panic!("fleet case {case}: {e}"));

        let (glat, gcfg) = random_gen(&mut rng);
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        simulate_generation_recorded(&glat, &gcfg, &mut a).expect("valid");
        simulate_generation_recorded(&glat, &gcfg, &mut b).expect("valid");
        assert_streams_identical(&a, &b, &format!("gen case {case}"));
        let events: Vec<_> = a.events().cloned().collect();
        span_balance(&events).unwrap_or_else(|e| panic!("gen case {case}: {e}"));
    }
}
