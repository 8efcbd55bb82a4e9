//! Trace invariants on real fleet/chaos runs: monotone timestamps,
//! balanced spans, exact reconciliation with `ServingMetrics`
//! conservation, and the determinism guarantee (telemetry is derived
//! from, never an input to, simulation state).

mod common;

use common::Fold;
use tpu_serving::faults::{FailoverConfig, FaultKind, FaultPlan, MtbfFaults, ScheduledFault};
use tpu_serving::{
    simulate_fleet_recorded, simulate_fleet_with_faults, simulate_global, simulate_global_recorded,
    AutoscalerConfig, Cell, CellFault, CellFaultKind, FleetConfig, FleetPolicy, GeoPolicy,
    GlobalConfig, GlobalReport, LatencyModel, RetryPolicy, ServingConfig, ServingMetrics,
    ServingReport, TrafficModel,
};
use tpu_telemetry::{chrome_trace_json, span_balance, validate_chrome_json, Recorder, SpanPhase};

fn model() -> LatencyModel {
    LatencyModel::from_points(vec![(1, 0.001), (128, 0.008)]).expect("valid model")
}

/// An overloaded chaos fleet: 4 servers, MTBF crashes/hangs, failover
/// probes, deadline shedding, retries — every lifecycle edge fires.
fn chaos_fleet(requests: usize, seed: u64) -> (FleetConfig, FaultPlan) {
    let base = ServingConfig {
        arrival_rate_rps: 45_000.0,
        max_batch: 16,
        batch_timeout_s: 0.001,
        requests,
        seed,
    };
    let fleet = FleetConfig::new(base.with_servers(4)).with_policy(FleetPolicy {
        deadline_s: Some(0.02),
        shed_expired: true,
        queue_budget_s: Some(0.015),
        queue_cap: Some(256),
        retry: RetryPolicy {
            max_retries: 1,
            backoff_s: 0.002,
            backoff_mult: 2.0,
        },
    });
    let plan = FaultPlan {
        scheduled: vec![ScheduledFault {
            server: 0,
            at_s: 0.05,
            kind: FaultKind::Crash { mttr_s: 5.0 },
        }],
        mtbf: Some(MtbfFaults {
            mtbf_s: 0.04,
            mttr_s: 0.015,
            horizon_s: 1.0,
        }),
        fault_seed: 7,
        failover: FailoverConfig {
            enabled: true,
            probe_interval_s: 0.002,
            probe_timeout_s: 0.001,
            recovery_warmup_s: 0.005,
        },
    };
    (fleet, plan)
}

fn recorded_chaos_run(requests: usize, seed: u64) -> (ServingReport, Recorder) {
    let (fleet, plan) = chaos_fleet(requests, seed);
    let mut rec = Recorder::with_capacity(1 << 20);
    let report =
        simulate_fleet_recorded(&model(), &fleet, &plan, &mut rec).expect("valid chaos config");
    (report, rec)
}

#[test]
fn chaos_run_exercises_every_lifecycle_edge() {
    // Guard: the fixture must actually produce sheds, failures, faults,
    // and recoveries, or the invariant tests below prove nothing.
    let (report, rec) = recorded_chaos_run(4000, 11);
    assert!(report.shed > 0, "fixture should shed");
    assert!(report.failed > 0, "fixture should fail in-flight work");
    assert!(report.metrics.failures_detected.get() > 0);
    assert!(report.metrics.failures_recovered.get() > 0);
    assert!(rec.counter("retry") > 0);
    assert!(rec.counter("down.begin") > 0);
}

#[test]
fn timestamps_are_monotone_nondecreasing() {
    let (_, rec) = recorded_chaos_run(4000, 11);
    assert_eq!(rec.dropped(), 0, "ring must hold the whole run");
    let mut prev = f64::NEG_INFINITY;
    for ev in rec.events() {
        assert!(
            ev.t_s >= prev,
            "time went backwards: {} after {} ({})",
            ev.t_s,
            prev,
            ev.name
        );
        prev = ev.t_s;
    }
}

#[test]
fn spans_are_balanced_on_chaos_runs() {
    let (_, rec) = recorded_chaos_run(4000, 11);
    let events: Vec<_> = rec.events().cloned().collect();
    let balanced = span_balance(&events).expect("every begin has a matching end");
    assert!(balanced > 0);
    // Counter-level balance agrees for each span family.
    for name in ["queued", "batch", "down"] {
        assert_eq!(
            rec.counter(&format!("{name}.begin")),
            rec.counter(&format!("{name}.end")),
            "{name} spans unbalanced"
        );
    }
}

#[test]
fn event_counts_reconcile_exactly_with_serving_metrics() {
    let (report, rec) = recorded_chaos_run(4000, 11);
    let m = &report.metrics;
    assert!(report.conservation_holds());
    // Terminal instants are the conservation identity, event-by-event:
    // arrivals == completed + shed + dropped + failed.
    assert_eq!(rec.counter("arrive"), report.arrivals as u64);
    assert_eq!(rec.counter("complete"), report.completed as u64);
    assert_eq!(rec.counter("shed_permanent"), report.shed as u64);
    assert_eq!(rec.counter("dropped"), report.dropped as u64);
    assert_eq!(rec.counter("failed_permanent"), report.failed as u64);
    assert_eq!(
        rec.counter("arrive"),
        rec.counter("complete")
            + rec.counter("shed_permanent")
            + rec.counter("dropped")
            + rec.counter("failed_permanent")
    );
    // Counter registry mirrors the metrics module exactly.
    assert_eq!(rec.counter("arrive"), m.arrivals.get());
    assert_eq!(rec.counter("complete"), m.completed.get());
    assert_eq!(rec.counter("retry"), m.retries.get());
    assert_eq!(rec.counter("shed_queue_full"), m.shed_queue_full.get());
    assert_eq!(rec.counter("shed_deadline"), m.shed_deadline.get());
    assert_eq!(rec.counter("shed_no_capacity"), m.shed_no_capacity.get());
    assert_eq!(rec.counter("detected"), m.failures_detected.get());
    assert_eq!(rec.counter("recovered"), m.failures_recovered.get());
    assert_eq!(rec.counter("dropped"), m.dropped_at_drain.get());
    assert_eq!(
        rec.counter("crash") + rec.counter("hang"),
        m.failures_injected.get()
    );
    assert_eq!(rec.counter("slow_degrade"), m.degrades_injected.get());
    assert_eq!(rec.counter("events_processed"), m.events_processed.get());
    // Every queue residency that ended in a launch observed its wait.
    assert_eq!(rec.counter("queued.begin"), m.admitted.get());
}

#[test]
fn telemetry_is_derived_not_an_input() {
    // Same config and seed, with and without a recorder attached: the
    // reports must be bit-identical.
    let (fleet, plan) = chaos_fleet(4000, 11);
    let plain = simulate_fleet_with_faults(&model(), &fleet, &plan).expect("valid");
    let (recorded, _) = recorded_chaos_run(4000, 11);
    assert_eq!(plain, recorded);
}

#[test]
fn recorded_event_stream_is_deterministic() {
    let (ra, a) = recorded_chaos_run(4000, 11);
    let (rb, b) = recorded_chaos_run(4000, 11);
    assert_eq!(ra, rb);
    assert_eq!(a.len(), b.len());
    assert!(a.events().zip(b.events()).all(|(x, y)| x == y));
    assert_eq!(a.counters(), b.counters());
    // And the serialized export is byte-identical.
    let ja = chrome_trace_json(a.events());
    let jb = chrome_trace_json(b.events());
    assert_eq!(ja, jb);
}

#[test]
fn chrome_export_of_a_real_run_is_schema_valid() {
    let (_, rec) = recorded_chaos_run(2000, 3);
    let json = chrome_trace_json(rec.events());
    let records = validate_chrome_json(&json).expect("schema-valid chrome trace");
    // Every ring event plus at least the fleet + 4 server tracks'
    // thread_name metadata records.
    assert!(records >= rec.len() + 5);
}

#[test]
fn shed_instants_partition_by_reason() {
    let (_, rec) = recorded_chaos_run(4000, 11);
    // Every queue residency ends in exactly one of: launch (becomes a
    // batch member), deadline shed, redistribution, or drain. The
    // non-queued shed reasons (queue_full, no_capacity) never open a
    // queued span, so queued.begin >= queued.end contributions from
    // sheds alone — the balance test already pins equality; here we pin
    // that at least one deadline shed and one queue-full shed happened
    // so both paths are covered.
    assert!(rec.counter("shed_deadline") > 0);
    assert!(rec.counter("shed_queue_full") > 0);
    let begins = rec.counter("queued.begin");
    let ends = rec.counter("queued.end");
    assert_eq!(begins, ends);
    // Batch spans saw real traffic on several servers.
    let mut server_tracks: Vec<u32> = rec
        .events()
        .filter(|e| e.track.name == "server" && e.phase == SpanPhase::Begin && e.name == "batch")
        .map(|e| e.track.index)
        .collect();
    server_tracks.sort_unstable();
    server_tracks.dedup();
    assert!(server_tracks.len() >= 2, "batches on at least two servers");
}

impl Fold {
    fn metrics(&mut self, m: &ServingMetrics) {
        self.counters(m);
        self.word(m.kv_peak_bytes);
        self.metrics_tail(m);
    }

    fn fleet_report(&mut self, r: &ServingReport) {
        self.stats(&r.stats);
        for x in [
            r.p50_s,
            r.p99_s,
            r.throughput_rps,
            r.goodput_rps,
            r.mean_batch,
            r.server_utilization,
            r.duration_s,
        ] {
            self.float(x);
        }
        for n in [r.arrivals, r.completed, r.shed, r.dropped, r.failed] {
            self.word(n as u64);
        }
        self.word(r.seed);
        self.metrics(&r.metrics);
    }

    fn global_report(&mut self, r: &GlobalReport) {
        for w in [
            r.arrivals,
            r.completed,
            r.good,
            r.shed,
            r.dropped,
            r.failed,
            r.redirected,
            r.lb_shed,
            r.seed,
        ] {
            self.word(w);
        }
        for x in [
            r.p50_s,
            r.p99_s,
            r.throughput_rps,
            r.goodput_rps,
            r.availability,
            r.duration_s,
        ] {
            self.float(x);
        }
        self.stats(&r.stats);
        self.metrics(&r.metrics);
        self.word(r.cells.len() as u64);
        for c in &r.cells {
            for w in [
                c.offered,
                c.redirected_in,
                c.redirected_out,
                c.lb_shed,
                c.assigned,
                c.completed,
                c.good,
                c.shed,
                c.dropped,
                c.failed,
                c.infra_lost,
                c.peak_servers as u64,
                c.final_servers as u64,
                c.scale_ups,
                c.scale_downs,
                c.server_epochs,
            ] {
                self.word(w);
            }
            self.float(c.cell_down_s);
            self.stats(&c.stats);
            self.metrics(&c.metrics);
        }
        let a = &r.autoscaler;
        for w in [
            a.scale_ups,
            a.scale_downs,
            a.servers_added,
            a.servers_removed,
            a.peak_servers as u64,
            a.server_epochs,
        ] {
            self.word(w);
        }
    }
}

/// A 3-server fleet offered twice its batch-16 capacity, with no
/// faults, with or without deadline shedding, a queue cap and retries.
fn overload_fleet(protected: bool) -> FleetConfig {
    let base = ServingConfig {
        arrival_rate_rps: 52_000.0,
        max_batch: 16,
        batch_timeout_s: 0.001,
        requests: 4000,
        seed: 41,
    };
    let policy = if protected {
        FleetPolicy {
            deadline_s: Some(0.02),
            shed_expired: true,
            queue_budget_s: Some(0.015),
            queue_cap: Some(128),
            retry: RetryPolicy {
                max_retries: 2,
                backoff_s: 0.001,
                backoff_mult: 2.0,
            },
        }
    } else {
        FleetPolicy {
            deadline_s: Some(0.02),
            ..FleetPolicy::default()
        }
    };
    FleetConfig::new(base.with_servers(3)).with_policy(policy)
}

/// Three cells under a flash crowd, each hit by one cell fault (an
/// outage, a brownout and a partition), with an autoscaler free to
/// shrink each cell to one server and geo failover on or off.
fn faulted_global(failover: bool, seed: u64) -> GlobalConfig {
    let cell = |servers: usize| {
        let base = ServingConfig {
            arrival_rate_rps: 1.0, // overwritten per epoch
            max_batch: 16,
            batch_timeout_s: 0.002,
            requests: 1, // overwritten per epoch
            seed: 0,     // overwritten per epoch
        };
        let fleet = FleetConfig::new(base.with_servers(servers)).with_policy(FleetPolicy {
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
        Cell::new(fleet, 2500.0, servers * 2)
            .with_bounds(1, servers * 2)
            .with_faults(FaultPlan::none().with_failover(FailoverConfig::default()))
    };
    let fault = |cell: usize, at_s: f64, duration_s: f64, kind: CellFaultKind| CellFault {
        cell,
        at_s,
        duration_s,
        kind,
    };
    GlobalConfig {
        cells: vec![cell(2), cell(3), cell(2)],
        traffic: TrafficModel::diurnal(9000.0, 0.3, 1.0).with_flash(0.4, 0.2, 3.0),
        cell_faults: vec![
            fault(0, 0.33, 0.32, CellFaultKind::Outage),
            fault(1, 0.52, 0.2, CellFaultKind::Brownout { fraction: 0.5 }),
            fault(2, 0.75, 0.15, CellFaultKind::Partition),
        ],
        autoscaler: AutoscalerConfig {
            target_utilization: 0.25,
            ..AutoscalerConfig::default()
        },
        geo: GeoPolicy {
            failover,
            redirect_latency_s: 0.01,
            ..GeoPolicy::default()
        },
        epoch_s: 0.1,
        horizon_s: 1.0,
        seed,
    }
}

/// Pins the fleet engine's and the global fleet layer's observable
/// behaviour: every report bit and every recorded event and counter,
/// over chaos fleets at three seeds, a protected and an unprotected
/// overload fleet, and global runs through an outage, a brownout and a
/// partition with the autoscaler on and geo failover on and off. A
/// change that keeps behaviour must leave the constant unchanged.
#[test]
fn fleet_and_global_streams_are_pinned() {
    let mut fold = Fold(0xcbf2_9ce4_8422_2325);
    let mut fleets: Vec<(FleetConfig, FaultPlan)> =
        [3, 11, 29].map(|seed| chaos_fleet(4000, seed)).into();
    for protected in [true, false] {
        fleets.push((overload_fleet(protected), FaultPlan::none()));
    }
    for (fleet, plan) in &fleets {
        let plain = simulate_fleet_with_faults(&model(), fleet, plan).expect("valid fleet");
        let mut rec = Recorder::with_capacity(1 << 20);
        let recorded = simulate_fleet_recorded(&model(), fleet, plan, &mut rec).expect("valid");
        assert_eq!(plain, recorded);
        assert_eq!(rec.dropped(), 0);
        fold.fleet_report(&plain);
        fold.recording(&rec);
    }
    let mut fired = std::collections::BTreeSet::new();
    for failover in [true, false] {
        for seed in [5, 6] {
            let cfg = faulted_global(failover, seed);
            let plain = simulate_global(&model(), &cfg).expect("valid global config");
            let mut rec = Recorder::with_capacity(1 << 20);
            let recorded = simulate_global_recorded(&model(), &cfg, &mut rec).expect("valid");
            assert_eq!(plain, recorded);
            assert_eq!(rec.dropped(), 0);
            fold.global_report(&plain);
            fold.recording(&rec);
            fired.extend(rec.events().map(|e| e.name.to_string()));
        }
    }
    // The battery reaches the global emit sites it claims to pin.
    for name in ["redirect_in", "lb_shed", "infra_lost", "autoscale"] {
        assert!(fired.contains(name), "battery never fires {name}");
    }
    assert_eq!(
        fold.0, 0xd8e2_4067_3391_674b,
        "fleet and global pin moved: got {:#018x}",
        fold.0
    );
}
