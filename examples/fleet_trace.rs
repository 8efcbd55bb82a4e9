//! Fleet flight recorder, end to end: run a short chaos scenario with
//! the telemetry recorder attached, export the request lifecycle as a
//! Chrome-trace / Perfetto JSON, and self-check everything the
//! observability layer promises:
//!
//! - the exported trace is schema-valid (open `chrome://tracing` or
//!   <https://ui.perfetto.dev> and load the file to browse it),
//! - every span that opens closes (queued, batch, down families),
//! - the recorded instants reconcile *exactly* with the DES's own
//!   metrics (the conservation identity, event-by-event),
//! - recording is derived-only: the recorded run's report is
//!   bit-identical to the same run without a recorder.
//!
//! ```text
//! cargo run --release --example fleet_trace
//! cargo run --release --example fleet_trace -- --out my_trace.json
//! ```
//!
//! Exits nonzero if any check fails.

use std::process::ExitCode;

use tpugen::core::{ProfiledApp, DEFAULT_SWEEP_SEED};
use tpugen::prelude::*;
use tpugen::telemetry::{
    chrome_trace_json, render_text, span_balance, validate_chrome_json, Recorder,
};

const SERVERS: usize = 3;
const LOAD_FACTOR: f64 = 2.0;
const REQUESTS: usize = 2000;

fn main() -> ExitCode {
    let mut out_path = String::from("fleet_trace.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let chip = catalog::tpu_v4i();
    let app = zoo::bert0();
    let options = CompilerOptions::default();
    let profiled =
        ProfiledApp::new(&app, &chip, &options).expect("BERT0 profiles; config is valid");
    println!(
        "app {} on {} x{SERVERS}: offered {LOAD_FACTOR}x one replica, {REQUESTS} requests",
        app.spec.name, chip.name
    );

    // Fault plan scaled to the no-fault run's wall clock, as in E22/E24:
    // one replica crashes early and failover reroutes around it.
    let baseline = profiled
        .chaos_point(
            SERVERS,
            LOAD_FACTOR,
            &FaultPlan::none(),
            REQUESTS,
            DEFAULT_SWEEP_SEED,
        )
        .expect("valid baseline");
    let d = baseline.report.duration_s;
    let plan = FaultPlan::scheduled(vec![ScheduledFault {
        server: 0,
        at_s: 0.1 * d,
        kind: FaultKind::Crash { mttr_s: 10.0 * d },
    }])
    .with_failover(FailoverConfig {
        enabled: true,
        probe_interval_s: 0.005 * d,
        probe_timeout_s: 0.002 * d,
        recovery_warmup_s: 0.005 * d,
    });

    let mut recorder = Recorder::with_capacity(1 << 18);
    let point = profiled
        .chaos_point_recorded(
            SERVERS,
            LOAD_FACTOR,
            &plan,
            REQUESTS,
            DEFAULT_SWEEP_SEED,
            &mut recorder,
        )
        .expect("valid recorded run");
    let report = &point.report;

    // Derived-only: same plan, same seed, no recorder — bit-identical.
    let unrecorded = profiled
        .chaos_point(SERVERS, LOAD_FACTOR, &plan, REQUESTS, DEFAULT_SWEEP_SEED)
        .expect("valid unrecorded run");
    if unrecorded.report != *report {
        eprintln!("FAIL: recording perturbed the simulation");
        return ExitCode::FAILURE;
    }
    println!("derived-only: recorded report bit-identical to unrecorded run");

    // Reconciliation: conservation, event-by-event.
    let m = &report.metrics;
    let reconciled = report.conservation_holds()
        && recorder.counter("arrive") == report.arrivals as u64
        && recorder.counter("complete") == report.completed as u64
        && recorder.counter("shed_permanent") == report.shed as u64
        && recorder.counter("dropped") == report.dropped as u64
        && recorder.counter("failed_permanent") == report.failed as u64
        && recorder.counter("detected") == m.failures_detected.get()
        && recorder.counter("recovered") == m.failures_recovered.get();
    if !reconciled {
        eprintln!("FAIL: recorded instants do not reconcile with ServingMetrics");
        return ExitCode::FAILURE;
    }
    println!(
        "reconciled: {} arrive == {} complete + {} shed + {} dropped + {} failed",
        report.arrivals, report.completed, report.shed, report.dropped, report.failed
    );

    // Span balance over the full ring.
    let events: Vec<_> = recorder.events().cloned().collect();
    let spans = match span_balance(&events) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("FAIL: unbalanced spans: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "spans: {spans} opened, all closed; ring: {} events, {} dropped",
        recorder.len(),
        recorder.dropped()
    );

    // Export + schema validation.
    let json = chrome_trace_json(&events);
    let records = match validate_chrome_json(&json) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("FAIL: invalid chrome trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    std::fs::write(&out_path, &json).expect("writable trace path");
    println!("wrote {out_path} ({} bytes)", json.len());
    println!("chrome trace schema ok ({records} events)");

    // Timeline excerpt.
    println!(
        "\nfirst 10 of {} recorded events ({} DES events processed):",
        recorder.len(),
        recorder.counter("events_processed")
    );
    print!("{}", render_text(recorder.events().take(10)));
    ExitCode::SUCCESS
}
