//! Whole-stack host-time benchmark.
//!
//! One workload per process, one client, one thread, closed loop: the
//! workload's item list runs pass after pass until `--seconds` have
//! elapsed. The last stdout line is one JSON object holding either the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `--check` runs one pass of every workload twice
//! untraced and once traced and checks that they all agree.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zoo-compile --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --check
//! ```
//!
//! See README.md beside this crate for the metrics and how to compare
//! two commits.

mod measure;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use measure::{
    median, peak_rss_mb, percentile, valid_name, windowed, Digest, HostSample, MIN_WINDOW,
};
use trace::{Layer, Tracer};
use workloads::{Fixtures, Task, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Spans written to the Chrome trace (all of them are aggregated).
const MAX_EXPORT_SPANS: usize = 20_000;
/// The seed `--check` runs with.
const CHECK_SEED: u64 = 20_210_614;
/// Largest gap allowed between summed layer self times and traced item
/// time.
const SELF_TIME_TOLERANCE: f64 = 0.05;

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(RunArgs),
    Check,
}

const USAGE: &str =
    "usage: perfbench --workload <zoo-compile|fleet-overload|llm-decode|planet-day> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --check";

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.len() == 1 && args[0] == "--check" {
        return Ok(Command::Check);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("must be finite and >= 0"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    }))
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if std::env::var_os("TPU_SIM_THREADS").is_none() {
        std::env::set_var("TPU_SIM_THREADS", nproc.to_string());
    }
    let threads = std::env::var("TPU_SIM_THREADS").unwrap_or_default();
    println!("host: nproc {nproc}, TPU_SIM_THREADS {threads}, one client thread");
    let ok = match command {
        Command::Run(run) => run_workload(&run, origin),
        Command::Check => check(origin),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How long a timed phase runs.
#[derive(Clone, Copy)]
struct Budget {
    seconds: f64,
    min_items: usize,
}

/// What a timed phase measured.
#[derive(Default)]
struct Phase {
    /// Host time of every untraced item, ns, pass after pass.
    item_ns: Vec<u64>,
    /// Items run under tracing.
    traced_items: usize,
    /// Wall time of the whole phase, seconds.
    wall_s: f64,
    passes: usize,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    digest: u64,
}

/// Runs whole passes over `tasks` until the budget is spent. With
/// `trace`, odd passes run traced, and the phase ends after an even
/// number of passes so traced and untraced passes cover the same items.
/// Every item's fingerprint must equal the one its first pass produced.
fn timed(fx: &Fixtures, tasks: &[Task], tracer: &mut Tracer, budget: Budget, trace: bool) -> Phase {
    let mut phase = Phase::default();
    let mut reference: Vec<Option<u64>> = vec![None; tasks.len()];
    let start = Instant::now();
    loop {
        let traced = trace && phase.passes % 2 == 1;
        tracer.set_enabled(traced);
        for (i, task) in tasks.iter().enumerate() {
            let id = (phase.passes * tasks.len() + i) as u64;
            let t0 = Instant::now();
            let out = tracer.item(id, |tr| workloads::run(fx, task, tr));
            let dt = t0.elapsed().as_nanos() as u64;
            if traced {
                phase.traced_items += 1;
            } else {
                phase.item_ns.push(dt);
            }
            phase.attempted += 1;
            let failure = match (out, reference[i]) {
                (Err(e), _) => Some(e),
                (Ok(fp), None) => {
                    reference[i] = Some(fp);
                    None
                }
                (Ok(fp), Some(r)) if fp != r => Some(format!(
                    "fingerprint {fp:#018x} differs from first pass {r:#018x}"
                )),
                (Ok(_), Some(_)) => None,
            };
            if let Some(e) = failure {
                phase.failed += 1;
                if phase.errors.len() < 5 {
                    phase
                        .errors
                        .push(format!("{:?} seed {}: {e}", task.item, task.seed));
                }
            }
        }
        phase.passes += 1;
        let spent = start.elapsed().as_secs_f64() >= budget.seconds
            && phase.item_ns.len() >= budget.min_items;
        if spent && (!trace || phase.passes % 2 == 0) {
            break;
        }
    }
    tracer.set_enabled(false);
    phase.wall_s = start.elapsed().as_secs_f64();
    let mut d = Digest::default();
    for fp in &reference {
        d.u64(fp.unwrap_or(0));
    }
    phase.digest = d.finish();
    phase
}

/// Builds the fixtures and runs one untimed warm-up pass over the items.
fn set_up(workload: Workload, tasks: &[Task]) -> Result<Fixtures, String> {
    let fx = Fixtures::new(workload)?;
    let mut tracer = Tracer::new(Instant::now());
    for task in tasks {
        workloads::run(&fx, task, &mut tracer)
            .map_err(|e| format!("warm-up {:?}: {e}", task.item))?;
    }
    Ok(fx)
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metric(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// The result line, and whether it reports a correct run: a name
/// outside the charset or a non-finite value makes it incorrect.
fn result_json(
    mut correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> (String, bool) {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        correct &= valid_name(&m.name) && m.value.is_finite();
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
    (line, correct)
}

fn run_workload(args: &RunArgs, origin: Instant) -> bool {
    let name = args.workload.name();
    println!(
        "perfbench: workload {name}, seed {}, seconds {}, trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let tasks = workloads::tasks(args.workload, args.seed);

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut fixtures = None;
    for k in 0..SETUP_REPEATS {
        let t0 = if k == 0 { origin } else { Instant::now() };
        match set_up(args.workload, &tasks) {
            Ok(fx) => fixtures = Some(fx),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return false;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let fx = fixtures.expect("at least one set-up ran");
    let setup_s = median(&setups);
    println!(
        "setup: {}; {SETUP_REPEATS} set-ups, s {setups:.4?}, median {setup_s:.4}",
        fx.describe()
    );

    let before = HostSample::now();
    let mut tracer = Tracer::new(origin);
    let budget = Budget {
        seconds: args.seconds,
        min_items: MIN_WINDOW,
    };
    let phase = timed(&fx, &tasks, &mut tracer, budget, args.trace);
    let after = HostSample::now();
    for e in &phase.errors {
        eprintln!("perfbench: failed item: {e}");
    }

    let mut ms: Vec<f64> = phase.item_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    let [p50, p90, p99] = [0.5, 0.9, 0.99]
        .map(|q| percentile(&ms, q).map_or("n/a (<10 beyond)".to_owned(), |v| format!("{v:.4}")));
    println!(
        "timed: {} passes of {} items, {} attempted, {} failed, {:.3} s wall",
        phase.passes,
        tasks.len(),
        phase.attempted,
        phase.failed,
        phase.wall_s
    );
    println!(
        "untraced item ms over the phase: p50 {p50}, p90 {p90}, p99 {p99} (n={})",
        ms.len()
    );
    println!("host noise: {}", before.describe(&after));
    println!("digest {name} seed {}: {:#018x}", args.seed, phase.digest);

    let mut correct = phase.failed == 0;
    let metrics = if args.trace {
        let (metrics, ok) = layer_metrics(name, &tracer, &phase);
        correct &= ok;
        metrics
    } else {
        let w = windowed(&phase.item_ns, tasks.len()).expect("the phase runs at least one window");
        let rss = peak_rss_mb().unwrap_or(f64::NAN);
        let ok_frac = 1.0 - phase.failed as f64 / phase.attempted as f64;
        println!(
            "fast quartile of {} windows: items/s {:.3}, item ms p50 {:.4}, p90 {:.4}; \
             {:.3} items/s over the whole phase; peak rss {rss:.2} MB",
            w.windows,
            w.items_per_s,
            w.p50_ms,
            w.p90_ms,
            phase.item_ns.len() as f64 / phase.wall_s
        );
        vec![
            metric("setup_s", setup_s, "s"),
            metric("items_per_s", w.items_per_s, "1/s"),
            metric("item_p50_ms", w.p50_ms, "ms"),
            metric("item_p90_ms", w.p90_ms, "ms"),
            metric("peak_rss_mb", rss, "MB"),
            metric("ok_frac", ok_frac, "ratio"),
        ]
    };
    let (line, correct) = result_json(correct, phase.attempted, phase.failed, &metrics);
    println!("{line}");
    correct
}

/// Checks that layer self times add up to traced item time and that the
/// Chrome export validates; returns the export.
fn checked_trace(tracer: &Tracer) -> Result<String, String> {
    let busy: u64 = tracer.totals().iter().map(|t| t.busy_ns).sum();
    let item = tracer.item_ns();
    if busy.abs_diff(item) as f64 > SELF_TIME_TOLERANCE * item as f64 {
        return Err(format!(
            "layer self times sum to {busy} ns of {item} ns item time"
        ));
    }
    let json = tracer.chrome_json(MAX_EXPORT_SPANS);
    tpu_telemetry::validate_chrome_json(&json).map_err(|e| format!("invalid Chrome trace: {e}"))?;
    Ok(json)
}

/// Per-layer metrics from a traced phase; writes the Chrome trace.
fn layer_metrics(workload: &str, tracer: &Tracer, phase: &Phase) -> (Vec<Metric>, bool) {
    let path = format!("{}/out/trace-{workload}.json", env!("CARGO_MANIFEST_DIR"));
    let written = checked_trace(tracer).and_then(|json| {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .and_then(|()| std::fs::write(&path, json))
            .map_err(|e| format!("writing {path}: {e}"))
    });
    let ok = match written {
        Ok(()) => {
            println!(
                "trace: {} spans written to {path}",
                tracer.spans().len().min(MAX_EXPORT_SPANS)
            );
            true
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            false
        }
    };

    let totals = tracer.totals();
    // The recorded re-runs of chaos items are a side measurement only
    // traced passes make: they are not item time, and their share reads
    // as their cost relative to the items.
    let recorded_ns = totals[Layer::TelemetryRecorded as usize].busy_ns;
    let item_ns = tracer.item_ns() - recorded_ns;
    println!(
        "trace: {} traced items, {:.4} s traced item time",
        phase.traced_items,
        item_ns as f64 * 1e-9
    );

    println!(
        "{:<22} {:>8} {:>10} {:>7} {:>14}",
        "layer", "calls", "busy s", "share", "ns/unit"
    );
    let mut metrics = Vec::new();
    for (layer, t) in Layer::ALL.iter().zip(&totals) {
        let n = layer.name();
        let busy_s = t.busy_ns as f64 * 1e-9;
        let share = t.busy_ns as f64 / item_ns.max(1) as f64;
        metrics.push(metric(format!("{n}.calls"), t.calls as f64, "count"));
        metrics.push(metric(format!("{n}.busy_s"), busy_s, "s"));
        metrics.push(metric(format!("{n}.share"), share, "ratio"));
        let per_unit = if let Some(unit) = layer.unit() {
            let v = t.busy_ns as f64 / t.units.max(1) as f64;
            metrics.push(metric(format!("{n}.ns_per_unit"), v, format!("ns/{unit}")));
            format!("{v:.1}/{unit}")
        } else {
            String::new()
        };
        println!(
            "{n:<22} {:>8} {busy_s:>10.4} {share:>7.4} {per_unit:>14}",
            t.calls
        );
    }

    // Tracing overhead: traced over untraced item time, same items.
    let chaos_ns = totals[Layer::DesChaos as usize].busy_ns;
    let untraced_ns: u64 = phase.item_ns.iter().sum();
    let overhead = item_ns as f64
        / phase.traced_items.max(1) as f64
        / (untraced_ns as f64 / phase.item_ns.len().max(1) as f64)
        - 1.0;
    let recorded_overhead = if chaos_ns == 0 {
        0.0
    } else {
        recorded_ns as f64 / chaos_ns as f64 - 1.0
    };
    println!(
        "trace overhead {overhead:.4}; recorded/plain chaos DES {recorded_overhead:.4} (extra fraction)"
    );
    metrics.push(metric("trace.overhead_frac", overhead, "ratio"));
    metrics.push(metric(
        "telemetry.recorded_overhead_frac",
        recorded_overhead,
        "ratio",
    ));
    (metrics, ok)
}

/// `--check`: one pass of every workload, twice untraced and once
/// traced with the same seed; digests, failures, decompositions,
/// recorded-vs-plain runs and the trace are all checked.
fn check(origin: Instant) -> bool {
    let mut all_ok = true;
    let once = Budget {
        seconds: 0.0,
        min_items: 0,
    };
    for w in Workload::ALL {
        let t0 = Instant::now();
        let tasks = workloads::tasks(w, CHECK_SEED);
        let fx = match Fixtures::new(w) {
            Ok(fx) => fx,
            Err(e) => {
                println!("check {}: FAIL set-up: {e}", w.name());
                all_ok = false;
                continue;
            }
        };
        let a = timed(&fx, &tasks, &mut Tracer::new(origin), once, false);
        let b = timed(&fx, &tasks, &mut Tracer::new(origin), once, false);
        let mut tracer = Tracer::new(origin);
        let c = timed(&fx, &tasks, &mut tracer, once, true);
        let mut problems: Vec<String> = [&a, &b, &c]
            .iter()
            .flat_map(|p| p.errors.iter().cloned())
            .collect();
        if a.digest != b.digest || a.digest != c.digest {
            problems.push(format!(
                "digests differ: {:#x} {:#x} {:#x}",
                a.digest, b.digest, c.digest
            ));
        }
        if a.failed + b.failed + c.failed > 0 {
            problems.push(format!(
                "failed items: {} {} {}",
                a.failed, b.failed, c.failed
            ));
        }
        for task in &tasks {
            if let Err(e) = workloads::cross_check(&fx, task) {
                problems.push(format!("{:?}: {e}", task.item));
            }
        }
        if let Err(e) = checked_trace(&tracer) {
            problems.push(e);
        }
        let verdict = if problems.is_empty() { "ok" } else { "FAIL" };
        println!(
            "check {}: {verdict}: {} items x 3 runs, digest {:#018x}, {:.2} s",
            w.name(),
            tasks.len(),
            a.digest,
            t0.elapsed().as_secs_f64()
        );
        for p in &problems {
            println!("  {p}");
        }
        all_ok &= problems.is_empty();
    }
    println!(
        "check: {} in {:.1} s",
        if all_ok { "passed" } else { "FAILED" },
        origin.elapsed().as_secs_f64()
    );
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let Ok(Command::Run(r)) = parse_args(&args(
            "--workload llm-decode --seed 7 --seconds 10 --trace 1",
        )) else {
            panic!("should parse");
        };
        assert_eq!(r.workload, Workload::LlmDecode);
        assert_eq!((r.seed, r.seconds, r.trace), (7, 10.0, true));
        assert!(matches!(parse_args(&args("--check")), Ok(Command::Check)));
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload llm-decode --seed x --seconds 1 --trace 0",
            "--workload llm-decode --seed 1 --seconds -1 --trace 0",
            "--workload llm-decode --seed 1 --seconds 1 --trace 2",
            "--workload llm-decode --seed 1 --seconds 1",
            "--workload llm-decode --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[
                metric("item_p50_ms", 1.25, "ms"),
                metric("setup_s", 0.5, "s"),
            ],
        );
        assert_eq!(
            line.0,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"item_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(line.1);
        // A bad name or a non-finite value makes the result incorrect.
        for bad in [metric("a b", 1.0, "s"), metric("x", f64::NAN, "s")] {
            let (line, correct) = result_json(true, 1, 0, &[bad]);
            assert!(!correct && line.starts_with("{\"correct\": false"));
        }
    }

    #[test]
    fn every_layer_metric_name_is_valid() {
        for layer in Layer::ALL {
            for suffix in ["calls", "busy_s", "share", "ns_per_unit"] {
                assert!(valid_name(&format!("{}.{suffix}", layer.name())));
            }
        }
    }
}
