//! Exact work counts: heap allocations of the compile → simulate path,
//! and events, allocations and heap high-water marks of the serving
//! engines.
//!
//! Building, compiling and simulating a zoo graph once made about 36
//! heap allocations per graph node, and allocator time was half of
//! compile time. Shapes and operand lists are now stored inline, step
//! plans keep one flat dependency array, and the scheduler builds its
//! dependents as one offsets array plus one flat list, so the path
//! makes a few dozen allocations per compile whatever the graph's size.
//! The first test pins that count: a per-node or per-step allocation
//! that creeps back in fails here. It also pins the sweep's total input
//! graph nodes, plan steps and VLIW bundles exactly. These are the units
//! perfbench divides `hlo.compile`, `sim.run` and `isa.roundtrip` time
//! by, so a lowering change that inflates plans fails here instead of
//! silently moving those rates.
//!
//! The second test covers the rest of the compile → simulate stack: the
//! profiling sweep `ProfiledApp::new` runs for zoo-compile (5 TPU
//! generations x 8 zoo apps x 9 knots). It pins the sweep's profiles,
//! knots and plan steps exactly, and caps the allocations of each
//! profile and of each `Simulator::run` at the measured count plus 25%.
//!
//! The third test runs the serving engines on five fixed configs and
//! pins each run's `events_processed` exactly, its allocations to the
//! measured count plus 25%, and its heap high-water mark to the
//! measured peak plus 10%. All three counts are deterministic, so they
//! hold on any host, where a wall-clock gate cannot: a per-request
//! timer event shows up as events, a per-launch buffer as allocations,
//! a per-request buffer held to the end of a run as peak bytes.
//!
//! A counting global allocator keeps a thread-local tally, and only
//! while that thread switches it on, so the tests can run in parallel.
//! It counts fresh allocations (`alloc` and `alloc_zeroed`, not the
//! `realloc` of a growing buffer) and live bytes: `alloc` and
//! `alloc_zeroed` add their size, `dealloc` subtracts it, and `realloc`
//! adds the difference. The peak is the largest live total since the
//! tally started.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tpugen::arch::catalog;
use tpugen::core::ProfiledApp;
use tpugen::hlo::{compile, CompilerOptions};
use tpugen::serving::des::{
    simulate, simulate_fleet, simulate_fleet_with_faults, simulate_generation, BatchingMode,
    FleetConfig, FleetPolicy, RetryPolicy, ServingConfig,
};
use tpugen::serving::faults::{FailoverConfig, FaultPlan, MtbfFaults};
use tpugen::serving::fleet::simulate_global;
use tpugen::serving::latency::{LatencyModel, DEFAULT_BATCHES};
use tpugen::sim::Simulator;
use tpugen::workloads::{frontend, zoo::production_apps};

/// Mean allocations per build + compile + simulate measured on the
/// sweep below, the same in debug and release builds. The previous
/// layout (a `Vec` per shape, operand list, step dependency list and
/// tag) made 8,252 on the same sweep.
const MEASURED_PER_COMPILE: f64 = 55.2;

/// The measured mean plus 25% headroom: 69.0 allocations per compile.
const BUDGET_PER_COMPILE: f64 = MEASURED_PER_COMPILE * 1.25;

/// Input graph nodes, plan steps and VLIW bundles summed over the 80
/// compiles of the sweep below; the same in debug and release builds.
const SWEEP_NODES: usize = 15_885;
const SWEEP_STEPS: usize = 45_098;
const SWEEP_BUNDLES: usize = 23_878;

/// Mean allocations per `ProfiledApp::new` and per `Simulator::run`
/// over the profiling sweep below, measured when the caps were set.
/// Before the compile path stopped regrowing its plans and the unit
/// pools became tournament trees (a second array per pool), the same
/// sweep made 422.9 and 12.0.
const MEASURED_PER_PROFILE: f64 = 408.1;
const MEASURED_PER_SIM_RUN: f64 = 16.0;

/// The profiling sweep: `ProfiledApp::new` calls, latency-model knots,
/// and the plan steps of the knots' compiles.
const SWEEP_PROFILES: usize = 40;
const SWEEP_KNOTS: usize = 360;
const SWEEP_KNOT_STEPS: usize = 218_174;

struct CountingAlloc;

/// One thread's tally while counting is on.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Fresh allocations.
    allocations: u64,
    /// Bytes allocated minus bytes freed since counting started; negative
    /// when the counted code frees memory allocated before it.
    live: i64,
    /// The largest `live` seen.
    peak: i64,
}

thread_local! {
    /// This thread's tally; `None` while counting is off.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// Applies `f` to this thread's tally if counting is on.
fn note(f: impl FnOnce(&mut Tally)) {
    // `try_with` fails only while this thread's locals are torn down;
    // nothing is counted then.
    let _ = TALLY.try_with(|t| {
        if let Some(mut tally) = t.get() {
            f(&mut tally);
            tally.peak = tally.peak.max(tally.live);
            t.set(Some(tally));
        }
    });
}

fn note_allocation(size: usize) {
    note(|t| {
        t.allocations += 1;
        t.live += size as i64;
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System` upholds the allocator contract. Counting touches only a
// const-initialized thread local, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller meets `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(|t| t.live -= layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(|t| t.live += new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, and the caller meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` did to this thread's heap: fresh allocations and the peak
/// of live bytes above the level at the call.
struct Heap {
    allocations: u64,
    peak_bytes: u64,
}

/// Runs `f`, returning its result and its heap tally on this thread.
fn heap_in<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    TALLY.with(|t| t.set(Some(Tally::default())));
    let out = f();
    let t = TALLY.with(|t| t.take()).expect("counting was on");
    let heap = Heap {
        allocations: t.allocations,
        peak_bytes: t.peak as u64,
    };
    (out, heap)
}

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, heap) = heap_in(f);
    (out, heap.allocations)
}

#[test]
fn compile_path_stays_within_its_allocation_budget() {
    let chip = catalog::tpu_v4i();
    let options = CompilerOptions::for_chip(&chip);
    // Returns the simulated seconds and the graph's node, plan step and
    // bundle counts.
    let simulate = |graph: &tpugen::hlo::Graph| {
        let exe =
            compile(graph, &chip, &options).unwrap_or_else(|e| panic!("{}: {e}", graph.name()));
        let seconds = Simulator::new(chip.clone())
            .run(exe.plan())
            .unwrap_or_else(|e| panic!("{}: {e}", graph.name()))
            .seconds;
        (
            seconds,
            [graph.nodes().len(), exe.plan().len(), exe.program().len()],
        )
    };

    let (mut compiles, mut allocations) = (0u64, 0u64);
    let mut work = [0usize; 3];
    let mut tally = |(seconds, counts): (f64, [usize; 3]), n: u64, what: &str| {
        assert!(seconds > 0.0, "{what}");
        compiles += 1;
        allocations += n;
        for (total, count) in work.iter_mut().zip(counts) {
            *total += count;
        }
    };
    for app in production_apps() {
        for &batch in &DEFAULT_BATCHES {
            let (run, n) = allocations_in(|| simulate(&app.build(batch).expect("zoo apps build")));
            tally(run, n, &format!("{} at batch {batch}", app.spec.name));
        }
        // The Lesson 2 recompile: a naive frontend's graph makes every
        // pass rewrite.
        let (run, n) = allocations_in(|| {
            let clean = app.build(4).expect("zoo apps build");
            simulate(&frontend::deoptimize(&clean).expect("deoptimizes"))
        });
        tally(run, n, &format!("{} deoptimized", app.spec.name));
    }

    let mean = allocations as f64 / compiles as f64;
    let [nodes, steps, bundles] = work;
    eprintln!(
        "{compiles} compiles, {mean:.1} allocations per compile; \
         {nodes} nodes, {steps} steps, {bundles} bundles"
    );
    assert!(
        mean <= BUDGET_PER_COMPILE,
        "{mean:.1} allocations per build + compile + simulate, over the budget of \
         {BUDGET_PER_COMPILE:.1} ({MEASURED_PER_COMPILE} measured + 25%)"
    );
    assert_eq!(compiles, 80);
    assert_eq!(
        work,
        [SWEEP_NODES, SWEEP_STEPS, SWEEP_BUNDLES],
        "input graph nodes, plan steps and VLIW bundles over the sweep"
    );
}

#[test]
fn profiling_sweep_keeps_its_work_counts() {
    let (mut profiles, mut knots, mut steps, mut runs) = (0usize, 0usize, 0usize, 0usize);
    let (mut profile_allocations, mut run_allocations) = (0u64, 0u64);
    for chip in catalog::tpu_generations() {
        let options = CompilerOptions::for_chip(&chip);
        let sim = Simulator::new(chip.clone());
        for app in production_apps() {
            let what = format!("{} on {}", app.spec.name, chip.name);
            let (profiled, n) = allocations_in(|| ProfiledApp::new(&app, &chip, &options));
            let profiled = profiled.unwrap_or_else(|e| panic!("{what}: {e}"));
            profiles += 1;
            profile_allocations += n;
            knots += profiled.latency_model().points().len();
            // The knots, compiled as `LatencyModel::profile` compiles them.
            for &batch in &DEFAULT_BATCHES {
                let graph = app.build(batch).expect("zoo apps build");
                let exe =
                    compile(&graph, &chip, &options).unwrap_or_else(|e| panic!("{what}: {e}"));
                steps += exe.plan().len();
                let (report, n) = allocations_in(|| sim.run(exe.plan()));
                report.unwrap_or_else(|e| panic!("{what}: {e}"));
                runs += 1;
                run_allocations += n;
            }
        }
    }

    let per_profile = profile_allocations as f64 / profiles as f64;
    let per_run = run_allocations as f64 / runs as f64;
    eprintln!(
        "{profiles} profiles, {knots} knots, {steps} knot steps; \
         {per_profile:.1} allocations per ProfiledApp::new, {per_run:.1} per Simulator::run"
    );
    assert_eq!(
        (profiles, knots, steps),
        (SWEEP_PROFILES, SWEEP_KNOTS, SWEEP_KNOT_STEPS),
        "profiles, knots and knot plan steps over the sweep"
    );
    for (what, mean, measured) in [
        ("ProfiledApp::new", per_profile, MEASURED_PER_PROFILE),
        ("Simulator::run", per_run, MEASURED_PER_SIM_RUN),
    ] {
        assert!(
            mean <= measured * 1.25,
            "{mean:.1} allocations per {what}, over the cap of {:.1} ({measured} measured + 25%)",
            measured * 1.25
        );
    }
}

/// The overloaded single-server fleet config: expiry shedding on an
/// uncapped queue — the path the indexed-removal/lazy-deletion overhaul
/// targets.
fn expiry_fleet() -> FleetConfig {
    let base = ServingConfig {
        arrival_rate_rps: 16_000.0,
        max_batch: 32,
        batch_timeout_s: 0.002,
        requests: 20_000,
        seed: 1,
    };
    FleetConfig::new(base.with_servers(1)).with_policy(FleetPolicy {
        deadline_s: Some(0.05),
        shed_expired: true,
        queue_budget_s: Some(0.04),
        queue_cap: None,
        retry: RetryPolicy::default(),
    })
}

/// The chaos fleet config: 4 servers, MTBF faults, failover on —
/// exercises probes, redistribution, and retry backoff.
fn chaos_fleet() -> (FleetConfig, FaultPlan) {
    let base = ServingConfig {
        arrival_rate_rps: 12_000.0,
        max_batch: 16,
        batch_timeout_s: 0.001,
        requests: 20_000,
        seed: 1,
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
        scheduled: Vec::new(),
        mtbf: Some(MtbfFaults {
            mtbf_s: 0.3,
            mttr_s: 0.05,
            horizon_s: 2.0,
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

/// The global fleet config: 3 cells x 3 servers behind the geo
/// balancer, diurnal + flash traffic, a full cell outage, failover and
/// autoscaling on — exercises the epoch split, redirect placement, and
/// fault slicing around ~20k DES requests.
fn global_fleet() -> tpugen::serving::fleet::GlobalConfig {
    use tpugen::serving::fleet::{
        AutoscalerConfig, Cell, CellFault, CellFaultKind, GeoPolicy, GlobalConfig, TrafficModel,
    };
    let base = ServingConfig {
        arrival_rate_rps: 1.0,
        max_batch: 16,
        batch_timeout_s: 0.002,
        requests: 1,
        seed: 0,
    };
    let template = FleetConfig::new(base.with_servers(3)).with_policy(FleetPolicy {
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
    GlobalConfig {
        cells: (0..3).map(|_| Cell::new(template, 2500.0, 6)).collect(),
        traffic: TrafficModel::diurnal(16_000.0, 0.35, 1.2).with_flash(0.5, 0.2, 1.8),
        cell_faults: vec![CellFault {
            cell: 0,
            at_s: 0.45,
            duration_s: 0.4,
            kind: CellFaultKind::Outage,
        }],
        autoscaler: AutoscalerConfig::default(),
        geo: GeoPolicy {
            redirect_latency_s: 0.01,
            ..GeoPolicy::default()
        },
        epoch_s: 0.1,
        horizon_s: 1.2,
        seed: 1,
    }
}

/// One serving config under count: the `events_processed` it must
/// report exactly, and the allocations and peak live heap bytes it made
/// when the caps were set (the same in debug and release builds).
struct ServingCount<'a> {
    name: &'static str,
    events: u64,
    measured_allocations: u64,
    measured_peak_bytes: u64,
    run: &'a dyn Fn() -> u64,
}

#[test]
fn serving_engines_keep_their_work_counts() {
    let model = LatencyModel::from_points(vec![(1, 0.001), (128, 0.008)]).expect("valid");
    let expiry = expiry_fleet();
    let (chaos, chaos_plan) = chaos_fleet();
    // The decode-loop scheduler under KV pressure (E25's engine): an
    // overloaded continuous-batching run on the v4i-derived fixture.
    let setup = tpu_bench::experiments::generation::v4i_generation_setup();
    let mut gen_cfg = setup.base;
    gen_cfg.mode = BatchingMode::Continuous;
    gen_cfg.requests = 2000;
    gen_cfg.arrival_rate_rps = 1.8 * setup.capacity_rps;
    // The planet-scale orchestrator (E27's engine): geo load-balancer,
    // a full cell outage with failover, and the autoscaler around
    // per-cell DES epochs.
    let global = global_fleet();

    let counts = [
        ServingCount {
            name: "des-10k-requests",
            events: 12_750,
            // 25 and 402,368 while the engine's `finish` copied every
            // completion sample into a scratch buffer to select its
            // percentiles; the fleet configs below lost the same copy.
            measured_allocations: 24,
            measured_peak_bytes: 322_360,
            run: &|| {
                let cfg = ServingConfig {
                    arrival_rate_rps: 5000.0,
                    max_batch: 32,
                    batch_timeout_s: 0.002,
                    requests: 10_000,
                    seed: 1,
                };
                let r = simulate(&model, &cfg).expect("valid config");
                r.metrics.events_processed.get()
            },
        },
        ServingCount {
            name: "fleet-expiry-20k",
            events: 25_645,
            // 25 and 780,416 with the copy.
            measured_allocations: 24,
            measured_peak_bytes: 658_232,
            run: &|| {
                let r = simulate_fleet(&model, &expiry).expect("valid config");
                r.metrics.events_processed.get()
            },
        },
        ServingCount {
            name: "fleet-chaos-20k",
            events: 31_403,
            // 33 and 808,688 with the copy.
            measured_allocations: 32,
            measured_peak_bytes: 648_400,
            run: &|| {
                let r =
                    simulate_fleet_with_faults(&model, &chaos, &chaos_plan).expect("valid config");
                r.metrics.events_processed.get()
            },
        },
        ServingCount {
            name: "gen-continuous-2k",
            events: 8_806,
            measured_allocations: 27,
            measured_peak_bytes: 145_880,
            run: &|| {
                let r = simulate_generation(&setup.lat, &gen_cfg).expect("valid config");
                r.metrics.events_processed.get()
            },
        },
        ServingCount {
            name: "global-fleet",
            events: 31_047,
            // 1,154 and 503,644 while the global layer copied every
            // completion sample into a per-cell and a global buffer
            // and computed a discarded `LatencyStats` per cell epoch.
            measured_allocations: 1_083,
            measured_peak_bytes: 316_764,
            run: &|| {
                let r = simulate_global(&model, &global).expect("valid config");
                r.metrics.events_processed.get()
            },
        },
    ];

    for c in &counts {
        let (events, heap) = heap_in(c.run);
        let Heap {
            allocations,
            peak_bytes,
        } = heap;
        eprintln!(
            "{:<18} {events:>6} events {allocations:>5} allocations {peak_bytes:>9} peak bytes",
            c.name
        );
        assert_eq!(events, c.events, "{}: events_processed moved", c.name);
        // The measured count plus 25%, as for compiles above.
        let cap = c.measured_allocations * 5 / 4;
        assert!(
            allocations <= cap,
            "{}: {allocations} allocations, over the cap of {cap} ({} measured + 25%)",
            c.name,
            c.measured_allocations
        );
        // The measured peak plus 10%: a buffer of one `f64` per request
        // held to the end of a run fails it on every config.
        let cap = c.measured_peak_bytes * 11 / 10;
        assert!(
            peak_bytes <= cap,
            "{}: {peak_bytes} peak live heap bytes, over the cap of {cap} ({} measured + 10%)",
            c.name,
            c.measured_peak_bytes
        );
    }
}
