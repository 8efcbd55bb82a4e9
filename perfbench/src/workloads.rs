//! The four workloads: their fixtures, their item lists, and the call
//! chain each item makes into the library's public API.
//!
//! An item returns a fingerprint of everything it computed (bit
//! patterns of the reports it got back), or an error when a call
//! returned `Err` or a report broke an invariant. The simulators are
//! pure functions of (config, seed), so an item's fingerprint never
//! changes between passes, runs, traced and untraced execution, or a
//! pure speed change to the library.

use tpu_arch::{catalog, ChipConfig};
use tpu_bench::experiments::generation::{v4i_generation_setup, GenerationSetup};
use tpu_core::ProfiledApp;
use tpu_hlo::{compile, CompilerOptions};
use tpu_serving::des::{
    simulate_fleet, simulate_fleet_samples, simulate_generation, BatchingMode, FleetConfig,
    FleetPolicy, GenReport, ServingConfig, ServingReport,
};
use tpu_serving::faults::{FailoverConfig, FaultPlan, MtbfFaults};
use tpu_serving::fleet::{
    simulate_global, AutoscalerConfig, Cell, CellFault, CellFaultKind, GeoPolicy, GlobalConfig,
    GlobalReport, TrafficModel,
};
use tpu_serving::latency::{LatencyModel, DEFAULT_BATCHES};
use tpu_serving::slo;
use tpu_serving::stats::LatencyStats;
use tpu_sim::Simulator;
use tpu_telemetry::Recorder;
use tpu_workloads::{frontend, zoo, App};

use crate::measure::{shuffle, splitmix64, Digest};
use crate::trace::{Layer, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZooCompile,
    FleetOverload,
    LlmDecode,
    PlanetDay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ZooCompile,
        Workload::FleetOverload,
        Workload::LlmDecode,
        Workload::PlanetDay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZooCompile => "zoo-compile",
            Workload::FleetOverload => "fleet-overload",
            Workload::LlmDecode => "llm-decode",
            Workload::PlanetDay => "planet-day",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// zoo-compile: requests per item's overload run, its load, and the
/// batch the Lesson 2 recompile builds at.
const ZOO_REQUESTS: usize = 2_000;
const ZOO_LOAD: f64 = 0.9;
const RECOMPILE_BATCH: u64 = 4;

/// fleet-overload: loads (× capacity), requests per item, fleet size of
/// the chaos kind.
const FLEET_LOADS: [f64; 4] = [0.6, 1.0, 1.5, 2.0];
const FLEET_REQUESTS: usize = 20_000;
const CHAOS_SERVERS: usize = 4;

/// llm-decode: loads (× estimated capacity) and requests per item.
const DECODE_LOADS: [f64; 4] = [0.6, 1.0, 1.5, 2.0];
const DECODE_REQUESTS: usize = 4_000;

/// planet-day: fleet shape, control epochs, and offered requests.
const PLANET_CELLS: usize = 4;
const PLANET_SERVERS: usize = 3;
const PLANET_EPOCHS: usize = 48;
const PLANET_REQUESTS: f64 = 55_000.0;
const PLANET_LOAD: f64 = 0.65;

/// One call chain into the library.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Item {
    /// `ProfiledApp::new` with the chip's own pipeline, then a small
    /// unprotected overload run: the whole pipeline.
    Profile { chip: usize, app: usize },
    /// Lesson 2 recompile of a frontend-dirtied graph, simulated, then
    /// encoded and decoded.
    Recompile { chip: usize, app: usize },
    /// Protected `overload_point` (expiry shedding, capped queue, retry).
    Protected { app: usize, load: f64 },
    /// Unprotected overload run with per-request samples, re-folded into
    /// latency stats.
    Unprotected { app: usize, load: f64 },
    /// `chaos_point` on a 4-server fleet with MTBF faults and failover.
    Chaos { app: usize, load: f64 },
    /// One decode-loop run.
    Decode { load: f64, mode: BatchingMode },
    /// One planet-scale day under one E27 control plane: geo failover
    /// on or off, autoscaler frozen (step 0) or stepping 1 or 2 servers.
    Planet { failover: bool, step: usize },
}

impl Item {
    /// Seeded copies of this item per pass. The simulators' work varies
    /// with the seed (token draws, arrival bursts), so a pass that
    /// averages several draws varies less from one `--seed` to the next;
    /// compile work does not, so zoo items run once.
    ///
    /// Item times cluster by configuration, and a median that falls on
    /// the boundary between two clusters flips between them from run to
    /// run. Decode items therefore weigh continuous batching (the mode
    /// E25 recommends) 5 to 4 over static: of 36 items, 15 continuous
    /// ones take ~1.5 ms, the 5 at 0.6x load ~1.65 ms, and the 16 static
    /// ones ~2.4 ms, so the median sits mid-cluster. For the same reason
    /// planet-day runs six arms, of which the four with the autoscaler on
    /// form the slower clusters.
    fn replicas(&self) -> usize {
        match self {
            Item::Profile { .. } | Item::Recompile { .. } => 1,
            Item::Protected { .. }
            | Item::Unprotected { .. }
            | Item::Chaos { .. }
            | Item::Planet { .. } => 2,
            Item::Decode {
                mode: BatchingMode::Continuous,
                ..
            } => 5,
            Item::Decode { .. } => 4,
        }
    }
}

/// An item with the seed its simulations use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    pub item: Item,
    pub seed: u64,
}

/// The items of `workload` in canonical order, before seeding.
fn canonical_items(workload: Workload) -> Vec<Item> {
    match workload {
        Workload::ZooCompile => {
            let (chips, apps) = (
                catalog::tpu_generations().len(),
                zoo::production_apps().len(),
            );
            (0..chips)
                .flat_map(|chip| {
                    (0..apps).flat_map(move |app| {
                        [Item::Profile { chip, app }, Item::Recompile { chip, app }]
                    })
                })
                .collect()
        }
        Workload::FleetOverload => (0..FLEET_APPS.len())
            .flat_map(|app| {
                FLEET_LOADS.into_iter().flat_map(move |load| {
                    [
                        Item::Protected { app, load },
                        Item::Unprotected { app, load },
                        Item::Chaos { app, load },
                    ]
                })
            })
            .collect(),
        Workload::LlmDecode => DECODE_LOADS
            .into_iter()
            .flat_map(|load| {
                [BatchingMode::Continuous, BatchingMode::Static]
                    .map(|mode| Item::Decode { load, mode })
            })
            .collect(),
        Workload::PlanetDay => [true, false]
            .into_iter()
            .flat_map(|failover| (0..3).map(move |step| Item::Planet { failover, step }))
            .collect(),
    }
}

/// The item list one pass runs: every canonical item, replicated, each
/// copy with its own seed drawn from `seed`, in an order shuffled by
/// `seed`.
pub fn tasks(workload: Workload, seed: u64) -> Vec<Task> {
    let mut out: Vec<Task> = canonical_items(workload)
        .into_iter()
        .flat_map(|item| std::iter::repeat_n(item, item.replicas()))
        .enumerate()
        .map(|(i, item)| Task {
            item,
            seed: splitmix64(seed ^ splitmix64(i as u64 + 1)),
        })
        .collect();
    shuffle(&mut out, splitmix64(seed));
    out
}

/// The fleet-overload apps: three different serving batches.
const FLEET_APPS: [fn() -> App; 3] = [zoo::bert0, zoo::cnn0, zoo::rnn1];

/// Everything items share, built during set-up.
pub enum Fixtures {
    Zoo {
        chips: Vec<ChipConfig>,
        apps: Vec<App>,
    },
    Fleet {
        apps: Vec<ProfiledApp>,
    },
    Decode(GenerationSetup),
    Planet(ProfiledApp),
}

impl Fixtures {
    /// Builds the fixtures: the zoo and chips for zoo-compile, profiled
    /// apps for fleet-overload and planet-day, the decoder model for
    /// llm-decode.
    pub fn new(workload: Workload) -> Result<Fixtures, String> {
        let v4i = catalog::tpu_v4i();
        let profile = |app: App| {
            ProfiledApp::new(&app, &v4i, &CompilerOptions::default()).map_err(|e| e.to_string())
        };
        Ok(match workload {
            Workload::ZooCompile => Fixtures::Zoo {
                chips: catalog::tpu_generations(),
                apps: zoo::production_apps(),
            },
            Workload::FleetOverload => Fixtures::Fleet {
                apps: FLEET_APPS
                    .iter()
                    .map(|app| profile(app()))
                    .collect::<Result<_, _>>()?,
            },
            Workload::LlmDecode => Fixtures::Decode(v4i_generation_setup()),
            Workload::PlanetDay => Fixtures::Planet(profile(zoo::bert0())?),
        })
    }

    /// One line about the fixtures, printed with the set-up report.
    pub fn describe(&self) -> String {
        match self {
            Fixtures::Zoo { chips, apps } => format!("{} chips x {} apps", chips.len(), apps.len()),
            Fixtures::Fleet { apps } => {
                let batches: Vec<String> = FLEET_APPS
                    .iter()
                    .zip(apps)
                    .map(|(app, p)| format!("{}={}", app().spec.name, p.serving_batch()))
                    .collect();
                format!("serving batches {}", batches.join(" "))
            }
            Fixtures::Decode(setup) => format!("capacity {:.1} req/s", setup.capacity_rps),
            Fixtures::Planet(p) => format!(
                "BERT0 serving batch {}, capacity {:.0} req/s per server",
                p.serving_batch(),
                p.capacity_rps()
            ),
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("invariant failed: {what}"))
    }
}

/// Folds a serving report into `d` after checking conservation and
/// finiteness.
fn fold_serving(d: &mut Digest, r: &ServingReport) -> Result<(), String> {
    ensure(r.conservation_holds(), "serving conservation")?;
    let floats = [
        r.p50_s,
        r.p99_s,
        r.stats.mean_s,
        r.throughput_rps,
        r.goodput_rps,
        r.mean_batch,
        r.server_utilization,
        r.duration_s,
    ];
    ensure(
        floats.iter().all(|x| x.is_finite()),
        "finite serving report",
    )?;
    for x in floats {
        d.f64(x);
    }
    for n in [r.arrivals, r.completed, r.shed, r.dropped, r.failed] {
        d.u64(n as u64);
    }
    d.u64(r.metrics.events_processed.get())
        .u64(r.metrics.retries.get())
        .u64(r.metrics.completed_late.get())
        .u64(r.metrics.failures_detected.get());
    Ok(())
}

fn fold_model(d: &mut Digest, model: &LatencyModel) {
    for &(b, t) in model.points() {
        d.u64(b).f64(t);
    }
}

/// The fleet config `ProfiledApp::overload_point` runs without
/// protection, built from public parts so the samples entry point can
/// run it.
fn unprotected_fleet(
    model: &LatencyModel,
    slo_s: f64,
    serving_batch: u64,
    load: f64,
    requests: usize,
    seed: u64,
) -> FleetConfig {
    let base = ServingConfig {
        arrival_rate_rps: load * model.throughput(serving_batch),
        max_batch: serving_batch,
        batch_timeout_s: slo_s * 0.1,
        requests,
        seed,
    };
    FleetConfig::new(base.with_servers(1)).with_policy(FleetPolicy {
        deadline_s: Some(slo_s),
        ..FleetPolicy::default()
    })
}

/// `ProfiledApp::new` split into its public calls, in the order
/// `LatencyModel::profile` makes them, each in its own span. Returns
/// the model, the SLO batch and the half-SLO serving batch.
fn decomposed_profile(
    tr: &mut Tracer,
    app: &App,
    chip: &ChipConfig,
    options: &CompilerOptions,
) -> Result<(LatencyModel, u64, u64), String> {
    let sim = Simulator::new(chip.clone());
    let mut points = Vec::with_capacity(DEFAULT_BATCHES.len());
    for &b in &DEFAULT_BATCHES {
        let graph = tr
            .span(Layer::WorkloadsBuild, || app.build(b))
            .map_err(err)?;
        tr.units(Layer::WorkloadsBuild, graph.nodes().len());
        let exe = tr
            .span(Layer::HloCompile, || compile(&graph, chip, options))
            .map_err(err)?;
        tr.units(Layer::HloCompile, graph.nodes().len());
        tr.free(Layer::WorkloadsBuild, graph);
        let report = tr
            .span(Layer::SimRun, || sim.run(exe.plan()))
            .map_err(err)?;
        tr.units(Layer::SimRun, exe.plan().len());
        tr.free(Layer::HloCompile, exe);
        points.push((b, report.seconds));
    }
    let slo_s = app.spec.slo_p99_ms / 1e3;
    tr.span(Layer::ServingSlo, || {
        let model = LatencyModel::from_points(points).map_err(err)?;
        let batch = slo::max_batch_within_slo(&model, slo_s, 1024).unwrap_or(1);
        let serving = slo::max_batch_within_slo(&model, slo_s * 0.5, 1024).unwrap_or(1);
        Ok((model, batch, serving))
    })
}

/// Runs one task and returns its fingerprint.
pub fn run(fx: &Fixtures, task: &Task, tr: &mut Tracer) -> Result<u64, String> {
    let mut d = Digest::default();
    let seed = task.seed;
    match (task.item, fx) {
        (Item::Profile { chip, app }, Fixtures::Zoo { chips, apps }) => {
            let (chip, app) = (&chips[chip], &apps[app]);
            let options = CompilerOptions::for_chip(chip);
            let slo_s = app.spec.slo_p99_ms / 1e3;
            let (model, batch, serving, report) = if tr.enabled() {
                let (model, batch, serving) = decomposed_profile(tr, app, chip, &options)?;
                let cfg = unprotected_fleet(&model, slo_s, serving, ZOO_LOAD, ZOO_REQUESTS, seed);
                let report = tr
                    .span(Layer::DesFleet, || simulate_fleet(&model, &cfg))
                    .map_err(err)?;
                tr.units(
                    Layer::DesFleet,
                    report.metrics.events_processed.get() as usize,
                );
                (model, batch, serving, report)
            } else {
                let p = ProfiledApp::new(app, chip, &options).map_err(err)?;
                let point = p
                    .overload_point(ZOO_LOAD, false, ZOO_REQUESTS, seed)
                    .map_err(err)?;
                let model = p.latency_model().clone();
                (
                    model,
                    p.operating_point().batch,
                    p.serving_batch(),
                    point.report,
                )
            };
            fold_model(&mut d, &model);
            d.u64(batch).u64(serving);
            fold_serving(&mut d, &report)?;
        }
        (Item::Recompile { chip, app }, Fixtures::Zoo { chips, apps }) => {
            let (chip, app) = (&chips[chip], &apps[app]);
            let options = CompilerOptions::for_chip(chip);
            let clean = tr
                .span(Layer::WorkloadsBuild, || app.build(RECOMPILE_BATCH))
                .map_err(err)?;
            tr.units(Layer::WorkloadsBuild, clean.nodes().len());
            let dirty = tr
                .span(Layer::WorkloadsDeoptimize, || frontend::deoptimize(&clean))
                .map_err(err)?;
            tr.units(Layer::WorkloadsDeoptimize, dirty.nodes().len());
            tr.free(Layer::WorkloadsBuild, clean);
            let exe = tr
                .span(Layer::HloCompileDirty, || compile(&dirty, chip, &options))
                .map_err(err)?;
            tr.units(Layer::HloCompileDirty, dirty.nodes().len());
            tr.free(Layer::WorkloadsDeoptimize, dirty);
            let report = tr
                .span(Layer::SimRun, || {
                    Simulator::new(chip.clone()).run(exe.plan())
                })
                .map_err(err)?;
            tr.units(Layer::SimRun, exe.plan().len());
            let (bytes, same) = tr.span(Layer::IsaRoundtrip, || {
                let bytes = exe.binary().map_err(err)?;
                let back = tpu_isa::decode(&bytes, exe.generation()).map_err(err)?;
                Ok::<_, String>((bytes.len(), back == *exe.program()))
            })?;
            tr.units(Layer::IsaRoundtrip, exe.program().len());
            ensure(same, "binary decodes to the compiled program")?;
            ensure(
                report.seconds.is_finite() && report.seconds > 0.0,
                "finite sim time",
            )?;
            let s = exe.pass_summary();
            d.u64(s.nodes_before as u64)
                .u64(s.nodes_after as u64)
                .u64(s.applied.len() as u64)
                .u64(bytes as u64)
                .f64(report.seconds)
                .f64(report.energy_joules)
                .u64(report.flops)
                .u64(report.hbm_bytes);
            tr.free(Layer::HloCompileDirty, exe);
        }
        (Item::Protected { app, load }, Fixtures::Fleet { apps }) => {
            let point = tr
                .span(Layer::DesFleet, || {
                    apps[app].overload_point(load, true, FLEET_REQUESTS, seed)
                })
                .map_err(err)?;
            tr.units(
                Layer::DesFleet,
                point.report.metrics.events_processed.get() as usize,
            );
            fold_serving(&mut d, &point.report)?;
        }
        (Item::Unprotected { app, load }, Fixtures::Fleet { apps }) => {
            let (report, samples) = unprotected_samples(&apps[app], load, seed, tr)?;
            let stats = tr.span(Layer::ServingStats, || LatencyStats::from_samples(&samples));
            tr.units(Layer::ServingStats, samples.len());
            tr.free(Layer::DesFleet, samples);
            ensure(
                stats == report.stats,
                "samples re-fold to the report's stats",
            )?;
            fold_serving(&mut d, &report)?;
        }
        (Item::Chaos { app, load }, Fixtures::Fleet { apps }) => {
            let p = &apps[app];
            let plan = chaos_plan(p, app, load);
            let servers_load = load * CHAOS_SERVERS as f64;
            let point = tr
                .span(Layer::DesChaos, || {
                    p.chaos_point(CHAOS_SERVERS, servers_load, &plan, FLEET_REQUESTS, seed)
                })
                .map_err(err)?;
            let events = point.report.metrics.events_processed.get() as usize;
            tr.units(Layer::DesChaos, events);
            if tr.enabled() {
                let recorded = tr
                    .span(Layer::TelemetryRecorded, || {
                        let mut rec = Recorder::new();
                        p.chaos_point_recorded(
                            CHAOS_SERVERS,
                            servers_load,
                            &plan,
                            FLEET_REQUESTS,
                            seed,
                            &mut rec,
                        )
                    })
                    .map_err(err)?;
                tr.units(Layer::TelemetryRecorded, events);
                ensure(recorded == point, "recorded run matches the plain run")?;
                tr.free(Layer::TelemetryRecorded, recorded);
            }
            fold_serving(&mut d, &point.report)?;
        }
        (Item::Decode { load, mode }, Fixtures::Decode(setup)) => {
            let mut cfg = setup.base;
            cfg.mode = mode;
            cfg.seed = seed;
            cfg.requests = DECODE_REQUESTS;
            cfg.arrival_rate_rps = load * setup.capacity_rps;
            let r = tr
                .span(Layer::DesGen, || simulate_generation(&setup.lat, &cfg))
                .map_err(err)?;
            tr.units(Layer::DesGen, r.metrics.events_processed.get() as usize);
            fold_generation(&mut d, &r)?;
        }
        (Item::Planet { failover, step }, Fixtures::Planet(p)) => {
            let cfg = planet_config(p, failover, step, seed);
            let r = tr
                .span(Layer::FleetGlobal, || {
                    simulate_global(p.latency_model(), &cfg)
                })
                .map_err(err)?;
            tr.units(
                Layer::FleetGlobal,
                r.metrics.events_processed.get() as usize,
            );
            fold_global(&mut d, &r)?;
        }
        (item, _) => return Err(format!("item {item:?} does not belong to these fixtures")),
    }
    Ok(d.finish())
}

/// The unprotected overload run through the samples entry point.
fn unprotected_samples(
    p: &ProfiledApp,
    load: f64,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(ServingReport, Vec<f64>), String> {
    let op = p.operating_point();
    let model = p.latency_model();
    let cfg = unprotected_fleet(
        model,
        op.slo_s,
        p.serving_batch(),
        load,
        FLEET_REQUESTS,
        seed,
    );
    let out = tr
        .span(Layer::DesFleet, || {
            simulate_fleet_samples(model, &cfg, &FaultPlan::none())
        })
        .map_err(err)?;
    tr.units(
        Layer::DesFleet,
        out.0.metrics.events_processed.get() as usize,
    );
    Ok(out)
}

/// MTBF faults with failover, scaled to the run's expected length the
/// way E22 scales them. As in E22 the fault schedule is part of the
/// scenario, fixed per (app, load); the seed varies only the arrivals.
fn chaos_plan(p: &ProfiledApp, app: usize, load: f64) -> FaultPlan {
    let offered = load * CHAOS_SERVERS as f64 * p.capacity_rps();
    let d = FLEET_REQUESTS as f64 / offered;
    FaultPlan {
        scheduled: Vec::new(),
        mtbf: Some(MtbfFaults {
            mtbf_s: 0.5 * d,
            mttr_s: 0.05 * d,
            horizon_s: d,
        }),
        fault_seed: splitmix64(app as u64 ^ load.to_bits()),
        failover: FailoverConfig {
            enabled: true,
            probe_interval_s: 0.005 * d,
            probe_timeout_s: 0.002 * d,
            recovery_warmup_s: 0.005 * d,
        },
    }
}

fn fold_generation(d: &mut Digest, r: &GenReport) -> Result<(), String> {
    ensure(r.conservation_holds(), "token conservation")?;
    let floats = [
        r.p50_ttft_s,
        r.p99_ttft_s,
        r.p99_tpot_s,
        r.throughput_rps,
        r.goodput_rps,
        r.tokens_per_s,
        r.duration_s,
    ];
    ensure(
        floats.iter().all(|x| x.is_finite()),
        "finite generation report",
    )?;
    for x in floats {
        d.f64(x);
    }
    d.u64(r.output_tokens)
        .u64(r.prompt_tokens)
        .u64(r.kv_peak_bytes)
        .u64(r.metrics.events_processed.get())
        .u64(r.metrics.kv_deferrals.get());
    Ok(())
}

/// E27's scenario at planet-day scale: diurnal traffic, a 1.8x flash
/// crowd, and a full outage of cell 0 for a third of the day.
fn planet_config(p: &ProfiledApp, failover: bool, step: usize, seed: u64) -> GlobalConfig {
    let cap = p.capacity_rps();
    let base_rps = PLANET_LOAD * cap * (PLANET_CELLS * PLANET_SERVERS) as f64;
    let horizon_s = PLANET_REQUESTS / base_rps;
    GlobalConfig {
        cells: (0..PLANET_CELLS)
            .map(|_| Cell::new(p.cell_template(PLANET_SERVERS), cap, PLANET_SERVERS * 2))
            .collect(),
        traffic: TrafficModel::diurnal(base_rps, 0.35, horizon_s).with_flash(
            0.45 * horizon_s,
            0.15 * horizon_s,
            1.8,
        ),
        cell_faults: vec![CellFault {
            cell: 0,
            at_s: 0.38 * horizon_s,
            duration_s: 0.33 * horizon_s,
            kind: CellFaultKind::Outage,
        }],
        autoscaler: AutoscalerConfig {
            enabled: step > 0,
            target_utilization: 0.6,
            step_servers: step.max(1),
            provisioning_lag_epochs: 1,
        },
        geo: GeoPolicy {
            failover,
            redirect_latency_s: p.operating_point().slo_s * 0.2,
            overload_threshold: 1.1,
            detect_epochs: 1,
        },
        epoch_s: horizon_s / PLANET_EPOCHS as f64,
        horizon_s,
        seed,
    }
}

fn fold_global(d: &mut Digest, r: &GlobalReport) -> Result<(), String> {
    ensure(r.conservation_holds(), "global conservation")?;
    let floats = [
        r.p50_s,
        r.p99_s,
        r.goodput_rps,
        r.availability,
        r.duration_s,
    ];
    ensure(floats.iter().all(|x| x.is_finite()), "finite global report")?;
    for x in floats {
        d.f64(x);
    }
    for n in [r.arrivals, r.completed, r.good, r.shed, r.dropped, r.failed] {
        d.u64(n);
    }
    d.u64(r.redirected)
        .u64(r.autoscaler.scale_ups)
        .u64(r.metrics.events_processed.get());
    Ok(())
}

/// `--check` cross-checks beyond fingerprint equality: the traced
/// decomposition of `ProfiledApp::new` yields the same model and
/// batches, and the samples path of the unprotected kind yields the
/// `overload_point` report.
pub fn cross_check(fx: &Fixtures, task: &Task) -> Result<(), String> {
    match (task.item, fx) {
        (Item::Profile { chip, app }, Fixtures::Zoo { chips, apps }) => {
            let (chip, app) = (&chips[chip], &apps[app]);
            let options = CompilerOptions::for_chip(chip);
            let p = ProfiledApp::new(app, chip, &options).map_err(err)?;
            let (model, batch, serving) = decomposed_profile(
                &mut Tracer::new(std::time::Instant::now()),
                app,
                chip,
                &options,
            )?;
            ensure(
                model == *p.latency_model()
                    && batch == p.operating_point().batch
                    && serving == p.serving_batch(),
                "decomposed profile matches ProfiledApp::new",
            )
        }
        (Item::Unprotected { app, load }, Fixtures::Fleet { apps }) => {
            let p = &apps[app];
            let direct = p
                .overload_point(load, false, FLEET_REQUESTS, task.seed)
                .map_err(err)?;
            let (report, _) = unprotected_samples(
                p,
                load,
                task.seed,
                &mut Tracer::new(std::time::Instant::now()),
            )?;
            ensure(
                report == direct.report,
                "samples path matches overload_point",
            )
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_expands_to_the_same_items_every_time() {
        for w in Workload::ALL {
            assert_eq!(tasks(w, 42), tasks(w, 42), "{}", w.name());
            assert_ne!(tasks(w, 42), tasks(w, 43), "{}", w.name());
            // Every seed runs the same multiset of items.
            let kinds = |seed| {
                let mut k: Vec<String> = tasks(w, seed)
                    .iter()
                    .map(|t| format!("{:?}", t.item))
                    .collect();
                k.sort();
                k
            };
            assert_eq!(kinds(1), kinds(2), "{}", w.name());
        }
    }

    #[test]
    fn workload_shapes() {
        assert_eq!(tasks(Workload::ZooCompile, 0).len(), 5 * 8 * 2);
        assert_eq!(tasks(Workload::FleetOverload, 0).len(), 3 * 4 * 3 * 2);
        assert_eq!(tasks(Workload::LlmDecode, 0).len(), 4 * (5 + 4));
        assert_eq!(tasks(Workload::PlanetDay, 0).len(), 2 * 3 * 2);
        for w in Workload::ALL {
            assert!(crate::measure::valid_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
