//! High-level facade over the TPUv4i reproduction workspace.
//!
//! Everything the paper's evaluation does is a composition of the same
//! few moves: *build* a production app's graph, *compile* it for a chip
//! generation, *simulate* the compiled plan, and fold the results into
//! serving or cost models. This crate packages those moves:
//!
//! - [`run_app`] / [`AppRun`]: one app on one chip at one batch size;
//! - [`suite`]: all eight production apps on one chip;
//! - [`ProfiledApp`]: an app profiled once on a chip, with its
//!   SLO-derived batch and the simulated latency at it (the operating
//!   point the paper's comparisons use), ready for overload and chaos
//!   serving runs;
//! - [`prelude`]: the workspace's main types in one import.
//!
//! # Example
//!
//! ```
//! use tpu_core::prelude::*;
//!
//! let chip = catalog::tpu_v4i();
//! let run = tpu_core::run_app(&zoo::mlp0(), &chip, 16, &CompilerOptions::default()).unwrap();
//! assert!(run.report.seconds > 0.0);
//! println!("MLP0 @16 on {}: {:.3} ms", chip.name, run.report.seconds * 1e3);
//! ```

pub mod multichip;

use std::fmt;

use tpu_arch::ChipConfig;
use tpu_hlo::{compile, CompileError, CompilerOptions, Executable};
use tpu_serving::des::{
    simulate_fleet, simulate_fleet_recorded, simulate_fleet_with_faults, ConfigError, FleetConfig,
    FleetPolicy, RetryPolicy, ServingConfig, ServingReport,
};
use tpu_serving::faults::FaultPlan;
use tpu_serving::latency::{LatencyError, LatencyModel};
use tpu_serving::slo;
use tpu_sim::{SimError, SimReport, Simulator};
use tpu_telemetry::Recorder;
use tpu_workloads::{production_apps, App};

/// Everything a typical caller needs, one import away.
pub mod prelude {
    pub use tpu_arch::{catalog, ChipConfig, CoolingTech, Generation, MemLevel, ProcessNode};
    pub use tpu_hlo::{compile, CompilerOptions, Executable, Graph, OptLevel};
    pub use tpu_numerics::{Bf16, DType};
    pub use tpu_serving::faults::{
        FailoverConfig, FaultKind, FaultPlan, MtbfFaults, ScheduledFault,
    };
    pub use tpu_serving::latency::LatencyModel;
    pub use tpu_sim::{SimReport, Simulator, StepPlan};
    pub use tpu_tco::{TcoModel, TcoReport};
    pub use tpu_workloads::{production_apps, zoo, App, AppClass};
}

/// Error from the high-level pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Graph construction or compilation failed.
    Compile(String),
    /// Simulation failed.
    Sim(String),
    /// Latency profiling failed.
    Latency(String),
    /// The serving simulation rejected its configuration.
    Serving(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Compile(e) => write!(f, "compile: {e}"),
            CoreError::Sim(e) => write!(f, "simulate: {e}"),
            CoreError::Latency(e) => write!(f, "profile: {e}"),
            CoreError::Serving(e) => write!(f, "serving: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<CompileError> for CoreError {
    fn from(e: CompileError) -> CoreError {
        CoreError::Compile(e.to_string())
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> CoreError {
        CoreError::Sim(e.to_string())
    }
}

impl From<LatencyError> for CoreError {
    fn from(e: LatencyError) -> CoreError {
        CoreError::Latency(e.to_string())
    }
}

impl From<ConfigError> for CoreError {
    fn from(e: ConfigError) -> CoreError {
        CoreError::Serving(e.to_string())
    }
}

/// The result of compiling and simulating one app on one chip.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// App name.
    pub app: String,
    /// Batch size simulated.
    pub batch: u64,
    /// The compiled artifact.
    pub executable: Executable,
    /// The simulation report.
    pub report: SimReport,
}

impl AppRun {
    /// Inferences per second at this batch size.
    pub fn throughput_rps(&self) -> f64 {
        if self.report.seconds <= 0.0 {
            0.0
        } else {
            self.batch as f64 / self.report.seconds
        }
    }

    /// Inferences per joule (the E5 efficiency axis).
    pub fn inferences_per_joule(&self) -> f64 {
        if self.report.energy_joules <= 0.0 {
            0.0
        } else {
            self.batch as f64 / self.report.energy_joules
        }
    }
}

/// Compiles and simulates one app at a batch size.
///
/// # Errors
///
/// Propagates compile and simulation errors as [`CoreError`].
pub fn run_app(
    app: &App,
    chip: &ChipConfig,
    batch: u64,
    options: &CompilerOptions,
) -> Result<AppRun, CoreError> {
    let graph = app.build(batch).map_err(CompileError::Graph)?;
    let executable = compile(&graph, chip, options)?;
    let report = Simulator::new(chip.clone()).run(executable.plan())?;
    Ok(AppRun {
        app: app.spec.name.to_owned(),
        batch,
        executable,
        report,
    })
}

/// Runs all eight production apps on a chip at one batch size.
///
/// # Errors
///
/// Fails on the first app that cannot compile or simulate.
pub fn suite(
    chip: &ChipConfig,
    batch: u64,
    options: &CompilerOptions,
) -> Result<Vec<AppRun>, CoreError> {
    production_apps()
        .iter()
        .map(|app| run_app(app, chip, batch, options))
        .collect()
}

/// An app's SLO-derived operating point on a chip (Lesson 10).
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// App name.
    pub app: String,
    /// p99 SLO, seconds.
    pub slo_s: f64,
    /// Largest batch whose service latency meets the SLO (1 if even
    /// batch 1 misses — serve degraded rather than not at all).
    pub batch: u64,
    /// Whether even batch 1 met the SLO.
    pub feasible: bool,
    /// Service latency at the chosen batch, seconds.
    pub latency_s: f64,
    /// Ideal throughput at the chosen batch, inferences/s.
    pub throughput_rps: f64,
}

/// The canonical arrival seed: replication 0 of every seeded serving
/// sweep, kept for reproducibility of previously published tables.
pub const DEFAULT_SWEEP_SEED: u64 = 17;

/// An app profiled once on a chip, ready to evaluate many serving
/// scenarios against.
///
/// Profiling (compile + cycle-level simulation across the batch ladder)
/// costs orders of magnitude more than one DES run, so sweeps and
/// multi-seed replications profile once via [`ProfiledApp::new`] and
/// then evaluate [`ProfiledApp::overload_point`] /
/// [`ProfiledApp::chaos_point`] per grid point and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledApp {
    model: LatencyModel,
    op: OperatingPoint,
    /// The batch cap served at under overload policies: largest batch
    /// whose service latency fits *half* the SLO, leaving the other
    /// half as queueing headroom.
    serving_batch: u64,
}

impl ProfiledApp {
    /// Profiles `app` on `chip` and fixes its operating point: the
    /// largest batch whose service latency meets the app's p99 SLO.
    ///
    /// # Errors
    ///
    /// Propagates profiling errors as [`CoreError`].
    pub fn new(
        app: &App,
        chip: &ChipConfig,
        options: &CompilerOptions,
    ) -> Result<ProfiledApp, CoreError> {
        let model =
            LatencyModel::profile(app, chip, options, &tpu_serving::latency::DEFAULT_BATCHES)?;
        let slo_s = app.spec.slo_p99_ms / 1e3;
        let found = slo::max_batch_within_slo(&model, slo_s, 1024);
        let batch = found.unwrap_or(1);
        let op = OperatingPoint {
            app: app.spec.name.to_owned(),
            slo_s,
            batch,
            feasible: found.is_some(),
            latency_s: model.latency(batch),
            throughput_rps: model.throughput(batch),
        };
        let serving_batch = slo::max_batch_within_slo(&model, op.slo_s * 0.5, 1024).unwrap_or(1);
        Ok(ProfiledApp {
            model,
            op,
            serving_batch,
        })
    }

    /// The profiled latency model.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.model
    }

    /// The app's SLO operating point on the profiled chip.
    pub fn operating_point(&self) -> &OperatingPoint {
        &self.op
    }

    /// The batch cap overload/chaos scenarios serve at (half-SLO
    /// headroom rule).
    pub fn serving_batch(&self) -> u64 {
        self.serving_batch
    }

    /// One server's ideal capacity at the serving batch, requests/s —
    /// the unit `load_factor` arguments are expressed in.
    pub fn capacity_rps(&self) -> f64 {
        self.model.throughput(self.serving_batch)
    }

    /// The protected overload policy (deadline + expiry shedding +
    /// capped queue + one retry). The queue cap is the depth that drains
    /// within the queue budget (at least one full batch), times
    /// `servers`.
    fn protected_policy(&self, servers: usize) -> FleetPolicy {
        let op = &self.op;
        // A queued request is shed once the service time of a full batch
        // no longer fits its remaining budget; admission rejections get
        // one retry after a short backoff. The queue is capped at the
        // depth that can drain within the budget — anything deeper would
        // expire anyway, so reject it at the door instead.
        let queue_budget = (op.slo_s - self.model.latency(self.serving_batch)).max(op.slo_s * 0.05);
        let drainable = (self.capacity_rps() * queue_budget).ceil() as usize;
        FleetPolicy {
            deadline_s: Some(op.slo_s),
            shed_expired: true,
            queue_budget_s: Some(queue_budget),
            queue_cap: Some(drainable.max(self.serving_batch as usize) * servers),
            retry: RetryPolicy {
                max_retries: 1,
                backoff_s: op.slo_s * 0.1,
                backoff_mult: 2.0,
            },
        }
    }

    /// Simulates the operating point on one server offered
    /// `load_factor` times its ideal capacity, with or without overload
    /// protection, from the arrival `seed` (replications vary the seed
    /// to get independent arrival draws over identical configs).
    ///
    /// With `shedding` enabled the server sheds queued requests past the
    /// SLO deadline, caps the queue at the depth that drains within the
    /// queue budget (SLO minus a full batch's service time, at least 5%
    /// of the SLO), and lets
    /// shed requests retry once — the policy that keeps goodput flat
    /// through the cliff. Without it, every request is served
    /// eventually, mostly too late, and goodput collapses (the paper's
    /// Lesson 10 failure mode at fleet scale).
    ///
    /// `requests` sets the run length; overload only shows once the run
    /// lasts many deadlines, so size it to the app's rate (a few
    /// thousand for BERT-class apps, far more for sub-millisecond MLPs).
    ///
    /// # Errors
    ///
    /// Propagates serving-config rejections as [`CoreError`].
    pub fn overload_point(
        &self,
        load_factor: f64,
        shedding: bool,
        requests: usize,
        seed: u64,
    ) -> Result<OverloadPoint, CoreError> {
        let op = &self.op;
        let offered_rps = load_factor * self.capacity_rps();
        let base = ServingConfig {
            arrival_rate_rps: offered_rps,
            max_batch: self.serving_batch,
            batch_timeout_s: op.slo_s * 0.1,
            requests,
            seed,
        };
        let policy = if shedding {
            self.protected_policy(1)
        } else {
            // The deadline still defines goodput; nothing is ever shed.
            FleetPolicy {
                deadline_s: Some(op.slo_s),
                ..FleetPolicy::default()
            }
        };
        let report = simulate_fleet(
            &self.model,
            &FleetConfig::new(base.with_servers(1)).with_policy(policy),
        )?;
        Ok(OverloadPoint {
            operating_point: op.clone(),
            serving_batch: self.serving_batch,
            load_factor,
            offered_rps,
            shedding,
            report,
        })
    }

    /// Simulates `servers` replicas offered `load_factor` times one
    /// server's ideal capacity under the fault plan `plan`, from the
    /// arrival `seed` — the E22 chaos experiment's engine.
    ///
    /// The serving policy is the protected overload policy (deadline +
    /// expiry shedding + capped queue + one retry), with the queue cap
    /// scaled to the fleet: under faults the interesting question is not
    /// *whether* overload protection is on but whether the health
    /// checker reroutes around dead replicas. Pass
    /// `plan.without_failover()` for the serve-through baseline — the
    /// fault schedule materializes identically either way, so on/off
    /// runs face the same injected faults.
    ///
    /// # Errors
    ///
    /// Propagates serving/fault-plan config rejections as [`CoreError`].
    pub fn chaos_point(
        &self,
        servers: usize,
        load_factor: f64,
        plan: &FaultPlan,
        requests: usize,
        seed: u64,
    ) -> Result<ChaosPoint, CoreError> {
        let (offered_rps, fleet) = self.chaos_fleet_config(servers, load_factor, requests, seed);
        let report = simulate_fleet_with_faults(&self.model, &fleet, plan)?;
        Ok(self.chaos_point_from(servers, load_factor, offered_rps, plan, report))
    }

    /// [`ProfiledApp::chaos_point`] with the full request lifecycle
    /// recorded into `recorder` (spans, instants, and exact per-event
    /// counters — see [`simulate_fleet_recorded`]).
    /// The returned point is bit-identical to [`ProfiledApp::chaos_point`]
    /// at the same arguments: telemetry never feeds back into the run.
    ///
    /// # Errors
    ///
    /// Propagates serving/fault-plan config rejections as [`CoreError`].
    pub fn chaos_point_recorded(
        &self,
        servers: usize,
        load_factor: f64,
        plan: &FaultPlan,
        requests: usize,
        seed: u64,
        recorder: &mut Recorder,
    ) -> Result<ChaosPoint, CoreError> {
        let (offered_rps, fleet) = self.chaos_fleet_config(servers, load_factor, requests, seed);
        let report = simulate_fleet_recorded(&self.model, &fleet, plan, recorder)?;
        Ok(self.chaos_point_from(servers, load_factor, offered_rps, plan, report))
    }

    /// The serving config a chaos scenario runs: offered load in units
    /// of one replica's capacity, the half-SLO serving batch, and the
    /// protected overload policy scaled to the fleet size.
    fn chaos_fleet_config(
        &self,
        servers: usize,
        load_factor: f64,
        requests: usize,
        seed: u64,
    ) -> (f64, FleetConfig) {
        let offered_rps = load_factor * self.capacity_rps();
        let base = ServingConfig {
            arrival_rate_rps: offered_rps,
            max_batch: self.serving_batch,
            batch_timeout_s: self.op.slo_s * 0.1,
            requests,
            seed,
        };
        let fleet = FleetConfig::new(base.with_servers(servers))
            .with_policy(self.protected_policy(servers));
        (offered_rps, fleet)
    }

    /// A serving-cell template for the planet-scale layer
    /// ([`tpu_serving::fleet`]): `servers` replicas at the half-SLO
    /// serving batch under the protected overload policy. The global
    /// orchestrator overwrites the arrival rate, request count, and
    /// seed every control epoch; rate/requests/seed here are
    /// placeholders.
    pub fn cell_template(&self, servers: usize) -> FleetConfig {
        let base = ServingConfig {
            arrival_rate_rps: self.capacity_rps(),
            max_batch: self.serving_batch,
            batch_timeout_s: self.op.slo_s * 0.1,
            requests: 1,
            seed: 0,
        };
        FleetConfig::new(base.with_servers(servers)).with_policy(self.protected_policy(servers))
    }

    fn chaos_point_from(
        &self,
        servers: usize,
        load_factor: f64,
        offered_rps: f64,
        plan: &FaultPlan,
        report: ServingReport,
    ) -> ChaosPoint {
        ChaosPoint {
            operating_point: self.op.clone(),
            serving_batch: self.serving_batch,
            servers,
            load_factor,
            offered_rps,
            failover: plan.failover.enabled,
            report,
        }
    }
}

/// An app's behavior when offered *more* load than its operating point
/// sustains ([`ProfiledApp::overload_point`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadPoint {
    /// The underlying SLO operating point.
    pub operating_point: OperatingPoint,
    /// The batch cap actually served at: the largest batch whose service
    /// latency fits *half* the SLO, leaving the other half as queueing
    /// headroom (serving at the full-SLO batch leaves no room to queue
    /// at all — any wait is a violation).
    pub serving_batch: u64,
    /// Offered load as a multiple of the ideal capacity at
    /// `serving_batch` (1.0 = exactly capacity).
    pub load_factor: f64,
    /// The offered arrival rate, requests/s.
    pub offered_rps: f64,
    /// Whether load shedding (deadline expiry + queue cap) was enabled.
    pub shedding: bool,
    /// The full serving report at that load.
    pub report: ServingReport,
}

impl OverloadPoint {
    /// Fraction of offered requests that completed within the SLO.
    pub fn good_fraction(&self) -> f64 {
        let good = self.report.completed - self.report.metrics.completed_late.get() as usize;
        good as f64 / self.report.arrivals.max(1) as f64
    }
}

/// A replicated fleet's behavior under an injected fault plan
/// ([`ProfiledApp::chaos_point`], E22): the chaos-engineering companion
/// to [`OverloadPoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPoint {
    /// The underlying SLO operating point.
    pub operating_point: OperatingPoint,
    /// The batch cap served at (half-SLO headroom, as in the overload
    /// sweep).
    pub serving_batch: u64,
    /// Replicas in the fleet.
    pub servers: usize,
    /// Offered load as a multiple of *one* server's ideal capacity at
    /// `serving_batch` — single-server units so a sweep can offer, say,
    /// 1.35x one replica to a 4-replica fleet and watch survivors absorb
    /// failed peers' traffic.
    pub load_factor: f64,
    /// The offered arrival rate, requests/s.
    pub offered_rps: f64,
    /// Whether the plan's failover (health checking + redistribution)
    /// was enabled.
    pub failover: bool,
    /// The full serving report under the fault plan.
    pub report: ServingReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_arch::catalog;
    use tpu_workloads::zoo;

    #[test]
    fn run_app_produces_consistent_numbers() {
        let chip = catalog::tpu_v4i();
        let run = run_app(&zoo::mlp0(), &chip, 8, &CompilerOptions::default()).unwrap();
        assert_eq!(run.app, "MLP0");
        assert_eq!(run.batch, 8);
        assert!(run.report.seconds > 0.0);
        assert!(run.throughput_rps() > 0.0);
        assert!(run.inferences_per_joule() > 0.0);
        // The simulator executed exactly the compiled plan's flops.
        assert_eq!(run.report.flops, run.executable.plan().total_flops());
    }

    #[test]
    fn suite_covers_all_apps() {
        let chip = catalog::tpu_v4i();
        let runs = suite(&chip, 4, &CompilerOptions::default()).unwrap();
        assert_eq!(runs.len(), 8);
        let names: Vec<&str> = runs.iter().map(|r| r.app.as_str()).collect();
        assert!(names.contains(&"BERT1"));
        for r in &runs {
            assert!(r.report.seconds > 0.0, "{}", r.app);
        }
    }

    #[test]
    fn operating_point_respects_slo() {
        let chip = catalog::tpu_v4i();
        let profiled = ProfiledApp::new(&zoo::mlp0(), &chip, &CompilerOptions::default()).unwrap();
        let op = profiled.operating_point();
        assert!(op.feasible);
        assert!(op.latency_s <= op.slo_s);
        assert!(op.batch >= 1);
        assert!(op.throughput_rps > 0.0);
    }

    #[test]
    fn bigger_batch_for_looser_slo_app() {
        // RNN0's 60 ms SLO admits bigger batches than MLP0's 7 ms on the
        // same chip — Lesson 10's mechanism.
        let chip = catalog::tpu_v4i();
        let tight = ProfiledApp::new(&zoo::mlp0(), &chip, &CompilerOptions::default()).unwrap();
        let tight = tight.operating_point();
        let loose = ProfiledApp::new(&zoo::cnn1(), &chip, &CompilerOptions::default()).unwrap();
        let loose = loose.operating_point();
        // CNN1 (32 ms) is heavy per inference; the comparison that's
        // robust is that each meets its own SLO.
        assert!(tight.latency_s <= tight.slo_s);
        assert!(loose.latency_s <= loose.slo_s);
    }

    #[test]
    fn errors_convert_and_display() {
        let e: CoreError = CompileError::WeightsExceedHbm {
            needed: 2,
            available: 1,
        }
        .into();
        assert!(format!("{e}").contains("compile"));
        let e: CoreError = ConfigError::ZeroMaxBatch.into();
        assert!(matches!(e, CoreError::Serving(_)));
        assert!(format!("{e}").contains("serving"));
    }

    #[test]
    fn overload_point_sheds_only_when_asked() {
        // BERT0's SLO binds its batch, so 1.5x capacity genuinely
        // overloads the server within a few thousand requests.
        let chip = catalog::tpu_v4i();
        let options = CompilerOptions::default();
        let profiled = ProfiledApp::new(&zoo::bert0(), &chip, &options).unwrap();
        let plain = profiled
            .overload_point(1.5, false, 4000, DEFAULT_SWEEP_SEED)
            .unwrap();
        let shed = profiled
            .overload_point(1.5, true, 4000, DEFAULT_SWEEP_SEED)
            .unwrap();
        // Without shedding everything completes (late); with it some load
        // is turned away and what's served meets the deadline.
        assert_eq!(plain.report.shed, 0);
        assert_eq!(plain.report.completed, plain.report.arrivals);
        assert!(shed.report.shed > 0);
        assert!(plain.report.conservation_holds());
        assert!(shed.report.conservation_holds());
        assert!(
            shed.report.goodput_rps > plain.report.goodput_rps,
            "shedding goodput {} vs unprotected {}",
            shed.report.goodput_rps,
            plain.report.goodput_rps
        );
        assert!(shed.good_fraction() <= 1.0);
        // Regression: a zero-replica fleet ran one server and returned
        // `Ok` with `servers: 1`.
        let none = profiled.chaos_point(0, 1.0, &FaultPlan::none(), 100, DEFAULT_SWEEP_SEED);
        assert_eq!(
            none,
            Err(CoreError::Serving(ConfigError::ZeroServers.to_string()))
        );
    }
}
