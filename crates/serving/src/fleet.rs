//! Planet-scale serving: a two-level hierarchy of cells behind a geo
//! load-balancer, with diurnal + flash-crowd traffic, correlated
//! cell-level failure domains, and an autoscaling control loop.
//!
//! TPUv4i's Lesson 5 is that inference accelerators deploy globally
//! across air-cooled datacenters: availability is a property of the
//! *fleet*, and at that scale failures are correlated — a power feed, a
//! cooling plant, or a network spine takes out a whole cell, not one
//! replica. This module composes the existing per-cell machinery
//! ([`crate::des`] fleets with [`crate::faults`] failover routers) under
//! a global control plane:
//!
//! - a validated [`TrafficModel`]: a diurnal sinusoid × scheduled
//!   [`FlashCrowd`] spikes, all a pure function of (config, seed);
//! - a [`GlobalConfig`] of N [`Cell`]s, each an existing
//!   [`FleetConfig`] behind the default failover router
//!   ([`crate::faults::FailoverConfig`]);
//! - a geo load-balancer: weighted-by-believed-capacity routing,
//!   redirect away from detected-down cells and redirect-on-overload,
//!   with a constant cross-cell [`GeoPolicy::redirect_latency_s`]
//!   penalty on redirected requests;
//! - correlated [`CellFault`] domains — whole-cell outage, partial
//!   brownout, network partition. A brownout crashes servers inside the
//!   cell, and the cell's own failover router reacts to those crashes;
//! - an autoscaler driven by the per-cell [`ServingMetrics`]
//!   utilization signal, with provisioning lag and churn accounting.
//!
//! # Simulation structure
//!
//! Time is divided into control epochs of [`GlobalConfig::epoch_s`]
//! seconds — the cadence at which a real geo load-balancer re-weights
//! and an autoscaler decides. Per epoch the orchestrator (1) draws the
//! epoch's Poisson arrival count from the traffic model, (2) splits it
//! across cells by believed capacity (exact largest-remainder integer
//! split), (3) moves traffic off detected-down or overloaded cells
//! when geo-failover is on, (4) runs one full per-cell DES (the engine
//! behind [`crate::des::simulate_fleet_with_faults`]) per cell with
//! that epoch's brownout crashes as its fault plan, appending its
//! completion latencies to the run's sample store, and (5) feeds
//! the measured utilization into the autoscaler. Each epoch's per-cell DES
//! runs until every request assigned to it resolves, past the epoch end
//! if need be, so nothing is cut off at an epoch boundary: `dropped`
//! counts only requests stranded when a cell's event heap empties (for
//! example, every server down). Queue state and health beliefs inside a
//! cell do not carry across epochs — a deliberate modeling choice that
//! keeps every epoch an independent, deterministic DES run while the
//! *global* control loop carries the persistent state (server counts,
//! pending scale-ups, cell-down beliefs). ROADMAP item 4 measures what
//! this costs and plans resumable cell engines that carry the backlog.
//!
//! Redirected requests merge into the destination cell's Poisson
//! stream; the redirect latency penalty is applied to a
//! deterministically interleaved subset of the destination's
//! completion samples matching the redirected share (exchangeability
//! of Poisson superposition makes the subset choice unbiased). One pass
//! over a cell epoch's new samples adds the penalty in place and counts
//! the completions within the deadline.
//!
//! Exact percentiles need every sample, and each is held once: in one
//! epoch-major store for the whole run (8 bytes per completion), to
//! which each cell keeps `(start, end)` ranges. At the end, each cell's
//! stats select in one reused gather buffer, and the global stats
//! select in place on the store.
//!
//! # Invariants
//!
//! Conservation extends across redirects and is debug-asserted and
//! property-tested: globally `arrivals == completed + shed + dropped +
//! failed` (shed includes geo-level no-capacity sheds), and per cell
//! `offered + redirected_in == assigned + redirected_out + lb_shed`
//! with `assigned == completed + shed + dropped + failed`. The whole
//! simulation is a pure function of (config, seed): replicated runs
//! fold under `MultiSeedRunner`, `--jobs` stays byte-identical, and
//! [`simulate_global_recorded`] returns a bit-identical report
//! (telemetry is derived from, never an input to, simulation state).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::des::{simulate_cell_epoch, ConfigError, FleetConfig, MAX_REQUESTS};
use crate::faults::{FaultKind, FaultPlan, ScheduledFault};
use crate::latency::LatencyModel;
use crate::metrics::ServingMetrics;
use crate::stats::LatencyStats;
use tpu_telemetry::{EventSink, NullSink, Recorder, SpanPhase, Track};

// ---------------------------------------------------------------------------
// Traffic model
// ---------------------------------------------------------------------------

/// A scheduled flash-crowd spike: the global rate multiplies by
/// `multiplier` over `[at_s, at_s + duration_s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Spike start, seconds.
    pub at_s: f64,
    /// Spike duration, seconds.
    pub duration_s: f64,
    /// Rate multiplier while the spike is active (> 0; overlapping
    /// spikes take the largest multiplier, they do not stack).
    pub multiplier: f64,
}

/// Open-loop user-population traffic: a diurnal sinusoid plus
/// scheduled flash crowds.
///
/// The instantaneous rate at time `t` is
/// `base_rps * (1 + A*sin(2πt/period)) * flash(t)`. `A < 1` keeps the
/// rate strictly positive.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficModel {
    /// Mean global arrival rate, requests/second.
    pub base_rps: f64,
    /// Diurnal amplitude `A` in [0, 1): peak-to-mean rate swing.
    pub diurnal_amplitude: f64,
    /// Diurnal period (one simulated "day"), seconds.
    pub period_s: f64,
    /// Scheduled flash-crowd spikes.
    pub flashes: Vec<FlashCrowd>,
}

impl TrafficModel {
    /// A diurnal model with no flash crowds.
    pub fn diurnal(base_rps: f64, amplitude: f64, period_s: f64) -> TrafficModel {
        TrafficModel {
            base_rps,
            diurnal_amplitude: amplitude,
            period_s,
            flashes: Vec::new(),
        }
    }

    /// Adds a flash-crowd spike (builder style).
    pub fn with_flash(mut self, at_s: f64, duration_s: f64, multiplier: f64) -> TrafficModel {
        self.flashes.push(FlashCrowd {
            at_s,
            duration_s,
            multiplier,
        });
        self
    }

    /// Checks every knob.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for a degenerate base rate, amplitude, period, or
    /// flash window/multiplier.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.base_rps.is_finite() || self.base_rps <= 0.0 {
            return Err(ConfigError::InvalidTrafficRate(self.base_rps));
        }
        if !self.diurnal_amplitude.is_finite() || !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err(ConfigError::InvalidDiurnalAmplitude(self.diurnal_amplitude));
        }
        if !self.period_s.is_finite() || self.period_s <= 0.0 {
            return Err(ConfigError::InvalidTrafficPeriod(self.period_s));
        }
        for fc in &self.flashes {
            if !fc.at_s.is_finite() || fc.at_s < 0.0 {
                return Err(ConfigError::InvalidFlashWindow(fc.at_s));
            }
            if !fc.duration_s.is_finite() || fc.duration_s <= 0.0 {
                return Err(ConfigError::InvalidFlashWindow(fc.duration_s));
            }
            if !fc.multiplier.is_finite() || fc.multiplier <= 0.0 {
                return Err(ConfigError::InvalidFlashMultiplier(fc.multiplier));
            }
        }
        Ok(())
    }

    /// The largest rate [`TrafficModel::rate_at`] can return: the
    /// diurnal factor is at most `1 + A`, and overlapping flash crowds
    /// take the largest multiplier, never below 1.
    fn peak_rps(&self) -> f64 {
        let flash = self
            .flashes
            .iter()
            .map(|f| f.multiplier)
            .fold(1.0f64, f64::max);
        self.base_rps * (1.0 + self.diurnal_amplitude) * flash
    }

    /// Instantaneous global arrival rate at simulated time `t_s`.
    pub fn rate_at(&self, t_s: f64) -> f64 {
        let two_pi = 2.0 * std::f64::consts::PI;
        let diurnal = 1.0 + self.diurnal_amplitude * (two_pi * t_s / self.period_s).sin();
        let flash = self
            .flashes
            .iter()
            .filter(|f| t_s >= f.at_s && t_s < f.at_s + f.duration_s)
            .map(|f| f.multiplier)
            .fold(1.0f64, f64::max);
        self.base_rps * diurnal * flash
    }
}

// ---------------------------------------------------------------------------
// Cells and correlated cell faults
// ---------------------------------------------------------------------------

/// One serving cell: an existing per-cell fleet and its autoscaler
/// bounds. Its per-epoch DES runs route around brownout crashes with
/// the default [`crate::faults::FailoverConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Template for this cell's per-epoch DES runs. The orchestrator
    /// overwrites `pool.servers` (autoscaler), and
    /// `pool.base.{arrival_rate_rps, requests, seed}` (traffic split)
    /// every control epoch; every other knob — batching,
    /// deadline/shedding/retry policy — applies as configured.
    pub fleet: FleetConfig,
    /// One server's sustainable capacity, rps (e.g. a profiled
    /// operating point) — the geo load-balancer's believed capacity is
    /// `active_servers * capacity_per_server_rps`.
    pub capacity_per_server_rps: f64,
    /// Autoscaler floor (>= 1).
    pub min_servers: usize,
    /// Autoscaler ceiling.
    pub max_servers: usize,
    /// Servers active at t = 0.
    pub initial_servers: usize,
}

impl Cell {
    /// A cell whose initial/min size is the template's pool size and
    /// whose autoscaler may grow it to `max_servers`.
    pub fn new(fleet: FleetConfig, capacity_per_server_rps: f64, max_servers: usize) -> Cell {
        let initial = fleet.pool.servers;
        Cell {
            fleet,
            capacity_per_server_rps,
            min_servers: initial.min(max_servers).max(1),
            max_servers: max_servers.max(initial),
            initial_servers: initial,
        }
    }

    /// Replaces the autoscaler bounds (builder style).
    pub fn with_bounds(mut self, min: usize, max: usize) -> Cell {
        self.min_servers = min;
        self.max_servers = max;
        self
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.min_servers < 1
            || self.min_servers > self.initial_servers
            || self.initial_servers > self.max_servers
        {
            return Err(ConfigError::InvalidCellServers {
                min: self.min_servers,
                max: self.max_servers,
            });
        }
        if !self.capacity_per_server_rps.is_finite() || self.capacity_per_server_rps <= 0.0 {
            return Err(ConfigError::InvalidCellCapacity(
                self.capacity_per_server_rps,
            ));
        }
        // The orchestrator substitutes rate/requests/servers per epoch;
        // validate the template with benign placeholders so a cell is
        // rejected for its *own* bad knobs, not the placeholders'.
        let mut probe = self.fleet;
        probe.pool.servers = self.max_servers;
        probe.pool.base.arrival_rate_rps = 1.0;
        probe.pool.base.requests = 1;
        probe.validate()
    }
}

/// What goes wrong with a whole cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellFaultKind {
    /// Whole-cell outage (power/cooling): requests routed to the cell
    /// during the window are lost, and the window counts as cell
    /// downtime.
    Outage,
    /// Partial brownout: `fraction` of the cell's active servers crash
    /// for the window (synthesized as per-server crash faults, so the
    /// cell's own failover router reacts to them). The geo balancer
    /// keeps routing — the cell still believes it can serve.
    Brownout {
        /// Fraction of active servers taken down, in (0, 1].
        fraction: f64,
    },
    /// Network partition: the cell is healthy but unreachable —
    /// requests routed to it are lost, yet its hardware counts as up.
    Partition,
}

impl CellFaultKind {
    /// Stable telemetry/display name.
    pub fn name(&self) -> &'static str {
        match self {
            CellFaultKind::Outage => "cell_outage",
            CellFaultKind::Brownout { .. } => "cell_brownout",
            CellFaultKind::Partition => "cell_partition",
        }
    }
}

/// One correlated fault against one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFault {
    /// Index into [`GlobalConfig::cells`].
    pub cell: usize,
    /// Fault start, absolute seconds.
    pub at_s: f64,
    /// Fault duration, seconds.
    pub duration_s: f64,
    /// What happens.
    pub kind: CellFaultKind,
}

// ---------------------------------------------------------------------------
// Control plane: geo policy and autoscaler
// ---------------------------------------------------------------------------

/// Geo load-balancer policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPolicy {
    /// Geo failover on: traffic moves off detected-down cells and
    /// overloaded cells redirect their excess. Off = serve-through:
    /// static capacity-weighted routing that ignores cell health (the
    /// baseline arm of E27, like E22's failover-off arm).
    pub failover: bool,
    /// Constant extra latency paid by a cross-cell redirected request
    /// (WAN round trip), seconds.
    pub redirect_latency_s: f64,
    /// A cell redirects arrivals beyond `overload_threshold ×` its
    /// believed epoch capacity (`active × capacity_per_server × epoch`).
    pub overload_threshold: f64,
    /// Control epochs between a cell fault starting and the geo
    /// balancer believing the cell down (0 = omniscient detection in
    /// the same epoch).
    pub detect_epochs: usize,
}

impl Default for GeoPolicy {
    fn default() -> GeoPolicy {
        GeoPolicy {
            failover: true,
            redirect_latency_s: 0.05,
            overload_threshold: 1.0,
            detect_epochs: 1,
        }
    }
}

impl GeoPolicy {
    fn validate(&self) -> Result<(), ConfigError> {
        if !self.redirect_latency_s.is_finite() || self.redirect_latency_s < 0.0 {
            return Err(ConfigError::InvalidRedirectLatency(self.redirect_latency_s));
        }
        if !self.overload_threshold.is_finite() || self.overload_threshold <= 0.0 {
            return Err(ConfigError::InvalidRedirectThreshold(
                self.overload_threshold,
            ));
        }
        Ok(())
    }
}

/// Target-utilization autoscaler knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Master switch; off freezes every cell at its initial size.
    pub enabled: bool,
    /// Utilization the controller steers each cell toward, in (0, 1].
    pub target_utilization: f64,
    /// Aggressiveness: the most servers one decision may add or remove
    /// (0 also freezes the fleet).
    pub step_servers: usize,
    /// Control epochs between a scale-up decision and the capacity
    /// landing (machine allocation + weight loading). Scale-downs apply
    /// at the next epoch — turning capacity off is fast.
    pub provisioning_lag_epochs: usize,
}

impl Default for AutoscalerConfig {
    fn default() -> AutoscalerConfig {
        AutoscalerConfig {
            enabled: true,
            target_utilization: 0.6,
            step_servers: 1,
            provisioning_lag_epochs: 1,
        }
    }
}

impl AutoscalerConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if !self.target_utilization.is_finite()
            || self.target_utilization <= 0.0
            || self.target_utilization > 1.0
        {
            return Err(ConfigError::InvalidUtilizationTarget(
                self.target_utilization,
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Global config
// ---------------------------------------------------------------------------

/// Most control epochs (`ceil(horizon_s / epoch_s)`) one global run
/// simulates: the geo balancer's belief table holds one row per epoch,
/// and every epoch runs one DES per cell. 2^20 one-second epochs cover
/// twelve simulated days; a count past it is a mistyped `epoch_s`.
pub const MAX_EPOCHS: usize = 1 << 20;

/// The full planet-scale run description.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalConfig {
    /// The serving cells.
    pub cells: Vec<Cell>,
    /// Open-loop global traffic.
    pub traffic: TrafficModel,
    /// Correlated cell-level faults.
    pub cell_faults: Vec<CellFault>,
    /// The autoscaler control loop.
    pub autoscaler: AutoscalerConfig,
    /// The geo load-balancer policy.
    pub geo: GeoPolicy,
    /// Control epoch (load-balancer re-weight + autoscaler decision
    /// cadence), seconds.
    pub epoch_s: f64,
    /// Total simulated time, seconds.
    pub horizon_s: f64,
    /// RNG seed: arrival counts and every per-cell DES derive from it.
    pub seed: u64,
}

impl GlobalConfig {
    /// Checks every knob of every component.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cells.is_empty() {
            return Err(ConfigError::NoCells);
        }
        if !self.epoch_s.is_finite() || self.epoch_s <= 0.0 {
            return Err(ConfigError::InvalidEpoch(self.epoch_s));
        }
        if !self.horizon_s.is_finite() || self.horizon_s <= 0.0 {
            return Err(ConfigError::InvalidHorizon(self.horizon_s));
        }
        let epochs = (self.horizon_s / self.epoch_s).ceil();
        if epochs > MAX_EPOCHS as f64 {
            return Err(ConfigError::TooManyEpochs(epochs));
        }
        self.traffic.validate()?;
        // One epoch's arrivals are one Poisson draw, all of which may
        // land in one cell's DES run, so the largest possible draw must
        // fit that run's request ids.
        let peak = self.traffic.peak_rps() * self.epoch_s;
        if max_poisson_draw(peak) > MAX_REQUESTS as f64 {
            return Err(ConfigError::TooManyEpochArrivals(peak));
        }
        self.autoscaler.validate()?;
        self.geo.validate()?;
        for cell in &self.cells {
            cell.validate()?;
        }
        for f in &self.cell_faults {
            if f.cell >= self.cells.len() {
                return Err(ConfigError::CellFaultOutOfRange {
                    cell: f.cell,
                    cells: self.cells.len(),
                });
            }
            if !f.at_s.is_finite() || f.at_s < 0.0 {
                return Err(ConfigError::InvalidCellFaultWindow(f.at_s));
            }
            if !f.duration_s.is_finite() || f.duration_s <= 0.0 {
                return Err(ConfigError::InvalidCellFaultWindow(f.duration_s));
            }
            if let CellFaultKind::Brownout { fraction } = f.kind {
                if !fraction.is_finite() || fraction <= 0.0 || fraction > 1.0 {
                    return Err(ConfigError::InvalidBrownoutFraction(fraction));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One cell's accounting over the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Requests the static capacity-weighted split attributed to this
    /// cell.
    pub offered: u64,
    /// Requests redirected *into* this cell from others.
    pub redirected_in: u64,
    /// Requests this cell's traffic redirected *out* (placed elsewhere).
    pub redirected_out: u64,
    /// This cell's traffic the geo balancer could place nowhere
    /// (no global headroom); counted as shed at the geo level.
    pub lb_shed: u64,
    /// Requests actually handed to this cell
    /// (`offered - redirected_out - lb_shed + redirected_in`).
    pub assigned: u64,
    /// Requests that finished service here.
    pub completed: u64,
    /// Completions within the cell's deadline (redirect penalty
    /// included for redirected requests).
    pub good: u64,
    /// Requests permanently shed by the cell's own admission control.
    pub shed: u64,
    /// Requests stranded when an epoch's event heap emptied (for
    /// example, every server down). Each epoch runs until every
    /// assigned request resolves, so an epoch boundary drops nothing
    /// (ROADMAP item 4).
    pub dropped: u64,
    /// Requests permanently lost (in-cell server crashes plus
    /// cell-level outage/partition losses).
    pub failed: u64,
    /// Subset of `failed` destroyed by cell-level faults (the
    /// correlated-failure loss, as opposed to in-cell server crashes).
    pub infra_lost: u64,
    /// End-to-end latency stats over this cell's completions (redirect
    /// penalty included).
    pub stats: LatencyStats,
    /// Fold of every epoch's DES metrics ([`ServingMetrics::merge_from`]).
    pub metrics: ServingMetrics,
    /// Most servers ever active.
    pub peak_servers: usize,
    /// Servers active in the final epoch.
    pub final_servers: usize,
    /// Autoscaler scale-up decisions taken for this cell.
    pub scale_ups: u64,
    /// Autoscaler scale-down decisions taken for this cell.
    pub scale_downs: u64,
    /// Σ active servers over epochs (capacity-churn integral; divide by
    /// the epoch count for mean fleet size).
    pub server_epochs: u64,
    /// Simulated seconds this cell was in a (whole-cell) outage.
    pub cell_down_s: f64,
}

impl CellReport {
    /// Per-cell conservation: the DES identity over assigned requests,
    /// and the geo identity reconciling redirects in/out.
    pub fn conservation_holds(&self) -> bool {
        self.assigned == self.completed + self.shed + self.dropped + self.failed
            && self.offered + self.redirected_in
                == self.assigned + self.redirected_out + self.lb_shed
    }
}

/// Autoscaler activity folded over cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AutoscalerReport {
    /// Scale-up decisions across all cells.
    pub scale_ups: u64,
    /// Scale-down decisions across all cells.
    pub scale_downs: u64,
    /// Servers added by scale-ups (capacity churn, up direction).
    pub servers_added: u64,
    /// Servers removed by scale-downs (capacity churn, down direction).
    pub servers_removed: u64,
    /// Most servers ever active globally (in any single epoch).
    pub peak_servers: usize,
    /// Σ active servers over (cell, epoch) pairs.
    pub server_epochs: u64,
}

/// The result of one planet-scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalReport {
    /// Requests the traffic model offered globally.
    pub arrivals: u64,
    /// Requests that finished service somewhere.
    pub completed: u64,
    /// Completions within deadline (redirect penalty included).
    pub good: u64,
    /// Permanently shed: per-cell admission sheds plus geo-level
    /// no-capacity sheds (`lb_shed`).
    pub shed: u64,
    /// Stranded when a cell epoch's event heap emptied; an epoch
    /// boundary drops nothing (see [`CellReport::dropped`]).
    pub dropped: u64,
    /// Permanently lost to server crashes and cell-level faults.
    pub failed: u64,
    /// Cross-cell redirected requests (`Σ redirected_in == Σ
    /// redirected_out`).
    pub redirected: u64,
    /// Geo-level no-capacity sheds (subset of `shed`).
    pub lb_shed: u64,
    /// p50 shorthand over all completions, seconds.
    pub p50_s: f64,
    /// p99 shorthand over all completions, seconds (the global SLO
    /// metric).
    pub p99_s: f64,
    /// Exact global latency stats over every completion (redirect
    /// penalties included).
    pub stats: LatencyStats,
    /// Completions per second of horizon.
    pub throughput_rps: f64,
    /// In-deadline completions per second of horizon.
    pub goodput_rps: f64,
    /// Fraction of offered requests served within deadline
    /// (`good / arrivals`; 1.0 for an idle run) — the availability
    /// number a serving SLA is written against.
    pub availability: f64,
    /// The simulated horizon, seconds.
    pub duration_s: f64,
    /// The seed the run used.
    pub seed: u64,
    /// Fold of every cell's metrics (exact counter/histogram merge; the
    /// per-server vectors fold by index across cells).
    pub metrics: ServingMetrics,
    /// Per-cell accounting.
    pub cells: Vec<CellReport>,
    /// Autoscaler activity.
    pub autoscaler: AutoscalerReport,
}

impl GlobalReport {
    /// Global conservation including redirects: the global identity,
    /// the redirect reconciliation, and every per-cell identity.
    pub fn conservation_holds(&self) -> bool {
        let global = self.arrivals == self.completed + self.shed + self.dropped + self.failed;
        let out: u64 = self.cells.iter().map(|c| c.redirected_out).sum();
        let inn: u64 = self.cells.iter().map(|c| c.redirected_in).sum();
        let lb: u64 = self.cells.iter().map(|c| c.lb_shed).sum();
        global
            && out == inn
            && inn == self.redirected
            && lb == self.lb_shed
            && self.good <= self.completed
            && self.cells.iter().all(CellReport::conservation_holds)
    }
}

// ---------------------------------------------------------------------------
// Deterministic helpers
// ---------------------------------------------------------------------------

/// splitmix64: derives statistically independent sub-seeds from the run
/// seed and a stream index (same expander the multi-seed runner uses).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-seed for stream `(a, b)` of the run seed.
fn mix_seed(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(seed ^ a.wrapping_mul(0xA076_1D64_78BD_642F) ^ b.wrapping_mul(0xE703_7ED1_A0B4_28DB))
}

/// The largest value [`poisson`] returns for a `mean` of 30 or more:
/// its normal draw has |z| < 8.5, because the uniform under the log is
/// at least `f64::EPSILON`, so `sqrt(-2 ln u)` is at most 8.49. Below
/// 30, Knuth inversion has no hard bound, but its chance of drawing
/// even a million is below 1e-300.
fn max_poisson_draw(mean: f64) -> f64 {
    mean + 8.5 * mean.sqrt()
}

/// One Poisson draw. Knuth inversion below mean 30; above that, the
/// normal approximation (error < 1% of σ there, and the epoch counts
/// it feeds are thousands) — both pure functions of the RNG stream.
fn poisson(rng: &mut StdRng, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen_range(f64::EPSILON..1.0);
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(f64::EPSILON..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let v = mean + mean.sqrt() * z;
    if v <= 0.0 {
        0
    } else {
        v.round() as u64
    }
}

/// Exact integer split of `total` proportional to `weights` (largest
/// remainder; ties to the lower index). Returns all zeros when the
/// weights sum to zero — the caller handles the unplaced remainder.
fn split_by_weight(total: u64, weights: &[f64]) -> Vec<u64> {
    let mut out = vec![0u64; weights.len()];
    let wsum: f64 = weights.iter().sum();
    if total == 0 || wsum <= 0.0 || !wsum.is_finite() {
        return out;
    }
    let mut rem: Vec<(f64, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let quota = total as f64 * (w.max(0.0) / wsum);
        let base = quota.floor() as u64;
        out[i] = base;
        assigned += base;
        rem.push((quota - base as f64, i));
    }
    // Largest fractional remainder first; index breaks ties
    // deterministically.
    rem.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut left = total - assigned;
    for &(_, i) in &rem {
        if left == 0 {
            break;
        }
        out[i] += 1;
        left -= 1;
    }
    out
}

/// Overlap length of `[a0, a1)` and `[b0, b1)`.
fn overlap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

/// Merges possibly-overlapping `(start, end)` intervals into a sorted
/// disjoint union.
fn interval_union(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Bresenham-interleaved membership of the first `n` items: `r <= n` of
/// them are marked, item `i` iff the running quota `(i+1)*r/n` advances,
/// which spreads the marks uniformly and deterministically. The running
/// remainder `i*r mod n` replaces the quota's divisions, so each item
/// costs an add and a compare.
fn interleave(r: u64, n: u64) -> impl Iterator<Item = bool> {
    debug_assert!(r <= n, "at most n of n items are marked");
    let mut rem = 0u64;
    std::iter::repeat_with(move || {
        rem += r;
        let marked = rem >= n;
        if marked {
            rem -= n;
        }
        marked
    })
}

// ---------------------------------------------------------------------------
// The orchestrator
// ---------------------------------------------------------------------------

/// Per-cell mutable control-plane state.
struct CellState {
    active: usize,
    /// Scale-ups in flight: `(due_epoch, servers)`.
    pending_up: Vec<(usize, usize)>,
    offered: u64,
    red_in: u64,
    red_out: u64,
    lb_shed: u64,
    assigned: u64,
    completed: u64,
    good: u64,
    shed: u64,
    dropped: u64,
    failed: u64,
    infra_lost: u64,
    scale_ups: u64,
    scale_downs: u64,
    servers_added: u64,
    servers_removed: u64,
    peak: usize,
    server_epochs: u64,
    /// This cell's `(start, end)` runs of the run-wide sample store, one
    /// per epoch it completed requests in.
    ranges: Vec<(usize, usize)>,
    metrics: ServingMetrics,
}

/// The per-cell telemetry track.
fn cell_track(c: usize) -> Track {
    Track {
        name: "cell",
        index: c as u32,
    }
}

/// The geo load-balancer telemetry track.
const GEO: Track = Track {
    name: "geo",
    index: 0,
};

/// Simulates the global fleet: the geo load-balancer, cell faults, and
/// the autoscaler around per-cell DES runs.
///
/// Pure in `(latency, cfg)` — the same inputs reproduce a bit-identical
/// [`GlobalReport`], which is what makes `MultiSeedRunner` envelopes
/// and `--jobs` parallelism sound on top of it.
///
/// # Errors
///
/// [`ConfigError`] for any degenerate knob (see
/// [`GlobalConfig::validate`]).
pub fn simulate_global(
    latency: &LatencyModel,
    cfg: &GlobalConfig,
) -> Result<GlobalReport, ConfigError> {
    cfg.validate()?;
    Ok(run_global(latency, cfg, NullSink))
}

/// [`simulate_global`] with cell-scoped telemetry recorded: cell-down
/// spans (`cell_outage` / `cell_brownout` / `cell_partition`) on each
/// cell's track, per-epoch redirect and geo-shed instants, autoscaler
/// decision instants, and summary counters.
///
/// Telemetry is derived-only: the returned report is bit-identical to
/// [`simulate_global`]'s for the same inputs. Per-request lifecycle
/// tracing stays at the per-cell level
/// ([`crate::des::simulate_fleet_recorded`]); recording every request
/// of a planet-scale run would swamp the flight recorder.
///
/// # Errors
///
/// [`ConfigError`] for any degenerate knob.
pub fn simulate_global_recorded(
    latency: &LatencyModel,
    cfg: &GlobalConfig,
    recorder: &mut Recorder,
) -> Result<GlobalReport, ConfigError> {
    cfg.validate()?;
    let report = run_global(latency, cfg, &mut *recorder);
    recorder.add_counter("global_arrivals", report.arrivals);
    recorder.add_counter("global_completed", report.completed);
    recorder.add_counter("global_redirected", report.redirected);
    recorder.add_counter("global_lb_shed", report.lb_shed);
    recorder.add_counter("autoscaler_scale_ups", report.autoscaler.scale_ups);
    recorder.add_counter("autoscaler_scale_downs", report.autoscaler.scale_downs);
    Ok(report)
}

fn run_global<S: EventSink>(
    latency: &LatencyModel,
    cfg: &GlobalConfig,
    mut sink: S,
) -> GlobalReport {
    let n_cells = cfg.cells.len();
    let epochs = (cfg.horizon_s / cfg.epoch_s).ceil().max(1.0) as usize;

    // --- Setup: per-cell fault geometry --------------------------------
    // Dark windows (requests destroyed): outage ∪ partition per cell.
    let mut dark: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_cells];
    // Outage-only windows (hardware downtime accounting).
    let mut outage: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_cells];
    // Brownouts stay as raw windows (they synthesize per-server faults).
    let mut brownouts: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); n_cells];
    // Geo belief, epoch-major: believed[e][c] = cell believed down.
    let mut believed = vec![vec![false; n_cells]; epochs];
    for (fi, f) in cfg.cell_faults.iter().enumerate() {
        let end = f.at_s + f.duration_s;
        // Begin/End pair per fault on the victim cell's track; the
        // stream is balanced by construction.
        for (phase, t_s) in [(SpanPhase::Begin, f.at_s), (SpanPhase::End, end)] {
            sink.emit(t_s, cell_track(f.cell), phase, f.kind.name(), fi as u64, 0);
        }
        match f.kind {
            CellFaultKind::Brownout { fraction } => {
                brownouts[f.cell].push((f.at_s, end, fraction));
                continue;
            }
            CellFaultKind::Outage => {
                outage[f.cell].push((f.at_s, end));
                dark[f.cell].push((f.at_s, end));
            }
            CellFaultKind::Partition => dark[f.cell].push((f.at_s, end)),
        }
        // The balancer believes the cell down `detect_epochs` after the
        // first epoch the fault touches, through the last it touches.
        if f.at_s < cfg.horizon_s {
            let first = (f.at_s / cfg.epoch_s).floor() as usize;
            let last = ((end / cfg.epoch_s).ceil() as usize).saturating_sub(1);
            let from = (first + cfg.geo.detect_epochs).min(epochs);
            for row in believed.iter_mut().take(last + 1).skip(from) {
                row[f.cell] = true;
            }
        }
    }
    let dark: Vec<Vec<(f64, f64)>> = dark.into_iter().map(interval_union).collect();
    let outage: Vec<Vec<(f64, f64)>> = outage.into_iter().map(interval_union).collect();

    // --- Setup: per-cell control-plane state ---------------------------
    let mut st: Vec<CellState> = cfg
        .cells
        .iter()
        .map(|c| CellState {
            active: c.initial_servers,
            pending_up: Vec::new(),
            offered: 0,
            red_in: 0,
            red_out: 0,
            lb_shed: 0,
            assigned: 0,
            completed: 0,
            good: 0,
            shed: 0,
            dropped: 0,
            failed: 0,
            infra_lost: 0,
            scale_ups: 0,
            scale_downs: 0,
            servers_added: 0,
            servers_removed: 0,
            peak: c.initial_servers,
            server_epochs: 0,
            ranges: Vec::new(),
            metrics: ServingMetrics::new(c.max_servers),
        })
        .collect();

    let mut arrival_rng = StdRng::seed_from_u64(mix_seed(cfg.seed, 0x7F1E, 0));
    // Every completion's end-to-end latency, held once: epoch-major,
    // cells in index order within an epoch, completion order within a
    // cell epoch. Each cell keeps `(start, end)` ranges into it.
    let mut store: Vec<f64> = Vec::new();
    let mut arrivals_total = 0u64;
    let mut peak_global = 0usize;

    // --- The control loop ----------------------------------------------
    for (e, believed_e) in believed.iter().enumerate() {
        let t0 = e as f64 * cfg.epoch_s;
        let t1 = (t0 + cfg.epoch_s).min(cfg.horizon_s);
        let dt = t1 - t0;
        if dt <= 0.0 {
            break;
        }

        // Land scale-ups that are due, then account this epoch's size.
        let mut active_sum = 0usize;
        for (c, s) in st.iter_mut().enumerate() {
            let max = cfg.cells[c].max_servers;
            let mut landed = 0usize;
            s.pending_up.retain(|&(due, k)| {
                if due <= e {
                    landed += k;
                    false
                } else {
                    true
                }
            });
            s.active = (s.active + landed).min(max);
            s.peak = s.peak.max(s.active);
            s.server_epochs += s.active as u64;
            active_sum += s.active;
        }
        peak_global = peak_global.max(active_sum);

        // Offered load this epoch: one Poisson draw at the midpoint
        // rate, split by believed capacity.
        let mean = cfg.traffic.rate_at(t0 + dt / 2.0) * dt;
        let count = poisson(&mut arrival_rng, mean);
        arrivals_total += count;
        let weights: Vec<f64> = st
            .iter()
            .enumerate()
            .map(|(c, s)| s.active as f64 * cfg.cells[c].capacity_per_server_rps)
            .collect();
        let offered = split_by_weight(count, &weights);

        // Geo failover pass: move traffic off believed-down cells and
        // overloaded cells, place the pool into surviving headroom.
        let quota: Vec<u64> = st
            .iter()
            .enumerate()
            .map(|(c, s)| {
                (cfg.geo.overload_threshold
                    * s.active as f64
                    * cfg.cells[c].capacity_per_server_rps
                    * dt)
                    .floor() as u64
            })
            .collect();
        let mut kept = offered.clone();
        let mut moved = vec![0u64; n_cells];
        if cfg.geo.failover {
            for c in 0..n_cells {
                if believed_e[c] {
                    moved[c] = offered[c];
                    kept[c] = 0;
                } else if offered[c] > quota[c] {
                    moved[c] = offered[c] - quota[c];
                    kept[c] = quota[c];
                }
            }
        }
        let pool: u64 = moved.iter().sum();
        let (red_in, red_out, lb_shed) = if pool > 0 {
            let headroom: Vec<u64> = (0..n_cells)
                .map(|c| {
                    if believed_e[c] {
                        0
                    } else {
                        quota[c].saturating_sub(kept[c])
                    }
                })
                .collect();
            let total_headroom: u64 = headroom.iter().sum();
            let placeable = pool.min(total_headroom);
            let head_w: Vec<f64> = headroom.iter().map(|&h| h as f64).collect();
            let red_in = split_by_weight(placeable, &head_w);
            let moved_w: Vec<f64> = moved.iter().map(|&m| m as f64).collect();
            let red_out = split_by_weight(placeable, &moved_w);
            let lb_shed: Vec<u64> = (0..n_cells).map(|c| moved[c] - red_out[c]).collect();
            (red_in, red_out, lb_shed)
        } else {
            (vec![0; n_cells], vec![0; n_cells], vec![0; n_cells])
        };

        // Per-cell epoch: destroy the dark share, run the DES slice,
        // apply redirect penalties, account, autoscale.
        for c in 0..n_cells {
            let cell = &cfg.cells[c];
            let s = &mut st[c];
            let assigned = kept[c] + red_in[c];
            s.offered += offered[c];
            s.red_in += red_in[c];
            s.red_out += red_out[c];
            s.lb_shed += lb_shed[c];
            s.assigned += assigned;
            if red_in[c] > 0 {
                sink.emit(
                    t0,
                    cell_track(c),
                    SpanPhase::Instant,
                    "redirect_in",
                    0,
                    red_in[c] as i64,
                );
            }
            if red_out[c] > 0 {
                sink.emit(
                    t0,
                    cell_track(c),
                    SpanPhase::Instant,
                    "redirect_out",
                    0,
                    red_out[c] as i64,
                );
            }
            if lb_shed[c] > 0 {
                // The id names the cell whose traffic the balancer shed.
                let shed = lb_shed[c] as i64;
                sink.emit(t0, GEO, SpanPhase::Instant, "lb_shed", c as u64, shed);
            }

            // Correlated loss: the fraction of the epoch the cell is
            // dark destroys that share of its assigned requests.
            let dark_s: f64 = dark[c].iter().map(|&(a, b)| overlap(a, b, t0, t1)).sum();
            let dark_frac = (dark_s / dt).clamp(0.0, 1.0);
            let lost = ((assigned as f64 * dark_frac).round() as u64).min(assigned);
            if lost > 0 {
                s.infra_lost += lost;
                s.failed += lost;
                sink.emit(
                    t0,
                    cell_track(c),
                    SpanPhase::Instant,
                    "infra_lost",
                    0,
                    lost as i64,
                );
            }
            let n_run = assigned - lost;

            let mut util = 0.0f64;
            if n_run > 0 {
                // This epoch's brownout crashes on the top servers.
                let mut crashes: Vec<ScheduledFault> = Vec::new();
                for &(b0, b1, fraction) in &brownouts[c] {
                    let o = overlap(b0, b1, t0, t1);
                    if o <= 1e-9 {
                        continue;
                    }
                    let k = ((fraction * s.active as f64).ceil() as usize).min(s.active);
                    let start = (b0.max(t0)) - t0;
                    for victim in (s.active - k)..s.active {
                        crashes.push(ScheduledFault {
                            server: victim,
                            at_s: start,
                            kind: FaultKind::Crash { mttr_s: o },
                        });
                    }
                }
                let plan = FaultPlan::scheduled(crashes);

                let mut fc = cell.fleet;
                fc.pool.servers = s.active;
                fc.pool.base.requests = n_run as usize;
                // A subnormal slice overflows `n_run / dt`; the largest
                // finite rate lands its arrivals at the start all the same.
                fc.pool.base.arrival_rate_rps = (n_run as f64 / dt).min(f64::MAX);
                fc.pool.base.seed = mix_seed(cfg.seed, (e as u64) << 16 | 0xCE11, c as u64);
                // The template, slice, and substitutions were validated
                // up front; a failure here is a bug, not bad input.
                let start = store.len();
                let r = simulate_cell_epoch(latency, &fc, &plan, &mut store)
                    .expect("validated per-cell config");
                debug_assert_eq!(
                    n_run as usize,
                    r.completed + r.shed + r.dropped + r.failed,
                    "per-cell DES conservation"
                );
                debug_assert_eq!(
                    store.len() - start,
                    r.completed,
                    "one sample per completion"
                );

                // Redirected requests pay the WAN penalty: mark a
                // uniformly interleaved subset of completions matching
                // the redirected share of this epoch's run. One pass
                // over the new samples applies it in place and counts
                // the completions within the deadline.
                let r_eff = if assigned > 0 {
                    ((red_in[c] as u128 * n_run as u128 + assigned as u128 / 2) / assigned as u128)
                        as u64
                } else {
                    0
                };
                let penalty = cfg.geo.redirect_latency_s;
                let deadline = cell.fleet.policy.deadline_s;
                for (lat, redirected) in store[start..].iter_mut().zip(interleave(r_eff, n_run)) {
                    if redirected {
                        *lat += penalty;
                    }
                    if deadline.is_none_or(|d| *lat <= d) {
                        s.good += 1;
                    }
                }
                s.ranges.push((start, store.len()));
                s.completed += r.completed as u64;
                s.shed += r.shed as u64;
                s.dropped += r.dropped as u64;
                s.failed += r.failed as u64;
                s.metrics.merge_from(&r.metrics);
                util = r.utilization;
            }

            // Autoscaler: steer toward the utilization target using
            // this epoch's measurement. Decisions count capacity
            // already in flight, scale-ups land after the provisioning
            // lag, scale-downs next epoch.
            let a = &cfg.autoscaler;
            if a.enabled && a.step_servers > 0 && !believed_e[c] {
                let committed = s.active + s.pending_up.iter().map(|&(_, k)| k).sum::<usize>();
                let desired = ((s.active as f64 * util) / a.target_utilization).ceil() as i64;
                let desired = desired.clamp(cell.min_servers as i64, cell.max_servers as i64);
                let step = a.step_servers as i64;
                let delta = (desired - committed as i64).clamp(-step, step);
                if delta > 0 {
                    s.pending_up
                        .push((e + 1 + a.provisioning_lag_epochs, delta as usize));
                    s.scale_ups += 1;
                    s.servers_added += delta as u64;
                    sink.emit(t1, cell_track(c), SpanPhase::Instant, "autoscale", 0, delta);
                } else if delta < 0 && s.active > cell.min_servers {
                    let down = (-delta as usize).min(s.active - cell.min_servers);
                    if down > 0 {
                        s.active -= down;
                        s.scale_downs += 1;
                        s.servers_removed += down as u64;
                        sink.emit(
                            t1,
                            cell_track(c),
                            SpanPhase::Instant,
                            "autoscale",
                            0,
                            -(down as i64),
                        );
                    }
                }
            }
        }
    }

    // --- Fold ----------------------------------------------------------
    let mut metrics = ServingMetrics::new(0);
    let mut auto = AutoscalerReport {
        peak_servers: peak_global,
        ..AutoscalerReport::default()
    };
    let mut cells_out: Vec<CellReport> = Vec::with_capacity(n_cells);
    let (mut completed, mut good, mut shed, mut dropped, mut failed) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut redirected, mut lb_shed_total) = (0u64, 0u64);
    // Each cell's stats select in one gather buffer, reused across
    // cells; the global stats then select in place on the store. The
    // store first gives back its growth slack, which the gather can use.
    store.shrink_to_fit();
    let longest = st.iter().map(|s| s.completed).max().unwrap_or(0);
    let mut gather: Vec<f64> = Vec::with_capacity(longest as usize);
    for (c, s) in st.into_iter().enumerate() {
        metrics.merge_from(&s.metrics);
        completed += s.completed;
        good += s.good;
        shed += s.shed + s.lb_shed;
        dropped += s.dropped;
        failed += s.failed;
        redirected += s.red_in;
        lb_shed_total += s.lb_shed;
        auto.scale_ups += s.scale_ups;
        auto.scale_downs += s.scale_downs;
        auto.servers_added += s.servers_added;
        auto.servers_removed += s.servers_removed;
        auto.server_epochs += s.server_epochs;
        let down_s: f64 = outage[c]
            .iter()
            .map(|&(a, b)| overlap(a, b, 0.0, cfg.horizon_s))
            .sum();
        gather.clear();
        for &(a, b) in &s.ranges {
            gather.extend_from_slice(&store[a..b]);
        }
        cells_out.push(CellReport {
            offered: s.offered,
            redirected_in: s.red_in,
            redirected_out: s.red_out,
            lb_shed: s.lb_shed,
            assigned: s.assigned,
            completed: s.completed,
            good: s.good,
            shed: s.shed,
            dropped: s.dropped,
            failed: s.failed,
            infra_lost: s.infra_lost,
            stats: LatencyStats::from_scratch(&mut gather),
            metrics: s.metrics,
            peak_servers: s.peak,
            final_servers: s.active,
            scale_ups: s.scale_ups,
            scale_downs: s.scale_downs,
            server_epochs: s.server_epochs,
            cell_down_s: down_s,
        });
    }
    let stats = LatencyStats::from_scratch(&mut store);
    let horizon = cfg.horizon_s.max(1e-12);
    let report = GlobalReport {
        arrivals: arrivals_total,
        completed,
        good,
        shed,
        dropped,
        failed,
        redirected,
        lb_shed: lb_shed_total,
        p50_s: stats.p50_s,
        p99_s: stats.p99_s,
        stats,
        throughput_rps: completed as f64 / horizon,
        goodput_rps: good as f64 / horizon,
        availability: if arrivals_total > 0 {
            good as f64 / arrivals_total as f64
        } else {
            1.0
        },
        duration_s: cfg.horizon_s,
        seed: cfg.seed,
        metrics,
        cells: cells_out,
        autoscaler: auto,
    };
    debug_assert!(
        report.conservation_holds(),
        "global request conservation violated"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{FleetPolicy, PoolConfig, RetryPolicy, ServingConfig, MAX_SERVERS};

    fn model() -> LatencyModel {
        LatencyModel::from_points(vec![(1, 0.001), (128, 0.008)]).expect("valid model")
    }

    fn cell_template(servers: usize) -> FleetConfig {
        let base = ServingConfig {
            arrival_rate_rps: 1.0, // overwritten per epoch
            max_batch: 16,
            batch_timeout_s: 0.002,
            requests: 1, // overwritten per epoch
            seed: 0,     // overwritten per epoch
        };
        FleetConfig::new(PoolConfig { base, servers }).with_policy(FleetPolicy {
            deadline_s: Some(0.05),
            shed_expired: true,
            queue_budget_s: Some(0.04),
            queue_cap: Some(256),
            retry: RetryPolicy {
                max_retries: 1,
                backoff_s: 0.002,
                backoff_mult: 2.0,
            },
        })
    }

    fn small_config(seed: u64) -> GlobalConfig {
        let cell = |servers: usize| Cell::new(cell_template(servers), 2500.0, servers * 2);
        GlobalConfig {
            cells: vec![cell(2), cell(3), cell(2)],
            traffic: TrafficModel::diurnal(9000.0, 0.3, 1.0).with_flash(0.4, 0.2, 1.8),
            cell_faults: vec![CellFault {
                cell: 0,
                // Mid-epoch start: part of the epoch goes dark before
                // the balancer's detection lag elapses.
                at_s: 0.33,
                duration_s: 0.32,
                kind: CellFaultKind::Outage,
            }],
            autoscaler: AutoscalerConfig::default(),
            geo: GeoPolicy {
                // WAN redirect penalty well inside the 50 ms deadline.
                redirect_latency_s: 0.01,
                ..GeoPolicy::default()
            },
            epoch_s: 0.1,
            horizon_s: 1.0,
            seed,
        }
    }

    #[test]
    fn traffic_validation_rejects_bad_knobs() {
        let ok = TrafficModel::diurnal(100.0, 0.4, 10.0);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.base_rps = 0.0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidTrafficRate(_))
        ));
        let mut bad = ok.clone();
        bad.diurnal_amplitude = 1.0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidDiurnalAmplitude(_))
        ));
        let mut bad = ok.clone();
        bad.period_s = -1.0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidTrafficPeriod(_))
        ));
        let bad = ok.clone().with_flash(0.0, 1.0, 0.0);
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidFlashMultiplier(_))
        ));
        let bad = ok.with_flash(-1.0, 1.0, 2.0);
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidFlashWindow(_))
        ));
    }

    #[test]
    fn traffic_rate_shape() {
        let tm = TrafficModel::diurnal(1000.0, 0.5, 100.0).with_flash(200.0, 10.0, 3.0);
        // Peak of the sinusoid: t + 0 at quarter period.
        assert!((tm.rate_at(25.0) - 1500.0).abs() < 1e-6);
        // Trough at three quarters.
        assert!((tm.rate_at(75.0) - 500.0).abs() < 1e-6);
        // Flash multiplies the diurnal rate inside its window only.
        assert!((tm.rate_at(205.0) - 3.0 * tm.rate_at(105.0)).abs() < 1e-6);
        assert!(tm.rate_at(211.0) < 1500.0);
    }

    #[test]
    fn split_by_weight_is_exact() {
        for total in [0u64, 1, 7, 100, 12345] {
            let w = [3.0, 1.0, 0.0, 2.5];
            let parts = split_by_weight(total, &w);
            assert_eq!(parts.iter().sum::<u64>(), total, "total {total}");
            assert_eq!(parts[2], 0, "zero weight gets nothing");
        }
        // Zero weights: nothing placed (caller sheds the remainder).
        assert_eq!(split_by_weight(10, &[0.0, 0.0]), vec![0, 0]);
    }

    #[test]
    fn interleave_marks_exactly_r_of_n() {
        // The closed form: item `i` is marked iff `(i+1)*r/n` advances.
        let quota_advances = |i: u64, r: u64, n: u64| (i + 1) * r / n > i * r / n;
        for n in 0..=64u64 {
            for r in 0..=n {
                let marks: Vec<bool> = interleave(r, n).take(n as usize).collect();
                let want: Vec<bool> = (0..n).map(|i| quota_advances(i, r, n)).collect();
                assert_eq!(marks, want, "r={r} n={n}");
                assert_eq!(
                    marks.iter().filter(|&&m| m).count() as u64,
                    r,
                    "r={r} n={n}"
                );
            }
        }
    }

    #[test]
    fn global_run_conserves_and_reconciles_redirects() {
        let r = simulate_global(&model(), &small_config(11)).expect("valid config");
        assert!(r.conservation_holds());
        assert!(r.arrivals > 0);
        assert!(r.completed > 0);
        // The outage destroyed traffic before detection.
        assert!(r.cells[0].infra_lost > 0);
        // Detection moved traffic: someone received redirects.
        assert!(r.redirected > 0);
        assert_eq!(
            r.redirected,
            r.cells.iter().map(|c| c.redirected_out).sum::<u64>()
        );
        // Good never exceeds completed; availability in [0, 1].
        assert!(r.good <= r.completed);
        assert!((0.0..=1.0).contains(&r.availability));
    }

    #[test]
    fn determinism_pure_in_config_and_seed() {
        let a = simulate_global(&model(), &small_config(7)).expect("valid");
        let b = simulate_global(&model(), &small_config(7)).expect("valid");
        assert_eq!(a, b);
        let c = simulate_global(&model(), &small_config(8)).expect("valid");
        assert_ne!(a.arrivals, c.arrivals);
    }

    #[test]
    fn recorded_report_is_bit_identical_and_balanced() {
        let cfg = small_config(13);
        let plain = simulate_global(&model(), &cfg).expect("valid");
        let mut rec = Recorder::new();
        let traced = simulate_global_recorded(&model(), &cfg, &mut rec).expect("valid");
        assert_eq!(plain, traced);
        assert!(rec.counter("global_arrivals") == plain.arrivals);
        let events: Vec<_> = rec.events().cloned().collect();
        tpu_telemetry::span_balance(&events).expect("balanced cell spans");
        // Cell-down span present on the faulted cell's track.
        assert!(events
            .iter()
            .any(|ev| ev.track == cell_track(0) && ev.name == "cell_outage"));
    }

    #[test]
    fn failover_beats_serve_through_across_cell_loss() {
        let mut on = small_config(21);
        on.geo.failover = true;
        let mut off = on.clone();
        off.geo.failover = false;
        let r_on = simulate_global(&model(), &on).expect("valid");
        let r_off = simulate_global(&model(), &off).expect("valid");
        assert!(r_on.conservation_holds() && r_off.conservation_holds());
        // Geo failover routes around the detected outage: strictly
        // fewer correlated losses and higher goodput.
        assert!(r_on.cells[0].infra_lost < r_off.cells[0].infra_lost);
        assert!(r_on.good > r_off.good);
        // Serve-through never redirects.
        assert_eq!(r_off.redirected, 0);
    }

    #[test]
    fn autoscaler_tracks_load_within_bounds() {
        let mut cfg = small_config(5);
        cfg.cell_faults.clear();
        cfg.autoscaler = AutoscalerConfig {
            enabled: true,
            target_utilization: 0.5,
            step_servers: 2,
            provisioning_lag_epochs: 1,
        };
        // Overload hard so the autoscaler must grow.
        cfg.traffic.base_rps = 30_000.0;
        let r = simulate_global(&model(), &cfg).expect("valid");
        assert!(r.conservation_holds());
        assert!(r.autoscaler.scale_ups > 0);
        for (c, cr) in r.cells.iter().enumerate() {
            assert!(
                cr.peak_servers <= cfg.cells[c].max_servers,
                "cell {c} peaked at {} > max {}",
                cr.peak_servers,
                cfg.cells[c].max_servers
            );
            assert!(cr.final_servers >= cfg.cells[c].min_servers);
        }
        // Frozen autoscaler never moves.
        cfg.autoscaler.enabled = false;
        let frozen = simulate_global(&model(), &cfg).expect("valid");
        assert_eq!(frozen.autoscaler.scale_ups, 0);
        assert_eq!(frozen.autoscaler.scale_downs, 0);
        for (c, cr) in frozen.cells.iter().enumerate() {
            assert_eq!(cr.peak_servers, cfg.cells[c].initial_servers);
        }
    }

    #[test]
    fn brownout_crashes_servers_inside_a_reachable_cell() {
        let mut cfg = small_config(3);
        cfg.cell_faults = vec![CellFault {
            cell: 1,
            at_s: 0.2,
            duration_s: 0.3,
            kind: CellFaultKind::Brownout { fraction: 0.5 },
        }];
        let r = simulate_global(&model(), &cfg).expect("valid");
        assert!(r.conservation_holds());
        // Brownout synthesizes real crashes inside the cell: its DES
        // metrics saw injected failures, and the geo level lost nothing
        // (the cell stayed reachable).
        assert!(r.cells[1].metrics.failures_injected.get() > 0);
        assert_eq!(r.cells[1].infra_lost, 0);
        assert_eq!(r.cells[1].cell_down_s, 0.0);
    }

    #[test]
    fn global_metrics_are_exact_cell_folds() {
        let r = simulate_global(&model(), &small_config(17)).expect("valid");
        let mut folded = ServingMetrics::new(0);
        for c in &r.cells {
            folded.merge_from(&c.metrics);
        }
        assert_eq!(folded, r.metrics);
        // DES-level arrivals equal the globally assigned-and-run share.
        let run_total: u64 = r.cells.iter().map(|c| c.assigned - c.infra_lost).sum();
        assert_eq!(folded.arrivals.get(), run_total);
    }

    #[test]
    fn config_validation_rejects_degenerates() {
        let ok = small_config(1);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.cells.clear();
        assert!(matches!(bad.validate(), Err(ConfigError::NoCells)));
        let mut bad = ok.clone();
        bad.epoch_s = 0.0;
        assert!(matches!(bad.validate(), Err(ConfigError::InvalidEpoch(_))));
        let mut bad = ok.clone();
        bad.horizon_s = f64::NAN;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidHorizon(_))
        ));
        let mut bad = ok.clone();
        bad.cell_faults[0].cell = 99;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::CellFaultOutOfRange { cell: 99, cells: 3 })
        ));
        let mut bad = ok.clone();
        bad.cell_faults[0].duration_s = -1.0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidCellFaultWindow(_))
        ));
        let mut bad = ok.clone();
        bad.cell_faults[0].kind = CellFaultKind::Brownout { fraction: 1.5 };
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidBrownoutFraction(_))
        ));
        let mut bad = ok.clone();
        bad.cells[0].min_servers = 0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidCellServers { .. })
        ));
        let mut bad = ok.clone();
        bad.cells[0].capacity_per_server_rps = 0.0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidCellCapacity(_))
        ));
        let mut bad = ok.clone();
        bad.autoscaler.target_utilization = 0.0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidUtilizationTarget(_))
        ));
        let mut bad = ok;
        bad.geo.overload_threshold = 0.0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidRedirectThreshold(_))
        ));
    }

    #[test]
    fn cell_ceiling_past_the_server_id_space_is_a_typed_error() {
        // Every per-cell DES run must validate, and the autoscaler may
        // grow a cell to its ceiling, so the ceiling obeys the pool's
        // server bound.
        let mut cfg = small_config(1);
        cfg.cells[1].max_servers = MAX_SERVERS + 1;
        assert_eq!(
            simulate_global(&model(), &cfg),
            Err(ConfigError::TooManyServers(MAX_SERVERS + 1))
        );
    }

    #[test]
    fn epoch_count_past_the_bound_is_a_typed_error() {
        // Regression: this validated, and sizing the geo belief table at
        // ceil(horizon_s / epoch_s) rows then overflowed its capacity.
        let mut cfg = small_config(1);
        cfg.epoch_s = 1e-300;
        cfg.horizon_s = 1.0;
        assert!(matches!(
            simulate_global(&model(), &cfg),
            Err(ConfigError::TooManyEpochs(_))
        ));
        cfg.epoch_s = 1.0 / MAX_EPOCHS as f64;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn epoch_arrivals_past_the_request_id_space_are_a_typed_error() {
        // Regression: this validated, then its one epoch drew about
        // 5.9e9 arrivals for one cell, and that cell's DES run failed
        // its "validated per-cell config" expectation.
        let cell = Cell::new(cell_template(2), 2500.0, 2);
        let mut cfg = GlobalConfig {
            cells: vec![cell; 2],
            traffic: TrafficModel::diurnal(1e10, 0.35, 1.2),
            cell_faults: Vec::new(),
            autoscaler: AutoscalerConfig::default(),
            geo: GeoPolicy {
                failover: false,
                ..GeoPolicy::default()
            },
            epoch_s: 1.0,
            horizon_s: 1.0,
            seed: 1,
        };
        assert!(matches!(
            simulate_global(&model(), &cfg),
            Err(ConfigError::TooManyEpochArrivals(peak)) if peak == 1.35e10
        ));
        // Just inside the bound: the largest draw at a peak mean of
        // 4.05e9 fits the id space.
        cfg.traffic.base_rps = 3.0e9;
        assert_eq!(cfg.validate(), Ok(()));
        // A flash crowd raises the peak.
        cfg.traffic = cfg.traffic.with_flash(0.5, 0.1, 2.0);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TooManyEpochArrivals(_))
        ));
    }

    #[test]
    fn subnormal_epoch_slice_keeps_the_cell_rate_finite() {
        // Regression: near-f64::MAX traffic over a subnormal epoch drew
        // one arrival here, the cell's rate 1 / dt overflowed to inf,
        // and its DES run failed the "validated per-cell config"
        // expectation.
        let cfg = GlobalConfig {
            cells: vec![Cell::new(cell_template(2), 2500.0, 2)],
            traffic: TrafficModel::diurnal(1e308, 0.0, 1.0),
            cell_faults: Vec::new(),
            autoscaler: AutoscalerConfig::default(),
            geo: GeoPolicy {
                failover: false,
                ..GeoPolicy::default()
            },
            epoch_s: 1e-310,
            horizon_s: 1e-310,
            seed: 155,
        };
        let r = simulate_global(&model(), &cfg).expect("valid");
        assert_eq!(r.arrivals, 1);
        assert_eq!(r.completed, 1);
        assert!(r.conservation_holds());
    }

    #[test]
    fn partition_loses_requests_but_not_uptime() {
        let mut cfg = small_config(9);
        cfg.cell_faults = vec![CellFault {
            cell: 2,
            at_s: 0.2,
            duration_s: 0.3,
            kind: CellFaultKind::Partition,
        }];
        let r = simulate_global(&model(), &cfg).expect("valid");
        assert!(r.conservation_holds());
        assert!(r.cells[2].infra_lost > 0);
        // Partition is reachability, not hardware downtime.
        assert_eq!(r.cells[2].cell_down_s, 0.0);
    }
}
