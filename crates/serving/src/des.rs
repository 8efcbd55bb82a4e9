//! The discrete-event serving loop: Poisson arrivals, dynamic batching,
//! and the fleet-grade machinery production SLOs are set against —
//! per-request deadlines, admission control (load shedding),
//! retry-with-backoff (Lesson 10), and fault injection with health
//! checking and failover (see [`crate::faults`]).
//!
//! Every server owns its queue and a round-robin router spreads arrivals
//! over the replicas it believes are up; with failover enabled a health
//! checker updates that belief, drains dead servers' queues, and
//! redistributes their requests. In-flight work killed by a crash enters
//! the `failed` terminal state.
//!
//! Every entry point validates its configuration up front and returns a
//! typed [`ConfigError`] for degenerate inputs (`max_batch: 0`,
//! non-positive arrival rates, NaNs) instead of hanging or panicking.
//! Every run satisfies request conservation:
//! `arrivals == completed + shed + dropped + failed` (see
//! [`ServingReport::conservation_holds`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpu_sim::TimeKey;
use tpu_telemetry::{EventSink, NullSink, Recorder, SpanPhase, Track};

use crate::faults::{FailoverConfig, FaultKind, FaultPlan, ScheduledFault};
use crate::latency::LatencyModel;
use crate::metrics::ServingMetrics;
use crate::stats::LatencyStats;

pub use crate::generation::{
    simulate_generation, simulate_generation_recorded, BatchingMode, GenConfig, GenReport,
};

/// Configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Mean request arrival rate (Poisson), requests/second.
    pub arrival_rate_rps: f64,
    /// Largest batch the server will form.
    pub max_batch: u64,
    /// How long the server waits for a batch to fill before launching a
    /// partial one, seconds.
    pub batch_timeout_s: f64,
    /// Number of requests to simulate.
    pub requests: usize,
    /// RNG seed (runs are deterministic given a seed).
    pub seed: u64,
}

impl ServingConfig {
    /// The same configuration served by a pool of `servers` identical
    /// chips (see [`FleetConfig::new`]).
    pub fn with_servers(self, servers: usize) -> PoolConfig {
        PoolConfig {
            base: self,
            servers: servers.max(1),
        }
    }

    /// Checks every knob, returning the first problem found.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for a non-positive or non-finite arrival rate, a
    /// zero batch cap, a negative or non-finite batch timeout, or a
    /// request count of zero or past [`MAX_REQUESTS`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.arrival_rate_rps.is_finite() || self.arrival_rate_rps <= 0.0 {
            return Err(ConfigError::NonPositiveArrivalRate(self.arrival_rate_rps));
        }
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if !self.batch_timeout_s.is_finite() || self.batch_timeout_s < 0.0 {
            return Err(ConfigError::InvalidBatchTimeout(self.batch_timeout_s));
        }
        validate_requests(self.requests)
    }
}

/// A pool of identical servers, each with its own queue, behind a
/// round-robin router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConfig {
    /// Per-run knobs shared with the single-server simulation.
    pub base: ServingConfig,
    /// Number of identical chips serving.
    pub servers: usize,
}

impl PoolConfig {
    /// Validates the base config and the pool size.
    ///
    /// # Errors
    ///
    /// Everything [`ServingConfig::validate`] rejects, plus
    /// [`ConfigError::ZeroServers`] and [`ConfigError::TooManyServers`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.base.validate()?;
        if self.servers == 0 {
            return Err(ConfigError::ZeroServers);
        }
        if self.servers > MAX_SERVERS {
            return Err(ConfigError::TooManyServers(self.servers));
        }
        Ok(())
    }
}

/// Most requests one run simulates: the engines store request ids as
/// `u32` and keep `u32::MAX` out of range.
pub const MAX_REQUESTS: usize = u32::MAX as usize - 1;

/// Most servers one pool holds: a server id packs into 29 bits of the
/// fleet engine's per-request state word.
pub const MAX_SERVERS: usize = (1 << 29) - 1;

/// The request-count check shared by the fleet and decode-loop configs.
pub(crate) fn validate_requests(requests: usize) -> Result<(), ConfigError> {
    if requests == 0 {
        return Err(ConfigError::ZeroRequests);
    }
    if requests > MAX_REQUESTS {
        return Err(ConfigError::TooManyRequests(requests));
    }
    Ok(())
}

/// Failure-injection knobs: occasional slow service (thermal throttling,
/// host interference). A batch is independently a straggler with
/// probability `probability`, multiplying its service time by `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stragglers {
    /// Per-batch straggler probability in [0, 1].
    pub probability: f64,
    /// Service-time multiplier for straggler batches (>= 1).
    pub factor: f64,
}

impl Default for Stragglers {
    fn default() -> Stragglers {
        Stragglers {
            probability: 0.0,
            factor: 1.0,
        }
    }
}

impl Stragglers {
    /// Checks probability and factor ranges.
    ///
    /// # Errors
    ///
    /// [`ConfigError::InvalidStragglerProbability`] or
    /// [`ConfigError::InvalidStragglerFactor`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.probability.is_finite() || !(0.0..=1.0).contains(&self.probability) {
            return Err(ConfigError::InvalidStragglerProbability(self.probability));
        }
        if !self.factor.is_finite() || self.factor < 1.0 {
            return Err(ConfigError::InvalidStragglerFactor(self.factor));
        }
        Ok(())
    }
}

/// Retry behavior for shed or failed requests: exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How many times a shed/failed request re-enters the queue before
    /// it is permanently lost. 0 disables retries.
    pub max_retries: u32,
    /// Delay before the first retry, seconds.
    pub backoff_s: f64,
    /// Multiplier applied to the delay on each further retry (>= 1).
    pub backoff_mult: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            backoff_s: 0.01,
            backoff_mult: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Checks the backoff parameters.
    ///
    /// # Errors
    ///
    /// [`ConfigError::InvalidRetryBackoff`] or
    /// [`ConfigError::InvalidRetryBackoffMult`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.backoff_s.is_finite() || self.backoff_s < 0.0 {
            return Err(ConfigError::InvalidRetryBackoff(self.backoff_s));
        }
        if !self.backoff_mult.is_finite() || self.backoff_mult < 1.0 {
            return Err(ConfigError::InvalidRetryBackoffMult(self.backoff_mult));
        }
        Ok(())
    }
}

/// Fleet-level serving policy: deadlines, load shedding, retries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetPolicy {
    /// Per-request SLO budget, seconds. Used for goodput accounting
    /// (a completion later than this is not "good") and — when
    /// `shed_expired` is set — for shedding requests whose queue wait
    /// exceeds it.
    pub deadline_s: Option<f64>,
    /// If set, a queued request past its deadline is shed from the
    /// queue instead of being served late. Requires `deadline_s`.
    pub shed_expired: bool,
    /// How long an attempt may sit in the queue before `shed_expired`
    /// sheds it; defaults to `deadline_s`. Set it *below* the deadline
    /// to reserve end-to-end budget for service time (a request that
    /// launches right at the wire still has to run).
    pub queue_budget_s: Option<f64>,
    /// Admission control: arrivals beyond this many queued requests
    /// (summed over the fleet) are shed immediately (classic load
    /// shedding). With failover enabled the cap scales down with the
    /// number of believed-up servers — admission control sees the
    /// reduced capacity. `None` = unbounded.
    pub queue_cap: Option<usize>,
    /// What happens to shed requests.
    pub retry: RetryPolicy,
}

impl FleetPolicy {
    /// Checks deadline, cap, and retry parameters.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for a non-positive/non-finite deadline, a zero
    /// queue cap, shedding without a deadline, or bad retry backoff.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(d) = self.deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(ConfigError::InvalidDeadline(d));
            }
        }
        if self.shed_expired && self.deadline_s.is_none() {
            return Err(ConfigError::SheddingWithoutDeadline);
        }
        if let Some(b) = self.queue_budget_s {
            if !b.is_finite() || b <= 0.0 {
                return Err(ConfigError::InvalidQueueBudget(b));
            }
        }
        if self.queue_cap == Some(0) {
            return Err(ConfigError::ZeroQueueCap);
        }
        self.retry.validate()
    }
}

/// The full-featured run description: a pool, failure injection, and a
/// fleet policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// The pool of servers and the base serving knobs.
    pub pool: PoolConfig,
    /// Failure injection.
    pub stragglers: Stragglers,
    /// Deadlines, shedding, retries.
    pub policy: FleetPolicy,
}

impl FleetConfig {
    /// A fleet with no stragglers and no overload policy: plain dynamic
    /// batching over a round-robin pool.
    pub fn new(pool: PoolConfig) -> FleetConfig {
        FleetConfig {
            pool,
            stragglers: Stragglers::default(),
            policy: FleetPolicy::default(),
        }
    }

    /// Replaces the straggler knobs.
    pub fn with_stragglers(mut self, stragglers: Stragglers) -> FleetConfig {
        self.stragglers = stragglers;
        self
    }

    /// Replaces the fleet policy.
    pub fn with_policy(mut self, policy: FleetPolicy) -> FleetConfig {
        self.policy = policy;
        self
    }

    /// Validates every component.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found in pool, stragglers, or policy.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.pool.validate()?;
        self.stragglers.validate()?;
        self.policy.validate()
    }
}

/// A degenerate serving or fault configuration, caught before
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Arrival rate must be finite and > 0.
    NonPositiveArrivalRate(f64),
    /// `max_batch` must be at least 1 (0 can never form a batch).
    ZeroMaxBatch,
    /// Batch timeout must be finite and >= 0.
    InvalidBatchTimeout(f64),
    /// At least one request must be simulated.
    ZeroRequests,
    /// Request ids are `u32`: at most [`MAX_REQUESTS`] per run.
    TooManyRequests(usize),
    /// A pool needs at least one server.
    ZeroServers,
    /// Server ids pack into 29 bits: at most [`MAX_SERVERS`] per pool.
    TooManyServers(usize),
    /// Straggler probability must be a finite value in [0, 1].
    InvalidStragglerProbability(f64),
    /// Straggler factor must be finite and >= 1.
    InvalidStragglerFactor(f64),
    /// A deadline must be finite and > 0.
    InvalidDeadline(f64),
    /// `shed_expired` requires `deadline_s`.
    SheddingWithoutDeadline,
    /// A queue budget must be finite and > 0.
    InvalidQueueBudget(f64),
    /// A queue cap of 0 would shed every request.
    ZeroQueueCap,
    /// Retry backoff must be finite and >= 0.
    InvalidRetryBackoff(f64),
    /// Retry backoff multiplier must be finite and >= 1.
    InvalidRetryBackoffMult(f64),
    /// MTTR must be finite and > 0.
    InvalidMttr(f64),
    /// A hang/degrade duration must be finite and > 0.
    InvalidFaultDuration(f64),
    /// A slow-degrade factor must be finite and >= 1.
    InvalidDegradeFactor(f64),
    /// MTBF must be finite and > 0.
    InvalidMtbf(f64),
    /// The MTBF draw horizon must be finite and > 0.
    InvalidFaultHorizon(f64),
    /// A scheduled fault time must be finite and >= 0.
    InvalidFaultTime(f64),
    /// A scheduled fault targets a server outside the pool.
    FaultServerOutOfRange {
        /// The offending server index.
        server: usize,
        /// The pool size it must be below.
        servers: usize,
    },
    /// Health-probe interval must be finite and > 0.
    InvalidProbeInterval(f64),
    /// Health-probe timeout must be finite and >= 0.
    InvalidProbeTimeout(f64),
    /// Recovery warmup must be finite and >= 0.
    InvalidRecoveryWarmup(f64),
    /// A token-count bound must be at least 1.
    ZeroTokens,
    /// A token range with `min > max` can never draw.
    EmptyTokenRange {
        /// Lower bound of the offending range.
        min: u64,
        /// Upper bound of the offending range.
        max: u64,
    },
    /// A geometric token mean must be finite and >= 1.
    InvalidTokenMean(f64),
    /// KV-cache bytes per token must be at least 1.
    ZeroKvBytesPerToken,
    /// The KV capacity cannot hold even one worst-case request, so the
    /// FIFO head could be deferred forever.
    KvCapacityTooSmall {
        /// Worst-case single-request KV footprint, bytes.
        need: u64,
        /// The configured capacity, bytes.
        capacity: u64,
    },
    /// A TTFT SLO must be finite and > 0.
    InvalidTtftSlo(f64),
    /// A prefill/decode latency curve evaluated non-positive or
    /// non-finite (zero-latency steps make token rates infinite).
    NonPositiveGenLatency(f64),
    /// A multi-tenant run needs at least one tenant.
    NoTenants,
    /// The host-link bandwidth for weight swaps must be finite and > 0.
    InvalidHostLinkBandwidth(f64),
    /// A global fleet needs at least one cell.
    NoCells,
    /// The geo control epoch must be finite and > 0.
    InvalidEpoch(f64),
    /// The simulated horizon must be finite and > 0.
    InvalidHorizon(f64),
    /// `ceil(horizon_s / epoch_s)`, the control epoch count, must be at
    /// most [`crate::fleet::MAX_EPOCHS`].
    TooManyEpochs(f64),
    /// The peak Poisson mean of one epoch's arrivals (`base_rps × (1 +
    /// amplitude) × largest flash multiplier × epoch_s`) could draw more
    /// than [`MAX_REQUESTS`] requests.
    TooManyEpochArrivals(f64),
    /// The traffic model's base rate must be finite and > 0.
    InvalidTrafficRate(f64),
    /// The diurnal amplitude must be finite and in [0, 1) (an amplitude
    /// of 1 would drive the instantaneous rate to 0).
    InvalidDiurnalAmplitude(f64),
    /// The diurnal period must be finite and > 0.
    InvalidTrafficPeriod(f64),
    /// A flash crowd's start/duration must be finite, with start >= 0
    /// and duration > 0.
    InvalidFlashWindow(f64),
    /// A flash crowd's rate multiplier must be finite and > 0.
    InvalidFlashMultiplier(f64),
    /// A cell fault targets a cell outside the global config.
    CellFaultOutOfRange {
        /// The offending cell index.
        cell: usize,
        /// The cell count it must be below.
        cells: usize,
    },
    /// A cell fault's start/duration must be finite, with start >= 0
    /// and duration > 0.
    InvalidCellFaultWindow(f64),
    /// A brownout fraction must be finite and in (0, 1].
    InvalidBrownoutFraction(f64),
    /// Cell server bounds must satisfy 1 <= min <= initial <= max.
    InvalidCellServers {
        /// Configured minimum server count.
        min: usize,
        /// Configured maximum server count.
        max: usize,
    },
    /// A cell's per-server capacity must be finite and > 0.
    InvalidCellCapacity(f64),
    /// The autoscaler utilization target must be finite and in (0, 1].
    InvalidUtilizationTarget(f64),
    /// The cross-cell redirect latency penalty must be finite and >= 0.
    InvalidRedirectLatency(f64),
    /// The overload-redirect threshold must be finite and > 0.
    InvalidRedirectThreshold(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositiveArrivalRate(r) => {
                write!(f, "arrival_rate_rps must be finite and > 0, got {r}")
            }
            ConfigError::ZeroMaxBatch => write!(f, "max_batch must be >= 1"),
            ConfigError::InvalidBatchTimeout(t) => {
                write!(f, "batch_timeout_s must be finite and >= 0, got {t}")
            }
            ConfigError::ZeroRequests => write!(f, "requests must be >= 1"),
            ConfigError::TooManyRequests(n) => {
                write!(f, "requests must be <= {MAX_REQUESTS}, got {n}")
            }
            ConfigError::ZeroServers => write!(f, "servers must be >= 1"),
            ConfigError::TooManyServers(n) => {
                write!(f, "servers must be <= {MAX_SERVERS}, got {n}")
            }
            ConfigError::InvalidStragglerProbability(p) => {
                write!(f, "straggler probability must be in [0, 1], got {p}")
            }
            ConfigError::InvalidStragglerFactor(x) => {
                write!(f, "straggler factor must be finite and >= 1, got {x}")
            }
            ConfigError::InvalidDeadline(d) => {
                write!(f, "deadline_s must be finite and > 0, got {d}")
            }
            ConfigError::SheddingWithoutDeadline => {
                write!(f, "shed_expired requires deadline_s to be set")
            }
            ConfigError::InvalidQueueBudget(b) => {
                write!(f, "queue_budget_s must be finite and > 0, got {b}")
            }
            ConfigError::ZeroQueueCap => write!(f, "queue_cap must be >= 1 (or None)"),
            ConfigError::InvalidRetryBackoff(b) => {
                write!(f, "retry backoff_s must be finite and >= 0, got {b}")
            }
            ConfigError::InvalidRetryBackoffMult(m) => {
                write!(f, "retry backoff_mult must be finite and >= 1, got {m}")
            }
            ConfigError::InvalidMttr(t) => {
                write!(f, "mttr_s must be finite and > 0, got {t}")
            }
            ConfigError::InvalidFaultDuration(d) => {
                write!(f, "fault duration_s must be finite and > 0, got {d}")
            }
            ConfigError::InvalidDegradeFactor(x) => {
                write!(f, "degrade factor must be finite and >= 1, got {x}")
            }
            ConfigError::InvalidMtbf(t) => {
                write!(f, "mtbf_s must be finite and > 0, got {t}")
            }
            ConfigError::InvalidFaultHorizon(h) => {
                write!(f, "fault horizon_s must be finite and > 0, got {h}")
            }
            ConfigError::InvalidFaultTime(t) => {
                write!(f, "fault at_s must be finite and >= 0, got {t}")
            }
            ConfigError::FaultServerOutOfRange { server, servers } => {
                write!(f, "fault targets server {server}, pool has {servers}")
            }
            ConfigError::InvalidProbeInterval(p) => {
                write!(f, "probe_interval_s must be finite and > 0, got {p}")
            }
            ConfigError::InvalidProbeTimeout(t) => {
                write!(f, "probe_timeout_s must be finite and >= 0, got {t}")
            }
            ConfigError::InvalidRecoveryWarmup(w) => {
                write!(f, "recovery_warmup_s must be finite and >= 0, got {w}")
            }
            ConfigError::ZeroTokens => write!(f, "token counts must be >= 1"),
            ConfigError::EmptyTokenRange { min, max } => {
                write!(f, "token range [{min}, {max}] is empty")
            }
            ConfigError::InvalidTokenMean(m) => {
                write!(f, "token mean must be finite and >= 1, got {m}")
            }
            ConfigError::ZeroKvBytesPerToken => write!(f, "kv_bytes_per_token must be >= 1"),
            ConfigError::KvCapacityTooSmall { need, capacity } => {
                write!(
                    f,
                    "kv_capacity_bytes {capacity} cannot hold one worst-case request ({need} bytes)"
                )
            }
            ConfigError::InvalidTtftSlo(s) => {
                write!(f, "ttft_slo_s must be finite and > 0, got {s}")
            }
            ConfigError::NonPositiveGenLatency(t) => {
                write!(f, "prefill/decode latency must be finite and > 0, got {t}")
            }
            ConfigError::NoTenants => write!(f, "a multi-tenant run needs at least one tenant"),
            ConfigError::InvalidHostLinkBandwidth(b) => {
                write!(f, "host_link_bps must be finite and > 0, got {b}")
            }
            ConfigError::NoCells => write!(f, "a global fleet needs at least one cell"),
            ConfigError::InvalidEpoch(e) => {
                write!(f, "epoch_s must be finite and > 0, got {e}")
            }
            ConfigError::InvalidHorizon(h) => {
                write!(f, "horizon_s must be finite and > 0, got {h}")
            }
            ConfigError::TooManyEpochs(n) => {
                write!(
                    f,
                    "horizon_s / epoch_s must be <= {} epochs, got {n}",
                    crate::fleet::MAX_EPOCHS
                )
            }
            ConfigError::TooManyEpochArrivals(peak) => {
                write!(
                    f,
                    "an epoch's peak arrival mean {peak} could draw more than {MAX_REQUESTS} requests"
                )
            }
            ConfigError::InvalidTrafficRate(r) => {
                write!(f, "traffic base_rps must be finite and > 0, got {r}")
            }
            ConfigError::InvalidDiurnalAmplitude(a) => {
                write!(f, "diurnal amplitude must be finite and in [0, 1), got {a}")
            }
            ConfigError::InvalidTrafficPeriod(p) => {
                write!(f, "diurnal period_s must be finite and > 0, got {p}")
            }
            ConfigError::InvalidFlashWindow(t) => {
                write!(
                    f,
                    "flash crowd window must be finite (start >= 0, duration > 0), got {t}"
                )
            }
            ConfigError::InvalidFlashMultiplier(m) => {
                write!(f, "flash crowd multiplier must be finite and > 0, got {m}")
            }
            ConfigError::CellFaultOutOfRange { cell, cells } => {
                write!(f, "cell fault targets cell {cell}, config has {cells}")
            }
            ConfigError::InvalidCellFaultWindow(t) => {
                write!(
                    f,
                    "cell fault window must be finite (start >= 0, duration > 0), got {t}"
                )
            }
            ConfigError::InvalidBrownoutFraction(x) => {
                write!(f, "brownout fraction must be finite and in (0, 1], got {x}")
            }
            ConfigError::InvalidCellServers { min, max } => {
                write!(f, "cell server bounds must satisfy 1 <= min <= initial <= max, got min={min} max={max}")
            }
            ConfigError::InvalidCellCapacity(c) => {
                write!(f, "capacity_per_server_rps must be finite and > 0, got {c}")
            }
            ConfigError::InvalidUtilizationTarget(u) => {
                write!(
                    f,
                    "autoscaler target_utilization must be finite and in (0, 1], got {u}"
                )
            }
            ConfigError::InvalidRedirectLatency(l) => {
                write!(f, "redirect_latency_s must be finite and >= 0, got {l}")
            }
            ConfigError::InvalidRedirectThreshold(t) => {
                write!(f, "overload_threshold must be finite and > 0, got {t}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The result of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// End-to-end (queue + service) latency statistics over *completed*
    /// requests, measured from first arrival (retries included).
    pub stats: LatencyStats,
    /// p50 shorthand, seconds.
    pub p50_s: f64,
    /// p99 shorthand, seconds (the SLO metric, Lesson 10).
    pub p99_s: f64,
    /// Achieved throughput (all completions), requests/second.
    pub throughput_rps: f64,
    /// Goodput: completions within the deadline, requests/second.
    /// Equals `throughput_rps` when no deadline is configured.
    pub goodput_rps: f64,
    /// Mean formed batch size.
    pub mean_batch: f64,
    /// Fraction of the run the servers were busy.
    pub server_utilization: f64,
    /// Unique requests offered.
    pub arrivals: usize,
    /// Requests that finished service.
    pub completed: usize,
    /// Requests permanently lost to shedding (after exhausting any
    /// retry budget).
    pub shed: usize,
    /// Requests still queued when the event heap drained.
    pub dropped: usize,
    /// Requests permanently lost because the server running them
    /// crashed (after exhausting any retry budget).
    pub failed: usize,
    /// The RNG seed the run used (recorded for replay: the same config,
    /// fault plan, and seed reproduce a bit-identical report).
    pub seed: u64,
    /// Simulated wall-clock length of the run, seconds (time of the
    /// last material event: arrival, completion, or terminal loss).
    pub duration_s: f64,
    /// Counters and histograms collected during the run.
    pub metrics: ServingMetrics,
}

impl ServingReport {
    /// Request conservation: every offered request is accounted for.
    pub fn conservation_holds(&self) -> bool {
        self.arrivals == self.completed + self.shed + self.dropped + self.failed
    }
}

/// An event's heap key: `(time, seq)`. The engine never reuses a `seq`,
/// so keys are unique and the pop order is total — time-ascending, FIFO
/// within a timestamp — whatever container holds them. Every report
/// byte-pin and the derived-only telemetry contract rest on it.
type EventKey = (TimeKey, u64);

/// A fleet-engine event. The derived `Ord` never decides a pop (keys
/// are unique); it only satisfies the heap's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Fresh request `i` arrives.
    Arrival(usize),
    /// A shed or failed request re-enters admission.
    Retry { req: usize },
    /// Re-check batch formation on one server (the batch-timeout timer).
    Timeout { server: usize },
    /// One server's oldest queued request may have exceeded its
    /// deadline: shed the expired prefix, then re-arm for the new front.
    /// One in-flight sweep per server replaces the old per-request
    /// expiry timer (O(launches + sheds) events instead of O(admits)).
    Expire { server: usize },
    /// A server's batch finished. `launch` names the batch: a crash
    /// aborts the batch at once, so a `Done` that pops while its server
    /// is idle or has launched since is recognized as aborted.
    Done { server: usize, launch: u32 },
    /// Inject the materialized fault with this index.
    Fault(usize),
    /// A crashed machine finished repair and starts its warmup.
    CrashOver { server: usize, epoch: u64 },
    /// A hung machine thaws.
    HangOver { server: usize, epoch: u64 },
    /// A slow-degrade window ends.
    DegradeOver { server: usize, epoch: u64 },
    /// Recovery warmup done: the server is Up again.
    RecoveryDone { server: usize, epoch: u64 },
    /// Health-checker sweep over every server.
    Probe,
}

/// Where in its lifecycle a request currently is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Not in the queue: before arrival or awaiting a retry.
    Idle,
    /// In some server's queue.
    Queued,
    /// In a launched batch.
    InService,
    /// Finished service.
    Completed,
    /// Permanently shed.
    Lost,
    /// Permanently lost to a server crash.
    Failed,
}

impl Phase {
    /// 3-bit encoding inside [`ReqTable`]'s packed meta word.
    const fn bits(self) -> u64 {
        match self {
            Phase::Idle => 0,
            Phase::Queued => 1,
            Phase::InService => 2,
            Phase::Completed => 3,
            Phase::Lost => 4,
            Phase::Failed => 5,
        }
    }
}

const PHASE_MASK: u64 = 0b111;
const TRIES_MASK: u64 = !0u64 << 32;

/// Struct-of-arrays request table: the hot per-request fields live in
/// flat arrays indexed by request id. `meta` packs
/// `phase (3 bits) | server << 3 (29 bits) | tries << 32`, so the
/// lazy-deletion liveness test — phase, server, *and* attempt stamp
/// all current — is one 64-bit compare against a precomputed key.
struct ReqTable {
    first_arrival: Vec<f64>,
    meta: Vec<u64>,
}

impl ReqTable {
    fn new(n: usize) -> ReqTable {
        ReqTable {
            first_arrival: vec![0.0; n],
            meta: vec![Phase::Idle.bits(); n],
        }
    }

    /// The meta word of a request queued on `server` at attempt
    /// `tries` — the key a live queue entry's request must match.
    #[inline]
    fn queued_key(server: usize, tries: u32) -> u64 {
        Phase::Queued.bits() | (server as u64) << 3 | (tries as u64) << 32
    }

    /// Times this request has been offered to admission (arrival +
    /// retries + failover redistributions).
    #[inline]
    fn tries(&self, r: usize) -> u32 {
        (self.meta[r] >> 32) as u32
    }

    #[inline]
    fn bump_tries(&mut self, r: usize) {
        self.meta[r] += 1 << 32;
    }

    #[inline]
    fn set_phase(&mut self, r: usize, p: Phase) {
        self.meta[r] = (self.meta[r] & !PHASE_MASK) | p.bits();
    }

    /// Marks `r` queued on `server` (phase and server in one store).
    #[inline]
    fn set_queued_on(&mut self, r: usize, server: usize) {
        self.meta[r] = (self.meta[r] & TRIES_MASK) | Self::queued_key(server, 0);
    }
}

#[derive(Debug, Clone, Copy)]
struct QEntry {
    req: u32,
    /// `tries` at enqueue time. An entry is *live* iff the request
    /// is still `Queued` on this server at this attempt; entries whose
    /// request moved on (expired, launched, redistributed) go stale in
    /// place and are skipped when they reach the front — O(1) lazy
    /// deletion instead of the old O(n) mid-queue scan-and-remove.
    attempt: u32,
    enqueued: f64,
}

#[derive(Debug, Default)]
struct Batch {
    members: Vec<u32>,
    /// When the batch will complete (including hang delays).
    done_at: f64,
    /// Pending hang delay to apply when the original Done fires.
    extra_delay_s: f64,
    /// Telemetry span pairing id (0 when telemetry is disabled).
    span_id: u64,
}

/// The server lifecycle (see [`crate::faults`] for the state diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Up,
    /// Serving, but slowed by `degrade_factor`; probes still pass.
    Degraded,
    /// Fail-stop crash: dead until repair + warmup.
    DownCrash,
    /// Frozen: in-flight work paused, resumes on thaw.
    DownHang,
    /// Repaired but warming up (reloading weights); not serving yet.
    Recovering,
}

#[derive(Debug)]
struct Server {
    health: Health,
    /// What the router believes; only health probes update it.
    believed_up: bool,
    busy: bool,
    /// The in-service batch while busy. A server runs at most one batch
    /// (launching requires `can_serve`), and the `members` buffer is
    /// reused across launches, so steady state allocates nothing.
    batch: Batch,
    /// Batches launched so far (wrapping): the current batch's name.
    launch: u32,
    queue: VecDeque<QEntry>,
    /// Live entries in `queue` (total length minus stale entries).
    live: usize,
    /// An `Event::Expire` sweep is in flight for this server. While
    /// true, its fire time is ≤ the front live entry's expiry (the
    /// sweep was armed for the front at arming time, and entries behind
    /// it expire later), so no additional timer is ever needed.
    expiry_pending: bool,
    degrade_factor: f64,
    hang_started: f64,
    /// When the current fault began (for detect/recover lags).
    fault_at: f64,
    /// When the server left Up/Degraded (for availability accounting).
    down_since: f64,
    down_total_s: f64,
    /// Bumped per injected fault; stale lifecycle timers are ignored.
    fault_epoch: u64,
}

impl Server {
    fn new() -> Server {
        Server {
            health: Health::Up,
            believed_up: true,
            busy: false,
            batch: Batch::default(),
            launch: 0,
            queue: VecDeque::new(),
            live: 0,
            expiry_pending: false,
            degrade_factor: 1.0,
            hang_started: 0.0,
            fault_at: 0.0,
            down_since: 0.0,
            down_total_s: 0.0,
            fault_epoch: 0,
        }
    }

    /// Actually able to run work right now (ignoring `busy`)?
    fn is_available(&self) -> bool {
        matches!(self.health, Health::Up | Health::Degraded)
    }

    fn can_serve(&self) -> bool {
        !self.busy && self.is_available()
    }
}

/// Why a request is being shed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ShedReason {
    QueueFull,
    DeadlineExpired,
    NoHealthyServer,
}

/// Pre-draws `n` Poisson arrival times at `rate_rps` from the stream
/// seeded by `seed`. Two passes keep the uniform draws and the `ln`
/// evaluations in separate tight loops; the draw order — and therefore
/// every bit of every arrival time — is that of one interleaved loop.
pub(crate) fn poisson_arrivals(seed: u64, n: usize, rate_rps: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = Vec::with_capacity(n);
    for _ in 0..n {
        arrivals.push(rng.gen_range(f64::EPSILON..1.0));
    }
    let mut t = 0.0f64;
    for u in &mut arrivals {
        t += -(*u).ln() / rate_rps;
        *u = t;
    }
    arrivals
}

/// Runs the serving simulation.
///
/// Dynamic batching policy: a batch launches when a server is idle and
/// either `max_batch` requests are queued or `batch_timeout_s` has
/// elapsed since the oldest queued request arrived. This is the standard
/// production policy the paper's latency-vs-batch trade-off lives in.
///
/// # Errors
///
/// [`ConfigError`] for degenerate configurations.
pub fn simulate(latency: &LatencyModel, cfg: &ServingConfig) -> Result<ServingReport, ConfigError> {
    simulate_fleet(latency, &FleetConfig::new(cfg.with_servers(1)))
}

/// The full-featured fault-free entry point: pool, stragglers,
/// deadlines, load shedding, and retry-with-backoff.
///
/// # Errors
///
/// [`ConfigError`] for degenerate configurations.
pub fn simulate_fleet(
    latency: &LatencyModel,
    cfg: &FleetConfig,
) -> Result<ServingReport, ConfigError> {
    simulate_fleet_with_faults(latency, cfg, &FaultPlan::none())
}

/// Everything [`simulate_fleet`] does, plus fault injection: server
/// crashes, hangs, and slow-degrades per `plan`, with health checking
/// and failover routing when `plan.failover.enabled`.
///
/// The materialized fault schedule depends only on the plan and the pool
/// size — never on the failover setting — so failover-on and
/// failover-off runs face identical injected faults.
///
/// # Errors
///
/// [`ConfigError`] for degenerate serving configurations or fault plans
/// (NaN/negative times, out-of-range servers, bad MTBF/MTTR or probe
/// knobs).
pub fn simulate_fleet_with_faults(
    latency: &LatencyModel,
    cfg: &FleetConfig,
    plan: &FaultPlan,
) -> Result<ServingReport, ConfigError> {
    cfg.validate()?;
    plan.validate(cfg.pool.servers)?;
    Ok(Engine::new(latency, cfg, plan, NullSink).run())
}

/// [`simulate_fleet_with_faults`] plus the raw end-to-end latency
/// samples of every completed request (seconds, in completion order;
/// `samples.len() == report.completed`).
///
/// The global fleet layer ([`crate::fleet`]) uses the samples to apply
/// cross-cell redirect latency penalties and to fold exact global
/// percentiles across cells without losing per-request resolution. The
/// report is bit-identical to the sample-less entry point's.
///
/// # Errors
///
/// [`ConfigError`] for degenerate serving configurations or fault plans.
pub fn simulate_fleet_samples(
    latency: &LatencyModel,
    cfg: &FleetConfig,
    plan: &FaultPlan,
) -> Result<(ServingReport, Vec<f64>), ConfigError> {
    cfg.validate()?;
    plan.validate(cfg.pool.servers)?;
    Ok(Engine::new(latency, cfg, plan, NullSink).run_with_samples())
}

/// Everything [`simulate_fleet_with_faults`] does, with the full request
/// lifecycle recorded into `recorder`: `queued` / `batch` / `down` spans
/// per server, arrival / completion / shed / retry / probe / fault
/// instants on the fleet track, and exact per-event-name counters
/// (including `events_processed`).
///
/// Telemetry is derived from, never an input to, simulation state: the
/// returned report is bit-identical to the [`simulate_fleet_with_faults`]
/// report for the same config and plan, and the recorded event stream is
/// itself a deterministic function of them.
///
/// # Errors
///
/// [`ConfigError`] for degenerate configurations or fault plans.
pub fn simulate_fleet_recorded(
    latency: &LatencyModel,
    cfg: &FleetConfig,
    plan: &FaultPlan,
    recorder: &mut Recorder,
) -> Result<ServingReport, ConfigError> {
    cfg.validate()?;
    plan.validate(cfg.pool.servers)?;
    let report = Engine::new(latency, cfg, plan, &mut *recorder).run();
    recorder.add_counter("events_processed", report.metrics.events_processed.get());
    Ok(report)
}

/// The fleet-wide telemetry track (request-lifecycle instants).
pub(crate) const FLEET: Track = Track {
    name: "fleet",
    index: 0,
};

/// The per-replica telemetry track (queued/batch/down spans, faults).
pub(crate) fn server_track(s: usize) -> Track {
    Track {
        name: "server",
        index: s as u32,
    }
}

/// Span id for one queue residency: a request re-enters the queue once
/// per attempt (retries, failover redistributions), so the pair is
/// unique per `(request, attempt)`.
fn queued_span_id(req: usize, attempt: u32) -> u64 {
    (attempt as u64) << 40 | req as u64
}

/// The DES state machine. One instance per run.
///
/// Generic over the telemetry sink: every instrumentation site records
/// through [`EventSink::emit`] or sits behind `if S::ENABLED`, so the
/// [`NullSink`] instantiation (all untraced entry points) monomorphizes
/// to exactly the uninstrumented engine — zero overhead when disabled.
struct Engine<'a, S: EventSink> {
    sink: S,
    /// Latest popped event time (telemetry only): end-of-run records
    /// are stamped at `end_time.max(last_now)` so late timer pops keep
    /// the stream monotone.
    last_now: f64,
    /// Allocator for batch/down span pairing ids (telemetry only).
    span_seq: u64,
    /// Open `down` span id per server, 0 = none (telemetry only).
    down_span: Vec<u64>,
    latency: &'a LatencyModel,
    cfg: FleetConfig,
    failover: FailoverConfig,
    /// Materialized fault schedule, sorted by time.
    faults: Vec<ScheduledFault>,
    /// Pre-drawn Poisson arrival times.
    arrivals: Vec<f64>,
    /// Straggler multipliers draw from their own stream so enabling or
    /// disabling other features never perturbs them.
    straggler_rng: StdRng,
    /// Min-heap for the irregular event streams (Done, Timeout, Retry,
    /// expiry sweeps, faults, probes). The highest-volume stream —
    /// arrivals — bypasses it: at most one is outstanding, held in
    /// `pending_arrival`. Both sources share one `seq` counter and are
    /// merged by `(TimeKey, seq)`; keys are unique, so the pop order is
    /// exactly what a single queue would produce.
    events: BinaryHeap<Reverse<(EventKey, Event)>>,
    /// The one in-flight `Event::Arrival`, keyed like a heap entry.
    pending_arrival: Option<(EventKey, usize)>,
    /// Interpolated service latency per batch size (index = batch size),
    /// so the launch path does no interpolation.
    latency_cache: Vec<f64>,
    seq: u64,
    servers: Vec<Server>,
    /// Servers currently believed up (mirrors `Server::believed_up`), so
    /// per-admit capacity scaling is O(1) instead of a fleet scan.
    up_count: usize,
    /// Round-robin router position.
    rr_cursor: usize,
    req: ReqTable,
    /// Per-attempt queue-wait budget before `shed_expired` sheds
    /// (precomputed from the validated policy; `None` = no shedding).
    queue_budget: Option<f64>,
    /// Reusable buffer for failover queue drains.
    scratch_entries: Vec<QEntry>,
    /// Live queued entries across the fleet (admission control reads
    /// this instead of summing per-server queues).
    queued_live: usize,
    latencies: Vec<f64>,
    completed: usize,
    good: usize,
    shed: usize,
    failed: usize,
    metrics: ServingMetrics,
    end_time: f64,
}

impl<'a, S: EventSink> Engine<'a, S> {
    fn new(
        latency: &'a LatencyModel,
        cfg: &FleetConfig,
        plan: &FaultPlan,
        sink: S,
    ) -> Engine<'a, S> {
        let base = &cfg.pool.base;
        let n = base.requests;
        assert!(n < u32::MAX as usize, "request ids are u32");
        assert!(cfg.pool.servers < 1 << 29, "server ids pack into 29 bits");
        let queue_budget = if cfg.policy.shed_expired {
            cfg.policy.queue_budget_s.or(cfg.policy.deadline_s)
        } else {
            None
        };
        Engine {
            sink,
            last_now: 0.0,
            span_seq: 0,
            down_span: vec![0; cfg.pool.servers],
            latency,
            cfg: *cfg,
            failover: plan.failover,
            faults: plan.materialize(cfg.pool.servers),
            arrivals: poisson_arrivals(base.seed, n, base.arrival_rate_rps),
            straggler_rng: StdRng::seed_from_u64(base.seed ^ 0x9E37_79B9_7F4A_7C15),
            events: BinaryHeap::new(),
            pending_arrival: None,
            latency_cache: (0..=base.max_batch.min(4096))
                .map(|b| latency.latency(b.max(1)))
                .collect(),
            seq: 0,
            servers: (0..cfg.pool.servers).map(|_| Server::new()).collect(),
            up_count: cfg.pool.servers,
            rr_cursor: 0,
            req: ReqTable::new(n),
            queue_budget,
            scratch_entries: Vec::new(),
            queued_live: 0,
            latencies: Vec::with_capacity(n),
            completed: 0,
            good: 0,
            shed: 0,
            failed: 0,
            metrics: ServingMetrics::new(cfg.pool.servers),
            end_time: 0.0,
        }
    }

    fn push_event(&mut self, t: f64, e: Event) {
        let key = (TimeKey(t), self.seq);
        self.seq += 1;
        match e {
            Event::Arrival(i) => {
                debug_assert!(self.pending_arrival.is_none(), "one arrival at a time");
                self.pending_arrival = Some((key, i));
            }
            _ => self.events.push(Reverse((key, e))),
        }
    }

    /// Pops the globally next event across the two sources (heap,
    /// pending arrival) by `(time, seq)` — exactly the order a single
    /// queue would yield, at O(1) for the arrival stream.
    fn next_event(&mut self) -> Option<(f64, Event)> {
        if let Some((a, i)) = self.pending_arrival {
            if self.events.peek().is_none_or(|Reverse((h, _))| a < *h) {
                self.pending_arrival = None;
                return Some((a.0 .0, Event::Arrival(i)));
            }
        }
        let Reverse(((TimeKey(t), _), e)) = self.events.pop()?;
        Some((t, e))
    }

    /// Arms the expiry sweep for server `s` if shedding is on, work is
    /// queued, and no sweep is already in flight. The timer targets the
    /// current front's exact expiry time.
    fn arm_expiry(&mut self, s: usize) {
        if self.servers[s].expiry_pending || self.servers[s].live == 0 {
            return;
        }
        let Some(b) = self.expiry_budget() else {
            return;
        };
        self.compact_front(s);
        let enqueued = self.servers[s].queue.front().expect("live > 0").enqueued;
        self.servers[s].expiry_pending = true;
        self.push_event(enqueued + b, Event::Expire { server: s });
    }

    /// Service latency for a batch of `take`, from the precomputed
    /// per-size cache (falls back to interpolation past the cache).
    fn batch_latency(&self, take: u64) -> f64 {
        match self.latency_cache.get(take as usize) {
            Some(&l) => l,
            None => self.latency.latency(take),
        }
    }

    /// Extends the run length. Only *material* events (arrivals,
    /// completions, terminal losses) call this, so a repair timer firing
    /// long after the last request cannot inflate the duration and
    /// deflate throughput.
    fn touch(&mut self, now: f64) {
        if now > self.end_time {
            self.end_time = now;
        }
    }

    /// Next believed-up server in round-robin order, if any.
    fn route(&mut self) -> Option<usize> {
        let count = self.servers.len();
        for k in 0..count {
            let i = (self.rr_cursor + k) % count;
            if self.servers[i].believed_up {
                self.rr_cursor = (i + 1) % count;
                return Some(i);
            }
        }
        None
    }

    /// Is this queue entry still current? Stale entries (their request
    /// expired, launched, retried, or was redistributed since enqueue)
    /// are skipped lazily when they reach the front.
    fn entry_live(&self, server: usize, e: &QEntry) -> bool {
        self.req.meta[e.req as usize] == ReqTable::queued_key(server, e.attempt)
    }

    /// Pops stale entries off the front of one server's queue.
    fn compact_front(&mut self, s: usize) {
        while let Some(front) = self.servers[s].queue.front() {
            if self.entry_live(s, front) {
                break;
            }
            self.servers[s].queue.pop_front();
        }
    }

    fn total_queued(&self) -> usize {
        self.queued_live
    }

    /// The admission-control cap, scaled down by lost capacity when the
    /// health checker has pulled servers from rotation.
    fn effective_queue_cap(&self) -> Option<usize> {
        let cap = self.cfg.policy.queue_cap?;
        if !self.failover.enabled || self.faults.is_empty() {
            return Some(cap);
        }
        // A product that saturates still scales to at least
        // `usize::MAX / MAX_SERVERS`, more requests than any queue can
        // hold (`MAX_REQUESTS`), so such a cap never binds, exact or not.
        let up = self.up_count;
        Some(cap.saturating_mul(up).div_ceil(self.servers.len()).max(1))
    }

    /// Offers a request to admission control; routes and enqueues it, or
    /// sheds it.
    fn admit(&mut self, req: usize, now: f64) {
        self.req.bump_tries(req);
        let Some(target) = self.route() else {
            self.shed_request(req, now, ShedReason::NoHealthyServer);
            return;
        };
        if let Some(cap) = self.effective_queue_cap() {
            if self.total_queued() >= cap {
                self.shed_request(req, now, ShedReason::QueueFull);
                return;
            }
        }
        self.metrics.admitted.inc();
        self.req.set_queued_on(req, target);
        let attempt = self.req.tries(req);
        self.servers[target].queue.push_back(QEntry {
            req: req as u32,
            attempt,
            enqueued: now,
        });
        self.servers[target].live += 1;
        self.queued_live += 1;
        self.sink.emit(
            now,
            server_track(target),
            SpanPhase::Begin,
            "queued",
            queued_span_id(req, attempt),
            req as i64,
        );
        self.arm_expiry(target);
        if !self.try_launch_on(target, now) && self.servers[target].live == 1 {
            self.push_event(
                now + self.cfg.pool.base.batch_timeout_s,
                Event::Timeout { server: target },
            );
        }
    }

    /// In-queue wait allowed per attempt before shedding, if shedding
    /// is on (precomputed at construction).
    #[inline]
    fn expiry_budget(&self) -> Option<f64> {
        self.queue_budget
    }

    /// Sheds a request, scheduling a retry if the reason is retryable
    /// and the budget allows.
    ///
    /// Deadline expiries never retry: the SLO has already passed, so
    /// re-serving cannot produce good work. Admission rejections and
    /// no-capacity sheds do retry.
    fn shed_request(&mut self, req: usize, now: f64, reason: ShedReason) {
        let reason_name = match reason {
            ShedReason::QueueFull => {
                self.metrics.shed_queue_full.inc();
                "shed_queue_full"
            }
            ShedReason::DeadlineExpired => {
                self.metrics.shed_deadline.inc();
                "shed_deadline"
            }
            ShedReason::NoHealthyServer => {
                self.metrics.shed_no_capacity.inc();
                "shed_no_capacity"
            }
        };
        let tries = self.req.tries(req);
        self.sink.emit(
            now,
            FLEET,
            SpanPhase::Instant,
            reason_name,
            req as u64,
            tries as i64,
        );
        let retry = self.cfg.policy.retry;
        let retryable = reason != ShedReason::DeadlineExpired;
        if retryable && tries <= retry.max_retries {
            let delay = retry.backoff_s * retry.backoff_mult.powi(tries as i32 - 1);
            self.req.set_phase(req, Phase::Idle);
            self.metrics.retries.inc();
            self.sink.emit(
                now,
                FLEET,
                SpanPhase::Instant,
                "retry",
                req as u64,
                tries as i64,
            );
            self.push_event(now + delay, Event::Retry { req });
        } else {
            self.req.set_phase(req, Phase::Lost);
            self.shed += 1;
            self.metrics.shed_permanent.inc();
            self.sink.emit(
                now,
                FLEET,
                SpanPhase::Instant,
                "shed_permanent",
                req as u64,
                0,
            );
            if retryable && retry.max_retries > 0 {
                self.metrics.retries_exhausted.inc();
            }
            self.touch(now);
        }
    }

    /// A request whose in-flight batch died with its server: retry per
    /// policy, else the `failed` terminal state.
    fn fail_request(&mut self, req: usize, now: f64) {
        let retry = self.cfg.policy.retry;
        let tries = self.req.tries(req);
        if tries <= retry.max_retries {
            let delay = retry.backoff_s * retry.backoff_mult.powi(tries as i32 - 1);
            self.req.set_phase(req, Phase::Idle);
            self.metrics.retries.inc();
            self.sink.emit(
                now,
                FLEET,
                SpanPhase::Instant,
                "retry",
                req as u64,
                tries as i64,
            );
            self.push_event(now + delay, Event::Retry { req });
        } else {
            self.req.set_phase(req, Phase::Failed);
            self.failed += 1;
            self.metrics.failed_permanent.inc();
            self.sink.emit(
                now,
                FLEET,
                SpanPhase::Instant,
                "failed_permanent",
                req as u64,
                0,
            );
            if retry.max_retries > 0 {
                self.metrics.retries_exhausted.inc();
            }
            self.touch(now);
        }
    }

    /// Sheds the expired prefix of one server's queue (live entries are
    /// enqueued in time order, so expiries are a prefix; stale entries
    /// encountered on the way are discarded).
    fn shed_expired_prefix_on(&mut self, s: usize, now: f64) {
        let Some(b) = self.expiry_budget() else {
            return;
        };
        while let Some(front) = self.servers[s].queue.front().copied() {
            if !self.entry_live(s, &front) {
                self.servers[s].queue.pop_front();
                continue;
            }
            if front.enqueued + b <= now + 1e-12 {
                self.servers[s].queue.pop_front();
                self.servers[s].live -= 1;
                self.queued_live -= 1;
                self.sink.emit(
                    now,
                    server_track(s),
                    SpanPhase::End,
                    "queued",
                    queued_span_id(front.req as usize, front.attempt),
                    front.req as i64,
                );
                self.shed_request(front.req as usize, now, ShedReason::DeadlineExpired);
            } else {
                break;
            }
        }
    }

    /// Launches a batch on server `s` if it is idle, healthy, and the
    /// batching policy allows; returns whether one launched.
    fn try_launch_on(&mut self, s: usize, now: f64) -> bool {
        self.shed_expired_prefix_on(s, now);
        if !self.servers[s].can_serve() || self.servers[s].live == 0 {
            return false;
        }
        self.compact_front(s);
        let cfg = self.cfg.pool.base;
        let oldest = self.servers[s].queue.front().expect("live > 0").enqueued;
        let full = self.servers[s].live as u64 >= cfg.max_batch;
        let timed_out = now + 1e-12 >= oldest + cfg.batch_timeout_s;
        if !full && !timed_out {
            return false;
        }
        let take = (self.servers[s].live as u64).min(cfg.max_batch) as usize;
        let mut members = std::mem::take(&mut self.servers[s].batch.members);
        debug_assert!(members.is_empty(), "previous batch not drained");
        let mut taken = 0usize;
        while taken < take {
            let entry = self.servers[s]
                .queue
                .pop_front()
                .expect("live entries remain");
            if !self.entry_live(s, &entry) {
                continue;
            }
            self.req.set_phase(entry.req as usize, Phase::InService);
            self.metrics.queue_wait_s.observe(now - entry.enqueued);
            self.sink.emit(
                now,
                server_track(s),
                SpanPhase::End,
                "queued",
                queued_span_id(entry.req as usize, entry.attempt),
                entry.req as i64,
            );
            members.push(entry.req);
            taken += 1;
        }
        self.servers[s].live -= take;
        self.queued_live -= take;
        let mult = if self.cfg.stragglers.probability > 0.0
            && self.straggler_rng.gen_bool(self.cfg.stragglers.probability)
        {
            self.cfg.stragglers.factor
        } else {
            1.0
        };
        let service = self.batch_latency(take as u64) * mult * self.servers[s].degrade_factor;
        self.metrics.per_server_busy_s[s] += service;
        self.metrics.batch_sizes.observe(take as f64);
        let span_id = if S::ENABLED {
            self.span_seq += 1;
            self.span_seq
        } else {
            0
        };
        let server = &mut self.servers[s];
        server.batch = Batch {
            members,
            done_at: now + service,
            extra_delay_s: 0.0,
            span_id,
        };
        server.busy = true;
        server.launch = server.launch.wrapping_add(1);
        let launch = server.launch;
        self.sink.emit(
            now,
            server_track(s),
            SpanPhase::Begin,
            "batch",
            span_id,
            take as i64,
        );
        self.push_event(now + service, Event::Done { server: s, launch });
        true
    }

    /// After a server frees up (or comes back): launch, or re-arm its
    /// batch timer if work is waiting.
    fn relaunch_or_arm(&mut self, s: usize, now: f64) {
        if self.try_launch_on(s, now) || !self.servers[s].can_serve() {
            return;
        }
        self.compact_front(s);
        let Some(front) = self.servers[s].queue.front() else {
            return;
        };
        let fire = (front.enqueued + self.cfg.pool.base.batch_timeout_s).max(now);
        self.push_event(fire, Event::Timeout { server: s });
    }

    /// Applies one materialized fault to its server.
    fn inject_fault(&mut self, f: ScheduledFault, now: f64) {
        let s = f.server;
        self.servers[s].fault_epoch += 1;
        let epoch = self.servers[s].fault_epoch;
        self.sink.emit(
            now,
            server_track(s),
            SpanPhase::Instant,
            f.kind.name(),
            0,
            epoch as i64,
        );
        match f.kind {
            FaultKind::Crash { mttr_s } => {
                self.metrics.failures_injected.inc();
                if self.servers[s].is_available() {
                    self.servers[s].fault_at = now;
                    self.servers[s].down_since = now;
                    self.begin_down_span(s, now);
                }
                self.servers[s].health = Health::DownCrash;
                self.servers[s].degrade_factor = 1.0;
                // Fail-stop: in-flight work dies with the machine.
                if self.servers[s].busy {
                    self.servers[s].busy = false;
                    let batch = &mut self.servers[s].batch;
                    let refund = (batch.done_at - now).max(0.0);
                    let span_id = batch.span_id;
                    let mut members = std::mem::take(&mut batch.members);
                    self.metrics.per_server_busy_s[s] -= refund;
                    // Aborted batch: close its span with arg -1.
                    self.sink
                        .emit(now, server_track(s), SpanPhase::End, "batch", span_id, -1);
                    for req in members.drain(..) {
                        self.metrics.in_flight_failures.inc();
                        self.fail_request(req as usize, now);
                    }
                    // Hand the emptied buffer back. The pending Done
                    // finds the server idle or relaunched and is ignored.
                    self.servers[s].batch.members = members;
                }
                self.push_event(now + mttr_s, Event::CrashOver { server: s, epoch });
            }
            FaultKind::Hang { duration_s } => {
                self.metrics.failures_injected.inc();
                if self.servers[s].is_available() {
                    self.servers[s].fault_at = now;
                    self.servers[s].down_since = now;
                    self.begin_down_span(s, now);
                }
                self.servers[s].health = Health::DownHang;
                self.servers[s].hang_started = now;
                // Pause, don't lose: the batch finishes late by the
                // frozen overlap.
                if self.servers[s].busy {
                    let batch = &mut self.servers[s].batch;
                    batch.extra_delay_s += duration_s;
                    batch.done_at += duration_s;
                }
                self.push_event(now + duration_s, Event::HangOver { server: s, epoch });
            }
            FaultKind::SlowDegrade { factor, duration_s } => {
                self.metrics.degrades_injected.inc();
                if self.servers[s].health == Health::Up {
                    self.servers[s].health = Health::Degraded;
                }
                self.servers[s].degrade_factor = factor;
                self.push_event(now + duration_s, Event::DegradeOver { server: s, epoch });
            }
        }
    }

    /// Opens the availability (`down`) span for server `s`. Called
    /// exactly where `down_since` is stamped — the available → down
    /// transition — so spans mirror the downtime accounting.
    fn begin_down_span(&mut self, s: usize, now: f64) {
        if S::ENABLED {
            self.span_seq += 1;
            self.down_span[s] = self.span_seq;
            self.sink.emit(
                now,
                server_track(s),
                SpanPhase::Begin,
                "down",
                self.down_span[s],
                0,
            );
        }
    }

    /// Closes the open `down` span for server `s`, if any.
    fn end_down_span(&mut self, s: usize, at: f64) {
        if S::ENABLED && self.down_span[s] != 0 {
            let id = self.down_span[s];
            self.down_span[s] = 0;
            self.sink
                .emit(at, server_track(s), SpanPhase::End, "down", id, 0);
        }
    }

    /// A server transitions back to Up: account downtime, then serve
    /// whatever waited out the outage.
    fn server_up(&mut self, s: usize, now: f64) {
        self.servers[s].health = Health::Up;
        let down = (now - self.servers[s].down_since).max(0.0);
        self.servers[s].down_total_s += down;
        self.metrics.failures_recovered.inc();
        self.metrics
            .time_to_recover_s
            .observe(now - self.servers[s].fault_at);
        self.end_down_span(s, now);
        self.sink
            .emit(now, server_track(s), SpanPhase::Instant, "recovered", 0, 0);
        self.relaunch_or_arm(s, now);
    }

    /// One health-checker sweep: pull dead servers from rotation (and
    /// drain their queues onto the survivors), re-admit recovered ones.
    fn probe_all(&mut self, now: f64) {
        for s in 0..self.cfg.pool.servers {
            let down_to_prober = match self.servers[s].health {
                Health::DownCrash | Health::Recovering => true,
                Health::DownHang => {
                    now - self.servers[s].hang_started + 1e-12 >= self.failover.probe_timeout_s
                }
                Health::Up | Health::Degraded => false,
            };
            if self.servers[s].believed_up && down_to_prober {
                self.servers[s].believed_up = false;
                self.up_count -= 1;
                self.metrics.failures_detected.inc();
                self.metrics
                    .time_to_detect_s
                    .observe(now - self.servers[s].fault_at);
                self.sink
                    .emit(now, server_track(s), SpanPhase::Instant, "detected", 0, 0);
                // Failover: the dead server's queue is redistributed to
                // surviving replicas (or shed, via normal admission).
                // Stale entries are discarded here; only live ones count
                // as redistributed. The drain buffer is reused across
                // probes so failover allocates nothing in steady state.
                let mut stranded = std::mem::take(&mut self.scratch_entries);
                stranded.clear();
                stranded.extend(self.servers[s].queue.drain(..));
                self.queued_live -= self.servers[s].live;
                self.servers[s].live = 0;
                for e in stranded.drain(..) {
                    if self.req.meta[e.req as usize] == ReqTable::queued_key(s, e.attempt) {
                        self.metrics.failover_redistributed.inc();
                        // The old residency ends here; `admit` opens a
                        // fresh `queued` span at the next attempt.
                        self.sink.emit(
                            now,
                            server_track(s),
                            SpanPhase::End,
                            "queued",
                            queued_span_id(e.req as usize, e.attempt),
                            e.req as i64,
                        );
                        self.admit(e.req as usize, now);
                    }
                }
                self.scratch_entries = stranded;
            } else if !self.servers[s].believed_up && self.servers[s].is_available() {
                // The machine answers probes again: back into rotation.
                self.servers[s].believed_up = true;
                self.up_count += 1;
                self.sink
                    .emit(now, server_track(s), SpanPhase::Instant, "readmit", 0, 0);
                self.relaunch_or_arm(s, now);
            }
        }
    }

    fn run(self) -> ServingReport {
        self.run_with_samples().0
    }

    /// [`Self::run`] plus the raw completion-latency samples (seconds,
    /// in completion order, one per completed request) — the global
    /// fleet layer needs per-request samples to apply cross-cell
    /// redirect penalties and fold exact global percentiles.
    fn run_with_samples(mut self) -> (ServingReport, Vec<f64>) {
        let first = self.arrivals[0];
        self.push_event(first, Event::Arrival(0));
        for fi in 0..self.faults.len() {
            let at = self.faults[fi].at_s;
            self.push_event(at, Event::Fault(fi));
        }
        if self.failover.enabled && !self.faults.is_empty() {
            self.push_event(self.failover.probe_interval_s, Event::Probe);
        }

        while let Some((now, event)) = self.next_event() {
            self.process_one(now, event);
        }
        self.finish()
    }

    /// Accounts and applies one popped event (the hot-loop body).
    #[inline(always)]
    fn process_one(&mut self, now: f64, event: Event) {
        self.metrics.events_processed.inc();
        if S::ENABLED {
            // Track the latest popped time so end-of-run telemetry
            // can be stamped after any late timer pops.
            self.last_now = self.last_now.max(now);
        }
        let n = self.cfg.pool.base.requests;
        match event {
            Event::Arrival(i) => {
                self.touch(now);
                self.metrics.arrivals.inc();
                self.req.first_arrival[i] = now;
                self.sink
                    .emit(now, FLEET, SpanPhase::Instant, "arrive", i as u64, 0);
                if i + 1 < n {
                    let t = self.arrivals[i + 1];
                    self.push_event(t, Event::Arrival(i + 1));
                }
                self.admit(i, now);
            }
            Event::Retry { req } => {
                self.touch(now);
                self.admit(req, now);
            }
            Event::Timeout { server } => {
                self.touch(now);
                if !self.try_launch_on(server, now) && self.servers[server].can_serve() {
                    self.compact_front(server);
                    if let Some(front) = self.servers[server].queue.front() {
                        // A server is free but the (new) oldest
                        // request has not waited out the timeout yet;
                        // this fire time is strictly in the future,
                        // else the launch would have happened.
                        let t = front.enqueued + self.cfg.pool.base.batch_timeout_s;
                        self.push_event(t, Event::Timeout { server });
                    }
                }
            }
            Event::Expire { server } => {
                // No touch here: a sweep is only material if it
                // sheds, and terminal sheds touch inside
                // `shed_request`. Shed whatever has expired by now
                // (entries behind
                // the armed-for front can only expire later, so the
                // prefix scan sheds at exact expiry times), then
                // re-arm for the new front if work remains.
                self.servers[server].expiry_pending = false;
                self.shed_expired_prefix_on(server, now);
                self.arm_expiry(server);
            }
            Event::Done { server, launch } => {
                if !self.servers[server].busy || self.servers[server].launch != launch {
                    // The batch died in a crash (its members were
                    // already failed or retried), and the server is
                    // idle or has launched since. Nothing to do.
                    return;
                }
                let delay = self.servers[server].batch.extra_delay_s;
                if delay > 0.0 {
                    // The server hung during service: the batch
                    // resumes after the thaw and finishes late.
                    self.servers[server].batch.extra_delay_s = 0.0;
                    self.push_event(now + delay, Event::Done { server, launch });
                    return;
                }
                self.touch(now);
                if S::ENABLED {
                    let span_id = self.servers[server].batch.span_id;
                    let size = self.servers[server].batch.members.len() as i64;
                    self.sink.emit(
                        now,
                        server_track(server),
                        SpanPhase::End,
                        "batch",
                        span_id,
                        size,
                    );
                }
                let mut members = std::mem::take(&mut self.servers[server].batch.members);
                self.servers[server].busy = false;
                for req in members.drain(..) {
                    let req = req as usize;
                    let lat = now - self.req.first_arrival[req];
                    self.req.set_phase(req, Phase::Completed);
                    self.latencies.push(lat);
                    self.completed += 1;
                    self.metrics.completed.inc();
                    self.metrics.per_server_completed[server] += 1;
                    self.sink.emit(
                        now,
                        FLEET,
                        SpanPhase::Instant,
                        "complete",
                        req as u64,
                        server as i64,
                    );
                    match self.cfg.policy.deadline_s {
                        Some(d) if lat > d => self.metrics.completed_late.inc(),
                        _ => self.good += 1,
                    }
                }
                // Hand the buffer back for the relaunch below to reuse.
                self.servers[server].batch.members = members;
                // The freed server may immediately take another batch.
                self.relaunch_or_arm(server, now);
            }
            Event::Fault(fi) => {
                let f = self.faults[fi];
                self.inject_fault(f, now);
            }
            Event::CrashOver { server, epoch } => {
                if self.servers[server].fault_epoch == epoch
                    && self.servers[server].health == Health::DownCrash
                {
                    self.servers[server].health = Health::Recovering;
                    self.push_event(
                        now + self.failover.recovery_warmup_s,
                        Event::RecoveryDone { server, epoch },
                    );
                }
            }
            Event::HangOver { server, epoch } => {
                if self.servers[server].fault_epoch == epoch
                    && self.servers[server].health == Health::DownHang
                {
                    self.server_up(server, now);
                }
            }
            Event::DegradeOver { server, epoch } => {
                if self.servers[server].fault_epoch == epoch
                    && self.servers[server].health == Health::Degraded
                {
                    self.servers[server].health = Health::Up;
                    self.servers[server].degrade_factor = 1.0;
                }
            }
            Event::RecoveryDone { server, epoch } => {
                if self.servers[server].fault_epoch == epoch
                    && self.servers[server].health == Health::Recovering
                {
                    self.server_up(server, now);
                }
            }
            Event::Probe => {
                self.sink
                    .emit(now, FLEET, SpanPhase::Instant, "probe", 0, 0);
                self.probe_all(now);
                // Re-arm only while requests are unresolved, so the
                // event heap can drain.
                if self.completed + self.shed + self.failed < n {
                    self.push_event(now + self.failover.probe_interval_s, Event::Probe);
                }
            }
        }
    }

    /// Post-loop accounting: drain leftovers as dropped, close any
    /// still-open telemetry spans, and assemble the report (plus the
    /// raw completion-latency samples, in completion order).
    fn finish(mut self) -> (ServingReport, Vec<f64>) {
        let n = self.cfg.pool.base.requests;
        // End-of-run telemetry is stamped at or after every event the
        // stream already holds (late timers can pop past `end_time`).
        let stamp = self.end_time.max(self.last_now);
        // Anything still queued when the heap drained is accounted as
        // dropped — conservation over silent loss.
        let mut dropped = 0usize;
        for s in 0..self.cfg.pool.servers {
            while let Some(entry) = self.servers[s].queue.pop_front() {
                if !self.entry_live(s, &entry) {
                    continue;
                }
                self.servers[s].live -= 1;
                self.queued_live -= 1;
                self.req.set_phase(entry.req as usize, Phase::Lost);
                self.metrics.dropped_at_drain.inc();
                dropped += 1;
                self.sink.emit(
                    stamp,
                    server_track(s),
                    SpanPhase::End,
                    "queued",
                    queued_span_id(entry.req as usize, entry.attempt),
                    entry.req as i64,
                );
                self.sink.emit(
                    stamp,
                    FLEET,
                    SpanPhase::Instant,
                    "dropped",
                    entry.req as u64,
                    0,
                );
            }
        }
        debug_assert_eq!(self.queued_live, 0, "live-queued accounting drift");
        debug_assert_eq!(
            self.completed + self.shed + self.failed + dropped,
            n,
            "request conservation violated"
        );

        let end = self.end_time;
        for s in 0..self.cfg.pool.servers {
            if !self.servers[s].is_available() {
                let extra = (end - self.servers[s].down_since).max(0.0);
                self.servers[s].down_total_s += extra;
            }
            // Close the availability span of servers that never came
            // back; span balance must hold on every recorded run.
            self.end_down_span(s, stamp);
            self.metrics.per_server_down_s[s] = self.servers[s].down_total_s.min(end.max(0.0));
        }

        let stats = LatencyStats::from_samples(&self.latencies);
        let total_time = self.end_time.max(1e-12);
        let servers = self.cfg.pool.servers;
        let busy_total: f64 = self.metrics.per_server_busy_s.iter().sum();
        let report = ServingReport {
            p50_s: stats.p50_s,
            p99_s: stats.p99_s,
            throughput_rps: self.completed as f64 / total_time,
            goodput_rps: self.good as f64 / total_time,
            mean_batch: self.metrics.batch_sizes.mean(),
            server_utilization: (busy_total / (total_time * servers as f64)).clamp(0.0, 1.0),
            arrivals: n,
            completed: self.completed,
            shed: self.shed,
            dropped,
            failed: self.failed,
            seed: self.cfg.pool.base.seed,
            duration_s: self.end_time,
            stats,
            metrics: self.metrics,
        };
        (report, self.latencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_model() -> LatencyModel {
        // 1 ms fixed + 0.05 ms per item.
        LatencyModel::from_points(vec![(1, 0.00105), (100, 0.006)]).unwrap()
    }

    fn cfg(rate: f64) -> ServingConfig {
        ServingConfig {
            arrival_rate_rps: rate,
            max_batch: 16,
            batch_timeout_s: 0.001,
            requests: 4000,
            seed: 42,
        }
    }

    #[test]
    fn all_requests_complete() {
        let r = simulate(&linear_model(), &cfg(2000.0)).unwrap();
        assert_eq!(r.stats.n, 4000);
        assert_eq!(r.completed, 4000);
        assert_eq!(r.shed, 0);
        assert_eq!(r.dropped, 0);
        assert!(r.conservation_holds());
        assert!(r.throughput_rps > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(&linear_model(), &cfg(2000.0)).unwrap();
        let b = simulate(&linear_model(), &cfg(2000.0)).unwrap();
        assert_eq!(a, b);
        let mut c2 = cfg(2000.0);
        c2.seed = 43;
        let c = simulate(&linear_model(), &c2).unwrap();
        // Different arrival draws shift the mean (p99 may coincide when
        // dominated by the batch timeout).
        assert_ne!(a.stats.mean_s, c.stats.mean_s);
    }

    #[test]
    fn light_load_latency_is_service_plus_timeout() {
        // At very light load, each request waits out the batch timeout
        // alone, then is served at batch 1.
        let m = linear_model();
        let mut c = cfg(10.0);
        c.requests = 500;
        let r = simulate(&m, &c).unwrap();
        let expected = 0.001 + m.latency(1);
        assert!(
            (r.p50_s - expected).abs() < 0.3e-3,
            "p50 {} vs expected {expected}",
            r.p50_s
        );
        assert!(r.mean_batch < 1.3);
    }

    #[test]
    fn heavy_load_forms_big_batches() {
        let r_light = simulate(&linear_model(), &cfg(200.0)).unwrap();
        let r_heavy = simulate(&linear_model(), &cfg(8000.0)).unwrap();
        assert!(r_heavy.mean_batch > 4.0 * r_light.mean_batch.max(1.0));
        assert!(r_heavy.server_utilization > r_light.server_utilization);
    }

    #[test]
    fn p99_explodes_past_saturation() {
        // Capacity with batch 16: 16 / latency(16) ≈ 9k rps.
        let below = simulate(&linear_model(), &cfg(5000.0)).unwrap();
        let mut over = cfg(20000.0);
        over.requests = 6000;
        let above = simulate(&linear_model(), &over).unwrap();
        assert!(
            above.p99_s > 5.0 * below.p99_s,
            "saturation must blow up p99: {} vs {}",
            above.p99_s,
            below.p99_s
        );
    }

    #[test]
    fn p99_grows_with_load() {
        let mut last = 0.0;
        for rate in [500.0, 2000.0, 6000.0] {
            let r = simulate(&linear_model(), &cfg(rate)).unwrap();
            assert!(r.p99_s >= last * 0.8, "p99 should broadly grow with load");
            last = r.p99_s;
        }
    }

    #[test]
    fn stragglers_inflate_the_tail_more_than_the_median() {
        let m = linear_model();
        let base = simulate(&m, &cfg(2000.0)).unwrap();
        let slow = simulate_fleet(
            &m,
            &FleetConfig::new(cfg(2000.0).with_servers(1)).with_stragglers(Stragglers {
                probability: 0.02,
                factor: 10.0,
            }),
        )
        .unwrap();
        // All requests still complete.
        assert_eq!(slow.stats.n, base.stats.n);
        // The tail suffers disproportionately.
        let p99_blowup = slow.p99_s / base.p99_s;
        let p50_blowup = slow.p50_s / base.p50_s;
        assert!(p99_blowup > 2.0, "p99 blowup {p99_blowup}");
        assert!(
            p99_blowup > 2.0 * p50_blowup,
            "tail must suffer more: p99 {p99_blowup:.2}x vs p50 {p50_blowup:.2}x"
        );
    }

    #[test]
    fn zero_probability_stragglers_change_nothing() {
        let m = linear_model();
        let a = simulate(&m, &cfg(3000.0)).unwrap();
        let b = simulate_fleet(
            &m,
            &FleetConfig::new(cfg(3000.0).with_servers(1)).with_stragglers(Stragglers::default()),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn more_servers_cut_queueing_latency() {
        // Load that saturates one server comfortably fits four.
        let m = linear_model();
        let mut c = cfg(12000.0);
        c.requests = 6000;
        let one = simulate_fleet(&m, &FleetConfig::new(c.with_servers(1))).unwrap();
        let four = simulate_fleet(&m, &FleetConfig::new(c.with_servers(4))).unwrap();
        assert_eq!(one.stats.n, four.stats.n);
        assert!(
            four.p99_s < one.p99_s / 3.0,
            "four servers must slash the tail: {} vs {}",
            four.p99_s,
            one.p99_s
        );
        assert!(four.server_utilization < one.server_utilization);
    }

    #[test]
    fn pool_of_one_matches_single_server_api() {
        let m = linear_model();
        let c = cfg(2000.0);
        let a = simulate(&m, &c).unwrap();
        let b = simulate_fleet(&m, &FleetConfig::new(c.with_servers(1))).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pool_throughput_scales_until_arrival_limited() {
        let m = linear_model();
        let mut c = cfg(50_000.0); // far past single-server capacity
        c.requests = 8000;
        let t1 = simulate_fleet(&m, &FleetConfig::new(c.with_servers(1)))
            .unwrap()
            .throughput_rps;
        let t4 = simulate_fleet(&m, &FleetConfig::new(c.with_servers(4)))
            .unwrap()
            .throughput_rps;
        assert!(t4 > 2.5 * t1, "{t4} vs {t1}");
    }

    #[test]
    fn utilization_bounded() {
        let r = simulate(&linear_model(), &cfg(100000.0)).unwrap();
        assert!(r.server_utilization <= 1.0);
        assert!(r.server_utilization > 0.9);
    }

    // ---- config validation regressions --------------------------------

    #[test]
    fn max_batch_zero_is_a_typed_error() {
        // Regression: this used to spin forever launching empty batches
        // and then panic indexing the straggler table out of bounds.
        let m = linear_model();
        let mut c = cfg(1000.0);
        c.max_batch = 0;
        assert_eq!(simulate(&m, &c), Err(ConfigError::ZeroMaxBatch));
        assert_eq!(
            simulate_fleet(&m, &FleetConfig::new(c.with_servers(3))),
            Err(ConfigError::ZeroMaxBatch)
        );
    }

    #[test]
    fn zero_arrival_rate_is_a_typed_error() {
        let m = linear_model();
        let mut c = cfg(0.0);
        c.arrival_rate_rps = 0.0;
        assert_eq!(
            simulate(&m, &c),
            Err(ConfigError::NonPositiveArrivalRate(0.0))
        );
        assert_eq!(
            simulate_fleet(&m, &FleetConfig::new(c.with_servers(2))),
            Err(ConfigError::NonPositiveArrivalRate(0.0))
        );
        c.arrival_rate_rps = -5.0;
        assert!(matches!(
            simulate(&m, &c),
            Err(ConfigError::NonPositiveArrivalRate(_))
        ));
    }

    #[test]
    fn nan_and_degenerate_knobs_are_typed_errors() {
        let m = linear_model();
        let mut c = cfg(1000.0);
        c.arrival_rate_rps = f64::NAN;
        assert!(matches!(
            simulate(&m, &c),
            Err(ConfigError::NonPositiveArrivalRate(_))
        ));
        let mut c = cfg(1000.0);
        c.batch_timeout_s = f64::NAN;
        assert!(matches!(
            simulate(&m, &c),
            Err(ConfigError::InvalidBatchTimeout(_))
        ));
        let mut c = cfg(1000.0);
        c.batch_timeout_s = -1.0;
        assert!(matches!(
            simulate(&m, &c),
            Err(ConfigError::InvalidBatchTimeout(_))
        ));
        let mut c = cfg(1000.0);
        c.requests = 0;
        assert_eq!(simulate(&m, &c), Err(ConfigError::ZeroRequests));
        let pool = PoolConfig {
            base: cfg(1000.0),
            servers: 0,
        };
        assert_eq!(
            simulate_fleet(&m, &FleetConfig::new(pool)),
            Err(ConfigError::ZeroServers)
        );
        assert!(matches!(
            simulate_fleet(
                &m,
                &FleetConfig::new(cfg(1000.0).with_servers(1)).with_stragglers(Stragglers {
                    probability: 1.5,
                    factor: 2.0
                })
            ),
            Err(ConfigError::InvalidStragglerProbability(_))
        ));
        assert!(matches!(
            simulate_fleet(
                &m,
                &FleetConfig::new(cfg(1000.0).with_servers(1)).with_stragglers(Stragglers {
                    probability: 0.1,
                    factor: 0.5
                })
            ),
            Err(ConfigError::InvalidStragglerFactor(_))
        ));
    }

    #[test]
    fn request_count_past_the_id_space_is_a_typed_error() {
        // Regression: `validate` accepted this count, and the engine's
        // `u32` request-id assert panicked.
        let m = linear_model();
        let mut c = cfg(1000.0);
        c.requests = u32::MAX as usize;
        assert_eq!(
            simulate(&m, &c),
            Err(ConfigError::TooManyRequests(u32::MAX as usize))
        );
        c.requests = MAX_REQUESTS;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn pool_past_the_server_id_space_is_a_typed_error() {
        // Regression: `validate` accepted this pool, and the engine's
        // 29-bit server-id assert panicked.
        let m = linear_model();
        let pool = cfg(1000.0).with_servers(1 << 29);
        assert_eq!(
            simulate_fleet(&m, &FleetConfig::new(pool)),
            Err(ConfigError::TooManyServers(1 << 29))
        );
        assert_eq!(cfg(1000.0).with_servers(MAX_SERVERS).validate(), Ok(()));
    }

    #[test]
    fn bad_policy_is_a_typed_error() {
        let m = linear_model();
        let fleet =
            |policy: FleetPolicy| FleetConfig::new(cfg(1000.0).with_servers(1)).with_policy(policy);
        assert!(matches!(
            simulate_fleet(
                &m,
                &fleet(FleetPolicy {
                    deadline_s: Some(f64::NAN),
                    ..FleetPolicy::default()
                })
            ),
            Err(ConfigError::InvalidDeadline(_))
        ));
        assert_eq!(
            simulate_fleet(
                &m,
                &fleet(FleetPolicy {
                    shed_expired: true,
                    ..FleetPolicy::default()
                })
            ),
            Err(ConfigError::SheddingWithoutDeadline)
        );
        assert_eq!(
            simulate_fleet(
                &m,
                &fleet(FleetPolicy {
                    queue_cap: Some(0),
                    ..FleetPolicy::default()
                })
            ),
            Err(ConfigError::ZeroQueueCap)
        );
        assert!(matches!(
            simulate_fleet(
                &m,
                &fleet(FleetPolicy {
                    retry: RetryPolicy {
                        max_retries: 1,
                        backoff_s: -1.0,
                        backoff_mult: 2.0
                    },
                    ..FleetPolicy::default()
                })
            ),
            Err(ConfigError::InvalidRetryBackoff(_))
        ));
        assert!(matches!(
            simulate_fleet(
                &m,
                &fleet(FleetPolicy {
                    retry: RetryPolicy {
                        max_retries: 1,
                        backoff_s: 0.001,
                        backoff_mult: 0.0
                    },
                    ..FleetPolicy::default()
                })
            ),
            Err(ConfigError::InvalidRetryBackoffMult(_))
        ));
    }

    #[test]
    fn config_error_displays() {
        let msg = format!("{}", ConfigError::ZeroMaxBatch);
        assert!(msg.contains("max_batch"));
        let msg = format!("{}", ConfigError::NonPositiveArrivalRate(f64::NAN));
        assert!(msg.contains("arrival_rate_rps"));
    }

    // ---- fleet policy behavior ----------------------------------------

    /// A mildly overloaded fleet: one server, arrivals ~1.7x capacity.
    fn overloaded_fleet(policy: FleetPolicy) -> FleetConfig {
        let mut base = cfg(15_000.0);
        base.requests = 6000;
        FleetConfig::new(base.with_servers(1)).with_policy(policy)
    }

    #[test]
    fn conservation_holds_under_every_policy() {
        let m = linear_model();
        let policies = [
            FleetPolicy::default(),
            FleetPolicy {
                deadline_s: Some(0.01),
                shed_expired: true,
                ..FleetPolicy::default()
            },
            FleetPolicy {
                queue_cap: Some(32),
                ..FleetPolicy::default()
            },
            FleetPolicy {
                deadline_s: Some(0.01),
                shed_expired: true,
                queue_cap: Some(32),
                retry: RetryPolicy {
                    max_retries: 2,
                    backoff_s: 0.002,
                    backoff_mult: 2.0,
                },
                ..FleetPolicy::default()
            },
        ];
        for policy in policies {
            let r = simulate_fleet(&m, &overloaded_fleet(policy)).unwrap();
            assert!(
                r.conservation_holds(),
                "arrivals {} != completed {} + shed {} + dropped {} for {policy:?}",
                r.arrivals,
                r.completed,
                r.shed,
                r.dropped
            );
            assert_eq!(r.completed as u64, r.metrics.completed.get());
            assert_eq!(r.shed as u64, r.metrics.shed_total());
            assert_eq!(r.dropped as u64, r.metrics.dropped_at_drain.get());
        }
    }

    #[test]
    fn deadline_shedding_sheds_and_protects_goodput() {
        let m = linear_model();
        let deadline = 0.02;
        let no_shed = simulate_fleet(
            &m,
            &overloaded_fleet(FleetPolicy {
                deadline_s: Some(deadline),
                shed_expired: false,
                ..FleetPolicy::default()
            }),
        )
        .unwrap();
        let shed = simulate_fleet(
            &m,
            &overloaded_fleet(FleetPolicy {
                deadline_s: Some(deadline),
                shed_expired: true,
                ..FleetPolicy::default()
            }),
        )
        .unwrap();
        // Without shedding everything completes, but mostly too late.
        assert_eq!(no_shed.completed, no_shed.arrivals);
        assert!(no_shed.metrics.completed_late.get() > 0);
        assert!(no_shed.goodput_rps < no_shed.throughput_rps);
        // With shedding, expired requests are lost instead of served.
        assert!(shed.shed > 0);
        assert!(shed.metrics.shed_deadline.get() > 0);
        // Shedding protects goodput: served requests meet the deadline.
        assert!(
            shed.goodput_rps > 1.5 * no_shed.goodput_rps,
            "shedding goodput {} vs head-of-line-blocked {}",
            shed.goodput_rps,
            no_shed.goodput_rps
        );
    }

    #[test]
    fn queue_cap_sheds_under_overload() {
        let m = linear_model();
        let r = simulate_fleet(
            &m,
            &overloaded_fleet(FleetPolicy {
                queue_cap: Some(32),
                ..FleetPolicy::default()
            }),
        )
        .unwrap();
        assert!(r.shed > 0);
        assert!(r.metrics.shed_queue_full.get() > 0);
        // The queue never exceeded its cap, so waits stay bounded: every
        // admitted request waits at most cap/throughput plus service.
        assert!(
            r.p99_s < 0.05,
            "p99 {} should be bounded by the cap",
            r.p99_s
        );
        assert!(r.conservation_holds());
    }

    #[test]
    fn retries_recover_some_sheds() {
        let m = linear_model();
        let policy_no_retry = FleetPolicy {
            queue_cap: Some(32),
            ..FleetPolicy::default()
        };
        let policy_retry = FleetPolicy {
            queue_cap: Some(32),
            retry: RetryPolicy {
                max_retries: 3,
                backoff_s: 0.005,
                backoff_mult: 2.0,
            },
            ..FleetPolicy::default()
        };
        let without = simulate_fleet(&m, &overloaded_fleet(policy_no_retry)).unwrap();
        let with = simulate_fleet(&m, &overloaded_fleet(policy_retry)).unwrap();
        assert!(with.metrics.retries.get() > 0);
        // Every permanent loss under retries burned its whole budget.
        assert_eq!(with.shed as u64, with.metrics.retries_exhausted.get());
        // Retries convert some sheds into completions.
        assert!(
            with.completed > without.completed,
            "retries should recover work: {} vs {}",
            with.completed,
            without.completed
        );
        assert!(with.conservation_holds());
    }

    #[test]
    fn queue_budget_reserves_room_for_service() {
        let m = linear_model();
        // Budget validation.
        let bad = FleetConfig::new(cfg(1000.0).with_servers(1)).with_policy(FleetPolicy {
            deadline_s: Some(0.02),
            shed_expired: true,
            queue_budget_s: Some(f64::NAN),
            ..FleetPolicy::default()
        });
        assert!(matches!(
            simulate_fleet(&m, &bad),
            Err(ConfigError::InvalidQueueBudget(_))
        ));
        // With the full deadline as queue budget, a request can launch
        // right at the wire and finish late; reserving service time in
        // the budget keeps completions on time.
        let deadline = 0.02;
        let run = |budget: Option<f64>| {
            simulate_fleet(
                &m,
                &overloaded_fleet(FleetPolicy {
                    deadline_s: Some(deadline),
                    shed_expired: true,
                    queue_budget_s: budget,
                    ..FleetPolicy::default()
                }),
            )
            .unwrap()
        };
        let full = run(None);
        let reserved = run(Some(deadline - m.latency(16)));
        assert!(full.metrics.completed_late.get() > 0);
        assert!(
            reserved.metrics.completed_late.get() < full.metrics.completed_late.get(),
            "reserving service headroom must cut late completions: {} vs {}",
            reserved.metrics.completed_late.get(),
            full.metrics.completed_late.get()
        );
    }

    #[test]
    fn deadline_sheds_do_not_retry() {
        // Retries are for admission rejections; a request whose SLO
        // already passed is permanently lost even with a retry budget.
        let m = linear_model();
        let r = simulate_fleet(
            &m,
            &overloaded_fleet(FleetPolicy {
                deadline_s: Some(0.01),
                shed_expired: true,
                retry: RetryPolicy {
                    max_retries: 3,
                    backoff_s: 0.001,
                    backoff_mult: 2.0,
                },
                ..FleetPolicy::default()
            }),
        )
        .unwrap();
        assert!(r.metrics.shed_deadline.get() > 0);
        assert_eq!(r.metrics.retries.get(), 0);
        assert_eq!(r.shed as u64, r.metrics.shed_deadline.get());
        assert!(r.conservation_holds());
    }

    #[test]
    fn goodput_equals_throughput_without_deadline() {
        let r = simulate(&linear_model(), &cfg(2000.0)).unwrap();
        assert!((r.goodput_rps - r.throughput_rps).abs() < 1e-9);
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let m = linear_model();
        let fleet = overloaded_fleet(FleetPolicy {
            deadline_s: Some(0.015),
            shed_expired: true,
            queue_cap: Some(64),
            retry: RetryPolicy {
                max_retries: 2,
                backoff_s: 0.002,
                backoff_mult: 1.5,
            },
            ..FleetPolicy::default()
        })
        .with_stragglers(Stragglers {
            probability: 0.05,
            factor: 4.0,
        });
        let a = simulate_fleet(&m, &fleet).unwrap();
        let b = simulate_fleet(&m, &fleet).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn per_server_busy_time_is_tracked() {
        let m = linear_model();
        let mut c = cfg(12_000.0);
        c.requests = 6000;
        let r = simulate_fleet(&m, &FleetConfig::new(c.with_servers(3))).unwrap();
        assert_eq!(r.metrics.per_server_busy_s.len(), 3);
        // Under saturating load every server gets work.
        for (s, &busy) in r.metrics.per_server_busy_s.iter().enumerate() {
            assert!(busy > 0.0, "server {s} never worked");
        }
        let total: f64 = r.metrics.per_server_busy_s.iter().sum();
        assert!(r.server_utilization <= 1.0);
        assert!(total > 0.0);
    }

    // ---- fault injection, failover, availability ----

    use crate::faults::{FailoverConfig, FaultKind, FaultPlan, MtbfFaults, ScheduledFault};

    fn crash(server: usize, at_s: f64, mttr_s: f64) -> ScheduledFault {
        ScheduledFault {
            server,
            at_s,
            kind: FaultKind::Crash { mttr_s },
        }
    }

    #[test]
    fn no_fault_plan_matches_plain_fleet() {
        let fleet = FleetConfig::new(cfg(6000.0).with_servers(3)).with_policy(FleetPolicy {
            deadline_s: Some(0.02),
            shed_expired: true,
            queue_cap: Some(64),
            retry: RetryPolicy {
                max_retries: 2,
                backoff_s: 0.002,
                backoff_mult: 2.0,
            },
            ..FleetPolicy::default()
        });
        let plain = simulate_fleet(&linear_model(), &fleet).unwrap();
        let with_empty =
            simulate_fleet_with_faults(&linear_model(), &fleet, &FaultPlan::none()).unwrap();
        assert_eq!(plain, with_empty);
    }

    #[test]
    fn huge_queue_cap_scales_without_overflow() {
        // Regression: with failover on and a crash scheduled, scaling
        // the cap by surviving capacity computed `cap * up_count` in
        // `usize`, which overflowed (a panic in debug builds, a silent
        // wrap in release). A cap this large never binds, so the run
        // must match the uncapped one.
        let m = linear_model();
        let fleet = |queue_cap| {
            FleetConfig::new(cfg(6000.0).with_servers(3)).with_policy(FleetPolicy {
                queue_cap,
                ..FleetPolicy::default()
            })
        };
        let plan = FaultPlan::scheduled(vec![crash(0, 0.05, 0.2)])
            .with_failover(FailoverConfig::default());
        let huge = simulate_fleet_with_faults(&m, &fleet(Some(usize::MAX)), &plan).unwrap();
        let uncapped = simulate_fleet_with_faults(&m, &fleet(None), &plan).unwrap();
        assert!(huge.conservation_holds());
        assert!(
            huge.metrics.failures_detected.get() > 0,
            "crash never detected"
        );
        assert_eq!(huge, uncapped);
    }

    #[test]
    fn failover_keeps_goodput_at_least_2x_past_first_crash() {
        // 4 servers, 3 crash early and stay down for the whole run. With
        // failover the health checker routes everything to the survivor;
        // without it the router keeps feeding dead replicas round-robin
        // and 3/4 of traffic expires in dead queues.
        let base = ServingConfig {
            arrival_rate_rps: 12_000.0,
            max_batch: 16,
            batch_timeout_s: 0.001,
            requests: 8000,
            seed: 42,
        };
        let fleet = FleetConfig::new(base.with_servers(4)).with_policy(FleetPolicy {
            deadline_s: Some(0.02),
            shed_expired: true,
            queue_budget_s: Some(0.015),
            queue_cap: None,
            retry: RetryPolicy::default(),
        });
        let plan = FaultPlan::scheduled(vec![
            crash(1, 0.02, 1e3),
            crash(2, 0.02, 1e3),
            crash(3, 0.02, 1e3),
        ])
        .with_failover(FailoverConfig {
            enabled: true,
            probe_interval_s: 0.002,
            probe_timeout_s: 0.001,
            recovery_warmup_s: 0.005,
        });
        let off_plan = plan.clone().without_failover();
        let on = simulate_fleet_with_faults(&linear_model(), &fleet, &plan).unwrap();
        let off = simulate_fleet_with_faults(&linear_model(), &fleet, &off_plan).unwrap();
        assert!(on.conservation_holds());
        assert!(off.conservation_holds());
        // The acceptance bar: failover retains >= 2x goodput under the
        // identical fault plan and seed.
        assert!(
            on.goodput_rps >= 2.0 * off.goodput_rps,
            "failover-on goodput {} not >= 2x failover-off {}",
            on.goodput_rps,
            off.goodput_rps
        );
        assert!(on.metrics.failures_detected.get() >= 3);
        assert_eq!(off.metrics.failures_detected.get(), 0);
        assert!(on.metrics.failover_redistributed.get() > 0);
    }

    #[test]
    fn crash_fails_in_flight_work() {
        let base = ServingConfig {
            arrival_rate_rps: 8000.0,
            max_batch: 16,
            batch_timeout_s: 0.001,
            requests: 2000,
            seed: 7,
        };
        let fleet = FleetConfig::new(base.with_servers(1));
        let plan = FaultPlan::scheduled(vec![crash(0, 0.05, 0.01)]);
        let r = simulate_fleet_with_faults(&linear_model(), &fleet, &plan).unwrap();
        assert!(r.conservation_holds());
        assert!(r.failed >= 1, "the crash should kill the in-flight batch");
        assert!(r.metrics.in_flight_failures.get() >= 1);
        assert_eq!(r.metrics.failures_recovered.get(), 1);
    }

    #[test]
    fn aborted_batch_done_does_not_end_the_relaunched_batch() {
        // One overloaded server with a 0.2 s service time crashes at
        // 0.05 s mid-batch, is back up 0.011 s later, and relaunches
        // from its queue long before the aborted batch's `Done` pops.
        // That `Done` must be ignored: every batch that is not aborted
        // runs for its full service time.
        let model = LatencyModel::from_points(vec![(1, 0.2), (64, 0.263)]).unwrap();
        let base = ServingConfig {
            arrival_rate_rps: 1000.0,
            max_batch: 4,
            batch_timeout_s: 0.001,
            requests: 40,
            seed: 3,
        };
        let fleet = FleetConfig::new(base.with_servers(1));
        let plan = FaultPlan::scheduled(vec![crash(0, 0.05, 0.001)]).without_failover();
        let mut rec = Recorder::new();
        let r = simulate_fleet_recorded(&model, &fleet, &plan, &mut rec).unwrap();
        assert!(r.conservation_holds());
        assert_eq!(r.metrics.failures_recovered.get(), 1);

        // Span id -> (begin time, batch size).
        let mut begun = std::collections::BTreeMap::new();
        let mut aborted_done_at = None;
        let (mut completed, mut relaunched_before_aborted_done) = (0, false);
        for e in rec.events().filter(|e| e.name == "batch") {
            if e.phase == SpanPhase::Begin {
                begun.insert(e.id, (e.t_s, e.arg as u64));
                continue;
            }
            let (begin, size) = begun[&e.id];
            let service = model.latency(size);
            if e.arg < 0 {
                aborted_done_at = Some(begin + service);
                continue;
            }
            assert!(
                (e.t_s - begin - service).abs() < 1e-9,
                "batch {} of {size} ran {} s, not its {service} s service time",
                e.id,
                e.t_s - begin
            );
            completed += size as usize;
            relaunched_before_aborted_done |= aborted_done_at.is_some_and(|t| begin < t);
        }
        assert!(aborted_done_at.is_some(), "the crash aborted no batch");
        assert!(relaunched_before_aborted_done);
        assert_eq!(completed, r.completed);
    }

    #[test]
    fn failed_requests_retry_and_complete() {
        let base = ServingConfig {
            arrival_rate_rps: 8000.0,
            max_batch: 16,
            batch_timeout_s: 0.001,
            requests: 2000,
            seed: 7,
        };
        let plan = FaultPlan::scheduled(vec![crash(0, 0.05, 0.01)]);
        let without = simulate_fleet_with_faults(
            &linear_model(),
            &FleetConfig::new(base.with_servers(1)),
            &plan,
        )
        .unwrap();
        let with = simulate_fleet_with_faults(
            &linear_model(),
            &FleetConfig::new(base.with_servers(1)).with_policy(FleetPolicy {
                retry: RetryPolicy {
                    max_retries: 3,
                    backoff_s: 0.01,
                    backoff_mult: 2.0,
                },
                ..FleetPolicy::default()
            }),
            &plan,
        )
        .unwrap();
        assert!(with.conservation_holds());
        assert!(with.completed > without.completed);
        assert!(with.metrics.retries.get() > 0);
    }

    #[test]
    fn hang_pauses_but_loses_nothing() {
        // Failover off: with one server, pulling it from rotation would
        // shed everything; a pure hang should just pause.
        let base = ServingConfig {
            arrival_rate_rps: 2000.0,
            max_batch: 16,
            batch_timeout_s: 0.001,
            requests: 1500,
            seed: 11,
        };
        let fleet = FleetConfig::new(base.with_servers(1));
        let clean = simulate_fleet(&linear_model(), &fleet).unwrap();
        let plan = FaultPlan::scheduled(vec![ScheduledFault {
            server: 0,
            at_s: 0.1,
            kind: FaultKind::Hang { duration_s: 0.05 },
        }])
        .without_failover();
        let r = simulate_fleet_with_faults(&linear_model(), &fleet, &plan).unwrap();
        assert_eq!(r.completed, r.arrivals, "a hang must not lose requests");
        assert!(r.stats.max_s >= 0.05, "someone waited out the freeze");
        assert!(r.p99_s > clean.p99_s);
        assert_eq!(r.metrics.failures_injected.get(), 1);
        assert_eq!(r.metrics.failures_recovered.get(), 1);
    }

    #[test]
    fn slow_degrade_slows_but_serves() {
        let base = ServingConfig {
            arrival_rate_rps: 1500.0,
            max_batch: 16,
            batch_timeout_s: 0.001,
            requests: 1500,
            seed: 13,
        };
        let fleet = FleetConfig::new(base.with_servers(1));
        let clean = simulate_fleet(&linear_model(), &fleet).unwrap();
        let plan = FaultPlan::scheduled(vec![ScheduledFault {
            server: 0,
            at_s: 0.0,
            kind: FaultKind::SlowDegrade {
                factor: 3.0,
                duration_s: 1e3,
            },
        }]);
        let r = simulate_fleet_with_faults(&linear_model(), &fleet, &plan).unwrap();
        assert_eq!(r.completed, r.arrivals, "degraded servers still serve");
        assert!(r.p99_s > clean.p99_s);
        // Degraded servers answer probes: never detected as down.
        assert_eq!(r.metrics.failures_detected.get(), 0);
        assert_eq!(r.metrics.degrades_injected.get(), 1);
    }

    #[test]
    fn recovery_readmits_and_availability_accounted() {
        let base = ServingConfig {
            arrival_rate_rps: 10_000.0,
            max_batch: 16,
            batch_timeout_s: 0.001,
            requests: 6000,
            seed: 21,
        };
        let fleet = FleetConfig::new(base.with_servers(2));
        let failover = FailoverConfig {
            enabled: true,
            probe_interval_s: 0.002,
            probe_timeout_s: 0.001,
            recovery_warmup_s: 0.01,
        };
        let plan = FaultPlan::scheduled(vec![crash(1, 0.05, 0.05)]).with_failover(failover);
        let r = simulate_fleet_with_faults(&linear_model(), &fleet, &plan).unwrap();
        assert!(r.conservation_holds());
        assert_eq!(r.metrics.failures_detected.get(), 1);
        assert_eq!(r.metrics.failures_recovered.get(), 1);
        // Downtime covers MTTR + warmup, bounded well under 2x.
        assert!(r.metrics.per_server_down_s[1] > 0.05);
        assert!(r.metrics.per_server_down_s[1] < 0.1);
        assert_eq!(r.metrics.per_server_down_s[0], 0.0);
        // The recovered server takes traffic again.
        assert!(r.metrics.per_server_completed[1] > 0);
        let avail = r.metrics.per_server_availability(r.duration_s);
        assert!(avail[1] < 1.0);
        assert!((avail[0] - 1.0).abs() < 1e-12);
        // Detection lag bounded by the probe schedule.
        assert!(r.metrics.time_to_detect_s.max() <= failover.worst_case_detection_s() + 1e-9);
    }

    #[test]
    fn seed_recorded_and_fault_replay_bit_identical() {
        let fleet = FleetConfig::new(cfg(9000.0).with_servers(3))
            .with_stragglers(Stragglers {
                probability: 0.05,
                factor: 4.0,
            })
            .with_policy(FleetPolicy {
                deadline_s: Some(0.03),
                shed_expired: true,
                queue_cap: Some(128),
                retry: RetryPolicy {
                    max_retries: 2,
                    backoff_s: 0.002,
                    backoff_mult: 2.0,
                },
                ..FleetPolicy::default()
            });
        let plan = FaultPlan {
            scheduled: Vec::new(),
            mtbf: Some(MtbfFaults {
                mtbf_s: 0.2,
                mttr_s: 0.02,
                horizon_s: 1.0,
            }),
            fault_seed: 99,
            failover: FailoverConfig::default(),
        };
        let a = simulate_fleet_with_faults(&linear_model(), &fleet, &plan).unwrap();
        let b = simulate_fleet_with_faults(&linear_model(), &fleet, &plan).unwrap();
        assert_eq!(
            a, b,
            "same config + plan + seed must replay bit-identically"
        );
        assert_eq!(a.seed, 42);
    }

    #[test]
    fn fault_plan_validation_is_typed() {
        let fleet = FleetConfig::new(cfg(2000.0).with_servers(2));
        let m = linear_model();
        let bad_mtbf = FaultPlan {
            scheduled: Vec::new(),
            mtbf: Some(MtbfFaults {
                mtbf_s: f64::NAN,
                mttr_s: 0.1,
                horizon_s: 1.0,
            }),
            fault_seed: 0,
            failover: FailoverConfig::default(),
        };
        assert!(matches!(
            simulate_fleet_with_faults(&m, &fleet, &bad_mtbf),
            Err(ConfigError::InvalidMtbf(_))
        ));
        let bad_mttr = FaultPlan::scheduled(vec![crash(0, 0.1, -1.0)]);
        assert!(matches!(
            simulate_fleet_with_faults(&m, &fleet, &bad_mttr),
            Err(ConfigError::InvalidMttr(_))
        ));
        let bad_server = FaultPlan::scheduled(vec![crash(5, 0.1, 0.1)]);
        assert!(matches!(
            simulate_fleet_with_faults(&m, &fleet, &bad_server),
            Err(ConfigError::FaultServerOutOfRange {
                server: 5,
                servers: 2
            })
        ));
        let bad_probe =
            FaultPlan::scheduled(vec![crash(0, 0.1, 0.1)]).with_failover(FailoverConfig {
                probe_interval_s: 0.0,
                ..FailoverConfig::default()
            });
        assert!(matches!(
            simulate_fleet_with_faults(&m, &fleet, &bad_probe),
            Err(ConfigError::InvalidProbeInterval(_))
        ));
    }

    #[test]
    fn no_completions_attributed_to_dead_server() {
        let base = ServingConfig {
            arrival_rate_rps: 9000.0,
            max_batch: 16,
            batch_timeout_s: 0.001,
            requests: 4000,
            seed: 17,
        };
        let fleet = FleetConfig::new(base.with_servers(4)).with_policy(FleetPolicy {
            deadline_s: Some(0.05),
            shed_expired: true,
            ..FleetPolicy::default()
        });
        // Server 2 dies before any work arrives and never comes back.
        let plan = FaultPlan::scheduled(vec![crash(2, 0.0, 1e6)]);
        let r = simulate_fleet_with_faults(&linear_model(), &fleet, &plan).unwrap();
        assert!(r.conservation_holds());
        assert_eq!(r.metrics.per_server_completed[2], 0);
        assert_eq!(r.metrics.per_server_busy_s[2], 0.0);
    }
}
