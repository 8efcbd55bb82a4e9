//! Discrete-event inference serving on simulated TPUs.
//!
//! The paper's Lessons 7 and 10 are serving-system lessons, not chip
//! lessons: production inference must hit a **p99 latency SLO** (which
//! limits batch size long before chip memory does), and it must support
//! **multi-tenancy** (several models resident on one accelerator). This
//! crate provides the queueing substrate those experiments need:
//!
//! - [`latency`]: batch→latency curves profiled through the compiler and
//!   simulator, with linear interpolation between profiled batch sizes;
//! - [`des`]: a discrete-event fleet simulator with Poisson arrivals,
//!   dynamic batching (batch forms on size or timeout), per-request
//!   deadlines, admission-control load shedding, and retry-with-backoff
//!   — every entry point validates its config and returns a typed
//!   [`des::ConfigError`] for degenerate inputs. Its events pop from one
//!   `std` binary heap keyed by unique `(time, seq)` pairs, so a run is a
//!   pure function of its config and seed;
//! - [`generation`]: the autoregressive decode-loop scheduler
//!   ([`generation::simulate_generation`], re-exported from [`des`]):
//!   static vs continuous batching with KV-cache HBM as a first-class
//!   constrained resource. A heap of `(finish step, request)` pairs
//!   makes each decode step cost O(admits + retires), not O(batch);
//! - [`genmodel`]: bounded prompt/output token-count distributions and
//!   the per-request KV-cache footprint they imply;
//! - [`faults`]: fault injection and failover — validated [`FaultPlan`]s
//!   (scheduled fail-stop crashes and transient hangs, plus
//!   MTBF/MTTR-driven crashes), a server health lifecycle, and a health
//!   checker that drains dead servers' queues onto surviving replicas;
//! - [`metrics`]: the counters and histograms a serving fleet is
//!   operated on (sheds, retries, batch sizes, per-server busy time);
//! - [`stats`]: exact percentile computation over recorded latencies;
//! - [`slo`]: SLO-constrained search — the largest batch and the highest
//!   arrival rate that still meet a p99 target (E8);
//! - [`multitenant`]: several models sharing one chip, with HBM
//!   residency checks, weight-swap costs for non-resident models and
//!   per-tenant CMEM partitions (E11);
//! - [`fleet`]: the planet-scale layer — N cells behind a geo
//!   load-balancer, diurnal + flash-crowd traffic, correlated
//!   cell-level failure domains (outage / brownout / partition), and a
//!   target-utilization autoscaler with provisioning lag (E27).
//!
//! # Example
//!
//! ```
//! use tpu_serving::latency::LatencyModel;
//! use tpu_serving::des::{simulate, ServingConfig};
//!
//! // A synthetic 1 ms + 0.1 ms/item service curve.
//! let lat = LatencyModel::from_points(vec![(1, 0.0011), (64, 0.0074)]).unwrap();
//! let report = simulate(&lat, &ServingConfig {
//!     arrival_rate_rps: 1000.0,
//!     max_batch: 16,
//!     batch_timeout_s: 0.002,
//!     requests: 2000,
//!     seed: 7,
//! }).expect("config is valid");
//! assert!(report.p99_s >= report.p50_s);
//! assert!(report.conservation_holds());
//! ```

pub mod des;
pub mod faults;
pub mod fleet;
pub mod generation;
pub mod genmodel;
pub mod latency;
pub mod metrics;
pub mod multitenant;
pub mod slo;
pub mod stats;

pub use des::{
    simulate, simulate_fleet, simulate_fleet_recorded, simulate_fleet_samples,
    simulate_fleet_with_faults, simulate_generation, simulate_generation_recorded, BatchingMode,
    ConfigError, FleetConfig, FleetPolicy, GenConfig, GenReport, PoolConfig, RetryPolicy,
    ServingConfig, ServingReport,
};
pub use faults::{FailoverConfig, FaultKind, FaultPlan, MtbfFaults, ScheduledFault};
pub use fleet::{
    simulate_global, simulate_global_recorded, AutoscalerConfig, AutoscalerReport, Cell, CellFault,
    CellFaultKind, CellReport, FlashCrowd, GeoPolicy, GlobalConfig, GlobalReport, TrafficModel,
};
pub use genmodel::{GenerationModel, TokenDistribution};
pub use latency::{GenLatencyModel, LatencyModel};
pub use metrics::ServingMetrics;
pub use stats::LatencyStats;
