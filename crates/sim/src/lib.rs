//! Event-driven performance and energy simulator for TPU configurations.
//!
//! The paper evaluates TPUv4i on production hardware; this crate is the
//! substitute testbed (reproduction band 2/5: no silicon, no HDL). It
//! executes a [`plan::StepPlan`] — the tile-level schedule the `tpu-hlo`
//! compiler emits — against a [`tpu_arch::ChipConfig`], modeling:
//!
//! - **systolic MXU timing** (fill + stream, weight-stationary, int8
//!   double rate where supported),
//! - **memory channels as bandwidth servers** (HBM and CMEM serialize;
//!   DMA engines and latency overlap),
//! - **unit pools** (MXUs, VPUs, DMA engines, ICI links) with greedy
//!   list-scheduling contention,
//! - **energy integration** from the process node's per-op/per-byte
//!   table plus static power.
//!
//! The output [`report::SimReport`] carries time, energy, per-resource
//! utilization and the roofline coordinates used by experiments E4–E7.
//!
//! # Example
//!
//! ```
//! use tpu_sim::plan::{StepKind, StepPlan};
//! use tpu_sim::Simulator;
//! use tpu_arch::{catalog, MemLevel};
//! use tpu_numerics::DType;
//!
//! let mut plan = StepPlan::new("demo");
//! let load = plan.push(StepKind::DmaIn { from: MemLevel::Hbm, bytes: 1 << 20 }, &[]);
//! plan.push(
//!     StepKind::Mxu { rows: 128, cols: 128, inner: 128, dtype: DType::Bf16,
//!                     weights_resident: true },
//!     &[load],
//! );
//! let report = Simulator::new(catalog::tpu_v4i()).run(&plan).unwrap();
//! assert!(report.seconds > 0.0 && report.energy_joules > 0.0);
//! ```

pub mod engine;
pub mod machine;
pub mod plan;
pub mod report;
pub mod trace;

pub use engine::{SimError, Simulator, TimeKey};
pub use plan::{Step, StepId, StepKind, StepPlan};
pub use report::{Resource, SimReport};
pub use trace::{Trace, TraceEntry};
