//! Architecture descriptions for the TPU-generation reproduction.
//!
//! This crate is the structural substrate of the TPUv4i study: it knows
//! *what the chips are* — process nodes and their (unequal!) scaling,
//! memory-system envelopes, per-generation chip configurations, cooling
//! limits and a first-order floorplan model — but not how programs run on
//! them (that is `tpu-sim`) nor what they cost to own (that is `tpu-tco`).
//!
//! The paper's Lesson 1 ("logic, wires, SRAM and DRAM improve unequally")
//! lives in [`tech`]; Table 1 (the five-generation comparison) lives in
//! [`catalog`]; Lesson 5 (air cooling) is encoded in [`cooling`].
//!
//! # Example
//!
//! ```
//! use tpu_arch::catalog;
//! use tpu_numerics::DType;
//!
//! let v4i = catalog::tpu_v4i();
//! let tflops = v4i.peak_flops(DType::Bf16).unwrap() / 1e12;
//! assert!((tflops - 137.6).abs() < 1.0);
//! assert!(v4i.is_air_cooled());
//! ```

pub mod catalog;
pub mod chip;
pub mod cooling;
pub mod floorplan;
pub mod memory;
pub mod tech;
pub mod topology;

pub use chip::{ChipConfig, ChipConfigBuilder, ConfigError, Generation};
pub use cooling::CoolingTech;
pub use memory::{MemLevel, MemSpec};
pub use tech::{EnergyTable, ProcessNode};
pub use topology::IciTopology;
