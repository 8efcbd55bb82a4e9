//! The experiments, grouped by flavor.

pub mod ablations;
pub mod chaos;
pub mod compiler_exp;
pub mod cost_exp;
pub mod evolution;
pub mod fleet_exp;
pub mod generation;
pub mod numerics_exp;
pub mod observability;
pub mod overload;
pub mod perf;
pub mod scaleout;
pub mod serving_exp;
pub mod tables;
