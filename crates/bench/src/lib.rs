//! The experiment harness: every table and figure of the paper's
//! evaluation, regenerated (experiments E1–E14; see DESIGN.md's index).
//!
//! Each experiment exposes a `*_data()` function returning structured
//! results (used by integration tests to assert the paper's *shapes*)
//! and a `run()`/formatting path that renders the table the
//! `experiments` binary prints. EXPERIMENTS.md records paper-vs-measured
//! for each.
//!
//! ```no_run
//! // Print one experiment:
//! let out = tpu_bench::run_experiment("e5").unwrap();
//! println!("{out}");
//! ```

pub mod experiments;
pub mod multiseed;
pub mod quick;
pub mod util;

/// Runs one experiment by id (`"e1"`..`"e14"`), returning its rendered
/// output, or `None` for an unknown id.
pub fn run_experiment(id: &str) -> Option<String> {
    let out = match id.to_ascii_lowercase().as_str() {
        "e1" => experiments::tables::e1_table1(),
        "e2" => experiments::tables::e2_tech_scaling(),
        "e3" => experiments::tables::e3_app_table(),
        "e4" => experiments::perf::e4_roofline(),
        "e5" => experiments::perf::e5_perf_per_watt(),
        "e6" => experiments::perf::e6_cmem_sweep(),
        "e7" => experiments::perf::e7_compiler_gains(),
        "e8" => experiments::serving_exp::e8_latency_vs_batch(),
        "e9" => experiments::numerics_exp::e9_int8_vs_bf16(),
        "e10" => experiments::cost_exp::e10_tco(),
        "e11" => experiments::serving_exp::e11_multitenancy(),
        "e12" => experiments::cost_exp::e12_growth(),
        "e13" => experiments::cost_exp::e13_cooling(),
        "e14" => experiments::numerics_exp::e14_backwards_compat(),
        "e15" => experiments::scaleout::e15_scaleout(),
        "e16" => experiments::perf::e16_energy_breakdown(),
        "e17" => experiments::serving_exp::e17_batching_policies(),
        "e18" => experiments::cost_exp::e18_fleet_sizing(),
        "e19" => experiments::evolution::e19_workload_evolution(),
        "e20" => experiments::serving_exp::e20_interference(),
        "e21" => experiments::overload::e21_overload(),
        "e22" => experiments::chaos::e22_chaos(),
        "e24" => experiments::observability::e24_observability(),
        "e25" => experiments::generation::e25_generation(),
        "e26" => experiments::compiler_exp::e26_compiler(),
        "e27" => experiments::fleet_exp::e27_fleet(),
        "a1" => experiments::ablations::a1_mxu_count(),
        "a2" => experiments::ablations::a2_hbm_bandwidth(),
        "a3" => experiments::ablations::a3_clock(),
        "a4" => experiments::cost_exp::a4_electricity(),
        _ => return None,
    };
    Some(out)
}

/// All experiment ids in order (E15-E25 are extensions: ICI scale-out,
/// energy breakdown, batching policies, fleet sizing, workload
/// evolution, co-location interference, overload goodput, chaos /
/// failover, observability, continuous batching).
pub const ALL_EXPERIMENTS: [&str; 26] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21", "e22", "e24", "e25", "e26", "e27",
];

/// The fast deterministic subset the golden-regression test pins
/// (`--quick`): analytic tables, the recorded-lifecycle experiment, the
/// decode-loop sweep, and the compiler-pipeline replay, skipping the
/// long DES sweeps so the snapshot run stays cheap even in debug
/// builds.
pub const QUICK_EXPERIMENTS: [&str; 13] = [
    "e1", "e2", "e3", "e4", "e5", "e9", "e10", "e13", "e14", "e24", "e25", "e26", "e27",
];

/// The design-choice ablations (run with explicit ids or `--ablations`).
pub const ALL_ABLATIONS: [&str; 4] = ["a1", "a2", "a3", "a4"];
