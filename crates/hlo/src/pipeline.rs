//! The compiler driver: options, passes, and the executable artifact.

use std::fmt;

use tpu_arch::{ChipConfig, Generation};
use tpu_isa::program::VerifyError as IsaVerifyError;
use tpu_numerics::accum::AccumOrder;
use tpu_sim::plan::{StepKind, StepPlan};

use crate::fusion::FusionMap;
use crate::graph::Graph;
use crate::lower::{self, Lowered};
use crate::memory::{self, MemoryPlan};
use crate::passes::{self, PassError};
use crate::shape::ShapeError;
use crate::verify::{Verifier, VerifyError};

/// Optimization maturity levels, standing in for "XLA releases over
/// time" in the compiler-gains experiment (E7). The levels are
/// cumulative: each one keeps everything the levels below it do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// Naive lowering: no graph passes, no double buffering, no CMEM use.
    O0,
    /// Adds operator fusion.
    O1,
    /// Adds double-buffered weight streaming and the graph cleanups:
    /// constant folding, algebraic simplification and DCE.
    O2,
    /// Adds CMEM weight placement (full pipeline; the default).
    O3,
}

impl OptLevel {
    /// All levels, weakest first.
    pub const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];
}

/// Knobs of the compilation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerOptions {
    /// The optimization level: it selects the graph passes
    /// ([`crate::passes::pipeline_for`]), double buffering and CMEM
    /// placement.
    pub level: OptLevel,
    /// Override the CMEM capacity (bytes) for the E6 sweep. The override
    /// resizes a CMEM the chip has; a chip without CMEM plans a budget of
    /// 0 whatever the override says. Below O3 no weight goes to CMEM.
    pub cmem_budget_override: Option<u64>,
    /// Reproduce another generation's accumulation numerics bit-exactly
    /// (backwards ML compatibility, Lesson 4 / E14).
    pub bit_exact_with: Option<Generation>,
}

impl Default for CompilerOptions {
    fn default() -> CompilerOptions {
        CompilerOptions::level(OptLevel::O3)
    }
}

impl CompilerOptions {
    /// The options corresponding to an optimization maturity level.
    pub fn level(level: OptLevel) -> CompilerOptions {
        CompilerOptions {
            level,
            cmem_budget_override: None,
            bit_exact_with: None,
        }
    }

    /// The pipeline a chip's generation gets in production: each
    /// generation is served by the compiler maturity contemporary with
    /// it, which is how E26 replays Lesson 2 (*compiler compatibility
    /// trumps binary compatibility*) — the same source graph recompiles
    /// into a different, better program on each generation.
    pub fn for_chip(chip: &ChipConfig) -> CompilerOptions {
        CompilerOptions::level(match chip.generation {
            Generation::TpuV1 => OptLevel::O0,
            Generation::TpuV2 => OptLevel::O1,
            Generation::TpuV3 => OptLevel::O2,
            // The GPU comparison point and any future generation get
            // the contemporary (full) pipeline.
            _ => OptLevel::O3,
        })
    }

    /// Full pipeline but with CMEM disabled (useful on chips without one
    /// and as the E6 baseline): O2, which is O3 without CMEM placement.
    pub fn no_cmem() -> CompilerOptions {
        CompilerOptions::level(OptLevel::O2)
    }

    /// Full pipeline with an explicit CMEM budget in bytes (E6 sweep).
    pub fn with_cmem_budget(bytes: u64) -> CompilerOptions {
        CompilerOptions {
            cmem_budget_override: Some(bytes),
            ..CompilerOptions::default()
        }
    }

    /// The CMEM bytes `compile` plans weights into on `chip`: the chip's
    /// budget ([`memory::cmem_budget`]) at O3, and 0 below it, so that
    /// no weight is homed in CMEM and lowering streams each from HBM.
    pub(crate) fn cmem_budget(&self, chip: &ChipConfig) -> u64 {
        if self.level >= OptLevel::O3 {
            memory::cmem_budget(chip, self.cmem_budget_override)
        } else {
            0
        }
    }
}

/// Error produced by compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The graph is malformed (builder-level shape error).
    Graph(ShapeError),
    /// The graph, memory plan or fusion map failed structural
    /// verification (see [`crate::verify`]).
    Verify(VerifyError),
    /// An optimizing pass broke an invariant (see [`crate::passes`]).
    Pass(PassError),
    /// The model's weights exceed the chip's HBM capacity — it cannot be
    /// resident at all (relevant to multi-tenancy, E11).
    WeightsExceedHbm {
        /// Weight bytes required.
        needed: u64,
        /// HBM bytes available.
        available: u64,
    },
    /// The lowered plan's MXU work disagrees with the cost model: the
    /// step plan must bill exactly the live matrix flops of the graph it
    /// was lowered from (a compiler bug if it ever fires).
    CostModel {
        /// MXU flops summed over the step plan.
        planned: u64,
        /// Matrix flops of the live graph nodes.
        expected: u64,
    },
    /// The emitted VLIW program failed verification (a compiler bug if it
    /// ever happens; surfaced rather than panicking).
    Program(IsaVerifyError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Graph(e) => write!(f, "invalid graph: {e}"),
            CompileError::Verify(e) => write!(f, "verification failed: {e}"),
            CompileError::Pass(e) => write!(f, "optimization failed: {e}"),
            CompileError::WeightsExceedHbm { needed, available } => {
                write!(f, "weights need {needed} bytes but HBM holds {available}")
            }
            CompileError::CostModel { planned, expected } => {
                write!(
                    f,
                    "plan bills {planned} MXU flops but the graph's live matrix ops need {expected}"
                )
            }
            CompileError::Program(e) => write!(f, "emitted program invalid: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ShapeError> for CompileError {
    fn from(e: ShapeError) -> CompileError {
        CompileError::Graph(e)
    }
}

impl From<VerifyError> for CompileError {
    fn from(e: VerifyError) -> CompileError {
        CompileError::Verify(e)
    }
}

impl From<PassError> for CompileError {
    fn from(e: PassError) -> CompileError {
        CompileError::Pass(e)
    }
}

/// What the optimizing pipeline did during a compile, kept on the
/// [`Executable`] for experiment reporting (E26).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PassSummary {
    /// Names of passes that rewrote the graph, in application order.
    pub applied: Vec<&'static str>,
    /// Fixpoint sweeps executed.
    pub sweeps: usize,
    /// Graph nodes before optimization.
    pub nodes_before: usize,
    /// Graph nodes after optimization.
    pub nodes_after: usize,
}

/// A compiled model: step plan, VLIW program, memory plan and metadata.
#[derive(Debug, Clone)]
pub struct Executable {
    graph_name: String,
    chip_name: String,
    generation: Generation,
    plan: StepPlan,
    program: tpu_isa::Program,
    memory: MemoryPlan,
    fusion: FusionMap,
    options: CompilerOptions,
    pass_summary: PassSummary,
    weight_bytes: u64,
    flops: u64,
    mxu_dim: u32,
}

impl Executable {
    /// The simulator-ready step plan.
    pub fn plan(&self) -> &StepPlan {
        &self.plan
    }

    /// The schematic VLIW program in the target's encoding.
    pub fn program(&self) -> &tpu_isa::Program {
        &self.program
    }

    /// The memory plan (CMEM residency, tile sizes).
    pub fn memory(&self) -> &MemoryPlan {
        &self.memory
    }

    /// The fusion decisions.
    pub fn fusion(&self) -> &FusionMap {
        &self.fusion
    }

    /// The options used.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// What the optimizing pipeline did (passes applied, node deltas).
    pub fn pass_summary(&self) -> &PassSummary {
        &self.pass_summary
    }

    /// Name of the compiled graph.
    pub fn graph_name(&self) -> &str {
        &self.graph_name
    }

    /// Name of the target chip.
    pub fn chip_name(&self) -> &str {
        &self.chip_name
    }

    /// Target generation.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Weight bytes at the compiled precision.
    pub fn weight_bytes(&self) -> u64 {
        self.weight_bytes
    }

    /// Graph operations per execution.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// The fp32 accumulation order this executable's matmuls follow: the
    /// compat generation's order in bit-exact mode, else the chip's own.
    pub fn accum_order(&self) -> AccumOrder {
        let width = self
            .options
            .bit_exact_with
            .map_or(self.mxu_dim, lower::compat_mxu_dim);
        AccumOrder::systolic(width as usize)
    }

    /// Analytic latency estimate for this executable on a chip (see
    /// [`crate::cost`]): bounds the simulator without running it.
    pub fn cost_estimate(&self, chip: &ChipConfig) -> crate::cost::CostEstimate {
        crate::cost::estimate(&self.plan, chip)
    }

    /// Serializes the program in the target generation's binary format.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (none for verifier-clean programs).
    pub fn binary(&self) -> Result<Vec<u8>, tpu_isa::EncodeError> {
        tpu_isa::encode(&self.program)
    }
}

impl fmt::Display for Executable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "executable `{}` for {}: {} steps, {} bundles, {:.1} MiB weights ({:.0}% in CMEM)",
            self.graph_name,
            self.chip_name,
            self.plan.len(),
            self.program.len(),
            self.weight_bytes as f64 / (1 << 20) as f64,
            self.memory.cmem_fraction() * 100.0
        )
    }
}

/// Compiles a graph for a chip: verification → optimizing passes →
/// memory planning → lowering → cost-model cross-check → program
/// verification. Every analysis the backend consumes (the fusion map,
/// the memory plan) is re-verified against the graph it describes
/// before lowering sees it.
///
/// # Errors
///
/// Returns a [`CompileError`] for malformed or unverifiable graphs,
/// pass-invariant violations, weights that exceed HBM, cost-model
/// disagreements, or (never, absent bugs) invalid emitted programs.
pub fn compile(
    graph: &Graph,
    chip: &ChipConfig,
    options: &CompilerOptions,
) -> Result<Executable, CompileError> {
    // The pass manager relies on this check rather than repeating it.
    let verifier = Verifier::new();
    verifier.verify_graph(graph)?;

    // Optimizing passes, each gated by the verifier. The manager
    // re-verifies the fusion analysis against the final graph.
    let report = passes::pipeline_for(options).run_verified(graph)?;
    let optimized: &Graph = &report.graph;
    let fusion = report.fusion;

    let weight_bytes = optimized.weight_bytes();
    if weight_bytes > chip.hbm.capacity_bytes {
        return Err(CompileError::WeightsExceedHbm {
            needed: weight_bytes,
            available: chip.hbm.capacity_bytes,
        });
    }

    let cmem_budget = options.cmem_budget(chip);
    let memory = memory::plan(optimized, chip, Some(cmem_budget));
    verifier.verify_memory(optimized, &memory, cmem_budget)?;

    let Lowered {
        plan,
        program,
        accum_emulated: _,
    } = lower::lower(optimized, chip, &fusion, &memory, options);

    // Cost-model invariant: the plan must bill exactly the matrix work
    // of the live graph — no silently dropped or duplicated tiles.
    let planned: u64 = plan
        .steps()
        .iter()
        .filter(|s| matches!(s.kind, StepKind::Mxu { .. }))
        .map(|s| s.kind.flops())
        .sum();
    let (expected, _) = report
        .live_flops
        .unwrap_or_else(|| passes::live_flops(optimized));
    if planned != expected {
        return Err(CompileError::CostModel { planned, expected });
    }

    program.verify().map_err(CompileError::Program)?;

    Ok(Executable {
        graph_name: optimized.name().to_owned(),
        chip_name: chip.name.clone(),
        generation: chip.generation,
        plan,
        program,
        memory,
        fusion,
        options: options.clone(),
        pass_summary: PassSummary {
            applied: report.applied,
            sweeps: report.sweeps,
            nodes_before: graph.nodes().len(),
            nodes_after: optimized.nodes().len(),
        },
        weight_bytes,
        flops: optimized.flops(),
        mxu_dim: chip.mxu_dim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_arch::catalog;
    use tpu_numerics::DType;
    use tpu_sim::Simulator;

    fn mlp(batch: u64) -> Graph {
        let mut g = Graph::new("mlp", DType::Bf16);
        let x = g.parameter(&[batch, 2048]).unwrap();
        let w1 = g.constant(&[2048, 4096]).unwrap();
        let h = g.dot(x, w1).unwrap();
        let h = g.relu(h).unwrap();
        let w2 = g.constant(&[4096, 1024]).unwrap();
        let y = g.dot(h, w2).unwrap();
        g.mark_output(y);
        g
    }

    #[test]
    fn compile_and_simulate_every_generation() {
        let g = mlp(32);
        for chip in catalog::all_chips() {
            let exe = compile(&g, &chip, &CompilerOptions::default()).unwrap();
            let r = Simulator::new(chip.clone()).run(exe.plan()).unwrap();
            assert!(r.seconds > 0.0, "{}", chip.name);
            assert!(r.flops > 0);
            // One source graph, one compiler, every target: Lesson 2.
            assert_eq!(exe.generation(), chip.generation);
            exe.binary().unwrap();
        }
    }

    #[test]
    fn opt_levels_monotonically_improve_v4i_latency() {
        let g = mlp(16);
        let chip = catalog::tpu_v4i();
        let sim = Simulator::new(chip.clone());
        let mut last = f64::INFINITY;
        for level in OptLevel::ALL {
            let exe = compile(&g, &chip, &CompilerOptions::level(level)).unwrap();
            let t = sim.run(exe.plan()).unwrap().seconds;
            assert!(
                t <= last * 1.001,
                "level {level:?} regressed: {t} vs {last}"
            );
            last = t;
        }
    }

    #[test]
    fn cmem_speeds_up_weight_bound_models() {
        // Small batch → weight streaming dominates → CMEM is a big win.
        let g = mlp(4);
        let chip = catalog::tpu_v4i();
        let sim = Simulator::new(chip.clone());
        let with = compile(&g, &chip, &CompilerOptions::default()).unwrap();
        let without = compile(&g, &chip, &CompilerOptions::no_cmem()).unwrap();
        let t_with = sim.run(with.plan()).unwrap().seconds;
        let t_without = sim.run(without.plan()).unwrap().seconds;
        // The MXU's own weight-push rate floors the gain (weights still
        // stream through the array), so the win is bounded; the paper's
        // per-app CMEM gains are likewise workload-dependent.
        assert!(
            t_with < 0.75 * t_without,
            "CMEM should speed up weight-bound serving: {t_with} vs {t_without}"
        );
    }

    #[test]
    fn weights_exceeding_hbm_fail_to_compile() {
        // ~17 GiB of bf16 weights vs TPUv4i's 8 GiB HBM.
        let mut g = Graph::new("huge", DType::Bf16);
        let x = g.parameter(&[1, 65536]).unwrap();
        let w = g.constant(&[65536, 140000]).unwrap();
        let y = g.dot(x, w).unwrap();
        g.mark_output(y);
        let err = compile(&g, &catalog::tpu_v4i(), &CompilerOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::WeightsExceedHbm { .. }));
        // But it fits on TPUv3's 32 GiB.
        assert!(compile(&g, &catalog::tpu_v3(), &CompilerOptions::default()).is_ok());
    }

    #[test]
    fn bit_exact_mode_sets_order_and_costs_time() {
        let g = mlp(64);
        let chip = catalog::tpu_v4i();
        let sim = Simulator::new(chip.clone());
        let native = compile(&g, &chip, &CompilerOptions::default()).unwrap();
        let opts = CompilerOptions {
            bit_exact_with: Some(Generation::TpuV1),
            ..CompilerOptions::default()
        };
        let compat = compile(&g, &chip, &opts).unwrap();
        assert_eq!(native.accum_order(), AccumOrder::systolic(128));
        assert_eq!(compat.accum_order(), AccumOrder::systolic(256));
        let t_native = sim.run(native.plan()).unwrap().seconds;
        let t_compat = sim.run(compat.plan()).unwrap().seconds;
        assert!(t_compat > t_native, "emulation must cost time");
        // v3 compat is free on v4i (same 128-wide order).
        let v3opts = CompilerOptions {
            bit_exact_with: Some(Generation::TpuV3),
            ..CompilerOptions::default()
        };
        let v3compat = compile(&g, &chip, &v3opts).unwrap();
        let t_v3 = sim.run(v3compat.plan()).unwrap().seconds;
        assert!((t_v3 - t_native).abs() / t_native < 1e-9);
    }

    #[test]
    fn cmem_budget_sweep_is_monotone() {
        let g = mlp(4);
        let chip = catalog::tpu_v4i();
        let sim = Simulator::new(chip.clone());
        let mut last = f64::INFINITY;
        for mib in [0u64, 8, 16, 32, 64, 128] {
            let exe = compile(&g, &chip, &CompilerOptions::with_cmem_budget(mib << 20)).unwrap();
            let t = sim.run(exe.plan()).unwrap().seconds;
            assert!(
                t <= last * 1.001,
                "more CMEM must not slow things down ({mib} MiB: {t} vs {last})"
            );
            last = t;
        }
    }

    #[test]
    fn executable_accessors_and_display() {
        let g = mlp(8);
        let chip = catalog::tpu_v4i();
        let exe = compile(&g, &chip, &CompilerOptions::default()).unwrap();
        assert_eq!(exe.graph_name(), "mlp");
        assert_eq!(exe.chip_name(), "TPUv4i");
        assert_eq!(exe.weight_bytes(), g.weight_bytes());
        assert_eq!(exe.flops(), g.flops());
        assert!(exe.memory().cmem_fraction() > 0.99);
        assert!(exe.fusion().fused_count() > 0);
        let s = format!("{exe}");
        assert!(s.contains("mlp") && s.contains("TPUv4i"));
    }

    fn dirty_mlp(batch: u64) -> Graph {
        // Same math as `mlp`, but with the weights stored flattened
        // behind reshapes, a duplicate relu, and a dead constant — the
        // shape a naive frontend emits.
        let mut g = Graph::new("mlp-dirty", DType::Bf16);
        let x = g.parameter(&[batch, 2048]).unwrap();
        let w1f = g.constant(&[2048 * 4096]).unwrap();
        let w1 = g.reshape(w1f, &[2048, 4096]).unwrap();
        let h = g.dot(x, w1).unwrap();
        let h = g.relu(h).unwrap();
        let h = g.relu(h).unwrap();
        let w2f = g.constant(&[4096 * 1024]).unwrap();
        let w2 = g.reshape(w2f, &[4096, 1024]).unwrap();
        let y = g.dot(h, w2).unwrap();
        let _dead = g.constant(&[1024, 1024]).unwrap();
        g.mark_output(y);
        g
    }

    #[test]
    fn for_chip_matches_generation_maturity() {
        assert_eq!(
            CompilerOptions::for_chip(&catalog::tpu_v1()),
            CompilerOptions::level(OptLevel::O0)
        );
        assert_eq!(
            CompilerOptions::for_chip(&catalog::tpu_v2()),
            CompilerOptions::level(OptLevel::O1)
        );
        assert_eq!(
            CompilerOptions::for_chip(&catalog::tpu_v3()),
            CompilerOptions::level(OptLevel::O2)
        );
        assert_eq!(
            CompilerOptions::for_chip(&catalog::tpu_v4i()),
            CompilerOptions::level(OptLevel::O3)
        );
    }

    #[test]
    fn passes_recover_cmem_placement_for_dirty_graphs() {
        // O0 leaves the reshaped weights streaming from HBM; O3 folds
        // them back into constants the CMEM knapsack can place, and
        // collects the dead constant squatting on the budget.
        let g = dirty_mlp(4);
        let chip = catalog::tpu_v4i();
        let naive = compile(&g, &chip, &CompilerOptions::level(OptLevel::O0)).unwrap();
        let opt = compile(&g, &chip, &CompilerOptions::default()).unwrap();
        assert_eq!(naive.memory().cmem_fraction(), 0.0);
        assert!(opt.memory().cmem_fraction() > 0.99);
        assert!(opt.weight_bytes() < naive.weight_bytes());
        assert_eq!(opt.pass_summary().nodes_after, 6);
        assert!(opt.pass_summary().applied.contains(&"constant-fold"));

        let sim = Simulator::new(chip);
        let t_naive = sim.run(naive.plan()).unwrap().seconds;
        let t_opt = sim.run(opt.plan()).unwrap().seconds;
        assert!(
            t_opt < 0.75 * t_naive,
            "optimization should pay on dirty graphs: {t_opt} vs {t_naive}"
        );
    }

    #[test]
    fn compile_rejects_hand_assembled_garbage() {
        // A dangling output id gets past no verifier.
        let g = mlp(4);
        let (name, dtype, nodes, _) = g.into_parts();
        let bad = Graph::from_parts(&name, dtype, nodes, vec![crate::graph::OpId::from_raw(99)]);
        let err = compile(&bad, &catalog::tpu_v4i(), &CompilerOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            CompileError::Verify(_) | CompileError::Graph(_)
        ));
    }

    #[test]
    fn error_display() {
        let e = CompileError::WeightsExceedHbm {
            needed: 10,
            available: 5,
        };
        assert!(format!("{e}").contains("HBM"));
    }
}
