//! The optimizing pass framework: rewrites gated by the verifier and by
//! semantic-equivalence checks.
//!
//! A [`Pass`] inspects a graph and either leaves it alone, produces a
//! rewritten graph, or produces an analysis (the fusion map). The
//! [`PassManager`] runs its passes in order, repeatedly, until a full
//! sweep changes nothing (a fixpoint) — and sandwiches every rewrite:
//!
//! 1. the input graph is verified once up front;
//! 2. each rewritten graph must pass [`Verifier::verify_graph`];
//! 3. each rewrite must preserve the cost model's MXU flops exactly and
//!    must not increase total live flops (optimizers delete work, they
//!    don't invent it);
//! 4. optionally ([`PassManager::check_equivalence`]), each rewrite is
//!    differentially tested against the [`eval`] reference
//!    evaluator — before/after outputs must agree elementwise.
//!
//! The shipped passes are [`ConstantFold`] (reshape-of-constant
//! collapsing, which is what re-enables CMEM placement for weights a
//! frontend stored flattened), [`Simplify`] (algebraic identities),
//! [`Dce`] (dead-code elimination — parameters are the graph's call
//! signature and always survive), and [`FusionPass`] (the fusion
//! analysis, run last so it sees the final graph).

mod dce;
mod fold;
mod fuse;
mod simplify;

pub use dce::Dce;
pub use fold::ConstantFold;
pub use fuse::FusionPass;
pub use simplify::Simplify;

use std::borrow::Cow;
use std::fmt;

use crate::eval::{self, Divergence, EvalError, EvalOptions};
use crate::fusion::FusionMap;
use crate::graph::{Graph, HloOp, OpId};
use crate::pipeline::{CompilerOptions, OptLevel};
use crate::verify::{Verifier, VerifyError};

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// A rewritten graph, or `None` if the pass found nothing to do.
    pub rewrite: Option<Graph>,
    /// A fusion analysis, for analysis passes.
    pub fusion: Option<FusionMap>,
}

impl PassResult {
    /// The result of a pass that found nothing to do.
    pub fn unchanged() -> PassResult {
        PassResult::default()
    }

    /// The result of a rewriting pass.
    pub fn rewritten(graph: Graph) -> PassResult {
        PassResult {
            rewrite: Some(graph),
            fusion: None,
        }
    }
}

/// One unit of optimization: a rewrite or an analysis over a graph.
pub trait Pass {
    /// Short stable name, used in reports and errors.
    fn name(&self) -> &'static str;

    /// Runs the pass. Must return [`PassResult::unchanged`] when there
    /// is nothing to do (the manager uses that to detect the fixpoint),
    /// and must preserve graph semantics: the manager verifies and
    /// differentially tests every rewrite.
    fn run(&self, graph: &Graph) -> PassResult;
}

/// Error produced by a gated pass run.
#[derive(Debug, Clone, PartialEq)]
pub enum PassError {
    /// A graph failed verification (`pass` is `"input"` for the
    /// pre-pipeline check, else the offending pass's name).
    Verify {
        /// Which pass produced the graph.
        pass: &'static str,
        /// The violated invariant.
        error: VerifyError,
    },
    /// A rewrite changed the live MXU flop count — matrix work must be
    /// preserved exactly (it is what the cost model and simulator bill).
    MatrixFlopsChanged {
        /// The offending pass.
        pass: &'static str,
        /// Live MXU flops before.
        before: u64,
        /// Live MXU flops after.
        after: u64,
    },
    /// A rewrite increased total live flops.
    FlopsIncreased {
        /// The offending pass.
        pass: &'static str,
        /// Live flops before.
        before: u64,
        /// Live flops after.
        after: u64,
    },
    /// Differential testing found diverging outputs.
    NotEquivalent {
        /// The offending pass.
        pass: &'static str,
        /// The worst disagreement.
        divergence: Divergence,
    },
    /// The reference evaluator itself failed.
    Eval {
        /// The pass being checked.
        pass: &'static str,
        /// The underlying error.
        error: EvalError,
    },
    /// The pipeline did not reach a fixpoint within the sweep budget
    /// (two passes fighting each other).
    FixpointDiverged {
        /// Sweeps executed.
        sweeps: usize,
    },
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::Verify { pass, error } => {
                write!(f, "graph after pass `{pass}` fails verification: {error}")
            }
            PassError::MatrixFlopsChanged {
                pass,
                before,
                after,
            } => {
                write!(f, "pass `{pass}` changed MXU flops {before} -> {after}")
            }
            PassError::FlopsIncreased {
                pass,
                before,
                after,
            } => {
                write!(f, "pass `{pass}` increased live flops {before} -> {after}")
            }
            PassError::NotEquivalent { pass, divergence } => {
                write!(f, "pass `{pass}` changed semantics: {divergence}")
            }
            PassError::Eval { pass, error } => {
                write!(f, "evaluating around pass `{pass}`: {error}")
            }
            PassError::FixpointDiverged { sweeps } => {
                write!(f, "pipeline did not reach a fixpoint in {sweeps} sweeps")
            }
        }
    }
}

impl std::error::Error for PassError {}

/// The outcome of a pipeline run.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// The optimized graph.
    pub graph: Graph,
    /// The fusion analysis of the *final* graph (empty when no fusion
    /// pass ran).
    pub fusion: FusionMap,
    /// Names of passes that rewrote the graph, in application order.
    pub applied: Vec<&'static str>,
    /// Full sweeps executed (1 = already at fixpoint).
    pub sweeps: usize,
    /// Node count before optimization.
    pub nodes_before: usize,
    /// Node count after optimization.
    pub nodes_after: usize,
}

/// Runs passes to a fixpoint, verifier-gated (see module docs).
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    max_sweeps: usize,
    equivalence: Option<(f32, EvalOptions)>,
}

impl PassManager {
    /// An empty manager (running it returns the input unchanged).
    pub fn new() -> PassManager {
        PassManager {
            passes: Vec::new(),
            max_sweeps: 8,
            equivalence: None,
        }
    }

    /// Appends a pass to the pipeline.
    #[must_use]
    pub fn with_pass(mut self, pass: impl Pass + 'static) -> PassManager {
        self.passes.push(Box::new(pass));
        self
    }

    /// Enables differential testing of every rewrite against the
    /// reference evaluator, under a relative tolerance. Expensive —
    /// evaluation executes the graph's actual math — so this is a
    /// testing/experiment knob, not a production-compile default.
    #[must_use]
    pub fn check_equivalence(mut self, tolerance: f32) -> PassManager {
        self.equivalence = Some((tolerance, EvalOptions::default()));
        self
    }

    /// Runs the pipeline to a fixpoint.
    ///
    /// # Errors
    ///
    /// Returns a [`PassError`] when the input fails verification, a
    /// rewrite breaks an invariant, or no fixpoint is reached.
    pub fn run(&self, graph: &Graph) -> Result<PassReport, PassError> {
        Verifier::new()
            .verify_graph(graph)
            .map_err(|error| PassError::Verify {
                pass: "input",
                error,
            })?;
        let out = self.run_verified(graph)?;
        Ok(PassReport {
            nodes_before: graph.nodes().len(),
            nodes_after: out.graph.nodes().len(),
            graph: out.graph.into_owned(),
            fusion: out.fusion,
            applied: out.applied,
            sweeps: out.sweeps,
        })
    }

    /// The fixpoint loop of [`PassManager::run`], on a graph the caller
    /// has already verified. The graph is borrowed until a pass rewrites
    /// it.
    pub(crate) fn run_verified<'g>(&self, graph: &'g Graph) -> Result<Optimized<'g>, PassError> {
        let verifier = Verifier::new();
        let mut current = Cow::Borrowed(graph);
        // `live_flops(&current)`, once a gate has computed it.
        let mut flops = None;
        let mut fusion: Option<FusionMap> = None;
        let mut applied = Vec::new();
        let mut sweeps = 0usize;
        loop {
            if sweeps >= self.max_sweeps {
                return Err(PassError::FixpointDiverged { sweeps });
            }
            sweeps += 1;
            let mut changed = false;
            for pass in &self.passes {
                let result = pass.run(&current);
                if let Some(f) = result.fusion {
                    fusion = Some(f);
                }
                if let Some(next) = result.rewrite {
                    let before = flops.unwrap_or_else(|| live_flops(&current));
                    flops = Some(self.gate(pass.name(), &verifier, &current, before, &next)?);
                    applied.push(pass.name());
                    fusion = None; // analysis invalidated by the rewrite
                    current = Cow::Owned(next);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let fusion = fusion.unwrap_or_default();
        verifier
            .verify_fusion(&current, &fusion)
            .map_err(|error| PassError::Verify {
                pass: "fusion",
                error,
            })?;

        Ok(Optimized {
            graph: current,
            fusion,
            applied,
            sweeps,
            live_flops: flops,
        })
    }

    /// The verifier/equivalence sandwich applied to one rewrite, given
    /// the live flops of `before`. Returns the live flops of `after`.
    fn gate(
        &self,
        pass: &'static str,
        verifier: &Verifier,
        before: &Graph,
        (mxu_before, total_before): (u64, u64),
        after: &Graph,
    ) -> Result<(u64, u64), PassError> {
        verifier
            .verify_graph(after)
            .map_err(|error| PassError::Verify { pass, error })?;
        let (mxu_after, total_after) = live_flops(after);
        if mxu_after != mxu_before {
            return Err(PassError::MatrixFlopsChanged {
                pass,
                before: mxu_before,
                after: mxu_after,
            });
        }
        if total_after > total_before {
            return Err(PassError::FlopsIncreased {
                pass,
                before: total_before,
                after: total_after,
            });
        }
        if let Some((tolerance, eval_options)) = &self.equivalence {
            let lhs = eval::evaluate_with(before, eval_options)
                .map_err(|error| PassError::Eval { pass, error })?;
            let rhs = eval::evaluate_with(after, eval_options)
                .map_err(|error| PassError::Eval { pass, error })?;
            if let Some(divergence) = eval::outputs_divergence(&lhs, &rhs, *tolerance) {
                return Err(PassError::NotEquivalent { pass, divergence });
            }
        }
        Ok((mxu_after, total_after))
    }
}

/// What [`PassManager::run_verified`] hands `compile`: the optimized
/// graph, still borrowed when no pass rewrote it.
pub(crate) struct Optimized<'g> {
    pub(crate) graph: Cow<'g, Graph>,
    pub(crate) fusion: FusionMap,
    pub(crate) applied: Vec<&'static str>,
    pub(crate) sweeps: usize,
    /// `live_flops(&graph)`, when a rewrite's gate computed it.
    pub(crate) live_flops: Option<(u64, u64)>,
}

/// The graph-pass pipeline a set of compiler options selects, in the
/// order `compile` runs it: nothing at O0, fusion at O1, and constant
/// folding, simplification and DCE ahead of fusion from O2 up.
/// Verification is always on; differential testing is opt-in via
/// [`PassManager::check_equivalence`].
pub fn pipeline_for(options: &CompilerOptions) -> PassManager {
    match options.level {
        OptLevel::O0 => PassManager::new(),
        OptLevel::O1 => PassManager::new().with_pass(FusionPass),
        OptLevel::O2 | OptLevel::O3 => PassManager::new()
            .with_pass(ConstantFold)
            .with_pass(Simplify)
            .with_pass(Dce)
            .with_pass(FusionPass),
    }
}

/// `(MXU flops, total flops)` over the nodes reachable from the
/// outputs. Dead nodes are excluded on both sides of a rewrite so DCE
/// is flop-neutral by definition.
pub(crate) fn live_flops(graph: &Graph) -> (u64, u64) {
    let mut live = vec![false; graph.nodes().len()];
    let mut stack: Vec<OpId> = graph.outputs().to_vec();
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut live[id.index()], true) {
            continue;
        }
        stack.extend(graph.node(id).op.operands());
    }
    let mut mxu = 0u64;
    let mut total = 0u64;
    for node in graph.nodes() {
        if !live[node.id.index()] {
            continue;
        }
        let f = graph.node_flops(node);
        total += f;
        if node.op.is_matrix_op() {
            mxu += f;
        }
    }
    (mxu, total)
}

/// Clones an op with every operand id passed through `f` (the shared
/// helper rewrite passes remap through).
pub(crate) fn remap_op(op: &HloOp, f: impl Fn(OpId) -> OpId) -> HloOp {
    match *op {
        HloOp::Parameter => HloOp::Parameter,
        HloOp::Constant => HloOp::Constant,
        HloOp::Dot { lhs, rhs } => HloOp::Dot {
            lhs: f(lhs),
            rhs: f(rhs),
        },
        HloOp::Conv2d {
            input,
            kernel,
            stride,
        } => HloOp::Conv2d {
            input: f(input),
            kernel: f(kernel),
            stride,
        },
        HloOp::Activate { input, act } => HloOp::Activate {
            input: f(input),
            act,
        },
        HloOp::Binary { a, b, kind } => HloOp::Binary {
            a: f(a),
            b: f(b),
            kind,
        },
        HloOp::Softmax { input } => HloOp::Softmax { input: f(input) },
        HloOp::LayerNorm { input } => HloOp::LayerNorm { input: f(input) },
        HloOp::Embedding { table, batch, seq } => HloOp::Embedding {
            table: f(table),
            batch,
            seq,
        },
        HloOp::MaxPool2d { input, window } => HloOp::MaxPool2d {
            input: f(input),
            window,
        },
        HloOp::Reshape { input } => HloOp::Reshape { input: f(input) },
        HloOp::GateReduce { input, factor } => HloOp::GateReduce {
            input: f(input),
            factor,
        },
        HloOp::BatchMatmul {
            a,
            b,
            batch,
            m,
            k,
            n,
        } => HloOp::BatchMatmul {
            a: f(a),
            b: f(b),
            batch,
            m,
            k,
            n,
        },
    }
}

/// Rewrites every operand and output through a sparse replacement map
/// (resolved transitively), leaving replaced nodes in place as orphans
/// for [`Dce`] to collect. Returns `None` when the map changes no operand
/// and no output: a replaced orphan that nothing reads, which is what
/// stays behind when DCE is off, is not a rewrite.
pub(crate) fn substitute(graph: &Graph, replace: &[Option<OpId>]) -> Option<Graph> {
    if replace.iter().all(Option::is_none) {
        return None;
    }
    let resolve = |mut id: OpId| {
        // Chains are short (simplify builds at most a few hops), but
        // resolve fully to be safe; acyclic because replacements always
        // point at earlier nodes.
        while let Some(Some(next)) = replace.get(id.index()) {
            id = *next;
        }
        id
    };
    let moved = |id: OpId| replace.get(id.index()).is_some_and(Option::is_some);
    let reads_replaced = graph.outputs().iter().any(|&o| moved(o))
        || graph
            .nodes()
            .iter()
            .any(|n| n.op.operands().into_iter().any(moved));
    if !reads_replaced {
        return None;
    }
    let nodes = graph
        .nodes()
        .iter()
        .map(|n| crate::graph::Node {
            id: n.id,
            op: remap_op(&n.op, resolve),
            shape: n.shape,
        })
        .collect();
    let outputs = graph.outputs().iter().map(|&o| resolve(o)).collect();
    Some(Graph::from_parts(
        graph.name(),
        graph.dtype(),
        nodes,
        outputs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_numerics::DType;

    fn dirty_graph() -> Graph {
        // A flattened weight behind a reshape, a duplicate relu, and a
        // dead constant: one artifact per pass.
        let mut g = Graph::new("dirty", DType::Bf16);
        let x = g.parameter(&[4, 32]).unwrap();
        let wflat = g.constant(&[32 * 16]).unwrap();
        let w = g.reshape(wflat, &[32, 16]).unwrap();
        let h = g.dot(x, w).unwrap();
        let r1 = g.relu(h).unwrap();
        let r2 = g.relu(r1).unwrap();
        let _dead = g.constant(&[64, 64]).unwrap();
        g.mark_output(r2);
        g
    }

    fn o2_manager() -> PassManager {
        PassManager::new()
            .with_pass(ConstantFold)
            .with_pass(Simplify)
            .with_pass(Dce)
            .with_pass(FusionPass)
            .check_equivalence(1e-4)
    }

    #[test]
    fn pipeline_cleans_dirty_graph() {
        let g = dirty_graph();
        let report = o2_manager().run(&g).unwrap();
        // Folded, deduped, collected: param, const, dot, relu.
        assert_eq!(report.nodes_after, 4);
        assert!(report.applied.contains(&"constant-fold"));
        assert!(report.applied.contains(&"simplify"));
        assert!(report.applied.contains(&"dce"));
        assert_eq!(report.fusion.fused_count(), 1); // relu into dot
        Verifier::new().verify_graph(&report.graph).unwrap();
    }

    #[test]
    fn pipeline_is_idempotent_at_fixpoint() {
        let g = dirty_graph();
        let pm = o2_manager();
        let once = pm.run(&g).unwrap();
        let twice = pm.run(&once.graph).unwrap();
        assert_eq!(once.graph, twice.graph);
        assert!(twice.applied.is_empty());
        assert_eq!(twice.sweeps, 1);
    }

    #[test]
    fn equivalence_check_passes_on_real_passes() {
        // check_equivalence is on in o2_manager(); a semantics-changing
        // rewrite would have errored. Also assert outputs directly.
        let g = dirty_graph();
        let report = o2_manager().run(&g).unwrap();
        let before = crate::eval::evaluate(&g).unwrap();
        let after = crate::eval::evaluate(&report.graph).unwrap();
        assert!(crate::eval::outputs_divergence(&before, &after, 1e-4).is_none());
    }

    #[test]
    fn malicious_pass_is_rejected_by_the_sandwich() {
        // A "pass" that deletes the final relu outright: caught by the
        // flop invariant or the differential check.
        struct DropRelu;
        impl Pass for DropRelu {
            fn name(&self) -> &'static str {
                "drop-relu"
            }
            fn run(&self, graph: &Graph) -> PassResult {
                let mut replace = vec![None; graph.nodes().len()];
                for n in graph.nodes() {
                    if let HloOp::Activate { input, .. } = n.op {
                        replace[n.id.index()] = Some(input);
                    }
                }
                match substitute(graph, &replace) {
                    Some(g) => PassResult::rewritten(g),
                    None => PassResult::unchanged(),
                }
            }
        }
        let g = dirty_graph();
        let err = PassManager::new()
            .with_pass(DropRelu)
            .check_equivalence(1e-4)
            .run(&g)
            .unwrap_err();
        match err {
            PassError::FlopsIncreased { .. } | PassError::MatrixFlopsChanged { .. } => {
                panic!("wrong invariant: {err}")
            }
            PassError::NotEquivalent { pass, .. } => assert_eq!(pass, "drop-relu"),
            // Dropping VPU work lowers total flops (allowed) so the
            // differential check must be the one to catch it.
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn fighting_passes_hit_the_sweep_budget() {
        // Flips the binary kind every run: never converges.
        struct Flip;
        impl Pass for Flip {
            fn name(&self) -> &'static str {
                "flip"
            }
            fn run(&self, graph: &Graph) -> PassResult {
                let (name, dtype, mut nodes, outputs) = graph.clone().into_parts();
                for n in &mut nodes {
                    if let HloOp::Binary { a, b, kind } = n.op {
                        let kind = match kind {
                            crate::graph::BinaryKind::Add => crate::graph::BinaryKind::Max,
                            _ => crate::graph::BinaryKind::Add,
                        };
                        n.op = HloOp::Binary { a, b, kind };
                    }
                }
                PassResult::rewritten(Graph::from_parts(&name, dtype, nodes, outputs))
            }
        }
        let mut g = Graph::new("t", DType::Bf16);
        let a = g.parameter(&[2, 2]).unwrap();
        let s = g.add(a, a).unwrap();
        g.mark_output(s);
        let err = PassManager::new().with_pass(Flip).run(&g).unwrap_err();
        assert!(matches!(err, PassError::FixpointDiverged { .. }));
    }

    #[test]
    fn empty_manager_returns_input() {
        let g = dirty_graph();
        let report = PassManager::new().run(&g).unwrap();
        assert_eq!(report.graph, g);
        assert_eq!(report.fusion.fused_count(), 0);
        assert!(report.applied.is_empty());
    }
}
