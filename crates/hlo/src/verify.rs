//! Static verification of HLO graphs and compilation artifacts.
//!
//! The graph builder API cannot construct an ill-formed graph, but two
//! other producers can: pass rewrites (which assemble graphs through
//! [`Graph::from_parts`]) and hand-built test fixtures. The [`Verifier`]
//! is the single gate both must clear — `compile` runs it on the input
//! graph, the [`PassManager`](crate::passes::PassManager) sandwiches
//! every rewrite with it, and plan-level checks validate the
//! [`MemoryPlan`] and [`FusionMap`] against the graph before lowering.
//!
//! Every violated invariant maps to its own [`VerifyError`] variant so
//! tests can assert *which* invariant a corrupted graph trips.

use std::fmt;

use crate::fusion::FusionMap;
use crate::graph::{Graph, HloOp, OpId};
use crate::memory::MemoryPlan;
use crate::shape::{ShapeError, TensorShape};

/// A violated structural or plan-level invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A node's id does not equal its position in the node list.
    IdMismatch {
        /// Position in the node list.
        position: usize,
        /// The id stored there.
        found: OpId,
    },
    /// An operand id names no node of this graph.
    DanglingOperand {
        /// The node holding the operand.
        node: OpId,
        /// The dangling id.
        operand: OpId,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// An operand does not precede its user (SSA order; also rules out
    /// cycles, since ids are positions).
    UseBeforeDef {
        /// The using node.
        node: OpId,
        /// The operand at or after it.
        operand: OpId,
    },
    /// Shape re-inference failed: the operands no longer satisfy the
    /// op's arity/rank/agreement constraints.
    BadShape {
        /// The offending node.
        node: OpId,
        /// The underlying shape error.
        error: ShapeError,
    },
    /// Shape re-inference succeeded but disagrees with the stored shape.
    ShapeMismatch {
        /// The offending node.
        node: OpId,
        /// The shape stored on the node.
        stored: TensorShape,
        /// The shape re-inferred from its operands.
        inferred: TensorShape,
    },
    /// The graph designates no outputs — nothing would be computed.
    NoOutputs,
    /// An output id names no node of this graph.
    DanglingOutput {
        /// The dangling id.
        output: OpId,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// The memory plan books more CMEM than the chip (or override) has.
    CmemOverbooked {
        /// Bytes the plan claims to use.
        used: u64,
        /// The capacity it had to fit in.
        budget: u64,
    },
    /// The plan's claimed CMEM usage disagrees with the resident set.
    CmemAccountingWrong {
        /// Bytes the plan claims to use.
        claimed: u64,
        /// Bytes the resident tensors actually occupy.
        actual: u64,
    },
    /// CMEM + HBM weight bytes do not add up to the graph's weights.
    WeightAccountingWrong {
        /// CMEM + HBM bytes the plan accounts for.
        claimed: u64,
        /// The graph's total weight bytes.
        actual: u64,
    },
    /// A CMEM resident id names no node of this graph.
    ResidentDangling {
        /// The dangling id.
        id: OpId,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// A CMEM resident is not a `Constant` — only weights live there.
    ResidentNotConstant {
        /// The non-weight resident.
        id: OpId,
    },
    /// A fusion entry references an id that names no node.
    FusionDangling {
        /// The dangling id.
        id: OpId,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// A fused node is not a fusible elementwise/normalization op.
    FusionNodeNotFusible {
        /// The offending node.
        node: OpId,
    },
    /// A cluster root is not a matrix op (nothing to fuse into).
    FusionRootNotMatrix {
        /// The offending root.
        root: OpId,
    },
    /// A cluster root is itself fused into another cluster — clusters
    /// must be single-root.
    FusionRootFused {
        /// The offending root.
        root: OpId,
    },
    /// A fused node's producer chain does not lead to its cluster root —
    /// the cluster is not connected.
    FusionDisconnected {
        /// The offending node.
        node: OpId,
        /// The root it claims.
        root: OpId,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::IdMismatch { position, found } => {
                write!(f, "node at position {position} has id {found}")
            }
            VerifyError::DanglingOperand {
                node,
                operand,
                nodes,
            } => write!(f, "{node} uses dangling operand {operand} ({nodes} nodes)"),
            VerifyError::UseBeforeDef { node, operand } => {
                write!(f, "{node} uses {operand}, which does not precede it")
            }
            VerifyError::BadShape { node, error } => {
                write!(f, "{node} fails shape re-inference: {error}")
            }
            VerifyError::ShapeMismatch {
                node,
                stored,
                inferred,
            } => write!(
                f,
                "{node} stores shape {stored} but re-infers to {inferred}"
            ),
            VerifyError::NoOutputs => write!(f, "graph designates no outputs"),
            VerifyError::DanglingOutput { output, nodes } => {
                write!(f, "output {output} does not exist ({nodes} nodes)")
            }
            VerifyError::CmemOverbooked { used, budget } => {
                write!(f, "memory plan books {used} CMEM bytes of {budget}")
            }
            VerifyError::CmemAccountingWrong { claimed, actual } => {
                write!(
                    f,
                    "plan claims {claimed} CMEM bytes, residents occupy {actual}"
                )
            }
            VerifyError::WeightAccountingWrong { claimed, actual } => {
                write!(
                    f,
                    "plan accounts {claimed} weight bytes, graph has {actual}"
                )
            }
            VerifyError::ResidentDangling { id, nodes } => {
                write!(f, "CMEM resident {id} does not exist ({nodes} nodes)")
            }
            VerifyError::ResidentNotConstant { id } => {
                write!(f, "CMEM resident {id} is not a constant")
            }
            VerifyError::FusionDangling { id, nodes } => {
                write!(f, "fusion entry {id} does not exist ({nodes} nodes)")
            }
            VerifyError::FusionNodeNotFusible { node } => {
                write!(f, "fused node {node} is not a fusible op")
            }
            VerifyError::FusionRootNotMatrix { root } => {
                write!(f, "fusion root {root} is not a matrix op")
            }
            VerifyError::FusionRootFused { root } => {
                write!(
                    f,
                    "fusion root {root} is itself fused (clusters must be single-root)"
                )
            }
            VerifyError::FusionDisconnected { node, root } => {
                write!(f, "fused node {node} is not connected to its root {root}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Checks the invariants every graph must satisfy before lowering.
///
/// Stateless; methods take the artifacts they validate. See the module
/// docs for where each check runs in the compile pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verifier;

impl Verifier {
    /// A verifier.
    pub fn new() -> Verifier {
        Verifier
    }

    /// Checks structural invariants: ids equal positions, operands exist
    /// and strictly precede their users (SSA / acyclicity), every node's
    /// stored shape matches re-inference from its operands, and outputs
    /// exist and are non-empty.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, walking nodes in id order.
    pub fn verify_graph(&self, graph: &Graph) -> Result<(), VerifyError> {
        let count = graph.nodes().len();
        for (position, node) in graph.nodes().iter().enumerate() {
            if node.id.index() != position {
                return Err(VerifyError::IdMismatch {
                    position,
                    found: node.id,
                });
            }
        }
        for node in graph.nodes() {
            for operand in node.op.operands() {
                if operand.index() >= count {
                    return Err(VerifyError::DanglingOperand {
                        node: node.id,
                        operand,
                        nodes: count,
                    });
                }
                if operand.index() >= node.id.index() {
                    return Err(VerifyError::UseBeforeDef {
                        node: node.id,
                        operand,
                    });
                }
            }
            let inferred = graph.reinfer(node).map_err(|error| VerifyError::BadShape {
                node: node.id,
                error,
            })?;
            if inferred != node.shape {
                return Err(VerifyError::ShapeMismatch {
                    node: node.id,
                    stored: node.shape,
                    inferred,
                });
            }
        }
        if graph.outputs().is_empty() {
            return Err(VerifyError::NoOutputs);
        }
        for &output in graph.outputs() {
            if output.index() >= count {
                return Err(VerifyError::DanglingOutput {
                    output,
                    nodes: count,
                });
            }
        }
        Ok(())
    }

    /// Checks a memory plan against the graph and a CMEM budget: every
    /// resident is an existing `Constant`, the claimed CMEM usage equals
    /// what the residents occupy and fits the budget, and CMEM + HBM
    /// bytes account for all of the graph's weights.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn verify_memory(
        &self,
        graph: &Graph,
        plan: &MemoryPlan,
        cmem_budget: u64,
    ) -> Result<(), VerifyError> {
        let count = graph.nodes().len();
        let mut actual = 0u64;
        for &id in plan.residents() {
            let Some(node) = graph.get(id) else {
                return Err(VerifyError::ResidentDangling { id, nodes: count });
            };
            if !matches!(node.op, HloOp::Constant) {
                return Err(VerifyError::ResidentNotConstant { id });
            }
            actual += node.shape.bytes(graph.dtype());
        }
        if plan.cmem_used != actual {
            return Err(VerifyError::CmemAccountingWrong {
                claimed: plan.cmem_used,
                actual,
            });
        }
        if plan.cmem_used > cmem_budget {
            return Err(VerifyError::CmemOverbooked {
                used: plan.cmem_used,
                budget: cmem_budget,
            });
        }
        let claimed = plan.cmem_used + plan.hbm_weight_bytes;
        if claimed != graph.weight_bytes() {
            return Err(VerifyError::WeightAccountingWrong {
                claimed,
                actual: graph.weight_bytes(),
            });
        }
        Ok(())
    }

    /// Checks a fusion map against the graph: every entry names existing
    /// nodes, fused nodes are fusible elementwise ops, roots are
    /// unfused matrix ops (single-root), and every fused node's main
    /// producer chain leads to its claimed root (connected clusters).
    ///
    /// Assumes [`Verifier::verify_graph`] has already passed for
    /// `graph` (the pipeline always runs it first).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, walking fused nodes in id
    /// order.
    pub fn verify_fusion(&self, graph: &Graph, fusion: &FusionMap) -> Result<(), VerifyError> {
        let count = graph.nodes().len();
        // The smallest dangling id, fused node or root, is reported first.
        let dangling = fusion
            .entries()
            .flat_map(|(node, root)| [node, root])
            .filter(|id| id.index() >= count)
            .min();
        if let Some(id) = dangling {
            return Err(VerifyError::FusionDangling { id, nodes: count });
        }
        for (node, root) in fusion.entries() {
            if !graph.node(node).op.is_fusible_consumer() {
                return Err(VerifyError::FusionNodeNotFusible { node });
            }
            if !graph.node(root).op.is_matrix_op() {
                return Err(VerifyError::FusionRootNotMatrix { root });
            }
            if fusion.is_fused(root) {
                return Err(VerifyError::FusionRootFused { root });
            }
            // Connectivity: follow main (first non-constant) operands
            // through nodes of the same cluster until the root.
            let mut cursor = node;
            loop {
                let main = graph
                    .node(cursor)
                    .op
                    .operands()
                    .into_iter()
                    .find(|&o| !matches!(graph.node(o).op, HloOp::Constant));
                let Some(main) = main else {
                    return Err(VerifyError::FusionDisconnected { node, root });
                };
                if main == root {
                    break;
                }
                if fusion.root_of(main) == Some(root) {
                    cursor = main;
                    continue;
                }
                return Err(VerifyError::FusionDisconnected { node, root });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_numerics::DType;

    fn mlp() -> Graph {
        let mut g = Graph::new("mlp", DType::Bf16);
        let x = g.parameter(&[8, 256]).unwrap();
        let w1 = g.constant(&[256, 512]).unwrap();
        let h = g.dot(x, w1).unwrap();
        let h = g.relu(h).unwrap();
        let w2 = g.constant(&[512, 10]).unwrap();
        let y = g.dot(h, w2).unwrap();
        g.mark_output(y);
        g
    }

    #[test]
    fn builder_graphs_verify() {
        Verifier::new().verify_graph(&mlp()).unwrap();
    }

    #[test]
    fn planner_output_verifies() {
        let g = mlp();
        let chip = tpu_arch::catalog::tpu_v4i();
        let plan = crate::memory::plan(&g, &chip, None);
        let budget = chip.cmem.map_or(0, |c| c.capacity_bytes);
        Verifier::new().verify_memory(&g, &plan, budget).unwrap();
    }

    #[test]
    fn fuse_output_verifies() {
        let g = mlp();
        let fusion = crate::fusion::fuse(&g);
        assert!(fusion.fused_count() > 0);
        Verifier::new().verify_fusion(&g, &fusion).unwrap();
    }

    #[test]
    fn error_display_is_informative() {
        let e = VerifyError::UseBeforeDef {
            node: OpId::from_raw(3),
            operand: OpId::from_raw(7),
        };
        let s = format!("{e}");
        assert!(s.contains("%3") && s.contains("%7"), "{s}");
    }
}
