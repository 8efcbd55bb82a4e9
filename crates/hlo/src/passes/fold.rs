//! Constant folding: `Reshape(Constant)` collapses to a `Constant`.
//!
//! This is the pass with a directly measurable hardware consequence.
//! The lowering pass only treats a *direct* `Constant` operand as a
//! CMEM-placeable weight; a constant hiding behind a reshape (the shape
//! frontends emit when they store weights flattened on disk) streams
//! from HBM every step. Folding the reshape away re-exposes the weight
//! to the CMEM knapsack — on TPUv4i that is the difference between a
//! 1.3 GB/s HBM stream and on-die SRAM.

use super::{Pass, PassResult};
use crate::graph::{Graph, HloOp, Node};

/// Rewrites `Reshape(Constant)` nodes into `Constant` nodes in place
/// (same id, the reshape's shape), leaving the original constant as an
/// orphan for [`Dce`](super::Dce).
///
/// Soundness rests on the deterministic-evaluation contract: a
/// constant's elements are a function of **linear index only** (see
/// [`eval`](crate::eval)), and a reshape is a row-major relabeling that
/// preserves linear order — so the folded constant holds exactly the
/// bytes the reshape produced.
pub struct ConstantFold;

impl Pass for ConstantFold {
    fn name(&self) -> &'static str {
        "constant-fold"
    }

    fn run(&self, graph: &Graph) -> PassResult {
        let folds = |nodes: &[Node], i: usize| match nodes[i].op {
            HloOp::Reshape { input } => matches!(nodes[input.index()].op, HloOp::Constant),
            _ => false,
        };
        // A chain folds only if its first link does, so a graph with no
        // direct `Reshape(Constant)` is left alone without being copied.
        if !(0..graph.nodes().len()).any(|i| folds(graph.nodes(), i)) {
            return PassResult::unchanged();
        }
        let (name, dtype, mut nodes, outputs) = graph.clone().into_parts();
        // One forward walk folds whole chains: once node i becomes a
        // Constant, a later Reshape of node i folds in the same sweep
        // because we test against the *updated* ops.
        for i in 0..nodes.len() {
            if folds(&nodes, i) {
                nodes[i].op = HloOp::Constant;
            }
        }
        PassResult::rewritten(Graph::from_parts(&name, dtype, nodes, outputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use crate::verify::Verifier;
    use tpu_numerics::DType;

    #[test]
    fn reshape_of_constant_folds() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 32]).unwrap();
        let flat = g.constant(&[32 * 16]).unwrap();
        let w = g.reshape(flat, &[32, 16]).unwrap();
        let d = g.dot(x, w).unwrap();
        g.mark_output(d);

        let out = ConstantFold.run(&g).rewrite.expect("should fold");
        Verifier::new().verify_graph(&out).unwrap();
        assert!(matches!(out.node(w).op, HloOp::Constant));
        assert_eq!(out.node(w).shape, g.node(w).shape);

        // Value-preserving: constants are a function of linear index.
        let before = eval::evaluate(&g).unwrap();
        let after = eval::evaluate(&out).unwrap();
        assert!(eval::outputs_divergence(&before, &after, 0.0).is_none());
    }

    #[test]
    fn reshape_chain_folds_in_one_run() {
        let mut g = Graph::new("t", DType::Bf16);
        let flat = g.constant(&[64]).unwrap();
        let a = g.reshape(flat, &[8, 8]).unwrap();
        let b = g.reshape(a, &[4, 16]).unwrap();
        g.mark_output(b);

        let out = ConstantFold.run(&g).rewrite.expect("should fold");
        assert!(matches!(out.node(a).op, HloOp::Constant));
        assert!(matches!(out.node(b).op, HloOp::Constant));
    }

    #[test]
    fn reshape_of_parameter_is_left_alone() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 8]).unwrap();
        let r = g.reshape(x, &[32]).unwrap();
        g.mark_output(r);
        assert!(ConstantFold.run(&g).rewrite.is_none());
    }
}
