//! Algebraic simplification: identity-op removal and idempotence.

use super::{substitute, Pass, PassResult};
use crate::graph::{BinaryKind, Graph, HloOp};
use tpu_numerics::activation::Activation;

/// Replaces nodes that provably compute the same value as one of their
/// operands:
///
/// - `identity(x)` → `x`, and `relu(relu(x))` → `relu(x)` (ReLU is the
///   only idempotent nonlinearity in the op set);
/// - `max(x, x)` → `x`;
/// - `reshape(x)` to `x`'s own shape → `x`;
/// - `reshape(reshape(x))` → `reshape(x)` with the outer target shape
///   (row-major reshape composition);
/// - `maxpool(x, window=1)` and `gate_reduce(x, factor=1)` → `x`.
///
/// Replaced nodes are left in place as orphans (same ids) and collected
/// by [`Dce`](super::Dce); uses and outputs are redirected here.
pub struct Simplify;

impl Pass for Simplify {
    fn name(&self) -> &'static str {
        "simplify"
    }

    fn run(&self, graph: &Graph) -> PassResult {
        let nodes = graph.nodes();
        let mut replace = vec![None; nodes.len()];
        // A copy of the nodes, made at the first in-place op rewrite.
        let mut new_nodes: Option<Vec<crate::graph::Node>> = None;

        // Resolve an operand through replacements decided earlier in
        // this same walk (operands precede users, so one pass suffices).
        let resolve = |replace: &[Option<crate::graph::OpId>], mut id: crate::graph::OpId| {
            while let Some(Some(next)) = replace.get(id.index()) {
                id = *next;
            }
            id
        };

        for i in 0..nodes.len() {
            match nodes[i].op {
                HloOp::Activate { input, act } => {
                    let src = resolve(&replace, input);
                    // relu(relu(x)) -> relu(x): ReLU is the op set's only
                    // idempotent nonlinearity.
                    let relu_of_relu = act == Activation::Relu
                        && matches!(
                            nodes[src.index()].op,
                            HloOp::Activate {
                                act: Activation::Relu,
                                ..
                            }
                        );
                    if act == Activation::Identity || relu_of_relu {
                        replace[i] = Some(src);
                    }
                }
                HloOp::Binary {
                    a,
                    b,
                    kind: BinaryKind::Max,
                } => {
                    let (a, b) = (resolve(&replace, a), resolve(&replace, b));
                    if a == b {
                        replace[i] = Some(a);
                    }
                }
                HloOp::Reshape { input } => {
                    let src = resolve(&replace, input);
                    if nodes[src.index()].shape == nodes[i].shape {
                        replace[i] = Some(src);
                    } else if let HloOp::Reshape { input: inner } = nodes[src.index()].op {
                        // Collapse reshape-of-reshape: retarget the
                        // outer node at the innermost source. Its stored
                        // shape is already the final target.
                        new_nodes.get_or_insert_with(|| nodes.to_vec())[i].op = HloOp::Reshape {
                            input: resolve(&replace, inner),
                        };
                    }
                }
                HloOp::MaxPool2d { input, window: 1 } => {
                    replace[i] = Some(resolve(&replace, input));
                }
                HloOp::GateReduce { input, factor: 1 } => {
                    replace[i] = Some(resolve(&replace, input));
                }
                _ => {}
            }
        }

        if let Some(new_nodes) = new_nodes {
            let rewritten = Graph::from_parts(
                graph.name(),
                graph.dtype(),
                new_nodes,
                graph.outputs().to_vec(),
            );
            // Apply any replacements found in the same walk on top.
            match substitute(&rewritten, &replace) {
                Some(g) => PassResult::rewritten(g),
                None => PassResult::rewritten(rewritten),
            }
        } else {
            match substitute(graph, &replace) {
                Some(g) => PassResult::rewritten(g),
                None => PassResult::unchanged(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use crate::verify::Verifier;
    use tpu_numerics::DType;

    fn check_equiv(before: &Graph, after: &Graph) {
        Verifier::new().verify_graph(after).unwrap();
        let lhs = eval::evaluate(before).unwrap();
        let rhs = eval::evaluate(after).unwrap();
        assert!(eval::outputs_divergence(&lhs, &rhs, 0.0).is_none());
    }

    #[test]
    fn duplicate_relu_collapses() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 8]).unwrap();
        let r1 = g.relu(x).unwrap();
        let r2 = g.relu(r1).unwrap();
        let r3 = g.relu(r2).unwrap();
        g.mark_output(r3);
        let out = Simplify.run(&g).rewrite.expect("should simplify");
        check_equiv(&g, &out);
        // The whole tower resolves to the innermost relu.
        assert_eq!(out.outputs(), &[r1]);
    }

    #[test]
    fn identity_activation_is_removed() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 8]).unwrap();
        let id = g
            .activate(x, tpu_numerics::activation::Activation::Identity)
            .unwrap();
        g.mark_output(id);
        let out = Simplify.run(&g).rewrite.expect("should simplify");
        check_equiv(&g, &out);
        assert_eq!(out.outputs(), &[x]);
    }

    #[test]
    fn max_of_same_operand_collapses() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 8]).unwrap();
        let m = g.binary(x, x, BinaryKind::Max).unwrap();
        g.mark_output(m);
        let out = Simplify.run(&g).rewrite.expect("should simplify");
        check_equiv(&g, &out);
        assert_eq!(out.outputs(), &[x]);
    }

    #[test]
    fn noop_reshape_is_removed() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 8]).unwrap();
        let r = g.reshape(x, &[4, 8]).unwrap();
        g.mark_output(r);
        let out = Simplify.run(&g).rewrite.expect("should simplify");
        check_equiv(&g, &out);
        assert_eq!(out.outputs(), &[x]);
    }

    #[test]
    fn reshape_of_reshape_collapses() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 8]).unwrap();
        let a = g.reshape(x, &[32]).unwrap();
        let b = g.reshape(a, &[8, 4]).unwrap();
        g.mark_output(b);
        let out = Simplify.run(&g).rewrite.expect("should simplify");
        check_equiv(&g, &out);
        // The outer reshape now reads straight from the parameter.
        assert_eq!(out.node(b).op, HloOp::Reshape { input: x });
    }

    #[test]
    fn unit_pool_and_unit_gate_reduce_are_removed() {
        let mut g = Graph::new("t", DType::Bf16);
        let img = g.parameter(&[1, 4, 4, 2]).unwrap();
        let p = g.max_pool2d(img, 1).unwrap();
        g.mark_output(p);
        let out = Simplify.run(&g).rewrite.expect("should simplify");
        check_equiv(&g, &out);
        assert_eq!(out.outputs(), &[img]);

        let mut g2 = Graph::new("t", DType::Bf16);
        let x = g2.parameter(&[4, 8]).unwrap();
        let gr = g2.gate_reduce(x, 1).unwrap();
        g2.mark_output(gr);
        let out2 = Simplify.run(&g2).rewrite.expect("should simplify");
        check_equiv(&g2, &out2);
        assert_eq!(out2.outputs(), &[x]);
    }

    #[test]
    fn gelu_is_not_treated_as_idempotent() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 8]).unwrap();
        let g1 = g
            .activate(x, tpu_numerics::activation::Activation::Gelu)
            .unwrap();
        let g2 = g
            .activate(g1, tpu_numerics::activation::Activation::Gelu)
            .unwrap();
        g.mark_output(g2);
        assert!(Simplify.run(&g).rewrite.is_none());
    }

    #[test]
    fn clean_graph_is_untouched() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 8]).unwrap();
        let w = g.constant(&[8, 8]).unwrap();
        let d = g.dot(x, w).unwrap();
        let r = g.relu(d).unwrap();
        g.mark_output(r);
        assert!(Simplify.run(&g).rewrite.is_none());
    }
}
