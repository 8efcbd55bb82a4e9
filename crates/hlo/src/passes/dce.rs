//! Dead-code elimination.

use super::{remap_op, Pass, PassResult};
use crate::graph::{Graph, HloOp, Node, OpId};

/// Removes nodes not reachable from any graph output, compacting ids.
///
/// **Parameters always survive**, dead or not: they are the graph's call
/// signature, and the deterministic evaluator keys parameter values by
/// ordinal — deleting an unused parameter would renumber the rest and
/// silently change what every later parameter "means" to callers (and to
/// differential tests). Dead *constants* are the valuable kill: the
/// memory planner knapsacks every constant in the graph, so an orphaned
/// weight squats on CMEM budget until this pass collects it.
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, graph: &Graph) -> PassResult {
        let nodes = graph.nodes();
        let mut live = vec![false; nodes.len()];
        let mut stack: Vec<OpId> = graph.outputs().to_vec();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut live[id.index()], true) {
                continue;
            }
            stack.extend(graph.node(id).op.operands());
        }
        for node in nodes {
            if matches!(node.op, HloOp::Parameter) {
                live[node.id.index()] = true;
            }
        }
        if live.iter().all(|&l| l) {
            return PassResult::unchanged();
        }

        // Compact: old id -> new id for survivors, then remap operands.
        let mut remap = vec![OpId::from_raw(0); nodes.len()];
        let mut kept: Vec<Node> = Vec::new();
        for node in nodes {
            if !live[node.id.index()] {
                continue;
            }
            let new_id = OpId::from_raw(kept.len() as u32);
            remap[node.id.index()] = new_id;
            kept.push(Node {
                id: new_id,
                op: remap_op(&node.op, |o| remap[o.index()]),
                shape: node.shape,
            });
        }
        let outputs = graph.outputs().iter().map(|o| remap[o.index()]).collect();
        PassResult::rewritten(Graph::from_parts(
            graph.name(),
            graph.dtype(),
            kept,
            outputs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Verifier;
    use tpu_numerics::DType;

    #[test]
    fn dead_constant_is_collected_and_ids_compacted() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 8]).unwrap();
        let _dead = g.constant(&[512, 512]).unwrap();
        let w = g.constant(&[8, 8]).unwrap();
        let d = g.dot(x, w).unwrap();
        g.mark_output(d);
        let before_bytes = g.weight_bytes();

        let out = Dce.run(&g).rewrite.expect("should rewrite");
        Verifier::new().verify_graph(&out).unwrap();
        assert_eq!(out.nodes().len(), 3);
        assert!(out.weight_bytes() < before_bytes);
        assert_eq!(out.flops(), g.flops());
    }

    #[test]
    fn dead_parameter_survives() {
        let mut g = Graph::new("t", DType::Bf16);
        let _unused = g.parameter(&[16, 16]).unwrap();
        let x = g.parameter(&[4, 8]).unwrap();
        let r = g.relu(x).unwrap();
        g.mark_output(r);

        // The unused parameter keeps the graph fully live.
        assert!(Dce.run(&g).rewrite.is_none());
    }

    #[test]
    fn clean_graph_is_untouched() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 8]).unwrap();
        let w = g.constant(&[8, 8]).unwrap();
        let d = g.dot(x, w).unwrap();
        g.mark_output(d);
        assert!(Dce.run(&g).rewrite.is_none());
    }

    #[test]
    fn dead_chain_behind_live_node_is_fully_collected() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 8]).unwrap();
        let w = g.constant(&[8, 8]).unwrap();
        let d = g.dot(x, w).unwrap();
        let dead1 = g.relu(d).unwrap();
        let _dead2 = g.softmax(dead1).unwrap();
        g.mark_output(d);

        let out = Dce.run(&g).rewrite.expect("should rewrite");
        Verifier::new().verify_graph(&out).unwrap();
        assert_eq!(out.nodes().len(), 3);
        assert_eq!(out.outputs().len(), 1);
    }
}
