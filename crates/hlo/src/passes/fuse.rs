//! Fusion as a pass: wraps the [`fusion`](crate::fusion) analysis.

use super::{Pass, PassResult};
use crate::fusion;
use crate::graph::Graph;

/// Runs the fusion analysis and publishes its
/// [`FusionMap`](crate::fusion::FusionMap) through the pass manager.
///
/// This is an *analysis* pass: it never rewrites the graph, so it never
/// perturbs the fixpoint loop. It should sit last in a pipeline — the
/// manager drops any earlier fusion result when a later pass rewrites
/// the graph, and re-running the sweep recomputes it against the final
/// graph, which is exactly what the lowering pass must consume.
pub struct FusionPass;

impl Pass for FusionPass {
    fn name(&self) -> &'static str {
        "fusion"
    }

    fn run(&self, graph: &Graph) -> PassResult {
        PassResult {
            rewrite: None,
            fusion: Some(fusion::fuse(graph)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{Dce, PassManager, Simplify};
    use tpu_numerics::DType;

    #[test]
    fn fusion_map_matches_the_final_graph() {
        // The duplicate relu blocks fusion of the outer one; after
        // simplify+dce the surviving relu fuses into the dot. The map
        // the manager returns must describe the *final* graph.
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[8, 64]).unwrap();
        let w = g.constant(&[64, 64]).unwrap();
        let d = g.dot(x, w).unwrap();
        let r1 = g.relu(d).unwrap();
        let r2 = g.relu(r1).unwrap();
        g.mark_output(r2);

        let report = PassManager::new()
            .with_pass(Simplify)
            .with_pass(Dce)
            .with_pass(FusionPass)
            .run(&g)
            .unwrap();
        assert_eq!(report.graph.nodes().len(), 4);
        assert_eq!(report.fusion.fused_count(), 1);
        let root = report
            .fusion
            .entries()
            .next()
            .map(|(_, root)| root)
            .unwrap();
        assert!(report.graph.node(root).op.is_matrix_op());
    }

    #[test]
    fn analysis_alone_does_not_spin_the_fixpoint() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[8, 64]).unwrap();
        let w = g.constant(&[64, 64]).unwrap();
        let d = g.dot(x, w).unwrap();
        let r = g.relu(d).unwrap();
        g.mark_output(r);

        let report = PassManager::new().with_pass(FusionPass).run(&g).unwrap();
        assert_eq!(report.sweeps, 1);
        assert!(report.applied.is_empty());
        assert_eq!(report.fusion.fused_count(), 1);
    }
}
