//! VMEM liveness analysis.
//!
//! Intermediates live in VMEM between their definition and their last
//! use. With 16 MiB of VMEM and transformer activations in the tens of
//! megabytes, not everything fits: the lowering pass consults this
//! analysis (through the spill threshold) to decide which intermediates
//! round-trip through HBM.

use crate::graph::Graph;

/// For each node (by index), the index of its last consumer: its own
/// index if unused, `usize::MAX` if it is a graph output.
pub fn last_uses(graph: &Graph) -> Vec<usize> {
    let mut last_use: Vec<usize> = (0..graph.nodes().len()).collect();
    for node in graph.nodes() {
        for operand in node.op.operands() {
            last_use[operand.index()] = last_use[operand.index()].max(node.id.index());
        }
    }
    for out in graph.outputs() {
        if let Some(lu) = last_use.get_mut(out.index()) {
            *lu = usize::MAX;
        }
    }
    last_use
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_numerics::DType;

    fn chain() -> Graph {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[4, 256]).unwrap(); // 2 KiB
        let w1 = g.constant(&[256, 512]).unwrap();
        let h1 = g.dot(x, w1).unwrap(); // 4 KiB
        let h2 = g.relu(h1).unwrap(); // 4 KiB
        let w2 = g.constant(&[512, 128]).unwrap();
        let y = g.dot(h2, w2).unwrap(); // 1 KiB
        g.mark_output(y);
        g
    }

    #[test]
    fn last_uses_are_correct() {
        let g = chain();
        let last = last_uses(&g);
        assert_eq!(last.len(), g.nodes().len());
        // x (id 0) last used by first dot (id 2).
        assert_eq!(last[0], 2);
        // h1 (id 2) last used by relu (id 3).
        assert_eq!(last[2], 3);
        // Output (id 5) lives to the end.
        assert_eq!(last[5], usize::MAX);
        // A dead node's last use is itself.
        let mut dead = chain();
        let x = dead.parameter(&[1, 8]).unwrap();
        assert_eq!(last_uses(&dead)[x.index()], x.index());
    }

    #[test]
    fn residuals_extend_liveness() {
        // x feeds both the dot and a later add: it must stay live across
        // the dot's execution.
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[8, 128]).unwrap(); // 2 KiB
        let w = g.constant(&[128, 128]).unwrap();
        let d = g.dot(x, w).unwrap(); // 2 KiB
        let s = g.add(d, x).unwrap(); // 2 KiB
        g.mark_output(s);
        assert_eq!(last_uses(&g)[x.index()], s.index());
    }
}
