//! VMEM liveness analysis.
//!
//! Intermediates live in VMEM between their definition and their last
//! use. With 16 MiB of VMEM and transformer activations in the tens of
//! megabytes, not everything fits: the lowering pass consults this
//! analysis (through the spill threshold) to decide which intermediates
//! round-trip through HBM. The analysis is also useful on its own — the
//! peak-residency number is the compiler's answer to "what batch size
//! can this model run at without spilling?".

use tpu_numerics::DType;

use crate::graph::{Graph, HloOp, OpId};

/// Liveness facts for one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Liveness {
    /// For each node (by index): the index of its last consumer, or its
    /// own index if unused (dead) / `usize::MAX` if it is a graph output
    /// (live to the end).
    last_use: Vec<usize>,
    /// Peak simultaneously-live intermediate bytes.
    pub peak_bytes: u64,
    /// The node at whose definition the peak occurs.
    pub peak_at: Option<OpId>,
    /// Nodes live at the peak.
    pub live_at_peak: Vec<OpId>,
}

impl Liveness {
    /// The last node index at which `id`'s value is needed.
    pub fn last_use(&self, id: OpId) -> usize {
        self.last_use[id.index()]
    }

    /// Whether `id` is still live after node `at` executes.
    pub fn live_after(&self, id: OpId, at: usize) -> bool {
        self.last_use[id.index()] > at
    }
}

/// Whether a node's value occupies VMEM (constants stream per tile and
/// parameters arrive via DMA — both *do* occupy VMEM once materialized;
/// only constants are exempt, they live in HBM/CMEM).
fn occupies_vmem(op: &HloOp) -> bool {
    !matches!(op, HloOp::Constant)
}

/// For each node (by index), the index of its last consumer: its own
/// index if unused, `usize::MAX` if it is a graph output. This is the
/// part of [`analyze`] that lowering reads.
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

/// Computes liveness and peak VMEM residency for a graph at its dtype.
pub fn analyze(graph: &Graph) -> Liveness {
    let dtype: DType = graph.dtype();
    let last_use = last_uses(graph);

    // Sweep definitions in order, tracking the live set.
    let mut live: Vec<OpId> = Vec::new();
    let mut live_bytes = 0u64;
    let mut peak_bytes = 0u64;
    let mut peak_at = None;
    let mut live_at_peak = Vec::new();
    for node in graph.nodes() {
        let i = node.id.index();
        // The node's inputs and its output coexist while it executes, so
        // the definition is counted before dying operands are released.
        if occupies_vmem(&node.op) {
            live.push(node.id);
            live_bytes += node.shape.bytes(dtype);
        }
        if live_bytes > peak_bytes {
            peak_bytes = live_bytes;
            peak_at = Some(node.id);
            live_at_peak = live.clone();
        }
        // Release everything whose last use is this node (including the
        // node itself when it is dead).
        live.retain(|id| {
            let keep = last_use[id.index()] > i;
            if !keep {
                live_bytes -= graph.node(*id).shape.bytes(dtype);
            }
            keep
        });
    }

    Liveness {
        last_use,
        peak_bytes,
        peak_at,
        live_at_peak,
    }
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
        let l = analyze(&g);
        // x (id 0) last used by first dot (id 2).
        assert_eq!(l.last_use(OpId(0)), 2);
        // h1 (id 2) last used by relu (id 3).
        assert_eq!(l.last_use(OpId(2)), 3);
        // Output (id 5) lives to the end.
        assert_eq!(l.last_use(OpId(5)), usize::MAX);
        assert!(l.live_after(OpId(5), 5));
        assert!(!l.live_after(OpId(0), 2));
    }

    #[test]
    fn last_uses_are_the_analysis_last_uses() {
        let g = chain();
        let l = analyze(&g);
        let last = last_uses(&g);
        assert_eq!(last.len(), g.nodes().len());
        for n in g.nodes() {
            assert_eq!(last[n.id.index()], l.last_use(n.id), "{}", n.id);
        }
        // A dead node's last use is itself.
        let mut dead = chain();
        let x = dead.parameter(&[1, 8]).unwrap();
        assert_eq!(last_uses(&dead)[x.index()], x.index());
    }

    #[test]
    fn peak_counts_only_simultaneous_intermediates() {
        let g = chain();
        let l = analyze(&g);
        // Peak is at the relu, where its input h1 (4 KiB) and output h2
        // (4 KiB) coexist (x died at the dot).
        assert_eq!(l.peak_bytes, 4096 + 4096);
        assert_eq!(l.peak_at, Some(OpId(3)));
        assert_eq!(l.live_at_peak.len(), 2);
    }

    #[test]
    fn constants_do_not_occupy_vmem() {
        let mut g = Graph::new("t", DType::Bf16);
        let _w = g.constant(&[4096, 4096]).unwrap(); // 32 MiB, unused
        let x = g.parameter(&[1, 16]).unwrap();
        g.mark_output(x);
        let l = analyze(&g);
        assert_eq!(l.peak_bytes, 32); // just the parameter
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
        let l = analyze(&g);
        assert_eq!(l.last_use(x), s.index());
        // Peak: x + d live together (then s replaces d while x dies).
        assert_eq!(l.peak_bytes, 3 * 2048);
    }

    #[test]
    fn transformer_block_peak_scales_with_batch() {
        fn mini_block(batch: u64) -> Graph {
            let mut g = Graph::new("mini", DType::Bf16);
            let x = g.parameter(&[batch, 128, 256]).unwrap();
            let w1 = g.constant(&[256, 1024]).unwrap();
            let a = g.dot(x, w1).unwrap();
            let a = g.gelu(a).unwrap();
            let w2 = g.constant(&[1024, 256]).unwrap();
            let o = g.dot(a, w2).unwrap();
            let s = g.add(o, x).unwrap();
            g.mark_output(s);
            g
        }
        let small = analyze(&mini_block(1)).peak_bytes;
        let big = analyze(&mini_block(16)).peak_bytes;
        assert_eq!(big, 16 * small);
    }
}
