//! Operator fusion: elementwise consumers fold into matrix producers.
//!
//! XLA's single most valuable TPU optimization class: a `dot` followed by
//! a bias-add and a ReLU should write VMEM once, not three times. We
//! model fusion as a map from fused node to its *root* producer; the
//! lowering pass then emits the fused VPU work in the producer's step
//! chain with no intermediate DMA.

use crate::graph::{Graph, HloOp, OpId};

/// The result of the fusion pass.
#[derive(Debug, Clone, Default)]
pub struct FusionMap {
    /// Indexed by node id: the matrix op the node was folded into.
    /// Ids past the end are unfused.
    fused_into: Vec<Option<OpId>>,
}

/// Maps are equal when they hold the same entries, however far their
/// storage extends past the last fused id.
impl PartialEq for FusionMap {
    fn eq(&self, other: &FusionMap) -> bool {
        self.entries().eq(other.entries())
    }
}

impl Eq for FusionMap {}

impl FusionMap {
    /// Assembles a map directly from `(fused node, root)` entries, with
    /// no checking.
    ///
    /// Exists so verifier mutation tests can fabricate ill-formed
    /// clusters; anything built this way must pass
    /// [`Verifier::verify_fusion`](crate::verify::Verifier::verify_fusion).
    pub fn from_entries(entries: &[(OpId, OpId)]) -> FusionMap {
        let len = entries
            .iter()
            .map(|(n, _)| n.index() + 1)
            .max()
            .unwrap_or(0);
        let mut fused_into = vec![None; len];
        for &(node, root) in entries {
            fused_into[node.index()] = Some(root);
        }
        FusionMap { fused_into }
    }

    /// The root producer a node was fused into, if any.
    pub fn root_of(&self, id: OpId) -> Option<OpId> {
        self.fused_into.get(id.index()).copied().flatten()
    }

    /// Iterates `(fused node, root)` entries in fused-node id order.
    pub fn entries(&self) -> impl Iterator<Item = (OpId, OpId)> + '_ {
        self.fused_into
            .iter()
            .enumerate()
            .filter_map(|(i, root)| root.map(|r| (OpId::from_raw(i as u32), r)))
    }

    /// Whether a node was fused away (emits no standalone steps).
    pub fn is_fused(&self, id: OpId) -> bool {
        self.root_of(id).is_some()
    }

    /// Number of fused nodes.
    pub fn fused_count(&self) -> usize {
        self.fused_into.iter().flatten().count()
    }

    /// Nodes fused into `root`, in id order.
    pub fn cluster_of(&self, root: OpId) -> Vec<OpId> {
        self.entries()
            .filter(|&(_, r)| r == root)
            .map(|(n, _)| n)
            .collect()
    }
}

/// Runs the fusion pass.
///
/// A node fuses into a producer chain when it
/// (a) is a fusible elementwise/normalization op,
/// (b) has exactly one consumer path from a matrix op (dot/conv), i.e.
///     its input either *is* a matrix op or is already fused, and
/// (c) the producer's output is consumed only by this node (no fan-out —
///     a second consumer would still need the unfused intermediate).
///
/// Graph outputs can be fused: the fused chain's result is what gets
/// written out.
pub fn fuse(graph: &Graph) -> FusionMap {
    let mut uses = vec![0u32; graph.nodes().len()];
    for node in graph.nodes() {
        for operand in node.op.operands() {
            uses[operand.index()] += 1;
        }
    }
    let mut map = FusionMap {
        fused_into: vec![None; graph.nodes().len()],
    };
    for node in graph.nodes() {
        if !node.op.is_fusible_consumer() {
            continue;
        }
        // The "main" operand: first non-constant operand.
        let main = node
            .op
            .operands()
            .into_iter()
            .find(|&o| !matches!(graph.node(o).op, HloOp::Constant));
        let Some(main) = main else { continue };
        // Producer must be a matrix op or already part of a cluster.
        let root = if graph.node(main).op.is_matrix_op() {
            Some(main)
        } else {
            map.root_of(main)
        };
        let Some(root) = root else { continue };
        // No fan-out from the main operand.
        if uses[main.index()] != 1 {
            continue;
        }
        // Secondary operands (e.g. the residual in a binary add) must be
        // cheap to stream: parameters, constants or other finished nodes
        // are fine in this model — we only require they are not *this*
        // cluster (which would be a cycle).
        map.fused_into[node.id.index()] = Some(root);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_numerics::activation::Activation;
    use tpu_numerics::DType;

    fn dot_chain() -> (Graph, OpId, OpId, OpId) {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[8, 128]).unwrap();
        let w = g.constant(&[128, 256]).unwrap();
        let d = g.dot(x, w).unwrap();
        let r = g.relu(d).unwrap();
        let s = g.softmax(r).unwrap();
        g.mark_output(s);
        (g, d, r, s)
    }

    #[test]
    fn chain_fuses_into_dot() {
        let (g, d, r, s) = dot_chain();
        let f = fuse(&g);
        assert_eq!(f.root_of(r), Some(d));
        assert_eq!(f.root_of(s), Some(d));
        assert!(!f.is_fused(d));
        assert_eq!(f.fused_count(), 2);
        assert_eq!(f.cluster_of(d), vec![r, s]);
    }

    #[test]
    fn maps_compare_by_entries_and_iterate_in_id_order() {
        let (g, d, r, s) = dot_chain();
        let fused = fuse(&g);
        // Listed out of order, and stored only up to the last fused id.
        let built = FusionMap::from_entries(&[(s, d), (r, d)]);
        assert_eq!(fused, built);
        assert_eq!(built.entries().collect::<Vec<_>>(), vec![(r, d), (s, d)]);
        assert_ne!(fused, FusionMap::from_entries(&[(r, d)]));
        // An empty analysis equals the default map, whatever its length.
        let mut plain = Graph::new("t", DType::Bf16);
        let x = plain.parameter(&[2, 2]).unwrap();
        plain.mark_output(x);
        assert_eq!(fuse(&plain), FusionMap::default());
        assert_eq!(fused.root_of(OpId::from_raw(1000)), None);
    }

    #[test]
    fn fan_out_blocks_fusion() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[8, 128]).unwrap();
        let w = g.constant(&[128, 128]).unwrap();
        let d = g.dot(x, w).unwrap();
        let r = g.relu(d).unwrap(); // would fuse...
        let other = g.softmax(d).unwrap(); // ...but d has two consumers
        g.mark_output(r);
        g.mark_output(other);
        let f = fuse(&g);
        assert!(!f.is_fused(r));
        assert!(!f.is_fused(other));
    }

    #[test]
    fn elementwise_without_matrix_producer_stays() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[8, 128]).unwrap();
        let r = g.relu(x).unwrap();
        g.mark_output(r);
        let f = fuse(&g);
        assert_eq!(f.fused_count(), 0);
    }

    #[test]
    fn binary_add_bias_fuses() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[8, 128]).unwrap();
        let w = g.constant(&[128, 256]).unwrap();
        let d = g.dot(x, w).unwrap();
        let bias = g.parameter(&[8, 256]).unwrap();
        let sum = g.add(d, bias).unwrap();
        let act = g.activate(sum, Activation::Gelu).unwrap();
        g.mark_output(act);
        let f = fuse(&g);
        assert_eq!(f.root_of(sum), Some(d));
        assert_eq!(f.root_of(act), Some(d));
    }

    #[test]
    fn conv_chains_fuse_too() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[1, 28, 28, 64]).unwrap();
        let k = g.constant(&[3, 3, 64, 64]).unwrap();
        let c = g.conv2d(x, k, 1).unwrap();
        let r = g.relu(c).unwrap();
        g.mark_output(r);
        let f = fuse(&g);
        assert_eq!(f.root_of(r), Some(c));
    }

    #[test]
    fn reshape_breaks_the_chain() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.parameter(&[8, 128]).unwrap();
        let w = g.constant(&[128, 256]).unwrap();
        let d = g.dot(x, w).unwrap();
        let rs = g.reshape(d, &[8 * 256]).unwrap();
        let r = g.relu(rs).unwrap();
        g.mark_output(r);
        let f = fuse(&g);
        // Reshape is not fusible, so relu's producer is not a matrix op
        // nor fused.
        assert!(!f.is_fused(r));
    }
}
