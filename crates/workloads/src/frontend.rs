//! A deliberately naive frontend: re-emits a graph the way a sloppy
//! model exporter would.
//!
//! Real serving binaries rarely receive the clean graphs
//! [`zoo`](crate::zoo) builds. Checkpoint converters flatten weights to 1-D
//! buffers and reshape them back at the use site, defensive exporters
//! re-apply activations "just in case", and abandoned branches of the
//! model linger in the proto. [`deoptimize`] reproduces exactly those
//! artifacts — **without changing the math** — so experiments can
//! measure what the optimizing pass pipeline is worth on realistic
//! input (E26) and differential tests can check `optimize ∘ deoptimize
//! ≡ identity`.

use tpu_hlo::{Graph, HloOp, OpId, ShapeError};
use tpu_numerics::activation::Activation;

/// Re-emits `graph` with frontend artifacts injected:
///
/// - every constant is stored flattened and reshaped back at its use
///   site (hides weights from the CMEM planner until constant folding
///   recovers them);
/// - every ReLU is applied twice (sound: ReLU is idempotent);
/// - a dead weight + activation branch is appended (squats on CMEM
///   budget until DCE collects it);
/// - the first output takes a flatten/unflatten reshape round trip.
///
/// The result computes the same outputs as the input — parameters keep
/// their ordinals and constants keep their linear-index contents, so
/// the deterministic evaluator sees identical values — but it lowers
/// much worse until the pass pipeline has cleaned it up.
///
/// # Errors
///
/// Propagates [`ShapeError`]s; none occur for well-formed inputs.
pub fn deoptimize(graph: &Graph) -> Result<Graph, ShapeError> {
    let mut out = Graph::new(graph.name(), graph.dtype());
    let mut remap: Vec<OpId> = Vec::with_capacity(graph.nodes().len());
    for node in graph.nodes() {
        let m = |id: OpId| remap[id.index()];
        let new_id = match node.op {
            HloOp::Parameter => out.parameter(node.shape.dims())?,
            HloOp::Constant => {
                let flat = out.constant(&[node.shape.elements()])?;
                out.reshape(flat, node.shape.dims())?
            }
            HloOp::Dot { lhs, rhs } => out.dot(m(lhs), m(rhs))?,
            HloOp::Conv2d {
                input,
                kernel,
                stride,
            } => out.conv2d(m(input), m(kernel), stride)?,
            HloOp::Activate { input, act } => {
                let once = out.activate(m(input), act)?;
                if act == Activation::Relu {
                    out.activate(once, Activation::Relu)?
                } else {
                    once
                }
            }
            HloOp::Binary { a, b, kind } => out.binary(m(a), m(b), kind)?,
            HloOp::Softmax { input } => out.softmax(m(input))?,
            HloOp::LayerNorm { input } => out.layer_norm(m(input))?,
            HloOp::Embedding { table, batch, seq } => out.embedding(m(table), batch, seq)?,
            HloOp::MaxPool2d { input, window } => out.max_pool2d(m(input), window)?,
            HloOp::Reshape { input } => out.reshape(m(input), node.shape.dims())?,
            HloOp::GateReduce { input, factor } => out.gate_reduce(m(input), factor)?,
            HloOp::BatchMatmul {
                a,
                b,
                batch,
                m: rows,
                k,
                n,
            } => out.batch_matmul(m(a), m(b), batch, rows, k, n)?,
        };
        remap.push(new_id);
    }

    // The abandoned branch: a weight nobody reads, half-processed.
    let dead_w = out.constant(&[128, 128])?;
    out.activate(dead_w, Activation::Tanh)?;

    for (i, &o) in graph.outputs().iter().enumerate() {
        let mut mapped = remap[o.index()];
        if i == 0 {
            let dims = graph.node(o).shape.dims().to_vec();
            let flat = out.reshape(mapped, &[graph.node(o).shape.elements()])?;
            mapped = out.reshape(flat, &dims)?;
        }
        out.mark_output(mapped);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use tpu_hlo::eval;

    #[test]
    fn deoptimize_preserves_zoo_semantics() {
        // Cheap apps at batch 1: full elementwise differential check.
        for app in [zoo::mlp0(), zoo::mlp1(), zoo::rnn0(), zoo::rnn1()] {
            let clean = app.build(1).unwrap();
            let dirty = deoptimize(&clean).unwrap();
            assert!(
                dirty.nodes().len() > clean.nodes().len(),
                "{}",
                app.spec.name
            );
            let a = eval::evaluate(&clean).unwrap();
            let b = eval::evaluate(&dirty).unwrap();
            assert!(
                eval::outputs_divergence(&a, &b, 0.0).is_none(),
                "{} diverged after deoptimize",
                app.spec.name
            );
        }
    }

    #[test]
    fn deoptimize_verifies_for_every_app() {
        let v = tpu_hlo::Verifier::new();
        for app in zoo::production_apps() {
            let dirty = deoptimize(&app.build(2).unwrap()).unwrap();
            v.verify_graph(&dirty).unwrap();
        }
    }

    #[test]
    fn deoptimize_hides_weights_and_adds_dead_code() {
        let clean = zoo::mlp0().build(4).unwrap();
        let dirty = deoptimize(&clean).unwrap();
        // All weights now sit behind reshapes...
        let direct_consts_used: usize = dirty
            .nodes()
            .iter()
            .filter(|n| n.op.is_matrix_op())
            .flat_map(|n| n.op.operands())
            .filter(|&o| matches!(dirty.node(o).op, HloOp::Constant))
            .count();
        assert_eq!(direct_consts_used, 0);
        // ...and the dead branch inflates weight bytes.
        assert!(dirty.weight_bytes() > clean.weight_bytes());
        // Flops grew only by VPU noise (duplicate relus), not MXU work.
        let matrix = |g: &Graph| -> u64 {
            g.nodes()
                .iter()
                .filter(|n| n.op.is_matrix_op())
                .map(|n| g.node_flops(n))
                .sum()
        };
        assert_eq!(matrix(&clean), matrix(&dirty));
    }
}
