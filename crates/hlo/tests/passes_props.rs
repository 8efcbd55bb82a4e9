//! Property tests for the pass framework: on randomly dirtied graphs
//! covering the whole rewrite surface (weights hidden behind reshapes,
//! identity activations, duplicated ReLUs, no-op reshapes, `max(x,x)`,
//! dead subgraphs), the O3 pipeline must stay inside its contract —
//! verified output, bit-identical semantics, exact matrix-flop
//! preservation, and a true fixpoint.

use proptest::prelude::*;

use tpu_hlo::eval;
use tpu_hlo::graph::BinaryKind;
use tpu_hlo::passes::{pipeline_for, ConstantFold, Dce, FusionPass, Simplify};
use tpu_hlo::{CompilerOptions, Graph, OptLevel, PassManager, Verifier};
use tpu_numerics::activation::Activation;
use tpu_numerics::DType;

/// A random MLP-ish chain with compiler bait layered on: per layer the
/// weight may hide behind a flatten/reshape pair, an identity
/// activation and a duplicate ReLU may follow the dot, and one of
/// {no-op reshape, `max(x,x)`, layer norm} may cap the layer. A dead
/// `relu(constant)` subgraph may dangle off the side.
fn dirty_chain() -> impl Strategy<Value = Graph> {
    (
        1u64..8,
        prop::collection::vec(
            (
                4u64..40,
                any::<bool>(),
                any::<bool>(),
                any::<bool>(),
                0u8..4,
            ),
            1..4,
        ),
        any::<bool>(),
    )
        .prop_map(|(batch, layers, dead)| {
            let mut g = Graph::new("dirty-chain", DType::Bf16);
            let mut width = layers[0].0;
            let mut x = g.parameter(&[batch, width]).expect("valid");
            for (next, hide_weight, add_identity, dup_relu, extra) in layers {
                let w = if hide_weight {
                    let flat = g.constant(&[width * next]).expect("valid");
                    g.reshape(flat, &[width, next]).expect("same elements")
                } else {
                    g.constant(&[width, next]).expect("valid")
                };
                x = g.dot(x, w).expect("chained");
                if add_identity {
                    x = g.activate(x, Activation::Identity).expect("same shape");
                }
                x = g.relu(x).expect("same shape");
                if dup_relu {
                    x = g.relu(x).expect("same shape");
                }
                match extra {
                    1 => x = g.reshape(x, &[batch, next]).expect("no-op"),
                    2 => x = g.binary(x, x, BinaryKind::Max).expect("same shape"),
                    3 => x = g.layer_norm(x).expect("same shape"),
                    _ => {}
                }
                width = next;
            }
            if dead {
                let c = g.constant(&[16, 16]).expect("valid");
                let _ = g.relu(c).expect("dead branch");
            }
            g.mark_output(x);
            g
        })
}

/// `(mxu, total)` flops over output-reachable nodes — the same
/// liveness the pass manager's gate uses.
fn live_flops(g: &Graph) -> (u64, u64) {
    let mut seen = vec![false; g.nodes().len()];
    let mut stack: Vec<_> = g.outputs().to_vec();
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        stack.extend(g.node(id).op.operands());
    }
    let (mut mxu, mut total) = (0u64, 0u64);
    for n in g.nodes() {
        if seen[n.id.index()] {
            let f = g.node_flops(n);
            total += f;
            if n.op.is_matrix_op() {
                mxu += f;
            }
        }
    }
    (mxu, total)
}

fn o3() -> CompilerOptions {
    CompilerOptions::level(OptLevel::O3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pipeline's output passes the full verifier (graph and
    /// fusion map), and its differential-equivalence harness accepts
    /// every rewrite at *zero* tolerance — the O3 passes are exact.
    #[test]
    fn pipeline_preserves_verification_and_semantics(g in dirty_chain()) {
        let report = pipeline_for(&o3())
            .check_equivalence(0.0)
            .run(&g)
            .expect("gated pipeline");
        let verifier = Verifier::new();
        verifier.verify_graph(&report.graph).expect("output verifies");
        verifier
            .verify_fusion(&report.graph, &report.fusion)
            .expect("fusion map verifies");
        // Belt and braces: recheck equivalence outside the manager.
        let before = eval::evaluate(&g).expect("input evaluates");
        let after = eval::evaluate(&report.graph).expect("output evaluates");
        prop_assert!(eval::outputs_divergence(&before, &after, 0.0).is_none());
    }

    /// Running the pipeline on its own output rewrites nothing: the
    /// reported fixpoint is a true fixpoint.
    #[test]
    fn pipeline_is_idempotent_at_fixpoint(g in dirty_chain()) {
        let first = pipeline_for(&o3()).run(&g).expect("first run");
        let second = pipeline_for(&o3()).run(&first.graph).expect("second run");
        prop_assert!(second.applied.is_empty(), "re-applied: {:?}", second.applied);
        prop_assert_eq!(&second.graph, &first.graph);
        prop_assert_eq!(second.sweeps, 1);
        // The fusion analysis is deterministic across runs.
        prop_assert_eq!(&second.fusion, &first.fusion);
    }

    /// Live matrix flops are preserved exactly; total live flops never
    /// increase; node count never grows.
    #[test]
    fn pipeline_preserves_matrix_work(g in dirty_chain()) {
        let (mxu_before, total_before) = live_flops(&g);
        let report = pipeline_for(&o3()).run(&g).expect("gated pipeline");
        let (mxu_after, total_after) = live_flops(&report.graph);
        prop_assert_eq!(mxu_after, mxu_before);
        prop_assert!(total_after <= total_before);
        prop_assert!(report.nodes_after <= report.nodes_before);
        prop_assert_eq!(report.nodes_after, report.graph.nodes().len());
    }

    /// Every subset of the four passes, applied in pipeline order,
    /// upholds the same contract: each case runs all 16 pass managers
    /// (bit i of the mask keeps pass i), the four opt levels' pipelines
    /// and the empty one among them.
    #[test]
    fn every_pass_subset_is_sound(g in dirty_chain()) {
        let (mxu_before, _) = live_flops(&g);
        for mask in 0u8..16 {
            let on = |bit: u8| mask & (1 << bit) != 0;
            let mut pm = PassManager::new();
            if on(0) {
                pm = pm.with_pass(ConstantFold);
            }
            if on(1) {
                pm = pm.with_pass(Simplify);
            }
            if on(2) {
                pm = pm.with_pass(Dce);
            }
            if on(3) {
                pm = pm.with_pass(FusionPass);
            }
            let report = pm
                .check_equivalence(0.0)
                .run(&g)
                .unwrap_or_else(|e| panic!("mask {mask:04b}: {e}"));
            Verifier::new().verify_graph(&report.graph).expect("verifies");
            let (mxu_after, _) = live_flops(&report.graph);
            prop_assert!(mxu_after == mxu_before, "mask {mask:04b}: MXU flops moved");
        }
    }
}
