//! Property tests for the compiler passes.

use proptest::prelude::*;

use tpu_arch::catalog;
use tpu_hlo::fusion::fuse;
use tpu_hlo::memory;
use tpu_hlo::{compile, CompilerOptions, Graph, OptLevel};
use tpu_numerics::activation::Activation;
use tpu_numerics::DType;

/// A random chain: parameter → (dot → [activation]) repeated.
fn random_chain() -> impl Strategy<Value = Graph> {
    (
        1u64..32,
        prop::collection::vec((1u64..200, any::<bool>()), 1..6),
    )
        .prop_map(|(batch, layers)| {
            let mut g = Graph::new("prop-chain", DType::Bf16);
            let mut width = layers[0].0.max(1);
            let mut x = g.parameter(&[batch, width]).expect("valid");
            for (next, with_act) in layers {
                let w = g.constant(&[width, next]).expect("valid");
                x = g.dot(x, w).expect("chained");
                if with_act {
                    x = g.activate(x, Activation::Gelu).expect("same shape");
                }
                width = next;
            }
            g.mark_output(x);
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The memory planner never over-books the CMEM budget, and its
    /// placement accounting is exact.
    #[test]
    fn planner_respects_budget(g in random_chain(), budget in 0u64..(64 << 20)) {
        let chip = catalog::tpu_v4i();
        let plan = memory::plan(&g, &chip, Some(budget));
        prop_assert!(plan.cmem_used <= budget);
        prop_assert_eq!(plan.cmem_used + plan.hbm_weight_bytes, g.weight_bytes());
        let frac = plan.cmem_fraction();
        prop_assert!((0.0..=1.0).contains(&frac));
    }

    /// Fusion only ever fuses fusible ops into matrix-op roots, and the
    /// cluster map is consistent.
    #[test]
    fn fusion_is_well_formed(g in random_chain()) {
        let f = fuse(&g);
        for node in g.nodes() {
            if let Some(root) = f.root_of(node.id) {
                prop_assert!(node.op.is_fusible_consumer());
                prop_assert!(g.node(root).op.is_matrix_op());
                prop_assert!(root < node.id, "root must precede fused node");
                prop_assert!(f.cluster_of(root).contains(&node.id));
            }
        }
    }

    /// Step plans are structurally topological: every dependency id is
    /// smaller than its dependent's id.
    #[test]
    fn plans_are_topological(g in random_chain()) {
        let chip = catalog::tpu_v4i();
        let exe = compile(&g, &chip, &CompilerOptions::default()).unwrap();
        for step in exe.plan().steps() {
            for dep in exe.plan().deps(step.id) {
                prop_assert!(dep.index() < step.id.index());
            }
        }
        // And there is exactly one output DMA per graph output.
        let outputs = exe
            .plan()
            .steps()
            .iter()
            .filter(|s| s.tag == "output")
            .count();
        prop_assert_eq!(outputs, g.outputs().len());
    }

    /// Fusion (what O1 adds to O0) never changes total matrix work,
    /// only VPU round trips.
    #[test]
    fn fusion_preserves_matrix_work(g in random_chain()) {
        let chip = catalog::tpu_v4i();
        let fused = compile(&g, &chip, &CompilerOptions::level(OptLevel::O1)).unwrap();
        let unfused = compile(&g, &chip, &CompilerOptions::level(OptLevel::O0)).unwrap();
        let mxu_flops = |exe: &tpu_hlo::Executable| -> u64 {
            exe.plan()
                .steps()
                .iter()
                .filter(|s| matches!(s.kind, tpu_sim::StepKind::Mxu { .. }))
                .map(|s| s.kind.flops())
                .sum()
        };
        prop_assert_eq!(mxu_flops(&fused), mxu_flops(&unfused));
        prop_assert!(fused.plan().len() <= unfused.plan().len());
    }

    /// Compilation is deterministic.
    #[test]
    fn compilation_is_deterministic(g in random_chain()) {
        let chip = catalog::tpu_v4i();
        let a = compile(&g, &chip, &CompilerOptions::default()).unwrap();
        let b = compile(&g, &chip, &CompilerOptions::default()).unwrap();
        prop_assert_eq!(a.plan(), b.plan());
        prop_assert_eq!(a.program(), b.program());
        prop_assert_eq!(a.binary().unwrap(), b.binary().unwrap());
    }
}
