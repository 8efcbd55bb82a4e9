//! Property tests for the model zoo and growth model.

use proptest::prelude::*;
use tpu_workloads::{growth, production_apps};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Weight counts are batch-invariant; flops scale with batch.
    #[test]
    fn weights_are_batch_invariant(batch in 1u64..64, idx in 0usize..8) {
        let app = &production_apps()[idx];
        let g1 = app.build(1).unwrap();
        let gb = app.build(batch).unwrap();
        prop_assert_eq!(g1.weight_count(), gb.weight_count());
        prop_assert!(gb.flops() >= g1.flops());
        tpu_hlo::Verifier::new().verify_graph(&gb).unwrap();
    }

    /// Growth compounds multiplicatively: m(a+b) = m(a) * m(b).
    #[test]
    fn growth_is_multiplicative(a in 0.0f64..5.0, b in 0.0f64..5.0) {
        let lhs = growth::demand_multiplier(a + b);
        let rhs = growth::demand_multiplier(a) * growth::demand_multiplier(b);
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs);
    }

    /// Grown models never shrink with years, and parameter growth stays
    /// within a factor-2 band of the ideal 1.5^y trajectory (dimension
    /// rounding and the non-scaled output layer cause slack).
    #[test]
    fn grown_models_bracket_the_trajectory(years in 0.0f64..8.0) {
        let base = growth::mlp0_grown(1, 0.0).unwrap().weight_count() as f64;
        let grown = growth::mlp0_grown(1, years).unwrap().weight_count() as f64;
        let ideal = growth::demand_multiplier(years);
        let ratio = grown / base;
        prop_assert!(ratio >= 0.5 * ideal, "ratio {ratio} vs ideal {ideal}");
        prop_assert!(ratio <= 2.0 * ideal, "ratio {ratio} vs ideal {ideal}");
    }

    /// The headroom formula inverts the growth model.
    #[test]
    fn headroom_inverts_growth(model_gib in 0.1f64..7.9) {
        let chip = tpu_arch::catalog::tpu_v4i();
        let years = growth::hbm_headroom_years(&chip, model_gib);
        let grown = model_gib * growth::demand_multiplier(years);
        prop_assert!((grown - chip.hbm.capacity_gib()).abs() < 1e-6);
    }
}
