//! Property tests for the event-driven engine.

use proptest::prelude::*;

use tpu_arch::{catalog, MemLevel};
use tpu_numerics::DType;
use tpu_sim::plan::{StepId, StepKind, StepPlan};
use tpu_sim::{Resource, Simulator};

fn step_kind() -> impl Strategy<Value = StepKind> {
    prop_oneof![
        (1u64..(1 << 22)).prop_map(|bytes| StepKind::DmaIn {
            from: MemLevel::Hbm,
            bytes
        }),
        (1u64..(1 << 20)).prop_map(|bytes| StepKind::DmaOut {
            to: MemLevel::Hbm,
            bytes
        }),
        (1u64..512, 1u64..512, 1u64..512).prop_map(|(rows, cols, inner)| StepKind::Mxu {
            rows,
            cols,
            inner,
            dtype: DType::Bf16,
            weights_resident: false,
        }),
        (1u64..(1 << 18), 1u64..8).prop_map(|(elements, ops)| StepKind::Vpu {
            elements,
            ops_per_element: ops,
        }),
        (1u64..(1 << 20)).prop_map(|bytes| StepKind::Ici { bytes }),
    ]
}

/// A random plan: each step may depend on up to two earlier steps.
fn random_plan() -> impl Strategy<Value = StepPlan> {
    prop::collection::vec((step_kind(), any::<u32>(), any::<u32>()), 1..48).prop_map(|steps| {
        let mut plan = StepPlan::new("prop");
        for (i, (kind, d1, d2)) in steps.into_iter().enumerate() {
            let mut deps = Vec::new();
            if i > 0 {
                deps.push(StepId((d1 as usize % i) as u32));
                let second = (d2 as usize) % i;
                if !deps.contains(&StepId(second as u32)) {
                    deps.push(StepId(second as u32));
                }
            }
            plan.push(kind, &deps);
        }
        plan
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The makespan is bounded below by every single step's duration and
    /// above by the sum of all durations (greedy scheduling never
    /// inflates past full serialization).
    #[test]
    fn makespan_bounds(plan in random_plan()) {
        let sim = Simulator::new(catalog::tpu_v4i());
        let machine = sim.machine().clone();
        let report = sim.run(&plan).unwrap();
        let durations: Vec<f64> = plan
            .steps()
            .iter()
            .map(|s| machine.step_cost(&s.kind).unit_seconds)
            .collect();
        let max = durations.iter().cloned().fold(0.0f64, f64::max);
        let sum: f64 = durations.iter().sum();
        prop_assert!(report.seconds >= max * 0.999, "{} < {max}", report.seconds);
        prop_assert!(report.seconds <= sum * 1.001, "{} > {sum}", report.seconds);
    }

    /// Utilization never exceeds 1 on any resource, and traffic counters
    /// match the plan exactly.
    #[test]
    fn utilization_and_traffic(plan in random_plan()) {
        let sim = Simulator::new(catalog::tpu_v4i());
        let report = sim.run(&plan).unwrap();
        for r in Resource::ALL {
            let u = report.utilization(r);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "{r}: {u}");
        }
        let (hbm, cmem) = plan.channel_traffic();
        prop_assert_eq!(report.hbm_bytes, hbm);
        prop_assert_eq!(report.cmem_bytes, cmem);
        prop_assert_eq!(report.flops, plan.total_flops());
    }

    /// Traced runs match untraced runs, cover every step, and never
    /// overlap two steps on one unit.
    #[test]
    fn traces_are_consistent(plan in random_plan()) {
        let sim = Simulator::new(catalog::tpu_v4i());
        let plain = sim.run(&plan).unwrap();
        let (traced_report, trace) = sim.run_traced(&plan).unwrap();
        prop_assert_eq!(plain, traced_report);
        prop_assert_eq!(trace.entries.len(), plan.len());
        prop_assert_eq!(trace.find_overlap(), None);
        // Every step's dependencies finish before it starts.
        for e in &trace.entries {
            for dep in plan.deps(e.step) {
                let dep_end = trace
                    .entries
                    .iter()
                    .find(|x| x.step == *dep)
                    .map(|x| x.end)
                    .unwrap();
                prop_assert!(dep_end <= e.start + 1e-12);
            }
        }
        // The Gantt renders without panicking.
        let g = trace.render_gantt(60);
        prop_assert!(!g.is_empty());
    }

    /// The engine is deterministic.
    #[test]
    fn engine_is_deterministic(plan in random_plan()) {
        let sim = Simulator::new(catalog::tpu_v4i());
        let a = sim.run(&plan).unwrap();
        let b = sim.run(&plan).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Adding a dependency never makes a plan finish earlier.
    #[test]
    fn extra_dependencies_never_speed_up(plan in random_plan()) {
        prop_assume!(plan.len() >= 2);
        let sim = Simulator::new(catalog::tpu_v4i());
        let base = sim.run(&plan).unwrap().seconds;
        // Rebuild with a full serialization chain added.
        let mut chained = StepPlan::new("chained");
        for (i, s) in plan.steps().iter().enumerate() {
            let mut deps = plan.deps(s.id).to_vec();
            if i > 0 {
                let prev = StepId((i - 1) as u32);
                if !deps.contains(&prev) {
                    deps.push(prev);
                }
            }
            chained.push(s.kind, &deps);
        }
        let serial = sim.run(&chained).unwrap().seconds;
        prop_assert!(serial >= base * 0.999, "serial {serial} < base {base}");
    }

    /// Energy is additive: energy of a plan equals the sum of the
    /// energies of its steps run alone (static power aside).
    #[test]
    fn dynamic_energy_is_additive(plan in random_plan()) {
        let sim = Simulator::new(catalog::tpu_v4i());
        let whole = sim.run(&plan).unwrap().dynamic_joules;
        let mut parts = 0.0f64;
        for s in plan.steps() {
            let mut single = StepPlan::new("one");
            single.push(s.kind, &[]);
            parts += sim.run(&single).unwrap().dynamic_joules;
        }
        prop_assert!((whole - parts).abs() <= 1e-9 * parts.max(1.0));
    }
}
