//! Pins the simulator's output bit for bit.
//!
//! Every report field and every traced entry of two batteries folds
//! into one constant:
//!
//! - the profiling sweep: 5 TPU generations x 8 zoo apps x the 9
//!   `DEFAULT_BATCHES` knots, each compiled with the chip's own
//!   pipeline, the plans `ProfiledApp::new` simulates;
//! - seeded hand-built plans on every catalog chip, dense with roots,
//!   duplicate edges and zero-duration steps (a `Vpu` step with no
//!   elements), whose dependents become ready at the instant they do.
//!
//! A trace lists steps in the order the scheduler pops them, so a change
//! to the pop order moves the constant even when the makespan does not.
//! A pure speed change to `tpu_sim` must leave the constant unchanged.

use tpugen::arch::{catalog, ChipConfig, MemLevel};
use tpugen::hlo::{compile, CompilerOptions};
use tpugen::numerics::DType;
use tpugen::serving::latency::DEFAULT_BATCHES;
use tpugen::sim::{Resource, SimError, SimReport, Simulator, StepId, StepKind, StepPlan, Trace};
use tpugen::workloads::zoo::production_apps;

/// The fold of both batteries and the error cases.
const PINNED: u64 = 0x82f3_e596_2b1a_5c64;

/// Plans and plan steps in the profiling sweep.
const SWEEP_PLANS: usize = 360;
const SWEEP_STEPS: usize = 218_174;

/// FNV-1a over the bytes of everything folded.
struct Fold(u64);

impl Fold {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn report(&mut self, r: &SimReport) {
        self.text(&r.plan);
        self.text(&r.chip);
        for x in [
            r.seconds,
            r.dynamic_joules,
            r.static_joules,
            r.energy_joules,
        ] {
            self.float(x);
        }
        for w in [r.flops, r.hbm_bytes, r.cmem_bytes, r.steps as u64] {
            self.word(w);
        }
        for res in Resource::ALL {
            self.float(r.utilization(res));
            self.float(r.energy_of(res));
        }
    }

    fn trace(&mut self, t: &Trace) {
        self.word(t.entries.len() as u64);
        for e in &t.entries {
            self.word(u64::from(e.step.0));
            self.text(e.tag);
            self.text(e.resource.name());
            self.word(e.unit as u64);
            self.float(e.start);
            self.float(e.end);
        }
    }

    /// Runs `plan` untraced and traced, checks the two reports agree and
    /// the trace covers every step, and folds both reports and the trace.
    fn run(&mut self, sim: &Simulator, plan: &StepPlan) {
        let report = sim
            .run(plan)
            .unwrap_or_else(|e| panic!("{}: {e}", plan.name()));
        let (traced, trace) = sim
            .run_traced(plan)
            .unwrap_or_else(|e| panic!("{}: {e}", plan.name()));
        assert_eq!(report, traced, "{}", plan.name());
        assert_eq!(trace.entries.len(), plan.len(), "{}", plan.name());
        self.report(&report);
        self.report(&traced);
        self.trace(&trace);
    }

    fn error(&mut self, e: &SimError) {
        self.text(&format!("{e:?}"));
    }
}

/// splitmix64: the seeded source of the hand-built plans.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const TAGS: [&str; 4] = ["", "load", "dot", "act"];

/// A random step kind `chip` can run: CMEM traffic only where there is
/// CMEM, fp16 only where it is native. A third of VPU steps have no
/// elements and take no time.
fn random_kind(rng: &mut Rng, chip: &ChipConfig) -> StepKind {
    let level = |rng: &mut Rng| match rng.below(3) {
        0 if chip.cmem.is_some() => MemLevel::Cmem,
        1 => MemLevel::Vmem,
        _ => MemLevel::Hbm,
    };
    match rng.below(6) {
        0 => StepKind::DmaIn {
            from: level(rng),
            bytes: rng.below(1 << 22),
        },
        1 => StepKind::DmaOut {
            to: level(rng),
            bytes: rng.below(1 << 20),
        },
        2 => {
            let fp16 = chip.native_types.contains(&DType::Fp16);
            let dtype = match rng.below(4) {
                0 => DType::Int8,
                1 => DType::Fp32,
                2 if fp16 => DType::Fp16,
                _ => DType::Bf16,
            };
            StepKind::Mxu {
                rows: rng.below(2048),
                cols: 1 + rng.below(512),
                inner: 1 + rng.below(512),
                dtype,
                weights_resident: rng.below(2) == 0,
            }
        }
        3 => StepKind::Ici {
            bytes: rng.below(1 << 16),
        },
        _ => StepKind::Vpu {
            elements: if rng.below(3) == 0 {
                0
            } else {
                rng.below(1 << 18)
            },
            ops_per_element: 1 + rng.below(8),
        },
    }
}

/// A seeded plan: about half its steps are roots, the rest depend on up
/// to three earlier steps (repeats allowed), mostly recent ones.
fn random_plan(seed: u64, chip: &ChipConfig) -> StepPlan {
    let mut rng = Rng(seed);
    let mut plan = StepPlan::new(&format!("random-{seed}"));
    let steps = 1 + rng.below(160) as u32;
    let mut deps = Vec::new();
    for id in 0..steps {
        deps.clear();
        if id > 0 && rng.below(2) == 0 {
            for _ in 0..=rng.below(3) {
                let back = 1 + rng.below(u64::from(id.min(8))) as u32;
                let far = rng.below(u64::from(id)) as u32;
                deps.push(StepId(if rng.below(4) == 0 { far } else { id - back }));
            }
        }
        let kind = random_kind(&mut rng, chip);
        plan.push_tagged(kind, &deps, TAGS[rng.below(4) as usize]);
    }
    plan
}

#[test]
fn simulator_reports_and_traces_are_pinned() {
    let mut fold = Fold(0xcbf2_9ce4_8422_2325);

    // The profiling sweep.
    let (mut plans, mut steps) = (0usize, 0usize);
    for chip in catalog::tpu_generations() {
        let options = CompilerOptions::for_chip(&chip);
        let sim = Simulator::new(chip.clone());
        for app in production_apps() {
            for &batch in &DEFAULT_BATCHES {
                let graph = app.build(batch).expect("zoo apps build");
                let exe = compile(&graph, &chip, &options)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", app.spec.name, chip.name));
                fold.run(&sim, exe.plan());
                plans += 1;
                steps += exe.plan().len();
            }
        }
    }
    assert_eq!((plans, steps), (SWEEP_PLANS, SWEEP_STEPS));

    // Seeded hand-built plans, rotating through the catalog.
    let chips = catalog::all_chips();
    let mut instants = 0usize;
    for seed in 0..240u64 {
        let chip = &chips[seed as usize % chips.len()];
        let plan = random_plan(seed, chip);
        let sim = Simulator::new(chip.clone());
        fold.run(&sim, &plan);
        let (_, trace) = sim.run_traced(&plan).expect("runs");
        instants += trace.entries.iter().filter(|e| e.end == e.start).count();
    }
    // The battery reaches zero-duration steps.
    assert!(instants > 100, "{instants} zero-duration steps");

    // Errors: the first bad step in id order names the error.
    let v3 = Simulator::new(catalog::tpu_v3());
    let cmem = StepKind::DmaIn {
        from: MemLevel::Cmem,
        bytes: 64,
    };
    let fp16 = StepKind::Mxu {
        rows: 8,
        cols: 8,
        inner: 8,
        dtype: DType::Fp16,
        weights_resident: true,
    };
    let fine = StepKind::Vpu {
        elements: 0,
        ops_per_element: 1,
    };
    for (order, expect_cmem) in [([cmem, fp16], true), ([fp16, cmem], false)] {
        let mut plan = StepPlan::new("both-errors");
        let a = plan.push(fine, &[]);
        let b = plan.push(order[0], &[a]);
        plan.push(order[1], &[]);
        plan.push(fine, &[b]);
        let e = v3.run(&plan).expect_err("TPUv3 has neither CMEM nor fp16");
        assert_eq!(v3.run_traced(&plan).expect_err("same error"), e);
        assert_eq!(matches!(e, SimError::NoCmem { .. }), expect_cmem, "{e}");
        fold.error(&e);
    }

    assert_eq!(fold.0, PINNED, "simulator pin moved: got {:#018x}", fold.0);
}
