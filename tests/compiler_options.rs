//! The compiler's option space: every combination of `CompilerOptions`
//! compiles every zoo app and the plan simulates, on every catalog chip.

use tpugen::arch::{catalog, Generation};
use tpugen::hlo::passes::{Pass, Simplify};
use tpugen::hlo::{compile, CompilerOptions};
use tpugen::sim::Simulator;
use tpugen::workloads::zoo::{self, production_apps};

/// Every combination of the six pass and placement booleans, three CMEM
/// budgets (none, 0 and 128 MiB) and two accumulation modes (native,
/// TPUv1 bit-exact) compiles each zoo app at batch 1 to `Ok`, and the
/// plan simulates to `Ok`. Option sets rotate through the catalog chips
/// so that every (app, chip) pair runs too.
#[test]
fn every_option_set_compiles_and_simulates_every_zoo_app() {
    let chips = catalog::all_chips();
    let sims: Vec<Simulator> = chips.iter().cloned().map(Simulator::new).collect();
    let apps = production_apps();
    let graphs: Vec<_> = apps
        .iter()
        .map(|app| app.build(1).expect("zoo apps build"))
        .collect();
    let mut sets = Vec::new();
    for bits in 0..64u32 {
        for cmem_budget_override in [None, Some(0), Some(128 << 20)] {
            for bit_exact_with in [None, Some(Generation::TpuV1)] {
                let on = |bit: u32| bits & (1 << bit) != 0;
                sets.push(CompilerOptions {
                    fusion: on(0),
                    double_buffer: on(1),
                    cmem: on(2),
                    fold: on(3),
                    dce: on(4),
                    simplify: on(5),
                    cmem_budget_override,
                    bit_exact_with,
                });
            }
        }
    }
    assert_eq!(sets.len(), 384);

    // Option sets fan out over the worker pool; each returns the
    // (chip, app) pairs it ran.
    let indexed: Vec<(usize, &CompilerOptions)> = sets.iter().enumerate().collect();
    let ran = tpu_par::par_map(&indexed, |&(s, options)| {
        let mut ran = Vec::new();
        for (a, graph) in graphs.iter().enumerate() {
            let c = (s + a) % chips.len();
            let what = || {
                format!(
                    "{} on {} with {options:?}",
                    apps[a].spec.name, chips[c].name
                )
            };
            let exe =
                compile(graph, &chips[c], options).unwrap_or_else(|e| panic!("{}: {e}", what()));
            let report = sims[c]
                .run(exe.plan())
                .unwrap_or_else(|e| panic!("{}: {e}", what()));
            assert!(report.seconds > 0.0, "{}", what());
            ran.push((c, a));
        }
        ran
    });
    let mut pairs = vec![[false; 8]; chips.len()];
    for (c, a) in ran.into_iter().flatten() {
        pairs[c][a] = true;
    }
    assert!(pairs.iter().flatten().all(|&ran| ran));
}

/// With DCE off, the nodes Simplify replaces stay in the graph as
/// orphans. An orphan still matches its pattern on the next sweep, but
/// redirecting its (absent) readers changes nothing, so it is no rewrite
/// and the pipeline reaches its fixpoint.
#[test]
fn simplify_without_dce_reaches_a_fixpoint() {
    let options = CompilerOptions {
        dce: false,
        ..CompilerOptions::default()
    };
    for app in [zoo::bert0(), zoo::bert1()] {
        let graph = app.build(8).expect("zoo apps build");
        for chip in catalog::all_chips() {
            compile(&graph, &chip, &options)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", app.spec.name, chip.name));
        }
        let once = Simplify
            .run(&graph)
            .rewrite
            .expect("BERT has no-op reshapes");
        assert!(Simplify.run(&once).rewrite.is_none(), "{}", app.spec.name);
    }
}

/// A CMEM budget override resizes a CMEM the chip has. On a chip with
/// none, it plans exactly what the default options plan.
#[test]
fn cmem_budget_override_needs_a_cmem() {
    let with_budget = CompilerOptions::with_cmem_budget(128 << 20);
    let default = CompilerOptions::default();
    for chip in [
        catalog::tpu_v1(),
        catalog::tpu_v2(),
        catalog::tpu_v3(),
        catalog::gpu_t4_like(),
    ] {
        assert!(chip.cmem.is_none(), "{}", chip.name);
        for app in production_apps() {
            let graph = app.build(8).expect("zoo apps build");
            let what = format!("{} on {}", app.spec.name, chip.name);
            let planned =
                compile(&graph, &chip, &with_budget).unwrap_or_else(|e| panic!("{what}: {e}"));
            let plain = compile(&graph, &chip, &default).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(planned.plan(), plain.plan(), "{what}");
            assert_eq!(planned.memory(), plain.memory(), "{what}");
        }
    }
}
