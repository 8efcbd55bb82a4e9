//! Compiler ablation (Lesson 2 / E7): the same model, compiled at each
//! optimization level in turn — the "XLA gains over time" story — plus
//! the backwards-ML-compatibility mode (Lesson 4 / E14). The levels are
//! cumulative: O1 adds fusion to O0, O2 adds double buffering and
//! constant folding, simplification and DCE, and O3 adds CMEM placement.
//!
//! ```text
//! cargo run --release --example compiler_ablation
//! ```

use tpugen::prelude::*;

fn main() {
    let chip = catalog::tpu_v4i();
    let app = zoo::rnn0();
    let graph = app.build(8).expect("builds");
    let sim = Simulator::new(chip.clone());
    println!("{} at batch 8 on {}:\n", app.spec.name, chip.name);

    let mut baseline = None;
    for level in OptLevel::ALL {
        let exe = compile(&graph, &chip, &CompilerOptions::level(level)).expect("compiles");
        let report = sim.run(exe.plan()).expect("simulates");
        let t0 = *baseline.get_or_insert(report.seconds);
        println!(
            "{:?}: {:>8.3} ms  ({:.2}x vs O0)  [{} steps, {} VLIW bundles, {:.0}% weights in CMEM]",
            level,
            report.seconds * 1e3,
            t0 / report.seconds,
            exe.plan().len(),
            exe.program().len(),
            exe.memory().cmem_fraction() * 100.0,
        );
    }

    // Backwards ML compatibility: reproduce TPUv1's 256-wide
    // accumulation order bit-exactly, at a small cost.
    let compat = CompilerOptions {
        bit_exact_with: Some(Generation::TpuV1),
        ..CompilerOptions::default()
    };
    let native = compile(&graph, &chip, &CompilerOptions::default()).expect("compiles");
    let exact = compile(&graph, &chip, &compat).expect("compiles");
    let t_native = sim.run(native.plan()).expect("simulates").seconds;
    let t_exact = sim.run(exact.plan()).expect("simulates").seconds;
    println!(
        "\nbit-exact TPUv1 numerics on TPUv4i: {:.3} ms vs {:.3} ms native \
         ({:.2}x) — accumulation order {:?}",
        t_exact * 1e3,
        t_native * 1e3,
        t_exact / t_native,
        exact.accum_order(),
    );
}
