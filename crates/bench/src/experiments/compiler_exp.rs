//! E26: Lesson 2 — compiler compatibility trumps binary compatibility.
//!
//! The paper's second lesson is that what carries across TPU
//! generations is the *source graph and the compiler*, not the compiled
//! binary: each generation re-extracts performance from the same model
//! with the optimizations contemporary to it. This experiment replays
//! that claim end to end. Every production app is first run through the
//! naive frontend ([`tpu_workloads::frontend::deoptimize`]) — flattened
//! weights behind reshapes, duplicated activations, dead branches, the
//! shape real exporters emit — then compiled twice per generation:
//! once with the frozen-binary stand-in (the O0 pipeline: what you get
//! if you never recompile) and once with that generation's own pipeline
//! ([`CompilerOptions::for_chip`]): fusion on TPUv2, plus double
//! buffering and constant folding / DCE / simplification on TPUv3, plus
//! CMEM placement on TPUv4i. Every optimized compile is gated by the graph verifier and
//! the cost-model cross-check (`tpu_hlo::verify`, `tpu_hlo::passes`).
//!
//! The per-generation speedup envelopes fold the whole app zoo, so the
//! summary row shows the *fleet* compiler gain, not a cherry-pick.

use tpu_arch::{catalog, ChipConfig};
use tpu_hlo::{compile, CompilerOptions, OptLevel};
use tpu_sim::Simulator;
use tpu_workloads::{frontend, zoo};

use crate::multiseed::Envelope;
use crate::util::{f, Table};

/// Batch size all E26 compiles use.
pub const BATCH: u64 = 4;

/// One app on one generation: frozen-binary stand-in vs the
/// generation's own pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerPoint {
    /// Chip name (`"TPUv2"`, ...).
    pub chip: String,
    /// App name (`"MLP0"`, ...).
    pub app: &'static str,
    /// Graph nodes before the pass pipeline ran.
    pub nodes_before: usize,
    /// Graph nodes after.
    pub nodes_after: usize,
    /// Rewrites the pipeline applied (fixpoint total).
    pub passes_applied: usize,
    /// Weight bytes resident in CMEM after optimization, fraction.
    pub cmem_fraction: f64,
    /// Simulated latency of the O0 compile, ms.
    pub naive_ms: f64,
    /// Simulated latency of the generation's pipeline, ms.
    pub opt_ms: f64,
    /// Cost-model serial ceiling of the O0 compile, ms.
    pub naive_cost_ms: f64,
    /// Cost-model serial ceiling of the optimized compile, ms.
    pub opt_cost_ms: f64,
    /// `naive_ms / opt_ms`.
    pub speedup: f64,
}

/// Per-generation speedup summary across the whole zoo.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationGain {
    /// Chip name.
    pub chip: String,
    /// Speedups of every app folded into one envelope.
    pub speedups: Envelope,
}

/// The generations E26 visits (TPUv1's pipeline *is* O0, so its
/// recompile gain is 1.0 by construction and it is omitted).
pub fn e26_chips() -> Vec<ChipConfig> {
    vec![catalog::tpu_v2(), catalog::tpu_v3(), catalog::tpu_v4i()]
}

/// E26 data: every production app, deoptimized, compiled per
/// generation with O0 and with the generation's contemporary pipeline.
pub fn compiler_data() -> (Vec<CompilerPoint>, Vec<GenerationGain>) {
    let frozen = CompilerOptions::level(OptLevel::O0);
    let mut points = Vec::new();
    let mut gains = Vec::new();
    for chip in e26_chips() {
        let options = CompilerOptions::for_chip(&chip);
        let sim = Simulator::new(chip.clone());
        let mut speedups = Vec::new();
        for app in zoo::production_apps() {
            let clean = app.build(BATCH).expect("zoo graphs build");
            let dirty = frontend::deoptimize(&clean).expect("deoptimize is total");
            let naive = compile(&dirty, &chip, &frozen).expect("O0 compile");
            let opt = compile(&dirty, &chip, &options).expect("pipeline compile");
            let naive_ms = sim.run(naive.plan()).expect("sim").seconds * 1e3;
            let opt_ms = sim.run(opt.plan()).expect("sim").seconds * 1e3;
            let speedup = naive_ms / opt_ms;
            speedups.push(speedup);
            points.push(CompilerPoint {
                chip: chip.name.clone(),
                app: app.spec.name,
                nodes_before: opt.pass_summary().nodes_before,
                nodes_after: opt.pass_summary().nodes_after,
                passes_applied: opt.pass_summary().applied.len(),
                cmem_fraction: opt.memory().cmem_fraction(),
                naive_ms,
                opt_ms,
                naive_cost_ms: naive.cost_estimate(&chip).upper_bound_s() * 1e3,
                opt_cost_ms: opt.cost_estimate(&chip).upper_bound_s() * 1e3,
                speedup,
            });
        }
        gains.push(GenerationGain {
            chip: chip.name.clone(),
            speedups: Envelope::from_samples(&speedups),
        });
    }
    (points, gains)
}

/// E26 (extension) — per-generation recompilation gains on
/// frontend-dirtied graphs.
pub fn e26_compiler() -> String {
    let (points, gains) = compiler_data();
    let mut t = Table::new(&[
        "chip",
        "app",
        "nodes",
        "rewrites",
        "cmem",
        "frozen ms",
        "recompiled ms",
        "cost ceil ms",
        "speedup",
    ]);
    for p in &points {
        t.row(vec![
            p.chip.clone(),
            p.app.to_owned(),
            format!("{}->{}", p.nodes_before, p.nodes_after),
            p.passes_applied.to_string(),
            format!("{}%", f(p.cmem_fraction * 100.0, 0)),
            f(p.naive_ms, 3),
            f(p.opt_ms, 3),
            format!("{}->{}", f(p.naive_cost_ms, 3), f(p.opt_cost_ms, 3)),
            format!("{}x", f(p.speedup, 2)),
        ]);
    }
    let mut s = Table::new(&["chip", "pipeline", "speedup (zoo envelope)"]);
    for (g, chip) in gains.iter().zip(e26_chips()) {
        let opts = CompilerOptions::for_chip(&chip);
        let pipeline = match opts.level {
            OptLevel::O0 => "O0 (none)",
            OptLevel::O1 => "O1 (+fusion)",
            OptLevel::O2 => "O2 (+fold/dce/simplify)",
            OptLevel::O3 => "O3 (+cmem)",
        };
        s.row(vec![
            g.chip.clone(),
            pipeline.to_owned(),
            format!(
                "{}x mean  [{}x .. {}x]",
                f(g.speedups.mean, 2),
                f(g.speedups.min, 2),
                f(g.speedups.max, 2)
            ),
        ]);
    }
    format!(
        "E26 (extension) — Lesson 2: per-generation recompilation vs frozen binaries \
         (all {} apps, naive-frontend graphs, batch {BATCH}; verifier- and \
         cost-model-gated pass pipeline)\n{}\n{}",
        zoo::production_apps().len(),
        t.render(),
        s.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e26_gains_grow_with_compiler_maturity() {
        let (points, gains) = compiler_data();
        assert_eq!(points.len(), 8 * 3);
        assert_eq!(gains.len(), 3);
        // Recompiling never loses, on any app, on any generation.
        for p in &points {
            assert!(
                p.speedup >= 0.999,
                "{} on {} regressed: {:.3}x",
                p.app,
                p.chip,
                p.speedup
            );
            assert!(p.nodes_after <= p.nodes_before);
            // Sim latency stays inside the cost model's serial ceiling.
            assert!(p.opt_ms <= p.opt_cost_ms * 1.001);
        }
        // Mean fleet gain grows as the pipeline matures (Lesson 2's
        // "performance follows the compiler, not the binary").
        assert!(gains[0].speedups.mean < gains[1].speedups.mean);
        assert!(gains[1].speedups.mean < gains[2].speedups.mean);
        // CMEM placement only exists on v4i, and the v4i pipeline
        // recovers it for the reshaped weights on every app (the
        // BERT-class apps overflow the 128 MiB CMEM, so their fraction
        // is partial rather than ~100%).
        for p in &points {
            if p.chip == "TPUv4i" {
                assert!(p.cmem_fraction > 0.1, "{}: {}", p.app, p.cmem_fraction);
            } else {
                assert_eq!(p.cmem_fraction, 0.0, "{} on {}", p.app, p.chip);
            }
        }
    }

    #[test]
    fn e26_renders_deterministically() {
        let a = e26_compiler();
        let b = e26_compiler();
        assert_eq!(a, b);
        assert!(a.contains("TPUv4i"));
        assert!(a.contains("speedup"));
    }
}
