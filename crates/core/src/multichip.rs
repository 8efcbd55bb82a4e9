//! Multi-chip pipeline inference over ICI (the paper's scale-out story).
//!
//! TPUv4i carries inter-chip interconnect links so that models too large
//! or too slow for one chip can be served by a small pod (the paper
//! describes 4-chip configurations). This module implements **pipeline
//! parallelism**: the model's layers are split into stages, one chip per
//! stage; activations hop between stages over ICI.
//!
//! - *Latency* of one inference = sum of stage latencies + hop times.
//! - *Throughput* = 1 / (slowest stage or hop): once the pipeline fills,
//!   a new batch completes every bottleneck-interval.
//! - Each stage also gets the full chip's CMEM for a fraction of the
//!   weights, which is why pipelining can be *super-linear* for models
//!   that overflow one chip's CMEM.

use tpu_arch::ChipConfig;
use tpu_hlo::{compile, CompilerOptions, Graph};
use tpu_sim::plan::{StepKind, StepPlan};
use tpu_sim::Simulator;

use crate::CoreError;

/// The result of simulating a pipeline of `stages.len()` chips.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Number of chips (= stages).
    pub chips: usize,
    /// Per-stage compute latency, seconds.
    pub stage_seconds: Vec<f64>,
    /// Per-hop ICI transfer latency, seconds (stages - 1 hops).
    pub hop_seconds: Vec<f64>,
    /// End-to-end latency of one batch, seconds.
    pub latency_s: f64,
    /// Steady-state throughput, batches/second.
    pub batches_per_sec: f64,
    /// Fraction of the CMEM-resident weight bytes across all stages.
    pub cmem_fraction: f64,
}

impl PipelineReport {
    /// Throughput scaling efficiency vs `single`-chip serving:
    /// `(throughput_n / throughput_1) / n`.
    pub fn scaling_efficiency(&self, single: &PipelineReport) -> f64 {
        if self.chips == 0 || single.batches_per_sec <= 0.0 {
            return 0.0;
        }
        (self.batches_per_sec / single.batches_per_sec) / self.chips as f64
    }
}

/// Compiles and simulates a pipeline: one stage graph per chip, with
/// `hop_bytes` of activations crossing ICI between consecutive stages.
///
/// # Errors
///
/// Propagates compile/simulate failures; fails if `stages` is empty or
/// the chip has no ICI when more than one stage is requested.
pub fn simulate_pipeline(
    stages: &[Graph],
    chip: &ChipConfig,
    options: &CompilerOptions,
    hop_bytes: u64,
) -> Result<PipelineReport, CoreError> {
    if stages.is_empty() {
        return Err(CoreError::Compile(
            "pipeline needs at least one stage".into(),
        ));
    }
    if stages.len() > 1 && chip.ici_links == 0 {
        return Err(CoreError::Sim(format!(
            "{} has no ICI links for a {}-stage pipeline",
            chip.name,
            stages.len()
        )));
    }
    let sim = Simulator::new(chip.clone());
    let mut stage_seconds = Vec::with_capacity(stages.len());
    let mut cmem_bytes = 0u64;
    let mut weight_bytes = 0u64;
    for graph in stages {
        let exe = compile(graph, chip, options)?;
        let report = sim.run(exe.plan())?;
        stage_seconds.push(report.seconds);
        cmem_bytes += exe.memory().cmem_used;
        weight_bytes += exe.weight_bytes();
    }
    // Each hop is one activation tensor over one ICI link.
    let hops = stages.len().saturating_sub(1);
    let mut hop_seconds = Vec::with_capacity(hops);
    for _ in 0..hops {
        let mut hop = StepPlan::new("ici-hop");
        hop.push(StepKind::Ici { bytes: hop_bytes }, &[]);
        let report = sim.run(&hop)?;
        hop_seconds.push(report.seconds);
    }
    let latency_s = stage_seconds.iter().sum::<f64>() + hop_seconds.iter().sum::<f64>();
    let bottleneck = stage_seconds
        .iter()
        .chain(hop_seconds.iter())
        .fold(0.0f64, |a, &b| a.max(b));
    Ok(PipelineReport {
        chips: stages.len(),
        stage_seconds,
        hop_seconds,
        latency_s,
        batches_per_sec: if bottleneck > 0.0 {
            1.0 / bottleneck
        } else {
            0.0
        },
        cmem_fraction: if weight_bytes == 0 {
            0.0
        } else {
            cmem_bytes as f64 / weight_bytes as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_arch::catalog;
    use tpu_numerics::DType;
    use tpu_workloads::zoo::{self, BERT1_CONFIG};

    fn bert1_pipeline(chips: u64) -> (Vec<Graph>, u64) {
        let batch = 8;
        let stages =
            zoo::bert_pipeline(&BERT1_CONFIG, batch, DType::Bf16, chips).expect("stages build");
        let hop = zoo::bert_stage_activation_bytes(&BERT1_CONFIG, batch, DType::Bf16);
        (stages, hop)
    }

    #[test]
    fn single_stage_matches_monolithic_model() {
        let chip = catalog::tpu_v4i();
        let (stages, hop) = bert1_pipeline(1);
        let report = simulate_pipeline(&stages, &chip, &CompilerOptions::default(), hop).unwrap();
        assert_eq!(report.chips, 1);
        assert!(report.hop_seconds.is_empty());
        // One-stage latency ≈ the monolithic BERT1 latency.
        let mono = crate::run_app(&zoo::bert1(), &chip, 8, &CompilerOptions::default())
            .unwrap()
            .report
            .seconds;
        let rel = (report.latency_s - mono).abs() / mono;
        assert!(
            rel < 0.05,
            "pipeline-of-1 {} vs mono {mono}",
            report.latency_s
        );
    }

    #[test]
    fn pipelining_raises_throughput_and_efficiency_is_sane() {
        let chip = catalog::tpu_v4i();
        let (one, hop) = bert1_pipeline(1);
        let single = simulate_pipeline(&one, &chip, &CompilerOptions::default(), hop).unwrap();
        let mut last_tp = single.batches_per_sec;
        for chips in [2u64, 4] {
            let (stages, hop) = bert1_pipeline(chips);
            let r = simulate_pipeline(&stages, &chip, &CompilerOptions::default(), hop).unwrap();
            assert_eq!(r.chips, chips as usize);
            assert!(
                r.batches_per_sec > last_tp,
                "{chips} chips: {} <= {last_tp}",
                r.batches_per_sec
            );
            let eff = r.scaling_efficiency(&single);
            assert!(
                eff > 0.5 && eff < 1.6,
                "{chips}-chip efficiency {eff} out of range"
            );
            last_tp = r.batches_per_sec;
        }
    }

    #[test]
    fn pipelining_unlocks_cmem_residency_for_big_models() {
        // BERT1's 666 MiB of bf16 weights overflow one 128 MiB CMEM but
        // come much closer across 4 chips — the super-linear mechanism.
        let chip = catalog::tpu_v4i();
        let (one, hop) = bert1_pipeline(1);
        let (four, hop4) = bert1_pipeline(4);
        let single = simulate_pipeline(&one, &chip, &CompilerOptions::default(), hop).unwrap();
        let pod = simulate_pipeline(&four, &chip, &CompilerOptions::default(), hop4).unwrap();
        assert!(pod.cmem_fraction > 2.0 * single.cmem_fraction);
    }

    #[test]
    fn no_ici_means_no_pipeline() {
        let chip = catalog::tpu_v1(); // zero ICI links
        let (stages, hop) = bert1_pipeline(2);
        let err = simulate_pipeline(&stages, &chip, &CompilerOptions::default(), hop);
        assert!(matches!(err, Err(CoreError::Sim(_))));
        // But a single stage is fine on any chip that fits it.
        let (one, hop1) = bert1_pipeline(1);
        assert!(
            simulate_pipeline(&one, &catalog::tpu_v3(), &CompilerOptions::default(), hop1).is_ok()
        );
    }

    #[test]
    fn empty_pipeline_is_rejected() {
        let chip = catalog::tpu_v4i();
        assert!(matches!(
            simulate_pipeline(&[], &chip, &CompilerOptions::default(), 0),
            Err(CoreError::Compile(_))
        ));
    }
}

/// The result of data-parallel serving over a pod (batch sharded across
/// chips, shard outputs gathered to a root over ICI).
#[derive(Debug, Clone, PartialEq)]
pub struct DataParallelReport {
    /// Chips in the pod.
    pub chips: u64,
    /// The pod topology used.
    pub topology: tpu_arch::IciTopology,
    /// Per-shard compute latency, seconds.
    pub shard_seconds: f64,
    /// Output-gather time over ICI, seconds.
    pub gather_seconds: f64,
    /// End-to-end latency of one full batch, seconds.
    pub latency_s: f64,
    /// Full batches per second (compute and gather pipelined).
    pub batches_per_sec: f64,
}

impl DataParallelReport {
    /// Latency speedup over a single chip running the whole batch.
    pub fn speedup_over(&self, single_latency_s: f64) -> f64 {
        if self.latency_s <= 0.0 {
            0.0
        } else {
            single_latency_s / self.latency_s
        }
    }
}

/// Simulates data-parallel inference: the batch splits evenly across
/// `chips`, every chip runs the full model on its shard, and shard
/// outputs gather to a root chip over the recommended ICI topology.
///
/// Complements [`simulate_pipeline`]: data parallelism cuts *latency*
/// (each chip sees a smaller batch) but replicates weights, while
/// pipelining cuts *weights per chip* at constant latency.
///
/// # Errors
///
/// Propagates compile/simulate failures; multi-chip pods need ICI.
pub fn simulate_data_parallel(
    app: &tpu_workloads::App,
    chip: &ChipConfig,
    options: &CompilerOptions,
    chips: u64,
    batch: u64,
) -> Result<DataParallelReport, CoreError> {
    let chips = chips.max(1);
    if chips > 1 && chip.ici_links == 0 {
        return Err(CoreError::Sim(format!(
            "{} has no ICI links for a {chips}-chip pod",
            chip.name
        )));
    }
    let shard_batch = batch.div_ceil(chips).max(1);
    let graph = app
        .build(shard_batch)
        .map_err(|e| CoreError::Compile(e.to_string()))?;
    let exe = compile(&graph, chip, options)?;
    let sim = Simulator::new(chip.clone());
    let shard_seconds = sim.run(exe.plan())?.seconds;

    // Gather: every non-root shard's outputs cross ICI to the root.
    let shard_output_bytes: u64 = graph
        .outputs()
        .iter()
        .map(|&o| graph.node(o).shape.bytes(graph.dtype()))
        .sum();
    let topology = tpu_arch::IciTopology::recommended(chips as u32);
    let gather_seconds = if chips == 1 {
        0.0
    } else {
        let mut gather = StepPlan::new("gather");
        for _ in 1..chips {
            gather.push(
                StepKind::Ici {
                    bytes: shard_output_bytes,
                },
                &[],
            );
        }
        // Serialize on the root's ingress links; add per-hop latency for
        // the farthest shard.
        let transfers = sim.run(&gather)?.seconds;
        transfers + topology.diameter() as f64 * 1e-6
    };

    let latency_s = shard_seconds + gather_seconds;
    let bottleneck = shard_seconds.max(gather_seconds);
    Ok(DataParallelReport {
        chips,
        topology,
        shard_seconds,
        gather_seconds,
        latency_s,
        batches_per_sec: if bottleneck > 0.0 {
            1.0 / bottleneck
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod data_parallel_tests {
    use super::*;
    use tpu_arch::catalog;
    use tpu_workloads::zoo;

    #[test]
    fn sharding_cuts_latency_for_compute_bound_models() {
        let chip = catalog::tpu_v4i();
        let options = CompilerOptions::default();
        let app = zoo::cnn0();
        let single = simulate_data_parallel(&app, &chip, &options, 1, 128).unwrap();
        let pod = simulate_data_parallel(&app, &chip, &options, 4, 128).unwrap();
        assert_eq!(pod.topology, tpu_arch::IciTopology::Ring(4));
        let speedup = pod.speedup_over(single.latency_s);
        assert!(
            speedup > 2.0 && speedup < 4.5,
            "4-way data parallel speedup {speedup}"
        );
        assert!(pod.gather_seconds < pod.shard_seconds);
    }

    #[test]
    fn single_chip_pod_has_no_gather() {
        let chip = catalog::tpu_v4i();
        let r = simulate_data_parallel(&zoo::mlp0(), &chip, &CompilerOptions::default(), 1, 32)
            .unwrap();
        assert_eq!(r.gather_seconds, 0.0);
        assert_eq!(r.topology, tpu_arch::IciTopology::Single);
    }

    #[test]
    fn pods_need_ici() {
        let err = simulate_data_parallel(
            &zoo::mlp0(),
            &catalog::tpu_v1(),
            &CompilerOptions::default(),
            4,
            32,
        );
        assert!(matches!(err, Err(CoreError::Sim(_))));
    }

    #[test]
    fn data_parallel_vs_pipeline_tradeoff() {
        // Pipelining BERT1 keeps latency ~flat but scales throughput;
        // data parallelism cuts latency. Both should beat single-chip
        // throughput.
        let chip = catalog::tpu_v4i();
        let options = CompilerOptions::default();
        let dp = simulate_data_parallel(&zoo::bert1(), &chip, &options, 4, 8).unwrap();
        let single = simulate_data_parallel(&zoo::bert1(), &chip, &options, 1, 8).unwrap();
        assert!(dp.latency_s < single.latency_s);
    }
}
