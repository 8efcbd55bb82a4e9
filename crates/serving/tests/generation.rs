//! Property and trace tests for the autoregressive decode loop: per-token
//! conservation, KV-residency capacity, the continuous ≡ static
//! equivalence at single-token outputs, the derived-only telemetry
//! contract (recorded ≡ unrecorded, bit for bit), and a pin folding
//! every report bit and recorded event of a fixed battery into one
//! constant.

mod common;

use common::Fold;
use proptest::prelude::*;

use tpu_serving::des::{
    simulate_generation, simulate_generation_recorded, BatchingMode, GenConfig, GenReport,
};
use tpu_serving::genmodel::{GenerationModel, TokenDistribution};
use tpu_serving::latency::{GenLatencyModel, LatencyModel};
use tpu_telemetry::{span_balance, Recorder};

fn gen_latency() -> GenLatencyModel {
    GenLatencyModel {
        // ~1 ms + 9 us/token prefill (compute-bound).
        prefill: LatencyModel::from_points(vec![(1, 0.001), (1000, 0.01)]).unwrap(),
        // ~3 ms decode step, nearly flat in batch (weight-streaming).
        decode: LatencyModel::from_points(vec![(1, 0.003), (32, 0.004)]).unwrap(),
    }
}

/// A random-but-valid generation config. `kv_mult` scales the capacity
/// in units of the worst-case request footprint, so small values force
/// KV-deferral pressure while staying admissible.
#[allow(clippy::too_many_arguments)]
fn build_cfg(
    rate: f64,
    requests: usize,
    seed: u64,
    mode: BatchingMode,
    max_batch: u64,
    prompt_max: u64,
    output_mean: f64,
    output_max: u64,
    kv_mult: u64,
) -> GenConfig {
    let model = GenerationModel {
        prompt: TokenDistribution::Uniform {
            min: 1,
            max: prompt_max,
        },
        output: TokenDistribution::Geometric {
            mean: output_mean,
            max: output_max,
        },
        kv_bytes_per_token: 4096,
    };
    GenConfig {
        arrival_rate_rps: rate,
        requests,
        seed,
        mode,
        max_batch,
        kv_capacity_bytes: model.peak_request_kv_bytes() * kv_mult,
        ttft_slo_s: Some(0.25),
        model,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-token conservation, KV capacity, and report sanity hold for
    /// any valid configuration in either batching mode.
    #[test]
    fn decode_loop_invariants(
        rate in 5.0f64..400.0,
        requests in 100usize..400,
        seed in any::<u64>(),
        continuous in any::<bool>(),
        max_batch in 1u64..24,
        prompt_max in 8u64..512,
        output_mean in 1.0f64..48.0,
        output_max in 16u64..128,
        kv_mult in 1u64..6,
    ) {
        let mode = if continuous { BatchingMode::Continuous } else { BatchingMode::Static };
        let cfg = build_cfg(
            rate, requests, seed, mode, max_batch, prompt_max, output_mean, output_max, kv_mult,
        );
        let r = simulate_generation(&gen_latency(), &cfg).expect("generated config is valid");
        // The decode loop defers, never sheds: everything completes and
        // every token is accounted on both sides.
        prop_assert_eq!(r.completed, requests);
        prop_assert!(r.conservation_holds());
        prop_assert_eq!(r.metrics.decode_steps.get(), r.metrics.decode_batch.count());
        // KV residency never exceeds the configured capacity.
        prop_assert!(r.kv_peak_bytes <= cfg.kv_capacity_bytes);
        prop_assert!(r.kv_peak_bytes > 0);
        // The batch cap is respected at every observed step.
        prop_assert!(r.metrics.decode_batch.max() <= max_batch as f64 + 1e-9);
        // Percentile ordering and rate sanity.
        prop_assert!(r.p50_ttft_s <= r.p99_ttft_s + 1e-12);
        prop_assert!(r.p99_ttft_s <= r.ttft_stats.max_s + 1e-12);
        prop_assert!(r.goodput_rps <= r.throughput_rps + 1e-9);
        prop_assert!(r.tokens_per_s > 0.0);
        // TTFT can never beat one prefill + one decode step.
        let floor = gen_latency().prefill_s(1) + gen_latency().decode_step_s(1);
        prop_assert!(r.ttft_stats.p50_s >= floor - 1e-12);
    }

    /// With every output fixed at a single token, each batch member
    /// retires at its first step boundary, so static and continuous
    /// batching make identical decisions: the reports must be equal.
    #[test]
    fn continuous_equals_static_at_single_token_outputs(
        rate in 5.0f64..400.0,
        requests in 100usize..300,
        seed in any::<u64>(),
        max_batch in 1u64..24,
        prompt_max in 8u64..512,
    ) {
        let mut stat = build_cfg(
            rate, requests, seed, BatchingMode::Static, max_batch, prompt_max, 8.0, 64, 4,
        );
        stat.model.output = TokenDistribution::Fixed(1);
        stat.kv_capacity_bytes = stat.model.peak_request_kv_bytes() * 4;
        let mut cont = stat;
        cont.mode = BatchingMode::Continuous;
        let a = simulate_generation(&gen_latency(), &stat).expect("valid");
        let b = simulate_generation(&gen_latency(), &cont).expect("valid");
        prop_assert_eq!(a, b);
    }

    /// Recording telemetry never perturbs the simulation: the recorded
    /// report is bit-identical to the unrecorded one, and the event
    /// stream itself reconciles exactly with the metrics.
    #[test]
    fn recorded_run_is_bit_identical_and_reconciles(
        rate in 20.0f64..300.0,
        requests in 100usize..300,
        seed in any::<u64>(),
        continuous in any::<bool>(),
        kv_mult in 1u64..4,
    ) {
        let mode = if continuous { BatchingMode::Continuous } else { BatchingMode::Static };
        let cfg = build_cfg(rate, requests, seed, mode, 12, 256, 24.0, 96, kv_mult);
        let lat = gen_latency();
        let plain = simulate_generation(&lat, &cfg).expect("valid");
        let mut rec = Recorder::with_capacity(1 << 20);
        let recorded = simulate_generation_recorded(&lat, &cfg, &mut rec).expect("valid");
        prop_assert_eq!(&plain, &recorded);
        prop_assert_eq!(rec.dropped(), 0);
        // Instants reconcile with the metrics, one for one.
        prop_assert_eq!(rec.counter("arrive"), requests as u64);
        prop_assert_eq!(rec.counter("complete"), recorded.completed as u64);
        prop_assert_eq!(rec.counter("first_token"), recorded.completed as u64);
        prop_assert_eq!(rec.counter("kv_defer"), recorded.metrics.kv_deferrals.get());
        prop_assert_eq!(rec.counter("decode_step"), recorded.metrics.decode_steps.get());
        prop_assert_eq!(
            rec.counter("events_processed"),
            recorded.metrics.events_processed.get()
        );
        // Every KV residency span opened exactly once and closed.
        prop_assert_eq!(rec.counter("resident.begin"), requests as u64);
        prop_assert_eq!(rec.counter("resident.end"), requests as u64);
        let events: Vec<_> = rec.events().cloned().collect();
        let balanced = span_balance(&events).expect("resident spans balance");
        prop_assert_eq!(balanced, requests);
        // Timestamps are monotone non-decreasing.
        prop_assert!(events.windows(2).all(|w| w[0].t_s <= w[1].t_s));
    }
}

/// Under sustained overload with variable-length outputs, continuous
/// batching strictly dominates static on goodput and p99 TTFT (the
/// deterministic seed pins the comparison; E25 sweeps it with CIs).
#[test]
fn continuous_dominates_static_under_overload() {
    let lat = gen_latency();
    let stat = build_cfg(80.0, 500, 17, BatchingMode::Static, 12, 256, 24.0, 96, 4);
    let mut cont = stat;
    cont.mode = BatchingMode::Continuous;
    let a = simulate_generation(&lat, &stat).expect("valid");
    let b = simulate_generation(&lat, &cont).expect("valid");
    assert!(a.conservation_holds() && b.conservation_holds());
    assert!(
        b.goodput_rps > a.goodput_rps,
        "continuous {} vs static {}",
        b.goodput_rps,
        a.goodput_rps
    );
    assert!(
        b.p99_ttft_s < a.p99_ttft_s,
        "continuous {} vs static {}",
        b.p99_ttft_s,
        a.p99_ttft_s
    );
}

impl Fold {
    fn report(&mut self, r: &GenReport) {
        for s in [&r.ttft_stats, &r.tpot_stats, &r.e2e_stats] {
            self.stats(s);
        }
        for x in [
            r.p50_ttft_s,
            r.p99_ttft_s,
            r.p99_tpot_s,
            r.throughput_rps,
            r.goodput_rps,
            r.tokens_per_s,
            r.duration_s,
        ] {
            self.float(x);
        }
        let m = &r.metrics;
        for w in [
            r.arrivals as u64,
            r.completed as u64,
            r.output_tokens,
            r.prompt_tokens,
            r.kv_peak_bytes,
            r.seed,
            m.kv_peak_bytes,
        ] {
            self.word(w);
        }
        self.counters(m);
        self.metrics_tail(m);
    }
}

/// Pins the decode loop's observable behaviour: every report bit
/// (including the order-dependent `mean_s` sums) and every recorded
/// event and counter, over a battery covering both batching modes,
/// single-token, fixed, uniform and geometric outputs, batch caps 1 and
/// 24, KV capacity at 1x and 3x the worst-case footprint, arrivals fast
/// enough to queue, and an E25-shaped config. A pure speed change to
/// the engine must leave the constant unchanged.
#[test]
fn decode_loop_reports_and_streams_are_pinned() {
    let lat = gen_latency();
    let mut configs = Vec::new();
    for mode in [BatchingMode::Continuous, BatchingMode::Static] {
        for output in [
            TokenDistribution::Fixed(1),
            TokenDistribution::Fixed(5),
            TokenDistribution::Uniform { min: 1, max: 40 },
            TokenDistribution::Geometric {
                mean: 12.0,
                max: 64,
            },
        ] {
            for max_batch in [1, 24] {
                for kv_mult in [1, 3] {
                    for rate in [30.0, 600.0] {
                        let model = GenerationModel {
                            prompt: TokenDistribution::Uniform { min: 1, max: 200 },
                            output,
                            kv_bytes_per_token: 4096,
                        };
                        configs.push(GenConfig {
                            arrival_rate_rps: rate,
                            requests: 150,
                            seed: 1000 + configs.len() as u64,
                            mode,
                            max_batch,
                            kv_capacity_bytes: model.peak_request_kv_bytes() * kv_mult,
                            ttft_slo_s: Some(0.25),
                            model,
                        });
                    }
                }
            }
        }
        // E25's shape: batch cap 24, geometric outputs with mean 64
        // capped at 256, KV for a few worst-case requests, overloaded.
        let model = GenerationModel {
            prompt: TokenDistribution::Uniform { min: 64, max: 1024 },
            output: TokenDistribution::Geometric {
                mean: 64.0,
                max: 256,
            },
            kv_bytes_per_token: 512 * 1024,
        };
        configs.push(GenConfig {
            arrival_rate_rps: 150.0,
            requests: 400,
            seed: 25,
            mode,
            max_batch: 24,
            kv_capacity_bytes: model.peak_request_kv_bytes() * 12,
            ttft_slo_s: Some(0.25),
            model,
        });
    }
    let mut fold = Fold(0xcbf2_9ce4_8422_2325);
    let (mut queued, mut deferred, mut padded) = (false, false, false);
    for cfg in &configs {
        let plain = simulate_generation(&lat, cfg).expect("battery config is valid");
        let mut rec = Recorder::with_capacity(1 << 20);
        let recorded = simulate_generation_recorded(&lat, cfg, &mut rec).expect("valid");
        assert_eq!(plain, recorded);
        assert_eq!(rec.dropped(), 0);
        fold.report(&plain);
        fold.recording(&rec);
        let m = &plain.metrics;
        queued |= m.queue_wait_s.max() > 0.0;
        deferred |= m.kv_deferrals.get() > 0;
        padded |= m.decode_batch.sum() > m.tokens_generated.get() as f64;
    }
    // The battery reaches the paths it claims to pin.
    assert!(queued && deferred && padded, "{queued} {deferred} {padded}");
    assert_eq!(
        fold.0, 0xae5a_36ab_93a5_d3a5,
        "decode-loop pin moved: got {:#018x}",
        fold.0
    );
}
