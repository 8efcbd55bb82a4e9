//! The eight production inference apps and their serving metadata.

use std::fmt;

use tpu_hlo::{Graph, ShapeError};
use tpu_numerics::activation::Activation;
use tpu_numerics::DType;

/// Model family of a production app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppClass {
    /// Multi-layer perceptron (ranking, recommendation).
    Mlp,
    /// Convolutional network (vision, game playing).
    Cnn,
    /// Recurrent network (translation, speech).
    Rnn,
    /// Transformer encoder (language understanding).
    Bert,
}

impl fmt::Display for AppClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AppClass::Mlp => "MLP",
            AppClass::Cnn => "CNN",
            AppClass::Rnn => "RNN",
            AppClass::Bert => "BERT",
        };
        f.write_str(s)
    }
}

/// Serving metadata of one production app (the paper's app-table row).
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Short name, e.g. `"MLP0"`.
    pub name: &'static str,
    /// Model family.
    pub class: AppClass,
    /// The p99 latency SLO the app serves under, milliseconds
    /// (Lesson 10: apps limit latency, not batch size).
    pub slo_p99_ms: f64,
    /// Dominant nonlinearity.
    pub nonlinearity: &'static str,
    /// Whether production quality survives int8 quantization (Lesson 6:
    /// some inference apps require floating point).
    pub int8_servable: bool,
    /// Approximate share of fleet inference load (the mix table).
    pub fleet_share: f64,
    /// Year the app class entered production (Lesson 9: workloads
    /// evolve — BERT did not exist when TPUv1/v2 were designed).
    pub since_year: u32,
    /// One-line description of the stand-in.
    pub description: &'static str,
}

/// One app: metadata plus a graph builder parameterized by batch size.
#[derive(Clone)]
pub struct App {
    /// Serving metadata.
    pub spec: AppSpec,
    builder: fn(u64, DType) -> Result<Graph, ShapeError>,
}

impl fmt::Debug for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("App").field("spec", &self.spec).finish()
    }
}

impl App {
    /// Builds the app's HLO graph at a batch size, in bf16.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (none for positive batch sizes).
    pub fn build(&self, batch: u64) -> Result<Graph, ShapeError> {
        (self.builder)(batch.max(1), DType::Bf16)
    }

    /// Builds the graph at a batch size and precision (int8 for E9).
    ///
    /// # Errors
    ///
    /// Propagates shape errors (none for positive batch sizes).
    pub fn build_with(&self, batch: u64, dtype: DType) -> Result<Graph, ShapeError> {
        (self.builder)(batch.max(1), dtype)
    }
}

/// MLP0: a large ranking MLP (RankBrain-class stand-in).
pub fn mlp0() -> App {
    App {
        spec: AppSpec {
            name: "MLP0",
            class: AppClass::Mlp,
            slo_p99_ms: 7.0,
            nonlinearity: "relu",
            int8_servable: true,
            fleet_share: 0.18,
            since_year: 2014,
            description: "5-layer 2048-wide ranking MLP, ~17M params",
        },
        builder: |b, dt| {
            let mut g = Graph::new("MLP0", dt);
            let mut x = g.parameter(&[b, 2048])?;
            for _ in 0..4 {
                let w = g.constant(&[2048, 2048])?;
                x = g.dot(x, w)?;
                x = g.relu(x)?;
            }
            let w_out = g.constant(&[2048, 256])?;
            let y = g.dot(x, w_out)?;
            g.mark_output(y);
            Ok(g)
        },
    }
}

/// MLP1: a smaller recommendation MLP with an embedding front end.
pub fn mlp1() -> App {
    App {
        spec: AppSpec {
            name: "MLP1",
            class: AppClass::Mlp,
            slo_p99_ms: 20.0,
            nonlinearity: "relu",
            int8_servable: true,
            fleet_share: 0.07,
            since_year: 2015,
            description: "embedding + 3-layer 1024-wide MLP, ~14M params",
        },
        builder: |b, dt| {
            let mut g = Graph::new("MLP1", dt);
            let table = g.constant(&[100_000, 64])?; // sparse features
            let e = g.embedding(table, b, 16)?;
            let mut x = g.reshape(e, &[b, 16 * 64])?;
            let w_in = g.constant(&[16 * 64, 1024])?;
            x = g.dot(x, w_in)?;
            x = g.relu(x)?;
            for _ in 0..3 {
                let w = g.constant(&[1024, 1024])?;
                x = g.dot(x, w)?;
                x = g.relu(x)?;
            }
            let w_out = g.constant(&[1024, 128])?;
            let y = g.dot(x, w_out)?;
            g.mark_output(y);
            Ok(g)
        },
    }
}

/// CNN0: a deep board-game-style residual CNN (AlphaZero-class
/// stand-in) — the compute-bound, high-intensity app.
pub fn cnn0() -> App {
    App {
        spec: AppSpec {
            name: "CNN0",
            class: AppClass::Cnn,
            slo_p99_ms: 10.0,
            nonlinearity: "relu",
            int8_servable: true,
            fleet_share: 0.04,
            since_year: 2016,
            description: "10x (3x3, 128ch) residual tower on 19x19, ~2.5M params",
        },
        builder: |b, dt| {
            let mut g = Graph::new("CNN0", dt);
            let mut x = g.parameter(&[b, 19, 19, 128])?;
            for _ in 0..10 {
                let k = g.constant(&[3, 3, 128, 128])?;
                let c = g.conv2d(x, k, 1)?;
                x = g.relu(c)?;
            }
            let head = g.constant(&[1, 1, 128, 8])?;
            let h = g.conv2d(x, head, 1)?;
            let h = g.relu(h)?;
            let flat = g.reshape(h, &[b, 19 * 19 * 8])?;
            let w_fc = g.constant(&[19 * 19 * 8, 362])?;
            let y = g.dot(flat, w_fc)?;
            g.mark_output(y);
            Ok(g)
        },
    }
}

/// CNN1: an image-classification CNN (reduced-ResNet stand-in).
pub fn cnn1() -> App {
    App {
        spec: AppSpec {
            name: "CNN1",
            class: AppClass::Cnn,
            slo_p99_ms: 32.0,
            nonlinearity: "relu",
            int8_servable: true,
            fleet_share: 0.06,
            since_year: 2015,
            description: "5-stage strided 3x3 CNN, 64->512ch, ~3.3M params",
        },
        builder: |b, dt| {
            let mut g = Graph::new("CNN1", dt);
            let mut x = g.parameter(&[b, 56, 56, 64])?;
            let stages: [(u64, u64, u64); 5] = [
                (64, 128, 2),
                (128, 128, 1),
                (128, 256, 2),
                (256, 256, 1),
                (256, 512, 2),
            ];
            for (cin, cout, stride) in stages {
                let k = g.constant(&[3, 3, cin, cout])?;
                let c = g.conv2d(x, k, stride)?;
                x = g.relu(c)?;
            }
            let p = g.max_pool2d(x, 7)?; // -> [b, 1, 1, 512]
            let flat = g.reshape(p, &[b, 512])?;
            let w_fc = g.constant(&[512, 1000])?;
            let y = g.dot(flat, w_fc)?;
            g.mark_output(y);
            Ok(g)
        },
    }
}

/// Builds an unrolled LSTM graph.
fn lstm(
    name: &'static str,
    dt: DType,
    batch: u64,
    input: u64,
    hidden: u64,
    layers: u64,
    seq: u64,
) -> Result<Graph, ShapeError> {
    let mut g = Graph::new(name, dt);
    // Per-layer weights, shared across time steps.
    let mut w_x = Vec::new();
    let mut w_h = Vec::new();
    for l in 0..layers {
        let in_dim = if l == 0 { input } else { hidden };
        w_x.push(g.constant(&[in_dim, 4 * hidden])?);
        w_h.push(g.constant(&[hidden, 4 * hidden])?);
    }
    // Initial hidden states come in as parameters.
    let mut h: Vec<_> = (0..layers)
        .map(|_| g.parameter(&[batch, hidden]))
        .collect::<Result<_, _>>()?;
    let mut last = None;
    for _t in 0..seq {
        let mut x = g.parameter(&[batch, input])?;
        for l in 0..layers as usize {
            let xw = g.dot(x, w_x[l])?;
            let hu = g.dot(h[l], w_h[l])?;
            let s = g.add(xw, hu)?;
            let gates = g.activate(s, Activation::Sigmoid)?;
            let h_new = g.gate_reduce(gates, 4)?;
            h[l] = h_new;
            x = h_new;
        }
        last = Some(x);
    }
    g.mark_output(last.expect("seq >= 1"));
    Ok(g)
}

/// RNN0: a large translation LSTM (GNMT-class stand-in) — the app whose
/// quality does *not* survive int8 (Lesson 6).
pub fn rnn0() -> App {
    App {
        spec: AppSpec {
            name: "RNN0",
            class: AppClass::Rnn,
            slo_p99_ms: 60.0,
            nonlinearity: "sigmoid/tanh",
            int8_servable: false,
            fleet_share: 0.24,
            since_year: 2015,
            description: "4-layer 1024-hidden LSTM unrolled 16 steps, ~33M params",
        },
        builder: |b, dt| lstm("RNN0", dt, b, 1024, 1024, 4, 16),
    }
}

/// RNN1: a smaller speech LSTM.
pub fn rnn1() -> App {
    App {
        spec: AppSpec {
            name: "RNN1",
            class: AppClass::Rnn,
            slo_p99_ms: 10.0,
            nonlinearity: "sigmoid/tanh",
            int8_servable: true,
            fleet_share: 0.12,
            since_year: 2016,
            description: "2-layer 512-hidden LSTM unrolled 32 steps, ~4M params",
        },
        builder: |b, dt| lstm("RNN1", dt, b, 512, 512, 2, 32),
    }
}

/// Hyperparameters of a BERT-style encoder (used by the single-chip
/// builders and the pipeline-parallel stage builders).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BertConfig {
    /// Encoder layers.
    pub layers: u64,
    /// Hidden width.
    pub hidden: u64,
    /// Attention heads.
    pub heads: u64,
    /// Feed-forward width.
    pub ff: u64,
    /// Sequence length.
    pub seq: u64,
    /// Vocabulary size (embedding table rows).
    pub vocab: u64,
}

/// BERT0's hyperparameters (base-size encoder).
pub const BERT0_CONFIG: BertConfig = BertConfig {
    layers: 12,
    hidden: 768,
    heads: 12,
    ff: 3072,
    seq: 128,
    vocab: 30_000,
};

/// BERT1's hyperparameters (large encoder).
pub const BERT1_CONFIG: BertConfig = BertConfig {
    layers: 24,
    hidden: 1024,
    heads: 16,
    ff: 4096,
    seq: 128,
    vocab: 30_000,
};

/// Builds one span of encoder layers as a standalone graph.
///
/// `with_embedding` prepends the token-embedding front end (stage 0 of
/// a pipeline); otherwise the stage takes a `[batch, seq, hidden]`
/// activation parameter (arriving over ICI from the previous stage).
fn bert_layer_span(
    name: &str,
    dt: DType,
    batch: u64,
    cfg: &BertConfig,
    span_layers: u64,
    with_embedding: bool,
) -> Result<Graph, ShapeError> {
    let mut g = Graph::new(name, dt);
    let (hidden, heads, ff, seq) = (cfg.hidden, cfg.heads, cfg.ff, cfg.seq);
    let d_head = hidden / heads;
    let mut x = if with_embedding {
        let table = g.constant(&[cfg.vocab, hidden])?;
        let e = g.embedding(table, batch, seq)?;
        g.reshape(e, &[batch, seq, hidden])?
    } else {
        g.parameter(&[batch, seq, hidden])?
    };
    for _ in 0..span_layers {
        let wq = g.constant(&[hidden, hidden])?;
        let wk = g.constant(&[hidden, hidden])?;
        let wv = g.constant(&[hidden, hidden])?;
        let q = g.dot(x, wq)?;
        let k = g.dot(x, wk)?;
        let v = g.dot(x, wv)?;
        let scores = g.batch_matmul(q, k, batch * heads, seq, d_head, seq)?;
        let probs = g.softmax(scores)?;
        let ctx = g.batch_matmul(probs, v, batch * heads, seq, seq, d_head)?;
        let ctx = g.reshape(ctx, &[batch, seq, hidden])?;
        let wo = g.constant(&[hidden, hidden])?;
        let proj = g.dot(ctx, wo)?;
        let res1 = g.add(proj, x)?;
        let ln1 = g.layer_norm(res1)?;
        let w1 = g.constant(&[hidden, ff])?;
        let a = g.dot(ln1, w1)?;
        let a = g.gelu(a)?;
        let w2 = g.constant(&[ff, hidden])?;
        let o = g.dot(a, w2)?;
        let res2 = g.add(o, ln1)?;
        x = g.layer_norm(res2)?;
    }
    g.mark_output(x);
    Ok(g)
}

/// Builds the whole encoder as one graph.
fn bert(name: &str, dt: DType, batch: u64, cfg: &BertConfig) -> Result<Graph, ShapeError> {
    bert_layer_span(name, dt, batch, cfg, cfg.layers, true)
}

/// Splits a BERT encoder into `stages` pipeline stages (one graph per
/// chip), balancing layers across stages; stage 0 carries the embedding
/// front end. Used by the multi-chip scale-out experiment (E15).
///
/// # Errors
///
/// Propagates shape errors (none for positive batch and stages).
pub fn bert_pipeline(
    cfg: &BertConfig,
    batch: u64,
    dt: DType,
    stages: u64,
) -> Result<Vec<Graph>, ShapeError> {
    let stages = stages.clamp(1, cfg.layers);
    let base = cfg.layers / stages;
    let extra = cfg.layers % stages;
    (0..stages)
        .map(|s| {
            let span = base + u64::from(s < extra);
            bert_layer_span(&format!("bert-stage{s}"), dt, batch, cfg, span, s == 0)
        })
        .collect()
}

/// Bytes crossing ICI between two pipeline stages: one `[batch, seq,
/// hidden]` activation tensor at the serving precision.
pub fn bert_stage_activation_bytes(cfg: &BertConfig, batch: u64, dt: DType) -> u64 {
    batch * cfg.seq * cfg.hidden * dt.size_bytes()
}

/// BERT0: a base-size transformer encoder (12 layers, 768 hidden).
pub fn bert0() -> App {
    App {
        spec: AppSpec {
            name: "BERT0",
            class: AppClass::Bert,
            slo_p99_ms: 10.0,
            nonlinearity: "gelu/softmax",
            int8_servable: false,
            fleet_share: 0.20,
            since_year: 2019,
            description: "12-layer 768-hidden encoder, seq 128, ~108M params",
        },
        builder: |b, dt| bert("BERT0", dt, b, &BERT0_CONFIG),
    }
}

/// BERT1: a large transformer encoder (24 layers, 1024 hidden).
pub fn bert1() -> App {
    App {
        spec: AppSpec {
            name: "BERT1",
            class: AppClass::Bert,
            slo_p99_ms: 20.0,
            nonlinearity: "gelu/softmax",
            int8_servable: false,
            fleet_share: 0.09,
            since_year: 2019,
            description: "24-layer 1024-hidden encoder, seq 128, ~330M params",
        },
        builder: |b, dt| bert("BERT1", dt, b, &BERT1_CONFIG),
    }
}

/// The eight production apps, in the paper's table order.
pub fn production_apps() -> Vec<App> {
    vec![
        mlp0(),
        mlp1(),
        cnn0(),
        cnn1(),
        rnn0(),
        rnn1(),
        bert0(),
        bert1(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_build_at_several_batches() {
        for app in production_apps() {
            for batch in [1, 4, 16] {
                let g = app.build(batch).unwrap();
                tpu_hlo::Verifier::new().verify_graph(&g).unwrap();
                assert!(g.flops() > 0, "{}", app.spec.name);
                assert!(g.weight_count() > 0, "{}", app.spec.name);
            }
        }
    }

    #[test]
    fn parameter_counts_match_descriptions() {
        let check = |app: App, lo: f64, hi: f64| {
            let m = app.build(1).unwrap().weight_count() as f64 / 1e6;
            assert!(
                (lo..hi).contains(&m),
                "{}: {m:.1}M params outside [{lo}, {hi}]",
                app.spec.name
            );
        };
        check(mlp0(), 15.0, 20.0);
        check(mlp1(), 10.0, 18.0);
        check(cnn0(), 1.5, 3.5);
        check(cnn1(), 2.0, 5.0);
        check(rnn0(), 30.0, 40.0);
        check(rnn1(), 3.0, 6.0);
        check(bert0(), 90.0, 130.0);
        check(bert1(), 280.0, 380.0);
    }

    #[test]
    fn fleet_shares_sum_to_one() {
        let total: f64 = production_apps().iter().map(|a| a.spec.fleet_share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn flops_scale_linearly_with_batch() {
        for app in production_apps() {
            let f1 = app.build(1).unwrap().flops() as f64;
            let f8 = app.build(8).unwrap().flops() as f64;
            let ratio = f8 / f1;
            assert!(
                (6.0..10.0).contains(&ratio),
                "{}: flops ratio {ratio:.2} not ~8",
                app.spec.name
            );
        }
    }

    #[test]
    fn cnn0_is_the_high_intensity_app() {
        // CNN0's intensity should dwarf the MLPs' (the roofline story).
        let cnn = cnn0().build(8).unwrap().intensity_estimate();
        let mlp = mlp0().build(8).unwrap().intensity_estimate();
        assert!(
            cnn > 10.0 * mlp,
            "cnn0 intensity {cnn:.1} should dwarf mlp0's {mlp:.1}"
        );
    }

    #[test]
    fn some_apps_require_floating_point() {
        let apps = production_apps();
        let fp_only: Vec<&str> = apps
            .iter()
            .filter(|a| !a.spec.int8_servable)
            .map(|a| a.spec.name)
            .collect();
        assert!(fp_only.contains(&"RNN0"));
        assert!(fp_only.contains(&"BERT0"));
        // And a substantial share of the fleet is FP-only (Lesson 6).
        let fp_share: f64 = apps
            .iter()
            .filter(|a| !a.spec.int8_servable)
            .map(|a| a.spec.fleet_share)
            .sum();
        assert!(fp_share > 0.25, "fp-only share {fp_share}");
    }

    #[test]
    fn int8_halves_weight_bytes() {
        let app = mlp0();
        let bf16 = app.build(1).unwrap().weight_bytes();
        let int8 = app.build_with(1, DType::Int8).unwrap().weight_bytes();
        assert_eq!(bf16, 2 * int8);
    }

    #[test]
    fn slos_are_single_digit_to_tens_of_ms() {
        for app in production_apps() {
            let slo = app.spec.slo_p99_ms;
            assert!((1.0..=100.0).contains(&slo), "{}", app.spec.name);
        }
    }

    #[test]
    fn bert_weights_exceed_v4i_cmem() {
        // The interesting CMEM case: BERT0 does not fully fit in 128 MiB.
        let bytes = bert0().build(1).unwrap().weight_bytes();
        assert!(bytes > 128 << 20, "{bytes}");
        // But MLP0 does.
        assert!(mlp0().build(1).unwrap().weight_bytes() < 128 << 20);
    }

    #[test]
    fn app_debug_shows_spec() {
        let s = format!("{:?}", mlp0());
        assert!(s.contains("MLP0"));
        assert_eq!(format!("{}", AppClass::Bert), "BERT");
    }
}
