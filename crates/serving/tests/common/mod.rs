//! The FNV-1a fold behind the serving engines' pinned constants.

use tpu_serving::metrics::Histogram;
use tpu_serving::{LatencyStats, ServingMetrics};
use tpu_telemetry::{Recorder, SpanPhase};

/// FNV-1a over little-endian words: folds runs into one constant, so a
/// change to any report bit or recorded event changes the result.
pub struct Fold(pub u64);

impl Fold {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn histogram(&mut self, h: &Histogram) {
        self.word(h.count());
        self.float(h.sum());
        self.float(h.max());
        for (bound, count) in h.buckets() {
            self.float(bound);
            self.word(count);
        }
    }

    pub fn stats(&mut self, s: &LatencyStats) {
        self.word(s.n as u64);
        for x in [s.mean_s, s.p50_s, s.p95_s, s.p99_s, s.max_s] {
            self.float(x);
        }
    }

    /// Every `ServingMetrics` counter, in declaration order.
    pub fn counters(&mut self, m: &ServingMetrics) {
        for c in [
            m.arrivals,
            m.admitted,
            m.completed,
            m.completed_late,
            m.shed_queue_full,
            m.shed_deadline,
            m.shed_no_capacity,
            m.shed_permanent,
            m.retries,
            m.retries_exhausted,
            m.dropped_at_drain,
            m.failures_injected,
            m.failures_detected,
            m.failures_recovered,
            m.in_flight_failures,
            m.failed_permanent,
            m.failover_redistributed,
            m.events_processed,
            m.tokens_generated,
            m.tokens_prefilled,
            m.decode_steps,
            m.kv_deferrals,
        ] {
            self.word(c.get());
        }
    }

    /// The `ServingMetrics` histograms, then the per-server vectors.
    pub fn metrics_tail(&mut self, m: &ServingMetrics) {
        for h in [
            &m.batch_sizes,
            &m.decode_batch,
            &m.queue_wait_s,
            &m.time_to_detect_s,
            &m.time_to_recover_s,
        ] {
            self.histogram(h);
        }
        for v in [&m.per_server_busy_s, &m.per_server_down_s] {
            self.word(v.len() as u64);
            v.iter().for_each(|&x| self.float(x));
        }
        self.word(m.per_server_completed.len() as u64);
        m.per_server_completed.iter().for_each(|&c| self.word(c));
    }

    /// Every retained event (timestamp bits, track, phase, name, id,
    /// arg), then every counter.
    pub fn recording(&mut self, rec: &Recorder) {
        for e in rec.events() {
            self.float(e.t_s);
            self.text(e.track.name);
            self.word(u64::from(e.track.index));
            self.word(match e.phase {
                SpanPhase::Begin => 0,
                SpanPhase::End => 1,
                SpanPhase::Instant => 2,
            });
            self.text(&e.name);
            self.word(e.id);
            self.word(e.arg as u64);
        }
        for (name, &value) in rec.counters() {
            self.text(name);
            self.word(value);
        }
    }
}
