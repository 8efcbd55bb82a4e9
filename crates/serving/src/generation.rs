//! The autoregressive decode loop: one replica serving generation
//! requests with static or continuous batching, prefill at join, one
//! token per member per decode step, and KV-cache HBM reserved at
//! admission (deferred, never shed, on overflow).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tpu_telemetry::{EventSink, NullSink, Recorder, SpanPhase};

use crate::des::{poisson_arrivals, server_track, validate_requests, ConfigError, FLEET};
use crate::genmodel::GenerationModel;
use crate::latency::GenLatencyModel;
use crate::metrics::ServingMetrics;
use crate::stats::LatencyStats;

/// How the decode loop packs requests into the in-flight batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchingMode {
    /// A batch forms only when the engine is idle and then decodes until
    /// **every** member finishes: requests that finish early keep their
    /// slot and KV reservation until the whole batch retires. This is
    /// the padding waste continuous batching exists to eliminate.
    Static,
    /// Requests join and leave the in-flight batch at decode-step
    /// boundaries: a finished request frees its slot and KV immediately
    /// and a waiting request is admitted at the very next boundary.
    Continuous,
}

/// Configuration of one autoregressive serving run
/// (see [`simulate_generation`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// Mean request arrival rate (Poisson), requests/second.
    pub arrival_rate_rps: f64,
    /// Number of requests to simulate.
    pub requests: usize,
    /// RNG seed. Arrival times and token draws are pure functions of it
    /// (separate streams, so the request count never perturbs tokens).
    pub seed: u64,
    /// Static or continuous batching.
    pub mode: BatchingMode,
    /// Cap on the number of requests decoding concurrently.
    pub max_batch: u64,
    /// HBM bytes available for KV-cache on this replica — chip HBM
    /// minus the resident weights. Admission reserves a request's full
    /// worst-case footprint here; on overflow the request is
    /// **deferred**, never shed.
    pub kv_capacity_bytes: u64,
    /// TTFT SLO for goodput accounting, seconds. `None`: every
    /// completion counts as good.
    pub ttft_slo_s: Option<f64>,
    /// Request shape: token distributions and per-token KV bytes.
    pub model: GenerationModel,
}

impl GenConfig {
    /// Checks every knob.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for degenerate rates, counts (including more than
    /// [`MAX_REQUESTS`](crate::des::MAX_REQUESTS) requests), SLOs, or token distributions, and
    /// [`ConfigError::KvCapacityTooSmall`] when the capacity cannot hold
    /// even one worst-case request (the FIFO head could then be deferred
    /// forever).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.arrival_rate_rps.is_finite() || self.arrival_rate_rps <= 0.0 {
            return Err(ConfigError::NonPositiveArrivalRate(self.arrival_rate_rps));
        }
        validate_requests(self.requests)?;
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if let Some(s) = self.ttft_slo_s {
            if !s.is_finite() || s <= 0.0 {
                return Err(ConfigError::InvalidTtftSlo(s));
            }
        }
        self.model.validate()?;
        let need = self.model.peak_request_kv_bytes();
        if self.kv_capacity_bytes < need {
            return Err(ConfigError::KvCapacityTooSmall {
                need,
                capacity: self.kv_capacity_bytes,
            });
        }
        Ok(())
    }
}

/// The result of one generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenReport {
    /// Time-to-first-token over completed requests, seconds.
    pub ttft_stats: LatencyStats,
    /// p50 TTFT shorthand, seconds.
    pub p50_ttft_s: f64,
    /// p99 TTFT shorthand, seconds (the interactive SLO metric).
    pub p99_ttft_s: f64,
    /// Time-per-output-token, seconds: each completed request with at
    /// least two output tokens contributes its mean decode interval
    /// `(finish - first_token) / (output - 1)`.
    pub tpot_stats: LatencyStats,
    /// p99 TPOT shorthand, seconds.
    pub p99_tpot_s: f64,
    /// End-to-end (arrival to last token) latency, seconds.
    pub e2e_stats: LatencyStats,
    /// Completions per second of simulated time.
    pub throughput_rps: f64,
    /// Completions whose TTFT met the SLO, per second (equals
    /// `throughput_rps` when no SLO is set).
    pub goodput_rps: f64,
    /// Generated (decode) tokens per second.
    pub tokens_per_s: f64,
    /// Requests offered.
    pub arrivals: usize,
    /// Requests that finished their full decode. The decode loop defers
    /// admission under KV pressure instead of shedding, so this always
    /// equals `arrivals`.
    pub completed: usize,
    /// Σ sampled output tokens over completed requests.
    pub output_tokens: u64,
    /// Σ sampled prompt tokens over completed requests.
    pub prompt_tokens: u64,
    /// Peak KV-cache reservation over the run, bytes.
    pub kv_peak_bytes: u64,
    /// The RNG seed the run used.
    pub seed: u64,
    /// Simulated length of the run, seconds.
    pub duration_s: f64,
    /// Counters and histograms collected during the run.
    pub metrics: ServingMetrics,
}

impl GenReport {
    /// Per-token conservation: every offered request completed, every
    /// generated token is accounted against a completed request's
    /// sampled output length, and every prompt token was prefilled
    /// exactly once. The two sides come from independent accounting
    /// paths (step-time counters vs completion-time sums), so drift in
    /// either shows up here.
    pub fn conservation_holds(&self) -> bool {
        self.arrivals == self.completed
            && self.metrics.tokens_generated.get() == self.output_tokens
            && self.metrics.tokens_prefilled.get() == self.prompt_tokens
    }
}

/// Salt separating the token-draw stream from the arrival stream: both
/// derive from `cfg.seed`, but changing the arrival rate or request
/// count never perturbs the token draws and vice versa.
const GEN_TOKEN_SALT: u64 = 0xA076_1D64_78BD_642F;

/// The decode-loop state machine (one replica). Same telemetry contract
/// as the fleet engine in [`crate::des`]: every instrumentation site
/// records through [`EventSink::emit`] or sits behind `S::ENABLED`, so
/// the [`NullSink`] instantiation monomorphizes to the bare engine and
/// recorded runs return bit-identical reports.
///
/// Only two event sources exist — the next arrival and the end of the
/// in-flight decode step — so the event loop repeatedly takes the
/// earlier of the two (arrival first on ties, matching the
/// schedule-order discipline of the fleet engine and letting a request
/// that lands exactly on a boundary join it).
///
/// A step costs O(admits + retires), not O(batch). Every decoding
/// member emits exactly one token per step, so a request admitted into
/// step `k` with `o` output tokens emits its first token at the end of
/// step `k` and its last at the end of step `k + o - 1`. Admission is
/// strict FIFO over request indices, so the waiting queue is the index
/// range `next_admit..next_arrival`, the members a step admitted are
/// `step_first..next_admit`, and index order is admission order. A
/// min-heap of `(finish step, index)` over the members past their first
/// token yields, at each step end, exactly the members finishing then,
/// in admission order.
///
/// Most step ends are *quiet*: no member finishes, none takes its first
/// token, and nobody can join. Such an end only launches an identical
/// next step, so a run of them ends in one loop ([`GenEngine::quiet_run`])
/// that stops short of the next arrival and the next finish step.
struct GenEngine<'a, S: EventSink> {
    sink: S,
    lat: &'a GenLatencyModel,
    cfg: GenConfig,
    /// Pre-drawn Poisson arrival times.
    arrivals: Vec<f64>,
    /// Sampled token counts per request.
    prompt: Vec<u64>,
    output: Vec<u64>,
    /// Absolute first-token time (valid once the request's first step
    /// has ended).
    first_token: Vec<f64>,
    /// Precomputed full prompt+output KV footprint per request.
    kv_need: Vec<u64>,
    /// Decode-step latency per batch size (index = size), so the step
    /// launch does no interpolation.
    decode_cache: Vec<f64>,
    /// Requests `next_admit..next_arrival` have arrived and wait for a
    /// slot. Admission is strict FIFO: a KV-blocked head is never
    /// skipped, so a large request cannot starve behind a stream of
    /// small ones.
    next_admit: usize,
    next_arrival: usize,
    /// First request admitted into the in-flight step: the step's end
    /// stamps first tokens on `step_first..next_admit`.
    step_first: usize,
    /// Slots the batch occupies: the live members, plus under static
    /// batching the finished ones padding it until it retires.
    batch_len: u64,
    /// Members still decoding.
    live: u64,
    /// Static batching: the in-flight batch is `batch_first..next_admit`.
    batch_first: usize,
    /// `finish step << 32 | request` of every live member past its
    /// first token, a min-heap ordered as the pair `(finish step,
    /// request)`; at most `max_batch` entries.
    finishing: BinaryHeap<Reverse<u128>>,
    /// Members the ending step completed, in completion order. Under
    /// continuous batching their residency spans close after all of the
    /// step's token events, so they are kept until then.
    retired: Vec<u32>,
    /// Bytes currently reserved against `kv_capacity_bytes`.
    kv_reserved: u64,
    kv_peak: u64,
    /// End time of the in-flight decode step, if one is running.
    step_end: Option<f64>,
    /// Decode steps launched so far; the in-flight step's number.
    steps: u64,
    ttfts: Vec<f64>,
    tpots: Vec<f64>,
    e2e: Vec<f64>,
    completed: usize,
    good: usize,
    output_tokens: u64,
    prompt_tokens: u64,
    end_time: f64,
    metrics: ServingMetrics,
}

impl<'a, S: EventSink> GenEngine<'a, S> {
    fn new(lat: &'a GenLatencyModel, cfg: &GenConfig, sink: S) -> GenEngine<'a, S> {
        let n = cfg.requests;
        let mut token_rng = StdRng::seed_from_u64(cfg.seed ^ GEN_TOKEN_SALT);
        let (prompt_draw, output_draw) = (cfg.model.prompt.sampler(), cfg.model.output.sampler());
        let mut prompt = Vec::with_capacity(n);
        let mut output = Vec::with_capacity(n);
        let mut kv_need = Vec::with_capacity(n);
        for _ in 0..n {
            // Prompt, then output, per request: the stream
            // `GenerationModel::sample` draws.
            let p = prompt_draw.sample(&mut token_rng);
            let o = output_draw.sample(&mut token_rng);
            prompt.push(p);
            output.push(o);
            kv_need.push(cfg.model.request_kv_bytes(p, o));
        }
        // Decode latency is a pure function of batch size and the run
        // only probes 1..=max_batch, so interpolate once up front.
        let cache_top = cfg.max_batch.min(4096) as usize;
        let decode_cache = (0..=cache_top)
            .map(|b| lat.decode_step_s((b as u64).max(1)))
            .collect();
        GenEngine {
            sink,
            lat,
            cfg: *cfg,
            arrivals: poisson_arrivals(cfg.seed, n, cfg.arrival_rate_rps),
            prompt,
            output,
            first_token: vec![0.0; n],
            kv_need,
            decode_cache,
            next_admit: 0,
            next_arrival: 0,
            step_first: 0,
            batch_len: 0,
            live: 0,
            batch_first: 0,
            finishing: BinaryHeap::new(),
            retired: Vec::new(),
            kv_reserved: 0,
            kv_peak: 0,
            step_end: None,
            steps: 0,
            ttfts: Vec::with_capacity(n),
            tpots: Vec::with_capacity(n),
            e2e: Vec::with_capacity(n),
            completed: 0,
            good: 0,
            output_tokens: 0,
            prompt_tokens: 0,
            end_time: 0.0,
            metrics: ServingMetrics::new(1),
        }
    }

    fn touch(&mut self, now: f64) {
        if now > self.end_time {
            self.end_time = now;
        }
    }

    /// Admits waiting requests into the batch (continuous: at every
    /// boundary; static: only into an empty batch), then launches the
    /// next decode step if anything is in flight.
    ///
    /// Admission reserves the request's **full** prompt+output KV
    /// footprint — its residency at its final decode step — so a
    /// reservation that fits now is guaranteed to fit for the request's
    /// whole lifetime and mid-decode eviction never happens.
    fn schedule(&mut self, now: f64) {
        debug_assert!(self.step_end.is_none(), "step already in flight");
        self.step_first = self.next_admit;
        let may_admit = match self.cfg.mode {
            BatchingMode::Continuous => true,
            BatchingMode::Static => self.batch_len == 0,
        };
        let mut prefill = 0.0;
        if may_admit {
            while self.batch_len < self.cfg.max_batch && self.next_admit < self.next_arrival {
                let r = self.next_admit;
                let need = self.kv_need[r];
                // Compare against the headroom: `kv_reserved` never
                // exceeds the capacity, so this cannot wrap, while
                // `kv_reserved + need` can overflow near u64::MAX.
                if need > self.cfg.kv_capacity_bytes - self.kv_reserved {
                    // KV is the binding constraint: defer (FIFO order
                    // preserved, no skip-ahead) and account the stall.
                    self.metrics.kv_deferrals.inc();
                    self.sink.emit(
                        now,
                        FLEET,
                        SpanPhase::Instant,
                        "kv_defer",
                        r as u64,
                        need as i64,
                    );
                    break;
                }
                self.next_admit += 1;
                self.kv_reserved += need;
                self.batch_len += 1;
                self.live += 1;
                self.metrics.admitted.inc();
                self.metrics.tokens_prefilled.add(self.prompt[r]);
                self.metrics.queue_wait_s.observe(now - self.arrivals[r]);
                // Prefill is paid once, at join: the step that admits a
                // request carries its full prompt cost.
                prefill += self.lat.prefill_s(self.prompt[r]);
                // Residency span: admitted exactly once, so the request
                // index is a unique begin/end pairing id.
                self.sink.emit(
                    now,
                    server_track(0),
                    SpanPhase::Begin,
                    "resident",
                    r as u64,
                    self.prompt[r] as i64,
                );
            }
            if self.kv_reserved > self.kv_peak {
                self.kv_peak = self.kv_reserved;
            }
        }
        if self.batch_len == 0 {
            return; // Idle; the next arrival restarts the loop.
        }
        let b = self.batch_len;
        self.metrics.decode_batch.observe(b as f64);
        self.launch(now, b, prefill + self.decode_step(b));
    }

    /// Launches decode step number `steps + 1` at `now`: `b` slots for
    /// `step` seconds. The caller observes `b` into `decode_batch`;
    /// `decode_steps` is the final `steps`.
    #[inline(always)]
    fn launch(&mut self, now: f64, b: u64, step: f64) -> f64 {
        self.steps += 1;
        self.metrics.per_server_busy_s[0] += step;
        self.sink.emit(
            now,
            server_track(0),
            SpanPhase::Instant,
            "decode_step",
            self.steps,
            b as i64,
        );
        let end = now + step;
        self.step_end = Some(end);
        end
    }

    /// Whether the in-flight step's end is quiet: no member finishes at
    /// it, it stamps no first token, and nobody can join the next step
    /// (a static batch admits only once it retires, which needs a
    /// finish; a continuous one when it has a free slot and a waiter,
    /// whose admission or KV deferral is not quiet).
    #[inline(always)]
    fn quiet(&self) -> bool {
        let finishing_now = self
            .finishing
            .peek()
            .is_some_and(|&Reverse(key)| (key >> 32) as u64 == self.steps);
        !finishing_now
            && self.step_first == self.next_admit
            && match self.cfg.mode {
                BatchingMode::Static => true,
                BatchingMode::Continuous => {
                    self.batch_len == self.cfg.max_batch || self.next_admit == self.next_arrival
                }
            }
    }

    /// Ends the quiet in-flight step at `now` and every quiet step after
    /// it. A quiet end adds `live` tokens and launches an identical
    /// step: the same `b`, no prefill. The run leaves in flight the first
    /// step that ends at or after the next arrival (arrivals win ties, so
    /// the arrival is handled first) or at the next finish step, for
    /// [`GenEngine::step_done`] to end. Each ended step counts one event
    /// and one launch, and the launches add their durations to the step
    /// end and the busy time one at a time, in order, so every sum is
    /// bit-identical to ending the steps one by one.
    fn quiet_run(&mut self, now: f64) {
        let b = self.batch_len;
        let step = self.decode_step(b);
        let next_finish = self
            .finishing
            .peek()
            .map_or(u64::MAX, |&Reverse(key)| (key >> 32) as u64);
        // Arrivals are finite, so no step end reaches the sentinel.
        let next_arrival = self
            .arrivals
            .get(self.next_arrival)
            .copied()
            .unwrap_or(f64::INFINITY);
        let mut end = now;
        let mut k = 0;
        loop {
            k += 1;
            end = self.launch(end, b, step);
            debug_assert!(self.steps <= next_finish, "quiet run passed a finish step");
            if next_arrival <= end || self.steps == next_finish {
                break;
            }
        }
        // The run ended `k` steps: the one `run` counted, and `k - 1`
        // more.
        self.metrics.events_processed.add(k - 1);
        self.metrics.tokens_generated.add(k * self.live);
        self.metrics.decode_batch.observe_repeat(b as f64, k);
    }

    /// Decode latency for an in-range batch size from the precomputed
    /// table; out-of-range (max_batch beyond the cache cap) falls back
    /// to the model.
    #[inline(always)]
    fn decode_step(&self, b: u64) -> f64 {
        match self.decode_cache.get(b as usize) {
            Some(&s) => s,
            None => self.lat.decode_step_s(b.max(1)),
        }
    }

    /// Decode step number `self.steps` just ended: every live member
    /// emits a token, the members finishing now complete, finished
    /// members retire per the batching mode, and the next step (plus any
    /// admissions) launches. A quiet end hands over to
    /// [`GenEngine::quiet_run`].
    ///
    /// Events come in member admission order: the older members
    /// finishing now (popped by index), then each member this step
    /// admitted with its first token and, for one-token outputs, its
    /// completion.
    fn step_done(&mut self, now: f64) {
        if self.quiet() {
            self.quiet_run(now);
            return;
        }
        self.step_end = None;
        let step = self.steps;
        // Only the end-of-run value of this counter is observable, so
        // one add stands for every member's token.
        self.metrics.tokens_generated.add(self.live);
        while let Some(&Reverse(key)) = self.finishing.peek() {
            let finish = (key >> 32) as u64;
            debug_assert!(finish >= step, "member missed its finish step");
            if finish != step {
                break;
            }
            self.finishing.pop();
            self.complete(key as u32 as usize, now);
        }
        for r in self.step_first..self.next_admit {
            self.first_token[r] = now;
            self.sink
                .emit(now, FLEET, SpanPhase::Instant, "first_token", r as u64, 0);
            let output = self.output[r];
            if output == 1 {
                self.complete(r, now);
            } else {
                // Saturating: a finish step past u64::MAX is never
                // reached, so clamping it changes nothing.
                let finish = step.saturating_add(output - 1);
                self.finishing
                    .push(Reverse(u128::from(finish) << 32 | u128::from(r as u32)));
            }
        }
        match self.cfg.mode {
            BatchingMode::Continuous => {
                // Finished members retire at once.
                for k in 0..self.retired.len() {
                    self.release_kv(self.retired[k] as usize, now);
                }
                self.batch_len = self.live;
            }
            BatchingMode::Static => {
                // The batch retires only as a unit.
                if self.live == 0 {
                    for r in self.batch_first..self.next_admit {
                        self.release_kv(r, now);
                    }
                    self.batch_first = self.next_admit;
                    self.batch_len = 0;
                }
            }
        }
        self.retired.clear();
        self.schedule(now);
    }

    /// Completion accounting for one request at its final token.
    fn complete(&mut self, r: usize, now: f64) {
        self.live -= 1;
        self.retired.push(r as u32);
        let output = self.output[r];
        let ttft = self.first_token[r] - self.arrivals[r];
        self.ttfts.push(ttft);
        if output >= 2 {
            self.tpots
                .push((now - self.first_token[r]) / (output - 1) as f64);
        }
        self.e2e.push(now - self.arrivals[r]);
        self.completed += 1;
        self.metrics.completed.inc();
        self.metrics.per_server_completed[0] += 1;
        self.output_tokens += output;
        self.prompt_tokens += self.prompt[r];
        match self.cfg.ttft_slo_s {
            Some(slo) if ttft > slo => self.metrics.completed_late.inc(),
            _ => self.good += 1,
        }
        self.sink.emit(
            now,
            FLEET,
            SpanPhase::Instant,
            "complete",
            r as u64,
            output as i64,
        );
        self.touch(now);
    }

    /// Releases one retired member's KV reservation and closes its
    /// residency span.
    fn release_kv(&mut self, r: usize, now: f64) {
        let need = self.kv_need[r];
        debug_assert!(self.kv_reserved >= need, "KV release exceeds reservation");
        self.kv_reserved -= need;
        self.sink.emit(
            now,
            server_track(0),
            SpanPhase::End,
            "resident",
            r as u64,
            self.output[r] as i64,
        );
    }

    fn run(mut self) -> GenReport {
        let n = self.cfg.requests;
        loop {
            let next_arr = (self.next_arrival < n).then(|| self.arrivals[self.next_arrival]);
            let (now, is_arrival) = match (next_arr, self.step_end) {
                (None, None) => break,
                (Some(a), None) => (a, true),
                (None, Some(s)) => (s, false),
                (Some(a), Some(s)) => {
                    if a <= s {
                        (a, true)
                    } else {
                        (s, false)
                    }
                }
            };
            self.metrics.events_processed.inc();
            if is_arrival {
                let i = self.next_arrival;
                self.next_arrival += 1;
                self.arrive(i, now);
            } else {
                self.step_done(now);
            }
        }
        self.finish()
    }

    /// Arrival bookkeeping: the request joins the FIFO wait range, and
    /// an idle engine schedules at once.
    #[inline(always)]
    fn arrive(&mut self, i: usize, now: f64) {
        self.touch(now);
        self.metrics.arrivals.inc();
        self.sink.emit(
            now,
            FLEET,
            SpanPhase::Instant,
            "arrive",
            i as u64,
            self.prompt[i] as i64,
        );
        if self.step_end.is_none() {
            self.schedule(now);
        }
    }

    fn finish(self) -> GenReport {
        // Validation guarantees any single request fits an empty-batch
        // KV, arrivals are finite, and outputs are bounded — so the
        // loop drains completely.
        debug_assert_eq!(self.next_admit, self.cfg.requests, "decode loop drained");
        debug_assert_eq!(self.batch_len, 0, "decode loop drained");
        debug_assert!(self.finishing.is_empty(), "decode loop drained");
        debug_assert_eq!(self.kv_reserved, 0, "KV accounting drift");
        debug_assert_eq!(
            self.completed, self.cfg.requests,
            "per-request conservation"
        );
        let mut metrics = self.metrics;
        metrics.decode_steps.add(self.steps);
        metrics.kv_peak_bytes = self.kv_peak;
        let ttft_stats = LatencyStats::from_samples(&self.ttfts);
        let tpot_stats = LatencyStats::from_samples(&self.tpots);
        let e2e_stats = LatencyStats::from_samples(&self.e2e);
        let total = self.end_time.max(1e-12);
        GenReport {
            p50_ttft_s: ttft_stats.p50_s,
            p99_ttft_s: ttft_stats.p99_s,
            p99_tpot_s: tpot_stats.p99_s,
            ttft_stats,
            tpot_stats,
            e2e_stats,
            throughput_rps: self.completed as f64 / total,
            goodput_rps: self.good as f64 / total,
            tokens_per_s: metrics.tokens_generated.get() as f64 / total,
            arrivals: self.cfg.requests,
            completed: self.completed,
            output_tokens: self.output_tokens,
            prompt_tokens: self.prompt_tokens,
            kv_peak_bytes: self.kv_peak,
            seed: self.cfg.seed,
            duration_s: self.end_time,
            metrics,
        }
    }
}

/// Rejects prefill/decode curves that evaluate non-positive or
/// non-finite anywhere the run can probe them. Both curves are monotone
/// (construction repairs them), so checking the extremes suffices.
fn validate_gen_latency(lat: &GenLatencyModel, cfg: &GenConfig) -> Result<(), ConfigError> {
    let probes = [
        lat.prefill_s(1),
        lat.prefill_s(cfg.model.prompt.max_tokens()),
        lat.decode_step_s(1),
        lat.decode_step_s(cfg.max_batch),
    ];
    for t in probes {
        if !t.is_finite() || t <= 0.0 {
            return Err(ConfigError::NonPositiveGenLatency(t));
        }
    }
    Ok(())
}

/// Simulates autoregressive serving on one replica: Poisson arrivals,
/// per-request sampled prompt/output token counts, a prefill-at-join /
/// decode-step loop, and KV-cache HBM as a first-class constrained
/// resource (reserved at admission, deferred — never shed — on
/// overflow).
///
/// The run is a pure function of `(lat, cfg)` including the seed;
/// [`GenReport::conservation_holds`] cross-checks per-token accounting.
///
/// # Errors
///
/// [`ConfigError`] for degenerate configurations or latency curves.
pub fn simulate_generation(
    lat: &GenLatencyModel,
    cfg: &GenConfig,
) -> Result<GenReport, ConfigError> {
    cfg.validate()?;
    validate_gen_latency(lat, cfg)?;
    Ok(GenEngine::new(lat, cfg, NullSink).run())
}

/// Everything [`simulate_generation`] does, with the decode lifecycle
/// recorded into `recorder`: `arrive` / `first_token` / `complete` /
/// `kv_defer` instants on the fleet track, per-request `resident` KV
/// spans and `decode_step` instants on the replica track, and exact
/// per-event-name counters (including `events_processed`).
///
/// Telemetry is derived from, never an input to, simulation state: the
/// returned report is bit-identical to [`simulate_generation`] for the
/// same config.
///
/// # Errors
///
/// [`ConfigError`] for degenerate configurations or latency curves.
pub fn simulate_generation_recorded(
    lat: &GenLatencyModel,
    cfg: &GenConfig,
    recorder: &mut Recorder,
) -> Result<GenReport, ConfigError> {
    cfg.validate()?;
    validate_gen_latency(lat, cfg)?;
    let report = GenEngine::new(lat, cfg, &mut *recorder).run();
    recorder.add_counter("events_processed", report.metrics.events_processed.get());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genmodel::TokenDistribution;
    use crate::latency::LatencyModel;

    /// ~1 ms + 9 us/token prefill; ~3 ms decode step, nearly flat in
    /// batch (weight-streaming economics).
    fn gen_latency() -> GenLatencyModel {
        GenLatencyModel {
            prefill: LatencyModel::from_points(vec![(1, 0.001), (1000, 0.01)]).unwrap(),
            decode: LatencyModel::from_points(vec![(1, 0.003), (32, 0.004)]).unwrap(),
        }
    }

    /// Prefill and a batch-1 decode step both take 0.125 s, so event
    /// times are exact binary fractions.
    fn exact_latency() -> GenLatencyModel {
        GenLatencyModel {
            prefill: LatencyModel::from_points(vec![(1, 0.125), (1000, 0.25)]).unwrap(),
            decode: LatencyModel::from_points(vec![(1, 0.125), (32, 0.25)]).unwrap(),
        }
    }

    fn gen_cfg(rate: f64, mode: BatchingMode) -> GenConfig {
        GenConfig {
            arrival_rate_rps: rate,
            requests: 400,
            seed: 7,
            mode,
            max_batch: 8,
            kv_capacity_bytes: 10_000_000,
            ttft_slo_s: Some(0.2),
            model: GenerationModel {
                prompt: TokenDistribution::Fixed(100),
                output: TokenDistribution::Uniform { min: 1, max: 64 },
                kv_bytes_per_token: 1000,
            },
        }
    }

    /// `(step, decode batch)` of every recorded launch.
    fn launches(rec: &Recorder) -> Vec<(u64, i64)> {
        rec.events()
            .filter(|e| e.name == "decode_step")
            .map(|e| (e.id, e.arg))
            .collect()
    }

    #[test]
    fn gen_light_load_ttft_is_prefill_plus_one_step() {
        let lat = gen_latency();
        let mut cfg = gen_cfg(1.0, BatchingMode::Continuous);
        cfg.requests = 50;
        let r = simulate_generation(&lat, &cfg).unwrap();
        assert!(r.conservation_holds());
        // A request arriving to an idle engine sees its own prefill plus
        // one batch-1 decode step before its first token.
        let expected = lat.prefill_s(100) + lat.decode_step_s(1);
        assert!(
            (r.p50_ttft_s - expected).abs() < 1e-3,
            "p50 TTFT {} vs expected {expected}",
            r.p50_ttft_s
        );
        assert!(r.e2e_stats.p50_s > r.p50_ttft_s);
        assert!(r.tokens_per_s > 0.0);
        assert_eq!(r.kv_peak_bytes, r.metrics.kv_peak_bytes);
        assert!(r.kv_peak_bytes <= cfg.kv_capacity_bytes);
    }

    #[test]
    fn gen_deterministic_given_seed() {
        let lat = gen_latency();
        let cfg = gen_cfg(40.0, BatchingMode::Continuous);
        let a = simulate_generation(&lat, &cfg).unwrap();
        let b = simulate_generation(&lat, &cfg).unwrap();
        assert_eq!(a, b);
        let mut c2 = cfg;
        c2.seed = 8;
        let c = simulate_generation(&lat, &c2).unwrap();
        assert_ne!(a.ttft_stats.mean_s, c.ttft_stats.mean_s);
    }

    #[test]
    fn gen_continuous_equals_static_at_output_one() {
        // With every output exactly one token, each batch member
        // finishes at its first step boundary, so the batch always
        // drains completely and both modes make identical admission
        // decisions — the reports must match bit for bit.
        let lat = gen_latency();
        for rate in [5.0, 60.0, 300.0] {
            let mut stat = gen_cfg(rate, BatchingMode::Static);
            stat.model.output = TokenDistribution::Fixed(1);
            let mut cont = stat;
            cont.mode = BatchingMode::Continuous;
            let a = simulate_generation(&lat, &stat).unwrap();
            let b = simulate_generation(&lat, &cont).unwrap();
            assert_eq!(a.metrics, b.metrics, "rate {rate}");
            assert_eq!(a, b, "rate {rate}");
        }
    }

    #[test]
    fn gen_continuous_beats_static_under_overload() {
        // Variable output lengths make static batches pad: every member
        // waits for the slowest draw. Continuous refills those slots, so
        // under overload it finishes sooner and keeps TTFT bounded.
        let lat = gen_latency();
        let stat = simulate_generation(&lat, &gen_cfg(60.0, BatchingMode::Static)).unwrap();
        let cont = simulate_generation(&lat, &gen_cfg(60.0, BatchingMode::Continuous)).unwrap();
        assert!(stat.conservation_holds());
        assert!(cont.conservation_holds());
        assert!(
            cont.goodput_rps > stat.goodput_rps,
            "continuous goodput {} vs static {}",
            cont.goodput_rps,
            stat.goodput_rps
        );
        assert!(
            cont.p99_ttft_s < stat.p99_ttft_s,
            "continuous p99 TTFT {} vs static {}",
            cont.p99_ttft_s,
            stat.p99_ttft_s
        );
        assert!(cont.tokens_per_s > stat.tokens_per_s);
    }

    #[test]
    fn gen_kv_pressure_defers_not_sheds() {
        // Capacity for ~2 worst-case requests while max_batch allows 8:
        // KV is the binding constraint, and the engine must defer (never
        // drop) yet still complete everything.
        let lat = gen_latency();
        let mut cfg = gen_cfg(100.0, BatchingMode::Continuous);
        cfg.model.output = TokenDistribution::Fixed(10);
        cfg.kv_capacity_bytes = 250_000; // need = 110_000 per request
        let r = simulate_generation(&lat, &cfg).unwrap();
        assert!(r.conservation_holds());
        assert_eq!(r.completed, cfg.requests);
        assert!(r.metrics.kv_deferrals.get() > 0, "KV never bound");
        assert!(r.kv_peak_bytes <= cfg.kv_capacity_bytes);
        // At most two concurrent reservations fit.
        assert!(r.metrics.decode_batch.max() <= 2.0);
    }

    #[test]
    fn gen_kv_admission_near_u64_max_defers_without_overflow() {
        // One request's footprint is 5 * (u64::MAX / 5) = u64::MAX, the
        // whole capacity. Admission must compare against the remaining
        // headroom: `reserved + need` would overflow on the second
        // request (or, wrapping, admit it past capacity).
        let lat = gen_latency();
        let mut cfg = gen_cfg(1000.0, BatchingMode::Continuous);
        cfg.requests = 50;
        cfg.model.prompt = TokenDistribution::Fixed(1);
        cfg.model.output = TokenDistribution::Fixed(4);
        cfg.model.kv_bytes_per_token = u64::MAX / 5;
        cfg.kv_capacity_bytes = u64::MAX;
        let r = simulate_generation(&lat, &cfg).unwrap();
        assert!(r.conservation_holds());
        assert_eq!(r.completed, cfg.requests);
        assert!(r.kv_peak_bytes <= cfg.kv_capacity_bytes);
        assert!(r.metrics.kv_deferrals.get() > 0, "KV never bound");
        assert_eq!(r.metrics.decode_batch.max(), 1.0);
    }

    #[test]
    fn gen_arrival_on_a_step_boundary_joins_that_step() {
        // The decode loop's tie rule: an arrival landing exactly on a
        // step boundary is handled first, so it joins the step launched
        // at that boundary. Every time here is an exact binary
        // fraction, so the tie is bit-exact: request 0 arrives at 0.5,
        // its first step (prefill 0.125 + decode 0.125) ends at 0.75,
        // and request 1 arrives at 0.75.
        let lat = exact_latency();
        let mut cfg = gen_cfg(1.0, BatchingMode::Continuous);
        cfg.requests = 2;
        cfg.model.prompt = TokenDistribution::Fixed(1);
        cfg.model.output = TokenDistribution::Fixed(3);
        let mut rec = Recorder::new();
        let mut engine = GenEngine::new(&lat, &cfg, &mut rec);
        engine.arrivals = vec![0.5, 0.75];
        let r = engine.run();
        assert!(r.conservation_holds());
        // Neither request waited: request 1 joined step 2 at 0.75. Had
        // the step ended first, step 2 would have launched with request
        // 0 alone and request 1 would have waited for step 3.
        assert_eq!(r.metrics.queue_wait_s.max(), 0.0);
        assert_eq!(
            launches(&rec)[..2],
            [(1, 1), (2, 2)],
            "(step, decode batch)"
        );
    }

    #[test]
    fn gen_member_admitted_into_step_k_completes_at_step_k_plus_o_minus_1() {
        // Replays the step rule over a recorded stream: a member's
        // `resident` begin precedes the launch of the step it joins, and
        // its `complete` follows the end of its last step, before the
        // next launch.
        let lat = gen_latency();
        for mode in [BatchingMode::Continuous, BatchingMode::Static] {
            let mut cfg = gen_cfg(300.0, mode);
            cfg.requests = 200;
            let mut rec = Recorder::new();
            let r = simulate_generation_recorded(&lat, &cfg, &mut rec).unwrap();
            assert!(r.conservation_holds());
            assert!(r.metrics.decode_batch.max() > 1.0, "{mode:?}: no batching");
            let mut step = 0;
            let mut admitted_into = vec![0; cfg.requests];
            let mut checked = 0;
            for e in rec.events() {
                match (&*e.name, e.phase) {
                    ("decode_step", _) => step = e.id,
                    ("resident", SpanPhase::Begin) => admitted_into[e.id as usize] = step + 1,
                    ("complete", _) => {
                        let (k, o) = (admitted_into[e.id as usize], e.arg as u64);
                        assert_eq!(step, k + o - 1, "{mode:?}: request {}", e.id);
                        checked += 1;
                    }
                    _ => {}
                }
            }
            assert_eq!(checked, cfg.requests);
        }
    }

    #[test]
    fn gen_members_finishing_together_complete_in_admission_order() {
        // Request 0 (5 tokens) joins step 1 at 0.5. Request 1 (3 tokens)
        // arrives during step 2 and joins step 3. Both finish at the end
        // of step 5, and request 0 completes first although request 1
        // has the shorter output.
        let lat = exact_latency();
        let mut cfg = gen_cfg(1.0, BatchingMode::Continuous);
        cfg.requests = 2;
        cfg.model.prompt = TokenDistribution::Fixed(1);
        cfg.model.output = TokenDistribution::Fixed(5);
        let mut rec = Recorder::new();
        let mut engine = GenEngine::new(&lat, &cfg, &mut rec);
        engine.arrivals = vec![0.5, 0.8];
        engine.output[1] = 3;
        let r = engine.run();
        assert!(r.conservation_holds());
        let mut step = 0;
        let mut completes = Vec::new();
        for e in rec.events() {
            match &*e.name {
                "decode_step" => step = e.id,
                "complete" => completes.push((e.id, step, e.t_s)),
                _ => {}
            }
        }
        assert_eq!(completes.len(), 2);
        assert_eq!((completes[0].0, completes[0].1), (0, 5));
        assert_eq!((completes[1].0, completes[1].1), (1, 5));
        assert_eq!(completes[0].2, completes[1].2);
    }

    #[test]
    fn gen_static_batch_pads_decode_batch_but_counts_only_live_tokens() {
        // Request 0 (1 token) runs step 1 alone. Requests 1 (1 token)
        // and 2 (3 tokens) arrive meanwhile and join step 2 together.
        // Static batching keeps request 1 as padding through step 4;
        // continuous batching retires it after step 2. Both generate
        // the same five tokens.
        let lat = exact_latency();
        for (mode, batches) in [
            (BatchingMode::Static, [(1, 1), (2, 2), (3, 2), (4, 2)]),
            (BatchingMode::Continuous, [(1, 1), (2, 2), (3, 1), (4, 1)]),
        ] {
            let mut cfg = gen_cfg(1.0, mode);
            cfg.requests = 3;
            cfg.model.prompt = TokenDistribution::Fixed(1);
            cfg.model.output = TokenDistribution::Fixed(3);
            let mut rec = Recorder::new();
            let mut engine = GenEngine::new(&lat, &cfg, &mut rec);
            engine.arrivals = vec![0.5, 0.6, 0.7];
            engine.output[0] = 1;
            engine.output[1] = 1;
            let r = engine.run();
            assert!(r.conservation_holds());
            assert_eq!(launches(&rec), batches, "{mode:?}: (step, decode batch)");
            let padded: i64 = batches.iter().map(|&(_, b)| b).sum();
            assert_eq!(r.metrics.decode_batch.sum(), padded as f64, "{mode:?}");
            assert_eq!(r.metrics.tokens_generated.get(), 5, "{mode:?}");
        }
    }

    #[test]
    fn quiet_run_stops_for_an_arrival_on_its_last_step_end() {
        // Request 0 (8 tokens) joins step 1 at 0.5; steps then end at
        // 0.75, 0.875, 1.0, 1.125 and 1.25, exact binary fractions.
        // The ends of steps 2 to 4 are quiet, so one run ends them and
        // launches steps 3 to 5. Request 1 arrives exactly as step 5
        // ends: arrivals win ties, so the run leaves step 5 in flight
        // and request 1 joins step 6 without waiting.
        let lat = exact_latency();
        let mut cfg = gen_cfg(1.0, BatchingMode::Continuous);
        cfg.requests = 2;
        cfg.model.prompt = TokenDistribution::Fixed(1);
        cfg.model.output = TokenDistribution::Fixed(8);
        let mut rec = Recorder::new();
        let mut engine = GenEngine::new(&lat, &cfg, &mut rec);
        engine.arrivals = vec![0.5, 1.25];
        let r = engine.run();
        assert!(r.conservation_holds());
        assert_eq!(r.metrics.queue_wait_s.max(), 0.0);
        let steps = launches(&rec);
        assert_eq!(steps[4..6], [(5, 1), (6, 2)], "(step, decode batch)");
        // Request 1 finishes at step 6 + 8 - 1 = 13. Every step end is
        // an event, whether a run ended it or not.
        assert_eq!(steps.len(), 13);
        assert_eq!(r.metrics.decode_steps.get(), 13);
        assert_eq!(r.metrics.decode_batch.count(), 13);
        assert_eq!(r.metrics.events_processed.get(), 2 + 13);
    }

    #[test]
    fn members_finishing_right_after_a_run_complete_in_admission_order() {
        // Request 0 (12 tokens) joins step 1 and request 1 (10 tokens)
        // step 3, so both finish at step 12. The ends of steps 4 to 11
        // are quiet: one run launches steps 5 to 12 and stops there.
        // Step 12's end completes request 0, then request 1. Request 2
        // arrives much later.
        let lat = exact_latency();
        let mut cfg = gen_cfg(1.0, BatchingMode::Continuous);
        cfg.requests = 3;
        cfg.model.prompt = TokenDistribution::Fixed(1);
        cfg.model.output = TokenDistribution::Fixed(12);
        let mut rec = Recorder::new();
        let mut engine = GenEngine::new(&lat, &cfg, &mut rec);
        engine.arrivals = vec![0.5, 0.8, 100.0];
        engine.output[1] = 10;
        let r = engine.run();
        assert!(r.conservation_holds());
        let mut step = 0;
        let mut completes = Vec::new();
        for e in rec.events() {
            match &*e.name {
                "decode_step" => step = e.id,
                "complete" => completes.push((e.id, step, e.t_s)),
                _ => {}
            }
        }
        assert_eq!((completes[0].0, completes[0].1), (0, 12));
        assert_eq!((completes[1].0, completes[1].1), (1, 12));
        assert_eq!(completes[0].2, completes[1].2);
        assert_eq!(launches(&rec)[11..13], [(12, 2), (13, 1)]);
    }

    #[test]
    fn kv_blocked_head_defers_at_every_boundary_outside_runs() {
        // KV holds one request. Request 0 (8 tokens) joins step 1;
        // request 1 arrives during step 2 and its reservation does not
        // fit until request 0 finishes at step 8. Every boundary in
        // between defers it once and launches the next step, so none
        // of them is quiet. Request 1 then joins step 9 and finishes at
        // step 16 after a run.
        let lat = exact_latency();
        let mut cfg = gen_cfg(1.0, BatchingMode::Continuous);
        cfg.requests = 2;
        cfg.model.prompt = TokenDistribution::Fixed(1);
        cfg.model.output = TokenDistribution::Fixed(8);
        cfg.kv_capacity_bytes = 9_000;
        let mut rec = Recorder::new();
        let mut engine = GenEngine::new(&lat, &cfg, &mut rec);
        engine.arrivals = vec![0.5, 0.8];
        let r = engine.run();
        assert!(r.conservation_holds());
        assert_eq!(r.metrics.kv_deferrals.get(), 6);
        // Each deferral is recorded at the boundary whose launch follows.
        let events: Vec<_> = rec.events().collect();
        let deferred_before: Vec<u64> = events
            .windows(2)
            .filter(|w| w[0].name == "kv_defer" && w[1].name == "decode_step")
            .map(|w| {
                assert_eq!(w[0].t_s, w[1].t_s);
                w[1].id
            })
            .collect();
        assert_eq!(deferred_before, [3, 4, 5, 6, 7, 8]);
        assert_eq!(launches(&rec)[8], (9, 1));
        assert_eq!(r.metrics.decode_steps.get(), 16);
        assert_eq!(r.metrics.events_processed.get(), 2 + 16);
    }

    #[test]
    fn static_run_keeps_padding_and_sums_busy_time_step_by_step() {
        // Request 0 (1 token) runs step 1 alone. Requests 1 (2 tokens)
        // and 2 (6 tokens) join step 2 together; request 1 finishes at
        // step 3 and pads the batch until request 2 finishes at step 7.
        // Request 3 arrives during step 5, splitting the quiet ends of
        // steps 4 to 6 into two runs, and may join only once the batch
        // retires, at step 8.
        let lat = exact_latency();
        let mut cfg = gen_cfg(1.0, BatchingMode::Static);
        cfg.requests = 4;
        cfg.model.prompt = TokenDistribution::Fixed(1);
        cfg.model.output = TokenDistribution::Fixed(6);
        let mut rec = Recorder::new();
        let mut engine = GenEngine::new(&lat, &cfg, &mut rec);
        let (prefill, d1, d2) = (lat.prefill_s(1), lat.decode_step_s(1), lat.decode_step_s(2));
        let arrive_3 = 0.75 + (prefill + prefill + d2) + 2.5 * d2;
        engine.arrivals = vec![0.5, 0.6, 0.7, arrive_3];
        engine.output[0] = 1;
        engine.output[1] = 2;
        let r = engine.run();
        assert!(r.conservation_holds());
        let mut batches = vec![(1, 1)];
        batches.extend((2..=7).map(|s| (s, 2)));
        batches.extend((8..=13).map(|s| (s, 1)));
        assert_eq!(launches(&rec), batches, "(step, decode batch)");
        assert_eq!(r.metrics.tokens_generated.get(), 1 + 2 + 6 + 6);
        assert_eq!(r.metrics.decode_batch.count(), 13);
        assert_eq!(r.metrics.decode_batch.sum(), 1.0 + 6.0 * 2.0 + 6.0);
        assert_eq!(r.metrics.events_processed.get(), 4 + 13);
        // Busy time and the clock add one step at a time, in launch
        // order, exactly as step-by-step ends would.
        let mut durations = vec![0.0 + prefill + d1, 0.0 + prefill + prefill + d2];
        durations.extend([d2; 5]);
        durations.push(0.0 + prefill + d1);
        durations.extend([d1; 5]);
        let (mut busy, mut clock, mut ends) = (0.0, 0.5, Vec::new());
        for d in durations {
            busy += d;
            clock += d;
            ends.push(clock);
        }
        assert_eq!(r.metrics.per_server_busy_s[0].to_bits(), busy.to_bits());
        assert_eq!(r.duration_s.to_bits(), ends[12].to_bits());
        // Request 3 waited from its arrival to the end of step 7.
        let wait = ends[6] - arrive_3;
        assert!(ends[3] < arrive_3 && arrive_3 < ends[4]);
        assert_eq!(r.metrics.queue_wait_s.max().to_bits(), wait.to_bits());
    }

    #[test]
    fn gen_config_validation() {
        let lat = gen_latency();
        let ok = gen_cfg(40.0, BatchingMode::Continuous);
        assert!(simulate_generation(&lat, &ok).is_ok());

        let mut bad = ok;
        bad.arrival_rate_rps = 0.0;
        assert!(matches!(
            simulate_generation(&lat, &bad),
            Err(ConfigError::NonPositiveArrivalRate(_))
        ));
        let mut bad = ok;
        bad.requests = 0;
        assert_eq!(
            simulate_generation(&lat, &bad),
            Err(ConfigError::ZeroRequests)
        );
        // Request ids are `u32` in the decode loop too.
        let mut bad = ok;
        bad.requests = u32::MAX as usize;
        assert_eq!(
            simulate_generation(&lat, &bad),
            Err(ConfigError::TooManyRequests(u32::MAX as usize))
        );
        let mut bad = ok;
        bad.max_batch = 0;
        assert_eq!(
            simulate_generation(&lat, &bad),
            Err(ConfigError::ZeroMaxBatch)
        );
        let mut bad = ok;
        bad.ttft_slo_s = Some(-1.0);
        assert!(matches!(
            simulate_generation(&lat, &bad),
            Err(ConfigError::InvalidTtftSlo(_))
        ));
        let mut bad = ok;
        bad.model.kv_bytes_per_token = 0;
        assert_eq!(
            simulate_generation(&lat, &bad),
            Err(ConfigError::ZeroKvBytesPerToken)
        );
        // Worst-case request: (100 + 64) * 1000 = 164_000 bytes.
        let mut bad = ok;
        bad.kv_capacity_bytes = 163_999;
        assert_eq!(
            simulate_generation(&lat, &bad),
            Err(ConfigError::KvCapacityTooSmall {
                need: 164_000,
                capacity: 163_999
            })
        );
        // A zero-latency decode curve is rejected at the entry point.
        let degenerate = GenLatencyModel {
            prefill: gen_latency().prefill,
            decode: LatencyModel::from_points(vec![(1, 0.0)]).unwrap(),
        };
        assert!(matches!(
            simulate_generation(&degenerate, &ok),
            Err(ConfigError::NonPositiveGenLatency(_))
        ));
    }

    #[test]
    fn gen_config_error_displays() {
        for (err, needle) in [
            (ConfigError::ZeroTokens, "token counts"),
            (ConfigError::EmptyTokenRange { min: 9, max: 2 }, "[9, 2]"),
            (ConfigError::InvalidTokenMean(0.5), "token mean"),
            (ConfigError::ZeroKvBytesPerToken, "kv_bytes_per_token"),
            (
                ConfigError::KvCapacityTooSmall {
                    need: 10,
                    capacity: 5,
                },
                "worst-case request",
            ),
            (ConfigError::InvalidTtftSlo(-1.0), "ttft_slo_s"),
            (ConfigError::NonPositiveGenLatency(0.0), "prefill/decode"),
        ] {
            let msg = format!("{err}");
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }
}
