//! Layer spans: the benchmark wraps every call it makes into a library
//! layer in a span, keeps the spans in memory, and at exit folds them
//! into per-layer self times and writes them as a Chrome trace.
//!
//! Tracing is off in timed runs: [`Tracer::span`] is then a single
//! branch around the call.

use std::time::Instant;

use tpu_telemetry::{chrome_trace_json, SpanPhase, TelemetryEvent, Track};

/// A layer of the stack, named after the module the wrapped call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    WorkloadsBuild,
    WorkloadsDeoptimize,
    HloCompile,
    HloCompileDirty,
    IsaRoundtrip,
    SimRun,
    ServingSlo,
    DesFleet,
    DesChaos,
    DesGen,
    FleetGlobal,
    ServingStats,
    TelemetryRecorded,
    /// The root span of every item: its self time is the benchmark's own
    /// work (config construction, invariant checks, fingerprints).
    BenchSelf,
}

impl Layer {
    pub const ALL: [Layer; 14] = [
        Layer::WorkloadsBuild,
        Layer::WorkloadsDeoptimize,
        Layer::HloCompile,
        Layer::HloCompileDirty,
        Layer::IsaRoundtrip,
        Layer::SimRun,
        Layer::ServingSlo,
        Layer::DesFleet,
        Layer::DesChaos,
        Layer::DesGen,
        Layer::FleetGlobal,
        Layer::ServingStats,
        Layer::TelemetryRecorded,
        Layer::BenchSelf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::WorkloadsBuild => "workloads.build",
            Layer::WorkloadsDeoptimize => "workloads.deoptimize",
            Layer::HloCompile => "hlo.compile",
            Layer::HloCompileDirty => "hlo.compile_dirty",
            Layer::IsaRoundtrip => "isa.roundtrip",
            Layer::SimRun => "sim.run",
            Layer::ServingSlo => "serving.slo",
            Layer::DesFleet => "serving.des.fleet",
            Layer::DesChaos => "serving.des.chaos",
            Layer::DesGen => "serving.des.gen",
            Layer::FleetGlobal => "serving.fleet.global",
            Layer::ServingStats => "serving.stats",
            Layer::TelemetryRecorded => "telemetry.recorded",
            Layer::BenchSelf => "bench.self",
        }
    }

    /// The work unit `<layer>.ns_per_unit` divides self time by, for
    /// layers that have one.
    pub fn unit(self) -> Option<&'static str> {
        match self {
            Layer::WorkloadsBuild
            | Layer::WorkloadsDeoptimize
            | Layer::HloCompile
            | Layer::HloCompileDirty => Some("node"),
            Layer::IsaRoundtrip => Some("bundle"),
            Layer::SimRun => Some("step"),
            Layer::DesFleet
            | Layer::DesChaos
            | Layer::DesGen
            | Layer::FleetGlobal
            | Layer::TelemetryRecorded => Some("event"),
            Layer::ServingStats => Some("sample"),
            Layer::ServingSlo | Layer::BenchSelf => None,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span. Times are host nanoseconds since the tracer's
/// origin; `item` is shared by every span of one item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub item: u64,
    /// False for [`Tracer::free`] spans, which add time but no call.
    pub call: bool,
}

/// Per-layer totals over every traced item.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub units: u64,
}

/// Records spans while enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    units: [u64; Layer::ALL.len()],
    item: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
            units: [0; Layer::ALL.len()],
            item: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer` (a child of the open span).
    #[inline]
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.begin(layer, true);
        let out = f();
        self.end(idx);
        out
    }

    /// Drops `value` inside a span of `layer`, the layer that built it,
    /// so freeing graphs and executables is billed to their producer
    /// rather than to `bench.self`. The span adds no call.
    #[inline]
    pub fn free<T>(&mut self, layer: Layer, value: T) {
        if !self.on {
            return drop(value);
        }
        let idx = self.begin(layer, false);
        drop(value);
        self.end(idx);
    }

    /// Runs one item under a root `bench.self` span with id `item`.
    pub fn item<T>(&mut self, item: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        self.item = item;
        let idx = self.begin(Layer::BenchSelf, true);
        let out = f(self);
        self.end(idx);
        out
    }

    /// Credits `n` work units to `layer` (only while tracing).
    #[inline]
    pub fn units(&mut self, layer: Layer, n: usize) {
        if self.on {
            self.units[layer.index()] += n as u64;
        }
    }

    fn begin(&mut self, layer: Layer, call: bool) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            item: self.item,
            call,
        });
        self.open.push(idx);
        idx
    }

    fn end(&mut self, idx: usize) {
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in stack order");
    }

    /// Calls, self time and work units per layer, indexed like
    /// [`Layer::ALL`].
    pub fn totals(&self) -> Vec<LayerTotals> {
        let mut out = vec![LayerTotals::default(); Layer::ALL.len()];
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let t = &mut out[span.layer.index()];
            t.calls += u64::from(span.call);
            t.busy_ns += self_ns;
        }
        for (t, &u) in out.iter_mut().zip(&self.units) {
            t.units = u;
        }
        out
    }

    /// Total duration of the root (item) spans, nanoseconds.
    pub fn item_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The first `max_spans` spans as a Chrome trace (async begin/end
    /// pairs on one `bench` track; `args.v` is the item id).
    pub fn chrome_json(&self, max_spans: usize) -> String {
        let track = Track {
            name: "bench",
            index: 0,
        };
        let mut events = Vec::with_capacity(2 * max_spans.min(self.spans.len()));
        for (i, s) in self.spans.iter().take(max_spans).enumerate() {
            for (phase, ns) in [(SpanPhase::Begin, s.start_ns), (SpanPhase::End, s.end_ns)] {
                events.push(TelemetryEvent {
                    t_s: ns as f64 * 1e-9,
                    track,
                    phase,
                    name: s.layer.name().into(),
                    id: i as u64 + 1,
                    arg: s.item as i64,
                });
            }
        }
        events.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        chrome_trace_json(&events)
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children are clipped to the parent and
/// overlapping children count once, so self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    let mut kids: Vec<(usize, u64, u64)> = spans
        .iter()
        .filter_map(|s| s.parent.map(|p| (p, s.start_ns, s.end_ns)))
        .collect();
    kids.sort_unstable();
    let mut i = 0;
    while i < kids.len() {
        let parent = kids[i].0;
        let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
        let mut covered = 0u64;
        let mut reach = lo;
        while i < kids.len() && kids[i].0 == parent {
            let start = kids[i].1.clamp(reach, hi);
            let end = kids[i].2.clamp(start, hi);
            covered += end - start;
            reach = end;
            i += 1;
        }
        out[parent] -= covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            item: 0,
            call: true,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(Layer::BenchSelf, 0, 100, None),
            span(Layer::HloCompile, 10, 40, Some(0)),
            span(Layer::SimRun, 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_never_goes_negative() {
        let spans = [
            span(Layer::BenchSelf, 0, 100, None),
            // Overlapping children, one spilling past the parent's end.
            span(Layer::DesFleet, 20, 60, Some(0)),
            span(Layer::ServingStats, 40, 150, Some(0)),
            // A grandchild covers its own parent entirely.
            span(Layer::SimRun, 20, 60, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 20, "parent keeps only [0, 20)");
        assert_eq!(st[1], 0, "fully covered child has zero self time");
        assert_eq!(st[2], 110);
        assert_eq!(st[3], 40);
        // A child wider than its parent clamps self time at zero.
        let wide = [
            span(Layer::BenchSelf, 10, 20, None),
            span(Layer::SimRun, 0, 30, Some(0)),
        ];
        assert_eq!(self_times(&wide)[0], 0);
    }

    #[test]
    fn tracer_nests_and_attributes_self_time() {
        let mut tr = Tracer::new(Instant::now());
        tr.set_enabled(true);
        let v = tr.item(7, |tr| {
            let a = tr.span(Layer::HloCompile, || 2);
            tr.units(Layer::HloCompile, 5);
            tr.free(Layer::HloCompile, vec![1u8; 64]);
            a + tr.span(Layer::SimRun, || 3)
        });
        assert_eq!(v, 5);
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.item == 7));
        let totals = tr.totals();
        let busy: u64 = totals.iter().map(|t| t.busy_ns).sum();
        assert_eq!(busy, tr.item_ns(), "self times partition item time");
        assert_eq!(totals[Layer::HloCompile.index()].units, 5);
        assert_eq!(
            totals[Layer::HloCompile.index()].calls,
            1,
            "free adds no call"
        );
        assert_eq!(totals[Layer::BenchSelf.index()].calls, 1);
        let json = tr.chrome_json(usize::MAX);
        assert_eq!(
            tpu_telemetry::validate_chrome_json(&json).map(|n| n > 0),
            Ok(true)
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(Instant::now());
        let v = tr.item(1, |tr| {
            tr.units(Layer::SimRun, 3);
            tr.span(Layer::SimRun, || 4)
        });
        assert_eq!(v, 4);
        assert!(tr.spans().is_empty());
        assert!(tr.totals().iter().all(|t| *t == LayerTotals::default()));
    }
}
