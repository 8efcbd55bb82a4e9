//! Execution traces: who ran what, where, when.
//!
//! [`crate::Simulator::run_traced`] records one [`TraceEntry`] per step
//! with the unit that executed it and its start/end times — enough to
//! audit the schedule (no unit ever runs two steps at once) and to render
//! a text Gantt chart of the pipeline, the tool used to eyeball why a
//! plan is memory- or compute-bound.

use std::fmt::Write as _;

use tpu_telemetry::{SpanPhase, TelemetryEvent, Track};

use crate::plan::StepId;
use crate::report::Resource;

/// One executed step.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// The step.
    pub step: StepId,
    /// Its tag (from the plan).
    pub tag: &'static str,
    /// Which resource class ran it.
    pub resource: Resource,
    /// Which unit of that class (0-based within the pool).
    pub unit: usize,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

/// A whole run's entries, in completion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// The entries.
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// Entries for one resource class, sorted by start time.
    pub fn for_resource(&self, resource: Resource) -> Vec<&TraceEntry> {
        let mut v: Vec<&TraceEntry> = self
            .entries
            .iter()
            .filter(|e| e.resource == resource)
            .collect();
        v.sort_by(|a, b| a.start.total_cmp(&b.start));
        v
    }

    /// Verifies that no unit ever overlaps two steps.
    ///
    /// Returns the first offending pair if the schedule is inconsistent
    /// (a simulator bug, surfaced for tests).
    pub fn find_overlap(&self) -> Option<(StepId, StepId)> {
        for resource in Resource::ALL {
            let entries = self.for_resource(resource);
            // Group by unit.
            let max_unit = entries.iter().map(|e| e.unit).max().unwrap_or(0);
            for unit in 0..=max_unit {
                let mut last_end = f64::NEG_INFINITY;
                let mut last_id = StepId(0);
                for e in entries.iter().filter(|e| e.unit == unit) {
                    if e.start < last_end - 1e-12 {
                        return Some((last_id, e.step));
                    }
                    last_end = e.end;
                    last_id = e.step;
                }
            }
        }
        None
    }

    /// The makespan covered by the trace.
    pub fn makespan(&self) -> f64 {
        self.entries.iter().map(|e| e.end).fold(0.0, f64::max)
    }

    /// Converts the trace to telemetry span events on the unified model:
    /// one `(resource, unit)` pair per [`Track`], one begin/end pair per
    /// entry (span id = entry order, so concurrent same-tag steps stay
    /// distinct), sorted by time with a stable tiebreak. The result
    /// feeds the same exporters as the serving fleet's recorder.
    pub fn to_events(&self) -> Vec<TelemetryEvent> {
        let mut events = Vec::with_capacity(self.entries.len() * 2);
        for (i, e) in self.entries.iter().enumerate() {
            let track = Track {
                name: e.resource.name(),
                index: e.unit as u32,
            };
            let name: std::borrow::Cow<'static, str> = if e.tag.is_empty() {
                format!("step{}", e.step.0).into()
            } else {
                e.tag.into()
            };
            let arg = e.step.0 as i64;
            events.push(TelemetryEvent {
                t_s: e.start,
                track,
                phase: SpanPhase::Begin,
                name: name.clone(),
                id: i as u64,
                arg,
            });
            events.push(TelemetryEvent {
                t_s: e.end,
                track,
                phase: SpanPhase::End,
                name,
                id: i as u64,
                arg,
            });
        }
        // Stable sort by time only: each entry pushed Begin-then-End, so
        // zero-duration spans keep their begin first at equal stamps.
        events.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        events
    }

    /// Chrome-trace (Perfetto) JSON for this trace, via the unified
    /// telemetry exporter.
    pub fn chrome_trace_json(&self) -> String {
        tpu_telemetry::chrome_trace_json(&self.to_events())
    }

    /// Plain-text timeline for this trace, via the unified telemetry
    /// renderer.
    pub fn render_text(&self) -> String {
        tpu_telemetry::render_text(&self.to_events())
    }

    /// Renders a text Gantt chart, `width` columns wide.
    ///
    /// One row per (resource, unit) that executed anything; `#` marks
    /// busy time.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.clamp(20, 400);
        let total = self.makespan();
        let mut out = String::new();
        if total <= 0.0 {
            out.push_str("(empty trace)\n");
            return out;
        }
        let _ = writeln!(out, "makespan {:.3} ms", total * 1e3);
        for resource in Resource::ALL {
            let entries = self.for_resource(resource);
            if entries.is_empty() {
                continue;
            }
            let max_unit = entries.iter().map(|e| e.unit).max().unwrap_or(0);
            for unit in 0..=max_unit {
                let mine: Vec<&&TraceEntry> = entries.iter().filter(|e| e.unit == unit).collect();
                if mine.is_empty() {
                    continue;
                }
                let mut row = vec![b'.'; width];
                for e in &mine {
                    let a = ((e.start / total) * width as f64).floor() as usize;
                    let b = ((e.end / total) * width as f64).ceil() as usize;
                    for c in row.iter_mut().take(b.min(width)).skip(a.min(width - 1)) {
                        *c = b'#';
                    }
                }
                let _ = writeln!(
                    out,
                    "{:>5}[{unit}] |{}|",
                    resource.name(),
                    String::from_utf8(row).expect("ascii")
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(step: u32, resource: Resource, unit: usize, start: f64, end: f64) -> TraceEntry {
        TraceEntry {
            step: StepId(step),
            tag: "",
            resource,
            unit,
            start,
            end,
        }
    }

    #[test]
    fn overlap_detection() {
        let mut t = Trace::default();
        t.entries.push(entry(0, Resource::Mxu, 0, 0.0, 1.0));
        t.entries.push(entry(1, Resource::Mxu, 0, 1.0, 2.0));
        t.entries.push(entry(2, Resource::Mxu, 1, 0.5, 1.5)); // other unit
        assert_eq!(t.find_overlap(), None);
        t.entries.push(entry(3, Resource::Mxu, 0, 1.5, 2.5)); // overlaps #1
        assert_eq!(t.find_overlap(), Some((StepId(1), StepId(3))));
    }

    #[test]
    fn gantt_renders_rows() {
        let mut t = Trace::default();
        t.entries.push(entry(0, Resource::Mxu, 0, 0.0, 0.5));
        t.entries.push(entry(1, Resource::Dma, 0, 0.5, 1.0));
        let g = t.render_gantt(40);
        assert!(g.contains("mxu[0]"));
        assert!(g.contains("dma[0]"));
        assert!(g.contains('#'));
        assert!(g.contains("makespan"));
    }

    #[test]
    fn empty_trace_renders() {
        assert!(Trace::default().render_gantt(50).contains("empty"));
        assert_eq!(Trace::default().makespan(), 0.0);
        assert_eq!(Trace::default().find_overlap(), None);
    }

    #[test]
    fn to_events_is_balanced_monotone_and_exports() {
        let mut t = Trace::default();
        t.entries.push(entry(0, Resource::Mxu, 0, 0.0, 0.5));
        t.entries.push(entry(1, Resource::Dma, 1, 0.25, 0.75));
        t.entries.push(entry(2, Resource::Mxu, 0, 0.5, 0.5)); // zero-duration
        let events = t.to_events();
        assert_eq!(events.len(), 6);
        assert_eq!(tpu_telemetry::span_balance(&events), Ok(3));
        for w in events.windows(2) {
            assert!(w[0].t_s <= w[1].t_s, "timestamps must be monotone");
        }
        let json = t.chrome_trace_json();
        // 2 thread_name metadata records + 6 span edges.
        assert_eq!(tpu_telemetry::validate_chrome_json(&json), Ok(8));
        assert!(json.contains("\"mxu0\""));
        assert!(json.contains("\"dma1\""));
        let text = t.render_text();
        assert_eq!(text.lines().count(), 6);
        assert!(text.contains("step0"));
    }

    #[test]
    fn to_events_uses_tags_when_present() {
        let mut t = Trace::default();
        t.entries.push(TraceEntry {
            step: StepId(4),
            tag: "matmul.fwd",
            resource: Resource::Vpu,
            unit: 0,
            start: 0.0,
            end: 1.0,
        });
        let events = t.to_events();
        assert!(events.iter().all(|e| e.name == "matmul.fwd"));
        assert!(events.iter().all(|e| e.arg == 4));
    }

    #[test]
    fn for_resource_sorts_by_start() {
        let mut t = Trace::default();
        t.entries.push(entry(0, Resource::Vpu, 0, 2.0, 3.0));
        t.entries.push(entry(1, Resource::Vpu, 0, 0.0, 1.0));
        let v = t.for_resource(Resource::Vpu);
        assert_eq!(v[0].step, StepId(1));
        assert_eq!(v[1].step, StepId(0));
    }
}
