//! The zero-cost sink trait instrumented code is generic over.

use std::borrow::Cow;

use crate::event::{SpanPhase, TelemetryEvent, Track};
use crate::recorder::Recorder;

/// Receiver for telemetry emitted by instrumented code.
///
/// The associated `ENABLED` constant is the zero-cost switch:
/// [`emit`](EventSink::emit) checks it before building an event, and
/// the compiler folds the check away entirely when the sink is
/// [`NullSink`]. Implementors with `ENABLED = true` receive every event.
pub trait EventSink {
    /// Compile-time switch for all instrumentation.
    const ENABLED: bool;

    /// Record one event. Hot-path implementations should be cheap and
    /// must never influence the caller's control flow.
    fn record(&mut self, ev: TelemetryEvent);

    /// Record one statically named event; compiles to nothing when the
    /// sink is disabled.
    #[inline(always)]
    fn emit(
        &mut self,
        t_s: f64,
        track: Track,
        phase: SpanPhase,
        name: &'static str,
        id: u64,
        arg: i64,
    ) {
        if Self::ENABLED {
            self.record(TelemetryEvent {
                t_s,
                track,
                phase,
                name: Cow::Borrowed(name),
                id,
                arg,
            });
        }
    }
}

/// The disabled sink: every method is an inlined no-op and
/// `ENABLED = false` compiles all instrumentation out.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _ev: TelemetryEvent) {}
}

impl EventSink for &mut Recorder {
    const ENABLED: bool = true;

    #[inline]
    fn record(&mut self, ev: TelemetryEvent) {
        Recorder::record(self, ev);
    }
}
