//! Unified observability for the TPU simulators: a zero-cost-when-disabled
//! event sink, a bounded flight-recorder ring buffer with a counter
//! registry, a Chrome-trace (Perfetto JSON) exporter, and a plain-text
//! timeline dump.
//!
//! # Design
//!
//! Instrumented code is generic over [`EventSink`], whose associated
//! `const ENABLED: bool` guards every emission: [`EventSink::emit`]
//! checks it, and sites that compute something only telemetry needs
//! wrap that work in `if S::ENABLED { ... }`. With [`NullSink`] (the
//! default for all untraced entry points) the guard is a compile-time
//! `false` and the instrumentation monomorphizes to nothing — the traced
//! and untraced engines share one source but the untraced one pays zero
//! overhead.
//!
//! # Determinism
//!
//! Telemetry is **derived from, never an input to**, simulation state:
//! sinks only observe simulated timestamps and identifiers, so a run with
//! a [`Recorder`] attached produces a bit-identical report to one without,
//! and the recorded event stream itself is a pure function of the
//! simulation config and seed. Nothing here reads a host clock; host
//! time is measured outside the simulators, by the `perfbench` harness.

mod chrome;
mod event;
mod recorder;
mod sink;
mod text;

pub use chrome::{chrome_trace_json, validate_chrome_json};
pub use event::{span_balance, SpanPhase, TelemetryEvent, Track};
pub use recorder::Recorder;
pub use sink::{EventSink, NullSink};
pub use text::render_text;
