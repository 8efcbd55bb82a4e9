//! The flight recorder: a bounded event ring buffer plus a counter
//! registry.

use std::collections::{BTreeMap, VecDeque};

use crate::event::{SpanPhase, TelemetryEvent};

/// Default flight-recorder capacity, in events.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A bounded flight recorder with a counter registry.
///
/// Events go into a ring buffer that drops the **oldest** record once
/// `capacity` is reached (the most recent window is what post-mortems
/// want), while the counter registry keeps exact totals per event name
/// regardless of ring evictions — reconciliation checks use counters,
/// not the (possibly truncated) ring. Counter keys are the event name
/// for instants and `name.begin` / `name.end` for span edges, so span
/// balance is checkable from counters alone. Counters iterate in
/// deterministic (lexicographic) order.
#[derive(Debug, Clone)]
pub struct Recorder {
    capacity: usize,
    ring: VecDeque<TelemetryEvent>,
    dropped: u64,
    counters: BTreeMap<String, u64>,
    /// Reused buffer for span-edge counter keys, so recording an event
    /// allocates only when it inserts a new counter.
    key: String,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder holding up to `DEFAULT_CAPACITY` (2^16) events.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder whose ring holds at most `capacity` events
    /// (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            dropped: 0,
            counters: BTreeMap::new(),
            key: String::new(),
        }
    }

    /// Record one event: bump its counter and append it to the ring,
    /// evicting the oldest record if the ring is full.
    pub fn record(&mut self, ev: TelemetryEvent) {
        let key: &str = match ev.phase {
            SpanPhase::Instant => &ev.name,
            edge => {
                self.key.clear();
                self.key.push_str(&ev.name);
                self.key.push_str(match edge {
                    SpanPhase::Begin => ".begin",
                    _ => ".end",
                });
                &self.key
            }
        };
        bump(&mut self.counters, key, 1);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Add `n` to a named counter without recording an event.
    pub fn add_counter(&mut self, name: &str, n: u64) {
        bump(&mut self.counters, name, n);
    }

    /// The exact total for `name` (0 if never seen).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in lexicographic order.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// The retained event window, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TelemetryEvent> {
        self.ring.iter()
    }

    /// Events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted from the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Adds `n` to counter `key`, allocating its owned key only on the
/// first insert.
fn bump(counters: &mut BTreeMap<String, u64>, key: &str, n: u64) {
    match counters.get_mut(key) {
        Some(total) => *total += n,
        None => {
            counters.insert(key.to_owned(), n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Track;

    fn ev(t_s: f64, phase: SpanPhase, name: &'static str) -> TelemetryEvent {
        TelemetryEvent {
            t_s,
            track: Track {
                name: "fleet",
                index: 0,
            },
            phase,
            name: name.into(),
            id: 0,
            arg: 0,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts_evictions() {
        let mut r = Recorder::with_capacity(2);
        r.record(ev(0.0, SpanPhase::Instant, "a"));
        r.record(ev(1.0, SpanPhase::Instant, "b"));
        r.record(ev(2.0, SpanPhase::Instant, "c"));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        let names: Vec<_> = r.events().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, ["b", "c"]);
        // Counters survive eviction.
        assert_eq!(r.counter("a"), 1);
    }

    #[test]
    fn counters_key_span_phases_separately() {
        let mut r = Recorder::new();
        r.record(ev(0.0, SpanPhase::Begin, "queued"));
        r.record(ev(1.0, SpanPhase::End, "queued"));
        r.record(ev(1.0, SpanPhase::Instant, "arrive"));
        assert_eq!(r.counter("queued.begin"), 1);
        assert_eq!(r.counter("queued.end"), 1);
        assert_eq!(r.counter("arrive"), 1);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn manual_counters_accumulate() {
        let mut r = Recorder::new();
        r.add_counter("events_processed", 41);
        r.add_counter("events_processed", 1);
        assert_eq!(r.counter("events_processed"), 42);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut r = Recorder::with_capacity(0);
        r.record(ev(0.0, SpanPhase::Instant, "a"));
        r.record(ev(1.0, SpanPhase::Instant, "b"));
        assert_eq!(r.len(), 1);
        assert_eq!(r.capacity(), 1);
    }
}
