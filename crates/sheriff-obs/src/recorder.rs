//! Bounded in-memory recorder for tests and interactive inspection.

use std::collections::{BTreeMap, VecDeque};

use crate::counters::Counters;
use crate::event::Event;
use crate::sink::EventSink;

/// Aggregated timings reported under one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimingStat {
    /// Scopes completed under this name.
    pub count: u64,
    /// Total wall-clock nanoseconds across scopes.
    pub wall_nanos: u64,
    /// Total virtual-time ticks across scopes.
    pub virt_ticks: u64,
}

/// An [`EventSink`] that keeps the last `capacity` events in memory.
///
/// Fully deterministic: the retained event stream depends only on the
/// events recorded (wall-clock timings are aggregated separately and
/// excluded from [`events`](RingRecorder::events)). When the buffer is
/// full the oldest event is evicted and counted in
/// [`evicted`](RingRecorder::evicted), so tests can assert nothing was
/// silently dropped.
#[derive(Clone, Debug)]
pub struct RingRecorder {
    capacity: usize,
    events: VecDeque<Event>,
    evicted: u64,
    counters: Counters,
    timings: BTreeMap<&'static str, TimingStat>,
}

impl RingRecorder {
    /// A recorder retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            evicted: 0,
            counters: Counters::new(),
            timings: BTreeMap::new(),
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> + '_ {
        self.events.iter()
    }

    /// Clone the retained events into a `Vec`, oldest first.
    pub fn to_vec(&self) -> Vec<Event> {
        self.events.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the buffer was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Count retained events whose [`Event::kind`] equals `kind`.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }

    /// Counter totals accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Aggregated timings for `name`, if any scope completed.
    pub fn timing_stat(&self, name: &str) -> Option<TimingStat> {
        self.timings.get(name).copied()
    }

    /// Forget all events, counters and timings (capacity unchanged).
    pub fn clear(&mut self) {
        self.events.clear();
        self.evicted = 0;
        self.counters = Counters::new();
        self.timings.clear();
    }
}

impl EventSink for RingRecorder {
    fn record(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(event);
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.counters.add(name, delta);
    }

    fn timing(&mut self, name: &'static str, wall_nanos: u64, virt_ticks: u64) {
        let stat = self.timings.entry(name).or_default();
        stat.count += 1;
        stat.wall_nanos += wall_nanos;
        stat.virt_ticks += virt_ticks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_most_recent_events() {
        let mut rec = RingRecorder::new(2);
        for t in 0..5 {
            rec.record(Event::RoundStart { time: t });
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.evicted(), 3);
        assert_eq!(
            rec.to_vec(),
            vec![Event::RoundStart { time: 3 }, Event::RoundStart { time: 4 }]
        );
    }

    #[test]
    fn queries_by_kind() {
        let mut rec = RingRecorder::new(8);
        rec.record(Event::RoundStart { time: 0 });
        rec.record(Event::AckReceived { req: 1, vm: 2 });
        rec.record(Event::AckReceived { req: 3, vm: 4 });
        assert_eq!(rec.count_kind("ack_received"), 2);
    }

    #[test]
    fn aggregates_counters_and_timings() {
        let mut rec = RingRecorder::new(4);
        rec.counter("net.drops", 2);
        rec.counter("net.drops", 1);
        EventSink::timing(&mut rec, "round", 100, 1);
        EventSink::timing(&mut rec, "round", 50, 2);
        assert_eq!(rec.counters().get("net.drops"), 3);
        let stat = rec.timing_stat("round").unwrap();
        assert_eq!((stat.count, stat.wall_nanos, stat.virt_ticks), (2, 150, 3));
    }
}
