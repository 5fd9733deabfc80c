//! The [`EventSink`] trait and the no-op [`NullSink`].

use crate::event::Event;

/// Destination for instrumentation produced by the Sheriff runtimes.
///
/// Instrumented code is generic over `S: EventSink` (or holds a
/// `&mut dyn EventSink`), and guards any non-trivial payload
/// construction behind [`enabled`](EventSink::enabled) — with
/// [`NullSink`] that check is statically `false` and the whole
/// instrumentation path compiles away. The [`emit`] helper wraps this
/// pattern.
///
/// The trait is object-safe; `&mut dyn EventSink` is accepted wherever
/// the generic form would be awkward (e.g. inside `RunCtx`).
pub trait EventSink {
    /// Whether this sink wants events at all. Instrumented code checks
    /// this before building event payloads; `NullSink` returns a
    /// constant `false` so the branch folds away. [`emit`] builds an
    /// event, and bumps the counter it declares, only when this is
    /// `true`: a sink that keeps counters must be enabled.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Record one structured event.
    fn record(&mut self, event: Event);

    /// Add `delta` to the monotonic counter `name`. Default: ignored.
    #[inline]
    fn counter(&mut self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Record a completed timed scope: wall-clock duration in
    /// nanoseconds plus elapsed virtual-time ticks. Wall-clock values
    /// travel only through this channel — never inside [`Event`]
    /// payloads — to keep event streams deterministic. Default: ignored.
    #[inline]
    fn timing(&mut self, name: &'static str, wall_nanos: u64, virt_ticks: u64) {
        let _ = (name, wall_nanos, virt_ticks);
    }
}

/// Build and record an event only if the sink is enabled, then add 1 to
/// the counter the event declares ([`Event::counter`]).
///
/// The closure runs lazily, so payload computation (cost sums, lookups)
/// costs nothing when tracing is off.
#[inline]
pub fn emit<S: EventSink + ?Sized>(sink: &mut S, build: impl FnOnce() -> Event) {
    if sink.enabled() {
        let event = build();
        let counter = event.counter();
        sink.record(event);
        if let Some(name) = counter {
            sink.counter(name, 1);
        }
    }
}

/// The default sink: drops everything, statically disabled.
///
/// `enabled()` is a constant `false`, so instrumentation guarded by it
/// is dead code after inlining — running with `NullSink` is
/// behaviourally and observably identical to the uninstrumented code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _event: Event) {}

    #[inline(always)]
    fn counter(&mut self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn timing(&mut self, _name: &'static str, _wall_nanos: u64, _virt_ticks: u64) {}
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn record(&mut self, event: Event) {
        (**self).record(event);
    }

    #[inline]
    fn counter(&mut self, name: &'static str, delta: u64) {
        (**self).counter(name, delta);
    }

    #[inline]
    fn timing(&mut self, name: &'static str, wall_nanos: u64, virt_ticks: u64) {
        (**self).timing(name, wall_nanos, virt_ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RingRecorder;

    #[test]
    fn null_sink_is_disabled() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        let mut built = false;
        emit(&mut sink, || {
            built = true;
            Event::TxnCommitted { req: 9, vm: 4 }
        });
        assert!(!built, "emit must not build payloads for NullSink");
    }

    #[test]
    fn emit_counts_each_event_once_into_its_declared_counter() {
        let mut rec = RingRecorder::new(4);
        emit(&mut rec, || Event::TxnCommitted { req: 9, vm: 4 });
        emit(&mut rec, || Event::TxnCommitted { req: 10, vm: 5 });
        emit(&mut rec, || Event::AckReceived { req: 9, vm: 4 });
        assert_eq!(rec.count_kind("txn_committed"), 2);
        let counted: Vec<_> = rec.counters().iter().collect();
        assert_eq!(counted, vec![("txn.committed", 2)]);
    }

    #[test]
    fn emit_reaches_enabled_sinks_through_references() {
        let mut rec = RingRecorder::new(4);
        let by_ref: &mut dyn EventSink = &mut rec;
        emit(by_ref, || Event::RoundStart { time: 2 });
        assert_eq!(rec.len(), 1);
    }
}
