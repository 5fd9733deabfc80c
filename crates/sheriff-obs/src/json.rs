//! Hand-rolled JSON rendering and the [`JsonLinesSink`].
//!
//! The workspace builds offline against vendored stand-ins, so this
//! crate serializes its own JSON: one object per line, stable key
//! order, no external dependency.

use std::io::{self, Write};

use crate::counters::Counters;
use crate::event::Event;
use crate::sink::EventSink;

/// Incremental writer for one flat JSON object. The `"ev"` field is
/// always first so line-oriented consumers can dispatch on a prefix.
pub(crate) struct JsonObject {
    buf: String,
}

impl JsonObject {
    pub(crate) fn new(ev: &str) -> Self {
        let mut buf = String::with_capacity(64);
        buf.push_str("{\"ev\":");
        push_json_str(&mut buf, ev);
        JsonObject { buf }
    }

    pub(crate) fn u64(&mut self, key: &str, value: u64) {
        self.key(key);
        // u64 formatting never needs escaping.
        self.buf.push_str(&value.to_string());
    }

    pub(crate) fn f64(&mut self, key: &str, value: f64) {
        self.key(key);
        push_json_f64(&mut self.buf, value);
    }

    pub(crate) fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        push_json_str(&mut self.buf, value);
    }

    pub(crate) fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    fn key(&mut self, key: &str) {
        self.buf.push(',');
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
    }
}

/// `s` escaped and quoted as a JSON string: the escaper behind the
/// event traces, the scenario reports and the experiment tables.
pub fn json_str(s: &str) -> String {
    let mut buf = String::with_capacity(s.len() + 2);
    push_json_str(&mut buf, s);
    buf
}

/// Escape and quote `s` as a JSON string into `buf`.
fn push_json_str(buf: &mut String, s: &str) {
    buf.push('"');
    for ch in s.chars() {
        match ch {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Render a finite float as a JSON number; NaN/∞ become `null` since
/// JSON has no representation for them.
fn push_json_f64(buf: &mut String, value: f64) {
    if value.is_finite() {
        buf.push_str(&value.to_string());
    } else {
        buf.push_str("null");
    }
}

/// An [`EventSink`] that streams every event as one JSON object per
/// line — the trace format written under `results/`.
///
/// Counter increments are accumulated in memory and emitted as a single
/// `{"ev":"summary", ...}` line by [`finish`](JsonLinesSink::finish);
/// timings are written inline as `{"ev":"timing", ...}` lines.
/// Write errors are sticky: the first failure silences the sink and is
/// reported by `finish`.
pub struct JsonLinesSink<W: Write> {
    out: W,
    events: u64,
    counters: Counters,
    error: Option<io::Error>,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wrap a writer. Consider a `BufWriter` for file targets.
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out,
            events: 0,
            counters: Counters::new(),
            error: None,
        }
    }

    /// Events successfully written so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Counter totals accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Write the summary line, flush, and return the inner writer —
    /// or the first write error encountered over the sink's lifetime.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut line = String::from("{\"ev\":\"summary\",\"events\":");
        line.push_str(&self.events.to_string());
        line.push_str(",\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            push_json_str(&mut line, name);
            line.push(':');
            line.push_str(&value.to_string());
        }
        line.push_str("}}\n");
        self.out.write_all(line.as_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }
}

impl<W: Write> EventSink for JsonLinesSink<W> {
    fn record(&mut self, event: Event) {
        self.events += 1;
        let line = event.to_json();
        self.write_line(&line);
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.counters.add(name, delta);
    }

    fn timing(&mut self, name: &'static str, wall_nanos: u64, virt_ticks: u64) {
        let mut w = JsonObject::new("timing");
        w.str("name", name);
        w.u64("wall_ns", wall_nanos);
        w.u64("virt", virt_ticks);
        let line = w.finish();
        self.write_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn writes_one_object_per_line() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.record(Event::RoundStart { time: 1 });
        sink.record(Event::AckReceived { req: 8, vm: 3 });
        sink.counter("acks", 1);
        let out = sink.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], r#"{"ev":"round_start","time":1}"#);
        assert_eq!(lines[1], r#"{"ev":"ack_received","req":8,"vm":3}"#);
        assert_eq!(
            lines[2],
            r#"{"ev":"summary","events":2,"counters":{"acks":1}}"#
        );
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(
            json_str("a\"b\\c\nd\re\tf\u{1}"),
            r#""a\"b\\c\nd\re\tf\u0001""#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut buf = String::new();
        push_json_f64(&mut buf, f64::NAN);
        assert_eq!(buf, "null");
    }
}
