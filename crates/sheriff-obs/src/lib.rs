//! # sheriff-obs
//!
//! Zero-dependency observability layer for the Sheriff reproduction.
//!
//! The paper evaluates Sheriff by *watching* it work — alert counts,
//! migration costs, balance trajectories, protocol chatter (Fig. 9–14).
//! This crate provides the one mechanism every runtime shares:
//!
//! * [`Event`] — a typed enum covering the whole control loop, from
//!   alert detection (Sec. III-B) through PRIORITY / VMMIGRATION
//!   planning (Alg. 2–3), the REQUEST/ACK/REJECT shim protocol
//!   (Alg. 4), k-median region maintenance (Alg. 5), down to fault
//!   injection and round boundaries.
//! * [`EventSink`] — the trait instrumented code writes to. Three
//!   implementations ship here: [`NullSink`] (default; statically
//!   inlined to near-zero overhead), [`RingRecorder`] (bounded
//!   in-memory buffer, deterministic and queryable from tests) and
//!   [`JsonLinesSink`] (streams one JSON object per line to any
//!   `io::Write`, for `results/` traces).
//! * [`Counters`] — a monotonic `u64` registry keyed by static names.
//! * [`Timer`] — a scoped timer recording both wall-clock nanoseconds
//!   and virtual-time ticks.
//!
//! Determinism contract: [`Event`] payloads never contain wall-clock
//! values, so two runs with the same seed produce byte-identical event
//! streams. Wall-clock durations travel through the separate
//! [`EventSink::timing`] channel and are excluded from stream equality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod event;
mod json;
mod recorder;
mod sink;
mod timer;

pub use counters::Counters;
pub use event::{AlertKind, Event, FaultKind, RejectKind};
pub use json::{json_str, JsonLinesSink};
pub use recorder::{RingRecorder, TimingStat};
pub use sink::{emit, EventSink, NullSink};
pub use timer::Timer;
