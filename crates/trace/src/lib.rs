//! # golf-trace
//!
//! Structured execution tracing for the golf runtime, modeled on Go's
//! `runtime/trace`: a typed event vocabulary ([`TraceEvent`]), a JSONL
//! [`BufferSink`], and an always-bounded [`FlightRecorder`] ring for
//! post-hoc forensics.
//!
//! The runtime owns one [`Tracer`] per `Vm`. Tracing is off by default and
//! the instrumentation guards every event construction behind
//! [`Tracer::enabled`], so the untraced fast path costs one branch. Events
//! are stamped with the deterministic scheduler tick plus an emission
//! sequence number — never wall-clock time — so the same program and seed
//! produce byte-identical traces.
//!
//! ```
//! use golf_trace::{BufferSink, GoId, Tracer, TraceEvent};
//!
//! let mut tracer = Tracer::new();
//! assert!(!tracer.enabled()); // free when off
//!
//! let sink = BufferSink::new();
//! tracer.set_sink(Some(sink.clone()));
//! if tracer.enabled() {
//!     tracer.emit(7, TraceEvent::GoUnblock { gid: GoId::new(1, 0) });
//! }
//! assert_eq!(
//!     sink.contents(),
//!     concat!(r#"{"tick":7,"seq":0,"type":"go_unblock","gid":"g1.0"}"#, "\n")
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod json;
mod recorder;
mod sink;

pub use event::{GoId, TraceEvent, TraceRecord};
pub use recorder::{FlightRecorder, DEFAULT_FLIGHT_RECORDER_CAPACITY};
pub use sink::BufferSink;

/// Per-VM tracing front end: an optional sink plus the flight recorder.
///
/// Emission stamps each event with the caller-provided scheduler tick and a
/// monotonically increasing sequence number. While a sink is installed, the
/// record goes to the sink and to the flight recorder.
pub struct Tracer {
    sink: Option<BufferSink>,
    recorder: FlightRecorder,
    seq: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates a disabled tracer (no sink).
    pub fn new() -> Self {
        Tracer { sink: None, recorder: FlightRecorder::default(), seq: 0 }
    }

    /// Whether a sink is installed.
    ///
    /// Instrumentation sites must check this before building an event so the
    /// disabled path allocates nothing:
    ///
    /// ```ignore
    /// if tracer.enabled() {
    ///     tracer.emit(tick, TraceEvent::GoEnd { gid });
    /// }
    /// ```
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Installs (or removes) the sink. The flight recorder records exactly
    /// while a sink is installed, so detections made while tracing always
    /// have forensics available.
    pub fn set_sink(&mut self, sink: Option<BufferSink>) {
        self.sink = sink;
    }

    /// Read access to the flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Stamps and routes one event.
    pub fn emit(&mut self, tick: u64, event: TraceEvent) {
        let record = TraceRecord { tick, seq: self.seq, event };
        self.seq += 1;
        if let Some(sink) = &self.sink {
            sink.emit(&record);
            self.recorder.push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_reports_disabled() {
        let tracer = Tracer::new();
        assert!(!tracer.enabled());
    }

    #[test]
    fn emit_stamps_monotonic_seq_and_feeds_recorder() {
        let mut tracer = Tracer::new();
        tracer.set_sink(Some(BufferSink::new()));
        assert!(tracer.enabled());
        for tick in [3u64, 3, 5] {
            tracer.emit(tick, TraceEvent::GoUnblock { gid: GoId::new(0, 0) });
        }
        let tail = tracer.recorder().tail(8);
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(tail.iter().map(|r| r.tick).collect::<Vec<_>>(), vec![3, 3, 5]);
    }
}
