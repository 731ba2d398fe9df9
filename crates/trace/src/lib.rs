//! # golf-trace
//!
//! Structured execution tracing for the golf runtime, modeled on Go's
//! `runtime/trace`: a typed event vocabulary ([`TraceEvent`]), pluggable
//! sinks ([`TraceSink`] — [`SharedJsonlSink`], [`BufferSink`], [`VecSink`]),
//! an always-bounded [`FlightRecorder`] ring for post-hoc forensics, and a
//! small counter/gauge [`MetricsRegistry`].
//!
//! The runtime owns one [`Tracer`] per `Vm`. Tracing is off by default and
//! the instrumentation guards every event construction behind
//! [`Tracer::enabled`], so the untraced fast path costs one branch. Events
//! are stamped with the deterministic scheduler tick plus an emission
//! sequence number — never wall-clock time — so the same program and seed
//! produce byte-identical traces.
//!
//! ```
//! use golf_trace::{GoId, Tracer, TraceEvent, VecSink};
//!
//! let mut tracer = Tracer::new();
//! assert!(!tracer.enabled()); // free when off
//!
//! let sink = VecSink::new();
//! tracer.set_sink(Some(Box::new(sink.clone())));
//! if tracer.enabled() {
//!     tracer.emit(7, TraceEvent::GoUnblock { gid: GoId::new(1, 0) });
//! }
//! assert_eq!(sink.records().len(), 1);
//! assert_eq!(sink.records()[0].tick, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod json;
mod metrics;
mod recorder;
mod sink;

pub use event::{GoId, TraceEvent, TraceRecord};
pub use metrics::MetricsRegistry;
pub use recorder::{FlightRecorder, DEFAULT_FLIGHT_RECORDER_CAPACITY};
pub use sink::{BufferSink, SharedJsonlSink, TraceSink, VecSink};

/// Per-VM tracing front end: an optional sink plus the flight recorder.
///
/// Emission stamps each event with the caller-provided scheduler tick and a
/// monotonically increasing sequence number, forwards the record to the sink
/// (if any) and to the flight recorder (if enabled).
pub struct Tracer {
    sink: Option<Box<dyn TraceSink>>,
    recorder: FlightRecorder,
    recorder_enabled: bool,
    seq: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates a disabled tracer (no sink, flight recorder off).
    pub fn new() -> Self {
        Tracer { sink: None, recorder: FlightRecorder::default(), recorder_enabled: false, seq: 0 }
    }

    /// Whether any consumer is attached.
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
        self.recorder_enabled || self.sink.is_some()
    }

    /// Installs (or removes) the sink. Installing a sink also turns the
    /// flight recorder on, so detections made while tracing always have
    /// forensics available.
    pub fn set_sink(&mut self, sink: Option<Box<dyn TraceSink>>) {
        if sink.is_some() {
            self.recorder_enabled = true;
        }
        self.sink = sink;
    }

    /// Turns the flight recorder on or off independently of the sink.
    pub fn set_recorder_enabled(&mut self, on: bool) {
        self.recorder_enabled = on;
    }

    /// Read access to the flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Stamps and routes one event.
    pub fn emit(&mut self, tick: u64, event: TraceEvent) {
        let record = TraceRecord { tick, seq: self.seq, event };
        self.seq += 1;
        if let Some(sink) = &mut self.sink {
            sink.emit(&record);
        }
        if self.recorder_enabled {
            self.recorder.push(record);
        }
    }

    /// Flushes the sink, if one is attached.
    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
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
        tracer.set_sink(Some(Box::new(VecSink::new())));
        assert!(tracer.enabled());
        for tick in [3u64, 3, 5] {
            tracer.emit(tick, TraceEvent::GoUnblock { gid: GoId::new(0, 0) });
        }
        let tail = tracer.recorder().tail(8);
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(tail.iter().map(|r| r.tick).collect::<Vec<_>>(), vec![3, 3, 5]);
    }

    #[test]
    fn recorder_alone_can_be_enabled() {
        let mut tracer = Tracer::new();
        tracer.set_recorder_enabled(true);
        assert!(tracer.enabled());
        tracer.emit(1, TraceEvent::GoEnd { gid: GoId::new(2, 1) });
        assert_eq!(tracer.recorder().tail(1).len(), 1);
    }
}
