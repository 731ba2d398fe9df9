//! Trace sinks: where emitted records go.

use crate::event::TraceRecord;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Consumer of trace records.
///
/// Sinks are injected into the runtime (see `Vm::set_trace_sink` /
/// `Session::set_trace_sink`); the tracer only constructs and forwards
/// records while a sink is installed, so the uninstrumented fast path stays
/// free of allocation and I/O.
pub trait TraceSink: Send {
    /// Consumes one record.
    fn emit(&mut self, record: &TraceRecord);

    /// Flushes buffered output, if any.
    fn flush(&mut self) {}
}

/// Cloneable JSONL sink writing through a shared, locked writer.
///
/// The bench drivers run many sessions (one per benchmark × run) that should
/// all append to the same `--trace` file; each session gets a clone of this
/// sink.
#[derive(Clone)]
pub struct SharedJsonlSink {
    writer: Arc<Mutex<BufWriter<File>>>,
}

impl SharedJsonlSink {
    /// Creates (truncating) `path`; clones share one buffered writer.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(SharedJsonlSink { writer: Arc::new(Mutex::new(BufWriter::new(File::create(path)?))) })
    }

    /// Appends a pre-rendered block of JSONL lines under one lock.
    ///
    /// Parallel sweeps record each run into its own [`BufferSink`] and merge
    /// the buffers here in a deterministic order, so the resulting file is
    /// byte-identical regardless of how many worker threads produced it.
    pub fn append_raw(&self, block: &str) {
        if block.is_empty() {
            return;
        }
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.write_all(block.as_bytes());
        }
    }
}

impl std::fmt::Debug for SharedJsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedJsonlSink")
    }
}

impl TraceSink for SharedJsonlSink {
    fn emit(&mut self, record: &TraceRecord) {
        if let Ok(mut w) = self.writer.lock() {
            let _ = writeln!(w, "{}", record.to_jsonl());
        }
    }

    fn flush(&mut self) {
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.flush();
        }
    }
}

/// Sink that renders records to JSONL lines in a shared in-memory buffer.
///
/// Cloning shares the buffer: hand a clone to a `Vm`/`Session` as its trace
/// sink, run, then read the rendered block back with
/// [`BufferSink::contents`]. This is the per-thread half of deterministic
/// trace merging — each run traces into its own buffer, and the sweep
/// appends the buffers to the shared output in a fixed order (see
/// [`SharedJsonlSink::append_raw`]).
#[derive(Clone, Default)]
pub struct BufferSink {
    buf: Arc<Mutex<String>>,
}

impl BufferSink {
    /// Creates an empty buffering sink.
    pub fn new() -> Self {
        BufferSink::default()
    }

    /// The JSONL block rendered so far (one line per record).
    pub fn contents(&self) -> String {
        self.buf.lock().expect("BufferSink poisoned").clone()
    }
}

impl std::fmt::Debug for BufferSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BufferSink")
    }
}

impl TraceSink for BufferSink {
    fn emit(&mut self, record: &TraceRecord) {
        let mut buf = self.buf.lock().expect("BufferSink poisoned");
        buf.push_str(&record.to_jsonl());
        buf.push('\n');
    }
}

/// Sink that collects records into memory; used by tests.
#[derive(Clone, Default)]
pub struct VecSink {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl VecSink {
    /// Creates an empty collecting sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Snapshot of everything emitted so far.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().expect("VecSink poisoned").clone()
    }
}

impl TraceSink for VecSink {
    fn emit(&mut self, record: &TraceRecord) {
        self.records.lock().expect("VecSink poisoned").push(record.clone());
    }
}
