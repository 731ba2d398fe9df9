//! The trace sink: where emitted records go.

use crate::event::TraceRecord;
use std::sync::{Arc, Mutex};

/// Sink that renders records to JSONL lines in a shared in-memory buffer.
///
/// Cloning shares the buffer: hand a clone to a `Vm`/`Session` as its trace
/// sink, run, then read the rendered block back with
/// [`BufferSink::contents`]. Each run traces into its own buffer, so a
/// parallel sweep can write the blocks out in a fixed order and produce the
/// same bytes at any thread count.
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

    /// Appends `record` as one JSONL line.
    pub(crate) fn emit(&self, record: &TraceRecord) {
        let mut buf = self.buf.lock().expect("BufferSink poisoned");
        buf.push_str(&record.to_jsonl());
        buf.push('\n');
    }
}

impl std::fmt::Debug for BufferSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BufferSink")
    }
}
