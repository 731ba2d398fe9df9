//! Bounded in-memory flight recorder.
//!
//! Go's flight recorder (`runtime/trace.FlightRecorder`) keeps the most
//! recent trace data in a ring so a crash or detection can snapshot "what
//! just happened" without the cost of tracing to disk for the whole run.
//! This is the same idea over [`TraceRecord`]s: a fixed-capacity ring the
//! tracer pushes into, queried when a deadlock report needs forensics.

use crate::event::{GoId, TraceRecord};
use std::collections::VecDeque;

/// Default ring capacity (records, not bytes).
pub const DEFAULT_FLIGHT_RECORDER_CAPACITY: usize = 512;

/// A fixed-capacity ring buffer of the most recent trace records.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder { ring: VecDeque::with_capacity(capacity), capacity }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, record: TraceRecord) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(record);
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The last `k` records, oldest first.
    pub fn tail(&self, k: usize) -> Vec<TraceRecord> {
        let skip = self.ring.len().saturating_sub(k);
        self.ring.iter().skip(skip).cloned().collect()
    }

    /// The last `k` records concerning goroutine `gid`, oldest first.
    ///
    /// GC phase events carry no gid and are not included.
    pub fn tail_for(&self, gid: GoId, k: usize) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self
            .ring
            .iter()
            .rev()
            .filter(|r| r.event.gid() == Some(gid))
            .take(k)
            .cloned()
            .collect();
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{GoId, TraceEvent};

    fn rec(seq: u64, gid: u32) -> TraceRecord {
        TraceRecord { tick: seq, seq, event: TraceEvent::GoUnblock { gid: GoId::new(gid, 0) } }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut fr = FlightRecorder::new(3);
        for s in 0..5 {
            fr.push(rec(s, 1));
        }
        let tail = fr.tail(10);
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(fr.len(), 3);
    }

    #[test]
    fn tail_for_filters_by_goroutine_in_order() {
        let mut fr = FlightRecorder::new(8);
        for s in 0..8 {
            fr.push(rec(s, (s % 2) as u32));
        }
        let tail = fr.tail_for(GoId::new(1, 0), 2);
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![5, 7]);
    }
}
