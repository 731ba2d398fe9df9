//! Hand-rolled JSON Lines encoding for trace records.
//!
//! The build runs with in-tree dependency shims only (no `serde_json`), so
//! records are rendered with a small purpose-built writer. The encoding is
//! stable and append-only: one object per line, fields in fixed order, no
//! floats, no wall-clock values — which is what makes traces byte-identical
//! across runs of the same program and seed.

use crate::event::{TraceEvent, TraceRecord};
use golf_heap::Handle;
use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_handle(out: &mut String, h: Handle) {
    // Handles render via their Display form ("0x..."), stable per run.
    let _ = write!(out, "\"{h}\"");
}

impl TraceRecord {
    /// Renders this record as one JSON line (no trailing newline).
    ///
    /// Field order is fixed: `tick`, `seq`, `type`, then the event-specific
    /// fields in declaration order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(out, "{{\"tick\":{},\"seq\":{},\"type\":", self.tick, self.seq);
        push_json_str(&mut out, self.event.kind());
        if let Some(gid) = self.event.gid() {
            let _ = write!(out, ",\"gid\":\"{gid}\"");
        }
        match &self.event {
            TraceEvent::GoCreate { parent, func, spawn_site, .. } => {
                if let Some(p) = parent {
                    let _ = write!(out, ",\"parent\":\"{p}\"");
                }
                out.push_str(",\"func\":");
                push_json_str(&mut out, func);
                if let Some(site) = spawn_site {
                    out.push_str(",\"spawn_site\":");
                    push_json_str(&mut out, site);
                }
            }
            TraceEvent::GoBlock { reason, objects, .. } => {
                out.push_str(",\"reason\":");
                push_json_str(&mut out, reason);
                out.push_str(",\"objects\":[");
                for (i, h) in objects.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_handle(&mut out, *h);
                }
                out.push(']');
            }
            TraceEvent::GoUnblock { .. }
            | TraceEvent::GoEnd { .. }
            | TraceEvent::Reclaimed { .. } => {}
            TraceEvent::SchedPick { of, quantum, .. } => {
                let _ = write!(out, ",\"of\":{of},\"quantum\":{quantum}");
            }
            TraceEvent::ChanMake { chan, cap, .. } => {
                out.push_str(",\"chan\":");
                push_handle(&mut out, *chan);
                let _ = write!(out, ",\"cap\":{cap}");
            }
            TraceEvent::ChanSend { chan, .. }
            | TraceEvent::ChanRecv { chan, .. }
            | TraceEvent::ChanClose { chan, .. } => {
                out.push_str(",\"chan\":");
                push_handle(&mut out, *chan);
            }
            TraceEvent::SemaEnqueue { sema, .. } | TraceEvent::SemaDequeue { sema, .. } => {
                out.push_str(",\"sema\":");
                push_handle(&mut out, *sema);
            }
            TraceEvent::GcPhaseBegin { cycle, phase } => {
                let _ = write!(out, ",\"cycle\":{cycle},\"phase\":");
                push_json_str(&mut out, phase);
            }
            TraceEvent::GcPhaseEnd { cycle, phase, count } => {
                let _ = write!(out, ",\"cycle\":{cycle},\"phase\":");
                push_json_str(&mut out, phase);
                let _ = write!(out, ",\"count\":{count}");
            }
            TraceEvent::DeadlockDetected { reason, location, .. } => {
                out.push_str(",\"reason\":");
                push_json_str(&mut out, reason);
                out.push_str(",\"location\":");
                push_json_str(&mut out, location);
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::event::{GoId, TraceEvent, TraceRecord};

    #[test]
    fn escapes_control_and_quote_characters() {
        let record = TraceRecord {
            tick: 1,
            seq: 2,
            event: TraceEvent::DeadlockDetected {
                gid: GoId::new(0, 0),
                reason: "chan send",
                location: "a\"b\\c\nd\u{1}".into(),
            },
        };
        assert_eq!(
            record.to_jsonl(),
            r#"{"tick":1,"seq":2,"type":"deadlock_detected","gid":"g0.0","reason":"chan send","location":"a\"b\\c\nd\u0001"}"#
        );
    }

    #[test]
    fn block_event_renders_reason_and_objects() {
        let record = TraceRecord {
            tick: 42,
            seq: 7,
            event: TraceEvent::GoBlock {
                gid: GoId::new(3, 1),
                reason: "chan send",
                objects: vec![],
            },
        };
        assert_eq!(
            record.to_jsonl(),
            r#"{"tick":42,"seq":7,"type":"go_block","gid":"g3.1","reason":"chan send","objects":[]}"#
        );
    }
}
