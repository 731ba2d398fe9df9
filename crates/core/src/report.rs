//! Deadlock reports: what GOLF tells the developer.

use crate::forensics::WaitForGraph;
use golf_runtime::{Gid, ProgramSet, WaitReason};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One detected partial deadlock.
///
/// Mirrors the information GOLF logs in the paper: the goroutine, its wait
/// reason, the blocking operation's source location, the `go` statement
/// that created the goroutine, and a stack trace. Reports deduplicate by
/// [`DeadlockReport::dedup_key`] — the pair of blocking location and spawn
/// site — exactly as the paper's RQ1(b) methodology (§6.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadlockReport {
    /// The deadlocked goroutine.
    pub gid: Gid,
    /// Why it was parked.
    pub wait_reason: WaitReason,
    /// `func:pc` of the blocking operation.
    pub block_location: String,
    /// Label of the `go` statement that created the goroutine, if known
    /// (`None` for the main goroutine). Shares the program's interned site
    /// label — building a report does not allocate for it.
    pub spawn_site: Option<Arc<str>>,
    /// Stack trace, innermost frame first, as `func:pc` strings.
    pub stack: Vec<String>,
    /// GC cycle in which the deadlock was detected.
    pub cycle: u64,
    /// Scheduler tick at detection time.
    pub tick: u64,
    /// Rendered flight-recorder events concerning this goroutine, oldest
    /// first — what it did right before (and while) deadlocking. Empty
    /// when tracing was off at detection time.
    pub recent_events: Vec<String>,
    /// The wait-for graph at detection time (blocked goroutines, their
    /// `B(g)` objects, and each object's mark state), shared by every
    /// report of the detecting cycle. `None` when the detection produced no
    /// graph. [`DeadlockReport::wait_for_dot`] renders it.
    pub wait_for: Option<Arc<WaitForGraph>>,
}

impl DeadlockReport {
    /// The deduplication key: `(blocking location, spawn site)`. The same
    /// library code exercised from different callers collapses into one
    /// deduplicated report, as in the paper. Borrows from the report —
    /// callers that need owned keys convert explicitly.
    pub fn dedup_key(&self) -> (&str, &str) {
        (self.block_location.as_str(), self.spawn_site.as_deref().unwrap_or_default())
    }

    /// Owned form of [`DeadlockReport::dedup_key`], for aggregation maps
    /// that outlive the report.
    pub fn dedup_key_owned(&self) -> (String, String) {
        let (block, site) = self.dedup_key();
        (block.to_string(), site.to_string())
    }

    /// Graphviz DOT rendering of [`DeadlockReport::wait_for`]; empty when
    /// there is no graph. `program` must be the program the report came
    /// from.
    pub fn wait_for_dot(&self, program: &ProgramSet) -> String {
        self.wait_for.as_ref().map_or_else(String::new, |g| g.to_dot(program))
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Mirrors the artifact's "partial deadlock!" log format.
        writeln!(
            f,
            "partial deadlock! goroutine {} [{}] at {}",
            self.gid, self.wait_reason, self.block_location
        )?;
        if let Some(site) = &self.spawn_site {
            writeln!(f, "  created by go statement at {site}")?;
        }
        for frame in &self.stack {
            writeln!(f, "  {frame}")?;
        }
        if !self.recent_events.is_empty() {
            writeln!(f, "  recent events (flight recorder):")?;
            for e in &self.recent_events {
                writeln!(f, "    {e}")?;
            }
        }
        Ok(())
    }
}

/// Aggregates reports by their deduplication key, counting individual
/// occurrences per `(blocking location, spawn site)` pair — the paper's
/// RQ1(b)/RQ1(c) methodology.
///
/// # Example
///
/// ```
/// use golf_core::{dedup_counts, DeadlockReport};
/// # use golf_runtime::WaitReason;
/// # let mk = |site: &str| DeadlockReport {
/// #     gid: golf_runtime::test_gid(1),
/// #     wait_reason: WaitReason::ChanSend,
/// #     block_location: "task:2".into(),
/// #     spawn_site: Some(site.into()),
/// #     stack: vec![],
/// #     cycle: 1,
/// #     tick: 0,
/// #     recent_events: vec![],
/// #     wait_for: None,
/// # };
/// let reports = vec![mk("a:1"), mk("a:1"), mk("b:9")];
/// let counts = dedup_counts(&reports);
/// assert_eq!(counts.len(), 2);
/// assert_eq!(counts[&("task:2", "a:1")], 2);
/// ```
pub fn dedup_counts(reports: &[DeadlockReport]) -> std::collections::BTreeMap<(&str, &str), usize> {
    let mut out = std::collections::BTreeMap::new();
    for r in reports {
        *out.entry(r.dedup_key()).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(block: &str, site: Option<&str>) -> DeadlockReport {
        DeadlockReport {
            gid: golf_runtime::test_gid(1),
            wait_reason: WaitReason::ChanSend,
            block_location: block.to_string(),
            spawn_site: site.map(Arc::from),
            stack: vec!["task:2".into(), "main:4".into()],
            cycle: 1,
            tick: 100,
            recent_events: vec![],
            wait_for: None,
        }
    }

    #[test]
    fn dedup_key_pairs_block_and_site() {
        let a = report("task:2", Some("main:3"));
        let b = report("task:2", Some("main:3"));
        let c = report("task:2", Some("other:9"));
        assert_eq!(a.dedup_key(), b.dedup_key());
        assert_ne!(a.dedup_key(), c.dedup_key());
    }

    #[test]
    fn dedup_counts_aggregates() {
        let reports =
            vec![report("task:2", Some("a:1")), report("task:2", Some("a:1")), report("x:5", None)];
        let counts = dedup_counts(&reports);
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[&("task:2", "a:1")], 2);
        assert_eq!(counts[&("x:5", "")], 1);
    }

    #[test]
    fn display_has_artifact_format() {
        let s = report("task:2", Some("main:3")).to_string();
        assert!(s.starts_with("partial deadlock! goroutine g1.0 [chan send] at task:2"));
        assert!(s.contains("created by go statement at main:3"));
    }
}
