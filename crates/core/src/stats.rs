//! Per-cycle and cumulative collector statistics, plus the phase trace that
//! reproduces the paper's Figure 2.

use serde::{Deserialize, Serialize};

/// An event in the GC cycle, in execution order. White-background phases in
/// the paper's Figure 2 are the regular collector; hatched ones are the GOLF
/// extensions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseEvent {
    /// Cycle initialization: unmark all objects, prepare the root set.
    Init,
    /// Roots prepared; `restricted` is true when GOLF withheld blocked
    /// goroutines from the initial root set.
    RootsPrepared {
        /// Number of goroutines whose stacks were included.
        goroutine_roots: usize,
        /// Whether the GOLF root restriction was applied.
        restricted: bool,
    },
    /// One marking iteration completed.
    MarkIteration {
        /// 1-based iteration number.
        iteration: u32,
        /// Objects newly marked during this iteration.
        newly_marked: u64,
    },
    /// GOLF root expansion after a mark iteration.
    RootExpansion {
        /// Goroutines found reachably live and added to the root set.
        goroutines_added: usize,
    },
    /// Marking reached its fixed point (the "marking done" STW phase).
    MarkDone,
    /// GOLF reported deadlocked goroutines.
    DeadlocksDetected {
        /// Number of goroutines reported this cycle.
        count: usize,
    },
    /// GOLF forcefully shut down deadlocked goroutines.
    Reclaimed {
        /// Number of goroutines shut down.
        count: usize,
    },
    /// Goroutines preserved (with their memory) because their subgraph has
    /// finalizers (paper §5.5).
    PreservedForFinalizers {
        /// Number of goroutines moved to the permanent deadlocked state.
        count: usize,
    },
    /// Sweep completed.
    Sweep {
        /// Objects reclaimed.
        objects: u64,
        /// Bytes reclaimed.
        bytes: u64,
    },
}

/// Statistics for one garbage-collection cycle.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GcCycleStats {
    /// 1-based cycle number.
    pub cycle: u64,
    /// Whether GOLF detection ran this cycle.
    pub golf_detection: bool,
    /// Marking iterations until the fixed point (always 1 for baseline).
    pub mark_iterations: u32,
    /// Objects marked.
    pub objects_marked: u64,
    /// Pointer traversals performed while marking — edges followed out of
    /// objects as they were blackened (the paper's "marking work" —
    /// identical between baseline and GOLF in aggregate, §5.2).
    pub pointer_traversals: u64,
    /// `(goroutine, blocking object)` reachability checks — the `S` pairs
    /// factor in the paper's `O(N² + NS)` bound (§5.3).
    pub liveness_checks: u64,
    /// Whether this cycle was *replayed* from the incremental cache instead
    /// of executed: the collector proved full quiescence (heap epoch, roots
    /// epoch, and every goroutine fingerprint unchanged since the previous
    /// side-effect-free cycle) and reused its outcome wholesale. All
    /// deterministic fields of a replayed cycle equal what a full cycle
    /// would have computed; this flag and the wall-clock `*_ns` timings are
    /// the only mode-dependent ones (differential comparisons exclude them).
    /// A replayed cycle reuses the whole mark bitmap, so its
    /// `objects_marked` marks were carried over rather than recomputed.
    pub incremental_replayed: bool,
    /// Goroutines reported as deadlocked this cycle.
    pub deadlocks_detected: usize,
    /// Goroutines forcefully shut down this cycle.
    pub deadlocks_reclaimed: usize,
    /// Goroutines preserved due to finalizers.
    pub preserved_for_finalizers: usize,
    /// Objects swept.
    pub swept_objects: u64,
    /// Bytes swept.
    pub swept_bytes: u64,
    /// Live heap bytes after the sweep.
    pub live_bytes_after: u64,
    /// Measured wall-clock duration of the marking phase (including GOLF's
    /// liveness checks), in nanoseconds.
    pub mark_ns: u64,
    /// Measured wall-clock duration of the whole stop-the-world cycle, in
    /// nanoseconds (the `PauseTotalNs` contribution).
    pub pause_ns: u64,
    /// *Modeled* stop-the-world nanoseconds: what the pause would cost if
    /// marking ran concurrently (as in Go) and only the STW work remained —
    /// a fixed setup cost plus GOLF's liveness checks and forced shutdowns.
    /// This is what service experiments charge to the simulated clock.
    pub modeled_stw_ns: u64,
    /// The phase trace (Figure 2).
    pub phases: Vec<PhaseEvent>,
}

/// Cumulative collector statistics, mirroring Go's `MemStats` GC fields
/// used in the paper's Table 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcTotals {
    /// Number of completed cycles (`NumGC`).
    pub num_gc: u64,
    /// Total stop-the-world pause time in nanoseconds (`PauseTotalNs`).
    pub pause_total_ns: u64,
    /// Total modeled STW nanoseconds (see
    /// [`GcCycleStats::modeled_stw_ns`]).
    pub modeled_stw_total_ns: u64,
    /// Total marking time in nanoseconds.
    pub mark_total_ns: u64,
    /// Total objects swept.
    pub swept_objects: u64,
    /// Total bytes swept.
    pub swept_bytes: u64,
    /// Total deadlocks reported.
    pub deadlocks_detected: u64,
    /// Total deadlocked goroutines reclaimed.
    pub deadlocks_reclaimed: u64,
    /// Total pointer traversals across all cycles.
    pub pointer_traversals: u64,
}

impl GcTotals {
    /// Folds one cycle into the totals.
    pub fn absorb(&mut self, c: &GcCycleStats) {
        self.num_gc += 1;
        self.pause_total_ns += c.pause_ns;
        self.modeled_stw_total_ns += c.modeled_stw_ns;
        self.mark_total_ns += c.mark_ns;
        self.swept_objects += c.swept_objects;
        self.swept_bytes += c.swept_bytes;
        self.deadlocks_detected += c.deadlocks_detected as u64;
        self.deadlocks_reclaimed += c.deadlocks_reclaimed as u64;
        self.pointer_traversals += c.pointer_traversals;
    }

    /// Mean pause per cycle in nanoseconds (Table 2's
    /// `PauseTotalNs/NumGC`), or 0 when no cycle ran.
    pub fn pause_per_cycle_ns(&self) -> u64 {
        self.pause_total_ns.checked_div(self.num_gc).unwrap_or(0)
    }

    /// Mean *modeled* STW per cycle in nanoseconds.
    pub fn modeled_stw_per_cycle_ns(&self) -> u64 {
        self.modeled_stw_total_ns.checked_div(self.num_gc).unwrap_or(0)
    }
}

impl std::fmt::Display for GcCycleStats {
    /// A `GODEBUG=gctrace=1`-style single-line cycle summary, extended with
    /// the GOLF columns (iterations, liveness checks, deadlocks).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gc {}: {:.3} ms pause, {:.3} ms marking, {} iters, {} objs marked, {} checks, {} dl ({} reclaimed, {} preserved), {} objs/{} B swept, {} B live",
            self.cycle,
            self.pause_ns as f64 / 1e6,
            self.mark_ns as f64 / 1e6,
            self.mark_iterations,
            self.objects_marked,
            self.liveness_checks,
            self.deadlocks_detected,
            self.deadlocks_reclaimed,
            self.preserved_for_finalizers,
            self.swept_objects,
            self.swept_bytes,
            self.live_bytes_after,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gctrace_line_mentions_key_fields() {
        let c = GcCycleStats {
            cycle: 3,
            mark_iterations: 2,
            deadlocks_detected: 4,
            deadlocks_reclaimed: 4,
            swept_objects: 7,
            pause_ns: 163_000,
            mark_ns: 2_500_000,
            ..Default::default()
        };
        let line = c.to_string();
        assert!(line.starts_with("gc 3: "));
        assert!(line.contains("0.163 ms pause"), "{line}");
        assert!(line.contains("2.500 ms marking"), "{line}");
        assert!(!line.contains('@'), "`@` is time since start in Go's gctrace: {line}");
        assert!(line.contains("2 iters"));
        assert!(line.contains("4 dl (4 reclaimed"));
        assert!(line.contains("7 objs"));
    }

    #[test]
    fn absorb_accumulates() {
        let mut t = GcTotals::default();
        let mut c =
            GcCycleStats { pause_ns: 100, mark_ns: 60, swept_objects: 3, ..Default::default() };
        c.deadlocks_detected = 2;
        t.absorb(&c);
        t.absorb(&c);
        assert_eq!(t.num_gc, 2);
        assert_eq!(t.pause_total_ns, 200);
        assert_eq!(t.deadlocks_detected, 4);
        assert_eq!(t.pause_per_cycle_ns(), 100);
    }

    #[test]
    fn pause_per_cycle_handles_zero() {
        assert_eq!(GcTotals::default().pause_per_cycle_ns(), 0);
    }
}
