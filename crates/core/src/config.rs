//! Collector configuration: mode, GOLF options and the pacer.

use serde::{Deserialize, Serialize};

/// Which collector runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GcMode {
    /// The ordinary Go collector: every goroutine is a root (paper §5.1).
    #[default]
    Baseline,
    /// The GOLF extension: roots start from runnable goroutines only and
    /// grow by reachable liveness to a fixed point (paper §4.2/§5.2).
    Golf,
}

/// How the root set is expanded with reachably-live goroutines after each
/// mark iteration (paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExpansionStrategy {
    /// The paper's implementation: after each mark iteration, rescan every
    /// blocked goroutine and test each object in its `B(g)` for a mark —
    /// `O(N² + NS)` in the worst case.
    #[default]
    Rescan,
    /// The optimization the paper describes but does not implement (§5.3):
    /// a blocking concurrency object already stores references to the
    /// goroutines parked on it, so expansion only inspects the wait queues
    /// of objects marked in the last iteration — dropping the `NS` term.
    FromMarked,
    /// The paper's "reduce the overhead even further" variant (§5.3):
    /// blocked goroutines join the root set *on the fly*, the moment one of
    /// their blocking objects is marked — the whole fixed point completes
    /// in a single marking pass with no restarts.
    Incremental,
}

/// GOLF-specific options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GolfConfig {
    /// Run deadlock detection only every `detect_every`-th cycle; other
    /// cycles behave like the baseline. The paper (§6.2) observes that
    /// `detect_every = 10` makes the overhead negligible at no efficacy
    /// cost. Must be ≥ 1.
    pub detect_every: u32,
    /// Whether to forcefully shut down deadlocked goroutines and reclaim
    /// their memory. `false` is the paper's report-only mode used for the
    /// RQ1(b) test-suite comparison.
    pub reclaim: bool,
    /// Root-expansion strategy (§5.3).
    pub expansion: ExpansionStrategy,
    /// Incremental cycle mode (on by default; `--full-gc` turns it off).
    ///
    /// When on, the collector proves *quiescence* before each cycle — the
    /// heap mutation epoch, the runtime-roots epoch, and every live
    /// goroutine's liveness fingerprint are unchanged since the previous
    /// (side-effect-free) cycle — and replays that cycle's outcome instead
    /// of re-marking the heap: the mark bitmap is reused wholesale and the
    /// liveness fixed point is skipped. Replayed cycles are byte-identical
    /// to the full cycles they stand in for (reports, live sets, modeled
    /// totals, default trace events); only wall-clock fields differ.
    /// Ignored in [`GcMode::Baseline`].
    pub incremental: bool,
}

impl Default for GolfConfig {
    fn default() -> Self {
        GolfConfig {
            detect_every: 1,
            reclaim: true,
            expansion: ExpansionStrategy::Rescan,
            incremental: true,
        }
    }
}

/// The GC pacer: when to trigger a collection.
///
/// A simplification of Go's pacer: collect once the live heap has grown by
/// `growth_factor` since the end of the previous cycle (Go's `GOGC=100` is
/// a factor of 2.0), but never before `min_trigger_bytes` are allocated.
/// This reproduces Table 2's `NumGC` inversion — a leaking baseline heap
/// keeps growing, so its trigger keeps rising and cycles become rare, while
/// GOLF's reclamation keeps the heap (and thus the trigger) small.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacerConfig {
    /// Heap growth multiple that triggers a collection.
    pub growth_factor: f64,
    /// Lower bound on the trigger, in bytes.
    pub min_trigger_bytes: u64,
}

impl Default for PacerConfig {
    fn default() -> Self {
        PacerConfig { growth_factor: 2.0, min_trigger_bytes: 16 * 1024 }
    }
}

/// The GC pacer state.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    config: PacerConfig,
    next_trigger_bytes: u64,
}

impl Pacer {
    /// A pacer with the given configuration.
    pub fn new(config: PacerConfig) -> Self {
        Pacer { config, next_trigger_bytes: config.min_trigger_bytes }
    }

    /// Whether a collection should run at the given live-heap size.
    pub fn should_collect(&self, heap_alloc_bytes: u64) -> bool {
        heap_alloc_bytes >= self.next_trigger_bytes
    }

    /// Records the live heap size after a completed cycle, computing the
    /// next trigger.
    pub fn on_cycle_end(&mut self, live_bytes: u64) {
        let scaled = (live_bytes as f64 * self.config.growth_factor) as u64;
        self.next_trigger_bytes = scaled.max(self.config.min_trigger_bytes);
    }

    /// The heap size that will trigger the next collection.
    pub fn next_trigger_bytes(&self) -> u64 {
        self.next_trigger_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_waits_for_min_trigger() {
        let p = Pacer::new(PacerConfig { growth_factor: 2.0, min_trigger_bytes: 1000 });
        assert!(!p.should_collect(999));
        assert!(p.should_collect(1000));
    }

    #[test]
    fn pacer_scales_with_live_heap() {
        let mut p = Pacer::new(PacerConfig { growth_factor: 2.0, min_trigger_bytes: 100 });
        p.on_cycle_end(5_000);
        assert_eq!(p.next_trigger_bytes(), 10_000);
        assert!(!p.should_collect(9_999));
        assert!(p.should_collect(10_000));
        // Shrinking heap lowers the trigger back towards the minimum.
        p.on_cycle_end(10);
        assert_eq!(p.next_trigger_bytes(), 100);
    }

    #[test]
    fn defaults_are_go_like() {
        assert_eq!(GolfConfig::default().detect_every, 1);
        assert!(GolfConfig::default().reclaim);
        assert!(GolfConfig::default().incremental, "incremental cycles are the default");
        assert_eq!(PacerConfig::default().growth_factor, 2.0);
    }
}
