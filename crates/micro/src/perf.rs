//! The RQ2 marking-phase comparison: baseline GC vs GOLF over the 105
//! programs (73 buggy + 32 fixed) — the paper's Figure 4.

use crate::corpus::corpus;
use golf_core::Session;
use golf_metrics::BoxPlot;
use golf_runtime::{PanicPolicy, Vm, VmConfig};

/// Settings for the perf comparison. Like the paper, it runs one instance
/// of each program at one core ([`VmConfig`]'s default `gomaxprocs`); more
/// instances would add live blocked goroutines whose liveness checks shift
/// the correct-program slowdowns above the paper's.
#[derive(Debug, Clone)]
pub struct PerfSettings {
    /// Repetitions per (program, collector) pair (the paper uses 5).
    pub repetitions: u32,
    /// Tick budget per run.
    pub tick_budget: u64,
    /// Base seed.
    pub seed: u64,
}

impl Default for PerfSettings {
    fn default() -> Self {
        PerfSettings { repetitions: 5, tick_budget: 3_000, seed: 0xF16 }
    }
}

/// Mark-phase timing for one program under both collectors.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Program name (fixed variants get a `(fixed)` suffix).
    pub name: String,
    /// Whether this is a deadlocking (buggy) program.
    pub buggy: bool,
    /// Mean marking time per cycle under the baseline collector, in µs.
    pub baseline_mark_us: f64,
    /// Mean marking time per cycle under GOLF, in µs.
    pub golf_mark_us: f64,
    /// `golf / baseline` — values < 1 mean GOLF was *faster* (it marks
    /// less when goroutines are deadlocked).
    pub slowdown: f64,
    /// GC cycles observed under the baseline.
    pub baseline_cycles: u64,
    /// GC cycles observed under GOLF.
    pub golf_cycles: u64,
}

/// Box-plot summary for one program group.
#[derive(Debug, Clone)]
pub struct PerfGroupSummary {
    /// Group label (`"correct"` / `"deadlocking"`).
    pub label: &'static str,
    /// Distribution of per-program slowdowns.
    pub slowdown: BoxPlot,
    /// Worst absolute GOLF mark time in the group, µs.
    pub max_golf_mark_us: f64,
}

/// A microbenchmark program constructor (instances → program).
type BuildFn = fn(usize) -> golf_runtime::ProgramSet;

fn measure(build: BuildFn, golf: bool, s: &PerfSettings) -> (f64, u64) {
    let mut mark_ns_total = 0u64;
    let mut cycles_total = 0u64;
    for rep in 0..s.repetitions {
        let vm = Vm::boot(
            build(1),
            VmConfig {
                seed: s.seed.wrapping_add(u64::from(rep)),
                panic_policy: PanicPolicy::KillGoroutine,
                ..VmConfig::default()
            },
        );
        let mut session = if golf { Session::golf(vm) } else { Session::baseline(vm) };
        session.engine_mut().set_keep_history(false);
        session.run(s.tick_budget);
        session.collect();
        let totals = session.gc_totals();
        mark_ns_total += totals.mark_total_ns;
        cycles_total += totals.num_gc;
    }
    let mean_us =
        if cycles_total == 0 { 0.0 } else { mark_ns_total as f64 / cycles_total as f64 / 1_000.0 };
    (mean_us, cycles_total / u64::from(s.repetitions.max(1)))
}

/// Measures every program in the Figure 4 set under both collectors.
pub fn run_perf_comparison(settings: &PerfSettings) -> Vec<PerfRow> {
    let mut rows = Vec::new();
    for mb in corpus() {
        let mut programs: Vec<(String, bool, BuildFn)> =
            vec![(mb.name.to_string(), true, mb.build)];
        if let Some(fixed) = mb.build_fixed {
            programs.push((format!("{} (fixed)", mb.name), false, fixed));
        }
        for (name, buggy, build) in programs {
            let (base_us, base_cycles) = measure(build, false, settings);
            let (golf_us, golf_cycles) = measure(build, true, settings);
            let slowdown = if base_us > 0.0 { golf_us / base_us } else { 1.0 };
            rows.push(PerfRow {
                name,
                buggy,
                baseline_mark_us: base_us,
                golf_mark_us: golf_us,
                slowdown,
                baseline_cycles: base_cycles,
                golf_cycles,
            });
        }
    }
    rows
}

/// Splits perf rows into the paper's two box-plot groups.
pub fn summarize_groups(rows: &[PerfRow]) -> Vec<PerfGroupSummary> {
    let mut out = Vec::new();
    for (label, buggy) in [("correct", false), ("deadlocking", true)] {
        let slowdowns: Vec<f64> =
            rows.iter().filter(|r| r.buggy == buggy).map(|r| r.slowdown).collect();
        let max_mark =
            rows.iter().filter(|r| r.buggy == buggy).map(|r| r.golf_mark_us).fold(0.0f64, f64::max);
        if let Some(slowdown) = BoxPlot::of(&slowdowns) {
            out.push(PerfGroupSummary { label, slowdown, max_golf_mark_us: max_mark });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_rows_cover_105_programs() {
        // Tiny settings: just verify plumbing, not timing quality.
        let rows = run_perf_comparison(&PerfSettings {
            repetitions: 1,
            tick_budget: 800,
            ..PerfSettings::default()
        });
        assert_eq!(rows.len(), 105, "73 buggy + 32 fixed");
        assert!(rows.iter().all(|r| r.golf_cycles >= 1));
        let groups = summarize_groups(&rows);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].label, "correct");
        assert_eq!(groups[1].label, "deadlocking");
        assert_eq!(groups[0].slowdown.n, 32);
        assert_eq!(groups[1].slowdown.n, 73);
    }
}
