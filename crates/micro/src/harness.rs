//! Single-run execution of one microbenchmark under GOLF.

use crate::corpus::Microbenchmark;
use golf_core::{GolfConfig, Session};
use golf_runtime::{PanicPolicy, RunStatus, Vm, VmConfig};
use golf_trace::BufferSink;
use std::collections::BTreeSet;

/// Parameters for one microbenchmark run.
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// Virtual cores (`GOMAXPROCS`).
    pub procs: usize,
    /// Seed for every source of nondeterminism in the run.
    pub seed: u64,
    /// Scheduler-tick budget, standing in for the paper's five-second
    /// termination deadline.
    pub tick_budget: u64,
    /// Cap on concurrent instances for flaky benchmarks.
    pub max_instances: usize,
    /// GOLF collector options: incremental replay (`--full-gc` clears
    /// `golf.incremental`), detection cadence, reclamation. Incremental
    /// and full runs yield the same results and the same trace.
    pub golf: GolfConfig,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings {
            procs: 1,
            seed: 0,
            tick_budget: 3_000,
            max_instances: 24,
            golf: GolfConfig::default(),
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct BenchRunResult {
    /// Distinct spawn-site labels for which GOLF reported a deadlock.
    pub detected_sites: BTreeSet<String>,
    /// Total individual deadlock reports.
    pub report_count: usize,
    /// Whether the run ended in a runtime failure (panic) — some goker
    /// benchmarks inherently race close against send, as the artifact
    /// notes for `etcd/7443`.
    pub runtime_failure: bool,
    /// Site labels that were reported but are not annotated as expected —
    /// the artifact's "Unexpected DL" marker.
    pub unexpected_sites: BTreeSet<String>,
    /// Scheduler ticks consumed.
    pub ticks: u64,
}

/// Scales the paper's flakiness score (1–10 000) to a number of concurrent
/// instances: deterministic bugs need one instance; flakier bugs are
/// amplified, capped by the settings.
pub fn instances_for(flakiness: u32, max_instances: usize) -> usize {
    let n = match flakiness {
        0..=1 => 1,
        2..=10 => 4,
        11..=100 => 8,
        101..=1000 => 16,
        _ => 24,
    };
    n.min(max_instances.max(1))
}

/// Runs one microbenchmark once under GOLF (detection every cycle,
/// reclamation on), mirroring the artifact's tester: execute until the
/// deadline, then force a final collection and gather the reports.
pub fn run_benchmark(mb: &Microbenchmark, settings: &RunSettings) -> BenchRunResult {
    run_benchmark_with_sink(mb, settings, None)
}

/// Like [`run_benchmark`], but rendering the run's trace events into
/// `sink`. Parallel sweeps pass one buffer per benchmark here and collect
/// the buffers in a fixed order afterwards.
pub fn run_benchmark_with_sink(
    mb: &Microbenchmark,
    settings: &RunSettings,
    sink: Option<BufferSink>,
) -> BenchRunResult {
    let n = instances_for(mb.flakiness, settings.max_instances);
    let program = (mb.build)(n);
    let config = VmConfig {
        gomaxprocs: settings.procs,
        seed: settings.seed,
        // Benchmark-inherent panics (send on closed) must not abort the
        // whole measurement run.
        panic_policy: PanicPolicy::KillGoroutine,
        ..VmConfig::default()
    };
    let vm = Vm::boot(program, config);
    let mut session = Session::golf(vm);
    session.engine_mut().set_golf_config(settings.golf);
    session.set_trace_sink(sink);
    let outcome = session.run(settings.tick_budget);
    // Let in-flight instances quiesce, then take the final GC, as in the
    // artifact's template (`time.Sleep(...); runtime.GC()`).
    session.collect();

    let mut detected_sites = BTreeSet::new();
    let mut unexpected = BTreeSet::new();
    for r in session.reports() {
        if let Some(site) = &r.spawn_site {
            let label: &str = site;
            if mb.sites.contains(&label) {
                detected_sites.insert(label.to_string());
            } else {
                unexpected.insert(label.to_string());
            }
        } else {
            unexpected.insert(format!("<main> at {}", r.block_location));
        }
    }
    BenchRunResult {
        detected_sites,
        report_count: session.reports().len(),
        runtime_failure: outcome.status == RunStatus::Panicked || !session.vm().panics().is_empty(),
        unexpected_sites: unexpected,
        ticks: outcome.ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_scaling_bands() {
        assert_eq!(instances_for(1, 24), 1);
        assert_eq!(instances_for(10, 24), 4);
        assert_eq!(instances_for(100, 24), 8);
        assert_eq!(instances_for(1000, 24), 16);
        assert_eq!(instances_for(10_000, 24), 24);
        assert_eq!(instances_for(10_000, 8), 8, "cap respected");
        assert_eq!(instances_for(1, 0), 1, "at least one instance");
    }
}
