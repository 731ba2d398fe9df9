//! Executing one schedule: record a fresh exploration run, or replay a
//! recorded one, and collect the detection verdict.

use crate::policy::{RecordingPolicy, ReplayPolicy};
use crate::schedule::Schedule;
use crate::strategy::Strategy;
use crate::target::Target;
use golf_core::{DeadlockReport, GcTotals, Session};
use golf_runtime::{PanicPolicy, RunStatus, SchedPolicy, Vm, VmConfig};
use golf_trace::BufferSink;

/// Everything one schedule run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// The schedule that ran (recorded, or the replayed input).
    pub schedule: Schedule,
    /// Deduplicated-order deadlock reports from the detection oracle.
    pub reports: Vec<DeadlockReport>,
    /// How the run ended.
    pub status: RunStatus,
    /// Scheduler ticks consumed.
    pub ticks: u64,
    /// GC statistics across the run.
    pub totals: GcTotals,
    /// Rendered JSONL trace of the run, when capture was requested.
    pub trace: Option<String>,
}

impl RunOutput {
    /// Whether any report matches one of the target's expected sites.
    pub fn found_sites<'a>(&'a self, expected: &'a [String]) -> impl Iterator<Item = &'a str> {
        self.reports
            .iter()
            .filter_map(|r| r.spawn_site.as_deref())
            .filter(move |s| expected.iter().any(|e| e == s))
    }
}

/// The upper estimate of scheduling slots in a run, used to spread a
/// strategy's change/delay points over the whole execution.
pub fn expected_slots(target: &Target) -> u64 {
    target.tick_budget.saturating_mul(target.procs as u64)
}

fn execute(
    target: &Target,
    vm_seed: u64,
    policy: Box<dyn SchedPolicy>,
    capture_trace: bool,
) -> (Vec<DeadlockReport>, RunStatus, u64, GcTotals, Option<String>, u32) {
    let config = VmConfig {
        gomaxprocs: target.procs,
        seed: vm_seed,
        // Benchmark-inherent panics (send on closed) must not abort the
        // exploration campaign.
        panic_policy: PanicPolicy::KillGoroutine,
        ..VmConfig::default()
    };
    let max_quantum = config.max_quantum;
    let mut vm = Vm::boot(target.build_program(), config);
    vm.set_sched_policy(Some(policy));
    let mut session = Session::golf(vm);
    let buffer = capture_trace.then(BufferSink::new);
    session.set_trace_sink(buffer.clone());
    let outcome = session.run(target.tick_budget);
    session.collect();
    (
        session.reports().to_vec(),
        outcome.status,
        outcome.ticks,
        *session.gc_totals(),
        buffer.map(|b| b.contents()),
        max_quantum,
    )
}

/// Runs one fresh exploration schedule: the strategy mints a policy from
/// `strategy_seed`, the run records every decision, and the returned
/// [`Schedule`] replays the run byte-identically.
pub fn record_run(
    target: &Target,
    vm_seed: u64,
    strategy: &dyn Strategy,
    strategy_seed: u64,
    capture_trace: bool,
) -> RunOutput {
    let max_quantum = VmConfig::default().max_quantum;
    let inner = strategy.policy(strategy_seed, expected_slots(target), max_quantum);
    let (recording, log) = RecordingPolicy::new(inner);
    let (reports, status, ticks, totals, trace, max_quantum) =
        execute(target, vm_seed, Box::new(recording), capture_trace);
    let decisions = std::mem::take(&mut *log.lock().expect("poisoned"));
    let schedule = Schedule {
        target: target.name.clone(),
        strategy: strategy.name(),
        seed: vm_seed,
        procs: target.procs,
        tick_budget: target.tick_budget,
        max_quantum,
        decisions,
    };
    RunOutput { schedule, reports, status, ticks, totals, trace }
}

/// Replays a recorded schedule against the target. With the same target
/// program, the replay reproduces the recorded run exactly: same reports,
/// same GC statistics, same trace bytes.
pub fn replay_run(target: &Target, schedule: &Schedule, capture_trace: bool) -> RunOutput {
    let policy = ReplayPolicy::new(schedule.decisions.clone());
    let (reports, status, ticks, totals, trace, _) =
        execute(target, schedule.seed, Box::new(policy), capture_trace);
    RunOutput { schedule: schedule.clone(), reports, status, ticks, totals, trace }
}
