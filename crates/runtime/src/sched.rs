//! The cooperative scheduler: `GOMAXPROCS` virtual cores, randomized
//! quanta, timers and sleep handling, and global-deadlock detection.

use crate::goroutine::{GStatus, Gid};
use crate::vm::{Alarm, RunOutcome, RunStatus, TickStatus, Vm};
use golf_trace::TraceEvent;
use rand::Rng;
use std::collections::binary_heap::PeekMut;

/// A pluggable scheduling policy: who runs next, and for how long.
///
/// By default the VM schedules with seeded jitter drawn from its own RNG
/// (see [`VmConfig::seed`](crate::VmConfig::seed)). Installing a policy via
/// [`Vm::set_sched_policy`] replaces *both* scheduling decisions — the pick
/// at every scheduling slot and the instruction quantum — with the policy's
/// answers, and stops the scheduler from consuming the VM RNG at all. The
/// VM RNG then only feeds non-scheduling nondeterminism (`select` choice
/// and `RandInt`), so a decision trace of `(pick, quantum)`
/// pairs plus the VM seed pins the entire execution: this is the hook
/// `golf-explore` builds systematic schedule exploration, recording and
/// byte-identical replay on.
///
/// Determinism contract: `pick` must be a pure function of the policy's own
/// state and its arguments. `candidates` lists the currently runnable
/// goroutines in run-queue (FIFO) order — index 0 is what the unjittered
/// scheduler would run — and is never empty. Out-of-range picks are clamped
/// by the caller; quanta are clamped to `1..=max_quantum`.
pub trait SchedPolicy: Send {
    /// Picks which candidate runs in this scheduling slot, as an index into
    /// `candidates`.
    fn pick(&mut self, tick: u64, candidates: &[Gid]) -> usize;

    /// Instruction quantum for the goroutine just picked. The default keeps
    /// the maximum quantum (no preemption jitter).
    fn quantum(&mut self, max_quantum: u32) -> u32 {
        max_quantum
    }
}

impl Vm {
    /// Pops the next valid runnable goroutine from the run queue.
    fn next_runnable(&mut self) -> Option<Gid> {
        // Occasionally promote a random near-front entry, modeling OS-level
        // scheduling jitter deterministically from the seed.
        if self.run_queue.len() > 1 && self.rng.gen_ratio(1, 4) {
            let k = self.rng.gen_range(0..self.run_queue.len().min(4));
            self.run_queue.swap(0, k);
        }
        while let Some(gid) = self.run_queue.pop_front() {
            let idx = gid.index() as usize;
            self.queued[idx] = false;
            let g = &self.goroutines[idx];
            if g.id == gid && g.status == GStatus::Runnable {
                return Some(gid);
            }
        }
        None
    }

    /// Policy-driven variant of [`Vm::next_runnable`]: presents the valid
    /// runnable candidates (run-queue order) to `policy` and dequeues its
    /// pick. Returns the pick plus the candidate count (for the
    /// `sched_pick` trace event). Consumes no VM RNG, and lists the
    /// candidates in the VM's reused buffer.
    fn next_runnable_policy(&mut self, policy: &mut dyn SchedPolicy) -> Option<(Gid, u32)> {
        self.candidates.clear();
        for &gid in &self.run_queue {
            let g = &self.goroutines[gid.index() as usize];
            if g.id == gid && g.status == GStatus::Runnable {
                self.candidates.push(gid);
            }
        }
        let n = self.candidates.len();
        if n == 0 {
            for gid in self.run_queue.drain(..) {
                self.queued[gid.index() as usize] = false;
            }
            return None;
        }
        let chosen = self.candidates[policy.pick(self.tick, &self.candidates).min(n - 1)];
        // Drop the chosen entry and every stale entry from the queue.
        let Vm { run_queue, goroutines, queued, .. } = self;
        let mut taken = false;
        run_queue.retain(|&gid| {
            let idx = gid.index() as usize;
            let valid = goroutines[idx].id == gid && goroutines[idx].status == GStatus::Runnable;
            let keep = valid && (taken || gid != chosen);
            if !keep {
                taken |= gid == chosen;
                queued[idx] = false;
            }
            keep
        });
        Some((chosen, n as u32))
    }

    /// Runs one scheduler round: fire due timers, wake due sleepers, then
    /// let up to `gomaxprocs` goroutines execute a randomized quantum each.
    pub fn step_tick(&mut self) -> TickStatus {
        if self.fatal.is_some() {
            return TickStatus::Panicked;
        }
        if self.main_done {
            return TickStatus::MainDone;
        }
        self.tick += 1;

        // Run the due alarms in `Alarm` order — timers by creation, then
        // sleepers by slot — not in deadline order: `advance_ticks` can make
        // several deadlines fall due in one tick.
        while let Some(top) = self.alarms.peek_mut() {
            if top.0 .0 > self.tick {
                break;
            }
            self.due.push(PeekMut::pop(top).0 .1);
        }
        self.due.sort_unstable();
        if let Some(Alarm::Fire { .. }) = self.due.first() {
            // The fired timers' channels just left the runtime root set.
            self.roots_epoch += 1;
        }
        for i in 0..self.due.len() {
            match self.due[i] {
                Alarm::Fire { ch, .. } => self.timer_fire(ch),
                Alarm::Wake { gid, token } => _ = self.wake(gid, token),
            }
        }
        self.due.clear();

        // Schedule up to P goroutines.
        let p = self.config.gomaxprocs.max(1);
        let max_quantum = self.config.max_quantum.max(1);
        let mut scheduled = 0;
        for _ in 0..p {
            // The policy, if any, picks the goroutine and its quantum.
            let picked = match self.sched_policy.take() {
                Some(mut policy) => {
                    let picked = self.next_runnable_policy(policy.as_mut()).map(|(gid, of)| {
                        (gid, policy.quantum(max_quantum).clamp(1, max_quantum), Some(of))
                    });
                    self.sched_policy = Some(policy);
                    picked
                }
                None => {
                    self.next_runnable().map(|gid| (gid, self.rng.gen_range(1..=max_quantum), None))
                }
            };
            let Some((gid, quantum, of)) = picked else { break };
            scheduled += 1;
            if let (Some(of), true) = (of, self.trace_enabled()) {
                self.trace_emit(TraceEvent::SchedPick { gid: gid.into(), of, quantum });
            }
            if self.run_quantum(gid, quantum) {
                return TickStatus::Panicked;
            }
            // Requeue if still runnable after its quantum.
            let idx = gid.index() as usize;
            let g = &self.goroutines[idx];
            if g.id == gid && g.status == GStatus::Runnable && !self.queued[idx] {
                self.queued[idx] = true;
                self.run_queue.push_back(gid);
            }
        }

        if self.fatal.is_some() {
            return TickStatus::Panicked;
        }
        if self.main_done {
            return TickStatus::MainDone;
        }
        if scheduled == 0 && self.alarms.is_empty() {
            // fatal error: all goroutines are asleep - deadlock!
            return TickStatus::GlobalDeadlock;
        }
        TickStatus::Progress
    }

    /// Runs until the main goroutine returns, the program globally
    /// deadlocks, a fatal panic occurs, or `max_ticks` elapse.
    ///
    /// Garbage collection does **not** run here — pair the VM with
    /// `golf_core::Session` for collected execution.
    pub fn run(&mut self, max_ticks: u64) -> RunOutcome {
        let start = self.tick;
        let status = loop {
            match self.step_tick() {
                TickStatus::Progress => {
                    if self.tick - start >= max_ticks {
                        break RunStatus::TickLimit;
                    }
                }
                TickStatus::MainDone => break RunStatus::MainDone,
                TickStatus::GlobalDeadlock => break RunStatus::GlobalDeadlock,
                TickStatus::Panicked => break RunStatus::Panicked,
            }
        };
        self.outcome(status)
    }

    fn outcome(&self, status: RunStatus) -> RunOutcome {
        RunOutcome { status, ticks: self.tick, instrs: self.instrs }
    }
}
