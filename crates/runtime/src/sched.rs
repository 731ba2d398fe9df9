//! The cooperative scheduler: `GOMAXPROCS` virtual cores, randomized
//! quanta, timers and sleep handling, and global-deadlock detection.

use crate::goroutine::{GStatus, Gid, WaitReason};
use crate::vm::{go_id, Exec, RunOutcome, RunStatus, TickStatus, Vm};
use golf_trace::TraceEvent;
use rand::Rng;

/// A pluggable scheduling policy: who runs next, and for how long.
///
/// By default the VM schedules with seeded jitter drawn from its own RNG
/// (see [`VmConfig::seed`](crate::VmConfig::seed)). Installing a policy via
/// [`Vm::set_sched_policy`] replaces *both* scheduling decisions — the pick
/// at every scheduling slot and the instruction quantum — with the policy's
/// answers, and stops the scheduler from consuming the VM RNG at all. The
/// VM RNG then only feeds non-scheduling nondeterminism (`select` choice,
/// treap priorities, `RandInt`), so a decision trace of `(pick, quantum)`
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
    /// runnable candidates (run-queue order) to the installed policy and
    /// dequeues its pick. Returns the pick plus the candidate count (for
    /// the `sched_pick` trace event). Consumes no VM RNG.
    fn next_runnable_policy(&mut self) -> Option<(Gid, u32)> {
        let mut candidates: Vec<Gid> = Vec::with_capacity(self.run_queue.len());
        for &gid in &self.run_queue {
            let g = &self.goroutines[gid.index() as usize];
            if g.id == gid && g.status == GStatus::Runnable {
                candidates.push(gid);
            }
        }
        if candidates.is_empty() {
            for gid in self.run_queue.drain(..) {
                self.queued[gid.index() as usize] = false;
            }
            return None;
        }
        let policy = self.sched_policy.as_mut().expect("policy path without policy");
        let choice = policy.pick(self.tick, &candidates).min(candidates.len() - 1);
        let chosen = candidates[choice];
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
        Some((chosen, candidates.len() as u32))
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

        // Fire due timers (the runtime drops its channel reference here).
        let mut due = Vec::new();
        self.timers.retain(|t| {
            if t.fire_tick <= self.tick {
                due.push(t.ch);
                false
            } else {
                true
            }
        });
        if !due.is_empty() {
            // The fired timers' channels just left the runtime root set.
            self.roots_epoch += 1;
        }
        for ch in due {
            self.timer_fire(ch);
        }

        // Wake due sleepers.
        let now = self.tick;
        let to_wake: Vec<(Gid, u64)> = self
            .goroutines
            .iter()
            .filter(|g| {
                g.status == GStatus::Waiting(WaitReason::Sleep)
                    && g.wake_tick.is_some_and(|t| t <= now)
            })
            .map(|g| (g.id, g.wait_token))
            .collect();
        for (gid, token) in to_wake {
            self.wake(gid, token);
        }

        // Schedule up to P goroutines.
        let p = self.config.gomaxprocs.max(1);
        let has_policy = self.sched_policy.is_some();
        let mut scheduled = 0;
        for _ in 0..p {
            let picked = if has_policy {
                self.next_runnable_policy()
            } else {
                self.next_runnable().map(|gid| (gid, 0))
            };
            let Some((gid, candidates)) = picked else { break };
            scheduled += 1;
            let max_quantum = self.config.max_quantum.max(1);
            let quantum = if has_policy {
                let q = self.sched_policy.as_mut().expect("policy").quantum(max_quantum);
                q.clamp(1, max_quantum)
            } else {
                self.rng.gen_range(1..=max_quantum)
            };
            if has_policy && self.trace_enabled() {
                self.trace_emit(TraceEvent::SchedPick { gid: go_id(gid), of: candidates, quantum });
            }
            for _ in 0..quantum {
                match self.exec_one(gid) {
                    Exec::Continue => {
                        if self.fatal.is_some() {
                            return TickStatus::Panicked;
                        }
                    }
                    Exec::Parked | Exec::Finished | Exec::Yielded => break,
                }
                if self.fatal.is_some() {
                    return TickStatus::Panicked;
                }
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
        if scheduled == 0 {
            let time_can_pass = !self.timers.is_empty()
                || self.goroutines.iter().any(|g| g.status == GStatus::Waiting(WaitReason::Sleep));
            if !time_can_pass {
                // fatal error: all goroutines are asleep - deadlock!
                return TickStatus::GlobalDeadlock;
            }
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
