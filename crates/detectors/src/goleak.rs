//! GOLEAK-style end-of-test leak detection.

use golf_runtime::{GStatus, Gid, Vm, WaitReason};
use serde::{Deserialize, Serialize};

/// Filtering options, mirroring `goleak.IgnoreCurrent` and the paper's
/// fairness filters (§6.1 RQ1(b)): GOLEAK natively flags *every*
/// unterminated goroutine, including those blocked on IO and runaway-live
/// ones; the paper excludes those categories when comparing against GOLF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoleakOptions {
    /// Skip the main goroutine (it is "current" at check time).
    pub ignore_current: bool,
    /// Skip goroutines blocked in sleeps (timers legitimately linger).
    pub ignore_sleeping: bool,
    /// Skip goroutines blocked on IO.
    pub ignore_io: bool,
    /// Skip runnable (runaway-live) goroutines — the paper's fairness
    /// filter; set to `false` to see raw GOLEAK behaviour.
    pub ignore_runnable: bool,
}

impl Default for GoleakOptions {
    fn default() -> Self {
        GoleakOptions {
            ignore_current: true,
            ignore_sleeping: true,
            ignore_io: true,
            ignore_runnable: true,
        }
    }
}

impl GoleakOptions {
    /// Raw GOLEAK behaviour: flag every unterminated goroutine.
    pub fn raw() -> Self {
        GoleakOptions {
            ignore_current: true,
            ignore_sleeping: false,
            ignore_io: false,
            ignore_runnable: false,
        }
    }
}

/// One lingering goroutine found at end of test.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeakEntry {
    /// The lingering goroutine.
    pub gid: Gid,
    /// Why it is parked, if parked.
    pub wait_reason: Option<WaitReason>,
    /// `func:pc` of its current position.
    pub location: String,
    /// Label of the `go` statement that created it, if known.
    pub spawn_site: Option<String>,
}

impl LeakEntry {
    /// The deduplication key, compatible with
    /// [`DeadlockReport::dedup_key`](golf_core::DeadlockReport::dedup_key):
    /// `(blocking location, spawn site)`. Borrows from the entry.
    pub fn dedup_key(&self) -> (&str, &str) {
        (self.location.as_str(), self.spawn_site.as_deref().unwrap_or_default())
    }

    /// Owned form of [`LeakEntry::dedup_key`], for aggregation maps that
    /// outlive the entry.
    pub fn dedup_key_owned(&self) -> (String, String) {
        let (loc, site) = self.dedup_key();
        (loc.to_string(), site.to_string())
    }
}

/// Inspects the VM "at end of test" and reports lingering goroutines.
///
/// Call after the program's main function has returned (or the test body
/// finished). All goroutines in a partial deadlock are unterminated here,
/// so this is complete w.r.t. deadlocks — but it cannot tell a deadlocked
/// goroutine from one that would terminate given more time, and it cannot
/// run in production.
///
/// # Example
///
/// ```
/// use golf_detectors::{find_leaks, GoleakOptions};
/// use golf_runtime::{ProgramSet, FuncBuilder, Vm, VmConfig};
///
/// let mut p = ProgramSet::new();
/// let site = p.site("main:go");
/// let mut b = FuncBuilder::new("leaky", 1);
/// let ch = b.param(0);
/// let v = b.int(1);
/// b.send(ch, v);
/// let leaky = p.define(b);
/// let mut b = FuncBuilder::new("main", 0);
/// let ch = b.var("ch");
/// b.make_chan(ch, 0);
/// b.go(leaky, &[ch], site);
/// b.sleep(10);
/// b.ret(None);
/// p.define(b);
///
/// let mut vm = Vm::boot(p, VmConfig::default());
/// vm.run(10_000);
/// let leaks = find_leaks(&vm, GoleakOptions::default());
/// assert_eq!(leaks.len(), 1);
/// assert!(leaks[0].location.starts_with("leaky:"));
/// ```
pub fn find_leaks(vm: &Vm, opts: GoleakOptions) -> Vec<LeakEntry> {
    let mut out = Vec::new();
    for g in vm.live_goroutines() {
        if g.internal {
            continue;
        }
        if opts.ignore_current && g.id == vm.main_gid() {
            continue;
        }
        match g.status {
            GStatus::Dead => continue,
            GStatus::Runnable if opts.ignore_runnable => continue,
            GStatus::Waiting(WaitReason::Sleep) if opts.ignore_sleeping => continue,
            GStatus::Waiting(WaitReason::IoWait) if opts.ignore_io => continue,
            GStatus::Waiting(WaitReason::RuntimeInternal) => continue,
            _ => {}
        }
        let location = g
            .frames
            .last()
            .map(|f| vm.program().describe_loc(f.func, f.pc))
            .unwrap_or_else(|| "<no frame>".into());
        out.push(LeakEntry {
            gid: g.id,
            wait_reason: g.wait_reason(),
            location,
            spawn_site: g.spawn_site.map(|s| vm.program().site_info(s).label.to_string()),
        });
    }
    out.sort_by_key(|a| a.gid);
    out
}

/// Like [`find_leaks`], but with real GOLEAK's retry loop: if anything is
/// flagged, the runtime is given `retry_ticks` more of execution (up to
/// `max_retries` times) before the verdict — slow-but-healthy goroutines
/// get a chance to finish, reducing end-of-test flakiness.
///
/// Call while the runtime can still make progress (i.e. before the main
/// goroutine returns — in Go terms, inside the test binary, not after
/// process exit); once main is done the VM is frozen and retries are
/// no-ops.
pub fn find_leaks_with_retry(
    vm: &mut Vm,
    opts: GoleakOptions,
    max_retries: u32,
    retry_ticks: u64,
) -> Vec<LeakEntry> {
    let mut leaks = find_leaks(vm, opts);
    for _ in 0..max_retries {
        if leaks.is_empty() {
            break;
        }
        vm.run(retry_ticks);
        leaks = find_leaks(vm, opts);
    }
    leaks
}

#[cfg(test)]
mod tests {
    use super::*;
    use golf_runtime::{FuncBuilder, ProgramSet, VmConfig};

    fn leaky_plus_sleeper() -> Vm {
        let mut p = ProgramSet::new();
        let s1 = p.site("main:leak");
        let s2 = p.site("main:sleep");

        let mut b = FuncBuilder::new("leaky", 1);
        let ch = b.param(0);
        let v = b.int(1);
        b.send(ch, v);
        let leaky = p.define(b);

        let mut b = FuncBuilder::new("sleeper", 0);
        b.sleep(1_000_000);
        let sleeper = p.define(b);

        let mut b = FuncBuilder::new("main", 0);
        let ch = b.var("ch");
        b.make_chan(ch, 0);
        b.go(leaky, &[ch], s1);
        b.go(sleeper, &[], s2);
        b.sleep(10);
        b.ret(None);
        p.define(b);

        let mut vm = Vm::boot(p, VmConfig::default());
        vm.run(10_000);
        vm
    }

    #[test]
    fn default_options_filter_sleepers() {
        let vm = leaky_plus_sleeper();
        let leaks = find_leaks(&vm, GoleakOptions::default());
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].wait_reason, Some(WaitReason::ChanSend));
        assert_eq!(leaks[0].spawn_site.as_deref(), Some("main:leak"));
    }

    #[test]
    fn raw_options_flag_everything_unterminated() {
        let vm = leaky_plus_sleeper();
        let leaks = find_leaks(&vm, GoleakOptions::raw());
        assert_eq!(leaks.len(), 2, "raw goleak also flags the sleeper");
    }

    #[test]
    fn clean_program_reports_nothing() {
        let mut p = ProgramSet::new();
        let mut b = FuncBuilder::new("main", 0);
        b.nop();
        b.ret(None);
        p.define(b);
        let mut vm = Vm::boot(p, VmConfig::default());
        vm.run(1_000);
        assert!(find_leaks(&vm, GoleakOptions::default()).is_empty());
        assert!(find_leaks(&vm, GoleakOptions::raw()).is_empty());
    }

    #[test]
    fn retry_absolves_slow_finishers_but_not_leaks() {
        let mut p = ProgramSet::new();
        let s_slow = p.site("main:slow");
        let s_leak = p.site("main:leak");

        let mut b = FuncBuilder::new("slow", 1);
        let ch = b.param(0);
        b.recv(ch, None); // healthy: main's timer goroutine will serve it
        b.ret(None);
        let slow = p.define(b);

        let mut b = FuncBuilder::new("leaky", 1);
        let ch = b.param(0);
        let v = b.int(1);
        b.send(ch, v);
        b.ret(None);
        let leaky = p.define(b);

        let mut b = FuncBuilder::new("server", 1);
        let ch = b.param(0);
        b.sleep(200); // wakes after the first goleak inspection
        let v = b.int(1);
        b.send(ch, v);
        b.ret(None);
        let server = p.define(b);
        let s_srv = p.site("main:server");

        // The "test body" finishes but the process stays alive (goleak runs
        // inside the still-live runtime): main parks on a long sleep.
        let mut b = FuncBuilder::new("main", 0);
        let a = b.var("a");
        let c = b.var("c");
        b.make_chan(a, 0);
        b.make_chan(c, 0);
        b.go(slow, &[a], s_slow);
        b.go(server, &[a], s_srv);
        b.go(leaky, &[c], s_leak);
        b.sleep(1_000_000);
        p.define(b);

        let mut vm = Vm::boot(p, VmConfig::default());
        vm.run(50);
        // Without retries: both the slow-but-healthy and the leaky one.
        assert_eq!(find_leaks(&vm, GoleakOptions::default()).len(), 2);
        // With retries: the server fires, the slow goroutine finishes, only
        // the true leak remains.
        let leaks = find_leaks_with_retry(&mut vm, GoleakOptions::default(), 3, 300);
        assert_eq!(leaks.len(), 1, "{leaks:?}");
        assert_eq!(leaks[0].spawn_site.as_deref(), Some("main:leak"));
    }

    #[test]
    fn dedup_key_matches_golf_reports() {
        let vm = leaky_plus_sleeper();
        let leaks = find_leaks(&vm, GoleakOptions::default());
        assert_eq!(leaks[0].dedup_key(), ("leaky:1", "main:leak"));
    }
}
