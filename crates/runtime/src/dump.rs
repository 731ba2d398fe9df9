//! Human-readable runtime state dumps — the equivalent of Go's
//! `SIGQUIT` goroutine dump, for debugging guest programs and inspecting
//! leaks by hand.

use crate::goroutine::GStatus;
use crate::vm::Vm;
use std::fmt::Write as _;

impl Vm {
    /// Renders a goroutine dump plus heap and scheduler statistics.
    ///
    /// # Example
    ///
    /// ```
    /// use golf_runtime::{ProgramSet, FuncBuilder, Vm, VmConfig};
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
    /// let dump = vm.dump_state();
    /// assert!(dump.contains("chan send"));
    /// assert!(dump.contains("leaky"));
    /// ```
    pub fn dump_state(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== runtime state @tick {} ({} instrs executed) ===",
            self.now(),
            self.instrs_executed()
        );
        let stats = self.heap().stats();
        let _ = writeln!(
            out,
            "heap: {} objects / {} bytes live; {} allocs, {} frees total",
            stats.heap_objects, stats.heap_alloc_bytes, stats.total_allocs, stats.total_frees
        );
        let _ = writeln!(
            out,
            "goroutines: {} live ({} blocked at deadlock-eligible ops), stacks {} B",
            self.live_count(),
            self.blocked_count(),
            self.stack_bytes()
        );
        for g in self.live_goroutines() {
            let status = match g.status {
                GStatus::Runnable => "runnable".to_string(),
                GStatus::Waiting(r) => format!("waiting [{r}]"),
                GStatus::Deadlocked => "deadlocked (preserved)".to_string(),
                GStatus::Dead => continue,
            };
            let main_marker = if g.id == self.main_gid() { " (main)" } else { "" };
            let _ = writeln!(out, "goroutine {}{main_marker}: {status}", g.id);
            for frame in g.frames.iter().rev() {
                let _ = writeln!(out, "    {}", self.program().describe_loc(frame.func, frame.pc));
            }
            if let Some(site) = g.spawn_site {
                let _ = writeln!(
                    out,
                    "    created by go statement at {}",
                    self.program().site_info(site).label
                );
            }
            for &h in g.blocked.handles() {
                let kind = self.heap().get(h).map(golf_heap::Trace::kind).unwrap_or("<freed>");
                let _ = writeln!(out, "    blocked on {kind} {h}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FuncBuilder;
    use crate::func::ProgramSet;
    use crate::vm::{Vm, VmConfig};

    #[test]
    fn dump_lists_blocked_goroutines_with_sites() {
        let mut p = ProgramSet::new();
        let site = p.site("spawnHere:9");
        let mut b = FuncBuilder::new("stuck", 1);
        let ch = b.param(0);
        b.recv(ch, None);
        b.ret(None);
        let stuck = p.define(b);
        let mut b = FuncBuilder::new("main", 0);
        let ch = b.var("ch");
        b.make_chan(ch, 0);
        b.go(stuck, &[ch], site);
        b.sleep(1_000_000);
        p.define(b);

        let mut vm = Vm::boot(p, VmConfig::default());
        vm.run(100);
        let dump = vm.dump_state();
        assert!(dump.contains("waiting [chan receive]"), "{dump}");
        assert!(dump.contains("created by go statement at spawnHere:9"));
        assert!(dump.contains("blocked on chan"));
        assert!(dump.contains("(main)"));
    }
}
