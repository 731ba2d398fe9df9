//! The interpreter's hot path does not allocate: once a program has warmed
//! up its buffers, calls and returns, `go` statements that land in a
//! recycled goroutine slot, and `select`s that take a ready case or their
//! `default` run without a single heap allocation, under the default
//! scheduler and under a scheduling policy alike.
//!
//! Allocations are counted per thread, so the other tests of this binary,
//! which run concurrently, do not disturb the count.

use golf_runtime::{
    BinOp, FuncBuilder, Gid, GlobalId, ProgramSet, SchedPolicy, SelectSpec, Value, Var, Vm,
    VmConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// `n += 1; global = n`.
fn bump(b: &mut FuncBuilder, n: Var, global: GlobalId) {
    let one = b.int(1);
    b.bin(BinOp::Add, n, n, one);
    b.set_global(global, n);
}

/// Spawns a pool of workers, then loops
/// `for { n = add(n, 1); go worker(n); select { case ch <- n: default: };
/// select { case <-ch: default: }; select { case <-ch: default: }; yield }`:
/// each iteration calls and returns, spawns a goroutine that returns at
/// once (so the next `go` reuses its slot), takes a ready send and a ready
/// receive, and falls through one `default`.
fn program() -> (ProgramSet, [GlobalId; 2]) {
    let mut p = ProgramSet::new();
    let ready = p.global("ready");
    let defaults = p.global("defaults");
    let site = p.site("worker");

    let mut b = FuncBuilder::new("add", 2);
    let (x, y) = (b.param(0), b.param(1));
    let sum = b.var("sum");
    b.bin(BinOp::Add, sum, x, y);
    b.ret(Some(sum));
    let add = p.define(b);

    let mut b = FuncBuilder::new("worker", 1);
    b.ret(None);
    let worker = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    let n = b.var("n");
    let got = b.var("got");
    let (n_ready, n_default) = (b.var("n_ready"), b.var("n_default"));
    let one = b.int(1);
    b.make_chan(ch, 1);
    for v in [n, n_ready, n_default] {
        b.konst(v, Value::Int(0));
    }
    // A pool of slots, so that the scheduler's jitter, which can let a few
    // workers pile up, still finds a free one to recycle.
    b.repeat(8, |b, i| b.go(worker, &[i], site));
    b.forever(|b| {
        b.call(add, &[n, one], Some(n));
        b.go(worker, &[n], site);
        for send in [true, false, false] {
            let (case, default, join) = (b.label(), b.label(), b.label());
            let spec = match send {
                true => SelectSpec::new().send(ch, n, case),
                false => SelectSpec::new().recv(ch, Some(got), case),
            };
            b.select(spec.default_case(default));
            b.bind(case);
            bump(b, n_ready, ready);
            b.jump(join);
            b.bind(default);
            bump(b, n_default, defaults);
            b.bind(join);
        }
        b.yield_now();
    });
    p.define(b);
    (p, [ready, defaults])
}

/// Always runs the first runnable goroutine in run-queue order.
struct Fifo;

impl SchedPolicy for Fifo {
    fn pick(&mut self, _tick: u64, _candidates: &[Gid]) -> usize {
        0
    }
}

/// Runs `ticks` scheduler rounds and returns the allocations they made.
fn allocs_during(vm: &mut Vm, ticks: u32) -> u64 {
    let before = allocs();
    for _ in 0..ticks {
        vm.step_tick();
    }
    allocs() - before
}

#[test]
fn dispatch_does_not_allocate_after_warm_up() {
    let (p, [ready, defaults]) = program();
    let config = VmConfig { gomaxprocs: 2, seed: 7, ..VmConfig::default() };
    let mut vm = Vm::boot(p, config);
    for policy in [None, Some(Box::new(Fifo) as Box<dyn SchedPolicy>)] {
        vm.set_sched_policy(policy);
        allocs_during(&mut vm, 2_000);
        let (instrs, reused) = (vm.instrs_executed(), vm.counters().reused);
        let (ready_before, defaults_before) = (vm.global(ready), vm.global(defaults));

        assert_eq!(allocs_during(&mut vm, 20_000), 0, "the warmed-up interpreter allocated");

        // The window ran every operation the claim covers.
        assert!(vm.instrs_executed() - instrs > 100_000);
        assert!(vm.counters().reused - reused > 1_000, "`go` did not land in recycled slots");
        assert!(vm.global(ready).as_int() > ready_before.as_int().map(|n| n + 1_000));
        assert!(vm.global(defaults).as_int() > defaults_before.as_int().map(|n| n + 1_000));
    }
}
