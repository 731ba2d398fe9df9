//! `runtime.Goexit`: it ends the calling goroutine, from any call depth, and no other.

use golf_runtime::{BinOp, FuncBuilder, ProgramSet, RunStatus, Value, Vm, VmConfig};

#[test]
fn goexit_terminates_only_the_caller() {
    let mut p = ProgramSet::new();
    let out = p.global("out");
    let site = p.site("main:g");

    // g: out += 1; Goexit; out += 100 (never runs)
    let mut b = FuncBuilder::new("g", 0);
    let cur = b.var("cur");
    let one = b.int(1);
    b.get_global(cur, out);
    b.bin(BinOp::Add, cur, cur, one);
    b.set_global(out, cur);
    b.goexit();
    let hundred = b.int(100);
    b.bin(BinOp::Add, cur, cur, hundred);
    b.set_global(out, cur);
    b.ret(None);
    let g = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let zero = b.int(0);
    b.set_global(out, zero);
    b.go(g, &[], site);
    b.sleep(20);
    b.ret(None);
    p.define(b);

    let mut vm = Vm::boot(p, VmConfig::default());
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Int(1), "code after Goexit must not run");
    assert_eq!(vm.live_count(), 0);
}

#[test]
fn goexit_in_nested_call_unwinds_the_whole_goroutine() {
    let mut p = ProgramSet::new();
    let out = p.global("out");
    let site = p.site("main:g");

    let mut b = FuncBuilder::new("inner", 0);
    b.goexit();
    let inner = p.define(b);

    let mut b = FuncBuilder::new("g", 0);
    b.call(inner, &[], None);
    // Unlike a return from `inner`, Goexit must not resume here.
    let one = b.int(1);
    b.set_global(out, one);
    b.ret(None);
    let g = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    b.go(g, &[], site);
    b.sleep(20);
    b.ret(None);
    p.define(b);

    let mut vm = Vm::boot(p, VmConfig::default());
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Nil, "Goexit unwinds every frame");
    assert_eq!(vm.live_count(), 0);
}
