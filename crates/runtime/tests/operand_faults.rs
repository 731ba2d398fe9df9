//! Operand faults: every instruction that takes a heap object, given a nil
//! operand or an object of another kind, panics only its own goroutine,
//! with one message per fault. Nil channels keep Go's semantics instead:
//! send, receive and a select over them block forever on ε, and close
//! panics.

use golf_runtime::{
    Blocked, FuncBuilder, GStatus, PanicPolicy, ProgramSet, RunStatus, SelectSpec, Var, Vm,
    VmConfig, WaitReason,
};

/// The operand a case hands to the instruction under test.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Nil,
    Chan,
    Mutex,
}

/// What the goroutine running the instruction must end up doing.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    /// It panics, once, with this message.
    Panics(&'static str),
    /// It parks forever on ε with this wait reason.
    ParksOnEpsilon(WaitReason),
}

/// Emits the instruction under test, applied to `x`.
type Emit = fn(&mut FuncBuilder, Var);

const CASES: &[(&str, Emit, Operand, Outcome)] = {
    use Operand::*;
    use Outcome::*;
    const NIL: Outcome = Panics("nil pointer dereference");
    &[
        ("GetField", |b, x| b.get_field(x, x, 0), Nil, NIL),
        ("GetField", |b, x| b.get_field(x, x, 0), Mutex, Panics("field access on mutex value")),
        ("SetField", |b, x| b.set_field(x, 0, x), Nil, NIL),
        ("SetField", |b, x| b.set_field(x, 0, x), Chan, Panics("field access on chan value")),
        ("SlicePush", |b, x| b.slice_push(x, x), Nil, NIL),
        ("SlicePush", |b, x| b.slice_push(x, x), Mutex, Panics("append on mutex value")),
        ("SliceGet", |b, x| b.slice_get(x, x, x), Nil, NIL),
        ("SliceGet", |b, x| b.slice_get(x, x, x), Chan, Panics("index on chan value")),
        ("SliceSet", |b, x| b.slice_set(x, x, x), Nil, NIL),
        ("SliceSet", |b, x| b.slice_set(x, x, x), Mutex, Panics("index on mutex value")),
        ("SliceLen", |b, x| b.slice_len(x, x), Nil, NIL),
        ("SliceLen", |b, x| b.slice_len(x, x), Chan, Panics("len on chan value")),
        ("CellGet", |b, x| b.cell_get(x, x), Nil, NIL),
        ("CellGet", |b, x| b.cell_get(x, x), Mutex, Panics("deref on mutex value")),
        ("CellSet", |b, x| b.cell_set(x, x), Nil, NIL),
        ("CellSet", |b, x| b.cell_set(x, x), Chan, Panics("deref on chan value")),
        ("Send", |b, x| b.send(x, x), Nil, ParksOnEpsilon(WaitReason::ChanSendNilChan)),
        ("Send", |b, x| b.send(x, x), Mutex, Panics("send on mutex value")),
        ("Recv", |b, x| b.recv(x, None), Nil, ParksOnEpsilon(WaitReason::ChanReceiveNilChan)),
        ("Recv", |b, x| b.recv(x, None), Mutex, Panics("receive on mutex value")),
        ("Close", |b, x| b.close_chan(x), Nil, Panics("close of nil channel")),
        ("Close", |b, x| b.close_chan(x), Mutex, Panics("close on mutex value")),
        ("Select recv", select_recv, Nil, ParksOnEpsilon(WaitReason::SelectNoCases)),
        ("Select recv", select_recv, Mutex, Panics("select on mutex value")),
        ("Select send", select_send, Nil, ParksOnEpsilon(WaitReason::SelectNoCases)),
        ("Select send", select_send, Mutex, Panics("select on mutex value")),
        ("Lock", |b, x| b.lock(x), Nil, Panics("nil pointer dereference (Mutex.Lock)")),
        ("Lock", |b, x| b.lock(x), Chan, Panics("Mutex.Lock on chan value")),
        ("Unlock", |b, x| b.unlock(x), Nil, Panics("nil pointer dereference (Mutex.Unlock)")),
        ("Unlock", |b, x| b.unlock(x), Chan, Panics("Mutex.Unlock on chan value")),
        ("RLock", |b, x| b.rlock(x), Nil, Panics("nil pointer dereference (RWMutex.RLock)")),
        ("RLock", |b, x| b.rlock(x), Mutex, Panics("RWMutex.RLock on mutex value")),
        ("RUnlock", |b, x| b.runlock(x), Nil, Panics("nil pointer dereference (RWMutex.RUnlock)")),
        ("RUnlock", |b, x| b.runlock(x), Chan, Panics("RWMutex.RUnlock on chan value")),
        ("WLock", |b, x| b.wlock(x), Nil, Panics("nil pointer dereference (RWMutex.Lock)")),
        ("WLock", |b, x| b.wlock(x), Mutex, Panics("RWMutex.Lock on mutex value")),
        ("WUnlock", |b, x| b.wunlock(x), Nil, Panics("nil pointer dereference (RWMutex.Unlock)")),
        ("WUnlock", |b, x| b.wunlock(x), Chan, Panics("RWMutex.Unlock on chan value")),
        ("WgAdd", |b, x| b.wg_add(x, 1), Nil, Panics("nil pointer dereference (WaitGroup.Add)")),
        ("WgAdd", |b, x| b.wg_add(x, 1), Mutex, Panics("WaitGroup.Add on mutex value")),
        ("WgDone", |b, x| b.wg_done(x), Nil, Panics("nil pointer dereference (WaitGroup.Add)")),
        ("WgDone", |b, x| b.wg_done(x), Chan, Panics("WaitGroup.Add on chan value")),
        ("WgWait", |b, x| b.wg_wait(x), Nil, Panics("nil pointer dereference (WaitGroup.Wait)")),
        ("WgWait", |b, x| b.wg_wait(x), Mutex, Panics("WaitGroup.Wait on mutex value")),
        ("CondWait", |b, x| b.cond_wait(x, x), Nil, Panics("nil pointer dereference (Cond.Wait)")),
        ("CondWait", |b, x| b.cond_wait(x, x), Mutex, Panics("Cond.Wait on mutex value")),
        (
            "CondSignal",
            |b, x| b.cond_signal(x),
            Nil,
            Panics("nil pointer dereference (Cond.Signal)"),
        ),
        ("CondSignal", |b, x| b.cond_signal(x), Chan, Panics("Cond.Signal on chan value")),
        (
            "CondBroadcast",
            |b, x| b.cond_broadcast(x),
            Nil,
            Panics("nil pointer dereference (Cond.Signal)"),
        ),
        ("CondBroadcast", |b, x| b.cond_broadcast(x), Mutex, Panics("Cond.Signal on mutex value")),
    ]
};

fn select_recv(b: &mut FuncBuilder, x: Var) {
    let arm = b.label();
    b.select(SelectSpec::new().recv(x, None, arm));
    b.bind(arm);
}

fn select_send(b: &mut FuncBuilder, x: Var) {
    let arm = b.label();
    b.select(SelectSpec::new().send(x, x, arm));
    b.bind(arm);
}

/// Runs `emit` on `operand` in a goroutine of its own, under
/// [`PanicPolicy::KillGoroutine`], while main sleeps and returns.
fn run(emit: Emit, operand: Operand) -> Vm {
    let mut p = ProgramSet::new();
    let site = p.site("main:victim");
    let mut b = FuncBuilder::new("victim", 1);
    let x = b.param(0);
    emit(&mut b, x);
    b.ret(None);
    let victim = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let x = b.var("x");
    match operand {
        Operand::Nil => {}
        Operand::Chan => b.make_chan(x, 0),
        Operand::Mutex => b.new_mutex(x),
    }
    b.go(victim, &[x], site);
    b.sleep(10);
    b.ret(None);
    p.define(b);

    let config = VmConfig { panic_policy: PanicPolicy::KillGoroutine, ..VmConfig::default() };
    let mut vm = Vm::boot(p, config);
    assert_eq!(vm.run(1_000).status, RunStatus::MainDone);
    vm
}

#[test]
fn every_object_taking_instruction_faults_one_way() {
    for &(name, emit, operand, outcome) in CASES {
        let vm = run(emit, operand);
        let case = format!("{name} on {operand:?}");
        let victim = vm.live_goroutines().find(|g| g.id != vm.main_gid());
        match outcome {
            Outcome::Panics(message) => {
                let panics: Vec<_> = vm.panics().iter().map(|p| p.message.as_str()).collect();
                assert_eq!(panics, [message], "{case}");
                assert!(vm.panics()[0].location.starts_with("victim:"), "{case}");
                assert!(victim.is_none(), "{case}: the panicking goroutine is killed");
            }
            Outcome::ParksOnEpsilon(reason) => {
                assert!(vm.panics().is_empty(), "{case}: {:?}", vm.panics());
                let g = victim.unwrap_or_else(|| panic!("{case}: the goroutine is gone"));
                assert_eq!(g.status, GStatus::Waiting(reason), "{case}");
                assert!(matches!(g.blocked, Blocked::Epsilon), "{case}");
            }
        }
    }
}

#[test]
fn every_instruction_is_covered_with_both_operands() {
    let mut names: Vec<&str> = CASES.iter().map(|c| c.0).collect();
    names.dedup();
    assert_eq!(names.len(), 25);
    for name in names {
        let kinds: Vec<_> = CASES.iter().filter(|c| c.0 == name).map(|c| c.2).collect();
        assert!(matches!(kinds[..], [Operand::Nil, Operand::Chan | Operand::Mutex]), "{name}");
    }
}
