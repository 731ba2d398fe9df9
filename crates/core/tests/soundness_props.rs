//! Property-based soundness tests (paper §4.3).
//!
//! GOLF's key guarantee: `LIVE(g) ⇒ LIVE⁺(g)` — every reported deadlock is
//! a true positive. We test the operational contrapositive on randomly
//! generated concurrent programs: run GOLF in report-only mode (so reported
//! goroutines are left in place), keep executing the program arbitrarily
//! long, and assert that no reported goroutine ever runs again.

use golf_core::{GcEngine, Session};
use golf_runtime::{
    FuncBuilder, Gid, GlobalId, Object, PanicPolicy, ProgramSet, TickStatus, Value, Vm, VmConfig,
};
use proptest::prelude::*;

/// One random action in a generated goroutine body.
#[derive(Debug, Clone, Copy)]
enum Op {
    Send(u8),
    Recv(u8),
    Close(u8),
    Sleep(u8),
    Yield,
}

fn op_strategy(n_chans: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..n_chans).prop_map(Op::Send),
        4 => (0..n_chans).prop_map(Op::Recv),
        1 => (0..n_chans).prop_map(Op::Close),
        2 => (1u8..10).prop_map(Op::Sleep),
        1 => Just(Op::Yield),
    ]
}

#[derive(Debug, Clone)]
struct RandomProgram {
    n_chans: u8,
    caps: Vec<u8>,
    /// Body of each spawned goroutine.
    workers: Vec<Vec<Op>>,
    /// Channels `main` keeps on its stack after spawning (others are
    /// dropped, creating unreachability).
    main_keeps: Vec<bool>,
    /// Main's own actions.
    main_ops: Vec<Op>,
    seed: u64,
}

fn program_strategy() -> impl Strategy<Value = RandomProgram> {
    (1u8..4).prop_flat_map(|n_chans| {
        (
            proptest::collection::vec(0u8..3, n_chans as usize),
            proptest::collection::vec(proptest::collection::vec(op_strategy(n_chans), 1..5), 1..5),
            proptest::collection::vec(any::<bool>(), n_chans as usize),
            proptest::collection::vec(op_strategy(n_chans), 0..4),
            any::<u64>(),
        )
            .prop_map(move |(caps, workers, main_keeps, main_ops, seed)| RandomProgram {
                n_chans,
                caps,
                workers,
                main_keeps,
                main_ops,
                seed,
            })
    })
}

fn build(rp: &RandomProgram) -> ProgramSet {
    let mut p = ProgramSet::new();
    let mut worker_ids = Vec::new();
    for (wi, ops) in rp.workers.iter().enumerate() {
        let mut b = FuncBuilder::new(format!("worker{wi}"), rp.n_chans as usize);
        for (oi, op) in ops.iter().enumerate() {
            emit_op(&mut b, *op, oi);
        }
        b.ret(None);
        worker_ids.push(p.define(b));
    }
    let sites: Vec<_> = (0..rp.workers.len()).map(|i| p.site(format!("main:spawn{i}"))).collect();

    let mut b = FuncBuilder::new("main", 0);
    let chans: Vec<_> = (0..rp.n_chans).map(|i| b.var(&format!("ch{i}"))).collect();
    for (i, &ch) in chans.iter().enumerate() {
        b.make_chan(ch, rp.caps[i] as usize);
    }
    for (wi, &f) in worker_ids.iter().enumerate() {
        b.go(f, &chans, sites[wi]);
    }
    for (i, &ch) in chans.iter().enumerate() {
        if !rp.main_keeps.get(i).copied().unwrap_or(false) {
            b.clear(ch);
        }
    }
    for (oi, op) in rp.main_ops.iter().enumerate() {
        emit_main_op(&mut b, *op, &chans, &rp.main_keeps, oi);
    }
    b.sleep(30);
    b.ret(None);
    p.define(b);
    p
}

fn emit_op(b: &mut FuncBuilder, op: Op, oi: usize) {
    match op {
        Op::Send(c) => {
            let v = b.int(oi as i64);
            b.send(b.param(c as usize), v);
        }
        Op::Recv(c) => b.recv(b.param(c as usize), None),
        Op::Close(c) => b.close_chan(b.param(c as usize)),
        Op::Sleep(t) => b.sleep(u64::from(t)),
        Op::Yield => b.yield_now(),
    }
}

fn emit_main_op(
    b: &mut FuncBuilder,
    op: Op,
    chans: &[golf_runtime::Var],
    keeps: &[bool],
    oi: usize,
) {
    // Main only touches channels it kept (dropped ones are Nil on its
    // stack, and nil ops would block main forever more often than is
    // interesting).
    let pick = |c: u8| -> Option<golf_runtime::Var> {
        keeps.get(c as usize).copied().unwrap_or(false).then(|| chans[c as usize])
    };
    match op {
        Op::Send(c) => {
            if let Some(ch) = pick(c) {
                let v = b.int(oi as i64);
                b.send(ch, v);
            }
        }
        Op::Recv(c) => {
            if let Some(ch) = pick(c) {
                b.recv(ch, None);
            }
        }
        Op::Close(c) => {
            if let Some(ch) = pick(c) {
                b.close_chan(ch);
            }
        }
        Op::Sleep(t) => b.sleep(u64::from(t)),
        Op::Yield => b.yield_now(),
    }
}

/// One write to the slice under test: append or overwrite (at an index
/// taken mod the length) an `Int` or a `Ref` to a fresh channel.
#[derive(Debug, Clone, Copy)]
enum SliceOp {
    Push { is_ref: bool },
    Set { idx: u8, is_ref: bool },
}

fn slice_op_strategy() -> impl Strategy<Value = SliceOp> {
    prop_oneof![
        any::<bool>().prop_map(|is_ref| SliceOp::Push { is_ref }),
        (any::<u8>(), any::<bool>()).prop_map(|(idx, is_ref)| SliceOp::Set { idx, is_ref }),
    ]
}

/// `main` builds a slice held only by the global it returns, applies `ops`
/// one per tick, then overwrites every `Ref` left in it with an `Int`. A
/// channel stored in the slice is dropped from `main`'s stack at once, so
/// the slice is its only referrer.
fn slice_program(ops: &[SliceOp]) -> (ProgramSet, GlobalId) {
    // Simulate the slice to resolve indices: each write is (index, is_ref),
    // with no index for an append.
    let mut is_ref: Vec<bool> = Vec::new();
    let mut writes = Vec::new();
    for &op in ops {
        match op {
            SliceOp::Push { is_ref: r } => {
                writes.push((None, r));
                is_ref.push(r);
            }
            SliceOp::Set { .. } if is_ref.is_empty() => {}
            SliceOp::Set { idx, is_ref: r } => {
                let i = usize::from(idx) % is_ref.len();
                writes.push((Some(i), r));
                is_ref[i] = r;
            }
        }
    }
    writes.extend(is_ref.iter().enumerate().filter(|(_, &r)| r).map(|(i, _)| (Some(i), false)));

    let mut p = ProgramSet::new();
    let out = p.global("out");
    let mut b = FuncBuilder::new("main", 0);
    let s = b.var("s");
    let v = b.var("v");
    b.new_slice(s);
    b.set_global(out, s);
    b.sleep(1);
    for (idx, r) in writes {
        if r {
            b.make_chan(v, 0);
        } else {
            let k = b.int(7);
            b.copy(v, k);
        }
        match idx {
            None => b.slice_push(s, v),
            Some(i) => {
                let iv = b.int(i as i64);
                b.slice_set(s, iv, v);
            }
        }
        b.clear(v);
        b.sleep(1);
    }
    b.ret(None);
    p.define(b);
    (p, out)
}

fn vm_config(seed: u64) -> VmConfig {
    VmConfig {
        seed,
        gomaxprocs: 1 + (seed % 4) as usize,
        // Generated programs panic freely (double close, send on closed);
        // kill just the offender and keep exploring.
        panic_policy: PanicPolicy::KillGoroutine,
        ..VmConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Soundness: a goroutine reported deadlocked never runs again. We
    /// record each reported goroutine's wait token at report time, keep the
    /// program running (GC-free, so nothing is perturbed), and verify the
    /// token never changes — any wake or re-park would bump it.
    #[test]
    fn reported_goroutines_never_run_again(rp in program_strategy()) {
        let vm = Vm::boot(build(&rp), vm_config(rp.seed));
        let mut session = Session::golf_report_only(vm);

        // Run in chunks with forced collections in between.
        let mut done = false;
        for _ in 0..6 {
            for _ in 0..60 {
                match session.step() {
                    TickStatus::Progress => {}
                    _ => { done = true; break; }
                }
            }
            session.collect();
            if done { break; }
        }

        // Snapshot the reported goroutines and their wait tokens.
        let snapshot: Vec<(Gid, u64)> = session
            .reports()
            .iter()
            .filter_map(|r| session.vm().goroutine(r.gid).map(|g| (r.gid, g.wait_token)))
            .collect();
        prop_assert_eq!(snapshot.len(), session.reports().len(),
            "reported goroutines must still exist in report-only mode");

        // Keep executing without GC for a long horizon.
        session.vm_mut().run(2_000);

        for (gid, token) in snapshot {
            let g = session.vm().goroutine(gid);
            let g = g.expect("reported goroutine vanished — it must never be recycled");
            prop_assert!(g.status.is_waiting(),
                "reported goroutine {gid} changed status to {:?}", g.status);
            prop_assert_eq!(g.wait_token, token,
                "reported goroutine {} was woken after being reported", gid);
        }
    }

    /// Recovery safety: reclaiming deadlocked goroutines must leave the VM
    /// consistent — continued execution neither panics the host nor
    /// corrupts heap accounting, and reclaimed slots can be reused.
    #[test]
    fn reclaiming_leaves_vm_consistent(rp in program_strategy()) {
        let vm = Vm::boot(build(&rp), vm_config(rp.seed));
        let mut session = Session::golf(vm);

        for _ in 0..6 {
            for _ in 0..60 {
                if !matches!(session.step(), TickStatus::Progress) { break; }
            }
            session.collect();
        }
        session.vm_mut().run(2_000);
        session.collect();

        // Heap accounting is exact.
        let vm = session.vm();
        let sum: u64 = vm.heap().iter().map(|(_, o)| {
            use golf_heap::Trace;
            o.size_bytes() as u64
        }).sum();
        prop_assert_eq!(vm.heap().stats().heap_alloc_bytes, sum);
        // Every reclaimed goroutine is really gone.
        let reclaimed = session.gc_totals().deadlocks_reclaimed;
        prop_assert!(vm.counters().forced_shutdowns == reclaimed);
    }

    /// Determinism: identical seeds produce identical reports and counters.
    #[test]
    fn same_seed_reproduces_reports(rp in program_strategy()) {
        let run = || {
            let vm = Vm::boot(build(&rp), vm_config(rp.seed));
            let mut session = Session::golf(vm);
            session.run(500);
            session.collect();
            let (vm, engine) = session.into_parts();
            (engine.reports().to_vec(), vm.counters())
        };
        let (r1, c1) = run();
        let (r2, c2) = run();
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(c1, c2);
    }

    /// The marker is idempotent and complete: two collects back-to-back
    /// with no execution in between reclaim nothing the second time and
    /// report nothing new.
    #[test]
    fn collect_is_idempotent_when_quiescent(rp in program_strategy()) {
        let mut vm = Vm::boot(build(&rp), vm_config(rp.seed));
        vm.run(500);
        let mut gc = GcEngine::golf();
        gc.collect(&mut vm);
        let first_reports = gc.reports().len();
        let second = gc.collect(&mut vm);
        prop_assert_eq!(gc.reports().len(), first_reports, "no duplicate reports");
        prop_assert_eq!(second.swept_objects, 0, "second sweep finds nothing");
        prop_assert_eq!(second.deadlocks_reclaimed, 0);
    }

    /// Noscan slices stay sound: after every write the slice's ref count
    /// equals a recount, a collection after every write keeps each object
    /// the slice refers to (the slice was pointer-free when the first one was
    /// stored), and once the last `Ref` is overwritten the slice is noscan
    /// again and traces nothing.
    #[test]
    fn noscan_slices_keep_what_they_reference(
        ops in proptest::collection::vec(slice_op_strategy(), 1..24),
    ) {
        use golf_heap::Trace;
        let (p, out) = slice_program(&ops);
        let mut session = Session::golf(Vm::boot(p, VmConfig::default()));
        loop {
            let status = session.step();
            session.collect();
            let vm = session.vm();
            let Value::Ref(h) = vm.global(out) else {
                prop_assert!(matches!(status, TickStatus::Progress));
                continue;
            };
            let Some(Object::Slice(vs)) = vm.heap().get(h) else { panic!("out is not a slice") };
            let refs: Vec<_> = vs.iter().filter_map(|v| v.as_ref_handle()).collect();
            prop_assert_eq!(vs.refs(), refs.len());
            for r in refs {
                prop_assert!(vm.heap().contains(r), "an object held by the slice was swept");
            }
            if !matches!(status, TickStatus::Progress) {
                prop_assert_eq!(vs.refs(), 0);
                let mut traced = 0;
                vm.heap().get(h).unwrap().trace(&mut |_| traced += 1);
                prop_assert_eq!(traced, 0);
                break;
            }
        }
    }
}
