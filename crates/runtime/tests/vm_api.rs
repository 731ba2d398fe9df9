//! Tests of the VM embedding API that the collector depends on: entry
//! points, internal goroutines, forced shutdown, wait-queue inspection and
//! time control.

use golf_runtime::{FuncBuilder, GStatus, ProgramSet, RunStatus, Value, Vm, VmConfig, WaitReason};

#[test]
fn boot_with_entry_passes_arguments() {
    let mut p = ProgramSet::new();
    let out = p.global("out");
    let mut b = FuncBuilder::new("entry", 2);
    let a = b.param(0);
    let c = b.param(1);
    let sum = b.var("sum");
    b.bin(golf_runtime::BinOp::Add, sum, a, c);
    b.set_global(out, sum);
    b.ret(None);
    let entry = p.define(b);

    let mut vm =
        Vm::boot_with_entry(p, VmConfig::default(), entry, &[Value::Int(30), Value::Int(12)]);
    assert_eq!(vm.run(1_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Int(42));
}

#[test]
fn internal_goroutines_are_not_counted_as_blocked() {
    let mut p = ProgramSet::new();
    let mut b = FuncBuilder::new("internal_worker", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 0);
    b.recv(ch, None); // parks forever
    b.ret(None);
    let internal_worker = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    b.sleep(1_000_000);
    p.define(b);

    let mut vm = Vm::boot(p, VmConfig::default());
    vm.spawn_internal(internal_worker, &[]);
    vm.run(100);

    let parked = vm.live_goroutines().find(|g| g.internal).expect("internal goroutine exists");
    assert_eq!(parked.status, GStatus::Waiting(WaitReason::ChanReceive));
    // …but it is neither a deadlock candidate nor counted.
    assert!(!parked.deadlock_candidate());
    assert_eq!(vm.blocked_count(), 0);
}

#[test]
fn force_shutdown_unlinks_chan_waiters() {
    let mut p = ProgramSet::new();
    let site = p.site("main:r");
    let mut b = FuncBuilder::new("receiver", 1);
    let ch = b.param(0);
    b.recv(ch, None);
    b.ret(None);
    let receiver = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 0);
    b.go(receiver, &[ch], site);
    b.sleep(10);
    // Send after the shutdown window; if the dead receiver's queue entry
    // lingered, this send would be delivered into a corpse.
    let v = b.int(7);
    b.send(ch, v);
    b.ret(None);
    p.define(b);

    let mut vm = Vm::boot(p, VmConfig::default());
    // Run until the receiver parks.
    while vm.blocked_count() == 0 && vm.now() < 100 {
        vm.step_tick();
    }
    let victim = vm.live_goroutines().find(|g| g.id != vm.main_gid()).expect("receiver parked").id;
    vm.force_shutdown(victim);
    // The slot stays addressable (until reuse) but is dead and delisted.
    assert_eq!(vm.goroutine(victim).unwrap().status, GStatus::Dead);
    assert!(vm.live_goroutines().all(|g| g.id != victim));
    assert_eq!(vm.counters().forced_shutdowns, 1);
    // Main's send now has no receiver: the program must globally deadlock
    // (proving the wait queue no longer contains the shut-down goroutine).
    assert_eq!(vm.run(10_000).status, RunStatus::GlobalDeadlock);
}

#[test]
fn waiters_on_reports_channel_and_sema_queues() {
    let mut p = ProgramSet::new();
    let s1 = p.site("main:r");
    let s2 = p.site("main:l");
    let mut b = FuncBuilder::new("receiver", 1);
    let ch = b.param(0);
    b.recv(ch, None);
    b.ret(None);
    let receiver = p.define(b);

    let mut b = FuncBuilder::new("locker", 1);
    let mu = b.param(0);
    b.lock(mu);
    b.ret(None);
    let locker = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    let mu = b.var("mu");
    b.make_chan(ch, 0);
    b.new_mutex(mu);
    b.lock(mu); // main holds it so the locker parks
    b.go(receiver, &[ch], s1);
    b.go(locker, &[mu], s2);
    b.sleep(1_000_000);
    p.define(b);

    let mut vm = Vm::boot(p, VmConfig::default());
    vm.run(100);

    // Find the channel and mutex-sema handles via the blocked goroutines.
    let mut chan_waiters = 0;
    let mut sema_waiters = 0;
    let blocked: Vec<_> = vm
        .live_goroutines()
        .filter(|g| g.deadlock_candidate())
        .map(|g| (g.id, g.blocked.clone()))
        .collect();
    assert_eq!(blocked.len(), 2);
    for (gid, blocked) in blocked {
        for &h in blocked.handles() {
            let waiters = vm.waiters_on(h);
            assert!(waiters.contains(&gid), "waiters_on must list the parked goroutine");
            match vm.heap().get(h).map(golf_heap::Trace::kind) {
                Some("chan") => chan_waiters += waiters.len(),
                Some("sema") => sema_waiters += waiters.len(),
                other => panic!("unexpected blocking object {other:?}"),
            }
        }
    }
    assert_eq!(chan_waiters, 1);
    assert_eq!(sema_waiters, 1);
}

#[test]
fn advance_ticks_jumps_simulated_time() {
    let mut p = ProgramSet::new();
    let out = p.global("out");
    let mut b = FuncBuilder::new("main", 0);
    b.sleep(500); // would take 500 ticks of stepping
    let t = b.var("t");
    b.now_tick(t);
    b.set_global(out, t);
    b.ret(None);
    p.define(b);

    let mut vm = Vm::boot(p, VmConfig::default());
    // Step a little, then jump the clock like a charged STW pause would.
    for _ in 0..5 {
        vm.step_tick();
    }
    vm.advance_ticks(1_000);
    assert_eq!(vm.run(100).status, RunStatus::MainDone, "sleeper woken by the jump");
    let Value::Int(t) = vm.global(out) else { panic!() };
    assert!(t >= 1_000);

    // A jump that makes several deadlines due in one tick keeps the order
    // of a tick-by-tick run: timers fire in creation order, then sleepers
    // wake in slot order — not in deadline order. Each woken goroutine
    // logs its id; a FIFO policy runs them in wake order.
    let mut p = ProgramSet::new();
    let out = p.global("out");
    let site = p.site("main:go");
    let mut b = FuncBuilder::new("sleeper", 3);
    b.sleep_var(b.param(0));
    b.send(b.param(1), b.param(2));
    b.ret(None);
    let sleeper = p.define(b);
    let mut b = FuncBuilder::new("waiter", 3);
    b.recv(b.param(0), None);
    b.send(b.param(1), b.param(2));
    b.ret(None);
    let waiter = p.define(b);
    let mut b = FuncBuilder::new("main", 0);
    let log = b.var("log");
    b.make_chan(log, 8);
    // Sleepers in slots 1..=3, deadlines out of slot order.
    for (id, ticks) in [(1, 300), (2, 100), (3, 200)] {
        let (d, id) = (b.int(ticks), b.int(id));
        b.go(sleeper, &[d, log, id], site);
    }
    // Timer 7 is created first but fires after timer 8.
    for (id, after) in [(7, 400), (8, 150)] {
        let (t, id) = (b.var("t"), b.int(id));
        b.timer_chan(t, after);
        b.go(waiter, &[t, log, id], site);
    }
    let (acc, got, ten) = (b.int(0), b.var("got"), b.int(10));
    for _ in 0..5 {
        b.recv(log, Some(got));
        b.bin(golf_runtime::BinOp::Mul, acc, acc, ten);
        b.bin(golf_runtime::BinOp::Add, acc, acc, got);
    }
    b.set_global(out, acc);
    b.ret(None);
    p.define(b);

    struct Fifo;
    impl golf_runtime::SchedPolicy for Fifo {
        fn pick(&mut self, _tick: u64, _candidates: &[golf_runtime::Gid]) -> usize {
            0
        }
    }
    let mut vm = Vm::boot(p, VmConfig::default());
    vm.set_sched_policy(Some(Box::new(Fifo)));
    // Main is blocked and only sleepers and timers are pending: time can
    // still pass, so this is not a global deadlock.
    assert_eq!(vm.run(20).status, RunStatus::TickLimit);
    assert!(vm.goroutine(vm.main_gid()).unwrap().status.is_waiting());
    vm.advance_ticks(1_000);
    assert_eq!(vm.run(100).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Int(78_123), "timers 7, 8, then sleepers 1, 2, 3");

    // Main blocked on a timer alone is not a global deadlock either.
    let mut p = ProgramSet::new();
    let mut b = FuncBuilder::new("main", 0);
    let t = b.var("t");
    b.timer_chan(t, 50);
    b.recv(t, None);
    b.ret(None);
    p.define(b);
    let mut vm = Vm::boot(p, VmConfig::default());
    assert_eq!(vm.run(20).status, RunStatus::TickLimit);
    assert_eq!(vm.run(100).status, RunStatus::MainDone);
}

#[test]
fn runtime_roots_include_pending_timer_channels() {
    let mut p = ProgramSet::new();
    let mut b = FuncBuilder::new("main", 0);
    let t = b.var("t");
    b.timer_chan(t, 1_000);
    b.clear(t); // guest drops its reference; the runtime still holds one
    b.sleep(1_000_000);
    p.define(b);

    let mut vm = Vm::boot(p, VmConfig::default());
    vm.run(20);
    let roots = vm.runtime_root_handles();
    assert_eq!(roots.len(), 1, "the pending timer's channel");
    assert!(vm.heap().contains(roots[0]));
    // After the timer fires, the runtime releases it.
    vm.run(2_000);
    assert!(vm.runtime_root_handles().is_empty());
}

#[test]
fn goroutine_generation_distinguishes_reuse() {
    let mut p = ProgramSet::new();
    let site = p.site("main:s");
    let mut b = FuncBuilder::new("short", 0);
    b.nop();
    let short = p.define(b);
    let mut b = FuncBuilder::new("main", 0);
    b.go(short, &[], site);
    b.sleep(10);
    b.go(short, &[], site);
    b.sleep(10);
    b.ret(None);
    p.define(b);

    let mut vm = Vm::boot(p, VmConfig::default());
    let mut seen = Vec::new();
    while vm.step_tick() == golf_runtime::TickStatus::Progress {
        for g in vm.live_goroutines() {
            if g.id != vm.main_gid() && !seen.contains(&g.id) {
                seen.push(g.id);
            }
        }
        if vm.now() > 100 {
            break;
        }
    }
    assert_eq!(seen.len(), 2, "two distinct gids despite slot reuse: {seen:?}");
    assert_eq!(seen[0].index(), seen[1].index(), "same slot");
    assert_ne!(seen[0].generation(), seen[1].generation(), "different generations");
}
