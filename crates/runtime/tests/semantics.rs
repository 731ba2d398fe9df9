//! End-to-end semantics tests: whole programs run on the VM, asserting Go
//! channel/select/sync behaviour and scheduler properties.

use golf_runtime::{
    BinOp, FuncBuilder, GStatus, ProgramSet, RunStatus, SelectSpec, Value, Vm, VmConfig, WaitReason,
};

fn boot(p: ProgramSet) -> Vm {
    Vm::boot(p, VmConfig::default())
}

fn boot_seeded(p: ProgramSet, seed: u64, procs: usize) -> Vm {
    Vm::boot(p, VmConfig { seed, gomaxprocs: procs, ..VmConfig::default() })
}

#[test]
fn unbuffered_rendezvous_transfers_value() {
    let mut p = ProgramSet::new();
    let out = p.global("out");
    let site = p.site("main:spawn");

    let mut b = FuncBuilder::new("sender", 1);
    let ch = b.param(0);
    let v = b.int(42);
    b.send(ch, v);
    b.ret(None);
    let sender = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    let got = b.var("got");
    b.make_chan(ch, 0);
    b.go(sender, &[ch], site);
    b.recv(ch, Some(got));
    b.set_global(out, got);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Int(42));
    // The sender terminated; only dead slots remain besides nothing.
    assert_eq!(vm.live_count(), 0);
}

#[test]
fn buffered_channel_is_fifo_and_blocks_when_full() {
    let mut p = ProgramSet::new();
    let out = p.global("out");

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 3);
    for i in [10i64, 20, 30] {
        let v = b.int(i);
        b.send(ch, v);
    }
    // Drain in order; accumulate 10*1 + 20*2 + 30*3 to check ordering.
    let acc = b.int(0);
    let mult = b.int(1);
    let one = b.int(1);
    let got = b.var("got");
    let tmp = b.var("tmp");
    for _ in 0..3 {
        b.recv(ch, Some(got));
        b.bin(BinOp::Mul, tmp, got, mult);
        b.bin(BinOp::Add, acc, acc, tmp);
        b.bin(BinOp::Add, mult, mult, one);
    }
    b.set_global(out, acc);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Int(10 + 40 + 90));
}

#[test]
fn send_to_full_buffered_channel_blocks_until_drained() {
    let mut p = ProgramSet::new();
    let out = p.global("out");
    let site = p.site("main:go");

    // producer sends 1,2 into cap-1 channel (second send must block).
    let mut b = FuncBuilder::new("producer", 1);
    let ch = b.param(0);
    let one = b.int(1);
    let two = b.int(2);
    b.send(ch, one);
    b.send(ch, two);
    b.ret(None);
    let producer = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 1);
    b.go(producer, &[ch], site);
    b.sleep(20); // let producer fill the buffer and block
    let a = b.var("a");
    let c = b.var("c");
    let sum = b.var("sum");
    b.recv(ch, Some(a));
    b.recv(ch, Some(c));
    b.bin(BinOp::Add, sum, a, c);
    b.set_global(out, sum);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Int(3));
}

#[test]
fn recv_on_closed_channel_yields_zero_and_false() {
    let mut p = ProgramSet::new();
    let out = p.global("out");

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 2);
    let v = b.int(7);
    b.send(ch, v);
    b.close_chan(ch);
    let got = b.var("got");
    let ok = b.var("ok");
    // First recv drains the buffer: 7, true.
    b.recv_ok(ch, Some(got), Some(ok));
    let first_ok = b.var("first_ok");
    b.copy(first_ok, ok);
    // Second recv observes close: nil, false.
    b.recv_ok(ch, Some(got), Some(ok));
    // out = first_ok && !ok && got == nil
    let nil = b.var("nil");
    let got_is_nil = b.var("gin");
    b.bin(BinOp::Eq, got_is_nil, got, nil);
    let not_ok = b.var("not_ok");
    b.not(not_ok, ok);
    let t1 = b.var("t1");
    b.bin(BinOp::And, t1, first_ok, not_ok);
    let t2 = b.var("t2");
    b.bin(BinOp::And, t2, t1, got_is_nil);
    b.set_global(out, t2);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Bool(true));
}

#[test]
fn send_on_closed_channel_panics() {
    let mut p = ProgramSet::new();
    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 1);
    b.close_chan(ch);
    let v = b.int(1);
    b.send(ch, v);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::Panicked);
    assert!(vm.panics()[0].message.contains("send on closed channel"));
}

#[test]
fn close_of_closed_channel_panics() {
    let mut p = ProgramSet::new();
    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 0);
    b.close_chan(ch);
    b.close_chan(ch);
    p.define(b);
    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::Panicked);
    assert!(vm.panics()[0].message.contains("close of closed channel"));
}

#[test]
fn close_wakes_blocked_receiver_and_panics_blocked_sender() {
    let mut p = ProgramSet::new();
    let site_r = p.site("main:recv");
    let site_s = p.site("main:send");

    let mut b = FuncBuilder::new("receiver", 1);
    let ch = b.param(0);
    b.recv(ch, None);
    b.ret(None);
    let receiver = p.define(b);

    let mut b = FuncBuilder::new("sender", 1);
    let ch = b.param(0);
    let v = b.int(1);
    b.send(ch, v);
    b.ret(None);
    let sender = p.define(b);

    // Case 1: blocked receiver is woken by close.
    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 0);
    b.go(receiver, &[ch], site_r);
    b.sleep(10);
    b.close_chan(ch);
    b.sleep(10);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    assert_eq!(vm.live_count(), 0, "receiver exited after close");

    // Case 2: blocked sender panics on close.
    let mut p2 = ProgramSet::new();
    let mut b = FuncBuilder::new("sender", 1);
    let ch = b.param(0);
    let v = b.int(1);
    b.send(ch, v);
    b.ret(None);
    let sender2 = p2.define(b);
    let _ = (sender, site_s);
    let site_s2 = p2.site("main:send");

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 0);
    b.go(sender2, &[ch], site_s2);
    b.sleep(10);
    b.close_chan(ch);
    b.sleep(10);
    b.ret(None);
    p2.define(b);

    let mut vm = boot(p2);
    assert_eq!(vm.run(10_000).status, RunStatus::Panicked);
    assert!(vm.panics()[0].message.contains("send on closed channel"));
}

#[test]
fn range_chan_consumes_until_close() {
    let mut p = ProgramSet::new();
    let out = p.global("out");
    let site = p.site("main:go");

    let mut b = FuncBuilder::new("producer", 1);
    let ch = b.param(0);
    b.repeat(5, |b, i| {
        b.send(ch, i);
    });
    b.close_chan(ch);
    b.ret(None);
    let producer = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    let sum = b.int(0);
    b.make_chan(ch, 2);
    b.go(producer, &[ch], site);
    let item = b.var("item");
    b.range_chan(ch, item, |b| {
        b.bin(BinOp::Add, sum, sum, item);
    });
    b.set_global(out, sum);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(100_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Int(10)); // 0+1+2+3+4
}

#[test]
fn select_takes_ready_case_and_default_when_none() {
    let mut p = ProgramSet::new();
    let out = p.global("out");

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 1);
    // Nothing buffered: default fires.
    let l_recv = b.label();
    let l_def = b.label();
    let join = b.label();
    let got = b.var("got");
    b.select(SelectSpec::new().recv(ch, Some(got), l_recv).default_case(l_def));
    b.bind(l_recv);
    b.panic("recv should not be ready");
    b.bind(l_def);
    let v = b.int(1);
    b.send(ch, v); // buffer a value
    b.jump(join);
    b.bind(join);
    // Now the recv case is ready.
    let l_recv2 = b.label();
    let l_def2 = b.label();
    let done = b.label();
    b.select(SelectSpec::new().recv(ch, Some(got), l_recv2).default_case(l_def2));
    b.bind(l_recv2);
    b.set_global(out, got);
    b.jump(done);
    b.bind(l_def2);
    b.panic("recv case was ready, default taken");
    b.bind(done);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Int(1));
}

#[test]
fn blocking_select_wakes_on_whichever_channel_fires() {
    let mut p = ProgramSet::new();
    let out = p.global("out");
    let site = p.site("main:go");

    let mut b = FuncBuilder::new("late_sender", 1);
    let ch = b.param(0);
    b.sleep(50);
    let v = b.int(9);
    b.send(ch, v);
    b.ret(None);
    let late = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch1 = b.var("ch1");
    let ch2 = b.var("ch2");
    b.make_chan(ch1, 0);
    b.make_chan(ch2, 0);
    b.go(late, &[ch2], site);
    let got = b.var("got");
    let l1 = b.label();
    let l2 = b.label();
    let done = b.label();
    b.select(SelectSpec::new().recv(ch1, Some(got), l1).recv(ch2, Some(got), l2));
    b.bind(l1);
    b.panic("ch1 never fires");
    b.bind(l2);
    b.set_global(out, got);
    b.jump(done);
    b.bind(done);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Int(9));
}

#[test]
fn select_send_case_fires_when_receiver_arrives() {
    let mut p = ProgramSet::new();
    let site = p.site("main:go");

    let mut b = FuncBuilder::new("receiver", 1);
    let ch = b.param(0);
    b.sleep(30);
    b.recv(ch, None);
    b.ret(None);
    let receiver = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 0);
    b.go(receiver, &[ch], site);
    let v = b.int(5);
    let l = b.label();
    b.select(SelectSpec::new().send(ch, v, l));
    b.bind(l);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    assert_eq!(vm.live_count(), 0);
}

#[test]
fn select_no_cases_blocks_forever_with_epsilon() {
    let mut p = ProgramSet::new();
    let site = p.site("main:go");

    let mut b = FuncBuilder::new("blocker", 0);
    b.select_forever();
    let blocker = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    b.go(blocker, &[], site);
    b.sleep(10);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    let g = vm.live_goroutines().next().unwrap();
    assert_eq!(g.status, GStatus::Waiting(WaitReason::SelectNoCases));
    assert_eq!(g.blocked, golf_runtime::Blocked::Epsilon);
}

#[test]
fn nil_channel_ops_block_forever() {
    let mut p = ProgramSet::new();
    let s1 = p.site("main:send");
    let s2 = p.site("main:recv");

    let mut b = FuncBuilder::new("nil_sender", 0);
    let nilv = b.var("nil");
    let v = b.int(1);
    b.send(nilv, v);
    let f1 = p.define(b);

    let mut b = FuncBuilder::new("nil_recver", 0);
    let nilv = b.var("nil");
    b.recv(nilv, None);
    let f2 = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    b.go(f1, &[], s1);
    b.go(f2, &[], s2);
    b.sleep(10);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    let reasons: Vec<_> = vm.live_goroutines().filter_map(|g| g.wait_reason()).collect();
    assert_eq!(reasons.len(), 2);
    assert!(reasons.contains(&WaitReason::ChanSendNilChan));
    assert!(reasons.contains(&WaitReason::ChanReceiveNilChan));
    assert!(vm.live_goroutines().all(|g| g.blocked == golf_runtime::Blocked::Epsilon));
}

#[test]
fn mutex_provides_mutual_exclusion() {
    // 10 goroutines increment a shared cell 10 times under a mutex; with
    // cooperative yields inside the critical section, the final count is
    // exactly 100 only if exclusion holds.
    let build = || {
        let mut p = ProgramSet::new();
        let out = p.global("out");
        let site = p.site("main:worker");

        let mut b = FuncBuilder::new("worker", 3); // mutex, cell, wg
        let mu = b.param(0);
        let cell = b.param(1);
        let wg = b.param(2);
        b.repeat(10, |b, _| {
            b.lock(mu);
            let tmp = b.var("tmp");
            b.cell_get(tmp, cell);
            b.yield_now(); // invite interleaving inside the critical section
            let one = b.int(1);
            b.bin(BinOp::Add, tmp, tmp, one);
            b.cell_set(cell, tmp);
            b.unlock(mu);
        });
        b.wg_done(wg);
        b.ret(None);
        let worker = p.define(b);

        let mut b = FuncBuilder::new("main", 0);
        let mu = b.var("mu");
        let cell = b.var("cell");
        let wg = b.var("wg");
        let zero = b.int(0);
        b.new_mutex(mu);
        b.new_cell(cell, zero);
        b.new_waitgroup(wg);
        b.wg_add(wg, 10);
        b.repeat(10, |b, _| {
            b.go(worker, &[mu, cell, wg], site);
        });
        b.wg_wait(wg);
        let v = b.var("v");
        b.cell_get(v, cell);
        b.set_global(out, v);
        b.ret(None);
        p.define(b);
        (p, out)
    };

    for seed in [1u64, 7, 42] {
        let (p, out) = build();
        let mut vm = boot_seeded(p, seed, 4);
        assert_eq!(vm.run(1_000_000).status, RunStatus::MainDone, "seed {seed}");
        assert_eq!(vm.global(out), Value::Int(100), "lost update with seed {seed}");
    }
}

#[test]
fn unlock_of_unlocked_mutex_panics() {
    let mut p = ProgramSet::new();
    let mut b = FuncBuilder::new("main", 0);
    let mu = b.var("mu");
    b.new_mutex(mu);
    b.unlock(mu);
    p.define(b);
    let mut vm = boot(p);
    assert_eq!(vm.run(1_000).status, RunStatus::Panicked);
    assert!(vm.panics()[0].message.contains("unlock of unlocked mutex"));
}

#[test]
fn waitgroup_negative_counter_panics() {
    let mut p = ProgramSet::new();
    let mut b = FuncBuilder::new("main", 0);
    let wg = b.var("wg");
    b.new_waitgroup(wg);
    b.wg_done(wg);
    p.define(b);
    let mut vm = boot(p);
    assert_eq!(vm.run(1_000).status, RunStatus::Panicked);
    assert!(vm.panics()[0].message.contains("negative WaitGroup counter"));
}

#[test]
fn rwlock_allows_concurrent_readers_excludes_writer() {
    let mut p = ProgramSet::new();
    let out = p.global("out");
    let site_r = p.site("main:reader");
    let site_w = p.site("main:writer");

    // Readers hold the RLock across a sleep; the writer increments after.
    let mut b = FuncBuilder::new("reader", 2); // rw, wg
    let rw = b.param(0);
    let wg = b.param(1);
    b.rlock(rw);
    b.sleep(20);
    b.runlock(rw);
    b.wg_done(wg);
    let reader = p.define(b);

    let mut b = FuncBuilder::new("writer", 3); // rw, cell, wg
    let rw = b.param(0);
    let cell = b.param(1);
    let wg = b.param(2);
    b.wlock(rw);
    let tmp = b.var("tmp");
    b.cell_get(tmp, cell);
    let one = b.int(1);
    b.bin(BinOp::Add, tmp, tmp, one);
    b.cell_set(cell, tmp);
    b.wunlock(rw);
    b.wg_done(wg);
    let writer = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let rw = b.var("rw");
    let cell = b.var("cell");
    let wg = b.var("wg");
    let zero = b.int(0);
    b.new_rwlock(rw);
    b.new_cell(cell, zero);
    b.new_waitgroup(wg);
    b.wg_add(wg, 4);
    b.go(reader, &[rw, wg], site_r);
    b.go(reader, &[rw, wg], site_r);
    b.go(reader, &[rw, wg], site_r);
    b.go(writer, &[rw, cell, wg], site_w);
    b.wg_wait(wg);
    let v = b.var("v");
    b.cell_get(v, cell);
    b.set_global(out, v);
    b.ret(None);
    p.define(b);

    let mut vm = boot_seeded(p, 3, 4);
    assert_eq!(vm.run(100_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Int(1));
}

#[test]
fn cond_wait_signal_roundtrip() {
    let mut p = ProgramSet::new();
    let out = p.global("out");
    let site = p.site("main:waiter");

    // waiter: lock; while cell == 0 { cond.Wait() }; out = cell; unlock; done
    let mut b = FuncBuilder::new("waiter", 4); // mu, cond, cell, wg
    let mu = b.param(0);
    let cond = b.param(1);
    let cell = b.param(2);
    let wg = b.param(3);
    b.lock(mu);
    let v = b.var("v");
    let top = b.label();
    let exit = b.label();
    b.bind(top);
    b.cell_get(v, cell);
    b.jump_if(v, exit);
    b.cond_wait(cond, mu);
    b.jump(top);
    b.bind(exit);
    b.set_global(out, v);
    b.unlock(mu);
    b.wg_done(wg);
    let waiter = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let mu = b.var("mu");
    let cond = b.var("cond");
    let cell = b.var("cell");
    let wg = b.var("wg");
    let zero = b.int(0);
    b.new_mutex(mu);
    b.new_cond(cond);
    b.new_cell(cell, zero);
    b.new_waitgroup(wg);
    b.wg_add(wg, 1);
    b.go(waiter, &[mu, cond, cell, wg], site);
    b.sleep(20); // let the waiter park
    b.lock(mu);
    let seven = b.int(7);
    b.cell_set(cell, seven);
    b.unlock(mu);
    b.cond_signal(cond);
    b.wg_wait(wg);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(100_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Int(7));
}

#[test]
fn global_deadlock_detected_like_go_fatal_error() {
    let mut p = ProgramSet::new();
    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 0);
    b.recv(ch, None); // nobody will ever send
    p.define(b);
    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::GlobalDeadlock);
}

#[test]
fn timer_chan_fires_and_unblocks_select() {
    let mut p = ProgramSet::new();
    let out = p.global("out");

    let mut b = FuncBuilder::new("main", 0);
    let result = b.var("result");
    let timer = b.var("timer");
    b.make_chan(result, 0); // never written
    b.timer_chan(timer, 30);
    let l_res = b.label();
    let l_to = b.label();
    let done = b.label();
    b.select(SelectSpec::new().recv(result, None, l_res).recv(timer, None, l_to));
    b.bind(l_res);
    b.panic("result never arrives");
    b.bind(l_to);
    let one = b.int(1);
    b.set_global(out, one);
    b.jump(done);
    b.bind(done);
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(10_000).status, RunStatus::MainDone);
    assert_eq!(vm.global(out), Value::Int(1));
}

#[test]
fn same_seed_same_outcome_different_seed_may_differ() {
    // Determinism: identical configs produce identical instruction counts.
    let build = || {
        let mut p = ProgramSet::new();
        let site = p.site("main:go");
        let mut b = FuncBuilder::new("noisy", 1);
        let ch = b.param(0);
        let r = b.var("r");
        b.rand_int(r, 100);
        b.sleep(5);
        b.send(ch, r);
        let noisy = p.define(b);
        let mut b = FuncBuilder::new("main", 0);
        let ch = b.var("ch");
        b.make_chan(ch, 0);
        for _ in 0..4 {
            b.go(noisy, &[ch], site);
        }
        for _ in 0..4 {
            b.recv(ch, None);
        }
        b.ret(None);
        p.define(b);
        p
    };

    let mut vm1 = boot_seeded(build(), 1234, 4);
    let mut vm2 = boot_seeded(build(), 1234, 4);
    let o1 = vm1.run(100_000);
    let o2 = vm2.run(100_000);
    assert_eq!(o1, o2, "same seed must be bit-identical");
    assert_eq!(vm1.counters(), vm2.counters());
}

#[test]
fn goroutine_slots_are_reused() {
    let mut p = ProgramSet::new();
    let site = p.site("main:go");
    let mut b = FuncBuilder::new("short", 0);
    b.nop();
    let short = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    b.repeat(20, |b, _| {
        b.go(short, &[], site);
        b.sleep(5); // let it finish so its slot is recycled
    });
    b.ret(None);
    p.define(b);

    let mut vm = boot(p);
    assert_eq!(vm.run(100_000).status, RunStatus::MainDone);
    assert!(vm.counters().reused >= 10, "expected slot reuse, got {:?}", vm.counters());
}
