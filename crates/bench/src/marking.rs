//! The programs behind the `gc_marking` bench: a correct heap, an all-leaky
//! heap and the §5.2 daisy chain, each scaled by `n`.

use golf_runtime::{FuncBuilder, ProgramSet, Vm, VmConfig};

/// A correct program: `n / 4 + 1` goroutines blocked on channels that main
/// keeps alive in a slice, plus a linked list of `n` cells.
pub fn correct_program(n: i64) -> ProgramSet {
    let mut p = ProgramSet::new();
    let site = p.site("main:worker");
    let mut b = FuncBuilder::new("worker", 1);
    let ch = b.param(0);
    b.recv(ch, None);
    b.ret(None);
    let worker = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let head = b.var("head");
    let tmp = b.var("tmp");
    let nil = b.var("nil");
    b.new_cell(head, nil);
    b.repeat(n, |b, _| {
        b.new_cell(tmp, head);
        b.copy(head, tmp);
    });
    let ch = b.var("ch");
    let keep = b.var("keep");
    b.new_slice(keep);
    b.repeat(n / 4 + 1, |b, _| {
        b.make_chan(ch, 0);
        b.go(worker, &[ch], site);
        b.slice_push(keep, ch);
    });
    b.sleep(1_000_000);
    p.define(b);
    p
}

/// A leaky program: `n` goroutines blocked on dropped channels.
pub fn leaky_program(n: i64) -> ProgramSet {
    let mut p = ProgramSet::new();
    let site = p.site("main:leak");
    let mut b = FuncBuilder::new("leaky", 1);
    let ch = b.param(0);
    let v = b.int(1);
    b.send(ch, v);
    b.ret(None);
    let leaky = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.repeat(n, |b, _| {
        b.make_chan(ch, 0);
        b.go(leaky, &[ch], site);
    });
    b.clear(ch);
    b.sleep(1_000_000);
    p.define(b);
    p
}

/// The §5.2 daisy chain: each link's liveness depends on the previous one,
/// forcing one mark iteration per link.
pub fn daisy_chain(n: i64) -> ProgramSet {
    let mut p = ProgramSet::new();
    let site = p.site("main:link");
    let mut b = FuncBuilder::new("link", 2);
    let mine = b.param(0);
    b.recv(mine, None);
    b.ret(None);
    let link = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let chans: Vec<_> = (0..n).map(|i| b.var(&format!("ch{i}"))).collect();
    for &ch in &chans {
        b.make_chan(ch, 0);
    }
    for i in 0..(n - 1) as usize {
        b.go(link, &[chans[i], chans[i + 1]], site);
    }
    b.go(link, &[chans[(n - 1) as usize], chans[0]], site);
    for &ch in &chans[1..] {
        b.clear(ch);
    }
    b.sleep(1_000_000);
    p.define(b);
    p
}

/// Boots `p` and runs it for 10 000 ticks: at `n <= 1024` every program
/// above has then spawned and parked all its goroutines and main is
/// asleep, so a collection sees the program's steady heap. (The largest,
/// the leaky program at `n = 1024`, settles after about 2 800 ticks.)
pub fn prepared_vm(p: ProgramSet) -> Vm {
    let mut vm = Vm::boot(p, VmConfig::default());
    vm.run(10_000);
    vm
}
