//! Differential testing: the mark-based collector vs the graph-BFS oracle.
//!
//! Both compute the paper's reachable-liveness fixed point, by disjoint
//! algorithms (mark bits + root expansion vs adjacency BFS). On randomly
//! generated concurrent programs, their deadlock verdicts must coincide —
//! for every expansion strategy.

use golf_core::oracle::compute_liveness;
use golf_core::{ExpansionStrategy, GcEngine, GcMode, GolfConfig};
use golf_runtime::{FuncBuilder, PanicPolicy, ProgramSet, Vm, VmConfig};
use proptest::prelude::*;
use std::collections::HashSet;

/// One random action in a generated goroutine body (mirrors the soundness
/// suite's generator, plus slice indirection for richer graphs).
#[derive(Debug, Clone, Copy)]
enum Op {
    Send(u8),
    Recv(u8),
    Close(u8),
    Sleep(u8),
    StashInSlice(u8),
    Yield,
}

fn op_strategy(n_chans: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..n_chans).prop_map(Op::Send),
        4 => (0..n_chans).prop_map(Op::Recv),
        1 => (0..n_chans).prop_map(Op::Close),
        2 => (1u8..10).prop_map(Op::Sleep),
        1 => (0..n_chans).prop_map(Op::StashInSlice),
        1 => Just(Op::Yield),
    ]
}

#[derive(Debug, Clone)]
struct Prog {
    n_chans: u8,
    workers: Vec<Vec<Op>>,
    main_keeps: Vec<bool>,
    seed: u64,
}

fn prog_strategy() -> impl Strategy<Value = Prog> {
    (2u8..5).prop_flat_map(|n_chans| {
        (
            proptest::collection::vec(proptest::collection::vec(op_strategy(n_chans), 1..6), 1..6),
            proptest::collection::vec(any::<bool>(), n_chans as usize),
            any::<u64>(),
        )
            .prop_map(move |(workers, main_keeps, seed)| Prog {
                n_chans,
                workers,
                main_keeps,
                seed,
            })
    })
}

fn build(prog: &Prog) -> ProgramSet {
    let mut p = ProgramSet::new();
    let mut worker_ids = Vec::new();
    for (wi, ops) in prog.workers.iter().enumerate() {
        let mut b = FuncBuilder::new(format!("w{wi}"), prog.n_chans as usize + 1); // chans…, stash
        let stash = b.param(prog.n_chans as usize);
        for (oi, op) in ops.iter().enumerate() {
            match op {
                Op::Send(c) => {
                    let v = b.int(oi as i64);
                    b.send(b.param(*c as usize), v);
                }
                Op::Recv(c) => b.recv(b.param(*c as usize), None),
                Op::Close(c) => b.close_chan(b.param(*c as usize)),
                Op::Sleep(t) => b.sleep(u64::from(*t)),
                Op::StashInSlice(c) => {
                    // Stash a channel into the shared slice: indirection the
                    // tracer must follow.
                    b.slice_push(stash, b.param(*c as usize));
                }
                Op::Yield => b.yield_now(),
            }
        }
        b.ret(None);
        worker_ids.push(p.define(b));
    }
    let sites: Vec<_> = (0..prog.workers.len()).map(|i| p.site(format!("main:w{i}"))).collect();

    let mut b = FuncBuilder::new("main", 0);
    let chans: Vec<_> = (0..prog.n_chans).map(|i| b.var(&format!("ch{i}"))).collect();
    for &ch in &chans {
        b.make_chan(ch, 0);
    }
    let stash = b.var("stash");
    b.new_slice(stash);
    let mut args = chans.clone();
    args.push(stash);
    for (wi, &f) in worker_ids.iter().enumerate() {
        b.go(f, &args, sites[wi]);
    }
    for (i, &ch) in chans.iter().enumerate() {
        if !prog.main_keeps.get(i).copied().unwrap_or(false) {
            b.clear(ch);
        }
    }
    // Main drops the stash, so it and the channels stashed in it stay
    // reachable only through the workers' stacks.
    b.clear(stash);
    b.sleep(1_000_000);
    p.define(b);
    p
}

fn booted(prog: &Prog) -> Vm {
    let mut vm = Vm::boot(
        build(prog),
        VmConfig {
            seed: prog.seed,
            gomaxprocs: 1 + (prog.seed % 3) as usize,
            panic_policy: PanicPolicy::KillGoroutine,
            ..VmConfig::default()
        },
    );
    vm.run(400);
    vm
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The collector's verdict equals the oracle's, for every strategy.
    #[test]
    fn collector_matches_oracle(prog in prog_strategy()) {
        for strategy in [
            ExpansionStrategy::Rescan,
            ExpansionStrategy::FromMarked,
            ExpansionStrategy::Incremental,
        ] {
            let mut vm = booted(&prog);
            let oracle = compute_liveness(&vm);

            let mut gc = GcEngine::new(
                GcMode::Golf,
                GolfConfig { reclaim: false, expansion: strategy, ..GolfConfig::default() },
            );
            gc.collect(&mut vm);
            let reported: HashSet<_> = gc.reports().iter().map(|r| r.gid).collect();

            prop_assert_eq!(
                &reported, &oracle.deadlocked,
                "strategy {:?}: collector vs oracle mismatch", strategy
            );
        }
    }

    /// Report-only collection must keep every oracle-reachable object on
    /// the heap (sweep safety).
    #[test]
    fn sweep_never_frees_oracle_reachable_objects(prog in prog_strategy()) {
        let mut vm = booted(&prog);
        let oracle = compute_liveness(&vm);
        let mut gc = GcEngine::new(
            GcMode::Golf,
            GolfConfig { reclaim: false, ..GolfConfig::default() },
        );
        gc.collect(&mut vm);
        for h in &oracle.reachable_objects {
            prop_assert!(vm.heap().contains(*h), "reachable object {h:?} was swept");
        }
    }
}
