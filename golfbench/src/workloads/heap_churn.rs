//! `heap_churn`: a large retained heap that stays live, next to a writer
//! that occasionally replaces a small young list.
//!
//! The program retains a 20 000-cell list and a 256-link daisy-chain ring
//! of goroutines, each parked on its own channel and holding the next one.
//! Only a global holds the ring's first channel, so every full GOLF cycle
//! takes 257 mark iterations and 32 896 liveness checks to prove the ring
//! live. A writer rebuilds a 100-cell young list in a burst every 400
//! ticks. A collection is forced every 50 ticks, so most cycles see a
//! quiescent heap and replay, while the cycles around a burst run in full.
//! Nothing here can deadlock: every cycle must report nothing and keep the
//! retained heap.

use super::Workload;
use crate::sim::{Meter, Sim};
use golf_core::{GcMode, GolfConfig, PacerConfig, Session};
use golf_runtime::{FuncBuilder, GlobalId, ProgramSet, Value, Vm, VmConfig};

/// Cells in the retained list. With 100 000 cells the heap outgrows the
/// 2 MiB L2 cache and lives in the L3 that every tenant of a shared host
/// contends for: on such a host, the spread of this workload's throughput
/// across ten runs exceeded 25 %. At 20 000 cells it fits in L2.
const RETAINED: i64 = 20_000;
const RING: i64 = 256;
const YOUNG: i64 = 100;
const WRITER_SLEEP: u64 = 400;
const FORCE_EVERY: u64 = 50;
/// Largest quantum of the VM: long enough that a writer burst fits in one
/// collection interval.
const MAX_QUANTUM: u32 = 64;
/// Forced collections per episode.
const ROUNDS: u64 = 300;
/// The oracle costs about ten full cycles here, so it checks a fixed subset:
/// every 101st collection (a prime, so the subset does not lock onto one
/// phase of the burst period) plus the last of each episode.
const ORACLE_EVERY: u64 = 101;
/// Tick budget for building the retained heap.
const SETUP_TICK_LIMIT: u64 = 10_000_000;
const PACER_OFF: PacerConfig = PacerConfig { growth_factor: 2.0, min_trigger_bytes: u64::MAX };

/// Builds the program; returns it with the global `main` sets once the
/// retained heap and the ring exist.
fn program() -> (ProgramSet, GlobalId) {
    let mut p = ProgramSet::new();
    let retained = p.global("retained");
    let young = p.global("young");
    let ring = p.global("ring");
    let ready = p.global("ready");
    let link_site = p.site("main:link");
    let writer_site = p.site("main:writer");

    // link(mine, next): parks on its own channel, keeping the next alive.
    let mut b = FuncBuilder::new("link", 2);
    let mine = b.param(0);
    b.recv(mine, None);
    b.ret(None);
    let link = p.define(b);

    // writer(): every WRITER_SLEEP ticks, replace the young list.
    let mut b = FuncBuilder::new("writer", 0);
    let list = b.var("list");
    let node = b.var("node");
    b.forever(|b| {
        b.sleep(WRITER_SLEEP);
        b.konst(list, Value::Nil);
        b.repeat(YOUNG, |b, _| {
            b.new_cell(node, list);
            b.copy(list, node);
        });
        b.set_global(young, list);
    });
    let writer = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let list = b.var("list");
    let node = b.var("node");
    b.konst(list, Value::Nil);
    b.repeat(RETAINED, |b, _| {
        b.new_cell(node, list);
        b.copy(list, node);
    });
    b.set_global(retained, list);
    b.clear(list);
    b.clear(node);
    let first = b.var("first");
    let prev = b.var("prev");
    let next = b.var("next");
    b.make_chan(first, 0);
    b.set_global(ring, first);
    b.copy(prev, first);
    b.repeat(RING - 1, |b, _| {
        b.make_chan(next, 0);
        b.go(link, &[prev, next], link_site);
        b.copy(prev, next);
    });
    b.go(link, &[prev, first], link_site);
    b.clear(first);
    b.clear(prev);
    b.clear(next);
    b.go(writer, &[], writer_site);
    let one = b.int(1);
    b.set_global(ready, one);
    b.forever(|b| b.sleep(1_000_000));
    p.define(b);
    (p, ready)
}

/// Outputs that must repeat exactly in every episode of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    setup_ticks: u64,
    replayed: u64,
    swept: u64,
    live_objects: u64,
}

/// The `heap_churn` workload.
pub struct HeapChurn {
    seed: u64,
    sim: Option<Sim>,
    setup_ticks: u64,
    first: Option<Digest>,
}

impl HeapChurn {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        HeapChurn { seed, sim: None, setup_ticks: 0, first: None }
    }
}

impl Workload for HeapChurn {
    fn setup(&mut self, m: &mut Meter) {
        let span = m.begin("build");
        let (program, ready) = program();
        m.end(span);

        let span = m.begin("boot");
        let vm = Vm::boot(
            program,
            VmConfig { seed: self.seed, max_quantum: MAX_QUANTUM, ..VmConfig::default() },
        );
        let mut session = Session::new(vm, GcMode::Golf, GolfConfig::default(), PACER_OFF);
        session.engine_mut().set_keep_history(false);
        m.end(span);

        let mut sim = Sim::new(session, PACER_OFF);
        while sim.session.vm().global(ready) != Value::Int(1)
            && sim.session.vm().now() < SETUP_TICK_LIMIT
        {
            sim.tick(m);
        }
        self.setup_ticks = sim.session.vm().now();
        sim.force_every = Some(FORCE_EVERY);
        self.sim = Some(sim);
    }

    fn measure(&mut self, m: &mut Meter) -> u64 {
        let mut sim = self.sim.take().expect("setup runs before measure");
        let timer = m.check_begin();
        m.check(self.setup_ticks < SETUP_TICK_LIMIT, || "retained heap never finished".into());
        m.check_end(timer);
        sim.oracle_every = ORACLE_EVERY;
        sim.begin_measure();
        let mut baseline = None;
        let (mut replayed, mut swept, mut live_objects) = (0, 0, 0);
        for round in 0..ROUNDS {
            sim.check_next = round + 1 == ROUNDS;
            let c = loop {
                if let (_, Some(c)) = sim.tick(m) {
                    break c;
                }
            };
            replayed += u64::from(c.stats.incremental_replayed);
            swept += c.stats.swept_objects;
            live_objects = c.live_objects;
            let base = *baseline.get_or_insert(c.live_objects);

            let timer = m.check_begin();
            let cycle = c.stats.cycle;
            m.check(c.reports.is_empty(), || {
                format!("cycle {cycle}: {} reports on a heap that cannot deadlock", c.reports.len())
            });
            m.check(c.live_objects.abs_diff(base) <= 2 * YOUNG as u64, || {
                format!(
                    "cycle {cycle}: {} live objects, {base} after the first cycle",
                    c.live_objects
                )
            });
            m.check_end(timer);
        }
        sim.end_measure(m);

        let timer = m.check_begin();
        let digest = Digest { setup_ticks: self.setup_ticks, replayed, swept, live_objects };
        let first = *self.first.get_or_insert(digest);
        m.check(digest == first, || {
            format!("episode differs from the first: {digest:?} vs {first:?}")
        });
        m.check_end(timer);
        ROUNDS
    }

    fn summary(&self) -> String {
        match self.first {
            Some(d) => format!(
                "heap_churn per episode: {}/{ROUNDS} cycles replayed, {} objects swept, {} live objects, retained heap built in {} ticks",
                d.replayed, d.swept, d.live_objects, d.setup_ticks
            ),
            None => String::new(),
        }
    }
}
