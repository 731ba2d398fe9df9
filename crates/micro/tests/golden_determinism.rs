//! Golden determinism test: the deterministic goker corpus, run at procs
//! {1, 2} and seed 42 under every root-expansion strategy, with incremental
//! cycles on and off, must keep producing exactly the recorded outcome.
//!
//! Each configuration folds, for every benchmark and proc count, the JSONL
//! trace, every deadlock report and each cycle's deterministic statistics
//! into one FNV-1a digest. The trace alone does not tell the strategies
//! apart (they differ in `mark_iterations` and `liveness_checks`), so the
//! cycle statistics are part of the digest. A change to the collector that
//! alters any of them must update the constants below deliberately.

use golf_core::{ExpansionStrategy, GcCycleStats, GolfConfig, Session};
use golf_micro::{corpus, instances_for, Microbenchmark, Source};
use golf_runtime::{PanicPolicy, TickStatus, Vm, VmConfig};
use golf_trace::BufferSink;

/// 64-bit FNV-1a, stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-delimit every field so adjacent fields cannot alias.
        for b in (data.len() as u64).to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }
}

fn hash_cycle(h: &mut Fnv, c: &GcCycleStats) {
    h.num(c.cycle);
    h.num(u64::from(c.golf_detection));
    h.num(u64::from(c.mark_iterations));
    h.num(c.objects_marked);
    h.num(c.pointer_traversals);
    h.num(c.liveness_checks);
    h.num(c.deadlocks_detected as u64);
    h.num(c.deadlocks_reclaimed as u64);
    h.num(c.preserved_for_finalizers as u64);
    h.num(c.swept_objects);
    h.num(c.swept_bytes);
    h.num(c.live_bytes_after);
    h.num(c.modeled_stw_ns);
    h.bytes(format!("{:?}", c.phases).as_bytes());
}

fn hash_run(h: &mut Fnv, mb: &Microbenchmark, procs: usize, golf: GolfConfig) {
    let n = instances_for(mb.flakiness, 24);
    let config = VmConfig {
        gomaxprocs: procs,
        seed: 42,
        panic_policy: PanicPolicy::KillGoroutine,
        ..VmConfig::default()
    };
    let mut session = Session::golf(Vm::boot((mb.build)(n), config));
    session.engine_mut().set_golf_config(golf);
    let buffer = BufferSink::new();
    session.set_trace_sink(Some(buffer.clone()));
    // Collect every few ticks while the program runs, so that collections
    // see blocked goroutines that are still reachably live and root
    // expansion has work to do.
    let mut ticks = 0u64;
    while ticks < 3_000 && session.step() == TickStatus::Progress {
        ticks += 1;
        if ticks.is_multiple_of(5) {
            session.collect();
        }
    }
    // Quiescent tail collections exercise the incremental replay path.
    session.collect();
    session.collect();
    session.collect();

    h.bytes(mb.name.as_bytes());
    h.num(session.vm().now());
    h.bytes(buffer.contents().as_bytes());
    for c in session.engine().history() {
        hash_cycle(h, c);
    }
    for r in session.reports() {
        h.bytes(r.to_string().as_bytes());
        h.bytes(r.wait_for_dot(session.vm().program()).as_bytes());
        h.num(r.cycle);
        h.num(r.tick);
    }
    let mut live: Vec<u64> = session.vm().heap().handles().map(|h| h.raw()).collect();
    live.sort_unstable();
    for l in live {
        h.num(l);
    }
}

fn digest(expansion: ExpansionStrategy, incremental: bool) -> u64 {
    let det: Vec<_> =
        corpus().into_iter().filter(|b| b.source == Source::GoBench && b.flakiness == 1).collect();
    assert!(!det.is_empty(), "deterministic goker subset must not be empty");
    let golf = GolfConfig { expansion, incremental, ..GolfConfig::default() };
    let mut h = Fnv::new();
    for mb in &det {
        for procs in [1, 2] {
            hash_run(&mut h, mb, procs, golf);
        }
    }
    h.0
}

/// `(strategy, incremental, digest)`.
const GOLDEN: [(ExpansionStrategy, bool, u64); 6] = [
    (ExpansionStrategy::Rescan, true, 0x4235_a858_a91f_ece4),
    (ExpansionStrategy::Rescan, false, 0x4235_a858_a91f_ece4),
    (ExpansionStrategy::FromMarked, true, 0xfd44_f6c7_edde_7542),
    (ExpansionStrategy::FromMarked, false, 0xfd44_f6c7_edde_7542),
    (ExpansionStrategy::Incremental, true, 0x0e6a_5db7_938b_8ddb),
    (ExpansionStrategy::Incremental, false, 0x0e6a_5db7_938b_8ddb),
];

#[test]
fn corpus_outcome_matches_golden_digests() {
    let mut mismatches = Vec::new();
    for (expansion, incremental, want) in GOLDEN {
        let got = digest(expansion, incremental);
        if got != want {
            mismatches.push(format!(
                "{expansion:?} incremental={incremental}: got {got:#018x}, want {want:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "golden digests changed:\n{}", mismatches.join("\n"));
}
