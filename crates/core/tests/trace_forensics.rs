//! Tentpole acceptance tests: trace determinism and deadlock forensics.
//!
//! The tracer stamps records only with the scheduler tick and an emission
//! sequence number — never wall-clock time — so the same program and seed
//! must yield *byte-identical* JSONL, and the wait-for graph export must
//! match a committed golden file exactly.

use golf_core::{forensics, Session};
use golf_runtime::{FuncBuilder, ProgramSet, Vm, VmConfig};
use golf_trace::BufferSink;
use std::sync::Arc;

/// The paper's Listing 7 shape: `task` sends on a channel `main` drops.
fn leaky_program() -> ProgramSet {
    let mut p = ProgramSet::new();
    let site = p.site("SendEmail:104");
    let mut b = FuncBuilder::new("task", 1);
    let done = b.param(0);
    let one = b.int(1);
    b.send(done, one);
    let task = p.define(b);
    let mut b = FuncBuilder::new("main", 0);
    let done = b.var("done");
    b.make_chan(done, 0);
    b.go(task, &[done], site);
    b.clear(done);
    b.sleep(10);
    b.gc();
    b.ret(None);
    p.define(b);
    p
}

/// Two `task`s send on one channel that `main` drops, so both deadlock on
/// the same object; a `waiter` receives on a channel `main` still holds
/// across the collection, so it is blocked but reachably live.
fn shared_channel_program() -> ProgramSet {
    let mut p = ProgramSet::new();
    let site = p.site("main:go");
    let mut b = FuncBuilder::new("task", 1);
    let ch = b.param(0);
    let one = b.int(1);
    b.send(ch, one);
    let task = p.define(b);
    let mut b = FuncBuilder::new("waiter", 1);
    let ch = b.param(0);
    b.recv(ch, None);
    let waiter = p.define(b);
    let mut b = FuncBuilder::new("main", 0);
    let shared = b.var("shared");
    let live = b.var("live");
    b.make_chan(shared, 0);
    b.make_chan(live, 0);
    b.go(task, &[shared], site);
    b.go(task, &[shared], site);
    b.go(waiter, &[live], site);
    b.clear(shared);
    b.sleep(10);
    b.gc();
    let one = b.int(1);
    b.send(live, one);
    b.ret(None);
    p.define(b);
    p
}

fn shared_channel_session() -> Session {
    let mut session = Session::golf(Vm::boot(shared_channel_program(), VmConfig::default()));
    session.run(10_000);
    session
}

/// Runs the leaky program under GOLF with a trace sink; returns the
/// JSONL trace plus the session for report inspection.
fn traced_run(seed: u64) -> (String, Session) {
    let vm = Vm::boot(leaky_program(), VmConfig { seed, ..VmConfig::default() });
    let mut session = Session::golf(vm);
    let sink = BufferSink::new();
    session.set_trace_sink(Some(sink.clone()));
    session.run(10_000);
    (sink.contents(), session)
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let (a, _) = traced_run(42);
    let (b, _) = traced_run(42);
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a, b, "same program + seed must trace identically");
}

#[test]
fn trace_covers_the_event_vocabulary_and_parses() {
    let (jsonl, _) = traced_run(7);
    for kind in [
        "go_create",
        "go_block",
        "chan_make",
        "gc_phase_begin",
        "gc_phase_end",
        "deadlock_detected",
        "reclaimed",
    ] {
        assert!(
            jsonl.contains(&format!("\"type\":\"{kind}\"")),
            "trace missing {kind} events:\n{jsonl}"
        );
    }
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        assert!(line.contains("\"tick\":") && line.contains("\"seq\":"), "unstamped: {line}");
        // Balanced quoting is the cheap stand-in for a JSON parser here.
        assert_eq!(line.matches('"').count() % 2, 0, "unbalanced quotes: {line}");
    }
}

#[test]
fn reports_carry_flight_recorder_tail_and_wait_for_graph() {
    let (_, session) = traced_run(0);
    let reports = session.reports();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert!(!r.recent_events.is_empty(), "flight-recorder tail must be populated while tracing");
    assert!(
        r.recent_events.iter().any(|e| e.contains("GoBlock")),
        "tail should show the fatal park: {:?}",
        r.recent_events
    );
    let dot = r.wait_for_dot(session.vm().program());
    assert!(dot.starts_with("digraph wait_for {"), "{dot}");
    assert!(dot.contains("color=red"), "deadlocked node must be red");
    assert!(dot.contains("unmarked"), "B(g) object must be unmarked");
}

#[test]
fn wait_for_graph_matches_golden_file() {
    let (_, session) = traced_run(0);
    let dot = session.reports()[0].wait_for_dot(session.vm().program());
    let golden = include_str!("golden/wait_for_leaky.dot");
    assert_eq!(dot, golden, "DOT export drifted from tests/golden/wait_for_leaky.dot");
}

#[test]
fn shared_channel_graph_matches_golden_file() {
    let session = shared_channel_session();
    let reports = session.reports();
    assert_eq!(reports.len(), 2, "both senders deadlock, the waiter does not");
    let dot = reports[0].wait_for_dot(session.vm().program());
    let golden = include_str!("golden/wait_for_shared_chan.dot");
    assert_eq!(dot, golden, "DOT export drifted from tests/golden/wait_for_shared_chan.dot");
}

#[test]
fn reports_of_one_cycle_share_one_graph() {
    let session = shared_channel_session();
    let [a, b] = session.reports() else { panic!("expected two reports") };
    assert_eq!(a.cycle, b.cycle, "both deadlocks are found by one cycle");
    let (ga, gb) = (a.wait_for.as_ref().unwrap(), b.wait_for.as_ref().unwrap());
    assert!(Arc::ptr_eq(ga, gb), "one snapshot per cycle, shared by its reports");
}

#[test]
fn forensics_are_empty_without_tracing() {
    let vm = Vm::boot(leaky_program(), VmConfig::default());
    let mut session = Session::golf(vm);
    session.run(10_000);
    let r = &session.reports()[0];
    assert!(r.recent_events.is_empty(), "no recorder without a sink");
    // The graph is captured from GC state and needs no tracing.
    assert!(r.wait_for_dot(session.vm().program()).contains("digraph wait_for"));
}

#[test]
fn flight_tail_is_bounded_and_chronological() {
    let (_, session) = traced_run(3);
    let gid = session.reports()[0].gid;
    let tail = forensics::flight_tail(session.vm(), gid, 2);
    assert!(tail.len() <= 2);
}
