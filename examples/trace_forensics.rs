//! Execution tracing and deadlock forensics: the observability layer.
//!
//! Re-runs the quickstart leak (the paper's Listing 7) with a trace sink
//! installed, then shows everything the tracer captured: the JSONL event
//! stream, the deadlocked goroutine's flight-recorder tail, and the DOT
//! wait-for graph attached to the report (render it with `dot -Tsvg`).
//!
//! Run with: `cargo run --example trace_forensics`

use golf::core::Session;
use golf::runtime::{FuncBuilder, ProgramSet, Vm, VmConfig};
use golf::trace::BufferSink;

fn main() {
    let mut p = ProgramSet::new();
    let site = p.site("SendEmail:104");

    // go func() { done <- struct{}{} }()   // nobody ever receives
    let mut b = FuncBuilder::new("task", 1);
    let done = b.param(0);
    let v = b.int(1);
    b.send(done, v);
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

    let mut session = Session::golf(Vm::boot(p, VmConfig::default()));
    // A BufferSink renders records to JSONL in memory; the bench binaries'
    // --trace flag writes the same lines to a file.
    let sink = BufferSink::new();
    session.set_trace_sink(Some(sink.clone()));
    session.run(10_000);

    println!("=== JSONL event stream ===");
    print!("{}", sink.contents());

    for report in session.reports() {
        println!("\n=== deadlock report (with forensics) ===");
        println!("{report}");
        println!("=== wait-for graph (DOT) ===");
        print!("{}", report.wait_for_dot);
    }
}
