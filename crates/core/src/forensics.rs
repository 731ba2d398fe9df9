//! Deadlock forensics: flight-recorder tails and wait-for-graph export.
//!
//! The paper's reports name the blocked operation and the `go` statement;
//! real debugging wants more: *what the goroutine did right before parking*
//! and *which objects the deadlocked clique is waiting on*. This module
//! renders both from state the collector already has — the runtime's
//! flight recorder and the mark bits of the cycle that proved the deadlock.

use golf_runtime::{GStatus, Gid, Object, Vm};
use golf_trace::GoId;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

/// Number of flight-recorder events attached to each deadlock report.
pub const DEFAULT_FORENSIC_TAIL: usize = 16;

fn go_id(gid: Gid) -> GoId {
    GoId::new(gid.index(), gid.generation())
}

/// Renders the last `k` flight-recorder events concerning `gid`, oldest
/// first.
///
/// Returns an empty vector unless a trace sink was installed: the flight
/// recorder records exactly while one is.
pub fn flight_tail(vm: &Vm, gid: Gid, k: usize) -> Vec<String> {
    vm.tracer().recorder().tail_for(go_id(gid), k).iter().map(|r| r.to_string()).collect()
}

fn object_kind(obj: &Object) -> &'static str {
    match obj {
        Object::Chan(_) => "chan",
        Object::Mutex(_) => "mutex",
        Object::RwLock(_) => "rwmutex",
        Object::WaitGroup(_) => "waitgroup",
        Object::Cond(_) => "cond",
        Object::Sema => "sema",
        Object::Struct { .. } => "struct",
        Object::Slice(_) => "slice",
        Object::Map(_) => "map",
        Object::Once { .. } => "once",
        Object::Cell(_) => "cell",
        Object::Blob { .. } => "blob",
    }
}

/// Renders the wait-for graph of every parked goroutine as Graphviz DOT.
///
/// Goroutine nodes (ellipses) link to the objects in their blocking set
/// `B(g)` (boxes). Object labels carry the mark state of the current GC
/// cycle, so the graph must be rendered **pre-sweep, post-marking** — the
/// collector calls this at detection time, when an `unmarked` box is
/// exactly an object unreachable from live code. Goroutines in
/// `deadlocked` are drawn red; reachably-live blocked goroutines stay
/// black, which makes the unreachable clique visually obvious.
///
/// Output is deterministic: goroutines are emitted in slot order and
/// objects in handle order.
pub fn wait_for_graph_dot(vm: &Vm, deadlocked: &HashSet<Gid>) -> String {
    let program = vm.program();
    let mut out = String::from("digraph wait_for {\n  rankdir=LR;\n");
    let mut edges = String::new();
    // Handle -> node id, gathered while walking goroutines, emitted sorted.
    let mut objects: BTreeMap<u64, String> = BTreeMap::new();

    for g in vm.live_goroutines() {
        let GStatus::Waiting(reason) = g.status else { continue };
        let loc = g
            .frames
            .last()
            .map(|f| program.describe_loc(f.func, f.pc.saturating_sub(1)))
            .unwrap_or_else(|| "<no frames>".into());
        let color = if deadlocked.contains(&g.id) { "red" } else { "black" };
        let _ = writeln!(
            out,
            "  \"{id}\" [shape=ellipse, color={color}, label=\"{id}\\n{reason}\\n{loc}\"];",
            id = g.id,
        );
        for &h in g.blocked.handles() {
            // Masked handles (§5.4) hide the object from the marker; the
            // forensic view sees through them for labeling only.
            let real = h.unmasked();
            let node = format!("{real}");
            objects.entry(real.raw()).or_insert_with(|| {
                let kind = vm.heap().get(real).map(object_kind).unwrap_or("freed");
                let mark = if vm.heap().is_marked(real) { "marked" } else { "unmarked" };
                let style = if vm.heap().is_marked(real) { "solid" } else { "dashed" };
                format!(
                    "  \"{node}\" [shape=box, style={style}, label=\"{node}\\n{kind}\\n{mark}\"];\n"
                )
            });
            let _ = writeln!(edges, "  \"{id}\" -> \"{node}\";", id = g.id);
        }
    }
    for node in objects.values() {
        out.push_str(node);
    }
    out.push_str(&edges);
    out.push_str("}\n");
    out
}
