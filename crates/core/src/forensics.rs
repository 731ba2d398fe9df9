//! Deadlock forensics: flight-recorder tails and wait-for-graph export.
//!
//! The paper's reports name the blocked operation and the `go` statement;
//! real debugging wants more: *what the goroutine did right before parking*
//! and *which objects the deadlocked clique is waiting on*. This module
//! captures both from state the collector already has — the runtime's
//! flight recorder and the mark bits of the cycle that proved the deadlock.
//!
//! The wait-for graph is captured inside the GC pause as plain data (a
//! [`WaitForGraph`]) and rendered to DOT only when someone reads it, so the
//! pause never formats a string for it.

use golf_heap::{Handle, Trace};
use golf_runtime::{FuncId, GStatus, Gid, Goroutine, ProgramSet, Vm, WaitReason};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of flight-recorder events attached to each deadlock report.
pub const DEFAULT_FORENSIC_TAIL: usize = 16;

/// Renders the last `k` flight-recorder events concerning `gid`, oldest
/// first.
///
/// Returns an empty vector unless a trace sink was installed: the flight
/// recorder records exactly while one is.
pub fn flight_tail(vm: &Vm, gid: Gid, k: usize) -> Vec<String> {
    vm.tracer().recorder().tail_for(gid.into(), k).iter().map(|r| r.to_string()).collect()
}

/// One parked goroutine of a [`WaitForGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ParkedGoroutine {
    gid: Gid,
    reason: WaitReason,
    /// The top frame as `(function, pc)`; `None` for a goroutine without
    /// frames.
    top: Option<(FuncId, usize)>,
    deadlocked: bool,
    /// How many entries of [`WaitForGraph::objects`] belong to this
    /// goroutine's `B(g)`.
    blocked_on: usize,
}

/// One `B(g)` entry of a [`WaitForGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockedObject {
    /// Masked handles (§5.4) hide the object from the marker; the forensic
    /// view sees through them, so this is the unmasked handle.
    handle: Handle,
    /// [`Trace::kind`] of the object, or `"freed"` for a handle that no
    /// longer resolves.
    kind: &'static str,
    marked: bool,
}

/// The wait-for graph of every parked goroutine at detection time: each
/// goroutine, and the objects in its blocking set `B(g)` with their mark
/// state.
///
/// The collector captures it during the GC pause, **pre-sweep,
/// post-marking**, when an `unmarked` object is exactly one unreachable
/// from live code. It holds only plain data, so capturing formats nothing;
/// [`WaitForGraph::to_dot`] renders it when it is read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitForGraph {
    /// Parked goroutines in slot order.
    goroutines: Vec<ParkedGoroutine>,
    /// Every goroutine's `B(g)`, concatenated in goroutine order.
    objects: Vec<BlockedObject>,
}

impl WaitForGraph {
    /// Captures the wait-for graph of `vm`'s parked goroutines, flagging
    /// those for which `deadlocked` holds. Must run while the current
    /// cycle's mark bits are valid.
    pub fn capture(vm: &Vm, deadlocked: impl Fn(&Goroutine) -> bool) -> Self {
        let heap = vm.heap();
        let mut graph = WaitForGraph::default();
        for g in vm.live_goroutines() {
            let GStatus::Waiting(reason) = g.status else { continue };
            let handles = g.blocked.handles();
            graph.goroutines.push(ParkedGoroutine {
                gid: g.id,
                reason,
                top: g.frames.last().map(|f| (f.func, f.pc)),
                deadlocked: deadlocked(g),
                blocked_on: handles.len(),
            });
            graph.objects.extend(handles.iter().map(|h| {
                let handle = h.unmasked();
                BlockedObject {
                    handle,
                    kind: heap.get(handle).map_or("freed", Trace::kind),
                    marked: heap.is_marked(handle),
                }
            }));
        }
        graph
    }

    /// Renders the graph as Graphviz DOT. `program` must be the one the
    /// graph was captured from.
    ///
    /// Goroutine nodes (ellipses) link to the objects in their `B(g)`
    /// (boxes). Object labels carry the mark state of the capturing cycle.
    /// Deadlocked goroutines are drawn red; reachably-live blocked
    /// goroutines stay black, which makes the unreachable clique visually
    /// obvious.
    ///
    /// Output is deterministic: goroutines are emitted in slot order and
    /// objects in handle order.
    pub fn to_dot(&self, program: &ProgramSet) -> String {
        let mut out = String::from("digraph wait_for {\n  rankdir=LR;\n");
        let mut edges = String::new();
        // Handle -> object, gathered while walking goroutines, emitted sorted.
        let mut objects: BTreeMap<u64, BlockedObject> = BTreeMap::new();
        let mut rest = self.objects.as_slice();
        for g in &self.goroutines {
            let loc = g
                .top
                .map(|(func, pc)| program.describe_loc(func, pc))
                .unwrap_or_else(|| "<no frames>".into());
            let color = if g.deadlocked { "red" } else { "black" };
            let _ = writeln!(
                out,
                "  \"{id}\" [shape=ellipse, color={color}, label=\"{id}\\n{reason}\\n{loc}\"];",
                id = g.gid,
                reason = g.reason,
            );
            let (blocked_on, tail) = rest.split_at(g.blocked_on);
            rest = tail;
            for o in blocked_on {
                objects.entry(o.handle.raw()).or_insert(*o);
                let _ = writeln!(edges, "  \"{}\" -> \"{}\";", g.gid, o.handle);
            }
        }
        for o in objects.values() {
            let (style, mark) = if o.marked { ("solid", "marked") } else { ("dashed", "unmarked") };
            let _ = writeln!(
                out,
                "  \"{node}\" [shape=box, style={style}, label=\"{node}\\n{kind}\\n{mark}\"];",
                node = o.handle,
                kind = o.kind,
            );
        }
        out.push_str(&edges);
        out.push_str("}\n");
        out
    }
}
