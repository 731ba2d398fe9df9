//! The tricolor marker: worklist-based transitive marking over the heap.
//!
//! A cycle constructs one marker and runs all of its marking on it: the
//! mark iterations of the GOLF fixed point, each driven through
//! [`Marker::step`] so root expansion can inspect every object as it is
//! blackened, and the re-marks of preserved deadlocked subgraphs and
//! hinted-inert roots before the sweep.

use golf_heap::{Handle, Heap, Trace};

/// A marking worklist with work accounting.
///
/// Gray objects live on the worklist; [`Marker::step`] blackens them one at
/// a time, pushing their white children. The counters feed the paper's
/// claim that GOLF performs *the same aggregate marking work* as the
/// baseline (§5.2): the number of pointer traversals is identical, only
/// partitioned across more iterations.
#[derive(Debug, Default)]
pub struct Marker {
    work: Vec<Handle>,
    /// Objects blackened so far this cycle.
    pub marked: u64,
    /// Pointer traversals so far this cycle: edges followed out of objects
    /// as they were blackened. Each object is traced exactly once, so this
    /// count is a pure property of the reachable graph.
    pub traversals: u64,
}

impl Marker {
    /// An empty marker.
    pub fn new() -> Self {
        Marker::default()
    }

    /// Adds a root. Masked handles are accepted but will be ignored by
    /// marking, reproducing GOLF's address obfuscation.
    pub fn push_root(&mut self, h: Handle) {
        self.work.push(h);
    }

    /// Blackens the next gray object, pushes its unmarked children and
    /// returns it; `None` once the worklist is empty.
    ///
    /// Worklist entries that are already marked, masked or stale are
    /// skipped. Children already marked (or masked) are skipped *before*
    /// being pushed, so the worklist sees each object at most once per
    /// parent that found it white.
    pub fn step<O: Trace, F>(&mut self, heap: &mut Heap<O, F>) -> Option<Handle> {
        while let Some(h) = self.work.pop() {
            if !heap.try_mark(h) {
                continue; // already marked, masked, or stale
            }
            self.marked += 1;
            if let Some(obj) = heap.get(h) {
                obj.trace(&mut |child| {
                    self.traversals += 1;
                    if !child.is_masked() && !heap.is_marked(child) {
                        self.work.push(child);
                    }
                });
            }
            return Some(h);
        }
        None
    }

    /// Blackens everything reachable from the current worklist. Returns how
    /// many objects were newly marked by this drain.
    pub fn drain<O: Trace, F>(&mut self, heap: &mut Heap<O, F>) -> u64 {
        let before = self.marked;
        while self.step(heap).is_some() {}
        self.marked - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use golf_runtime::{Finalizer, Object, Value};

    fn cell(heap: &mut Heap<Object, Finalizer>, v: Value) -> Handle {
        heap.alloc(Object::Cell(v))
    }

    #[test]
    fn drains_transitively() {
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let a = cell(&mut heap, Value::Nil);
        let b = cell(&mut heap, Value::Ref(a));
        let c = cell(&mut heap, Value::Ref(b));
        let _unreachable = cell(&mut heap, Value::Nil);

        let mut m = Marker::new();
        m.push_root(c);
        let newly = m.drain(&mut heap);
        assert_eq!(newly, 3);
        assert!(heap.is_marked(a) && heap.is_marked(b) && heap.is_marked(c));
        assert_eq!(heap.marked_count(), 3);
    }

    #[test]
    fn masked_roots_are_ignored() {
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let a = cell(&mut heap, Value::Nil);
        let mut m = Marker::new();
        m.push_root(a.masked());
        assert_eq!(m.drain(&mut heap), 0);
        assert!(!heap.is_marked(a));
    }

    #[test]
    fn cycles_terminate() {
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let a = cell(&mut heap, Value::Nil);
        let b = cell(&mut heap, Value::Ref(a));
        // close the cycle
        if let Some(Object::Cell(slot)) = heap.get_mut(a) {
            *slot = Value::Ref(b);
        }
        let mut m = Marker::new();
        m.push_root(a);
        assert_eq!(m.drain(&mut heap), 2);
    }

    #[test]
    fn step_blackens_one_object_at_a_time() {
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let a = cell(&mut heap, Value::Nil);
        let b = cell(&mut heap, Value::Ref(a));
        let mut m = Marker::new();
        m.push_root(b);
        m.push_root(b); // duplicate roots are skipped, not re-blackened
        assert_eq!(m.step(&mut heap), Some(b));
        assert!(heap.is_marked(b) && !heap.is_marked(a), "b's child is gray, not black");
        assert_eq!(m.step(&mut heap), Some(a));
        assert_eq!(m.step(&mut heap), None);
        assert_eq!((m.marked, m.traversals), (2, 1));
    }

    #[test]
    fn incremental_drains_accumulate() {
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let a = cell(&mut heap, Value::Nil);
        let b = cell(&mut heap, Value::Nil);
        let mut m = Marker::new();
        m.push_root(a);
        assert_eq!(m.drain(&mut heap), 1);
        m.push_root(b);
        assert_eq!(m.drain(&mut heap), 1);
        assert_eq!(m.marked, 2);
        assert_eq!(m.traversals, 0, "isolated cells have no outgoing edges");
    }

    #[test]
    fn shared_children_are_not_repushed() {
        // Diamond: a -> {b, c}, b -> d, c -> d. The second parent of `d`
        // must observe the mark before pushing, so the worklist sees `d`
        // once and `traversals` counts the graph's 4 edges exactly.
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let d = cell(&mut heap, Value::Nil);
        let b = cell(&mut heap, Value::Ref(d));
        let c = cell(&mut heap, Value::Ref(d));
        let a = heap.alloc(Object::Slice(vec![Value::Ref(b), Value::Ref(c)]));
        let mut m = Marker::new();
        m.push_root(a);
        assert_eq!(m.drain(&mut heap), 4);
        assert_eq!(m.traversals, 4, "edges followed once each, no re-push traffic");
    }
}
