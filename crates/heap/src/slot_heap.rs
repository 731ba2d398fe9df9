//! The slot-table heap: allocation, the mark bitmap, sweeping, finalizers.

use crate::marks::MarkBits;
use crate::{Handle, HeapStats, Trace};

struct Slot<O, F> {
    /// The object. A swept slot keeps its dead object until [`Heap::alloc`]
    /// reuses the slot, so a slot's object is not necessarily live: the
    /// `allocated` bitmap and the generation say that.
    obj: O,
    generation: u32,
    bytes: u64,
    finalizer: Option<F>,
}

/// A managed heap of objects of type `O`, with optional finalizer payloads
/// of type `F`.
///
/// The heap owns the *mechanism* of collection — mark bits, sweeping,
/// finalizer bookkeeping — while the *policy* (what the roots are, when to
/// collect) lives in `golf-core`. Handles are generational: sweeping a slot
/// bumps its generation, so stale handles resolve to `None` rather than to a
/// recycled object.
///
/// Mark state lives outside the slots, in one flat bitmap
/// ([`MarkBits`](crate::MarkBits)) indexed by slot, next to a second bitmap of
/// the allocated slots. [`Heap::sweep_unmarked`] reads `allocated & !marked`
/// a word at a time and does not drop what it reclaims: a dead object stays
/// in its slot, holding its buffers, until [`Heap::alloc`] reuses the slot.
/// The sweep is the only way an object dies, so a slot's one lifecycle is
/// `alloc` → unmarked at a sweep → reused by `alloc`.
///
/// Finalizers mirror Go's `runtime.SetFinalizer`: an unmarked object with a
/// finalizer is *not* reclaimed by [`Heap::sweep_unmarked`]; instead its
/// finalizer payload is handed back to the caller (the runtime runs it and
/// the object gets one more chance to die in a later cycle). This is the
/// hook GOLF's semantics-preservation logic (paper §5.5) builds on.
///
/// # Example
///
/// ```
/// use golf_heap::{Heap, Trace, Handle};
/// struct Leaf;
/// impl Trace for Leaf {
///     fn trace(&self, _v: &mut dyn FnMut(Handle)) {}
/// }
/// let mut heap: Heap<Leaf, &'static str> = Heap::new();
/// let h = heap.alloc(Leaf);
/// heap.set_finalizer(h, "print average");
/// heap.clear_marks();
/// let outcome = heap.sweep_unmarked();
/// // The object was unreachable but survives: its finalizer must run first.
/// assert_eq!(outcome.reclaimed_objects, 0);
/// assert_eq!(outcome.finalizable, vec![(h, "print average")]);
/// assert!(heap.get(h).is_some());
/// ```
pub struct Heap<O, F = ()> {
    slots: Vec<Slot<O, F>>,
    free: Vec<u32>,
    marks: MarkBits,
    /// One bit per slot that holds a live object.
    allocated: MarkBits,
    /// The write barrier: bumped by every mutating entry point (alloc,
    /// `get_mut`, `set_finalizer`, size refresh, sweep frees) and never
    /// reset, so equal reads prove no mutation happened in between.
    mutation_epoch: u64,
    stats: HeapStats,
}

/// The result of a sweep: how much was reclaimed, and which unreachable
/// objects had pending finalizers (and were therefore kept alive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOutcome<F> {
    /// Number of objects reclaimed.
    pub reclaimed_objects: u64,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Unreachable objects whose finalizers were extracted instead of the
    /// object being freed. The caller is responsible for running them.
    pub finalizable: Vec<(Handle, F)>,
}

impl<F> Default for SweepOutcome<F> {
    fn default() -> Self {
        SweepOutcome { reclaimed_objects: 0, reclaimed_bytes: 0, finalizable: Vec::new() }
    }
}

impl<O: Trace, F> Heap<O, F> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Heap {
            slots: Vec::new(),
            free: Vec::new(),
            marks: MarkBits::new(),
            allocated: MarkBits::new(),
            mutation_epoch: 0,
            stats: HeapStats::default(),
        }
    }

    /// Allocates `obj`, returning its handle. Reusing a swept slot drops the
    /// dead object it still holds. The slot needs no other reset: the sweep
    /// frees only unmarked slots without a finalizer.
    pub fn alloc(&mut self, obj: O) -> Handle {
        let bytes = obj.size_bytes() as u64;
        self.stats.on_alloc(bytes);
        self.mutation_epoch += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                slot.obj = obj;
                slot.bytes = bytes;
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("heap slot index overflow");
                self.slots.push(Slot { obj, generation: 0, bytes, finalizer: None });
                self.marks.ensure(self.slots.len());
                idx
            }
        };
        self.allocated.try_set(idx as usize);
        Handle::new(idx, self.slots[idx as usize].generation)
    }

    /// The slot `h` names, if `h` is unmasked and of the slot's current
    /// generation.
    ///
    /// The generation alone decides: sweeping a slot bumps it, and the heap
    /// issues a handle of the new generation only when `alloc` reuses the
    /// slot, so no handle names a dead object. That keeps the marker's hot
    /// path off the allocated bitmap, which only debug builds read here, to
    /// check the claim.
    fn slot(&self, h: Handle) -> Option<&Slot<O, F>> {
        if h.is_masked() {
            return None;
        }
        let slot = self.slots.get(h.index() as usize)?;
        let current = slot.generation == h.generation();
        debug_assert!(
            !current || self.allocated.is_set(h.index() as usize),
            "{h:?} names a free slot"
        );
        current.then_some(slot)
    }

    /// Like `slot`, exclusively.
    fn slot_mut(&mut self, h: Handle) -> Option<&mut Slot<O, F>> {
        if h.is_masked() {
            return None;
        }
        let slot = self.slots.get_mut(h.index() as usize)?;
        (slot.generation == h.generation()).then_some(slot)
    }

    /// Resolves a handle to a shared reference.
    ///
    /// Returns `None` for masked handles (the marker must not see through
    /// obfuscated addresses), stale handles, and swept slots.
    pub fn get(&self, h: Handle) -> Option<&O> {
        self.slot(h).map(|s| &s.obj)
    }

    /// Resolves a handle to an exclusive reference. Same `None` cases as
    /// [`Heap::get`].
    ///
    /// A successful resolution counts as a mutation for the write barrier: the caller holds `&mut O` and the collector must
    /// assume the object's outgoing references changed.
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut O> {
        self.slot(h)?;
        self.mutation_epoch += 1;
        self.slot_mut(h).map(|s| &mut s.obj)
    }

    /// Whether `h` currently resolves to a live object.
    pub fn contains(&self, h: Handle) -> bool {
        self.slot(h).is_some()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether the heap holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears every mark bit (GC cycle initialization) — a word-wise zeroing
    /// pass over the bitmap, not a slot walk.
    pub fn clear_marks(&mut self) {
        self.marks.clear_all();
    }

    /// Marks `h` if it is live and unmarked, returning `true` exactly when
    /// this call transitioned it from unmarked to marked.
    ///
    /// Masked and stale handles are ignored (returns `false`), which is what
    /// makes GOLF's address obfuscation effective.
    pub fn try_mark(&mut self, h: Handle) -> bool {
        if self.slot(h).is_none() {
            return false;
        }
        self.marks.try_set(h.index() as usize)
    }

    /// Whether `h` is live and marked in the current cycle.
    pub fn is_marked(&self, h: Handle) -> bool {
        self.slot(h).is_some() && self.marks.is_set(h.index() as usize)
    }

    /// Number of objects currently marked (a popcount; only live slots can
    /// carry a mark).
    pub fn marked_count(&self) -> usize {
        self.marks.set_count() as usize
    }

    /// The monotone heap mutation counter maintained by the write barrier.
    /// Equal values at two points in time prove no mutation happened in
    /// between.
    pub fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch
    }

    /// Reclaims every live, unmarked object — except those with pending
    /// finalizers, whose payloads are extracted and returned instead.
    ///
    /// Visits only the `allocated & !marked` bits, a word at a time, in
    /// ascending slot order, and pushes the freed slots on the free list in
    /// that order. The dead objects are not dropped here: [`Heap::alloc`]
    /// drops each one when it reuses the slot.
    pub fn sweep_unmarked(&mut self) -> SweepOutcome<F> {
        let mut outcome = SweepOutcome::default();
        for word in 0..self.allocated.word_count() {
            let mut dead = self.allocated.word(word) & !self.marks.word(word);
            while dead != 0 {
                let idx = word * 64 + dead.trailing_zeros() as usize;
                dead &= dead - 1;
                let slot = &mut self.slots[idx];
                if let Some(fin) = slot.finalizer.take() {
                    // Go semantics: the object is resurrected for one cycle so
                    // its finalizer can observe it.
                    let h = Handle::new(idx as u32, slot.generation);
                    outcome.finalizable.push((h, fin));
                    continue;
                }
                slot.generation = slot.generation.wrapping_add(1);
                let bytes = slot.bytes;
                self.allocated.clear(idx);
                self.free.push(idx as u32);
                self.stats.on_free(bytes);
                outcome.reclaimed_objects += 1;
                outcome.reclaimed_bytes += bytes;
            }
        }
        self.mutation_epoch += outcome.reclaimed_objects;
        outcome
    }

    /// Attaches a finalizer payload to `h`. Returns `false` if the handle is
    /// not live. Replaces any existing finalizer, like `runtime.SetFinalizer`.
    pub fn set_finalizer(&mut self, h: Handle, fin: F) -> bool {
        let attached = match self.slot_mut(h) {
            Some(slot) => {
                slot.finalizer = Some(fin);
                true
            }
            None => false,
        };
        if attached {
            self.mutation_epoch += 1;
        }
        attached
    }

    /// Whether `h` is live and has a finalizer attached.
    pub fn has_finalizer(&self, h: Handle) -> bool {
        self.slot(h).is_some_and(|s| s.finalizer.is_some())
    }

    /// Recomputes the byte size of `h` after in-place growth (e.g. a channel
    /// buffer that gained elements), keeping [`HeapStats`] truthful.
    pub fn refresh_size(&mut self, h: Handle) {
        let Some(slot) = self.slot_mut(h) else { return };
        let new_bytes = slot.obj.size_bytes() as u64;
        let old = std::mem::replace(&mut slot.bytes, new_bytes);
        self.stats.heap_alloc_bytes = self.stats.heap_alloc_bytes - old + new_bytes;
        self.mutation_epoch += 1;
    }

    /// Iterates over `(handle, object)` pairs for every live object.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &O)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(idx, _)| self.allocated.is_set(idx))
            .map(|(idx, slot)| (Handle::new(idx as u32, slot.generation), &slot.obj))
    }

    /// Iterates over the handles of every live object.
    pub fn handles(&self) -> impl Iterator<Item = Handle> + '_ {
        self.iter().map(|(h, _)| h)
    }

    /// Current heap statistics.
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// Checks internal invariants, returning a description of the first
    /// violation found: the free list holds exactly the slots not allocated,
    /// byte and object accounting agree with a fresh traversal, and no freed
    /// slot retains a mark or finalizer.
    /// Intended for tests and debug builds.
    pub fn validate(&self) -> Result<(), String> {
        let free_set: std::collections::HashSet<u32> = self.free.iter().copied().collect();
        if free_set.len() != self.free.len() {
            return Err("duplicate index on the free list".into());
        }
        let mut live = 0u64;
        let mut bytes = 0u64;
        if (self.slots.len()..self.allocated.word_count() * 64).any(|i| self.allocated.is_set(i)) {
            return Err("allocated bit set beyond the slot table".into());
        }
        for (idx, slot) in self.slots.iter().enumerate() {
            let idx = idx as u32;
            if self.allocated.is_set(idx as usize) {
                // Allocated slots may carry marks and finalizers.
                if free_set.contains(&idx) {
                    return Err(format!("allocated slot {idx} is on the free list"));
                }
                live += 1;
                bytes += slot.bytes;
            } else {
                if !free_set.contains(&idx) {
                    return Err(format!("free slot {idx} missing from the free list"));
                }
                if self.marks.is_set(idx as usize) {
                    return Err(format!("freed slot {idx} still marked"));
                }
                if slot.finalizer.is_some() {
                    return Err(format!("freed slot {idx} retains a finalizer"));
                }
            }
        }
        if live != self.stats.heap_objects {
            return Err(format!(
                "object accounting drift: {} live vs {} recorded",
                live, self.stats.heap_objects
            ));
        }
        if bytes != self.stats.heap_alloc_bytes {
            return Err(format!(
                "byte accounting drift: {} live vs {} recorded",
                bytes, self.stats.heap_alloc_bytes
            ));
        }
        Ok(())
    }
}

impl<O: Trace, F> Default for Heap<O, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: Trace + std::fmt::Debug, F> std::fmt::Debug for Heap<O, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("objects", &self.len())
            .field("bytes", &self.stats.heap_alloc_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Node {
        next: Option<Handle>,
        payload: usize,
    }

    impl Trace for Node {
        fn trace(&self, visit: &mut dyn FnMut(Handle)) {
            if let Some(n) = self.next {
                visit(n);
            }
        }
        fn size_bytes(&self) -> usize {
            self.payload
        }
    }

    fn leaf(payload: usize) -> Node {
        Node { next: None, payload }
    }

    /// Kills `victim` the only way an object dies: one collection that
    /// marks every other live handle and then sweeps.
    fn sweep_one<F>(heap: &mut Heap<Node, F>, victim: Handle) {
        let others: Vec<Handle> = heap.handles().filter(|&h| h != victim).collect();
        heap.clear_marks();
        for h in others {
            heap.try_mark(h);
        }
        assert_eq!(heap.sweep_unmarked().reclaimed_objects, 1);
    }

    #[test]
    fn alloc_and_get() {
        let mut heap: Heap<Node> = Heap::new();
        let h = heap.alloc(leaf(8));
        assert_eq!(heap.get(h).unwrap().payload, 8);
        assert!(heap.contains(h));
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn stale_handle_after_sweep() {
        let mut heap: Heap<Node> = Heap::new();
        let h = heap.alloc(leaf(8));
        sweep_one(&mut heap, h);
        assert!(heap.get(h).is_none());
        assert!(!heap.contains(h));
        // Slot reuse produces a distinct handle.
        let h2 = heap.alloc(leaf(9));
        assert_eq!(h2.index(), h.index());
        assert_ne!(h2, h);
        assert!(heap.get(h).is_none());
        assert_eq!(heap.get(h2).unwrap().payload, 9);
    }

    #[test]
    fn masked_handles_do_not_resolve() {
        let mut heap: Heap<Node> = Heap::new();
        let h = heap.alloc(leaf(8));
        assert!(heap.get(h.masked()).is_none());
        assert!(!heap.try_mark(h.masked()));
        assert!(!heap.is_marked(h.masked()));
        // Unmasking restores access.
        assert!(heap.get(h.masked().unmasked()).is_some());
    }

    #[test]
    fn mark_and_sweep_reclaims_unmarked() {
        let mut heap: Heap<Node> = Heap::new();
        let a = heap.alloc(leaf(10));
        let b = heap.alloc(leaf(20));
        heap.clear_marks();
        assert!(heap.try_mark(a));
        assert!(!heap.try_mark(a), "second mark reports already-marked");
        let out = heap.sweep_unmarked();
        assert_eq!(out.reclaimed_objects, 1);
        assert_eq!(out.reclaimed_bytes, 20);
        assert!(heap.contains(a));
        assert!(!heap.contains(b));
    }

    #[test]
    fn sweep_resurrects_finalizable() {
        let mut heap: Heap<Node, u32> = Heap::new();
        let a = heap.alloc(leaf(10));
        assert!(heap.set_finalizer(a, 42));
        heap.clear_marks();
        let out = heap.sweep_unmarked();
        assert_eq!(out.reclaimed_objects, 0);
        assert_eq!(out.finalizable, vec![(a, 42)]);
        assert!(heap.contains(a));
        assert!(!heap.has_finalizer(a), "finalizer is consumed");
        // Second cycle: no finalizer left, object dies.
        heap.clear_marks();
        let out = heap.sweep_unmarked();
        assert_eq!(out.reclaimed_objects, 1);
        assert!(!heap.contains(a));
    }

    #[test]
    fn finalizer_on_dead_handle_fails() {
        let mut heap: Heap<Node, u32> = Heap::new();
        let a = heap.alloc(leaf(1));
        sweep_one(&mut heap, a);
        assert!(!heap.set_finalizer(a, 1));
        assert!(!heap.has_finalizer(a));
    }

    #[test]
    fn refresh_size_adjusts_stats() {
        let mut heap: Heap<Node> = Heap::new();
        let h = heap.alloc(leaf(10));
        assert_eq!(heap.stats().heap_alloc_bytes, 10);
        heap.get_mut(h).unwrap().payload = 100;
        heap.refresh_size(h);
        assert_eq!(heap.stats().heap_alloc_bytes, 100);
        // Sweep reclaims the refreshed size.
        heap.clear_marks();
        let out = heap.sweep_unmarked();
        assert_eq!(out.reclaimed_bytes, 100);
        assert_eq!(heap.stats().heap_alloc_bytes, 0);
    }

    #[test]
    fn iter_visits_live_only() {
        let mut heap: Heap<Node> = Heap::new();
        let a = heap.alloc(leaf(1));
        let b = heap.alloc(leaf(2));
        sweep_one(&mut heap, a);
        let seen: Vec<Handle> = heap.handles().collect();
        assert_eq!(seen, vec![b]);
    }

    #[test]
    fn trace_reaches_children() {
        let mut heap: Heap<Node> = Heap::new();
        let tail = heap.alloc(leaf(1));
        let head = heap.alloc(Node { next: Some(tail), payload: 1 });
        heap.clear_marks();
        let mut work = vec![head];
        let mut visited = 0;
        while let Some(h) = work.pop() {
            if heap.try_mark(h) {
                visited += 1;
                heap.get(h).unwrap().trace(&mut |c| work.push(c));
            }
        }
        assert_eq!(visited, 2);
        assert_eq!(heap.sweep_unmarked().reclaimed_objects, 0);
    }

    #[test]
    fn validate_passes_through_lifecycle() {
        let mut heap: Heap<Node, u32> = Heap::new();
        heap.validate().unwrap();
        let a = heap.alloc(leaf(4));
        let b = heap.alloc(leaf(8));
        heap.set_finalizer(b, 9);
        heap.validate().unwrap();
        sweep_one(&mut heap, a); // b is marked and keeps its finalizer
        heap.validate().unwrap();
        heap.clear_marks();
        heap.sweep_unmarked(); // resurrects b (finalizer), frees nothing else
        heap.validate().unwrap();
        heap.clear_marks();
        heap.sweep_unmarked(); // b dies now
        heap.validate().unwrap();
        assert!(heap.is_empty());
    }

    #[test]
    fn marked_count_tracks_marks() {
        let mut heap: Heap<Node> = Heap::new();
        let handles: Vec<Handle> = (0..10).map(|_| heap.alloc(leaf(1))).collect();
        heap.clear_marks();
        for &h in &handles[..4] {
            assert!(heap.try_mark(h));
        }
        assert_eq!(heap.marked_count(), 4);
        assert!(heap.is_marked(handles[0]));
        assert!(!heap.is_marked(handles[9]));
        // The sweep kills only unmarked objects, and a reused slot starts
        // unmarked: the survivors' marks are all that is left.
        assert_eq!(heap.sweep_unmarked().reclaimed_objects, 6);
        let fresh = heap.alloc(leaf(1));
        assert!(!heap.is_marked(fresh));
        assert_eq!(heap.marked_count(), 4);
        heap.validate().unwrap();
    }

    #[test]
    fn barrier_records_mutations_and_epoch() {
        let mut heap: Heap<Node, u32> = Heap::new();
        assert_eq!(heap.mutation_epoch(), 0);
        let a = heap.alloc(leaf(1));
        let e = heap.mutation_epoch();
        assert_eq!(e, 1, "the epoch counts mutations");
        // Reads are not mutations.
        heap.get(a);
        assert!(heap.contains(a));
        heap.is_marked(a);
        assert_eq!(heap.mutation_epoch(), e);
        // A sweep that kills an object is a mutation.
        sweep_one(&mut heap, a);
        let after_sweep = heap.mutation_epoch();
        assert_eq!(after_sweep, e + 1);
        // Failed exclusive lookups are not mutations.
        assert!(heap.get_mut(a).is_none());
        assert!(!heap.set_finalizer(a, 1));
        assert_eq!(heap.mutation_epoch(), after_sweep);
        // Successful ones are.
        let b = heap.alloc(leaf(1));
        let before = heap.mutation_epoch();
        heap.get_mut(b).unwrap().payload = 2;
        assert!(heap.mutation_epoch() > before);
    }

    #[test]
    fn marking_is_not_mutation() {
        let mut heap: Heap<Node> = Heap::new();
        let handles: Vec<Handle> = (0..70).map(|_| heap.alloc(leaf(1))).collect();
        // Marking/clearing marks is collector state, not mutation.
        let e = heap.mutation_epoch();
        heap.clear_marks();
        heap.try_mark(handles[0]);
        assert_eq!(heap.mutation_epoch(), e);
    }

    /// Counts its drops, to show when the heap drops a swept object.
    struct Counted(std::rc::Rc<std::cell::Cell<usize>>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    impl Trace for Counted {
        fn trace(&self, _visit: &mut dyn FnMut(Handle)) {}
    }

    #[test]
    fn swept_objects_drop_when_their_slot_is_reused() {
        let drops = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut heap: Heap<Counted> = Heap::new();
        let a = heap.alloc(Counted(drops.clone()));
        heap.clear_marks();
        assert_eq!(heap.sweep_unmarked().reclaimed_objects, 1);
        assert_eq!(drops.get(), 0, "the sweep leaves the dead object in its slot");
        let b = heap.alloc(Counted(drops.clone()));
        assert_eq!(b.index(), a.index());
        assert_eq!(drops.get(), 1, "reusing the slot drops the dead object");
        drop(heap);
        assert_eq!(drops.get(), 2);
    }

    #[test]
    fn swept_but_undropped_objects_are_invisible() {
        let mut heap: Heap<Node> = Heap::new();
        let a = heap.alloc(leaf(10));
        let b = heap.alloc(leaf(20));
        heap.clear_marks();
        heap.try_mark(b);
        assert_eq!(heap.sweep_unmarked().reclaimed_objects, 1);
        assert_eq!(heap.slots[a.index() as usize].obj.payload, 10, "not dropped yet");
        assert!(heap.get(a).is_none());
        assert!(!heap.contains(a));
        assert!(!heap.try_mark(a));
        assert!(!heap.is_marked(a));
        assert!(heap.get_mut(a).is_none());
        heap.refresh_size(a);
        assert_eq!(heap.stats().heap_alloc_bytes, 20, "refresh_size saw no dead object");
        assert_eq!(heap.handles().collect::<Vec<_>>(), vec![b]);
        assert_eq!(heap.iter().map(|(_, o)| o.payload).collect::<Vec<_>>(), vec![20]);
        heap.validate().unwrap();
    }

    #[test]
    fn sweep_frees_slots_in_ascending_order_across_words() {
        let mut heap: Heap<Node> = Heap::new();
        let handles: Vec<Handle> = (0..200).map(|_| heap.alloc(leaf(1))).collect();
        heap.clear_marks();
        for &h in handles.iter().step_by(3) {
            heap.try_mark(h);
        }
        assert_eq!(heap.sweep_unmarked().reclaimed_objects, 133);
        let expected: Vec<u32> = (0..200).filter(|i| i % 3 != 0).collect();
        assert_eq!(heap.free, expected);
        // The free list pops from the top: the highest freed slot goes first.
        assert_eq!(heap.alloc(leaf(1)).index(), 199);
        heap.validate().unwrap();
    }

    #[test]
    fn validate_rejects_an_allocated_slot_on_the_free_list() {
        let mut heap: Heap<Node> = Heap::new();
        heap.alloc(leaf(1));
        let b = heap.alloc(leaf(1));
        heap.validate().unwrap();
        heap.free.push(b.index());
        assert_eq!(heap.validate(), Err("allocated slot 1 is on the free list".to_string()));
    }
}
