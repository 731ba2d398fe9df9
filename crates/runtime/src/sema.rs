//! The global semaphore table: an ordered map keyed by **masked** semaphore
//! handles, mirroring Go's `semaRoot` (a table of `sudog` queues, see
//! `runtime/sema.go`) and GOLF's obfuscation of the addresses stored there
//! (paper §5.4, "Semaphores").
//!
//! Every `sync` primitive parks goroutines here. Because the table is a
//! *global* structure, storing raw handles in it would make every blocked
//! goroutine's semaphore reachable and defeat detection — exactly the
//! problem GOLF solves by bit-masking; we store [`Handle::masked`] keys.

use crate::goroutine::Gid;
use golf_heap::Handle;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// One parked goroutine in a semaphore wait queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SemaWaiter {
    /// The parked goroutine.
    pub gid: Gid,
    /// Its wait token at park time (stale entries are skipped by callers).
    pub token: u64,
}

/// A map from masked semaphore handles to FIFO waiter queues. A semaphore
/// with no parked waiter has no entry.
///
/// # Example
///
/// ```
/// use golf_runtime::{SemaTable, SemaWaiter};
/// use golf_heap::{Heap, Trace, Handle};
/// # use golf_runtime::Object;
/// # let mut heap: Heap<Object> = Heap::new();
/// # let sema = heap.alloc(Object::Sema);
/// # let gid = golf_runtime::test_gid(7);
/// let mut table = SemaTable::default();
/// table.enqueue(sema, SemaWaiter { gid, token: 1 });
/// // Keys are stored masked: the GC can scan the table without marking.
/// assert!(table.keys().all(|k| k.is_masked()));
/// assert_eq!(table.dequeue_first(sema), Some(SemaWaiter { gid, token: 1 }));
/// assert_eq!(table.keys().count(), 0, "an emptied queue leaves no entry");
/// ```
#[derive(Debug, Default)]
pub struct SemaTable {
    queues: BTreeMap<Handle, VecDeque<SemaWaiter>>,
    len: usize,
}

impl SemaTable {
    /// Total parked waiters across all semaphores.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no goroutine is parked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Parks `waiter` on `sema` (the key is masked internally).
    pub fn enqueue(&mut self, sema: Handle, waiter: SemaWaiter) {
        self.queues.entry(sema.masked()).or_default().push_back(waiter);
        self.len += 1;
    }

    /// Pops the first (FIFO) waiter parked on `sema`, removing the entry
    /// when its queue empties.
    pub fn dequeue_first(&mut self, sema: Handle) -> Option<SemaWaiter> {
        let Entry::Occupied(mut e) = self.queues.entry(sema.masked()) else { return None };
        let w = e.get_mut().pop_front()?;
        if e.get().is_empty() {
            e.remove();
        }
        self.len -= 1;
        Some(w)
    }

    /// Removes and returns *all* waiters parked on `sema`
    /// (`WaitGroup` zero-crossings, `Cond.Broadcast`).
    pub fn dequeue_all(&mut self, sema: Handle) -> Vec<SemaWaiter> {
        let drained: Vec<SemaWaiter> =
            self.queues.remove(&sema.masked()).map(Vec::from).unwrap_or_default();
        self.len -= drained.len();
        drained
    }

    /// Removes one specific goroutine from `sema`'s queue (GOLF's forced
    /// shutdown must unlink deadlocked goroutines — paper §5.4).
    /// Returns whether an entry was removed.
    pub fn remove_goroutine(&mut self, sema: Handle, gid: Gid) -> bool {
        let Entry::Occupied(mut e) = self.queues.entry(sema.masked()) else { return false };
        let before = e.get().len();
        e.get_mut().retain(|w| w.gid != gid);
        let removed = before - e.get().len();
        if e.get().is_empty() {
            e.remove();
        }
        self.len -= removed;
        removed > 0
    }

    /// The waiters currently parked on `sema`, in FIFO order.
    pub fn waiters(&self, sema: Handle) -> impl Iterator<Item = SemaWaiter> + '_ {
        self.queues.get(&sema.masked()).into_iter().flatten().copied()
    }

    /// Iterates in ascending order over the (masked) keys present in the
    /// table — exposed so the GC's global scan can demonstrate that masked
    /// handles are skipped.
    pub fn keys(&self) -> impl Iterator<Item = Handle> + '_ {
        self.queues.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Object;
    use golf_heap::Heap;

    fn gid(i: u32) -> Gid {
        Gid::new(i, 0)
    }

    fn semas(n: usize) -> (Heap<Object>, Vec<Handle>) {
        let mut heap: Heap<Object> = Heap::new();
        let hs = (0..n).map(|_| heap.alloc(Object::Sema)).collect();
        (heap, hs)
    }

    fn waiters(t: &SemaTable, h: Handle) -> Vec<SemaWaiter> {
        t.waiters(h).collect()
    }

    #[test]
    fn fifo_per_key() {
        let (_heap, hs) = semas(1);
        let mut t = SemaTable::default();
        t.enqueue(hs[0], SemaWaiter { gid: gid(1), token: 10 });
        t.enqueue(hs[0], SemaWaiter { gid: gid(2), token: 20 });
        assert_eq!(t.len(), 2);
        assert_eq!(t.dequeue_first(hs[0]).unwrap().gid, gid(1));
        assert_eq!(t.dequeue_first(hs[0]).unwrap().gid, gid(2));
        assert_eq!(t.dequeue_first(hs[0]), None);
        assert!(t.is_empty());
        assert_eq!(t.keys().count(), 0);
    }

    #[test]
    fn many_keys_stay_ordered() {
        let (_heap, hs) = semas(50);
        let mut t = SemaTable::default();
        for (i, h) in hs.iter().enumerate() {
            t.enqueue(*h, SemaWaiter { gid: gid(i as u32), token: i as u64 });
        }
        assert_eq!(t.len(), 50);
        for (i, h) in hs.iter().enumerate() {
            assert_eq!(waiters(&t, *h), vec![SemaWaiter { gid: gid(i as u32), token: i as u64 }]);
        }
        // Drain in a scattered order.
        for h in hs.iter().step_by(3) {
            assert!(t.dequeue_first(*h).is_some());
        }
        assert_eq!(t.keys().count(), 50 - hs.iter().step_by(3).count());
        assert!(t.keys().zip(t.keys().skip(1)).all(|(a, b)| a < b), "keys ascend");
    }

    #[test]
    fn dequeue_all_drains() {
        let (_heap, hs) = semas(2);
        let mut t = SemaTable::default();
        for i in 0..5 {
            t.enqueue(hs[0], SemaWaiter { gid: gid(i), token: 0 });
        }
        t.enqueue(hs[1], SemaWaiter { gid: gid(99), token: 0 });
        let all = t.dequeue_all(hs[0]);
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].gid, gid(0), "FIFO order preserved");
        assert_eq!(t.len(), 1);
        assert_eq!(t.keys().count(), 1);
    }

    #[test]
    fn remove_goroutine_unlinks() {
        let (_heap, hs) = semas(1);
        let mut t = SemaTable::default();
        t.enqueue(hs[0], SemaWaiter { gid: gid(1), token: 0 });
        t.enqueue(hs[0], SemaWaiter { gid: gid(2), token: 0 });
        assert!(t.remove_goroutine(hs[0], gid(1)));
        assert!(!t.remove_goroutine(hs[0], gid(1)), "second removal is a no-op");
        assert_eq!(waiters(&t, hs[0]), vec![SemaWaiter { gid: gid(2), token: 0 }]);
        assert!(t.remove_goroutine(hs[0], gid(2)));
        assert!(t.is_empty());
        assert_eq!(t.keys().count(), 0);
    }

    #[test]
    fn keys_are_masked() {
        let (_heap, hs) = semas(3);
        let mut t = SemaTable::default();
        for h in &hs {
            t.enqueue(*h, SemaWaiter { gid: gid(0), token: 0 });
        }
        assert!(t.keys().all(|k| k.is_masked()));
        assert_eq!(t.keys().count(), 3);
    }

    #[test]
    fn empty_key_queries() {
        let (_heap, hs) = semas(1);
        let mut t = SemaTable::default();
        assert_eq!(t.waiters(hs[0]).count(), 0);
        assert_eq!(t.dequeue_first(hs[0]), None);
        assert!(t.dequeue_all(hs[0]).is_empty());
        assert!(!t.remove_goroutine(hs[0], gid(0)));
    }
}
