//! `runtime.MemStats`-style allocation accounting.

use serde::{Deserialize, Serialize};

/// Cumulative and instantaneous heap statistics.
///
/// Field names deliberately echo Go's `runtime.MemStats` (used for Table 2
/// of the paper): `heap_alloc_bytes` ≈ `HeapAlloc`, `heap_objects` ≈
/// `HeapObjects`. Cumulative counters are never decremented.
///
/// # Example
///
/// ```
/// use golf_heap::{Heap, Trace, Handle};
/// struct Blob(usize);
/// impl Trace for Blob {
///     fn trace(&self, _v: &mut dyn FnMut(Handle)) {}
///     fn size_bytes(&self) -> usize { self.0 }
/// }
/// let mut heap: Heap<Blob> = Heap::new();
/// heap.alloc(Blob(1024));
/// assert_eq!(heap.stats().heap_alloc_bytes, 1024);
/// assert_eq!(heap.stats().total_allocs, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapStats {
    /// Bytes currently occupied by live (not yet swept) objects.
    pub heap_alloc_bytes: u64,
    /// Number of objects currently on the heap.
    pub heap_objects: u64,
    /// Cumulative number of allocations.
    pub total_allocs: u64,
    /// Cumulative number of objects reclaimed by sweeps.
    pub total_frees: u64,
}

impl HeapStats {
    /// Records an allocation of `bytes`.
    pub(crate) fn on_alloc(&mut self, bytes: u64) {
        self.heap_alloc_bytes += bytes;
        self.heap_objects += 1;
        self.total_allocs += 1;
    }

    /// Records the removal of an object of `bytes`.
    pub(crate) fn on_free(&mut self, bytes: u64) {
        self.heap_alloc_bytes = self.heap_alloc_bytes.saturating_sub(bytes);
        self.heap_objects = self.heap_objects.saturating_sub(1);
        self.total_frees += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_accounting() {
        let mut s = HeapStats::default();
        s.on_alloc(100);
        s.on_alloc(50);
        assert_eq!(s.heap_alloc_bytes, 150);
        assert_eq!(s.heap_objects, 2);
        s.on_free(100);
        assert_eq!(s.heap_alloc_bytes, 50);
        assert_eq!(s.heap_objects, 1);
        // Cumulative counters only grow.
        assert_eq!(s.total_allocs, 2);
        assert_eq!(s.total_frees, 1);
    }

    #[test]
    fn free_saturates() {
        let mut s = HeapStats::default();
        s.on_free(10);
        assert_eq!(s.heap_alloc_bytes, 0);
        assert_eq!(s.heap_objects, 0);
        assert_eq!(s.total_frees, 1);
    }
}
