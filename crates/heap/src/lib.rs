//! # golf-heap
//!
//! A handle-based managed heap — the memory substrate for the golf runtime.
//!
//! The paper this repository reproduces ("Dynamic Partial Deadlock Detection
//! and Recovery via Garbage Collection", ASPLOS'25) piggybacks deadlock
//! detection on Go's tricolor mark-and-sweep collector. Rust has no managed
//! heap, so this crate provides one: objects are stored in a slot table and
//! referenced through opaque [`Handle`]s; each slot carries a mark bit, a
//! byte-size estimate, and an optional finalizer payload. The collector
//! itself lives in `golf-core`; this crate only provides the mechanism
//! (allocation, tracing, mark bits, sweeping, statistics).
//!
//! ## Address obfuscation
//!
//! GOLF hides goroutine and semaphore addresses stored in *global* runtime
//! tables from the marker by flipping the highest-order bit of the pointer
//! (paper §5.4). [`Handle::masked`] reproduces this: a masked handle compares
//! unequal to its unmasked form, and tracing code is expected to skip masked
//! handles (see [`Handle::is_masked`]).
//!
//! ## Example
//!
//! ```
//! use golf_heap::{Heap, Trace, Handle};
//!
//! struct Node { next: Option<Handle> }
//! impl Trace for Node {
//!     fn trace(&self, visit: &mut dyn FnMut(Handle)) {
//!         if let Some(n) = self.next { visit(n); }
//!     }
//! }
//!
//! let mut heap: Heap<Node> = Heap::new();
//! let tail = heap.alloc(Node { next: None });
//! let head = heap.alloc(Node { next: Some(tail) });
//! assert_eq!(heap.len(), 2);
//!
//! // Mark from `head` only; both nodes survive the sweep.
//! heap.clear_marks();
//! let mut work = vec![head];
//! while let Some(h) = work.pop() {
//!     if heap.try_mark(h) {
//!         heap.get(h).unwrap().trace(&mut |child| work.push(child));
//!     }
//! }
//! let swept = heap.sweep_unmarked();
//! assert_eq!(swept.reclaimed_objects, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod handle;
mod marks;
mod slot_heap;
mod stats;
mod trace;

pub use handle::Handle;
pub use marks::MarkBits;
pub use slot_heap::{Heap, SweepOutcome};
pub use stats::HeapStats;
pub use trace::Trace;
