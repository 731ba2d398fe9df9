//! Property-based tests for the heap: mark/sweep soundness and accounting
//! invariants under arbitrary interleavings of operations.

use golf_heap::{Handle, Heap, Trace};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
struct Node {
    children: Vec<Handle>,
    bytes: usize,
}

impl Trace for Node {
    fn trace(&self, visit: &mut dyn FnMut(Handle)) {
        for &c in &self.children {
            visit(c);
        }
    }
    fn size_bytes(&self) -> usize {
        self.bytes
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a node of `bytes`, linking to up to two previously allocated
    /// live objects chosen by index.
    Alloc { bytes: usize, link_a: usize, link_b: usize },
    /// Run a full GC rooted at every live object except those whose
    /// position `p` has `p % stride == root % stride`. A stride of 1 roots
    /// nothing; larger strides drop fewer roots, so heaps grow over several
    /// bitmap words between the collections that shrink them.
    Collect { root: usize, stride: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (1usize..512, any::<usize>(), any::<usize>())
            .prop_map(|(bytes, link_a, link_b)| Op::Alloc { bytes, link_a, link_b }),
        1 => (any::<usize>(), 1usize..65).prop_map(|(root, stride)| Op::Collect { root, stride }),
    ]
}

fn mark_from(heap: &mut Heap<Node>, roots: &[Handle]) -> HashSet<Handle> {
    heap.clear_marks();
    let mut work: Vec<Handle> = roots.to_vec();
    let mut marked = HashSet::new();
    while let Some(h) = work.pop() {
        if heap.try_mark(h) {
            marked.insert(h);
            if let Some(obj) = heap.get(h) {
                obj.trace(&mut |c| work.push(c));
            }
        }
    }
    marked
}

proptest! {
    /// After any op sequence: reachable objects survive collection, the
    /// marked set equals graph reachability computed independently, and byte
    /// accounting matches the sum of live object sizes.
    #[test]
    fn mark_sweep_preserves_reachable(ops in proptest::collection::vec(op_strategy(), 1..500)) {
        let mut heap: Heap<Node> = Heap::new();
        let mut live: Vec<Handle> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc { bytes, link_a, link_b } => {
                    let mut children = Vec::new();
                    if !live.is_empty() {
                        children.push(live[link_a % live.len()]);
                        children.push(live[link_b % live.len()]);
                    }
                    let h = heap.alloc(Node { children, bytes });
                    live.push(h);
                }
                Op::Collect { root, stride } => {
                    if live.is_empty() {
                        heap.clear_marks();
                        heap.sweep_unmarked();
                        prop_assert_eq!(heap.len(), 0);
                        continue;
                    }
                    let dropped = root % stride;
                    let roots: Vec<Handle> = (0..live.len())
                        .filter(|p| p % stride != dropped)
                        .map(|p| live[p])
                        .collect();
                    let marked = mark_from(&mut heap, &roots);
                    let before = heap.len();
                    let out = heap.sweep_unmarked();
                    prop_assert_eq!(out.reclaimed_objects as usize, before - marked.len());
                    // Every marked object survived; every other handle died.
                    for h in &marked {
                        prop_assert!(heap.contains(*h));
                    }
                    prop_assert_eq!(heap.len(), marked.len());
                    // Handles the sweep killed are stale and inert, even
                    // while their dead objects still sit in the slots.
                    for h in live.iter().filter(|h| !marked.contains(h)) {
                        prop_assert!(heap.get(*h).is_none());
                        prop_assert!(!heap.try_mark(*h));
                    }
                    live.retain(|h| marked.contains(h));
                }
            }

            // Accounting invariant: stats agree with a fresh traversal.
            let sum: u64 = heap.iter().map(|(_, o)| o.size_bytes() as u64).sum();
            prop_assert_eq!(heap.stats().heap_alloc_bytes, sum);
            prop_assert_eq!(heap.stats().heap_objects as usize, heap.len());
            prop_assert!(heap.validate().is_ok(), "{:?}", heap.validate());
        }
    }

    /// Handles returned by alloc are unique across the whole run, even with
    /// slot reuse after sweeps (generations disambiguate).
    #[test]
    fn handles_never_repeat(count in 1usize..40, kills in proptest::collection::vec(any::<usize>(), 0..40)) {
        let mut heap: Heap<Node> = Heap::new();
        let mut seen = HashSet::new();
        let mut live = Vec::new();
        for i in 0..count {
            let h = heap.alloc(Node { children: vec![], bytes: 1 });
            prop_assert!(seen.insert(h), "handle reused: {h:?}");
            live.push(h);
            if let Some(&k) = kills.get(i) {
                // One collection that roots every live object but the victim.
                live.swap_remove(k % live.len());
                mark_from(&mut heap, &live);
                prop_assert_eq!(heap.sweep_unmarked().reclaimed_objects, 1);
            }
        }
    }

    /// Finalizable objects survive exactly one extra sweep.
    #[test]
    fn finalizers_delay_reclamation_once(n in 1usize..20) {
        let mut heap: Heap<Node, usize> = Heap::new();
        let handles: Vec<Handle> = (0..n)
            .map(|i| {
                let h = heap.alloc(Node { children: vec![], bytes: 8 });
                if i % 2 == 0 {
                    heap.set_finalizer(h, i);
                }
                h
            })
            .collect();

        heap.clear_marks();
        let first = heap.sweep_unmarked();
        let expected_fin = handles.iter().step_by(2).count();
        prop_assert_eq!(first.finalizable.len(), expected_fin);
        prop_assert_eq!(first.reclaimed_objects as usize, n - expected_fin);

        heap.clear_marks();
        let second = heap.sweep_unmarked();
        prop_assert_eq!(second.reclaimed_objects as usize, expected_fin);
        prop_assert!(second.finalizable.is_empty());
        prop_assert!(heap.is_empty());
    }
}
