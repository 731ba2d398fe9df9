//! Property-based tests of the semaphore table against a reference model
//! (a map of FIFO queues).

use golf_heap::Handle;
use golf_runtime::{Object, SemaTable, SemaWaiter};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

#[derive(Debug, Clone)]
enum Op {
    Enqueue { sema: usize, gid: u32 },
    DequeueFirst { sema: usize },
    DequeueAll { sema: usize },
    RemoveGoroutine { sema: usize, gid: u32 },
}

fn op_strategy(n_semas: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..n_semas, 0u32..16).prop_map(|(sema, gid)| Op::Enqueue { sema, gid }),
        2 => (0..n_semas).prop_map(|sema| Op::DequeueFirst { sema }),
        1 => (0..n_semas).prop_map(|sema| Op::DequeueAll { sema }),
        1 => (0..n_semas, 0u32..16).prop_map(|(sema, gid)| Op::RemoveGoroutine { sema, gid }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn sema_table_matches_queue_model(
        ops in proptest::collection::vec(op_strategy(6), 1..120),
    ) {
        let mut heap: golf_heap::Heap<Object> = golf_heap::Heap::new();
        let semas: Vec<Handle> = (0..6).map(|_| heap.alloc(Object::Sema)).collect();
        let mut table = SemaTable::default();
        let mut model: HashMap<usize, VecDeque<SemaWaiter>> = HashMap::new();
        let mut token = 0u64;

        for op in ops {
            match op {
                Op::Enqueue { sema, gid } => {
                    token += 1;
                    let w = SemaWaiter { gid: golf_runtime::test_gid(gid), token };
                    table.enqueue(semas[sema], w);
                    model.entry(sema).or_default().push_back(w);
                }
                Op::DequeueFirst { sema } => {
                    let got = table.dequeue_first(semas[sema]);
                    let want = model.entry(sema).or_default().pop_front();
                    prop_assert_eq!(got, want);
                }
                Op::DequeueAll { sema } => {
                    let got = table.dequeue_all(semas[sema]);
                    let want: Vec<SemaWaiter> =
                        model.entry(sema).or_default().drain(..).collect();
                    prop_assert_eq!(got, want);
                }
                Op::RemoveGoroutine { sema, gid } => {
                    let g = golf_runtime::test_gid(gid);
                    let removed = table.remove_goroutine(semas[sema], g);
                    let q = model.entry(sema).or_default();
                    let before = q.len();
                    q.retain(|w| w.gid != g);
                    prop_assert_eq!(removed, before != q.len());
                }
            }
            // Global invariants after every op.
            let model_len: usize = model.values().map(VecDeque::len).sum();
            prop_assert_eq!(table.len(), model_len);
            for (i, h) in semas.iter().enumerate() {
                let got: Vec<SemaWaiter> = table.waiters(*h).collect();
                let want: Vec<SemaWaiter> =
                    model.get(&i).map(|q| q.iter().copied().collect()).unwrap_or_default();
                prop_assert_eq!(got, want, "sema {} queue mismatch", i);
            }
            prop_assert!(table.keys().all(|k| k.is_masked()), "unmasked key leaked");
            let keys: Vec<Handle> = table.keys().collect();
            prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys not strictly ascending");
            let nonempty = model.values().filter(|q| !q.is_empty()).count();
            prop_assert_eq!(keys.len(), nonempty, "an emptied queue left its key behind");
        }
    }
}
