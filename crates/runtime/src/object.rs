//! Heap object model: channels, sync primitives, and user data.

use crate::goroutine::Gid;
use crate::value::{Value, Var};
use golf_heap::{Handle, Trace};
use std::collections::{BTreeMap, VecDeque};

/// Identifies a registered struct type (see
/// [`ProgramSet::struct_type`](crate::ProgramSet::struct_type)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypeId(pub(crate) u32);

/// What a parked goroutine is waiting to do on a channel, and where the
/// waker should deliver the result.
///
/// This is the analogue of Go's `sudog`: an entry in a channel wait queue.
/// Entries carry a `token` so queues can be cleaned lazily — a waiter whose
/// goroutine has since been woken through another channel (select) or killed
/// is simply skipped when popped.
#[derive(Debug, Clone)]
pub struct Waiter {
    /// The parked goroutine.
    pub gid: Gid,
    /// The goroutine's wait token at park time; stale entries are skipped.
    pub token: u64,
    /// What the goroutine is waiting to do.
    pub kind: WaitKind,
    /// For select cases: the pc to resume at when this case fires.
    pub select_target: Option<usize>,
}

/// The direction of a parked channel operation.
#[derive(Debug, Clone)]
pub enum WaitKind {
    /// A parked sender carrying its value.
    Send(Value),
    /// A parked receiver and the destination slots in its top frame.
    Recv {
        /// Where to store the received value (if bound).
        dst: Option<Var>,
        /// Where to store the comma-ok flag (if bound).
        ok_dst: Option<Var>,
    },
}

/// Channel state: a bounded FIFO plus send/receive wait queues.
#[derive(Debug, Default)]
pub struct ChanState {
    /// Buffer capacity; `0` means unbuffered (rendezvous) semantics.
    pub cap: usize,
    /// Buffered values (length ≤ `cap`).
    pub buf: VecDeque<Value>,
    /// Whether [`close`](crate::Vm) has been called.
    pub closed: bool,
    /// Parked senders, FIFO.
    pub sendq: VecDeque<Waiter>,
    /// Parked receivers, FIFO.
    pub recvq: VecDeque<Waiter>,
}

/// `sync.Mutex` state. Blocking goes through the runtime semaphore so that
/// `B(g)` is the semaphore handle, exactly as in Go's `sync` package.
#[derive(Debug)]
pub struct MutexState {
    /// Whether the mutex is held.
    pub locked: bool,
    /// The runtime semaphore blocked lockers park on.
    pub sema: Handle,
    /// Current holder, for error detection (Go does not track this; we do,
    /// to catch unlock-of-unheld in tests).
    pub owner: Option<Gid>,
}

/// `sync.RWMutex` state with writer preference.
#[derive(Debug)]
pub struct RwLockState {
    /// Number of active readers.
    pub readers: usize,
    /// Whether a writer holds the lock.
    pub writer: bool,
    /// Semaphore parked readers wait on.
    pub rsema: Handle,
    /// Semaphore parked writers wait on.
    pub wsema: Handle,
}

/// `sync.WaitGroup` state.
#[derive(Debug)]
pub struct WgState {
    /// The counter manipulated by `Add`/`Done`.
    pub count: i64,
    /// Semaphore `Wait`ers park on.
    pub sema: Handle,
}

/// `sync.Cond` state.
#[derive(Debug)]
pub struct CondState {
    /// Semaphore `Wait`ers park on.
    pub sema: Handle,
}

/// A heap object.
///
/// Every first-class runtime entity that Go would store on its heap is a
/// variant here: concurrency objects (channels, mutexes, rwmutexes, wait
/// groups, condition variables, runtime semaphores) and user data (structs,
/// slices, cells, opaque blobs used to model large payloads cheaply).
#[derive(Debug)]
pub enum Object {
    /// A channel.
    Chan(ChanState),
    /// A `sync.Mutex`.
    Mutex(MutexState),
    /// A `sync.RWMutex`.
    RwLock(RwLockState),
    /// A `sync.WaitGroup`.
    WaitGroup(WgState),
    /// A `sync.Cond`.
    Cond(CondState),
    /// A runtime semaphore token. Waiter bookkeeping lives in the global
    /// semaphore treap (see [`SemaTreap`](crate::SemaTreap)), keyed by the
    /// *masked* handle of this object — mirroring Go's `semaRoot`.
    Sema,
    /// A user struct with named type and positional fields.
    Struct {
        /// The registered struct type.
        ty: TypeId,
        /// Field values, in declaration order.
        fields: Vec<Value>,
    },
    /// A growable vector of values.
    Slice(Vec<Value>),
    /// A Go map (deterministically ordered so runs replay exactly).
    Map(BTreeMap<Value, Value>),
    /// A `sync.Once`. Simplification vs Go: a `Do` that observes the flag
    /// set proceeds immediately instead of blocking until the first caller
    /// finishes (our cooperative quanta make the in-flight window tiny).
    Once {
        /// Whether the callback has been invoked.
        done: bool,
    },
    /// A single-value box (models address-taken locals promoted to the heap
    /// by escape analysis).
    Cell(Value),
    /// An opaque allocation of `bytes` bytes with no outgoing references.
    /// Used to model large payloads (e.g. the 100K-entry maps in the paper's
    /// Table 2 service) without per-entry cost.
    Blob {
        /// Modeled size.
        bytes: usize,
    },
}

impl Object {
    /// A fresh channel of capacity `cap`.
    pub fn chan(cap: usize) -> Self {
        Object::Chan(ChanState { cap, ..ChanState::default() })
    }

    /// Convenience accessor for channel state.
    pub fn as_chan(&self) -> Option<&ChanState> {
        match self {
            Object::Chan(c) => Some(c),
            _ => None,
        }
    }
}

impl Trace for Object {
    fn trace(&self, visit: &mut dyn FnMut(Handle)) {
        match self {
            Object::Chan(c) => {
                for v in &c.buf {
                    if let Value::Ref(h) = v {
                        visit(*h);
                    }
                }
                // Values held by parked senders are also kept alive by the
                // channel (they are on the sender's stack too, but a select
                // sender may have been woken through another case).
                for w in &c.sendq {
                    if let WaitKind::Send(Value::Ref(h)) = w.kind {
                        visit(h);
                    }
                }
            }
            Object::Mutex(m) => visit(m.sema),
            Object::RwLock(rw) => {
                visit(rw.rsema);
                visit(rw.wsema);
            }
            Object::WaitGroup(w) => visit(w.sema),
            Object::Cond(c) => visit(c.sema),
            Object::Sema => {}
            Object::Struct { fields, .. } => {
                for v in fields {
                    if let Value::Ref(h) = v {
                        visit(*h);
                    }
                }
            }
            Object::Slice(vs) => {
                for v in vs {
                    if let Value::Ref(h) = v {
                        visit(*h);
                    }
                }
            }
            Object::Map(m) => {
                for (k, v) in m {
                    if let Value::Ref(h) = k {
                        visit(*h);
                    }
                    if let Value::Ref(h) = v {
                        visit(*h);
                    }
                }
            }
            Object::Once { .. } => {}
            Object::Cell(v) => {
                if let Value::Ref(h) = v {
                    visit(*h);
                }
            }
            Object::Blob { .. } => {}
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            Object::Chan(c) => 96 + c.cap * 16,
            Object::Mutex(_) => 16,
            Object::RwLock(_) => 24,
            Object::WaitGroup(_) => 16,
            Object::Cond(_) => 16,
            Object::Sema => 8,
            Object::Struct { fields, .. } => 16 + fields.len() * 16,
            Object::Slice(vs) => 24 + vs.len() * 16,
            Object::Map(m) => 48 + m.len() * 32,
            Object::Once { .. } => 12,
            Object::Cell(_) => 16,
            Object::Blob { bytes } => *bytes,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Object::Chan(_) => "chan",
            Object::Mutex(_) => "sync.Mutex",
            Object::RwLock(_) => "sync.RWMutex",
            Object::WaitGroup(_) => "sync.WaitGroup",
            Object::Cond(_) => "sync.Cond",
            Object::Sema => "runtime.sema",
            Object::Struct { .. } => "struct",
            Object::Slice(_) => "slice",
            Object::Map(_) => "map",
            Object::Once { .. } => "sync.Once",
            Object::Cell(_) => "cell",
            Object::Blob { .. } => "blob",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use golf_heap::Heap;

    #[test]
    fn chan_traces_buffer_refs() {
        let mut heap: Heap<Object> = Heap::new();
        let payload = heap.alloc(Object::Cell(Value::Int(1)));
        let mut st = ChanState { cap: 2, ..Default::default() };
        st.buf.push_back(Value::Ref(payload));
        st.buf.push_back(Value::Int(5));
        let ch = heap.alloc(Object::Chan(st));

        let mut seen = Vec::new();
        heap.get(ch).unwrap().trace(&mut |h| seen.push(h));
        assert_eq!(seen, vec![payload]);
    }

    #[test]
    fn mutex_traces_sema() {
        let mut heap: Heap<Object> = Heap::new();
        let sema = heap.alloc(Object::Sema);
        let m = heap.alloc(Object::Mutex(MutexState { locked: false, sema, owner: None }));
        let mut seen = Vec::new();
        heap.get(m).unwrap().trace(&mut |h| seen.push(h));
        assert_eq!(seen, vec![sema]);
    }

    #[test]
    fn blob_sizes_dominate() {
        let b = Object::Blob { bytes: 1 << 20 };
        assert_eq!(b.size_bytes(), 1 << 20);
        assert!(b.as_chan().is_none());
    }

    #[test]
    fn kinds_are_descriptive() {
        assert_eq!(Object::chan(0).kind(), "chan");
        assert_eq!(Object::Slice(vec![]).kind(), "slice");
    }
}
