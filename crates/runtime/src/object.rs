//! Heap object model: channels, sync primitives, and user data.

use crate::goroutine::Gid;
use crate::value::{Value, Var};
use golf_heap::{Handle, Trace};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;

/// Identifies a registered struct type (see
/// [`ProgramSet::struct_type`](crate::ProgramSet::struct_type)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypeId(pub(crate) u32);

/// A goroutine parked on a channel, and what it parked with: `op` is the
/// value a sender carries ([`Value`]) or the slots a receiver's result goes
/// to ([`RecvSlots`]).
///
/// This is the analogue of Go's `sudog`: an entry in a channel wait queue.
/// Each queue holds one direction, so its type says which. Entries carry a
/// `token` so queues can be cleaned lazily — a waiter whose goroutine has
/// since been woken through another channel (select) or killed is simply
/// skipped when popped.
#[derive(Debug, Clone)]
pub struct Waiter<T> {
    /// The parked goroutine.
    pub gid: Gid,
    /// The goroutine's wait token at park time; stale entries are skipped.
    pub token: u64,
    /// The sent value, or where the received one goes.
    pub op: T,
    /// For select cases: the pc to resume at when this case fires.
    pub select_target: Option<usize>,
}

/// Where a parked receiver's result goes, in its top frame.
#[derive(Debug, Clone, Copy)]
pub struct RecvSlots {
    /// Where to store the received value (if bound).
    pub dst: Option<Var>,
    /// Where to store the comma-ok flag (if bound).
    pub ok_dst: Option<Var>,
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
    /// Parked senders and their values, FIFO.
    pub sendq: VecDeque<Waiter<Value>>,
    /// Parked receivers and their result slots, FIFO.
    pub recvq: VecDeque<Waiter<RecvSlots>>,
}

/// `sync.Mutex` state. Blocking goes through the runtime semaphore so that
/// `B(g)` is the semaphore handle, exactly as in Go's `sync` package.
#[derive(Debug)]
pub struct MutexState {
    /// Whether the mutex is held.
    pub locked: bool,
    /// The runtime semaphore blocked lockers park on.
    pub sema: Handle,
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

/// The elements of an [`Object::Slice`], with a count of how many are
/// [`Value::Ref`]s.
///
/// The count is what makes a pointer-free slice *noscan*, like a Go span of
/// a pointer-free type: marking returns at once for a slice with no refs
/// instead of reading every element. Writes go through [`SliceVals::push`]
/// and [`SliceVals::set`], which keep the count exact; reads deref to
/// `[Value]`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SliceVals {
    vals: Vec<Value>,
    refs: usize,
}

impl SliceVals {
    /// Appends `v`.
    pub fn push(&mut self, v: Value) {
        self.refs += usize::from(matches!(v, Value::Ref(_)));
        self.vals.push(v);
    }

    /// Overwrites element `i` with `v`, returning `false` (and changing
    /// nothing) when `i` is out of range.
    pub fn set(&mut self, i: usize, v: Value) -> bool {
        let Some(slot) = self.vals.get_mut(i) else { return false };
        self.refs -= usize::from(matches!(slot, Value::Ref(_)));
        self.refs += usize::from(matches!(v, Value::Ref(_)));
        *slot = v;
        true
    }

    /// Number of [`Value::Ref`] elements; `0` means marking skips the slice.
    pub fn refs(&self) -> usize {
        self.refs
    }
}

impl From<Vec<Value>> for SliceVals {
    fn from(vals: Vec<Value>) -> Self {
        let refs = vals.iter().filter(|v| matches!(v, Value::Ref(_))).count();
        SliceVals { vals, refs }
    }
}

impl Deref for SliceVals {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.vals
    }
}

impl fmt::Debug for SliceVals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.vals.fmt(f)
    }
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
    /// semaphore table (see [`SemaTable`](crate::SemaTable)), keyed by the
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
    Slice(SliceVals),
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
        let Object::Chan(c) = self else { return None };
        Some(c)
    }

    // One typed view per variant: the `part` of `vm::operand`.
    pub(crate) fn as_chan_mut(&mut self) -> Option<&mut ChanState> {
        let Object::Chan(c) = self else { return None };
        Some(c)
    }
    pub(crate) fn as_mutex(&self) -> Option<&MutexState> {
        let Object::Mutex(m) = self else { return None };
        Some(m)
    }
    pub(crate) fn as_mutex_mut(&mut self) -> Option<&mut MutexState> {
        let Object::Mutex(m) = self else { return None };
        Some(m)
    }
    pub(crate) fn as_rwlock(&self) -> Option<&RwLockState> {
        let Object::RwLock(rw) = self else { return None };
        Some(rw)
    }
    pub(crate) fn as_rwlock_mut(&mut self) -> Option<&mut RwLockState> {
        let Object::RwLock(rw) = self else { return None };
        Some(rw)
    }
    pub(crate) fn as_wg(&self) -> Option<&WgState> {
        let Object::WaitGroup(wg) = self else { return None };
        Some(wg)
    }
    pub(crate) fn as_wg_mut(&mut self) -> Option<&mut WgState> {
        let Object::WaitGroup(wg) = self else { return None };
        Some(wg)
    }
    pub(crate) fn as_cond(&self) -> Option<&CondState> {
        let Object::Cond(c) = self else { return None };
        Some(c)
    }
    pub(crate) fn as_fields(&self) -> Option<&[Value]> {
        let Object::Struct { fields, .. } = self else { return None };
        Some(fields)
    }
    pub(crate) fn as_fields_mut(&mut self) -> Option<&mut [Value]> {
        let Object::Struct { fields, .. } = self else { return None };
        Some(fields)
    }
    pub(crate) fn as_slice(&self) -> Option<&SliceVals> {
        let Object::Slice(vs) = self else { return None };
        Some(vs)
    }
    pub(crate) fn as_slice_mut(&mut self) -> Option<&mut SliceVals> {
        let Object::Slice(vs) = self else { return None };
        Some(vs)
    }
    pub(crate) fn as_cell(&self) -> Option<&Value> {
        let Object::Cell(v) = self else { return None };
        Some(v)
    }
    pub(crate) fn as_cell_mut(&mut self) -> Option<&mut Value> {
        let Object::Cell(v) = self else { return None };
        Some(v)
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
                    if let Value::Ref(h) = w.op {
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
                if vs.refs() == 0 {
                    return;
                }
                for v in vs.iter() {
                    if let Value::Ref(h) = v {
                        visit(*h);
                    }
                }
            }
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
            Object::Cell(_) => 16,
            Object::Blob { bytes } => *bytes,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Object::Chan(_) => "chan",
            Object::Mutex(_) => "mutex",
            Object::RwLock(_) => "rwmutex",
            Object::WaitGroup(_) => "waitgroup",
            Object::Cond(_) => "cond",
            Object::Sema => "sema",
            Object::Struct { .. } => "struct",
            Object::Slice(_) => "slice",
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
        let m = heap.alloc(Object::Mutex(MutexState { locked: false, sema }));
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
        assert_eq!(Object::Slice(SliceVals::default()).kind(), "slice");
    }

    #[test]
    fn slice_counts_refs_through_every_write() {
        let mut heap: Heap<Object> = Heap::new();
        let a = heap.alloc(Object::Sema);
        let mut vs = SliceVals::from(vec![Value::Int(1), Value::Ref(a)]);
        assert_eq!(vs.refs(), 1);
        vs.push(Value::Ref(a));
        assert_eq!(vs.refs(), 2);
        assert!(vs.set(1, Value::Int(2)));
        assert!(vs.set(2, Value::Nil));
        assert!(!vs.set(3, Value::Ref(a)), "out of range changes nothing");
        assert_eq!(vs.refs(), 0);
        assert_eq!(format!("{vs:?}"), "[Int(1), Int(2), Nil]");
        let mut seen = Vec::new();
        Object::Slice(vs).trace(&mut |h| seen.push(h));
        assert!(seen.is_empty());
    }
}
