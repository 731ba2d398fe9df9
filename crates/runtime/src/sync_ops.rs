//! `sync` package semantics: Mutex, RWMutex, WaitGroup, Cond.
//!
//! All blocking goes through runtime semaphores registered in the global
//! [`SemaTable`](crate::SemaTable), exactly as Go's `sync` primitives park
//! on `runtime_SemacquireMutex`. Consequently `B(g)` for a `sync`-blocked
//! goroutine is the semaphore handle, and reachability of the primitive
//! (which traces its semaphores) is what keeps the goroutine reachably live.

use crate::goroutine::{Blocked, Gid, WaitReason};
use crate::object::Object;
use crate::sema::SemaWaiter;
use crate::value::Value;
use crate::vm::{Exec, Vm};
use golf_heap::Handle;
use golf_trace::TraceEvent;

impl Vm {
    fn park_on_sema(&mut self, gid: Gid, sema: Handle, reason: WaitReason) -> Exec {
        let token = self.park(gid, reason, Blocked::Sema(sema));
        self.semas.enqueue(sema, SemaWaiter { gid, token });
        if self.trace_enabled() {
            self.trace_emit(TraceEvent::SemaEnqueue { gid: gid.into(), sema });
        }
        Exec::Parked
    }

    /// Wakes the first still-parked waiter on `sema`, skipping stale
    /// entries, and says whether there was one.
    fn wake_one(&mut self, sema: Handle) -> bool {
        while let Some(w) = self.semas.dequeue_first(sema) {
            if self.waiter_valid(w.gid, w.token) {
                if self.trace_enabled() {
                    self.trace_emit(TraceEvent::SemaDequeue { gid: w.gid.into(), sema });
                }
                self.wake(w.gid, w.token);
                return true;
            }
        }
        false
    }

    /// Empties the queue of `sema`, waking every still-parked waiter.
    fn wake_all(&mut self, sema: Handle) {
        for w in self.semas.dequeue_all(sema) {
            if self.wake(w.gid, w.token) && self.trace_enabled() {
                self.trace_emit(TraceEvent::SemaDequeue { gid: w.gid.into(), sema });
            }
        }
    }

    // ---- Mutex ----

    pub(crate) fn exec_lock(&mut self, gid: Gid, muv: Value, reason: WaitReason) -> Exec {
        let Value::Ref(h) = muv else {
            return self.goroutine_panic(gid, "nil pointer dereference (Mutex.Lock)");
        };
        let Some(Object::Mutex(m)) = self.heap.get_mut(h) else {
            return self.goroutine_panic(gid, "Lock on non-mutex value");
        };
        if !m.locked {
            m.locked = true;
            return Exec::Continue;
        }
        let sema = m.sema;
        self.park_on_sema(gid, sema, reason)
    }

    pub(crate) fn exec_unlock(&mut self, gid: Gid, muv: Value) -> Exec {
        let Value::Ref(h) = muv else {
            return self.goroutine_panic(gid, "nil pointer dereference (Mutex.Unlock)");
        };
        let Some(Object::Mutex(m)) = self.heap.get(h) else {
            return self.goroutine_panic(gid, "Unlock on non-mutex value");
        };
        if !m.locked {
            return self.goroutine_panic(gid, "sync: unlock of unlocked mutex");
        }
        let sema = m.sema;
        // A woken waiter takes the lock over directly, like Go's
        // starvation-mode mutex; only with no waiter does it unlock.
        if !self.wake_one(sema) {
            if let Some(Object::Mutex(m)) = self.heap.get_mut(h) {
                m.locked = false;
            }
        }
        Exec::Continue
    }

    // ---- RWMutex ----

    fn has_valid_waiter(&self, sema: Handle) -> bool {
        self.semas.waiters(sema).any(|w| self.waiter_valid(w.gid, w.token))
    }

    pub(crate) fn exec_rlock(&mut self, gid: Gid, rwv: Value) -> Exec {
        let Value::Ref(h) = rwv else {
            return self.goroutine_panic(gid, "nil pointer dereference (RWMutex.RLock)");
        };
        let Some(Object::RwLock(rw)) = self.heap.get(h) else {
            return self.goroutine_panic(gid, "RLock on non-RWMutex value");
        };
        let (writer, rsema, wsema) = (rw.writer, rw.rsema, rw.wsema);
        // Writer preference: readers queue behind waiting writers.
        if !writer && !self.has_valid_waiter(wsema) {
            if let Some(Object::RwLock(rw)) = self.heap.get_mut(h) {
                rw.readers += 1;
            }
            return Exec::Continue;
        }
        self.park_on_sema(gid, rsema, WaitReason::SyncRwMutexRLock)
    }

    pub(crate) fn exec_runlock(&mut self, gid: Gid, rwv: Value) -> Exec {
        let Value::Ref(h) = rwv else {
            return self.goroutine_panic(gid, "nil pointer dereference (RWMutex.RUnlock)");
        };
        let Some(Object::RwLock(rw)) = self.heap.get(h) else {
            return self.goroutine_panic(gid, "RUnlock on non-RWMutex value");
        };
        if rw.readers == 0 {
            return self.goroutine_panic(gid, "sync: RUnlock of unlocked RWMutex");
        }
        let wsema = rw.wsema;
        let remaining = {
            let Some(Object::RwLock(rw)) = self.heap.get_mut(h) else { unreachable!() };
            rw.readers -= 1;
            rw.readers
        };
        if remaining == 0 && self.wake_one(wsema) {
            if let Some(Object::RwLock(rw)) = self.heap.get_mut(h) {
                rw.writer = true;
            }
        }
        Exec::Continue
    }

    pub(crate) fn exec_wlock(&mut self, gid: Gid, rwv: Value) -> Exec {
        let Value::Ref(h) = rwv else {
            return self.goroutine_panic(gid, "nil pointer dereference (RWMutex.Lock)");
        };
        let Some(Object::RwLock(rw)) = self.heap.get(h) else {
            return self.goroutine_panic(gid, "Lock on non-RWMutex value");
        };
        let (writer, readers, wsema) = (rw.writer, rw.readers, rw.wsema);
        if !writer && readers == 0 {
            if let Some(Object::RwLock(rw)) = self.heap.get_mut(h) {
                rw.writer = true;
            }
            return Exec::Continue;
        }
        self.park_on_sema(gid, wsema, WaitReason::SyncRwMutexLock)
    }

    pub(crate) fn exec_wunlock(&mut self, gid: Gid, rwv: Value) -> Exec {
        let Value::Ref(h) = rwv else {
            return self.goroutine_panic(gid, "nil pointer dereference (RWMutex.Unlock)");
        };
        let Some(Object::RwLock(rw)) = self.heap.get(h) else {
            return self.goroutine_panic(gid, "Unlock on non-RWMutex value");
        };
        if !rw.writer {
            return self.goroutine_panic(gid, "sync: Unlock of unlocked RWMutex");
        }
        let (rsema, wsema) = (rw.rsema, rw.wsema);
        // Prefer handing off to the next writer; otherwise admit all readers.
        if self.wake_one(wsema) {
            return Exec::Continue;
        }
        let mut admitted = 0;
        while self.wake_one(rsema) {
            admitted += 1;
        }
        if let Some(Object::RwLock(rw)) = self.heap.get_mut(h) {
            rw.writer = false;
            rw.readers += admitted;
        }
        Exec::Continue
    }

    // ---- WaitGroup ----

    pub(crate) fn exec_wg_add(&mut self, gid: Gid, wgv: Value, n: i64) -> Exec {
        let Value::Ref(h) = wgv else {
            return self.goroutine_panic(gid, "nil pointer dereference (WaitGroup.Add)");
        };
        let Some(Object::WaitGroup(wg)) = self.heap.get_mut(h) else {
            return self.goroutine_panic(gid, "Add on non-WaitGroup value");
        };
        wg.count += n;
        let (count, sema) = (wg.count, wg.sema);
        if count < 0 {
            return self.goroutine_panic(gid, "sync: negative WaitGroup counter");
        }
        if count == 0 {
            self.wake_all(sema);
        }
        Exec::Continue
    }

    pub(crate) fn exec_wg_wait(&mut self, gid: Gid, wgv: Value) -> Exec {
        let Value::Ref(h) = wgv else {
            return self.goroutine_panic(gid, "nil pointer dereference (WaitGroup.Wait)");
        };
        let Some(Object::WaitGroup(wg)) = self.heap.get(h) else {
            return self.goroutine_panic(gid, "Wait on non-WaitGroup value");
        };
        if wg.count == 0 {
            return Exec::Continue;
        }
        let sema = wg.sema;
        self.park_on_sema(gid, sema, WaitReason::SyncWaitGroupWait)
    }

    // ---- Cond ----

    pub(crate) fn exec_cond_wait(&mut self, gid: Gid, condv: Value, muv: Value) -> Exec {
        let Value::Ref(ch) = condv else {
            return self.goroutine_panic(gid, "nil pointer dereference (Cond.Wait)");
        };
        let Some(Object::Cond(c)) = self.heap.get(ch) else {
            return self.goroutine_panic(gid, "Wait on non-Cond value");
        };
        let sema = c.sema;
        let Value::Ref(mh) = muv else {
            return self.goroutine_panic(gid, "Cond.Wait without holding a mutex");
        };
        // Atomically: unlock, park on the cond's sema, and arrange to
        // re-lock on wake (the scheduler honors `pending_lock` first).
        if let e @ Exec::Finished = self.exec_unlock(gid, muv) {
            return e;
        }
        let result = self.park_on_sema(gid, sema, WaitReason::SyncCondWait);
        if let Some(g) = self.g_mut(gid) {
            g.pending_lock = Some(mh);
        }
        result
    }

    pub(crate) fn exec_cond_signal(&mut self, gid: Gid, condv: Value, broadcast: bool) -> Exec {
        let Value::Ref(h) = condv else {
            return self.goroutine_panic(gid, "nil pointer dereference (Cond.Signal)");
        };
        let Some(Object::Cond(c)) = self.heap.get(h) else {
            return self.goroutine_panic(gid, "Signal on non-Cond value");
        };
        let sema = c.sema;
        if broadcast {
            self.wake_all(sema);
        } else {
            self.wake_one(sema);
        }
        Exec::Continue
    }
}
