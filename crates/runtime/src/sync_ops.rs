//! `sync` package semantics: Mutex, RWMutex, WaitGroup, Cond.
//!
//! All blocking goes through runtime semaphores registered in the global
//! [`SemaTable`](crate::SemaTable), exactly as Go's `sync` primitives park
//! on `runtime_SemacquireMutex`. Consequently `B(g)` for a `sync`-blocked
//! goroutine is the semaphore handle, and reachability of the primitive
//! (which traces its semaphores) is what keeps the goroutine reachably live.
//!
//! An operation that writes on some paths only reads its primitive first,
//! then takes it through the write barrier (`Heap::get_mut`) on the path
//! that writes, so a handoff or a park never cancels an incremental replay.

use crate::goroutine::{Blocked, Gid, Goroutine, WaitReason};
use crate::object::Object;
use crate::sema::{SemaTable, SemaWaiter};
use crate::value::Value;
use crate::vm::{operand, waiter_valid, Exec, Op, Panic, Vm};
use golf_heap::Handle;
use golf_trace::TraceEvent;

const LOCK: Op = Op::Method("Mutex.Lock");
const UNLOCK: Op = Op::Method("Mutex.Unlock");
const RLOCK: Op = Op::Method("RWMutex.RLock");
const RUNLOCK: Op = Op::Method("RWMutex.RUnlock");
const WLOCK: Op = Op::Method("RWMutex.Lock");
const WUNLOCK: Op = Op::Method("RWMutex.Unlock");
const WG_ADD: Op = Op::Method("WaitGroup.Add");
const WG_WAIT: Op = Op::Method("WaitGroup.Wait");
const COND_WAIT: Op = Op::Method("Cond.Wait");
const COND_SIGNAL: Op = Op::Method("Cond.Signal");

/// Whether `sema` has a still-parked waiter.
fn has_valid_waiter(semas: &SemaTable, goroutines: &[Goroutine], sema: Handle) -> bool {
    semas.waiters(sema).any(|w| waiter_valid(goroutines, w.gid, w.token))
}

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
            if waiter_valid(&self.goroutines, w.gid, w.token) {
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

    pub(crate) fn exec_lock(&mut self, gid: Gid, muv: Value) -> Result<Exec, Panic> {
        let (_, m) = operand(LOCK, muv, |h| self.heap.get_mut(h), Object::as_mutex_mut)?;
        if !m.locked {
            m.locked = true;
            return Ok(Exec::Continue);
        }
        let sema = m.sema;
        Ok(self.park_on_sema(gid, sema, WaitReason::SyncMutexLock))
    }

    pub(crate) fn exec_unlock(&mut self, muv: Value) -> Result<Exec, Panic> {
        let (_, m) = operand(UNLOCK, muv, |h| self.heap.get(h), Object::as_mutex)?;
        if !m.locked {
            return Err(Panic::Go("sync: unlock of unlocked mutex"));
        }
        // A woken waiter takes the lock over directly, like Go's
        // starvation-mode mutex; only with no waiter does it unlock.
        if !self.wake_one(m.sema) {
            operand(UNLOCK, muv, |h| self.heap.get_mut(h), Object::as_mutex_mut)?.1.locked = false;
        }
        Ok(Exec::Continue)
    }

    // ---- RWMutex ----

    pub(crate) fn exec_rlock(&mut self, gid: Gid, rwv: Value) -> Result<Exec, Panic> {
        let (_, rw) = operand(RLOCK, rwv, |h| self.heap.get(h), Object::as_rwlock)?;
        // Writer preference: readers queue behind waiting writers.
        if rw.writer || has_valid_waiter(&self.semas, &self.goroutines, rw.wsema) {
            return Ok(self.park_on_sema(gid, rw.rsema, WaitReason::SyncRwMutexRLock));
        }
        operand(RLOCK, rwv, |h| self.heap.get_mut(h), Object::as_rwlock_mut)?.1.readers += 1;
        Ok(Exec::Continue)
    }

    pub(crate) fn exec_runlock(&mut self, rwv: Value) -> Result<Exec, Panic> {
        if operand(RUNLOCK, rwv, |h| self.heap.get(h), Object::as_rwlock)?.1.readers == 0 {
            return Err(Panic::Go("sync: RUnlock of unlocked RWMutex"));
        }
        let (_, rw) = operand(RUNLOCK, rwv, |h| self.heap.get_mut(h), Object::as_rwlock_mut)?;
        rw.readers -= 1;
        // The last reader out hands the lock to the first waiting writer.
        let wsema = rw.wsema;
        if rw.readers == 0 && has_valid_waiter(&self.semas, &self.goroutines, wsema) {
            rw.writer = true;
            self.wake_one(wsema);
        }
        Ok(Exec::Continue)
    }

    pub(crate) fn exec_wlock(&mut self, gid: Gid, rwv: Value) -> Result<Exec, Panic> {
        let (_, rw) = operand(WLOCK, rwv, |h| self.heap.get(h), Object::as_rwlock)?;
        if rw.writer || rw.readers > 0 {
            return Ok(self.park_on_sema(gid, rw.wsema, WaitReason::SyncRwMutexLock));
        }
        operand(WLOCK, rwv, |h| self.heap.get_mut(h), Object::as_rwlock_mut)?.1.writer = true;
        Ok(Exec::Continue)
    }

    pub(crate) fn exec_wunlock(&mut self, rwv: Value) -> Result<Exec, Panic> {
        let (_, rw) = operand(WUNLOCK, rwv, |h| self.heap.get(h), Object::as_rwlock)?;
        if !rw.writer {
            return Err(Panic::Go("sync: Unlock of unlocked RWMutex"));
        }
        let rsema = rw.rsema;
        // Prefer handing off to the next writer; otherwise admit all readers.
        if self.wake_one(rw.wsema) {
            return Ok(Exec::Continue);
        }
        let mut admitted = 0;
        while self.wake_one(rsema) {
            admitted += 1;
        }
        let (_, rw) = operand(WUNLOCK, rwv, |h| self.heap.get_mut(h), Object::as_rwlock_mut)?;
        rw.writer = false;
        rw.readers += admitted;
        Ok(Exec::Continue)
    }

    // ---- WaitGroup ----

    pub(crate) fn exec_wg_add(&mut self, wgv: Value, n: i64) -> Result<Exec, Panic> {
        let (_, wg) = operand(WG_ADD, wgv, |h| self.heap.get_mut(h), Object::as_wg_mut)?;
        wg.count += n;
        let (count, sema) = (wg.count, wg.sema);
        if count < 0 {
            return Err(Panic::Go("sync: negative WaitGroup counter"));
        }
        if count == 0 {
            self.wake_all(sema);
        }
        Ok(Exec::Continue)
    }

    pub(crate) fn exec_wg_wait(&mut self, gid: Gid, wgv: Value) -> Result<Exec, Panic> {
        let (_, wg) = operand(WG_WAIT, wgv, |h| self.heap.get(h), Object::as_wg)?;
        if wg.count == 0 {
            return Ok(Exec::Continue);
        }
        Ok(self.park_on_sema(gid, wg.sema, WaitReason::SyncWaitGroupWait))
    }

    // ---- Cond ----

    pub(crate) fn exec_cond_wait(&mut self, gid: Gid, cv: Value, mv: Value) -> Result<Exec, Panic> {
        let sema = operand(COND_WAIT, cv, |h| self.heap.get(h), Object::as_cond)?.1.sema;
        let Value::Ref(mh) = mv else {
            return Err(Panic::Go("Cond.Wait without holding a mutex"));
        };
        // Atomically: unlock, park on the cond's sema, and arrange to
        // re-lock on wake (the scheduler honors `pending_lock` first).
        self.exec_unlock(mv)?;
        let result = self.park_on_sema(gid, sema, WaitReason::SyncCondWait);
        if let Some(g) = self.g_mut(gid) {
            g.pending_lock = Some(mh);
        }
        Ok(result)
    }

    pub(crate) fn exec_cond_signal(&mut self, cv: Value, broadcast: bool) -> Result<Exec, Panic> {
        let sema = operand(COND_SIGNAL, cv, |h| self.heap.get(h), Object::as_cond)?.1.sema;
        if broadcast {
            self.wake_all(sema);
        } else {
            self.wake_one(sema);
        }
        Ok(Exec::Continue)
    }
}
