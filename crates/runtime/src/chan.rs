//! Channel semantics: send, receive, close, select and timer delivery.
//!
//! Faithful to Go: unbuffered channels rendezvous, buffered channels block
//! only when full/empty, receives on closed channels drain the buffer then
//! yield zero values with `ok == false`, sends on closed channels panic, and
//! operations on nil channels block forever (`B(g) = {ε}` — intrinsically
//! undetectable by reachability, and therefore *always* detectable by GOLF).

use crate::goroutine::{Blocked, Gid, WaitReason};
use crate::instr::{SelOp, SelectCase};
use crate::object::{ChanState, Object, RecvSlots, Waiter};
use crate::value::{Value, Var};
use crate::vm::{Exec, Vm};
use golf_trace::TraceEvent;
use rand::Rng;
use std::collections::VecDeque;

impl Vm {
    fn chan_mut(&mut self, h: golf_heap::Handle) -> Option<&mut ChanState> {
        match self.heap.get_mut(h) {
            Some(Object::Chan(c)) => Some(c),
            _ => None,
        }
    }

    fn chan_ref(&self, h: golf_heap::Handle) -> Option<&ChanState> {
        match self.heap.get(h) {
            Some(Object::Chan(c)) => Some(c),
            _ => None,
        }
    }

    /// Pops the first *valid* waiter from the channel queue `queue` picks,
    /// skipping entries whose goroutine was already woken through another
    /// select case or killed (lazy sudog invalidation).
    fn pop_valid<T>(
        &mut self,
        ch: golf_heap::Handle,
        queue: impl Fn(&mut ChanState) -> &mut VecDeque<Waiter<T>>,
    ) -> Option<Waiter<T>> {
        loop {
            let w = queue(self.chan_mut(ch)?).pop_front()?;
            if self.waiter_valid(w.gid, w.token) {
                return Some(w);
            }
        }
    }

    /// `ch <- v`.
    pub(crate) fn exec_send(&mut self, gid: Gid, chv: Value, v: Value) -> Exec {
        let Value::Ref(h) = chv else {
            // Send on nil channel: blocks forever on ε.
            self.park(gid, WaitReason::ChanSendNilChan, Blocked::Epsilon);
            return Exec::Parked;
        };
        let Some(c) = self.chan_ref(h) else {
            return self.goroutine_panic(gid, "send on non-channel value");
        };
        if c.closed {
            return self.goroutine_panic(gid, "send on closed channel");
        }
        // Rendezvous with a waiting receiver.
        if let Some(w) = self.pop_valid(h, |c| &mut c.recvq) {
            self.resume_receiver(&w, v, true);
            if self.trace_enabled() {
                self.trace_emit(TraceEvent::ChanSend { gid: gid.into(), chan: h });
            }
            return Exec::Continue;
        }
        // Buffered channel with room.
        {
            let c = self.chan_mut(h).expect("checked above");
            if c.buf.len() < c.cap {
                c.buf.push_back(v);
                self.heap.refresh_size(h);
                if self.trace_enabled() {
                    self.trace_emit(TraceEvent::ChanSend { gid: gid.into(), chan: h });
                }
                return Exec::Continue;
            }
        }
        // Block.
        let token = self.park(gid, WaitReason::ChanSend, Blocked::Chans(vec![h]));
        let c = self.chan_mut(h).expect("checked above");
        c.sendq.push_back(Waiter { gid, token, op: v, select_target: None });
        Exec::Parked
    }

    /// `dst, ok := <-ch`.
    pub(crate) fn exec_recv(
        &mut self,
        gid: Gid,
        chv: Value,
        dst: Option<Var>,
        ok_dst: Option<Var>,
    ) -> Exec {
        let Value::Ref(h) = chv else {
            self.park(gid, WaitReason::ChanReceiveNilChan, Blocked::Epsilon);
            return Exec::Parked;
        };
        let Some(c) = self.chan_mut(h) else {
            return self.goroutine_panic(gid, "receive on non-channel value");
        };
        let (buffered, closed) = (c.buf.pop_front(), c.closed);
        let (v, ok) = if let Some(v) = buffered {
            // Refill the buffer from a parked sender, if any.
            if let Some(w) = self.pop_valid(h, |c| &mut c.sendq) {
                self.chan_mut(h).expect("checked").buf.push_back(w.op);
                self.resume(&w);
            }
            self.heap.refresh_size(h);
            (v, true)
        } else if let Some(w) = self.pop_valid(h, |c| &mut c.sendq) {
            // Rendezvous with a parked sender (unbuffered, or racing on an
            // empty buffer).
            self.resume(&w);
            (w.op, true)
        } else if closed {
            // Closed and drained: zero value, ok = false.
            (Value::Nil, false)
        } else {
            // Block.
            let token = self.park(gid, WaitReason::ChanReceive, Blocked::Chans(vec![h]));
            let c = self.chan_mut(h).expect("checked");
            let op = RecvSlots { dst, ok_dst };
            c.recvq.push_back(Waiter { gid, token, op, select_target: None });
            return Exec::Parked;
        };
        if let Some(d) = dst {
            self.write_var(gid, d, v);
        }
        if let Some(o) = ok_dst {
            self.write_var(gid, o, Value::Bool(ok));
        }
        if ok && self.trace_enabled() {
            self.trace_emit(TraceEvent::ChanRecv { gid: gid.into(), chan: h });
        }
        Exec::Continue
    }

    /// `close(ch)`.
    pub(crate) fn exec_close(&mut self, gid: Gid, chv: Value) -> Exec {
        let Value::Ref(h) = chv else {
            return self.goroutine_panic(gid, "close of nil channel");
        };
        let Some(c) = self.chan_mut(h) else {
            return self.goroutine_panic(gid, "close of non-channel value");
        };
        if c.closed {
            return self.goroutine_panic(gid, "close of closed channel");
        }
        c.closed = true;
        if self.trace_enabled() {
            self.trace_emit(TraceEvent::ChanClose { gid: gid.into(), chan: h });
        }
        // Wake every parked receiver with the zero value (buffer is
        // necessarily empty when receivers are parked).
        while let Some(w) = self.pop_valid(h, |c| &mut c.recvq) {
            self.resume_receiver(&w, Value::Nil, false);
        }
        // Parked senders observe the close and panic (Go semantics).
        let mut panicking = Vec::new();
        while let Some(w) = self.pop_valid(h, |c| &mut c.sendq) {
            panicking.push(w);
        }
        for w in panicking {
            // A select with several send arms on this channel is queued once
            // per arm; only its first entry panics it.
            if !self.waiter_valid(w.gid, w.token) {
                continue;
            }
            self.resume(&w);
            if let e @ Exec::Finished = self.goroutine_panic(w.gid, "send on closed channel") {
                if self.fatal.is_some() {
                    return e;
                }
            }
        }
        Exec::Continue
    }

    /// A `select` statement.
    pub(crate) fn exec_select(
        &mut self,
        gid: Gid,
        cases: &[SelectCase],
        default_target: Option<usize>,
    ) -> Exec {
        // Which cases are ready right now?
        let mut ready: Vec<usize> = Vec::new();
        for (i, case) in cases.iter().enumerate() {
            let chv = self.read_var(gid, case.op.chan_var());
            let Value::Ref(h) = chv else { continue }; // nil channels never ready
            let Some(c) = self.chan_ref(h) else { continue };
            let is_ready = match &case.op {
                SelOp::Send { .. } => {
                    c.closed
                        || c.buf.len() < c.cap
                        || c.recvq.iter().any(|w| self.waiter_valid(w.gid, w.token))
                }
                SelOp::Recv { .. } => {
                    c.closed
                        || !c.buf.is_empty()
                        || c.sendq.iter().any(|w| self.waiter_valid(w.gid, w.token))
                }
            };
            if is_ready {
                ready.push(i);
            }
        }

        if !ready.is_empty() {
            // Non-deterministic uniform choice among ready cases (Go spec).
            let pick = ready[self.rng.gen_range(0..ready.len())];
            let case = &cases[pick];
            let target = case.target;
            let op = case.op.clone();
            let result = match op {
                SelOp::Send { ch, val } => {
                    let chv = self.read_var(gid, ch);
                    let v = self.read_var(gid, val);
                    self.exec_send(gid, chv, v)
                }
                SelOp::Recv { ch, dst, ok_dst } => {
                    let chv = self.read_var(gid, ch);
                    self.exec_recv(gid, chv, dst, ok_dst)
                }
            };
            return match result {
                Exec::Continue => {
                    // Jump to the chosen arm.
                    let g = &mut self.goroutines[gid.index() as usize];
                    g.frames.last_mut().expect("no frame").pc = target;
                    Exec::Continue
                }
                // send-on-closed panics propagate; a ready case cannot park.
                other => other,
            };
        }

        if let Some(t) = default_target {
            let g = &mut self.goroutines[gid.index() as usize];
            g.frames.last_mut().expect("no frame").pc = t;
            return Exec::Continue;
        }

        // Block on every (non-nil) case channel.
        let mut chans = Vec::new();
        for case in cases {
            if let Value::Ref(h) = self.read_var(gid, case.op.chan_var()) {
                if self.chan_ref(h).is_some() {
                    chans.push((h, case));
                }
            }
        }
        if chans.is_empty() {
            // `select {}` or all-nil channels: blocks forever on ε.
            self.park(gid, WaitReason::SelectNoCases, Blocked::Epsilon);
            return Exec::Parked;
        }
        let handles: Vec<_> = chans.iter().map(|(h, _)| *h).collect();
        let token = self.park(gid, WaitReason::Select, Blocked::Chans(handles));
        if let Some(g) = self.g_mut(gid) {
            g.dirty_select_state = true;
        }
        for (h, case) in chans {
            let select_target = Some(case.target);
            match case.op {
                SelOp::Send { val, .. } => {
                    let op = self.read_var(gid, val);
                    let c = self.chan_mut(h).expect("validated above");
                    c.sendq.push_back(Waiter { gid, token, op, select_target });
                }
                SelOp::Recv { dst, ok_dst, .. } => {
                    let op = RecvSlots { dst, ok_dst };
                    let c = self.chan_mut(h).expect("validated above");
                    c.recvq.push_back(Waiter { gid, token, op, select_target });
                }
            }
        }
        Exec::Parked
    }

    /// Fires a timer: delivers the tick value into the channel like a
    /// runtime-internal sender (never blocks; `time.After` channels have
    /// capacity 1 and a single send).
    pub(crate) fn timer_fire(&mut self, ch: golf_heap::Handle) {
        if self.chan_ref(ch).is_none_or(|c| c.closed) {
            return;
        }
        let now = Value::Int(self.tick as i64);
        if let Some(w) = self.pop_valid(ch, |c| &mut c.recvq) {
            self.resume_receiver(&w, now, true);
            return;
        }
        let c = self.chan_mut(ch).expect("checked");
        c.buf.push_back(now);
        self.heap.refresh_size(ch);
    }
}
