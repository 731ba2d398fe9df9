//! Channel semantics: send, receive, close, select and timer delivery.
//!
//! Faithful to Go: unbuffered channels rendezvous, buffered channels block
//! only when full/empty, receives on closed channels drain the buffer then
//! yield zero values with `ok == false`, sends on closed channels panic, and
//! operations on nil channels block forever (`B(g) = {ε}` — intrinsically
//! undetectable by reachability, and therefore *always* detectable by GOLF).

use crate::goroutine::{Blocked, Gid, WaitReason};
use crate::instr::{SelOp, SelectCase};
use crate::object::{ChanState, Object, WaitKind, Waiter};
use crate::value::{Value, Var};
use crate::vm::{go_id, Exec, Vm};
use golf_trace::TraceEvent;
use rand::Rng;

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

    /// Pops the first *valid* waiter from a channel queue, skipping entries
    /// whose goroutine was already woken through another select case or
    /// killed (lazy sudog invalidation).
    fn pop_valid_waiter(&mut self, ch: golf_heap::Handle, recv_side: bool) -> Option<Waiter> {
        loop {
            let w = {
                let c = self.chan_mut(ch)?;
                if recv_side {
                    c.recvq.pop_front()
                } else {
                    c.sendq.pop_front()
                }
            }?;
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
        if let Some(w) = self.pop_valid_waiter(h, true) {
            let (dst, ok_dst) = match w.kind {
                WaitKind::Recv { dst, ok_dst } => (dst, ok_dst),
                WaitKind::Send(_) => unreachable!("sender in recvq"),
            };
            self.deliver(w.gid, dst, ok_dst, v, true, w.select_target);
            self.wake(w.gid, w.token);
            if self.trace_enabled() {
                self.trace_emit(TraceEvent::ChanSend { gid: go_id(gid), chan: h });
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
                    self.trace_emit(TraceEvent::ChanSend { gid: go_id(gid), chan: h });
                }
                return Exec::Continue;
            }
        }
        // Block.
        let token = self.park(gid, WaitReason::ChanSend, Blocked::Chans(vec![h]));
        let c = self.chan_mut(h).expect("checked above");
        c.sendq.push_back(Waiter { gid, token, kind: WaitKind::Send(v), select_target: None });
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
        if self.chan_ref(h).is_none() {
            return self.goroutine_panic(gid, "receive on non-channel value");
        }
        // Buffered value available.
        let buffered = self.chan_mut(h).expect("checked").buf.pop_front();
        if let Some(v) = buffered {
            // Refill the buffer from a parked sender, if any.
            if let Some(w) = self.pop_valid_waiter(h, false) {
                let sent = match w.kind {
                    WaitKind::Send(v) => v,
                    WaitKind::Recv { .. } => unreachable!("receiver in sendq"),
                };
                self.chan_mut(h).expect("checked").buf.push_back(sent);
                if let Some(t) = w.select_target {
                    self.deliver(w.gid, None, None, Value::Nil, true, Some(t));
                }
                self.wake(w.gid, w.token);
            }
            self.heap.refresh_size(h);
            if let Some(d) = dst {
                self.write_var(gid, d, v);
            }
            if let Some(o) = ok_dst {
                self.write_var(gid, o, Value::Bool(true));
            }
            if self.trace_enabled() {
                self.trace_emit(TraceEvent::ChanRecv { gid: go_id(gid), chan: h });
            }
            return Exec::Continue;
        }
        // Rendezvous with a parked sender (unbuffered, or racing on empty buffer).
        if let Some(w) = self.pop_valid_waiter(h, false) {
            let sent = match w.kind {
                WaitKind::Send(v) => v,
                WaitKind::Recv { .. } => unreachable!("receiver in sendq"),
            };
            if let Some(t) = w.select_target {
                self.deliver(w.gid, None, None, Value::Nil, true, Some(t));
            }
            self.wake(w.gid, w.token);
            if let Some(d) = dst {
                self.write_var(gid, d, sent);
            }
            if let Some(o) = ok_dst {
                self.write_var(gid, o, Value::Bool(true));
            }
            if self.trace_enabled() {
                self.trace_emit(TraceEvent::ChanRecv { gid: go_id(gid), chan: h });
            }
            return Exec::Continue;
        }
        // Closed and drained: zero value, ok = false.
        if self.chan_ref(h).expect("checked").closed {
            if let Some(d) = dst {
                self.write_var(gid, d, Value::Nil);
            }
            if let Some(o) = ok_dst {
                self.write_var(gid, o, Value::Bool(false));
            }
            return Exec::Continue;
        }
        // Block.
        let token = self.park(gid, WaitReason::ChanReceive, Blocked::Chans(vec![h]));
        let c = self.chan_mut(h).expect("checked");
        c.recvq.push_back(Waiter {
            gid,
            token,
            kind: WaitKind::Recv { dst, ok_dst },
            select_target: None,
        });
        Exec::Parked
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
            self.trace_emit(TraceEvent::ChanClose { gid: go_id(gid), chan: h });
        }
        // Wake every parked receiver with the zero value (buffer is
        // necessarily empty when receivers are parked).
        while let Some(w) = self.pop_valid_waiter(h, true) {
            let (dst, ok_dst) = match w.kind {
                WaitKind::Recv { dst, ok_dst } => (dst, ok_dst),
                WaitKind::Send(_) => unreachable!("sender in recvq"),
            };
            self.deliver(w.gid, dst, ok_dst, Value::Nil, false, w.select_target);
            self.wake(w.gid, w.token);
        }
        // Parked senders observe the close and panic (Go semantics).
        let mut panicking = Vec::new();
        while let Some(w) = self.pop_valid_waiter(h, false) {
            panicking.push(w);
        }
        for w in panicking {
            if let Some(t) = w.select_target {
                self.deliver(w.gid, None, None, Value::Nil, false, Some(t));
            }
            self.wake(w.gid, w.token);
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
            let waiter = match &case.op {
                SelOp::Send { val, .. } => {
                    let v = self.read_var(gid, *val);
                    Waiter { gid, token, kind: WaitKind::Send(v), select_target: Some(case.target) }
                }
                SelOp::Recv { dst, ok_dst, .. } => Waiter {
                    gid,
                    token,
                    kind: WaitKind::Recv { dst: *dst, ok_dst: *ok_dst },
                    select_target: Some(case.target),
                },
            };
            let c = self.chan_mut(h).expect("validated above");
            match waiter.kind {
                WaitKind::Send(_) => c.sendq.push_back(waiter),
                WaitKind::Recv { .. } => c.recvq.push_back(waiter),
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
        if let Some(w) = self.pop_valid_waiter(ch, true) {
            let (dst, ok_dst) = match w.kind {
                WaitKind::Recv { dst, ok_dst } => (dst, ok_dst),
                WaitKind::Send(_) => unreachable!("sender in recvq"),
            };
            self.deliver(w.gid, dst, ok_dst, now, true, w.select_target);
            self.wake(w.gid, w.token);
            return;
        }
        let c = self.chan_mut(ch).expect("checked");
        c.buf.push_back(now);
        self.heap.refresh_size(ch);
    }
}
