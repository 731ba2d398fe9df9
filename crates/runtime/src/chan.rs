//! Channel semantics: send, receive, close, select and timer delivery.
//!
//! Faithful to Go: unbuffered channels rendezvous, buffered channels block
//! only when full/empty, receives on closed channels drain the buffer then
//! yield zero values with `ok == false`, sends on closed channels panic, and
//! operations on nil channels block forever (`B(g) = {ε}` — intrinsically
//! undetectable by reachability, and therefore *always* detectable by GOLF).

use crate::goroutine::{Blocked, Gid, Goroutine, WaitReason};
use crate::instr::{SelOp, SelectCase};
use crate::object::{Object, RecvSlots, Waiter};
use crate::value::{Value, Var};
use crate::vm::{operand, waiter_valid, Exec, Op, Panic, Vm};
use golf_heap::Handle;
use golf_trace::TraceEvent;
use rand::Rng;
use std::collections::VecDeque;
use std::{iter, mem};

const SEND: Op = Op::Builtin("send");
const RECV: Op = Op::Builtin("receive");
const CLOSE: Op = Op::Builtin("close");
const SELECT: Op = Op::Builtin("select");

/// Pops the first *valid* waiter from a channel wait queue, dropping the
/// entries before it whose goroutine was already woken through another
/// select case or killed (lazy sudog invalidation).
fn pop_valid<T>(queue: &mut VecDeque<Waiter<T>>, goroutines: &[Goroutine]) -> Option<Waiter<T>> {
    iter::from_fn(|| queue.pop_front()).find(|w| waiter_valid(goroutines, w.gid, w.token))
}

impl Vm {
    /// `ch <- v`.
    pub(crate) fn exec_send(&mut self, gid: Gid, chv: Value, v: Value) -> Result<Exec, Panic> {
        let Value::Ref(_) = chv else {
            // Send on nil channel: blocks forever on ε.
            self.park(gid, WaitReason::ChanSendNilChan, Blocked::Epsilon);
            return Ok(Exec::Parked);
        };
        if operand(SEND, chv, |h| self.heap.get(h), Object::as_chan)?.1.closed {
            return Err(Panic::Go("send on closed channel"));
        }
        let (h, c) = operand(SEND, chv, |h| self.heap.get_mut(h), Object::as_chan_mut)?;
        if let Some(w) = pop_valid(&mut c.recvq, &self.goroutines) {
            // Rendezvous with a waiting receiver.
            self.resume_receiver(&w, v, true);
        } else if c.buf.len() < c.cap {
            // Buffered channel with room.
            c.buf.push_back(v);
            self.heap.refresh_size(h);
        } else {
            // Block.
            let token = self.park(gid, WaitReason::ChanSend, Blocked::Chans(vec![h]));
            let (_, c) = operand(SEND, chv, |h| self.heap.get_mut(h), Object::as_chan_mut)?;
            c.sendq.push_back(Waiter { gid, token, op: v, select_target: None });
            return Ok(Exec::Parked);
        }
        if self.trace_enabled() {
            self.trace_emit(TraceEvent::ChanSend { gid: gid.into(), chan: h });
        }
        Ok(Exec::Continue)
    }

    /// `dst, ok := <-ch`.
    pub(crate) fn exec_recv(
        &mut self,
        gid: Gid,
        chv: Value,
        dst: Option<Var>,
        ok_dst: Option<Var>,
    ) -> Result<Exec, Panic> {
        let Value::Ref(_) = chv else {
            self.park(gid, WaitReason::ChanReceiveNilChan, Blocked::Epsilon);
            return Ok(Exec::Parked);
        };
        let (h, c) = operand(RECV, chv, |h| self.heap.get_mut(h), Object::as_chan_mut)?;
        let (v, ok) = if let Some(v) = c.buf.pop_front() {
            // Refill the buffer from a parked sender, if any.
            if let Some(w) = pop_valid(&mut c.sendq, &self.goroutines) {
                c.buf.push_back(w.op);
                self.resume(&w);
            }
            self.heap.refresh_size(h);
            (v, true)
        } else if let Some(w) = pop_valid(&mut c.sendq, &self.goroutines) {
            // Rendezvous with a parked sender (unbuffered, or racing on an
            // empty buffer).
            self.resume(&w);
            (w.op, true)
        } else if c.closed {
            // Closed and drained: zero value, ok = false.
            (Value::Nil, false)
        } else {
            // Block.
            let token = self.park(gid, WaitReason::ChanReceive, Blocked::Chans(vec![h]));
            let (_, c) = operand(RECV, chv, |h| self.heap.get_mut(h), Object::as_chan_mut)?;
            let op = RecvSlots { dst, ok_dst };
            c.recvq.push_back(Waiter { gid, token, op, select_target: None });
            return Ok(Exec::Parked);
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
        Ok(Exec::Continue)
    }

    /// `close(ch)`.
    pub(crate) fn exec_close(&mut self, gid: Gid, chv: Value) -> Result<Exec, Panic> {
        let Value::Ref(_) = chv else { return Err(Panic::Go("close of nil channel")) };
        let (h, c) = operand(CLOSE, chv, |h| self.heap.get_mut(h), Object::as_chan_mut)?;
        if c.closed {
            return Err(Panic::Go("close of closed channel"));
        }
        c.closed = true;
        let (recvq, sendq) = (mem::take(&mut c.recvq), mem::take(&mut c.sendq));
        if self.trace_enabled() {
            self.trace_emit(TraceEvent::ChanClose { gid: gid.into(), chan: h });
        }
        // Wake every parked receiver with the zero value (buffer is
        // necessarily empty when receivers are parked).
        for w in recvq {
            if waiter_valid(&self.goroutines, w.gid, w.token) {
                self.resume_receiver(&w, Value::Nil, false);
            }
        }
        // Parked senders observe the close and panic (Go semantics). A
        // select with several send arms on this channel is queued once per
        // arm; only its first entry panics it.
        for w in sendq {
            if !waiter_valid(&self.goroutines, w.gid, w.token) {
                continue;
            }
            self.resume(&w);
            if let e @ Exec::Finished = self.goroutine_panic(w.gid, "send on closed channel") {
                if self.fatal.is_some() {
                    return Ok(e);
                }
            }
        }
        Ok(Exec::Continue)
    }

    /// A `select` statement.
    pub(crate) fn exec_select(
        &mut self,
        gid: Gid,
        cases: &[SelectCase],
        default_target: Option<usize>,
    ) -> Result<Exec, Panic> {
        // Which cases are ready right now? Nil channels never are.
        let mut ready: Vec<usize> = Vec::new();
        for (i, case) in cases.iter().enumerate() {
            let chv = self.read_var(gid, case.op.chan_var());
            let Value::Ref(_) = chv else { continue };
            let (_, c) = operand(SELECT, chv, |h| self.heap.get(h), Object::as_chan)?;
            let is_ready = match case.op {
                SelOp::Send { .. } => {
                    c.closed
                        || c.buf.len() < c.cap
                        || c.recvq.iter().any(|w| waiter_valid(&self.goroutines, w.gid, w.token))
                }
                SelOp::Recv { .. } => {
                    c.closed
                        || !c.buf.is_empty()
                        || c.sendq.iter().any(|w| waiter_valid(&self.goroutines, w.gid, w.token))
                }
            };
            if is_ready {
                ready.push(i);
            }
        }

        if !ready.is_empty() {
            // Non-deterministic uniform choice among ready cases (Go spec).
            let case = &cases[ready[self.rng.gen_range(0..ready.len())]];
            let result = match case.op {
                SelOp::Send { ch, val } => {
                    let chv = self.read_var(gid, ch);
                    let v = self.read_var(gid, val);
                    self.exec_send(gid, chv, v)?
                }
                SelOp::Recv { ch, dst, ok_dst } => {
                    let chv = self.read_var(gid, ch);
                    self.exec_recv(gid, chv, dst, ok_dst)?
                }
            };
            // A ready case cannot park: jump to the chosen arm.
            if let Exec::Continue = result {
                let g = &mut self.goroutines[gid.index() as usize];
                g.frames.last_mut().expect("no frame").pc = case.target;
            }
            return Ok(result);
        }

        if let Some(t) = default_target {
            let g = &mut self.goroutines[gid.index() as usize];
            g.frames.last_mut().expect("no frame").pc = t;
            return Ok(Exec::Continue);
        }

        // Block on every non-nil case channel.
        let chan = |c: &SelectCase| self.read_var(gid, c.op.chan_var()).as_ref_handle();
        let handles: Vec<Handle> = cases.iter().filter_map(chan).collect();
        if handles.is_empty() {
            // `select {}` or all-nil channels: blocks forever on ε.
            self.park(gid, WaitReason::SelectNoCases, Blocked::Epsilon);
            return Ok(Exec::Parked);
        }
        let token = self.park(gid, WaitReason::Select, Blocked::Chans(handles));
        for case in cases {
            let chv = self.read_var(gid, case.op.chan_var());
            let Value::Ref(_) = chv else { continue };
            let select_target = Some(case.target);
            match case.op {
                SelOp::Send { val, .. } => {
                    let op = self.read_var(gid, val);
                    let (_, c) =
                        operand(SELECT, chv, |h| self.heap.get_mut(h), Object::as_chan_mut)?;
                    c.sendq.push_back(Waiter { gid, token, op, select_target });
                }
                SelOp::Recv { dst, ok_dst, .. } => {
                    let op = RecvSlots { dst, ok_dst };
                    let (_, c) =
                        operand(SELECT, chv, |h| self.heap.get_mut(h), Object::as_chan_mut)?;
                    c.recvq.push_back(Waiter { gid, token, op, select_target });
                }
            }
        }
        Ok(Exec::Parked)
    }

    /// Fires a timer: delivers the tick value into the channel like a
    /// runtime-internal sender (never blocks; `time.After` channels have
    /// capacity 1 and a single send).
    pub(crate) fn timer_fire(&mut self, ch: Handle) {
        if self.heap.get(ch).and_then(Object::as_chan).is_none_or(|c| c.closed) {
            return;
        }
        let now = Value::Int(self.tick as i64);
        let Some(c) = self.heap.get_mut(ch).and_then(Object::as_chan_mut) else { return };
        match pop_valid(&mut c.recvq, &self.goroutines) {
            Some(w) => self.resume_receiver(&w, now, true),
            None => {
                c.buf.push_back(now);
                self.heap.refresh_size(ch);
            }
        }
    }
}
