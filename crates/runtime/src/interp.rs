//! The instruction interpreter: fetch/decode/execute for one goroutine step.

use crate::goroutine::Gid;
use crate::instr::{BinOp, Instr};
use crate::object::{MutexState, Object, SliceVals};
use crate::value::Value;
use crate::vm::{operand, Alarm, Exec, Finalizer, Op, Panic, Vm};
use golf_trace::TraceEvent;
use rand::Rng;
use std::cmp::Reverse;

const FIELD: Op = Op::Builtin("field access");
const APPEND: Op = Op::Builtin("append");
const INDEX: Op = Op::Builtin("index");
const LEN: Op = Op::Builtin("len");
const DEREF: Op = Op::Builtin("deref");

impl Vm {
    /// Runs `gid` for up to `quantum` instructions, until it parks,
    /// finishes, yields or panics, and says whether the program crashed.
    /// Out of line with the interpreter inlined, an idle tick stays small
    /// and an instruction costs no call (golfbench heap_churn, corpus_sweep).
    #[inline(never)]
    pub(crate) fn run_quantum(&mut self, gid: Gid, quantum: u32) -> bool {
        for _ in 0..quantum {
            match self.exec_one(gid).unwrap_or_else(|p| self.goroutine_panic(gid, p)) {
                Exec::Continue if self.fatal.is_some() => return true,
                Exec::Continue => {}
                Exec::Parked | Exec::Finished | Exec::Yielded => break,
            }
        }
        false
    }

    /// Executes one instruction of `gid`, or says why the goroutine panics
    /// instead. The pc is advanced *before* execution so blocking
    /// operations resume after themselves on wake.
    #[inline(always)]
    fn exec_one(&mut self, gid: Gid) -> Result<Exec, Panic> {
        // A pending cond-wait relock takes priority over the next instruction.
        if let Some(mu) = self.g_mut(gid).and_then(|g| g.pending_lock.take()) {
            if let e @ Exec::Parked = self.exec_lock(gid, Value::Ref(mu))? {
                return Ok(e);
            }
        }

        let g = &mut self.goroutines[gid.index() as usize];
        let frame = g.frames.last_mut().expect("executing frameless goroutine");
        let func = frame.func;
        let pc = frame.pc;
        let code = &self.program.func(func).code;
        debug_assert!(pc < code.len(), "pc past end of {}", self.program.func(func).name);
        let instr = code[pc].clone();
        frame.pc = pc + 1;
        self.instrs += 1;

        Ok(match instr {
            Instr::Const(dst, v) => {
                self.write_var(gid, dst, v);
                Exec::Continue
            }
            Instr::Copy(dst, src) => {
                let v = self.read_var(gid, src);
                self.write_var(gid, dst, v);
                Exec::Continue
            }
            Instr::Bin(op, dst, a, b) => {
                let va = self.read_var(gid, a);
                let vb = self.read_var(gid, b);
                let v =
                    eval_bin(op, va, vb).ok_or(Panic::Go("invalid operands to binary operator"))?;
                self.write_var(gid, dst, v);
                Exec::Continue
            }
            Instr::Not(dst, src) => {
                let v = self.read_var(gid, src);
                self.write_var(gid, dst, Value::Bool(!v.truthy()));
                Exec::Continue
            }
            Instr::RandInt(dst, bound) => {
                let v = if bound <= 0 { 0 } else { self.rng.gen_range(0..bound) };
                self.write_var(gid, dst, Value::Int(v));
                Exec::Continue
            }

            Instr::Jump(t) => {
                self.set_pc(gid, t);
                Exec::Continue
            }
            Instr::JumpIf(cond, t) => {
                if self.read_var(gid, cond).truthy() {
                    self.set_pc(gid, t);
                }
                Exec::Continue
            }
            Instr::JumpIfNot(cond, t) => {
                if !self.read_var(gid, cond).truthy() {
                    self.set_pc(gid, t);
                }
                Exec::Continue
            }
            Instr::Call { func: callee, args, dst } => {
                let f = self.program.func(callee);
                debug_assert_eq!(args.len(), f.n_params, "arity mismatch calling {}", f.name);
                let n_locals = f.n_locals;
                let mut locals = vec![Value::Nil; n_locals];
                for (i, a) in args.iter().enumerate() {
                    locals[i] = self.read_var(gid, *a);
                }
                let g = &mut self.goroutines[gid.index() as usize];
                g.frames.push(crate::goroutine::Frame {
                    func: callee,
                    pc: 0,
                    locals,
                    ret_dst: dst,
                });
                Exec::Continue
            }
            Instr::Return(val) => {
                let v = val.map(|v| self.read_var(gid, v)).unwrap_or(Value::Nil);
                let g = &mut self.goroutines[gid.index() as usize];
                let frame = g.frames.pop().expect("return without frame");
                if g.frames.is_empty() {
                    self.finish_goroutine(gid);
                    return Ok(Exec::Finished);
                }
                if let Some(dst) = frame.ret_dst {
                    self.write_var(gid, dst, v);
                }
                Exec::Continue
            }
            Instr::Go { func, args, site } => {
                let vals: Vec<Value> = args.iter().map(|a| self.read_var(gid, *a)).collect();
                self.spawn(func, &vals, Some(site), false, Some(gid));
                Exec::Continue
            }
            Instr::Yield => Exec::Yielded,
            Instr::Goexit => {
                self.finish_goroutine(gid);
                Exec::Finished
            }
            Instr::Sleep(ticks) => self.sleep_until(gid, self.tick + ticks.max(1)),
            Instr::SleepVar(v) => {
                let ticks = self.read_var(gid, v).as_int().unwrap_or(1).max(1) as u64;
                self.sleep_until(gid, self.tick + ticks)
            }

            Instr::NewStruct { ty, fields, dst } => {
                debug_assert_eq!(
                    fields.len(),
                    self.program.struct_ty(ty).fields.len(),
                    "field arity mismatch constructing {}",
                    self.program.struct_ty(ty).name
                );
                let vals: Vec<Value> = fields.iter().map(|f| self.read_var(gid, *f)).collect();
                let h = self.heap.alloc(Object::Struct { ty, fields: vals });
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::GetField(dst, obj, idx) => {
                let objv = self.read_var(gid, obj);
                let (_, fields) = operand(FIELD, objv, |h| self.heap.get(h), Object::as_fields)?;
                let v = *fields.get(idx as usize).ok_or(Panic::Go("field index out of range"))?;
                self.write_var(gid, dst, v);
                Exec::Continue
            }
            Instr::SetField(obj, idx, src) => {
                let v = self.read_var(gid, src);
                let objv = self.read_var(gid, obj);
                let (_, fields) =
                    operand(FIELD, objv, |h| self.heap.get_mut(h), Object::as_fields_mut)?;
                *fields.get_mut(idx as usize).ok_or(Panic::Go("field index out of range"))? = v;
                Exec::Continue
            }
            Instr::NewSlice(dst) => {
                let h = self.heap.alloc(Object::Slice(SliceVals::default()));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::SlicePush(slice, val) => {
                let v = self.read_var(gid, val);
                let sv = self.read_var(gid, slice);
                let (h, vs) = operand(APPEND, sv, |h| self.heap.get_mut(h), Object::as_slice_mut)?;
                vs.push(v);
                self.heap.refresh_size(h);
                Exec::Continue
            }
            Instr::SliceGet(dst, slice, idx) => {
                let i = self.read_var(gid, idx).as_int().unwrap_or(-1);
                let sv = self.read_var(gid, slice);
                let (_, vs) = operand(INDEX, sv, |h| self.heap.get(h), Object::as_slice)?;
                let v = usize::try_from(i).ok().and_then(|i| vs.get(i).copied());
                self.write_var(gid, dst, v.ok_or(Panic::Go("index out of range"))?);
                Exec::Continue
            }
            Instr::SliceSet(slice, idx, val) => {
                let i = self.read_var(gid, idx).as_int().unwrap_or(-1);
                let v = self.read_var(gid, val);
                let sv = self.read_var(gid, slice);
                let (_, vs) = operand(INDEX, sv, |h| self.heap.get_mut(h), Object::as_slice_mut)?;
                if !usize::try_from(i).is_ok_and(|i| vs.set(i, v)) {
                    return Err(Panic::Go("index out of range"));
                }
                Exec::Continue
            }
            Instr::SliceLen(dst, slice) => {
                let sv = self.read_var(gid, slice);
                let n = operand(LEN, sv, |h| self.heap.get(h), Object::as_slice)?.1.len();
                self.write_var(gid, dst, Value::Int(n as i64));
                Exec::Continue
            }
            Instr::NewCell(dst, src) => {
                let v = self.read_var(gid, src);
                let h = self.heap.alloc(Object::Cell(v));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::CellGet(dst, cell) => {
                let cv = self.read_var(gid, cell);
                let v = *operand(DEREF, cv, |h| self.heap.get(h), Object::as_cell)?.1;
                self.write_var(gid, dst, v);
                Exec::Continue
            }
            Instr::CellSet(cell, src) => {
                let v = self.read_var(gid, src);
                let cv = self.read_var(gid, cell);
                *operand(DEREF, cv, |h| self.heap.get_mut(h), Object::as_cell_mut)?.1 = v;
                Exec::Continue
            }
            Instr::NewBlob { dst, bytes } => {
                let h = self.heap.alloc(Object::Blob { bytes: bytes as usize });
                self.write_var(gid, dst, Value::Ref(h));
                // Allocation assist: under heap pressure the allocator makes
                // the allocating goroutine pay (Go's GC assists).
                if let Some(assist) = self.config.assist {
                    let heap_bytes = self.heap.stats().heap_alloc_bytes;
                    if heap_bytes > assist.threshold_bytes {
                        let stall =
                            (bytes.saturating_mul(heap_bytes) / assist.scale.max(1)).min(200);
                        if stall > 0 {
                            return Ok(self.sleep_until(gid, self.tick + stall));
                        }
                    }
                }
                Exec::Continue
            }
            Instr::SetGlobal(id, src) => {
                let v = self.read_var(gid, src);
                self.globals[id.index()] = v;
                self.roots_epoch += 1;
                Exec::Continue
            }
            Instr::GetGlobal(dst, id) => {
                let v = self.globals[id.index()];
                self.write_var(gid, dst, v);
                Exec::Continue
            }

            Instr::MakeChan { dst, cap } => {
                let h = self.heap.alloc(Object::chan(cap));
                if self.trace_enabled() {
                    self.trace_emit(TraceEvent::ChanMake { gid: gid.into(), chan: h, cap });
                }
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::MakeTimerChan { dst, after } => {
                let h = self.heap.alloc(Object::chan(1));
                let fire = Alarm::Fire { seq: self.timer_seq, ch: h };
                self.timer_seq += 1;
                self.alarms.push(Reverse((self.tick + after.max(1), fire)));
                self.roots_epoch += 1;
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::Send { ch, val } => {
                let chv = self.read_var(gid, ch);
                let v = self.read_var(gid, val);
                self.exec_send(gid, chv, v)?
            }
            Instr::Recv { ch, dst, ok_dst } => {
                let chv = self.read_var(gid, ch);
                self.exec_recv(gid, chv, dst, ok_dst)?
            }
            Instr::Close(ch) => {
                let chv = self.read_var(gid, ch);
                self.exec_close(gid, chv)?
            }
            Instr::Select { cases, default_target } => {
                self.exec_select(gid, &cases, default_target)?
            }

            Instr::NewMutex(dst) => {
                let sema = self.heap.alloc(Object::Sema);
                let h = self.heap.alloc(Object::Mutex(MutexState { locked: false, sema }));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::NewRwLock(dst) => {
                let rsema = self.heap.alloc(Object::Sema);
                let wsema = self.heap.alloc(Object::Sema);
                let h = self.heap.alloc(Object::RwLock(crate::object::RwLockState {
                    readers: 0,
                    writer: false,
                    rsema,
                    wsema,
                }));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::NewWaitGroup(dst) => {
                let sema = self.heap.alloc(Object::Sema);
                let h =
                    self.heap.alloc(Object::WaitGroup(crate::object::WgState { count: 0, sema }));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::NewCond(dst) => {
                let sema = self.heap.alloc(Object::Sema);
                let h = self.heap.alloc(Object::Cond(crate::object::CondState { sema }));
                self.write_var(gid, dst, Value::Ref(h));
                Exec::Continue
            }
            Instr::Lock(mu) => {
                let v = self.read_var(gid, mu);
                self.exec_lock(gid, v)?
            }
            Instr::Unlock(mu) => {
                let v = self.read_var(gid, mu);
                self.exec_unlock(v)?
            }
            Instr::RLock(rw) => {
                let v = self.read_var(gid, rw);
                self.exec_rlock(gid, v)?
            }
            Instr::RUnlock(rw) => {
                let v = self.read_var(gid, rw);
                self.exec_runlock(v)?
            }
            Instr::WLock(rw) => {
                let v = self.read_var(gid, rw);
                self.exec_wlock(gid, v)?
            }
            Instr::WUnlock(rw) => {
                let v = self.read_var(gid, rw);
                self.exec_wunlock(v)?
            }
            Instr::WgAdd(wg, n) => {
                let v = self.read_var(gid, wg);
                self.exec_wg_add(v, n)?
            }
            Instr::WgDone(wg) => {
                let v = self.read_var(gid, wg);
                self.exec_wg_add(v, -1)?
            }
            Instr::WgWait(wg) => {
                let v = self.read_var(gid, wg);
                self.exec_wg_wait(gid, v)?
            }
            Instr::CondWait { cond, mutex } => {
                let cv = self.read_var(gid, cond);
                let mv = self.read_var(gid, mutex);
                self.exec_cond_wait(gid, cv, mv)?
            }
            Instr::CondSignal(cond) => {
                let v = self.read_var(gid, cond);
                self.exec_cond_signal(v, false)?
            }
            Instr::CondBroadcast(cond) => {
                let v = self.read_var(gid, cond);
                self.exec_cond_signal(v, true)?
            }

            Instr::GcCall => {
                self.gc_requested = true;
                Exec::Yielded
            }
            Instr::Now(dst) => {
                let t = self.tick as i64;
                self.write_var(gid, dst, Value::Int(t));
                Exec::Continue
            }
            Instr::SetFinalizer { obj, func } => {
                let Value::Ref(h) = self.read_var(gid, obj) else {
                    return Err(Panic::Go("SetFinalizer on non-pointer"));
                };
                if !self.heap.set_finalizer(h, Finalizer { func }) {
                    return Err(Panic::Go("SetFinalizer on dead object"));
                }
                Exec::Continue
            }
            Instr::Panic(msg) => return Err(Panic::Go(msg)),
            Instr::Nop => Exec::Continue,
        })
    }

    fn set_pc(&mut self, gid: Gid, pc: usize) {
        let g = &mut self.goroutines[gid.index() as usize];
        g.frames.last_mut().expect("no frame").pc = pc;
    }
}

fn eval_bin(op: BinOp, a: Value, b: Value) -> Option<Value> {
    use Value::*;
    Some(match op {
        BinOp::Eq => Bool(a == b),
        BinOp::Ne => Bool(a != b),
        BinOp::And => Bool(a.truthy() && b.truthy()),
        BinOp::Or => Bool(a.truthy() || b.truthy()),
        BinOp::Add => Int(a.as_int()?.wrapping_add(b.as_int()?)),
        BinOp::Sub => Int(a.as_int()?.wrapping_sub(b.as_int()?)),
        BinOp::Mul => Int(a.as_int()?.wrapping_mul(b.as_int()?)),
        BinOp::Lt => Bool(a.as_int()? < b.as_int()?),
        BinOp::Le => Bool(a.as_int()? <= b.as_int()?),
        BinOp::Gt => Bool(a.as_int()? > b.as_int()?),
        BinOp::Ge => Bool(a.as_int()? >= b.as_int()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_semantics() {
        assert_eq!(eval_bin(BinOp::Add, Value::Int(2), Value::Int(3)), Some(Value::Int(5)));
        assert_eq!(eval_bin(BinOp::Eq, Value::Nil, Value::Nil), Some(Value::Bool(true)));
        assert_eq!(eval_bin(BinOp::Lt, Value::Int(1), Value::Int(2)), Some(Value::Bool(true)));
        assert_eq!(eval_bin(BinOp::Add, Value::Nil, Value::Int(1)), None);
        assert_eq!(
            eval_bin(BinOp::And, Value::Bool(true), Value::Int(0)),
            Some(Value::Bool(false))
        );
        assert_eq!(eval_bin(BinOp::Or, Value::Bool(false), Value::Int(7)), Some(Value::Bool(true)));
    }
}
