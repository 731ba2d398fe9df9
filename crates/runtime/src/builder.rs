//! An ergonomic builder for GoVM functions, with labels, structured control
//! flow and channel/sync helpers.

use crate::func::{FuncId, Function, GlobalId, SiteId};
use crate::instr::{BinOp, Instr, SelOp, SelectCase};
use crate::object::TypeId;
use crate::value::{Value, Var};

/// A forward-referencable jump target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(u32);

/// Declarative description of a `select` statement, passed to
/// [`FuncBuilder::select`].
#[derive(Debug, Default)]
pub struct SelectSpec {
    cases: Vec<(SelOp, Label)>,
    default: Option<Label>,
}

impl SelectSpec {
    /// An empty spec; with no cases and no default it compiles to the
    /// forever-blocking `select {}`.
    pub fn new() -> Self {
        SelectSpec::default()
    }

    /// Adds a `case v := <-ch:` arm jumping to `target`.
    #[must_use]
    pub fn recv(mut self, ch: Var, dst: Option<Var>, target: Label) -> Self {
        self.cases.push((SelOp::Recv { ch, dst, ok_dst: None }, target));
        self
    }

    /// Adds a `case v, ok := <-ch:` arm jumping to `target`.
    #[must_use]
    pub fn recv_ok(
        mut self,
        ch: Var,
        dst: Option<Var>,
        ok_dst: Option<Var>,
        target: Label,
    ) -> Self {
        self.cases.push((SelOp::Recv { ch, dst, ok_dst }, target));
        self
    }

    /// Adds a `case ch <- val:` arm jumping to `target`.
    #[must_use]
    pub fn send(mut self, ch: Var, val: Var, target: Label) -> Self {
        self.cases.push((SelOp::Send { ch, val }, target));
        self
    }

    /// Adds a `default:` arm jumping to `target`.
    #[must_use]
    pub fn default_case(mut self, target: Label) -> Self {
        self.default = Some(target);
        self
    }
}

enum Fixup {
    Jump(usize),
    Select(usize),
}

/// Builds one GoVM [`Function`].
///
/// Locals are allocated with [`var`](Self::var); parameters occupy the first
/// `n_params` slots (retrieve them with [`param`](Self::param)). Control
/// flow uses [`Label`]s that may be bound before or after being referenced.
///
/// # Example
///
/// A goroutine that sends on a channel the caller may never read — the
/// paper's Listing 7 pattern:
///
/// ```
/// use golf_runtime::{ProgramSet, FuncBuilder, Value};
///
/// let mut p = ProgramSet::new();
/// let site = p.site("SendEmail:104");
///
/// // func task(done chan) { done <- 1 }
/// let mut b = FuncBuilder::new("task", 1);
/// let done = b.param(0);
/// let one = b.var("one");
/// b.konst(one, Value::Int(1));
/// b.send(done, one);
/// b.ret(None);
/// let task = p.define(b);
///
/// // func main() { done := make(chan); go task(done) }  // never receives
/// let mut b = FuncBuilder::new("main", 0);
/// let done = b.var("done");
/// b.make_chan(done, 0);
/// b.go(task, &[done], site);
/// b.ret(None);
/// p.define(b);
/// ```
#[derive(Debug)]
pub struct FuncBuilder {
    name: String,
    n_params: usize,
    next_var: u16,
    code: Vec<Instr>,
    labels: Vec<Option<usize>>,
    fixups: Vec<Fixup>,
}

impl std::fmt::Debug for Fixup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fixup::Jump(i) => write!(f, "Jump@{i}"),
            Fixup::Select(i) => write!(f, "Select@{i}"),
        }
    }
}

impl FuncBuilder {
    /// Starts building a function with `n_params` parameters.
    pub fn new(name: impl Into<String>, n_params: usize) -> Self {
        FuncBuilder {
            name: name.into(),
            n_params,
            next_var: n_params as u16,
            code: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// The `i`-th parameter's local slot.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_params`.
    pub fn param(&self, i: usize) -> Var {
        assert!(i < self.n_params, "param {i} out of range in {}", self.name);
        Var(i as u16)
    }

    /// Allocates a fresh local. The name is diagnostic only.
    pub fn var(&mut self, _name: &str) -> Var {
        let v = Var(self.next_var);
        self.next_var = self.next_var.checked_add(1).expect("too many locals");
        v
    }

    /// Allocates a local pre-loaded with an integer constant.
    pub fn int(&mut self, value: i64) -> Var {
        let v = self.var("int");
        self.konst(v, Value::Int(value));
        v
    }

    // ---- labels ----

    /// Creates an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label((self.labels.len() - 1) as u32)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice in {}", self.name);
        *slot = Some(self.code.len());
    }

    fn emit(&mut self, instr: Instr) {
        self.code.push(instr);
    }

    // ---- data ----

    /// `dst = konst`.
    pub fn konst(&mut self, dst: Var, v: impl Into<Value>) {
        self.emit(Instr::Const(dst, v.into()));
    }

    /// `dst = src`.
    pub fn copy(&mut self, dst: Var, src: Var) {
        self.emit(Instr::Copy(dst, src));
    }

    /// `dst = a <op> b`.
    pub fn bin(&mut self, op: BinOp, dst: Var, a: Var, b: Var) {
        self.emit(Instr::Bin(op, dst, a, b));
    }

    /// `dst = !src`.
    pub fn not(&mut self, dst: Var, src: Var) {
        self.emit(Instr::Not(dst, src));
    }

    /// `v = nil` — models a local going out of scope.
    ///
    /// Go's GC is precise about dead stack slots (liveness maps); the GoVM
    /// scans every local of every live frame, so benchmarks mark the end of
    /// a reference's lifetime either by returning from the enclosing
    /// function or by clearing the slot with this helper.
    pub fn clear(&mut self, v: Var) {
        self.emit(Instr::Const(v, Value::Nil));
    }

    /// `dst = uniform(0..bound)`.
    pub fn rand_int(&mut self, dst: Var, bound: i64) {
        self.emit(Instr::RandInt(dst, bound));
    }

    // ---- control flow ----

    /// Unconditional jump.
    pub fn jump(&mut self, target: Label) {
        self.fixups.push(Fixup::Jump(self.code.len()));
        self.emit(Instr::Jump(target.0 as usize));
    }

    /// Jump when truthy.
    pub fn jump_if(&mut self, cond: Var, target: Label) {
        self.fixups.push(Fixup::Jump(self.code.len()));
        self.emit(Instr::JumpIf(cond, target.0 as usize));
    }

    /// Jump when falsy.
    pub fn jump_if_not(&mut self, cond: Var, target: Label) {
        self.fixups.push(Fixup::Jump(self.code.len()));
        self.emit(Instr::JumpIfNot(cond, target.0 as usize));
    }

    /// Calls `func` with arguments, optionally storing the return value.
    pub fn call(&mut self, func: FuncId, args: &[Var], dst: Option<Var>) {
        self.emit(Instr::Call { func, args: args.to_vec(), dst });
    }

    /// Returns, optionally with a value.
    pub fn ret(&mut self, val: Option<Var>) {
        self.emit(Instr::Return(val));
    }

    /// `go func(args…)`, attributed to `site`.
    pub fn go(&mut self, func: FuncId, args: &[Var], site: SiteId) {
        self.emit(Instr::Go { func, args: args.to_vec(), site });
    }

    /// `runtime.Gosched()`.
    pub fn yield_now(&mut self) {
        self.emit(Instr::Yield);
    }

    /// `runtime.Goexit()` — ends the calling goroutine.
    pub fn goexit(&mut self) {
        self.emit(Instr::Goexit);
    }

    /// `time.Sleep(ticks)`.
    pub fn sleep(&mut self, ticks: u64) {
        self.emit(Instr::Sleep(ticks));
    }

    /// `time.Sleep(v)` with a variable duration.
    pub fn sleep_var(&mut self, v: Var) {
        self.emit(Instr::SleepVar(v));
    }

    // ---- heap data ----

    /// Allocates a struct from field variables.
    pub fn new_struct(&mut self, ty: TypeId, fields: &[Var], dst: Var) {
        self.emit(Instr::NewStruct { ty, fields: fields.to_vec(), dst });
    }

    /// `dst = obj.fields[idx]`.
    pub fn get_field(&mut self, dst: Var, obj: Var, idx: u16) {
        self.emit(Instr::GetField(dst, obj, idx));
    }

    /// `obj.fields[idx] = src`.
    pub fn set_field(&mut self, obj: Var, idx: u16, src: Var) {
        self.emit(Instr::SetField(obj, idx, src));
    }

    /// Allocates an empty slice.
    pub fn new_slice(&mut self, dst: Var) {
        self.emit(Instr::NewSlice(dst));
    }

    /// Appends to a slice.
    pub fn slice_push(&mut self, slice: Var, val: Var) {
        self.emit(Instr::SlicePush(slice, val));
    }

    /// `dst = slice[idx]`.
    pub fn slice_get(&mut self, dst: Var, slice: Var, idx: Var) {
        self.emit(Instr::SliceGet(dst, slice, idx));
    }

    /// `slice[idx] = val`.
    pub fn slice_set(&mut self, slice: Var, idx: Var, val: Var) {
        self.emit(Instr::SliceSet(slice, idx, val));
    }

    /// `dst = len(slice)`.
    pub fn slice_len(&mut self, dst: Var, slice: Var) {
        self.emit(Instr::SliceLen(dst, slice));
    }

    /// Allocates a cell holding `src`.
    pub fn new_cell(&mut self, dst: Var, src: Var) {
        self.emit(Instr::NewCell(dst, src));
    }

    /// `dst = *cell`.
    pub fn cell_get(&mut self, dst: Var, cell: Var) {
        self.emit(Instr::CellGet(dst, cell));
    }

    /// `*cell = src`.
    pub fn cell_set(&mut self, cell: Var, src: Var) {
        self.emit(Instr::CellSet(cell, src));
    }

    /// Allocates an opaque blob of `bytes` bytes.
    pub fn new_blob(&mut self, dst: Var, bytes: u64) {
        self.emit(Instr::NewBlob { dst, bytes });
    }

    /// `global = src`.
    pub fn set_global(&mut self, global: GlobalId, src: Var) {
        self.emit(Instr::SetGlobal(global, src));
    }

    /// `dst = global`.
    pub fn get_global(&mut self, dst: Var, global: GlobalId) {
        self.emit(Instr::GetGlobal(dst, global));
    }

    // ---- channels ----

    /// `dst = make(chan, cap)`.
    pub fn make_chan(&mut self, dst: Var, cap: usize) {
        self.emit(Instr::MakeChan { dst, cap });
    }

    /// `dst = time.After(after)`.
    pub fn timer_chan(&mut self, dst: Var, after: u64) {
        self.emit(Instr::MakeTimerChan { dst, after });
    }

    /// `ch <- val`.
    pub fn send(&mut self, ch: Var, val: Var) {
        self.emit(Instr::Send { ch, val });
    }

    /// `dst = <-ch`.
    pub fn recv(&mut self, ch: Var, dst: Option<Var>) {
        self.emit(Instr::Recv { ch, dst, ok_dst: None });
    }

    /// `dst, ok = <-ch`.
    pub fn recv_ok(&mut self, ch: Var, dst: Option<Var>, ok_dst: Option<Var>) {
        self.emit(Instr::Recv { ch, dst, ok_dst });
    }

    /// `close(ch)`.
    pub fn close_chan(&mut self, ch: Var) {
        self.emit(Instr::Close(ch));
    }

    /// Emits a `select` from a [`SelectSpec`]. Control continues at the
    /// arm labels; the builder does **not** emit a join — callers normally
    /// bind the arm labels right after and converge explicitly.
    pub fn select(&mut self, spec: SelectSpec) {
        let cases = spec
            .cases
            .into_iter()
            .map(|(op, label)| SelectCase { op, target: label.0 as usize })
            .collect();
        self.fixups.push(Fixup::Select(self.code.len()));
        self.emit(Instr::Select { cases, default_target: spec.default.map(|l| l.0 as usize) });
    }

    /// `select {}` — blocks forever.
    pub fn select_forever(&mut self) {
        self.emit(Instr::Select { cases: vec![], default_target: None });
    }

    // ---- sync ----

    /// `dst = &sync.Mutex{}`.
    pub fn new_mutex(&mut self, dst: Var) {
        self.emit(Instr::NewMutex(dst));
    }

    /// `dst = &sync.RWMutex{}`.
    pub fn new_rwlock(&mut self, dst: Var) {
        self.emit(Instr::NewRwLock(dst));
    }

    /// `dst = &sync.WaitGroup{}`.
    pub fn new_waitgroup(&mut self, dst: Var) {
        self.emit(Instr::NewWaitGroup(dst));
    }

    /// `dst = sync.NewCond(…)`.
    pub fn new_cond(&mut self, dst: Var) {
        self.emit(Instr::NewCond(dst));
    }

    /// `mu.Lock()`.
    pub fn lock(&mut self, mu: Var) {
        self.emit(Instr::Lock(mu));
    }

    /// `mu.Unlock()`.
    pub fn unlock(&mut self, mu: Var) {
        self.emit(Instr::Unlock(mu));
    }

    /// `rw.RLock()`.
    pub fn rlock(&mut self, rw: Var) {
        self.emit(Instr::RLock(rw));
    }

    /// `rw.RUnlock()`.
    pub fn runlock(&mut self, rw: Var) {
        self.emit(Instr::RUnlock(rw));
    }

    /// `rw.Lock()`.
    pub fn wlock(&mut self, rw: Var) {
        self.emit(Instr::WLock(rw));
    }

    /// `rw.Unlock()`.
    pub fn wunlock(&mut self, rw: Var) {
        self.emit(Instr::WUnlock(rw));
    }

    /// `wg.Add(n)`.
    pub fn wg_add(&mut self, wg: Var, n: i64) {
        self.emit(Instr::WgAdd(wg, n));
    }

    /// `wg.Done()`.
    pub fn wg_done(&mut self, wg: Var) {
        self.emit(Instr::WgDone(wg));
    }

    /// `wg.Wait()`.
    pub fn wg_wait(&mut self, wg: Var) {
        self.emit(Instr::WgWait(wg));
    }

    /// `cond.Wait()` while holding `mutex`.
    pub fn cond_wait(&mut self, cond: Var, mutex: Var) {
        self.emit(Instr::CondWait { cond, mutex });
    }

    /// `cond.Signal()`.
    pub fn cond_signal(&mut self, cond: Var) {
        self.emit(Instr::CondSignal(cond));
    }

    /// `cond.Broadcast()`.
    pub fn cond_broadcast(&mut self, cond: Var) {
        self.emit(Instr::CondBroadcast(cond));
    }

    // ---- runtime ----

    /// `runtime.GC()`.
    pub fn gc(&mut self) {
        self.emit(Instr::GcCall);
    }

    /// `dst = time.Now()` (in scheduler ticks).
    pub fn now_tick(&mut self, dst: Var) {
        self.emit(Instr::Now(dst));
    }

    /// `runtime.SetFinalizer(obj, func)`.
    pub fn set_finalizer(&mut self, obj: Var, func: FuncId) {
        self.emit(Instr::SetFinalizer { obj, func });
    }

    /// Unconditional panic.
    pub fn panic(&mut self, msg: &'static str) {
        self.emit(Instr::Panic(msg));
    }

    /// No-op (placeholder / padding).
    pub fn nop(&mut self) {
        self.emit(Instr::Nop);
    }

    // ---- structured helpers ----

    /// `for item := range ch { body }` — iterates until the channel is
    /// closed and drained.
    pub fn range_chan(&mut self, ch: Var, item: Var, body: impl FnOnce(&mut Self)) {
        let ok = self.var("range.ok");
        let top = self.label();
        let exit = self.label();
        self.bind(top);
        self.recv_ok(ch, Some(item), Some(ok));
        self.jump_if_not(ok, exit);
        body(self);
        self.jump(top);
        self.bind(exit);
    }

    /// `for i := 0; i < n; i++ { body(i) }` with a constant bound.
    pub fn repeat(&mut self, n: i64, body: impl FnOnce(&mut Self, Var)) {
        let i = self.var("loop.i");
        let bound = self.int(n);
        let cond = self.var("loop.cond");
        self.konst(i, Value::Int(0));
        let top = self.label();
        let exit = self.label();
        self.bind(top);
        self.bin(BinOp::Lt, cond, i, bound);
        self.jump_if_not(cond, exit);
        body(self, i);
        let one = self.int(1);
        self.bin(BinOp::Add, i, i, one);
        self.jump(top);
        self.bind(exit);
    }

    /// An infinite loop.
    pub fn forever(&mut self, body: impl FnOnce(&mut Self)) {
        let top = self.label();
        self.bind(top);
        body(self);
        self.jump(top);
    }

    /// `if cond { then }`.
    pub fn if_then(&mut self, cond: Var, then: impl FnOnce(&mut Self)) {
        let skip = self.label();
        self.jump_if_not(cond, skip);
        then(self);
        self.bind(skip);
    }

    /// `if cond { then } else { els }`.
    pub fn if_else(
        &mut self,
        cond: Var,
        then: impl FnOnce(&mut Self),
        els: impl FnOnce(&mut Self),
    ) {
        let else_l = self.label();
        let join = self.label();
        self.jump_if_not(cond, else_l);
        then(self);
        self.jump(join);
        self.bind(else_l);
        els(self);
        self.bind(join);
    }

    /// Flips a coin with probability `num/den` of being true (seeded RNG).
    pub fn rand_chance(&mut self, dst: Var, num: i64, den: i64) {
        let r = self.var("chance.r");
        self.rand_int(r, den);
        let bound = self.int(num);
        self.bin(BinOp::Lt, dst, r, bound);
    }

    /// Finalizes the function, resolving all labels.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(mut self) -> Function {
        // Implicit return at the end keeps straight-line functions simple.
        self.code.push(Instr::Return(None));
        let resolve = |label_idx: usize, labels: &[Option<usize>], name: &str| -> usize {
            labels[label_idx].unwrap_or_else(|| panic!("unbound label {label_idx} in {name}"))
        };
        for fixup in &self.fixups {
            match fixup {
                Fixup::Jump(i) => match &mut self.code[*i] {
                    Instr::Jump(t) | Instr::JumpIf(_, t) | Instr::JumpIfNot(_, t) => {
                        *t = resolve(*t, &self.labels, &self.name);
                    }
                    other => unreachable!("jump fixup on {other:?}"),
                },
                Fixup::Select(i) => match &mut self.code[*i] {
                    Instr::Select { cases, default_target } => {
                        for c in cases {
                            c.target = resolve(c.target, &self.labels, &self.name);
                        }
                        if let Some(t) = default_target {
                            *t = resolve(*t, &self.labels, &self.name);
                        }
                    }
                    other => unreachable!("select fixup on {other:?}"),
                },
            }
        }
        Function {
            name: self.name,
            n_params: self.n_params,
            n_locals: self.next_var as usize,
            code: self.code,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = FuncBuilder::new("f", 0);
        let x = b.var("x");
        let fwd = b.label();
        b.jump(fwd);
        b.konst(x, Value::Int(1)); // skipped
        b.bind(fwd);
        let back = b.label();
        b.bind(back);
        b.konst(x, Value::Int(2));
        let f = b.finish();
        match f.code[0] {
            Instr::Jump(t) => assert_eq!(t, 2),
            ref other => panic!("expected jump, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut b = FuncBuilder::new("f", 0);
        let l = b.label();
        b.jump(l);
        b.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = FuncBuilder::new("f", 0);
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn select_targets_patched() {
        let mut b = FuncBuilder::new("f", 0);
        let ch = b.var("ch");
        b.make_chan(ch, 0);
        let a = b.label();
        let d = b.label();
        b.select(SelectSpec::new().recv(ch, None, a).default_case(d));
        b.bind(a);
        b.nop();
        b.bind(d);
        let f = b.finish();
        match &f.code[1] {
            Instr::Select { cases, default_target } => {
                assert_eq!(cases[0].target, 2);
                assert_eq!(*default_target, Some(3));
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn implicit_return_appended() {
        let mut b = FuncBuilder::new("f", 0);
        b.nop();
        let f = b.finish();
        assert!(matches!(f.code.last(), Some(Instr::Return(None))));
    }

    #[test]
    fn locals_count_includes_params_and_temps() {
        let mut b = FuncBuilder::new("f", 2);
        assert_eq!(b.param(0), Var(0));
        assert_eq!(b.param(1), Var(1));
        let v = b.var("v");
        assert_eq!(v, Var(2));
        let f = b.finish();
        assert_eq!(f.n_locals, 3);
        assert_eq!(f.n_params, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn param_out_of_range() {
        let b = FuncBuilder::new("f", 1);
        b.param(1);
    }
}
