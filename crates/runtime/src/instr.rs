//! The GoVM instruction set.

use crate::func::{FuncId, GlobalId, SiteId};
use crate::object::TypeId;
use crate::value::{Value, Var};

/// Binary operators for [`Instr::Bin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Equality (any value kinds).
    Eq,
    /// Inequality.
    Ne,
    /// Integer less-than.
    Lt,
    /// Integer less-or-equal.
    Le,
    /// Integer greater-than.
    Gt,
    /// Integer greater-or-equal.
    Ge,
    /// Boolean and (truthiness-based).
    And,
    /// Boolean or (truthiness-based).
    Or,
}

/// One case of a [`Instr::Select`].
#[derive(Debug, Clone)]
pub struct SelectCase {
    /// The guarded channel operation.
    pub op: SelOp,
    /// Program counter to jump to when this case fires.
    pub target: usize,
}

/// The channel operation guarding a select case.
#[derive(Debug, Clone)]
pub enum SelOp {
    /// `case ch <- val:`
    Send {
        /// Channel variable.
        ch: Var,
        /// Value variable to send.
        val: Var,
    },
    /// `case x := <-ch:` / `case x, ok := <-ch:`
    Recv {
        /// Channel variable.
        ch: Var,
        /// Destination for the received value.
        dst: Option<Var>,
        /// Destination for the comma-ok flag.
        ok_dst: Option<Var>,
    },
}

impl SelOp {
    /// The channel variable this case reads.
    pub fn chan_var(&self) -> Var {
        match self {
            SelOp::Send { ch, .. } | SelOp::Recv { ch, .. } => *ch,
        }
    }
}

/// A GoVM instruction.
///
/// Instructions operate on frame locals addressed by [`Var`]. Programs are
/// built with [`FuncBuilder`](crate::FuncBuilder), which resolves labels to
/// program counters. The set is intentionally small but complete enough to
/// distill every partial-deadlock pattern of the paper's microbenchmark
/// corpus: channels (with close/nil semantics), select (blocking,
/// `default`, zero-case), all `sync` primitives, timers, finalizers and
/// goroutine creation.
#[derive(Debug, Clone)]
pub enum Instr {
    // ---- data movement & arithmetic ----
    /// `dst = konst`.
    Const(Var, Value),
    /// `dst = src`.
    Copy(Var, Var),
    /// `dst = a <op> b`.
    Bin(BinOp, Var, Var, Var),
    /// `dst = !src` (truthiness negation).
    Not(Var, Var),
    /// `dst = uniform(0..bound)` from the scheduler RNG (models
    /// data-dependent nondeterminism like `if rand.Intn(n) == 0`).
    RandInt(Var, i64),

    // ---- control flow ----
    /// Unconditional jump to a pc.
    Jump(usize),
    /// Jump when the variable is truthy.
    JumpIf(Var, usize),
    /// Jump when the variable is falsy.
    JumpIfNot(Var, usize),
    /// Call a function, copying `args` into its first locals.
    Call {
        /// Callee.
        func: FuncId,
        /// Argument variables in the caller frame.
        args: Vec<Var>,
        /// Where to store the return value.
        dst: Option<Var>,
    },
    /// Return from the current frame, optionally yielding a value.
    Return(Option<Var>),
    /// `go func(args…)` — spawn a goroutine. The [`SiteId`] identifies this
    /// `go` statement in deadlock reports.
    Go {
        /// Function the goroutine runs.
        func: FuncId,
        /// Argument variables in the spawning frame.
        args: Vec<Var>,
        /// Report/deduplication site for this `go` statement.
        site: SiteId,
    },
    /// Cooperatively yield the processor (`runtime.Gosched()`).
    Yield,
    /// `runtime.Goexit()` — terminates the calling goroutine immediately
    /// (without crashing the program, unlike a panic).
    Goexit,
    /// `time.Sleep(ticks)` — parks with a non-deadlock wait reason.
    Sleep(u64),
    /// `time.Sleep(v)` with the duration read from a variable (non-positive
    /// durations sleep one tick).
    SleepVar(Var),

    // ---- heap data ----
    /// Allocate a struct of registered type `ty` from field variables.
    NewStruct {
        /// Registered struct type.
        ty: TypeId,
        /// Initial field values (must match the type's arity).
        fields: Vec<Var>,
        /// Destination.
        dst: Var,
    },
    /// `dst = obj.field[idx]`.
    GetField(Var, Var, u16),
    /// `obj.field[idx] = src`.
    SetField(Var, u16, Var),
    /// Allocate an empty slice.
    NewSlice(Var),
    /// Append `val` to the slice in `slice`.
    SlicePush(Var, Var),
    /// `dst = slice[idx]` (panics when out of bounds).
    SliceGet(Var, Var, Var),
    /// `slice[idx] = val` (panics when out of bounds).
    SliceSet(Var, Var, Var),
    /// `dst = len(slice)`.
    SliceLen(Var, Var),
    /// Allocate a boxed cell holding `src`.
    NewCell(Var, Var),
    /// `dst = *cell`.
    CellGet(Var, Var),
    /// `*cell = src`.
    CellSet(Var, Var),
    /// Allocate an opaque blob of `bytes` bytes (models big payloads).
    NewBlob {
        /// Destination.
        dst: Var,
        /// Modeled size.
        bytes: u64,
    },
    /// `global = src`.
    SetGlobal(GlobalId, Var),
    /// `dst = global`.
    GetGlobal(Var, GlobalId),

    // ---- channels ----
    /// `dst = make(chan, cap)`.
    MakeChan {
        /// Destination.
        dst: Var,
        /// Capacity; 0 = unbuffered.
        cap: usize,
    },
    /// A channel whose single value is delivered by the runtime timer at
    /// `now + after` ticks (`time.After`). The runtime holds a reference to
    /// the channel until the timer fires.
    MakeTimerChan {
        /// Destination.
        dst: Var,
        /// Delay in ticks.
        after: u64,
    },
    /// `ch <- val`. Blocks per Go semantics; panics on closed channels;
    /// blocks forever on nil channels.
    Send {
        /// Channel variable.
        ch: Var,
        /// Value variable.
        val: Var,
    },
    /// `dst, ok := <-ch`.
    Recv {
        /// Channel variable.
        ch: Var,
        /// Destination for the value.
        dst: Option<Var>,
        /// Destination for the comma-ok flag.
        ok_dst: Option<Var>,
    },
    /// `close(ch)`. Panics on nil or already-closed channels.
    Close(Var),
    /// A select statement. Blocks when no case is ready and there is no
    /// default; `select {}` (zero cases, no default) blocks forever.
    Select {
        /// The guarded cases.
        cases: Vec<SelectCase>,
        /// `default:` target, if present.
        default_target: Option<usize>,
    },

    // ---- sync package ----
    /// `dst = &sync.Mutex{}`.
    NewMutex(Var),
    /// `dst = &sync.RWMutex{}`.
    NewRwLock(Var),
    /// `dst = &sync.WaitGroup{}`.
    NewWaitGroup(Var),
    /// `dst = sync.NewCond(…)`.
    NewCond(Var),
    /// `mu.Lock()`.
    Lock(Var),
    /// `mu.Unlock()`. Panics when not locked.
    Unlock(Var),
    /// `rw.RLock()`.
    RLock(Var),
    /// `rw.RUnlock()`. Panics without active readers.
    RUnlock(Var),
    /// `rw.Lock()`.
    WLock(Var),
    /// `rw.Unlock()`. Panics when not write-locked.
    WUnlock(Var),
    /// `wg.Add(n)`. Panics when the counter goes negative.
    WgAdd(Var, i64),
    /// `wg.Done()`.
    WgDone(Var),
    /// `wg.Wait()`.
    WgWait(Var),
    /// `cond.Wait()` with its associated mutex: atomically unlocks, parks,
    /// and re-locks on wake.
    CondWait {
        /// Condition variable.
        cond: Var,
        /// The mutex the caller holds.
        mutex: Var,
    },
    /// `cond.Signal()`.
    CondSignal(Var),
    /// `cond.Broadcast()`.
    CondBroadcast(Var),

    // ---- runtime services ----
    /// `runtime.GC()` — requests a collection from the driving session.
    GcCall,
    /// `dst = <current scheduler tick>` — simulated `time.Now()`, used by
    /// service harnesses to measure request latency in ticks.
    Now(Var),
    /// `runtime.SetFinalizer(obj, func)`.
    SetFinalizer {
        /// Variable holding the object reference.
        obj: Var,
        /// Finalizer function; invoked with the object as its argument.
        func: FuncId,
    },
    /// Unconditional panic with a message.
    Panic(&'static str),
    /// No operation.
    Nop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selop_chan_var() {
        let s = SelOp::Send { ch: Var(3), val: Var(4) };
        assert_eq!(s.chan_var(), Var(3));
        let r = SelOp::Recv { ch: Var(5), dst: None, ok_dst: None };
        assert_eq!(r.chan_var(), Var(5));
    }
}
