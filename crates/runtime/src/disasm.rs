//! A disassembler for GoVM programs — the debugging companion to
//! [`FuncBuilder`](crate::FuncBuilder).

use crate::func::{FuncId, ProgramSet};
use crate::instr::{Instr, SelOp};
use crate::value::Var;
use std::fmt::Write as _;

fn v(var: Var) -> String {
    format!("r{}", var.0)
}

fn ov(var: Option<Var>) -> String {
    var.map(v).unwrap_or_else(|| "_".into())
}

impl ProgramSet {
    /// Renders one instruction with names resolved against this program.
    pub fn format_instr(&self, instr: &Instr) -> String {
        match instr {
            Instr::Const(d, k) => format!("{} = const {k}", v(*d)),
            Instr::Copy(d, s) => format!("{} = {}", v(*d), v(*s)),
            Instr::Bin(op, d, a, b) => format!("{} = {} {op:?} {}", v(*d), v(*a), v(*b)),
            Instr::Not(d, s) => format!("{} = !{}", v(*d), v(*s)),
            Instr::RandInt(d, n) => format!("{} = rand({n})", v(*d)),
            Instr::Jump(t) => format!("jump {t}"),
            Instr::JumpIf(c, t) => format!("if {} jump {t}", v(*c)),
            Instr::JumpIfNot(c, t) => format!("ifnot {} jump {t}", v(*c)),
            Instr::Call { func, args, dst } => format!(
                "{} = call {}({})",
                ov(*dst),
                self.func(*func).name,
                args.iter().map(|a| v(*a)).collect::<Vec<_>>().join(", ")
            ),
            Instr::Return(val) => format!("return {}", ov(*val)),
            Instr::Go { func, args, site } => format!(
                "go {}({})    // site {}",
                self.func(*func).name,
                args.iter().map(|a| v(*a)).collect::<Vec<_>>().join(", "),
                self.site_info(*site).label
            ),
            Instr::Yield => "gosched".into(),
            Instr::Goexit => "runtime.Goexit()".into(),
            Instr::Sleep(t) => format!("sleep {t}"),
            Instr::SleepVar(d) => format!("sleep {}", v(*d)),
            Instr::NewStruct { ty, fields, dst } => format!(
                "{} = &{}{{{}}}",
                v(*dst),
                self.struct_ty(*ty).name,
                fields.iter().map(|f| v(*f)).collect::<Vec<_>>().join(", ")
            ),
            Instr::GetField(d, o, i) => format!("{} = {}.f{i}", v(*d), v(*o)),
            Instr::SetField(o, i, s) => format!("{}.f{i} = {}", v(*o), v(*s)),
            Instr::NewSlice(d) => format!("{} = []", v(*d)),
            Instr::SlicePush(s, x) => format!("{} = append({}, {})", v(*s), v(*s), v(*x)),
            Instr::SliceGet(d, s, i) => format!("{} = {}[{}]", v(*d), v(*s), v(*i)),
            Instr::SliceSet(s, i, x) => format!("{}[{}] = {}", v(*s), v(*i), v(*x)),
            Instr::SliceLen(d, s) => format!("{} = len({})", v(*d), v(*s)),
            Instr::NewCell(d, s) => format!("{} = &{}", v(*d), v(*s)),
            Instr::CellGet(d, c) => format!("{} = *{}", v(*d), v(*c)),
            Instr::CellSet(c, s) => format!("*{} = {}", v(*c), v(*s)),
            Instr::NewBlob { dst, bytes } => format!("{} = alloc({bytes}B)", v(*dst)),
            Instr::SetGlobal(g, s) => format!("{} = {}", self.global_name(*g), v(*s)),
            Instr::GetGlobal(d, g) => format!("{} = {}", v(*d), self.global_name(*g)),
            Instr::MakeChan { dst, cap } => format!("{} = make(chan, {cap})", v(*dst)),
            Instr::MakeTimerChan { dst, after } => format!("{} = time.After({after})", v(*dst)),
            Instr::Send { ch, val } => format!("{} <- {}", v(*ch), v(*val)),
            Instr::Recv { ch, dst, ok_dst } => match ok_dst {
                Some(ok) => format!("{}, {} = <-{}", ov(*dst), v(*ok), v(*ch)),
                None => format!("{} = <-{}", ov(*dst), v(*ch)),
            },
            Instr::Close(ch) => format!("close({})", v(*ch)),
            Instr::Select { cases, default_target } => {
                let mut s = String::from("select {");
                for c in cases {
                    match &c.op {
                        SelOp::Send { ch, val } => {
                            let _ = write!(s, " [{} <- {}]=>{}", v(*ch), v(*val), c.target);
                        }
                        SelOp::Recv { ch, dst, .. } => {
                            let _ = write!(s, " [{} = <-{}]=>{}", ov(*dst), v(*ch), c.target);
                        }
                    }
                }
                if let Some(t) = default_target {
                    let _ = write!(s, " [default]=>{t}");
                }
                s.push_str(" }");
                s
            }
            Instr::NewMutex(d) => format!("{} = &sync.Mutex{{}}", v(*d)),
            Instr::NewRwLock(d) => format!("{} = &sync.RWMutex{{}}", v(*d)),
            Instr::NewWaitGroup(d) => format!("{} = &sync.WaitGroup{{}}", v(*d)),
            Instr::NewCond(d) => format!("{} = sync.NewCond()", v(*d)),
            Instr::Lock(m) => format!("{}.Lock()", v(*m)),
            Instr::Unlock(m) => format!("{}.Unlock()", v(*m)),
            Instr::RLock(m) => format!("{}.RLock()", v(*m)),
            Instr::RUnlock(m) => format!("{}.RUnlock()", v(*m)),
            Instr::WLock(m) => format!("{}.Lock() [w]", v(*m)),
            Instr::WUnlock(m) => format!("{}.Unlock() [w]", v(*m)),
            Instr::WgAdd(w, n) => format!("{}.Add({n})", v(*w)),
            Instr::WgDone(w) => format!("{}.Done()", v(*w)),
            Instr::WgWait(w) => format!("{}.Wait()", v(*w)),
            Instr::CondWait { cond, mutex } => format!("{}.Wait({})", v(*cond), v(*mutex)),
            Instr::CondSignal(c) => format!("{}.Signal()", v(*c)),
            Instr::CondBroadcast(c) => format!("{}.Broadcast()", v(*c)),
            Instr::GcCall => "runtime.GC()".into(),
            Instr::Now(d) => format!("{} = time.Now()", v(*d)),
            Instr::SetFinalizer { obj, func } => {
                format!("runtime.SetFinalizer({}, {})", v(*obj), self.func(*func).name)
            }
            Instr::Panic(m) => format!("panic({m:?})"),
            Instr::Nop => "nop".into(),
        }
    }

    /// Disassembles one function.
    ///
    /// # Example
    ///
    /// ```
    /// use golf_runtime::{ProgramSet, FuncBuilder};
    /// let mut p = ProgramSet::new();
    /// let mut b = FuncBuilder::new("f", 1);
    /// let ch = b.param(0);
    /// b.recv(ch, None);
    /// b.ret(None);
    /// let f = p.define(b);
    /// let asm = p.disassemble_func(f);
    /// assert!(asm.contains("func f"));
    /// assert!(asm.contains("<-r0"));
    /// ```
    pub fn disassemble_func(&self, id: FuncId) -> String {
        let f = self.func(id);
        let mut out = format!("func {} (params={}, locals={}):\n", f.name, f.n_params, f.n_locals);
        for (pc, instr) in f.code.iter().enumerate() {
            let _ = writeln!(out, "  {pc:>4}: {}", self.format_instr(instr));
        }
        out
    }

    /// Disassembles every function in the program.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for i in 0..self.func_count() {
            out.push_str(&self.disassemble_func(FuncId(i as u32)));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;

    #[test]
    fn disassembly_covers_control_and_chan_ops() {
        let mut p = ProgramSet::new();
        let site = p.site("main:go");
        let mut b = FuncBuilder::new("worker", 1);
        let ch = b.param(0);
        let x = b.int(5);
        b.send(ch, x);
        b.ret(None);
        let worker = p.define(b);

        let mut b = FuncBuilder::new("main", 0);
        let ch = b.var("ch");
        b.make_chan(ch, 2);
        b.go(worker, &[ch], site);
        let got = b.var("got");
        b.recv(ch, Some(got));
        b.close_chan(ch);
        b.gc();
        b.ret(None);
        p.define(b);

        let asm = p.disassemble();
        assert!(asm.contains("func worker"));
        assert!(asm.contains("func main"));
        assert!(asm.contains("make(chan, 2)"));
        assert!(asm.contains("go worker(r0)    // site main:go"));
        assert!(asm.contains("close(r0)"));
        assert!(asm.contains("runtime.GC()"));
    }

    #[test]
    fn disassembly_renders_select_and_sync() {
        let mut p = ProgramSet::new();
        let mut b = FuncBuilder::new("main", 0);
        let ch = b.var("ch");
        let mu = b.var("mu");
        b.make_chan(ch, 0);
        b.new_mutex(mu);
        b.lock(mu);
        let l = b.label();
        let d = b.label();
        b.select(crate::builder::SelectSpec::new().recv(ch, None, l).default_case(d));
        b.bind(l);
        b.bind(d);
        b.unlock(mu);
        p.define(b);
        let asm = p.disassemble();
        assert!(asm.contains("select {"), "{asm}");
        assert!(asm.contains(".Lock()"));
        assert!(asm.contains("[default]=>"));
    }
}
