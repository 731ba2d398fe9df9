//! Functions, program registries, globals and spawn sites.

use crate::instr::Instr;
use crate::object::TypeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifies a function in a [`ProgramSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FuncId(pub(crate) u32);

impl FuncId {
    /// The registry index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a global variable slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GlobalId(pub(crate) u32);

impl GlobalId {
    /// The globals-table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a `go` statement — the unit of deduplication for deadlock
/// reports (paper §6.1 pairs the blocking operation's source location with
/// the `go` statement's source location).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SiteId(pub(crate) u32);

impl SiteId {
    /// The site-table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A compiled function: bytecode plus frame layout.
#[derive(Debug, Clone)]
pub struct Function {
    /// Diagnostic name (e.g. `"main"`, `"NewFuncManager.func1"`).
    pub name: String,
    /// Number of parameters (stored in locals `0..n_params`).
    pub n_params: usize,
    /// Total locals in a frame.
    pub n_locals: usize,
    /// The instruction sequence.
    pub code: Vec<Instr>,
}

/// A registered struct type: a name plus ordered field names.
#[derive(Debug, Clone)]
pub struct StructType {
    /// Diagnostic type name.
    pub name: String,
    /// Field names, in declaration order.
    pub fields: Vec<String>,
}

impl StructType {
    /// The index of a field by name.
    ///
    /// # Panics
    ///
    /// Panics if `field` is not declared — a programming error in benchmark
    /// construction, caught eagerly.
    pub fn field(&self, field: &str) -> u16 {
        self.fields
            .iter()
            .position(|f| f == field)
            .unwrap_or_else(|| panic!("struct {} has no field {field}", self.name)) as u16
    }
}

/// A complete program: functions, struct types, globals and spawn sites.
///
/// Built once, then executed any number of times by [`Vm`](crate::Vm)
/// instances (each run owns its own mutable state; the program is immutable
/// and shareable).
///
/// # Example
///
/// ```
/// use golf_runtime::{ProgramSet, FuncBuilder, Value};
///
/// let mut prog = ProgramSet::new();
/// let mut b = FuncBuilder::new("main", 0);
/// let x = b.var("x");
/// b.konst(x, Value::Int(41));
/// b.ret(None);
/// prog.define(b);
/// assert!(prog.func_named("main").is_some());
/// ```
#[derive(Debug, Default)]
pub struct ProgramSet {
    functions: Vec<Function>,
    by_name: HashMap<String, FuncId>,
    struct_types: Vec<StructType>,
    globals: Vec<String>,
    sites: Vec<SiteInfo>,
}

/// Metadata about a `go` statement site.
///
/// The label is interned as an `Arc<str>`: reports share one allocation
/// per site instead of cloning a `String` per report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteInfo {
    /// A stable label, e.g. `"NewFuncManager:34"`.
    pub label: std::sync::Arc<str>,
}

impl ProgramSet {
    /// Creates an empty program.
    pub fn new() -> Self {
        ProgramSet::default()
    }

    /// Registers a function built by a [`FuncBuilder`](crate::FuncBuilder).
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name is already defined.
    pub fn define(&mut self, builder: crate::builder::FuncBuilder) -> FuncId {
        let func = builder.finish();
        assert!(!self.by_name.contains_key(&func.name), "function {} defined twice", func.name);
        let id = FuncId(self.functions.len() as u32);
        self.by_name.insert(func.name.clone(), id);
        self.functions.push(func);
        id
    }

    /// Reserves a function id before its body exists (for recursion and
    /// mutual references). The body must be supplied later with
    /// [`ProgramSet::fill`].
    pub fn declare(&mut self, name: &str, n_params: usize) -> FuncId {
        assert!(!self.by_name.contains_key(name), "function {name} defined twice");
        let id = FuncId(self.functions.len() as u32);
        self.by_name.insert(name.to_string(), id);
        self.functions.push(Function {
            name: name.to_string(),
            n_params,
            n_locals: n_params,
            code: vec![Instr::Panic("called a declared-but-undefined function")],
        });
        id
    }

    /// Fills a previously [`declare`](Self::declare)d function.
    ///
    /// # Panics
    ///
    /// Panics if the builder's name does not match the declaration.
    pub fn fill(&mut self, id: FuncId, builder: crate::builder::FuncBuilder) {
        let func = builder.finish();
        let slot = &mut self.functions[id.index()];
        assert_eq!(slot.name, func.name, "fill() name mismatch");
        assert_eq!(slot.n_params, func.n_params, "fill() arity mismatch");
        *slot = func;
    }

    /// Looks up a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Looks up a function id by name.
    pub fn func_named(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered functions.
    pub fn func_count(&self) -> usize {
        self.functions.len()
    }

    /// Registers a struct type.
    pub fn struct_type(&mut self, name: &str, fields: &[&str]) -> TypeId {
        let id = TypeId(self.struct_types.len() as u32);
        self.struct_types.push(StructType {
            name: name.to_string(),
            fields: fields.iter().map(|s| s.to_string()).collect(),
        });
        id
    }

    /// Looks up a struct type.
    pub fn struct_ty(&self, id: TypeId) -> &StructType {
        &self.struct_types[id.0 as usize]
    }

    /// Registers a global variable, returning its id.
    pub fn global(&mut self, name: &str) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(name.to_string());
        id
    }

    /// Number of global slots.
    pub fn global_count(&self) -> usize {
        self.globals.len()
    }

    /// The name of a global.
    pub fn global_name(&self, id: GlobalId) -> &str {
        &self.globals[id.index()]
    }

    /// Registers a `go`-statement site with a stable label.
    pub fn site(&mut self, label: impl Into<String>) -> SiteId {
        let id = SiteId(self.sites.len() as u32);
        self.sites.push(SiteInfo { label: label.into().into() });
        id
    }

    /// Site metadata.
    pub fn site_info(&self, id: SiteId) -> &SiteInfo {
        &self.sites[id.index()]
    }

    /// Number of registered sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The label of the `i`-th registered site (registration order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= site_count()`.
    pub fn site_label_by_index(&self, i: usize) -> std::sync::Arc<str> {
        self.sites[i].label.clone()
    }

    /// A human-readable code location `func:pc` for a stack frame, used in
    /// reports.
    ///
    /// A frame's pc points past the instruction it is executing (the one it
    /// blocked or panicked in), so the location names `frame_pc - 1`; a frame
    /// that has not run yet (pc 0) names its first instruction.
    ///
    /// ```
    /// use golf_runtime::{FuncBuilder, ProgramSet};
    /// let mut p = ProgramSet::new();
    /// let mut b = FuncBuilder::new("f", 0);
    /// b.ret(None);
    /// let f = p.define(b);
    /// assert_eq!(p.describe_loc(f, 0), "f:0");
    /// assert_eq!(p.describe_loc(f, 3), "f:2");
    /// ```
    pub fn describe_loc(&self, func: FuncId, frame_pc: usize) -> String {
        format!("{}:{}", self.func(func).name, frame_pc.saturating_sub(1))
    }
}

impl fmt::Display for ProgramSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program with {} functions:", self.functions.len())?;
        for func in &self.functions {
            writeln!(f, "  {} ({} instrs)", func.name, func.code.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;

    #[test]
    fn define_and_lookup() {
        let mut p = ProgramSet::new();
        let mut b = FuncBuilder::new("f", 1);
        b.ret(None);
        let id = p.define(b);
        assert_eq!(p.func(id).name, "f");
        assert_eq!(p.func(id).n_params, 1);
        assert_eq!(p.func_named("f"), Some(id));
        assert_eq!(p.func_named("g"), None);
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_name_panics() {
        let mut p = ProgramSet::new();
        let mut b1 = FuncBuilder::new("f", 0);
        b1.ret(None);
        p.define(b1);
        let mut b2 = FuncBuilder::new("f", 0);
        b2.ret(None);
        p.define(b2);
    }

    #[test]
    fn declare_then_fill() {
        let mut p = ProgramSet::new();
        let id = p.declare("rec", 1);
        let mut b = FuncBuilder::new("rec", 1);
        b.ret(None);
        p.fill(id, b);
        // explicit ret + implicit trailing return appended by finish()
        assert_eq!(p.func(id).code.len(), 2);
    }

    #[test]
    fn struct_type_fields() {
        let mut p = ProgramSet::new();
        let t = p.struct_type("goFuncManager", &["e", "d"]);
        assert_eq!(p.struct_ty(t).field("e"), 0);
        assert_eq!(p.struct_ty(t).field("d"), 1);
    }

    #[test]
    #[should_panic(expected = "has no field")]
    fn unknown_field_panics() {
        let mut p = ProgramSet::new();
        let t = p.struct_type("s", &["a"]);
        p.struct_ty(t).field("b");
    }

    #[test]
    fn globals_and_sites() {
        let mut p = ProgramSet::new();
        let g = p.global("ch");
        assert_eq!(p.global_name(g), "ch");
        assert_eq!(p.global_count(), 1);
        let s = p.site("main:59");
        assert_eq!(&*p.site_info(s).label, "main:59");
    }
}
