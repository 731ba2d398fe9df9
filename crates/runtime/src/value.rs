//! Runtime values stored in goroutine stacks, globals and heap objects.

use golf_heap::Handle;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A GoVM value.
///
/// The VM is dynamically typed with a deliberately small universe: `Nil`
/// (Go's `nil` / zero value for reference types), booleans, 64-bit integers,
/// and references to heap objects. Everything richer (structs, slices,
/// channels, sync primitives) lives on the [`Heap`](golf_heap::Heap) behind a
/// [`Handle`].
///
/// # Example
///
/// ```
/// use golf_runtime::Value;
/// assert_eq!(Value::Int(3).as_int(), Some(3));
/// assert!(Value::Bool(true).truthy());
/// assert!(!Value::Nil.truthy());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// The absence of a value — Go's `nil` and the zero value delivered by
    /// receives on closed channels.
    #[default]
    Nil,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A reference to a heap object.
    Ref(Handle),
}

impl Value {
    /// The integer payload, if this is an `Int`.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }

    /// The heap handle, if this is a `Ref`.
    pub fn as_ref_handle(self) -> Option<Handle> {
        match self {
            Value::Ref(h) => Some(h),
            _ => None,
        }
    }

    /// Go-style truthiness used by conditional jumps: `Bool(b)` is `b`,
    /// `Int(i)` is `i != 0`, `Ref(_)` is `true`, `Nil` is `false`.
    pub fn truthy(self) -> bool {
        match self {
            Value::Nil => false,
            Value::Bool(b) => b,
            Value::Int(i) => i != 0,
            Value::Ref(_) => true,
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Handle> for Value {
    fn from(h: Handle) -> Self {
        Value::Ref(h)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "nil"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Ref(h) => write!(f, "&{h}"),
        }
    }
}

/// A local-variable slot index within a stack frame.
///
/// Produced by [`FuncBuilder::var`](crate::FuncBuilder::var); instructions
/// address frame locals through these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Var(pub u16);

impl Var {
    /// The slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Nil.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Nil.as_int(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Nil.to_string(), "nil");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }
}
