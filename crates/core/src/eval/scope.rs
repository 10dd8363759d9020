//! The bindings a subscript is evaluated against.

use std::fmt;

use crate::sym::Sym;
use crate::tuple::Tuple;
use crate::value::Value;

/// The bindings a subscript sees, nearest first: the tuple it is
/// evaluated for or a quantifier's variable, then the scope that tuple
/// or range was produced in. A lookup walks outward and the nearest
/// binding wins, which is lookup in the tuple [`Scope::flatten`] builds
/// (`outer ◦ row`, `outer.extend(var, v)`: the right operand shadows) —
/// without building it.
#[derive(Clone, Copy, Debug)]
pub enum Scope<'a> {
    /// No bindings: the scope of a top-level plan.
    Empty,
    /// A tuple's attributes over the scope it was produced in.
    Row(&'a Tuple, &'a Scope<'a>),
    /// A quantifier's variable over the scope of its range.
    Bind(Sym, &'a Value, &'a Scope<'a>),
}

impl<'a> Scope<'a> {
    /// The scope of one tuple: its attributes and nothing else.
    pub fn of(t: &'a Tuple) -> Scope<'a> {
        Scope::Row(t, &Scope::Empty)
    }

    /// The value bound to `a` nearest to the subscript, if any.
    pub fn get(&self, a: Sym) -> Option<&'a Value> {
        let mut scope = *self;
        loop {
            match scope {
                Scope::Empty => return None,
                Scope::Row(t, outer) => match t.get(a) {
                    Some(v) => return Some(v),
                    None => scope = *outer,
                },
                Scope::Bind(var, v, outer) => match var == a {
                    true => return Some(v),
                    false => scope = *outer,
                },
            }
        }
    }

    /// The bindings as one tuple — what the reference evaluator passes
    /// down as its environment. Built only where a tuple is needed.
    pub fn flatten(&self) -> Tuple {
        match self {
            Scope::Empty => Tuple::empty(),
            Scope::Row(t, outer) => outer.flatten().concat(t),
            Scope::Bind(var, v, outer) => outer.flatten().extend(*var, (*v).clone()),
        }
    }
}

/// The flattened bindings, as error messages show an environment.
impl fmt::Display for Scope<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.flatten())
    }
}
