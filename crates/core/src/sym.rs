//! Interned attribute/variable symbols.
//!
//! NAL tuples are sets of variable bindings; attribute names (`a1`, `t2`,
//! `g`, …) appear everywhere — in tuples, projections, predicates, and
//! the rewriter's side conditions. Interning them makes comparisons and
//! hashing integer-cheap and keeps `Tuple` compact.
//!
//! The interner is global and append-only; unique names are bounded by the
//! query (plus fresh attributes invented by the rewriter), so leaking each
//! unique string to obtain `&'static str` is deliberate and safe.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned symbol. Ordering is *by name* (lexicographic), so that
/// sorted tuple layouts and printed attribute sets are deterministic
/// across processes regardless of interning order. Equality is pointer
/// identity: interning gives every name exactly one `&'static str`.
#[derive(Clone, Copy)]
pub struct Sym(&'static str);

impl PartialEq for Sym {
    #[inline]
    fn eq(&self, other: &Sym) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Sym {}

impl std::hash::Hash for Sym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

struct Interner {
    map: HashMap<&'static str, Sym>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: HashMap::new(),
        })
    })
}

impl Sym {
    /// Intern `name`.
    pub fn new(name: &str) -> Sym {
        let mut int = interner().lock().expect("interner poisoned");
        if let Some(&s) = int.map.get(name) {
            return s;
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        let sym = Sym(leaked);
        int.map.insert(leaked, sym);
        sym
    }

    /// The symbol's name.
    #[inline]
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// A fresh symbol not equal to any in `used`, derived from `base`
    /// (`g`, `g'`, `g''`, … — the paper's priming convention).
    pub fn fresh(base: &str, used: &[Sym]) -> Sym {
        let mut candidate = Sym::new(base);
        let mut name = base.to_string();
        while used.contains(&candidate) {
            name.push('\'');
            candidate = Sym::new(&name);
        }
        candidate
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    #[inline]
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        // The equal case (every successful tuple lookup ends on one)
        // is decided without touching the bytes.
        if self == other {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Sym::new("a1"), Sym::new("a1"));
        assert_ne!(Sym::new("a1"), Sym::new("a2"));
        assert_eq!(Sym::new("a1").as_str(), "a1");
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Intern in reverse order to prove order is by name, not by id.
        let z = Sym::new("zz-order-test");
        let a = Sym::new("aa-order-test");
        assert!(a < z);
    }

    #[test]
    fn fresh_primes_until_unused() {
        let g = Sym::new("fresh-g");
        let g1 = Sym::fresh("fresh-g", &[g]);
        assert_ne!(g, g1);
        assert_eq!(g1.as_str(), "fresh-g'");
        let g2 = Sym::fresh("fresh-g", &[g, g1]);
        assert_eq!(g2.as_str(), "fresh-g''");
        assert_eq!(Sym::fresh("fresh-h", &[g]), Sym::new("fresh-h"));
    }
}
