//! Builtin scalar functions.

use std::fmt;

use xmldb::Catalog;

use crate::value::{Atom, Dec, Value};

/// The builtin functions the paper's queries use, plus the item-sequence
/// aggregates of XQuery's function library (used when an aggregate is
/// applied to an already-bound sequence variable rather than a nested
/// query block).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Func {
    /// `contains(haystack, needle)` on string values.
    Contains,
    /// `decimal(x)` — explicit numeric conversion (§5.2).
    Decimal,
    /// `string(x)` — string value.
    String,
    /// `concat(a, b, …)`.
    Concat,
    /// `count(seq)` over an item sequence.
    Count,
    /// `min(seq)` over an item sequence (numeric if possible).
    Min,
    /// `max(seq)`.
    Max,
    /// `sum(seq)`.
    Sum,
    /// `avg(seq)`.
    Avg,
    /// `empty(seq)` — true iff the sequence is empty.
    Empty,
    /// `exists(seq)` — true iff the sequence is non-empty (§5.4).
    Exists,
    /// `true()` / `false()` are parsed as constants; `not(x)` is
    /// `Scalar::Not`. `boolean(x)` — effective boolean value.
    Boolean,
    /// `item-at(seq, n)` — the 1-based `n`-th item of a sequence in its
    /// sequence (document) order; the empty sequence when `n` is out of
    /// range or not a number. The ordered-context positional subscript:
    /// its answer depends on the *order* of the input sequence, so any
    /// upstream order violation is observable through it.
    ItemAt,
}

impl Func {
    /// XQuery surface name of the function.
    pub fn name(self) -> &'static str {
        match self {
            Func::Contains => "contains",
            Func::Decimal => "decimal",
            Func::String => "string",
            Func::Concat => "concat",
            Func::Count => "count",
            Func::Min => "min",
            Func::Max => "max",
            Func::Sum => "sum",
            Func::Avg => "avg",
            Func::Empty => "empty",
            Func::Exists => "exists",
            Func::Boolean => "boolean",
            Func::ItemAt => "item-at",
        }
    }

    /// Look up a function by its XQuery name.
    pub fn by_name(name: &str) -> Option<Func> {
        Some(match name {
            "contains" => Func::Contains,
            "decimal" | "xs:decimal" | "number" => Func::Decimal,
            "string" => Func::String,
            "concat" => Func::Concat,
            "count" => Func::Count,
            "min" => Func::Min,
            "max" => Func::Max,
            "sum" => Func::Sum,
            "avg" => Func::Avg,
            "empty" => Func::Empty,
            "exists" => Func::Exists,
            "boolean" => Func::Boolean,
            "item-at" | "fn:item-at" => Func::ItemAt,
            _ => return None,
        })
    }

    /// `true` for the aggregate functions over item sequences. The
    /// translator gives their nested-query form special treatment
    /// (they become [`crate::scalar::GroupFn`]s).
    pub fn is_aggregate(self) -> bool {
        matches!(
            self,
            Func::Count | Func::Min | Func::Max | Func::Sum | Func::Avg
        )
    }

    /// Apply to already-evaluated argument values.
    pub fn apply(self, args: &[Value], catalog: &Catalog) -> Result<Value, String> {
        let arity_err = |want: &str| {
            Err(format!(
                "{}() expects {want} argument(s), got {}",
                self.name(),
                args.len()
            ))
        };
        match self {
            Func::Contains => {
                let [h, n] = args else { return arity_err("2") };
                let (h, n) = (Atom::of(h, catalog), Atom::of(n, catalog));
                Ok(Value::Bool(h.as_str_lossy().contains(&*n.as_str_lossy())))
            }
            Func::Decimal => {
                let [x] = args else { return arity_err("1") };
                match Atom::of(x, catalog).as_number() {
                    Some(n) => Ok(Value::Dec(Dec(n))),
                    None if x.is_empty_seq() => Ok(Value::Null),
                    None => Err(format!("decimal(): not a number: {x}")),
                }
            }
            Func::String => {
                let [x] = args else { return arity_err("1") };
                Ok(Value::str(Atom::of(x, catalog).as_str_lossy()))
            }
            Func::Concat => {
                let mut out = String::new();
                for a in args {
                    out.push_str(&Atom::of(a, catalog).as_str_lossy());
                }
                Ok(Value::str(out))
            }
            Func::Count => {
                let [x] = args else { return arity_err("1") };
                Ok(Value::Int(x.item_count() as i64))
            }
            Func::Min | Func::Max => {
                let [x] = args else { return arity_err("1") };
                Ok(min_max_items(self == Func::Min, x, catalog))
            }
            Func::Sum | Func::Avg => {
                let [x] = args else { return arity_err("1") };
                let items = x.atomize(catalog);
                let mut sum = 0.0f64;
                let mut n = 0usize;
                for it in items.as_items() {
                    if let Some(v) = it.as_number() {
                        sum += v;
                        n += 1;
                    }
                }
                if self == Func::Sum {
                    Ok(Value::Dec(Dec(sum)))
                } else if n == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Dec(Dec(sum / n as f64)))
                }
            }
            Func::Empty => {
                let [x] = args else { return arity_err("1") };
                Ok(Value::Bool(x.is_empty_seq()))
            }
            Func::Exists => {
                let [x] = args else { return arity_err("1") };
                Ok(Value::Bool(!x.is_empty_seq()))
            }
            Func::Boolean => {
                let [x] = args else { return arity_err("1") };
                Ok(Value::Bool(effective_boolean(x)))
            }
            Func::ItemAt => {
                let [x, n] = args else { return arity_err("2") };
                let Some(pos) = n.atomize(catalog).as_number() else {
                    return Ok(Value::Null);
                };
                // XQuery positions are 1-based; fractional or out-of-range
                // positions select nothing.
                if pos < 1.0 || pos.fract() != 0.0 {
                    return Ok(Value::Null);
                }
                let items = x.atomize(catalog);
                match items.as_items().get(pos as usize - 1) {
                    Some(v) => Ok(v.clone()),
                    None => Ok(Value::Null),
                }
            }
        }
    }
}

/// XQuery-ish effective boolean value.
pub fn effective_boolean(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Bool(b) => *b,
        Value::Int(i) => *i != 0,
        Value::Dec(d) => d.0 != 0.0,
        Value::Str(s) => !s.is_empty(),
        Value::Node(_) => true,
        Value::Items(items) => !items.is_empty(),
        Value::Tuples(ts) => !ts.is_empty(),
    }
}

/// min/max over item values: numeric when all items are numeric,
/// lexicographic otherwise. Empty input yields `Null`.
pub fn min_max_items(is_min: bool, v: &Value, catalog: &Catalog) -> Value {
    let atomized = v.atomize(catalog);
    let items = atomized.as_items();
    if items.is_empty() {
        return Value::Null;
    }
    let numbers: Option<Vec<f64>> = items.iter().map(Value::as_number).collect();
    if let Some(ns) = numbers {
        let best = if is_min {
            ns.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            ns.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        };
        return Value::Dec(Dec(best));
    }
    let mut best = items[0].as_str_lossy();
    for it in &items[1..] {
        let s = it.as_str_lossy();
        if (is_min && s < best) || (!is_min && s > best) {
            best = s;
        }
    }
    Value::str(best)
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat() -> Catalog {
        Catalog::new()
    }

    #[test]
    fn contains_and_decimal() {
        let c = cat();
        assert_eq!(
            Func::Contains.apply(&[Value::str("Dan Suciu"), Value::str("Suciu")], &c),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            Func::Decimal.apply(&[Value::str(" 12.50 ")], &c),
            Ok(Value::Dec(Dec(12.5)))
        );
        assert!(Func::Decimal.apply(&[Value::str("abc")], &c).is_err());
        assert!(Func::Contains.apply(&[Value::str("x")], &c).is_err());
    }

    #[test]
    fn aggregates_over_item_sequences() {
        let c = cat();
        let seq = Value::items(vec![Value::Int(3), Value::Int(1), Value::Int(2)]);
        assert_eq!(
            Func::Count.apply(std::slice::from_ref(&seq), &c),
            Ok(Value::Int(3))
        );
        assert_eq!(
            Func::Min.apply(std::slice::from_ref(&seq), &c),
            Ok(Value::Dec(Dec(1.0)))
        );
        assert_eq!(
            Func::Max.apply(std::slice::from_ref(&seq), &c),
            Ok(Value::Dec(Dec(3.0)))
        );
        assert_eq!(
            Func::Sum.apply(std::slice::from_ref(&seq), &c),
            Ok(Value::Dec(Dec(6.0)))
        );
        assert_eq!(Func::Avg.apply(&[seq], &c), Ok(Value::Dec(Dec(2.0))));
        let empty = Value::items(vec![]);
        assert_eq!(
            Func::Count.apply(std::slice::from_ref(&empty), &c),
            Ok(Value::Int(0))
        );
        assert_eq!(
            Func::Min.apply(std::slice::from_ref(&empty), &c),
            Ok(Value::Null)
        );
        assert_eq!(Func::Avg.apply(&[empty], &c), Ok(Value::Null));
    }

    #[test]
    fn string_min_when_not_numeric() {
        let c = cat();
        let seq = Value::items(vec![Value::str("pear"), Value::str("apple")]);
        assert_eq!(Func::Min.apply(&[seq], &c), Ok(Value::str("apple")));
    }

    #[test]
    fn empty_and_exists() {
        let c = cat();
        let empty = Value::items(vec![]);
        let some = Value::Int(1);
        assert_eq!(
            Func::Empty.apply(std::slice::from_ref(&empty), &c),
            Ok(Value::Bool(true))
        );
        assert_eq!(Func::Exists.apply(&[empty], &c), Ok(Value::Bool(false)));
        assert_eq!(Func::Exists.apply(&[some], &c), Ok(Value::Bool(true)));
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(Func::by_name("count"), Some(Func::Count));
        assert_eq!(Func::by_name("nope"), None);
        assert!(Func::Count.is_aggregate());
        assert!(!Func::Contains.is_aggregate());
    }

    #[test]
    fn item_at_is_one_based_and_order_sensitive() {
        let c = cat();
        let seq = Value::items(vec![Value::str("a"), Value::str("b"), Value::str("c")]);
        assert_eq!(
            Func::ItemAt.apply(&[seq.clone(), Value::Int(1)], &c),
            Ok(Value::str("a"))
        );
        assert_eq!(
            Func::ItemAt.apply(&[seq.clone(), Value::Int(3)], &c),
            Ok(Value::str("c"))
        );
        // Out of range, zero, fractional, and non-numeric positions all
        // select nothing rather than erroring.
        assert_eq!(
            Func::ItemAt.apply(&[seq.clone(), Value::Int(4)], &c),
            Ok(Value::Null)
        );
        assert_eq!(
            Func::ItemAt.apply(&[seq.clone(), Value::Int(0)], &c),
            Ok(Value::Null)
        );
        assert_eq!(
            Func::ItemAt.apply(&[seq.clone(), Value::Dec(Dec(1.5))], &c),
            Ok(Value::Null)
        );
        assert_eq!(
            Func::ItemAt.apply(&[seq, Value::str("x")], &c),
            Ok(Value::Null)
        );
        // A singleton behaves as a one-item sequence.
        assert_eq!(
            Func::ItemAt.apply(&[Value::Int(7), Value::Int(1)], &c),
            Ok(Value::Int(7))
        );
        assert_eq!(Func::by_name("item-at"), Some(Func::ItemAt));
    }

    #[test]
    fn effective_boolean_values() {
        assert!(!effective_boolean(&Value::Null));
        assert!(effective_boolean(&Value::Int(2)));
        assert!(!effective_boolean(&Value::items(vec![])));
        assert!(effective_boolean(&Value::str("x")));
    }
}
