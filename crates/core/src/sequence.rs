//! Ordered sequences of tuples and the `e[a]` lifting (§2).

use std::sync::Arc;

use crate::sym::Sym;
use crate::tuple::Tuple;
use crate::value::Value;

/// An ordered sequence of tuples — the carrier of every NAL operator.
pub type Seq = Vec<Tuple>;

/// `e[a]`: lift a sequence of non-tuple values into a sequence of tuples
/// with the single attribute `a` (§2: "we construct from a sequence of
/// non-tuple values e a sequence of tuples denoted by e\[a\]").
pub fn lift_items(value: &Value, a: Sym) -> Arc<[Tuple]> {
    value
        .as_items()
        .iter()
        .map(|v| Tuple::singleton(a, v.clone()))
        .collect()
}

/// The inverse view: collect attribute `a` of each tuple into an item
/// sequence (flattening nested item sequences, skipping absent values).
pub fn collect_items(seq: &[Tuple], a: Sym) -> Value {
    let mut out = Vec::with_capacity(seq.len());
    for t in seq {
        if let Some(v) = t.get(a) {
            match v {
                Value::Items(items) => out.extend(items.iter().cloned()),
                Value::Null => {}
                other => out.push(other.clone()),
            }
        }
    }
    Value::Items(out.into())
}

/// Duplicate elimination preserving first occurrence. This is the
/// deterministic, idempotent order policy we fix for the paper's `Π^D`
/// (§2 requires determinism and idempotence but not order preservation;
/// first-occurrence order additionally makes plans comparable
/// output-for-output).
pub fn dedup_first_occurrence<T: Clone + Eq + std::hash::Hash>(items: &[T]) -> Vec<T> {
    let mut seen = std::collections::HashSet::with_capacity(items.len());
    let mut out = Vec::with_capacity(items.len());
    for it in items {
        if seen.insert(it.clone()) {
            out.push(it.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lift_and_collect_roundtrip() {
        let a = Sym::new("a");
        let v = Value::items(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let seq = lift_items(&v, a);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq[0].get(a), Some(&Value::Int(1)));
        assert_eq!(
            collect_items(&seq, a),
            Value::Items(vec![Value::Int(1), Value::Int(2), Value::Int(3)].into())
        );
    }

    #[test]
    fn lift_singleton_and_empty() {
        let a = Sym::new("a");
        assert_eq!(lift_items(&Value::Int(7), a).len(), 1);
        assert!(lift_items(&Value::items(vec![]), a).is_empty());
        assert!(lift_items(&Value::Null, a).is_empty());
    }

    #[test]
    fn dedup_keeps_first_occurrence_order() {
        let v = vec![3, 1, 3, 2, 1, 4];
        assert_eq!(dedup_first_occurrence(&v), vec![3, 1, 2, 4]);
        // idempotent
        assert_eq!(
            dedup_first_occurrence(&dedup_first_occurrence(&v)),
            dedup_first_occurrence(&v)
        );
    }
}
