//! Typed join/group keys.
//!
//! Hash operators need `Eq + Hash` keys whose equality coincides with the
//! algebra's `=` on atomized values ([`nal::cmp_atomic`]): numbers compare
//! numerically (`Int(2)` = `Dec(2.0)`), strings as strings, NULL matches
//! nothing. Mixed numeric/string comparisons (a string column against a
//! numeric one) would need coercion against the *other* side and cannot
//! be hashed consistently — the planner only selects hash operators for
//! equi-predicates, where the paper's workloads always join
//! like-typed columns; the differential tests against the reference
//! evaluator guard the behaviour.

use nal::{Tuple, Value};
use xmldb::{Catalog, ValueKey};

/// A join/group key: one typed component ([`xmldb::ValueKey`], the
/// same key type the value indexes store, so hash buckets and index
/// probes cannot disagree on what a key is) per key attribute. The
/// single-attribute key — nearly every join and group — sits inline, so
/// extracting it allocates nothing.
///
/// A key extracted for a *probe* borrows its text from the tuple or the
/// document; only keys a hash table keeps are made `'static`
/// ([`Key::into_owned`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Key<'a> {
    /// The key of exactly one attribute.
    One(ValueKey<'a>),
    /// The key of any other number of attributes, in attribute order.
    Many(Vec<ValueKey<'a>>),
}

impl Key<'_> {
    /// The key with every component's text owned — what a hash table
    /// stores.
    pub fn into_owned(self) -> Key<'static> {
        match self {
            Key::One(k) => Key::One(k.into_owned()),
            Key::Many(ks) => Key::Many(ks.into_iter().map(ValueKey::into_owned).collect()),
        }
    }
}

/// The typed key of an attribute value (atomizing nodes): numbers
/// unify across `Int`/`Dec` with `cmp_atomic`'s edge semantics (`NaN`
/// behaves like NULL and matches nothing, `-0.0` is `0.0`), strings and
/// node string values are string keys, sequences key by their canonical
/// rendering.
pub fn key_val<'a>(v: &'a Value, catalog: &'a Catalog) -> ValueKey<'a> {
    match v {
        Value::Null => ValueKey::Null,
        Value::Bool(b) => ValueKey::Bool(*b),
        Value::Int(i) => ValueKey::num(*i as f64),
        Value::Dec(d) => ValueKey::num(d.0),
        Value::Str(_) | Value::Node(_) => {
            ValueKey::Str(v.text(catalog).expect("strings and nodes have text"))
        }
        Value::Items(_) | Value::Tuples(_) => match v.atomize(catalog) {
            seq @ (Value::Items(_) | Value::Tuples(_)) => ValueKey::Other(format!("{seq}")),
            // A one-item sequence atomizes to its item.
            atom => key_val(&atom, catalog).into_owned(),
        },
    }
}

/// Extract the composite key of `attrs` from a tuple; `None` when any
/// component is NULL or missing (such tuples match nothing).
pub fn key_of<'a>(t: &'a Tuple, attrs: &[nal::Sym], catalog: &'a Catalog) -> Option<Key<'a>> {
    let component = |a: &nal::Sym| {
        let kv = key_val(t.get(*a)?, catalog);
        kv.matchable().then_some(kv)
    };
    match attrs {
        [a] => component(a).map(Key::One),
        _ => attrs
            .iter()
            .map(component)
            .collect::<Option<_>>()
            .map(Key::Many),
    }
}

/// [`key_val`] for a key that is looked up and dropped (a hash probe,
/// the membership test before an insert): the text of a node whose
/// string value is stored in several pieces — an `<author>` with
/// `<last>` and `<first>`, a whole `<book>` — is assembled in the
/// caller's `scratch` instead of a fresh string per lookup. The flag
/// says so: whoever keeps such a key owns its text then
/// ([`Key::into_owned`]); any other borrows the value or the document
/// and can be kept as long as they live.
pub fn probe_val<'a>(
    v: &'a Value,
    catalog: &'a Catalog,
    scratch: &'a mut String,
) -> (ValueKey<'a>, bool) {
    match v {
        Value::Node(n) => {
            let (text, assembled) = catalog.doc(n.doc).string_value_in(n.node, scratch);
            (ValueKey::Str(text.into()), assembled)
        }
        _ => (key_val(v, catalog), false),
    }
}

/// [`key_of`] by [`probe_val`]. One scratch holds one text: only the
/// single-attribute key — nearly every join and group — uses it.
pub fn probe_key<'a>(
    t: &'a Tuple,
    attrs: &[nal::Sym],
    catalog: &'a Catalog,
    scratch: &'a mut String,
) -> Option<(Key<'a>, bool)> {
    match attrs {
        [a] => {
            let (kv, assembled) = probe_val(t.get(*a)?, catalog, scratch);
            kv.matchable().then_some((Key::One(kv), assembled))
        }
        _ => Some((key_of(t, attrs, catalog)?, false)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::{Dec, Sym};

    fn cat() -> Catalog {
        Catalog::new()
    }

    #[test]
    fn numeric_unification() {
        let c = cat();
        assert_eq!(
            key_val(&Value::Int(2), &c),
            key_val(&Value::Dec(Dec(2.0)), &c)
        );
        assert_ne!(
            key_val(&Value::Int(2), &c),
            key_val(&Value::str("2"), &c),
            "strings stay strings (cmp_atomic only coerces when one side is numeric)"
        );
    }

    #[test]
    fn nan_and_negative_zero_mirror_cmp_atomic() {
        let c = cat();
        // NaN keys are unmatchable, like NULL (cmp_atomic: NaN never
        // satisfies any comparison).
        assert!(!key_val(&Value::Dec(Dec(f64::NAN)), &c).matchable());
        let t = Tuple::singleton(Sym::new("a"), Value::Dec(Dec(f64::NAN)));
        assert_eq!(key_of(&t, &[Sym::new("a")], &c), None);
        // -0.0 and 0.0 are one bucket (cmp_atomic: they are equal).
        assert_eq!(
            key_val(&Value::Dec(Dec(-0.0)), &c),
            key_val(&Value::Int(0), &c)
        );
    }

    #[test]
    fn strings_and_sequences() {
        let c = cat();
        assert_eq!(key_val(&Value::str("x"), &c), ValueKey::Str("x".into()));
        // A one-item sequence keys as its item, a longer one by rendering.
        assert_eq!(
            key_val(&Value::Items(vec![Value::Int(2)].into()), &c),
            ValueKey::num(2.0)
        );
        let seq = Value::items(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(key_val(&seq, &c), ValueKey::Other("(1, 2)".into()));
    }

    #[test]
    fn probe_keys_equal_stored_keys_without_owning_text() {
        let mut c = Catalog::new();
        c.register(
            xmldb::parse_document("d.xml", "<r><a><l>Sten</l><f>Ann</f></a><t>One</t></r>")
                .unwrap(),
        );
        let doc = c.by_uri("d.xml").unwrap();
        let node = |name: &str| {
            let tree = c.doc(doc);
            let id = tree
                .descendants(xmldb::NodeId::DOCUMENT)
                .find(|&n| tree.node_name(n) == Some(name))
                .unwrap();
            Tuple::singleton(Sym::new("x"), Value::Node(nal::NodeRef { doc, node: id }))
        };
        let mut scratch = String::new();
        for name in ["a", "t"] {
            let t = node(name);
            let stored = key_of(&t, &[Sym::new("x")], &c).unwrap().into_owned();
            let (probe, assembled) = probe_key(&t, &[Sym::new("x")], &c, &mut scratch).unwrap();
            assert_eq!(probe, stored, "<{name}>");
            assert_eq!(assembled, name == "a", "<{name}>");
            assert!(
                matches!(
                    probe,
                    Key::One(ValueKey::Str(std::borrow::Cow::Borrowed(_)))
                ),
                "<{name}>: a probe key never owns its text"
            );
        }
        assert_eq!(scratch, "StenAnn", "mixed content was assembled in place");
    }

    #[test]
    fn null_is_unmatchable() {
        let c = cat();
        let t = Tuple::from_pairs(vec![
            (Sym::new("a"), Value::Int(1)),
            (Sym::new("b"), Value::Null),
        ]);
        assert!(key_of(&t, &[Sym::new("a")], &c).is_some());
        assert_eq!(key_of(&t, &[Sym::new("a"), Sym::new("b")], &c), None);
        assert_eq!(key_of(&t, &[Sym::new("missing")], &c), None);
    }

    #[test]
    fn composite_keys_compare_componentwise() {
        let c = cat();
        let t1 = Tuple::from_pairs(vec![
            (Sym::new("a"), Value::Int(1)),
            (Sym::new("b"), Value::str("x")),
        ]);
        let t2 = Tuple::from_pairs(vec![
            (Sym::new("a"), Value::Dec(Dec(1.0))),
            (Sym::new("b"), Value::str("x")),
        ]);
        let ks = [Sym::new("a"), Sym::new("b")];
        assert_eq!(key_of(&t1, &ks, &c), key_of(&t2, &ks, &c));
    }
}
