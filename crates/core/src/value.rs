//! The value domain of NAL.
//!
//! NAL works on *sequences of unordered tuples*; attribute values are
//! atomic values, XML nodes, item sequences (what XQuery expressions
//! return), or nested tuple sequences (what grouping produces). §2 of the
//! paper: "We allow nested tuples, i.e. the value of an attribute may be a
//! sequence of tuples" — and the translation additionally stores node
//! handles "pointing to nodes in trees stored in the database" instead of
//! materialized trees.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use xmldb::document::TextPieces;
use xmldb::{Catalog, DocId, Document, NodeId};

use crate::tuple::Tuple;

/// A decimal value with total ordering (wrapper over `f64` comparing by
/// IEEE total order so it can serve as a grouping key). `-0.0`
/// canonicalizes to `0.0` in equality, ordering, and hashing, so the
/// two zeros are one key point everywhere a `Dec` is used as a dedup or
/// group key — matching [`cmp_atomic`] (where they compare equal) and
/// the engine's hash/index keys. NaN stays an ordinary point of the
/// total order here (distinct-values keeps one NaN); *comparisons* with
/// NaN are the business of [`cmp_atomic`], which rejects them.
#[derive(Clone, Copy, Debug)]
pub struct Dec(pub f64);

impl Dec {
    /// The canonical key value: `-0.0` folds to `0.0`.
    #[inline]
    fn canon(self) -> f64 {
        if self.0 == 0.0 {
            0.0
        } else {
            self.0
        }
    }
}

impl PartialEq for Dec {
    fn eq(&self, other: &Dec) -> bool {
        self.canon().total_cmp(&other.canon()) == Ordering::Equal
    }
}

impl Eq for Dec {}

impl PartialOrd for Dec {
    fn partial_cmp(&self, other: &Dec) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dec {
    fn cmp(&self, other: &Dec) -> Ordering {
        self.canon().total_cmp(&other.canon())
    }
}

impl std::hash::Hash for Dec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.canon().to_bits().hash(state);
    }
}

impl fmt::Display for Dec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.fract() == 0.0 && self.0.abs() < 1e15 {
            write!(f, "{:.1}", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// A handle to a node of a catalog document.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeRef {
    /// The owning catalog document.
    pub doc: DocId,
    /// The node within it.
    pub node: NodeId,
}

/// An attribute value.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// NULL — produced by `⊥_A` (outer joins, empty unnests).
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A decimal (canonicalized `f64`).
    Dec(Dec),
    /// A string (shared).
    Str(Arc<str>),
    /// A node handle.
    Node(NodeRef),
    /// A sequence of items (an XQuery value). Single-item sequences are
    /// normalized to the item itself ("we identify single element
    /// sequences and elements", §2).
    Items(Arc<[Value]>),
    /// A sequence of tuples (a nested relation, e.g. a group).
    Tuples(Arc<[Tuple]>),
}

impl Value {
    /// A string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build an item sequence, collapsing singletons and flattening nested
    /// item sequences (XQuery sequences do not nest).
    pub fn items(mut items: Vec<Value>) -> Value {
        if items.iter().any(|v| matches!(v, Value::Items(_))) {
            let mut flat = Vec::with_capacity(items.len());
            for v in items {
                match v {
                    Value::Items(inner) => flat.extend(inner.iter().cloned()),
                    other => flat.push(other),
                }
            }
            items = flat;
        }
        if items.len() == 1 {
            items.pop().expect("len checked")
        } else {
            Value::Items(items.into())
        }
    }

    /// A nested relation value.
    pub fn tuples(ts: Vec<Tuple>) -> Value {
        Value::Tuples(ts.into())
    }

    /// View this value as a sequence of items (without atomization),
    /// borrowed: `Null` is the empty sequence, a scalar is the
    /// one-element slice of itself.
    pub fn as_items(&self) -> &[Value] {
        match self {
            Value::Null => &[],
            Value::Items(v) => v,
            other => std::slice::from_ref(other),
        }
    }

    /// Number of items when viewed as a sequence.
    pub fn item_count(&self) -> usize {
        match self {
            Value::Null => 0,
            Value::Items(v) => v.len(),
            Value::Tuples(v) => v.len(),
            _ => 1,
        }
    }

    /// `true` iff the empty sequence.
    pub fn is_empty_seq(&self) -> bool {
        self.item_count() == 0
    }

    /// Atomize: nodes become their string value, everything else is
    /// unchanged. Sequences atomize item-wise.
    pub fn atomize(&self, catalog: &Catalog) -> Value {
        self.atomize_in(catalog, &mut String::new())
    }

    /// [`Self::atomize`] for a loop of them: a node's mixed content is
    /// assembled in the caller's `scratch` on its way into the shared
    /// string, not in a string of its own.
    pub fn atomize_in(&self, catalog: &Catalog, scratch: &mut String) -> Value {
        match self {
            Value::Node(n) => Value::Str(Arc::from(
                catalog.doc(n.doc).string_value_in(n.node, scratch).0,
            )),
            Value::Items(items) => Value::items(
                items
                    .iter()
                    .map(|v| v.atomize_in(catalog, scratch))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// The text of a string or node value, for a caller that keeps or
    /// hashes it whole (the engine's join keys): borrowed from the value
    /// or the document wherever the text is stored in one piece, mixed
    /// content assembled into a fresh string. Comparisons do not go
    /// through it — [`cmp_general`] reads a node's text pieces in place.
    pub fn text<'a>(&'a self, catalog: &'a Catalog) -> Option<Cow<'a, str>> {
        match self {
            Value::Str(s) => Some(Cow::Borrowed(s)),
            Value::Node(n) => Some(catalog.doc(n.doc).string_value(n.node)),
            _ => None,
        }
    }

    /// Numeric view, if this atomic value is (or parses as) a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Dec(d) => Some(d.0),
            Value::Str(s) => s.trim().parse::<f64>().ok(),
            _ => None,
        }
    }

    /// String view of an atomic value (after atomization); borrowed
    /// when the value already is a string.
    pub fn as_str_lossy(&self) -> Cow<'_, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(s),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Dec(d) => Cow::Owned(d.to_string()),
            Value::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            Value::Null => Cow::Borrowed(""),
            other => Cow::Owned(format!("{other:?}")),
        }
    }
}

/// Comparison operators θ ∈ {=, ≤, ≥, <, >, ≠} on atomic values (§2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with operands swapped (`a θ b` ⇔ `b θ.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The complementary operator: `¬(a θ b)` ⇔ `a θ.negate() b` holds
    /// only for singleton, comparable, non-NaN atoms. Under
    /// [`cmp_general`]'s existential semantics it does not: a NULL, a
    /// NaN, an empty sequence or a non-numeric string against a number
    /// satisfies neither `θ` nor its negation, and a sequence can
    /// satisfy both (`(1, 2) = 1` and `(1, 2) != 1`). Eqv. 7, which
    /// turns `∀x p` into an anti-join on `¬p`, uses it.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// An atomized operand of a comparison or a string function. Text is
/// read where it is stored: a string stays borrowed from its value, and
/// a node stays its document and id, whose text pieces a comparison
/// walks in place — so comparing two texts allocates nothing, however
/// mixed the content. Numeric coercion and the string functions
/// assemble a node's text ([`Document::string_value`]).
pub(crate) enum Atom<'a> {
    /// A string.
    Text(Cow<'a, str>),
    /// A node: its text is [`Document::text_pieces`], concatenated.
    Node(&'a Document, NodeId),
    /// Any other atomized value; never a `Str`.
    Plain(Value),
}

impl<'a> Atom<'a> {
    pub(crate) fn of(v: &'a Value, catalog: &'a Catalog) -> Atom<'a> {
        match v {
            Value::Str(s) => Atom::Text(Cow::Borrowed(s)),
            Value::Node(n) => Atom::Node(catalog.doc(n.doc), n.node),
            _ => match v.atomize(catalog) {
                Value::Str(s) => Atom::Text(Cow::Owned(s.to_string())),
                other => Atom::Plain(other),
            },
        }
    }

    fn is_numeric(&self) -> bool {
        matches!(self, Atom::Plain(Value::Int(_) | Value::Dec(_)))
    }

    pub(crate) fn as_number(&self) -> Option<f64> {
        match self {
            Atom::Plain(v) => v.as_number(),
            text => text.as_str_lossy().trim().parse::<f64>().ok(),
        }
    }

    pub(crate) fn as_str_lossy(&self) -> Cow<'_, str> {
        match self {
            Atom::Text(s) => Cow::Borrowed(s),
            Atom::Node(doc, id) => doc.string_value(*id),
            Atom::Plain(v) => v.as_str_lossy(),
        }
    }

    /// The pieces whose concatenation is this atom's text; `None` when
    /// it is not text.
    fn text_pieces(&self) -> Option<Pieces<'_>> {
        match self {
            Atom::Text(s) => Some(Pieces::Str(Some(s))),
            Atom::Node(doc, id) => Some(Pieces::Node(doc.text_pieces(*id))),
            Atom::Plain(_) => None,
        }
    }
}

/// A text atom's pieces: a string's one, or a node's stored texts.
enum Pieces<'a> {
    Str(Option<&'a str>),
    Node(TextPieces<'a>),
}

impl<'a> Iterator for Pieces<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        match self {
            Pieces::Str(s) => s.take(),
            Pieces::Node(pieces) => pieces.next(),
        }
    }
}

/// `str::cmp` of two texts, each given as the pieces it concatenates:
/// both are walked in step, and the walk stops at the first byte that
/// differs (byte order is UTF-8's code point order, as in `str::cmp`).
fn cmp_text<'l, 'r>(
    mut l: impl Iterator<Item = &'l str>,
    mut r: impl Iterator<Item = &'r str>,
) -> Ordering {
    fn next<'s>(pieces: &mut impl Iterator<Item = &'s str>) -> &'s [u8] {
        pieces
            .find(|p| !p.is_empty())
            .unwrap_or_default()
            .as_bytes()
    }
    let (mut a, mut b): (&[u8], &[u8]) = (&[], &[]);
    loop {
        if a.is_empty() {
            a = next(&mut l);
        }
        if b.is_empty() {
            b = next(&mut r);
        }
        if a.is_empty() || b.is_empty() {
            return a.len().cmp(&b.len());
        }
        let n = a.len().min(b.len());
        match a[..n].cmp(&b[..n]) {
            Ordering::Equal => (a, b) = (&a[n..], &b[n..]),
            ord => return ord,
        }
    }
}

fn cmp_atoms(op: CmpOp, l: &Atom<'_>, r: &Atom<'_>) -> bool {
    if matches!(l, Atom::Plain(Value::Null)) || matches!(r, Atom::Plain(Value::Null)) {
        return false;
    }
    // Numeric coercion when either side is a number.
    if l.is_numeric() || r.is_numeric() {
        return match (l.as_number(), r.as_number()) {
            (Some(a), Some(b)) => a.partial_cmp(&b).is_some_and(|ord| op.test(ord)),
            _ => false,
        };
    }
    if let (Some(a), Some(b)) = (l.text_pieces(), r.text_pieces()) {
        return op.test(cmp_text(a, b));
    }
    match (l, r) {
        (Atom::Plain(Value::Bool(a)), Atom::Plain(Value::Bool(b))) => op.test(a.cmp(b)),
        // Mixed leftovers by their string forms.
        _ => op.test(l.as_str_lossy().cmp(&r.as_str_lossy())),
    }
}

/// Compare two *atomic* values (`Null` compares false against everything,
/// including itself — SQL-style, which is what outer-join padding needs).
///
/// Untyped data coming from XML is numeric-coerced when the other side is
/// numeric (`@year > 1993` works on the string `"1994"`), otherwise
/// compared as strings. Numeric comparison is IEEE: `NaN` behaves like
/// NULL and satisfies no comparison (not even `≠`), and `-0.0` equals
/// `0.0` — the semantics mirrored by the engine's hash keys and the
/// value index's ordered keys, so every access path agrees on these
/// edge points.
pub fn cmp_atomic(op: CmpOp, l: &Value, r: &Value, catalog: &Catalog) -> bool {
    cmp_atoms(op, &Atom::of(l, catalog), &Atom::of(r, catalog))
}

/// The order [`cmp_atomic`] gives two text items — strings or nodes,
/// a node's text read in place, so nothing is assembled or allocated;
/// `None` when either is not text.
pub fn cmp_text_items(l: &Value, r: &Value, catalog: &Catalog) -> Option<Ordering> {
    let text = |v: &Value| matches!(v, Value::Str(_) | Value::Node(_));
    if !(text(l) && text(r)) {
        return None;
    }
    let (l, r) = (Atom::of(l, catalog), Atom::of(r, catalog));
    Some(cmp_text(l.text_pieces()?, r.text_pieces()?))
}

/// General comparison with XQuery's existential semantics: `l op r` holds
/// iff ∃ item `a` in `l`, ∃ item `b` in `r` with `a op b` atomically
/// (§5.1: "a simple '=' has existential semantics in case either side
/// contains a sequence").
///
/// Tuple sequences contribute the values of their single attribute
/// (the `e[a]`-lifted representation of item sequences).
pub fn cmp_general(op: CmpOp, l: &Value, r: &Value, catalog: &Catalog) -> bool {
    any_leaf(l, &mut |a| {
        let a = Atom::of(a, catalog);
        any_leaf(r, &mut |b| cmp_atoms(op, &a, &Atom::of(b, catalog)))
    })
}

/// Does `found` hold for any candidate atomic item of `v`? Visits the
/// leaves of nested item and tuple sequences in order, in place.
fn any_leaf(v: &Value, found: &mut dyn FnMut(&Value) -> bool) -> bool {
    match v {
        Value::Items(items) => items.iter().any(|it| any_leaf(it, found)),
        Value::Tuples(ts) => ts.iter().any(|t| t.values().any(|it| any_leaf(it, found))),
        Value::Null => false,
        other => found(other),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Dec(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Node(n) => write!(f, "node({:?},{:?})", n.doc, n.node),
            Value::Items(items) => {
                write!(f, "(")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Tuples(ts) => {
                write!(f, "⟨")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "⟩")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.register(xmldb::parse_document("t.xml", "<a><b>42</b><b>x</b></a>").unwrap());
        c
    }

    #[test]
    fn items_collapse_singletons_and_flatten() {
        assert_eq!(Value::items(vec![Value::Int(1)]), Value::Int(1));
        let v = Value::items(vec![
            Value::Int(1),
            Value::items(vec![Value::Int(2), Value::Int(3)]),
        ]);
        assert_eq!(v.item_count(), 3);
        assert!(Value::items(vec![]).is_empty_seq());
        assert!(Value::Null.is_empty_seq());
    }

    #[test]
    fn numeric_coercion_in_comparisons() {
        let c = cat();
        assert!(cmp_atomic(
            CmpOp::Gt,
            &Value::str("1994"),
            &Value::Int(1993),
            &c
        ));
        assert!(!cmp_atomic(
            CmpOp::Gt,
            &Value::str("1990"),
            &Value::Int(1993),
            &c
        ));
        assert!(cmp_atomic(
            CmpOp::Eq,
            &Value::Dec(Dec(2.0)),
            &Value::Int(2),
            &c
        ));
        // Non-numeric string against number: false, not a panic.
        assert!(!cmp_atomic(
            CmpOp::Eq,
            &Value::str("abc"),
            &Value::Int(1),
            &c
        ));
    }

    #[test]
    fn string_comparisons() {
        let c = cat();
        assert!(cmp_atomic(
            CmpOp::Lt,
            &Value::str("abc"),
            &Value::str("abd"),
            &c
        ));
        assert!(cmp_atomic(
            CmpOp::Eq,
            &Value::str("x"),
            &Value::str("x"),
            &c
        ));
    }

    #[test]
    fn nan_behaves_like_null_in_comparisons() {
        let c = cat();
        let nan = Value::Dec(Dec(f64::NAN));
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert!(!cmp_atomic(op, &nan, &nan, &c), "NaN {} NaN", op.symbol());
            assert!(!cmp_atomic(op, &nan, &Value::Int(1), &c));
            assert!(!cmp_atomic(op, &Value::Int(1), &nan, &c));
            // Coerced too: a string that parses to NaN matches nothing.
            assert!(!cmp_atomic(op, &Value::str("NaN"), &Value::Int(1), &c));
        }
    }

    #[test]
    fn negative_zero_equals_positive_zero() {
        let c = cat();
        let nz = Value::Dec(Dec(-0.0));
        let pz = Value::Dec(Dec(0.0));
        assert!(cmp_atomic(CmpOp::Eq, &nz, &pz, &c));
        assert!(cmp_atomic(CmpOp::Le, &nz, &pz, &c));
        assert!(cmp_atomic(CmpOp::Ge, &nz, &pz, &c));
        assert!(!cmp_atomic(CmpOp::Lt, &nz, &pz, &c));
        assert!(!cmp_atomic(CmpOp::Ne, &nz, &pz, &c));
        // And through string coercion.
        assert!(cmp_atomic(CmpOp::Eq, &Value::str("-0"), &Value::Int(0), &c));
    }

    #[test]
    fn null_never_compares() {
        let c = cat();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Gt] {
            assert!(!cmp_atomic(op, &Value::Null, &Value::Null, &c));
            assert!(!cmp_atomic(op, &Value::Null, &Value::Int(1), &c));
        }
    }

    #[test]
    fn node_atomization() {
        let c = cat();
        let doc_id = c.by_uri("t.xml").unwrap();
        let doc = c.doc(doc_id);
        let root = doc.root_element().unwrap();
        let b1 = doc.children(root).next().unwrap();
        let node = Value::Node(NodeRef {
            doc: doc_id,
            node: b1,
        });
        assert_eq!(node.atomize(&c), Value::str("42"));
        assert!(cmp_atomic(CmpOp::Eq, &node, &Value::Int(42), &c));
    }

    /// `cmp_atomic` as it was before operands borrowed their text:
    /// materialize both atomized values, then compare.
    fn cmp_atomic_materialized(op: CmpOp, l: &Value, r: &Value, catalog: &Catalog) -> bool {
        let l = l.atomize(catalog);
        let r = r.atomize(catalog);
        if matches!(l, Value::Null) || matches!(r, Value::Null) {
            return false;
        }
        let numeric = |v: &Value| matches!(v, Value::Int(_) | Value::Dec(_));
        if numeric(&l) || numeric(&r) {
            return match (l.as_number(), r.as_number()) {
                (Some(a), Some(b)) => a.partial_cmp(&b).is_some_and(|ord| op.test(ord)),
                _ => false,
            };
        }
        match (&l, &r) {
            (Value::Bool(a), Value::Bool(b)) => op.test(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => op.test(a.as_ref().cmp(b.as_ref())),
            _ => op.test(l.as_str_lossy().cmp(&r.as_str_lossy())),
        }
    }

    #[test]
    fn borrowed_comparison_equals_materialized_comparison() {
        let mut c = Catalog::new();
        let id = c.register(
            xmldb::parse_document(
                "m.xml",
                r#"<a k="42"><b>42</b><b>x</b><m>4<i>2</i></m><e/></a>"#,
            )
            .unwrap(),
        );
        let doc = c.doc(id);
        let mut pool: Vec<Value> = doc
            .subtree_nodes(NodeId::DOCUMENT)
            .into_iter()
            .map(|node| Value::Node(NodeRef { doc: id, node }))
            .collect();
        pool.extend([
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(42),
            Value::Int(0),
            Value::Dec(Dec(42.0)),
            Value::Dec(Dec(-0.0)),
            Value::Dec(Dec(f64::NAN)),
            Value::str("42"),
            Value::str(" 42 "),
            Value::str("x"),
            Value::str("true"),
            Value::str(""),
            Value::str("NaN"),
            Value::Items(vec![].into()),
            Value::Items(vec![Value::str("x")].into()),
            Value::Items(vec![pool[2].clone()].into()),
            Value::items(vec![Value::Int(1), Value::str("x")]),
            Value::tuples(vec![Tuple::singleton(
                crate::sym::Sym::new("x"),
                Value::Int(1),
            )]),
        ]);
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for l in &pool {
            for r in &pool {
                for op in ops {
                    assert_eq!(
                        cmp_atomic(op, l, r, &c),
                        cmp_atomic_materialized(op, l, r, &c),
                        "{l} {} {r}",
                        op.symbol()
                    );
                }
            }
        }
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// `s` cut at char positions (each taken modulo the number of char
    /// boundaries, so a repeated cut makes an empty piece), in order.
    fn cut_at_chars<'s>(s: &'s str, cuts: &[usize]) -> Vec<&'s str> {
        let bounds: Vec<usize> = s.char_indices().map(|(i, _)| i).chain([s.len()]).collect();
        let mut at: Vec<usize> = cuts.iter().map(|c| bounds[c % bounds.len()]).collect();
        at.sort_unstable();
        let (mut pieces, mut from) = (Vec::new(), 0);
        for to in at {
            pieces.push(&s[from..to]);
            from = to;
        }
        pieces.push(&s[from..]);
        pieces
    }

    /// One to four UTF-8 bytes each; `é`/`ê` differ in their second byte.
    const CHARS: [&str; 8] = ["a", "b", "é", "ê", "€", "😀", "\u{7f}", "\u{80}"];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// The oracle is `str::cmp` of the concatenations; `r` shares a
        /// prefix of `l`, so walks often run deep before they differ.
        #[test]
        fn piecewise_order_is_the_order_of_the_concatenations(
            l in proptest::prop::collection::vec(proptest::prop::sample::select(CHARS.to_vec()), 0..10),
            shared in 0usize..11,
            tail in proptest::prop::collection::vec(proptest::prop::sample::select(CHARS.to_vec()), 0..4),
            cuts in (
                proptest::prop::collection::vec(0usize..16, 0..5),
                proptest::prop::collection::vec(0usize..16, 0..5),
            ),
        ) {
            let l = l.concat();
            let r: String = l.chars().take(shared).chain(tail.concat().chars()).collect();
            let (lp, rp) = (cut_at_chars(&l, &cuts.0), cut_at_chars(&r, &cuts.1));
            proptest::prop_assert_eq!(lp.concat(), l.clone());
            proptest::prop_assert_eq!(rp.concat(), r.clone());
            proptest::prop_assert_eq!(cmp_text(lp.into_iter(), rp.into_iter()), l.cmp(&r));
        }
    }

    /// Every comparison among the nodes of a small `bib.xml`, of a
    /// document with empty elements and UTF-8 spread over text nodes,
    /// and of a few strings, against `str::cmp` of the assembled string
    /// values; a mixed-content node against numbers, against the
    /// numeric parse of its assembled text.
    #[test]
    fn node_comparisons_agree_with_assembled_string_values() {
        let mut c = Catalog::new();
        let bib = c.register(xmldb::gen::gen_bib(&xmldb::gen::BibConfig {
            books: 3,
            ..Default::default()
        }));
        let utf = c.register(
            xmldb::parse_document(
                "u.xml",
                "<r><e/><s>h<i>é</i>€<i/>😀</s><t>hé€😀</t><u>h<i>ê</i></u><v>hé</v><e></e></r>",
            )
            .unwrap(),
        );
        let p = c.register(xmldb::parse_document("p.xml", "<p><a>1</a><b>2</b></p>").unwrap());
        let assembled = |v: &Value| match v {
            Value::Node(n) => c.doc(n.doc).string_value(n.node).into_owned(),
            Value::Str(s) => s.to_string(),
            other => panic!("not text: {other}"),
        };
        for doc in [bib, utf] {
            let mut pool: Vec<Value> = c
                .doc(doc)
                .subtree_nodes(NodeId::DOCUMENT)
                .into_iter()
                .map(|node| Value::Node(NodeRef { doc, node }))
                .collect();
            pool.extend(["", "h", "hé€😀", "hê"].map(Value::str));
            for l in &pool {
                for r in &pool {
                    let order = assembled(l).cmp(&assembled(r));
                    for op in OPS {
                        assert_eq!(
                            cmp_atomic(op, l, r, &c),
                            op.test(order),
                            "{:?} {} {:?}",
                            assembled(l),
                            op.symbol(),
                            assembled(r)
                        );
                    }
                }
            }
        }
        let root = c.doc(p).root_element().unwrap();
        let node = Value::Node(NodeRef { doc: p, node: root });
        let text = assembled(&node);
        assert_eq!(text, "12");
        let number: f64 = text.parse().unwrap();
        for n in [11, 12, 13] {
            for op in OPS {
                let want = number.partial_cmp(&(n as f64)).is_some_and(|o| op.test(o));
                assert_eq!(
                    cmp_atomic(op, &node, &Value::Int(n), &c),
                    want,
                    "12 {op:?} {n}"
                );
                let flipped = cmp_atomic(op.flip(), &Value::Int(n), &node, &c);
                assert_eq!(flipped, want, "{n} {op:?} 12");
            }
        }
    }

    #[test]
    fn general_comparison_is_existential() {
        let c = cat();
        let seq = Value::items(vec![Value::str("a"), Value::str("b"), Value::str("c")]);
        assert!(cmp_general(CmpOp::Eq, &Value::str("b"), &seq, &c));
        assert!(!cmp_general(CmpOp::Eq, &Value::str("z"), &seq, &c));
        // empty sequence: no pair exists
        assert!(!cmp_general(CmpOp::Eq, &Value::items(vec![]), &seq, &c));
        // seq-to-seq
        let seq2 = Value::items(vec![Value::str("c"), Value::str("d")]);
        assert!(cmp_general(CmpOp::Eq, &seq, &seq2, &c));
        assert!(
            cmp_general(CmpOp::Ne, &seq, &seq, &c),
            "∃ a≠b in the same sequence"
        );
    }

    #[test]
    fn general_comparison_sees_into_tuples() {
        let c = cat();
        let t1 = Tuple::from_pairs(vec![(crate::sym::Sym::new("x"), Value::str("u"))]);
        let t2 = Tuple::from_pairs(vec![(crate::sym::Sym::new("x"), Value::str("v"))]);
        let rel = Value::tuples(vec![t1, t2]);
        assert!(cmp_general(CmpOp::Eq, &Value::str("v"), &rel, &c));
        assert!(!cmp_general(CmpOp::Eq, &Value::str("w"), &rel, &c));
    }

    #[test]
    fn cmp_op_algebra() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        assert_eq!(CmpOp::Eq.negate(), CmpOp::Ne);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn dec_total_order_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Dec(Dec(1.5)));
        assert!(set.contains(&Value::Dec(Dec(1.5))));
        assert!(Dec(1.0) < Dec(2.0));
        assert_eq!(Dec(13.0).to_string(), "13.0");
        // The two zeros are one key point: equal, same hash bucket, and
        // neither orders below the other — so dedup/group keys agree
        // with cmp_atomic and the engine's hash/index keys.
        assert_eq!(Dec(-0.0), Dec(0.0));
        assert!(set.insert(Value::Dec(Dec(-0.0))));
        assert!(set.contains(&Value::Dec(Dec(0.0))));
        assert_eq!(Dec(-0.0).cmp(&Dec(0.0)), std::cmp::Ordering::Equal);
        // NaN stays a single, self-equal point of the dedup order.
        assert_eq!(Dec(f64::NAN), Dec(f64::NAN));
    }
}
