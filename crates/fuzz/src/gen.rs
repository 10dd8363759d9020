//! Random query generation over the translatable XQuery subset.
//!
//! The generator builds a small structured model ([`GenQuery`]) and
//! renders it to query *text* that `xquery::compile` accepts — the same
//! front door the service uses — covering the ordered-context corners
//! the paper's rewrites must preserve:
//!
//! * nested Υ chains (`for $b1 in $b0/g`, `$b1 in $b0//k`) to
//!   configurable depth,
//! * `some`/`every` quantifiers with randomized (in)equality conjuncts,
//!   including **vacuous** ranges (`//zz` matches nothing) and the three
//!   inequality shapes the engine's θ-probe treats differently:
//!   *uncorrelated* (`every $q in R satisfies $q > c` — the predicate
//!   never mentions the outer tuple), *mixed* (`$q > c and $q < $outer`)
//!   and *banded* (`$q > lo and $q <= hi`); some ranges filter their
//!   entries by arithmetic (`//e[@id mod 2 = 1]/k`), which the engine
//!   must drain before deciding, the others it pulls only as far as the
//!   decision,
//! * `exists(FLWR)` subqueries with composite key lists, band
//!   predicates, and deep-ancestor bindings (the Q9/Q10 shapes),
//! * `count(...)` having-style predicates,
//! * positional subscripts via `item-at` (order-observable by value),
//! * shadowed binder names in nested blocks (alpha-renaming stress).
//!
//! Rendering is deliberately hand-rolled rather than going through
//! [`xquery`]'s AST `Display`: step predicates need bare relative paths
//! (`[k = $b0]`), which the AST prints as context-variable paths that
//! do not re-parse. Every rendered query is validated by the generator
//! test suite: it must parse, normalize, and translate.

use nal::{ArithOp, CmpOp};
use rand::rngs::StdRng;
use rand::Rng;

use crate::corpus::{pool_value, Corpus};

/// A document-anchored path over the corpus vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DocPath {
    /// `//e` — the entry nodes.
    Entries,
    /// `//e/k` — entry keys (multi-valued on some entries).
    EntryKeys,
    /// `//e/n` — entry numbers.
    EntryNums,
    /// `//e/v` — entry values.
    EntryVals,
    /// `//k` — *all* keys, including the nested `g/k` ones.
    DeepKeys,
    /// `//g/k` — only the nested group keys.
    GroupKeys,
    /// `//zz` — matches nothing (vacuous quantifier ranges).
    Vacuous,
}

impl DocPath {
    /// Path text, to be appended to a `$dN` variable.
    pub fn render(self) -> &'static str {
        match self {
            DocPath::Entries => "//e",
            DocPath::EntryKeys => "//e/k",
            DocPath::EntryNums => "//e/n",
            DocPath::EntryVals => "//e/v",
            DocPath::DeepKeys => "//k",
            DocPath::GroupKeys => "//g/k",
            DocPath::Vacuous => "//zz",
        }
    }

    fn random(rng: &mut StdRng) -> DocPath {
        match rng.gen_range(0u32..20) {
            0..=5 => DocPath::Entries,
            6..=10 => DocPath::EntryKeys,
            11..=13 => DocPath::EntryNums,
            14..=15 => DocPath::EntryVals,
            16..=17 => DocPath::DeepKeys,
            18 => DocPath::GroupKeys,
            _ => DocPath::Vacuous,
        }
    }

    fn random_leaf(rng: &mut StdRng) -> DocPath {
        match rng.gen_range(0u32..10) {
            0..=3 => DocPath::EntryKeys,
            4..=5 => DocPath::EntryNums,
            6 => DocPath::EntryVals,
            7 => DocPath::DeepKeys,
            8 => DocPath::GroupKeys,
            _ => DocPath::Vacuous,
        }
    }
}

/// A path relative to an entry-like node binder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelPath {
    /// `/k`
    Key,
    /// `/v`
    Val,
    /// `/n`
    Num,
    /// `/@id`
    IdAttr,
    /// `//k` — own and nested keys.
    DeepKey,
    /// `/g/k` — nested group keys only.
    GroupKey,
}

impl RelPath {
    /// Path text, to be appended to a `$bN` variable.
    pub fn render(self) -> &'static str {
        match self {
            RelPath::Key => "/k",
            RelPath::Val => "/v",
            RelPath::Num => "/n",
            RelPath::IdAttr => "/@id",
            RelPath::DeepKey => "//k",
            RelPath::GroupKey => "/g/k",
        }
    }

    fn random(rng: &mut StdRng) -> RelPath {
        match rng.gen_range(0u32..10) {
            0..=3 => RelPath::Key,
            4 => RelPath::Val,
            5..=6 => RelPath::Num,
            7 => RelPath::IdAttr,
            8 => RelPath::DeepKey,
            _ => RelPath::GroupKey,
        }
    }
}

/// Relative range of a chained (nested Υ) binder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelBind {
    /// `$bN in $bBASE/g` — the nested groups.
    Groups,
    /// `$bN in $bBASE//k` — all keys below the base.
    DeepKs,
}

/// Source of one `for` binder.
#[derive(Clone, Debug, PartialEq)]
pub enum BindSrc {
    /// `for $bN in $dDOC<path>`
    Doc {
        /// Corpus document index.
        doc: usize,
        /// Anchored path.
        path: DocPath,
    },
    /// `for $bN in $bBASE<rel>` — a nested Υ chain link.
    Rel {
        /// Index of the base binder (must allow paths).
        base: usize,
        /// Relative range.
        rel: RelBind,
    },
    /// `for $bN in distinct-values($dDOC<path>)` — an *item* binder;
    /// no paths may be taken off it.
    Distinct {
        /// Corpus document index.
        doc: usize,
        /// Anchored path.
        path: DocPath,
    },
}

/// One `for` binder.
#[derive(Clone, Debug, PartialEq)]
pub struct Binder {
    /// Where the binder ranges.
    pub src: BindSrc,
}

impl Binder {
    /// May operands take relative paths off this binder? (`Distinct`
    /// binds string items, not nodes.)
    pub fn allows_paths(&self) -> bool {
        !matches!(self.src, BindSrc::Distinct { .. })
    }
}

/// `let $pK := item-at($dDOC<path>, index)` — a positional subscript
/// binding. `item-at` answers by *sequence order*, so any upstream
/// order violation becomes a visible value difference.
#[derive(Clone, Debug, PartialEq)]
pub struct PosLet {
    /// Corpus document index.
    pub doc: usize,
    /// Anchored path supplying the sequence.
    pub path: DocPath,
    /// 1-based position (may be out of range — then the let is empty).
    pub index: i64,
}

/// A comparison operand.
#[derive(Clone, Debug, PartialEq)]
pub enum Operand {
    /// `$bN` or `$bN<rel>`.
    Field {
        /// Binder index.
        binder: usize,
        /// Optional relative path (only on path-allowing binders).
        path: Option<RelPath>,
    },
    /// `$pK` — a positional let.
    Pos(usize),
    /// String literal from the value pool.
    Str(String),
    /// Numeric literal, rendered bare (the parser has no unary minus,
    /// so these are non-negative; negative/NaN values live in the
    /// *corpus*, not in query text).
    Num(String),
}

/// Field selector inside an `exists` block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExistsField {
    /// `$x<rel>` — path off the inner entry binder.
    Entry(RelPath),
    /// `$y` — the deep `//k` binder itself (requires `deep`).
    DeepVar,
}

/// A filter on the entries a quantifier ranges under, rendered as a
/// step predicate `//e[@id ⊕ k θ n]`. Arithmetic is not
/// [`nal::Scalar::replay_safe`], so such a range is drained before the
/// quantifier decides (as the reference evaluates it) where an
/// unfiltered one is pulled only as far as the decision. Every entry's
/// `@id` is a number, so the filter never errors: an erroring range
/// would also tell the unnesting rewrites apart, which evaluate a
/// range the nested plan may never reach (an empty outer relation).
#[derive(Clone, Debug, PartialEq)]
pub struct RangeFilter {
    /// The arithmetic applied to `@id`.
    pub arith: ArithOp,
    /// Its numeric operand, rendered bare.
    pub by: String,
    /// The comparison against the bound.
    pub op: CmpOp,
    /// Numeric bound, rendered bare.
    pub bound: String,
}

/// One generated `where` conjunct.
#[derive(Clone, Debug, PartialEq)]
pub enum Pred {
    /// `L op R`.
    Cmp {
        /// Left operand.
        l: Operand,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        r: Operand,
    },
    /// `some|every $q in $dDOC<path> satisfies ($q op X [and $q op Y])`.
    Quant {
        /// `every` instead of `some`.
        universal: bool,
        /// Corpus document index of the range.
        doc: usize,
        /// Range over `doc("uri")<path>` instead of the outer `$dDOC`
        /// let: only a range free of outer variables lets Eqv. 6/7
        /// unnest the quantifier into a semi/anti join.
        inline: bool,
        /// Range path (may be [`DocPath::Vacuous`]).
        path: DocPath,
        /// A filter on the path's `//e` step (only paths that have one).
        filter: Option<RangeFilter>,
        /// Satisfies conjuncts, each comparing `$q` against an operand.
        cmps: Vec<(CmpOp, Operand)>,
    },
    /// `exists(let $xd := doc(…) for $x in $xd//e [, $y in $x//k]
    /// where keys… [and ineq] return $x)`.
    Exists {
        /// Corpus document index of the subquery.
        doc: usize,
        /// Add the deep `$y in $x//k` binder (the Q10 shape).
        deep: bool,
        /// Equality key conjuncts (2+ ⇒ composite key list).
        keys: Vec<(ExistsField, Operand)>,
        /// Optional band/range conjunct.
        ineq: Option<(ExistsField, CmpOp, Operand)>,
        /// Name the inner entry binder after outer binder `bN`
        /// (shadowing stress for the normalizer's scopes).
        shadow: Option<usize>,
    },
    /// `count($dDOC//e[k = KEY]) op N` — the having shape (Q6).
    CountCmp {
        /// Corpus document index.
        doc: usize,
        /// The key operand inside the step predicate.
        key: Operand,
        /// Comparison against the count.
        op: CmpOp,
        /// The count bound.
        n: i64,
    },
}

/// The return element: `<r [a="{attr}"]>{ part }…</r>`.
#[derive(Clone, Debug, PartialEq)]
pub struct Ret {
    /// Optional attribute content.
    pub attr: Option<Operand>,
    /// Element content parts (at least one).
    pub parts: Vec<Operand>,
}

/// A complete generated query.
#[derive(Clone, Debug, PartialEq)]
pub struct GenQuery {
    /// The `for` binders, in clause order.
    pub binders: Vec<Binder>,
    /// Positional subscript lets.
    pub pos_lets: Vec<PosLet>,
    /// `where` conjuncts (rendered parenthesized, joined by `and`).
    pub preds: Vec<Pred>,
    /// The return constructor.
    pub ret: Ret,
}

/// Generation limits.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Maximum `for` binders (Υ chain depth).
    pub max_binders: usize,
    /// Maximum `where` conjuncts.
    pub max_preds: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_binders: 4,
            max_preds: 3,
        }
    }
}

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const INEQ_OPS: [CmpOp; 4] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
const NUM_LITS: [&str; 8] = ["0", "1", "2", "3", "5", "10", "3.5", "0.0"];

fn random_op(rng: &mut StdRng) -> CmpOp {
    CMP_OPS[rng.gen_range(0..CMP_OPS.len())]
}

fn random_ineq(rng: &mut StdRng) -> CmpOp {
    INEQ_OPS[rng.gen_range(0..INEQ_OPS.len())]
}

fn random_num(rng: &mut StdRng) -> Operand {
    Operand::Num(NUM_LITS[rng.gen_range(0..NUM_LITS.len())].to_string())
}

impl GenQuery {
    /// Generate a random query against `corpus`.
    pub fn random(rng: &mut StdRng, corpus: &Corpus, cfg: &GenConfig) -> GenQuery {
        let ndocs = corpus.docs.len();
        let mut binders = Vec::new();
        let nbind = rng.gen_range(1..=cfg.max_binders.max(1));
        // Doc-rooted (and distinct) binders each multiply the tuple
        // stream by a whole posting list; chained (`Rel`) binders only
        // fan out within one entry. Cap the wide ones so a 4-binder
        // query cannot cross-product its way to millions of matrix
        // tuples.
        let mut wide = 0usize;
        const MAX_WIDE: usize = 2;
        for i in 0..nbind {
            let path_bases: Vec<usize> = (0..binders.len())
                .filter(|&b| Binder::allows_paths(&binders[b]))
                .collect();
            let want_rel =
                i > 0 && !path_bases.is_empty() && (wide >= MAX_WIDE || rng.gen_bool(0.4));
            let src = if want_rel {
                let base = path_bases[rng.gen_range(0..path_bases.len())];
                let rel = if rng.gen_bool(0.5) {
                    RelBind::Groups
                } else {
                    RelBind::DeepKs
                };
                BindSrc::Rel { base, rel }
            } else if wide >= MAX_WIDE {
                // No chainable base and the wide budget is spent: stop
                // adding binders.
                break;
            } else if rng.gen_bool(0.2) {
                wide += 1;
                BindSrc::Distinct {
                    doc: rng.gen_range(0..ndocs),
                    path: DocPath::random_leaf(rng),
                }
            } else {
                let path = if i == 0 {
                    // The driving binder ranges over entries so chained
                    // binders and field operands have something to
                    // stand on.
                    DocPath::Entries
                } else {
                    DocPath::random(rng)
                };
                wide += 1;
                BindSrc::Doc {
                    doc: rng.gen_range(0..ndocs),
                    path,
                }
            };
            binders.push(Binder { src });
        }

        let npos = rng.gen_range(0usize..=2);
        let pos_lets = (0..npos)
            .map(|_| PosLet {
                doc: rng.gen_range(0..ndocs),
                path: DocPath::random_leaf(rng),
                index: rng.gen_range(1i64..=5),
            })
            .collect::<Vec<_>>();

        let mut q = GenQuery {
            binders,
            pos_lets,
            preds: Vec::new(),
            ret: Ret {
                attr: None,
                parts: Vec::new(),
            },
        };

        let npred = rng.gen_range(0..=cfg.max_preds);
        for _ in 0..npred {
            let p = q.random_pred(rng, ndocs);
            q.preds.push(p);
        }

        let attr = rng.gen_bool(0.3).then(|| q.random_operand(rng, true));
        let n = rng.gen_range(1usize..=2);
        let parts = (0..n)
            .map(|i| {
                if i == 0 && rng.gen_bool(0.7) {
                    // Prefer returning the last binder — keeps most
                    // results non-degenerate.
                    q.field_of(rng, q.binders.len() - 1)
                } else {
                    q.random_operand(rng, true)
                }
            })
            .collect();
        q.ret = Ret { attr, parts };
        q
    }

    /// `$bN` or `$bN<rel>` for binder `i`.
    fn field_of(&self, rng: &mut StdRng, i: usize) -> Operand {
        let path =
            (self.binders[i].allows_paths() && rng.gen_bool(0.6)).then(|| RelPath::random(rng));
        Operand::Field { binder: i, path }
    }

    fn random_operand(&self, rng: &mut StdRng, allow_pos: bool) -> Operand {
        let roll = rng.gen_range(0u32..100);
        if roll < 50 {
            let i = rng.gen_range(0..self.binders.len());
            self.field_of(rng, i)
        } else if roll < 65 && allow_pos && !self.pos_lets.is_empty() {
            Operand::Pos(rng.gen_range(0..self.pos_lets.len()))
        } else if roll < 85 {
            Operand::Str(pool_value(rng))
        } else {
            random_num(rng)
        }
    }

    fn random_pred(&self, rng: &mut StdRng, ndocs: usize) -> Pred {
        match rng.gen_range(0u32..100) {
            0..=34 => Pred::Cmp {
                l: self.random_operand(rng, true),
                op: random_op(rng),
                r: self.random_operand(rng, true),
            },
            35..=59 => {
                let constant = |rng: &mut StdRng| {
                    if rng.gen_bool(0.5) {
                        random_num(rng)
                    } else {
                        Operand::Str(pool_value(rng))
                    }
                };
                let outer = |rng: &mut StdRng| {
                    let i = rng.gen_range(0..self.binders.len());
                    self.field_of(rng, i)
                };
                let cmps = match rng.gen_range(0u32..6) {
                    // Uncorrelated: decided without the outer tuple.
                    0 => vec![(random_ineq(rng), constant(rng))],
                    // Mixed: one conjunct per side of the split.
                    1 => vec![
                        (random_ineq(rng), constant(rng)),
                        (random_ineq(rng), outer(rng)),
                    ],
                    // Banded: a lower and an upper bound on `$q`.
                    2 => {
                        let lower = [CmpOp::Gt, CmpOp::Ge][rng.gen_range(0..2)];
                        let upper = [CmpOp::Lt, CmpOp::Le][rng.gen_range(0..2)];
                        let (lo, hi) = if rng.gen_bool(0.5) {
                            (outer(rng), outer(rng))
                        } else {
                            (outer(rng), constant(rng))
                        };
                        vec![(lower, lo), (upper, hi)]
                    }
                    _ => (0..rng.gen_range(1usize..=2))
                        .map(|_| (random_op(rng), self.random_operand(rng, true)))
                        .collect(),
                };
                Pred::Quant {
                    universal: rng.gen_bool(0.4),
                    doc: rng.gen_range(0..ndocs),
                    inline: rng.gen_bool(0.6),
                    path: DocPath::random(rng),
                    filter: None,
                    cmps,
                }
            }
            60..=89 => {
                let deep = rng.gen_bool(0.3);
                let nkeys = rng.gen_range(1usize..=2);
                let key_field = |rng: &mut StdRng| {
                    if deep && rng.gen_bool(0.5) {
                        ExistsField::DeepVar
                    } else {
                        ExistsField::Entry(RelPath::random(rng))
                    }
                };
                Pred::Exists {
                    doc: rng.gen_range(0..ndocs),
                    deep,
                    keys: (0..nkeys)
                        .map(|_| (key_field(rng), self.random_operand(rng, true)))
                        .collect(),
                    ineq: rng.gen_bool(0.4).then(|| {
                        (
                            ExistsField::Entry(if rng.gen_bool(0.5) {
                                RelPath::Num
                            } else {
                                RelPath::IdAttr
                            }),
                            random_ineq(rng),
                            random_num(rng),
                        )
                    }),
                    shadow: (rng.gen_bool(0.25)).then(|| rng.gen_range(0..self.binders.len())),
                }
            }
            _ => Pred::CountCmp {
                doc: rng.gen_range(0..ndocs),
                key: self.random_operand(rng, false),
                op: [CmpOp::Ge, CmpOp::Gt, CmpOp::Eq, CmpOp::Le][rng.gen_range(0..4)],
                n: rng.gen_range(0i64..=3),
            },
        }
    }

    /// Give some quantifier ranges over entries a [`RangeFilter`].
    /// [`crate::oracle::GenCase::random`] draws these after the rest of
    /// the case, so the filters leave every other choice a seed makes as
    /// it would be without them.
    pub fn filter_ranges(&mut self, rng: &mut StdRng) {
        for p in &mut self.preds {
            if let Pred::Quant { path, filter, .. } = p {
                if path.render().starts_with("//e") && rng.gen_bool(0.3) {
                    const ARITH: [ArithOp; 5] = [
                        ArithOp::Add,
                        ArithOp::Sub,
                        ArithOp::Mul,
                        ArithOp::Div,
                        ArithOp::Mod,
                    ];
                    let mut num = || NUM_LITS[rng.gen_range(0..NUM_LITS.len())].to_string();
                    let (by, bound) = (num(), num());
                    *filter = Some(RangeFilter {
                        arith: ARITH[rng.gen_range(0..ARITH.len())],
                        by,
                        op: random_op(rng),
                        bound,
                    });
                }
            }
        }
    }

    /// Number of top-level `for` binders (the shrink target the
    /// acceptance criteria bound).
    pub fn binder_count(&self) -> usize {
        self.binders.len()
    }

    /// Corpus documents the rendered query will reference, in index
    /// order.
    pub fn used_docs(&self) -> Vec<usize> {
        let mut used = Vec::new();
        let mut mark = |d: usize| {
            if !used.contains(&d) {
                used.push(d);
            }
        };
        for b in &self.binders {
            match b.src {
                BindSrc::Doc { doc, .. } | BindSrc::Distinct { doc, .. } => mark(doc),
                BindSrc::Rel { .. } => {}
            }
        }
        for p in &self.pos_lets {
            mark(p.doc);
        }
        for p in &self.preds {
            match p {
                Pred::Quant { doc, .. } | Pred::Exists { doc, .. } | Pred::CountCmp { doc, .. } => {
                    mark(*doc)
                }
                Pred::Cmp { .. } => {}
            }
        }
        used.sort_unstable();
        used
    }

    /// Render with the standard naming scheme.
    pub fn render(&self, corpus: &Corpus) -> String {
        self.render_with(corpus, &Names::standard())
    }

    /// Render with every binder alpha-renamed (same structure, fresh
    /// names) — for the fingerprint alpha-equivalence test.
    pub fn render_renamed(&self, corpus: &Corpus) -> String {
        self.render_with(corpus, &Names::renamed())
    }

    fn render_with(&self, corpus: &Corpus, nm: &Names) -> String {
        let mut s = String::new();
        for &d in &self.used_docs() {
            s.push_str(&format!(
                "let {} := doc(\"{}\")\n",
                nm.doc(d),
                corpus.docs[d].uri
            ));
        }
        for (i, p) in self.pos_lets.iter().enumerate() {
            s.push_str(&format!(
                "let {} := item-at({}{}, {})\n",
                nm.pos(i),
                nm.doc(p.doc),
                p.path.render(),
                p.index
            ));
        }
        s.push_str("for ");
        for (i, b) in self.binders.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n    ");
            }
            let range = match &b.src {
                BindSrc::Doc { doc, path } => format!("{}{}", nm.doc(*doc), path.render()),
                BindSrc::Rel { base, rel } => {
                    let tail = match rel {
                        RelBind::Groups => "/g",
                        RelBind::DeepKs => "//k",
                    };
                    format!("{}{}", nm.binder(*base), tail)
                }
                BindSrc::Distinct { doc, path } => {
                    format!("distinct-values({}{})", nm.doc(*doc), path.render())
                }
            };
            s.push_str(&format!("{} in {}", nm.binder(i), range));
        }
        s.push('\n');
        if !self.preds.is_empty() {
            s.push_str("where ");
            for (i, p) in self.preds.iter().enumerate() {
                if i > 0 {
                    s.push_str("\n  and ");
                }
                s.push_str(&self.render_pred(p, i, corpus, nm));
            }
            s.push('\n');
        }
        s.push_str("return <r");
        if let Some(a) = &self.ret.attr {
            s.push_str(&format!(" a=\"{{ {} }}\"", self.render_operand(a, nm)));
        }
        s.push('>');
        for part in &self.ret.parts {
            s.push_str(&format!("{{ {} }}", self.render_operand(part, nm)));
        }
        s.push_str("</r>");
        s
    }

    fn render_operand(&self, o: &Operand, nm: &Names) -> String {
        match o {
            Operand::Field { binder, path } => match path {
                Some(p) => format!("{}{}", nm.binder(*binder), p.render()),
                None => nm.binder(*binder),
            },
            Operand::Pos(i) => nm.pos(*i),
            Operand::Str(v) => format!("\"{v}\""),
            Operand::Num(v) => v.clone(),
        }
    }

    fn render_pred(&self, p: &Pred, idx: usize, corpus: &Corpus, nm: &Names) -> String {
        match p {
            Pred::Cmp { l, op, r } => format!(
                "({} {} {})",
                self.render_operand(l, nm),
                cmp_kw(*op),
                self.render_operand(r, nm)
            ),
            Pred::Quant {
                universal,
                doc,
                inline,
                path,
                filter,
                cmps,
            } => {
                let var = nm.quant(idx);
                let range = if *inline {
                    format!("doc(\"{}\")", corpus.docs[*doc].uri)
                } else {
                    nm.doc(*doc)
                };
                let body = cmps
                    .iter()
                    .map(|(op, o)| format!("{var} {} {}", cmp_kw(*op), self.render_operand(o, nm)))
                    .collect::<Vec<_>>()
                    .join(" and ");
                let path = match filter {
                    // `//e…` with the filter on its `e` step.
                    Some(RangeFilter {
                        arith,
                        by,
                        op,
                        bound,
                    }) => format!(
                        "//e[@id {} {by} {} {bound}]{}",
                        arith.symbol(),
                        cmp_kw(*op),
                        &path.render()["//e".len()..]
                    ),
                    None => path.render().to_string(),
                };
                format!(
                    "({} {var} in {range}{path} satisfies ({body}))",
                    if *universal { "every" } else { "some" },
                )
            }
            Pred::Exists {
                doc,
                deep,
                keys,
                ineq,
                shadow,
            } => {
                let xd = nm.inner_doc(idx);
                let x = match shadow {
                    Some(b) => nm.binder(*b),
                    None => nm.inner(idx),
                };
                let y = nm.deep(idx);
                let mut fors = format!("for {x} in {xd}//e");
                if *deep {
                    fors.push_str(&format!(", {y} in {x}//k"));
                }
                let field = |f: &ExistsField| match f {
                    ExistsField::Entry(r) => format!("{x}{}", r.render()),
                    ExistsField::DeepVar => y.clone(),
                };
                let mut conj: Vec<String> = keys
                    .iter()
                    .map(|(f, o)| format!("{} = {}", field(f), self.render_operand(o, nm)))
                    .collect();
                if let Some((f, op, o)) = ineq {
                    conj.push(format!(
                        "{} {} {}",
                        field(f),
                        cmp_kw(*op),
                        self.render_operand(o, nm)
                    ));
                }
                format!(
                    "exists(let {xd} := doc(\"{}\") {fors} where {} return {x})",
                    corpus.docs[*doc].uri,
                    conj.join(" and ")
                )
            }
            Pred::CountCmp { doc, key, op, n } => format!(
                "(count({}//e[k = {}]) {} {n})",
                nm.doc(*doc),
                self.render_operand(key, nm),
                cmp_kw(*op)
            ),
        }
    }
}

fn cmp_kw(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

/// Naming scheme for rendering. The renamed scheme maps every binder
/// class to a disjoint prefix, so the two renderings of one model are
/// alpha-equivalent by construction.
struct Names {
    prefix: &'static str,
}

impl Names {
    fn standard() -> Names {
        Names { prefix: "" }
    }

    fn renamed() -> Names {
        Names { prefix: "u" }
    }

    fn doc(&self, i: usize) -> String {
        format!("${}d{i}", self.prefix)
    }

    fn pos(&self, i: usize) -> String {
        format!("${}p{i}", self.prefix)
    }

    fn binder(&self, i: usize) -> String {
        format!("${}b{i}", self.prefix)
    }

    fn quant(&self, i: usize) -> String {
        format!("${}q{i}", self.prefix)
    }

    fn inner(&self, i: usize) -> String {
        format!("${}x{i}", self.prefix)
    }

    fn inner_doc(&self, i: usize) -> String {
        format!("${}w{i}", self.prefix)
    }

    fn deep(&self, i: usize) -> String {
        format!("${}y{i}", self.prefix)
    }
}
