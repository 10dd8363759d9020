//! Translation into NAL — the binary/unary `T` functions of Fig. 3.
//!
//! * `for $x in e REST` → `Υ_{x:T(e)}(…)`
//! * `let $x := e REST` → `χ_{x:T(e)[x']}(…)` — with the paper's
//!   optimization: "in case the result of some eᵢ is a singleton, we do
//!   not need to [introduce new attributes]" — singleton lets translate
//!   to a plain `χ` (cardinality judged from the DTD).
//! * `where p` → `σ_{T(p)}(…)`
//! * `return e` → `Ξ_{C(e)}(…)` at the top level; nested query blocks
//!   must return a variable (guaranteed by normalization) and translate
//!   to a projection onto that variable instead.
//! * `some $x in D satisfies P` → `∃x ∈ T(D) T(P)`, and `every` → `∀`.
//!
//! Nested FLWRs inside `let` clauses become nested algebra expressions in
//! χ subscripts — the shape the unnesting equivalences consume.

use std::collections::HashMap;
use std::fmt;

use nal::expr::builder::singleton;
use nal::{AggKind, Expr, Func, GroupFn, Scalar, Sym, Value, XiCmd};
use xmldb::Catalog;

use crate::ast::{CPart, Clause, PathAxis, PathStep, QExpr};

/// Translation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslateError {
    pub message: String,
}

impl TranslateError {
    fn new(m: impl Into<String>) -> TranslateError {
        TranslateError { message: m.into() }
    }
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "translation error: {}", self.message)
    }
}

impl std::error::Error for TranslateError {}

type TResult<T> = Result<T, TranslateError>;

/// Translate a normalized query into a NAL expression.
pub fn translate(q: &QExpr, catalog: &Catalog) -> TResult<Expr> {
    let mut t = Translator {
        catalog,
        vars: HashMap::new(),
        origins: HashMap::new(),
    };
    match q {
        QExpr::Flwr { clauses, ret } => t.flwr_top(clauses, ret),
        other => Err(TranslateError::new(format!(
            "top-level expression must be a FLWR, got: {other}"
        ))),
    }
}

/// Cardinality of a variable binding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Card {
    One,
    Many,
}

#[derive(Clone, Debug)]
struct VarInfo {
    attr: Sym,
    card: Card,
    /// The inner attribute when the value is an `e[a']`-lifted sequence.
    lifted: Option<Sym>,
}

struct Translator<'a> {
    catalog: &'a Catalog,
    vars: HashMap<String, VarInfo>,
    /// `(uri, element-name)` provenance of node-valued variables, for
    /// DTD cardinality checks. Empty element name = document node.
    origins: HashMap<String, (String, String)>,
}

impl<'a> Translator<'a> {
    fn bind(&mut self, var: &str, card: Card, lifted: Option<Sym>) -> Sym {
        let attr = Sym::new(var);
        self.vars
            .insert(var.to_string(), VarInfo { attr, card, lifted });
        attr
    }

    fn info(&self, var: &str) -> TResult<&VarInfo> {
        self.vars
            .get(var)
            .ok_or_else(|| TranslateError::new(format!("unbound variable ${var}")))
    }

    /// Run `f` in a copy of the current scope (nested query block).
    fn scoped<T>(&mut self, f: impl FnOnce(&mut Self) -> TResult<T>) -> TResult<T> {
        let saved_vars = self.vars.clone();
        let saved_origins = self.origins.clone();
        let out = f(self);
        self.vars = saved_vars;
        self.origins = saved_origins;
        out
    }

    /// Track where a node-valued variable's nodes come from.
    fn record_origin(&mut self, var: &str, value: &QExpr) {
        let origin = match value {
            QExpr::Doc(uri) => Some((uri.clone(), String::new())),
            QExpr::Path { base, steps } => self.resolve_anchor(base).and_then(|(uri, _)| {
                // The anchor element is the last named element step.
                steps
                    .iter()
                    .rev()
                    .find(|s| s.axis != PathAxis::Attribute && s.test != "*")
                    .map(|s| (uri, s.test.clone()))
            }),
            _ => None,
        };
        if let Some(o) = origin {
            self.origins.insert(var.to_string(), o);
        } else {
            self.origins.remove(var);
        }
    }

    // ---- FLWR ----------------------------------------------------------

    fn flwr_top(&mut self, clauses: &[Clause], ret: &QExpr) -> TResult<Expr> {
        let acc = self.clauses(clauses, singleton())?;
        let cmds = self.construct(ret)?;
        Ok(Expr::XiSimple {
            input: Box::new(acc),
            cmds,
        })
    }

    fn clauses(&mut self, clauses: &[Clause], mut acc: Expr) -> TResult<Expr> {
        for clause in clauses {
            match clause {
                Clause::For(bs) => {
                    for (var, range) in bs {
                        let (scalar, _) = self.scalar(range)?;
                        let attr = self.bind(var, Card::One, None);
                        self.record_origin(var, range);
                        acc = Expr::UnnestMap {
                            input: Box::new(acc),
                            attr,
                            value: scalar,
                        };
                    }
                }
                Clause::Let(bs) => {
                    for (var, value) in bs {
                        acc = self.let_binding(var, value, acc)?;
                    }
                }
                Clause::Where(p) => {
                    let pred = self.pred(p)?;
                    acc = Expr::Select {
                        input: Box::new(acc),
                        pred,
                    };
                }
            }
        }
        Ok(acc)
    }

    fn let_binding(&mut self, var: &str, value: &QExpr, acc: Expr) -> TResult<Expr> {
        let (scalar, card) = match value {
            // let $t := (nested FLWR): χ_{t:Π_{ret}(…)}.
            QExpr::Flwr { clauses, ret } => {
                let (inner, ret_attr) = self.nested_flwr(clauses, ret)?;
                (
                    Scalar::Agg {
                        f: GroupFn::project_items(ret_attr),
                        input: Box::new(inner),
                    },
                    Card::Many,
                )
            }
            // let $m := min(nested FLWR): χ_{m:min∘Π_{ret}(…)}.
            QExpr::Call(name, args)
                if args.len() == 1 && args[0].is_flwr() && aggregate_kind(name).is_some() =>
            {
                let QExpr::Flwr { clauses, ret } = &args[0] else {
                    unreachable!()
                };
                let (inner, ret_attr) = self.nested_flwr(clauses, ret)?;
                let kind = aggregate_kind(name).expect("checked");
                let f = if kind == AggKind::Count {
                    GroupFn::count()
                } else {
                    GroupFn::agg_of(kind, ret_attr)
                };
                (
                    Scalar::Agg {
                        f,
                        input: Box::new(inner),
                    },
                    Card::One,
                )
            }
            // let $a2 := $b2/author — cardinality decides e[a']-lifting.
            QExpr::Path { .. } => {
                let (scalar, card) = self.scalar(value)?;
                if card == Card::Many {
                    // Invent the paper's primed attribute for the items.
                    let inner = Sym::new(&format!("{var}'"));
                    let attr = self.bind(var, Card::Many, Some(inner));
                    return Ok(Expr::Map {
                        input: Box::new(acc),
                        attr,
                        value: scalar.lift(inner),
                    });
                }
                (scalar, Card::One)
            }
            other => self.scalar(other)?,
        };
        let attr = self.bind(var, card, None);
        self.record_origin(var, value);
        Ok(Expr::Map {
            input: Box::new(acc),
            attr,
            value: scalar,
        })
    }

    /// A nested query block: translate clauses over `□` and project to the
    /// returned variable's attribute.
    fn nested_flwr(&mut self, clauses: &[Clause], ret: &QExpr) -> TResult<(Expr, Sym)> {
        self.scoped(|t| {
            let acc = t.clauses(clauses, singleton())?;
            let QExpr::Var(v) = ret else {
                return Err(TranslateError::new(format!(
                    "nested query blocks must return a variable after normalization, got: {ret}"
                )));
            };
            let info = t.info(v)?.clone();
            match info.lifted {
                // Returning a lifted sequence: unnest it so the block
                // yields one tuple per item.
                Some(inner) => {
                    let un = Expr::Unnest {
                        input: Box::new(acc),
                        attr: info.attr,
                        distinct: false,
                        preserve_empty: false,
                    };
                    Ok((un, inner))
                }
                None => Ok((acc, info.attr)),
            }
        })
    }

    // ---- predicates ------------------------------------------------------

    fn pred(&mut self, p: &QExpr) -> TResult<Scalar> {
        match p {
            QExpr::And(l, r) => Ok(self.pred(l)?.and(self.pred(r)?)),
            QExpr::Or(l, r) => Ok(self.pred(l)?.or(self.pred(r)?)),
            QExpr::Not(x) => Ok(self.pred(x)?.not()),
            QExpr::Cmp(op, l, r) => {
                let (ls, lc) = self.scalar(l)?;
                let (rs, rc) = self.scalar(r)?;
                // `=` with one sequence side is membership — the shape
                // Eqv. 4/5 match on ("we have to translate $a1 = $a2 into
                // a1 ∈ a2", §5.1).
                if *op == nal::CmpOp::Eq {
                    match (lc, rc) {
                        (Card::One, Card::Many) => return Ok(Scalar::is_in(ls, rs)),
                        (Card::Many, Card::One) => return Ok(Scalar::is_in(rs, ls)),
                        _ => {}
                    }
                }
                Ok(Scalar::cmp(*op, ls, rs))
            }
            QExpr::Some_ {
                var,
                range,
                satisfies,
            } => self.quantifier(var, range, satisfies, false),
            QExpr::Every {
                var,
                range,
                satisfies,
            } => self.quantifier(var, range, satisfies, true),
            // exists(FLWR) / empty(FLWR) — §5.4's alternative phrasing of
            // existential quantification.
            QExpr::Call(name, args)
                if (name == "exists" || name == "empty")
                    && args.len() == 1
                    && args[0].is_flwr() =>
            {
                let QExpr::Flwr { clauses, ret } = &args[0] else {
                    unreachable!()
                };
                let (inner, ret_attr) = self.nested_flwr(clauses, ret)?;
                let range = Expr::Project {
                    input: Box::new(inner),
                    op: nal::ProjOp::Cols(vec![ret_attr]),
                };
                let var = Sym::new(&format!("{ret_attr}''"));
                let exists = Scalar::Exists {
                    var,
                    range: Box::new(range),
                    pred: Box::new(Scalar::Const(Value::Bool(true))),
                };
                Ok(if name == "empty" {
                    exists.not()
                } else {
                    exists
                })
            }
            other => {
                let (s, _) = self.scalar(other)?;
                Ok(s)
            }
        }
    }

    fn quantifier(
        &mut self,
        var: &str,
        range: &QExpr,
        satisfies: &QExpr,
        universal: bool,
    ) -> TResult<Scalar> {
        let QExpr::Flwr { clauses, ret } = range else {
            return Err(TranslateError::new(format!(
                "quantifier range must be a FLWR after normalization, got: {range}"
            )));
        };
        let (inner, ret_attr) = self.nested_flwr(clauses, ret)?;
        let range_expr = Expr::Project {
            input: Box::new(inner),
            op: nal::ProjOp::Cols(vec![ret_attr]),
        };
        let pred = self.scoped(|t| {
            t.bind(var, Card::One, None);
            t.pred(satisfies)
        })?;
        let var = Sym::new(var);
        Ok(if universal {
            Scalar::Forall {
                var,
                range: Box::new(range_expr),
                pred: Box::new(pred),
            }
        } else {
            Scalar::Exists {
                var,
                range: Box::new(range_expr),
                pred: Box::new(pred),
            }
        })
    }

    // ---- scalars ---------------------------------------------------------

    /// Translate a value expression to a scalar plus its cardinality.
    fn scalar(&mut self, e: &QExpr) -> TResult<(Scalar, Card)> {
        match e {
            QExpr::Var(v) => {
                let info = self.info(v)?;
                Ok((Scalar::Attr(info.attr), info.card))
            }
            QExpr::Doc(uri) => Ok((Scalar::Doc(uri.clone()), Card::One)),
            QExpr::Str(s) => Ok((Scalar::Const(Value::str(s)), Card::One)),
            QExpr::Int(i) => Ok((Scalar::Const(Value::Int(*i)), Card::One)),
            QExpr::Dec(d) => Ok((Scalar::Const(Value::Dec(nal::Dec(*d))), Card::One)),
            QExpr::Bool(b) => Ok((Scalar::Const(Value::Bool(*b)), Card::One)),
            QExpr::Path { base, steps } => {
                let (base_scalar, _) = self.scalar(base)?;
                let path = convert_path(steps)?;
                // Paths are many-valued unless the DTD proves otherwise;
                // the let-binding layer re-checks with full context, so
                // `Many` is the safe default here.
                let card = self.path_card(base, steps);
                Ok((base_scalar.path(path), card))
            }
            QExpr::Call(name, args) if name == "distinct-values" && args.len() == 1 => {
                let (inner, _) = self.scalar(&args[0])?;
                Ok((inner.distinct(), Card::Many))
            }
            QExpr::Call(name, args) if name.starts_with("op:") && args.len() == 2 => {
                let op = match &name[3..] {
                    "+" => nal::ArithOp::Add,
                    "-" => nal::ArithOp::Sub,
                    "*" => nal::ArithOp::Mul,
                    "div" => nal::ArithOp::Div,
                    "mod" => nal::ArithOp::Mod,
                    other => return Err(TranslateError::new(format!("unknown operator {other}"))),
                };
                let (l, _) = self.scalar(&args[0])?;
                let (r, _) = self.scalar(&args[1])?;
                Ok((Scalar::Arith(op, Box::new(l), Box::new(r)), Card::One))
            }
            QExpr::Call(name, args) => {
                let func = Func::by_name(name)
                    .ok_or_else(|| TranslateError::new(format!("unknown function {name}()")))?;
                let mut scalars = Vec::with_capacity(args.len());
                for a in args {
                    scalars.push(self.scalar(a)?.0);
                }
                Ok((Scalar::Call(func, scalars), Card::One))
            }
            QExpr::Flwr { clauses, ret } => {
                let (inner, ret_attr) = self.nested_flwr(clauses, ret)?;
                Ok((
                    Scalar::Agg {
                        f: GroupFn::project_items(ret_attr),
                        input: Box::new(inner),
                    },
                    Card::Many,
                ))
            }
            QExpr::Seq(items) if items.len() == 1 => self.scalar(&items[0]),
            other => Err(TranslateError::new(format!(
                "cannot translate value: {other}"
            ))),
        }
    }

    /// DTD-based cardinality of `base/steps`.
    fn path_card(&self, base: &QExpr, steps: &[PathStep]) -> Card {
        // Resolve the base to a (uri, element) anchor.
        let anchor = self.resolve_anchor(base);
        let Some((uri, mut parent)) = anchor else {
            return Card::Many;
        };
        let Some(doc) = self.catalog.doc_by_uri(&uri) else {
            return Card::Many;
        };
        let Some(facts) = doc.schema_facts() else {
            return Card::Many;
        };
        for s in steps {
            match s.axis {
                PathAxis::Attribute => return Card::One,
                PathAxis::Descendant => return Card::Many,
                PathAxis::Child => {
                    if parent.is_empty() || !facts.exactly_one_child(&parent, &s.test) {
                        return Card::Many;
                    }
                    parent = s.test.clone();
                }
            }
        }
        Card::One
    }

    /// `(uri, element-name)` anchor of a variable, traced through `for`
    /// bindings; the element name is empty for the document node.
    fn resolve_anchor(&self, base: &QExpr) -> Option<(String, String)> {
        match base {
            QExpr::Doc(uri) => Some((uri.clone(), String::new())),
            QExpr::Var(v) => self.origins.get(v).cloned(),
            _ => None,
        }
    }

    // ---- result construction ---------------------------------------------

    /// `C(e)`: convert the return expression into a Ξ command list (§3).
    fn construct(&mut self, ret: &QExpr) -> TResult<Vec<XiCmd>> {
        let mut cmds = Vec::new();
        self.construct_into(ret, &mut cmds)?;
        Ok(cmds)
    }

    fn construct_into(&mut self, e: &QExpr, out: &mut Vec<XiCmd>) -> TResult<()> {
        match e {
            QExpr::Elem {
                name,
                attrs,
                content,
            } => {
                let mut open = format!("<{name}");
                for (an, parts) in attrs {
                    open.push_str(&format!(" {an}=\""));
                    out.push(XiCmd::Str(std::mem::take(&mut open)));
                    for p in parts {
                        self.cpart_into(p, out)?;
                    }
                    open.push('"');
                }
                open.push('>');
                out.push(XiCmd::Str(open));
                for p in content {
                    self.cpart_into(p, out)?;
                }
                out.push(XiCmd::Str(format!("</{name}>")));
                Ok(())
            }
            QExpr::Var(v) => {
                let info = self.info(v)?;
                out.push(XiCmd::Var(info.attr));
                Ok(())
            }
            QExpr::Str(s) => {
                out.push(XiCmd::Str(s.clone()));
                Ok(())
            }
            other => Err(TranslateError::new(format!(
                "return clause must be a constructor or variable after normalization, got: {other}"
            ))),
        }
    }

    fn cpart_into(&mut self, p: &CPart, out: &mut Vec<XiCmd>) -> TResult<()> {
        match p {
            CPart::Text(t) => {
                out.push(XiCmd::Str(t.clone()));
                Ok(())
            }
            CPart::Embed(e) => self.construct_into(e, out),
        }
    }
}

/// Convert normalized (predicate-free) AST steps into an xpath path.
fn convert_path(steps: &[PathStep]) -> TResult<xpath::Path> {
    let mut out = Vec::with_capacity(steps.len());
    for s in steps {
        if !s.predicates.is_empty() {
            return Err(TranslateError::new(format!(
                "path predicate survived normalization: {s}"
            )));
        }
        let axis = match s.axis {
            PathAxis::Child => xpath::Axis::Child,
            PathAxis::Descendant => xpath::Axis::Descendant,
            PathAxis::Attribute => xpath::Axis::Attribute,
        };
        let test = if s.test == "*" {
            xpath::NameTest::Any
        } else {
            xpath::NameTest::Name(s.test.clone())
        };
        out.push(xpath::Step { axis, test });
    }
    Ok(xpath::Path::new(out))
}

fn aggregate_kind(name: &str) -> Option<AggKind> {
    Some(match name {
        "count" => AggKind::Count,
        "min" => AggKind::Min,
        "max" => AggKind::Max,
        "sum" => AggKind::Sum,
        "avg" => AggKind::Avg,
        _ => return None,
    })
}
