//! Normalization (§3): prepare a parsed query for translation.
//!
//! The four steps of the paper:
//!
//! 1. *Embed range expressions of quantifiers into new FLWR expressions* —
//!    `some $x in doc(..)//entry/title satisfies …` becomes
//!    `some $x in (for $f in … return $f) satisfies …`, with correlation
//!    predicates moved into the new FLWR's `where` clause. When the
//!    `satisfies` part needs only a single (singleton-cardinality) path of
//!    the range variable, the range variable is *changed* to those values
//!    (§5.5: "we change the range variable").
//! 2. *Break up complex expressions and introduce new variables* —
//!    nested FLWRs in `return` clauses become `let` bindings; non-variable
//!    returns of inner FLWRs become `let`s; aggregate calls in `where`
//!    clauses are hoisted into `let`s.
//! 3. *Factorize common subexpressions* — multi-step paths compared in
//!    `where` clauses are bound to fresh variables (`let` in plain FLWRs,
//!    `for` in quantifier ranges), so correlation predicates end up
//!    comparing variables, which is what the unnesting equivalences match
//!    on.
//! 4. *Move predicates from XPath expressions to the where clause* —
//!    `$d2//book[$a1 = author]` becomes `for $b2 in $d2//book where
//!    $a1 = $b2/author`.
//!
//! "Careless application of this procedure may change the semantics of
//! the query" — the singleton/multi distinction (step 1/3) is checked
//! against the DTD via [`xmldb::SchemaFacts`].

use std::collections::HashMap;

use xmldb::Catalog;

use crate::ast::{CPart, Clause, PathAxis, PathStep, QExpr};

/// Normalize a query against the catalog's schemas.
pub fn normalize(q: &QExpr, catalog: &Catalog) -> QExpr {
    let mut used = Vec::new();
    q.collect_vars(&mut used);
    let mut n = Normalizer {
        catalog,
        used,
        bindings: HashMap::new(),
    };
    n.expr(q, Ctx::TopLevel)
}

/// Where a FLWR appears — decides `let` vs. `for` when extracting paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ctx {
    /// The outermost query (result-constructing).
    TopLevel,
    /// A nested query block bound by a `let` (value-producing).
    Nested,
    /// The range of a quantifier (iteration-producing).
    QuantRange,
}

/// What a variable is bound to, for cardinality reasoning.
#[derive(Clone, Debug)]
enum Binding {
    /// Nodes selected by a document-rooted path.
    Nodes {
        uri: String,
        trail: Vec<(PathAxis, String)>,
    },
    /// Atomized values (e.g. `distinct-values(…)`) — no child steps.
    Values,
    /// Anything else.
    Opaque,
}

struct Normalizer<'a> {
    catalog: &'a Catalog,
    used: Vec<String>,
    bindings: HashMap<String, Binding>,
}

impl<'a> Normalizer<'a> {
    fn fresh(&mut self, base: &str) -> String {
        let mut name = base.to_string();
        let mut i = 1;
        while self.used.contains(&name) || name == "." {
            name = format!("{base}_{i}");
            i += 1;
        }
        self.used.push(name.clone());
        name
    }

    fn expr(&mut self, q: &QExpr, ctx: Ctx) -> QExpr {
        match q {
            QExpr::Flwr { clauses, ret } => self.flwr(clauses, ret, ctx),
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
            QExpr::Cmp(op, l, r) => QExpr::Cmp(
                *op,
                Box::new(self.expr(l, ctx)),
                Box::new(self.expr(r, ctx)),
            ),
            QExpr::And(l, r) => {
                QExpr::And(Box::new(self.expr(l, ctx)), Box::new(self.expr(r, ctx)))
            }
            QExpr::Or(l, r) => QExpr::Or(Box::new(self.expr(l, ctx)), Box::new(self.expr(r, ctx))),
            QExpr::Not(x) => QExpr::Not(Box::new(self.expr(x, ctx))),
            QExpr::Call(name, args) => QExpr::Call(
                name.clone(),
                args.iter().map(|a| self.expr(a, ctx)).collect(),
            ),
            other => other.clone(),
        }
    }

    // ---- FLWR normalization -------------------------------------------

    fn flwr(&mut self, clauses: &[Clause], ret: &QExpr, ctx: Ctx) -> QExpr {
        let mut out: Vec<Clause> = Vec::new();
        for clause in clauses {
            match clause {
                Clause::For(bs) => {
                    for (var, range) in bs {
                        self.for_binding(var, range, &mut out, ctx);
                    }
                }
                Clause::Let(bs) => {
                    for (var, value) in bs {
                        let value = match value {
                            f @ QExpr::Flwr { .. } => self.expr(f, Ctx::Nested),
                            QExpr::Call(name, args) if is_aggregate(name) && args.len() == 1 => {
                                QExpr::Call(name.clone(), vec![self.aggregate_arg(&args[0])])
                            }
                            other => self.expr(other, ctx),
                        };
                        self.record_binding(var, &value);
                        out.push(Clause::Let(vec![(var.clone(), value)]));
                    }
                }
                Clause::Where(p) => {
                    let p = self.where_clause(p, &mut out, ctx);
                    out.push(Clause::Where(p));
                }
            }
        }
        let ret = self.return_clause(ret, &mut out, ctx);
        QExpr::Flwr {
            clauses: out,
            ret: Box::new(ret),
        }
    }

    /// Step 4: strip path predicates from `for` ranges into `where`
    /// clauses, introducing intermediate variables as needed.
    fn for_binding(&mut self, var: &str, range: &QExpr, out: &mut Vec<Clause>, ctx: Ctx) {
        match range {
            QExpr::Path { base, steps } if steps.iter().any(|s| !s.predicates.is_empty()) => {
                // Find the first step carrying predicates.
                let k = steps
                    .iter()
                    .position(|s| !s.predicates.is_empty())
                    .expect("checked above");
                let prefix: Vec<PathStep> = steps[..=k]
                    .iter()
                    .map(|s| PathStep {
                        predicates: vec![],
                        ..s.clone()
                    })
                    .collect();
                let rest: Vec<PathStep> = steps[k + 1..].to_vec();
                // Bind the predicate-carrying node set.
                let node_var = if rest.is_empty() {
                    var.to_string()
                } else {
                    self.fresh(&format!("{var}n"))
                };
                let prefix_range = QExpr::Path {
                    base: base.clone(),
                    steps: prefix,
                };
                self.for_binding(&node_var, &prefix_range, out, ctx);
                // Each predicate becomes a where conjunct, re-anchored at
                // the node variable.
                for pred in &steps[k].predicates {
                    let anchored = reanchor(pred, &node_var);
                    let p = self.where_clause(&anchored, out, ctx);
                    out.push(Clause::Where(p));
                }
                if !rest.is_empty() {
                    let rest_range = QExpr::var_path(&node_var, rest);
                    self.for_binding(var, &rest_range, out, ctx);
                }
            }
            other => {
                let range = self.expr(other, ctx);
                self.record_binding(var, &range);
                out.push(Clause::For(vec![(var.to_string(), range)]));
            }
        }
    }

    /// Steps 2+3 on a `where` predicate: hoist aggregates into `let`s and
    /// extract compared paths into fresh variables.
    fn where_clause(&mut self, p: &QExpr, out: &mut Vec<Clause>, ctx: Ctx) -> QExpr {
        match p {
            QExpr::And(l, r) => {
                let l = self.where_clause(l, out, ctx);
                let r = self.where_clause(r, out, ctx);
                QExpr::And(Box::new(l), Box::new(r))
            }
            QExpr::Cmp(op, l, r) => {
                let l = self.comparand(l, out, ctx);
                let r = self.comparand(r, out, ctx);
                QExpr::Cmp(*op, Box::new(l), Box::new(r))
            }
            other => self.expr(other, ctx),
        }
    }

    /// A comparison operand: aggregate calls and compared paths are
    /// hoisted to fresh variables.
    fn comparand(&mut self, e: &QExpr, out: &mut Vec<Clause>, ctx: Ctx) -> QExpr {
        match e {
            // count(nested)  →  let $c := count(nested')
            QExpr::Call(name, args) if is_aggregate(name) && args.len() == 1 => {
                let arg = self.aggregate_arg(&args[0]);
                let c = self.fresh("c");
                self.bindings.insert(c.clone(), Binding::Opaque);
                out.push(Clause::Let(vec![(
                    c.clone(),
                    QExpr::Call(name.clone(), vec![arg]),
                )]));
                QExpr::Var(c)
            }
            // $b2/author  →  let/for $f := …
            QExpr::Path { base, steps } if !steps.is_empty() => {
                let QExpr::Var(v) = base.as_ref() else {
                    return self.expr(e, ctx);
                };
                let f = self.fresh(&derive_name(v, steps));
                let path = QExpr::var_path(v, steps.clone());
                let single = self.is_singleton(v, steps);
                if ctx == Ctx::QuantRange && !single {
                    self.record_binding(&f, &path);
                    out.push(Clause::For(vec![(f.clone(), path)]));
                } else {
                    self.record_binding(&f, &path);
                    out.push(Clause::Let(vec![(f.clone(), path)]));
                }
                QExpr::Var(f)
            }
            other => self.expr(other, ctx),
        }
    }

    /// The argument of a hoisted aggregate: a nested FLWR (normalized as
    /// such) or a predicated path converted into a FLWR.
    fn aggregate_arg(&mut self, arg: &QExpr) -> QExpr {
        match arg {
            f @ QExpr::Flwr { .. } => self.expr(f, Ctx::Nested),
            QExpr::Path { base, steps } => {
                // count($d1//bidtuple[itemno = $i1])  →
                // count(let $d2 := document(…) for $f in $d2//bidtuple
                //       where … return $f)
                // The document variable is re-bound locally — a nested
                // block may not reference outer bindings except through
                // its correlation predicate (the F(e2) ∩ A(e1) = ∅
                // condition of §4); the paper's normalized query 1.4.4.14
                // introduces $d2 for exactly this reason.
                let mut clauses = Vec::new();
                let base = match base.as_ref() {
                    QExpr::Var(v)
                        if matches!(
                            self.bindings.get(v),
                            Some(Binding::Nodes { trail, .. }) if trail.is_empty()
                        ) =>
                    {
                        let Some(Binding::Nodes { uri, .. }) = self.bindings.get(v) else {
                            unreachable!()
                        };
                        let uri = uri.clone();
                        let d = self.fresh("d");
                        self.bindings.insert(
                            d.clone(),
                            Binding::Nodes {
                                uri: uri.clone(),
                                trail: vec![],
                            },
                        );
                        clauses.push(Clause::Let(vec![(d.clone(), QExpr::Doc(uri))]));
                        Box::new(QExpr::Var(d))
                    }
                    other => Box::new(other.clone()),
                };
                let f = self.fresh("v");
                clauses.push(Clause::For(vec![(
                    f.clone(),
                    QExpr::Path {
                        base,
                        steps: steps.clone(),
                    },
                )]));
                let flwr = QExpr::Flwr {
                    clauses,
                    ret: Box::new(QExpr::Var(f)),
                };
                self.expr(&flwr, Ctx::Nested)
            }
            other => self.expr(other, Ctx::Nested),
        }
    }

    /// Step 2 on `return` clauses: nested FLWRs and non-trivial embedded
    /// expressions become `let`s; inner FLWRs must return a variable.
    fn return_clause(&mut self, ret: &QExpr, out: &mut Vec<Clause>, ctx: Ctx) -> QExpr {
        match ret {
            QExpr::Elem {
                name,
                attrs,
                content,
            } => {
                let attrs = attrs
                    .iter()
                    .map(|(n, parts)| (n.clone(), self.cparts(parts, out)))
                    .collect();
                let content = self.cparts(content, out);
                QExpr::Elem {
                    name: name.clone(),
                    attrs,
                    content,
                }
            }
            QExpr::Var(_) => ret.clone(),
            // A non-variable return of a nested FLWR: bind it first, so
            // translation can project a single attribute.
            other if ctx != Ctx::TopLevel => {
                let value = match other {
                    QExpr::Call(name, args) if is_aggregate(name) && args.len() == 1 => {
                        QExpr::Call(name.clone(), vec![self.aggregate_arg(&args[0])])
                    }
                    other => self.expr(other, ctx),
                };
                let f = self.fresh("r");
                self.record_binding(&f, &value);
                out.push(Clause::Let(vec![(f.clone(), value)]));
                QExpr::Var(f)
            }
            other => self.expr(other, ctx),
        }
    }

    fn cparts(&mut self, parts: &[CPart], out: &mut Vec<Clause>) -> Vec<CPart> {
        parts
            .iter()
            .map(|p| match p {
                CPart::Text(t) => CPart::Text(t.clone()),
                CPart::Embed(QExpr::Var(v)) => CPart::Embed(QExpr::Var(v.clone())),
                // Nested constructors stay inline (they become Ξ command
                // strings); only their embedded expressions are hoisted.
                CPart::Embed(QExpr::Elem {
                    name,
                    attrs,
                    content,
                }) => {
                    let attrs = attrs
                        .iter()
                        .map(|(n, ps)| (n.clone(), self.cparts(ps, out)))
                        .collect();
                    let content = self.cparts(content, out);
                    CPart::Embed(QExpr::Elem {
                        name: name.clone(),
                        attrs,
                        content,
                    })
                }
                CPart::Embed(e) => {
                    // Hoist: let $t := (normalized e).
                    let value = match e {
                        f @ QExpr::Flwr { .. } => self.expr(f, Ctx::Nested),
                        QExpr::Call(name, args) if is_aggregate(name) && args.len() == 1 => {
                            QExpr::Call(name.clone(), vec![self.aggregate_arg(&args[0])])
                        }
                        other => self.expr(other, Ctx::Nested),
                    };
                    let t = self.fresh("t");
                    self.record_binding(&t, &value);
                    out.push(Clause::Let(vec![(t.clone(), value)]));
                    CPart::Embed(QExpr::Var(t))
                }
            })
            .collect()
    }

    // ---- quantifiers ----------------------------------------------------

    /// Step 1: embed the quantifier range into a FLWR, then optionally
    /// change the range variable to the single satisfied path's values.
    fn quantifier(
        &mut self,
        var: &str,
        range: &QExpr,
        satisfies: &QExpr,
        universal: bool,
    ) -> QExpr {
        // Build the range FLWR.
        let range_flwr = match range {
            f @ QExpr::Flwr { .. } => self.expr(f, Ctx::QuantRange),
            p @ QExpr::Path { .. } => {
                let f = self.fresh("q");
                let flwr = QExpr::Flwr {
                    clauses: vec![Clause::For(vec![(f.clone(), p.clone())])],
                    ret: Box::new(QExpr::Var(f)),
                };
                self.expr(&flwr, Ctx::QuantRange)
            }
            other => self.expr(other, Ctx::QuantRange),
        };
        // "Change the range variable" (§5.5): when the satisfies part uses
        // the quantified variable only through one singleton path, bind
        // those values inside the range FLWR and return them instead.
        let (range_flwr, satisfies) = self.change_range_variable(var, range_flwr, satisfies);
        let satisfies = self.expr(&satisfies, Ctx::TopLevel);
        if universal {
            QExpr::Every {
                var: var.to_string(),
                range: Box::new(range_flwr),
                satisfies: Box::new(satisfies),
            }
        } else {
            QExpr::Some_ {
                var: var.to_string(),
                range: Box::new(range_flwr),
                satisfies: Box::new(satisfies),
            }
        }
    }

    fn change_range_variable(
        &mut self,
        var: &str,
        range_flwr: QExpr,
        satisfies: &QExpr,
    ) -> (QExpr, QExpr) {
        let QExpr::Flwr { clauses, ret } = &range_flwr else {
            return (range_flwr, satisfies.clone());
        };
        let QExpr::Var(ret_var) = ret.as_ref() else {
            return (range_flwr, satisfies.clone());
        };
        // Collect the distinct paths through which `satisfies` uses `var`.
        let mut paths: Vec<Vec<PathStep>> = Vec::new();
        let mut direct_use = false;
        collect_var_paths(satisfies, var, &mut paths, &mut direct_use);
        paths.dedup();
        if direct_use || paths.len() != 1 {
            return (range_flwr, satisfies.clone());
        }
        let steps = &paths[0];
        if !self.is_singleton(ret_var, steps) {
            return (range_flwr, satisfies.clone());
        }
        // let $y := $ret_var/steps inside the range; return $y.
        let y = self.fresh(&derive_name(ret_var, steps));
        let mut clauses = clauses.clone();
        let path = QExpr::var_path(ret_var, steps.clone());
        self.record_binding(&y, &path);
        // Insert the let *before* any where clause so the binding is in
        // scope for translation order; appending also works since our
        // translator is order-driven — keep it simple and append.
        clauses.push(Clause::Let(vec![(y.clone(), path)]));
        let new_flwr = QExpr::Flwr {
            clauses,
            ret: Box::new(QExpr::Var(y)),
        };
        let new_satisfies = replace_var_path(satisfies, var, steps, &QExpr::Var(var.to_string()));
        (new_flwr, new_satisfies)
    }

    // ---- cardinality ----------------------------------------------------

    fn record_binding(&mut self, var: &str, value: &QExpr) {
        let b = match value {
            QExpr::Doc(uri) => Binding::Nodes {
                uri: uri.clone(),
                trail: vec![],
            },
            QExpr::Call(name, args) if name == "distinct-values" && args.len() == 1 => {
                Binding::Values
            }
            QExpr::Path { base, steps } => {
                let base_binding = match base.as_ref() {
                    QExpr::Doc(uri) => Some(Binding::Nodes {
                        uri: uri.clone(),
                        trail: vec![],
                    }),
                    QExpr::Var(v) => self.bindings.get(v).cloned(),
                    _ => None,
                };
                match base_binding {
                    Some(Binding::Nodes { uri, mut trail }) => {
                        for s in steps {
                            trail.push((s.axis, s.test.clone()));
                        }
                        Binding::Nodes { uri, trail }
                    }
                    _ => Binding::Opaque,
                }
            }
            _ => Binding::Opaque,
        };
        self.bindings.insert(var.to_string(), b);
    }

    /// Is `var/steps` a singleton per the DTD? (The §5.2 caveat: breaking
    /// up a path is only allowed when the DTD guarantees one child.)
    fn is_singleton(&self, var: &str, steps: &[PathStep]) -> bool {
        let Some(Binding::Nodes { uri, trail }) = self.bindings.get(var) else {
            return false;
        };
        let Some(doc) = self.catalog.doc_by_uri(uri) else {
            return false;
        };
        let Some(facts) = doc.schema_facts() else {
            return false;
        };
        // Current element name at the end of the var's trail.
        let Some((_, mut parent)) = trail.last().cloned() else {
            return false;
        };
        for s in steps {
            match s.axis {
                PathAxis::Attribute => {
                    // Attributes are at most one per element — singleton.
                    return true;
                }
                PathAxis::Child => {
                    if !facts.exactly_one_child(&parent, &s.test) {
                        return false;
                    }
                    parent = s.test.clone();
                }
                PathAxis::Descendant => return false,
            }
        }
        true
    }
}

/// Replace the parser's `.`-anchored context paths by paths from `var`.
fn reanchor(pred: &QExpr, var: &str) -> QExpr {
    match pred {
        QExpr::Path { base, steps } if matches!(base.as_ref(), QExpr::Var(v) if v == ".") => {
            QExpr::var_path(var, steps.clone())
        }
        QExpr::Cmp(op, l, r) => {
            QExpr::Cmp(*op, Box::new(reanchor(l, var)), Box::new(reanchor(r, var)))
        }
        QExpr::And(l, r) => QExpr::And(Box::new(reanchor(l, var)), Box::new(reanchor(r, var))),
        QExpr::Or(l, r) => QExpr::Or(Box::new(reanchor(l, var)), Box::new(reanchor(r, var))),
        QExpr::Not(x) => QExpr::Not(Box::new(reanchor(x, var))),
        QExpr::Call(n, args) => {
            QExpr::Call(n.clone(), args.iter().map(|a| reanchor(a, var)).collect())
        }
        other => other.clone(),
    }
}

/// Collect the step-lists of paths anchored at `var` inside `e`; set
/// `direct` when `var` is used bare.
fn collect_var_paths(e: &QExpr, var: &str, paths: &mut Vec<Vec<PathStep>>, direct: &mut bool) {
    match e {
        QExpr::Var(v) if v == var => *direct = true,
        QExpr::Path { base, steps } => {
            if matches!(base.as_ref(), QExpr::Var(v) if v == var) {
                paths.push(steps.clone());
            } else {
                collect_var_paths(base, var, paths, direct);
            }
        }
        QExpr::Cmp(_, l, r) | QExpr::And(l, r) | QExpr::Or(l, r) => {
            collect_var_paths(l, var, paths, direct);
            collect_var_paths(r, var, paths, direct);
        }
        QExpr::Not(x) => collect_var_paths(x, var, paths, direct),
        QExpr::Call(_, args) | QExpr::Seq(args) => {
            for a in args {
                collect_var_paths(a, var, paths, direct);
            }
        }
        _ => {}
    }
}

/// Replace `var/steps` paths by `replacement` inside `e`.
fn replace_var_path(e: &QExpr, var: &str, steps: &[PathStep], replacement: &QExpr) -> QExpr {
    match e {
        QExpr::Path { base, steps: s }
            if matches!(base.as_ref(), QExpr::Var(v) if v == var) && s == steps =>
        {
            replacement.clone()
        }
        QExpr::Cmp(op, l, r) => QExpr::Cmp(
            *op,
            Box::new(replace_var_path(l, var, steps, replacement)),
            Box::new(replace_var_path(r, var, steps, replacement)),
        ),
        QExpr::And(l, r) => QExpr::And(
            Box::new(replace_var_path(l, var, steps, replacement)),
            Box::new(replace_var_path(r, var, steps, replacement)),
        ),
        QExpr::Or(l, r) => QExpr::Or(
            Box::new(replace_var_path(l, var, steps, replacement)),
            Box::new(replace_var_path(r, var, steps, replacement)),
        ),
        QExpr::Not(x) => QExpr::Not(Box::new(replace_var_path(x, var, steps, replacement))),
        QExpr::Call(n, args) => QExpr::Call(
            n.clone(),
            args.iter()
                .map(|a| replace_var_path(a, var, steps, replacement))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// A readable fresh-variable base derived from a path: `$b2/author → a2`…
/// — loosely following the paper's naming (last step name + counter).
fn derive_name(_var: &str, steps: &[PathStep]) -> String {
    steps
        .last()
        .map(|s| {
            let mut n: String = s.test.chars().take(1).collect();
            n.push('v');
            n
        })
        .unwrap_or_else(|| "v".to_string())
}

fn is_aggregate(name: &str) -> bool {
    matches!(name, "count" | "min" | "max" | "sum" | "avg")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use xmldb::gen::{gen_bib, BibConfig};

    fn bib_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(gen_bib(&BibConfig::default()));
        cat
    }

    fn norm(q: &str) -> QExpr {
        normalize(&parse_query(q).unwrap(), &bib_catalog())
    }

    #[test]
    fn q1_nested_flwr_is_hoisted_and_predicates_moved() {
        let n = norm(
            r#"let $d1 := doc("bib.xml")
               for $a1 in distinct-values($d1//author)
               return
                 <author><name>{ $a1 }</name>{
                   let $d2 := doc("bib.xml")
                   for $b2 in $d2//book[$a1 = author]
                   return $b2/title
                 }</author>"#,
        );
        let printed = n.to_string();
        // The inner FLWR is now a let; the path predicate became a where;
        // the compared path was extracted into a variable.
        assert!(printed.contains("let $t :="), "{printed}");
        assert!(printed.contains("where $a1 = $av"), "{printed}");
        assert!(printed.contains("let $av := $b2/author"), "{printed}");
        assert!(printed.contains("{ $t }"), "{printed}");
        // Nested constructors stay inline; the inner return is a variable.
        assert!(printed.contains("<name>{ $a1 }</name>"), "{printed}");
        assert!(
            printed.contains("let $r := $b2/title return $r"),
            "{printed}"
        );
    }

    #[test]
    fn quantifier_range_becomes_flwr() {
        let n = norm(
            r#"let $d1 := doc("bib.xml")
               for $t1 in $d1//book/title
               where some $t2 in doc("reviews.xml")//entry/title satisfies $t1 = $t2
               return <r>{ $t1 }</r>"#,
        );
        let printed = n.to_string();
        assert!(
            printed.contains("some $t2 in for $q in doc(\"reviews.xml\")//entry/title return $q"),
            "{printed}"
        );
    }

    #[test]
    fn universal_quantifier_changes_range_variable() {
        let n = norm(
            r#"let $d1 := doc("bib.xml")
               for $a1 in distinct-values($d1//author)
               where every $b2 in doc("bib.xml")//book[author = $a1]
                     satisfies $b2/@year > 1993
               return <new-author>{ $a1 }</new-author>"#,
        );
        let printed = n.to_string();
        // The range iterates books, extracts authors with `for` (multi),
        // binds the year with `let` (singleton), and returns the years;
        // satisfies now references the quantified variable directly.
        assert!(
            printed.contains("every $b2 in for $q in doc(\"bib.xml\")//book"),
            "{printed}"
        );
        assert!(printed.contains("for $av in $q/author"), "{printed}");
        assert!(printed.contains("where $av = $a1"), "{printed}");
        assert!(
            printed.contains("let $yv := $q/@year return $yv"),
            "{printed}"
        );
        assert!(printed.contains("satisfies $b2 > 1993"), "{printed}");
    }

    #[test]
    fn aggregate_in_where_is_hoisted() {
        let mut cat = Catalog::new();
        cat.register(xmldb::gen::gen_auction(&xmldb::gen::AuctionConfig::default()).bids);
        let n = normalize(
            &parse_query(
                r#"let $d1 := document("bids.xml")
                   for $i1 in distinct-values($d1//itemno)
                   where count($d1//bidtuple[itemno = $i1]) >= 3
                   return <popular-item>{ $i1 }</popular-item>"#,
            )
            .unwrap(),
            &cat,
        );
        let printed = n.to_string();
        // The aggregate argument becomes a self-contained block with its
        // own document binding (the F(e2) ∩ A(e1) = ∅ requirement).
        assert!(
            printed.contains("let $c := count(let $d := doc(\"bids.xml\") for $v in $d//bidtuple"),
            "{printed}"
        );
        assert!(printed.contains("where $c >= 3"), "{printed}");
        // The itemno predicate moved inside the counted FLWR.
        assert!(printed.contains("where $iv = $i1"), "{printed}");
    }

    #[test]
    fn singleton_paths_become_lets_multi_become_fors_in_ranges() {
        // In a quantifier range, a multi-valued path (authors) must become
        // a `for`; in a plain nested FLWR it becomes a `let`.
        let n = norm(
            r#"for $t1 in distinct-values(doc("bib.xml")//book/title)
               let $m := min(let $d2 := doc("bib.xml")
                             for $b2 in $d2//book
                             where $t1 = $b2/title
                             return decimal($b2/price))
               return <m>{ $m }</m>"#,
        );
        let printed = n.to_string();
        // title is exactly-one per book → let.
        assert!(printed.contains("let $tv := $b2/title"), "{printed}");
        assert!(printed.contains("where $t1 = $tv"), "{printed}");
    }

    #[test]
    fn fresh_names_avoid_collisions() {
        let n = norm(
            r#"let $t := doc("bib.xml")
               for $t1 in $t//book/title
               return <x>{ $t1 }</x>"#,
        );
        // No panic + both original variables survive.
        let printed = n.to_string();
        assert!(printed.contains("$t1"), "{printed}");
    }
}
