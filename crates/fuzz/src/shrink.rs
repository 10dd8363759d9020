//! Greedy case minimization: once the oracle flags a case, strip it
//! down — fewer updates, fewer predicates, fewer binders, smaller
//! corpus — re-running the oracle after every candidate edit and
//! keeping any edit that still fails. The result is the small
//! reproducer the failure message prints.

use crate::corpus::Corpus;
use crate::gen::{BindSrc, ExistsField, GenQuery, Operand, Pred, RelPath};
use crate::oracle::GenCase;

/// Visit every operand of the query mutably.
fn map_operands(q: &mut GenQuery, f: &mut impl FnMut(&mut Operand)) {
    for p in &mut q.preds {
        match p {
            Pred::Cmp { l, r, .. } => {
                f(l);
                f(r);
            }
            Pred::Quant { cmps, .. } => {
                for (_, o) in cmps {
                    f(o);
                }
            }
            Pred::Exists { keys, ineq, .. } => {
                for (_, o) in keys {
                    f(o);
                }
                if let Some((_, _, o)) = ineq {
                    f(o);
                }
            }
            Pred::CountCmp { key, .. } => f(key),
        }
    }
    if let Some(a) = &mut q.ret.attr {
        f(a);
    }
    for o in &mut q.ret.parts {
        f(o);
    }
}

fn uses_pos(q: &GenQuery, i: usize) -> bool {
    let mut used = false;
    let mut probe = q.clone();
    map_operands(&mut probe, &mut |o| {
        if matches!(o, Operand::Pos(j) if *j == i) {
            used = true;
        }
    });
    used
}

/// Remove the last binder, retargeting any reference to it at the new
/// last binder. Returns `None` when only one binder remains.
fn without_last_binder(case: &GenCase) -> Option<GenCase> {
    let n = case.query.binders.len();
    if n < 2 {
        return None;
    }
    let last = n - 1;
    let new_last = n - 2;
    let mut c = case.clone();
    c.query.binders.pop();
    let allows = c.query.binders[new_last].allows_paths();
    map_operands(&mut c.query, &mut |o| {
        if let Operand::Field { binder, path } = o {
            if *binder == last {
                *binder = new_last;
                if !allows {
                    *path = None;
                }
            }
        }
    });
    for p in &mut c.query.preds {
        if let Pred::Exists { shadow, .. } = p {
            if *shadow == Some(last) {
                *shadow = None;
            }
        }
    }
    Some(c)
}

/// Drop corpus document `d`, remapping every higher document index in
/// the query and update script down by one. Only valid when the query
/// does not reference `d`.
fn without_doc(case: &GenCase, d: usize) -> Option<GenCase> {
    if case.corpus.docs.len() < 2 || case.query.used_docs().contains(&d) {
        return None;
    }
    let mut c = case.clone();
    c.corpus.docs.remove(d);
    let remap = |doc: &mut usize| {
        if *doc > d {
            *doc -= 1;
        } else if *doc == d {
            *doc = 0;
        }
    };
    for b in &mut c.query.binders {
        match &mut b.src {
            BindSrc::Doc { doc, .. } | BindSrc::Distinct { doc, .. } => remap(doc),
            BindSrc::Rel { .. } => {}
        }
    }
    for p in &mut c.query.pos_lets {
        remap(&mut p.doc);
    }
    for p in &mut c.query.preds {
        match p {
            Pred::Quant { doc, .. } | Pred::Exists { doc, .. } | Pred::CountCmp { doc, .. } => {
                remap(doc)
            }
            Pred::Cmp { .. } => {}
        }
    }
    for op in &mut c.updates {
        match op {
            crate::update::UpdateOp::Duplicate { doc, .. }
            | crate::update::UpdateOp::InsertFresh { doc, .. }
            | crate::update::UpdateOp::Delete { doc, .. }
            | crate::update::UpdateOp::ReplaceText { doc, .. } => remap(doc),
        }
    }
    Some(c)
}

/// All candidate one-step simplifications of a case, most aggressive
/// first within each class.
fn candidates(case: &GenCase) -> Vec<GenCase> {
    let mut out = Vec::new();

    // 1. Drop update ops.
    for i in 0..case.updates.len() {
        let mut c = case.clone();
        c.updates.remove(i);
        out.push(c);
    }

    // 2. Drop predicates.
    for i in 0..case.query.preds.len() {
        let mut c = case.clone();
        c.query.preds.remove(i);
        out.push(c);
    }

    // 3. Drop binders from the tail (the ≤ 3-binder target).
    if let Some(c) = without_last_binder(case) {
        out.push(c);
    }

    // 4. Simplify the return element.
    if case.query.ret.attr.is_some() || case.query.ret.parts.len() > 1 {
        let mut c = case.clone();
        c.query.ret.attr = None;
        c.query.ret.parts.truncate(1);
        out.push(c);
    }
    {
        let simple = Operand::Field {
            binder: case.query.binders.len() - 1,
            path: None,
        };
        if case.query.ret.parts.first() != Some(&simple) || case.query.ret.attr.is_some() {
            let mut c = case.clone();
            c.query.ret.attr = None;
            c.query.ret.parts = vec![simple];
            out.push(c);
        }
    }

    // 5. Simplify predicates in place.
    for i in 0..case.query.preds.len() {
        match &case.query.preds[i] {
            Pred::Quant { cmps, filter, .. } => {
                if cmps.len() > 1 {
                    let mut c = case.clone();
                    if let Pred::Quant { cmps, .. } = &mut c.query.preds[i] {
                        cmps.truncate(1);
                    }
                    out.push(c);
                }
                if filter.is_some() {
                    let mut c = case.clone();
                    if let Pred::Quant { filter, .. } = &mut c.query.preds[i] {
                        *filter = None;
                    }
                    out.push(c);
                }
            }
            Pred::Exists {
                keys,
                ineq,
                deep,
                shadow,
                ..
            } => {
                if keys.len() > 1 || ineq.is_some() {
                    let mut c = case.clone();
                    if let Pred::Exists { keys, ineq, .. } = &mut c.query.preds[i] {
                        keys.truncate(1);
                        *ineq = None;
                    }
                    out.push(c);
                }
                if *deep {
                    let mut c = case.clone();
                    if let Pred::Exists { deep, keys, .. } = &mut c.query.preds[i] {
                        *deep = false;
                        for (f, _) in keys {
                            if matches!(f, ExistsField::DeepVar) {
                                *f = ExistsField::Entry(RelPath::Key);
                            }
                        }
                    }
                    out.push(c);
                }
                if shadow.is_some() {
                    let mut c = case.clone();
                    if let Pred::Exists { shadow, .. } = &mut c.query.preds[i] {
                        *shadow = None;
                    }
                    out.push(c);
                }
            }
            _ => {}
        }
    }

    // 6. Drop unreferenced positional lets (remapping higher indices).
    for i in (0..case.query.pos_lets.len()).rev() {
        if uses_pos(&case.query, i) {
            continue;
        }
        let mut c = case.clone();
        c.query.pos_lets.remove(i);
        map_operands(&mut c.query, &mut |o| {
            if let Operand::Pos(j) = o {
                if *j > i {
                    *j -= 1;
                }
            }
        });
        out.push(c);
    }

    // 7. Shrink the corpus: halve each document's entries, then drop
    //    unreferenced documents entirely.
    for d in 0..case.corpus.docs.len() {
        let len = case.corpus.docs[d].entries.len();
        if len > 1 {
            for keep_front in [true, false] {
                let mut c = case.clone();
                let half = len.div_ceil(2);
                let entries = &mut c.corpus.docs[d].entries;
                if keep_front {
                    entries.truncate(half);
                } else {
                    entries.drain(..len - half);
                }
                out.push(c);
            }
        }
    }
    for d in (0..case.corpus.docs.len()).rev() {
        if let Some(c) = without_doc(case, d) {
            out.push(c);
        }
    }

    out
}

/// Greedily minimize `case` under the failing predicate `fails`,
/// spending at most `budget` oracle invocations. Returns the smallest
/// still-failing case found.
pub fn shrink(case: GenCase, budget: usize, fails: &mut dyn FnMut(&GenCase) -> bool) -> GenCase {
    let mut cur = case;
    let mut spent = 0usize;
    loop {
        let mut improved = false;
        for cand in candidates(&cur) {
            if spent >= budget {
                return cur;
            }
            spent += 1;
            if fails(&cand) {
                cur = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return cur;
        }
    }
}

/// Convenience: the number of corpus entries, a rough case size used in
/// tests asserting the shrinker makes progress.
pub fn corpus_size(c: &Corpus) -> usize {
    c.docs.iter().map(|d| d.entries.len()).sum()
}
