//! The reference every timed operation is checked against: the
//! definitional evaluator `nal::eval_query`, never the engine under
//! test.
//!
//! At scales up to [`NESTED_REFERENCE_MAX_SCALE`] the reference runs
//! the un-rewritten (nested) translation. Beyond that the nested form
//! takes seconds per query and a run has to fit the driver's budget, so
//! the reference runs the top-ranked *logical* plan instead — after a
//! cross-check at scale [`CROSS_CHECK_SCALE`], on the same seed, that
//! both references agree byte for byte on all of `Q`.

use std::time::Instant;

use nal::EvalCtx;
use service::UpdateOp;
use xmldb::{Catalog, DocId, NodeId, NodeKind};

use crate::inputs::{query_set, Query, UPDATE_STATES};
use crate::span::Recorder;

pub const NESTED_REFERENCE_MAX_SCALE: usize = 50;
pub const CROSS_CHECK_SCALE: usize = 40;

/// Expected outputs, per catalog state and slot of the query list.
pub struct Reference {
    /// `outputs[state][slot]`.
    pub outputs: Vec<Vec<String>>,
    /// The oracle's own time (reported, never part of `setup_s`).
    pub eval_s: f64,
}

impl Reference {
    pub fn expect(&self, state: usize, slot: usize) -> &str {
        &self.outputs[state % self.outputs.len()][slot]
    }
}

/// Parse → normalize → translate: the un-rewritten (nested) expression.
pub fn translate(text: &str, catalog: &Catalog) -> Result<nal::Expr, String> {
    let parsed = xquery::parse_query(text).map_err(|e| format!("parse: {e}"))?;
    let normalized = xquery::normalize(&parsed, catalog);
    xquery::translate(&normalized, catalog).map_err(|e| format!("translate: {e}"))
}

fn eval(expr: &nal::Expr, catalog: &Catalog) -> Result<String, String> {
    let mut ctx = EvalCtx::new(catalog);
    nal::eval_query(expr, &mut ctx).map_err(|e| format!("reference evaluation: {e}"))?;
    Ok(ctx.take_output())
}

fn nested_output(text: &str, catalog: &Catalog) -> Result<String, String> {
    eval(&translate(text, catalog)?, catalog)
}

fn top_ranked_output(text: &str, catalog: &Catalog) -> Result<String, String> {
    let expr = translate(text, catalog)?;
    let plans = unnest::enumerate_plans(&expr, catalog);
    let (best, _) = unnest::rank_plans_with(plans, catalog, false)
        .into_iter()
        .next()
        .ok_or("no plan enumerated")?;
    eval(&best.expr, catalog)
}

/// Both references must agree on a small catalog before the cheaper
/// one is trusted on a large one.
fn cross_check(seed: u64) -> Result<(), String> {
    let small = xmldb::gen::standard_catalog(CROSS_CHECK_SCALE, 2, seed);
    for q in query_set() {
        if nested_output(q.text, &small)? != top_ranked_output(q.text, &small)? {
            return Err(format!(
                "reference cross-check failed on {} at scale {CROSS_CHECK_SCALE}",
                q.id
            ));
        }
    }
    Ok(())
}

/// Expected output of every query on `catalog` and, when `script` is
/// given, on each state the script cycles through.
pub fn reference(
    catalog: &Catalog,
    scale: usize,
    seed: u64,
    queries: &[Query],
    script: Option<&[UpdateOp; UPDATE_STATES]>,
) -> Result<Reference, String> {
    let start = Instant::now();
    let nested = scale <= NESTED_REFERENCE_MAX_SCALE;
    if !nested {
        cross_check(seed)?;
    }
    let outputs_on = |cat: &Catalog| -> Result<Vec<String>, String> {
        queries
            .iter()
            .map(|q| {
                if nested {
                    nested_output(q.text, cat)
                } else {
                    top_ranked_output(q.text, cat)
                }
            })
            .collect()
    };
    let mut outputs = vec![outputs_on(catalog)?];
    if let Some(script) = script {
        let mut state = catalog.clone();
        let mut scratch = Recorder::new();
        for op in &script[..UPDATE_STATES - 1] {
            apply_update(&mut state, op, &mut scratch)?;
            outputs.push(outputs_on(&state)?);
        }
        // The script must be self-inverse or state `n mod 4` means nothing.
        apply_update(&mut state, &script[UPDATE_STATES - 1], &mut scratch)?;
        if outputs_on(&state)? != outputs[0] {
            return Err("update script does not return the catalog to its base state".into());
        }
    }
    Ok(Reference {
        outputs,
        eval_s: start.elapsed().as_secs_f64(),
    })
}

/// First node matching `path` in document `uri`, from the document node.
fn resolve(
    catalog: &Catalog,
    uri: &str,
    path: &str,
    rec: &mut Recorder,
) -> Result<(DocId, NodeId), String> {
    let id = catalog
        .by_uri(uri)
        .ok_or_else(|| format!("unknown document `{uri}`"))?;
    let hit = rec.time("xpath.resolve", || -> Result<NodeId, String> {
        let parsed = xpath::parse_path(path).map_err(|e| format!("path `{path}`: {e}"))?;
        let mut counters = xpath::EvalCounters::default();
        xpath::eval_path(catalog.doc(id), &[NodeId::DOCUMENT], &parsed, &mut counters)
            .into_iter()
            .next()
            .ok_or_else(|| format!("path `{path}` matches nothing in `{uri}`"))
    })?;
    Ok((id, hit))
}

/// Apply one update to a private catalog through the storage layer's
/// public update API, with the same target rules the service uses
/// (first match in document order; an element target of a text
/// replacement means its first text child). Spans: `xpath.resolve`,
/// `xmldb.update_apply`.
pub fn apply_update(
    catalog: &mut Catalog,
    op: &UpdateOp,
    rec: &mut Recorder,
) -> Result<(), String> {
    match op {
        UpdateOp::InsertXml { uri, parent, xml } => {
            let (id, target) = resolve(catalog, uri, parent, rec)?;
            rec.time("xmldb.update_apply", || {
                let frag = xmldb::parse_document("fragment", xml).map_err(|e| e.to_string())?;
                let root = frag.root_element().ok_or("empty fragment")?;
                catalog
                    .insert_subtree(id, target, None, &frag, root)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            })
        }
        UpdateOp::DeleteFirst { uri, path } => {
            let (id, target) = resolve(catalog, uri, path, rec)?;
            rec.time("xmldb.update_apply", || {
                catalog
                    .delete_subtree(id, target)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            })
        }
        UpdateOp::ReplaceText { uri, path, text } => {
            let (id, mut target) = resolve(catalog, uri, path, rec)?;
            rec.time("xmldb.update_apply", || {
                let doc = catalog.doc(id);
                if doc.kind(target).is_element() {
                    target = doc
                        .children(target)
                        .find(|&c| matches!(doc.kind(c), NodeKind::Text))
                        .ok_or_else(|| format!("`{path}` selects an element with no text"))?;
                }
                catalog
                    .replace_text(id, target, text)
                    .map_err(|e| e.to_string())
            })
        }
    }
}
