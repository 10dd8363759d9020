//! Copy-pasteable repro snippets.
//!
//! Every oracle failure serializes its (shrunk) case to a small
//! line-oriented text block that can be committed as regression data
//! (`tests/fuzz_corpus/*.repro`) and replayed without the generator:
//! the snippet carries the *rendered* query text, the corpus, and the
//! update script verbatim.
//!
//! ```text
//! # fuzz-repro v1 seed=42
//! doc fz0.xml
//! entry id=1 keys=abc,an v=NaN n=3 deep=-0:10
//! update delete doc=0 entry=2
//! query
//! let $d0 := doc("fz0.xml")
//! for $b0 in $d0//e
//! return <r>{ $b0 }</r>
//! ```
//!
//! Field values come from the corpus pool, which contains no spaces,
//! commas, colons, or `=`, so the flat `key=value` token format is
//! unambiguous. A `keys=`/`deep=` with empty payload after at least one
//! separator still round-trips (`keys=,` is two empty keys); zero keys
//! never occurs — the generator always emits at least one.

use crate::corpus::{Corpus, Entry, GenDoc};
use crate::oracle::{check_parts, Failure, GenCase};
use crate::update::UpdateOp;

/// Serialize a case (with the seed that produced it) to snippet text.
pub fn serialize(case: &GenCase, seed: u64) -> String {
    let mut s = format!("# fuzz-repro v1 seed={seed}\n");
    for d in &case.corpus.docs {
        s.push_str(&format!("doc {}\n", d.uri));
        for e in &d.entries {
            s.push_str(&format!("entry {}\n", entry_fields(e)));
        }
    }
    for op in &case.updates {
        match op {
            UpdateOp::Duplicate { doc, entry } => {
                s.push_str(&format!("update duplicate doc={doc} entry={entry}\n"));
            }
            UpdateOp::InsertFresh { doc, entry, fresh } => {
                s.push_str(&format!(
                    "update insert doc={doc} entry={entry} {}\n",
                    entry_fields(fresh)
                ));
            }
            UpdateOp::Delete { doc, entry } => {
                s.push_str(&format!("update delete doc={doc} entry={entry}\n"));
            }
            UpdateOp::ReplaceText { doc, entry, value } => {
                s.push_str(&format!(
                    "update replace doc={doc} entry={entry} value={value}\n"
                ));
            }
        }
    }
    s.push_str("query\n");
    s.push_str(&case.query_text());
    s.push('\n');
    s
}

fn entry_fields(e: &Entry) -> String {
    format!(
        "id={} keys={} v={} n={} deep={}",
        e.id,
        e.keys.join(","),
        e.v,
        e.n,
        e.deep
            .iter()
            .map(|(k, n)| format!("{k}:{n}"))
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// A parsed repro snippet: corpus + updates + query text (no query
/// model — replay goes straight through `xquery::compile`).
#[derive(Clone, Debug)]
pub struct Repro {
    /// The seed recorded in the header (informational).
    pub seed: u64,
    /// The corpus.
    pub corpus: Corpus,
    /// The update script.
    pub updates: Vec<UpdateOp>,
    /// The query text.
    pub query: String,
}

impl Repro {
    /// Re-run the full differential matrix on this snippet.
    pub fn check(&self) -> Result<(), Failure> {
        check_parts(&self.corpus, &self.query, &self.updates).map(drop)
    }
}

fn field<'a>(tokens: &'a [&str], key: &str) -> Result<&'a str, String> {
    let prefix = format!("{key}=");
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(&prefix))
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn parse_entry(tokens: &[&str]) -> Result<Entry, String> {
    let keys_raw = field(tokens, "keys")?;
    let deep_raw = field(tokens, "deep")?;
    Ok(Entry {
        id: field(tokens, "id")?
            .parse()
            .map_err(|e| format!("bad id: {e}"))?,
        keys: keys_raw.split(',').map(str::to_string).collect(),
        v: field(tokens, "v")?.to_string(),
        n: field(tokens, "n")?.to_string(),
        deep: if deep_raw.is_empty() {
            Vec::new()
        } else {
            deep_raw
                .split(',')
                .map(|pair| {
                    let (k, n) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("bad deep pair `{pair}`"))?;
                    Ok((k.to_string(), n.to_string()))
                })
                .collect::<Result<Vec<_>, String>>()?
        },
    })
}

fn parse_usize(tokens: &[&str], key: &str) -> Result<usize, String> {
    field(tokens, key)?
        .parse()
        .map_err(|e| format!("bad {key}: {e}"))
}

/// Parse snippet text back into a replayable [`Repro`].
pub fn parse(text: &str) -> Result<Repro, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty snippet")?;
    let seed = header
        .split_whitespace()
        .find_map(|t| t.strip_prefix("seed="))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    if !header.starts_with("# fuzz-repro v1") {
        return Err(format!("unrecognized header: {header}"));
    }
    let mut corpus = Corpus { docs: Vec::new() };
    let mut updates = Vec::new();
    let mut query = String::new();
    let mut in_query = false;
    for line in lines {
        if in_query {
            if !query.is_empty() {
                query.push('\n');
            }
            query.push_str(line);
            continue;
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "doc" => {
                let uri = tokens.get(1).ok_or("doc line without uri")?;
                corpus.docs.push(GenDoc {
                    uri: uri.to_string(),
                    entries: Vec::new(),
                });
            }
            "entry" => {
                let d = corpus.docs.last_mut().ok_or("entry before any doc line")?;
                d.entries.push(parse_entry(&tokens[1..])?);
            }
            "update" => {
                let kind = *tokens.get(1).ok_or("update line without kind")?;
                let rest = &tokens[2..];
                let doc = parse_usize(rest, "doc")?;
                let entry = parse_usize(rest, "entry")?;
                updates.push(match kind {
                    "duplicate" => UpdateOp::Duplicate { doc, entry },
                    "insert" => UpdateOp::InsertFresh {
                        doc,
                        entry,
                        fresh: parse_entry(rest)?,
                    },
                    "delete" => UpdateOp::Delete { doc, entry },
                    "replace" => UpdateOp::ReplaceText {
                        doc,
                        entry,
                        value: field(rest, "value")?.to_string(),
                    },
                    other => return Err(format!("unknown update kind `{other}`")),
                });
            }
            "query" => in_query = true,
            other => return Err(format!("unrecognized line: {other} …")),
        }
    }
    if corpus.docs.is_empty() {
        return Err("snippet has no documents".to_string());
    }
    if query.trim().is_empty() {
        return Err("snippet has no query".to_string());
    }
    Ok(Repro {
        seed,
        corpus,
        updates,
        query,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;
    use crate::oracle::GenCase;

    #[test]
    fn snippets_round_trip() {
        for seed in 0..30u64 {
            let case = GenCase::random(seed, &GenConfig::default());
            let text = serialize(&case, seed);
            let repro = parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(repro.seed, seed);
            assert_eq!(repro.corpus, case.corpus, "seed {seed} corpus");
            assert_eq!(repro.updates, case.updates, "seed {seed} updates");
            assert_eq!(repro.query, case.query_text(), "seed {seed} query");
        }
    }
}
