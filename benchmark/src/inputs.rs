//! Everything the seed drives: query texts, the rewritten (never-seen)
//! texts of `plan-cold`, and the update script of `read-write`. The
//! program under test receives only what is generated here.

use ordered_unnesting::workloads::{ALL, COMPOSITE, RANGE};
use service::UpdateOp;

/// One query of the set `Q`.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    /// `q1` … `q10`.
    pub id: &'static str,
    pub text: &'static str,
}

const IDS: [&str; 10] = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10"];

/// `Q`: the ten texts of `workloads::{ALL, RANGE, COMPOSITE}`.
pub fn query_set() -> Vec<Query> {
    ALL.iter()
        .chain(RANGE.iter())
        .chain(COMPOSITE.iter())
        .zip(IDS)
        .map(|(w, id)| Query { id, text: w.query })
        .collect()
}

/// `Q6`: the paper's §5 queries, `q1` … `q6`.
pub fn paper_set() -> Vec<Query> {
    query_set().into_iter().take(ALL.len()).collect()
}

/// Position of `id` in `Q` (its slot in per-id tables).
pub fn id_index(id: &str) -> usize {
    IDS.iter().position(|x| *x == id).expect("known query id")
}

pub fn all_ids() -> &'static [&'static str] {
    &IDS
}

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The tag of a query's outermost result constructor: the one whose
/// closing tag comes last in the text.
fn result_tag(text: &str) -> &str {
    let close = text.rfind("</").expect("query constructs an element");
    let rest = &text[close + 2..];
    &rest[..rest.find('>').expect("closing tag ends")]
}

/// Rewrite the result-element tag of `text` to `tag + suffix`. The
/// rewritten query has a fingerprint no earlier query had (a full
/// plan-cache miss) and the same output up to the suffix.
pub fn retag(text: &str, suffix: &str) -> String {
    let tag = result_tag(text);
    let open_pat = format!("<{tag}");
    let open = text
        .match_indices(&open_pat)
        .map(|(i, _)| i)
        .find(|&i| {
            text[i + open_pat.len()..]
                .chars()
                .next()
                .is_some_and(|c| c == '>' || c.is_whitespace())
        })
        .expect("opening tag of the result element");
    let close = text.rfind("</").expect("checked by result_tag");
    let mut out = String::with_capacity(text.len() + 2 * suffix.len());
    out.push_str(&text[..open + open_pat.len()]);
    out.push_str(suffix);
    out.push_str(&text[open + open_pat.len()..close + 2 + tag.len()]);
    out.push_str(suffix);
    out.push_str(&text[close + 2 + tag.len()..]);
    out
}

/// An alpha-renamed, re-spaced copy of `text`: every variable gets
/// `var_suffix` appended and every whitespace run becomes `gap`. Same
/// normalized fingerprint (a plan-cache hit), never-seen text (no
/// text-memo hit).
pub fn rename(text: &str, var_suffix: &str, gap: &str) -> String {
    let mut out = String::with_capacity(text.len() + 64);
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '$' {
            out.push(c);
            while let Some(&n) = chars.peek() {
                if n.is_alphanumeric() || n == '_' {
                    out.push(n);
                    chars.next();
                } else {
                    break;
                }
            }
            out.push_str(var_suffix);
        } else if c.is_whitespace() {
            while chars.peek().is_some_and(|n| n.is_whitespace()) {
                chars.next();
            }
            out.push_str(gap);
        } else {
            out.push(c);
        }
    }
    out
}

/// Generator of `plan-cold` texts: three of four are retagged (unique
/// fingerprint), every fourth is a renamed copy of the text made three
/// operations earlier (fingerprint hit, text miss).
pub struct ColdTexts {
    queries: Vec<Query>,
    salt: u64,
    n: u64,
    recent: Vec<(usize, String, String)>,
}

/// One generated text: which query of `Q` it came from, and the suffix
/// to strip from its output before comparing with the reference.
pub struct ColdText {
    pub query: usize,
    pub text: String,
    pub suffix: String,
    /// True for the renamed copies (expected fingerprint hits).
    pub renamed: bool,
}

impl ColdTexts {
    pub fn new(seed: u64) -> ColdTexts {
        ColdTexts {
            queries: query_set(),
            salt: Rng::new(seed ^ 0xC01D).next_u64() & 0xFFFF,
            n: 0,
            recent: Vec::new(),
        }
    }

    pub fn next_text(&mut self) -> ColdText {
        let n = self.n;
        self.n += 1;
        if n % 4 == 3 {
            let (query, text, suffix) = self.recent.remove(0);
            self.recent.clear();
            let gap = if n % 8 == 3 { " " } else { "  " };
            return ColdText {
                query,
                text: rename(&text, &format!("_r{n}"), gap),
                suffix,
                renamed: true,
            };
        }
        // Fresh texts walk `Q` round-robin on their own counter, so every
        // id gets the same share of misses.
        let query = ((n - n / 4) % self.queries.len() as u64) as usize;
        let fresh = self.retagged(query, n);
        self.recent
            .push((query, fresh.text.clone(), fresh.suffix.clone()));
        fresh
    }

    /// A never-seen text of one given query, outside the walk above
    /// (the traced pass needs several misses of the same query).
    pub fn fresh_for(&mut self, query: usize) -> ColdText {
        self.n += 1;
        self.retagged(query, self.n - 1)
    }

    fn retagged(&self, query: usize, n: u64) -> ColdText {
        let suffix = format!("-u{:04x}x{n}", self.salt);
        ColdText {
            query,
            text: retag(self.queries[query].text, &suffix),
            suffix,
            renamed: false,
        }
    }
}

/// The cyclic, self-inverse update script of `read-write`: insert a
/// book → replace its title text → restore it → delete the book. After
/// every fourth update the catalog is back in its base state, so a
/// query that saw `n` updates is checked against state `n mod 4`.
///
/// Update targets are addressed by path and the *first* match wins, so
/// the book goes in as the last child of the first book: the path
/// `/bib/book/book` then names it and nothing else.
pub fn update_script(seed: u64) -> [UpdateOp; 4] {
    let mut rng = Rng::new(seed ^ 0x005C_21F7);
    let tag = rng.next_u64() & 0xFFFF;
    let year = 1994 + rng.next_u64() % 9;
    let price = 20 + rng.next_u64() % 80;
    let title = format!("Ordered Contexts {tag:04x}");
    let other = format!("Unordered Contexts {tag:04x}");
    let uri = || "bib.xml".to_string();
    [
        UpdateOp::InsertXml {
            uri: uri(),
            parent: "/bib/book".to_string(),
            xml: format!(
                "<book year=\"{year}\"><title>{title}</title>\
                 <author><last>Xq{tag:04x}</last><first>Zed</first></author>\
                 <publisher>Bench Press</publisher><price>{price}.95</price></book>"
            ),
        },
        UpdateOp::ReplaceText {
            uri: uri(),
            path: "/bib/book/book/title".to_string(),
            text: other,
        },
        UpdateOp::ReplaceText {
            uri: uri(),
            path: "/bib/book/book/title".to_string(),
            text: title,
        },
        UpdateOp::DeleteFirst {
            uri: uri(),
            path: "/bib/book/book".to_string(),
        },
    ]
}

/// Number of distinct catalog states the script cycles through.
pub const UPDATE_STATES: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_set_is_q1_to_q10_and_paper_set_its_prefix() {
        let q = query_set();
        assert_eq!(q.len(), 10);
        assert_eq!(q[0].id, "q1");
        assert_eq!(q[9].id, "q10");
        assert_eq!(paper_set().len(), 6);
        assert_eq!(id_index("q7"), 6);
    }

    #[test]
    fn retag_renames_only_the_outermost_constructor() {
        let q1 = query_set()[0].text;
        let t = retag(q1, "-u1");
        assert!(t.contains("<author-u1>") && t.contains("</author-u1>"));
        assert!(t.contains("$d1//author)"), "paths are untouched");
        assert!(t.contains("<name>{ $a1 }</name>"));
        assert_eq!(t.replace("-u1", ""), q1);
        let q2 = query_set()[1].text;
        let t = retag(q2, "-u2");
        assert!(t.contains("<minprice-u2 title=") && t.contains("</minprice-u2>"));
    }

    #[test]
    fn rename_touches_variables_and_spacing_only() {
        let t = rename("for $a1 in\n   $d//x return <t>{ $a1 }</t>", "_r", " ");
        assert_eq!(t, "for $a1_r in $d_r//x return <t>{ $a1_r }</t>");
    }

    #[test]
    fn cold_texts_are_unique_and_every_fourth_is_a_rename() {
        let mut g = ColdTexts::new(7);
        let texts: Vec<ColdText> = (0..40).map(|_| g.next_text()).collect();
        let mut seen = std::collections::HashSet::new();
        assert!(texts.iter().all(|t| seen.insert(t.text.clone())));
        assert_eq!(texts.iter().filter(|t| t.renamed).count(), 10);
        assert!(texts[3].renamed && texts[3].query == texts[0].query);
        let fresh: Vec<usize> = texts
            .iter()
            .filter(|t| !t.renamed)
            .map(|t| t.query)
            .collect();
        assert_eq!(&fresh[..11], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0]);
        // Same seed, same texts.
        let mut h = ColdTexts::new(7);
        assert_eq!(h.next_text().text, texts[0].text);
        assert_ne!(ColdTexts::new(8).next_text().text, texts[0].text);
    }
}
