//! A small, strict XML parser producing [`Document`]s.
//!
//! Supports the XML subset used by the paper's documents: prolog, DOCTYPE
//! with internal subset (handed to [`crate::dtd`]), elements, attributes,
//! character data with the five predefined entities plus numeric character
//! references, comments, CDATA sections, and processing instructions
//! (skipped). No namespaces, no external entities.

use std::fmt;

use crate::document::{Document, DocumentBuilder};
use crate::dtd::Dtd;

/// Parse error with byte offset and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse `input` into a document with the given catalog `uri`.
pub fn parse_document(uri: &str, input: &str) -> Result<Document, ParseError> {
    let mut p = Parser {
        s: input.as_bytes(),
        pos: 0,
        builder: DocumentBuilder::new(uri),
    };
    p.document()?;
    Ok(p.builder.finish())
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
    builder: DocumentBuilder,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: msg.into(),
        })
    }

    fn eof(&self) -> bool {
        self.pos >= self.s.len()
    }

    fn peek(&self) -> u8 {
        self.s[self.pos]
    }

    fn starts_with(&self, pat: &str) -> bool {
        self.s[self.pos..].starts_with(pat.as_bytes())
    }

    fn skip_ws(&mut self) {
        while !self.eof() && self.peek().is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, pat: &str) -> Result<(), ParseError> {
        if self.starts_with(pat) {
            self.pos += pat.len();
            Ok(())
        } else {
            self.err(format!("expected `{pat}`"))
        }
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while !self.eof() {
            let c = self.peek();
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected name");
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn document(&mut self) -> Result<(), ParseError> {
        self.prolog()?;
        self.skip_ws();
        if self.eof() || self.peek() != b'<' {
            return self.err("expected root element");
        }
        self.element()?;
        self.skip_misc()?;
        if !self.eof() {
            return self.err("content after root element");
        }
        Ok(())
    }

    fn prolog(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            // XML declaration: skip to `?>`.
            while !self.eof() && !self.starts_with("?>") {
                self.pos += 1;
            }
            self.expect("?>")?;
        }
        self.skip_misc()?;
        if self.starts_with("<!DOCTYPE") {
            self.doctype()?;
            self.skip_misc()?;
        }
        Ok(())
    }

    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.comment()?;
            } else if self.starts_with("<?") {
                self.pi()?;
            } else {
                return Ok(());
            }
        }
    }

    fn comment(&mut self) -> Result<(), ParseError> {
        self.expect("<!--")?;
        while !self.eof() && !self.starts_with("-->") {
            self.pos += 1;
        }
        self.expect("-->")
    }

    fn pi(&mut self) -> Result<(), ParseError> {
        self.expect("<?")?;
        while !self.eof() && !self.starts_with("?>") {
            self.pos += 1;
        }
        self.expect("?>")
    }

    fn doctype(&mut self) -> Result<(), ParseError> {
        self.expect("<!DOCTYPE")?;
        self.skip_ws();
        let doctype = self.name()?;
        self.skip_ws();
        if !self.eof() && self.peek() == b'[' {
            self.pos += 1;
            let start = self.pos;
            // The internal subset of our DTD dialect contains no nested `]`.
            while !self.eof() && self.peek() != b']' {
                self.pos += 1;
            }
            let subset = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
            self.expect("]")?;
            let dtd = Dtd::parse_internal_subset(&doctype, &subset).map_err(|m| ParseError {
                offset: start,
                message: m,
            })?;
            self.builder.set_dtd(dtd);
        }
        self.skip_ws();
        self.expect(">")
    }

    fn element(&mut self) -> Result<(), ParseError> {
        self.expect("<")?;
        let name = self.name()?;
        self.builder.start_element(&name);
        loop {
            self.skip_ws();
            if self.eof() {
                return self.err("unterminated start tag");
            }
            match self.peek() {
                b'>' => {
                    self.pos += 1;
                    break;
                }
                b'/' => {
                    self.expect("/>")?;
                    self.builder.end_element();
                    return Ok(());
                }
                _ => {
                    let attr = self.name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.attr_value()?;
                    self.builder.attribute(&attr, &value);
                }
            }
        }
        // content
        loop {
            if self.eof() {
                return self.err(format!("missing end tag </{name}>"));
            }
            if self.starts_with("</") {
                self.expect("</")?;
                let end = self.name()?;
                if end != name {
                    return self.err(format!("mismatched end tag </{end}>, expected </{name}>"));
                }
                self.skip_ws();
                self.expect(">")?;
                self.builder.end_element();
                return Ok(());
            } else if self.starts_with("<!--") {
                self.comment()?;
            } else if self.starts_with("<![CDATA[") {
                self.cdata()?;
            } else if self.starts_with("<?") {
                self.pi()?;
            } else if self.peek() == b'<' {
                self.element()?;
            } else {
                self.char_data()?;
            }
        }
    }

    fn cdata(&mut self) -> Result<(), ParseError> {
        self.expect("<![CDATA[")?;
        let start = self.pos;
        while !self.eof() && !self.starts_with("]]>") {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
        self.expect("]]>")?;
        if !text.is_empty() {
            self.builder.text(&text);
        }
        Ok(())
    }

    fn attr_value(&mut self) -> Result<String, ParseError> {
        if self.eof() || (self.peek() != b'"' && self.peek() != b'\'') {
            return self.err("expected quoted attribute value");
        }
        let q = self.peek();
        self.pos += 1;
        let mut out = String::new();
        while !self.eof() && self.peek() != q {
            if self.peek() == b'&' {
                out.push(self.entity()?);
            } else {
                out.push(self.peek() as char);
                self.pos += 1;
            }
        }
        if self.eof() {
            return self.err("unterminated attribute value");
        }
        self.pos += 1;
        Ok(out)
    }

    fn char_data(&mut self) -> Result<(), ParseError> {
        let mut out = String::new();
        while !self.eof() && self.peek() != b'<' {
            if self.peek() == b'&' {
                out.push(self.entity()?);
            } else {
                // Collect a raw run of bytes up to the next delimiter,
                // decoding UTF-8 lazily at the end of the run.
                let start = self.pos;
                while !self.eof() && self.peek() != b'<' && self.peek() != b'&' {
                    self.pos += 1;
                }
                out.push_str(&String::from_utf8_lossy(&self.s[start..self.pos]));
            }
        }
        // Whitespace-only runs between elements are not materialized: the
        // paper's data-oriented documents treat them as insignificant.
        if !out.trim().is_empty() {
            self.builder.text(&out);
        }
        Ok(())
    }

    fn entity(&mut self) -> Result<char, ParseError> {
        self.expect("&")?;
        if !self.eof() && self.peek() == b'#' {
            self.pos += 1;
            let (radix, digits_start) =
                if !self.eof() && (self.peek() == b'x' || self.peek() == b'X') {
                    self.pos += 1;
                    (16, self.pos)
                } else {
                    (10, self.pos)
                };
            while !self.eof() && self.peek() != b';' {
                self.pos += 1;
            }
            let digits =
                std::str::from_utf8(&self.s[digits_start..self.pos]).map_err(|_| ParseError {
                    offset: digits_start,
                    message: "bad charref".into(),
                })?;
            self.expect(";")?;
            let code = u32::from_str_radix(digits, radix).map_err(|_| ParseError {
                offset: digits_start,
                message: "bad charref".into(),
            })?;
            return char::from_u32(code).ok_or_else(|| ParseError {
                offset: digits_start,
                message: "bad charref".into(),
            });
        }
        let name = self.name()?;
        self.expect(";")?;
        match name.as_str() {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "quot" => Ok('"'),
            "apos" => Ok('\''),
            other => self.err(format!("unknown entity &{other};")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    #[test]
    fn parses_simple_document() {
        let d = parse_document(
            "t.xml",
            r#"<?xml version="1.0"?>
            <bib>
              <book year="1994">
                <title>TCP/IP Illustrated</title>
                <author><last>Stevens</last><first>W.</first></author>
              </book>
            </bib>"#,
        )
        .unwrap();
        let root = d.root_element().unwrap();
        assert_eq!(d.node_name(root), Some("bib"));
        let book = d.children(root).next().unwrap();
        assert_eq!(d.text(d.attribute(book, "year").unwrap()), "1994");
        let title = d.children(book).next().unwrap();
        assert_eq!(d.string_value(title), "TCP/IP Illustrated");
    }

    #[test]
    fn parses_doctype_with_internal_subset() {
        let d = parse_document(
            "bib.xml",
            r#"<!DOCTYPE bib [
              <!ELEMENT bib (book*)>
              <!ELEMENT book (title)>
              <!ELEMENT title (#PCDATA)>
            ]>
            <bib><book><title>X</title></book></bib>"#,
        )
        .unwrap();
        let dtd = d.dtd().unwrap();
        assert_eq!(dtd.doctype, "bib");
        assert!(dtd.element("book").is_some());
    }

    #[test]
    fn entities_and_charrefs() {
        let d = parse_document("e.xml", "<a b=\"x&amp;y\">1 &lt; 2 &#65;&#x42;</a>").unwrap();
        let a = d.root_element().unwrap();
        assert_eq!(d.text(d.attribute(a, "b").unwrap()), "x&y");
        assert_eq!(d.string_value(a), "1 < 2 AB");
    }

    #[test]
    fn self_closing_comments_cdata() {
        let d = parse_document(
            "c.xml",
            "<a><!-- note --><b/><![CDATA[<raw>]]><?pi data?></a>",
        )
        .unwrap();
        let a = d.root_element().unwrap();
        let kids: Vec<_> = d.children(a).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(d.node_name(kids[0]), Some("b"));
        assert_eq!(d.kind(kids[1]), NodeKind::Text);
        assert_eq!(d.text(kids[1]), "<raw>");
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let d = parse_document("w.xml", "<a>\n  <b>x</b>\n  <b>y</b>\n</a>").unwrap();
        let a = d.root_element().unwrap();
        assert_eq!(d.children(a).count(), 2);
    }

    #[test]
    fn error_mismatched_tags() {
        let e = parse_document("x.xml", "<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"), "{e}");
    }

    #[test]
    fn error_trailing_garbage() {
        assert!(parse_document("x.xml", "<a/>junk").is_err());
        assert!(parse_document("x.xml", "<a>").is_err());
        assert!(parse_document("x.xml", "no markup").is_err());
    }

    #[test]
    fn unknown_entity_is_an_error() {
        assert!(parse_document("x.xml", "<a>&nope;</a>").is_err());
    }
}
