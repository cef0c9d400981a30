//! The query language: Mongo-shell-style method chains.
//!
//! Grammar (whitespace-insensitive between tokens):
//!
//! ```text
//! query  := "db" "." ident "." verb "(" [json] ")" modifier*
//! verb   := "find" | "count" | "remove"
//! modifier := "." "sort" "(" json ")" | "." "limit" "(" int ")"
//! ```

use quepa_pdm::{text, Value};

use crate::error::{DocError, Result};
use crate::filter::Filter;

/// What the query does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryVerb {
    /// Return matching documents.
    Find,
    /// Return the number of matching documents (an aggregate — the
    /// polystore Validator refuses to augment these).
    Count,
    /// Delete matching documents.
    Remove,
}

/// A parsed query: collection + verb + filter + modifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct DocQuery {
    /// Target collection.
    pub collection: String,
    /// Find/count/remove.
    pub verb: QueryVerb,
    /// Compiled filter.
    pub filter: Filter,
    /// Optional `(field, ascending)` sort.
    pub sort: Option<(String, bool)>,
    /// Optional result cap.
    pub limit: Option<usize>,
}

impl DocQuery {
    /// Parses the textual form.
    pub fn parse(input: &str) -> Result<DocQuery> {
        let mut p = Chars { s: input, pos: 0 };
        p.skip_ws();
        p.expect_word("db")?;
        p.expect_char('.')?;
        let collection = p.ident()?;
        p.expect_char('.')?;
        let verb_name = p.ident()?;
        let verb = match verb_name.as_str() {
            "find" => QueryVerb::Find,
            "count" => QueryVerb::Count,
            "remove" => QueryVerb::Remove,
            other => return Err(DocError::Syntax(format!("unknown verb `{other}`"))),
        };
        let arg = p.paren_arg()?;
        let filter_spec = if arg.trim().is_empty() {
            Value::object(std::iter::empty::<(String, Value)>())
        } else {
            text::parse(arg.trim())?
        };
        let filter = Filter::compile(&filter_spec)?;

        let mut sort = None;
        let mut limit = None;
        loop {
            p.skip_ws();
            if !p.eat_char('.') {
                break;
            }
            p.skip_ws();
            let m = p.ident()?;
            let arg = p.paren_arg()?;
            match m.as_str() {
                "sort" => {
                    let spec = text::parse(arg.trim())?;
                    let obj = spec
                        .as_object()
                        .ok_or_else(|| DocError::Syntax("sort() requires an object".into()))?;
                    if obj.len() != 1 {
                        return Err(DocError::Syntax("sort() requires exactly one field".into()));
                    }
                    let (field, dir) = obj.iter().next().expect("len checked");
                    let asc = match dir.as_int() {
                        Some(1) => true,
                        Some(-1) => false,
                        _ => return Err(DocError::Syntax("sort direction must be 1 or -1".into())),
                    };
                    sort = Some((field.to_owned(), asc));
                }
                "limit" => {
                    let n: usize = arg
                        .trim()
                        .parse()
                        .map_err(|_| DocError::Syntax("limit() requires an integer".into()))?;
                    limit = Some(n);
                }
                other => return Err(DocError::Syntax(format!("unknown modifier `{other}`"))),
            }
        }
        p.skip_ws();
        if p.pos != p.s.len() {
            return Err(DocError::Syntax(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(DocQuery { collection, verb, filter, sort, limit })
    }
}

struct Chars<'a> {
    s: &'a str,
    pos: usize,
}

impl Chars<'_> {
    fn skip_ws(&mut self) {
        while self.s[self.pos..].starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat_char(&mut self, c: char) -> bool {
        if self.s[self.pos..].starts_with(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, c: char) -> Result<()> {
        if self.eat_char(c) {
            Ok(())
        } else {
            Err(DocError::Syntax(format!("expected `{c}` at byte {}", self.pos)))
        }
    }

    fn expect_word(&mut self, w: &str) -> Result<()> {
        if self.s[self.pos..].starts_with(w) {
            self.pos += w.len();
            Ok(())
        } else {
            Err(DocError::Syntax(format!("expected `{w}` at byte {}", self.pos)))
        }
    }

    fn ident(&mut self) -> Result<String> {
        let start = self.pos;
        while self.s[self.pos..]
            .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            self.pos += 1;
        }
        if self.pos == start {
            Err(DocError::Syntax(format!("expected identifier at byte {start}")))
        } else {
            Ok(self.s[start..self.pos].to_owned())
        }
    }

    /// Consumes `( … )`, returning the raw text between balanced parens.
    /// Parentheses inside string literals are ignored.
    fn paren_arg(&mut self) -> Result<String> {
        self.skip_ws();
        self.expect_char('(')?;
        let start = self.pos;
        let mut depth = 1usize;
        let mut in_str = false;
        let mut escaped = false;
        for (i, c) in self.s[start..].char_indices() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        let arg = self.s[start..start + i].to_owned();
                        self.pos = start + i + 1;
                        return Ok(arg);
                    }
                }
                _ => {}
            }
        }
        Err(DocError::Syntax("unbalanced parentheses".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_find() {
        let q = DocQuery::parse(r#"db.albums.find({"title": "Wish"})"#).unwrap();
        assert_eq!(q.collection, "albums");
        assert_eq!(q.verb, QueryVerb::Find);
        assert!(q.sort.is_none());
        assert!(q.limit.is_none());
    }

    #[test]
    fn empty_filter() {
        let q = DocQuery::parse("db.albums.find()").unwrap();
        assert_eq!(q.filter, Filter::All);
        let q = DocQuery::parse("db.albums.find({})").unwrap();
        assert_eq!(q.filter, Filter::All);
    }

    #[test]
    fn modifiers() {
        let q = DocQuery::parse(
            r#"db.albums.find({"year":{"$gte":1990}}).sort({"year": -1}).limit(5)"#,
        )
        .unwrap();
        assert_eq!(q.sort, Some(("year".into(), false)));
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn count_and_remove() {
        assert_eq!(DocQuery::parse("db.c.count()").unwrap().verb, QueryVerb::Count);
        assert_eq!(DocQuery::parse(r#"db.c.remove({"x":1})"#).unwrap().verb, QueryVerb::Remove);
    }

    #[test]
    fn strings_containing_parens_and_quotes() {
        let q = DocQuery::parse(r#"db.c.find({"t": "a (weird) \"title\""})"#).unwrap();
        assert!(matches!(q.filter, Filter::Field { .. }));
    }

    #[test]
    fn whitespace_tolerance() {
        let q = DocQuery::parse("  db.c.find( { \"a\" : 1 } ) . limit( 3 )  ").unwrap();
        assert_eq!(q.limit, Some(3));
    }

    #[test]
    fn syntax_errors() {
        assert!(DocQuery::parse("albums.find({})").is_err());
        assert!(DocQuery::parse("db.albums.fetch({})").is_err());
        assert!(DocQuery::parse("db.albums.find({)").is_err());
        assert!(DocQuery::parse("db.albums.find({}) extra").is_err());
        assert!(DocQuery::parse("db.albums.find({}).sort({\"a\":2})").is_err());
        assert!(DocQuery::parse("db.albums.find({}).sort({\"a\":1,\"b\":1})").is_err());
        assert!(DocQuery::parse("db.albums.find({}).limit(x)").is_err());
        assert!(DocQuery::parse("db.albums.find({}).skip(3)").is_err());
        assert!(DocQuery::parse("db.albums.find({\"a\" 1})").is_err());
    }
}
