//! Text format for [`Value`]: a strict JSON subset with a hand-written
//! recursive-descent parser and a compact printer.
//!
//! The format is used for fixtures, examples, debugging output and the
//! document store's external representation. It accepts standard JSON with
//! the following deviations:
//!
//! * integers without fraction/exponent parse as [`Value::Int`] (and print
//!   back without a decimal point); everything else numeric is a
//!   [`Value::Float`];
//! * object fields are re-ordered into sorted order (the [`Value`] model is
//!   canonical by construction);
//! * duplicate fields keep the *last* occurrence, like most JSON parsers.

use crate::error::{PdmError, Result};
use crate::fields::Fields;
use crate::value::Value;

/// Parses a value from its text representation.
pub fn parse(input: &str) -> Result<Value> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

/// Renders a value in compact form (no insignificant whitespace).
pub fn to_string(value: &Value) -> String {
    let mut out = String::with_capacity(64);
    write_value(value, &mut out);
    out
}

/// Renders a value with two-space indentation, for human consumption.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::with_capacity(128);
    write_pretty(value, 0, &mut out);
    out
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(value: &Value, indent: usize, out: &mut String) {
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(v, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

fn push_indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_float(f: f64, out: &mut String) {
    if f.is_infinite() {
        // Not representable in JSON; print null like serde_json does.
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep a fraction marker so the value round-trips as a float.
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&f.to_string());
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> PdmError {
        PdmError::Parse { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.err(format!("unexpected byte `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected keyword `{kw}`")))
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Fields::new()));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(fields.into_iter().collect())),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            // High surrogate: a low surrogate must follow.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("expected low surrogate"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                        } else {
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // Reassemble multi-byte UTF-8 sequences: the input is a
                    // &str so the bytes are guaranteed valid.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char).to_digit(16).ok_or_else(|| self.err("invalid hex digit"))?;
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            let f: f64 = s.parse().map_err(|_| self.err("invalid float literal"))?;
            Ok(Value::Float(f))
        } else {
            match s.parse::<i64>() {
                Ok(i) => Ok(Value::Int(i)),
                // Integer overflow: fall back to float like JSON parsers do.
                Err(_) => {
                    let f: f64 = s.parse().map_err(|_| self.err("invalid int literal"))?;
                    Ok(Value::Float(f))
                }
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) -> String {
        to_string(&parse(s).unwrap())
    }

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::str("hi"));
    }

    #[test]
    fn containers() {
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(Default::default()));
        let v = parse(r#"{"b":1,"a":[true,null]}"#).unwrap();
        // Fields come back sorted (canonical order).
        assert_eq!(to_string(&v), r#"{"a":[true,null],"b":1}"#);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = parse(r#""line\nquote\"tab\tAé""#).unwrap();
        assert_eq!(v, Value::str("line\nquote\"tab\tAé"));
        let printed = to_string(&v);
        assert_eq!(parse(&printed).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v, Value::str("😀"));
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(roundtrip("\"caffè\""), "\"caffè\"");
    }

    #[test]
    fn float_int_distinction_survives() {
        assert_eq!(roundtrip("3"), "3");
        assert_eq!(roundtrip("3.0"), "3.0");
    }

    #[test]
    fn big_int_falls_back_to_float() {
        let v = parse("99999999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse("[1,").unwrap_err();
        match e {
            PdmError::Parse { offset, .. } => assert_eq!(offset, 3),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn duplicate_fields_keep_last() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Value::Int(2)));
    }

    #[test]
    fn pretty_printer_is_reparsable() {
        let v = parse(r#"{"title":"Wish","tracks":[{"n":1},{"n":2}],"year":1992}"#).unwrap();
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn nested_depth() {
        let mut s = String::new();
        for _ in 0..100 {
            s.push('[');
        }
        s.push('1');
        for _ in 0..100 {
            s.push(']');
        }
        assert!(parse(&s).is_ok());
    }
}
