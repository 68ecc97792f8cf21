//! In-workspace stand-in for the `serde_json` crate: prints and parses JSON
//! text for the `serde` shim's [`serde::Value`] model.
//!
//! Numbers are emitted with Rust's shortest-round-trip float formatting,
//! written straight into the output, so every `f32`/`f64`/integer value the
//! workspace serializes survives a print/parse cycle exactly.
//!
//! Strings are written and parsed in time linear in their length: each run
//! of bytes up to the next quote, backslash (or, when writing, control
//! byte) is copied in one step. That is what lets the wire protocol carry a
//! verify frame's image as one long base64 string.
//!
//! Values nest at most 128 deep: the parser recurses once a level, and text
//! from a socket must not be able to overflow its stack.

use std::fmt::{self, Write as _};

use serde::{DeError, Deserialize, Serialize, Value};

/// Serialization / deserialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Returns [`Error`] when the value contains a non-finite number.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out)?;
    Ok(out)
}

/// Parses JSON text into a deserializable type.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<'a, T: Deserialize<'a>>(s: &'a str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", parser.pos)));
    }
    Ok(T::from_value(&value)?)
}

fn write_value(v: &Value, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(x) => {
            if !x.is_finite() {
                return Err(Error(format!("cannot serialize non-finite number {x}")));
            }
            // `fmt::Write` for `String` cannot fail.
            if x.fract() == 0.0 && x.abs() < 9.0e15 && !(*x == 0.0 && x.is_sign_negative()) {
                let _ = write!(out, "{}", *x as i64);
            } else {
                let _ = write!(out, "{x}");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

/// The length of the run of `bytes` before the first byte `stop` picks,
/// sixteen bytes a test so that the scan vectorizes.
fn run_until(bytes: &[u8], stop: impl Fn(u8) -> bool) -> usize {
    let mut at = 0;
    for chunk in bytes.chunks_exact(16) {
        if chunk.iter().fold(false, |hit, &b| hit | stop(b)) {
            break;
        }
        at += 16;
    }
    at + bytes[at..]
        .iter()
        .position(|&b| stop(b))
        .unwrap_or(bytes.len() - at)
}

/// Writes `s` quoted, copying each run of bytes that needs no escape in one
/// step. The bytes that do (`"`, `\`, controls) are ASCII, so every run
/// starts and ends on a character boundary.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut start = 0;
    loop {
        let end = start
            + run_until(&s.as_bytes()[start..], |b| {
                b == b'"' || b == b'\\' || b < 0x20
            });
        out.push_str(&s[start..end]);
        let Some(&b) = s.as_bytes().get(end) else {
            break;
        };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = end + 1;
    }
    out.push('"');
}

/// How deep values may nest (the outermost value is at depth 1).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Values open around the parser's position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    /// Parses one value, refusing to nest deeper than [`MAX_DEPTH`]: each
    /// level is a frame of the parser's recursion, and a line of a hundred
    /// thousand `[` would otherwise overflow the thread's stack, which
    /// aborts the process.
    fn parse_value(&mut self) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "values nest deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = self.parse_level();
        self.depth -= 1;
        value
    }

    fn parse_level(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(Error(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(Error(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid utf-8 in number".to_string()))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| Error(format!("bad number `{text}` at byte {start}")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(Error("unterminated string".to_string()));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest
                        .get(1)
                        .ok_or_else(|| Error("unterminated escape".to_string()))?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error("bad \\u escape".to_string()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".to_string()))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".to_string()))?,
                            );
                        }
                        other => {
                            return Err(Error(format!("bad escape `\\{}`", *other as char)));
                        }
                    }
                }
                _ => {
                    // Copy the run up to the next quote or backslash
                    // verbatim, in one step: both are ASCII, so the run is
                    // whole characters of the input text.
                    let run = run_until(rest, |b| b == b'"' || b == b'\\');
                    let s = std::str::from_utf8(&rest[..run])
                        .map_err(|_| Error("invalid utf-8 in string".to_string()))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips_through_text() {
        let v = Value::obj([
            ("name", Value::Str("gpu\"poly\n".to_string())),
            (
                "nums",
                Value::Arr(vec![
                    Value::Num(1.0),
                    Value::Num(0.1f32 as f64),
                    Value::Num(-3.5e-7),
                ]),
            ),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
        ]);
        struct Wrap(Value);
        impl Serialize for Wrap {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let text = to_string(&Wrap(v.clone())).unwrap();
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        assert_eq!(parser.parse_value().unwrap(), v);
    }

    #[test]
    fn from_str_rejects_garbage() {
        assert!(from_str::<f64>("{ not json").is_err());
        assert!(from_str::<f64>("1 2").is_err());
        assert!(from_str::<f64>("").is_err());
    }

    #[test]
    fn strings_round_trip_with_escapes_and_multibyte_text() {
        for text in [
            "",
            "plain",
            "q\"uote\\back\nline\r\ttab\u{1}\u{1f}",
            "\"leading and trailing\\",
            "π ≈ 3.14159, ünïcödé ✓ 🦀",
        ] {
            let json = to_string(&text.to_string()).unwrap();
            assert!(!json.contains('\n'), "{json}");
            assert_eq!(from_str::<String>(&json).unwrap(), text, "{json}");
        }
        // Escapes the writer never emits still parse.
        let parsed: String = from_str(r#""a\/b\u00e9\b\f""#).unwrap();
        assert_eq!(parsed, "a/b\u{e9}\u{8}\u{c}");
        assert!(from_str::<String>(r#""open"#).is_err());
        assert!(from_str::<String>(r#""bad \q escape""#).is_err());
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // A parser that checks the rest of the text for each character it
        // copies takes tens of seconds on these 560 KB; a linear one, well
        // under a millisecond.
        let long = "AbC+/0=".repeat(40_000);
        let json = to_string(&vec![long.clone(), long.clone()]).unwrap();
        let started = std::time::Instant::now();
        let back: Vec<String> = from_str(&json).unwrap();
        assert!(started.elapsed().as_secs_f64() < 1.0);
        assert_eq!(back, [long.clone(), long]);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(from_str::<Value>(&objects).is_err());
        // Unclosed, as a hostile frame would send it: refused at the limit,
        // long before the stack runs out.
        let err = from_str::<Value>(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.to_string().contains("nest deeper"), "{err}");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1f32, 1.0, -2.25e-30, f32::MAX] {
            let text = to_string(&x).unwrap();
            let back: f32 = from_str(&text).unwrap();
            assert_eq!(back, x, "{text}");
        }
    }
}
