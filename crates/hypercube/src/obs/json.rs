//! A minimal JSON value model, parser and writers for the observability
//! exports.
//!
//! The workspace has no serialization framework (the build environment is
//! offline), so every persisted format is hand-written text. This module
//! gives the observability
//! layer the two halves it needs: exact writers for [`Trace`] and the
//! metrics report, and a strict parser used by tests and the CLI's
//! `trace-check` command to validate emitted files round-trip.
//!
//! `f64` values are written with Rust's `Display`, which produces the
//! shortest decimal string that parses back to the identical bits — so
//! virtual timestamps survive a write/parse cycle exactly.

use crate::address::NodeId;
use crate::sim::{Tag, Trace, TraceEvent, TraceKind};
use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (all JSON numbers are read as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected, nesting capped at [`MAX_DEPTH`]).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut tok = Tokenizer::new(text);
        let first = tok.expect_token()?;
        let value = Json::build(&mut tok, first)?;
        tok.finish()?;
        Ok(value)
    }

    /// Builds the value that `first` starts from the tokens after it.
    /// Iterative, so only the tokenizer's depth cap bounds nesting.
    pub(crate) fn build<'a>(tok: &mut Tokenizer<'a>, first: Token<'a>) -> Result<Json, String> {
        // Open containers, innermost last, each with the key its next
        // member belongs to (objects only).
        let mut open: Vec<(Json, Option<String>)> = Vec::new();
        let mut token = first;
        loop {
            let value = match token {
                Token::BeginArray | Token::BeginObject => {
                    let container = if matches!(token, Token::BeginArray) {
                        Json::Arr(Vec::new())
                    } else {
                        Json::Obj(Vec::new())
                    };
                    open.push((container, None));
                    token = tok.expect_token()?;
                    continue;
                }
                Token::Key(k) => {
                    open.last_mut().expect("keys occur inside objects").1 = Some(k.into_owned());
                    token = tok.expect_token()?;
                    continue;
                }
                Token::EndArray | Token::EndObject => open.pop().expect("brackets balance").0,
                Token::Str(s) => Json::Str(s.into_owned()),
                Token::Num(x) => Json::Num(x),
                Token::Bool(b) => Json::Bool(b),
                Token::Null => Json::Null,
            };
            match open.last_mut() {
                None => return Ok(value),
                Some((Json::Arr(items), _)) => items.push(value),
                Some((Json::Obj(fields), key)) => {
                    fields.push((key.take().expect("a key precedes each member"), value))
                }
                Some(_) => unreachable!("only containers are open"),
            }
            token = tok.expect_token()?;
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(num_as_u64)
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A JSON number as an unsigned integer: non-negative, integral and
/// exactly representable.
fn num_as_u64(x: f64) -> Option<u64> {
    (x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53)).then_some(x as u64)
}

/// The deepest nesting of arrays and objects any reader here accepts: far
/// above what the workspace's writers emit (run files nest three deep),
/// and low enough that deep input is an `Err`, not a stack overflow in
/// whatever walks the result.
pub const MAX_DEPTH: usize = 512;

/// One lexical step of a JSON document. Strings borrow from the input
/// unless they contain escapes.
#[derive(Debug, PartialEq)]
pub(crate) enum Token<'a> {
    BeginObject,
    EndObject,
    BeginArray,
    EndArray,
    /// An object member's key; its value is the next token.
    Key(Cow<'a, str>),
    Str(Cow<'a, str>),
    Num(f64),
    Bool(bool),
    Null,
}

/// What the grammar allows next.
#[derive(Clone, Copy)]
enum State {
    /// A value: at the start, after `:`, or after `,` in an array.
    Value,
    /// A value or `]`, just after `[`.
    FirstValue,
    /// A key or `}`, just after `{`.
    FirstKey,
    /// A key, after `,` in an object.
    Key,
    /// `,` or the innermost container's closing bracket.
    Next,
    /// Only whitespace: the top-level value is complete.
    Done,
}

/// A pull tokenizer over a borrowed document: the one JSON parser of the
/// workspace. [`Json::parse`] builds a tree from its tokens; the run-file
/// reader in [`super::replay`] decodes events straight from them. It
/// enforces the full grammar, so a consumer that stops looking at a value
/// (see [`Tokenizer::skip`]) still rejects malformed documents.
pub(crate) struct Tokenizer<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open containers, innermost last: `true` for an object.
    open: Vec<bool>,
    state: State,
}

impl<'a> Tokenizer<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Tokenizer {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            open: Vec::new(),
            state: State::Value,
        }
    }

    /// The next token, or `None` once the document ended cleanly.
    pub(crate) fn next_token(&mut self) -> Result<Option<Token<'a>>, String> {
        loop {
            self.skip_ws();
            return match self.state {
                State::Done if self.pos == self.bytes.len() => Ok(None),
                State::Done => Err(format!("trailing garbage at byte {}", self.pos)),
                State::Value => self.value().map(Some),
                State::FirstValue if self.peek() == Some(b']') => Ok(Some(self.close())),
                State::FirstValue => self.value().map(Some),
                State::FirstKey if self.peek() == Some(b'}') => Ok(Some(self.close())),
                State::FirstKey | State::Key => self.key().map(Some),
                State::Next => {
                    let object = self.open.last() == Some(&true);
                    let close = if object { b'}' } else { b']' };
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                            self.state = if object { State::Key } else { State::Value };
                            continue;
                        }
                        Some(c) if c == close => Ok(Some(self.close())),
                        other => Err(format!(
                            "expected ',' or '{}' at byte {}, found {:?}",
                            close as char,
                            self.pos,
                            other.map(|c| c as char)
                        )),
                    }
                }
            };
        }
    }

    /// The next token of a document that cannot have ended yet.
    pub(crate) fn expect_token(&mut self) -> Result<Token<'a>, String> {
        self.next_token()?
            .ok_or_else(|| "unexpected end of document".to_string())
    }

    /// Consumes the rest of the value `first` opened (nothing if it is a
    /// scalar), checking its syntax on the way.
    pub(crate) fn skip(&mut self, first: &Token<'a>) -> Result<(), String> {
        if matches!(first, Token::BeginArray | Token::BeginObject) {
            let depth = self.open.len();
            while self.open.len() >= depth {
                self.expect_token()?;
            }
        }
        Ok(())
    }

    /// Checks that only whitespace follows the top-level value.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        match self.next_token()? {
            None => Ok(()),
            Some(_) => Err(format!("document continues at byte {}", self.pos)),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    /// The state after a complete value.
    fn after_value(&mut self) {
        self.state = if self.open.is_empty() {
            State::Done
        } else {
            State::Next
        };
    }

    /// Consumes the closing bracket of the innermost container.
    fn close(&mut self) -> Token<'a> {
        self.pos += 1;
        let object = self.open.pop().expect("a container is open");
        self.after_value();
        if object {
            Token::EndObject
        } else {
            Token::EndArray
        }
    }

    fn value(&mut self) -> Result<Token<'a>, String> {
        let token = match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.open.len() >= MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.pos += 1;
                let object = c == b'{';
                self.open.push(object);
                self.state = if object {
                    State::FirstKey
                } else {
                    State::FirstValue
                };
                return Ok(if object {
                    Token::BeginObject
                } else {
                    Token::BeginArray
                });
            }
            Some(b'"') => Token::Str(self.string()?),
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'-' | b'0'..=b'9') => Token::Num(self.number()?),
            other => {
                return Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                ))
            }
        };
        self.after_value();
        Ok(token)
    }

    fn key(&mut self) -> Result<Token<'a>, String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.state = State::Value;
        Ok(Token::Key(key))
    }

    fn literal(&mut self, word: &str, value: Token<'a>) -> Result<Token<'a>, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Advances past plain string bytes (anything but `"` and `\`).
    fn plain_run(&mut self) {
        while let Some(&c) = self.bytes.get(self.pos) {
            if c == b'"' || c == b'\\' {
                break;
            }
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        self.plain_run();
        // `"` and `\` are ASCII, so every cut below is on a char boundary.
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            let b = self
                .peek()
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(Cow::Owned(out)),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
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
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            self.pos += 4;
                            // surrogate pairs are not produced by our writers;
                            // map lone surrogates to the replacement char
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    let run = self.pos - 1;
                    self.plain_run();
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        let digits = |t: &mut Self| {
            while matches!(t.peek(), Some(b'0'..=b'9')) {
                t.pos += 1;
            }
        };
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        digits(self);
        let int_end = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        if self.pos == int_end && (1..=15).contains(&(int_end - int_start)) {
            // every integer below 10^15 is an exact f64: the value `parse`
            // returns, without its general algorithm
            let v = self.bytes[int_start..int_end]
                .iter()
                .fold(0u64, |v, &d| v * 10 + u64::from(d - b'0')) as f64;
            return Ok(if negative { -v } else { v });
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

/// Escapes a string into a JSON string literal (quotes included).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes one [`TraceEvent`] as an object of the workspace trace
/// schema (also embedded in the streaming run files — see
/// [`crate::obs::sink`]). Tags use the full u64 range (protocol-round
/// bits live at 60–63), which a JSON number (f64) cannot carry exactly —
/// encoded as a string, the standard interop-safe representation for u64.
pub fn write_trace_event(out: &mut String, e: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"t\":{},\"node\":{},\"tag\":\"{}\",",
        e.time,
        e.node.raw(),
        e.tag.0
    );
    match e.kind {
        TraceKind::Send { to, elements, hops } => {
            let _ = write!(
                out,
                "\"kind\":\"send\",\"to\":{},\"elements\":{elements},\"hops\":{hops}}}",
                to.raw()
            );
        }
        TraceKind::Recv {
            from,
            elements,
            wait,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"recv\",\"from\":{},\"elements\":{elements}",
                from.raw()
            );
            // `wait` is exactly 0.0 for every uncontended receive; omitting
            // it keeps those lines identical to schema v1 and costs nothing
            // on parse (missing means zero).
            if wait != 0.0 {
                let _ = write!(out, ",\"wait\":{wait}");
            }
            out.push('}');
        }
        TraceKind::Compute { comparisons } => {
            let _ = write!(out, "\"kind\":\"compute\",\"comparisons\":{comparisons}}}");
        }
    }
}

/// One member value of an event record, as the decoders look at it:
/// `Other` is any value that is neither a number nor a string, so it fails
/// both lookups exactly like a mistyped member of a parsed object.
#[derive(Default)]
pub(crate) enum Field<'a> {
    #[default]
    Absent,
    Num(f64),
    Str(Cow<'a, str>),
    Other,
}

impl Field<'_> {
    fn of(value: Option<&Json>) -> Field<'_> {
        match value {
            None => Field::Absent,
            Some(Json::Num(x)) => Field::Num(*x),
            Some(Json::Str(s)) => Field::Str(Cow::Borrowed(s)),
            Some(_) => Field::Other,
        }
    }

    pub(crate) fn num(&self) -> Option<f64> {
        match self {
            Field::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub(crate) fn uint(&self) -> Option<u64> {
        self.num().and_then(num_as_u64)
    }

    pub(crate) fn str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The members of one trace or run-file event record that any reader
/// looks at. Unknown members are ignored and, as with [`Json::get`], a
/// repeated member keeps its first value.
#[derive(Default)]
pub(crate) struct EventFields<'a> {
    pub t: Field<'a>,
    pub node: Field<'a>,
    pub tag: Field<'a>,
    pub kind: Field<'a>,
    pub to: Field<'a>,
    pub from: Field<'a>,
    pub elements: Field<'a>,
    pub hops: Field<'a>,
    pub wait: Field<'a>,
    pub comparisons: Field<'a>,
    pub phase: Field<'a>,
}

impl<'a> EventFields<'a> {
    /// The members of a parsed value (none unless it is an object).
    fn of(e: &'a Json) -> Self {
        EventFields {
            t: Field::of(e.get("t")),
            node: Field::of(e.get("node")),
            tag: Field::of(e.get("tag")),
            kind: Field::of(e.get("kind")),
            to: Field::of(e.get("to")),
            from: Field::of(e.get("from")),
            elements: Field::of(e.get("elements")),
            hops: Field::of(e.get("hops")),
            wait: Field::of(e.get("wait")),
            comparisons: Field::of(e.get("comparisons")),
            phase: Field::of(e.get("phase")),
        }
    }

    /// Reads the members of the object whose `{` the tokenizer just
    /// returned, through its `}`.
    pub(crate) fn read(tok: &mut Tokenizer<'a>) -> Result<Self, String> {
        let mut f = EventFields::default();
        // anything but a key here is the object's closing `}`
        while let Token::Key(key) = tok.expect_token()? {
            let value = tok.expect_token()?;
            let slot = match &*key {
                "t" => &mut f.t,
                "node" => &mut f.node,
                "tag" => &mut f.tag,
                "kind" => &mut f.kind,
                "to" => &mut f.to,
                "from" => &mut f.from,
                "elements" => &mut f.elements,
                "hops" => &mut f.hops,
                "wait" => &mut f.wait,
                "comparisons" => &mut f.comparisons,
                "phase" => &mut f.phase,
                _ => {
                    tok.skip(&value)?;
                    continue;
                }
            };
            let field = match value {
                Token::Num(x) => Field::Num(x),
                Token::Str(s) => Field::Str(s),
                other => {
                    tok.skip(&other)?;
                    Field::Other
                }
            };
            if matches!(slot, Field::Absent) {
                *slot = field;
            }
        }
        Ok(f)
    }

    /// Decodes a send/recv/compute record; `i` is the record's index in
    /// its array, used in error messages.
    pub(crate) fn trace_event(&self, i: usize) -> Result<TraceEvent, String> {
        let present = |f: &'_ Field<'_>, k: &str| match f {
            Field::Absent => Err(format!("event {i}: missing '{k}'")),
            _ => Ok(()),
        };
        let num = |f: &Field<'_>, k: &str| {
            present(f, k)?;
            f.num().ok_or_else(|| format!("event {i}: bad '{k}'"))
        };
        let int = |f: &Field<'_>, k: &str| {
            present(f, k)?;
            f.uint().ok_or_else(|| format!("event {i}: bad '{k}'"))
        };
        // addresses and hop counts are u32 in memory: out of range is an
        // error, not a truncation
        let int32 = |f: &Field<'_>, k: &str| {
            u32::try_from(int(f, k)?).map_err(|_| format!("event {i}: bad '{k}'"))
        };
        let time = num(&self.t, "t")?;
        let node = NodeId::new(int32(&self.node, "node")?);
        present(&self.tag, "tag")?;
        let tag = Tag::new(
            self.tag
                .str()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("event {i}: bad 'tag'"))?,
        );
        present(&self.kind, "kind")?;
        let kind = match self.kind.str() {
            Some("send") => TraceKind::Send {
                to: NodeId::new(int32(&self.to, "to")?),
                elements: int(&self.elements, "elements")? as usize,
                hops: int32(&self.hops, "hops")?,
            },
            Some("recv") => TraceKind::Recv {
                from: NodeId::new(int32(&self.from, "from")?),
                elements: int(&self.elements, "elements")? as usize,
                wait: match self.wait {
                    Field::Absent => 0.0,
                    _ => num(&self.wait, "wait")?,
                },
            },
            Some("compute") => TraceKind::Compute {
                comparisons: int(&self.comparisons, "comparisons")? as usize,
            },
            other => return Err(format!("event {i}: unknown kind {other:?}")),
        };
        Ok(TraceEvent {
            time,
            node,
            tag,
            kind,
        })
    }
}

/// Parses one object written by [`write_trace_event`]; `i` is the event's
/// index in its array, used in error messages.
pub fn parse_trace_event(i: usize, e: &Json) -> Result<TraceEvent, String> {
    EventFields::of(e).trace_event(i)
}

/// Serializes a [`Trace`] to the workspace's own trace schema (distinct
/// from the Perfetto export, which loses the raw tags): one object per
/// event with the exact virtual timestamp.
pub fn trace_to_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 * trace.len() + 32);
    out.push_str("{\"events\":[");
    for (i, e) in trace.events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_trace_event(&mut out, e);
    }
    out.push_str("]}");
    out
}

/// Parses a trace serialized by [`trace_to_json`]; the round-trip is exact
/// (timestamps compare bit-equal).
pub fn trace_from_json(text: &str) -> Result<Trace, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("missing 'events' array")?;
    let mut out = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        out.push(parse_trace_event(i, e)?);
    }
    Ok(Trace::from_events(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".into())
        );
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_u64(), Some(2));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "12 34",
            "\"unterminated",
            "tru",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn float_display_roundtrips_exactly() {
        for x in [
            0.1 + 0.2,
            1.0 / 3.0,
            123456.789e-3,
            f64::MIN_POSITIVE,
            9007199254740993.0,
        ] {
            let text = format!("{x}");
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "tab\t quote\" back\\slash\nnewline é";
        let mut buf = String::new();
        write_str(&mut buf, original);
        assert_eq!(Json::parse(&buf).unwrap().as_str(), Some(original));
    }

    #[test]
    fn nesting_is_capped() {
        let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_cap).is_ok());
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&over).expect_err("past the cap");
        assert!(err.contains("nesting"), "{err}");
        assert!(Json::parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn integers_parse_exactly_as_floats_do() {
        for text in [
            "0",
            "-0",
            "7",
            "007",
            "-42",
            "123456789012345",
            "1234567890123456",
            "9007199254740993",
        ] {
            let want: f64 = text.parse().unwrap();
            let got = Json::parse(text).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
    }
}
