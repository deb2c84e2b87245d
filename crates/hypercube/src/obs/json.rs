//! The workspace's one JSON layer (the build is offline, so there is no
//! serialization framework):
//!
//! * a strict parser, [`Json::parse`] over a pull `Tokenizer` that streams
//!   an `io::Read` through a refilling buffer (a document in memory is
//!   read as a byte slice): integer literals that fit a `u64` stay exact,
//!   and a number that overflows an `f64` is an error;
//! * the codec every report goes through: [`JsonValue`], [`write_member`],
//!   [`read_member`] and the `json_object!` field table, which derives a
//!   struct's writer and reader from one list of its fields. Readers check
//!   integers against their type and take only finite numbers; the first
//!   of two members with one name wins, and unknown members are ignored;
//! * the run files' streaming event codec ([`write_trace_event`] and
//!   `EventFields`), which decodes records straight from tokens into
//!   owned scalars, allocating nothing per record.
//!
//! `f64` values are written with Rust's `Display`, which produces the
//! shortest decimal string that parses back to the identical bits — so
//! virtual timestamps survive a write/parse cycle exactly.

use crate::address::NodeId;
use crate::sim::{LinkModel, Tag, TraceEvent, TraceKind};
use std::fmt::Write as _;
use std::io::Read;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits a `u64`, kept exact.
    Int(u64),
    /// Any other number; always finite.
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
        Json::read(text.as_bytes())
    }

    /// [`parse`](Self::parse) for a document read from `source` as it
    /// goes: memory follows the tree and the longest token, not the
    /// document's length.
    pub fn read(mut source: impl Read) -> Result<Json, String> {
        let mut tok = Tokenizer::from_reader(&mut source);
        let first = tok.expect_token()?;
        let value = Json::build(&mut tok, first)?;
        tok.finish()?;
        Ok(value)
    }

    /// Builds the value that `first` starts from the tokens after it.
    /// Iterative, so only the tokenizer's depth cap bounds nesting.
    pub(crate) fn build(tok: &mut Tokenizer<'_>, first: Token) -> Result<Json, String> {
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
                Token::Key => {
                    open.last_mut().expect("keys occur inside objects").1 = Some(tok.text().into());
                    token = tok.expect_token()?;
                    continue;
                }
                Token::EndArray | Token::EndObject => open.pop().expect("brackets balance").0,
                Token::Str => Json::Str(tok.text().into()),
                Token::Int(n) => Json::Int(n),
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

    /// The value as a float, if it is a number. An integer converts with
    /// the rounding `str::parse::<f64>` applies to its literal.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an unsigned integer: any [`Json::Int`], or an integral
    /// float up to 2^53 (`1e3`, `2.0`). Rejects negatives and fractions.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(x) => num_as_u64(*x),
            _ => None,
        }
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

/// A float as an unsigned integer: non-negative, integral and exactly
/// representable.
fn num_as_u64(x: f64) -> Option<u64> {
    (x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53)).then_some(x as u64)
}

/// The deepest nesting of arrays and objects any reader here accepts: far
/// above what the workspace's writers emit (run files nest three deep),
/// and low enough that deep input is an `Err`, not a stack overflow in
/// whatever walks the result.
pub const MAX_DEPTH: usize = 512;

/// Bytes a streamed document is read in at a time.
const READ_CHUNK: usize = 64 * 1024;

/// One lexical step of a JSON document. A key's or a string's text is
/// [`Tokenizer::text`] until the next token is read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Token {
    BeginObject,
    EndObject,
    BeginArray,
    EndArray,
    /// An object member's key; its value is the next token.
    Key,
    Str,
    Int(u64),
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

/// A pull tokenizer: the one JSON parser of the workspace. [`Json::parse`]
/// builds a tree from its tokens; the run-file reader in [`super::replay`]
/// decodes events straight from them, and the trace validator in
/// [`super::perfetto`] builds one small tree per event. It enforces the
/// full grammar, so a consumer that stops looking at a value (see
/// [`Tokenizer::skip`]) still rejects malformed documents.
///
/// It has one input path: a buffer that refills from an `io::Read`, and a
/// refill keeps only the token being read, so memory follows the longest
/// token, not the document. A document already in memory is read as a
/// byte slice. Errors name absolute byte offsets, and string tokens are
/// checked as UTF-8. No token borrows the buffer: a key's or string's text
/// is copied out, and read through [`Tokenizer::text`] before the next
/// token.
pub(crate) struct Tokenizer<'a> {
    /// The document from byte `base` on, as far as the last reads went.
    buf: Vec<u8>,
    base: usize,
    pos: usize,
    /// Start in `buf` of the token being read; a refill drops what
    /// precedes it.
    mark: usize,
    /// The rest of the document; `None` once it has ended.
    source: Option<&'a mut dyn Read>,
    /// The last key's or string's text, unescaped.
    text: String,
    /// Open containers, innermost last: `true` for an object.
    open: Vec<bool>,
    state: State,
}

impl<'a> Tokenizer<'a> {
    /// Tokenizes a document read from `source` as it goes.
    pub(crate) fn from_reader(source: &'a mut dyn Read) -> Self {
        Tokenizer {
            buf: Vec::with_capacity(2 * READ_CHUNK),
            base: 0,
            pos: 0,
            mark: 0,
            source: Some(source),
            text: String::new(),
            open: Vec::new(),
            state: State::Value,
        }
    }

    /// The next token, or `None` once the document ended cleanly.
    pub(crate) fn next_token(&mut self) -> Result<Option<Token>, String> {
        loop {
            self.skip_ws()?;
            // past the whitespace, `current` is `None` only at the end
            return match self.state {
                State::Done => match self.current() {
                    None => Ok(None),
                    Some(_) => Err(format!("trailing garbage at byte {}", self.at())),
                },
                State::Value => self.value().map(Some),
                State::FirstValue if self.current() == Some(b']') => Ok(Some(self.close())),
                State::FirstValue => self.value().map(Some),
                State::FirstKey if self.current() == Some(b'}') => Ok(Some(self.close())),
                State::FirstKey | State::Key => self.key().map(Some),
                State::Next => {
                    let object = self.open.last() == Some(&true);
                    let close = if object { b'}' } else { b']' };
                    match self.current() {
                        Some(b',') => {
                            self.pos += 1;
                            self.state = if object { State::Key } else { State::Value };
                            continue;
                        }
                        Some(c) if c == close => Ok(Some(self.close())),
                        other => Err(format!(
                            "expected ',' or '{}' at byte {}, found {:?}",
                            close as char,
                            self.at(),
                            other.map(|c| c as char)
                        )),
                    }
                }
            };
        }
    }

    /// The next token of a document that cannot have ended yet.
    pub(crate) fn expect_token(&mut self) -> Result<Token, String> {
        self.next_token()?
            .ok_or_else(|| "unexpected end of document".to_string())
    }

    /// The text of the last key or string token.
    pub(crate) fn text(&self) -> &str {
        &self.text
    }

    /// Consumes the rest of the value `first` opened (nothing if it is a
    /// scalar), checking its syntax on the way.
    pub(crate) fn skip(&mut self, first: Token) -> Result<(), String> {
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
            Some(_) => Err(format!("document continues at byte {}", self.at())),
        }
    }

    /// The absolute offset of the next byte.
    fn at(&self) -> usize {
        self.base + self.pos
    }

    /// Reads more of the document, dropping the bytes before `mark`;
    /// `false` once it has ended.
    #[cold]
    fn fill(&mut self) -> Result<bool, String> {
        let Some(source) = self.source.as_mut() else {
            return Ok(false);
        };
        self.buf.drain(..self.mark);
        self.base += self.mark;
        self.pos -= self.mark;
        self.mark = 0;
        let len = self.buf.len();
        self.buf.resize(len + READ_CHUNK, 0);
        let read = super::gz::read_some(source, &mut self.buf[len..]);
        let n = *read.as_ref().unwrap_or(&0);
        self.buf.truncate(len + n);
        if read.map_err(|e| e.to_string())? == 0 {
            self.source = None;
        }
        Ok(n > 0)
    }

    /// The byte at `pos`, if the buffer holds it.
    fn current(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    /// The byte at `pos`, reading more of the document if it must.
    #[inline]
    fn peek(&mut self) -> Result<Option<u8>, String> {
        if self.pos == self.buf.len() && !self.fill()? {
            return Ok(None);
        }
        Ok(self.current())
    }

    /// Buffers `n` bytes from `pos` on, or as many as the document has.
    fn ensure(&mut self, n: usize) -> Result<(), String> {
        while self.buf.len() - self.pos < n && self.fill()? {}
        Ok(())
    }

    /// Skips whitespace, which the next refill may then drop.
    fn skip_ws(&mut self) -> Result<(), String> {
        loop {
            let bytes = &self.buf[..];
            while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
                self.pos += 1;
            }
            self.mark = self.pos;
            if self.pos < self.buf.len() || !self.fill()? {
                return Ok(());
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek()? {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.at(),
                other.map(|c| c as char)
            )),
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
    fn close(&mut self) -> Token {
        self.pos += 1;
        let object = self.open.pop().expect("a container is open");
        self.after_value();
        if object {
            Token::EndObject
        } else {
            Token::EndArray
        }
    }

    fn value(&mut self) -> Result<Token, String> {
        let token = match self.current() {
            Some(c @ (b'{' | b'[')) => {
                if self.open.len() >= MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.at()
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
            Some(b'"') => {
                self.string()?;
                Token::Str
            }
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'-' | b'0'..=b'9') => self.number()?,
            other => {
                return Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.at()
                ))
            }
        };
        self.after_value();
        Ok(token)
    }

    fn key(&mut self) -> Result<Token, String> {
        self.string()?;
        self.skip_ws()?;
        self.expect(b':')?;
        self.state = State::Value;
        Ok(Token::Key)
    }

    fn literal(&mut self, word: &str, value: Token) -> Result<Token, String> {
        self.ensure(word.len())?;
        if self.buf[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at()))
        }
    }

    /// Reads a string, unescaped, into [`Tokenizer::text`].
    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        self.text.clear();
        loop {
            // Plain bytes up to the next `"` or `\`; offsets are kept from
            // `mark`, which a refill moves to the buffer's start.
            let from = self.pos - self.mark;
            let stop = loop {
                match self.buf[self.pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                {
                    Some(k) => {
                        self.pos += k;
                        break self.buf[self.pos];
                    }
                    None => {
                        self.pos = self.buf.len();
                        if !self.fill()? {
                            return Err("unterminated string".into());
                        }
                    }
                }
            };
            // `"` and `\` are ASCII, so a run ends on a char boundary
            let start = self.mark + from;
            let plain = std::str::from_utf8(&self.buf[start..self.pos]).map_err(|e| {
                format!(
                    "invalid UTF-8 in a string at byte {}",
                    self.base + start + e.valid_up_to()
                )
            })?;
            self.text.push_str(plain);
            self.pos += 1;
            if stop == b'"' {
                return Ok(());
            }
            let esc = self.peek()?.ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => self.text.push('"'),
                b'\\' => self.text.push('\\'),
                b'/' => self.text.push('/'),
                b'b' => self.text.push('\u{8}'),
                b'f' => self.text.push('\u{c}'),
                b'n' => self.text.push('\n'),
                b'r' => self.text.push('\r'),
                b't' => self.text.push('\t'),
                b'u' => {
                    self.ensure(4)?;
                    let hex = self
                        .buf
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
                    self.text.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape '\\{}'", other as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Token, String> {
        // offsets from the token's start, `mark`, which refills keep
        let digits = |t: &mut Self| -> Result<(), String> {
            loop {
                let bytes = &t.buf[..];
                while bytes.get(t.pos).is_some_and(u8::is_ascii_digit) {
                    t.pos += 1;
                }
                if t.pos < t.buf.len() || !t.fill()? {
                    return Ok(());
                }
            }
        };
        let negative = self.peek()? == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos - self.mark;
        digits(self)?;
        let int_end = self.pos - self.mark;
        if self.peek()? == Some(b'.') {
            self.pos += 1;
            digits(self)?;
        }
        if matches!(self.peek()?, Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek()?, Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            digits(self)?;
        }
        let bytes = &self.buf[self.mark..self.pos];
        // the scan above admits ASCII only
        let text = std::str::from_utf8(bytes).expect("a number is ASCII");
        if !negative && bytes.len() == int_end && int_end > int_start {
            // a plain integer stays exact while it fits a u64 (any 19
            // digits do); `as f64` on it later rounds as `parse` would
            let digits = &bytes[int_start..int_end];
            let exact = if digits.len() <= 19 {
                Some(digits.iter().fold(0, |v, &d| v * 10 + u64::from(d - b'0')))
            } else {
                text[int_start..int_end].parse().ok()
            };
            if let Some(n) = exact {
                return Ok(Token::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Token::Num(x)),
            Ok(_) => Err(format!("number '{text}' overflows f64")),
            Err(e) => Err(format!("bad number '{text}': {e}")),
        }
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

/// A type that writes itself as JSON and reads itself back exactly, float
/// bits included. Structs implement it with the `json_object!` field table.
pub trait JsonValue: Sized {
    /// Appends the value's JSON text to `out`.
    fn write(&self, out: &mut String);

    /// Reads a value from a parsed document, checking its type and range.
    fn read(v: &Json) -> Result<Self, String>;

    /// Whether [`write_member`] leaves this value's member out (an absent
    /// `Option`).
    fn omit(&self) -> bool {
        false
    }

    /// The value an absent member reads as, or `None` when a member of
    /// this type is required.
    fn absent() -> Option<Self> {
        None
    }
}

/// Writes the member `"key":value` of the object being written into `out`,
/// preceded by a comma unless it is the object's first member — or nothing
/// when the value is omitted.
pub fn write_member<T: JsonValue>(out: &mut String, key: &str, value: &T) {
    if value.omit() {
        return;
    }
    if !out.ends_with('{') {
        out.push(',');
    }
    write_str(out, key);
    out.push(':');
    value.write(out);
}

/// Reads the member `key` of the object `obj`; errors name the member.
/// Like [`Json::get`], the first of two members with one name wins.
pub fn read_member<T: JsonValue>(obj: &Json, key: &str) -> Result<T, String> {
    if !matches!(obj, Json::Obj(_)) {
        return Err("expected an object".into());
    }
    match obj.get(key) {
        Some(v) => T::read(v).map_err(|e| format!("'{key}': {e}")),
        None => T::absent().ok_or_else(|| format!("missing '{key}'")),
    }
}

/// Writes `items` as a JSON array.
pub(crate) fn write_array<T: JsonValue>(out: &mut String, items: &[T]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write(out);
    }
    out.push(']');
}

/// Scalars written with `Display`: `$what` names the values `read`
/// accepts.
macro_rules! json_scalar {
    ($($t:ty: $v:ident => $read:expr, $what:expr;)*) => {$(
        impl JsonValue for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read($v: &Json) -> Result<Self, String> {
                $read.ok_or_else(|| format!("expected {}", $what))
            }
        }
    )*};
}

json_scalar! {
    u32: v => v.as_u64().and_then(|n| n.try_into().ok()), format!("an integer in 0..={}", u32::MAX);
    u64: v => v.as_u64(), format!("an integer in 0..={}", u64::MAX);
    usize: v => v.as_u64().and_then(|n| n.try_into().ok()), format!("an integer in 0..={}", usize::MAX);
    f64: v => v.as_f64(), "a number";
    bool: v => v.as_bool(), "true or false";
}

impl JsonValue for String {
    fn write(&self, out: &mut String) {
        write_str(out, self);
    }

    fn read(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_owned)
            .ok_or("expected a string".into())
    }
}

impl JsonValue for NodeId {
    fn write(&self, out: &mut String) {
        self.raw().write(out);
    }

    fn read(v: &Json) -> Result<Self, String> {
        u32::read(v).map(NodeId::new)
    }
}

impl JsonValue for LinkModel {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }

    fn read(v: &Json) -> Result<Self, String> {
        let name = String::read(v)?;
        LinkModel::parse(&name).ok_or_else(|| format!("unknown link model '{name}'"))
    }
}

impl<T: JsonValue> JsonValue for Vec<T> {
    fn write(&self, out: &mut String) {
        write_array(out, self);
    }

    fn read(v: &Json) -> Result<Self, String> {
        v.as_arr()
            .ok_or("expected an array")?
            .iter()
            .enumerate()
            .map(|(i, item)| T::read(item).map_err(|e| format!("item {i}: {e}")))
            .collect()
    }
}

/// `None` is left out of an object and written as `null` anywhere else;
/// an absent member and `null` both read as `None`.
impl<T: JsonValue> JsonValue for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::read(v).map(Some),
        }
    }

    fn omit(&self) -> bool {
        self.is_none()
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

/// Derives [`JsonValue`] for a struct from one table of its members, in
/// the order they are written:
///
/// * `field` — the member `"field"`, read and written;
/// * `"key": field` — the same under another name;
/// * `"key" = getter` — written from `getter(&self)`, ignored on read (a
///   derived value kept in the output for its consumers).
///
/// Every field of the struct must appear in one of the first two forms.
macro_rules! json_object {
    ($ty:ident { $($entries:tt)* }) => {
        $crate::obs::json::json_object!(@parse $ty [] [] $($entries)*,);
    };
    (@parse $ty:ident [$($w:tt)*] [$(($field:ident $key:expr))*] $(,)*) => {
        impl $crate::obs::json::JsonValue for $ty {
            fn write(&self, out: &mut String) {
                out.push('{');
                $($crate::obs::json::json_object!(@write self out $w);)*
                out.push('}');
            }

            fn read(v: &$crate::obs::json::Json) -> Result<Self, String> {
                Ok($ty { $($field: $crate::obs::json::read_member(v, $key)?,)* })
            }
        }
    };
    (@parse $ty:ident [$($w:tt)*] [$($r:tt)*] $key:literal : $field:ident, $($rest:tt)*) => {
        $crate::obs::json::json_object!(
            @parse $ty [$($w)* ($key, field $field)] [$($r)* ($field $key)] $($rest)*
        );
    };
    (@parse $ty:ident [$($w:tt)*] [$($r:tt)*] $key:literal = $get:path, $($rest:tt)*) => {
        $crate::obs::json::json_object!(@parse $ty [$($w)* ($key, getter $get)] [$($r)*] $($rest)*);
    };
    (@parse $ty:ident [$($w:tt)*] [$($r:tt)*] $field:ident, $($rest:tt)*) => {
        $crate::obs::json::json_object!(
            @parse $ty [$($w)* (stringify!($field), field $field)]
            [$($r)* ($field stringify!($field))] $($rest)*
        );
    };
    (@write $self:ident $out:ident ($key:expr, field $field:ident)) => {
        $crate::obs::json::write_member($out, $key, &$self.$field)
    };
    (@write $self:ident $out:ident ($key:expr, getter $get:path)) => {
        $crate::obs::json::write_member($out, $key, &$get($self))
    };
}

pub(crate) use json_object;

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

/// What one member of an event record held, as the decoders look at it:
/// `Other` is any value that is neither a number nor a string, so it fails
/// both lookups exactly like a mistyped member of a parsed object.
#[derive(Default)]
enum Value {
    #[default]
    Absent,
    Int(u64),
    Num(f64),
    Str,
    Other,
}

/// One member of an event record, decoded as it is read. A string's text
/// goes into a buffer the next record reuses.
#[derive(Default)]
pub(crate) struct Field {
    value: Value,
    text: String,
}

impl Field {
    pub(crate) fn num(&self) -> Option<f64> {
        match self.value {
            Value::Int(n) => Some(n as f64),
            Value::Num(x) => Some(x),
            _ => None,
        }
    }

    pub(crate) fn uint(&self) -> Option<u64> {
        match self.value {
            Value::Int(n) => Some(n),
            Value::Num(x) => num_as_u64(x),
            _ => None,
        }
    }

    pub(crate) fn str(&self) -> Option<&str> {
        match self.value {
            Value::Str => Some(&self.text),
            _ => None,
        }
    }

    fn is_absent(&self) -> bool {
        matches!(self.value, Value::Absent)
    }
}

/// The members of one trace or run-file event record that any reader
/// looks at. Unknown members are ignored and, as with [`Json::get`], a
/// repeated member keeps its first value. One instance reads record after
/// record without allocating once its string buffers have grown.
#[derive(Default)]
pub(crate) struct EventFields {
    pub t: Field,
    pub node: Field,
    pub tag: Field,
    pub kind: Field,
    pub to: Field,
    pub from: Field,
    pub elements: Field,
    pub hops: Field,
    pub wait: Field,
    pub comparisons: Field,
    pub phase: Field,
}

impl EventFields {
    /// Forgets the last record's members (an empty record).
    pub(crate) fn clear(&mut self) {
        for f in [
            &mut self.t,
            &mut self.node,
            &mut self.tag,
            &mut self.kind,
            &mut self.to,
            &mut self.from,
            &mut self.elements,
            &mut self.hops,
            &mut self.wait,
            &mut self.comparisons,
            &mut self.phase,
        ] {
            f.value = Value::Absent;
        }
    }

    /// Reads the members of the object whose `{` the tokenizer just
    /// returned, through its `}`.
    pub(crate) fn read(&mut self, tok: &mut Tokenizer<'_>) -> Result<(), String> {
        self.clear();
        // anything but a key here is the object's closing `}`
        while let Token::Key = tok.expect_token()? {
            let slot = match tok.text() {
                "t" => &mut self.t,
                "node" => &mut self.node,
                "tag" => &mut self.tag,
                "kind" => &mut self.kind,
                "to" => &mut self.to,
                "from" => &mut self.from,
                "elements" => &mut self.elements,
                "hops" => &mut self.hops,
                "wait" => &mut self.wait,
                "comparisons" => &mut self.comparisons,
                "phase" => &mut self.phase,
                _ => {
                    let value = tok.expect_token()?;
                    tok.skip(value)?;
                    continue;
                }
            };
            let value = tok.expect_token()?;
            if !slot.is_absent() {
                tok.skip(value)?;
                continue;
            }
            slot.value = match value {
                Token::Int(n) => Value::Int(n),
                Token::Num(x) => Value::Num(x),
                Token::Str => {
                    slot.text.clear();
                    slot.text.push_str(tok.text());
                    Value::Str
                }
                other => {
                    tok.skip(other)?;
                    Value::Other
                }
            };
        }
        Ok(())
    }

    /// Decodes a send/recv/compute record; `i` is the record's index in
    /// its array, used in error messages.
    pub(crate) fn trace_event(&self, i: usize) -> Result<TraceEvent, String> {
        let present = |f: &Field, k: &str| {
            if f.is_absent() {
                Err(format!("event {i}: missing '{k}'"))
            } else {
                Ok(())
            }
        };
        let num = |f: &Field, k: &str| {
            present(f, k)?;
            f.num().ok_or_else(|| format!("event {i}: bad '{k}'"))
        };
        let int = |f: &Field, k: &str| {
            present(f, k)?;
            f.uint().ok_or_else(|| format!("event {i}: bad '{k}'"))
        };
        // addresses and hop counts are u32 in memory: out of range is an
        // error, not a truncation
        let int32 = |f: &Field, k: &str| {
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
                wait: if self.wait.is_absent() {
                    0.0
                } else {
                    num(&self.wait, "wait")?
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
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
            "1e999",
            "-1e999",
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
            "18446744073709551615",
            "18446744073709551616",
        ] {
            let want: f64 = text.parse().unwrap();
            let got = Json::parse(text).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
        let max = Json::parse("18446744073709551615").unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX), "exact past 2^53");
    }

    /// A source that hands out at most `step` bytes per read, so every
    /// token straddles refills somewhere.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Every token of a document, with the text of keys and strings, or the
    /// first error.
    fn tokens(mut tok: Tokenizer<'_>) -> Result<Vec<(Token, String)>, String> {
        let mut out = Vec::new();
        while let Some(token) = tok.next_token()? {
            let text = match token {
                Token::Key | Token::Str => tok.text().to_string(),
                _ => String::new(),
            };
            out.push((token, text));
        }
        Ok(out)
    }

    #[test]
    fn trickled_documents_tokenize_as_whole_ones() {
        for doc in [
            r#" {"a" : [1, -2.5e3, 18446744073709551616, true, false, null],
                "esc\"aped\u00e9\n":"x\"y\u00e9z plain é", "": {} } "#,
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "[\"\\u12\"]",
            "1 2",
            "[tru]",
            "[1e999]",
        ] {
            let mut whole = doc.as_bytes();
            let want = tokens(Tokenizer::from_reader(&mut whole));
            for step in [1, 2, 3, 7] {
                let mut source = Trickle {
                    data: doc.as_bytes(),
                    step,
                };
                let got = tokens(Tokenizer::from_reader(&mut source));
                assert_eq!(got, want, "{doc:?} in {step}-byte reads");
            }
        }
        let mut bad = Trickle {
            data: b"[\"ok\",\"\xff\"]",
            step: 2,
        };
        let err = tokens(Tokenizer::from_reader(&mut bad)).expect_err("not UTF-8");
        assert!(err.contains("UTF-8 in a string at byte 7"), "{err}");
    }
}
