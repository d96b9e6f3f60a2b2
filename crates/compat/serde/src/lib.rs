//! Offline mini-serde for the workspace's vendored `serde` dependency.
//!
//! The build environment has no access to crates.io, so this crate stands
//! in for `serde`/`serde_json` where the workspace needs real (de)serial-
//! ization: the observability subsystem's JSONL trace codec and the
//! benchmark's result files. It is the one JSON layer under both, in two
//! tiers:
//!
//! * [`json::Writer`] — a streaming encoder into a caller-owned byte
//!   buffer. The per-event trace path uses it directly, so it builds no
//!   tree. Number formatting and string escaping live here and nowhere
//!   else.
//! * a dynamic [`Value`] tree with [`Serialize`]/[`Deserialize`] traits
//!   over it, for offline consumers (trace replay, result files) that want
//!   random access. [`json::to_string`] is [`json::Writer::value`];
//!   [`json::from_str`] parses through a tokenizer private to [`json`],
//!   with the nesting cap [`json::MAX_DEPTH`].
//!
//! It deliberately does **not** provide derive macros. Consumers hand-write
//! their conversions instead, which keeps the shim to one auditable file
//! with no dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A dynamically typed serialization tree, the meeting point between
/// [`Serialize`]/[`Deserialize`] impls and the [`json`] text codec.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (serialized without a decimal point).
    U64(u64),
    /// A signed integer (serialized without a decimal point).
    I64(i64),
    /// A float. Non-finite values serialize as `null` (JSON has no NaN).
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map with string keys (insertion order is preserved so
    /// encodings are deterministic).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a [`Value::Map`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is numeric and lossless.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(x) => Some(x),
            Value::I64(x) => u64::try_from(x).ok(),
            Value::F64(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => {
                Some(x as u64)
            }
            _ => None,
        }
    }

    /// The value as a signed integer, if it is numeric and lossless.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(x) => Some(x),
            Value::U64(x) => i64::try_from(x).ok(),
            Value::F64(x) if x.fract() == 0.0 && x.abs() <= i64::MAX as f64 => Some(x as i64),
            _ => None,
        }
    }

    /// The value as a float. `Null` reads back as NaN, mirroring how
    /// non-finite floats are written.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F64(x) => Some(x),
            Value::U64(x) => Some(x as f64),
            Value::I64(x) => Some(x as f64),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a map (ordered key/value pairs).
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(fields) => Some(fields),
            _ => None,
        }
    }
}

/// A (de)serialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// Creates an error from any displayable message.
    pub fn msg(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a serialization tree.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a serialization tree.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(u64::from(*self))
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = value
                    .as_u64()
                    .ok_or_else(|| Error::msg(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(raw).map_err(Error::msg)
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::U64(*self as u64)
    }
}
impl Deserialize for usize {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let raw = value.as_u64().ok_or_else(|| Error::msg("expected usize"))?;
        usize::try_from(raw).map_err(Error::msg)
    }
}

impl Serialize for i64 {
    fn to_value(&self) -> Value {
        Value::I64(*self)
    }
}
impl Deserialize for i64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_i64().ok_or_else(|| Error::msg("expected i64"))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_f64().ok_or_else(|| Error::msg("expected f64"))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_bool().ok_or_else(|| Error::msg("expected bool"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::msg("expected string"))
    }
}

impl Serialize for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_owned())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_seq()
            .ok_or_else(|| Error::msg("expected sequence"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

/// Compact JSON text codec: a streaming [`Writer`](json::Writer) into a
/// caller-owned byte buffer, with [`to_string`](json::to_string) /
/// [`from_str`](json::from_str) over [`Value`]. Output is single-line
/// (suitable for JSONL streams); input gets full escape handling and a
/// nesting cap.
pub mod json {
    use super::{Error, Value};
    use std::borrow::Cow;
    use std::io::Write as _;

    /// Deepest container nesting [`from_str`] accepts. Its input is
    /// whatever file a caller was handed (64 KiB of `[` would otherwise
    /// recurse 60 000 frames deep), so the cap is what bounds the stack.
    pub const MAX_DEPTH: usize = 128;

    /// Encodes a value as compact (single-line) JSON.
    pub fn to_string(value: &Value) -> String {
        let mut out = Vec::new();
        Writer::new(&mut out).value(value);
        String::from_utf8(out).expect("the writer emits UTF-8")
    }

    /// Parses one JSON document (rejects trailing data).
    pub fn from_str(input: &str) -> Result<Value, Error> {
        let mut reader = Reader::new(input);
        let value = reader.read_value()?;
        reader.end()?;
        Ok(value)
    }

    /// Longest string [`Writer`] assembles on the stack before appending.
    const SHORT: usize = 28;

    /// Streaming encoder: appends compact JSON to a caller-owned buffer,
    /// so a hot path can encode without building a [`Value`] and can reuse
    /// the buffer across calls. Commas are placed by the writer; balancing
    /// `begin_*`/`end_*` and alternating [`key`](Writer::key) with one
    /// value inside objects is the caller's side of the contract.
    pub struct Writer<'a> {
        out: &'a mut Vec<u8>,
        /// A value was completed in the open container, so the next key or
        /// element needs a separator first.
        comma: bool,
    }

    impl<'a> Writer<'a> {
        /// A writer appending to `out`.
        pub fn new(out: &'a mut Vec<u8>) -> Self {
            Writer { out, comma: false }
        }

        #[inline]
        fn sep(&mut self) {
            if self.comma {
                self.out.push(b',');
            }
            self.comma = true;
        }

        #[inline]
        fn raw(&mut self, text: &[u8]) -> &mut Self {
            self.sep();
            self.out.extend_from_slice(text);
            self
        }

        /// Opens an object.
        #[inline]
        pub fn begin_object(&mut self) -> &mut Self {
            self.raw(b"{").comma = false;
            self
        }

        /// Closes the innermost open object.
        #[inline]
        pub fn end_object(&mut self) -> &mut Self {
            self.out.push(b'}');
            self.comma = true;
            self
        }

        /// Opens an array.
        #[inline]
        pub fn begin_array(&mut self) -> &mut Self {
            self.raw(b"[").comma = false;
            self
        }

        /// Closes the innermost open array.
        #[inline]
        pub fn end_array(&mut self) -> &mut Self {
            self.out.push(b']');
            self.comma = true;
            self
        }

        /// Writes an object key; exactly one value must follow.
        #[inline(always)]
        pub fn key(&mut self, key: &str) -> &mut Self {
            self.quoted(key, b"\":");
            self.comma = false;
            self
        }

        /// Writes `null`.
        #[inline]
        pub fn null(&mut self) -> &mut Self {
            self.raw(b"null")
        }

        /// Writes a boolean.
        #[inline]
        pub fn bool(&mut self, x: bool) -> &mut Self {
            self.raw(if x { b"true" } else { b"false" })
        }

        /// Writes an unsigned integer.
        #[inline]
        pub fn u64(&mut self, mut x: u64) -> &mut Self {
            // Separator and digits leave in one append: a u64 has at most
            // 20 digits, and the byte before them is there for the comma.
            let mut text = [b','; 21];
            let mut start = text.len();
            loop {
                start -= 1;
                text[start] = b'0' + (x % 10) as u8;
                x /= 10;
                if x == 0 {
                    break;
                }
            }
            start -= usize::from(self.comma);
            self.comma = true;
            self.out.extend_from_slice(&text[start..]);
            self
        }

        /// Writes a signed integer.
        pub fn i64(&mut self, x: i64) -> &mut Self {
            if x < 0 {
                self.sep();
                self.out.push(b'-');
                self.comma = false;
            }
            self.u64(x.unsigned_abs())
        }

        /// Writes a float in the shortest form that round-trips;
        /// non-finite values as `null` (JSON has no NaN).
        pub fn f64(&mut self, x: f64) -> &mut Self {
            if !x.is_finite() {
                return self.null();
            }
            self.sep();
            write!(self.out, "{x:?}").expect("writing to a Vec cannot fail");
            self
        }

        /// Writes a string, escaped.
        #[inline(always)]
        pub fn str(&mut self, s: &str) -> &mut Self {
            self.quoted(s, b"\"")
        }

        /// The one string formatter: separator, opening quote, `s` escaped,
        /// then `close` (the closing quote, and for a key its colon).
        ///
        /// Keys and enum names — short, nothing to escape — are assembled
        /// on the stack and appended whole: each append to the `Vec` is a
        /// capacity check and a `memcpy` call, and at five a field those,
        /// not the bytes, were the encoder's cost. Inlined, a literal key
        /// folds to one constant-length copy.
        #[inline(always)]
        fn quoted(&mut self, s: &str, close: &[u8]) -> &mut Self {
            let bytes = s.as_bytes();
            let plain = |&b: &u8| b >= 0x20 && b != b'"' && b != b'\\';
            if bytes.len() > SHORT || !bytes.iter().all(plain) {
                return self.quoted_slow(bytes, close);
            }
            let mut token = [0u8; 2 + SHORT + 2];
            let end = 2 + bytes.len() + close.len();
            token[..2].copy_from_slice(b",\"");
            token[2..2 + bytes.len()].copy_from_slice(bytes);
            token[2 + bytes.len()..end].copy_from_slice(close);
            if self.comma {
                self.out.extend_from_slice(&token[..end]);
            } else {
                self.out.extend_from_slice(&token[1..end]);
            }
            self.comma = true;
            self
        }

        fn quoted_slow(&mut self, bytes: &[u8], close: &[u8]) -> &mut Self {
            self.raw(b"\"");
            // Copy unescaped runs whole; every escaped character is ASCII,
            // so byte positions are code-point boundaries.
            let mut run = 0;
            for (i, &b) in bytes.iter().enumerate() {
                let escape: &[u8] = match b {
                    b'"' => b"\\\"",
                    b'\\' => b"\\\\",
                    b'\n' => b"\\n",
                    b'\t' => b"\\t",
                    b'\r' => b"\\r",
                    0..=0x1f => b"",
                    _ => continue,
                };
                self.out.extend_from_slice(&bytes[run..i]);
                run = i + 1;
                if escape.is_empty() {
                    write!(self.out, "\\u{b:04x}").expect("writing to a Vec cannot fail");
                } else {
                    self.out.extend_from_slice(escape);
                }
            }
            self.out.extend_from_slice(&bytes[run..]);
            self.out.extend_from_slice(close);
            self
        }

        /// Writes a whole [`Value`] tree.
        pub fn value(&mut self, value: &Value) -> &mut Self {
            match value {
                Value::Null => self.null(),
                Value::Bool(x) => self.bool(*x),
                Value::U64(x) => self.u64(*x),
                Value::I64(x) => self.i64(*x),
                Value::F64(x) => self.f64(*x),
                Value::Str(s) => self.str(s),
                Value::Seq(items) => {
                    self.begin_array();
                    for item in items {
                        self.value(item);
                    }
                    self.end_array()
                }
                Value::Map(fields) => {
                    self.begin_object();
                    for (key, item) in fields {
                        self.key(key).value(item);
                    }
                    self.end_object()
                }
            }
        }
    }

    /// Pull decoder over borrowed text, behind [`from_str`]: `begin_*`,
    /// `next_key`/`next_element` and the `read_*` of each value walk the
    /// document, and keys and unescaped strings come back as slices of it.
    struct Reader<'a> {
        text: &'a str,
        pos: usize,
        depth: usize,
        /// The innermost container was just opened: its first key or
        /// element takes no separator.
        first: bool,
    }

    impl<'a> Reader<'a> {
        /// A reader at the start of `text`.
        fn new(text: &'a str) -> Self {
            Reader { text, pos: 0, depth: 0, first: false }
        }

        #[inline]
        fn bytes(&self) -> &'a [u8] {
            self.text.as_bytes()
        }

        #[inline]
        fn skip_ws(&mut self) {
            while matches!(self.bytes().get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        /// The next non-whitespace byte, not consumed. No error is built
        /// for the end of input: the hot paths compare first and diagnose
        /// only on failure.
        #[inline]
        fn peek_byte(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes().get(self.pos).copied()
        }

        /// What kind of value comes next: its first byte, not consumed.
        #[inline]
        fn peek(&mut self) -> Result<u8, Error> {
            self.peek_byte().ok_or_else(|| self.expected("a value"))
        }

        #[cold]
        fn expected(&self, what: &str) -> Error {
            if self.pos == self.text.len() {
                Error::msg("unexpected end of input")
            } else {
                Error::msg(format!("expected {what} at byte {}", self.pos))
            }
        }

        #[inline]
        fn expect(&mut self, byte: u8, what: &str) -> Result<(), Error> {
            if self.peek_byte() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.expected(what))
            }
        }

        /// The text not yet consumed. `pos` only ever advances past ASCII
        /// bytes, so it is always a character boundary; `get` all the same,
        /// because a slip here must not be a panic on input off the wire.
        #[inline]
        fn rest(&self) -> &'a str {
            self.text.get(self.pos..).unwrap_or_default()
        }

        #[inline]
        fn open(&mut self, bracket: u8, what: &str) -> Result<(), Error> {
            self.expect(bracket, what)?;
            if self.depth == MAX_DEPTH {
                return Err(Error::msg(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {}",
                    self.pos
                )));
            }
            self.depth += 1;
            self.first = true;
            Ok(())
        }

        /// Steps to the next key or element of the open container: `true`
        /// when one follows (its separator consumed), `false` when `close`
        /// ended the container.
        #[inline]
        fn step(&mut self, close: u8, what: &str) -> Result<bool, Error> {
            let next = self.peek_byte();
            if next == Some(close) {
                self.pos += 1;
                // Saturating: a caller that steps without having opened
                // gets its error from the next read, not a panic here.
                self.depth = self.depth.saturating_sub(1);
                self.first = false;
                Ok(false)
            } else if self.first && next.is_some() {
                Ok(true)
            } else if next == Some(b',') {
                self.pos += 1;
                Ok(true)
            } else {
                Err(self.expected(what))
            }
        }

        /// Enters an object; follow with `next_key` until it returns
        /// `None`.
        #[inline]
        fn begin_object(&mut self) -> Result<(), Error> {
            self.open(b'{', "'{'")
        }

        /// The next key of the open object (its value must then be read or
        /// skipped), or `None` once the object has closed. Keys come back
        /// unescaped, in document order, duplicates included.
        #[inline]
        fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
            if !self.step(b'}', "',' or '}'")? {
                return Ok(None);
            }
            let key = self.string()?;
            self.expect(b':', "':'")?;
            Ok(Some(key))
        }

        /// Enters an array; follow with `next_element` until it returns
        /// `false`.
        #[inline]
        fn begin_array(&mut self) -> Result<(), Error> {
            self.open(b'[', "'['")
        }

        /// `true` when another element follows (it must then be read or
        /// skipped), `false` once the array has closed.
        #[inline]
        fn next_element(&mut self) -> Result<bool, Error> {
            self.step(b']', "',' or ']'")
        }

        /// Requires that only whitespace remains.
        fn end(&mut self) -> Result<(), Error> {
            self.skip_ws();
            if self.pos == self.text.len() {
                Ok(())
            } else {
                Err(Error::msg(format!("trailing data at byte {}", self.pos)))
            }
        }

        /// Reads `null`, a boolean or a number — the values that need no
        /// allocation — with integers keeping their exact type so u64 ids
        /// round-trip lossless. A string or container here is an error.
        #[inline]
        fn read_scalar(&mut self) -> Result<Value, Error> {
            let value = match self.peek()? {
                b't' => self.literal("true", Value::Bool(true)),
                b'f' => self.literal("false", Value::Bool(false)),
                b'n' => self.literal("null", Value::Null),
                _ => self.number(),
            }?;
            self.first = false;
            Ok(value)
        }

        /// Reads a string, unescaped; borrowed from the input unless it
        /// contains an escape.
        #[inline]
        fn read_str(&mut self) -> Result<Cow<'a, str>, Error> {
            let s = self.string()?;
            self.first = false;
            Ok(s)
        }

        /// Reads any value into a [`Value`] tree.
        fn read_value(&mut self) -> Result<Value, Error> {
            match self.peek()? {
                b'{' => {
                    self.begin_object()?;
                    let mut fields = Vec::new();
                    while let Some(key) = self.next_key()? {
                        fields.push((key.into_owned(), self.read_value()?));
                    }
                    Ok(Value::Map(fields))
                }
                b'[' => {
                    self.begin_array()?;
                    let mut items = Vec::new();
                    while self.next_element()? {
                        items.push(self.read_value()?);
                    }
                    Ok(Value::Seq(items))
                }
                b'"' => Ok(Value::Str(self.read_str()?.into_owned())),
                _ => self.read_scalar(),
            }
        }

        fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
            if self.rest().starts_with(text) {
                self.pos += text.len();
                Ok(value)
            } else {
                Err(self.expected(text))
            }
        }

        #[inline]
        fn number(&mut self) -> Result<Value, Error> {
            let rest = self.rest().as_bytes();
            // What nearly every number on the wire is: a run of at most 19
            // digits, which cannot overflow and needs no second pass.
            let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
            let plain = !matches!(rest.get(digits), Some(b'-' | b'+' | b'.' | b'e' | b'E'));
            if plain && (1..=19).contains(&digits) {
                self.pos += digits;
                let value = rest[..digits].iter().fold(0, |x, b| x * 10 + u64::from(b - b'0'));
                return Ok(Value::U64(value));
            }
            self.number_slow()
        }

        /// Every other number: signed, fractional, exponent, 20 digits.
        fn number_slow(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            let rest = self.rest();
            let len = rest
                .bytes()
                .take_while(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                .count();
            if len == 0 {
                return Err(self.expected("a value"));
            }
            self.pos += len;
            let text = &rest[..len];
            // Integers keep their exact type so u64 ids round-trip lossless.
            if !text.contains(['.', 'e', 'E']) {
                if let Ok(x) = text.parse::<u64>() {
                    return Ok(Value::U64(x));
                }
                if let Ok(x) = text.parse::<i64>() {
                    return Ok(Value::I64(x));
                }
            }
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|e| Error::msg(format!("bad number at byte {start}: {e}")))
        }

        /// One string token; with no escape in it (the common case), a
        /// slice of the input.
        #[inline]
        fn string(&mut self) -> Result<Cow<'a, str>, Error> {
            self.expect(b'"', "'\"'")?;
            let rest = self.rest();
            // Both delimiters are ASCII, so where one is found is a
            // character boundary of `rest`.
            match rest.bytes().position(|b| b == b'"' || b == b'\\') {
                Some(len) if rest.as_bytes()[len] == b'"' => {
                    self.pos += len + 1;
                    Ok(Cow::Borrowed(&rest[..len]))
                }
                _ => self.string_with_escapes().map(Cow::Owned),
            }
        }

        /// The rest of a string token that has an escape in it (or no end).
        fn string_with_escapes(&mut self) -> Result<String, Error> {
            let mut unescaped = String::new();
            loop {
                let rest = self.rest();
                let len = rest
                    .bytes()
                    .position(|b| b == b'"' || b == b'\\')
                    .ok_or_else(|| Error::msg("unterminated string"))?;
                unescaped.push_str(&rest[..len]);
                self.pos += len + 1;
                if rest.as_bytes()[len] == b'"' {
                    return Ok(unescaped);
                }
                unescaped.push(self.escape()?);
            }
        }

        /// The character a backslash escape stands for; `pos` is just past
        /// the backslash.
        fn escape(&mut self) -> Result<char, Error> {
            let mut rest = self.rest().chars();
            let escape = rest.next().ok_or_else(|| Error::msg("unterminated escape"))?;
            let unescaped = match escape {
                '"' | '\\' | '/' => escape,
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                'b' => '\u{8}',
                'f' => '\u{c}',
                'u' => {
                    let code = rest
                        .as_str()
                        .get(..4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| Error::msg("bad or truncated \\u escape"))?;
                    self.pos += 4;
                    char::from_u32(code)
                        .ok_or_else(|| Error::msg(format!("invalid \\u{code:04x}")))?
                }
                other => return Err(Error::msg(format!("unknown escape \\{other}"))),
            };
            self.pos += 1;
            Ok(unescaped)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn reader_pulls_borrowed_keys_in_document_order() {
            let text = " { \"a\" : 1 , \"skip\" : {\"x\":[1,\"]\",{\"y\":null}],\"z\":\"\\\"}\"} ,\n\"b\\u0062\":[ 2.0 , null ,true],\"a\":\"dup\",\"s\":\"é\" } ";
            let mut r = Reader::new(text);
            r.begin_object().expect("object");
            let key = r.next_key().expect("key").expect("some");
            assert!(matches!(key, Cow::Borrowed("a")), "plain keys borrow from the input");
            assert_eq!(r.read_value().expect("a"), Value::U64(1));
            assert_eq!(r.next_key().expect("key").as_deref(), Some("skip"));
            let map = |fields: Vec<(&str, Value)>| {
                Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
            };
            let xs = vec![Value::U64(1), Value::Str("]".into()), map(vec![("y", Value::Null)])];
            assert_eq!(
                r.read_value().expect("nested containers and strings holding brackets"),
                map(vec![("x", Value::Seq(xs)), ("z", Value::Str("\"}".into()))])
            );
            let key = r.next_key().expect("key").expect("some");
            assert!(matches!(&key, Cow::Owned(k) if k == "bb"), "escaped keys are unescaped");
            let floats = vec![Value::F64(2.0), Value::Null, Value::Bool(true)];
            assert_eq!(r.read_value().expect("array"), Value::Seq(floats));
            assert_eq!(r.next_key().expect("key").as_deref(), Some("a"));
            assert_eq!(r.read_str().expect("duplicates are the caller's call"), "dup");
            assert_eq!(r.next_key().expect("key").as_deref(), Some("s"));
            assert!(matches!(r.read_str().expect("s"), Cow::Borrowed("é")));
            assert_eq!(r.next_key().expect("end"), None);
            r.end().expect("only whitespace remains");

            for bad in [
                "{\"a\":1,}",
                "{,\"a\":1}",
                "{\"a\" 1}",
                "{\"a\":1 \"b\":2}",
                "[1,]",
                "[1 2]",
                "[1}",
                "{\"a\":1]",
                "{1:2}",
            ] {
                assert!(from_str(bad).is_err(), "{bad}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for value in [
            Value::Null,
            Value::Bool(true),
            Value::U64(u64::MAX),
            Value::I64(-42),
            Value::F64(0.125),
            Value::Str("he\"llo\n".to_string()),
        ] {
            let text = json::to_string(&value);
            assert_eq!(json::from_str(&text).expect("parses"), value, "{text}");
        }
    }

    #[test]
    fn nested_round_trip_is_single_line() {
        let value = Value::Map(vec![
            ("id".to_string(), Value::U64(7)),
            (
                "xs".to_string(),
                Value::Seq(vec![Value::F64(1.5), Value::Null, Value::Bool(false)]),
            ),
        ]);
        let text = json::to_string(&value);
        assert!(!text.contains('\n'), "JSONL lines must be single-line: {text}");
        assert_eq!(text, r#"{"id":7,"xs":[1.5,null,false]}"#);
        assert_eq!(json::from_str(&text).expect("parses"), value);
    }

    #[test]
    fn non_finite_floats_write_null_and_read_nan() {
        let text = json::to_string(&Value::F64(f64::NAN));
        assert_eq!(text, "null");
        let back = json::from_str(&text).expect("parses");
        assert!(back.as_f64().expect("numeric").is_nan());
    }

    #[test]
    fn typed_impls_round_trip() {
        let xs: Vec<u32> = vec![1, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&xs.to_value()).expect("vec"), xs);
        let opt: Option<String> = Some("x".to_string());
        assert_eq!(Option::<String>::from_value(&opt.to_value()).expect("opt"), opt);
        let none: Option<u64> = None;
        assert_eq!(Option::<u64>::from_value(&none.to_value()).expect("none"), none);
        assert!(u8::from_value(&Value::U64(300)).is_err());
    }

    #[test]
    fn map_lookup_and_trailing_data() {
        let v = json::from_str(r#"{"a": 1, "b": "x"}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert!(v.get("c").is_none());
        assert!(json::from_str("{} trailing").is_err());
    }

    #[test]
    fn escapes_encode_and_decode() {
        let raw = "a\u{1}b\"c\\d\né–\u{1F600}\u{7f}";
        let text = json::to_string(&Value::Str(raw.to_string()));
        assert_eq!(text, "\"a\\u0001b\\\"c\\\\d\\né–\u{1F600}\u{7f}\"");
        assert_eq!(
            json::from_str(&text).expect("parses"),
            Value::Str(raw.to_string())
        );
        // Escapes the encoder never writes still read.
        let v = json::from_str(r#""\/\b\f\r\t\u00e9\u0041""#).expect("parses");
        assert_eq!(v, Value::Str("/\u{8}\u{c}\r\t\u{e9}A".to_string()));
        for bad in [
            r#""\x""#,
            r#""\u12""#,
            r#""\ud800""#,
            r#""\uzzzz""#,
            r#""abc"#,
            r#""a\"#,
        ] {
            assert!(json::from_str(bad).is_err(), "{bad}");
        }
        // Either side of the length the writer assembles on the stack, as
        // first and as later element, plain and escaped.
        for len in [0, 1, 27, 28, 29, 64] {
            let plain = if len < 3 { "x".repeat(len) } else { format!("é{}", "x".repeat(len - 2)) };
            assert_eq!(plain.len(), len);
            let escaped = format!("{}\n", &plain[..len.saturating_sub(1)]);
            let seq = Value::Seq(vec![Value::Str(plain.clone()), Value::Str(escaped.clone())]);
            let text = json::to_string(&seq);
            let want = format!("[\"{plain}\",\"{}\\n\"]", &escaped[..escaped.len() - 1]);
            assert_eq!(text, want);
            assert_eq!(json::from_str(&text).expect("parses"), seq);
            let map = Value::Map(vec![(plain.clone(), Value::Null), (escaped, Value::U64(1))]);
            assert_eq!(json::from_str(&json::to_string(&map)).expect("parses"), map);
        }
        // Keys take the same escaping as values.
        let map = Value::Map(vec![("k\"\n".to_string(), Value::Null)]);
        assert_eq!(json::to_string(&map), r#"{"k\"\n":null}"#);
        assert_eq!(json::from_str(r#"{"k\"\n":null}"#).expect("parses"), map);
    }

    #[test]
    fn numbers_keep_their_type_and_text() {
        for (text, value, back) in [
            ("-0", Value::I64(0), "0"),
            ("-0.0", Value::F64(-0.0), "-0.0"),
            ("1e2", Value::F64(100.0), "100.0"),
            (
                "18446744073709551615",
                Value::U64(u64::MAX),
                "18446744073709551615",
            ),
            (
                "-9223372036854775808",
                Value::I64(i64::MIN),
                "-9223372036854775808",
            ),
            (
                "18446744073709551616",
                Value::F64(18446744073709551616.0),
                "1.8446744073709552e19",
            ),
            ("1e-7", Value::F64(1e-7), "1e-7"),
            ("1e21", Value::F64(1e21), "1e21"),
            ("0.1", Value::F64(0.1), "0.1"),
            ("+5", Value::U64(5), "5"),
        ] {
            let parsed = json::from_str(text).expect(text);
            assert_eq!(parsed, value, "{text}");
            assert_eq!(json::to_string(&parsed), back, "{text}");
        }
        assert_eq!(json::from_str("1e2").expect("parses").as_u64(), Some(100));
        for bad in ["", "-", "1.2.3", "e", "--1", "tru", "nul", "falsy"] {
            assert!(json::from_str(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let nest =
            |open: &str, close: &str, n: usize| format!("{}{}", open.repeat(n), close.repeat(n));
        assert!(json::from_str(&nest("[", "]", json::MAX_DEPTH)).is_ok());
        assert!(json::from_str(&nest("[", "]", json::MAX_DEPTH + 1)).is_err());
        assert!(json::from_str(&format!(
            "{}1{}",
            "{\"a\":".repeat(json::MAX_DEPTH),
            "}".repeat(json::MAX_DEPTH)
        ))
        .is_ok());
        assert!(json::from_str(&format!(
            "{}1{}",
            "{\"a\":".repeat(json::MAX_DEPTH + 1),
            "}".repeat(json::MAX_DEPTH + 1)
        ))
        .is_err());
        // The remote-abort input: one receive buffer's worth of '['.
        assert!(json::from_str(&"[".repeat(60_000)).is_err());
        assert!(json::from_str(&"[{\"k\":".repeat(12_000)).is_err());
        let hostile = format!("{{\"known\":1,\"junk\":{}}}", "[".repeat(60_000));
        assert!(json::from_str(&hostile).is_err());
        // Siblings do not accumulate depth.
        assert!(json::from_str(&format!("[{}]", vec!["[[]]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn writer_streams_what_the_tree_encodes() {
        let tree = Value::Map(vec![
            ("id".to_string(), Value::U64(7)),
            ("neg".to_string(), Value::I64(-3)),
            ("empty".to_string(), Value::Seq(vec![])),
            (
                "xs".to_string(),
                Value::Seq(vec![
                    Value::F64(1.5),
                    Value::F64(f64::INFINITY),
                    Value::Map(vec![]),
                    Value::Map(vec![("s".to_string(), Value::Str("é\t".to_string()))]),
                ]),
            ),
            ("ok".to_string(), Value::Bool(true)),
        ]);
        let mut out = b"prefix ".to_vec();
        let mut w = json::Writer::new(&mut out);
        w.begin_object();
        w.key("id").u64(7);
        w.key("neg").i64(-3);
        w.key("empty").begin_array().end_array();
        w.key("xs").begin_array().f64(1.5).f64(f64::INFINITY);
        w.begin_object().end_object();
        w.begin_object().key("s").str("é\t").end_object();
        w.end_array();
        w.key("ok").bool(true);
        w.end_object();
        let text = json::to_string(&tree);
        assert_eq!(
            text,
            r#"{"id":7,"neg":-3,"empty":[],"xs":[1.5,null,{},{"s":"é\t"}],"ok":true}"#
        );
        assert_eq!(
            out,
            format!("prefix {text}").into_bytes(),
            "appends, never clears"
        );
    }

    #[test]
    fn multibyte_text_never_splits() {
        let parsed = json::from_str("[\"é\",1]").expect("parses");
        assert_eq!(parsed.as_seq().map(<[Value]>::len), Some(2));
        // Multi-byte characters where the tokenizer looks for ASCII: every
        // one is a clean error (or a clean read), never a split character.
        for text in ["é", "[1,é]", "{é:1}", "\"\\é\"", "\"\\u12é\"", "\"\\u00é9\"", "\"\\ué\"", "tré", "1é", "\"é"] {
            assert!(json::from_str(text).is_err(), "{text}");
        }
        assert_eq!(json::from_str("\"\\u00e9é\\\\é\"").expect("parses"), Value::Str("éé\\é".to_string()));
    }
}
