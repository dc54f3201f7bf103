//! The workspace's one JSON document model.
//!
//! The workspace vendors its dependencies (no crates.io access), so instead
//! of serde every JSON document — the catalog export, the committed
//! `BENCH_*.json` artifacts, `lint --json` and the forensic report headers —
//! is a [`Value`] built with [`obj!`](crate::obj) and the `From` impls
//! below, and rendered by [`Value::to_json`] (compact) or [`Value::pretty`]
//! (two-space indented). The output matches what `serde_json` produced for
//! the old derives: unit enum variants as `"VariantName"` strings, `Option`
//! as the value or `null`, structs as objects in field-declaration order.

use crate::types::Failure;

/// JSON string literal with the escapes the catalog data can contain.
pub fn push_json_str(out: &mut String, s: &str) {
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

/// A JSON document. Object keys keep insertion order and numbers keep
/// their exact text, so a parse → [`Value::to_json`] round trip reproduces
/// the compact input byte for byte — which is what the lint gate relies on
/// to prove `lint --json` speaks real JSON.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    Null,
    Bool(bool),
    /// The number's text, verbatim (`"1e-3"` stays `"1e-3"`).
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// Builds a [`Value::Obj`] with fields in the order written:
/// `obj! { "bench" => "perf", "seed" => 8u64 }`. Each value goes through
/// `Value::from`, so it may be anything with a `From` impl, a `Value`
/// included.
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Value::Obj(vec![
            $(($key.to_string(), $crate::json::Value::from($value))),*
        ])
    };
}

impl Value {
    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The document on one line, no whitespace outside strings.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// The document with two-space indentation, one element or field a
    /// line and `": "` after keys — the `serde_json::to_string_pretty`
    /// layout, except that an empty container still opens a line:
    /// `[\n<indent + 1>\n<indent>]`, as every committed artifact has it.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out
    }

    /// Appends the document, `indent` levels deep when pretty and on one
    /// line when `None`.
    fn render(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|level| level + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(n),
            Value::Str(s) => push_json_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                newline(out, inner);
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        newline(out, inner);
                    }
                    v.render(out, inner);
                }
                newline(out, indent);
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                newline(out, inner);
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        newline(out, inner);
                    }
                    push_json_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.render(out, inner);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

/// A line break and `indent` levels of two spaces; nothing when compact.
fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(level) = indent {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Num(n.to_string())
            }
        }
    )*};
}

from_integer!(u8, u16, u32, u64, usize);

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Unit enums serialize as their variant name, exactly like serde's derive;
/// `Debug` prints the same identifier, so it is the single source of truth.
macro_rules! from_debug_name {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Str(format!("{v:?}"))
            }
        }
    )*};
}

from_debug_name!(
    crate::types::System,
    crate::types::Source,
    crate::types::Impact,
    crate::types::PartitionType,
    crate::types::Timing,
    crate::types::Mechanism,
    crate::types::LeaderElectionFlaw,
    crate::types::ClientAccess,
    crate::types::EventType,
    crate::types::Ordering,
    crate::types::Connectivity,
    crate::types::Resolution
);

impl From<&Failure> for Value {
    fn from(f: &Failure) -> Self {
        obj! {
            "id" => f.id,
            "system" => f.system,
            "source" => f.source,
            "reference" => f.reference,
            "impact" => f.impact,
            "partition" => f.partition,
            "timing" => f.timing,
            "catastrophic" => f.catastrophic,
            "mechanisms" => f.mechanisms.clone(),
            "leader_flaw" => f.leader_flaw,
            "client_access" => f.client_access,
            "min_events" => f.min_events,
            "event_types" => f.event_types.clone(),
            "ordering" => f.ordering,
            "connectivity" => f.connectivity,
            "single_node_isolation" => f.single_node_isolation,
            "nodes_needed" => f.nodes_needed,
            "partitions_required" => f.partitions_required,
            "reproducible" => f.reproducible,
            "resolution" => f.resolution,
            "resolution_days" => f.resolution_days,
        }
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so without a bound a hostile document of a few kilobytes of `[`
/// overflows the stack; the committed artifacts nest at most 8 deep.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (the inverse of [`Value::to_json`]). Errors carry the
/// byte offset of the offending character; nesting deeper than
/// `MAX_DEPTH` (128) is an error at the first bracket beyond it.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { text: input, i: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.i < input.len() {
        return Err(format!("trailing input at byte {}", p.pos()));
    }
    Ok(v)
}

/// A cursor over the input's bytes. Every byte JSON gives a meaning to is
/// ASCII and a string's other characters are copied a run at a time, so
/// the cursor only ever rests on the first byte of a character.
struct Parser<'a> {
    text: &'a str,
    i: usize,
}

impl Parser<'_> {
    /// Byte offset of the cursor (the input's length at its end).
    fn pos(&self) -> usize {
        self.i
    }

    /// The byte under the cursor, as a `char`: a byte of a non-ASCII
    /// character reads as a Latin-1 one, which no JSON token starts with.
    fn peek(&self) -> Option<char> {
        self.text.as_bytes().get(self.i).map(|&b| char::from(b))
    }

    fn skip_ws(&mut self) {
        let rest = &self.text.as_bytes()[self.i..];
        self.i += rest.len() - rest.trim_ascii_start().len();
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{c}` at byte {}", self.pos()))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        let found = self.text.as_bytes()[self.i..].starts_with(lit.as_bytes());
        if found {
            self.i += lit.len();
        }
        found
    }

    /// One value, `depth` arrays and objects deep.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some('{' | '[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos()
            )),
            Some('{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some('}') {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => self.i += 1,
                        Some('}') => {
                            self.i += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos())),
                    }
                }
            }
            Some('[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(']') {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => self.i += 1,
                        Some(']') => {
                            self.i += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos())),
                    }
                }
            }
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('t') if self.eat_lit("true") => Ok(Value::Bool(true)),
            Some('f') if self.eat_lit("false") => Ok(Value::Bool(false)),
            Some('n') if self.eat_lit("null") => Ok(Value::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let start = self.i;
                while self
                    .peek()
                    .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                {
                    self.i += 1;
                }
                Ok(Value::Num(self.text[start..self.i].to_string()))
            }
            _ => Err(format!("unexpected input at byte {}", self.pos())),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some('"') {
            return Err(format!("expected string at byte {}", self.pos()));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let run = self.i;
            while self.peek().is_some_and(|c| c != '"' && c != '\\') {
                self.i += 1;
            }
            out.push_str(&self.text[run..self.i]);
            match self.peek() {
                Some('"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('/') => out.push('/'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('b') => out.push('\u{0008}'),
                        Some('f') => out.push('\u{000c}'),
                        Some('u') => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                self.i += 1;
                                let d = self
                                    .peek()
                                    .and_then(|c| c.to_digit(16))
                                    .ok_or_else(|| {
                                        format!("bad \\u escape at byte {}", self.pos())
                                    })?;
                                code = code * 16 + d;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos())),
                    }
                    self.i += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_and_control_chars() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\x01");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn options_and_vecs_render() {
        assert_eq!(Value::from(Some(3u32)).to_json(), "3");
        assert_eq!(Value::from(None as Option<u32>).to_json(), "null");
        assert_eq!(Value::from(vec![1u8, 2, 3]).to_json(), "[1,2,3]");
    }

    #[test]
    fn enums_render_like_serde_derives() {
        assert_eq!(Value::from(crate::types::System::MongoDb).to_json(), "\"MongoDb\"");
        assert_eq!(Value::from(crate::types::Impact::DataLoss).to_json(), "\"DataLoss\"");
    }

    #[test]
    fn pretty_round_trips_structure() {
        let compact = "{\"a\":[1,2],\"b\":\"x{,}\"}";
        let p = parse(compact).expect("parse").pretty();
        assert!(p.contains("\"a\": [\n"));
        // Braces inside strings are untouched.
        assert!(p.contains("\"x{,}\""));
        // Stripping whitespace outside strings recovers the compact form.
        let stripped: String = {
            let mut in_string = false;
            let mut escaped = false;
            p.chars()
                .filter(|&c| {
                    if in_string {
                        if escaped {
                            escaped = false;
                        } else if c == '\\' {
                            escaped = true;
                        } else if c == '"' {
                            in_string = false;
                        }
                        true
                    } else {
                        if c == '"' {
                            in_string = true;
                        }
                        !c.is_whitespace()
                    }
                })
                .collect()
        };
        assert_eq!(stripped, compact);
        // An empty container still opens a line one level deeper.
        let empty = obj! { "fixed" => Value::Arr(Vec::new()), "e" => obj! {} };
        assert_eq!(
            empty.pretty(),
            "{\n  \"fixed\": [\n    \n  ],\n  \"e\": {\n    \n  }\n}"
        );
        assert_eq!(empty.to_json(), "{\"fixed\":[],\"e\":{}}");
    }

    #[test]
    fn parse_round_trips_compact_documents() {
        let compact = "{\"a\":[1,2,1e-3],\"b\":\"x\\\"y\",\"c\":null,\"d\":true,\"e\":{}}";
        let v = parse(compact).expect("parse");
        assert_eq!(v.to_json(), compact);
        // Pretty output parses back to the same tree.
        assert_eq!(parse(&v.pretty()).expect("parse pretty"), v);
    }

    #[test]
    fn parse_accessors_navigate_objects() {
        let v = parse("{\"rule\":\"wall-clock\",\"line\":7,\"tags\":[\"a\"]}").expect("parse");
        assert_eq!(v.get("rule").and_then(Value::as_str), Some("wall-clock"));
        assert_eq!(v.get("line").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("tags").and_then(Value::as_array).map(<[Value]>::len), Some(1));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_unescapes_strings() {
        let v = parse("\"a\\n\\t\\u0041\\\\\"").expect("parse");
        assert_eq!(v.as_str(), Some("a\n\tA\\"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["{", "[1,", "{\"a\"}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth_with_the_offending_offset() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"k\":", "}", MAX_DEPTH)).is_ok());
        let err = parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let err = parse(&nested(" {\"k\":", "}", MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.ends_with(&format!("at byte {}", 1 + 6 * MAX_DEPTH)),
            "{err}"
        );
    }

    /// Without the cap, this many levels overflowed a test thread's stack
    /// and aborted the whole process.
    #[test]
    fn a_hundred_thousand_levels_are_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&("[".repeat(100_000) + &"]".repeat(100_000))).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    /// The committed `BENCH_*.json` artifacts at the repository root, by name.
    fn committed_artifacts() -> Vec<(String, String)> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut found: Vec<(String, String)> = std::fs::read_dir(&root)
            .expect("read the repository root")
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
            })
            .map(|name| {
                let text = std::fs::read_to_string(root.join(&name)).expect("read an artifact");
                (name, text)
            })
            .collect();
        found.sort();
        assert!(
            found.len() >= 6,
            "expected the committed artifacts, found {found:?}"
        );
        found
    }

    #[test]
    fn every_prefix_of_every_committed_artifact_parses_or_errs() {
        for (name, text) in committed_artifacts() {
            let doc = parse(&text).map_err(|e| format!("{name} does not parse: {e}"));
            // Each golden is exactly what the one document model renders.
            assert_eq!(doc.map(|v| v.pretty() + "\n"), Ok(text.clone()), "{name}");
            for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
                let cut = parse(&text[..end]);
                if !text[end..].trim().is_empty() {
                    assert!(cut.is_err(), "{name} cut at byte {end} parsed");
                }
            }
        }
    }

    use proptest::prelude::*;

    /// Mostly JSON's own alphabet, so inputs get past the first byte.
    fn json_ish_char() -> impl Strategy<Value = char> {
        const ALPHABET: &[char] = &[
            '{', '}', '[', ']', ',', ':', '"', '\\', ' ', '\n', 't', 'r', 'u', 'e', 'f', 'a', 'l',
            's', 'n', '0', '1', '9', '-', '+', '.', 'E', 'b', '/', '\u{e9}',
        ];
        prop_oneof![
            4 => (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
            1 => (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn parse_never_panics_on_arbitrary_strings(
            chars in proptest::collection::vec(json_ish_char(), 0..200),
        ) {
            let input: String = chars.into_iter().collect();
            if let Ok(v) = parse(&input) {
                // Whatever parses renders and parses back to itself.
                prop_assert_eq!(parse(&v.to_json()), Ok(v));
            }
        }

        #[test]
        fn parse_never_panics_on_single_byte_mutations_of_the_artifacts(
            file in 0usize..64,
            at in 0usize..1 << 20,
            byte in 0u8..=255,
            kind in 0u8..3,
        ) {
            let artifacts = committed_artifacts();
            let (_, text) = &artifacts[file % artifacts.len()];
            let mut bytes = text.clone().into_bytes();
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
