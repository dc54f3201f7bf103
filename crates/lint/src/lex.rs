//! A hand-rolled, zero-dependency Rust lexer.
//!
//! The v1 scanner (since deleted) stripped literals with a line-oriented
//! state machine and matched identifiers in what was left. That loses
//! structure the rules need (paths, attributes, adjacency) and had real
//! bugs around `'\\'` char literals and raw identifiers. This module
//! lexes the source once into a stream of spanned tokens — raw strings
//! with any `#` count, byte strings/chars, nested block comments, doc
//! comments, char-vs-lifetime disambiguation, raw identifiers — and the
//! analyses in [`crate::scan`] walk that stream instead of text lines.
//!
//! The lexer is lossless enough for linting, not for compilation: it
//! does not validate escapes or numeric suffixes, and an unterminated
//! literal simply runs to end of file instead of erroring.

/// What a token is. `Punct` is a single punctuation character; multi-char
/// operators (`::`, `->`, `..`) appear as adjacent `Punct` tokens whose
/// byte positions touch — see [`Token::glued`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// A plain identifier or keyword (`fn`, `HashMap`, `unsafe`).
    Ident,
    /// A raw identifier (`r#unsafe`) — never a keyword, never matched
    /// against banned names (the v1 scanner got this wrong).
    RawIdent,
    /// A lifetime (`'a`, `'static`, `'_`), including the tick.
    Lifetime,
    /// A char or byte-char literal (`'x'`, `'\\'`, `b'\n'`).
    Char,
    /// A cooked string or byte-string literal (`"…"`, `b"…"`).
    Str,
    /// A raw string or raw byte-string literal (`r"…"`, `br#"…"#`).
    RawStr,
    /// A numeric literal, including suffix (`1_000u64`, `0xff`, `1.5e-3`).
    Number,
    /// A single punctuation character.
    Punct,
    /// `// …` (not a doc comment). Text excludes the trailing newline.
    LineComment,
    /// `/* … */`, nesting tracked. Text includes the delimiters.
    BlockComment,
    /// `/// …`, `//! …`, `/** … */`, or `/*! … */`.
    DocComment,
}

/// One lexed token: kind, exact source slice, and where it starts.
#[derive(Clone, Copy, Debug)]
pub struct Token<'a> {
    pub kind: TokenKind,
    /// The exact source text of the token (quotes/prefixes included).
    pub text: &'a str,
    /// 1-based line of the token's first character.
    pub line: usize,
    /// Byte offset of the token's first character.
    pub pos: usize,
}

impl<'a> Token<'a> {
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment | TokenKind::BlockComment | TokenKind::DocComment
        )
    }

    /// True when `self` is a `Punct` for char `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.starts_with(c)
    }

    /// True when `next` starts at the byte right after `self` ends —
    /// i.e. the two tokens form one operator like `::` with no space.
    pub fn glued(&self, next: &Token<'_>) -> bool {
        self.pos + self.text.len() == next.pos
    }

    /// For `Str`/`RawStr` tokens: the content between the quotes, with
    /// prefixes (`b`, `r`, hashes) stripped but escapes left as written.
    pub fn str_contents(&self) -> Option<&'a str> {
        match self.kind {
            TokenKind::Str => {
                let t = self.text.strip_prefix('b').unwrap_or(self.text);
                t.strip_prefix('"').map(|t| t.strip_suffix('"').unwrap_or(t))
            }
            TokenKind::RawStr => {
                let t = self.text.strip_prefix('b').unwrap_or(self.text);
                let t = t.strip_prefix('r')?;
                let hashes = t.len() - t.trim_start_matches('#').len();
                let t = &t[hashes..];
                let t = t.strip_prefix('"')?;
                let t = t.strip_suffix(&"#".repeat(hashes)).unwrap_or(t);
                Some(t.strip_suffix('"').unwrap_or(t))
            }
            _ => None,
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

struct Cursor<'a> {
    src: &'a str,
    chars: Vec<(usize, char)>,
    i: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self, k: usize) -> Option<char> {
        self.chars.get(self.i + k).map(|&(_, c)| c)
    }

    fn pos(&self) -> usize {
        self.chars.get(self.i).map_or(self.src.len(), |&(p, _)| p)
    }

    fn bump(&mut self) {
        if let Some(&(_, c)) = self.chars.get(self.i) {
            if c == '\n' {
                self.line += 1;
            }
            self.i += 1;
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Consumes `[a-zA-Z0-9_]*` from the current position.
    fn eat_ident_tail(&mut self) {
        while self.peek(0).is_some_and(is_ident_char) {
            self.bump();
        }
    }
}

/// Lexes a whole source file. Never fails: malformed input degrades to
/// `Punct` tokens or literals running to end of file.
pub fn lex(source: &str) -> Vec<Token<'_>> {
    let mut cur = Cursor {
        src: source,
        chars: source.char_indices().collect(),
        i: 0,
        line: 1,
    };
    let mut out = Vec::new();

    while let Some(c) = cur.peek(0) {
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        let start = cur.pos();
        let line = cur.line;
        let kind = lex_one(&mut cur, c);
        let end = cur.pos();
        out.push(Token {
            kind,
            text: &source[start..end],
            line,
            pos: start,
        });
    }
    out
}

fn lex_one(cur: &mut Cursor<'_>, c: char) -> TokenKind {
    match c {
        '/' if cur.peek(1) == Some('/') => {
            // `///` and `//!` are doc comments; `////…` is plain again.
            let doc = matches!(cur.peek(2), Some('!'))
                || (cur.peek(2) == Some('/') && cur.peek(3) != Some('/'));
            while cur.peek(0).is_some_and(|c| c != '\n') {
                cur.bump();
            }
            if doc {
                TokenKind::DocComment
            } else {
                TokenKind::LineComment
            }
        }
        '/' if cur.peek(1) == Some('*') => {
            let doc = matches!(cur.peek(2), Some('!'))
                || (cur.peek(2) == Some('*') && !matches!(cur.peek(3), Some('*' | '/')));
            cur.bump_n(2);
            let mut depth = 1usize;
            while depth > 0 {
                match (cur.peek(0), cur.peek(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        cur.bump_n(2);
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        cur.bump_n(2);
                    }
                    (Some(_), _) => cur.bump(),
                    (None, _) => break,
                }
            }
            if doc {
                TokenKind::DocComment
            } else {
                TokenKind::BlockComment
            }
        }
        'r' if cur.peek(1) == Some('#') && cur.peek(2).is_some_and(is_ident_start) => {
            cur.bump_n(2);
            cur.eat_ident_tail();
            TokenKind::RawIdent
        }
        'r' if raw_str_ahead(cur, 1) => {
            cur.bump();
            lex_raw_str(cur);
            TokenKind::RawStr
        }
        'b' if cur.peek(1) == Some('"') => {
            cur.bump();
            lex_cooked_str(cur);
            TokenKind::Str
        }
        'b' if cur.peek(1) == Some('\'') => {
            cur.bump();
            lex_char(cur);
            TokenKind::Char
        }
        'b' if cur.peek(1) == Some('r') && raw_str_ahead(cur, 2) => {
            cur.bump_n(2);
            lex_raw_str(cur);
            TokenKind::RawStr
        }
        c if is_ident_start(c) => {
            cur.bump();
            cur.eat_ident_tail();
            TokenKind::Ident
        }
        c if c.is_ascii_digit() => {
            lex_number(cur);
            TokenKind::Number
        }
        '"' => {
            lex_cooked_str(cur);
            TokenKind::Str
        }
        '\'' => {
            // Char literal vs lifetime. `'\…'` and `'x'` are literals;
            // `'ident` not closed by a quote is a lifetime tick.
            if cur.peek(1) == Some('\\') {
                lex_char(cur);
                TokenKind::Char
            } else if cur.peek(1).is_some_and(|c| c != '\'') && cur.peek(2) == Some('\'') {
                cur.bump_n(3);
                TokenKind::Char
            } else if cur.peek(1).is_some_and(is_ident_start) {
                cur.bump();
                cur.eat_ident_tail();
                TokenKind::Lifetime
            } else {
                cur.bump();
                TokenKind::Punct
            }
        }
        _ => {
            cur.bump();
            TokenKind::Punct
        }
    }
}

/// At `cur.peek(k)`: does `#* "` follow (a raw-string opener)?
fn raw_str_ahead(cur: &Cursor<'_>, mut k: usize) -> bool {
    while cur.peek(k) == Some('#') {
        k += 1;
    }
    cur.peek(k) == Some('"')
}

/// Consumes `#* " … " #*` starting at the hashes/quote.
fn lex_raw_str(cur: &mut Cursor<'_>) {
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        cur.bump();
    }
    cur.bump(); // opening quote
    while let Some(c) = cur.peek(0) {
        cur.bump();
        if c == '"' && (1..=hashes).all(|k| cur.peek(k - 1) == Some('#')) {
            cur.bump_n(hashes);
            return;
        }
    }
}

/// Consumes `" … "` with escape handling, starting at the quote.
fn lex_cooked_str(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while let Some(c) = cur.peek(0) {
        if c == '\\' {
            cur.bump();
            cur.bump(); // the escaped char (or continuation newline)
        } else if c == '"' {
            cur.bump();
            return;
        } else {
            cur.bump();
        }
    }
}

/// Consumes `' … '` starting at the quote. Handles `'\\'`, `'\''`,
/// `'\u{1F980}'` — the escape cases the v1 state machine mis-stepped on.
fn lex_char(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    if cur.peek(0) == Some('\\') {
        cur.bump();
        let esc = cur.peek(0);
        cur.bump(); // the escape character itself — even if it is `'`
        if esc == Some('u') && cur.peek(0) == Some('{') {
            while cur.peek(0).is_some_and(|c| c != '}') {
                cur.bump();
            }
            cur.bump(); // closing brace
        }
    } else {
        cur.bump(); // the literal char
    }
    if cur.peek(0) == Some('\'') {
        cur.bump(); // closing quote
    }
}

/// Consumes a numeric literal: int/float, radix prefixes, `_` separators,
/// exponents, type suffixes. Stops before `..` so ranges stay ranges.
fn lex_number(cur: &mut Cursor<'_>) {
    if cur.peek(0) == Some('0') && matches!(cur.peek(1), Some('x' | 'o' | 'b')) {
        cur.bump_n(2);
        while cur.peek(0).is_some_and(|c| c.is_ascii_hexdigit() || c == '_') {
            cur.bump();
        }
        cur.eat_ident_tail(); // suffix like u64
        return;
    }
    while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
        cur.bump();
    }
    if cur.peek(0) == Some('.') && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
        cur.bump();
        while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
            cur.bump();
        }
    }
    if matches!(cur.peek(0), Some('e' | 'E'))
        && (cur.peek(1).is_some_and(|c| c.is_ascii_digit())
            || (matches!(cur.peek(1), Some('+' | '-'))
                && cur.peek(2).is_some_and(|c| c.is_ascii_digit())))
    {
        cur.bump(); // e
        if matches!(cur.peek(0), Some('+' | '-')) {
            cur.bump();
        }
        while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
            cur.bump();
        }
    }
    cur.eat_ident_tail(); // suffix like f64, usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_keywords_and_puncts() {
        assert_eq!(
            kinds("fn f(x: u8) {}"),
            vec![
                (TokenKind::Ident, "fn"),
                (TokenKind::Ident, "f"),
                (TokenKind::Punct, "("),
                (TokenKind::Ident, "x"),
                (TokenKind::Punct, ":"),
                (TokenKind::Ident, "u8"),
                (TokenKind::Punct, ")"),
                (TokenKind::Punct, "{"),
                (TokenKind::Punct, "}"),
            ]
        );
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let src = r####"let s = r#"has "quotes" and // no comment"#; x"####;
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|&(k, t)| k == TokenKind::RawStr && t.contains("quotes")));
        assert_eq!(*toks.last().unwrap(), (TokenKind::Ident, "x"));
        // Double-hash raw string containing a single-hash terminator.
        let src = "r##\"inner \"# still open\"## y";
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::RawStr);
        assert_eq!(toks[1], (TokenKind::Ident, "y"));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r#"b"bytes" b'\n' br"raw" z"#);
        assert_eq!(toks[0], (TokenKind::Str, "b\"bytes\""));
        assert_eq!(toks[1], (TokenKind::Char, r"b'\n'"));
        assert_eq!(toks[2], (TokenKind::RawStr, "br\"raw\""));
        assert_eq!(toks[3], (TokenKind::Ident, "z"));
    }

    #[test]
    fn str_contents_strips_delimiters() {
        let t = lex(r###"br##"abc"##"###);
        assert_eq!(t[0].str_contents(), Some("abc"));
        let t = lex("b\"xy\"");
        assert_eq!(t[0].str_contents(), Some("xy"));
        let t = lex("\"xy\"");
        assert_eq!(t[0].str_contents(), Some("xy"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* outer /* inner */ still comment */ b");
        assert_eq!(toks[0], (TokenKind::Ident, "a"));
        assert_eq!(toks[1].0, TokenKind::BlockComment);
        assert_eq!(toks[2], (TokenKind::Ident, "b"));
    }

    #[test]
    fn doc_comments_are_distinguished() {
        let toks = kinds("/// doc\n//! inner\n// plain\n//// four\n/** blk */\n/*! inner */\n/* p */");
        let ks: Vec<TokenKind> = toks.iter().map(|&(k, _)| k).collect();
        assert_eq!(
            ks,
            vec![
                TokenKind::DocComment,
                TokenKind::DocComment,
                TokenKind::LineComment,
                TokenKind::LineComment,
                TokenKind::DocComment,
                TokenKind::DocComment,
                TokenKind::BlockComment,
            ]
        );
    }

    #[test]
    fn backslash_char_literal_does_not_swallow_code() {
        // The v1 state machine over-consumed here, eating everything up to
        // the next tick. The lexer must see `unwrap` as a live identifier.
        let toks = kinds(r"let c = '\\'; x.unwrap();");
        assert!(toks.iter().any(|&(k, t)| k == TokenKind::Char && t == r"'\\'"));
        assert!(toks.iter().any(|&(_, t)| t == "unwrap"));
        let toks = kinds(r"let c = b'\\'; x.unwrap();");
        assert!(toks.iter().any(|&(_, t)| t == "unwrap"));
    }

    #[test]
    fn escaped_tick_and_unicode_escapes() {
        let toks = kinds(r"'\'' '\u{1F980}' q");
        assert_eq!(toks[0], (TokenKind::Char, r"'\''"));
        assert_eq!(toks[1], (TokenKind::Char, r"'\u{1F980}'"));
        assert_eq!(toks[2], (TokenKind::Ident, "q"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = kinds("fn f<'a>(x: &'a str, s: &'static u8) {}");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|&&(k, _)| k == TokenKind::Lifetime)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
        assert!(!toks.iter().any(|&(k, _)| k == TokenKind::Char));
    }

    #[test]
    fn raw_identifiers_are_not_keywords() {
        let toks = kinds("let r#unsafe = 1; r#fn");
        assert!(toks
            .iter()
            .any(|&(k, t)| k == TokenKind::RawIdent && t == "r#unsafe"));
        assert!(!idents("let r#unsafe = 1;").contains(&"unsafe"));
    }

    #[test]
    fn numbers_with_suffixes_and_ranges() {
        let toks = kinds("1_000u64 0xffu8 1.5e-3f64 0..10");
        assert_eq!(toks[0], (TokenKind::Number, "1_000u64"));
        assert_eq!(toks[1], (TokenKind::Number, "0xffu8"));
        assert_eq!(toks[2], (TokenKind::Number, "1.5e-3f64"));
        // `0..10` must not eat the dots.
        assert_eq!(toks[3], (TokenKind::Number, "0"));
        assert_eq!(toks[4], (TokenKind::Punct, "."));
        assert_eq!(toks[5], (TokenKind::Punct, "."));
        assert_eq!(toks[6], (TokenKind::Number, "10"));
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let s = \"a\nb\nc\";\nlet r = r#\"x\ny\"#;\nz";
        let toks = lex(src);
        let z = toks.iter().find(|t| t.text == "z").unwrap();
        assert_eq!(z.line, 6);
        // Escaped newline (line continuation) still counts a line.
        let src = "let s = \"a \\\n b\";\nz";
        let z2 = lex(src).into_iter().find(|t| t.text == "z").unwrap();
        assert_eq!(z2.line, 3);
    }

    #[test]
    fn glued_detects_path_separators() {
        let toks = lex("a::b : : c");
        let puncts: Vec<&Token<'_>> =
            toks.iter().filter(|t| t.kind == TokenKind::Punct).collect();
        assert!(puncts[0].glued(puncts[1]));
        assert!(!puncts[2].glued(puncts[3]));
    }

    #[test]
    fn final_line_token_without_trailing_newline() {
        let toks = lex("fn f() {}\nx.unwrap() // lint:allow(unwrap-expect)");
        let cmt = toks.last().unwrap();
        assert_eq!(cmt.kind, TokenKind::LineComment);
        assert_eq!(cmt.line, 2);
    }
}
