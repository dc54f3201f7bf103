//! The lexer and the import resolver read every file of the workspace, so
//! no input may crash them: not arbitrary text, not a one-byte edit of a
//! real source file, not a file cut off anywhere.

use std::path::Path;
use std::sync::OnceLock;

use lint::lex::{lex, TokenKind};
use lint::resolve::Imports;
use proptest::prelude::*;

/// Lexes `src`, collects its import table and resolves every identifier,
/// with the token after it as a second segment, through it.
fn exercise(src: &str) {
    let tokens = lex(src);
    let imports = Imports::collect(&tokens);
    imports.resolve(&[]);
    for pair in tokens.windows(2).filter(|pair| pair[0].kind == TokenKind::Ident) {
        imports.resolve(&[pair[0].text, pair[1].text]);
    }
}

/// Every `.rs` file the lint pass reads, with its contents.
fn workspace_sources() -> &'static [(String, String)] {
    static SOURCES: OnceLock<Vec<(String, String)>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = lint::scan::workspace_files(&root).expect("walk the workspace");
        assert!(files.len() >= 100, "expected the workspace sources, found {files:?}");
        files
            .into_iter()
            .map(|rel| {
                let text = std::fs::read_to_string(root.join(&rel)).expect("read a source file");
                (rel, text)
            })
            .collect()
    })
}

/// Every prefix of every workspace file. The lexer keeps no state between
/// tokens but its position, so lexing `src[..cut]` yields the tokens of
/// `src` that end by `cut` followed by the lexing of the cut token's
/// prefix alone. Lexing every prefix of every token therefore covers every
/// cut in time linear in the source, where lexing each whole prefix would
/// be quadratic. The import table is collected from every token prefix
/// inside a `use` declaration, where a cut can leave a use-tree open.
#[test]
fn every_prefix_of_every_workspace_file_is_handled() {
    for (_, src) in workspace_sources() {
        let tokens = lex(src);
        for t in &tokens {
            let end = t.pos + t.text.len();
            for cut in (t.pos + 1..end).filter(|&cut| src.is_char_boundary(cut)) {
                exercise(&src[t.pos..cut]);
            }
        }
        let mut in_use = false;
        for (k, t) in tokens.iter().enumerate() {
            in_use |= t.kind == TokenKind::Ident && t.text == "use";
            if in_use {
                Imports::collect(&tokens[..k]).resolve(&[t.text]);
            }
            in_use &= !t.is_punct(';');
        }
    }
}

/// `use` trees nest by recursion; input nesting them without bound must
/// not exhaust the stack.
#[test]
fn deeply_nested_use_groups_are_handled() {
    for src in [
        "use a::".to_string() + &"{b::".repeat(100_000),
        "use ".to_string() + &"{".repeat(100_000) + "x" + &"}".repeat(100_000) + ";",
    ] {
        let imports = Imports::collect(&lex(&src));
        assert_eq!(imports.use_decls, 1);
    }
    let shallow = Imports::collect(&lex("use a::{b::{c::{d as e}}};"));
    assert_eq!(shallow.resolve(&["e"]), ["a", "b", "c", "d"]);
}

/// Mostly Rust's own alphabet, so inputs reach past the first token.
fn rust_ish_char() -> impl Strategy<Value = char> {
    const ALPHABET: &[char] = &[
        'u', 's', 'e', 'r', 'b', 'a', 'x', '_', '0', '9', '#', '"', '\'', '\\', '/', '*', '!',
        '{', '}', ':', ';', ',', '.', 'e', '+', '-', ' ', '\n', '\u{e9}',
    ];
    prop_oneof![
        4 => (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
        1 => (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_strings_are_handled(chars in proptest::collection::vec(rust_ish_char(), 0..200)) {
        exercise(&chars.into_iter().collect::<String>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One edit at the same offset (modulo length) of every workspace file.
    #[test]
    fn single_byte_mutations_of_every_workspace_file_are_handled(
        at in 0usize..1 << 20,
        byte in 0u8..=255,
        kind in 0u8..3,
    ) {
        for (_, src) in workspace_sources() {
            let mut bytes = src.clone().into_bytes();
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
            exercise(&String::from_utf8_lossy(&bytes));
        }
    }
}
