//! Per-file import/alias resolution.
//!
//! The v1 scanner matched banned names textually, so `use
//! std::collections::HashMap as Map;` smuggled a hash map past the
//! hash-iteration rule, and `std::env::var` never matched anything at
//! all. This module walks the token stream for `use` declarations —
//! plain paths, `as` renames, nested `{…}` groups, `self`, and globs —
//! and builds a map from each locally visible name to its canonical
//! path. [`crate::scan`] then resolves every path expression it meets
//! through that map before applying the path-based rules.
//!
//! Resolution is per-file and syntactic: it does not chase `crate::`
//! re-exports or `mod` hierarchies. That is exactly the right scope for
//! the determinism rules, which all target absolute `std`/`rand` items.

use std::collections::BTreeMap;

use crate::lex::{Token, TokenKind};

/// The import table of one source file.
#[derive(Default, Debug)]
pub struct Imports {
    /// Local name → canonical path segments (`Map` → `["std",
    /// "collections", "HashMap"]`).
    map: BTreeMap<String, Vec<String>>,
    /// Modules pulled in via `use path::*;`.
    globs: Vec<Vec<String>>,
    /// Number of `use` declarations seen (for scan statistics).
    pub use_decls: usize,
}

/// How deep `{…}` groups of one use-tree are followed. Real trees nest a
/// few levels; a group deeper than this is skipped over like a stray
/// token, so hostile input cannot recurse the stack away.
const MAX_GROUP_DEPTH: usize = 32;

/// Items a glob import of a watched `std` module would bring into scope.
/// Only the names the rules care about need to be here.
fn glob_items(module: &[String]) -> &'static [&'static str] {
    match module {
        [a, b] if a == "std" && b == "collections" => &["HashMap", "HashSet"],
        [a, b] if a == "std" && b == "time" => &["Instant", "SystemTime"],
        [a, b] if a == "std" && b == "thread" => &["spawn", "scope", "Builder"],
        [a, b] if a == "std" && b == "env" => &[
            "var", "vars", "var_os", "vars_os", "args", "args_os", "set_var", "remove_var",
            "current_dir", "current_exe", "temp_dir",
        ],
        [a, b] if a == "std" && b == "fs" => &[
            "read", "write", "read_to_string", "read_dir", "create_dir", "create_dir_all",
            "remove_file", "remove_dir", "remove_dir_all", "copy", "rename", "File",
            "OpenOptions",
        ],
        [a, b] if a == "std" && b == "net" => &["TcpListener", "TcpStream", "UdpSocket"],
        [a] if a == "rand" => &["random", "thread_rng"],
        _ => &[],
    }
}

impl Imports {
    /// Collects the import table from a lexed file.
    pub fn collect(tokens: &[Token<'_>]) -> Imports {
        let sig: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let mut imports = Imports::default();
        let mut i = 0;
        while i < sig.len() {
            if sig[i].kind == TokenKind::Ident && sig[i].text == "use" {
                imports.use_decls += 1;
                i = imports.parse_tree(&sig, i + 1, &[], 0);
            } else {
                i += 1;
            }
        }
        imports
    }

    /// Parses one use-tree starting at `sig[i]` with `prefix` already
    /// accumulated inside `depth` enclosing groups; returns the index just
    /// past the tree (after `;`, `,`, or the group's closing `}`).
    fn parse_tree(
        &mut self,
        sig: &[&Token<'_>],
        mut i: usize,
        prefix: &[String],
        depth: usize,
    ) -> usize {
        let mut path: Vec<String> = prefix.to_vec();
        loop {
            match sig.get(i) {
                Some(t) if t.kind == TokenKind::Ident && t.text == "as" => {
                    // `path as name` (or `as _`, which binds nothing).
                    if let Some(alias) = sig.get(i + 1) {
                        if alias.kind == TokenKind::Ident && alias.text != "_" {
                            self.map.insert(alias.text.to_string(), path.clone());
                        }
                        i += 2;
                    } else {
                        i += 1;
                    }
                    return self.skip_to_end(sig, i);
                }
                Some(t) if t.kind == TokenKind::Ident || t.kind == TokenKind::RawIdent => {
                    match t.text {
                        "self" if !path.is_empty() => {
                            // `{self, …}`: binds the module itself.
                            if let Some(last) = path.last().cloned() {
                                self.map.insert(last, path.clone());
                            }
                        }
                        _ => path.push(t.text.trim_start_matches("r#").to_string()),
                    }
                    i += 1;
                }
                Some(t) if t.is_punct(':') => {
                    // `::` — the lexer emits two glued colons.
                    i += 1;
                    if sig.get(i).is_some_and(|t| t.is_punct(':')) {
                        i += 1;
                    }
                }
                Some(t) if t.is_punct('*') => {
                    // A glob ends its tree: `*` binds no name itself.
                    self.globs.push(path.clone());
                    return self.skip_to_end(sig, i + 1);
                }
                Some(t) if t.is_punct('{') && depth < MAX_GROUP_DEPTH => {
                    i += 1;
                    loop {
                        match sig.get(i) {
                            Some(t) if t.is_punct('}') => {
                                i += 1;
                                break;
                            }
                            Some(t) if t.is_punct(',') => i += 1,
                            Some(_) => i = self.parse_tree(sig, i, &path, depth + 1),
                            None => return i,
                        }
                    }
                    return self.skip_to_end(sig, i);
                }
                Some(t) if t.is_punct(',') || t.is_punct('}') || t.is_punct(';') => {
                    // End of a plain path: bind its last segment.
                    if path.len() > prefix.len() {
                        if let Some(last) = path.last().cloned() {
                            self.map.insert(last, path.clone());
                        }
                    }
                    if t.is_punct(';') {
                        i += 1;
                    }
                    return i;
                }
                Some(_) => i += 1, // `pub`, stray tokens: skip
                None => return i,
            }
        }
    }

    /// After a completed subtree: consume a trailing `;` if present so the
    /// caller resumes at the next statement.
    fn skip_to_end(&self, sig: &[&Token<'_>], i: usize) -> usize {
        if sig.get(i).is_some_and(|t| t.is_punct(';')) {
            i + 1
        } else {
            i
        }
    }

    /// Resolves a path expression to canonical segments. Unresolvable
    /// paths come back unchanged.
    pub fn resolve(&self, path: &[&str]) -> Vec<String> {
        let Some(&first) = path.first() else {
            return Vec::new();
        };
        if let Some(canon) = self.map.get(first) {
            let mut out = canon.clone();
            out.extend(path[1..].iter().map(|s| s.to_string()));
            return out;
        }
        if matches!(first, "std" | "core" | "alloc" | "rand") {
            return path.iter().map(|s| s.to_string()).collect();
        }
        for glob in &self.globs {
            if glob_items(glob).contains(&first) {
                let mut out = glob.clone();
                out.extend(path.iter().map(|s| s.to_string()));
                return out;
            }
        }
        path.iter().map(|s| s.to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn resolve_in(src: &str, path: &[&str]) -> Vec<String> {
        let toks = lex(src);
        Imports::collect(&toks).resolve(path)
    }

    #[test]
    fn plain_import_binds_last_segment() {
        assert_eq!(
            resolve_in("use std::collections::HashMap;", &["HashMap"]),
            vec!["std", "collections", "HashMap"]
        );
    }

    #[test]
    fn as_alias_binds_the_alias() {
        let src = "use std::collections::HashMap as Map;";
        assert_eq!(
            resolve_in(src, &["Map"]),
            vec!["std", "collections", "HashMap"]
        );
        // `Map::new()` keeps trailing segments.
        assert_eq!(
            resolve_in(src, &["Map", "new"]),
            vec!["std", "collections", "HashMap", "new"]
        );
    }

    #[test]
    fn nested_groups_and_self() {
        let src = "use std::collections::{self, HashMap, hash_map::Entry};";
        assert_eq!(
            resolve_in(src, &["collections", "HashMap"]),
            vec!["std", "collections", "HashMap"]
        );
        assert_eq!(
            resolve_in(src, &["Entry"]),
            vec!["std", "collections", "hash_map", "Entry"]
        );
    }

    #[test]
    fn groups_with_aliases_inside() {
        let src = "use std::{env, fs::File as F, collections::{HashSet as Set}};";
        assert_eq!(resolve_in(src, &["env", "var"]), vec!["std", "env", "var"]);
        assert_eq!(resolve_in(src, &["F"]), vec!["std", "fs", "File"]);
        assert_eq!(
            resolve_in(src, &["Set"]),
            vec!["std", "collections", "HashSet"]
        );
    }

    #[test]
    fn globs_resolve_watched_items_only() {
        let src = "use std::collections::*;";
        assert_eq!(
            resolve_in(src, &["HashMap"]),
            vec!["std", "collections", "HashMap"]
        );
        // Unwatched names stay unresolved.
        assert_eq!(resolve_in(src, &["BTreeMap"]), vec!["BTreeMap"]);
    }

    #[test]
    fn underscore_alias_binds_nothing() {
        assert_eq!(resolve_in("use std::fmt::Write as _;", &["Write"]), vec!["Write"]);
    }

    #[test]
    fn absolute_paths_pass_through() {
        assert_eq!(
            resolve_in("", &["std", "time", "Instant"]),
            vec!["std", "time", "Instant"]
        );
        assert_eq!(resolve_in("", &["my", "local"]), vec!["my", "local"]);
    }

    #[test]
    fn use_decl_count_is_tracked() {
        let toks = lex("use a::b;\nuse c::{d, e};\nfn f() {}\n");
        assert_eq!(Imports::collect(&toks).use_decls, 2);
    }
}
