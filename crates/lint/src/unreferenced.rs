//! Unreferenced-pub analysis: a `pub` item that nothing outside tests
//! reads.
//!
//! rustc's `dead_code` lint exempts `pub` items, so an entry point whose
//! last caller was deleted stays compiled, documented and tested. This
//! rule flags a `pub` `fn`, `struct`, `enum`, `trait`, `type`, `const`
//! or `static` in `crates/*/src/**` or `src/**` whose name appears in no
//! *reading token*: a non-test identifier in those files, in `examples/`
//! or in `e2ebench/src/`. These do not read an item:
//!
//! - its own definition (the name after the keyword);
//! - for a type, the `impl` blocks of that name in its own crate;
//! - test code: `#[cfg(test)]` and `#[test]` regions (`tests/`
//!   directories are never loaded);
//! - comments, doc examples included (the lexer keeps them out of the
//!   token stream);
//! - `pub use` re-exports.
//!
//! Readers are matched by name alone. That over-counts them: a name
//! collision can hide an unread item, but it can never invent a finding.
//! Struct fields and enum variants are out of scope, since telling a
//! construction from a match pattern takes more than tokens.
//!
//! An item that only its own crate's tests read belongs behind
//! `#[cfg(test)] pub(crate)`. One that another crate's tests read stays
//! `pub` under `// wlc-lint: allow(unreferenced-pub, reason = "...")`,
//! with a reason that names the test reading it.

use std::collections::{HashMap, HashSet};

use crate::lexer::TokKind;
use crate::{Finding, Rule, SourceFile};

/// Directories beside the workspace sources whose non-test code reads
/// items. They are lexed for this rule only.
pub const READER_DIRS: [&str; 2] = ["examples", "e2ebench/src"];

/// Item keywords in scope.
const ITEMS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// A `pub` item definition: its file, name token and keyword.
struct PubItem {
    file: usize,
    name: usize,
    keyword: &'static str,
}

/// Flags every `pub` item in `files` with no reading token in `files`
/// or `readers` (see the module docs).
pub fn analyze(files: &[SourceFile], readers: &[SourceFile]) -> Vec<Finding> {
    let items: Vec<PubItem> = files
        .iter()
        .enumerate()
        .flat_map(|(f, file)| {
            pub_items(file)
                .into_iter()
                .map(move |(name, keyword)| PubItem {
                    file: f,
                    name,
                    keyword,
                })
        })
        .collect();
    let names: HashSet<&str> = items
        .iter()
        .map(|it| files[it.file].tokens[it.name].text.as_str())
        .collect();

    // Every reading occurrence of a defined name: (file, token) over
    // `files` followed by `readers`.
    let all: Vec<&SourceFile> = files.iter().chain(readers).collect();
    let mut reads: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (f, file) in all.iter().enumerate() {
        let reexports = pub_use_ranges(file);
        for (i, t) in file.tokens.iter().enumerate() {
            if names.contains(t.text.as_str())
                && !file.model.in_test(i)
                && !reexports.iter().any(|&(s, e)| i >= s && i <= e)
            {
                reads.entry(t.text.as_str()).or_default().push((f, i));
            }
        }
    }

    let mut findings = Vec::new();
    for it in &items {
        let file = &files[it.file];
        let tok = &file.tokens[it.name];
        let is_type = matches!(it.keyword, "struct" | "enum" | "trait" | "type");
        let home = crate_of(&file.rel);
        let own_impl = |f: usize, i: usize| {
            is_type
                && crate_of(&all[f].rel) == home
                && all[f]
                    .model
                    .impls
                    .iter()
                    .any(|(ty, (s, e))| *ty == tok.text && i >= *s && i <= *e)
        };
        let read = reads.get(tok.text.as_str()).is_some_and(|occ| {
            occ.iter()
                .any(|&(f, i)| (f, i) != (it.file, it.name) && !own_impl(f, i))
        });
        if !read && !file.model.allowed(Rule::UnreferencedPub.name(), tok.line) {
            findings.push(Finding {
                rule: Rule::UnreferencedPub,
                path: file.rel.clone(),
                line: tok.line,
                message: format!(
                    "`pub {} {}` is read by nothing outside tests: delete it, make it \
                     `#[cfg(test)] pub(crate)` if only its own crate's tests read it, or \
                     annotate `// wlc-lint: allow(unreferenced-pub, reason = \"...\")` \
                     naming the test that reads it",
                    it.keyword, tok.text
                ),
                chain: Vec::new(),
            });
        }
    }
    findings
}

/// The `pub` items of one file, outside test code: the token index of
/// each name and its item keyword. `pub(crate)` and other restricted
/// visibilities are not `pub`.
fn pub_items(file: &SourceFile) -> Vec<(usize, &'static str)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_keyword("pub") || file.model.in_test(i) {
            continue;
        }
        // Qualifiers between `pub` and the keyword: `const fn`,
        // `unsafe fn`, `async fn`, `extern "C" fn`.
        let mut j = i + 1;
        while toks.get(j).is_some_and(|q| {
            q.is_keyword("unsafe")
                || q.is_keyword("async")
                || q.is_keyword("extern")
                || q.kind == TokKind::Str
                || (q.is_keyword("const") && toks.get(j + 1).is_some_and(|n| n.is_keyword("fn")))
        }) {
            j += 1;
        }
        let Some(keyword) = toks
            .get(j)
            .and_then(|k| ITEMS.iter().find(|&&kw| k.is_keyword(kw)))
        else {
            continue;
        };
        if toks.get(j + 1).is_some_and(|m| m.is_keyword("mut")) {
            j += 1; // `pub static mut NAME`
        }
        if toks.get(j + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            out.push((j + 1, *keyword));
        }
    }
    out
}

/// Token ranges `[pub, ;]` of `pub use` and `pub(...) use` re-exports.
fn pub_use_ranges(file: &SourceFile) -> Vec<(usize, usize)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_keyword("pub") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|p| p.is_punct('(')) {
            while toks.get(j).is_some_and(|p| !p.is_punct(')')) {
                j += 1;
            }
            j += 1;
        }
        if toks.get(j).is_some_and(|u| u.is_keyword("use")) {
            let end = (j..toks.len())
                .find(|&k| toks[k].is_punct(';'))
                .unwrap_or(toks.len().saturating_sub(1));
            out.push((i, end));
        }
    }
    out
}

/// The crate directory a workspace-relative path belongs to
/// (`crates/nn/` for `crates/nn/src/mlp.rs`, empty for the facade's
/// `src/`); reader files belong to none.
fn crate_of(rel: &str) -> &str {
    if rel.starts_with("src/") {
        return "";
    }
    match rel.find("/src/") {
        Some(at) if rel.starts_with("crates/") => &rel[..at + 1],
        _ => rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_from_str;

    fn flagged(files: &[(&str, &str)], readers: &[(&str, &str)]) -> Vec<String> {
        let files: Vec<SourceFile> = files.iter().map(|(p, s)| source_from_str(p, s)).collect();
        let readers: Vec<SourceFile> = readers.iter().map(|(p, s)| source_from_str(p, s)).collect();
        analyze(&files, &readers)
            .into_iter()
            .map(|f| {
                let name = f.message.split('`').nth(1).unwrap_or("").to_string();
                format!("{}:{} {name}", f.path, f.line)
            })
            .collect()
    }

    #[test]
    fn its_own_definition_does_not_read_an_item() {
        let got = flagged(&[("crates/a/src/lib.rs", "pub fn lonely() {}\n")], &[]);
        assert_eq!(got, vec!["crates/a/src/lib.rs:1 pub fn lonely"]);
    }

    #[test]
    fn every_item_keyword_is_in_scope_and_restricted_visibility_is_not() {
        let src = "pub const fn f() {}\npub struct S;\npub enum E { A }\npub trait T {}\n\
                   pub type Alias = u8;\npub const C: u8 = 1;\npub static mut M: u8 = 0;\n\
                   pub(crate) fn g() {}\npub mod m {}\npub struct F { pub field: u8 }\n";
        let got = flagged(&[("crates/a/src/lib.rs", src)], &[]);
        let names: Vec<&str> = got.iter().filter_map(|g| g.rsplit(' ').next()).collect();
        assert_eq!(names, vec!["f", "S", "E", "T", "Alias", "C", "M", "F"]);
    }

    #[test]
    fn another_crate_or_module_reads_an_item() {
        let got = flagged(
            &[
                (
                    "crates/a/src/lib.rs",
                    "pub fn shared() {}\npub struct Cfg;\n",
                ),
                ("crates/a/src/run.rs", "fn go(c: &Cfg) {}\n"),
                ("crates/b/src/lib.rs", "fn main() { wlc_a::shared(); }\n"),
            ],
            &[],
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn a_types_own_impl_blocks_do_not_read_it() {
        let src = "pub struct Solo { n: u8 }\n\
                   impl Solo { fn new() -> Solo { Solo { n: 0 } } }\n\
                   impl Clone for Solo { fn clone(&self) -> Solo { Solo::new() } }\n";
        let got = flagged(&[("crates/a/src/lib.rs", src)], &[]);
        assert_eq!(got, vec!["crates/a/src/lib.rs:1 pub struct Solo"]);
        // A method's own impl block reads the method, and another
        // type's impl block reads the type.
        let src = "pub struct Solo;\nimpl Solo { pub fn a() { Self::b() } pub fn b() {} }\n\
                   struct Other;\nimpl From<Solo> for Other { fn from(_: Solo) -> Self { Other } }\n\
                   fn main() { Solo::a(); }\n";
        assert!(flagged(&[("crates/a/src/lib.rs", src)], &[]).is_empty());
        // An impl of the same name in another crate is a reader.
        let got = flagged(
            &[
                ("crates/a/src/lib.rs", "pub struct Twin;\n"),
                (
                    "crates/b/src/lib.rs",
                    "impl Twin { fn f() -> Twin { Twin } }\n",
                ),
            ],
            &[],
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn test_code_does_not_read_an_item() {
        let src = "pub fn probe() {}\n\
                   #[cfg(test)]\nmod tests { #[test] fn t() { super::probe(); } }\n\
                   #[test]\nfn top() { probe(); }\n";
        let got = flagged(&[("crates/a/src/lib.rs", src)], &[]);
        assert_eq!(got, vec!["crates/a/src/lib.rs:1 pub fn probe"]);
    }

    #[test]
    fn comments_and_doc_examples_do_not_read_an_item() {
        let src = "/// ```\n/// wlc_a::documented();\n/// ```\npub fn documented() {}\n\
                   // documented() is called nowhere\n/* documented() */\n";
        let got = flagged(&[("crates/a/src/lib.rs", src)], &[]);
        assert_eq!(got, vec!["crates/a/src/lib.rs:4 pub fn documented"]);
    }

    #[test]
    fn pub_use_reexports_do_not_read_an_item_but_plain_use_does() {
        let got = flagged(
            &[
                (
                    "crates/a/src/lib.rs",
                    "pub fn exported() {}\npub fn imported() {}\n",
                ),
                (
                    "src/lib.rs",
                    "pub use wlc_a::exported;\npub(crate) use wlc_a::{exported as e};\n\
                     use wlc_a::imported;\n",
                ),
            ],
            &[],
        );
        assert_eq!(got, vec!["crates/a/src/lib.rs:1 pub fn exported"]);
    }

    #[test]
    fn examples_and_e2ebench_read_items_outside_their_tests() {
        let files = [(
            "crates/a/src/lib.rs",
            "pub fn demo() {}\npub fn measured() {}\npub fn tested() {}\n",
        )];
        let got = flagged(
            &files,
            &[
                ("examples/demo.rs", "fn main() { wlc::a::demo(); }\n"),
                (
                    "e2ebench/src/main.rs",
                    "fn main() { measured(); }\n#[cfg(test)]\nmod t { fn f() { tested(); } }\n",
                ),
            ],
        );
        assert_eq!(got, vec!["crates/a/src/lib.rs:3 pub fn tested"]);
    }

    #[test]
    fn a_reasoned_allow_keeps_an_item() {
        let src = "// wlc-lint: allow(unreferenced-pub, reason = \"read by tests/x.rs::t\")\n\
                   pub fn kept() {}\n\
                   // wlc-lint: allow(unreferenced-pub)\npub fn unreasoned() {}\n";
        let got = flagged(&[("crates/a/src/lib.rs", src)], &[]);
        assert_eq!(got, vec!["crates/a/src/lib.rs:4 pub fn unreasoned"]);
    }

    #[test]
    fn crate_of_names_the_crate_directory() {
        assert_eq!(crate_of("crates/nn/src/mlp.rs"), "crates/nn/");
        assert_eq!(crate_of("crates/bench/src/bin/x.rs"), "crates/bench/");
        assert_eq!(crate_of("src/lib.rs"), "");
        assert_eq!(crate_of("examples/demo.rs"), "examples/demo.rs");
    }
}
