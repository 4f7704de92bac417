//! Panic-freedom analysis.
//!
//! Non-test code in the fault-tolerant layers (`wlc-serve`, `wlc-exec`,
//! and the `wlc-core` fallback path) must not contain `unwrap()`,
//! `expect()`, `panic!`, `todo!`, `unimplemented!`, `unreachable!`, or
//! a print macro (`print!`, `println!`, `eprint!`, `eprintln!`), which
//! panics when its write fails.
//! Hot-path files additionally forbid slice/array indexing (`x[i]`),
//! which panics on out-of-bounds. Both rules can be suppressed per
//! occurrence with `// wlc-lint: allow(panic, reason = "...")` or
//! `// wlc-lint: allow(index, reason = "...")` on the same line or the
//! line above.

use crate::lexer::TokKind;
use crate::{Finding, Rule, SourceFile};

/// File prefixes the panic rule applies to (non-test code).
pub const PANIC_SCOPES: [&str; 3] = [
    "crates/serve/src/",
    "crates/exec/src/",
    "crates/core/src/fallback.rs",
];

/// Hot-path files where indexing is also forbidden.
pub const HOT_PATHS: [&str; 6] = [
    "crates/serve/src/server.rs",
    "crates/serve/src/replica.rs",
    "crates/serve/src/router.rs",
    "crates/exec/src/service.rs",
    "crates/exec/src/pool.rs",
    "crates/core/src/fallback.rs",
];

/// Panicking macros (the `!` sigil is matched separately). The print
/// macros panic when their write fails: a closed pipe or a full disk
/// behind stdout or stderr (only a closed stderr descriptor is
/// swallowed).
const PANIC_MACROS: [&str; 8] = [
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "print",
    "println",
    "eprint",
    "eprintln",
];

/// Keywords that can legally precede `[` without it being an index
/// expression (`&mut [f64]`, `return [a, b]`, `in [..]`, ...).
const NONINDEX_KEYWORDS: [&str; 11] = [
    "mut", "dyn", "as", "return", "in", "else", "match", "if", "while", "let", "const",
];

/// Whether the panic rule covers `rel`.
pub fn in_panic_scope(rel: &str) -> bool {
    PANIC_SCOPES
        .iter()
        .any(|p| rel == *p || (p.ends_with('/') && rel.starts_with(p)))
}

/// Whether the index rule covers `rel`.
pub fn is_hot_path(rel: &str) -> bool {
    HOT_PATHS.contains(&rel)
}

/// Scans one in-scope file for panic sites.
pub fn analyze(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &file.tokens;
    let hot = is_hot_path(&file.rel);
    for (i, t) in toks.iter().enumerate() {
        if file.model.in_test(i) {
            continue;
        }
        match t.kind {
            TokKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                let is_call = i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                if is_call && !file.model.allowed("panic", t.line) {
                    findings.push(Finding {
                        chain: Vec::new(),
                        rule: Rule::Panic,
                        path: file.rel.clone(),
                        line: t.line,
                        message: format!(
                            "`.{}()` in fault-tolerant non-test code can panic; handle the \
                             error or annotate `// wlc-lint: allow(panic, reason = \"...\")`",
                            t.text
                        ),
                    });
                }
            }
            TokKind::Ident if PANIC_MACROS.contains(&t.text.as_str()) => {
                let is_macro = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
                if is_macro && !file.model.allowed("panic", t.line) {
                    let remedy = if t.text.contains("print") {
                        " panics when its write fails; format into a buffer and \
                         `write_all` it to a locked handle, handling the error,"
                    } else {
                        "; return an error instead"
                    };
                    findings.push(Finding {
                        chain: Vec::new(),
                        rule: Rule::Panic,
                        path: file.rel.clone(),
                        line: t.line,
                        message: format!(
                            "`{}!` in fault-tolerant non-test code{remedy} or annotate \
                             `// wlc-lint: allow(panic, reason = \"...\")`",
                            t.text
                        ),
                    });
                }
            }
            TokKind::Punct if hot && t.is_punct('[') && i > 0 => {
                let prev = &toks[i - 1];
                let indexing = match prev.kind {
                    TokKind::Ident => !NONINDEX_KEYWORDS.contains(&prev.text.as_str()),
                    TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                    _ => false,
                };
                if indexing && !file.model.allowed("index", t.line) {
                    findings.push(Finding {
                        chain: Vec::new(),
                        rule: Rule::Index,
                        path: file.rel.clone(),
                        line: t.line,
                        message: "slice/array indexing in a hot path can panic on \
                                  out-of-bounds; use `.get(..)` or annotate \
                                  `// wlc-lint: allow(index, reason = \"...\")`"
                            .into(),
                    });
                }
            }
            _ => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_from_str;

    #[test]
    fn unwrap_and_macros_are_flagged_outside_tests() {
        let src = r#"
fn live() {
    let x = compute().unwrap();
    let y = compute().expect("y");
    panic!("boom");
    todo!();
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        compute().unwrap();
        panic!("fine in tests");
    }
}
"#;
        let file = source_from_str("crates/serve/src/state.rs", src);
        let findings = analyze(&file);
        assert_eq!(findings.len(), 4, "{findings:?}");
    }

    #[test]
    fn print_macros_are_flagged_but_not_in_docs_or_writes() {
        let src = r#"
/// Logs with `println!("{x}")`; see [`log`].
fn log(out: &mut impl Write, x: u32) {
    print!("{x}");
    println!("{x}");
    eprint!("{x}");
    eprintln!("{x}");
    let _ = writeln!(out, "{x}");
    let _ = std::io::stderr().lock().write_all(b"x\n");
}
#[cfg(test)]
mod tests {
    fn t() {
        eprintln!("fine in tests");
    }
}
"#;
        let file = source_from_str("crates/serve/src/server.rs", src);
        let findings = analyze(&file);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [4, 5, 6, 7], "{findings:?}");
        assert!(
            findings[3].message.contains("`eprintln!`")
                && findings[3].message.contains("panics when its write fails"),
            "{}",
            findings[3].message
        );
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = r#"
fn live() {
    // wlc-lint: allow(panic, reason = "invariant: always Some here")
    let x = compute().unwrap();
}
"#;
        let file = source_from_str("crates/exec/src/pool.rs", src);
        assert!(analyze(&file).is_empty());
    }

    #[test]
    fn std_panic_path_is_not_a_macro() {
        let src = "fn f() { let loc = std::panic::Location::caller(); }";
        let file = source_from_str("crates/exec/src/tracked.rs", src);
        assert!(analyze(&file).is_empty());
    }

    #[test]
    fn indexing_flagged_only_in_hot_paths() {
        let hot = source_from_str(
            "crates/exec/src/pool.rs",
            "fn f(v: &[f64]) { let x = v[0]; }",
        );
        assert_eq!(analyze(&hot).len(), 1);
        let cold = source_from_str(
            "crates/exec/src/tracked.rs",
            "fn f(v: &[f64]) { let x = v[0]; }",
        );
        assert!(analyze(&cold).is_empty());
    }

    #[test]
    fn slice_types_are_not_indexing() {
        let src = "fn f(xs: &mut [f64], g: fn(&[u8])) -> [f64; 3] { make() }";
        let file = source_from_str("crates/exec/src/service.rs", src);
        assert!(analyze(&file).is_empty(), "{:?}", analyze(&file));
    }
}
