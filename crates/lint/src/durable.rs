//! Durable-write analysis: every mutation of durable state must go
//! through the fault-injection substrate.
//!
//! `wlc-fault` exists so that a crash-consistency sweep can observe and
//! tear *every* write, rename, fsync, and unlink the system performs. A
//! direct `std::fs::write` (or `fs::rename`, `File::create`,
//! `.sync_all()`, `fs::remove_file`) in non-test code is invisible to
//! the simulated filesystem — the sweep cannot crash inside it, so any
//! torn-state bug it harbors ships untested. Such calls are findings
//! everywhere in the workspace; the `wlc-fault` passthrough
//! (`RealFs`) carries its own justifying annotations. Suppress a
//! deliberate bypass with
//! `// wlc-lint: allow(durable-write, reason = "...")`.

use crate::lexer::TokKind;
use crate::{Finding, Rule, SourceFile};

/// `std::fs` free functions that mutate durable state.
const FS_MUTATORS: [&str; 4] = ["write", "rename", "remove_file", "create_dir_all"];

/// Scans one file for durable writes that bypass `wlc_fault::Fs`.
pub fn analyze(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.model.in_test(i) {
            continue;
        }
        let path_call_to = |name: &str| {
            toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 2).is_some_and(|b| b.is_punct(':'))
                && toks.get(i + 3).is_some_and(|c| c.is_ident(name))
        };
        let flag = |findings: &mut Vec<Finding>, call: &str| {
            if !file.model.allowed("durable-write", t.line) {
                findings.push(Finding {
                    chain: Vec::new(),
                    rule: Rule::DurableWrite,
                    path: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "`{call}` mutates durable state outside the fault-injection \
                         substrate; the crash-consistency sweep cannot tear it — route \
                         it through `wlc_fault::Fs` or annotate \
                         `// wlc-lint: allow(durable-write, reason = \"...\")`"
                    ),
                });
            }
        };
        match t.text.as_str() {
            // `fs::write(..)` / `std::fs::rename(..)`: both spellings put
            // an `fs` path segment right before the mutator name.
            "fs" => {
                for op in FS_MUTATORS {
                    if path_call_to(op) {
                        flag(&mut findings, &format!("fs::{op}"));
                    }
                }
            }
            // `File::create(..)` truncates (or creates) the file on disk.
            "File" if path_call_to("create") => flag(&mut findings, "File::create"),
            // `.sync_all()`: the durability barrier itself.
            "sync_all" if i > 0 && toks[i - 1].is_punct('.') => {
                flag(&mut findings, ".sync_all()");
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
    fn direct_durable_mutations_are_flagged() {
        let src = r#"
fn persist(path: &Path, staged: &Path) -> io::Result<()> {
    std::fs::write(staged, b"v1")?;
    std::fs::File::open(staged)?.sync_all()?;
    fs::rename(staged, path)?;
    let _ = std::fs::remove_file(staged);
    let _ = fs::create_dir_all(path.parent().unwrap_or(path));
    let _ = File::create(path)?;
    Ok(())
}
"#;
        let file = source_from_str("crates/learn/src/state.rs", src);
        let found = analyze(&file);
        assert_eq!(found.len(), 6, "{found:?}");
        for call in [
            "fs::write",
            ".sync_all()",
            "fs::rename",
            "fs::remove_file",
            "fs::create_dir_all",
            "File::create",
        ] {
            assert!(
                found.iter().any(|f| f.message.contains(call)),
                "missing {call}: {found:?}"
            );
        }
    }

    #[test]
    fn tests_and_annotations_are_exempt() {
        let src = r#"
fn passthrough(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // wlc-lint: allow(durable-write, reason = "RealFs passthrough")
    std::fs::write(path, bytes)
}
#[cfg(test)]
mod tests {
    #[test]
    fn scratch() {
        std::fs::write("/tmp/x", b"y").unwrap();
        std::fs::rename("/tmp/x", "/tmp/z").unwrap();
    }
}
"#;
        let file = source_from_str("crates/fault/src/lib.rs", src);
        assert!(analyze(&file).is_empty(), "{:?}", analyze(&file));
    }

    #[test]
    fn reads_and_unrelated_idents_are_fine() {
        let src = r#"
fn load(path: &Path) -> io::Result<String> {
    let dir = std::fs::read_dir(path.parent().unwrap_or(path))?;
    drop(dir);
    std::fs::read_to_string(path)
}
fn not_fs() {
    let fs = 1;
    let write = fs + 1;
    let _ = write;
}
"#;
        let file = source_from_str("crates/core/src/model.rs", src);
        assert!(analyze(&file).is_empty(), "{:?}", analyze(&file));
    }
}
