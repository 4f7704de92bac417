//! `wlc-lint` — workspace static analysis for the wlc repository.
//!
//! Runs the repo-specific analyses over the workspace's Rust sources,
//! using a hand-rolled lexer (no external parser dependencies):
//!
//! - **lock-order** ([`locks`]): builds an inter-procedural lock
//!   acquisition graph over `wlc-exec` + `wlc-serve` and fails on any
//!   cycle (potential ABBA deadlock), with `file:line` provenance.
//! - **panic** / **index** ([`panics`]): forbids `unwrap`/`expect`/
//!   `panic!`-family macros in fault-tolerant non-test code, and slice
//!   indexing in hot-path files.
//! - **determinism** ([`determinism`]): forbids wall clocks and
//!   randomly-seeded hash containers in the seeded crates and the
//!   worker pools.
//! - **consistency** ([`consistency`]): exit codes, HTTP statuses, and
//!   `#![forbid(unsafe_code)]` stay in sync with the documentation.
//! - **alloc-in-hot-path** / **blocking-in-hot-path** ([`hotpath`]):
//!   forbids heap allocation and blocking (locks, sleeps, channel waits,
//!   filesystem/network I/O) in any function *reachable* from a
//!   `#[wlc_hot]` root, with full call-chain provenance.
//! - **determinism-taint** ([`taint`]): nondeterminism sources
//!   (`Instant::now`, hash iteration, env vars, ...) flowing through the
//!   call graph into durable sinks (`Fs` writes, `write_atomic`,
//!   `commit_events`, shadow scoring), with `sanitize(...)` annotations
//!   for the seeded-RNG / sorted-iteration idioms.
//! - **guard-coverage** ([`guards`]): fields accessed under a struct's
//!   lock in one method but bare in another.
//! - **durable-write** ([`durable`]): forbids direct `std::fs` mutations
//!   (write/rename/sync_all/remove/create) outside the `wlc-fault`
//!   substrate, so the crash-consistency sweep sees every durable
//!   transition.
//!
//! The interprocedural rules share one infrastructure: [`items`] parses
//! signatures, typed locals and call sites on top of the token model,
//! and [`callgraph`] resolves them into a workspace-wide call graph
//! whose edges carry `file:line` provenance.
//!
//! Findings are suppressed per occurrence with
//! `// wlc-lint: allow(<rule>, reason = "...")` on the same line or the
//! line above; a reason is mandatory and malformed annotations are
//! themselves findings.

#![forbid(unsafe_code)]

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod consistency;
pub mod determinism;
pub mod durable;
pub mod guards;
pub mod hotpath;
pub mod items;
pub mod lexer;
pub mod locks;
pub mod model;
pub mod panics;
pub mod taint;

/// Which analysis produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Lock-acquisition-order cycle or self-deadlock.
    LockOrder,
    /// Panicking construct in fault-tolerant code.
    Panic,
    /// Slice/array indexing in a hot path.
    Index,
    /// Nondeterminism source in a seeded crate or worker pool.
    Determinism,
    /// Exit-code / status / doc inconsistency.
    Consistency,
    /// Heap allocation on the transitive `#[wlc_hot]` call path.
    HotAlloc,
    /// Blocking call / IO on the transitive `#[wlc_hot]` call path.
    HotBlocking,
    /// Nondeterminism source reaching a durable sink via the call graph.
    DeterminismTaint,
    /// Lock-protected field accessed without its guard.
    GuardCoverage,
    /// Durable-state mutation bypassing the `wlc-fault` substrate.
    DurableWrite,
    /// Malformed or unknown `wlc-lint:` annotation.
    Annotation,
}

impl Rule {
    /// Stable rule name, as used by `--only` and annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockOrder => "lock-order",
            Rule::Panic => "panic",
            Rule::Index => "index",
            Rule::Determinism => "determinism",
            Rule::Consistency => "consistency",
            Rule::HotAlloc => "alloc-in-hot-path",
            Rule::HotBlocking => "blocking-in-hot-path",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::GuardCoverage => "guard-coverage",
            Rule::DurableWrite => "durable-write",
            Rule::Annotation => "annotation",
        }
    }

    /// Parses a rule name (the inverse of [`Rule::name`]).
    pub fn from_name(s: &str) -> Option<Rule> {
        match s {
            "lock-order" => Some(Rule::LockOrder),
            "panic" => Some(Rule::Panic),
            "index" => Some(Rule::Index),
            "determinism" => Some(Rule::Determinism),
            "consistency" => Some(Rule::Consistency),
            "alloc-in-hot-path" => Some(Rule::HotAlloc),
            "blocking-in-hot-path" => Some(Rule::HotBlocking),
            "determinism-taint" => Some(Rule::DeterminismTaint),
            "guard-coverage" => Some(Rule::GuardCoverage),
            "durable-write" => Some(Rule::DurableWrite),
            "annotation" => Some(Rule::Annotation),
            _ => None,
        }
    }
}

/// Rules that may be suppressed with an `allow(...)` annotation.
pub const SUPPRESSIBLE: [&str; 8] = [
    "panic",
    "index",
    "determinism",
    "alloc-in-hot-path",
    "blocking-in-hot-path",
    "determinism-taint",
    "guard-coverage",
    "durable-write",
];

/// Rules whose taint may be declared clean with a `sanitize(...)`
/// annotation (a dataflow-level claim, stronger than `allow`).
pub const SANITIZABLE: [&str; 1] = ["determinism-taint"];

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Analysis that produced it.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Call-chain provenance for interprocedural findings (empty for
    /// token-local ones): display strings from the entry point down to
    /// the flagged site / source.
    pub chain: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )?;
        for step in &self.chain {
            write!(f, "\n    via {step}")?;
        }
        Ok(())
    }
}

/// One lexed + modeled source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Raw file contents.
    pub text: String,
    /// Token stream.
    pub tokens: Vec<lexer::Token>,
    /// Structural model.
    pub model: model::FileModel,
}

/// Builds a [`SourceFile`] from an in-memory string (used by tests).
pub fn source_from_str(rel: &str, src: &str) -> SourceFile {
    let (tokens, comments) = lexer::lex(src);
    let model = model::build(&tokens, &comments);
    SourceFile {
        rel: rel.to_string(),
        text: src.to_string(),
        tokens,
        model,
    }
}

/// Recursively collects `.rs` files under `dir` into `out`, sorted.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads every workspace source file: `crates/*/src/**/*.rs` plus the
/// facade crate's `src/**/*.rs`. Test directories (`crates/*/tests`,
/// including this crate's self-test fixtures) are intentionally not
/// visited.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for krate in crates {
            collect_rs(&krate.join("src"), &mut paths)?;
        }
    }
    collect_rs(&root.join("src"), &mut paths)?;

    let mut files = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let (tokens, comments) = lexer::lex(&text);
        let model = model::build(&tokens, &comments);
        files.push(SourceFile {
            rel,
            text,
            tokens,
            model,
        });
    }
    Ok(files)
}

/// Runs every analysis (or just `only`, when given) over the workspace
/// rooted at `root`. Findings come back sorted by path, line, rule.
pub fn analyze(root: &Path, only: Option<Rule>) -> io::Result<Vec<Finding>> {
    let files = load_workspace(root)?;
    let mut findings: Vec<Finding> = Vec::new();
    let run = |rule: Rule| only.is_none() || only == Some(rule);

    if run(Rule::Annotation) {
        for file in &files {
            for allow in &file.model.allows {
                if let Some(err) = &allow.error {
                    findings.push(Finding {
                        rule: Rule::Annotation,
                        path: file.rel.clone(),
                        line: allow.line,
                        message: err.clone(),
                        chain: Vec::new(),
                    });
                } else if allow.sanitize && !SANITIZABLE.contains(&allow.rule.as_str()) {
                    findings.push(Finding {
                        rule: Rule::Annotation,
                        path: file.rel.clone(),
                        line: allow.line,
                        message: format!(
                            "sanitize({}) names a rule without dataflow semantics; \
                             sanitizable rules are {}",
                            allow.rule,
                            SANITIZABLE.join(", ")
                        ),
                        chain: Vec::new(),
                    });
                } else if !allow.sanitize && !SUPPRESSIBLE.contains(&allow.rule.as_str()) {
                    findings.push(Finding {
                        rule: Rule::Annotation,
                        path: file.rel.clone(),
                        line: allow.line,
                        message: format!(
                            "allow({}) names an unknown rule; suppressible rules are {}",
                            allow.rule,
                            SUPPRESSIBLE.join(", ")
                        ),
                        chain: Vec::new(),
                    });
                }
            }
        }
    }

    if run(Rule::LockOrder) {
        let lock_files: Vec<&SourceFile> = files
            .iter()
            .filter(|f| {
                f.rel.starts_with("crates/exec/src/") || f.rel.starts_with("crates/serve/src/")
            })
            .collect();
        findings.extend(locks::analyze(&lock_files));
    }

    if run(Rule::Panic) || run(Rule::Index) {
        for file in &files {
            if panics::in_panic_scope(&file.rel) {
                findings.extend(panics::analyze(file));
            }
        }
    }

    if run(Rule::Determinism) {
        for file in &files {
            if determinism::in_scope(&file.rel) {
                findings.extend(determinism::analyze(file));
            }
        }
    }

    if run(Rule::Consistency) {
        findings.extend(consistency::analyze(root, &files));
    }

    // The interprocedural rules share one call graph over the workspace.
    let need_graph = run(Rule::HotAlloc)
        || run(Rule::HotBlocking)
        || run(Rule::DeterminismTaint)
        || run(Rule::GuardCoverage);
    if need_graph {
        let graph = callgraph::Graph::build(&files);
        if run(Rule::HotAlloc) || run(Rule::HotBlocking) {
            // Workspace-wide: any crate may mark functions `#[wlc_hot]`.
            findings.extend(hotpath::analyze(&files, &graph));
        }
        if run(Rule::DeterminismTaint) {
            findings.extend(taint::analyze(&files, &graph));
        }
        if run(Rule::GuardCoverage) {
            findings.extend(guards::analyze(&files, &graph));
        }
    }

    if run(Rule::DurableWrite) {
        // Workspace-wide: a stray `std::fs::write` anywhere escapes the
        // crash-consistency sweep. The `RealFs` passthrough suppresses
        // its own sites with annotations like everyone else.
        for file in &files {
            findings.extend(durable::analyze(file));
        }
    }

    if let Some(rule) = only {
        findings.retain(|f| f.rule == rule);
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    findings.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);
    Ok(findings)
}
