//! `wlc-lint` command-line driver.
//!
//! ```text
//! wlc-lint --workspace            # lint the enclosing cargo workspace
//! wlc-lint --root path/to/tree    # lint an explicit tree (fixtures)
//! wlc-lint --workspace --only panic
//! wlc-lint --workspace --format json --out target/lint-report.json
//! wlc-lint --workspace --budget BENCH_lint.json
//! ```
//!
//! Exit codes: `0` clean, `1` findings reported, `2` usage error,
//! `3` wall-time budget exceeded.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use wlc_lint::{analyze, Finding, Rule, SUPPRESSIBLE};

const USAGE: &str = "\
wlc-lint — workspace static analysis (lock order, panic-freedom,
determinism + interprocedural determinism-taint, exit-code consistency,
transitive hot-path purity, guard coverage, durable-write discipline,
unreferenced pub items)

USAGE:
    wlc-lint [--workspace | --root <PATH>] [--only <RULE>]
             [--format text|json] [--out <PATH>] [--budget <PATH>]

OPTIONS:
    --workspace      Locate the enclosing cargo workspace root (default)
    --root <PATH>    Analyze the tree rooted at PATH instead
    --only <RULE>    Run a single rule: lock-order | panic | index |
                     determinism | consistency | alloc-in-hot-path |
                     blocking-in-hot-path | determinism-taint |
                     guard-coverage | durable-write |
                     unreferenced-pub | annotation
    --format <FMT>   Output format: text (default) or json (a stable
                     array of {rule, file, line, message, chain,
                     suppressible} objects on stdout)
    --out <PATH>     Also write the findings in the selected format to
                     PATH (used by CI to upload an artifact)
    --budget <PATH>  Enforce the wall-time budget file PATH (JSON
                     {\"workspace_ms\": N}): fail with exit 3 if the
                     analysis takes longer than 20x the committed
                     baseline

EXIT CODES:
    0 clean   1 findings reported   2 bad usage   3 budget exceeded";

/// Multiple of the committed baseline the analysis may take before the
/// budget step fails. Generous on purpose: the budget exists to catch a
/// fixpoint pass going accidentally quadratic, not scheduler noise.
const BUDGET_MULTIPLIER: u64 = 20;

/// Walks upward from the current directory to the first `Cargo.toml`
/// that declares `[workspace]`.
fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a stable JSON array (sorted upstream by
/// [`analyze`]): one object per finding with `rule`, `file`, `line`,
/// `message`, `chain` (array of strings, possibly empty), and
/// `suppressible`.
fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let chain = f
            .chain
            .iter()
            .map(|s| format!("\"{}\"", json_escape(s)))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\
             \"chain\":[{}],\"suppressible\":{}}}",
            f.rule.name(),
            json_escape(&f.path),
            f.line,
            json_escape(&f.message),
            chain,
            SUPPRESSIBLE.contains(&f.rule.name()),
        ));
    }
    out.push_str("\n]\n");
    out
}

/// Reads `workspace_ms` out of a committed budget file (a flat JSON
/// object; parsed with a string scan so the linter stays std-only).
fn read_budget_ms(path: &PathBuf) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = "\"workspace_ms\"";
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut only: Option<Rule> = None;
    let mut use_workspace = false;
    let mut json = false;
    let mut out_path: Option<PathBuf> = None;
    let mut budget_path: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workspace" => use_workspace = true,
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--root requires a path\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--only" => {
                i += 1;
                match args.get(i).and_then(|r| Rule::from_name(r)) {
                    Some(rule) => only = Some(rule),
                    None => {
                        eprintln!("--only requires a known rule name\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("json") => json = true,
                    Some("text") => json = false,
                    _ => {
                        eprintln!("--format requires `text` or `json`\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out_path = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--out requires a path\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--budget" => {
                i += 1;
                match args.get(i) {
                    Some(p) => budget_path = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--budget requires a path\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" | "help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    if use_workspace && root.is_some() {
        eprintln!("--workspace and --root are mutually exclusive\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let root = match root {
        Some(r) => r,
        None => match workspace_root() {
            Some(r) => r,
            None => {
                eprintln!(
                    "no enclosing cargo workspace found (run inside the repo or pass --root)"
                );
                return ExitCode::from(2);
            }
        },
    };
    if !root.is_dir() {
        eprintln!("wlc-lint: root {} is not a directory", root.display());
        return ExitCode::from(2);
    }
    let budget_ms = match &budget_path {
        Some(p) => match read_budget_ms(p) {
            Some(ms) => Some(ms),
            None => {
                eprintln!(
                    "--budget: could not read `workspace_ms` from {}\n\n{USAGE}",
                    p.display()
                );
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let started = Instant::now();
    let result = analyze(&root, only);
    let elapsed_ms = started.elapsed().as_millis() as u64;

    match result {
        Ok(findings) => {
            let rendered = if json {
                to_json(&findings)
            } else {
                let mut s = String::new();
                for f in &findings {
                    s.push_str(&f.to_string());
                    s.push('\n');
                }
                s
            };
            print!("{rendered}");
            if let Some(out) = &out_path {
                // wlc-lint: allow(durable-write, reason = "CI report artifact, never recovered from")
                if let Err(e) = std::fs::write(out, &rendered) {
                    eprintln!("wlc-lint: cannot write {}: {e}", out.display());
                    return ExitCode::from(2);
                }
            }
            if let Some(ms) = budget_ms {
                let limit = ms.saturating_mul(BUDGET_MULTIPLIER).max(1);
                if elapsed_ms > limit {
                    eprintln!(
                        "wlc-lint: budget exceeded: {elapsed_ms}ms > {limit}ms \
                         ({BUDGET_MULTIPLIER}x the committed {ms}ms baseline)"
                    );
                    return ExitCode::from(3);
                }
                eprintln!("wlc-lint: {elapsed_ms}ms within budget ({limit}ms)");
            }
            if findings.is_empty() {
                eprintln!("wlc-lint: clean ({})", root.display());
                ExitCode::SUCCESS
            } else {
                eprintln!("wlc-lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("wlc-lint: io error under {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
