//! Determinism analysis for the seeded crates and the worker pools.
//!
//! `wlc-math`, `wlc-nn`, `wlc-sim`, and `wlc-data` promise bit-identical
//! results for a fixed seed regardless of thread count, and the
//! `wlc-exec` fan-outs they run on (the indexed pool and the band pool)
//! promise the same results for any worker count. Non-test code in
//! those files therefore must not read wall/monotonic clocks
//! (`Instant::now`, `SystemTime::now`) or construct hash containers with
//! the randomly-seeded default hasher (`HashMap::new`, `HashSet::new`,
//! `RandomState`), whose iteration order varies across processes. Nor
//! may they call std's libm-backed `exp` or `powf` (`x.exp()`,
//! `f64::powf(..)`), whose bits vary across hosts: glibc picks an FMA or
//! a non-FMA version when a process loads. `wlc_math::elementary` holds
//! the pinned replacements and is the one file exempt.
//! Suppress a justified use with
//! `// wlc-lint: allow(determinism, reason = "...")`.

use crate::lexer::TokKind;
use crate::{Finding, Rule, SourceFile};

/// Source prefixes the determinism rule applies to. `wlc-exec`'s lock
/// registry (`tracked.rs`) and service pool stay out: neither produces
/// results that must match across worker counts.
pub const SEEDED_SCOPES: [&str; 6] = [
    "crates/math/src/",
    "crates/nn/src/",
    "crates/sim/src/",
    "crates/data/src/",
    "crates/exec/src/pool.rs",
    "crates/exec/src/band.rs",
];

/// Constructors of randomly-seeded hash containers.
const HASH_CTORS: [&str; 5] = ["new", "default", "with_capacity", "from", "from_iter"];

/// The file that implements the pinned replacements for std's `exp` and
/// `powf` from basic arithmetic; the libm rule does not apply inside it.
const ELEMENTARY: &str = "crates/math/src/elementary.rs";

/// Whether the determinism rule covers `rel`.
pub fn in_scope(rel: &str) -> bool {
    SEEDED_SCOPES.iter().any(|p| rel.starts_with(p))
}

/// Scans one in-scope file for nondeterminism sources.
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
        // `x.name(` or `f64::name(` / `f32::name(`.
        let float_call = || {
            let before = |back: usize| i.checked_sub(back).and_then(|j| toks.get(j));
            let method = before(1).is_some_and(|p| p.is_punct('.'));
            let path = before(1).is_some_and(|p| p.is_punct(':'))
                && before(2).is_some_and(|p| p.is_punct(':'))
                && before(3).is_some_and(|p| p.is_ident("f64") || p.is_ident("f32"));
            toks.get(i + 1).is_some_and(|a| a.is_punct('(')) && (method || path)
        };
        match t.text.as_str() {
            "Instant" | "SystemTime"
                if path_call_to("now") && !file.model.allowed("determinism", t.line) =>
            {
                findings.push(Finding {
                    chain: Vec::new(),
                    rule: Rule::Determinism,
                    path: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "`{}::now()` in seeded code breaks run-to-run reproducibility; \
                         thread timing through parameters or annotate \
                         `// wlc-lint: allow(determinism, reason = \"...\")`",
                        t.text
                    ),
                });
            }
            "HashMap" | "HashSet" => {
                let ctor = HASH_CTORS.iter().any(|c| path_call_to(c));
                if ctor && !file.model.allowed("determinism", t.line) {
                    findings.push(Finding {
                        chain: Vec::new(),
                        rule: Rule::Determinism,
                        path: file.rel.clone(),
                        line: t.line,
                        message: format!(
                            "`{}` uses the randomly-seeded default hasher; iteration order \
                             is nondeterministic — use `BTreeMap`/`BTreeSet` or annotate \
                             `// wlc-lint: allow(determinism, reason = \"...\")`",
                            t.text
                        ),
                    });
                }
            }
            "exp" | "powf"
                if file.rel != ELEMENTARY
                    && float_call()
                    && !file.model.allowed("determinism", t.line) =>
            {
                let pinned = if t.text == "exp" {
                    "wlc_math::elementary::exp"
                } else {
                    "wlc_math::elementary::powu (for an integer exponent)"
                };
                findings.push(Finding {
                    chain: Vec::new(),
                    rule: Rule::Determinism,
                    path: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "std's `{}` calls the host's libm, whose bits differ between \
                         hosts; use `{pinned}` or annotate \
                         `// wlc-lint: allow(determinism, reason = \"...\")`",
                        t.text
                    ),
                });
            }
            "RandomState" if !file.model.allowed("determinism", t.line) => {
                findings.push(Finding {
                    chain: Vec::new(),
                    rule: Rule::Determinism,
                    path: file.rel.clone(),
                    line: t.line,
                    message: "`RandomState` is seeded from the OS at process start; \
                              seeded code must hash deterministically"
                        .into(),
                });
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
    fn clocks_and_hashers_are_flagged() {
        let src = r#"
fn live() {
    let t0 = Instant::now();
    let walltime = SystemTime::now();
    let mut m: HashMap<u32, u32> = HashMap::new();
}
"#;
        let file = source_from_str("crates/nn/src/train.rs", src);
        assert_eq!(analyze(&file).len(), 3);
    }

    #[test]
    fn libm_exp_and_powf_are_flagged() {
        let src = r#"
fn live(x: f64, beta: f64, t: u64) -> f64 {
    let a = (-x).exp();
    let b = f64::exp(x);
    let c = beta.powf(t as f64);
    let d = wlc_math::elementary::exp(x) * elementary::powu(beta, t);
    // wlc-lint: allow(determinism, reason = "fixture: a justified call")
    let e = x.exp();
    a + b + c + d + e + x.exp_m1() + x.powi(2) + x.ln()
}
"#;
        let file = source_from_str("crates/nn/src/optimizer.rs", src);
        let findings = analyze(&file);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            [3, 4, 5]
        );
        assert!(findings[0].message.contains("`wlc_math::elementary::exp`"));
        assert!(findings[2].message.contains("`wlc_math::elementary::powu"));
        // The pinned implementations are built there from basic
        // arithmetic, and their tests may compare against std.
        let file = source_from_str(ELEMENTARY, src);
        assert!(analyze(&file).is_empty());
    }

    #[test]
    fn tests_and_annotations_are_exempt() {
        let src = r#"
fn live() {
    // wlc-lint: allow(determinism, reason = "membership only; never iterated")
    let mut seen: HashMap<&str, usize> = HashMap::new();
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let t0 = Instant::now();
        let s = std::collections::HashSet::new();
    }
}
"#;
        let file = source_from_str("crates/data/src/validate.rs", src);
        assert!(analyze(&file).is_empty(), "{:?}", analyze(&file));
    }

    #[test]
    fn worker_pools_are_in_scope_but_the_lock_registry_is_not() {
        let src = "fn run() { let t0 = Instant::now(); }";
        let findings = |rel: &str| {
            let file = source_from_str(rel, src);
            if in_scope(&file.rel) {
                analyze(&file).len()
            } else {
                0
            }
        };
        assert_eq!(findings("crates/exec/src/pool.rs"), 1);
        assert_eq!(findings("crates/exec/src/band.rs"), 1);
        assert_eq!(findings("crates/exec/src/tracked.rs"), 0);
    }

    #[test]
    fn instant_as_type_annotation_is_fine() {
        let src = "fn f(deadline: Instant) -> Instant { deadline }";
        let file = source_from_str("crates/sim/src/queue.rs", src);
        assert!(analyze(&file).is_empty());
    }
}
