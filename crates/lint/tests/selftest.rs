//! Self-tests: every seeded-bug fixture must fire its rule with
//! `file:line` provenance, and the real workspace must be clean.

use std::path::{Path, PathBuf};

use wlc_lint::{analyze, Finding, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(root: &Path) -> Vec<Finding> {
    analyze(root, None).expect("fixture tree must be readable")
}

#[test]
fn lock_cycle_fixture_reports_the_abba_cycle() {
    let findings = run(&fixture("lock_cycle"));
    let cycles: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::LockOrder)
        .collect();
    assert_eq!(cycles.len(), 1, "{findings:?}");
    let f = cycles[0];
    assert!(f.message.contains("lock-order cycle"), "{}", f.message);
    assert!(f.message.contains("`ORDERS` -> `METRICS`"), "{}", f.message);
    assert!(f.message.contains("`METRICS` -> `ORDERS`"), "{}", f.message);
    // Both edges carry file:line provenance into the fixture.
    assert!(
        f.message.matches("crates/exec/src/lib.rs:").count() >= 2,
        "{}",
        f.message
    );
    assert_eq!(f.path, "crates/exec/src/lib.rs");
    assert!(f.line > 0);
}

#[test]
fn panic_serve_fixture_reports_unwrap_and_expect() {
    let findings = run(&fixture("panic_serve"));
    let panics: Vec<&Finding> = findings.iter().filter(|f| f.rule == Rule::Panic).collect();
    assert_eq!(panics.len(), 2, "{findings:?}");
    assert!(panics.iter().any(|f| f.message.contains("`.unwrap()`")));
    assert!(panics.iter().any(|f| f.message.contains("`.expect()`")));
    for f in panics {
        assert_eq!(f.path, "crates/serve/src/lib.rs");
        assert!(f.line > 0, "panic findings carry a line");
    }
}

#[test]
fn instant_nn_fixture_reports_the_clock_but_not_the_annotated_one() {
    let findings = run(&fixture("instant_nn"));
    let det: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::Determinism)
        .collect();
    assert_eq!(det.len(), 1, "{findings:?}");
    assert!(
        det[0].message.contains("Instant::now"),
        "{}",
        det[0].message
    );
    assert_eq!(det[0].path, "crates/nn/src/lib.rs");
    assert!(det[0].line > 0);
}

#[test]
fn unmapped_variant_fixture_reports_the_missing_arm() {
    let findings = run(&fixture("unmapped_variant"));
    let cons: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::Consistency)
        .collect();
    assert_eq!(cons.len(), 1, "{findings:?}");
    assert!(
        cons[0].message.contains("ServeError::Protocol"),
        "{}",
        cons[0].message
    );
    assert_eq!(cons[0].path, "crates/serve/src/error.rs");
    assert!(cons[0].line > 0);
}

#[test]
fn alloc_hot_fixture_reports_the_hot_allocation() {
    let findings = run(&fixture("alloc_hot"));
    let hot: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::HotAlloc)
        .collect();
    assert_eq!(hot.len(), 1, "{findings:?}");
    assert!(hot[0].message.contains("`.to_vec()`"), "{}", hot[0].message);
    assert_eq!(hot[0].path, "crates/nn/src/lib.rs");
    assert!(hot[0].line > 0);
}

#[test]
fn durable_raw_fixture_reports_the_bypassing_writes() {
    let findings = run(&fixture("durable_raw"));
    let durable: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::DurableWrite)
        .collect();
    assert_eq!(durable.len(), 2, "{findings:?}");
    assert!(durable.iter().any(|f| f.message.contains("`fs::write`")));
    assert!(durable.iter().any(|f| f.message.contains("`fs::rename`")));
    for f in durable {
        assert_eq!(f.path, "crates/learn/src/lib.rs");
        assert!(f.line > 0);
    }
}

#[test]
fn hot_chain_fixture_reports_transitive_blocking_with_the_call_chain() {
    let findings = run(&fixture("hot_chain"));
    let blocking: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::HotBlocking)
        .collect();
    assert_eq!(blocking.len(), 1, "{findings:?}");
    let f = blocking[0];
    assert!(f.message.contains("thread::sleep"), "{}", f.message);
    assert_eq!(f.path, "crates/nn/src/lib.rs");
    assert!(f.line > 0);
    // Provenance: root -> mid -> leaf, with call-site lines.
    assert_eq!(f.chain.len(), 3, "{:?}", f.chain);
    assert!(f.chain[0].starts_with("hot_forward ("), "{:?}", f.chain);
    assert!(
        f.chain[1].starts_with("scale_in_place (called at"),
        "{:?}",
        f.chain
    );
    assert!(
        f.chain[2].starts_with("throttle (called at"),
        "{:?}",
        f.chain
    );
}

#[test]
fn spawn_hot_fixture_reports_the_ad_hoc_spawn_with_the_call_chain() {
    let findings = run(&fixture("spawn_hot"));
    let blocking: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::HotBlocking)
        .collect();
    assert_eq!(blocking.len(), 1, "{findings:?}");
    let f = blocking[0];
    assert!(f.message.contains("thread::spawn"), "{}", f.message);
    assert!(f.message.contains("band pool"), "{}", f.message);
    assert_eq!(f.path, "crates/nn/src/lib.rs");
    assert!(f.line > 0);
    assert_eq!(f.chain.len(), 2, "{:?}", f.chain);
    assert!(f.chain[0].starts_with("hot_gradient ("), "{:?}", f.chain);
    assert!(
        f.chain[1].starts_with("fan_out (called at"),
        "{:?}",
        f.chain
    );
}

#[test]
fn taint_sink_fixture_reports_the_laundered_clock_at_the_durable_write() {
    let findings = run(&fixture("taint_sink"));
    let taint: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::DeterminismTaint)
        .collect();
    assert_eq!(taint.len(), 1, "{findings:?}");
    let f = taint[0];
    assert!(f.message.contains("write_atomic"), "{}", f.message);
    assert!(f.message.contains("SystemTime::now"), "{}", f.message);
    assert_eq!(f.path, "crates/learn/src/lib.rs");
    assert!(f.line > 0);
    // Chain walks sink fn -> helper -> helper -> source site.
    assert_eq!(f.chain.len(), 4, "{:?}", f.chain);
    assert!(f.chain[0].starts_with("commit_state ("), "{:?}", f.chain);
    assert!(
        f.chain[1].starts_with("freshness_stamp (called at"),
        "{:?}",
        f.chain
    );
    assert!(
        f.chain[2].starts_with("stamp_seconds (called at"),
        "{:?}",
        f.chain
    );
    assert!(
        f.chain[3].contains("source `SystemTime::now`"),
        "{:?}",
        f.chain
    );
}

#[test]
fn guard_gap_fixture_reports_the_bare_access_with_the_guarded_site() {
    let findings = run(&fixture("guard_gap"));
    let gaps: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::GuardCoverage)
        .collect();
    assert_eq!(gaps.len(), 1, "{findings:?}");
    let f = gaps[0];
    assert!(f.message.contains("LatencyBook.stats"), "{}", f.message);
    assert!(
        f.message.contains("LatencyBook::summarize"),
        "{}",
        f.message
    );
    assert_eq!(f.path, "crates/serve/src/lib.rs");
    assert!(f.line > 0);
    assert_eq!(f.chain.len(), 1, "{:?}", f.chain);
    assert!(
        f.chain[0].contains("guarded access in LatencyBook::summarize"),
        "{:?}",
        f.chain
    );
}

#[test]
fn unreferenced_pub_fixture_reports_the_two_unread_items_and_nothing_else() {
    // Seeded: a `pub fn` read only by a test module, a `crates/*/tests/`
    // file, a doc example and a `pub use`, and a `pub struct` read only
    // by its own `impl` blocks. Not findings: calls from another crate,
    // from `examples/` and from `e2ebench/src/`, and a reasoned allow.
    let findings = run(&fixture("unreferenced_pub"));
    assert_eq!(findings.len(), 2, "{findings:?}");
    for f in &findings {
        assert_eq!(f.rule, Rule::UnreferencedPub, "{f}");
        assert_eq!(f.path, "crates/core/src/lib.rs");
        assert!(f.line > 0);
    }
    assert!(
        findings[0].message.contains("`pub fn orphan`"),
        "{findings:?}"
    );
    assert!(
        findings[1].message.contains("`pub struct Lonely`"),
        "{findings:?}"
    );
}

#[test]
fn fixtures_fire_nothing_outside_their_seeded_rule() {
    // Each fixture is constructed to trip exactly one rule; incidental
    // findings from the other analyses would mean the fixture trees (or
    // the analyses) drifted.
    for (name, rule) in [
        ("lock_cycle", Rule::LockOrder),
        ("panic_serve", Rule::Panic),
        ("instant_nn", Rule::Determinism),
        ("unmapped_variant", Rule::Consistency),
        ("alloc_hot", Rule::HotAlloc),
        ("durable_raw", Rule::DurableWrite),
        ("hot_chain", Rule::HotBlocking),
        ("spawn_hot", Rule::HotBlocking),
        ("taint_sink", Rule::DeterminismTaint),
        ("guard_gap", Rule::GuardCoverage),
    ] {
        let stray: Vec<Finding> = run(&fixture(name))
            .into_iter()
            .filter(|f| f.rule != rule)
            .collect();
        assert!(stray.is_empty(), "{name}: unexpected findings {stray:?}");
    }
}

#[test]
fn the_real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let findings = analyze(&root, None).expect("workspace must be readable");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn only_filter_restricts_to_one_rule() {
    let findings =
        analyze(&fixture("panic_serve"), Some(Rule::Determinism)).expect("readable tree");
    assert!(findings.is_empty(), "{findings:?}");
    let findings = analyze(&fixture("panic_serve"), Some(Rule::Panic)).expect("readable tree");
    assert_eq!(findings.len(), 2);
}
