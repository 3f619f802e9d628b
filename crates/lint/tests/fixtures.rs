//! The fixture corpus: one good and one violating file per rule. Each
//! bad fixture must fire its rule (with the exact expected count) and
//! each good fixture must scan clean — this is the linter's own
//! conformance gate.

use std::fs;
use std::path::{Path, PathBuf};

use lsdf_lint::lockorder::parse_rank_consts;
use lsdf_lint::{lint_file, Config, NameConst, Report, Rule};

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// A config that puts the synthetic fixture path in every scope.
fn cfg() -> Config {
    Config {
        root: PathBuf::from("."),
        panic_free: vec!["crates/adal/src/".to_string()],
        payload_hot: vec!["crates/adal/src/".to_string()],
        determinism_allow: vec![
            "crates/obs/src/clock.rs".to_string(),
            "crates/bench/".to_string(),
        ],
        names_module: "crates/obs/src/names.rs".to_string(),
        names: vec![
            NameConst {
                ident: "FOO_TOTAL".to_string(),
                value: "foo_total".to_string(),
                line: 1,
            },
            NameConst {
                ident: "FOO_LATENCY_NS".to_string(),
                value: "foo_latency_ns".to_string(),
                line: 2,
            },
        ],
        ranks_module: "crates/sync/src/ranks.rs".to_string(),
        ranks: parse_rank_consts(
            "pub const OUTER: LockRank = rank(10, \"outer\");\n\
             pub const INNER: LockRank = rank(20, \"inner\");\n",
        ),
    }
}

/// Lints a fixture as though it were production source in `lsdf-adal`.
fn lint(rel: &str) -> Report {
    lint_file("crates/adal/src/fixture.rs", &fixture(rel), &cfg())
}

fn count(report: &Report, rule: Rule) -> usize {
    report.violations.iter().filter(|d| d.rule == rule).count()
}

#[test]
fn determinism_fires_on_bad_and_not_on_good() {
    let bad = lint("determinism/bad.rs");
    assert_eq!(count(&bad, Rule::Determinism), 5, "{:#?}", bad.violations);
    let good = lint("determinism/good.rs");
    assert_eq!(count(&good, Rule::Determinism), 0, "{:#?}", good.violations);
}

#[test]
fn no_panic_fires_on_bad_and_not_on_good() {
    // No baseline file exists: each panicking call is a violation.
    let bad = lint("no_panic/bad.rs");
    assert_eq!(count(&bad, Rule::NoPanic), 4, "{:#?}", bad.violations);
    assert_eq!(bad.violations.len(), 4, "{:#?}", bad.violations);
    // The good fixture's annotation is well-formed.
    let good = lint("no_panic/good.rs");
    assert!(good.violations.is_empty(), "{:#?}", good.violations);
}

#[test]
fn metric_names_fires_on_bad_and_not_on_good() {
    let bad = lint("metric_names/bad.rs");
    assert_eq!(count(&bad, Rule::MetricNames), 4, "{:#?}", bad.violations);
    let good = lint("metric_names/good.rs");
    assert_eq!(count(&good, Rule::MetricNames), 0, "{:#?}", good.violations);
}

#[test]
fn metric_names_multiline_lookahead_sees_past_comments_and_waivers() {
    // Two literals hide several comment lines below their call site —
    // past any fixed lookahead window — and one continuation line
    // carries its own waiver, which must be honored.
    let r = lint("metric_names/multiline.rs");
    assert_eq!(count(&r, Rule::MetricNames), 2, "{:#?}", r.violations);
}

#[test]
fn telemetry_query_names_fire_on_bad_and_not_on_good() {
    let bad = lint("telemetry_names/bad.rs");
    assert_eq!(count(&bad, Rule::MetricNames), 6, "{:#?}", bad.violations);
    let good = lint("telemetry_names/good.rs");
    assert_eq!(count(&good, Rule::MetricNames), 0, "{:#?}", good.violations);
}

#[test]
fn span_names_fire_on_bad_and_not_on_good() {
    let bad = lint("span_names/bad.rs");
    assert_eq!(count(&bad, Rule::MetricNames), 5, "{:#?}", bad.violations);
    assert!(
        bad.violations.iter().all(|d| d.message.contains("span name")),
        "{:#?}",
        bad.violations
    );
    let good = lint("span_names/good.rs");
    assert_eq!(count(&good, Rule::MetricNames), 0, "{:#?}", good.violations);
}

#[test]
fn durability_names_fire_on_bad_and_not_on_good() {
    // The wal_* / ckpt_* / recovery_* name families introduced with the
    // crash-durability work follow the same L3 contract: consts only.
    let bad = lint("durability_names/bad.rs");
    assert_eq!(count(&bad, Rule::MetricNames), 6, "{:#?}", bad.violations);
    let good = lint("durability_names/good.rs");
    assert_eq!(count(&good, Rule::MetricNames), 0, "{:#?}", good.violations);
}

#[test]
fn locks_fires_on_bad_and_not_on_good() {
    // The shard vector is L4's; every lock the fixture constructs —
    // `std::sync` or `parking_lot`, `Mutex`, `RwLock` or `Condvar` — is a
    // raw lock outside `crates/sync/`, which L5 reports.
    let bad = lint("locks/bad.rs");
    assert_eq!(count(&bad, Rule::Locks), 1, "{:#?}", bad.violations);
    assert_eq!(count(&bad, Rule::LockOrder), 4, "{:#?}", bad.violations);
    assert!(
        bad.violations
            .iter()
            .filter(|d| d.rule == Rule::LockOrder)
            .all(|d| d.message.starts_with("raw ")),
        "{:#?}",
        bad.violations
    );
    // The same constructions under justified waivers are clean.
    let good = lint("locks/good.rs");
    assert!(good.violations.is_empty(), "{:#?}", good.violations);
    // A waiver without its justification waives nothing and is itself
    // a violation.
    let unjustified = lint("locks/unjustified.rs");
    assert_eq!(count(&unjustified, Rule::LockOrder), 1, "{:#?}", unjustified.violations);
    assert_eq!(count(&unjustified, Rule::Annotation), 1, "{:#?}", unjustified.violations);
}

#[test]
fn payload_copy_fires_on_bad_and_not_on_good() {
    let bad = lint("payload_copy/bad.rs");
    assert_eq!(count(&bad, Rule::PayloadCopy), 1, "{:#?}", bad.violations);
    assert_eq!(bad.violations.len(), 1, "{:#?}", bad.violations);
    let good = lint("payload_copy/good.rs");
    assert!(good.violations.is_empty(), "{:#?}", good.violations);
}

#[test]
fn lock_order_good_fixture_is_clean() {
    let good = lint("lock_order/good.rs");
    assert!(good.violations.is_empty(), "{:#?}", good.violations);
}

#[test]
fn lock_order_bad_fixture_fires_every_detection_direction() {
    let bad = lint("lock_order/bad.rs");
    let order: Vec<_> = bad
        .violations
        .iter()
        .filter(|d| d.rule == Rule::LockOrder)
        .collect();
    // Each way a construction site fails: one unranked construction,
    // one undeclared rank, one raw parking_lot construction. Nesting is
    // the runtime witness's (`tests/lock_order_witness.rs`).
    assert_eq!(order.len(), 3, "{:#?}", order);
    let has = |needle: &str| order.iter().filter(|d| d.message.contains(needle)).count();
    assert_eq!(has("without a rank"), 1, "{:#?}", order);
    assert_eq!(has("not declared"), 1, "{:#?}", order);
    assert_eq!(has("raw Mutex::new"), 1, "{:#?}", order);
}

#[test]
fn bad_fixtures_fire_only_their_own_rule() {
    // The determinism fixtures must not trip lock or metric rules, and
    // vice versa — rules are independent.
    let d = lint("determinism/bad.rs");
    assert_eq!(count(&d, Rule::Locks), 0);
    assert_eq!(count(&d, Rule::MetricNames), 0);
    let l = lint("locks/bad.rs");
    assert_eq!(count(&l, Rule::Determinism), 0);
    assert_eq!(count(&l, Rule::MetricNames), 0);
    assert_eq!(count(&l, Rule::NoPanic), 0);
    let o = lint("lock_order/bad.rs");
    assert_eq!(count(&o, Rule::Determinism), 0);
    assert_eq!(count(&o, Rule::Locks), 0);
    assert_eq!(count(&o, Rule::MetricNames), 0);
}
