//! The fixture corpus: one good and one violating file per rule. Each
//! bad fixture must fire its rule (with the exact expected count) and
//! each good fixture must scan clean — this is the linter's own
//! conformance gate.

use std::fs;
use std::path::{Path, PathBuf};

use lsdf_lint::lockorder::parse_rank_consts;
use lsdf_lint::{lint_file, lint_files, Config, NameConst, Report, Rule};

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
    assert_eq!(count(&bad, Rule::MetricNames), 8, "{:#?}", bad.violations);
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
    // One rank inversion, one same-rank nesting, the self-loop cycle it
    // implies, one unranked construction, one undeclared rank, one raw
    // parking_lot construction.
    assert_eq!(order.len(), 6, "{:#?}", order);
    let has = |needle: &str| order.iter().filter(|d| d.message.contains(needle)).count();
    assert_eq!(has("inversion"), 2, "{:#?}", order);
    assert_eq!(has("cycle"), 1, "{:#?}", order);
    assert_eq!(has("without a rank"), 1, "{:#?}", order);
    assert_eq!(has("not declared"), 1, "{:#?}", order);
    assert_eq!(has("raw Mutex::new"), 1, "{:#?}", order);
}

#[test]
fn lock_order_waived_edges_still_close_cycles_across_files() {
    // File A nests OUTER -> INNER (legal); file B nests INNER -> OUTER
    // under a per-line waiver. The waiver silences the inversion report
    // but the combined graph still has the 10 <-> 20 cycle.
    let files = vec![
        (
            "crates/adal/src/cycle_a.rs".to_string(),
            fixture("lock_order/cycle_a.rs"),
        ),
        (
            "crates/adal/src/cycle_b.rs".to_string(),
            fixture("lock_order/cycle_b.rs"),
        ),
    ];
    let r = lint_files(&files, &cfg());
    let order: Vec<_> = r
        .violations
        .iter()
        .filter(|d| d.rule == Rule::LockOrder)
        .collect();
    assert_eq!(order.len(), 1, "{:#?}", r.violations);
    assert!(order[0].message.contains("cycle"), "{:#?}", order);
    assert!(order[0].message.contains("outer(10)"), "{:#?}", order);
    assert!(order[0].message.contains("inner(20)"), "{:#?}", order);
    // Each file alone is clean: the waiver covers B's inversion and A
    // is legal, so only the combination reveals the deadlock.
    let a = lint_file("crates/adal/src/cycle_a.rs", &fixture("lock_order/cycle_a.rs"), &cfg());
    assert_eq!(count(&a, Rule::LockOrder), 0, "{:#?}", a.violations);
    let b = lint_file("crates/adal/src/cycle_b.rs", &fixture("lock_order/cycle_b.rs"), &cfg());
    assert_eq!(count(&b, Rule::LockOrder), 0, "{:#?}", b.violations);
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
