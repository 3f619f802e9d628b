//! Property tests for the SLO rule grammar: every parseable rule
//! renders to a canonical form that re-parses to the same rule
//! (display/parse is a fixed point after one normalisation), and the
//! malformed shapes the grammar promises to reject are rejected for
//! every instantiation, not just the hand-picked unit-test cases.

use proptest::prelude::*;

use lsdf_obs::SloRule;

/// A metric name: lowercase snake_case, like every `lsdf_obs::names`
/// constant.
fn name_strat() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,12}"
}

/// Label sets as they appear in rule text. Keys and values are bare
/// tokens; the parser sorts them, so generation order is free.
fn labels_strat() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(("[a-z][a-z0-9_]{0,6}", "[a-z0-9][a-z0-9_.-]{0,6}"), 0..3)
}

fn fmt_ref(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{name}{{{}}}", body.join(","))
    }
}

fn cmp_strat() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("<"), Just("<="), Just("==")]
}

/// Thresholds and budgets that survive f64 round-tripping exactly
/// (`{}` on f64 prints the shortest string that parses back equal).
fn threshold_strat() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u32..10_000).prop_map(|n| n as f64 / 100.0),
        (0u64..u64::MAX / 2).prop_map(|n| n as f64),
    ]
}

fn budget_strat() -> impl Strategy<Value = f64> {
    (1u32..10_000).prop_map(|n| n as f64 / 1_000.0)
}

/// One grammar-valid rule string assembled from parts.
#[derive(Debug, Clone)]
struct RuleParts {
    window: Option<u32>,
    body: String,
    cmp: &'static str,
    threshold: f64,
}

impl RuleParts {
    fn text(&self) -> String {
        let prefix = match self.window {
            Some(w) => format!("window({w}) "),
            None => String::new(),
        };
        format!("{prefix}{} {} {}", self.body, self.cmp, self.threshold)
    }
}

fn valid_rule_strat() -> impl Strategy<Value = RuleParts> {
    let quantile = (
        prop_oneof![Just("p50"), Just("p95"), Just("p99")],
        name_strat(),
        labels_strat(),
        prop::option::of(1u32..32),
    )
        .prop_map(|(q, n, l, w)| (w, format!("{q}({})", fmt_ref(&n, &l))));

    let gauge = (name_strat(), labels_strat())
        .prop_map(|(n, l)| (None, format!("gauge({})", fmt_ref(&n, &l))));

    // Instantaneous rate: bare names only, no window.
    let inst_rate =
        (name_strat(), name_strat()).prop_map(|(n, d)| (None, format!("rate({n} / {d})")));

    let windowed_rate = (
        name_strat(),
        labels_strat(),
        name_strat(),
        labels_strat(),
        1u32..32,
    )
        .prop_map(|(n, nl, d, dl, w)| {
            (
                Some(w),
                format!("rate({} / {})", fmt_ref(&n, &nl), fmt_ref(&d, &dl)),
            )
        });

    let burn = (
        name_strat(),
        labels_strat(),
        name_strat(),
        labels_strat(),
        budget_strat(),
        1u32..32,
    )
        .prop_map(|(n, nl, d, dl, b, w)| {
            (
                Some(w),
                format!("burn({} / {}, {b})", fmt_ref(&n, &nl), fmt_ref(&d, &dl)),
            )
        });

    (
        prop_oneof![quantile, gauge, inst_rate, windowed_rate, burn],
        cmp_strat(),
        threshold_strat(),
    )
        .prop_map(|((window, body), cmp, threshold)| RuleParts {
            window,
            body,
            cmp,
            threshold,
        })
}

proptest! {
    /// parse → display → parse → display reaches a fixed point after
    /// one normalisation pass, and the normalised form preserves the
    /// window and project attribution of the original.
    #[test]
    fn display_parse_is_a_fixed_point(parts in valid_rule_strat()) {
        let text = parts.text();
        let rule = SloRule::parse(&text)
            .unwrap_or_else(|e| panic!("generated rule {text:?} must parse: {e}"));
        let d1 = rule.to_string();
        let rule2 = SloRule::parse(&d1)
            .unwrap_or_else(|e| panic!("canonical form {d1:?} must re-parse: {e}"));
        let d2 = rule2.to_string();
        prop_assert_eq!(&d1, &d2, "display not a fixed point for {}", text);
        prop_assert_eq!(rule.window(), rule2.window());
        prop_assert_eq!(rule.project(), rule2.project());
    }

    /// The canonical form keeps the window prefix textually intact, so
    /// window boundaries survive serialisation of rule sets.
    #[test]
    fn window_survives_round_trip(parts in valid_rule_strat()) {
        let rule = SloRule::parse(&parts.text()).unwrap();
        match parts.window {
            Some(w) => {
                prop_assert_eq!(rule.window(), Some(u64::from(w)));
                prop_assert!(rule.to_string().starts_with(&format!("window({w}) ")));
            }
            None => {
                prop_assert_eq!(rule.window(), None);
                prop_assert!(!rule.to_string().starts_with("window("));
            }
        }
    }

    /// `window(0)` is meaningless (an empty lookback) and rejected for
    /// every otherwise-valid rule body.
    #[test]
    fn zero_window_is_rejected(parts in valid_rule_strat()) {
        let text = format!("window(0) {} {} {}", parts.body, parts.cmp, parts.threshold);
        prop_assert!(SloRule::parse(&text).is_err(), "accepted {}", text);
    }

    /// Gauges are point-in-time reads: combining them with a window is
    /// a grammar error for any gauge reference.
    #[test]
    fn windowed_gauge_is_rejected(
        name in name_strat(),
        labels in labels_strat(),
        w in 1u32..32,
        thr in threshold_strat(),
    ) {
        let text = format!("window({w}) gauge({}) <= {thr}", fmt_ref(&name, &labels));
        prop_assert!(SloRule::parse(&text).is_err(), "accepted {}", text);
    }

    /// `burn` only makes sense over a window, and `delta` is not in the
    /// grammar: without a window both are rejected whatever their
    /// arguments.
    #[test]
    fn windowless_delta_and_burn_are_rejected(
        name in name_strat(),
        den in name_strat(),
        labels in labels_strat(),
        budget in budget_strat(),
        thr in threshold_strat(),
    ) {
        let d = format!("delta({}) <= {thr}", fmt_ref(&name, &labels));
        prop_assert!(SloRule::parse(&d).is_err(), "accepted {}", d);
        let b = format!("burn({} / {den}, {budget}) <= {thr}", fmt_ref(&name, &labels));
        prop_assert!(SloRule::parse(&b).is_err(), "accepted {}", b);
    }

    /// Instantaneous `rate` has no per-label history to draw on, so a
    /// label block without a window is rejected.
    #[test]
    fn labelled_instantaneous_rate_is_rejected(
        num in name_strat(),
        den in name_strat(),
        k in "[a-z]{1,6}",
        v in "[a-z0-9]{1,6}",
        thr in threshold_strat(),
    ) {
        let text = format!("rate({num}{{{k}={v}}} / {den}) <= {thr}");
        prop_assert!(SloRule::parse(&text).is_err(), "accepted {}", text);
    }

    /// Burn budgets must be positive and finite.
    #[test]
    fn non_positive_burn_budget_is_rejected(
        num in name_strat(),
        den in name_strat(),
        w in 1u32..32,
        thr in threshold_strat(),
        bad in prop_oneof![Just(0.0), (1u32..1000).prop_map(|n| -(n as f64) / 100.0)],
    ) {
        let text = format!("window({w}) burn({num} / {den}, {bad}) <= {thr}");
        prop_assert!(SloRule::parse(&text).is_err(), "accepted {}", text);
    }
}
