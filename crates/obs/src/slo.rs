//! SLO monitoring: declarative rules over registry snapshots, producing
//! a [`FacilityHealth`] report with per-project accounting.
//!
//! The LSDF paper's facility is run against advertised operating
//! points, with a project database accounting for what each scientific
//! community consumes. This module is that loop in miniature: a
//! [`SloMonitor`] holds parsed [`SloRule`]s and evaluates them against
//! a [`Registry`] snapshot on demand, yielding a report that says
//! whether the facility currently holds its promises and what each
//! project did to the stack.
//!
//! Rule grammar (one rule per string):
//!
//! ```text
//! p50|p95|p99(<hist>{k=v,...}) <|<= <number>     quantile bound
//! gauge(<gauge>{k=v,...}) ==|<=|< <number>       gauge bound
//! rate(<counter> / <counter>) <|<= <number>      eval-to-eval error rate
//! window(N) p50|p95|p99(<hist>{...}) ...         rolling quantile
//! window(N) rate(<ctr>{...} / <ctr>{...}) ...    windowed error rate
//! window(N) burn(<ctr>{...} / <ctr>{...}, B) ... burn rate vs budget B
//! ```
//!
//! The label block is optional. `rate` divides the *deltas* of the two
//! counter totals (summed across label sets) since the previous
//! evaluation — the first evaluation and idle windows (denominator
//! delta 0) report 0.0. A metric that does not exist yet evaluates as
//! 0, so rules hold vacuously before traffic arrives. Evaluation is a
//! pure function of the snapshot plus the monitor's window state:
//! deterministic for deterministic runs.
//!
//! `window(N)` aggregations read the [`TelemetryStore`]'s retained
//! history over the last `N` scrape intervals instead of one snapshot,
//! which is what separates a transient spike from sustained
//! degradation: a rolling quantile is the *max* of the quantile samples
//! in the window, a windowed rate divides the delta mass of two
//! counters over the window, and `burn` is the windowed error rate
//! divided by an error *budget* `B` (à la error-budget burn-rate
//! alerting: burn 1.0 consumes the budget exactly; a threshold like
//! `<= 2` alerts on 2x burn). Windowed rate/burn label blocks are
//! allowed — per-project burn-rate rules are how the admission governor
//! attributes sustained degradation. Windowed rules evaluate against an empty history (no
//! telemetry store, or no samples yet) as 0, i.e. vacuously healthy.

use lsdf_sync::{ranks, OrderedMutex};

use crate::json::{escape, fmt_f64};
use crate::names;
use crate::registry::{MetricId, Registry, RegistrySnapshot};
use crate::telemetry::{HistPoint, TelemetryStore};

/// Which quantile a quantile rule reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quantile {
    /// Median.
    P50,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
}

/// What a rule measures.
#[derive(Clone, Debug, PartialEq)]
pub enum Selector {
    /// A histogram quantile, e.g. `p99(adal_op_latency_ns{op=put})`.
    HistQuantile {
        /// Which quantile.
        q: Quantile,
        /// Histogram name.
        name: String,
        /// Label filter (exact id match).
        labels: Vec<(String, String)>,
    },
    /// A gauge value, e.g. `gauge(dfs_under_replicated_unrecoverable)`.
    GaugeValue {
        /// Gauge name.
        name: String,
        /// Label filter (exact id match).
        labels: Vec<(String, String)>,
    },
    /// An eval-to-eval counter ratio, e.g.
    /// `rate(adal_retry_exhausted_total / adal_ops_total)`. Totals are
    /// summed across label sets.
    Rate {
        /// Numerator counter name.
        numerator: String,
        /// Denominator counter name.
        denominator: String,
    },
    /// A telemetry-windowed counter ratio (requires `window(N)`), e.g.
    /// `window(8) rate(adal_retry_exhausted_total / adal_ops_total)`.
    /// Label blocks are allowed; an empty block sums across label sets.
    WindowedRate {
        /// Numerator counter name.
        numerator: String,
        /// Numerator label filter (empty = sum across label sets).
        num_labels: Vec<(String, String)>,
        /// Denominator counter name.
        denominator: String,
        /// Denominator label filter (empty = sum across label sets).
        den_labels: Vec<(String, String)>,
    },
    /// Error-budget burn rate (requires `window(N)`): the windowed
    /// error rate divided by the budget, e.g.
    /// `window(8) burn(err_total / ops_total, 0.01) <= 2`.
    BurnRate {
        /// Numerator (error) counter name.
        numerator: String,
        /// Numerator label filter.
        num_labels: Vec<(String, String)>,
        /// Denominator (traffic) counter name.
        denominator: String,
        /// Denominator label filter.
        den_labels: Vec<(String, String)>,
        /// The error budget the burn is measured against (> 0).
        budget: f64,
    },
}

/// Comparison against the threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// Observed strictly below threshold.
    Lt,
    /// Observed at or below threshold.
    Le,
    /// Observed equal to threshold.
    Eq,
}

/// One parsed SLO rule: optional window, selector, comparison,
/// threshold.
#[derive(Clone, Debug)]
pub struct SloRule {
    text: String,
    window: Option<u64>,
    selector: Selector,
    cmp: Cmp,
    threshold: f64,
}

fn parse_labels(block: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    for pair in block.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("label `{pair}` is not `key=value`"))?;
        labels.push((k.trim().to_string(), v.trim().to_string()));
    }
    labels.sort();
    Ok(labels)
}

/// `name` or `name{k=v,...}` → (name, sorted labels).
fn parse_metric_ref(s: &str) -> Result<(String, Vec<(String, String)>), String> {
    let s = s.trim();
    match s.split_once('{') {
        None => Ok((s.to_string(), Vec::new())),
        Some((name, rest)) => {
            let block = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unclosed label block in `{s}`"))?;
            Ok((name.trim().to_string(), parse_labels(block)?))
        }
    }
}

impl SloRule {
    /// Parses one rule from the grammar in the module docs.
    pub fn parse(text: &str) -> Result<SloRule, String> {
        let t = text.trim();
        let (window, body) = match t.strip_prefix("window(") {
            Some(rest) => {
                let close = rest
                    .find(')')
                    .ok_or_else(|| format!("`{t}`: missing `)` closing the window"))?;
                let n: u64 = rest[..close]
                    .trim()
                    .parse()
                    .map_err(|e| format!("`{t}`: bad window size: {e}"))?;
                if n == 0 {
                    return Err(format!("`{t}`: window size must be >= 1"));
                }
                (Some(n), rest[close + 1..].trim())
            }
            None => (None, t),
        };
        let open = body
            .find('(')
            .ok_or_else(|| format!("`{t}`: missing `(` after selector"))?;
        let close = body
            .rfind(')')
            .ok_or_else(|| format!("`{t}`: missing `)` closing the selector"))?;
        if close < open {
            return Err(format!("`{t}`: mismatched parentheses"));
        }
        let head = body[..open].trim();
        let arg = &body[open + 1..close];
        let rest = body[close + 1..].trim();
        let (cmp, num) = if let Some(r) = rest.strip_prefix("<=") {
            (Cmp::Le, r)
        } else if let Some(r) = rest.strip_prefix("==") {
            (Cmp::Eq, r)
        } else if let Some(r) = rest.strip_prefix('<') {
            (Cmp::Lt, r)
        } else {
            return Err(format!("`{t}`: expected `<`, `<=`, or `==` after selector"));
        };
        let threshold: f64 = num
            .trim()
            .parse()
            .map_err(|e| format!("`{t}`: bad threshold: {e}"))?;
        let selector = match head {
            "p50" | "p95" | "p99" => {
                let q = match head {
                    "p50" => Quantile::P50,
                    "p95" => Quantile::P95,
                    _ => Quantile::P99,
                };
                let (name, labels) = parse_metric_ref(arg)?;
                Selector::HistQuantile { q, name, labels }
            }
            "gauge" => {
                if window.is_some() {
                    return Err(format!(
                        "`{t}`: gauge rules read the current value; `window` does not apply"
                    ));
                }
                let (name, labels) = parse_metric_ref(arg)?;
                Selector::GaugeValue { name, labels }
            }
            "rate" => {
                let (numerator, denominator) = arg
                    .split_once('/')
                    .ok_or_else(|| format!("`{t}`: rate needs `numerator / denominator`"))?;
                let (numerator, nl) = parse_metric_ref(numerator)?;
                let (denominator, dl) = parse_metric_ref(denominator)?;
                if window.is_some() {
                    Selector::WindowedRate {
                        numerator,
                        num_labels: nl,
                        denominator,
                        den_labels: dl,
                    }
                } else {
                    if !nl.is_empty() || !dl.is_empty() {
                        return Err(format!(
                            "`{t}`: rate counters are summed across labels; no label block allowed"
                        ));
                    }
                    Selector::Rate {
                        numerator,
                        denominator,
                    }
                }
            }
            "burn" => {
                if window.is_none() {
                    return Err(format!("`{t}`: burn requires a `window(N)` prefix"));
                }
                let (metrics, budget) = arg
                    .rsplit_once(',')
                    .ok_or_else(|| format!("`{t}`: burn needs `num / den, budget`"))?;
                let budget: f64 = budget
                    .trim()
                    .parse()
                    .map_err(|e| format!("`{t}`: bad burn budget: {e}"))?;
                if !budget.is_finite() || budget <= 0.0 {
                    return Err(format!("`{t}`: burn budget must be > 0"));
                }
                let (numerator, denominator) = metrics
                    .split_once('/')
                    .ok_or_else(|| format!("`{t}`: burn needs `numerator / denominator`"))?;
                let (numerator, num_labels) = parse_metric_ref(numerator)?;
                let (denominator, den_labels) = parse_metric_ref(denominator)?;
                Selector::BurnRate {
                    numerator,
                    num_labels,
                    denominator,
                    den_labels,
                    budget,
                }
            }
            other => return Err(format!("`{t}`: unknown selector `{other}`")),
        };
        Ok(SloRule {
            text: t.to_string(),
            window,
            selector,
            cmp,
            threshold,
        })
    }

    /// The rule's source text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The window size in scrape intervals, when the rule is windowed.
    pub fn window(&self) -> Option<u64> {
        self.window
    }

    /// The project this rule is scoped to, when its label filter names
    /// one — used to attribute violations in the per-project accounts.
    /// For the two-counter windowed forms the numerator's label block
    /// decides (errors are what gets attributed).
    pub fn project(&self) -> Option<&str> {
        let labels = match &self.selector {
            Selector::HistQuantile { labels, .. } => labels,
            Selector::GaugeValue { labels, .. } => labels,
            Selector::WindowedRate { num_labels, .. } => num_labels,
            Selector::BurnRate { num_labels, .. } => num_labels,
            Selector::Rate { .. } => return None,
        };
        labels
            .iter()
            .find(|(k, _)| k == "project")
            .map(|(_, v)| v.as_str())
    }

    fn compare(&self, observed: f64) -> bool {
        match self.cmp {
            Cmp::Lt => observed < self.threshold,
            Cmp::Le => observed <= self.threshold,
            Cmp::Eq => observed == self.threshold,
        }
    }
}

/// `name` or `name{k=v,...}` with the labels in sorted order.
fn fmt_metric_ref(
    f: &mut std::fmt::Formatter<'_>,
    name: &str,
    labels: &[(String, String)],
) -> std::fmt::Result {
    write!(f, "{name}")?;
    if !labels.is_empty() {
        write!(f, "{{")?;
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")?;
    }
    Ok(())
}

/// Renders the rule in canonical grammar form: sorted labels, single
/// spacing, `{}`-formatted numbers. Parsing the rendering yields an
/// equivalent rule (same window, selector, comparison and threshold) —
/// the round-trip property the grammar proptests pin down.
impl std::fmt::Display for SloRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(w) = self.window {
            write!(f, "window({w}) ")?;
        }
        match &self.selector {
            Selector::HistQuantile { q, name, labels } => {
                let q = match q {
                    Quantile::P50 => "p50",
                    Quantile::P95 => "p95",
                    Quantile::P99 => "p99",
                };
                write!(f, "{q}(")?;
                fmt_metric_ref(f, name, labels)?;
                write!(f, ")")?;
            }
            Selector::GaugeValue { name, labels } => {
                write!(f, "gauge(")?;
                fmt_metric_ref(f, name, labels)?;
                write!(f, ")")?;
            }
            Selector::Rate {
                numerator,
                denominator,
            } => write!(f, "rate({numerator} / {denominator})")?,
            Selector::WindowedRate {
                numerator,
                num_labels,
                denominator,
                den_labels,
            } => {
                write!(f, "rate(")?;
                fmt_metric_ref(f, numerator, num_labels)?;
                write!(f, " / ")?;
                fmt_metric_ref(f, denominator, den_labels)?;
                write!(f, ")")?;
            }
            Selector::BurnRate {
                numerator,
                num_labels,
                denominator,
                den_labels,
                budget,
            } => {
                write!(f, "burn(")?;
                fmt_metric_ref(f, numerator, num_labels)?;
                write!(f, " / ")?;
                fmt_metric_ref(f, denominator, den_labels)?;
                write!(f, ", {budget})")?;
            }
        }
        let cmp = match self.cmp {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Eq => "==",
        };
        write!(f, " {cmp} {}", self.threshold)
    }
}

fn metric_id(name: &str, labels: &[(String, String)]) -> MetricId {
    // Labels arrive sorted from `parse_labels`; MetricId sorts again.
    let as_refs: Vec<(&str, &str)> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    MetricId::new(name, &as_refs)
}

fn counter_total(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(id, _)| id.name == name)
        .map(|(_, v)| v)
        .sum()
}

/// The outcome of one rule in one evaluation.
#[derive(Clone, Debug)]
pub struct RuleOutcome {
    /// Rule source text.
    pub rule: String,
    /// True when the rule held.
    pub ok: bool,
    /// The value the selector observed.
    pub observed: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// True when the rule aggregated telemetry history (`window(N)`).
    pub windowed: bool,
}

/// What one project did to the facility, per the registry.
#[derive(Clone, Debug)]
pub struct ProjectAccount {
    /// Project name (the ADAL mount / ingest label).
    pub project: String,
    /// ADAL operations served for the project.
    pub ops: u64,
    /// Bytes ingested for the project.
    pub bytes: u64,
    /// Tape movements (demotions + recalls) on the project's HSM store.
    pub tape_mounts: u64,
    /// Instantaneous rules scoped to this project that failed in this
    /// evaluation (a spike that may clear by the next pass).
    pub violations: u64,
    /// Windowed rules scoped to this project that failed — sustained
    /// degradation; what the admission governor throttles on when
    /// windowed alerting is configured.
    pub windowed_violations: u64,
}

/// One SLO evaluation: overall verdict, per-rule outcomes, per-project
/// accounts.
#[derive(Clone, Debug)]
pub struct FacilityHealth {
    /// Evaluation timestamp (registry clock).
    pub t_ns: u64,
    /// True when every rule held.
    pub healthy: bool,
    /// Per-rule outcomes, in rule order.
    pub rules: Vec<RuleOutcome>,
    /// Per-project accounts, sorted by project name.
    pub projects: Vec<ProjectAccount>,
}

impl FacilityHealth {
    /// True when this evaluation included at least one `window(N)`
    /// rule — the signal the admission governor switches on: with
    /// windowed alerting configured, throttling follows sustained
    /// burn-rate breaches instead of instantaneous spikes.
    pub fn windowed_alerting(&self) -> bool {
        self.rules.iter().any(|r| r.windowed)
    }

    /// The rules that failed in this evaluation (the operator console's
    /// "active alerts" panel).
    pub fn active_alerts(&self) -> Vec<&RuleOutcome> {
        self.rules.iter().filter(|r| !r.ok).collect()
    }

    /// Renders the report as a small JSON document (same hand-rolled,
    /// deterministic style as the registry exporter).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\n  \"t_ns\": {},\n  \"healthy\": {},\n  \"rules\": [",
            self.t_ns, self.healthy
        ));
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"ok\": {}, \"observed\": {}, \"threshold\": {}, \
                 \"windowed\": {}}}",
                escape(&r.rule),
                r.ok,
                fmt_f64(r.observed),
                fmt_f64(r.threshold),
                r.windowed
            ));
        }
        if !self.rules.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"projects\": [");
        for (i, p) in self.projects.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"project\": {}, \"ops\": {}, \"bytes\": {}, \
                 \"tape_mounts\": {}, \"violations\": {}, \"windowed_violations\": {}}}",
                escape(&p.project),
                p.ops,
                p.bytes,
                p.tape_mounts,
                p.violations,
                p.windowed_violations
            ));
        }
        if !self.projects.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Evaluates a fixed rule set against registry snapshots, carrying the
/// window state `rate` rules need between evaluations.
pub struct SloMonitor {
    rules: Vec<SloRule>,
    /// Previous (numerator, denominator) totals per rule index; `None`
    /// until the rule's first evaluation.
    windows: OrderedMutex<Vec<Option<(u64, u64)>>>,
}

impl SloMonitor {
    /// A monitor over `rules`.
    pub fn new(rules: Vec<SloRule>) -> Self {
        let windows = OrderedMutex::new(ranks::OBS_SLO_WINDOWS, vec![None; rules.len()]);
        SloMonitor { rules, windows }
    }

    /// The facility's baseline rule set: no block may ever become
    /// unrecoverable.
    pub fn with_defaults() -> Self {
        let rule = format!("gauge({}) == 0", names::DFS_UNDER_REPLICATED_UNRECOVERABLE);
        SloMonitor::new(vec![SloRule::parse(&rule).expect("default rule parses")])
    }

    /// The rules this monitor evaluates.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Evaluates every rule against a fresh snapshot of `registry`,
    /// updating the monitor's own metrics
    /// (`facility_slo_evaluations_total`, `facility_slo_violations_total`,
    /// `facility_slo_healthy`). Windowed rules see no history through
    /// this entry point and hold vacuously; pass a telemetry store via
    /// [`SloMonitor::evaluate_with_history`] to arm them.
    pub fn evaluate(&self, registry: &Registry) -> FacilityHealth {
        self.evaluate_with_history(registry, None)
    }

    /// Evaluates every rule; `window(N)` rules aggregate the telemetry
    /// store's retained history over the last `N` scrape intervals
    /// ending at the registry clock's now.
    pub fn evaluate_with_history(
        &self,
        registry: &Registry,
        history: Option<&TelemetryStore>,
    ) -> FacilityHealth {
        let snap = registry.snapshot();
        let t_ns = registry.now_ns();
        // Windowed observations are computed before the monitor's own
        // window lock is taken: the telemetry ring ranks outside it
        // (OBS_TELEMETRY 830 < OBS_SLO_WINDOWS 840) and the two must
        // never nest.
        let windowed_obs: Vec<Option<f64>> = self
            .rules
            .iter()
            .map(|rule| {
                rule.window
                    .map(|w| windowed_observe(rule, w, history, t_ns))
            })
            .collect();
        let mut windows = self.windows.lock();
        let mut outcomes = Vec::with_capacity(self.rules.len());
        for (i, rule) in self.rules.iter().enumerate() {
            let observed = match windowed_obs[i] {
                Some(v) => v,
                None => match &rule.selector {
                    Selector::HistQuantile { q, name, labels } => {
                        let id = metric_id(name, labels);
                        snap.histograms
                            .iter()
                            .find(|(hid, _)| *hid == id)
                            .map_or(0.0, |(_, h)| match q {
                                Quantile::P50 => h.p50 as f64,
                                Quantile::P95 => h.p95 as f64,
                                Quantile::P99 => h.p99 as f64,
                            })
                    }
                    Selector::GaugeValue { name, labels } => {
                        let id = metric_id(name, labels);
                        snap.gauges
                            .iter()
                            .find(|(gid, _)| *gid == id)
                            .map_or(0.0, |(_, v)| *v as f64)
                    }
                    Selector::Rate {
                        numerator,
                        denominator,
                    } => {
                        let num = counter_total(&snap, numerator);
                        let den = counter_total(&snap, denominator);
                        let prev = windows[i].replace((num, den));
                        match prev {
                            Some((pn, pd)) => {
                                let dn = num.saturating_sub(pn);
                                let dd = den.saturating_sub(pd);
                                if dd == 0 {
                                    0.0
                                } else {
                                    dn as f64 / dd as f64
                                }
                            }
                            None => 0.0,
                        }
                    }
                    // The parser only admits these with a window.
                    Selector::WindowedRate { .. } | Selector::BurnRate { .. } => 0.0,
                },
            };
            outcomes.push(RuleOutcome {
                rule: rule.text.clone(),
                ok: rule.compare(observed),
                observed,
                threshold: rule.threshold,
                windowed: rule.window.is_some(),
            });
        }
        drop(windows);

        let healthy = outcomes.iter().all(|o| o.ok);
        let violations = outcomes.iter().filter(|o| !o.ok).count() as u64;
        let windowed_violations =
            outcomes.iter().filter(|o| !o.ok && o.windowed).count() as u64;
        registry
            .counter(names::FACILITY_SLO_EVALUATIONS_TOTAL, &[])
            .inc();
        registry
            .counter(names::FACILITY_SLO_VIOLATIONS_TOTAL, &[])
            .add(violations);
        registry
            .counter(names::FACILITY_SLO_WINDOWED_VIOLATIONS_TOTAL, &[])
            .add(windowed_violations);
        registry
            .gauge(names::FACILITY_SLO_HEALTHY, &[])
            .set(i64::from(healthy));

        FacilityHealth {
            t_ns,
            healthy,
            projects: project_accounts(&snap, &self.rules, &outcomes),
            rules: outcomes,
        }
    }
}

/// Observes one windowed rule against telemetry history; empty history
/// (no store, or no in-window samples) observes 0.
fn windowed_observe(
    rule: &SloRule,
    window: u64,
    history: Option<&TelemetryStore>,
    now_ns: u64,
) -> f64 {
    let Some(store) = history else { return 0.0 };
    let since = now_ns.saturating_sub(window.saturating_mul(store.interval_ns()));
    match &rule.selector {
        Selector::HistQuantile { q, name, labels } => {
            let pick: fn(&HistPoint) -> u64 = match q {
                Quantile::P50 => |h| h.p50,
                Quantile::P95 => |h| h.p95,
                Quantile::P99 => |h| h.p99,
            };
            store
                .hist_window_quantile(name, &label_refs(labels), since, pick)
                .map_or(0.0, |v| v as f64)
        }
        Selector::WindowedRate {
            numerator,
            num_labels,
            denominator,
            den_labels,
        } => {
            let num = windowed_mass(store, numerator, num_labels, since);
            let den = windowed_mass(store, denominator, den_labels, since);
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        }
        Selector::BurnRate {
            numerator,
            num_labels,
            denominator,
            den_labels,
            budget,
        } => {
            let num = windowed_mass(store, numerator, num_labels, since);
            let den = windowed_mass(store, denominator, den_labels, since);
            if den == 0 {
                0.0
            } else {
                (num as f64 / den as f64) / budget
            }
        }
        // The parser rejects windowed gauge rules, and plain rate rules
        // never carry a window.
        Selector::GaugeValue { .. } | Selector::Rate { .. } => 0.0,
    }
}

fn label_refs(labels: &[(String, String)]) -> Vec<(&str, &str)> {
    labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect()
}

/// Windowed delta mass of one counter: label-filtered when the rule
/// names labels, summed across label sets otherwise.
fn windowed_mass(
    store: &TelemetryStore,
    name: &str,
    labels: &[(String, String)],
    since_ns: u64,
) -> u64 {
    if labels.is_empty() {
        store.counter_window_total(name, since_ns)
    } else {
        store.counter_window_sum(name, &label_refs(labels), since_ns)
    }
}

/// Builds per-project accounts from a snapshot: projects are discovered
/// from `adal_project_ops_total` and `facility_ingest_bytes` labels;
/// tape movement is attributed through the facility naming convention
/// that a project's HSM disk tier is called `<project>-disk`.
/// Violations are attributed from the evaluation's actual outcomes,
/// split instantaneous vs windowed.
fn project_accounts(
    snap: &RegistrySnapshot,
    rules: &[SloRule],
    outcomes: &[RuleOutcome],
) -> Vec<ProjectAccount> {
    let mut projects = std::collections::BTreeSet::new();
    for (id, _) in &snap.counters {
        if id.name == names::ADAL_PROJECT_OPS_TOTAL {
            if let Some((_, p)) = id.labels.iter().find(|(k, _)| k == "project") {
                projects.insert(p.clone());
            }
        }
    }
    for (id, _) in &snap.histograms {
        if id.name == names::FACILITY_INGEST_BYTES {
            if let Some((_, p)) = id.labels.iter().find(|(k, _)| k == "project") {
                projects.insert(p.clone());
            }
        }
    }
    projects
        .into_iter()
        .map(|project| {
            let ops = snap
                .counters
                .iter()
                .filter(|(id, _)| {
                    id.name == names::ADAL_PROJECT_OPS_TOTAL
                        && id.labels.contains(&("project".to_string(), project.clone()))
                })
                .map(|(_, v)| v)
                .sum();
            let bytes = snap
                .histograms
                .iter()
                .filter(|(id, _)| {
                    id.name == names::FACILITY_INGEST_BYTES
                        && id.labels.contains(&("project".to_string(), project.clone()))
                })
                .map(|(_, h)| h.sum)
                .sum();
            let store = ("store".to_string(), format!("{project}-disk"));
            let tape_mounts = snap
                .counters
                .iter()
                .filter(|(id, _)| {
                    (id.name == names::HSM_DEMOTIONS_TOTAL || id.name == names::HSM_RECALLS_TOTAL)
                        && id.labels.contains(&store)
                })
                .map(|(_, v)| v)
                .sum();
            let failed_for_project = |windowed: bool| {
                rules
                    .iter()
                    .zip(outcomes)
                    .filter(|(r, o)| {
                        !o.ok && o.windowed == windowed && r.project() == Some(project.as_str())
                    })
                    .count() as u64
            };
            let violations = failed_for_project(false);
            let windowed_violations = failed_for_project(true);
            ProjectAccount {
                project,
                ops,
                bytes,
                tape_mounts,
                violations,
                windowed_violations,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_selector_forms() {
        let q = SloRule::parse("p99(adal_op_latency_ns{op=put}) < 1000000").unwrap();
        assert_eq!(
            q.selector,
            Selector::HistQuantile {
                q: Quantile::P99,
                name: "adal_op_latency_ns".into(),
                labels: vec![("op".into(), "put".into())],
            }
        );
        assert_eq!(q.cmp, Cmp::Lt);
        assert_eq!(q.threshold, 1_000_000.0);

        let g = SloRule::parse("gauge(dfs_under_replicated_unrecoverable) == 0").unwrap();
        assert_eq!(
            g.selector,
            Selector::GaugeValue {
                name: "dfs_under_replicated_unrecoverable".into(),
                labels: vec![],
            }
        );
        assert_eq!(g.cmp, Cmp::Eq);

        let r = SloRule::parse("rate(adal_retry_exhausted_total / adal_ops_total) <= 0.05")
            .unwrap();
        assert_eq!(
            r.selector,
            Selector::Rate {
                numerator: "adal_retry_exhausted_total".into(),
                denominator: "adal_ops_total".into(),
            }
        );
        assert_eq!(r.cmp, Cmp::Le);
    }

    #[test]
    fn rejects_malformed_rules() {
        for bad in [
            "p99 adal_op_latency_ns < 5",
            "p42(x) < 5",
            "gauge(x) > 5",
            "gauge(x{unclosed) == 0",
            "rate(a) < 0.5",
            "rate(a{l=1} / b) < 0.5",
            "gauge(x) == banana",
            "window(0) rate(a / b) < 0.5",
            "window(banana) rate(a / b) < 0.5",
            "window(8 rate(a / b) < 0.5",
            "window(8) gauge(x) == 0",
            "burn(a / b, 0.01) < 2",
            "window(8) burn(a / b) < 2",
            "window(8) burn(a / b, 0) < 2",
            "window(8) burn(a / b, -0.1) < 2",
            "window(8) burn(a, 0.01) < 2",
        ] {
            assert!(SloRule::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn parses_the_windowed_forms() {
        let r = SloRule::parse("window(8) rate(errs_total{project=p} / ops_total) <= 0.15")
            .unwrap();
        assert_eq!(r.window(), Some(8));
        assert_eq!(
            r.selector,
            Selector::WindowedRate {
                numerator: "errs_total".into(),
                num_labels: vec![("project".into(), "p".into())],
                denominator: "ops_total".into(),
                den_labels: vec![],
            }
        );
        assert_eq!(r.project(), Some("p"));

        let q = SloRule::parse("window(4) p99(lat_ns{project=p}) <= 1000").unwrap();
        assert_eq!(q.window(), Some(4));
        assert!(matches!(q.selector, Selector::HistQuantile { .. }));

        let b = SloRule::parse("window(8) burn(errs_total / ops_total, 0.01) <= 2").unwrap();
        assert_eq!(
            b.selector,
            Selector::BurnRate {
                numerator: "errs_total".into(),
                num_labels: vec![],
                denominator: "ops_total".into(),
                den_labels: vec![],
                budget: 0.01,
            }
        );
        assert_eq!(b.text(), "window(8) burn(errs_total / ops_total, 0.01) <= 2");
    }

    #[test]
    fn windowed_rules_hold_vacuously_without_history() {
        let r = Registry::new();
        r.counter(names::ADAL_RETRY_EXHAUSTED_TOTAL, &[]).add(100);
        r.counter(names::ADAL_OPS_TOTAL, &[]).add(100);
        let monitor = SloMonitor::new(vec![SloRule::parse(&format!(
            "window(8) rate({} / {}) <= 0.1",
            names::ADAL_RETRY_EXHAUSTED_TOTAL,
            names::ADAL_OPS_TOTAL
        ))
        .unwrap()]);
        let report = monitor.evaluate(&r);
        assert!(report.healthy, "no store wired: windowed rules are vacuous");
        assert!(report.windowed_alerting());
        assert_eq!(report.rules[0].observed, 0.0);
        assert!(report.rules[0].windowed);
    }

    #[test]
    fn windowed_burn_catches_what_the_instantaneous_rate_misses() {
        use crate::telemetry::{TelemetryConfig, TelemetryStore};
        const MS: u64 = 1_000_000;
        let r = Registry::new();
        let ts = TelemetryStore::new(TelemetryConfig::default().interval_ns(MS));
        let errs = r.counter(names::ADAL_RETRY_EXHAUSTED_TOTAL, &[]);
        let ops = r.counter(names::ADAL_OPS_TOTAL, &[]);
        // An instantaneous spike rule sized for one bad eval, and a
        // windowed burn rule sized for sustained degradation: 25%
        // errors against a 10% budget is a 2.5x burn.
        let monitor = SloMonitor::new(vec![
            SloRule::parse(&format!(
                "rate({} / {}) <= 0.5",
                names::ADAL_RETRY_EXHAUSTED_TOTAL,
                names::ADAL_OPS_TOTAL
            ))
            .unwrap(),
            SloRule::parse(&format!(
                "window(8) burn({} / {}, 0.1) <= 2",
                names::ADAL_RETRY_EXHAUSTED_TOTAL,
                names::ADAL_OPS_TOTAL
            ))
            .unwrap(),
        ]);
        let mut last = FacilityHealth {
            t_ns: 0,
            healthy: true,
            rules: vec![],
            projects: vec![],
        };
        for k in 1..=8u64 {
            ops.add(20);
            errs.add(5); // sustained 25%: never breaches the 0.5 spike rule
            r.set_virtual_time_ns(k * MS);
            ts.scrape(&r);
            last = monitor.evaluate_with_history(&r, Some(&ts));
        }
        assert!(last.rules[0].ok, "instantaneous rule never fires at 25%");
        assert!(!last.rules[1].ok, "sustained 2.5x burn breaches the windowed rule");
        assert_eq!(last.rules[1].observed, 2.5);
        assert!(!last.healthy);
        assert_eq!(
            r.counter_value(names::FACILITY_SLO_WINDOWED_VIOLATIONS_TOTAL, &[]),
            r.counter_value(names::FACILITY_SLO_VIOLATIONS_TOTAL, &[]),
            "every violation in this run is a windowed one"
        );
    }

    #[test]
    fn rolling_p99_rule_remembers_a_spike_across_evals() {
        use crate::telemetry::{TelemetryConfig, TelemetryStore};
        const MS: u64 = 1_000_000;
        let r = Registry::new();
        let ts = TelemetryStore::new(TelemetryConfig::default().interval_ns(MS));
        let h = r.histogram(names::ADAL_PROJECT_OP_LATENCY_NS, &[("project", "p")]);
        let monitor = SloMonitor::new(vec![SloRule::parse(&format!(
            "window(4) p99({}{{project=p}}) <= 1000",
            names::ADAL_PROJECT_OP_LATENCY_NS
        ))
        .unwrap()]);
        h.record(100_000); // the spike
        r.set_virtual_time_ns(MS);
        ts.scrape(&r);
        for k in 2..=3u64 {
            for _ in 0..200 {
                h.record(10); // drown the spike out of the instantaneous p99
            }
            r.set_virtual_time_ns(k * MS);
            ts.scrape(&r);
        }
        let report = monitor.evaluate_with_history(&r, Some(&ts));
        assert!(
            !report.rules[0].ok,
            "rolling p99 keeps the in-window spike: {}",
            report.rules[0].observed
        );
        // Once the spike sample ages out of the window, the rule clears.
        for k in 4..=7u64 {
            r.set_virtual_time_ns(k * MS);
            ts.scrape(&r);
        }
        let report = monitor.evaluate_with_history(&r, Some(&ts));
        assert!(report.rules[0].ok, "spike aged out of the window");
    }

    #[test]
    fn gauge_rule_flips_and_recovers() {
        let r = Registry::new();
        r.set_virtual_time_ns(1);
        let monitor = SloMonitor::with_defaults();
        let report = monitor.evaluate(&r);
        assert!(report.healthy, "vacuously healthy before traffic");
        r.gauge(names::DFS_UNDER_REPLICATED_UNRECOVERABLE, &[]).set(3);
        let report = monitor.evaluate(&r);
        assert!(!report.healthy);
        assert!(!report.rules[0].ok);
        assert_eq!(report.rules[0].observed, 3.0);
        r.gauge(names::DFS_UNDER_REPLICATED_UNRECOVERABLE, &[]).set(0);
        let report = monitor.evaluate(&r);
        assert!(report.healthy, "recovers once the gauge clears");
        assert_eq!(r.counter_value(names::FACILITY_SLO_EVALUATIONS_TOTAL, &[]), 3);
        assert_eq!(r.counter_value(names::FACILITY_SLO_VIOLATIONS_TOTAL, &[]), 1);
        assert_eq!(r.gauge_value(names::FACILITY_SLO_HEALTHY, &[]), 1);
    }

    #[test]
    fn quantile_rule_reads_snapshot_quantiles() {
        let r = Registry::new();
        let h = r.histogram(names::ADAL_OP_LATENCY_NS, &[("op", "put")]);
        for _ in 0..50 {
            h.record(10);
            h.record(1_000_000);
        }
        let tight =
            SloMonitor::new(vec![SloRule::parse(
                &format!("p50({}{{op=put}}) < 100", names::ADAL_OP_LATENCY_NS),
            )
            .unwrap()]);
        assert!(tight.evaluate(&r).healthy);
        let strict =
            SloMonitor::new(vec![SloRule::parse(
                &format!("p99({}{{op=put}}) < 100", names::ADAL_OP_LATENCY_NS),
            )
            .unwrap()]);
        assert!(!strict.evaluate(&r).healthy, "p99 sees the outlier");
    }

    #[test]
    fn rate_rule_is_windowed() {
        let r = Registry::new();
        let errs = r.counter(names::ADAL_RETRY_EXHAUSTED_TOTAL, &[("project", "p")]);
        let ops = r.counter(names::ADAL_OPS_TOTAL, &[("op", "put")]);
        let monitor = SloMonitor::new(vec![SloRule::parse(&format!(
            "rate({} / {}) < 0.5",
            names::ADAL_RETRY_EXHAUSTED_TOTAL,
            names::ADAL_OPS_TOTAL
        ))
        .unwrap()]);
        // First window: no previous totals -> 0.0.
        assert!(monitor.evaluate(&r).healthy);
        ops.add(10);
        errs.add(9);
        let report = monitor.evaluate(&r);
        assert!(!report.healthy);
        assert_eq!(report.rules[0].observed, 0.9);
        // Next window is clean: only deltas count.
        ops.add(10);
        assert!(monitor.evaluate(&r).healthy);
        // Idle window: denominator delta 0 -> vacuously ok.
        assert!(monitor.evaluate(&r).healthy);
    }

    #[test]
    fn project_accounts_aggregate_and_attribute() {
        let r = Registry::new();
        r.counter(
            names::ADAL_PROJECT_OPS_TOTAL,
            &[("project", "screening"), ("backend", "disk"), ("op", "put")],
        )
        .add(7);
        r.counter(
            names::ADAL_PROJECT_OPS_TOTAL,
            &[("project", "screening"), ("backend", "disk"), ("op", "get")],
        )
        .add(3);
        r.counter(
            names::ADAL_PROJECT_OPS_TOTAL,
            &[("project", "katrin"), ("backend", "tape"), ("op", "put")],
        )
        .add(2);
        r.histogram(names::FACILITY_INGEST_BYTES, &[("project", "screening")])
            .record(4096);
        r.counter(names::HSM_RECALLS_TOTAL, &[("store", "katrin-disk")])
            .add(5);
        r.gauge(names::ADAL_BREAKER_STATE, &[("project", "screening")])
            .set(1);
        let monitor = SloMonitor::new(vec![SloRule::parse(&format!(
            "gauge({}{{project=screening}}) == 0",
            names::ADAL_BREAKER_STATE
        ))
        .unwrap()]);
        let report = monitor.evaluate(&r);
        assert!(!report.healthy);
        assert_eq!(report.projects.len(), 2);
        let katrin = &report.projects[0];
        assert_eq!(katrin.project, "katrin");
        assert_eq!(katrin.ops, 2);
        assert_eq!(katrin.tape_mounts, 5);
        assert_eq!(katrin.violations, 0);
        let screening = &report.projects[1];
        assert_eq!(screening.project, "screening");
        assert_eq!(screening.ops, 10);
        assert_eq!(screening.bytes, 4096);
        assert_eq!(screening.violations, 1);
    }

    #[test]
    fn report_json_is_deterministic_and_balanced() {
        let r = Registry::new();
        r.set_virtual_time_ns(42);
        r.counter(
            names::ADAL_PROJECT_OPS_TOTAL,
            &[("project", "p\"q"), ("backend", "b"), ("op", "put")],
        )
        .inc();
        let monitor = SloMonitor::with_defaults();
        let json = monitor.evaluate(&r).to_json();
        assert_eq!(json, monitor.evaluate(&r).to_json());
        assert!(json.contains("\"t_ns\": 42"), "{json}");
        assert!(json.contains("\"healthy\": true"), "{json}");
        assert!(json.contains("p\\\"q"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
