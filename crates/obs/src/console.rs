//! The operator console: `facility_status` renders the text report an
//! operator reads — per-tenant traffic with sparklines from the
//! telemetry store, lane queue depths, breaker states, WAL/checkpoint
//! lag, active alerts, and the slowest-operations profile.
//!
//! The renderer returns a `String` (the workspace denies stdout in
//! library code); `Facility::operator_report()` and the `just status`
//! target are the entry points that actually display it. Every section
//! reads sorted data (snapshot tables are BTreeMap-ordered, telemetry
//! series are BTreeMap-keyed, profile rows sort by total time), so the
//! rendered report is byte-identical at any worker count for a given
//! seed.

use crate::names;
use crate::profile::SpanProfile;
use crate::registry::{MetricId, Registry};
use crate::slo::FacilityHealth;
use crate::telemetry::TelemetryStore;

/// Everything `facility_status` reads. `profile` is optional: the
/// slowest-operations section says tracing is off when it is absent.
pub struct ConsoleInputs<'a> {
    /// The registry to snapshot for current values.
    pub registry: &'a Registry,
    /// Telemetry history for sparklines, WAL lag and scrape accounting.
    pub telemetry: &'a TelemetryStore,
    /// The health evaluation to report (projects, alerts).
    pub health: &'a FacilityHealth,
    /// Span profile for the slowest-operations table.
    pub profile: Option<&'a SpanProfile>,
}

/// Renders a series as a fixed-palette unicode sparkline (`▁▂▃▄▅▆▇█`),
/// scaled to the series max. Empty input renders as `-`.
pub fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return "-".to_string();
    }
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|v| {
            if max == 0 {
                BARS[0]
            } else {
                // Map 0..=max onto the 8 glyphs, top glyph at the max.
                let idx = ((*v as u128 * 7).div_ceil(max as u128)) as usize;
                BARS[idx.min(7)]
            }
        })
        .collect()
}

/// Last `n` values of a series, as the sparkline columns.
fn tail(values: &[u64], n: usize) -> Vec<u64> {
    values[values.len().saturating_sub(n)..].to_vec()
}

const SPARK_WIDTH: usize = 16;

/// Renders the full operator report. See the module docs for the
/// section list and the determinism argument.
pub fn facility_status(inputs: &ConsoleInputs<'_>) -> String {
    let snap = inputs.registry.snapshot();
    let (health, ts) = (inputs.health, inputs.telemetry);
    let mut out = String::with_capacity(2048);

    out.push_str(&format!(
        "== facility status @ t_ns={} ==\nhealthy: {}\n",
        health.t_ns,
        if health.healthy { "yes" } else { "NO" }
    ));

    // --- Tenants: accounts + ops/p99 sparklines from the TSDB --------
    out.push_str(&format!(
        "\n-- tenants --\n{:<16} {:>10} {:>14} {:>10} {:>5} {:>4}  {:<w$} {:<w$}\n",
        "project",
        "ops",
        "bytes",
        "tape",
        "viol",
        "thr",
        "ops/interval",
        "p99_ns",
        w = SPARK_WIDTH
    ));
    for p in &health.projects {
        let throttle = inputs
            .registry
            .gauge_value(names::ADMISSION_THROTTLE_LEVEL, &[("project", &p.project)]);
        let ops: Vec<u64> = ts
            .counter_series_filtered(names::ADAL_PROJECT_OPS_TOTAL, ("project", &p.project))
            .into_iter()
            .map(|(_, d)| d)
            .collect();
        let p99: Vec<u64> = ts
            .hist_series(
                names::ADAL_PROJECT_OP_LATENCY_NS,
                &[("project", &p.project)],
            )
            .into_iter()
            .map(|(_, h)| h.p99)
            .collect();
        out.push_str(&format!(
            "{:<16} {:>10} {:>14} {:>10} {:>5} {:>4}  {:<w$} {:<w$}\n",
            p.project,
            p.ops,
            p.bytes,
            p.tape_mounts,
            p.violations + p.windowed_violations,
            throttle,
            sparkline(&tail(&ops, SPARK_WIDTH)),
            sparkline(&tail(&p99, SPARK_WIDTH)),
            w = SPARK_WIDTH
        ));
    }
    if health.projects.is_empty() {
        out.push_str("(no tenant traffic yet)\n");
    }

    // --- Admission lanes ----------------------------------------------
    out.push_str("\n-- admission lanes (queue depth) --\n");
    let mut any_lane = false;
    for (id, v) in &snap.gauges {
        if id.name == names::ADMISSION_QUEUE_DEPTH {
            any_lane = true;
            out.push_str(&format!("{:<48} {:>6}\n", id.to_string(), v));
        }
    }
    if !any_lane {
        out.push_str("(no lanes registered)\n");
    }

    // --- Circuit breakers ---------------------------------------------
    out.push_str("\n-- circuit breakers --\n");
    let mut any_breaker = false;
    for (id, v) in &snap.gauges {
        if id.name == names::ADAL_BREAKER_STATE {
            any_breaker = true;
            let state = match v {
                0 => "closed",
                1 => "OPEN",
                2 => "half-open",
                _ => "?",
            };
            out.push_str(&format!("{:<48} {}\n", id.to_string(), state));
        }
    }
    if !any_breaker {
        out.push_str("(no breakers registered)\n");
    }

    // --- Durability: WAL appends/fsyncs, appends since last ckpt, and
    // the chunks that checkpoint wrote / kept by reference ------------
    out.push_str(&format!(
        "\n-- durability --\n{:<32} {:>10} {:>8} {:>6} {:>14} {:>16}\n",
        "wal", "appends", "fsyncs", "ckpts", "lag(appends)", "last ckpt wr/kept"
    ));
    let mut any_wal = false;
    for (id, appends) in &snap.counters {
        if id.name != names::WAL_APPENDS_TOTAL {
            continue;
        }
        any_wal = true;
        let label_refs: Vec<(&str, &str)> = id
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let count = |name| inputs.registry.counter_value(name, &label_refs);
        // Lag per the TSDB: appends recorded after the component's last
        // checkpoint sample, and the chunk counts of that sample (the
        // scrape interval holding the last checkpoint). Before the first
        // checkpoint the whole retained delta mass counts as lag.
        let last_ckpt = ts
            .counter_series(names::CKPT_TAKEN_TOTAL, &label_refs)
            .last()
            .map_or(0, |(t, _)| *t);
        let since = |name: &str, t| {
            let sibling = MetricId {
                name: name.to_string(),
                labels: id.labels.clone(),
            };
            ts.counter_window_sum(&sibling, t)
        };
        let at = last_ckpt.saturating_sub(1);
        let lag = since(names::WAL_APPENDS_TOTAL, last_ckpt);
        let written = since(names::CKPT_CHUNKS_WRITTEN_TOTAL, at);
        let kept = since(names::CKPT_CHUNKS_REUSED_TOTAL, at);
        out.push_str(&format!(
            "{:<32} {:>10} {:>8} {:>6} {:>14} {:>16}\n",
            id.to_string(),
            appends,
            count(names::WAL_FSYNCS_TOTAL),
            count(names::CKPT_TAKEN_TOTAL),
            lag,
            format!("{written}/{kept}")
        ));
    }
    if !any_wal {
        out.push_str("(no write-ahead logs active)\n");
    }
    // A component listed here came back from a crash without its
    // checkpoint: it holds only what its surviving WAL segments held.
    let rejected: Vec<String> = snap
        .counters
        .iter()
        .filter(|(id, n)| id.name == names::CKPT_REJECTED_TOTAL && *n > 0)
        .map(|(id, n)| format!("{id} = {n}"))
        .collect();
    out.push_str(&match rejected.is_empty() {
        true => "checkpoints rejected at recovery: none\n".to_string(),
        false => format!("checkpoints REJECTED at recovery: {}\n", rejected.join(", ")),
    });

    // --- Active alerts -------------------------------------------------
    out.push_str("\n-- active alerts --\n");
    let alerts = health.active_alerts();
    if alerts.is_empty() {
        out.push_str("(none)\n");
    } else {
        for a in alerts {
            out.push_str(&format!(
                "[{}] {} (observed {:.4}, threshold {:.4})\n",
                if a.windowed { "sustained" } else { "spike" },
                a.rule,
                a.observed,
                a.threshold
            ));
        }
    }

    // --- Slowest operations -------------------------------------------
    out.push_str("\n-- slowest operations (span profile) --\n");
    match inputs.profile {
        Some(p) => out.push_str(&p.render_slowest(10)),
        None => out.push_str("(tracing disabled)\n"),
    }

    // --- Telemetry self-accounting ------------------------------------
    let registry_count = |name| inputs.registry.counter_value(name, &[]);
    out.push_str(&format!(
        "\n-- telemetry --\n\
         series: {}  points: {}  high_water: {}  scrapes: {}  samples: {}  evictions: {}\n",
        ts.series_count(),
        ts.points_retained(),
        ts.points_high_water(),
        registry_count(names::TELEMETRY_SCRAPES_TOTAL),
        registry_count(names::TELEMETRY_SAMPLES_TOTAL),
        registry_count(names::TELEMETRY_EVICTIONS_TOTAL),
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloMonitor;
    use crate::telemetry::TelemetryConfig;

    const MS: u64 = 1_000_000;

    #[test]
    fn sparkline_scales_to_the_max() {
        assert_eq!(sparkline(&[]), "-");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let s = sparkline(&[1, 4, 8]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'), "{s}");
        assert_eq!(sparkline(&[5]), "█", "a lone value is the max");
    }

    #[test]
    fn report_renders_every_section_and_is_deterministic() {
        let r = Registry::new();
        let ts = TelemetryStore::new(TelemetryConfig::default().interval_ns(MS));
        r.counter(
            names::ADAL_PROJECT_OPS_TOTAL,
            &[("project", "zebrafish"), ("backend", "disk"), ("op", "put")],
        )
        .add(12);
        r.histogram(names::ADAL_PROJECT_OP_LATENCY_NS, &[("project", "zebrafish")])
            .record(500);
        r.gauge(
            names::ADMISSION_QUEUE_DEPTH,
            &[("project", "zebrafish"), ("lane", "bulk")],
        )
        .set(3);
        r.gauge(names::ADAL_BREAKER_STATE, &[("project", "zebrafish")])
            .set(1);
        r.counter(names::WAL_APPENDS_TOTAL, &[("log", "dfs")]).add(7);
        // Two checkpoints in two scrape intervals: the line shows the
        // last one's chunks, not the sum.
        let ckpt = |taken: u64, written: u64, kept: u64| {
            r.counter(names::CKPT_TAKEN_TOTAL, &[("log", "dfs")]).add(taken);
            r.counter(names::CKPT_CHUNKS_WRITTEN_TOTAL, &[("log", "dfs")]).add(written);
            r.counter(names::CKPT_CHUNKS_REUSED_TOTAL, &[("log", "dfs")]).add(kept);
        };
        ckpt(1, 5, 0);
        r.set_virtual_time_ns(MS);
        ts.scrape(&r);
        ckpt(1, 2, 4);
        r.counter(names::CKPT_REJECTED_TOTAL, &[("log", "dfs")]).inc();
        r.set_virtual_time_ns(2 * MS);
        ts.scrape(&r);
        let monitor = SloMonitor::with_defaults();
        let health = monitor.evaluate(&r, &ts);
        let inputs = ConsoleInputs {
            registry: &r,
            telemetry: &ts,
            health: &health,
            profile: Some(&SpanProfile::new()),
        };
        let report = facility_status(&inputs);
        assert_eq!(report, facility_status(&inputs), "byte-stable render");
        for needle in [
            "== facility status",
            "-- tenants --",
            "zebrafish",
            "-- admission lanes",
            "-- circuit breakers --",
            "OPEN",
            "-- durability --",
            "wal_appends_total{log=dfs}",
            " 2/4\n",
            "checkpoints REJECTED at recovery: ckpt_rejected_total{log=dfs} = 1",
            "-- active alerts --",
            "-- slowest operations",
            "-- telemetry --",
        ] {
            assert!(report.contains(needle), "missing `{needle}`:\n{report}");
        }
    }

    #[test]
    fn report_degrades_gracefully_without_history_or_profile() {
        let r = Registry::new();
        let ts = TelemetryStore::new(TelemetryConfig::default());
        let health = SloMonitor::with_defaults().evaluate(&r, &ts);
        let report = facility_status(&ConsoleInputs {
            registry: &r,
            telemetry: &ts,
            health: &health,
            profile: None,
        });
        assert!(report.contains("series: 0  points: 0"), "{report}");
        assert!(report.contains("(tracing disabled)"));
        assert!(report.contains("(no tenant traffic yet)"));
    }
}
