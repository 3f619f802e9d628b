//! Metric definitions, the end-to-end figures computed from a run's
//! repetitions, and the output format.

use std::fmt::Write as _;

use crate::estimator::{composite, composite_total, percentile, quartiles, Sample, CONTENDED_SKIP};
use crate::inputs::Inputs;
use crate::script::{setups_per_rep, Rep, Tally, PHASES};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// What a user of the facility sees. Must agree with `BENCHMARK.json`
/// (a test checks it). A timing's bound is the smallest of 10, 12, 15,
/// 18, 20 and 25% that is at least two and a half times the metric's
/// widest spread in any sweep on the build host, its bad minutes
/// included, and three times its widest in the last two (README.md
/// tables them); set-up gets the largest.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.05),
    e2e("ingest_mb_per_s", "MB/s", true, 0.18),
    e2e("ingest_items_per_s", "1/s", true, 0.18),
    e2e("ingest_batch_p50_ms", "ms", false, 0.25),
    e2e("get_ops_per_s", "1/s", true, 0.2),
    e2e("query_ops_per_s", "1/s", true, 0.18),
    e2e("recovery_s", "s", false, 0.2),
    e2e("space_amplification", "ratio", false, 0.005),
];

/// One measured value.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A run's result: the line the driver reads, and lines for people.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// A check outside the per-operation tally failed.
    pub broken: Vec<String>,
    pub info: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed() == 0 && self.broken.is_empty()
    }

    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The last line of standard output.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted().max(1),
            self.tally.failed()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    pub fn print(&self, title: &str) {
        println!("== {title}");
        for line in &self.info {
            println!("   {line}");
        }
        for m in &self.metrics {
            println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for (phase, (attempted, failed)) in PHASES.iter().zip(self.tally.phases) {
            if attempted > 0 {
                println!(
                    "failed/{phase:<29} {failed:>9}/{attempted} ({:.4}%)",
                    100.0 * failed as f64 / attempted as f64
                );
            }
        }
        for b in &self.broken {
            println!("BROKEN: {b}");
        }
        println!("{}", self.json_line());
    }
}

/// `name: value` pairs out of a line [`Outcome::json_line`] wrote.
pub fn parse_json_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry
            .trim_start_matches(['{', ' '])
            .split_once("\": {\"value\": ")?;
        let value = rest.split(',').next()?.trim().parse().ok()?;
        out.push((name.trim_start_matches('"').to_string(), value));
    }
    Some((correct, out))
}

fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

fn phase<'a>(reps: &'a [Rep], pick: impl Fn(&'a Rep) -> &'a Vec<Sample>) -> Vec<Vec<Sample>> {
    reps.iter().map(|r| pick(r).clone()).collect()
}

/// "Under load": median and quartiles of the per-repetition raw
/// wall-clock totals of a phase. Information, not gated.
fn under_load(name: &str, series: &[Vec<Sample>], skip: usize) -> String {
    let totals: Vec<f64> = series
        .iter()
        .map(|r| r.iter().map(|s| s.raw_ns).sum::<f64>() / 1e6)
        .collect();
    let (q1, q2, q3) = quartiles(&totals);
    format!(
        "{name}: composite {:.3} ms; per-repetition wall under load median {q2:.3} ms (quartiles {q1:.3}–{q3:.3})",
        composite_total(series, skip) / 1e6
    )
}

/// The nine end-to-end metrics from a run's repetitions.
pub fn end_to_end(inputs: &Inputs, reps: &[Rep], tally: Tally) -> Outcome {
    let spec = &inputs.spec;
    let mut info = Vec::new();
    let mut broken = Vec::new();
    let setup = phase(reps, |r| &r.setup);
    let batches = phase(reps, |r| &r.batches);
    let sweeps = phase(reps, |r| &r.sweeps);
    let gets = phase(reps, |r| &r.gets);
    let queries = phase(reps, |r| &r.queries);
    let recoveries = phase(reps, |r| &r.recoveries);

    let timed = spec.total_items() - spec.items..spec.total_items();
    // Ingest and reads of the concurrent workload ran against each
    // other; its set-up and restarts, like everything else, ran alone.
    let skip = match spec.concurrent_batches {
        Some(_) => CONTENDED_SKIP,
        None => 0,
    };
    let ingest_s = (composite_total(&batches, skip) + composite_total(&sweeps, skip)) / 1e9;
    let batch_ms: Vec<f64> = composite(&batches, skip)
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    let p50 = percentile(&batch_ms, 50.0).unwrap_or_else(|| {
        info.push("ingest_batch_p50_ms: fewer than ten samples beyond the median".to_string());
        quartiles(&batch_ms).1
    });
    let restarts = spec.recoveries * spec.restarts_per_segment;
    let amp = reps[0].space_amplification;
    if reps.iter().any(|r| r.space_amplification != amp) {
        broken.push("space_amplification differs between repetitions".to_string());
    }
    let values = [
        composite_total(&setup, 0) / setups_per_rep(spec) as f64 / 1e9,
        vm_hwm_mb(),
        inputs.payload_bytes(timed) as f64 / 1e6 / ingest_s,
        spec.items as f64 / ingest_s,
        p50,
        (spec.get_segments * spec.gets_per_segment) as f64 / (composite_total(&gets, skip) / 1e9),
        (spec.query_segments * spec.queries_per_segment) as f64
            / (composite_total(&queries, skip) / 1e9),
        composite_total(&recoveries, 0) / restarts as f64 / 1e9,
        amp,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| Metric {
            name: def.name,
            unit: def.unit,
            value,
        })
        .collect();

    info.push(format!(
        "{} repetitions, {} items of {} B in batches of {}, {} gets, {} queries, {} restarts each",
        reps.len(),
        spec.items,
        spec.item_bytes,
        spec.batch,
        spec.get_segments * spec.gets_per_segment,
        spec.query_segments * spec.queries_per_segment,
        restarts,
    ));
    info.push(format!("bench.generate_s {:.3}", inputs.generate_s));
    for (name, series, skip) in [
        ("set-up", &setup, 0),
        ("ingest batches", &batches, skip),
        ("reconciler sweeps", &sweeps, skip),
        ("gets", &gets, skip),
        ("queries", &queries, skip),
        ("recovery", &recoveries, 0),
    ] {
        info.push(under_load(name, series, skip));
    }
    Outcome {
        metrics,
        tally,
        broken,
        info,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips_and_keeps_every_digit() {
        let outcome = Outcome {
            metrics: vec![
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.000123456789,
                },
                Metric {
                    name: "ingest_mb_per_s",
                    unit: "MB/s",
                    value: 231.40625,
                },
            ],
            tally: Tally::default(),
            broken: Vec::new(),
            info: Vec::new(),
        };
        let line = outcome.json_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        let (correct, metrics) = parse_json_line(&line).unwrap();
        assert!(correct);
        assert_eq!(
            metrics,
            vec![
                ("setup_s".to_string(), 0.000123456789),
                ("ingest_mb_per_s".to_string(), 231.40625),
            ]
        );
    }
}
