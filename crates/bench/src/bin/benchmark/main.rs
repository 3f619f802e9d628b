//! `benchmark` — the facility's end-to-end and per-layer benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--reps N] [--smoke]
//! benchmark --selfcheck [--seconds <s>]
//! ```
//!
//! `--trace 0` measures the nine end-to-end metrics with the
//! benchmark's spans and the facility's tracer both off; `--trace 1`
//! replays the same inputs into one private instance of each layer and
//! prints the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! README.md in this directory defines every metric and the timing
//! rule.

#![allow(clippy::print_stdout)] // a benchmark reports to stdout by design

mod estimator;
mod inputs;
mod ladder;
mod report;
mod script;
mod spans;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use estimator::Timer;
use inputs::{Inputs, Spec, WORKLOADS};
use report::{Outcome, END_TO_END};
use script::Tally;

/// Held by every test that ingests: `payload_digests_computed` is one
/// counter per process, the per-layer run reads it as an exact count,
/// and the test harness runs tests on parallel threads.
#[cfg(test)]
static PROCESS_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
fn hold_process_counters() -> std::sync::MutexGuard<'static, ()> {
    PROCESS_COUNTERS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Where `--trace 1` leaves its spans, relative to the working
/// directory.
const TRACE_DIR: &str = "target/benchmark";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: Option<usize>,
    smoke: bool,
    selfcheck: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        reps: None,
        smoke: false,
        selfcheck: false,
    };
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--reps" => {
                args.reps = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?,
                );
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if args.reps == Some(0) {
        return Err("--reps must be at least 1".to_string());
    }
    Ok(args)
}

/// Repeats `body` until `seconds` have been spent, at least `floor`
/// times, or exactly `fixed` times. `body` learns whether it is the
/// first or last round.
fn repeat(
    seconds: f64,
    floor: usize,
    fixed: Option<usize>,
    mut body: impl FnMut(bool, bool),
) -> usize {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut done = 0;
    loop {
        let last = match fixed {
            Some(n) => done + 1 >= n,
            // Room for this round but not for another after it.
            None => {
                let per_round = started
                    .elapsed()
                    .checked_div(done as u32)
                    .unwrap_or_default();
                done + 1 >= floor && started.elapsed() + per_round * 2 > budget
            }
        };
        body(done == 0, last);
        done += 1;
        if last {
            return done;
        }
    }
}

/// The untraced run: repetitions of the end-to-end script.
fn run_end_to_end(inputs: &Inputs, seconds: f64, reps: Option<usize>) -> Outcome {
    let mut timer = Timer::new();
    let mut tally = Tally::default();
    let mut done = Vec::new();
    // Two repetitions at least, or the minimum has nothing to discard.
    repeat(seconds, 2, reps, |first, last| {
        done.push(script::run_rep(
            inputs,
            first || last,
            &mut timer,
            &mut tally,
        ));
    });
    let mut outcome = report::end_to_end(inputs, &done, tally);
    outcome.info.push(format!(
        "host: {} of {} segments in turbo mode, mean clock {:.3} x nominal, {} CPUs",
        timer.turbo_segments,
        timer.segments,
        timer.probe_nominal_ratio(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));
    outcome
}

fn run_workload(args: &Args, name: &str) -> Result<Outcome, String> {
    let spec = Spec::named(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let spec = if args.smoke { spec.smoke() } else { spec };
    let inputs = Inputs::generate(spec, args.seed);
    Ok(if args.trace {
        let (mut outcome, spans) = ladder::run(&inputs, args.seconds, args.reps);
        let dir = std::path::Path::new(TRACE_DIR);
        let file = dir.join(format!("trace-{name}.json"));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&file, spans.to_json(name, args.seed)))
        {
            Ok(()) => outcome.info.push(format!(
                "{} spans written to {}",
                spans.len(),
                file.display()
            )),
            Err(e) => outcome
                .broken
                .push(format!("cannot write {}: {e}", file.display())),
        }
        outcome
    } else {
        run_end_to_end(&inputs, args.seconds, args.reps)
    })
}

/// Runs every workload twice, each run in its own process, and fails
/// when an end-to-end metric of the second run is worse than the
/// first's by more than its bound.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let mut runs = Vec::new();
        for seed in [args.seed, args.seed + 1] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().map_err(|e| format!("{name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let parsed = stdout.lines().last().and_then(report::parse_json_line);
            let (correct, metrics) = parsed.ok_or(format!("{name}: no result line"))?;
            if !out.status.success() || !correct {
                println!("{name} seed {seed}: run failed or incorrect");
                ok = false;
            }
            runs.push(metrics);
        }
        for def in END_TO_END {
            let find = |run: &Vec<(String, f64)>| run.iter().find(|m| m.0 == def.name).map(|m| m.1);
            let (Some(a), Some(b)) = (find(&runs[0]), find(&runs[1])) else {
                return Err(format!("{name}: {} missing", def.name));
            };
            let worse = if def.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let verdict = if worse > def.bound { "OUTSIDE" } else { "ok" };
            ok &= worse <= def.bound;
            println!(
                "{name:<22} {:<22} {a:>14.6} {b:>14.6} {:>+7.2}% (bound {:.1}%) {verdict}",
                def.name,
                100.0 * worse,
                100.0 * def.bound
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return match selfcheck(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("benchmark: --workload <name> or --selfcheck");
        return ExitCode::from(2);
    };
    match run_workload(&args, name) {
        Ok(outcome) => {
            let mode = if args.trace {
                "per-layer"
            } else {
                "end-to-end"
            };
            outcome.print(&format!("{name} seed {} ({mode})", args.seed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladder::PER_LAYER;

    fn smoke_args(trace: bool) -> Args {
        Args {
            workload: None,
            seed: 9,
            seconds: 1.0,
            trace,
            reps: Some(2),
            smoke: true,
            selfcheck: false,
        }
    }

    /// `--smoke`: every metric of the contract is printed once, finite
    /// and with its unit, and every check passes.
    #[test]
    fn smoke_prints_every_metric_once_and_is_correct() {
        let _alone = hold_process_counters();
        for (name, _) in WORKLOADS {
            for trace in [false, true] {
                let args = smoke_args(trace);
                let outcome = if trace {
                    let inputs = Inputs::generate(Spec::named(name).unwrap().smoke(), args.seed);
                    ladder::run(&inputs, args.seconds, args.reps).0
                } else {
                    run_workload(&args, name).unwrap()
                };
                assert!(
                    outcome.correct(),
                    "{name}: {:?} {:?}",
                    outcome.tally,
                    outcome.broken
                );
                let expected: Vec<(&str, &str)> = if trace {
                    PER_LAYER.to_vec()
                } else {
                    END_TO_END.iter().map(|d| (d.name, d.unit)).collect()
                };
                let got: Vec<(&str, &str)> =
                    outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
                assert_eq!(got, expected, "{name}");
                for m in &outcome.metrics {
                    assert!(
                        m.value.is_finite() && m.value >= 0.0,
                        "{name}: {} = {}",
                        m.name,
                        m.value
                    );
                }
                let (correct, parsed) = report::parse_json_line(&outcome.json_line()).unwrap();
                assert!(correct);
                assert_eq!(parsed.len(), expected.len());
            }
        }
    }

    /// `BENCHMARK.json` at the repository root and the tables in this
    /// directory describe the same benchmark.
    #[test]
    fn benchmark_json_agrees_with_the_source() {
        let json = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .and_then(|p| std::fs::read_to_string(p).ok())
            .expect("BENCHMARK.json above this package");
        let flat: String = json.split_whitespace().collect::<Vec<_>>().join(" ");
        for def in END_TO_END {
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{ \"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {} }}",
                def.name, def.unit, def.bound
            );
            assert!(flat.contains(&entry), "missing or different: {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{ \"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(flat.contains(&entry), "missing or different: {entry}");
        }
        for (name, why) in WORKLOADS {
            let entry = format!("{{ \"name\": \"{name}\", \"why\": \"{why}\" }}");
            assert!(flat.contains(&entry), "missing or different: {entry}");
            assert!(why.len() <= 200);
        }
        let names = flat.matches("\"name\": ").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
        assert!(flat.contains("\"paths\": [ \"crates/bench/src/bin/benchmark\" ]"));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let ok = parse("--workload daq_events --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (ok.workload.as_deref(), ok.seed, ok.seconds, ok.trace),
            (Some("daq_events"), 7, 3.0, true)
        );
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--reps 0").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(run_workload(&smoke_args(false), "no_such_workload").is_err());
    }

    #[test]
    fn repeat_honours_floor_and_fixed_counts() {
        let mut calls = Vec::new();
        assert_eq!(
            repeat(0.0, 3, None, |first, last| calls.push((first, last))),
            3
        );
        assert_eq!(calls, vec![(true, false), (false, false), (false, true)]);
        assert_eq!(repeat(1000.0, 2, Some(1), |_, _| ()), 1);
    }
}
