//! `benchmark` — the facility's end-to-end and per-layer benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--reps N] [--smoke]
//! benchmark --selfcheck [--seed <u64>] [--seconds <s>] [--reps N] [--smoke]
//! ```
//!
//! `--seconds` is how long the process may run: it fixes the number of
//! repetitions, and a run the host has slowed stops short of that number
//! rather than outlast it ([`Budget`]).
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
use std::time::Instant;

use estimator::Timer;
use inputs::{Inputs, Spec, NOMINAL_SECONDS, WORKLOADS};
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
        seconds: NOMINAL_SECONDS,
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

/// Rounds in a run of `seconds` when a run of [`NOMINAL_SECONDS`] makes
/// `nominal`: in proportion, and two at least, or the minimum has
/// nothing to discard. A function of the arguments alone, never of the
/// time a round took; only [`Budget`] cuts it short.
fn rounds(nominal: usize, seconds: f64) -> usize {
    ((nominal as f64 * seconds / NOMINAL_SECONDS).round() as usize).max(2)
}

/// A round is slower than the slowest so far by at most this factor, as
/// far as [`Budget`] plans.
const ROUND_HEADROOM: f64 = 1.25;

/// The time a run may take: `--seconds` from the start of the process,
/// input generation and checks included. The round count is fixed by the
/// arguments, and on the build host all of them fit with a fifth of the
/// time to spare. On a host that others have slowed (this one has been
/// seen to run the same binary six times slower for minutes on end) they
/// do not, and whoever started the run stops it at its own limit and
/// gets nothing: so the first round always runs, and another starts only
/// when one [`ROUND_HEADROOM`] times as slow as the slowest so far would
/// still end in time.
struct Budget {
    started: Instant,
    seconds: f64,
    round_began: Instant,
    slowest_round_s: f64,
}

impl Budget {
    fn new(started: Instant, seconds: f64) -> Self {
        Budget {
            started,
            seconds,
            round_began: Instant::now(),
            slowest_round_s: 0.0,
        }
    }

    /// Call after each round: is there time for another?
    fn room_for_another(&mut self) -> bool {
        let round_s = self.round_began.elapsed().as_secs_f64();
        self.slowest_round_s = self.slowest_round_s.max(round_s);
        self.round_began = Instant::now();
        self.started.elapsed().as_secs_f64() + ROUND_HEADROOM * self.slowest_round_s <= self.seconds
    }
}

/// The untraced run: `reps` repetitions of the end-to-end script, fewer
/// if `go_on` says so after one of them.
fn run_end_to_end(inputs: &Inputs, reps: usize, mut go_on: impl FnMut() -> bool) -> Outcome {
    let mut timer = Timer::new();
    let mut tally = Tally::default();
    let mut done = Vec::with_capacity(reps);
    for r in 0..reps {
        let full_check = r == 0 || r + 1 == reps;
        done.push(script::run_rep(inputs, full_check, &mut timer, &mut tally));
        if !go_on() {
            break;
        }
    }
    let mut outcome = report::end_to_end(inputs, &done, tally);
    if done.len() < reps {
        outcome.info.push(format!(
            "stopped after {} of {reps} repetitions: the host left no time for more",
            done.len()
        ));
    }
    outcome.info.push(format!(
        "host: {} of {} segments in turbo mode, mean clock {:.3} x nominal, {} CPUs",
        timer.turbo_segments,
        timer.segments,
        timer.probe_nominal_ratio(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));
    outcome
}

fn run_workload(args: &Args, name: &str, started: Instant) -> Result<Outcome, String> {
    let spec = Spec::named(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let spec = if args.smoke { spec.smoke() } else { spec };
    let nominal = if args.trace {
        spec.ladder_passes
    } else {
        spec.reps
    };
    let rounds = args.reps.unwrap_or_else(|| rounds(nominal, args.seconds));
    let inputs = Inputs::generate(spec, args.seed);
    // `--reps N` means exactly N, however long they take.
    let mut budget = Budget::new(started, args.seconds);
    let go_on = || args.reps.is_some() || budget.room_for_another();
    Ok(if args.trace {
        let (mut outcome, spans) = ladder::run(&inputs, rounds, go_on);
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
        run_end_to_end(&inputs, rounds, go_on)
    })
}

/// How far apart two readings of one metric are, as a share of the
/// smaller. Not a number when either reading is not.
fn apart(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b)
}

/// Runs every workload twice with the same arguments, each run in its
/// own process, and fails when the two readings of an end-to-end metric
/// lie further apart than its bound, in either direction, or either is
/// not a finite number.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let mut runs = Vec::new();
        for run in 1..=2 {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--trace", "0"])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if let Some(reps) = args.reps {
                cmd.args(["--reps", &reps.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().map_err(|e| format!("{name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let parsed = stdout.lines().last().and_then(report::parse_json_line);
            let (correct, metrics) = parsed.ok_or(format!("{name}: no result line"))?;
            if !out.status.success() || !correct {
                println!("{name} run {run}: failed or incorrect");
                ok = false;
            }
            runs.push(metrics);
        }
        for def in END_TO_END {
            let find = |run: &Vec<(String, f64)>| run.iter().find(|m| m.0 == def.name).map(|m| m.1);
            let (Some(a), Some(b)) = (find(&runs[0]), find(&runs[1])) else {
                return Err(format!("{name}: {} missing", def.name));
            };
            let apart = apart(a, b);
            // Written so that a distance that is not a number is outside.
            let inside = apart <= def.bound;
            ok &= inside;
            println!(
                "{name:<22} {:<22} {a:>14.6} {b:>14.6} {} ({} is better) {:>6.2}% apart (bound {:.1}%) {}",
                def.name,
                def.unit,
                if def.higher_is_better { "higher" } else { "lower" },
                100.0 * apart,
                100.0 * def.bound,
                if inside { "ok" } else { "OUTSIDE" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
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
    match run_workload(&args, name, started) {
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
                    ladder::run(&inputs, 2, || true).0
                } else {
                    run_workload(&args, name, Instant::now()).unwrap()
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
        assert!(run_workload(&smoke_args(false), "no_such_workload", Instant::now()).is_err());
    }

    #[test]
    fn apart_is_symmetric_and_not_a_number_is_outside() {
        assert_eq!(apart(100.0, 140.0), apart(140.0, 100.0));
        assert!((apart(100.0, 140.0) - 0.4).abs() < 1e-12);
        let bound = 0.1;
        assert!(apart(100.0, 105.0) <= bound);
        for (a, b) in [(f64::NAN, 1.0), (1.0, f64::NAN), (f64::INFINITY, 1.0)] {
            let inside = apart(a, b) <= bound;
            assert!(!inside, "{a} against {b}");
        }
    }

    #[test]
    fn rounds_follow_the_arguments_alone() {
        assert_eq!(rounds(15, NOMINAL_SECONDS), 15);
        assert_eq!(rounds(9, NOMINAL_SECONDS / 2.0), 5);
        assert_eq!(rounds(10, 1.0), 2);
    }

    #[test]
    fn a_run_out_of_time_stops_after_the_round_it_is_in() {
        let inputs = Inputs::generate(Spec::named("htm_bulk").unwrap().smoke(), 9);
        let _alone = hold_process_counters();
        // No time at all: the first repetition still runs, and its
        // checks with it.
        let mut spent = Budget::new(Instant::now(), 0.0);
        let outcome = run_end_to_end(&inputs, 5, || spent.room_for_another());
        assert!(outcome.correct());
        assert!(outcome
            .info
            .iter()
            .any(|l| l.starts_with("stopped after 1 of 5")));
        // Time to spare: every repetition runs.
        let mut ample = Budget::new(Instant::now(), 3_600.0);
        let outcome = run_end_to_end(&inputs, 3, || ample.room_for_another());
        assert!(outcome.info.iter().any(|l| l.starts_with("3 repetitions")));
        assert!(!outcome.info.iter().any(|l| l.starts_with("stopped")));
    }
}
