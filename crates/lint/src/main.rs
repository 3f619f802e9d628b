//! The `lsdf-lint` CLI: scans the workspace, prints
//! `file:line: rule: message` diagnostics, and exits nonzero on
//! violations. See the crate docs for the rule set.

// A CLI reports on stdout by design.
#![allow(clippy::print_stdout)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use lsdf_lint::{find_workspace_root, run, Config, Report};

const USAGE: &str = "\
lsdf-lint — facility-invariant static analysis

USAGE:
    lsdf-lint [--root DIR] [--json]

OPTIONS:
    --root DIR    Workspace root (default: nearest [workspace] ancestor)
    --json        Machine-readable output (stable ordering)
    --help        This text

EXIT:
    0 clean, 1 violations found, 2 the lint itself could not run
";

struct Args {
    root: Option<PathBuf>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { root: None, json: false };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root needs a directory")?,
                ));
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn print_json(report: &Report, ok: bool, wall_ms: u128) {
    let mut out = String::from("{\n  \"violations\": [\n");
    for (i, d) in report.violations.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
            json_escape(&d.path),
            d.line,
            d.rule,
            json_escape(&d.message),
            if i + 1 < report.violations.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!("  ],\n  \"ok\": {ok},\n"));
    out.push_str(&format!("  \"wall_ms\": {wall_ms},\n"));
    out.push_str(&format!("  \"files_scanned\": {}\n}}\n", report.files_scanned));
    print!("{out}");
}

fn real_main() -> Result<bool, String> {
    let started = Instant::now();
    let args = parse_args()?;
    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_workspace_root(&cwd).ok_or("no [workspace] Cargo.toml found upward")?
        }
    };
    let cfg =
        Config::for_workspace(&root).map_err(|e| format!("loading registry modules: {e}"))?;
    let report = run(&cfg).map_err(|e| format!("scanning workspace: {e}"))?;
    let ok = report.violations.is_empty();
    let wall_ms = started.elapsed().as_millis();

    if args.json {
        print_json(&report, ok, wall_ms);
        return Ok(ok);
    }
    for d in &report.violations {
        println!("{d}");
    }
    println!(
        "lsdf-lint: {} files scanned in {} ms, {} violations — {}",
        report.files_scanned,
        wall_ms,
        report.violations.len(),
        if ok { "OK" } else { "FAIL" }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lsdf-lint: error: {e}");
            print!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
