//! `lsdf-lint` — facility-invariant static analysis for the LSDF
//! workspace.
//!
//! The compiler cannot check the promises the facility makes: seeded
//! runs are bit-identical (all time from the obs registry clock, all
//! randomness from named `lsdf-sim` streams), every metric name agrees
//! between increment sites, test assertions and the bench report, and
//! every lock is built under a rank the global order declares. This
//! crate enforces them mechanically, the way Rucio enforces naming
//! conventions and the Superfacility programme verifies policy
//! conformance — convention-only invariants rot at scale.
//!
//! Rules:
//!
//! * **L1 `determinism`** — no `Instant::now` / `SystemTime::now` /
//!   `thread_rng` / `rand::random` / `from_entropy` outside the obs
//!   clock internals, `lsdf-bench` (whose job is wall-clock
//!   measurement), the linter's own wall-time report, and test code.
//! * **L2 `no_panic`** — no `unwrap` / `expect` / `panic!` /
//!   `unreachable!` in non-test library code of the production crates.
//! * **L3 `metric_names`** — no string-literal metric name at a
//!   `counter(`/`gauge(`/`histogram(`/`*_value(`/`counter_total(` call
//!   site, and no string-literal span/event name at a trace call site
//!   (`child(`/`child_at(`/`root(`/`event(`/`event_at(`); names live
//!   as consts in `lsdf_obs::names`, and every declared const must be
//!   used somewhere.
//! * **L4 `locks`** — no ad-hoc per-shard lock vectors
//!   (`Vec<Mutex<..>>` / `Vec<RwLock<..>>`) anywhere: sharded state
//!   goes through `lsdf_dfs::shard::ShardedMap`, whose stripes are
//!   rank-ordered `OrderedRwLock`s declared in the manifest — the rank,
//!   not a path exemption, is what sanctions them.
//! * **L5 `lock_order`** — ranks and construction sites (see
//!   [`lockorder`]): a raw `Mutex::new(` / `RwLock::new(` /
//!   `Condvar::new(` construction, `parking_lot` or `std::sync`, outside
//!   `crates/sync/` is a violation (the check is of construction sites:
//!   a raw lock built by `#[derive(Default)]` is not seen, which is why
//!   a crate whose library code needs no raw lock — `lsdf-adal` — does
//!   not depend on `parking_lot` at all); an
//!   `OrderedMutex`/`OrderedRwLock` names a rank declared in
//!   `lsdf_sync::ranks`, and every declared rank is unique and has a
//!   construction site. Nesting is not judged here: `lsdf-sync`'s
//!   witness checks it on every path the witness-armed tests execute,
//!   and a nesting on a path no test runs is unchecked, so put a test
//!   on it.
//! * **L6 `payload_copy`** — no deep payload copies (`.to_vec()`,
//!   `.extend_from_slice(`, `.concat()`, `.clone()` on payload-ish
//!   bindings, `Bytes::copy_from_slice`) in
//!   the data-path hot crates (`adal`, `dfs`, `storage`): the write
//!   path shares one immutable `Payload` handle end to end, and a deep
//!   copy silently forfeits the zero-copy + hash-once guarantees.
//!
//! Every finding is a violation and fails the run. Any rule can be
//! waived per line with `// lint: allow(<rule>) -- <justification>`
//! (trailing, or on the line directly above); the justification is
//! mandatory.

pub mod lockorder;
pub mod scan;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use scan::ScannedFile;

/// The lint rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L1: wall-clock / entropy use outside the allowlist.
    Determinism,
    /// L2: panicking calls in production library code.
    NoPanic,
    /// L3: string-literal metric names / unused declared names.
    MetricNames,
    /// L4: ad-hoc shard lock vectors.
    Locks,
    /// L5: raw locks, the lock-rank manifest and construction sites.
    LockOrder,
    /// L6: deep payload copies on the data-path hot crates.
    PayloadCopy,
    /// Malformed `// lint: allow(...)` annotations.
    Annotation,
}

impl Rule {
    /// The rule name as it appears in diagnostics and annotations.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::NoPanic => "no_panic",
            Rule::MetricNames => "metric_names",
            Rule::Locks => "locks",
            Rule::LockOrder => "lock_order",
            Rule::PayloadCopy => "payload_copy",
            Rule::Annotation => "annotation",
        }
    }

    /// Parses an annotation rule name.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "determinism" => Some(Rule::Determinism),
            "no_panic" => Some(Rule::NoPanic),
            "metric_names" => Some(Rule::MetricNames),
            "locks" => Some(Rule::Locks),
            "lock_order" => Some(Rule::LockOrder),
            "payload_copy" => Some(Rule::PayloadCopy),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: `path:line: rule: message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.path, self.line, self.rule, self.message)
    }
}

/// A metric-name const declared in `lsdf_obs::names`.
#[derive(Clone, Debug)]
pub struct NameConst {
    /// Const identifier, e.g. `ADAL_OPS_TOTAL`.
    pub ident: String,
    /// The metric name string it carries.
    pub value: String,
    /// 1-based declaration line in the names module.
    pub line: usize,
}

/// Linter configuration: scopes and allowlists.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace root.
    pub root: PathBuf,
    /// Relative path prefixes subject to L2 (production crate `src/`).
    pub panic_free: Vec<String>,
    /// Relative path prefixes subject to L6 (data-path hot crates).
    pub payload_hot: Vec<String>,
    /// Relative path prefixes exempt from L1 (clock internals, the
    /// wall-clock bench harness, and the linter's own timing report).
    pub determinism_allow: Vec<String>,
    /// Relative path of the metric-name const module.
    pub names_module: String,
    /// Declared metric-name consts (parsed from `names_module`).
    pub names: Vec<NameConst>,
    /// Relative path of the lock-rank manifest module.
    pub ranks_module: String,
    /// Declared lock ranks (parsed from `ranks_module`).
    pub ranks: Vec<lockorder::RankConst>,
}

impl Config {
    /// The workspace policy: production crates per DESIGN.md, the obs
    /// clock and `lsdf-bench` on the determinism allowlist, metric
    /// names from `lsdf_obs::names`, lock ranks from
    /// `lsdf_sync::ranks`.
    pub fn for_workspace(root: &Path) -> io::Result<Config> {
        let names_module = "crates/obs/src/names.rs".to_string();
        let txt = fs::read_to_string(root.join(&names_module))?;
        let ranks_module = "crates/sync/src/ranks.rs".to_string();
        let ranks_txt = fs::read_to_string(root.join(&ranks_module))?;
        Ok(Config {
            root: root.to_path_buf(),
            panic_free: [
                "adal", "dfs", "storage", "chaos", "core", "cloud", "workflow", "metadata",
                "net", "pool", "durability",
            ]
            .iter()
            .map(|c| format!("crates/{c}/src/"))
            .collect(),
            payload_hot: ["adal", "dfs", "storage"]
                .iter()
                .map(|c| format!("crates/{c}/src/"))
                .collect(),
            determinism_allow: vec![
                "crates/obs/src/clock.rs".to_string(),
                "crates/bench/".to_string(),
                "crates/lint/".to_string(),
            ],
            names: parse_name_consts(&txt),
            names_module,
            ranks: lockorder::parse_rank_consts(&ranks_txt),
            ranks_module,
        })
    }
}

/// Parses `pub const IDENT: &str = "value";` declarations.
pub fn parse_name_consts(src: &str) -> Vec<NameConst> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let t = line.trim_start();
        let Some(rest) = t.strip_prefix("pub const ") else {
            continue;
        };
        let Some(colon) = rest.find(':') else { continue };
        let ident = rest[..colon].trim().to_string();
        if !rest[colon..].contains("&str") {
            continue;
        }
        let Some(q1) = rest.find('"') else { continue };
        let Some(q2) = rest[q1 + 1..].find('"') else { continue };
        out.push(NameConst {
            ident,
            value: rest[q1 + 1..q1 + 1 + q2].to_string(),
            line: i + 1,
        });
    }
    out
}

/// The result of a full lint run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every finding, sorted by path, line and rule; any one fails the
    /// run.
    pub violations: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

const DETERMINISM_PATTERNS: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "rand::random",
    "from_entropy",
];

const PANIC_PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!", "unreachable!"];

/// Calls that copy bytes whatever the receiver: each occurrence on a
/// hot-crate line is an L6 finding, with the remedy to print.
const COPY_PATTERNS: &[(&str, &str)] = &[
    (".to_vec()", "share the Payload handle or slice a zero-copy view of it"),
    (".extend_from_slice(", "hand out a view of the buffer instead of building a new one"),
    (".concat()", "hand out a view of the buffer instead of building a new one"),
    ("Bytes::copy_from_slice", "wrap the existing buffer in a Payload instead"),
];

/// Identifiers that name payload bytes on the data path: a `.clone()`
/// on one of these is (almost always) a deep copy of object data, not
/// a cheap handle clone — and where it *is* the cheap `Payload` handle,
/// the binding is typed `Payload` and the clone is waived at the site.
const PAYLOAD_IDENTS: &[&str] = &["data", "payload", "bytes", "block", "chunk", "buf"];

/// The identifier directly preceding byte offset `at` in `code`, if any.
fn ident_before(code: &str, at: usize) -> Option<&str> {
    let b = code.as_bytes();
    let mut start = at;
    while start > 0 && (b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_') {
        start -= 1;
    }
    (start < at).then(|| &code[start..at])
}

const METRIC_CALLS: &[&str] = &[
    ".counter(",
    ".gauge(",
    ".histogram(",
    ".counter_value(",
    ".gauge_value(",
    ".counter_total(",
    // Telemetry-store queries: the first argument is a metric name and
    // must come from `lsdf_obs::names` like any registry call site.
    ".counter_series(",
    ".counter_series_filtered(",
    ".counter_sum(",
    ".counter_window_sum(",
    ".counter_window_total(",
    ".gauge_series(",
    ".hist_series(",
    ".hist_window_p99(",
    ".hist_window_quantile(",
];

/// Span/trace call sites whose name argument must also be a
/// `lsdf_obs::names` const: `TraceCtx::child`/`child_at`,
/// `Tracer::root`, and `TraceCtx::event`/`event_at`.
const SPAN_CALLS: &[&str] = &[
    ".child(",
    ".child_at(",
    ".root(",
    ".event(",
    ".event_at(",
];

/// Lints one file's content. `rel` is the workspace-relative path used
/// for scoping decisions; the content does not need to exist on disk
/// (the fixture tests feed synthetic files through here).
/// The workspace-wide unused-name and unused-rank checks are left out:
/// they only make sense over the whole tree.
pub fn lint_file(rel: &str, content: &str, cfg: &Config) -> Report {
    let scanned = scan::scan_file(content);
    let mut report = process_file(rel, &scanned, cfg, &BTreeSet::new()).report;
    sort_report(&mut report);
    report
}

fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.ends_with("/build.rs")
}

/// Per-line allow state derived from annotations.
struct Allows {
    /// allowed[line][..] — rules waived on that 0-based line.
    allowed: Vec<Vec<Rule>>,
    /// Malformed annotations.
    bad: Vec<Diagnostic>,
}

/// Parses `lint: allow(<rule>) -- <justification>` out of comment text.
/// A trailing annotation waives its own line; a comment-only line
/// waives the next line.
fn collect_allows(rel: &str, file: &ScannedFile) -> Allows {
    let n = file.lines.len();
    let mut allowed: Vec<Vec<Rule>> = vec![Vec::new(); n];
    let mut bad = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        // The annotation must be the whole comment (`// lint: allow(..)`),
        // so prose or doc text that merely quotes the grammar is inert.
        let comment = line.comment.trim_start();
        let Some(after) = comment.strip_prefix("lint: allow(") else {
            continue;
        };
        let Some(close) = after.find(')') else {
            bad.push(Diagnostic {
                path: rel.to_string(),
                line: i + 1,
                rule: Rule::Annotation,
                message: "unterminated lint: allow(...) annotation".to_string(),
            });
            continue;
        };
        let rule_name = after[..close].trim();
        let Some(rule) = Rule::parse(rule_name) else {
            bad.push(Diagnostic {
                path: rel.to_string(),
                line: i + 1,
                rule: Rule::Annotation,
                message: format!("unknown lint rule in allow annotation: {rule_name:?}"),
            });
            continue;
        };
        let tail = after[close + 1..].trim_start();
        if !tail.starts_with("--") || tail.trim_start_matches('-').trim().is_empty() {
            bad.push(Diagnostic {
                path: rel.to_string(),
                line: i + 1,
                rule: Rule::Annotation,
                message: format!(
                    "allow({}) needs a justification: `// lint: allow({}) -- why`",
                    rule, rule
                ),
            });
            continue;
        }
        let standalone = line.code.trim().is_empty();
        let target = if standalone { i + 1 } else { i };
        if target < n {
            allowed[target].push(rule);
        }
    }
    Allows { allowed, bad }
}

fn lint_scanned(rel: &str, file: &ScannedFile, cfg: &Config, allows: &Allows) -> Report {
    let mut report = Report {
        files_scanned: 1,
        ..Report::default()
    };
    report.violations.extend(allows.bad.iter().cloned());

    let test_path = is_test_path(rel);
    let panic_scope = cfg.panic_free.iter().any(|p| rel.starts_with(p.as_str()));
    let payload_scope = cfg.payload_hot.iter().any(|p| rel.starts_with(p.as_str()));
    let determinism_exempt = cfg
        .determinism_allow
        .iter()
        .any(|p| rel.starts_with(p.as_str()));
    let is_names_module = rel == cfg.names_module;

    for (i, line) in file.lines.iter().enumerate() {
        if test_path || line.is_test {
            continue;
        }
        let code = line.code.as_str();
        let waived = |r: Rule| allows.allowed[i].contains(&r);

        // L1 determinism.
        if !determinism_exempt && !waived(Rule::Determinism) {
            for pat in DETERMINISM_PATTERNS {
                if code.contains(pat) {
                    report.violations.push(Diagnostic {
                        path: rel.to_string(),
                        line: i + 1,
                        rule: Rule::Determinism,
                        message: format!(
                            "{pat} leaks wall-clock/entropy into a deterministic component; \
                             use the obs registry clock or a named lsdf-sim stream"
                        ),
                    });
                }
            }
        }

        // L2 panic-freedom.
        if panic_scope && !waived(Rule::NoPanic) {
            for pat in PANIC_PATTERNS {
                let mut at = 0usize;
                while let Some(p) = code[at..].find(pat) {
                    report.violations.push(Diagnostic {
                        path: rel.to_string(),
                        line: i + 1,
                        rule: Rule::NoPanic,
                        message: format!(
                            "{} in production library code; return the crate's typed error instead",
                            pat.trim_start_matches('.')
                        ),
                    });
                    at += p + pat.len();
                }
            }
        }

        // L6 payload copies.
        if payload_scope && !waived(Rule::PayloadCopy) {
            let mut hit = |msg: String| {
                report.violations.push(Diagnostic {
                    path: rel.to_string(),
                    line: i + 1,
                    rule: Rule::PayloadCopy,
                    message: msg,
                });
            };
            for (pat, remedy) in COPY_PATTERNS {
                let mut at = 0usize;
                while let Some(p) = code[at..].find(pat) {
                    hit(format!("deep payload copy ({pat}) on the data path; {remedy}"));
                    at += p + pat.len();
                }
            }
            let mut at = 0usize;
            while let Some(p) = code[at..].find(".clone()") {
                let abs = at + p;
                if let Some(ident) = ident_before(code, abs) {
                    let ident = ident.to_ascii_lowercase();
                    if PAYLOAD_IDENTS.iter().any(|k| ident.contains(k)) {
                        hit(format!(
                            "payload-ish binding `{ident}` cloned on the data path; if this \
                             is a cheap Payload handle clone, waive the site, otherwise \
                             share the handle"
                        ));
                    }
                }
                at = abs + ".clone()".len();
            }
        }

        // L3 metric names: literal at a metric or span call site.
        if !is_names_module && !waived(Rule::MetricNames) {
            let call_sets: [(&[&str], &str); 2] =
                [(METRIC_CALLS, "metric"), (SPAN_CALLS, "span")];
            for (calls, kind) in call_sets {
                for call in calls {
                    let mut at = 0usize;
                    while let Some(p) = code[at..].find(call) {
                        let after = code[at + p + call.len()..].trim_start();
                        let literal = if after.is_empty() {
                            // The argument starts on a later line. Walk
                            // to the first continuation line that has
                            // any code — comments can push it
                            // arbitrarily far down — and honor that
                            // line's own waiver and test status.
                            file.lines
                                .iter()
                                .enumerate()
                                .skip(i + 1)
                                .find(|(_, l)| !l.code.trim().is_empty())
                                .is_some_and(|(j, l)| {
                                    l.code.trim_start().starts_with('"')
                                        && !l.is_test
                                        && !allows.allowed[j].contains(&Rule::MetricNames)
                                })
                        } else {
                            after.starts_with('"')
                        };
                        if literal {
                            report.violations.push(Diagnostic {
                                path: rel.to_string(),
                                line: i + 1,
                                rule: Rule::MetricNames,
                                message: format!(
                                    "string-literal {kind} name at {call}\"...\"); declare \
                                     it in lsdf_obs::names and use the const"
                                ),
                            });
                        }
                        at += p + call.len();
                    }
                }
            }
        }

        // L4 lock discipline.
        if !waived(Rule::Locks) {
            // Per-shard lock vectors are banned everywhere: the one
            // sanctioned striping lives in lsdf_dfs::shard::ShardedMap,
            // whose stripes are rank-ordered OrderedRwLocks (which this
            // pattern does not match) — the declared rank, not a path
            // exemption, is what legitimizes them.
            let norm = code.replace("parking_lot::", "").replace("std::sync::", "");
            if norm.contains("Vec<Mutex<") || norm.contains("Vec<RwLock<") {
                report.violations.push(Diagnostic {
                    path: rel.to_string(),
                    line: i + 1,
                    rule: Rule::Locks,
                    message: "ad-hoc per-shard lock vector; use lsdf_dfs::shard::ShardedMap \
                              so lock discipline stays in one audited module"
                        .to_string(),
                });
            }
        }
    }
    report
}

/// Everything one file contributes to a run.
struct FileOutcome {
    report: Report,
    /// Declared metric-name idents this file references (tokenized, so
    /// `FOO_TOTAL_EXT` does not count as a use of `FOO_TOTAL`).
    names_used: BTreeSet<String>,
    /// Declared lock ranks this file's construction sites name.
    ranks_used: BTreeSet<String>,
}

/// Scans and lints one file.
fn process_file(
    rel: &str,
    scanned: &ScannedFile,
    cfg: &Config,
    name_idents: &BTreeSet<&str>,
) -> FileOutcome {
    let allows = collect_allows(rel, scanned);
    let mut report = lint_scanned(rel, scanned, cfg, &allows);

    let mut ranks_used = BTreeSet::new();
    if !is_test_path(rel) {
        let l5 = lockorder::check_file(rel, scanned, &cfg.ranks, |i| {
            allows.allowed[i].contains(&Rule::LockOrder)
        });
        report.violations.extend(l5.violations);
        ranks_used = l5.ranks_used;
    }

    // One tokenizing pass for the unused-name check, replacing the old
    // O(files x names) substring scan.
    let mut names_used = BTreeSet::new();
    if rel != cfg.names_module && !name_idents.is_empty() {
        for line in &scanned.lines {
            let b = line.code.as_bytes();
            let mut i = 0usize;
            while i < b.len() {
                if !(b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                if !b[start].is_ascii_digit() {
                    let tok = &line.code[start..i];
                    if name_idents.contains(tok) {
                        names_used.insert(tok.to_string());
                    }
                }
            }
        }
    }

    FileOutcome { report, names_used, ranks_used }
}

fn sort_report(report: &mut Report) {
    report.violations.sort_by(|a, b| {
        (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule))
    });
}

/// Recursively collects workspace `.rs` files, skipping build output,
/// VCS metadata, vendored third-party sources (offline dependency stubs
/// — not facility code), and the linter's own (intentionally violating)
/// fixture corpus.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target"
                    || name == ".git"
                    || name == "fixtures"
                    || name == "third_party"
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the full workspace lint: every file, the lock-rank manifest,
/// and the unused-name / unused-rank checks.
///
/// Files are processed on a small thread pool (contiguous chunks into
/// pre-allocated slots — no shared mutable state, so the linter does
/// not need locks of its own) and merged in path order, keeping the
/// output byte-identical to a sequential run.
pub fn run(cfg: &Config) -> io::Result<Report> {
    let files = collect_rs_files(&cfg.root)?;
    let rels: Vec<String> = files
        .iter()
        .map(|path| {
            path.strip_prefix(&cfg.root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    let name_idents: BTreeSet<&str> =
        cfg.names.iter().map(|nc| nc.ident.as_str()).collect();

    let mut slots: Vec<Option<io::Result<FileOutcome>>> = Vec::new();
    slots.resize_with(files.len(), || None);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8);
    let chunk = files.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        for ((fchunk, rchunk), schunk) in files
            .chunks(chunk)
            .zip(rels.chunks(chunk))
            .zip(slots.chunks_mut(chunk))
        {
            let name_idents = &name_idents;
            s.spawn(move || {
                for ((path, rel), slot) in fchunk.iter().zip(rchunk).zip(schunk.iter_mut()) {
                    *slot = Some(fs::read_to_string(path).map(|content| {
                        let scanned = scan::scan_file(&content);
                        process_file(rel, &scanned, cfg, name_idents)
                    }));
                }
            });
        }
    });

    let mut report = Report::default();
    let mut names_seen: BTreeSet<String> = BTreeSet::new();
    let mut ranks_seen: BTreeSet<String> = BTreeSet::new();
    for slot in slots {
        let outcome = slot.expect("every slot is filled by its chunk's worker")?;
        report.violations.extend(outcome.report.violations);
        report.files_scanned += 1;
        names_seen.extend(outcome.names_used);
        ranks_seen.extend(outcome.ranks_used);
    }

    report
        .violations
        .extend(lockorder::check_manifest(&cfg.ranks, &cfg.ranks_module, &ranks_seen));

    // Unused / duplicate declared names.
    let mut values = BTreeSet::new();
    for nc in &cfg.names {
        if !names_seen.contains(&nc.ident) {
            report.violations.push(Diagnostic {
                path: cfg.names_module.clone(),
                line: nc.line,
                rule: Rule::MetricNames,
                message: format!(
                    "declared metric name {} ({:?}) is never used — dead name or drifted \
                     call site",
                    nc.ident, nc.value
                ),
            });
        }
        if !values.insert(nc.value.clone()) {
            report.violations.push(Diagnostic {
                path: cfg.names_module.clone(),
                line: nc.line,
                rule: Rule::MetricNames,
                message: format!("metric name {:?} is declared twice", nc.value),
            });
        }
    }
    sort_report(&mut report);
    Ok(report)
}

/// Finds the workspace root: the nearest ancestor (including `start`)
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(txt) = fs::read_to_string(&manifest) {
            if txt.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> Config {
        Config {
            root: PathBuf::from("."),
            panic_free: vec!["crates/adal/src/".into()],
            payload_hot: vec!["crates/adal/src/".into(), "crates/dfs/src/".into()],
            determinism_allow: vec!["crates/obs/src/clock.rs".into(), "crates/bench/".into()],
            names_module: "crates/obs/src/names.rs".into(),
            names: vec![NameConst {
                ident: "ADAL_OPS_TOTAL".into(),
                value: "adal_ops_total".into(),
                line: 1,
            }],
            ranks_module: "crates/sync/src/ranks.rs".into(),
            ranks: lockorder::parse_rank_consts(
                "pub const OUTER: LockRank = rank(10, \"outer\");\n\
                 pub const INNER: LockRank = rank(20, \"inner\");\n",
            ),
        }
    }

    #[test]
    fn annotation_waives_a_rule() {
        let cfg = test_cfg();
        let src = "fn f() { x.unwrap(); } // lint: allow(no_panic) -- invariant: set above\n";
        let r = lint_file("crates/adal/src/x.rs", src, &cfg);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
        // Without the justification the annotation itself is an error,
        // and the site it failed to waive is still reported.
        let bad = "fn f() { x.unwrap(); } // lint: allow(no_panic)\n";
        let r = lint_file("crates/adal/src/x.rs", bad, &cfg);
        let rules: Vec<Rule> = r.violations.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![Rule::NoPanic, Rule::Annotation]);
    }

    #[test]
    fn standalone_annotation_waives_next_line() {
        let cfg = test_cfg();
        let src = "// lint: allow(no_panic) -- checked by caller\nfn f() { x.unwrap(); }\n";
        let r = lint_file("crates/adal/src/x.rs", src, &cfg);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
    }

    #[test]
    fn pattern_in_string_or_comment_does_not_fire() {
        let cfg = test_cfg();
        let src = "let s = \"Instant::now()\"; // Instant::now()\n";
        let r = lint_file("crates/dfs/src/x.rs", src, &cfg);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn multiline_metric_call_is_caught() {
        let cfg = test_cfg();
        let src = "reg.histogram(\n    \"facility_ingest_bytes\",\n    &[],\n);\n";
        let r = lint_file("crates/core/src/x.rs", src, &cfg);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, Rule::MetricNames);
    }

    #[test]
    fn deep_multiline_metric_call_is_caught() {
        // The literal sits past any fixed lookahead window, behind
        // comment-only lines.
        let cfg = test_cfg();
        let src = "reg.histogram(\n\
                   // one\n\
                   // two\n\
                   // three\n\
                   \"facility_ingest_bytes\",\n\
                   &[],\n);\n";
        let r = lint_file("crates/core/src/x.rs", src, &cfg);
        assert_eq!(r.violations.len(), 1, "{:#?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::MetricNames);
    }

    #[test]
    fn waived_continuation_line_is_honored() {
        let cfg = test_cfg();
        let src = "reg.counter(\n\
                   \"adal_ops_total\", // lint: allow(metric_names) -- compat shim\n\
                   );\n";
        let r = lint_file("crates/core/src/x.rs", src, &cfg);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
    }

    #[test]
    fn test_only_continuation_line_is_honored() {
        // The scanner works on text, so a continuation line inside a
        // #[cfg(test)] span must not be charged to a non-test call line.
        let cfg = test_cfg();
        let src = "reg.counter(\n\
                   #[cfg(test)]\n\
                   mod t {\n\
                   \"test_only_name\",\n\
                   }\n";
        let r = lint_file("crates/core/src/x.rs", src, &cfg);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
    }

    #[test]
    fn span_name_literals_are_caught_and_consts_pass() {
        let cfg = test_cfg();
        let bad = "let span = ctx.child(\"adal_put\");\n\
                   let root = tracer.root(\n    \"pool_task\",\n    key,\n);\n\
                   ctx.event(\"chaos_fault\", &[]);\n";
        let r = lint_file("crates/adal/src/x.rs", bad, &cfg);
        let spans: Vec<_> = r
            .violations
            .iter()
            .filter(|d| d.rule == Rule::MetricNames)
            .collect();
        assert_eq!(spans.len(), 3, "{:#?}", r.violations);
        assert!(spans[0].message.contains("span name"));
        let good = "let span = ctx.child(names::ADAL_PUT_SPAN);\n\
                    let root = tracer.root(names::POOL_TASK_SPAN, key);\n\
                    ctx.event(names::CHAOS_FAULT_EVENT, &[]);\n";
        let r = lint_file("crates/adal/src/x.rs", good, &cfg);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
    }

    #[test]
    fn shard_lock_vector_flagged_everywhere() {
        let cfg = test_cfg();
        let src = "pub struct S { shards: Vec<RwLock<u8>> }\n\
                   pub struct T { shards: Vec<parking_lot::Mutex<u8>> }\n";
        let r = lint_file("crates/adal/src/x.rs", src, &cfg);
        let locks: Vec<_> = r.violations.iter().filter(|d| d.rule == Rule::Locks).collect();
        assert_eq!(locks.len(), 2, "{:#?}", r.violations);
        assert!(locks[0].message.contains("ShardedMap"));
        // No path is exempt any more — the sanctioned ShardedMap
        // stripes are Vec<OrderedRwLock<..>>, which the pattern does
        // not match; the declared rank is what legitimizes them.
        let r = lint_file("crates/dfs/src/shard.rs", src, &cfg);
        let locks: Vec<_> = r.violations.iter().filter(|d| d.rule == Rule::Locks).collect();
        assert_eq!(locks.len(), 2, "{:#?}", r.violations);
        // And the real stripe shape is clean anywhere.
        let striped = "pub struct M { shards: Vec<OrderedRwLock<u8>> }\n";
        let r = lint_file("crates/dfs/src/shard.rs", striped, &cfg);
        assert!(
            r.violations.iter().all(|d| d.rule != Rule::Locks),
            "{:#?}",
            r.violations
        );
    }

    #[test]
    fn lock_order_runs_through_lint_file() {
        let cfg = test_cfg();
        let src = "struct S { a: OrderedMutex<u8>, b: OrderedMutex<u8> }\n\
                   impl S { fn new() -> Self { Self {\n\
                       a: OrderedMutex::new(ranks::INNER, 0),\n\
                       b: OrderedMutex::new(ranks::GHOST, 0),\n\
                   } } }\n\
                   fn f(s: &S) { let g = s.a.lock(); let h = s.b.lock(); }\n";
        let r = lint_file("crates/adal/src/x.rs", src, &cfg);
        let order: Vec<_> = r
            .violations
            .iter()
            .filter(|d| d.rule == Rule::LockOrder)
            .collect();
        // The undeclared rank is L5's; the nesting in `f` is the
        // runtime witness's, and the lint says nothing about it.
        assert_eq!(order.len(), 1, "{:#?}", r.violations);
        assert_eq!(order[0].line, 4);
        assert!(order[0].message.contains("`GHOST` is not declared"));
    }

    #[test]
    fn raw_lock_debt_is_separate_from_violations() {
        // There is no debt: a raw lock is a violation like any other.
        let cfg = test_cfg();
        let src = "fn f() { let m = parking_lot::Mutex::new(0); }\n";
        let r = lint_file("crates/adal/src/x.rs", src, &cfg);
        assert_eq!(r.violations.len(), 1, "{:#?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::LockOrder);
        // A justified waiver silences it; an unjustified one is itself
        // a violation and waives nothing.
        let waived = "// lint: allow(lock_order) -- never nests: dropped before any call\n\
                      fn f() { let m = parking_lot::Mutex::new(0); }\n";
        let r = lint_file("crates/adal/src/x.rs", waived, &cfg);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
        let bare = "fn f() { let m = parking_lot::Mutex::new(0); } // lint: allow(lock_order)\n";
        let r = lint_file("crates/adal/src/x.rs", bare, &cfg);
        let rules: Vec<Rule> = r.violations.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![Rule::LockOrder, Rule::Annotation]);
        // Inside the sync crate the construction is the implementation.
        let r = lint_file("crates/sync/src/lib.rs", src, &cfg);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
    }

    #[test]
    fn payload_copies_are_ratcheted_debt_in_hot_crates() {
        // No ratchet either: each deep copy in a hot crate is a violation.
        let cfg = test_cfg();
        let src = "fn f(data: &Payload) {
                       let a = data.to_vec();
                       let b = data.clone();
                       let c = Bytes::copy_from_slice(&a);
                       let d = config.clone();
                       out.extend_from_slice(&data);
                       let e = [a, c].concat();
                   }
";
        let r = lint_file("crates/dfs/src/x.rs", src, &cfg);
        assert_eq!(r.violations.len(), 5, "{:#?}", r.violations);
        assert!(r.violations.iter().all(|d| d.rule == Rule::PayloadCopy));
        // Outside the hot crates the rule is silent.
        let r = lint_file("crates/core/src/x.rs", src, &cfg);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
        // A waived site (cheap handle clone) is silent.
        let waived = "fn f(data: &Payload) {
                          let b = data.clone(); // lint: allow(payload_copy) -- refcount bump
                      }
";
        let r = lint_file("crates/dfs/src/x.rs", waived, &cfg);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
        // Test code is exempt like every other rule.
        let test_src = "#[cfg(test)]
mod tests {
    fn f(data: &[u8]) { let v = data.to_vec(); }
}
";
        let r = lint_file("crates/dfs/src/x.rs", test_src, &cfg);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
    }

    #[test]
    fn parse_name_consts_reads_declarations() {
        let src = "/// doc\npub const A_B: &str = \"a_b\";\npub const C: usize = 3;\n";
        let names = parse_name_consts(src);
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].ident, "A_B");
        assert_eq!(names[0].value, "a_b");
        assert_eq!(names[0].line, 2);
    }
}
