//! L5 `lock_order` — the static layer of the facility's two-layer
//! lock-order analysis.
//!
//! The runtime layer (`lsdf-sync`'s witness, armed by the `lock-order`
//! cargo feature in tests and soaks) observes real executions; this
//! module reconstructs the acquisition graph from source so CI fails
//! before a deadlock-prone nesting ever runs. It is deliberately a
//! heuristic scanner, not a borrow checker:
//!
//! * the **rank manifest** (`crates/sync/src/ranks.rs`) is parsed for
//!   `pub const IDENT: LockRank = rank(ID, "name");` declarations — the
//!   same registry discipline `lsdf_obs::names` uses for metric names;
//! * every `OrderedMutex::new(` / `OrderedRwLock::new(` site must name
//!   a manifest const directly (an unranked or undeclared construction
//!   is a violation), and the binding it initializes (a `let`, a struct
//!   field init, or a field/accessor declaration) becomes a per-file
//!   **lockmap** entry `ident → rank`;
//! * guard lifetimes are tracked per line with brace/statement scoping:
//!   `let`-bound guards die at the end of their block (or at an
//!   explicit `drop(name)`), temporary guards die at the statement's
//!   `;` or at the close of the first complete block expression that
//!   follows them — which matches 2021-edition `if let` / `match`
//!   scrutinee temporaries, the pattern the witness actually sees;
//! * a **nested-acquisition edge** `A → B` is recorded whenever a
//!   ranked lock `B` is acquired while a guard of rank `A` is held, and
//!   heuristic **call edges** extend the graph across functions: each
//!   workspace `fn` gets a transitive summary of the ranks it acquires,
//!   and a call made under a held guard imports the callee's summary
//!   (ubiquitous method names — `len`, `get`, `insert`, `set`,
//!   `record`, ... — are excluded so a `.len()` on a guard does not
//!   alias every workspace `fn len`);
//! * violations: any edge whose source rank is not strictly below its
//!   target (waivable per line with
//!   `// lint: allow(lock_order) -- why`), any **cycle** in the
//!   combined graph *including waived edges* (waiving an edge keeps it
//!   out of the edge report but never out of cycle detection — two
//!   individually-waived inversions still deadlock), and any raw
//!   `Mutex::new(` / `RwLock::new(` / `Condvar::new(` outside
//!   `crates/sync/`, whichever crate the type comes from (a job-local
//!   lock that cannot nest with a facility lock, or a `Condvar`, which
//!   has no ordered wrapper, says so in a per-line waiver).
//!
//! Because every `Ordered*` field in the workspace is private,
//! acquisitions happen in the declaring module, so per-file lockmaps
//! see every direct acquisition; what the heuristics may miss (edges
//! through blacklisted method names, multi-line receivers) the runtime
//! witness catches in the soaks. The two layers are cross-checked: the
//! soaks assert `lsdf_sync::witness_enabled()`.

use std::collections::{BTreeMap, BTreeSet};

use crate::scan::ScannedFile;
use crate::{Diagnostic, Rule};

/// One `pub const IDENT: LockRank = rank(ID, "name");` manifest entry.
#[derive(Clone, Debug)]
pub struct RankConst {
    /// Const identifier, e.g. `DFS_FILES`.
    pub ident: String,
    /// Rank id; higher = inner lock.
    pub id: u16,
    /// Stable witness-report name, e.g. `dfs_files`.
    pub name: String,
    /// 1-based declaration line in the manifest module.
    pub line: usize,
}

/// Parses the rank manifest source.
pub fn parse_rank_consts(src: &str) -> Vec<RankConst> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let t = line.trim_start();
        let Some(rest) = t.strip_prefix("pub const ") else {
            continue;
        };
        let Some(colon) = rest.find(':') else { continue };
        let ident = rest[..colon].trim().to_string();
        if !rest[colon..].contains("LockRank") {
            continue;
        }
        let Some(open) = rest.find("rank(") else { continue };
        let args = &rest[open + "rank(".len()..];
        let Some(comma) = args.find(',') else { continue };
        let Ok(id) = args[..comma].trim().parse::<u16>() else {
            continue;
        };
        let Some(q1) = args.find('"') else { continue };
        let Some(q2) = args[q1 + 1..].find('"') else { continue };
        out.push(RankConst {
            ident,
            id,
            name: args[q1 + 1..q1 + 1 + q2].to_string(),
            line: i + 1,
        });
    }
    out
}

/// One acquisition-graph edge: a rank acquired while another was held.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Rank held at the acquisition site.
    pub from: u16,
    /// Rank being acquired.
    pub to: u16,
    /// File the acquisition happens in.
    pub path: String,
    /// 1-based acquisition line.
    pub line: usize,
    /// True when the site carries a `lint: allow(lock_order)` waiver.
    /// Waived edges are excluded from the edge report but still feed
    /// cycle detection.
    pub waived: bool,
    /// `Some(callee)` for heuristic call edges.
    pub via: Option<String>,
}

/// A call made while ranked guards were held (expanded into edges once
/// cross-file function summaries exist).
#[derive(Clone, Debug)]
struct CallSite {
    callee: String,
    held: Vec<u16>,
    line: usize,
    waived: bool,
}

/// Everything L5 learns from one file.
#[derive(Clone, Debug, Default)]
pub struct FileAnalysis {
    /// Workspace-relative path.
    pub rel: String,
    /// Per-file violations: raw, unranked or undeclared constructions
    /// and ambiguous lock idents.
    pub violations: Vec<Diagnostic>,
    /// Nested-acquisition edges observed directly.
    pub edges: Vec<Edge>,
    /// Calls made under held guards, pending summary expansion.
    calls: Vec<CallSite>,
    /// How many times each function name is declared in this file
    /// (non-test code). Names declared more than once across the
    /// workspace are ambiguous and excluded from call-edge expansion.
    fn_decls: BTreeMap<String, usize>,
    /// Ranks acquired directly, per function name.
    fn_acquires: BTreeMap<String, BTreeSet<u16>>,
    /// Unqualified callee names, per function name.
    fn_callees: BTreeMap<String, BTreeSet<String>>,
    /// Manifest idents referenced by construction sites (for the
    /// unused-rank check).
    pub ranks_referenced: BTreeSet<String>,
}

const ACQUIRE_PATTERNS: &[(&str, &str)] = &[
    (".lock()", "lock"),
    (".read()", "read"),
    (".write()", "write"),
];

const RAW_LOCK_PATTERNS: &[&str] = &["Mutex::new(", "RwLock::new(", "Condvar::new("];

/// Method names excluded from heuristic call edges: so ubiquitous on
/// std containers and guards that aliasing them to same-named workspace
/// functions (e.g. `ShardedMap::get`, `MemDisk::set`,
/// `CircuitBreaker::record`) would flood the graph with false edges.
/// Real nestings through these names are still caught by the runtime
/// witness.
const CALL_EDGE_IGNORE: &[&str] = &[
    "all", "and_then", "any", "as_bytes", "as_mut", "as_ref", "as_str", "clear", "clone",
    "cloned", "cmp", "collect", "contains", "contains_key", "copied", "count", "default",
    "drain", "drop", "entry", "enumerate", "expect", "extend", "filter", "filter_map", "find",
    "flat_map", "flatten", "fold", "front", "get", "get_mut", "hash", "inc", "insert", "into_iter",
    "is_empty", "iter", "iter_mut", "join", "keys", "last", "len", "lock", "map", "max",
    "max_by_key", "min", "min_by_key", "new", "next", "observe", "ok_or", "ok_or_else",
    "parse", "pop", "pop_front", "position", "push", "push_back", "read", "record", "remove",
    "replace", "retain", "rev", "rposition", "set", "skip", "sort", "sort_by", "sort_by_key",
    "sort_unstable", "split", "starts_with", "sum", "swap", "take", "to_owned", "to_string",
    "to_vec", "trim", "truncate", "try_lock", "try_read", "try_write", "unwrap", "unwrap_or",
    "unwrap_or_default", "unwrap_or_else", "values", "values_mut", "write", "zip",
];

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else",
    "enum", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut",
    "pub", "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while",
];

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifier ending exactly at byte `end` (exclusive); returns its
/// start offset and text.
fn ident_ending_at(code: &str, end: usize) -> Option<(usize, &str)> {
    let b = code.as_bytes();
    let mut s = end;
    while s > 0 && is_ident_byte(b[s - 1]) {
        s -= 1;
    }
    if s == end || b[s].is_ascii_digit() {
        return None;
    }
    Some((s, &code[s..end]))
}

fn skip_ws_back(code: &str, mut end: usize) -> usize {
    let b = code.as_bytes();
    while end > 0 && (b[end - 1] == b' ' || b[end - 1] == b'\t') {
        end -= 1;
    }
    end
}

fn skip_ws_fwd(code: &str, mut at: usize) -> usize {
    let b = code.as_bytes();
    while at < b.len() && (b[at] == b' ' || b[at] == b'\t') {
        at += 1;
    }
    at
}

/// Reads a path expression (`a::b::C`) forward from `at`; returns the
/// final segment.
fn last_path_segment(code: &str, at: usize) -> Option<String> {
    let b = code.as_bytes();
    let mut i = skip_ws_fwd(code, at);
    let start = i;
    while i < b.len() && (is_ident_byte(b[i]) || b[i] == b':') {
        i += 1;
    }
    if i == start {
        return None;
    }
    let path = &code[start..i];
    let seg = path.rsplit("::").next().unwrap_or(path);
    if seg.is_empty() || seg.as_bytes()[0].is_ascii_digit() {
        return None;
    }
    Some(seg.to_string())
}

/// The binding an `Ordered*::new(` construction initializes: walks
/// backward over wrapper calls (`Arc::new(`) to a `name:` field init or
/// a `let name =`.
fn construction_binding(code: &str, pos: usize) -> Option<String> {
    let b = code.as_bytes();
    let mut end = skip_ws_back(code, pos);
    loop {
        if end == 0 {
            return None;
        }
        match b[end - 1] {
            b'(' => {
                // A wrapper call like `Arc::new(` — strip its path.
                end -= 1;
                let (s, _) = ident_ending_at(code, skip_ws_back(code, end))?;
                end = s;
                while end >= 2 && &code[end - 2..end] == "::" {
                    let (s, _) = ident_ending_at(code, end - 2)?;
                    end = s;
                }
                end = skip_ws_back(code, end);
            }
            b':' => {
                if end >= 2 && b[end - 2] == b':' {
                    return None; // a path `::`, not a field init
                }
                let (_, id) = ident_ending_at(code, skip_ws_back(code, end - 1))?;
                return Some(id.to_string());
            }
            b'=' => {
                if end >= 2 && !matches!(b[end - 2], b' ' | b'\t') && !is_ident_byte(b[end - 2])
                {
                    return None; // `==`, `+=`, `=>` partner, ...
                }
                let e2 = skip_ws_back(code, end - 1);
                let (_, id) = ident_ending_at(code, e2)?;
                return Some(id.to_string());
            }
            _ => return None,
        }
    }
}

/// The declaration a bare `Ordered*<` type mention belongs to: walks
/// backward over wrapper generics (`Vec<`, `Arc<`) and references to a
/// `name:` field/param or an `-> &Ordered*<` accessor's `fn` name.
fn decl_binding(code: &str, pos: usize) -> Option<String> {
    let b = code.as_bytes();
    let mut end = skip_ws_back(code, pos);
    loop {
        if end == 0 {
            return None;
        }
        match b[end - 1] {
            b'<' => {
                end -= 1;
                let (s, _) = ident_ending_at(code, skip_ws_back(code, end))?;
                end = s;
                while end >= 2 && &code[end - 2..end] == "::" {
                    let (s, _) = ident_ending_at(code, end - 2)?;
                    end = s;
                }
                end = skip_ws_back(code, end);
            }
            b'&' => {
                end = skip_ws_back(code, end - 1);
            }
            b'>' if end >= 2 && b[end - 2] == b'-' => {
                // Return position: attribute the rank to the accessor fn.
                let head = &code[..end - 2];
                let fn_at = head.rfind("fn ")?;
                return last_path_segment(head, fn_at + 3);
            }
            b':' => {
                if end >= 2 && b[end - 2] == b':' {
                    return None;
                }
                let (_, id) = ident_ending_at(code, skip_ws_back(code, end - 1))?;
                return Some(id.to_string());
            }
            _ => return None,
        }
    }
}

/// The receiver ident of a `.lock()` / `.read()` / `.write()` at `pos`
/// (the `.`): the last path segment, skipping one balanced call-arg
/// group (`self.shard(id).read()` → `shard`).
fn receiver_ident(code: &str, pos: usize) -> Option<String> {
    let b = code.as_bytes();
    let mut end = skip_ws_back(code, pos);
    if end == 0 {
        return None;
    }
    if b[end - 1] == b')' {
        let mut depth = 0i32;
        while end > 0 {
            match b[end - 1] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        end -= 1;
                        break;
                    }
                }
                _ => {}
            }
            end -= 1;
        }
        end = skip_ws_back(code, end);
    }
    let (_, id) = ident_ending_at(code, end)?;
    Some(id.to_string())
}

/// True when the statement containing offset `pos` is a plain
/// `let name = ...` (whose guard lives to the end of the enclosing
/// block), as opposed to a scrutinee/temporary position.
fn let_binding_of_stmt(code: &str, pos: usize) -> Option<String> {
    let seg = &code[..pos];
    let start = seg
        .rfind([';', '{', '}'])
        .map(|i| i + 1)
        .unwrap_or(0);
    let stmt = seg[start..].trim_start();
    if !stmt.starts_with("let ") {
        return None;
    }
    // `let <ident> =` / `let mut <ident> =`; patterns (`let Some(x) =`,
    // `let (a, b) =`) are scrutinee temporaries, not guard bindings.
    let rest = stmt["let ".len()..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let rb = rest.as_bytes();
    let mut i = 0;
    while i < rb.len() && is_ident_byte(rb[i]) {
        i += 1;
    }
    if i == 0 || rb[0].is_ascii_digit() {
        return None;
    }
    let name = &rest[..i];
    if KEYWORDS.contains(&name) {
        return None;
    }
    let after = rest[i..].trim_start();
    // Tolerate a type annotation between the name and the `=`.
    if after.starts_with('=') && !after.starts_with("==") {
        return Some(name.to_string());
    }
    if after.starts_with(':') && !after.starts_with("::") && rest[i..].contains('=') {
        return Some(name.to_string());
    }
    None
}

#[derive(Debug)]
enum EventKind {
    FnDecl(String),
    Acquire(u16),
    Call(String),
    DropCall(String),
}

#[derive(Debug)]
struct Event {
    pos: usize,
    kind: EventKind,
}

/// Extracts the position-ordered events on one code line.
fn line_events(code: &str, lockmap: &BTreeMap<String, u16>) -> Vec<Event> {
    let mut events = Vec::new();
    let b = code.as_bytes();

    // Ranked acquisitions.
    for (pat, _) in ACQUIRE_PATTERNS {
        let mut at = 0usize;
        while let Some(p) = code[at..].find(pat) {
            let pos = at + p;
            at = pos + pat.len();
            if let Some(recv) = receiver_ident(code, pos) {
                if let Some(&rank) = lockmap.get(&recv) {
                    events.push(Event { pos, kind: EventKind::Acquire(rank) });
                }
            }
        }
    }

    // Identifier walk: fn declarations, drop() releases, call sites.
    let mut i = 0usize;
    let mut prev_token: Option<&str> = None;
    while i < b.len() {
        if !is_ident_byte(b[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && is_ident_byte(b[i]) {
            i += 1;
        }
        let tok = &code[start..i];
        if b[start].is_ascii_digit() {
            continue;
        }
        let called = i < b.len() && b[i] == b'(';
        if prev_token == Some("fn") {
            events.push(Event { pos: start, kind: EventKind::FnDecl(tok.to_string()) });
        } else if called && tok == "drop" {
            let j = skip_ws_fwd(code, i + 1);
            if let Some((_, arg)) = ident_ending_at(code, {
                let mut k = j;
                while k < b.len() && is_ident_byte(b[k]) {
                    k += 1;
                }
                k
            }) {
                if skip_ws_fwd(code, j + arg.len()) < b.len()
                    && b[skip_ws_fwd(code, j + arg.len())] == b')'
                {
                    events.push(Event {
                        pos: start,
                        kind: EventKind::DropCall(arg.to_string()),
                    });
                }
            }
        } else if called
            && tok.len() > 2
            && b[start].is_ascii_lowercase()
            && (start == 0 || !is_ident_byte(b[start - 1]))
            && !KEYWORDS.contains(&tok)
            && CALL_EDGE_IGNORE.binary_search(&tok).is_err()
        {
            events.push(Event { pos: start, kind: EventKind::Call(tok.to_string()) });
        }
        prev_token = Some(tok);
    }
    events.sort_by_key(|e| e.pos);
    events
}

#[derive(Debug)]
struct Guard {
    rank: u16,
    /// `Some(name)` for `let`-bound guards; killed at block exit or
    /// explicit `drop(name)`.
    binding: Option<String>,
    /// Brace depth at binding (let-bound guards).
    depth: i32,
    /// True for statement temporaries.
    temp: bool,
    /// Statement-relative delimiter depth (temporaries).
    rel: i32,
}

/// Options for [`analyze_file`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalyzeOpts {
    /// `crates/sync/` itself may construct raw `parking_lot` locks —
    /// that is the one place the wrappers live.
    pub in_sync_crate: bool,
}

/// Analyzes one scanned file. `lock_waived[i]` is true when 0-based
/// line `i` carries a `lint: allow(lock_order)` waiver.
pub fn analyze_file(
    rel: &str,
    file: &ScannedFile,
    ranks: &[RankConst],
    lock_waived: &[bool],
    opts: AnalyzeOpts,
) -> FileAnalysis {
    let mut fa = FileAnalysis { rel: rel.to_string(), ..FileAnalysis::default() };
    let by_ident: BTreeMap<&str, &RankConst> =
        ranks.iter().map(|r| (r.ident.as_str(), r)).collect();
    let waived = |i: usize| lock_waived.get(i).copied().unwrap_or(false);

    // Pass 1: the per-file lockmap from construction sites and type
    // declarations.
    let mut lockmap: BTreeMap<String, u16> = BTreeMap::new();
    let mut decl_idents: BTreeSet<String> = BTreeSet::new();
    let mut pool: BTreeSet<u16> = BTreeSet::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let code = line.code.as_str();
        for pat in ["OrderedMutex::new(", "OrderedRwLock::new("] {
            let mut at = 0usize;
            while let Some(p) = code[at..].find(pat) {
                let pos = at + p;
                at = pos + pat.len();
                if pos > 0 && is_ident_byte(code.as_bytes()[pos - 1]) {
                    continue;
                }
                // The rank argument may start on one of the next lines.
                let arg_ident = last_path_segment(code, pos + pat.len()).or_else(|| {
                    file.lines
                        .iter()
                        .skip(i + 1)
                        .take(2)
                        .map(|l| l.code.trim())
                        .find(|c| !c.is_empty())
                        .and_then(|c| last_path_segment(c, 0))
                });
                match arg_ident {
                    None => {
                        if !waived(i) {
                            fa.violations.push(Diagnostic {
                                path: rel.to_string(),
                                line: i + 1,
                                rule: Rule::LockOrder,
                                message: "ordered lock constructed without a rank; pass a \
                                          lsdf_sync::ranks const as the first argument"
                                    .to_string(),
                            });
                        }
                    }
                    Some(id) => match by_ident.get(id.as_str()) {
                        None => {
                            if !waived(i) {
                                fa.violations.push(Diagnostic {
                                    path: rel.to_string(),
                                    line: i + 1,
                                    rule: Rule::LockOrder,
                                    message: format!(
                                        "lock rank `{id}` is not declared in \
                                         lsdf_sync::ranks; every rank lives in the manifest"
                                    ),
                                });
                            }
                        }
                        Some(rc) => {
                            pool.insert(rc.id);
                            fa.ranks_referenced.insert(rc.ident.clone());
                            if let Some(bind) = construction_binding(code, pos) {
                                match lockmap.get(&bind) {
                                    Some(&prev) if prev != rc.id => {
                                        fa.violations.push(Diagnostic {
                                            path: rel.to_string(),
                                            line: i + 1,
                                            rule: Rule::LockOrder,
                                            message: format!(
                                                "lock ident `{bind}` is bound to two \
                                                 different ranks in this file; rename one \
                                                 so the acquisition scanner can tell them \
                                                 apart"
                                            ),
                                        });
                                    }
                                    _ => {
                                        lockmap.insert(bind, rc.id);
                                    }
                                }
                            }
                        }
                    },
                }
            }
        }
        for pat in ["OrderedMutex<", "OrderedRwLock<"] {
            let mut at = 0usize;
            while let Some(p) = code[at..].find(pat) {
                let pos = at + p;
                at = pos + pat.len();
                if pos > 0 && is_ident_byte(code.as_bytes()[pos - 1]) {
                    continue;
                }
                if let Some(d) = decl_binding(code, pos) {
                    decl_idents.insert(d);
                }
            }
        }
    }
    // A declaration without its own construction line (e.g. stripes
    // built inside a closure) binds to the file's single rank, if the
    // file is single-rank.
    if pool.len() == 1 {
        let only = *pool.iter().next().expect("pool checked non-empty");
        for d in decl_idents {
            lockmap.entry(d).or_insert(only);
        }
    }

    // Pass 2: guard tracking, acquisition edges, call sites, raw locks.
    let mut guards: Vec<Guard> = Vec::new();
    let mut brace_depth: i32 = 0;
    let mut current_fn = String::new();
    for (i, line) in file.lines.iter().enumerate() {
        let code = line.code.as_str();
        let active = !line.is_test;

        if active && !opts.in_sync_crate {
            for pat in RAW_LOCK_PATTERNS {
                let mut at = 0usize;
                while let Some(p) = code[at..].find(pat) {
                    let pos = at + p;
                    at = pos + pat.len();
                    if pos > 0 && is_ident_byte(code.as_bytes()[pos - 1]) {
                        continue;
                    }
                    if !waived(i) {
                        fa.violations.push(Diagnostic {
                            path: rel.to_string(),
                            line: i + 1,
                            rule: Rule::LockOrder,
                            message: format!(
                                "raw {} — wrap it in lsdf_sync::Ordered{} with a declared \
                                 rank so the lock-order witness can see it",
                                pat.trim_end_matches('('),
                                if pat.starts_with("RwLock") { "RwLock" } else { "Mutex" }
                            ),
                        });
                    }
                }
            }
        }

        let events = if active { line_events(code, &lockmap) } else { Vec::new() };
        let mut ev = events.into_iter().peekable();
        for (ci, ch) in code.char_indices() {
            while ev.peek().is_some_and(|e| e.pos == ci) {
                let e = ev.next().expect("peeked");
                match e.kind {
                    EventKind::FnDecl(name) => {
                        // A new item body: guards cannot cross fn
                        // boundaries, so clear any tracking residue.
                        guards.clear();
                        *fa.fn_decls.entry(name.clone()).or_insert(0) += 1;
                        current_fn = name;
                    }
                    EventKind::Acquire(rank) => {
                        for g in &guards {
                            fa.edges.push(Edge {
                                from: g.rank,
                                to: rank,
                                path: rel.to_string(),
                                line: i + 1,
                                waived: waived(i),
                                via: None,
                            });
                        }
                        fa.fn_acquires
                            .entry(current_fn.clone())
                            .or_default()
                            .insert(rank);
                        let binding = let_binding_of_stmt(code, e.pos);
                        let temp = binding.is_none();
                        guards.push(Guard {
                            rank,
                            binding,
                            depth: brace_depth,
                            temp,
                            rel: 0,
                        });
                    }
                    EventKind::Call(name) => {
                        fa.fn_callees
                            .entry(current_fn.clone())
                            .or_default()
                            .insert(name.clone());
                        if !guards.is_empty() {
                            fa.calls.push(CallSite {
                                callee: name,
                                held: guards.iter().map(|g| g.rank).collect(),
                                line: i + 1,
                                waived: waived(i),
                            });
                        }
                    }
                    EventKind::DropCall(name) => {
                        if let Some(p) = guards
                            .iter()
                            .rposition(|g| g.binding.as_deref() == Some(name.as_str()))
                        {
                            guards.remove(p);
                        }
                    }
                }
            }
            match ch {
                '{' => {
                    brace_depth += 1;
                    for g in guards.iter_mut().filter(|g| g.temp) {
                        g.rel += 1;
                    }
                }
                '}' => {
                    brace_depth -= 1;
                    let bd = brace_depth;
                    guards.retain(|g| g.temp || g.depth <= bd);
                    for g in guards.iter_mut().filter(|g| g.temp) {
                        g.rel -= 1;
                    }
                    // A `}` that completes a block opened after the
                    // temporary ends its statement's value (if/match
                    // scrutinees); one from an enclosing block ends the
                    // statement outright.
                    guards.retain(|g| !g.temp || g.rel > 0);
                }
                '(' | '[' => {
                    for g in guards.iter_mut().filter(|g| g.temp) {
                        g.rel += 1;
                    }
                }
                ')' | ']' => {
                    for g in guards.iter_mut().filter(|g| g.temp) {
                        g.rel -= 1;
                    }
                    guards.retain(|g| !g.temp || g.rel >= 0);
                }
                ';' => {
                    guards.retain(|g| !g.temp || g.rel > 0);
                }
                _ => {}
            }
        }
    }
    fa
}

/// Merges per-file analyses: expands call edges through transitive
/// function summaries, reports inversions, detects cycles (waived edges
/// included), and checks the manifest itself. `check_unused` is set on
/// whole-workspace runs only — a single file never sees every rank.
pub fn finish(
    analyses: &[FileAnalysis],
    ranks: &[RankConst],
    ranks_module: &str,
    check_unused: bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let names: BTreeMap<u16, &str> =
        ranks.iter().map(|r| (r.id, r.name.as_str())).collect();
    let label = |id: u16| {
        format!("{}({})", names.get(&id).copied().unwrap_or("?"), id)
    };

    // Manifest self-checks: unique ids, unique names.
    let mut seen_ids: BTreeMap<u16, &RankConst> = BTreeMap::new();
    let mut seen_names: BTreeMap<&str, &RankConst> = BTreeMap::new();
    for rc in ranks {
        if let Some(prev) = seen_ids.insert(rc.id, rc) {
            out.push(Diagnostic {
                path: ranks_module.to_string(),
                line: rc.line,
                rule: Rule::LockOrder,
                message: format!(
                    "rank id {} declared twice ({} and {}); ids are the total order and \
                     must be unique",
                    rc.id, prev.ident, rc.ident
                ),
            });
        }
        if let Some(prev) = seen_names.insert(rc.name.as_str(), rc) {
            out.push(Diagnostic {
                path: ranks_module.to_string(),
                line: rc.line,
                rule: Rule::LockOrder,
                message: format!(
                    "rank name {:?} declared twice ({} and {})",
                    rc.name, prev.ident, rc.ident
                ),
            });
        }
    }

    for fa in analyses {
        out.extend(fa.violations.iter().cloned());
    }

    // Transitive per-function rank summaries across the workspace.
    // Summaries are keyed by unqualified function name, so a name
    // declared on more than one type is ambiguous — expanding it would
    // charge every caller with the union of all same-named bodies
    // (`snapshot`, `encode`, ... exist on many types). Only names with
    // exactly one declaration take part in call-edge expansion.
    let mut decl_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for fa in analyses {
        for (f, n) in &fa.fn_decls {
            *decl_counts.entry(f.as_str()).or_insert(0) += n;
        }
    }
    let unique = |name: &str| decl_counts.get(name).copied().unwrap_or(0) == 1;
    let mut summaries: BTreeMap<String, BTreeSet<u16>> = BTreeMap::new();
    let mut callgraph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for fa in analyses {
        for (f, rs) in &fa.fn_acquires {
            summaries.entry(f.clone()).or_default().extend(rs.iter().copied());
        }
        for (f, cs) in &fa.fn_callees {
            callgraph.entry(f.clone()).or_default().extend(cs.iter().cloned());
        }
    }
    loop {
        let mut additions: Vec<(String, BTreeSet<u16>)> = Vec::new();
        for (f, callees) in &callgraph {
            let mut add = BTreeSet::new();
            for c in callees {
                if !unique(c) {
                    continue;
                }
                if let Some(s) = summaries.get(c) {
                    add.extend(s.iter().copied());
                }
            }
            if !add.is_empty() {
                additions.push((f.clone(), add));
            }
        }
        let mut changed = false;
        for (f, add) in additions {
            let entry = summaries.entry(f).or_default();
            let before = entry.len();
            entry.extend(add);
            changed |= entry.len() > before;
        }
        if !changed {
            break;
        }
    }

    // All edges: direct nestings plus summary-expanded call edges.
    let mut all_edges: Vec<Edge> = Vec::new();
    for fa in analyses {
        all_edges.extend(fa.edges.iter().cloned());
        for cs in &fa.calls {
            if !unique(&cs.callee) {
                continue;
            }
            if let Some(sum) = summaries.get(&cs.callee) {
                for &to in sum {
                    for &from in &cs.held {
                        all_edges.push(Edge {
                            from,
                            to,
                            path: fa.rel.clone(),
                            line: cs.line,
                            waived: cs.waived,
                            via: Some(cs.callee.clone()),
                        });
                    }
                }
            }
        }
    }

    // Inversions: an edge whose source does not rank strictly below its
    // target. Deduplicated per site.
    let mut reported: BTreeSet<(String, usize, u16, u16)> = BTreeSet::new();
    for e in &all_edges {
        if e.from < e.to || e.waived {
            continue;
        }
        if !reported.insert((e.path.clone(), e.line, e.from, e.to)) {
            continue;
        }
        let via = e
            .via
            .as_ref()
            .map(|c| format!(" via call to `{c}`"))
            .unwrap_or_default();
        out.push(Diagnostic {
            path: e.path.clone(),
            line: e.line,
            rule: Rule::LockOrder,
            message: format!(
                "acquisition order inversion: {} acquired while holding {}{via}; ranks \
                 must strictly increase (see lsdf_sync::ranks)",
                label(e.to),
                label(e.from),
            ),
        });
    }

    // Cycles over the full graph, waived edges included: two separately
    // waived inversions still deadlock each other.
    let mut adj: BTreeMap<u16, BTreeSet<u16>> = BTreeMap::new();
    for e in &all_edges {
        adj.entry(e.from).or_default().insert(e.to);
    }
    let reach = |start: u16| -> BTreeSet<u16> {
        let mut seen = BTreeSet::new();
        let mut work: Vec<u16> =
            adj.get(&start).map(|s| s.iter().copied().collect()).unwrap_or_default();
        while let Some(n) = work.pop() {
            if seen.insert(n) {
                if let Some(next) = adj.get(&n) {
                    work.extend(next.iter().copied());
                }
            }
        }
        seen
    };
    let reachability: BTreeMap<u16, BTreeSet<u16>> =
        adj.keys().map(|&n| (n, reach(n))).collect();
    let cyclic: BTreeSet<u16> = reachability
        .iter()
        .filter(|(n, r)| r.contains(n))
        .map(|(&n, _)| n)
        .collect();
    let mut assigned: BTreeSet<u16> = BTreeSet::new();
    for &n in &cyclic {
        if assigned.contains(&n) {
            continue;
        }
        let comp: BTreeSet<u16> = cyclic
            .iter()
            .copied()
            .filter(|&m| {
                m == n
                    || (reachability.get(&n).is_some_and(|r| r.contains(&m))
                        && reachability.get(&m).is_some_and(|r| r.contains(&n)))
            })
            .collect();
        assigned.extend(comp.iter().copied());
        let anchor = all_edges
            .iter()
            .filter(|e| comp.contains(&e.from) && comp.contains(&e.to))
            .min_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)))
            .expect("cyclic component implies at least one edge");
        let ring: Vec<String> = comp.iter().map(|&id| label(id)).collect();
        out.push(Diagnostic {
            path: anchor.path.clone(),
            line: anchor.line,
            rule: Rule::LockOrder,
            message: format!(
                "lock-order cycle among ranks [{}]; the acquisition graph must stay \
                 acyclic — waivers silence an edge report but never cycle detection",
                ring.join(", ")
            ),
        });
    }

    // Unused manifest entries (whole-workspace runs only).
    if check_unused {
        let used: BTreeSet<&str> = analyses
            .iter()
            .flat_map(|fa| fa.ranks_referenced.iter().map(String::as_str))
            .collect();
        for rc in ranks {
            if !used.contains(rc.ident.as_str()) {
                out.push(Diagnostic {
                    path: ranks_module.to_string(),
                    line: rc.line,
                    rule: Rule::LockOrder,
                    message: format!(
                        "declared lock rank {} ({:?}) has no construction site — dead \
                         rank or drifted lock",
                        rc.ident, rc.name
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_file;

    fn ranks() -> Vec<RankConst> {
        parse_rank_consts(
            "pub const OUTER: LockRank = rank(10, \"outer\");\n\
             pub const INNER: LockRank = rank(20, \"inner\");\n\
             pub const LEAF: LockRank = rank(30, \"leaf\");\n",
        )
    }

    fn analyze(src: &str) -> FileAnalysis {
        let scanned = scan_file(src);
        let waived = vec![false; scanned.lines.len()];
        analyze_file("crates/x/src/a.rs", &scanned, &ranks(), &waived, AnalyzeOpts::default())
    }

    #[test]
    fn manifest_parses() {
        let rs = ranks();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[1].ident, "INNER");
        assert_eq!(rs[1].id, 20);
        assert_eq!(rs[1].name, "inner");
        assert_eq!(rs[1].line, 2);
    }

    #[test]
    fn lockmap_binds_fields_lets_and_wrapped_constructions() {
        let fa = analyze(
            "struct S { a: OrderedMutex<u8>, b: Arc<OrderedRwLock<u8>> }\n\
             impl S { fn new() -> Self { Self {\n\
                 a: OrderedMutex::new(ranks::OUTER, 0),\n\
                 b: Arc::new(OrderedRwLock::new(ranks::INNER, 0)),\n\
             } } }\n\
             fn f(s: &S) { let g = s.a.lock(); let h = s.b.read(); }\n",
        );
        assert!(fa.violations.is_empty(), "{:#?}", fa.violations);
        assert_eq!(fa.edges.len(), 1, "{:#?}", fa.edges);
        assert_eq!((fa.edges[0].from, fa.edges[0].to), (10, 20));
    }

    #[test]
    fn inversion_edge_is_recorded() {
        let fa = analyze(
            "struct S { a: OrderedMutex<u8>, b: OrderedMutex<u8> }\n\
             impl S { fn new() -> Self { Self {\n\
                 a: OrderedMutex::new(ranks::INNER, 0),\n\
                 b: OrderedMutex::new(ranks::OUTER, 0),\n\
             } } }\n\
             fn f(s: &S) { let g = s.a.lock(); let h = s.b.lock(); }\n",
        );
        let out = finish(&[fa], &ranks(), "ranks.rs", false);
        assert_eq!(out.len(), 1, "{:#?}", out);
        assert!(out[0].message.contains("inversion"));
        assert!(out[0].message.contains("outer(10)"));
    }

    #[test]
    fn let_guard_dies_at_block_end_and_drop() {
        let fa = analyze(
            "struct S { a: OrderedMutex<u8>, b: OrderedMutex<u8> }\n\
             impl S { fn new() -> Self { Self {\n\
                 a: OrderedMutex::new(ranks::INNER, 0),\n\
                 b: OrderedMutex::new(ranks::OUTER, 0),\n\
             } } }\n\
             fn f(s: &S) {\n\
                 { let g = s.a.lock(); }\n\
                 let h = s.b.lock();\n\
             }\n\
             fn g(s: &S) {\n\
                 let g = s.a.lock();\n\
                 drop(g);\n\
                 let h = s.b.lock();\n\
             }\n",
        );
        assert!(fa.edges.is_empty(), "{:#?}", fa.edges);
    }

    #[test]
    fn scrutinee_temp_dies_with_its_block() {
        // The 2021-edition trap: an `if let` scrutinee guard lives
        // through the block — but not past it.
        let fa = analyze(
            "struct S { a: OrderedRwLock<u8> }\n\
             impl S { fn new() -> Self { Self { a: OrderedRwLock::new(ranks::OUTER, 0) } } }\n\
             fn f(s: &S) -> u8 {\n\
                 if let Some(v) = s.a.read().checked_add(1) { return v; }\n\
                 let w = s.a.write();\n\
                 0\n\
             }\n",
        );
        assert!(fa.edges.is_empty(), "{:#?}", fa.edges);
    }

    #[test]
    fn struct_literal_temps_overlap() {
        let fa = analyze(
            "struct S { a: OrderedRwLock<u8>, b: OrderedRwLock<u8> }\n\
             impl S { fn new() -> Self { Self {\n\
                 a: OrderedRwLock::new(ranks::OUTER, 0),\n\
                 b: OrderedRwLock::new(ranks::INNER, 0),\n\
             } } }\n\
             fn snap(s: &S) -> (u8, u8) {\n\
                 Snapshot {\n\
                     a: *s.a.read(),\n\
                     b: *s.b.read(),\n\
                 }\n\
             }\n",
        );
        assert_eq!(fa.edges.len(), 1, "{:#?}", fa.edges);
        assert_eq!((fa.edges[0].from, fa.edges[0].to), (10, 20));
    }

    #[test]
    fn call_edges_cross_files() {
        let a = analyze(
            "struct S { a: OrderedMutex<u8> }\n\
             impl S { fn new() -> Self { Self { a: OrderedMutex::new(ranks::INNER, 0) } } }\n\
             impl S { pub fn poke(&self) { let g = self.a.lock(); } }\n",
        );
        let scanned = scan_file(
            "struct T { b: OrderedMutex<u8> }\n\
             impl T { fn new() -> Self { Self { b: OrderedMutex::new(ranks::LEAF, 0) } } }\n\
             fn f(t: &T, s: &S) { let g = t.b.lock(); s.poke(); }\n",
        );
        let waived = vec![false; scanned.lines.len()];
        let b = analyze_file(
            "crates/y/src/b.rs",
            &scanned,
            &ranks(),
            &waived,
            AnalyzeOpts::default(),
        );
        let out = finish(&[a, b], &ranks(), "ranks.rs", false);
        assert_eq!(out.len(), 1, "{:#?}", out);
        assert!(out[0].message.contains("via call to `poke`"));
        assert!(out[0].message.contains("inner(20)"));
    }

    #[test]
    fn ambiguous_callee_names_do_not_expand() {
        // `poke` is declared on two types; charging callers with the
        // union of both bodies would invent edges, so expansion skips
        // ambiguous names entirely.
        let a = analyze(
            "struct S { a: OrderedMutex<u8> }\n\
             impl S { fn new() -> Self { Self { a: OrderedMutex::new(ranks::INNER, 0) } } }\n\
             impl S { pub fn poke(&self) { let g = self.a.lock(); } }\n",
        );
        let scanned = scan_file(
            "struct T { b: OrderedMutex<u8> }\n\
             impl T { fn new() -> Self { Self { b: OrderedMutex::new(ranks::LEAF, 0) } } }\n\
             impl T { pub fn poke(&self) {} }\n\
             fn f(t: &T, s: &S) { let g = t.b.lock(); s.poke(); }\n",
        );
        let waived = vec![false; scanned.lines.len()];
        let b = analyze_file(
            "crates/y/src/b.rs",
            &scanned,
            &ranks(),
            &waived,
            AnalyzeOpts::default(),
        );
        let out = finish(&[a, b], &ranks(), "ranks.rs", false);
        assert!(out.is_empty(), "{:#?}", out);
    }

    #[test]
    fn waived_edges_still_form_cycles() {
        let mk = |src: &str, rel: &str, waive_all: bool| {
            let scanned = scan_file(src);
            let waived = vec![waive_all; scanned.lines.len()];
            analyze_file(rel, &scanned, &ranks(), &waived, AnalyzeOpts::default())
        };
        let a = mk(
            "struct S { lo: OrderedMutex<u8>, hi: OrderedMutex<u8> }\n\
             impl S { fn new() -> Self { Self {\n\
                 lo: OrderedMutex::new(ranks::OUTER, 0),\n\
                 hi: OrderedMutex::new(ranks::INNER, 0),\n\
             } } }\n\
             fn up(s: &S) { let g = s.lo.lock(); let h = s.hi.lock(); }\n",
            "crates/x/src/a.rs",
            false,
        );
        let b = mk(
            "struct T { lo: OrderedMutex<u8>, hi: OrderedMutex<u8> }\n\
             impl T { fn new() -> Self { Self {\n\
                 lo: OrderedMutex::new(ranks::OUTER, 0),\n\
                 hi: OrderedMutex::new(ranks::INNER, 0),\n\
             } } }\n\
             fn down(t: &T) { let g = t.hi.lock(); let h = t.lo.lock(); }\n",
            "crates/y/src/b.rs",
            true, // the inversion is waived — the cycle must still fire
        );
        let out = finish(&[a, b], &ranks(), "ranks.rs", false);
        let cycles: Vec<_> = out
            .iter()
            .filter(|d| d.message.contains("cycle"))
            .collect();
        assert_eq!(cycles.len(), 1, "{:#?}", out);
        assert!(cycles[0].message.contains("outer(10)"));
        assert!(cycles[0].message.contains("inner(20)"));
        // And no inversion report for the waived edge itself.
        assert!(
            out.iter().all(|d| !d.message.contains("inversion")),
            "{:#?}",
            out
        );
    }

    #[test]
    fn unranked_and_undeclared_constructions_are_violations() {
        let fa = analyze(
            "fn f() {\n\
                 let a = OrderedMutex::new(rank_of(), 0);\n\
                 let b = OrderedMutex::new(ranks::NOT_DECLARED, 0);\n\
             }\n",
        );
        assert_eq!(fa.violations.len(), 2, "{:#?}", fa.violations);
        assert!(fa.violations[0].message.contains("not declared")
            || fa.violations[1].message.contains("not declared"));
    }

    #[test]
    fn raw_lock_constructions_are_counted_outside_sync() {
        let src = "fn f() { let m = parking_lot::Mutex::new(0); let c = Condvar::new(); }\n\
                   fn g() { let s = std::sync::RwLock::new(0); }\n\
                   fn h() { let o = OrderedMutex::new(ranks::OUTER, 0); }\n";
        let fa = analyze(src);
        assert_eq!(fa.violations.len(), 3, "{:#?}", fa.violations);
        assert!(fa.violations.iter().all(|d| d.message.starts_with("raw ")));
        let scanned = scan_file(src);
        let sync = analyze_file(
            "crates/sync/src/lib.rs",
            &scanned,
            &ranks(),
            &vec![false; scanned.lines.len()],
            AnalyzeOpts { in_sync_crate: true },
        );
        assert!(sync.violations.is_empty(), "{:#?}", sync.violations);
        // A waived line is silent outside the sync crate too.
        let all = vec![true; scanned.lines.len()];
        let waived =
            analyze_file("crates/x/src/a.rs", &scanned, &ranks(), &all, AnalyzeOpts::default());
        assert!(waived.violations.is_empty(), "{:#?}", waived.violations);
    }

    #[test]
    fn unused_rank_is_flagged_on_workspace_runs_only() {
        let fa = analyze(
            "struct S { a: OrderedMutex<u8> }\n\
             impl S { fn new() -> Self { Self { a: OrderedMutex::new(ranks::OUTER, 0) } } }\n",
        );
        let out = finish(std::slice::from_ref(&fa), &ranks(), "ranks.rs", true);
        let unused: Vec<_> = out
            .iter()
            .filter(|d| d.message.contains("no construction site"))
            .collect();
        assert_eq!(unused.len(), 2, "{:#?}", out); // INNER, LEAF
        let out = finish(&[fa], &ranks(), "ranks.rs", false);
        assert!(out.is_empty(), "{:#?}", out);
    }

    #[test]
    fn duplicate_rank_ids_are_flagged() {
        let dup = parse_rank_consts(
            "pub const A: LockRank = rank(10, \"a\");\n\
             pub const B: LockRank = rank(10, \"b\");\n",
        );
        let out = finish(&[], &dup, "ranks.rs", false);
        assert_eq!(out.len(), 1, "{:#?}", out);
        assert!(out[0].message.contains("declared twice"));
    }
}
