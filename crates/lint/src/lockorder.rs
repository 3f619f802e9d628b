//! L5 `lock_order` — ranks and construction sites.
//!
//! Deadlock freedom rests on one rule: a thread acquires locks in
//! strictly increasing rank order, with every rank declared once in the
//! manifest (`crates/sync/src/ranks.rs`). The rule is checked in two
//! places, and each checks what the other cannot:
//!
//! * **statically, here: ranks and construction sites.** The manifest
//!   is parsed for `pub const IDENT: LockRank = rank(ID, "name");`
//!   declarations — the same registry discipline `lsdf_obs::names` uses
//!   for metric names — whose ids and names must be unique and each of
//!   which needs a construction site. Every `OrderedMutex::new(` /
//!   `OrderedRwLock::new(` must name a manifest const directly. And no
//!   raw `Mutex::new(` / `RwLock::new(` / `Condvar::new(` may be built
//!   outside `crates/sync/`, whichever crate the type comes from: a
//!   job-local lock that cannot nest with a facility lock, or a
//!   `Condvar`, which has no ordered wrapper, says so in a per-line
//!   waiver (`// lint: allow(lock_order) -- why`). These rules make the
//!   runtime check complete: a lock built raw, or under a rank the
//!   manifest does not declare, is one the witness cannot place.
//! * **by execution: nesting.** `lsdf-sync`'s witness, armed by the
//!   `lock-order` cargo feature in every integration test and soak,
//!   panics on any acquisition that does not rank strictly above every
//!   lock its thread holds. Ranks form a total order, so no inversion
//!   also means no cycle. `tests/lock_order_witness.rs` pins the nesting
//!   shapes (direct, same rank, read under read, through a call, `if
//!   let` scrutinee, struct-literal temporaries, a two-path cycle). A
//!   nesting on a path no test runs is unchecked, so put a test on it.

use std::collections::BTreeSet;

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

/// What L5 finds in one file.
#[derive(Clone, Debug, Default)]
pub struct FileCheck {
    /// Raw, unranked and undeclared constructions.
    pub violations: Vec<Diagnostic>,
    /// Manifest idents named by construction sites (for the unused-rank
    /// check).
    pub ranks_used: BTreeSet<String>,
}

const ORDERED_CONSTRUCTORS: &[&str] = &["OrderedMutex::new(", "OrderedRwLock::new("];

const RAW_LOCK_PATTERNS: &[&str] = &["Mutex::new(", "RwLock::new(", "Condvar::new("];

/// Offsets of `pat` in `code` that do not continue an identifier, so
/// `OrderedMutex::new(` is not also a raw `Mutex::new(`.
fn find_token<'a>(code: &'a str, pat: &'a str) -> impl Iterator<Item = usize> + 'a {
    code.match_indices(pat).map(|(p, _)| p).filter(move |&p| {
        p == 0 || !matches!(code.as_bytes()[p - 1], b'_' | b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z')
    })
}

/// The last segment of the path expression `code` starts with
/// (`ranks::DFS_FILES, ..` → `DFS_FILES`), if it starts with one.
fn leading_path_tail(code: &str) -> Option<&str> {
    let code = code.trim_start();
    let end = code
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(code.len());
    let seg = code[..end].rsplit("::").next()?;
    (!seg.is_empty() && !seg.as_bytes()[0].is_ascii_digit()).then_some(seg)
}

fn diagnostic(rel: &str, i: usize, message: String) -> Diagnostic {
    Diagnostic {
        path: rel.to_string(),
        line: i + 1,
        rule: Rule::LockOrder,
        message,
    }
}

/// Checks one file's construction sites. `waived(i)` is true when
/// 0-based line `i` carries a `lint: allow(lock_order)` waiver.
/// `crates/sync/` itself may construct raw `parking_lot` locks: that is
/// the one place the wrappers live.
pub fn check_file(
    rel: &str,
    file: &ScannedFile,
    ranks: &[RankConst],
    waived: impl Fn(usize) -> bool,
) -> FileCheck {
    let mut out = FileCheck::default();
    let in_sync_crate = rel.starts_with("crates/sync/");
    for (i, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let code = line.code.as_str();
        for pat in ORDERED_CONSTRUCTORS {
            for pos in find_token(code, pat) {
                // The rank argument may start on one of the next lines.
                let mut arg = code[pos + pat.len()..].trim();
                if arg.is_empty() {
                    arg = file.lines[i + 1..]
                        .iter()
                        .take(2)
                        .map(|l| l.code.trim())
                        .find(|c| !c.is_empty())
                        .unwrap_or("");
                }
                let Some(ident) = leading_path_tail(arg) else {
                    if !waived(i) {
                        out.violations.push(diagnostic(
                            rel,
                            i,
                            "ordered lock constructed without a rank; pass a lsdf_sync::ranks \
                             const as the first argument"
                                .to_string(),
                        ));
                    }
                    continue;
                };
                if ranks.iter().any(|r| r.ident == ident) {
                    out.ranks_used.insert(ident.to_string());
                } else if !waived(i) {
                    out.violations.push(diagnostic(
                        rel,
                        i,
                        format!(
                            "lock rank `{ident}` is not declared in lsdf_sync::ranks; every \
                             rank lives in the manifest"
                        ),
                    ));
                }
            }
        }
        if in_sync_crate || waived(i) {
            continue;
        }
        for pat in RAW_LOCK_PATTERNS {
            for _ in find_token(code, pat) {
                out.violations.push(diagnostic(
                    rel,
                    i,
                    format!(
                        "raw {} — wrap it in lsdf_sync::Ordered{} with a declared rank so the \
                         lock-order witness can see it",
                        pat.trim_end_matches('('),
                        if pat.starts_with("RwLock") { "RwLock" } else { "Mutex" }
                    ),
                ));
            }
        }
    }
    out
}

/// Checks the manifest itself: ids and names are unique, and every rank
/// is in `used`, the ranks some construction site names. Only a
/// whole-workspace run has the full `used` set.
pub fn check_manifest(
    ranks: &[RankConst],
    ranks_module: &str,
    used: &BTreeSet<String>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let at = |rc: &RankConst, message: String| diagnostic(ranks_module, rc.line - 1, message);
    for (k, rc) in ranks.iter().enumerate() {
        let earlier = &ranks[..k];
        if let Some(prev) = earlier.iter().find(|p| p.id == rc.id) {
            out.push(at(
                rc,
                format!(
                    "rank id {} declared twice ({} and {}); ids are the total order and must \
                     be unique",
                    rc.id, prev.ident, rc.ident
                ),
            ));
        }
        if let Some(prev) = earlier.iter().find(|p| p.name == rc.name) {
            out.push(at(
                rc,
                format!(
                    "rank name {:?} declared twice ({} and {})",
                    rc.name, prev.ident, rc.ident
                ),
            ));
        }
        if !used.contains(&rc.ident) {
            out.push(at(
                rc,
                format!(
                    "declared lock rank {} ({:?}) has no construction site — dead rank or \
                     drifted lock",
                    rc.ident, rc.name
                ),
            ));
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

    fn check(rel: &str, src: &str, waive_all: bool) -> FileCheck {
        check_file(rel, &scan_file(src), &ranks(), |_| waive_all)
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
    fn unranked_and_undeclared_constructions_are_violations() {
        let fc = check(
            "crates/x/src/a.rs",
            "fn f() {\n\
                 let a = OrderedMutex::new(rank_of(), 0);\n\
                 let b = OrderedMutex::new(ranks::NOT_DECLARED, 0);\n\
                 let c = OrderedRwLock::new(*rank_ref, 0);\n\
                 let d = Arc::new(OrderedRwLock::new(\n\
                     ranks::INNER,\n\
                     0,\n\
                 ));\n\
             }\n",
            false,
        );
        let messages: Vec<&str> = fc.violations.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(messages.len(), 3, "{messages:#?}");
        assert!(messages[0].contains("`rank_of` is not"), "{messages:#?}");
        assert!(messages[1].contains("`NOT_DECLARED` is not"), "{messages:#?}");
        assert!(messages[2].contains("without a rank"), "{messages:#?}");
        // A wrapped construction whose rank sits on the next line counts.
        assert_eq!(fc.ranks_used, BTreeSet::from(["INNER".to_string()]));
    }

    #[test]
    fn raw_lock_constructions_are_counted_outside_sync() {
        let src = "fn f() { let m = parking_lot::Mutex::new(0); let c = Condvar::new(); }\n\
                   fn g() { let s = std::sync::RwLock::new(0); }\n\
                   fn h() { let o = OrderedMutex::new(ranks::OUTER, 0); }\n";
        let fc = check("crates/x/src/a.rs", src, false);
        assert_eq!(fc.violations.len(), 3, "{:#?}", fc.violations);
        assert!(fc.violations.iter().all(|d| d.message.starts_with("raw ")));
        let sync = check("crates/sync/src/lib.rs", src, false);
        assert!(sync.violations.is_empty(), "{:#?}", sync.violations);
        // A waived line is silent outside the sync crate too.
        let waived = check("crates/x/src/a.rs", src, true);
        assert!(waived.violations.is_empty(), "{:#?}", waived.violations);
    }

    #[test]
    fn unused_rank_is_flagged_on_workspace_runs_only() {
        let fc = check(
            "crates/x/src/a.rs",
            "struct S { a: OrderedMutex<u8> }\n\
             impl S { fn new() -> Self { Self { a: OrderedMutex::new(ranks::OUTER, 0) } } }\n",
            false,
        );
        // One file never sees every rank, so its own check says nothing.
        assert!(fc.violations.is_empty(), "{:#?}", fc.violations);
        let out = check_manifest(&ranks(), "ranks.rs", &fc.ranks_used);
        assert_eq!(out.len(), 2, "{out:#?}"); // INNER, LEAF
        assert!(out.iter().all(|d| d.message.contains("no construction site")));
        assert_eq!((out[0].path.as_str(), out[0].line), ("ranks.rs", 2));
    }

    #[test]
    fn duplicate_rank_ids_are_flagged() {
        let dup = parse_rank_consts(
            "pub const A: LockRank = rank(10, \"a\");\n\
             pub const B: LockRank = rank(10, \"b\");\n",
        );
        let used = BTreeSet::from(["A".to_string(), "B".to_string()]);
        let out = check_manifest(&dup, "ranks.rs", &used);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("declared twice"));
    }
}
