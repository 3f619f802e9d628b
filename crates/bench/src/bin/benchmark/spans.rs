//! Benchmark-owned spans: recorded from this directory's code around
//! each call into a layer, kept in memory, written out when the run
//! ends. Nothing inside the program under test is instrumented.
//!
//! The per-layer run replays the same batches into one private
//! instance ("twin") of each layer. A rung's span names as its parent
//! the span of the enclosing call it is a part of in the real ingest
//! path — `storage.sha256` under `storage.payload_digest` under
//! `core.ingest_batch` — for the same pass and batch, so the self-time
//! table (`duration − Σ children`) is the cost ladder: the self time of
//! `core.ingest_batch` is what no rung accounts for.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
    pub batch: u32,
}

/// One row of the self-time table.
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// May be negative: rungs are replayed one after another, and a
    /// noisy replay can exceed the enclosing call it is compared with.
    pub self_ns: i64,
}

pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
    index: HashMap<(&'static str, u32, u32), usize>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            index: HashMap::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span caused by `parent`'s span of the same pass and
    /// batch. Returns `None` (and records nothing) while disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        pass: u32,
        batch: u32,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let parent = parent.and_then(|p| self.index.get(&(p, pass, batch)).copied());
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            pass,
            batch,
        });
        self.index.insert((name, pass, batch), id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals and self times, by name.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let row = rows.entry(s.name).or_insert(SelfTime {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += dur;
            row.self_ns += dur as i64 - children as i64;
        }
        rows.into_values().collect()
    }

    /// The trace file: the self-time table, then every span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"workload\": \"{workload}\",");
        let _ = writeln!(out, "  \"seed\": {seed},");
        let _ = writeln!(out, "  \"self_time\": [");
        let rows = self.self_times();
        for (i, r) in rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{}",
                r.name,
                r.count,
                r.total_ns,
                r.self_ns,
                if i + 1 < rows.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"pass\": {}, \"batch\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.pass,
                s.batch,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_of_the_same_pass_and_batch() {
        let mut log = SpanLog::new(true);
        let root = log.open("whole", None, 0, 3);
        log.close(root);
        let child = log.open("part", Some("whole"), 0, 3);
        log.close(child);
        let stranger = log.open("part", Some("whole"), 1, 3);
        log.close(stranger);
        // Fix the clock readings so the arithmetic is exact.
        log.spans[0].start_ns = 0;
        log.spans[0].end_ns = 100;
        log.spans[1].start_ns = 200;
        log.spans[1].end_ns = 230;
        log.spans[2].start_ns = 300;
        log.spans[2].end_ns = 340;
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[2].parent, None, "no whole span in pass 1");
        let rows = log.self_times();
        let whole = rows.iter().find(|r| r.name == "whole").unwrap();
        assert_eq!((whole.total_ns, whole.self_ns), (100, 70));
        let part = rows.iter().find(|r| r.name == "part").unwrap();
        assert_eq!((part.count, part.total_ns, part.self_ns), (2, 70, 70));
        assert!(log.to_json("w", 1).contains("\"self_ns\": 70"));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let id = log.open("x", None, 0, 0);
        log.close(id);
        assert_eq!(log.len(), 0);
    }
}
