//! The end-to-end script: one repetition of a workload on a freshly
//! built facility, driven only through the facility's public API, with
//! every phase cut into fixed-work segments and every output checked.
//!
//! A closed loop: one client (two in the concurrent workload) that
//! waits for each ack before its next request. The facility is an
//! in-process library with no server queue, so there is no arrival
//! rate to sweep.

use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use lsdf_core::prelude::{DurabilityConfig, DurableStore, QuotaSpec};
use lsdf_core::{
    BackendChoice, DataBrowser, Facility, IngestItem, IngestPolicy, ProjectSession, ProjectSpec,
};
use lsdf_dfs::{ClusterTopology, DfsConfig};
use lsdf_obs::{TelemetryConfig, TraceConfig};
use lsdf_storage::sha256;

use crate::estimator::{Gate, Sample, Timer};
use crate::inputs::{Backend, Inputs, Query, Rng, Spec, SWEEP_EVERY};

/// When set-up is only `Facility::build` (~40 µs) it is timed in this
/// many segments per repetition, each of this many builds: a segment
/// shorter than the clock probe beside it cannot be normalised by it.
const SETUP_SEGMENTS: usize = 8;
const BUILDS_PER_SEGMENT: usize = 32;
/// Catalog checksums compared with an independent SHA-256 per check.
const CHECKSUM_SAMPLE: usize = 64;
/// The concurrent reader interleaves its queries and fetches in this
/// many chunks per segment.
const READER_CHUNKS: usize = 10;
/// Queries whose full result set is compared with the oracle.
const ORACLE_QUERIES: usize = 2_000;

pub const PHASES: [&str; 5] = ["ingest", "get", "query", "recovery", "readback"];

/// Operations attempted and failed, per phase. A shed or rejected item,
/// a wrong query result, a missing or altered object and a digest that
/// changed across a restart are all failed operations.
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    pub phases: [(u64, u64); PHASES.len()],
}

impl Tally {
    pub fn add(&mut self, phase: usize, attempted: u64, failed: u64) {
        self.phases[phase].0 += attempted;
        self.phases[phase].1 += failed;
    }

    pub fn absorb(&mut self, other: &Tally) {
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.1).sum()
    }
}

pub const INGEST: usize = 0;
pub const GET: usize = 1;
pub const QUERY: usize = 2;
pub const RECOVERY: usize = 3;
pub const READBACK: usize = 4;

/// One repetition's segment samples, phase by phase.
#[derive(Default)]
pub struct Rep {
    pub setup: Vec<Sample>,
    pub batches: Vec<Sample>,
    pub sweeps: Vec<Sample>,
    pub gets: Vec<Sample>,
    pub queries: Vec<Sample>,
    pub recoveries: Vec<Sample>,
    pub space_amplification: f64,
}

/// What differs between the end-to-end facility and the variants the
/// per-layer run prices against it.
#[derive(Clone, Copy)]
pub struct FacilityOpts {
    /// Build with the facility's own tracer at full sampling.
    pub tracing: bool,
    /// Push the telemetry scrape interval out of reach.
    pub telemetry_off: bool,
    /// Width of the facility's worker pool.
    pub workers: usize,
}

impl Default for FacilityOpts {
    fn default() -> Self {
        FacilityOpts {
            tracing: false,
            telemetry_off: false,
            workers: 1,
        }
    }
}

/// A finite quota that admits everything the script sends: the front
/// door runs its full token-bucket accounting and sheds nothing.
fn bench_quota() -> QuotaSpec {
    QuotaSpec::per_second(200_000_000, 1 << 44)
}

/// The workload's DFS: the paper's 60-node cluster, replication 3.
pub fn dfs_config(spec: &Spec) -> DfsConfig {
    DfsConfig {
        block_size: spec.dfs_block,
        replication: 3,
        ..DfsConfig::default()
    }
}

pub fn build_facility(spec: &Spec, opts: FacilityOpts) -> Facility {
    let backend = match spec.backend {
        Backend::ObjectStore => BackendChoice::ObjectStore { capacity: u64::MAX },
        Backend::Dfs => BackendChoice::Dfs,
    };
    let mut builder = Facility::builder()
        .tenant(ProjectSpec::new(spec.schema(), backend).quota(bench_quota()))
        .workers(opts.workers)
        .cluster(ClusterTopology::lsdf(), dfs_config(spec))
        .durability(DurableStore::new(), DurabilityConfig::default());
    if opts.tracing {
        builder = builder.tracing(TraceConfig::full());
    }
    if opts.telemetry_off {
        builder = builder.telemetry(TelemetryConfig::default().interval_ns(u64::MAX));
    }
    builder.build().expect("one tenant, unique name")
}

/// Global batch `gb` as the facility takes it.
pub fn batch_items(inputs: &Inputs, gb: usize) -> Vec<IngestItem> {
    let spec = &inputs.spec;
    inputs.items[inputs.batch(gb)]
        .iter()
        .map(|item| IngestItem {
            project: spec.project.to_string(),
            key: item.key.clone(),
            data: item.data.clone(),
            metadata: Some(item.doc.clone()),
        })
        .collect()
}

/// Ingests global batches `gbs` as one timed segment, the operator's
/// reconciler sweep after every [`SWEEP_EVERY`]th batch included.
/// Item vectors are built before the clock starts; each call's own
/// time is read inside the segment and scaled by the segment's clock.
pub fn ingest_segment(
    f: &Facility,
    session: &ProjectSession<'_>,
    inputs: &Inputs,
    gbs: Range<usize>,
    timer: &mut Timer,
    rep: &mut Rep,
    tally: &mut Tally,
) {
    let prepared: Vec<Vec<IngestItem>> = gbs.clone().map(|gb| batch_items(inputs, gb)).collect();
    let batch = inputs.spec.batch as u64;
    let (parts, seg) = timer.segment(|| {
        let mut parts = Vec::with_capacity(prepared.len() + 1);
        for (gb, items) in gbs.zip(prepared) {
            let t = Instant::now();
            let report = session.ingest_batch(items, IngestPolicy::default());
            parts.push((
                false,
                t.elapsed().as_nanos() as f64,
                batch - report.registered,
            ));
            if (gb + 1) % SWEEP_EVERY == 0 {
                let t = Instant::now();
                f.run_durability_reconciler();
                parts.push((true, t.elapsed().as_nanos() as f64, 0));
            }
        }
        parts
    });
    for (sweep, raw_ns, failed) in parts {
        let sample = seg.part(raw_ns);
        if sweep {
            rep.sweeps.push(sample);
        } else {
            rep.batches.push(sample);
            tally.add(INGEST, batch, failed);
        }
    }
}

/// Fetches the planned items; returns the fetches that failed.
fn run_gets(session: &ProjectSession<'_>, inputs: &Inputs, plan: &[u32]) -> u64 {
    let mut failed = 0u64;
    for &i in plan {
        let item = &inputs.items[i as usize];
        match session.get(&item.key) {
            Ok(data) if data.len() == item.data.len() => {}
            _ => failed += 1,
        }
    }
    failed
}

/// Runs the planned queries; returns those whose hit count was wrong.
fn run_queries(browser: &DataBrowser<'_>, inputs: &Inputs, plan: &[Query]) -> u64 {
    let project = inputs.spec.project;
    let mut failed = 0u64;
    for q in plan {
        match browser.query(project, &q.pred) {
            Ok(hits) if hits.len() == q.expected(inputs).len() => {}
            _ => failed += 1,
        }
    }
    failed
}

/// Full result sets against the generator's oracle, untimed.
fn check_query_oracle(browser: &DataBrowser<'_>, inputs: &Inputs, tally: &mut Tally) {
    let project = inputs.spec.project;
    for q in inputs.queries.iter().take(ORACLE_QUERIES) {
        let expected = inputs.items[q.expected(inputs)]
            .iter()
            .map(|i| i.key.as_str());
        let ok = browser
            .query(project, &q.pred)
            .is_ok_and(|hits| hits.iter().map(|r| r.name.as_str()).eq(expected));
        tally.add(QUERY, 1, u64::from(!ok));
    }
}

/// Fetches every acked item and compares it byte for byte with what
/// was sent (stronger than comparing digests), and compares a seeded
/// sample of catalog checksums with an independent SHA-256.
pub fn check_readback(f: &Facility, inputs: &Inputs, acked: Range<usize>, tally: &mut Tally) {
    let session = f.session(inputs.spec.project).expect("project exists");
    for item in &inputs.items[acked.clone()] {
        let ok = session.get(&item.key).is_ok_and(|data| data == item.data);
        tally.add(READBACK, 1, u64::from(!ok));
    }
    let store = f.store(inputs.spec.project).expect("project exists");
    let mut rng = Rng::new(inputs.seed ^ 0xC0FFEE);
    for _ in 0..CHECKSUM_SAMPLE.min(acked.len()) {
        let item = &inputs.items[acked.start + rng.below(acked.len() as u64) as usize];
        let ok = store
            .get_by_name(&item.key)
            .is_some_and(|rec| rec.checksum_hex == sha256(&item.data).to_hex());
        tally.add(READBACK, 1, u64::from(!ok));
    }
}

/// (bytes held by backends, replicas included, + durable bytes) over
/// user payload bytes.
fn space_amplification(f: &Facility, inputs: &Inputs) -> f64 {
    let spec = &inputs.spec;
    let stored = match spec.backend {
        Backend::Dfs => f.dfs().usage().0,
        Backend::ObjectStore => f
            .adal()
            .list(f.admin(), &format!("lsdf://{}/", spec.project))
            .expect("admin lists its own project")
            .iter()
            .map(|m| m.size)
            .sum(),
    };
    let durable = f.durable_store().map_or(0, DurableStore::durable_bytes);
    (stored + durable) as f64 / inputs.payload_bytes(0..inputs.items.len()) as f64
}

/// Set-ups a repetition times: `setup_s` is its set-up time over this.
pub fn setups_per_rep(spec: &Spec) -> usize {
    if spec.preload_batches == 0 {
        SETUP_SEGMENTS * BUILDS_PER_SEGMENT
    } else {
        1
    }
}

/// Builds the facility and, for a workload with preload, ingests it.
fn set_up(inputs: &Inputs, timer: &mut Timer, rep: &mut Rep, tally: &mut Tally) -> Facility {
    let spec = &inputs.spec;
    if spec.preload_batches == 0 {
        for _ in 0..SETUP_SEGMENTS {
            let ((), sample) = timer.segment(|| {
                for _ in 0..BUILDS_PER_SEGMENT {
                    drop(black_box(build_facility(spec, FacilityOpts::default())));
                }
            });
            rep.setup.push(sample);
        }
        return build_facility(spec, FacilityOpts::default());
    }
    // The build is one segment and every preload batch (with the sweep
    // that may follow it) another: a sum of per-segment minima steadies
    // where the minimum of whole set-ups does not.
    let (f, sample) = timer.segment(|| build_facility(spec, FacilityOpts::default()));
    rep.setup.push(sample);
    let session = f.session(spec.project).expect("project exists");
    for gb in 0..spec.preload_batches {
        let items = batch_items(inputs, gb);
        let n = items.len() as u64;
        let (report, sample) = timer.segment(|| {
            let report = session.ingest_batch(items, IngestPolicy::default());
            if (gb + 1) % SWEEP_EVERY == 0 {
                f.run_durability_reconciler();
            }
            report
        });
        rep.setup.push(sample);
        tally.add(INGEST, n, n - report.registered);
    }
    drop(session);
    f
}

/// One writer and one reader in gate-aligned segments: the writer
/// ingests `per_segment` batches while the reader runs one segment of
/// the query plan and one of the fetch plan against the preloaded
/// items, a tenth of each at a time, each kind on its own stopwatch.
/// Each side's time runs from the gate to the end of its own fixed
/// work; the reader's is sized to end before the writer's, so all of
/// it runs under contention and most of the writer's does. Every batch
/// meets the same reader mix, so batch latencies have one mode. (A
/// reader that runs queries and fetches in turn, by segment or within
/// one, gives them two, and the median falls between; one that keeps
/// reading until the writer is done starves the writer's per-item
/// catalog lock behind its queries: ingest fell fourfold.)
fn concurrent_phase(
    f: &Facility,
    inputs: &Inputs,
    per_segment: usize,
    timer: &mut Timer,
    rep: &mut Rep,
    tally: &mut Tally,
) {
    let spec = &inputs.spec;
    let segments = spec.batches() / per_segment;
    assert_eq!(
        (spec.get_segments, spec.query_segments),
        (segments, segments)
    );
    let gate = Arc::new(Gate::new(2));
    let mut writer_timer = Timer::gated(gate.clone());
    let (reader_rep, reader_tally, reader_timer) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut timer = Timer::gated(gate.clone());
            let (mut rep, mut tally) = (Rep::default(), Tally::default());
            let session = f.session(spec.project).expect("project exists");
            let browser = DataBrowser::new(f, f.admin().clone());
            for seg in 0..segments {
                let (queries, gets) = (inputs.query_segment(seg), inputs.get_segment(seg));
                let chunks = queries
                    .chunks(queries.len().div_ceil(READER_CHUNKS))
                    .zip(gets.chunks(gets.len().div_ceil(READER_CHUNKS)));
                let ((query_ns, get_ns, failed), whole) = timer.segment(|| {
                    let (mut query_ns, mut get_ns, mut failed) = (0.0, 0.0, (0, 0));
                    for (queries, gets) in chunks {
                        let t = Instant::now();
                        failed.0 += run_queries(&browser, inputs, queries);
                        query_ns += t.elapsed().as_nanos() as f64;
                        let t = Instant::now();
                        failed.1 += run_gets(&session, inputs, gets);
                        get_ns += t.elapsed().as_nanos() as f64;
                    }
                    (query_ns, get_ns, failed)
                });
                rep.queries.push(whole.part(query_ns));
                rep.gets.push(whole.part(get_ns));
                tally.add(QUERY, queries.len() as u64, failed.0);
                tally.add(GET, gets.len() as u64, failed.1);
            }
            (rep, tally, timer)
        });
        let session = f.session(spec.project).expect("project exists");
        for seg in 0..segments {
            let first = spec.preload_batches + seg * per_segment;
            let batches = first..first + per_segment;
            ingest_segment(f, &session, inputs, batches, &mut writer_timer, rep, tally);
        }
        reader.join().expect("reader thread panicked")
    });
    rep.gets = reader_rep.gets;
    rep.queries = reader_rep.queries;
    tally.absorb(&reader_tally);
    timer.absorb(&writer_timer);
    timer.absorb(&reader_timer);
}

/// Runs one repetition. `full_check` adds the readback of every acked
/// item and the query oracle pass; digests are compared every time.
pub fn run_rep(inputs: &Inputs, full_check: bool, timer: &mut Timer, tally: &mut Tally) -> Rep {
    let spec = &inputs.spec;
    let mut rep = Rep::default();
    let f = set_up(inputs, timer, &mut rep, tally);
    let session = f.session(spec.project).expect("project exists");
    let browser = DataBrowser::new(&f, f.admin().clone());

    match spec.concurrent_batches {
        Some(per_segment) => concurrent_phase(&f, inputs, per_segment, timer, &mut rep, tally),
        None => {
            for gb in 0..spec.batches() {
                ingest_segment(&f, &session, inputs, gb..gb + 1, timer, &mut rep, tally);
            }
            for seg in 0..spec.get_segments {
                let plan = inputs.get_segment(seg);
                let (failed, sample) = timer.segment(|| run_gets(&session, inputs, plan));
                rep.gets.push(sample);
                tally.add(GET, spec.gets_per_segment as u64, failed);
            }
            for seg in 0..spec.query_segments {
                let plan = inputs.query_segment(seg);
                let (failed, sample) = timer.segment(|| run_queries(&browser, inputs, plan));
                rep.queries.push(sample);
                tally.add(QUERY, spec.queries_per_segment as u64, failed);
            }
        }
    }
    rep.space_amplification = space_amplification(&f, inputs);

    let store = f.store(spec.project).expect("project exists");
    let before = (store.catalog_digest(), f.dfs().namespace_digest());
    let restarts = spec.restarts_per_segment as u64;
    for k in 0..spec.recoveries as u64 {
        let ((), sample) = timer.segment(|| {
            for j in 0..restarts {
                black_box(f.crash_restart(inputs.seed.wrapping_add(k * restarts + j)));
            }
        });
        rep.recoveries.push(sample);
        // The digests cannot tell which restart of a segment lost
        // something, so a wrong end state fails them all.
        let after = (store.catalog_digest(), f.dfs().namespace_digest());
        tally.add(RECOVERY, restarts, restarts * u64::from(after != before));
    }
    if full_check {
        check_readback(&f, inputs, 0..inputs.items.len(), tally);
        check_query_oracle(&browser, inputs, tally);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_rep(name: &str) -> (Rep, Tally) {
        let inputs = Inputs::generate(Spec::named(name).unwrap().smoke(), 5);
        let mut tally = Tally::default();
        let rep = run_rep(&inputs, true, &mut Timer::new(), &mut tally);
        (rep, tally)
    }

    #[test]
    fn every_workload_runs_clean_at_smoke_size() {
        let _alone = crate::hold_process_counters();
        for (name, _) in crate::inputs::WORKLOADS {
            let (rep, tally) = smoke_rep(name);
            assert_eq!(tally.failed(), 0, "{name}: {tally:?}");
            for (phase, (attempted, _)) in PHASES.iter().zip(tally.phases) {
                assert!(attempted > 0, "{name}: nothing attempted in {phase}");
            }
            assert!(!rep.setup.is_empty() && !rep.batches.is_empty());
            assert!(!rep.gets.is_empty() && !rep.queries.is_empty() && !rep.recoveries.is_empty());
            let floor = if name == "dfs_analysis" { 3.0 } else { 1.0 };
            assert!(
                rep.space_amplification >= floor,
                "{name}: {}",
                rep.space_amplification
            );
        }
    }

    #[test]
    fn a_dropped_object_is_a_failed_operation() {
        let _alone = crate::hold_process_counters();
        let inputs = Inputs::generate(Spec::named("daq_events").unwrap().smoke(), 5);
        let f = build_facility(&inputs.spec, FacilityOpts::default());
        let session = f.session(inputs.spec.project).unwrap();
        let (mut rep, mut tally) = (Rep::default(), Tally::default());
        ingest_segment(
            &f,
            &session,
            &inputs,
            0..1,
            &mut Timer::new(),
            &mut rep,
            &mut tally,
        );
        let acked = 0..inputs.spec.batch;
        check_readback(&f, &inputs, acked.clone(), &mut tally);
        assert_eq!(tally.failed(), 0);
        let victim = format!("lsdf://{}/{}", inputs.spec.project, inputs.items[7].key);
        f.adal().delete(f.admin(), &victim).unwrap();
        check_readback(&f, &inputs, acked, &mut tally);
        assert!(tally.phases[READBACK].1 >= 1, "the loss went unnoticed");
    }
}
