//! The per-layer run (`--trace 1`): the workload's first batches are
//! replayed into one private instance ("twin") of each layer on the
//! data path, each call wrapped in a benchmark-owned span, and timed
//! with the same rule as the end-to-end run — fixed-work segments, the
//! per-segment minimum over passes, normalised to the probe clock.
//! Counts are exact.
//!
//! A pass builds every twin afresh and replays the batches into each
//! in turn. The rungs that make up an ingest —
//! `storage.payload_digest`, `adal.put` (stage + batched commit, as
//! `ingest_batch` uses it), `admission.admit`, `pool.dispatch` and
//! `metadata.insert_wal` — name `core.ingest_batch` as their parent, so
//! what the whole call costs beyond their sum is core's own glue: the
//! ladder's residual.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;

use lsdf_adal::{
    Acl, Adal, Credential, DfsBackend, ObjectStoreBackend, ResilienceConfig, StorageBackend,
    TokenAuth,
};
use lsdf_core::prelude::Lane;
use lsdf_core::{DataBrowser, Facility, IngestPolicy};
use lsdf_dfs::{ClusterTopology, Dfs, DfsNodeId};
use lsdf_durability::{ComponentDurability, DurabilityConfig, DurableLog, DurableStore, WalConfig};
use lsdf_mapreduce::{no_combiner, run_job, InputFormat, JobConfig, Mapper, Record, Reducer};
use lsdf_metadata::query::{contains, has_tag};
use lsdf_metadata::{NewDataset, ProjectStore, Value};
use lsdf_obs::{names, Registry, TraceCtx};
use lsdf_storage::{payload_deep_copies, payload_digests_computed, sha256, ObjectStore, Payload};

use crate::estimator::{composite, composite_total, percentile, Sample, Timer};
use crate::inputs::{
    plan_gets, plan_queries, Backend, Inputs, Query, Rng, RECENT_WINDOW, SWEEP_EVERY,
};
use crate::report::{Metric, Outcome};
use crate::script::{
    batch_items, build_facility, dfs_config, FacilityOpts, Tally, GET, INGEST, QUERY, READBACK,
    RECOVERY,
};
use crate::spans::SpanLog;

/// Every per-layer metric with its unit, in print order. Must agree
/// with `BENCHMARK.json` (a test checks it).
pub const PER_LAYER: [(&str, &str); 51] = [
    ("storage.sha256_mb_per_s", "MB/s"),
    ("storage.sha256_self_share", "ratio"),
    ("storage.payload_digest_ns_per_item", "ns"),
    ("storage.object_put_ns_per_item", "ns"),
    ("storage.object_get_ns_per_item", "ns"),
    ("storage.digests_per_item", "count"),
    ("storage.deep_copies_per_item", "count"),
    ("adal.put_ns_per_item", "ns"),
    ("adal.get_ns_per_item", "ns"),
    ("adal.put_resilient_ns_per_item", "ns"),
    ("adal.get_resilient_ns_per_item", "ns"),
    ("adal.get_cold_ns_per_item", "ns"),
    ("admission.admit_ns_per_item", "ns"),
    ("admission.shed_share", "ratio"),
    ("pool.dispatch_ns_per_item", "ns"),
    ("pool.dispatch_2w_ns_per_item", "ns"),
    ("dfs.write_ns_per_file", "ns"),
    ("dfs.write_mb_per_s", "MB/s"),
    ("dfs.read_mb_per_s", "MB/s"),
    ("dfs.blocks_per_file", "count"),
    ("dfs.stored_bytes_per_user_byte", "ratio"),
    ("dfs.recover_s", "s"),
    ("durability.wal_append_ns_per_record", "ns"),
    ("durability.wal_bytes_per_item", "B"),
    ("durability.fsyncs_per_batch", "count"),
    ("durability.ckpt_bytes", "B"),
    ("durability.ckpt_taken", "count"),
    ("durability.replay_ns_per_record", "ns"),
    ("metadata.insert_ns_per_item", "ns"),
    ("metadata.query_eq_us", "us"),
    ("metadata.query_and_range_us", "us"),
    ("metadata.query_tag_us", "us"),
    ("metadata.scan_ns_per_record", "ns"),
    ("metadata.rows_examined_per_result", "ratio"),
    ("metadata.get_by_name_ns", "ns"),
    ("metadata.recover_ns_per_record", "ns"),
    ("core.ingest_ns_per_item", "ns"),
    ("core.ladder_sum_ns_per_item", "ns"),
    ("core.ladder_residual_share", "ratio"),
    ("core.ingest_batch_tail_ms", "ms"),
    ("core.session_get_ns", "ns"),
    ("core.browser_query_us", "us"),
    ("obs.trace_tax_x", "x"),
    ("obs.telemetry_tax_x", "x"),
    ("mapreduce.job_s", "s"),
    ("mapreduce.map_mb_per_s", "MB/s"),
    ("mapreduce.node_local_share", "ratio"),
    ("bench.generate_s", "s"),
    ("bench.trace_overhead_x", "x"),
    ("bench.turbo_segment_share", "ratio"),
    ("bench.probe_nominal_ratio", "ratio"),
];

/// Read segments per rung and pass.
const READ_SEGMENTS: usize = 8;
/// Items a non-DFS workload writes to the DFS twin.
const DFS_TWIN_ITEMS: usize = 1_920;
/// Every this-many-th group of the read twin's catalog is tagged.
const TAG_EVERY: usize = 50;
const TAG: &str = "reviewed";
const TWIN_TOKEN: &str = "twin-token";

/// The rungs whose sum is compared with the whole `ingest_batch`.
const LADDER_RUNGS: [&str; 5] = [
    "storage.payload_digest",
    "adal.put",
    "admission.admit",
    "pool.dispatch",
    "metadata.insert_wal",
];

/// Counts the bytes of each block by high nibble: a job any workload's
/// data can feed, with an answer the benchmark can compute itself.
struct NibbleMapper;

impl Mapper for NibbleMapper {
    type Key = u8;
    type Value = u64;
    fn map(&self, record: &Record, emit: &mut dyn FnMut(u8, u64)) {
        for (nibble, n) in nibble_counts(&record.data).into_iter().enumerate() {
            emit(nibble as u8, n);
        }
    }
}

struct SumReducer;

impl Reducer for SumReducer {
    type Key = u8;
    type Value = u64;
    type Output = (u8, u64);
    fn reduce(&self, key: &u8, values: &[u64]) -> Vec<(u8, u64)> {
        vec![(*key, values.iter().sum())]
    }
}

fn nibble_counts(data: &[u8]) -> [u64; 16] {
    let mut counts = [0u64; 16];
    for b in data {
        counts[usize::from(b >> 4)] += 1;
    }
    counts
}

/// Long-lived, read-only twins holding the whole workload, built once:
/// reads do not change them, and a catalog of the real size is what
/// makes the read rungs memory-bound where the workload is.
struct ReadTwins {
    adal: Adal,
    cred: Credential,
    cold_paths: Vec<String>,
    cold_plan: Vec<u32>,
    store: ProjectStore,
    eq_queries: Vec<Query>,
    ranged_queries: Vec<Query>,
    tagged: usize,
    names: Vec<u32>,
    /// A string field and a value it takes: an unindexed scan that
    /// matches a few records and examines all of them.
    scan_field: String,
    needle: String,
}

struct Ladder<'a> {
    inputs: &'a Inputs,
    /// Global batches replayed, and the items they hold.
    batches: Range<usize>,
    items: Range<usize>,
    payloads: Vec<Payload>,
    gets: Vec<u32>,
    queries: Vec<Query>,
    timer: Timer,
    spans: SpanLog,
    series: BTreeMap<&'static str, Vec<Vec<Sample>>>,
    counts: BTreeMap<&'static str, f64>,
    tally: Tally,
    broken: Vec<String>,
    pass: u32,
}

fn twin_adal(project: &str) -> (Adal, Credential) {
    let auth = Arc::new(TokenAuth::new());
    auth.register(TWIN_TOKEN, "admin");
    let acl = Arc::new(Acl::new());
    acl.grant("admin", project, true);
    let adal = Adal::builder().auth(auth).acl(acl).workers(1).build();
    (adal, Credential::Token(TWIN_TOKEN.to_string()))
}

fn object_backend(name: &str) -> Arc<dyn StorageBackend> {
    Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(
        name,
        u64::MAX,
    ))))
}

fn twin_dfs(inputs: &Inputs) -> Dfs {
    let registry = Arc::new(Registry::new());
    let durability = ComponentDurability::open(
        &DurableStore::new(),
        "dfs",
        &registry,
        &DurabilityConfig::default(),
    );
    Dfs::with_durability(
        ClusterTopology::lsdf(),
        dfs_config(&inputs.spec),
        registry,
        Some(durability),
    )
}

impl<'a> Ladder<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        let spec = &inputs.spec;
        let batches = 0..spec.ladder_batches.min(spec.total_items() / spec.batch);
        let items = 0..batches.end * spec.batch;
        // One hash per payload, here; every twin that is handed a
        // payload shares the memoized digest, as the facility's layers
        // do below the one place that computes it.
        let payloads: Vec<Payload> = inputs.items[items.clone()]
            .iter()
            .map(|i| {
                let p = Payload::new(i.data.clone());
                p.digest();
                p
            })
            .collect();
        let groups = 0..(items.end / spec.group).max(1);
        let mut rng = Rng::new(inputs.seed ^ 0x001A_DDE4);
        let gets = plan_gets(
            &inputs.groups,
            groups.clone(),
            READ_SEGMENTS * spec.gets_per_segment.min(2_500),
            &mut rng,
        );
        let queries = plan_queries(
            spec,
            &inputs.groups,
            groups,
            RECENT_WINDOW / spec.group,
            READ_SEGMENTS * spec.queries_per_segment.min(200),
            &mut rng,
        );
        Ladder {
            inputs,
            batches,
            items,
            payloads,
            gets,
            queries,
            timer: Timer::new(),
            spans: SpanLog::new(true),
            series: BTreeMap::new(),
            counts: BTreeMap::new(),
            tally: Tally::default(),
            broken: Vec::new(),
            pass: 0,
        }
    }

    fn path(&self, i: usize) -> String {
        format!(
            "lsdf://{}/{}",
            self.inputs.spec.project, self.inputs.items[i].key
        )
    }

    /// Times `op(i, prepared)` for `i` in `0..segments`, each call one
    /// segment under one span; `prepare` runs off the clock.
    fn rung<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        segments: usize,
        mut prepare: impl FnMut(&Self, usize) -> T,
        mut op: impl FnMut(usize, T),
    ) {
        let mut samples = Vec::with_capacity(segments);
        for i in 0..segments {
            let prepared = prepare(self, i);
            let (spans, pass) = (&mut self.spans, self.pass);
            let (_, sample) = self.timer.segment(|| {
                let id = spans.open(name, parent, pass, i as u32);
                op(i, prepared);
                spans.close(id);
            });
            samples.push(sample);
        }
        self.series.entry(name).or_default().push(samples);
    }

    /// A rung over the replayed batches.
    fn batch_rung<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        prepare: impl FnMut(&Self, usize) -> T,
        op: impl FnMut(usize, T),
    ) {
        self.rung(name, parent, self.batches.len(), prepare, op);
    }

    fn count(&mut self, name: &'static str, value: f64) {
        match self.counts.insert(name, value) {
            Some(before) if before != value => self
                .broken
                .push(format!("{name} is a count but read {before} then {value}")),
            _ => {}
        }
    }

    /// Replays the batches into a fresh facility: the whole call the
    /// ladder's rungs are parts of.
    fn facility_ingest(&mut self, name: &'static str, opts: FacilityOpts) -> Facility {
        let f = build_facility(&self.inputs.spec, opts);
        let mut registered = 0u64;
        {
            let session = f.session(self.inputs.spec.project).expect("project exists");
            self.batch_rung(
                name,
                None,
                |l, gb| batch_items(l.inputs, gb),
                |gb, items| {
                    registered += session
                        .ingest_batch(items, IngestPolicy::default())
                        .registered;
                    if (gb + 1) % SWEEP_EVERY == 0 {
                        // Keeps the twin's WAL and checkpoints where
                        // the end-to-end run's are; the sweep itself is
                        // priced end to end, not here.
                        f.run_durability_reconciler();
                    }
                },
            );
        }
        let n = self.items.len() as u64;
        self.tally.add(INGEST, n, n - registered);
        f
    }

    fn read_segment<T>(plan: &[T], segment: usize) -> &[T] {
        let n = plan.len() / READ_SEGMENTS;
        &plan[segment * n..(segment + 1) * n]
    }

    fn core_rungs(&mut self) {
        let inputs = self.inputs;
        let project = inputs.spec.project;
        let n = self.items.len() as f64;

        let (digests, copies) = (payload_digests_computed(), payload_deep_copies());
        let f = self.facility_ingest("core.ingest_batch", FacilityOpts::default());
        self.count(
            "storage.digests_per_item",
            (payload_digests_computed() - digests) as f64 / n,
        );
        self.count(
            "storage.deep_copies_per_item",
            (payload_deep_copies() - copies) as f64 / n,
        );
        let reg = f.obs();
        let meta_log = format!("meta-{project}");
        let wal_bytes: u64 = [meta_log.as_str(), "dfs"]
            .iter()
            .map(|log| {
                reg.histogram(names::WAL_APPEND_BYTES, &[("log", log)])
                    .sum()
            })
            .sum();
        self.count("durability.wal_bytes_per_item", wal_bytes as f64 / n);
        self.count(
            "durability.fsyncs_per_batch",
            reg.counter_total(names::WAL_FSYNCS_TOTAL) as f64 / self.batches.len() as f64,
        );
        self.count(
            "durability.ckpt_taken",
            reg.counter_total(names::CKPT_TAKEN_TOTAL) as f64,
        );
        let ckpt_bytes: u64 = [meta_log.as_str(), "dfs"]
            .iter()
            .map(|log| reg.histogram(names::CKPT_BYTES, &[("log", log)]).sum())
            .sum();
        self.count("durability.ckpt_bytes", ckpt_bytes as f64);

        let session = f.session(project).expect("project exists");
        let mut failed = 0u64;
        self.rung(
            "core.session_get",
            None,
            READ_SEGMENTS,
            |l, s| Self::read_segment(&l.gets, s).to_vec(),
            |_, plan| {
                for i in plan {
                    let item = &inputs.items[i as usize];
                    // Lengths only on the clock; the end-to-end run
                    // compares every byte.
                    failed += u64::from(
                        session
                            .get(&item.key)
                            .map_or(true, |d| d.len() != item.data.len()),
                    );
                }
            },
        );
        self.tally.add(GET, self.gets.len() as u64, failed);
        let browser = DataBrowser::new(&f, f.admin().clone());
        let mut failed = 0u64;
        let queries = std::mem::take(&mut self.queries);
        self.rung(
            "core.browser_query",
            None,
            READ_SEGMENTS,
            |_, _| (),
            |s, ()| {
                for q in Self::read_segment(&queries, s) {
                    let hits = browser
                        .query(project, &q.pred)
                        .map_or(usize::MAX, |h| h.len());
                    failed += u64::from(hits != q.expected(inputs).len());
                }
            },
        );
        self.tally.add(QUERY, queries.len() as u64, failed);
        self.queries = queries;
        drop(f);

        // The same replay without the benchmark's spans, with the
        // facility's own tracer on, and with its telemetry scrape off.
        self.spans.set_enabled(false);
        self.facility_ingest("core.ingest_batch.unspanned", FacilityOpts::default());
        self.spans.set_enabled(true);
        self.facility_ingest(
            "core.ingest_batch.traced",
            FacilityOpts {
                tracing: true,
                ..FacilityOpts::default()
            },
        );
        self.facility_ingest(
            "core.ingest_batch.no_telemetry",
            FacilityOpts {
                telemetry_off: true,
                ..FacilityOpts::default()
            },
        );
    }

    fn storage_rungs(&mut self) {
        let inputs = self.inputs;
        self.batch_rung(
            "storage.payload_digest",
            Some("core.ingest_batch"),
            |_, _| (),
            |gb, ()| {
                for item in &inputs.items[inputs.batch(gb)] {
                    black_box(Payload::new(item.data.clone()).digest());
                }
            },
        );
        self.batch_rung(
            "storage.sha256",
            Some("storage.payload_digest"),
            |_, _| (),
            |gb, ()| {
                for item in &inputs.items[inputs.batch(gb)] {
                    black_box(sha256(&item.data));
                }
            },
        );
        let store = ObjectStore::new("twin", u64::MAX);
        let object_parent = (inputs.spec.backend == Backend::ObjectStore).then_some("adal.put");
        let mut failed = 0u64;
        self.batch_rung(
            "storage.object_put",
            object_parent,
            |l, gb| l.payloads[l.inputs.batch(gb)].to_vec(),
            |gb, payloads| {
                for (item, p) in inputs.items[inputs.batch(gb)].iter().zip(payloads) {
                    failed += u64::from(store.put(&item.key, p).is_err());
                }
            },
        );
        self.batch_rung(
            "storage.object_get",
            None,
            |_, _| (),
            |gb, ()| {
                for item in &inputs.items[inputs.batch(gb)] {
                    failed += u64::from(
                        store
                            .get(&item.key)
                            .map_or(true, |p| p.len() != item.data.len()),
                    );
                }
            },
        );
        self.tally
            .add(READBACK, 2 * self.items.len() as u64, failed);
    }

    /// Put (stage, then one batched commit, as `ingest_batch` does)
    /// and get through an ADAL twin.
    fn adal_rungs(&mut self, put: &'static str, get: &'static str, resilient: bool) {
        let inputs = self.inputs;
        let project = inputs.spec.project;
        let (adal, cred) = twin_adal(project);
        if resilient {
            adal.mount_resilient(
                project,
                object_backend("primary"),
                Some(object_backend("replica")),
                ResilienceConfig::default(),
            );
        } else {
            let backend: Arc<dyn StorageBackend> = match inputs.spec.backend {
                Backend::ObjectStore => object_backend("twin"),
                Backend::Dfs => Arc::new(DfsBackend::new(Arc::new(twin_dfs(inputs)))),
            };
            adal.mount(project, backend);
        }
        let parent = (!resilient).then_some("core.ingest_batch");
        let mut failed = 0u64;
        self.batch_rung(
            put,
            parent,
            |l, gb| {
                let r = l.inputs.batch(gb);
                let paths: Vec<String> = r.clone().map(|i| l.path(i)).collect();
                (paths, l.payloads[r].to_vec())
            },
            |_, (paths, payloads)| {
                let staged: Vec<_> = paths
                    .iter()
                    .zip(payloads)
                    .filter_map(|(path, p)| {
                        adal.put_stage_traced(&TraceCtx::disabled(), &cred, path, p)
                            .ok()
                    })
                    .collect();
                failed += (paths.len() - staged.len()) as u64;
                failed += adal
                    .commit_staged(staged)
                    .iter()
                    .filter(|r| r.is_err())
                    .count() as u64;
            },
        );
        self.batch_rung(
            get,
            None,
            |l, gb| l.inputs.batch(gb).map(|i| l.path(i)).collect::<Vec<_>>(),
            |gb, paths| {
                for (item, path) in inputs.items[inputs.batch(gb)].iter().zip(paths) {
                    failed += u64::from(
                        adal.get(&cred, &path)
                            .map_or(true, |d| d.len() != item.data.len()),
                    );
                }
            },
        );
        self.tally
            .add(READBACK, 2 * self.items.len() as u64, failed);
    }

    fn front_door_rungs(&mut self) {
        let inputs = self.inputs;
        let project = inputs.spec.project;
        let f = build_facility(&inputs.spec, FacilityOpts::default());
        let mut shed = 0u64;
        self.batch_rung(
            "admission.admit",
            Some("core.ingest_batch"),
            |_, _| (),
            |gb, ()| {
                for item in &inputs.items[inputs.batch(gb)] {
                    let bytes = item.data.len() as u64;
                    shed += u64::from(f.admission().admit(project, Lane::Bulk, bytes).is_err());
                }
            },
        );
        let usage = f.admission().usage(project).unwrap_or_default();
        self.count(
            "admission.shed_share",
            usage.shed as f64 / (usage.shed + usage.admitted).max(1) as f64,
        );
        self.tally.add(INGEST, self.items.len() as u64, shed);
        let batch = inputs.spec.batch;
        for (name, parent, workers) in [
            ("pool.dispatch", Some("core.ingest_batch"), 1),
            ("pool.dispatch_2w", None, 2),
        ] {
            let pool = build_facility(
                &inputs.spec,
                FacilityOpts {
                    workers,
                    ..FacilityOpts::default()
                },
            )
            .pool();
            self.batch_rung(
                name,
                parent,
                |_, _| vec![0u8; batch],
                |_, items| {
                    black_box(pool.run(items, |i, x| black_box(i as u8 ^ x)));
                },
            );
        }
    }

    fn new_datasets(&self, items: Range<usize>) -> Vec<NewDataset> {
        items
            .map(|i| {
                let item = &self.inputs.items[i];
                NewDataset {
                    name: item.key.clone(),
                    location: self.path(i),
                    size_bytes: item.data.len() as u64,
                    // The catalog stores the checksum, it does not
                    // check it: any 64 hex digits cost the same.
                    checksum_hex: format!("{i:064x}"),
                    basic: item.doc.clone(),
                }
            })
            .collect()
    }

    fn metadata_write_rungs(&mut self) {
        let schema = self.inputs.spec.schema();
        let registry = Arc::new(Registry::new());
        let durable = ProjectStore::with_durability(
            schema.clone(),
            Some(ComponentDurability::open(
                &DurableStore::new(),
                "meta-twin",
                &registry,
                &DurabilityConfig::default(),
            )),
        );
        let plain = ProjectStore::new(schema);
        for (name, parent, store) in [
            ("metadata.insert_wal", "core.ingest_batch", &durable),
            ("metadata.insert", "metadata.insert_wal", &plain),
        ] {
            let mut failed = 0u64;
            self.batch_rung(
                name,
                Some(parent),
                |l, gb| l.new_datasets(l.inputs.batch(gb)),
                |_, datasets| {
                    for d in datasets {
                        failed += u64::from(store.insert(d).is_err());
                    }
                },
            );
            self.tally.add(INGEST, self.items.len() as u64, failed);
        }
        let before = durable.catalog_digest();
        let seed = self.inputs.seed;
        self.rung(
            "metadata.recover",
            None,
            1,
            |_, _| (),
            |_, ()| {
                durable.crash(seed);
                durable.recover();
            },
        );
        self.tally
            .add(RECOVERY, 1, u64::from(durable.catalog_digest() != before));
    }

    fn wal_rungs(&mut self) {
        let record_len = self.counts["durability.wal_bytes_per_item"] as usize;
        let log = DurableLog::open(
            DurableStore::new(),
            "twin",
            &Arc::new(Registry::new()),
            WalConfig::default(),
        );
        let batch = self.inputs.spec.batch;
        self.batch_rung(
            "durability.wal_append",
            None,
            |_, gb| vec![vec![gb as u8; record_len]; batch],
            |_, records| log.append_commit_batch(&records),
        );
        let mut replayed = 0;
        self.rung(
            "durability.replay",
            None,
            1,
            |_, _| (),
            |_, ()| {
                replayed = log.replay_from(0).records.len();
            },
        );
        self.tally
            .add(RECOVERY, 1, u64::from(replayed != self.items.len()));
    }

    fn dfs_rungs(&mut self, oracle: &[u64; 16]) {
        let inputs = self.inputs;
        let dfs = twin_dfs(inputs);
        let (files, segments) = self.dfs_plan();
        let per_segment = files.len() / segments;
        let path = |i: usize| format!("/twin/{}", inputs.items[i].key);
        let dfs_parent = (inputs.spec.backend == Backend::Dfs).then_some("adal.put");
        let mut failed = 0u64;
        self.rung(
            "dfs.write",
            dfs_parent,
            segments,
            |l, s| l.payloads[s * per_segment..(s + 1) * per_segment].to_vec(),
            |s, payloads| {
                for (i, p) in (s * per_segment..).zip(payloads) {
                    let r = dfs.write_payload_traced(&path(i), &p, None, &TraceCtx::disabled());
                    failed += u64::from(r.is_err());
                }
            },
        );
        self.rung(
            "dfs.read",
            None,
            segments,
            |_, _| (),
            |s, ()| {
                for i in s * per_segment..(s + 1) * per_segment {
                    failed += u64::from(
                        dfs.read(&path(i), None)
                            .map_or(true, |d| d.len() != inputs.items[i].data.len()),
                    );
                }
            },
        );
        self.tally.add(READBACK, 2 * files.len() as u64, failed);
        let blocks: usize = files
            .clone()
            .map(|i| dfs.file_blocks(&path(i)).map_or(0, |b| b.len()))
            .sum();
        self.count("dfs.blocks_per_file", blocks as f64 / files.len() as f64);
        self.count(
            "dfs.stored_bytes_per_user_byte",
            dfs.usage().0 as f64 / inputs.payload_bytes(files.clone()) as f64,
        );

        let paths: Vec<String> = files.clone().map(path).collect();
        let config = JobConfig {
            workers: vec![DfsNodeId(0), DfsNodeId(1)],
            reducers: 2,
            input_format: InputFormat::WholeBlock,
            ..JobConfig::on_cluster(&dfs, 2)
        };
        let mut job = None;
        self.rung(
            "mapreduce.job",
            None,
            1,
            |_, _| (),
            |_, ()| {
                job = run_job(
                    &dfs,
                    &paths,
                    &NibbleMapper,
                    no_combiner::<NibbleMapper>(),
                    &SumReducer,
                    &config,
                )
                .ok();
            },
        );
        let right = job.as_ref().is_some_and(|j| {
            let mut got = [0u64; 16];
            for &(nibble, n) in &j.output {
                got[usize::from(nibble)] += n;
            }
            got == *oracle
        });
        self.tally.add(READBACK, 1, u64::from(!right));
        if let Some(j) = job {
            self.count("mapreduce.bytes_read", j.stats.bytes_read as f64);
            // Which replica a map task reads is the scheduler's choice
            // at run time; not a count that must repeat.
            self.counts.insert(
                "mapreduce.node_local_share",
                j.stats.node_local_maps as f64 / (j.stats.map_tasks as f64).max(1.0),
            );
        }

        let before = dfs.namespace_digest();
        let seed = inputs.seed;
        self.rung(
            "dfs.recover",
            None,
            1,
            |_, _| (),
            |_, ()| {
                dfs.crash(seed);
                dfs.recover();
            },
        );
        self.tally
            .add(RECOVERY, 1, u64::from(dfs.namespace_digest() != before));
    }

    /// The items written to the DFS twin and the segments they are
    /// written in: the replayed batches for the DFS workload, a prefix
    /// of the items otherwise (small items make a file each, and the
    /// namenode is not what those workloads stress).
    fn dfs_plan(&self) -> (Range<usize>, usize) {
        if self.inputs.spec.backend == Backend::Dfs {
            return (self.items.clone(), self.batches.len());
        }
        let segments = self.batches.len().min(READ_SEGMENTS);
        let n = self.items.len().min(DFS_TWIN_ITEMS);
        (0..n - n % segments, segments)
    }

    fn read_twins(&self) -> ReadTwins {
        let inputs = self.inputs;
        let spec = &inputs.spec;
        let project = spec.project;
        let (adal, cred) = twin_adal(project);
        adal.mount(project, object_backend("cold"));
        let store = ProjectStore::new(spec.schema());
        let all = 0..inputs.items.len();
        let cold_paths: Vec<String> = all.clone().map(|i| self.path(i)).collect();
        for (item, path) in inputs.items.iter().zip(&cold_paths) {
            adal.put(&cred, path, item.data.clone())
                .expect("twin accepts every item");
        }
        let mut tagged = 0;
        for (i, d) in self.new_datasets(all).into_iter().enumerate() {
            let id = store.insert(d).expect("generated documents are valid");
            if (i / spec.group).is_multiple_of(TAG_EVERY) {
                store.tag(id, TAG).expect("dataset exists");
                tagged += 1;
            }
        }
        let mut rng = Rng::new(inputs.seed ^ 0xC01D);
        let n_gets = READ_SEGMENTS * spec.gets_per_segment.min(2_500);
        let cold_plan = (0..n_gets)
            .map(|_| rng.below(inputs.items.len() as u64) as u32)
            .collect();
        let names = (0..n_gets)
            .map(|_| rng.below(inputs.items.len() as u64) as u32)
            .collect();
        let groups = 0..inputs.groups.len();
        let n_queries = READ_SEGMENTS * spec.queries_per_segment.min(200);
        // Range queries over the whole catalog here, not only its
        // recent end: the O(records after the bound) cost in full.
        let queries = plan_queries(
            spec,
            &inputs.groups,
            groups.clone(),
            groups.len(),
            4 * n_queries,
            &mut rng,
        );
        let (mut ranged_queries, mut eq_queries): (Vec<_>, Vec<_>) =
            queries.into_iter().partition(|q| q.ranged);
        ranged_queries.truncate(n_queries / 4 / READ_SEGMENTS * READ_SEGMENTS);
        eq_queries.truncate(n_queries);
        let (scan_field, needle) = inputs.items[0]
            .doc
            .iter()
            .find_map(|(k, v)| match v {
                Value::Str(s) => Some((k.clone(), s.clone())),
                _ => None,
            })
            .expect("every schema here has a string field");
        ReadTwins {
            adal,
            cred,
            cold_paths,
            cold_plan,
            store,
            eq_queries,
            ranged_queries,
            tagged,
            names,
            scan_field,
            needle,
        }
    }

    fn read_rungs(&mut self, twins: &ReadTwins) {
        let inputs = self.inputs;
        let mut failed = 0u64;
        self.rung(
            "adal.get_cold",
            None,
            READ_SEGMENTS,
            |_, _| (),
            |s, ()| {
                for &i in Self::read_segment(&twins.cold_plan, s) {
                    let r = twins.adal.get(&twins.cred, &twins.cold_paths[i as usize]);
                    failed += u64::from(
                        r.map_or(true, |d| d.len() != inputs.items[i as usize].data.len()),
                    );
                }
            },
        );
        self.tally.add(GET, twins.cold_plan.len() as u64, failed);

        let (_, scanned_before) = twins.store.query_stats();
        let mut results = 0u64;
        for (name, plan) in [
            ("metadata.query_eq", &twins.eq_queries),
            ("metadata.query_and_range", &twins.ranged_queries),
        ] {
            let mut failed = 0u64;
            self.rung(
                name,
                None,
                READ_SEGMENTS,
                |_, _| (),
                |s, ()| {
                    for q in Self::read_segment(plan, s) {
                        let hits = twins.store.query(&q.pred).len();
                        results += hits as u64;
                        failed += u64::from(hits != q.expected(inputs).len());
                    }
                },
            );
            self.tally.add(QUERY, plan.len() as u64, failed);
        }
        let (_, scanned_after) = twins.store.query_stats();
        self.count(
            "metadata.rows_examined_per_result",
            (scanned_after - scanned_before) as f64 / results.max(1) as f64,
        );

        let mut failed = 0u64;
        self.rung(
            "metadata.query_tag",
            None,
            4,
            |_, _| (),
            |_, ()| {
                for _ in 0..4 {
                    failed += u64::from(twins.store.query(&has_tag(TAG)).len() != twins.tagged);
                }
            },
        );
        let scan = contains(&twins.scan_field, &twins.needle);
        self.rung(
            "metadata.scan",
            None,
            4,
            |_, _| (),
            |_, ()| {
                failed += u64::from(twins.store.query(&scan).is_empty());
            },
        );
        self.tally.add(QUERY, 16 + 4, failed);
        let mut failed = 0u64;
        self.rung(
            "metadata.get_by_name",
            None,
            READ_SEGMENTS,
            |_, _| (),
            |s, ()| {
                for &i in Self::read_segment(&twins.names, s) {
                    failed += u64::from(
                        twins
                            .store
                            .get_by_name(&inputs.items[i as usize].key)
                            .is_none(),
                    );
                }
            },
        );
        self.tally.add(GET, twins.names.len() as u64, failed);
    }

    fn total_ns(&self, rung: &str) -> f64 {
        composite_total(&self.series[rung], 0)
    }

    /// The metrics, in `PER_LAYER` order.
    fn metrics(&self, twins: &ReadTwins) -> Vec<Metric> {
        let inputs = self.inputs;
        let n = self.items.len() as f64;
        let bytes = inputs.payload_bytes(self.items.clone()) as f64;
        let per_item = |rung: &str| self.total_ns(rung) / n;
        let per_op = |rung: &str, ops: usize| self.total_ns(rung) / ops as f64;
        let mb_per_s = |rung: &str, bytes: f64| bytes / 1e6 / (self.total_ns(rung) / 1e9);
        let dfs_files = self.dfs_plan().0;
        let dfs_bytes = inputs.payload_bytes(dfs_files.clone()) as f64;

        let whole = per_item("core.ingest_batch");
        let ladder_sum: f64 = LADDER_RUNGS.iter().map(|r| per_item(r)).sum();
        let batch_ms: Vec<f64> = composite(&self.series["core.ingest_batch"], 0)
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        // The highest of these percentiles with ten samples beyond it,
        // else the slowest batch.
        let tail = [95.0, 90.0, 75.0, 50.0]
            .iter()
            .find_map(|&p| percentile(&batch_ms, p))
            .unwrap_or_else(|| batch_ms.iter().copied().fold(0.0, f64::max));

        let value = |name: &str| -> f64 {
            match name {
                "storage.sha256_mb_per_s" => mb_per_s("storage.sha256", bytes),
                "storage.sha256_self_share" => {
                    self.total_ns("storage.sha256") / self.total_ns("core.ingest_batch")
                }
                "storage.payload_digest_ns_per_item" => per_item("storage.payload_digest"),
                "storage.object_put_ns_per_item" => per_item("storage.object_put"),
                "storage.object_get_ns_per_item" => per_item("storage.object_get"),
                "adal.put_ns_per_item" => per_item("adal.put"),
                "adal.get_ns_per_item" => per_item("adal.get"),
                "adal.put_resilient_ns_per_item" => per_item("adal.put_resilient"),
                "adal.get_resilient_ns_per_item" => per_item("adal.get_resilient"),
                "adal.get_cold_ns_per_item" => per_op("adal.get_cold", twins.cold_plan.len()),
                "admission.admit_ns_per_item" => per_item("admission.admit"),
                "pool.dispatch_ns_per_item" => per_item("pool.dispatch"),
                "pool.dispatch_2w_ns_per_item" => per_item("pool.dispatch_2w"),
                "dfs.write_ns_per_file" => per_op("dfs.write", dfs_files.len()),
                "dfs.write_mb_per_s" => mb_per_s("dfs.write", dfs_bytes),
                "dfs.read_mb_per_s" => mb_per_s("dfs.read", dfs_bytes),
                "dfs.recover_s" => self.total_ns("dfs.recover") / 1e9,
                "durability.wal_append_ns_per_record" => per_item("durability.wal_append"),
                "durability.replay_ns_per_record" => per_item("durability.replay"),
                "metadata.insert_ns_per_item" => per_item("metadata.insert"),
                "metadata.query_eq_us" => per_op("metadata.query_eq", twins.eq_queries.len()) / 1e3,
                "metadata.query_and_range_us" => {
                    per_op("metadata.query_and_range", twins.ranged_queries.len()) / 1e3
                }
                "metadata.query_tag_us" => per_op("metadata.query_tag", 16) / 1e3,
                "metadata.scan_ns_per_record" => per_op("metadata.scan", 4 * twins.store.len()),
                "metadata.get_by_name_ns" => per_op("metadata.get_by_name", twins.names.len()),
                "metadata.recover_ns_per_record" => per_item("metadata.recover"),
                "core.ingest_ns_per_item" => whole,
                "core.ladder_sum_ns_per_item" => ladder_sum,
                "core.ladder_residual_share" => 1.0 - ladder_sum / whole,
                "core.ingest_batch_tail_ms" => tail,
                "core.session_get_ns" => per_op("core.session_get", self.gets.len()),
                "core.browser_query_us" => per_op("core.browser_query", self.queries.len()) / 1e3,
                "obs.trace_tax_x" => {
                    self.total_ns("core.ingest_batch.traced") / self.total_ns("core.ingest_batch")
                }
                "obs.telemetry_tax_x" => {
                    self.total_ns("core.ingest_batch")
                        / self.total_ns("core.ingest_batch.no_telemetry")
                }
                "mapreduce.job_s" => self.total_ns("mapreduce.job") / 1e9,
                "mapreduce.map_mb_per_s" => {
                    mb_per_s("mapreduce.job", self.counts["mapreduce.bytes_read"])
                }
                "bench.generate_s" => inputs.generate_s,
                "bench.trace_overhead_x" => {
                    self.total_ns("core.ingest_batch")
                        / self.total_ns("core.ingest_batch.unspanned")
                }
                "bench.turbo_segment_share" => {
                    self.timer.turbo_segments as f64 / self.timer.segments as f64
                }
                "bench.probe_nominal_ratio" => self.timer.probe_nominal_ratio(),
                count => self.counts[count],
            }
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: value(name),
            })
            .collect()
    }
}

/// Runs `passes` per-layer passes, fewer if `go_on` says so after one
/// of them, and returns the per-layer metrics with the spans recorded on
/// the way.
pub fn run(inputs: &Inputs, passes: usize, mut go_on: impl FnMut() -> bool) -> (Outcome, SpanLog) {
    let mut ladder = Ladder::new(inputs);
    let twins = ladder.read_twins();
    let oracle = inputs.items[ladder.dfs_plan().0]
        .iter()
        .fold([0u64; 16], |mut acc, item| {
            for (a, n) in acc.iter_mut().zip(nibble_counts(&item.data)) {
                *a += n;
            }
            acc
        });
    for _ in 0..passes {
        ladder.core_rungs();
        ladder.storage_rungs();
        ladder.adal_rungs("adal.put", "adal.get", false);
        ladder.adal_rungs("adal.put_resilient", "adal.get_resilient", true);
        ladder.front_door_rungs();
        ladder.metadata_write_rungs();
        ladder.wal_rungs();
        ladder.dfs_rungs(&oracle);
        ladder.read_rungs(&twins);
        ladder.pass += 1;
        if !go_on() {
            break;
        }
    }

    let mut info = vec![format!(
        "{} of {passes} passes over the first {} batches ({} items, {} B each); read twins hold all {} items",
        ladder.pass,
        ladder.batches.len(),
        ladder.items.len(),
        inputs.spec.item_bytes,
        inputs.items.len(),
    )];
    info.push("self time by span name (raw wall clock, all passes):".to_string());
    for row in ladder.spans.self_times() {
        info.push(format!(
            "  {:<32} n={:<6} total {:>12.3} ms  self {:>12.3} ms",
            row.name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        ));
    }
    let outcome = Outcome {
        metrics: ladder.metrics(&twins),
        tally: ladder.tally,
        broken: ladder.broken,
        info,
    };
    (outcome, ladder.spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Spec;

    #[test]
    fn ladder_reconciles_by_construction_and_counts_repeat() {
        let _alone = crate::hold_process_counters();
        let inputs = Inputs::generate(Spec::named("daq_events").unwrap().smoke(), 3);
        let (out, spans) = run(&inputs, 2, || true);
        assert!(spans.len() > 0);
        assert!(out.correct(), "{:?} {:?}", out.tally, out.broken);
        let v = |name: &str| out.value(name).unwrap();
        let whole = v("core.ingest_ns_per_item");
        let rebuilt = v("core.ladder_sum_ns_per_item") + v("core.ladder_residual_share") * whole;
        assert!((rebuilt / whole - 1.0).abs() < 1e-9);
        assert_eq!(v("storage.digests_per_item"), 1.0);
        assert_eq!(v("storage.deep_copies_per_item"), 0.0);
        assert_eq!(v("admission.shed_share"), 0.0);
        assert_eq!(v("dfs.stored_bytes_per_user_byte"), 3.0);
    }

    #[test]
    fn nibble_job_oracle_counts_every_byte() {
        let counts = nibble_counts(&[0x00, 0x0f, 0x10, 0xff, 0xf0]);
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[15], 2);
        assert_eq!(counts.iter().sum::<u64>(), 5);
    }
}
