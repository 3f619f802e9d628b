//! Restart-under-chaos soak: the crash-durability contract, end to end.
//!
//! A durable facility (namenode WAL + per-project metadata WALs over
//! one shared [`DurableStore`]) ingests a seeded mixed workload in
//! batches while a [`FaultPlan`] crash schedule kills and restarts the
//! whole facility at virtual times mid-soak. The invariants:
//!
//! * **replay-identical recovery** — at every crash point the DFS
//!   namespace digest and every project catalog digest are
//!   bit-identical before the crash and after recovery;
//! * **zero acked-write loss** — every acknowledged ingest reads back
//!   checksum-clean after every restart (and at the end), and every
//!   registered dataset is still findable in its catalog;
//! * **worker invisibility** — the final obs registry JSON (which
//!   folds in WAL, checkpoint and recovery counters) is bit-identical
//!   at 1, 4 and 8 ingest workers;
//! * the crash schedule actually fired: at least three seeded crash
//!   points land mid-ingest, each replaying a non-trivial log;
//! * **checkpoints cost the delta** — every checkpoint the reconciler
//!   takes, restarts in between or not, writes no more chunks than the
//!   records registered since the previous one touch, plus one;
//! * **a crash at each step of a checkpoint recovers** — new chunks
//!   under the old manifest, the new manifest beside uncollected old
//!   chunks, and a referenced chunk lost (rejected whole, reported, the
//!   surviving log replayed);
//! * **a change is written once** — a catalog log replays to the
//!   digest, the dirty chunks and the record count its live run left
//!   and tells subscribers nothing, and replica sets moved by the
//!   monitor and the balancer at once replay to the namespace they
//!   left.
//!
//! Set `LSDF_RESTART_REPORT=<path>` to write the [`RecoveryReport`]
//! JSON for all crash points, and the chunks written and kept by every
//! checkpoint — CI uploads it as the recovery artifact.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use bytes::Bytes;

use lsdf_chaos::FaultPlan;
use lsdf_core::{BackendChoice, Facility, IngestItem, IngestPolicy, ProjectSpec, RecoveryReport};
use lsdf_dfs::{ClusterTopology, Dfs, DfsConfig, DfsNodeId};
use lsdf_durability::{ComponentDurability, DurabilityConfig, DurableStore};
use lsdf_metadata::{
    DatasetId, Document, FieldType, MetadataEvent, NewDataset, ProjectStore, SchemaBuilder, Value,
};
use lsdf_obs::{names, Registry, TraceCtx};
use lsdf_sim::SimRng;
use lsdf_storage::sha256;

const MS: u64 = 1_000_000;
const BATCHES: u64 = 48;
const ITEMS_PER_BATCH: u64 = 50;
const SEED: u64 = 0xd15c;
/// Records to a checkpoint, and to a checkpoint chunk.
const CHECKPOINT_EVERY: u64 = 192;
/// Every durable log, with the project whose catalog it carries.
const LOGS: [(&str, Option<&str>); 3] =
    [("dfs", None), ("meta-spectro", Some("spectro")), ("meta-imaging", Some("imaging"))];

/// One checkpoint the reconciler took.
#[derive(Debug, PartialEq)]
struct CheckpointRow {
    /// It ran after this batch.
    batch: u64,
    log: &'static str,
    chunks_written: u64,
    chunks_reused: u64,
}

/// `(checkpoints taken, chunks written, chunks kept)` so far on `log`.
fn checkpoint_counts(reg: &Registry, log: &str) -> (u64, u64, u64) {
    let count = |name| reg.counter_value(name, &[("log", log)]);
    (
        count(names::CKPT_TAKEN_TOTAL),
        count(names::CKPT_CHUNKS_WRITTEN_TOTAL),
        count(names::CKPT_CHUNKS_REUSED_TOTAL),
    )
}

/// Two tenants so both durable component families see WAL traffic:
/// a DFS-backed spectrometer project (namenode WAL) and an
/// object-store imaging project (metadata WAL only — the object store
/// itself survives a process crash like a datanode disk does).
fn facility(reg: Arc<Registry>, disk: DurableStore, workers: usize) -> Facility {
    let spectro = SchemaBuilder::new("spectro")
        .required("run", FieldType::Int)
        .build()
        .unwrap();
    let imaging = SchemaBuilder::new("imaging")
        .required("frame", FieldType::Int)
        .build()
        .unwrap();
    Facility::builder()
        .tenant(ProjectSpec::new(spectro, BackendChoice::Dfs))
        .tenant(ProjectSpec::new(
            imaging,
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .cluster(
            ClusterTopology::new(2, 3),
            DfsConfig {
                block_size: 2048,
                replication: 2,
                ..DfsConfig::default()
            },
        )
        .durability(
            disk,
            DurabilityConfig {
                checkpoint_every: CHECKPOINT_EVERY,
                ..DurabilityConfig::default()
            },
        )
        .registry(reg)
        .workers(workers)
        .build()
        .unwrap()
}

/// One seeded batch: alternating DFS / object-store items with valid
/// per-project metadata and write-once keys.
fn batch(seed: u64, b: u64) -> Vec<IngestItem> {
    let mut rng = SimRng::seed_from_u64(seed).stream(&format!("restart-batch-{b}"));
    (0..ITEMS_PER_BATCH)
        .map(|j| {
            let n = b * ITEMS_PER_BATCH + j;
            let (project, field) = if j % 2 == 0 {
                ("spectro", "run")
            } else {
                ("imaging", "frame")
            };
            let len = rng.range_u64(1, 512) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.range_u64(0, 256) as u8).collect();
            let mut doc = Document::new();
            doc.insert(field.to_string(), Value::Int(n as i64));
            IngestItem {
                project: project.to_string(),
                key: format!("{field}/{n:06}"),
                data: Bytes::from(payload),
                metadata: Some(doc),
            }
        })
        .collect()
}

/// Sweeps every acked write (location → payload checksum) through the
/// ADAL and asserts checksum-clean readback; then checks every catalog
/// entry is present with the checksum that was acked.
fn verify_acked(f: &Facility, model: &BTreeMap<String, (String, String)>, when: &str) {
    let admin = f.admin().clone();
    for (location, (key, digest)) in model {
        let data = f
            .adal()
            .get(&admin, location)
            .unwrap_or_else(|e| panic!("acked write {location} lost {when}: {e}"));
        assert_eq!(
            &sha256(&data).to_hex(),
            digest,
            "acked write {location} corrupted {when}"
        );
        let project = location
            .strip_prefix("lsdf://")
            .and_then(|r| r.split('/').next())
            .unwrap();
        let rec = f
            .store(project)
            .unwrap()
            .get_by_name(key)
            .unwrap_or_else(|| panic!("catalog entry {key} lost {when}"));
        assert_eq!(&rec.checksum_hex, digest, "catalog checksum drifted {when}");
    }
}

/// One reconciler sweep, with the delta rule checked on every
/// checkpoint it takes: a catalog checkpoint writes no more chunks than
/// the records registered since its log's previous one touch, plus one.
/// `lens` carries each catalog's length at its last checkpoint.
fn sweep(
    f: &Facility,
    reg: &Registry,
    batch: u64,
    lens: &mut BTreeMap<&'static str, u64>,
    rows: &mut Vec<CheckpointRow>,
) {
    let before = LOGS.map(|(log, _)| checkpoint_counts(reg, log));
    f.run_durability_reconciler();
    for ((log, project), was) in LOGS.into_iter().zip(before) {
        let now = checkpoint_counts(reg, log);
        if now.0 == was.0 {
            continue;
        }
        let (chunks_written, chunks_reused) = (now.1 - was.1, now.2 - was.2);
        match project {
            Some(project) => {
                let len = f.store(project).unwrap().len() as u64;
                let since = lens.insert(log, len).unwrap_or(0);
                let touched = match len > since {
                    true => (len - 1) / CHECKPOINT_EVERY - since / CHECKPOINT_EVERY + 1,
                    false => 0,
                };
                assert!(
                    chunks_written <= touched + 1,
                    "{log} after batch {batch}: {chunks_written} chunks written for records \
                     {since}..{len}, which touch {touched}"
                );
                assert_eq!(chunks_written + chunks_reused, len.div_ceil(CHECKPOINT_EVERY));
            }
            // Path-keyed, with deletes: one chunk, always written.
            None => assert_eq!((chunks_written, chunks_reused), (1, 0)),
        }
        rows.push(CheckpointRow { batch, log, chunks_written, chunks_reused });
    }
}

/// Runs the soak at one pool width and returns the registry JSON (the
/// worker-invisibility witness), the per-crash recovery reports and
/// every checkpoint taken.
fn run_soak_with(seed: u64, workers: usize) -> (String, Vec<RecoveryReport>, Vec<CheckpointRow>) {
    let reg = Arc::new(Registry::new());
    reg.set_virtual_time_ns(1);
    let disk = DurableStore::new();
    let f = facility(reg.clone(), disk, workers);
    let admin = f.admin().clone();

    // Crash schedule in virtual time: three points on batch boundaries
    // plus one between boundaries (fires at the next poll) — each
    // lands mid-ingest with unreplayed WAL tail on at least one log.
    let plan = FaultPlan::quiet(seed)
        .crash_at(1 + 9 * MS, seed ^ 0x01)
        .crash_at(1 + 21 * MS, seed ^ 0x02)
        .crash_at(30 * MS + 500, seed ^ 0x03)
        .crash_at(1 + 41 * MS, seed ^ 0x04);

    // Every ACKED ingest: location → (key, payload sha256 hex).
    let mut model: BTreeMap<String, (String, String)> = BTreeMap::new();
    let mut reports = Vec::new();
    let (mut lens, mut checkpoints) = (BTreeMap::new(), Vec::new());
    let mut last_poll = 0u64;
    for b in 0..BATCHES {
        let now = 1 + b * MS;
        reg.set_virtual_time_ns(now);
        let items = batch(seed, b);
        for item in &items {
            model.insert(
                format!("lsdf://{}/{}", item.project, item.key),
                (item.key.clone(), sha256(&item.data).to_hex()),
            );
        }
        let report = f.ingest_batch(&admin, items, IngestPolicy::default());
        assert_eq!(
            report.registered, ITEMS_PER_BATCH,
            "batch {b} did not fully register: {report:?}"
        );
        sweep(&f, &reg, b, &mut lens, &mut checkpoints);
        for cp in plan.crashes_due(last_poll, now) {
            // The crash lands between `commit_staged` and
            // `insert_batch`: one object per project is committed to
            // storage (through the namenode WAL for the DFS mount) and
            // the catalog never hears of it.
            let orphans = ["spectro", "imaging"].map(|p| format!("lsdf://{p}/orphan/{}", cp.at_ns));
            let staged = orphans
                .iter()
                .map(|path| {
                    f.adal()
                        .put_stage_traced(&TraceCtx::disabled(), &admin, path, Bytes::from_static(b"never acked"))
                        .expect("staging an orphan")
                })
                .collect();
            assert!(f.adal().commit_staged(staged).iter().all(Result::is_ok));
            let dfs_digest = f.dfs().namespace_digest();
            let spectro_digest = f.store("spectro").unwrap().catalog_digest();
            let imaging_digest = f.store("imaging").unwrap().catalog_digest();
            let report = f.crash_restart(cp.seed);
            assert_eq!(
                report.components.len(),
                3,
                "dfs + two metadata stores recover at {}", cp.at_ns
            );
            assert_eq!(f.dfs().namespace_digest(), dfs_digest, "namenode replay drifted");
            assert_eq!(
                f.store("spectro").unwrap().catalog_digest(),
                spectro_digest,
                "spectro catalog replay drifted"
            );
            assert_eq!(
                f.store("imaging").unwrap().catalog_digest(),
                imaging_digest,
                "imaging catalog replay drifted"
            );
            verify_acked(&f, &model, &format!("after crash at {}ns", cp.at_ns));
            // Storage kept what it committed; the catalogs (digests
            // above) hold exactly what was acked — no half-registered
            // entry for bytes whose ingest never completed.
            for (project, path) in ["spectro", "imaging"].iter().zip(&orphans) {
                assert!(f.adal().get(&admin, path).is_ok(), "{path} was committed");
                let key = format!("orphan/{}", cp.at_ns);
                assert!(f.store(project).unwrap().get_by_name(&key).is_none());
            }
            reports.push(report);
        }
        last_poll = now;
    }
    assert!(
        reports.len() >= 3,
        "crash schedule must fire at least 3 points mid-soak, fired {}",
        reports.len()
    );
    // Every restart did real recovery work on every component: either
    // a checkpoint base was installed or a WAL tail was replayed (both,
    // usually). And across the soak the WALs carried real traffic.
    for (i, r) in reports.iter().enumerate() {
        for c in &r.components {
            assert!(
                c.stats.snapshot_loaded || c.stats.replayed > 0,
                "crash {i}: component {} recovered from nothing: {r:?}",
                c.component
            );
        }
    }
    assert!(
        reports.iter().map(RecoveryReport::total_replayed).sum::<u64>() > 0,
        "no WAL records replayed across the whole soak"
    );
    verify_acked(&f, &model, "at end of soak");
    // Batched WAL group commit: every N-file batch commit on the
    // namenode WAL, and every N-dataset catalog commit on a metadata
    // WAL, shares ONE accounted fsync. The per-record path charges one
    // fsync per eight records (the WAL's `GROUP_COMMIT`), so the batched path
    // must beat that floor outright across the soak, on every log.
    for log in ["dfs", "meta-spectro", "meta-imaging"] {
        let appends = reg.counter_value(names::WAL_APPENDS_TOTAL, &[("log", log)]);
        let fsyncs = reg.counter_value(names::WAL_FSYNCS_TOTAL, &[("log", log)]);
        assert!(appends > 0, "{log} WAL saw no traffic");
        assert!(
            fsyncs > 0 && fsyncs * 8 < appends,
            "batched commit did not amortize fsyncs on {log}: {fsyncs} fsyncs for {appends} \
             appends (per-record group commit would charge ~{})",
            appends / 8
        );
    }
    // Both catalogs outgrew one chunk and checkpointed past it, so the
    // rule above was tested where a whole rewrite would break it.
    for (log, _) in &LOGS[1..] {
        let reused: u64 = checkpoints.iter().filter(|c| c.log == *log).map(|c| c.chunks_reused).sum();
        assert!(reused > 0, "{log} never kept a chunk: {checkpoints:?}");
    }
    (reg.to_json(), reports, checkpoints)
}

#[test]
fn restart_soak_survives_seeded_crashes_and_is_worker_invariant() {
    let (serial_json, serial_reports, serial_checkpoints) = run_soak_with(SEED, 1);
    assert_eq!(serial_reports.len(), 4, "all four scheduled points fired");
    for workers in [4usize, 8] {
        let (json, reports, checkpoints) = run_soak_with(SEED, workers);
        assert_eq!(reports.len(), serial_reports.len());
        assert_eq!(checkpoints, serial_checkpoints, "checkpoints drifted at workers={workers}");
        assert_eq!(
            serial_json, json,
            "registry JSON drifted at workers={workers}"
        );
    }
    // CI artifact: the per-crash recovery reports and the per-checkpoint
    // chunk counts from the serial run.
    // Relative paths are resolved against the workspace root (cargo
    // runs integration tests with the package dir as CWD).
    if let Ok(path) = std::env::var("LSDF_RESTART_REPORT") {
        let p = std::path::PathBuf::from(&path);
        let p = if p.is_absolute() {
            p
        } else {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("integration crate lives two levels under the workspace root")
                .join(p)
        };
        if let Some(dir) = p.parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        }
        let recoveries: Vec<String> = serial_reports.iter().map(RecoveryReport::to_json).collect();
        let checkpoints: Vec<String> = serial_checkpoints
            .iter()
            .map(|c| {
                format!(
                    "  {{\"after_batch\": {}, \"log\": \"{}\", \"chunks_written\": {}, \"chunks_reused\": {}}}",
                    c.batch, c.log, c.chunks_written, c.chunks_reused
                )
            })
            .collect();
        let body = format!(
            "{{\"recoveries\": [\n{}\n],\n\"checkpoints\": [\n{}\n]}}\n",
            recoveries.join(",\n"),
            checkpoints.join(",\n")
        );
        std::fs::write(&p, body)
            .unwrap_or_else(|e| panic!("writing recovery report {}: {e}", p.display()));
    }
}

#[test]
fn torn_wal_tail_never_loses_acked_writes() {
    // A focused variant: crash with a seed chosen per restart so the
    // torn-tail injection exercises different byte offsets; acked data
    // must survive every one.
    let reg = Arc::new(Registry::new());
    reg.set_virtual_time_ns(1);
    let disk = DurableStore::new();
    let f = facility(reg, disk, 1);
    let admin = f.admin().clone();
    let mut model: BTreeMap<String, (String, String)> = BTreeMap::new();
    for round in 0..6u64 {
        let items = batch(SEED ^ round, round);
        for item in &items {
            model.insert(
                format!("lsdf://{}/{}", item.project, item.key),
                (item.key.clone(), sha256(&item.data).to_hex()),
            );
        }
        let report = f.ingest_batch(&admin, items, IngestPolicy::default());
        assert_eq!(report.registered, ITEMS_PER_BATCH);
        let report = f.crash_restart(0x7e57 ^ round);
        assert!(report.total_torn_tails() >= 1, "round {round} tore no tail");
        verify_acked(&f, &model, &format!("after torn restart {round}"));
    }
}

/// Every device's durable bytes, by name.
fn image(disk: &DurableStore) -> BTreeMap<String, Vec<u8>> {
    let read = |name: String| disk.get(&name).map(|dev| (name, dev.read()));
    disk.names().into_iter().filter_map(read).collect()
}

#[test]
fn a_crash_at_each_step_of_a_checkpoint_recovers() {
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Crash {
        /// The new chunks are down; the manifest still names the old ones.
        NewChunksOldManifest,
        /// The manifest moved; old chunks and segments are still there.
        NewManifestOldChunks,
        /// The checkpoint landed, and later a chunk it names was lost.
        ChunkLost,
    }
    for crash in [Crash::NewChunksOldManifest, Crash::NewManifestOldChunks, Crash::ChunkLost] {
        let reg = Arc::new(Registry::new());
        reg.set_virtual_time_ns(1);
        let disk = DurableStore::new();
        let f = facility(reg.clone(), disk.clone(), 1);
        let admin = f.admin().clone();
        let mut model: BTreeMap<String, (String, String)> = BTreeMap::new();
        let ingest = |model: &mut BTreeMap<String, (String, String)>, b: u64| {
            let items = batch(SEED, b);
            for item in &items {
                model.insert(
                    format!("lsdf://{}/{}", item.project, item.key),
                    (item.key.clone(), sha256(&item.data).to_hex()),
                );
            }
            let report = f.ingest_batch(&admin, items, IngestPolicy::default());
            assert_eq!(report.registered, ITEMS_PER_BATCH);
        };
        // 25 records a batch on every log: a first checkpoint after
        // batch 7 (200 records, two chunks), the second due after 15.
        for b in 0..16 {
            ingest(&mut model, b);
            if b < 15 {
                f.run_durability_reconciler();
            }
        }
        let taken = |log| checkpoint_counts(&reg, log);
        assert_eq!(LOGS.map(|(log, _)| taken(log).0), [1, 1, 1], "{crash:?}");
        // The second checkpoint of every log runs to completion; the
        // crash state is then composed from the disk before and after.
        let before = image(&disk);
        assert_eq!(f.run_durability_reconciler(), 3);
        for (log, project) in LOGS {
            let written = taken(log).1 - if project.is_some() { 2 } else { 1 };
            assert_eq!(written, if project.is_some() { 2 } else { 1 }, "{log}: grown tail + new tail");
        }
        let after = image(&disk);
        let collected = |name: &&String| !after.contains_key(*name);
        assert!(before.keys().filter(collected).count() >= 6, "a chunk and a segment per log");
        match crash {
            Crash::NewChunksOldManifest => {
                for (name, bytes) in &before {
                    if name.ends_with("-manifest") || !after.contains_key(name) {
                        disk.open(name).set(bytes.clone());
                    }
                }
            }
            Crash::NewManifestOldChunks => {
                for (name, bytes) in before.iter().filter(|(name, _)| collected(name)) {
                    disk.open(name).set(bytes.clone());
                }
            }
            Crash::ChunkLost => {
                // Acked after the checkpoint: the surviving log suffix.
                ingest(&mut model, 16);
                let chunks = disk.names_with_prefix("meta-imaging-ckpt-");
                assert_eq!(chunks.len(), 3);
                assert!(disk.remove(&chunks[1]));
            }
        }
        let digests = || {
            [
                f.dfs().namespace_digest(),
                f.store("spectro").unwrap().catalog_digest(),
                f.store("imaging").unwrap().catalog_digest(),
            ]
        };
        let expected = digests();
        let report = f.crash_restart(SEED ^ 0x05);
        let rejected: Vec<&str> = report
            .components
            .iter()
            .filter(|c| c.stats.checkpoint_rejected)
            .map(|c| c.component.as_str())
            .collect();
        let imaging = f.store("imaging").unwrap();
        if crash == Crash::ChunkLost {
            assert_eq!(rejected, ["meta-imaging"]);
            assert_eq!(taken("meta-imaging").0, 2);
            let counted = reg.counter_value(names::CKPT_REJECTED_TOTAL, &[("log", "meta-imaging")]);
            assert_eq!(counted, 1);
            assert!(
                f.operator_report().contains("REJECTED at recovery: ckpt_rejected_total{log=meta-imaging} = 1"),
                "{}",
                f.operator_report()
            );
            // The other two components are whole; the imaging catalog
            // holds exactly what its log held since the checkpoint.
            assert_eq!(digests()[..2], expected[..2]);
            let names: Vec<String> = imaging.all().into_iter().map(|r| r.name.clone()).collect();
            let logged: Vec<String> = batch(SEED, 16)
                .into_iter()
                .filter(|item| item.project == "imaging")
                .map(|item| item.key)
                .collect();
            assert_eq!(names, logged);
            // And it checkpoints whole from there, keeping nothing of
            // what was rejected.
            assert_eq!(imaging.checkpoint(), Some(1));
            assert_eq!(disk.names_with_prefix("meta-imaging-ckpt-").len(), 1);
            continue;
        }
        assert!(rejected.is_empty() && report.components.iter().all(|c| c.stats.snapshot_loaded), "{report:?}");
        assert_eq!(digests(), expected, "{crash:?}");
        verify_acked(&f, &model, &format!("after {crash:?}"));
        // The log replays over the old checkpoint and not over the new.
        let replayed = report.components.iter().map(|c| c.stats.replayed).collect::<Vec<_>>();
        match crash {
            Crash::NewChunksOldManifest => assert_eq!(replayed, [200, 200, 200]),
            _ => assert_eq!(replayed, [0, 0, 0]),
        }
        // The next checkpoint writes what the old manifest lacks, or
        // nothing, and either way leaves exactly the three live chunks.
        let expect = if crash == Crash::NewChunksOldManifest { 2 } else { 0 };
        assert_eq!(imaging.checkpoint(), Some(expect), "{crash:?}");
        assert_eq!(disk.names_with_prefix("meta-imaging-ckpt-").len(), 3, "{crash:?}");
        assert_eq!(disk.names_with_prefix("meta-imaging-wal-").len(), 1, "{crash:?}");
        ingest(&mut model, 16);
        f.crash_restart(SEED ^ 0x06);
        verify_acked(&f, &model, &format!("after {crash:?} and one more restart"));
    }
}

// --- The single write ------------------------------------------------
//
// A live mutation and a replayed one run the same routine
// (`StoreState::apply`; `Dfs::commit_replicas` logs inside the block's
// stripe). The two tests below pin what that buys: a log replays to the
// state, the dirty chunks and the record count the live run left, and
// says nothing to subscribers while it does.

/// A durable catalog of its own on `disk`, chunks of four, counting the
/// events it emits as `[inserted, tagged, untagged, processing added]`.
fn counted_catalog(disk: &DurableStore) -> (ProjectStore, Arc<[AtomicU64; 4]>) {
    let reg = Arc::new(Registry::new());
    let cfg = DurabilityConfig { checkpoint_every: 4, ..DurabilityConfig::default() };
    let schema = SchemaBuilder::new("twin").required("n", FieldType::Int).build().unwrap();
    let durability = ComponentDurability::open(disk, "meta-twin", &reg, &cfg);
    let store = ProjectStore::with_durability(schema, Some(durability));
    let events: Arc<[AtomicU64; 4]> = Arc::default();
    let seen = events.clone();
    store.subscribe(Arc::new(move |event| {
        let kind = match event {
            MetadataEvent::Inserted { .. } => 0,
            MetadataEvent::Tagged { .. } => 1,
            MetadataEvent::Untagged { .. } => 2,
            MetadataEvent::ProcessingAdded { .. } => 3,
        };
        seen[kind].fetch_add(1, Ordering::Relaxed);
    }));
    (store, events)
}

/// What a seeded mix of catalog writes should have told subscribers.
#[derive(Default)]
struct MixModel {
    tags: Vec<BTreeSet<&'static str>>,
    /// `[inserted, tagged, untagged, processing added]`.
    events: [u64; 4],
}

/// Runs `ops` seeded writes — insert, tag, the same tag again, untag
/// (present or not), append_processing — against `store` and `model`.
fn catalog_mix(store: &ProjectStore, model: &mut MixModel, rng: &mut SimRng, ops: usize) {
    const TAGS: [&str; 3] = ["raw", "needs-processing", "published"];
    for _ in 0..ops {
        let n = model.tags.len();
        let id = DatasetId(rng.index(n.max(1)) as u64);
        let tag = TAGS[rng.index(TAGS.len())];
        // An empty catalog can only grow.
        match if n == 0 { 0 } else { rng.index(5) } {
            0 => {
                model.tags.push(BTreeSet::new());
                model.events[0] += 1;
                let new = NewDataset {
                    name: format!("d-{n:04}"),
                    location: format!("lsdf://twin/d-{n:04}"),
                    size_bytes: n as u64,
                    checksum_hex: String::new(),
                    basic: [("n".to_string(), Value::Int(n as i64))].into_iter().collect(),
                };
                store.insert(new).unwrap();
            }
            1 | 2 => {
                model.events[1] += u64::from(model.tags[id.0 as usize].insert(tag));
                store.tag(id, tag).unwrap();
                // Present now, whichever call added it: no second event.
                store.tag(id, tag).unwrap();
            }
            3 => {
                model.events[2] += u64::from(model.tags[id.0 as usize].remove(tag));
                store.untag(id, tag).unwrap();
            }
            _ => {
                model.events[3] += 1;
                let results = [("cells".to_string(), Value::Int(n as i64))].into_iter().collect();
                store.append_processing(id, "seg", Document::new(), results, vec![]).unwrap();
            }
        }
    }
}

#[test]
fn a_replayed_catalog_log_leaves_what_the_live_run_left() {
    assert!(lsdf_sync::witness_enabled(), "runs witness-armed");
    let counts = |events: &[AtomicU64; 4]| [0, 1, 2, 3].map(|k| events[k].load(Ordering::Relaxed));
    for checkpoint_midway in [false, true] {
        // Twins fed the same writes on a disk each; only one will crash.
        let (live_disk, crashed_disk) = (DurableStore::new(), DurableStore::new());
        let (live, live_events) = counted_catalog(&live_disk);
        let (crashed, crashed_events) = counted_catalog(&crashed_disk);
        let mut logged_since_checkpoint = 0;
        for (store, events) in [(&live, &live_events), (&crashed, &crashed_events)] {
            let mut rng = SimRng::seed_from_u64(SEED).stream("catalog-mix");
            let mut model = MixModel::default();
            catalog_mix(store, &mut model, &mut rng, 120);
            let before: u64 = model.events.iter().sum();
            if checkpoint_midway {
                assert!(store.checkpoint().is_some());
            }
            catalog_mix(store, &mut model, &mut rng, 120);
            // One event per insert, first tag, removal and append; none
            // for a tag already there or an untag of nothing.
            assert_eq!(counts(events), model.events);
            assert!(model.events.iter().all(|&n| n > 0), "{:?}", model.events);
            // And one WAL record per event: what changed nothing is
            // not logged.
            let all: u64 = model.events.iter().sum();
            logged_since_checkpoint = if checkpoint_midway { all - before } else { all };
        }
        let told = counts(&crashed_events);
        crashed.crash(SEED);
        let stats = crashed.recover();
        assert_eq!(stats.snapshot_loaded, checkpoint_midway);
        assert_eq!((stats.replayed, stats.skipped), (logged_since_checkpoint, 0));
        assert_eq!(counts(&crashed_events), told, "replay is not news");
        assert_eq!(crashed.catalog_digest(), live.catalog_digest());
        assert_eq!(crashed.all(), live.all());
        // The same chunks are dirty on both sides: the next checkpoint
        // writes as many, and leaves the same content-addressed set.
        let written = live.checkpoint();
        assert!(written.is_some_and(|chunks| chunks > 0));
        assert_eq!(crashed.checkpoint(), written, "midway checkpoint: {checkpoint_midway}");
        let chunks = |disk: &DurableStore| disk.names_with_prefix("meta-twin-ckpt-");
        assert_eq!(chunks(&crashed_disk), chunks(&live_disk));
        assert_eq!(chunks(&live_disk).len(), live.len().div_ceil(4));
    }
}

#[test]
fn concurrent_replica_moves_replay_to_the_namespace_they_left() {
    assert!(lsdf_sync::witness_enabled(), "runs witness-armed");
    let mut total_moved = 0;
    for seed in 0..16u64 {
        let reg = Arc::new(Registry::new());
        let disk = DurableStore::new();
        let durability =
            ComponentDurability::open(&disk, "dfs", &reg, &DurabilityConfig::default());
        let config = DfsConfig { block_size: 64, replication: 2, seed, ..DfsConfig::default() };
        let dfs = Dfs::with_durability(ClusterTopology::new(2, 3), config, reg, Some(durability));
        // Every first replica on node 0 and every second on the other
        // rack: the balancer has blocks to move off node 0, and
        // killing a node of the other rack gives the monitor some of
        // the same blocks to repair.
        for i in 0..12 {
            dfs.write(&format!("/f{i}"), &vec![i as u8; 100 + 30 * i], Some(DfsNodeId(0))).unwrap();
        }
        dfs.kill_node(DfsNodeId(3 + (seed % 3) as u32));
        assert!(!dfs.under_replicated().is_empty(), "seed {seed}");
        let start = Barrier::new(2);
        let (repaired, moved) = std::thread::scope(|s| {
            let monitor = s.spawn(|| {
                start.wait();
                dfs.re_replicate(&TraceCtx::disabled())
            });
            start.wait();
            let moved = dfs.rebalance(0.1);
            (monitor.join().expect("monitor thread panicked"), moved)
        });
        // How far the balancer gets before a move collides with a
        // repair is the scheduler's business; that both ran is not.
        assert!(repaired > 0, "seed {seed}");
        total_moved += moved;
        // Each replica set was logged under the stripe lock it changed
        // under, so the last record of a block is its last state.
        let digest = dfs.namespace_digest();
        dfs.crash(seed);
        let stats = dfs.recover();
        assert!(!stats.snapshot_loaded && stats.replayed > 0, "seed {seed}: {stats:?}");
        assert_eq!(dfs.namespace_digest(), digest, "seed {seed}");
    }
    assert!(total_moved > 0, "the balancer never moved a block");
}
