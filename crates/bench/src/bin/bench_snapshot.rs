//! `bench_snapshot` — machine-readable throughput baselines.
//!
//! Emits `BENCH_E1.json` (parallel ingest pipeline: ops/s, bytes/s,
//! latency p50/p99 from the obs registry, per worker count, with and
//! without the crash-durability WAL), `BENCH_E3.json` (PB transfer
//! flow: simulated days, effective rate, ADAL op latency quantiles),
//! `BENCH_TRACE.json` (the same ingest workload with causal tracing
//! off / sampled / full, measuring the tracing tax), and
//! `BENCH_RECOVERY.json` (namenode kill-and-restart: recovery wall
//! time vs namespace size up to one million files) at the workspace
//! root. The committed copies are the regression baseline; CI runs
//! `--check`, which re-measures quick-mode E1 (failing when throughput
//! falls below half the committed figure), re-measures the tracing tax
//! (failing when full tracing costs more than 2x the untraced run),
//! bounds the telemetry scrape tax at 1.2x on the batched workload,
//! bounds the WAL ingest tax at 1.5x, and re-runs a reduced recovery
//! (failing when the replay rate falls below a quarter of the
//! committed 100k-file row, or when the committed file has lost its
//! million-file row). The two absolute gates (E1 ops/s floor, recovery
//! replay rate) apply only when this host hashes with the SHA-256
//! kernel the baseline recorded (`sha256_kernel`); the ratio gates
//! compare two runs on this host and always apply.
//!
//! Usage:
//!   bench_snapshot [--quick|--full]   write the snapshot files
//!   bench_snapshot --check            compare against committed E1 +
//!                                     assert the tracing-overhead bound
//!
//! Wall-clock numbers are machine-dependent by nature; every snapshot
//! embeds `cores` (detected parallelism) so readers can judge how much
//! pool speedup the host could physically express. On a single-core
//! host workers > 1 cannot beat serial — the interesting regression
//! signal is the serial ops/s and the absence of parallel *slowdown*
//! beyond lock overhead.

#![allow(clippy::print_stdout)] // binaries report to stdout by design

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use lsdf_adal::Credential;
use lsdf_core::prelude::QuotaSpec;
use lsdf_core::{BackendChoice, Facility, IngestItem, IngestPolicy, ProjectSpec};
use lsdf_dfs::{ClusterTopology, Dfs, DfsConfig};
use lsdf_durability::{ComponentDurability, DurabilityConfig, DurableStore};
use lsdf_metadata::zebrafish_schema;
use lsdf_obs::Registry;
use lsdf_net::units::{PB, TEN_GBIT};
use lsdf_net::{lsdf, NetSim, TransferModel};
use lsdf_obs::{names, TelemetryConfig, TraceConfig};
use lsdf_sim::Simulation;
use lsdf_storage::sha256_kernel;
use lsdf_workloads::microscopy::HtmGenerator;

// Serial first: the committed file's first ops_per_s entry is the
// smoke check's serial floor.
const E1_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn workspace_root() -> PathBuf {
    // crates/bench -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the workspace root")
        .to_path_buf()
}

fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

struct E1Run {
    workers: usize,
    admission: &'static str,
    durability: &'static str,
    ops_per_s: f64,
    bytes_per_s: f64,
    p50_ns: u64,
    p99_ns: u64,
}

/// A finite per-project quota sized to admit the whole bench batch:
/// the admission front door runs its full token-bucket accounting on
/// every item without shedding any, so the row prices the admission
/// overhead rather than the shed path.
fn bench_quota() -> QuotaSpec {
    QuotaSpec::per_second(1_000_000, 1 << 40)
}

fn e1_items(n_fish: usize, edge: u32) -> Vec<IngestItem> {
    let mut gen = HtmGenerator::new(1, edge);
    let mut items = Vec::new();
    for _ in 0..n_fish {
        for (acq, img) in gen.next_fish() {
            items.push(IngestItem {
                project: "zebrafish-htm".into(),
                key: acq.key(),
                data: img.encode(),
                metadata: Some(acq.document()),
            });
        }
    }
    items
}

fn e1_run(workers: usize, n_fish: usize, edge: u32, quota: Option<QuotaSpec>, wal: bool) -> E1Run {
    let admission = if quota.is_some() { "quota" } else { "unlimited" };
    let mut spec = ProjectSpec::new(
        zebrafish_schema(),
        BackendChoice::ObjectStore { capacity: u64::MAX },
    );
    if let Some(q) = quota {
        spec = spec.quota(q);
    }
    let mut builder = Facility::builder().tenant(spec).workers(workers);
    if wal {
        // Full crash durability: every registered dataset commits a
        // metadata WAL record before the ack.
        builder = builder.durability(DurableStore::new(), DurabilityConfig::default());
    }
    let f = builder.build().expect("facility assembles");
    let admin = f.admin().clone();
    let items = e1_items(n_fish, edge);
    let n = items.len() as f64;
    let total_bytes: u64 = items.iter().map(|i| i.data.len() as u64).sum();
    let t = Instant::now();
    let report = f.ingest_batch(&admin, items, IngestPolicy::default());
    let wall = t.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(report.registered as f64, n, "bench batch must fully register");
    let lat = f.obs().histogram(names::FACILITY_INGEST_LATENCY_NS, &[]);
    E1Run {
        workers,
        admission,
        durability: if wal { "wal" } else { "off" },
        ops_per_s: n / wall,
        bytes_per_s: total_bytes as f64 / wall,
        p50_ns: lat.quantile(0.50),
        p99_ns: lat.quantile(0.99),
    }
}

fn e1_json(mode: &str, runs: &[E1Run]) -> String {
    let serial = runs
        .iter()
        .find(|r| r.workers == 1 && r.durability == "off")
        .expect("serial run present");
    let four = runs
        .iter()
        .find(|r| r.workers == 4 && r.admission == "unlimited" && r.durability == "off");
    let speedup = four.map(|r| r.ops_per_s / serial.ops_per_s.max(1e-9));
    let four_admitted = runs
        .iter()
        .find(|r| r.workers == 4 && r.admission == "quota");
    let serial_wal = runs
        .iter()
        .find(|r| r.workers == 1 && r.durability == "wal");
    let wal_overhead = serial_wal.map(|r| serial.ops_per_s / r.ops_per_s.max(1e-9));
    let admission_overhead = match (four, four_admitted) {
        (Some(base), Some(adm)) => Some(base.ops_per_s / adm.ops_per_s.max(1e-9)),
        _ => None,
    };
    let cores = detected_cores();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"E1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!("  \"sha256_kernel\": \"{}\",\n", sha256_kernel()));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"admission\": \"{}\", \"durability\": \"{}\", \
             \"ops_per_s\": {:.1}, \
             \"bytes_per_s\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
            r.workers,
            r.admission,
            r.durability,
            r.ops_per_s,
            r.bytes_per_s,
            r.p50_ns,
            r.p99_ns,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    // Per-worker-count scaling curve (unlimited, no WAL), speedup vs
    // the serial row: the zero-copy batched path's headline artifact.
    out.push_str("  \"scaling\": {");
    let mut first = true;
    for r in runs
        .iter()
        .filter(|r| r.admission == "unlimited" && r.durability == "off")
    {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!(
            "\"{}\": {:.3}",
            r.workers,
            r.ops_per_s / serial.ops_per_s.max(1e-9)
        ));
    }
    out.push_str("},\n");
    out.push_str(&format!(
        "  \"speedup_4w\": {},\n",
        speedup.map_or("null".to_string(), |s| format!("{s:.3}"))
    ));
    out.push_str(&format!(
        "  \"admission_overhead_4w\": {},\n",
        admission_overhead.map_or("null".to_string(), |s| format!("{s:.3}"))
    ));
    out.push_str(&format!(
        "  \"wal_overhead_1w\": {},\n",
        wal_overhead.map_or("null".to_string(), |s| format!("{s:.3}"))
    ));
    // Keep the trajectory honest: on a single-core host a sub-1.0
    // speedup is pool overhead, not an ingest regression.
    let note = if cores == 1 {
        "Measured on a 1-core host: workers > 1 cannot beat serial here, so \
         speedup_4w < 1.0 reflects pool coordination overhead, not an ingest \
         regression; the enforced signal is the serial ops/s floor. The \
         admission=quota row runs the same batch through a finite token-bucket \
         quota sized to admit everything, pricing the admission front door. The \
         durability=wal row commits every registered dataset to the metadata \
         write-ahead log before the ack; wal_overhead_1w is its serial tax \
         (CI bounds it at 1.5x)."
    } else {
        "speedup_4w compares the unlimited rows; the admission=quota row runs \
         the same batch through a finite token-bucket quota sized to admit \
         everything, pricing the admission front door. The durability=wal row \
         commits every registered dataset to the metadata write-ahead log \
         before the ack; wal_overhead_1w is its serial tax (CI bounds it at \
         1.5x)."
    };
    out.push_str(&format!("  \"note\": \"{note}\"\n"));
    out.push_str("}\n");
    out
}

fn e3_json(mode: &str) -> String {
    // Flow-level simulation of one petabyte Karlsruhe -> Heidelberg at
    // the paper's measured 62 % link efficiency.
    let net = lsdf::build(1).expect("lsdf net builds");
    let sim_net = NetSim::with_efficiency(net.topology.clone(), 0.62);
    let mut sim = Simulation::new();
    sim_net
        .start_flow(&mut sim, net.storage_ibm, net.heidelberg, PB, |_, _| {})
        .expect("route");
    let end = sim.run();
    let sim_days = end.as_nanos() as f64 / 1e9 / 86_400.0;
    let analytic_days = TransferModel::with_efficiency(TEN_GBIT, 0.62).days_for_bytes(PB);

    // ADAL op latency under a small wall-clocked put/get burst.
    let ops = if mode == "full" { 2_000u64 } else { 400 };
    let f = Facility::builder()
        .tenant(ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .build()
        .expect("facility assembles");
    let admin: Credential = f.admin().clone();
    let payload = Bytes::from(vec![0xA5u8; 4096]);
    let t = Instant::now();
    for i in 0..ops {
        let path = format!("lsdf://zebrafish-htm/e3/{i:06}");
        f.adal()
            .put(&admin, &path, payload.clone())
            .expect("bench put");
        let _ = f.adal().get(&admin, &path).expect("bench get");
    }
    let wall = t.elapsed().as_secs_f64().max(1e-9);
    let put_lat = f.obs().histogram(names::ADAL_OP_LATENCY_NS, &[("op", "put")]);
    let get_lat = f.obs().histogram(names::ADAL_OP_LATENCY_NS, &[("op", "get")]);
    format!(
        "{{\n  \"experiment\": \"E3\",\n  \"mode\": \"{mode}\",\n  \"cores\": {},\n  \
         \"pb_flow_sim_days\": {sim_days:.3},\n  \"pb_flow_analytic_days\": {analytic_days:.3},\n  \
         \"adal_ops\": {},\n  \"adal_ops_per_s\": {:.1},\n  \
         \"adal_put_p50_ns\": {},\n  \"adal_put_p99_ns\": {},\n  \
         \"adal_get_p50_ns\": {},\n  \"adal_get_p99_ns\": {}\n}}\n",
        detected_cores(),
        ops * 2,
        (ops * 2) as f64 / wall,
        put_lat.quantile(0.50),
        put_lat.quantile(0.99),
        get_lat.quantile(0.50),
        get_lat.quantile(0.99),
    )
}

const RECOVERY_FILE_COUNTS: [u64; 3] = [10_000, 100_000, 1_000_000];

struct RecoveryRun {
    n_files: u64,
    write_s: f64,
    recover_ms: f64,
    replayed: u64,
    snapshot_loaded: bool,
    wal_mb: f64,
}

/// Kill-and-restart a durable namenode carrying `n_files` single-block
/// files. A checkpoint is taken at the halfway mark, so recovery is
/// the steady-state shape: install the checkpoint, replay the back
/// half of the WAL. Asserts bit-identical recovery before reporting.
fn recovery_run(n_files: u64) -> RecoveryRun {
    let reg = Arc::new(Registry::new());
    let disk = DurableStore::new();
    let cfg = DurabilityConfig::default();
    let dfs = Dfs::with_durability(
        ClusterTopology::new(2, 4),
        DfsConfig {
            block_size: 4096,
            replication: 2,
            ..DfsConfig::default()
        },
        reg.clone(),
        Some(ComponentDurability::open(&disk, "dfs", &reg, &cfg)),
    );
    let payload = [0xA5u8; 64];
    let t = Instant::now();
    for i in 0..n_files {
        dfs.write(&format!("/bench/{i:07}"), &payload, None)
            .expect("bench write");
        if i == n_files / 2 {
            dfs.checkpoint();
        }
    }
    let write_s = t.elapsed().as_secs_f64();
    let digest = dfs.namespace_digest();
    let wal_mb = disk.durable_bytes() as f64 / 1e6;
    dfs.crash(n_files ^ 0x5bd1e995);
    let t = Instant::now();
    let stats = dfs.recover();
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        dfs.namespace_digest(),
        digest,
        "recovery must be bit-identical at n_files={n_files}"
    );
    RecoveryRun {
        n_files,
        write_s,
        recover_ms,
        replayed: stats.replayed,
        snapshot_loaded: stats.snapshot_loaded,
        wal_mb,
    }
}

fn recovery_json(mode: &str, runs: &[RecoveryRun]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"recovery\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"cores\": {},\n", detected_cores()));
    out.push_str(&format!("  \"sha256_kernel\": \"{}\",\n", sha256_kernel()));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let per_record_ns = if r.replayed > 0 {
            r.recover_ms * 1e6 / r.replayed as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "    {{\"n_files\": {}, \"write_s\": {:.3}, \"recover_ms\": {:.3}, \
             \"replayed\": {}, \"replay_ns_per_record\": {:.1}, \
             \"snapshot_loaded\": {}, \"wal_mb\": {:.1}}}{}\n",
            r.n_files,
            r.write_s,
            r.recover_ms,
            r.replayed,
            per_record_ns,
            r.snapshot_loaded,
            r.wal_mb,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(
        "  \"note\": \"Namenode kill-and-restart: single-block files, checkpoint at the \
         halfway mark, so each row recovers by installing the checkpoint and replaying \
         the back half of the WAL. recover_ms is wall time of Dfs::recover(); recovery \
         is asserted bit-identical (namespace digest) before the row is reported.\"\n",
    );
    out.push_str("}\n");
    out
}

struct TraceRun {
    tracing: &'static str,
    ops_per_s: f64,
    traces_retained: u64,
}

/// One ingest run of the E1 workload under the given tracing mode.
fn trace_run(
    tracing: &'static str,
    config: Option<TraceConfig>,
    n_fish: usize,
    edge: u32,
) -> TraceRun {
    let mut builder = Facility::builder().tenant(ProjectSpec::new(
        zebrafish_schema(),
        BackendChoice::ObjectStore { capacity: u64::MAX },
    ));
    if let Some(cfg) = config {
        builder = builder.tracing(cfg);
    }
    let f = builder.build().expect("facility assembles");
    let admin = f.admin().clone();
    let items = e1_items(n_fish, edge);
    let n = items.len() as f64;
    let t = Instant::now();
    let report = f.ingest_batch(&admin, items, IngestPolicy::default());
    let wall = t.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(report.registered as f64, n, "bench batch must fully register");
    TraceRun {
        tracing,
        ops_per_s: n / wall,
        traces_retained: f.obs().gauge_value(names::TRACE_RETAINED, &[]) as u64,
    }
}

/// Sampling rate for the middle variant: 5 % of roots, in ppm.
const SAMPLED_PPM: u32 = 50_000;

const MS: u64 = 1_000_000;

struct TelemetryRun {
    telemetry: &'static str,
    ops_per_s: f64,
    scrapes: u64,
}

/// One ingest run of the E1 workload, split into per-fish batches on a
/// ticking virtual clock. `ingest_batch` scrapes the telemetry store
/// at most once per call (in its serial tail), so batching is what
/// makes the scrape path run at its configured cadence: the `on`
/// variant scrapes every batch, the `off` variant only the mandatory
/// first scrape.
fn telemetry_run(
    telemetry: &'static str,
    config: TelemetryConfig,
    n_fish: usize,
    edge: u32,
) -> TelemetryRun {
    let f = Facility::builder()
        .tenant(ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .telemetry(config)
        .build()
        .expect("facility assembles");
    let admin = f.admin().clone();
    let items = e1_items(n_fish, edge);
    let n = items.len();
    let per_batch = (n / n_fish.max(1)).max(1);
    let mut batches: Vec<Vec<IngestItem>> = Vec::new();
    for item in items {
        if batches.last().is_none_or(|b| b.len() >= per_batch) {
            batches.push(Vec::with_capacity(per_batch));
        }
        batches.last_mut().expect("batch pushed").push(item);
    }
    let t = Instant::now();
    let mut registered = 0u64;
    for (i, batch) in batches.into_iter().enumerate() {
        f.obs().set_virtual_time_ns((i as u64 + 1) * MS);
        registered += f.ingest_batch(&admin, batch, IngestPolicy::default()).registered;
    }
    let wall = t.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(registered as usize, n, "bench batch must fully register");
    TelemetryRun {
        telemetry,
        ops_per_s: n as f64 / wall,
        scrapes: f.obs().counter_value(names::TELEMETRY_SCRAPES_TOTAL, &[]),
    }
}

fn telemetry_runs(n_fish: usize, edge: u32) -> Vec<TelemetryRun> {
    vec![
        // Effectively off: only the mandatory first scrape fires.
        telemetry_run("off", TelemetryConfig::default().interval_ns(u64::MAX), n_fish, edge),
        // Every batch is due: the scrape path runs once per virtual ms.
        telemetry_run("on", TelemetryConfig::default().interval_ns(MS), n_fish, edge),
    ]
}

fn trace_runs(n_fish: usize, edge: u32) -> Vec<TraceRun> {
    vec![
        trace_run("off", None, n_fish, edge),
        trace_run("sampled", Some(TraceConfig::sampled(SAMPLED_PPM)), n_fish, edge),
        trace_run("full", Some(TraceConfig::full()), n_fish, edge),
    ]
}

fn trace_json(mode: &str, runs: &[TraceRun], telemetry: &[TelemetryRun]) -> String {
    let off = runs.iter().find(|r| r.tracing == "off").expect("off run");
    let full = runs.iter().find(|r| r.tracing == "full").expect("full run");
    let overhead = off.ops_per_s / full.ops_per_s.max(1e-9);
    let ts_off = telemetry
        .iter()
        .find(|r| r.telemetry == "off")
        .expect("telemetry-off run");
    let ts_on = telemetry
        .iter()
        .find(|r| r.telemetry == "on")
        .expect("telemetry-on run");
    let ts_overhead = ts_off.ops_per_s / ts_on.ops_per_s.max(1e-9);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"trace_overhead\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"cores\": {},\n", detected_cores()));
    out.push_str(&format!("  \"sampled_ppm\": {SAMPLED_PPM},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tracing\": \"{}\", \"ops_per_s\": {:.1}, \"traces_retained\": {}}}{}\n",
            r.tracing,
            r.ops_per_s,
            r.traces_retained,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"full_overhead_x\": {overhead:.3},\n"));
    // Telemetry scrape tax on the same workload, batched per virtual
    // ms: `on` scrapes the registry into the TSDB every batch.
    out.push_str("  \"telemetry_runs\": [\n");
    for (i, r) in telemetry.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"telemetry\": \"{}\", \"ops_per_s\": {:.1}, \"scrapes\": {}}}{}\n",
            r.telemetry,
            r.ops_per_s,
            r.scrapes,
            if i + 1 < telemetry.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"telemetry_overhead_x\": {ts_overhead:.3}\n"));
    out.push_str("}\n");
    out
}

/// The tracing-tax bound CI enforces: a fully-traced ingest must keep
/// at least half the untraced throughput (full tracing < 2x slowdown).
fn check_trace_overhead() -> Result<(), String> {
    let runs = trace_runs(10, 64);
    let off = runs[0].ops_per_s;
    let full = runs[2].ops_per_s;
    println!(
        "bench-smoke: ingest untraced {:.1} ops/s, fully traced {:.1} ops/s ({:.2}x overhead)",
        off,
        full,
        off / full.max(1e-9)
    );
    if full < off / 2.0 {
        return Err(format!(
            "full tracing costs more than 2x: {full:.1} ops/s < {off:.1}/2 ops/s"
        ));
    }
    Ok(())
}

/// The telemetry-tax bound CI enforces: the batched E1 workload with a
/// per-batch TSDB scrape must keep at least 1/1.2 of the scrape-free
/// throughput (telemetry overhead < 1.2x). Best of ten per side: with
/// the hardware hash the whole batch takes ~1.4 ms, a scrape's ~18 us is
/// ~1.14x of it, and best-of-two scattered 1.09x-1.32x around that.
fn check_telemetry_overhead() -> Result<(), String> {
    let best = |interval: u64| {
        (0..10)
            .map(|_| {
                telemetry_run("probe", TelemetryConfig::default().interval_ns(interval), 10, 64)
                    .ops_per_s
            })
            .fold(0.0f64, f64::max)
    };
    let off = best(u64::MAX);
    let on = best(MS);
    let overhead = off / on.max(1e-9);
    println!(
        "bench-smoke: batched ingest telemetry-off {off:.1} ops/s, telemetry-on {on:.1} ops/s \
         ({overhead:.2}x overhead)"
    );
    if overhead > 1.2 {
        return Err(format!(
            "telemetry scrape overhead exceeds 1.2x: {on:.1} ops/s vs {off:.1} ops/s"
        ));
    }
    Ok(())
}

/// The WAL ingest-tax bound CI enforces: serial ingest with the
/// crash-durability WAL on must keep at least two-thirds of the
/// WAL-off throughput (overhead < 1.5x). Best-of-two per side damps
/// wall-clock noise on the short smoke batch.
fn check_wal_overhead() -> Result<(), String> {
    let best = |wal: bool| {
        (0..2)
            .map(|_| e1_run(1, 10, 64, None, wal).ops_per_s)
            .fold(0.0f64, f64::max)
    };
    let off = best(false);
    let wal = best(true);
    let overhead = off / wal.max(1e-9);
    println!(
        "bench-smoke: serial ingest wal-off {off:.1} ops/s, wal-on {wal:.1} ops/s \
         ({overhead:.2}x overhead)"
    );
    if overhead > 1.5 {
        return Err(format!(
            "WAL ingest overhead exceeds 1.5x: {wal:.1} ops/s vs {off:.1} ops/s"
        ));
    }
    Ok(())
}

/// Whether `--check` may hold this host to the absolute figures in
/// `baseline`: only when both hash with the same SHA-256 kernel, since
/// the hardware kernel is several times the portable one and every
/// ingest and recovery figure carries it. Prints which way it went.
fn absolute_floor_applies(what: &str, baseline: &str) -> bool {
    let needle = "\"sha256_kernel\": \"";
    let recorded = baseline
        .find(needle)
        .and_then(|at| baseline[at + needle.len()..].split('"').next())
        .unwrap_or("an unrecorded kernel");
    let here = sha256_kernel();
    let same = recorded == here;
    if same {
        println!("bench-smoke: {what}: baseline and host both hash with {here}, absolute floor applied");
    } else {
        println!(
            "bench-smoke: {what}: baseline recorded with {recorded}, host runs {here}, \
             absolute floor skipped (ratio gates still apply)"
        );
    }
    same
}

/// Parses the first float after `needle` in `text`.
fn parse_field(text: &str, needle: &str) -> Result<f64, String> {
    let at = text
        .find(needle)
        .ok_or_else(|| format!("field {needle:?} missing"))?;
    let rest = &text[at + needle.len()..];
    let end = rest
        .find(|c: char| c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<f64>()
        .map_err(|e| format!("field {needle:?} unparseable: {e}"))
}

/// Reduced recovery smoke: the committed baseline must keep its
/// million-file row, and a re-measured 100k-file kill-and-restart must
/// replay within 4x of the committed per-record rate (recovery is also
/// asserted bit-identical inside the run itself).
fn check_recovery_baseline(root: &Path) -> Result<(), String> {
    let path = root.join("BENCH_RECOVERY.json");
    let baseline = std::fs::read_to_string(&path)
        .map_err(|e| format!("no committed baseline at {}: {e}", path.display()))?;
    if !baseline.contains("\"n_files\": 1000000,") {
        return Err("committed BENCH_RECOVERY.json lost its million-file row".to_string());
    }
    let committed_row = baseline
        .lines()
        .find(|l| l.contains("\"n_files\": 100000,"))
        .ok_or("committed BENCH_RECOVERY.json has no 100k-file row")?;
    let committed_ns = parse_field(committed_row, "\"replay_ns_per_record\": ")?;
    let r = recovery_run(100_000);
    let current_ns = r.recover_ms * 1e6 / (r.replayed.max(1)) as f64;
    println!(
        "bench-smoke: 100k-file recovery {:.1} ms ({current_ns:.0} ns/record vs committed \
         {committed_ns:.0} ns/record)",
        r.recover_ms
    );
    if absolute_floor_applies("recovery replay rate", &baseline) && current_ns > committed_ns * 4.0 {
        return Err(format!(
            "recovery replay regressed more than 4x: {current_ns:.0} ns/record vs \
             committed {committed_ns:.0}"
        ));
    }
    Ok(())
}

/// Pulls every `"ops_per_s": <num>` value out of a snapshot JSON. The
/// workspace has no JSON dependency; the format above is ours, so a
/// field-anchored scan is exact.
fn parse_ops_per_s(json: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let needle = "\"ops_per_s\": ";
    let mut rest = json;
    while let Some(at) = rest.find(needle) {
        rest = &rest[at + needle.len()..];
        let end = rest
            .find(|c: char| c != '.' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        if let Ok(v) = rest[..end].parse::<f64>() {
            out.push(v);
        }
    }
    out
}

fn check_against_baseline(root: &Path) -> Result<(), String> {
    let path = root.join("BENCH_E1.json");
    let baseline = std::fs::read_to_string(&path)
        .map_err(|e| format!("no committed baseline at {}: {e}", path.display()))?;
    let base_ops = parse_ops_per_s(&baseline);
    let base_serial = *base_ops
        .first()
        .ok_or("baseline has no ops_per_s entries")?;
    // Best of three: the gate is about regressions in the code, not
    // scheduler noise on a busy single-core runner.
    let current = (0..3)
        .map(|_| e1_run(1, 10, 64, None, false))
        .max_by(|a, b| a.ops_per_s.total_cmp(&b.ops_per_s))
        .ok_or("no measurement")?;
    println!(
        "bench-smoke: serial ingest {:.1} ops/s (best of 3) vs committed {:.1} ops/s",
        current.ops_per_s, base_serial
    );
    if absolute_floor_applies("serial ingest ops/s", &baseline)
        && current.ops_per_s < base_serial / 2.0
    {
        return Err(format!(
            "ingest throughput regressed more than 2x: {:.1} ops/s < {:.1}/2 ops/s",
            current.ops_per_s, base_serial
        ));
    }
    // The zero-copy batched path must actually scale where the host
    // can express it: on >= 4 cores, 4 workers must beat serial by 2x.
    // A 1-core host cannot run this gate honestly (workers > 1 cannot
    // beat serial there), so it stays on the serial-floor check alone.
    let cores = detected_cores();
    if cores >= 4 {
        let parallel = (0..3)
            .map(|_| e1_run(4, 10, 64, None, false))
            .max_by(|a, b| a.ops_per_s.total_cmp(&b.ops_per_s))
            .ok_or("no measurement")?;
        let speedup = parallel.ops_per_s / current.ops_per_s.max(1e-9);
        println!(
            "bench-smoke: 4-worker ingest {:.1} ops/s, speedup {:.2}x on {} cores",
            parallel.ops_per_s, speedup, cores
        );
        if speedup < 2.0 {
            return Err(format!(
                "4 workers only {speedup:.2}x serial on a {cores}-core host (need >= 2x)"
            ));
        }
    } else {
        println!("bench-smoke: {cores} core(s) detected, skipping the 4-worker scaling gate");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    if args.iter().any(|a| a == "--check") {
        if let Err(msg) = check_against_baseline(&root)
            .and_then(|()| check_trace_overhead())
            .and_then(|()| check_telemetry_overhead())
            .and_then(|()| check_wal_overhead())
            .and_then(|()| check_recovery_baseline(&root))
        {
            eprintln!("bench-smoke FAILED: {msg}");
            std::process::exit(1);
        }
        println!("bench-smoke OK");
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    let mode = if full { "full" } else { "quick" };
    let (n_fish, edge) = if full { (60, 256) } else { (10, 64) };

    let mut runs: Vec<E1Run> = E1_WORKER_COUNTS
        .iter()
        .map(|&w| e1_run(w, n_fish, edge, None, false))
        .collect();
    runs.push(e1_run(4, n_fish, edge, Some(bench_quota()), false));
    runs.push(e1_run(1, n_fish, edge, None, true));
    let e1 = e1_json(mode, &runs);
    let e1_path = root.join("BENCH_E1.json");
    std::fs::write(&e1_path, &e1).expect("writing BENCH_E1.json");
    println!("wrote {}", e1_path.display());
    print!("{e1}");

    let e3 = e3_json(mode);
    let e3_path = root.join("BENCH_E3.json");
    std::fs::write(&e3_path, &e3).expect("writing BENCH_E3.json");
    println!("wrote {}", e3_path.display());
    print!("{e3}");

    let trace = trace_json(mode, &trace_runs(n_fish, edge), &telemetry_runs(n_fish, edge));
    let trace_path = root.join("BENCH_TRACE.json");
    std::fs::write(&trace_path, &trace).expect("writing BENCH_TRACE.json");
    println!("wrote {}", trace_path.display());
    print!("{trace}");

    // Recovery scales to the million-file row in every mode: the
    // committed baseline must always carry it for the smoke check.
    let recovery_runs: Vec<RecoveryRun> =
        RECOVERY_FILE_COUNTS.iter().map(|&n| recovery_run(n)).collect();
    let recovery = recovery_json(mode, &recovery_runs);
    let recovery_path = root.join("BENCH_RECOVERY.json");
    std::fs::write(&recovery_path, &recovery).expect("writing BENCH_RECOVERY.json");
    println!("wrote {}", recovery_path.display());
    print!("{recovery}");
}
