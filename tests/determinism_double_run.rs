//! Determinism witness: the same seeded mini-soak, run twice in the
//! same process, must leave the obs registry in a byte-identical state.
//!
//! This is the executable form of lint rule **L1 (determinism)**: with
//! every component on the registry's virtual clock and every random
//! decision drawn from a named `lsdf-sim` stream, there is no channel
//! through which wall-clock time or process entropy can reach a result.
//! If someone reintroduces `Instant::now()` or an unseeded RNG into a
//! production path (the mapreduce runner regression this PR fixes), the
//! two JSON exports diverge and this test fails alongside the lint.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use lsdf_adal::{
    Acl, Adal, BreakerConfig, Credential, ObjectStoreBackend, ResilienceConfig,
    RetryPolicy, StorageBackend, TokenAuth,
};
use lsdf_chaos::{FaultPlan, FaultyBackend};
use lsdf_dfs::{ClusterTopology, Dfs, DfsConfig};
use lsdf_mapreduce::{no_combiner, run_job, JobConfig, Mapper, Record, Reducer};
use lsdf_obs::Registry;
use lsdf_sim::SimRng;
use lsdf_storage::ObjectStore;

const OPS: u64 = 1_500;
const MS: u64 = 1_000_000;

struct ByteMapper;
impl Mapper for ByteMapper {
    type Key = u8;
    type Value = u64;
    fn map(&self, record: &Record, emit: &mut dyn FnMut(u8, u64)) {
        for &b in record.data.iter() {
            emit(b % 7, 1);
        }
    }
}

struct SumReducer;
impl Reducer for SumReducer {
    type Key = u8;
    type Value = u64;
    type Output = (u8, u64);
    fn reduce(&self, k: &u8, values: &[u64]) -> Vec<(u8, u64)> {
        vec![(*k, values.iter().sum())]
    }
}

/// Runs the mini-soak under virtual time and returns the registry JSON.
fn run_soak(seed: u64) -> String {
    let reg = Arc::new(Registry::new());
    reg.set_virtual_time_ns(1);

    let auth = Arc::new(TokenAuth::new());
    auth.register("tok", "operator");
    let acl = Arc::new(Acl::new());
    acl.grant("operator", "soak", true);
    let adal = Adal::builder().auth(auth).acl(acl).registry(reg.clone()).build();
    let cred = Credential::Token("tok".into());

    // A faulty object-store primary with an object-store replica: the
    // resilience machinery (retries, breaker, journal) is all in play.
    let primary: Arc<dyn StorageBackend> = FaultyBackend::new(
        "soak",
        Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(
            "soak-primary",
            u64::MAX,
        )))),
        FaultPlan::quiet(seed)
            .transient(0.05)
            .latency_spikes(0.05, 2 * MS)
            .outage(150, 190),
        &reg,
    );
    let replica: Arc<dyn StorageBackend> = Arc::new(ObjectStoreBackend::new(Arc::new(
        ObjectStore::new("soak-replica", u64::MAX),
    )));
    adal.mount_resilient(
        "soak",
        primary,
        Some(replica),
        ResilienceConfig {
            retry: RetryPolicy::new(4, MS, 50 * MS, MS / 2),
            breaker: BreakerConfig {
                window: 16,
                min_calls: 8,
                failure_rate: 0.5,
                cooldown_ns: 10 * MS,
                half_open_probes: 2,
            },
            seed,
            ..ResilienceConfig::default()
        },
    );

    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut keys: Vec<String> = Vec::new();
    let mut rng = SimRng::seed_from_u64(seed).stream("determinism-soak");
    for i in 0..OPS {
        reg.set_virtual_time_ns(1 + i * MS);
        match rng.index(100) {
            0..=54 => {
                let path = format!("lsdf://soak/k/{i:05}");
                let len = rng.range_u64(1, 48) as usize;
                let payload: Vec<u8> = (0..len).map(|_| rng.range_u64(0, 256) as u8).collect();
                if adal.put(&cred, &path, Bytes::from(payload.clone())).is_ok() {
                    keys.push(path.clone());
                    model.insert(path, payload);
                }
            }
            55..=84 if !keys.is_empty() => {
                let path = &keys[rng.index(keys.len())];
                let data = adal
                    .get(&cred, path)
                    .unwrap_or_else(|e| panic!("acked read {path} failed at op {i}: {e}"));
                assert_eq!(&data[..], &model[path.as_str()][..]);
            }
            _ if !keys.is_empty() => {
                let path = &keys[rng.index(keys.len())];
                let meta = adal
                    .stat(&cred, path)
                    .unwrap_or_else(|e| panic!("acked stat {path} failed at op {i}: {e}"));
                assert_eq!(meta.size, model[path.as_str()].len() as u64);
            }
            _ => {}
        }
    }

    // Drain the redo journal under advancing virtual time.
    let mut t = 1 + OPS * MS;
    for round in 0..200u64 {
        t += 20 * MS;
        reg.set_virtual_time_ns(t);
        adal.drain_journal("soak");
        if adal.health("soak").map(|h| h.journal_depth) == Some(0) {
            break;
        }
        assert!(round < 199, "journal failed to drain");
    }

    // A mapreduce job on the same registry: its timing metrics read the
    // registry clock (the regression this PR's lint rule L1 pins down).
    let dfs = Arc::new(Dfs::with_registry(
        ClusterTopology::new(2, 2),
        DfsConfig {
            block_size: 512,
            replication: 2,
            ..DfsConfig::default()
        },
        reg.clone(),
    ));
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    dfs.write("/soak/bytes", &payload, None).expect("dfs write");
    let mut cfg = JobConfig::on_cluster(&dfs, 2);
    cfg.input_format = lsdf_mapreduce::InputFormat::WholeBlock;
    let out = run_job(
        &dfs,
        &["/soak/bytes".to_string()],
        &ByteMapper,
        no_combiner::<ByteMapper>(),
        &SumReducer,
        &cfg,
    )
    .expect("mapreduce job runs");
    assert!(out.stats.map_tasks > 0);
    assert_eq!(out.output.iter().map(|&(_, n)| n).sum::<u64>(), 4096);

    reg.to_json()
}

#[test]
fn determinism_double_run() {
    // The integration crate enables lsdf-sync's `lock-order` feature,
    // so this double run doubles as proof that the runtime lock-order
    // witness does not perturb determinism — but only if it is actually
    // armed. Check, don't assume.
    assert!(
        lsdf_sync::witness_enabled(),
        "integration tests must build with the lock-order witness enabled"
    );
    let first = run_soak(0x15df_2011);
    let second = run_soak(0x15df_2011);
    assert_eq!(first, second, "same seed must export identical registries");
    // And a different seed actually changes the run (the witness is not
    // vacuous because the export ignored the workload).
    let third = run_soak(0x15df_2012);
    assert_ne!(first, third, "registry export is insensitive to the seed");
}

/// Runs a fully-traced facility ingest batch under virtual time and
/// returns the chrome://tracing JSON export.
fn run_traced_ingest(seed: u64, workers: usize) -> String {
    use lsdf_core::{BackendChoice, Facility, IngestItem, IngestPolicy, ProjectSpec};
    use lsdf_metadata::zebrafish_schema;
    use lsdf_obs::TraceConfig;
    use lsdf_workloads::microscopy::HtmGenerator;

    let reg = Arc::new(Registry::new());
    reg.set_virtual_time_ns(42);
    let f = Facility::builder()
        .tenant(ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .registry(reg.clone())
        .workers(workers)
        .tracing(TraceConfig::full().seed(seed))
        .build()
        .expect("facility assembles");
    let admin = f.admin().clone();
    let mut gen = HtmGenerator::new(3, 32);
    for batch_no in 0..3u64 {
        reg.set_virtual_time_ns(42 + batch_no * MS);
        let items: Vec<IngestItem> = gen
            .next_fish()
            .into_iter()
            .map(|(acq, img)| IngestItem {
                project: "zebrafish-htm".into(),
                key: acq.key(),
                data: img.encode(),
                metadata: Some(acq.document()),
            })
            .collect();
        let report = f.ingest_batch(&admin, items, IngestPolicy::default());
        assert_eq!(report.rejected, 0);
    }
    let export = f.tracer().expect("tracing on").export_chrome();
    assert!(
        export.starts_with("{\"traceEvents\":[") && export.ends_with("]}\n"),
        "chrome export must be a well-formed traceEvents document"
    );
    export
}

#[test]
fn traced_chrome_export_is_bit_identical_across_runs_and_workers() {
    // Same seed, run twice: the chrome-trace JSON must agree to the
    // byte — span ids, ordering, and (virtual) timestamps included.
    let first = run_traced_ingest(0x15df_3001, 1);
    assert_eq!(
        first,
        run_traced_ingest(0x15df_3001, 1),
        "repeated seeded runs must export identical traces"
    );
    // And the worker count must be invisible: child slots are reserved
    // serially in index order before the pool fans out, so 4- and
    // 8-wide runs produce the same tree and the same bytes.
    for workers in [4usize, 8] {
        assert_eq!(
            first,
            run_traced_ingest(0x15df_3001, workers),
            "chrome export diverged at {workers} workers"
        );
    }
    // A different seed changes trace ids — the witness sees the seed.
    assert_ne!(first, run_traced_ingest(0x15df_3002, 1));
}
