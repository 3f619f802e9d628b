//! Observability round trip: run a facility_roundtrip-style workload
//! whose counts are known in advance — items ingested, gets issued,
//! denials provoked, tier transitions the watermarks force, blocks the
//! reads span — then assert the shared lsdf-obs registry reports exactly
//! those, and that the JSON export carries them.

use std::sync::Arc;

use bytes::Bytes;
use lsdf_core::prelude::*;
use lsdf_dfs::{ClusterTopology, DfsConfig};
use lsdf_metadata::zebrafish_schema;
use lsdf_workloads::microscopy::HtmGenerator;
use lsdf_obs::names;

fn facility(reg: Arc<Registry>) -> Facility {
    Facility::builder()
        .tenant(ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .tenant(ProjectSpec::new(
            SchemaBuilder::new("genomics")
                .required("sample", FieldType::Str)
                .build()
                .expect("schema builds"),
            BackendChoice::Dfs,
        ))
        .tenant(ProjectSpec::new(
            SchemaBuilder::new("climate")
                .required("year", FieldType::Int)
                .indexed()
                .build()
                .expect("schema builds"),
            BackendChoice::Hsm {
                disk_capacity: 5_000,
                low_watermark: 0.4,
                high_watermark: 0.7,
                policy: MigrationPolicy::OldestFirst,
            },
        ))
        .cluster(
            ClusterTopology::new(2, 4),
            DfsConfig {
                block_size: 101 * 20,
                replication: 2,
                ..DfsConfig::default()
            },
        )
        .registry(reg)
        .build()
        .expect("facility assembles")
}

/// Drives ingest across all three backend kinds plus direct ADAL reads,
/// returning the per-path op counts the test later reconciles.
fn run_workload(f: &Facility) -> (u64, u64) {
    let admin = f.admin().clone();
    // Microscopy images into the object store.
    let mut gen = HtmGenerator::new(11, 32);
    let mut ingested = 0u64;
    for _ in 0..2 {
        for (acq, img) in gen.next_fish() {
            f.ingest(
                &admin,
                IngestItem {
                    project: "zebrafish-htm".into(),
                    key: acq.key(),
                    data: img.encode(),
                    metadata: Some(acq.document()),
                },
                IngestPolicy::default(),
            )
            .expect("ingest");
            ingested += 1;
        }
    }
    // Genomics reads onto the DFS.
    f.ingest(
        &admin,
        IngestItem {
            project: "genomics".into(),
            key: "runs/r0".into(),
            data: Bytes::from(vec![b'A'; 4040]),
            metadata: Some(
                [("sample".to_string(), Value::from("s0"))]
                    .into_iter()
                    .collect(),
            ),
        },
        IngestPolicy::default(),
    )
    .expect("ingest");
    ingested += 1;
    // Climate grids through the HSM, forcing demotions.
    for year in 0..8 {
        f.ingest(
            &admin,
            IngestItem {
                project: "climate".into(),
                key: format!("grid/{year}"),
                data: Bytes::from(vec![year as u8; 1000]),
                metadata: Some(
                    [("year".to_string(), Value::Int(year))].into_iter().collect(),
                ),
            },
            IngestPolicy::default(),
        )
        .expect("ingest");
        f.hsm("climate")
            .expect("hsm-backed")
            .run_migration()
            .expect("migration");
    }
    ingested += 8;
    // Reads back through the ADAL (some hitting tape recalls).
    let mut gets = 0u64;
    for year in 0..8 {
        let path = format!("lsdf://climate/grid/{year}");
        let data = f.adal().get(&admin, &path).expect("get");
        assert_eq!(data.len(), 1000);
        gets += 1;
    }
    let _ = f
        .adal()
        .get(&admin, "lsdf://genomics/runs/r0")
        .expect("get");
    gets += 1;
    (ingested, gets)
}

#[test]
fn registry_reconciles_with_every_compat_view() {
    let reg = Arc::new(Registry::new());
    let f = facility(reg.clone());
    let (ingested, gets) = run_workload(&f);

    // ADAL ops: one put per item ingested, one get per read issued, and
    // no request of the workload was denied.
    assert_eq!(reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", "put")]), ingested);
    assert_eq!(reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", "get")]), gets);
    assert_eq!(reg.counter_value(names::ADAL_DENIED_TOTAL, &[]), 0);

    // Ingest outcome counters sum to the items pushed.
    assert_eq!(reg.counter_total(names::FACILITY_INGEST_TOTAL), ingested);

    // HSM tier transitions. Eight 1000-byte grids into a 5000-byte disk
    // tier, oldest first, watermarks 0.4 / 0.7: every second ingest from
    // the fourth crosses 70% and demotes two grids down to 40% (6).
    // Reading the years back in order recalls the six grids on tape, and
    // the last three of those find the disk full and each push the
    // oldest resident grid out (3 more).
    let store = [("store", "climate-disk")];
    assert_eq!(reg.counter_value(names::HSM_DEMOTIONS_TOTAL, &store), 9);
    assert_eq!(reg.counter_value(names::HSM_RECALLS_TOTAL, &store), 6);

    // One block read per block a read spans: the one DFS read is of the
    // 4040-byte genomics file, stored in 2020-byte blocks.
    assert_eq!(reg.counter_total(names::DFS_BLOCK_READS_TOTAL), 4040u64.div_ceil(101 * 20));

    // Latency histograms populated with sane quantiles.
    let put_lat = reg.histogram(names::ADAL_OP_LATENCY_NS, &[("op", "put")]);
    assert_eq!(put_lat.count(), ingested);
    assert!(put_lat.quantile(0.50) <= put_lat.quantile(0.95));
    assert!(put_lat.quantile(0.95) <= put_lat.quantile(0.99));
    assert!(put_lat.quantile(0.99) >= put_lat.min());

    // The JSON export carries the counters and the quantiles.
    let json = reg.to_json();
    assert!(json.contains("\"adal_ops_total\""));
    assert!(json.contains("\"facility_ingest_total\""));
    assert!(json.contains("\"p95\""));
    assert!(json.contains("\"hsm_demotions_total\""));

    // A denial is counted when one is provoked.
    let stranger = Credential::Token("nobody".into());
    assert!(f.adal().get(&stranger, "lsdf://climate/grid/0").is_err());
    assert_eq!(reg.counter_value(names::ADAL_DENIED_TOTAL, &[]), 1);
}
