//! End-to-end facility round trips spanning every crate: ingest →
//! metadata → workflow trigger → processing → query → fetch, the full
//! slide-10 architecture in motion.

use lsdf_core::{BackendChoice, DataBrowser, Facility, IngestItem, IngestPolicy, ProjectSpec};
use lsdf_dfs::{ClusterTopology, DfsConfig};
use lsdf_mapreduce::{run_job, JobConfig};
use lsdf_metadata::query::{eq, has_tag};
use lsdf_metadata::{zebrafish_schema, FieldType, SchemaBuilder, Value};
use lsdf_storage::MigrationPolicy;
use lsdf_workflow::{
    Collect, Director, MapActor, Token, TriggerEngine, TriggerRule, VecSource, Workflow,
};
use lsdf_workloads::genomics::{
    count_kmers_sequential, generate_reads, random_genome, KmerCombiner, KmerMapper, KmerReducer,
    ReadSim,
};
use lsdf_workloads::imaging::count_cells;
use lsdf_workloads::microscopy::{HtmGenerator, Image};

fn facility() -> Facility {
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
        .build()
        .expect("facility assembles")
}

#[test]
fn microscopy_ingest_trigger_process_query_fetch() {
    let f = facility();
    let admin = f.admin().clone();
    let mut gen = HtmGenerator::new(1, 64);
    // Ingest 5 fish.
    let mut items = Vec::new();
    for _ in 0..5 {
        for (acq, img) in gen.next_fish() {
            items.push(IngestItem {
                project: "zebrafish-htm".into(),
                key: acq.key(),
                data: img.encode(),
                metadata: Some(acq.document()),
            });
        }
    }
    let report = f.ingest_batch(&admin, items, IngestPolicy::default());
    assert_eq!(report.registered, 120);
    assert_eq!(report.rejected, 0);

    // Trigger engine: segmentation on tag.
    let store = f.store("zebrafish-htm").expect("project").clone();
    let adal = f.adal().clone();
    let cred = admin.clone();
    let store2 = store.clone();
    let engine = TriggerEngine::new(
        store.clone(),
        vec![TriggerRule {
            step: "segmentation".into(),
            tag: "todo".into(),
            done_tag: "done".into(),
            remove_trigger_tag: true,
            build: Box::new(move |id, sink| {
                let rec = store2.get(id).expect("dataset");
                let data = adal.get(&cred, &rec.location()).expect("payload");
                let mut wf = Workflow::new();
                let src = wf.add(VecSource::new("img", vec![Token::Data(data.to_vec())]));
                let m = wf.add(MapActor::new("count", |t: Token| {
                    let Token::Data(b) = t else { return Err("bytes".into()) };
                    let img = Image::decode(&b).ok_or("decode")?;
                    Ok(vec![
                        Token::str("cells"),
                        Token::int(count_cells(&img, 6) as i64),
                    ])
                }));
                let out = wf.add(Collect::new("sink", sink));
                wf.connect(src, 0, m, 0).expect("ports");
                wf.connect(m, 0, out, 0).expect("ports");
                wf
            }),
        }],
        Director::Sequential,
    );

    let browser = DataBrowser::new(&f, admin.clone());
    let n = browser
        .tag_matching("zebrafish-htm", &eq("fish_id", 2i64), "todo")
        .expect("tagging");
    assert_eq!(n, 24);
    let outcomes = engine.run_pending().expect("workflows run");
    assert_eq!(outcomes.len(), 24);

    // Every processed dataset has queryable results and fetchable bytes.
    let done = browser
        .query("zebrafish-htm", &has_tag("done"))
        .expect("query");
    assert_eq!(done.len(), 24);
    for rec in &done {
        let p = rec.latest_processing("segmentation").expect("recorded");
        assert!(matches!(p.results.get("cells"), Some(Value::Int(_))));
        let bytes = browser.fetch("zebrafish-htm", rec.id).expect("fetch");
        assert_eq!(
            lsdf_storage::sha256(&bytes).to_hex(),
            rec.checksum_hex,
            "payload integrity across the full loop"
        );
    }
}

#[test]
fn genomics_project_runs_mapreduce_on_facility_dfs() {
    let f = facility();
    let admin = f.admin().clone();
    let genome = random_genome(3, 5_000);
    let reads = generate_reads(
        &genome,
        &ReadSim {
            read_len: 100,
            error_rate: 0.0,
            coverage: 6.0,
        },
        5,
    );
    // Ingest through the ADAL into the DFS-backed project.
    f.ingest(
        &admin,
        IngestItem {
            project: "genomics".into(),
            key: "runs/r1".into(),
            data: bytes::Bytes::from(reads.clone()),
            metadata: Some(
                [("sample".to_string(), Value::from("zebrafish-gDNA"))]
                    .into_iter()
                    .collect(),
            ),
        },
        IngestPolicy::default(),
    )
    .expect("ingest");
    // The payload is a DFS file; run MapReduce directly on it.
    let out = run_job(
        f.dfs(),
        &["runs/r1".to_string()],
        &KmerMapper { k: 15 },
        Some(&KmerCombiner),
        &KmerReducer,
        &JobConfig::on_cluster(f.dfs(), 4),
    )
    .expect("job runs");
    let expect = count_kmers_sequential(&reads, 15);
    assert_eq!(out.output.len(), expect.len());
    for (kmer, count) in &out.output {
        assert_eq!(expect.get(kmer), Some(count));
    }
    // And the dataset is still catalogued.
    let rec = f
        .store("genomics")
        .expect("project")
        .get_by_name("runs/r1")
        .expect("catalogued");
    assert_eq!(rec.size_bytes, reads.len() as u64);
}

#[test]
fn climate_archival_tiering_stays_transparent_through_adal() {
    let f = facility();
    let admin = f.admin().clone();
    let mut model = lsdf_workloads::climate::ClimateModel::new(9, 6, 12, 1.0);
    // Ingest 40 daily grids (16+144 B each) into the 5 kB disk tier.
    for day in 0..40 {
        let grid = model.next_day();
        f.ingest(
            &admin,
            IngestItem {
                project: "climate".into(),
                key: format!("daily/d{day:03}"),
                data: grid.encode(),
                metadata: Some(
                    [("year".to_string(), Value::Int(2011))].into_iter().collect(),
                ),
            },
            IngestPolicy::default(),
        )
        .expect("ingest");
        f.hsm("climate").expect("hsm").run_migration().expect("migrate");
    }
    let hsm = f.hsm("climate").expect("hsm");
    let tape_count = hsm
        .catalog()
        .iter()
        .filter(|e| e.tier == lsdf_storage::Tier::Tape)
        .count();
    assert!(tape_count > 0, "old days migrated to tape");
    // Reading an archived day through the unified layer transparently
    // recalls it.
    let data = f
        .adal()
        .get(&admin, "lsdf://climate/daily/d000")
        .expect("transparent recall");
    assert!(lsdf_workloads::climate::ClimateGrid::decode(&data).is_some());
}

#[test]
fn access_control_isolates_projects_end_to_end() {
    let f = facility();
    let admin = f.admin().clone();
    f.ingest(
        &admin,
        IngestItem {
            project: "climate".into(),
            key: "daily/x".into(),
            data: bytes::Bytes::from_static(b"grid"),
            metadata: None,
        },
        IngestPolicy {
            enforce_metadata: false,
        },
    )
    .expect("ingest");
    f.register_user("zeb-token", "biologist");
    f.grant("biologist", "zebrafish-htm", true);
    let cred = lsdf_adal::Credential::Token("zeb-token".into());
    // Can use own project...
    f.adal()
        .put(
            &cred,
            "lsdf://zebrafish-htm/raw/own",
            bytes::Bytes::from_static(b"x"),
        )
        .expect("own project writable");
    // ...but not the climate archive.
    assert!(f.adal().get(&cred, "lsdf://climate/daily/x").is_err());
}
