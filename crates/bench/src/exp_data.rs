//! Experiments over the data-management path: ingest (E1), metadata
//! queries (E7), unified vs federated catalogs (E8), workflow automation
//! (E11), and findability (E14).

use std::sync::Arc;
use std::time::Instant;

use lsdf_core::{BackendChoice, DataBrowser, Facility, IngestItem, IngestPolicy, ProjectSpec};
use lsdf_metadata::query::{eq, ge, has_tag};
use lsdf_metadata::{
    dataset, zebrafish_schema, CrossQuery, Federation, FieldType, ProjectStore, SchemaBuilder,
    UnifiedCatalog, Value,
};
use lsdf_workflow::{
    Collect, Director, MapActor, Token, TriggerEngine, TriggerRule, VecSource, Workflow,
};
use lsdf_workloads::imaging::count_cells;
use lsdf_workloads::microscopy::{rates, HtmGenerator, Image};

use crate::report::{fmt_bytes, fmt_secs, ExpReport, ExpRow};
use lsdf_obs::names;

fn zebrafish_facility() -> Facility {
    Facility::builder()
        .tenant(ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .build()
        .expect("facility assembles")
}

/// E1: microscopy ingest throughput vs the paper's 200 k images/day,
/// 2 TB/day operating point.
pub fn e1_ingest(quick: bool) -> ExpReport {
    let (n_fish, edge) = if quick { (10, 64) } else { (60, 256) };
    let f = zebrafish_facility();
    let admin = f.admin().clone();
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
    let total_bytes: u64 = items.iter().map(|i| i.data.len() as u64).sum();
    let t = Instant::now();
    let report = f.ingest_batch(&admin, items, IngestPolicy::default());
    let wall = t.elapsed().as_secs_f64();
    let img_rate = report.registered as f64 / wall;
    let byte_rate = total_bytes as f64 / wall;
    // At the paper's 4 MB images the pipeline is byte-bound, so the
    // honest full-scale estimate divides the measured byte rate.
    let full_scale_images_day = byte_rate * 86_400.0 / rates::IMAGE_BYTES as f64;
    ExpReport {
        id: "E1",
        title: "zebrafish microscopy ingest (slides 4-5)",
        rows: vec![
            ExpRow::new("images per fish", "24", format!("{}", 24)),
            ExpRow::new(
                "image size",
                "4 MB",
                format!("{} (scaled {edge}px test images)", fmt_bytes((16 + edge as u64 * edge as u64) as f64)),
            ),
            ExpRow::new(
                "required ingest rate",
                "200k images/day (2.3/s)",
                format!("{img_rate:.0} images/s sustained"),
            ),
            ExpRow::new(
                "daily capacity at measured rate",
                "2 TB/day",
                format!(
                    "{}/day ({:.1}M full-size images/day)",
                    fmt_bytes(byte_rate * 86_400.0),
                    full_scale_images_day / 1e6
                ),
            ),
            ExpRow::new(
                "registered/rejected",
                "all catalogued",
                format!("{}/{}", report.registered, report.rejected),
            ),
            ExpRow::new(
                "registry: ingest outcomes",
                "(from facility_ingest_total)",
                format!(
                    "{} registered, {} accepted",
                    f.obs().counter_value(
                        names::FACILITY_INGEST_TOTAL,
                        &[("project", "zebrafish-htm"), ("outcome", "registered")],
                    ),
                    fmt_bytes(
                        f.obs()
                            .histogram(names::FACILITY_INGEST_BYTES, &[("project", "zebrafish-htm")])
                            .sum() as f64
                    ),
                ),
            ),
            ExpRow::new(
                "registry: ingest latency p50/p95/p99",
                "(from facility_ingest_latency_ns)",
                {
                    let lat = f.obs().histogram(names::FACILITY_INGEST_LATENCY_NS, &[]);
                    format!(
                        "{} / {} / {}",
                        fmt_secs(lat.quantile(0.50) as f64 / 1e9),
                        fmt_secs(lat.quantile(0.95) as f64 / 1e9),
                        fmt_secs(lat.quantile(0.99) as f64 / 1e9),
                    )
                },
            ),
        ],
    }
}

/// E7: metadata repository scaling — insert rate and indexed vs full-scan
/// query latency (slide 8's project metadata DB).
pub fn e7_metadata(quick: bool) -> ExpReport {
    let n: i64 = if quick { 20_000 } else { 200_000 };
    let schema = SchemaBuilder::new("zebrafish")
        .required("fish_id", FieldType::Int)
        .indexed()
        .required("wavelength_nm", FieldType::Float)
        .indexed()
        .required("well", FieldType::Str)
        .build()
        .expect("schema builds");
    let store = ProjectStore::new(schema);
    let t = Instant::now();
    for i in 0..n {
        store
            .insert(dataset(
                &format!("img-{i:08}"),
                4_000_000,
                [
                    ("fish_id".to_string(), Value::Int(i / 24)),
                    (
                        "wavelength_nm".to_string(),
                        Value::Float([405.0, 488.0, 561.0][(i % 3) as usize]),
                    ),
                    ("well".to_string(), Value::Str(format!("A{}", i % 12))),
                ]
                .into_iter()
                .collect(),
            ))
            .expect("insert");
    }
    let insert_wall = t.elapsed().as_secs_f64();

    // Indexed equality query.
    let t = Instant::now();
    let reps = 200;
    let mut hits = 0;
    for r in 0..reps {
        hits = store.query(&eq("fish_id", (r * 7) % (n / 24))).len();
    }
    let indexed = t.elapsed().as_secs_f64() / reps as f64;
    // Unindexed (full scan) query on `well`.
    let t = Instant::now();
    let scan_reps = 20;
    for r in 0..scan_reps {
        let _ = store.query(&eq("well", format!("A{}", r % 12).as_str()));
    }
    let scanned = t.elapsed().as_secs_f64() / scan_reps as f64;
    // Indexed range query.
    let t = Instant::now();
    for _ in 0..reps {
        let _ = store.query(&ge("wavelength_nm", 500.0));
    }
    let range = t.elapsed().as_secs_f64() / reps as f64;
    ExpReport {
        id: "E7",
        title: "project metadata DB: WORM datasets + indexed queries (slide 8)",
        rows: vec![
            ExpRow::new(
                "datasets registered",
                "~200k/day arrive",
                format!("{n} in {} ({:.0}/s)", fmt_secs(insert_wall), n as f64 / insert_wall),
            ),
            ExpRow::new(
                "indexed point query",
                "(interactive DataBrowser)",
                format!("{} for {hits} hits", fmt_secs(indexed)),
            ),
            ExpRow::new("indexed range query", "(interactive)", fmt_secs(range)),
            ExpRow::new(
                "unindexed full scan",
                "(the anti-pattern)",
                format!("{} ({:.0}x slower)", fmt_secs(scanned), scanned / indexed.max(1e-12)),
            ),
        ],
    }
}

/// E8: "single big DB ... more valuable than many small ones" (slide 3).
pub fn e8_unified(quick: bool) -> ExpReport {
    let projects = if quick { 8 } else { 16 };
    let per_project = if quick { 5_000 } else { 25_000 };
    let schemas: Vec<_> = (0..projects)
        .map(|i| {
            SchemaBuilder::new(format!("proj{i}"))
                .required("compound", FieldType::Str)
                .indexed()
                .build()
                .expect("schema builds")
        })
        .collect();
    let unified = UnifiedCatalog::new(&schemas).expect("schema union");
    let mut fed = Federation::new();
    for (i, s) in schemas.iter().enumerate() {
        let store = Arc::new(ProjectStore::new(s.clone()));
        for j in 0..per_project {
            // The compound of interest shows up in 1% of records of every
            // project — a cross-project toxicology question.
            let compound = if j % 100 == 0 { "PTU" } else { "DMSO" };
            let d = dataset(
                &format!("d{j}"),
                1,
                [("compound".to_string(), Value::from(compound))]
                    .into_iter()
                    .collect(),
            );
            store.insert(d.clone()).expect("insert");
            unified.insert(&format!("p{i}"), d).expect("insert");
        }
        fed.add(store);
    }
    let pred = eq("compound", "PTU");
    let t = Instant::now();
    let reps = 50;
    let mut u = unified.cross_query(&pred);
    for _ in 1..reps {
        u = unified.cross_query(&pred);
    }
    let u_time = t.elapsed().as_secs_f64() / reps as f64;
    let t = Instant::now();
    let mut f = fed.cross_query(&pred);
    for _ in 1..reps {
        f = fed.cross_query(&pred);
    }
    let f_time = t.elapsed().as_secs_f64() / reps as f64;
    assert_eq!(u.hits.len(), f.hits.len(), "both must find all hits");
    // In the real facility each member store is a separate DB server:
    // every contact costs a LAN round trip (~2 ms in 2011).
    let rtt = 2e-3;
    let u_net = u_time + u.stores_contacted as f64 * rtt;
    let f_net = f_time + f.stores_contacted as f64 * rtt;
    ExpReport {
        id: "E8",
        title: "one big DB vs many small ones (slide 3)",
        rows: vec![
            ExpRow::new(
                "cross-project hits",
                "one query finds all",
                format!("{} across {projects} projects", u.hits.len()),
            ),
            ExpRow::new(
                "stores contacted",
                "1 (unified)",
                format!("unified {} vs federated {}", u.stores_contacted, f.stores_contacted),
            ),
            ExpRow::new(
                "in-process query latency",
                "-",
                format!("unified {} vs federated {}", fmt_secs(u_time), fmt_secs(f_time)),
            ),
            ExpRow::new(
                "with 2 ms per-store RTT",
                "single big DB wins",
                format!(
                    "unified {} vs federated {} ({:.1}x)",
                    fmt_secs(u_net),
                    fmt_secs(f_net),
                    f_net / u_net.max(1e-12)
                ),
            ),
        ],
    }
}

/// E11: tag → trigger → process → store-and-retag round trip (slide 12).
pub fn e11_workflow(quick: bool) -> ExpReport {
    let n_fish = if quick { 10 } else { 40 };
    let f = zebrafish_facility();
    let admin = f.admin().clone();
    let mut gen = HtmGenerator::new(3, 64);
    for _ in 0..n_fish {
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
        }
    }
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
                let seg = wf.add(MapActor::new("segment", |t: Token| {
                    let Token::Data(b) = t else { return Err("bytes".into()) };
                    let img = Image::decode(&b).ok_or("decode")?;
                    Ok(vec![
                        Token::str("cells"),
                        Token::int(count_cells(&img, 6) as i64),
                    ])
                }));
                let out = wf.add(Collect::new("sink", sink));
                wf.connect(src, 0, seg, 0).expect("ports");
                wf.connect(seg, 0, out, 0).expect("ports");
                wf
            }),
        }],
        Director::Sequential,
    );
    let browser = DataBrowser::new(&f, admin.clone());
    let t = Instant::now();
    let tagged = browser
        .tag_matching("zebrafish-htm", &eq("focus_um", 0.0), "todo")
        .expect("tagging");
    let outcomes = engine.run_pending().expect("workflows run");
    let wall = t.elapsed().as_secs_f64();
    let done = browser
        .query("zebrafish-htm", &has_tag("done"))
        .expect("query")
        .len();
    ExpReport {
        id: "E11",
        title: "tag-triggered workflow automation (slide 12)",
        rows: vec![
            ExpRow::new(
                "datasets selected+tagged",
                "(browser selection)",
                format!("{tagged}"),
            ),
            ExpRow::new(
                "workflows executed",
                "all tagged data processed",
                format!("{} ({:.1}/s)", outcomes.len(), outcomes.len() as f64 / wall),
            ),
            ExpRow::new(
                "round-trip latency per dataset",
                "(automated, not manual)",
                fmt_secs(wall / outcomes.len().max(1) as f64),
            ),
            ExpRow::new(
                "results stored+retagged",
                "stored and tagged in DB",
                format!("{done} carry the done tag + result metadata"),
            ),
        ],
    }
}

/// E14: "invisible (not-found, no-metadata) data is lost data" (slide 3).
pub fn e14_findability(quick: bool) -> ExpReport {
    let n_fish = if quick { 20 } else { 100 };
    let run = |enforce: bool, miss_every: usize| {
        let f = zebrafish_facility();
        let admin = f.admin().clone();
        let mut gen = HtmGenerator::new(9, 32);
        let mut i = 0usize;
        let mut rejected = 0u64;
        for _ in 0..n_fish {
            for (acq, img) in gen.next_fish() {
                let metadata = if i.is_multiple_of(miss_every) {
                    None
                } else {
                    Some(acq.document())
                };
                let r = f.ingest(
                    &admin,
                    IngestItem {
                        project: "zebrafish-htm".into(),
                        key: acq.key(),
                        data: img.encode(),
                        metadata,
                    },
                    IngestPolicy {
                        enforce_metadata: enforce,
                    },
                );
                if r.is_err() {
                    rejected += 1;
                }
                i += 1;
            }
        }
        let b = DataBrowser::new(&f, admin.clone());
        let rep = b.findability("zebrafish-htm").expect("audit");
        (rep, rejected)
    };
    // A sloppy instrument loses metadata for 1 in 5 items.
    let (lax, _) = run(false, 5);
    let (strict, rejected) = run(true, 5);
    ExpReport {
        id: "E14",
        title: "invisible data is lost data (slide 3)",
        rows: vec![
            ExpRow::new(
                "stored objects (lax ingest)",
                "-",
                format!("{}", lax.stored_objects),
            ),
            ExpRow::new(
                "invisible to every query",
                "lost data",
                format!(
                    "{} ({:.0}%)",
                    lax.invisible,
                    100.0 * lax.invisible as f64 / lax.stored_objects as f64
                ),
            ),
            ExpRow::new(
                "with metadata enforcement",
                "administration increases data value",
                format!(
                    "0 invisible; {rejected} rejected at the door ({} findable)",
                    strict.findable
                ),
            ),
        ],
    }
}
