//! Zebrafish high-throughput-microscopy screening day (paper, slides 4–5,
//! 12): a scaled-down acquisition day flows through ingest, automated
//! tag-triggered segmentation, and quality queries, then the measured
//! throughput is extrapolated to the paper's 200 000-images/day rate.
//!
//! Run with: `cargo run --release -p lsdf-examples --bin zebrafish_screening`


#![allow(clippy::print_stdout)] // binaries report to stdout by design
use std::time::Instant;

use lsdf_core::{BackendChoice, DataBrowser, Facility, IngestItem, IngestPolicy, ProjectSpec};
use lsdf_metadata::query::{eq, ge, has_tag};
use lsdf_metadata::{zebrafish_schema, Value};
use lsdf_workflow::{
    Collect, Director, MapActor, Token, TriggerEngine, TriggerRule, VecSource, Workflow,
};
use lsdf_workloads::imaging::count_cells;
use lsdf_workloads::microscopy::{rates, HtmGenerator, Image};

const FISH: usize = 20; // scaled-down day: 20 fish = 480 images
const EDGE: u32 = 128; // scaled-down image edge (full size: 2000)

fn main() {
    let facility = Facility::builder()
        .tenant(ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .build()
        .expect("facility assembles");
    let admin = facility.admin().clone();

    // --- Acquisition + ingest ---------------------------------------
    let mut microscope = HtmGenerator::new(2026, EDGE);
    let t0 = Instant::now(); // lint: allow(determinism) -- demo prints real wall-clock runtime; results are seeded
    let mut items = Vec::new();
    for _ in 0..FISH {
        for (acq, img) in microscope.next_fish() {
            items.push(IngestItem {
                project: "zebrafish-htm".into(),
                key: acq.key(),
                data: img.encode(),
                metadata: Some(acq.document()),
            });
        }
    }
    let gen_time = t0.elapsed();
    let t1 = Instant::now(); // lint: allow(determinism) -- demo prints real wall-clock runtime; results are seeded
    let report = facility.ingest_batch(&admin, items, IngestPolicy::default());
    let ingest_time = t1.elapsed();
    println!(
        "acquired {} images in {:.2?}, ingested {} ({} MB) in {:.2?}",
        report.registered,
        gen_time,
        report.registered,
        report.bytes / 1_000_000,
        ingest_time
    );
    let img_per_sec = report.registered as f64 / ingest_time.as_secs_f64();
    let day_capacity = img_per_sec * 86_400.0;
    println!(
        "ingest rate: {:.0} images/s -> {:.1}x the paper's 200k images/day",
        img_per_sec,
        day_capacity / rates::IMAGES_PER_DAY as f64
    );

    // --- Automated segmentation via tag triggers ---------------------
    let store = facility
        .store("zebrafish-htm")
        .expect("project exists")
        .clone();
    let adal = facility.adal().clone();
    let cred = admin.clone();
    let store_rule = store.clone();
    let rule = TriggerRule {
        step: "segmentation".into(),
        tag: "needs-segmentation".into(),
        done_tag: "segmented".into(),
        remove_trigger_tag: true,
        build: Box::new(move |id, sink| {
            let rec = store_rule.get(id).expect("dataset exists");
            let data = adal.get(&cred, &rec.location()).expect("payload readable");
            let mut wf = Workflow::new();
            let src = wf.add(VecSource::new("image", vec![Token::Data(data.to_vec())]));
            let seg = wf.add(MapActor::new("segment", |t: Token| {
                let Token::Data(bytes) = t else {
                    return Err("expected bytes".into());
                };
                let img = Image::decode(&bytes).ok_or("bad encoding")?;
                Ok(vec![
                    Token::str("cells"),
                    Token::int(count_cells(&img, 6) as i64),
                ])
            }));
            let out = wf.add(Collect::new("results", sink));
            wf.connect(src, 0, seg, 0).expect("ports");
            wf.connect(seg, 0, out, 0).expect("ports");
            wf
        }),
    };
    let engine = TriggerEngine::new(store.clone(), vec![rule], Director::Sequential);
    let browser = DataBrowser::new(&facility, admin.clone());

    // The screening protocol segments the in-focus 488 nm channel.
    let t2 = Instant::now(); // lint: allow(determinism) -- demo prints real wall-clock runtime; results are seeded
    let selected = browser
        .tag_matching(
            "zebrafish-htm",
            &eq("focus_um", 0.0).and(eq("wavelength_nm", 488.0)),
            "needs-segmentation",
        )
        .expect("selection works");
    let outcomes = engine.run_pending().expect("workflows run");
    let seg_time = t2.elapsed();
    println!(
        "segmented {} of {} selected images in {:.2?} ({:.1} images/s)",
        outcomes.len(),
        selected,
        seg_time,
        outcomes.len() as f64 / seg_time.as_secs_f64()
    );

    // --- Science queries over the combined metadata ------------------
    let mut counts: Vec<i64> = Vec::new();
    for rec in browser
        .query("zebrafish-htm", &has_tag("segmented"))
        .expect("query runs")
    {
        if let Some(Value::Int(c)) = rec
            .latest_processing("segmentation")
            .and_then(|p| p.results.get("cells"))
        {
            counts.push(*c);
        }
    }
    counts.sort_unstable();
    let median = counts[counts.len() / 2];
    println!(
        "cell counts: n={} min={} median={} max={}",
        counts.len(),
        counts.first().expect("nonempty"),
        median,
        counts.last().expect("nonempty"),
    );
    // Flag outlier fish (toxicological endpoint: too few cells).
    let low = browser
        .query("zebrafish-htm", &has_tag("segmented"))
        .expect("query")
        .into_iter()
        .filter(|r| {
            matches!(
                r.latest_processing("segmentation")
                    .and_then(|p| p.results.get("cells")),
                Some(Value::Int(c)) if *c < median / 2
            )
        })
        .count();
    println!("{low} images flagged below half-median cell count");

    // Range queries on acquisition metadata keep working alongside.
    let late = browser
        .query(
            "zebrafish-htm",
            &ge("acquired_at", Value::Time((FISH as i64 / 2) * 1_000_000_000)),
        )
        .expect("query runs");
    println!("{} images from the second half of the day", late.len());
    println!("screening day complete");
}
