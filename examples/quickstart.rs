//! Quickstart: assemble a facility, ingest experiment data, query the
//! metadata repository, and run a tag-triggered workflow — the whole
//! LSDF loop in ~100 lines.
//!
//! Run with: `cargo run -p lsdf-examples --bin quickstart`


#![allow(clippy::print_stdout)] // binaries report to stdout by design
use lsdf_core::{BackendChoice, DataBrowser, Facility, IngestItem, IngestPolicy, ProjectSpec};
use lsdf_metadata::query::{eq, has_tag};
use lsdf_metadata::zebrafish_schema;
use lsdf_workflow::{
    Collect, Director, MapActor, Token, TriggerEngine, TriggerRule, VecSource, Workflow,
};
use lsdf_workloads::imaging::count_cells;
use lsdf_workloads::microscopy::{HtmGenerator, Image};

fn main() {
    // 1. Assemble the facility: one project, object-store backed.
    let facility = Facility::builder()
        .tenant(ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .build()
        .expect("facility assembles");
    let admin = facility.admin().clone();

    // 2. Ingest two fish (48 images) from the microscope generator.
    let mut microscope = HtmGenerator::new(7, 128);
    let mut items = Vec::new();
    for _ in 0..2 {
        for (acq, img) in microscope.next_fish() {
            items.push(IngestItem {
                project: "zebrafish-htm".into(),
                key: acq.key(),
                data: img.encode(),
                metadata: Some(acq.document()),
            });
        }
    }
    let report = facility.ingest_batch(&admin, items, IngestPolicy::default());
    println!(
        "ingested {} datasets ({} bytes), {} rejected",
        report.registered, report.bytes, report.rejected
    );

    // 3. Query the catalog through the DataBrowser.
    let browser = DataBrowser::new(&facility, admin.clone());
    let in_focus = browser
        .query("zebrafish-htm", &eq("focus_um", 0.0))
        .expect("query runs");
    println!("{} images at the in-focus plane", in_focus.len());

    // 4. Wire a segmentation workflow to the "needs-segmentation" tag.
    let store = facility
        .store("zebrafish-htm")
        .expect("project exists")
        .clone();
    let adal = facility.adal().clone();
    let store_for_rule = store.clone();
    let cred = admin.clone();
    let rule = TriggerRule {
        step: "segmentation".into(),
        tag: "needs-segmentation".into(),
        done_tag: "segmented".into(),
        remove_trigger_tag: true,
        build: Box::new(move |dataset_id, sink| {
            // Fetch the image payload and count cells inside the workflow.
            let rec = store_for_rule.get(dataset_id).expect("dataset exists");
            let data = adal.get(&cred, &rec.location()).expect("payload readable");
            let mut wf = Workflow::new();
            let src = wf.add(VecSource::new("image", vec![Token::Data(data.to_vec())]));
            let seg = wf.add(MapActor::new("count-cells", |t: Token| {
                let Token::Data(bytes) = t else {
                    return Err("expected image bytes".into());
                };
                let img = Image::decode(&bytes).ok_or("bad image encoding")?;
                let cells = count_cells(&img, 6) as i64;
                Ok(vec![Token::str("cells"), Token::int(cells)])
            }));
            let out = wf.add(Collect::new("results", sink));
            wf.connect(src, 0, seg, 0).expect("ports exist");
            wf.connect(seg, 0, out, 0).expect("ports exist");
            wf
        }),
    };
    let engine = TriggerEngine::new(store.clone(), vec![rule], Director::Sequential);

    // 5. Tag the in-focus images; the engine processes the selection.
    let tagged = browser
        .tag_matching("zebrafish-htm", &eq("focus_um", 0.0), "needs-segmentation")
        .expect("tagging works");
    let outcomes = engine.run_pending().expect("workflows run");
    println!("tagged {tagged}, segmented {} datasets", outcomes.len());

    // 6. Results landed back in the metadata DB, queryable like any field.
    let segmented = browser
        .query("zebrafish-htm", &has_tag("segmented"))
        .expect("query runs");
    assert_eq!(segmented.len(), outcomes.len());
    let sample = &segmented[0];
    let cells = sample
        .latest_processing("segmentation")
        .expect("processing recorded")
        .results
        .get("cells")
        .cloned();
    println!(
        "dataset '{}' -> cells = {}",
        sample.name,
        cells.map(|v| v.to_string()).unwrap_or_default()
    );
    // 7. The hits of step 3 were held through all of that. A hit is a
    // shared handle on the record as of its query: the catalog tagged
    // and processed copies, and these still read as they did then.
    let stale = in_focus.iter().filter(|r| r.tags.is_empty() && r.processing.is_empty()).count();
    println!("{stale} of {} handles held since step 3 still read untagged", in_focus.len());
    println!("quickstart complete");
}
