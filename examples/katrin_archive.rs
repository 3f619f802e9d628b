//! KATRIN event archival (paper, slide 14): ingest neutrino-experiment
//! runs into an HSM-backed project, let watermark migration move cold
//! runs to tape, recall an old run for reanalysis, and model the recall
//! latency on the tape-library simulator.
//!
//! Run with: `cargo run --release -p lsdf-examples --bin katrin_archive`


#![allow(clippy::print_stdout)] // binaries report to stdout by design
use std::cell::RefCell;
use std::rc::Rc;

use lsdf_core::{BackendChoice, Facility, IngestItem, IngestPolicy, ProjectSpec};
use lsdf_metadata::{FieldType, SchemaBuilder, Value};
use lsdf_obs::{names, TraceCtx};
use lsdf_sim::Simulation;
use lsdf_storage::{MigrationPolicy, TapeLibrary, TapeOp, TapeParams, Tier};
use lsdf_workloads::katrin::{KatrinGenerator, Spectrum, ENDPOINT_EV};

const RUNS: usize = 30;
const EVENTS_PER_RUN: usize = 2_000;

fn main() {
    // --- Facility with an HSM-backed KATRIN project --------------------
    let schema = SchemaBuilder::new("katrin")
        .required("run", FieldType::Int)
        .indexed()
        .required("m_nu_hypothesis_ev", FieldType::Float)
        .required("events", FieldType::Int)
        .build()
        .expect("schema builds");
    let facility = Facility::builder()
        .tenant(ProjectSpec::new(
            schema,
            BackendChoice::Hsm {
                // Small disk tier so migration actually happens.
                disk_capacity: 12 * EVENTS_PER_RUN as u64 * 18,
                low_watermark: 0.4,
                high_watermark: 0.75,
                policy: MigrationPolicy::OldestFirst,
            },
        ))
        .build()
        .expect("facility assembles");
    let admin = facility.admin().clone();

    // --- Ingest a month of runs ----------------------------------------
    let mut gen = KatrinGenerator::new(21, 0.0, 1_000.0);
    for run in 0..RUNS {
        let data = gen.run_bytes(EVENTS_PER_RUN);
        let doc = [
            ("run".to_string(), Value::Int(run as i64)),
            ("m_nu_hypothesis_ev".to_string(), Value::Float(0.0)),
            ("events".to_string(), Value::Int(EVENTS_PER_RUN as i64)),
        ]
        .into_iter()
        .collect();
        facility
            .ingest(
                &admin,
                IngestItem {
                    project: "katrin".into(),
                    key: format!("runs/run{run:04}"),
                    data: bytes::Bytes::from(data.to_vec()),
                    metadata: Some(doc),
                },
                IngestPolicy::default(),
            )
            .expect("ingest succeeds");
        // The facility's migration daemon runs between ingests.
        facility
            .hsm("katrin")
            .expect("HSM-backed")
            .run_migration()
            .expect("migration succeeds");
    }
    let hsm = facility.hsm("katrin").expect("HSM-backed");
    let on_tape = hsm
        .catalog()
        .iter()
        .filter(|e| e.tier == Tier::Tape)
        .count();
    let demotions = hsm.obs().counter_value(names::HSM_DEMOTIONS_TOTAL, &[("store", "katrin-disk")]);
    println!(
        "ingested {RUNS} runs; {} on tape after {} demotions (disk at {:.0}%)",
        on_tape,
        demotions,
        hsm.disk_usage() * 100.0
    );

    // --- Recall an old run for reanalysis -------------------------------
    let old_run = "runs/run0000";
    assert_eq!(hsm.tier_of(old_run).expect("catalogued"), Tier::Tape);
    let data = hsm.get(&TraceCtx::disabled(), old_run).expect("transparent recall");
    assert_eq!(hsm.tier_of(old_run).expect("catalogued"), Tier::Disk);
    let mut spectrum = Spectrum::new(ENDPOINT_EV - 200.0, 2.0, 100);
    let n = spectrum.fill_run(&data);
    println!(
        "recalled {old_run} from tape: {n} events, {} within 40 eV of the endpoint",
        spectrum.endpoint_counts(40.0)
    );

    // --- Tape-library latency model (the physical recall cost) ----------
    println!("\ntape recall latency (LTO-5 library, 4 drives):");
    let lib = TapeLibrary::new(TapeParams::lto5(4));
    let mut sim = Simulation::new();
    let latencies: Rc<RefCell<Vec<(usize, f64)>>> = Rc::new(RefCell::new(Vec::new()));
    // A reanalysis campaign recalls 12 archived runs (2 GB each) at once.
    for i in 0..12usize {
        let latencies = latencies.clone();
        lib.submit(&TraceCtx::disabled(), &mut sim, TapeOp::Recall, 2_000_000_000, move |_, c| {
            latencies
                .borrow_mut()
                .push((i, c.finished.since(c.submitted).as_secs_f64()));
        });
    }
    sim.run();
    let lat = latencies.borrow();
    let mean = lat.iter().map(|&(_, s)| s).sum::<f64>() / lat.len() as f64;
    let max = lat.iter().map(|&(_, s)| s).fold(0.0, f64::max);
    println!(
        "  12 recalls x 2 GB: first {:.0} s, mean {:.0} s, last {:.0} s \
         (drive + robot contention)",
        lat.iter().map(|&(_, s)| s).fold(f64::MAX, f64::min),
        mean,
        max
    );
    let stats = lib.recall_latency();
    println!(
        "  unloaded latency would be {:.0} s -> queueing inflates the mean {:.1}x",
        lib.unloaded_latency(2_000_000_000).as_secs_f64(),
        stats.mean() / lib.unloaded_latency(2_000_000_000).as_secs_f64()
    );
    println!("\narchive demo complete");
}
