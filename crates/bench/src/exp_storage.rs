//! Storage-side experiments: ADAL overhead (E9), cloud deployment (E10),
//! and HSM/tape archival (E13).

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use lsdf_adal::{Acl, Adal, Credential, ObjectStoreBackend, TokenAuth};
use lsdf_cloud::{CloudConfig, CloudManager, Placement, VmTemplate};
use lsdf_sim::Simulation;
use lsdf_storage::{
    Hsm, MigrationPolicy, ObjectStore, TapeLibrary, TapeOp, TapeParams,
};
use lsdf_workloads::climate::ClimateModel;

use crate::report::{fmt_bytes, fmt_secs, ExpReport, ExpRow};
use lsdf_obs::{names, TraceCtx};

/// E9: the unified access layer's overhead over direct backend access
/// (slide 9: "need a unified access layer").
pub fn e9_adal(quick: bool) -> ExpReport {
    let ops = if quick { 20_000 } else { 100_000 };
    let payload = Bytes::from(vec![7u8; 4096]);

    // Direct object-store access.
    let direct = Arc::new(ObjectStore::new("direct", u64::MAX));
    let t = Instant::now();
    for i in 0..ops {
        direct.put(&format!("k{i}"), payload.clone()).expect("put");
    }
    for i in 0..ops {
        let _ = direct.get(&format!("k{i}")).expect("get");
    }
    let direct_wall = t.elapsed().as_secs_f64() / (2 * ops) as f64;

    // Through the ADAL: path parse + auth + ACL + mount resolution.
    let auth = Arc::new(TokenAuth::new());
    auth.register("tok", "user");
    let acl = Arc::new(Acl::new());
    acl.grant("user", "proj", true);
    let adal = Adal::builder().auth(auth).acl(acl).build();
    adal.mount(
        "proj",
        Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(
            "via-adal",
            u64::MAX,
        )))),
    );
    let cred = Credential::Token("tok".into());
    let t = Instant::now();
    for i in 0..ops {
        adal.put(&cred, &format!("lsdf://proj/k{i}"), payload.clone())
            .expect("put");
    }
    for i in 0..ops {
        let _ = adal.get(&cred, &format!("lsdf://proj/k{i}")).expect("get");
    }
    let adal_wall = t.elapsed().as_secs_f64() / (2 * ops) as f64;
    // The layer's own registry saw every op — regenerate the numbers
    // from it instead of the external stopwatch.
    let reg = adal.obs();
    let put_lat = reg.histogram(names::ADAL_OP_LATENCY_NS, &[("op", "put")]);
    let get_lat = reg.histogram(names::ADAL_OP_LATENCY_NS, &[("op", "get")]);
    ExpReport {
        id: "E9",
        title: "ADAL: unified access layer overhead (slide 9)",
        rows: vec![
            ExpRow::new("direct backend op", "-", fmt_secs(direct_wall)),
            ExpRow::new(
                "via ADAL (parse+auth+ACL+mount)",
                "unified layer worth its cost",
                fmt_secs(adal_wall),
            ),
            ExpRow::new(
                "overhead",
                "(small constant)",
                format!(
                    "{} per op ({:.1}%)",
                    fmt_secs(adal_wall - direct_wall),
                    100.0 * (adal_wall - direct_wall) / direct_wall
                ),
            ),
            ExpRow::new(
                "registry: ops recorded",
                "counters match the workload",
                format!(
                    "{} puts / {} gets",
                    reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", "put")]),
                    reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", "get")]),
                ),
            ),
            ExpRow::new(
                "registry: put latency p50/p95/p99",
                "(from adal_op_latency_ns)",
                format!(
                    "{} / {} / {}",
                    fmt_secs(put_lat.quantile(0.50) as f64 / 1e9),
                    fmt_secs(put_lat.quantile(0.95) as f64 / 1e9),
                    fmt_secs(put_lat.quantile(0.99) as f64 / 1e9),
                ),
            ),
            ExpRow::new(
                "registry: get latency p50/p95/p99",
                "(from adal_op_latency_ns)",
                format!(
                    "{} / {} / {}",
                    fmt_secs(get_lat.quantile(0.50) as f64 / 1e9),
                    fmt_secs(get_lat.quantile(0.95) as f64 / 1e9),
                    fmt_secs(get_lat.quantile(0.99) as f64 / 1e9),
                ),
            ),
        ],
    }
}

/// E10: cloud VMs "reliable, highly flexible, and very fast to deploy"
/// (slide 11) — deployment latency and placement-policy comparison.
pub fn e10_cloud(quick: bool) -> ExpReport {
    // Each lsdf node fits 4 small VMs (CPU-bound); keep the fleet at half
    // saturation so spread and pack produce visibly different layouts.
    let vms = if quick { 60 } else { 120 };
    let run = |policy: Placement| {
        let cloud = CloudManager::new(CloudConfig {
            policy,
            ..CloudConfig::lsdf()
        });
        let mut sim = Simulation::new();
        for i in 0..vms {
            cloud
                .submit(&mut sim, VmTemplate::small(&format!("vm{i}")), |_, _| {})
                .expect("submit");
        }
        sim.run();
        let stats = cloud.stats();
        let dist = cloud.vms_per_host();
        let max_per_host = dist.iter().copied().max().unwrap_or(0);
        (stats, max_per_host)
    };
    let (spread, spread_max) = run(Placement::Spread);
    let (pack, pack_max) = run(Placement::Pack);
    ExpReport {
        id: "E10",
        title: "cloud: fast, flexible VM deployment (slide 11)",
        rows: vec![
            ExpRow::new(
                "VMs deployed",
                "user-deployed VMs",
                format!("{} on 60 hosts", spread.deployed),
            ),
            ExpRow::new(
                "mean deploy latency",
                "very fast to deploy",
                format!(
                    "{} (max {})",
                    fmt_secs(spread.mean_deploy_secs),
                    fmt_secs(spread.max_deploy_secs)
                ),
            ),
            ExpRow::new(
                "spread policy balance",
                "(load spreading)",
                format!("max {spread_max} VMs on any host"),
            ),
            ExpRow::new(
                "pack policy consolidation",
                "(energy/consolidation)",
                format!("max {pack_max} VMs on one host, {} deployed", pack.deployed),
            ),
        ],
    }
}

/// E13: tape archive & archival-quality climate data (slides 7/14) —
/// HSM migration under a year of daily grids, and recall latency on the
/// tape-library model, unloaded vs contended.
pub fn e13_hsm(quick: bool) -> ExpReport {
    let days = if quick { 120 } else { 365 };
    let (nlat, nlon) = (90, 180);
    let grid_bytes = 16 + 2 * nlat as u64 * nlon as u64;
    // Disk tier holds ~40 days; the rest must migrate.
    let disk = Arc::new(ObjectStore::new("disk", grid_bytes * 40));
    let tape_store = Arc::new(ObjectStore::new("tape", u64::MAX));
    let hsm = Hsm::new(
        disk,
        tape_store,
        0.5,
        0.8,
        MigrationPolicy::OldestFirst,
    );
    let mut model = ClimateModel::new(23, nlat, nlon, 2.0);
    let t = Instant::now();
    for day in 0..days {
        hsm.put(&format!("daily/d{day:04}"), model.next_day().encode())
            .expect("ingest");
        hsm.run_migration().expect("migration");
    }
    let ingest_wall = t.elapsed().as_secs_f64();
    let demotions = hsm.obs().counter_value(names::HSM_DEMOTIONS_TOTAL, &[("store", "disk")]);
    // Every archived day still readable (transparent recall).
    let t = Instant::now();
    let _ = hsm.get(&TraceCtx::disabled(), "daily/d0000").expect("recall");
    let recall_wall = t.elapsed().as_secs_f64();

    // Physical latency on the tape-library model.
    let lib = TapeLibrary::new(TapeParams::lto5(4));
    let recall_gb: u64 = 5_000_000_000;
    let unloaded = lib.unloaded_latency(recall_gb);
    let mut sim = Simulation::new();
    for _ in 0..16 {
        lib.submit(&TraceCtx::disabled(), &mut sim, TapeOp::Recall, recall_gb, |_, _| {});
    }
    sim.run();
    let contended = lib.recall_latency();
    ExpReport {
        id: "E13",
        title: "tape archive + archival climate data (slides 7/14)",
        rows: vec![
            ExpRow::new(
                "year of daily grids ingested",
                "'archival quality'",
                format!(
                    "{days} days ({}) in {}",
                    fmt_bytes((days as u64 * grid_bytes) as f64),
                    fmt_secs(ingest_wall)
                ),
            ),
            ExpRow::new(
                "watermark demotions to tape",
                "tape backend for archive",
                format!("{demotions} (disk steady at {:.0}%)", hsm.disk_usage() * 100.0),
            ),
            ExpRow::new(
                "transparent recall (in-process)",
                "old data stays usable",
                fmt_secs(recall_wall),
            ),
            ExpRow::new(
                "tape model: unloaded 5 GB recall",
                "(mount+seek+stream)",
                fmt_secs(unloaded.as_secs_f64()),
            ),
            ExpRow::new(
                "tape model: 16-recall campaign",
                "(contention dominates)",
                format!(
                    "mean {} / max {}",
                    fmt_secs(contended.mean()),
                    fmt_secs(contended.max())
                ),
            ),
        ],
    }
}
