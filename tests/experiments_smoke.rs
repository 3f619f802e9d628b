//! Scaled-down smoke runs of every experiment (E1–E14) defined in
//! DESIGN.md, asserting the *shape* each paper claim predicts. The bench
//! harness (`crates/bench`) runs the full-size versions; these keep the
//! claims continuously verified in `cargo test`.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use lsdf_core::planner::{lsdf_2011_communities, plan_processing, project_growth};
use lsdf_core::{BackendChoice, DataBrowser, Facility, IngestItem, IngestPolicy, ProjectSpec};
use lsdf_dfs::{ClusterTopology, Dfs, DfsConfig};
use lsdf_mapreduce::{no_combiner, run_job, InputFormat, JobConfig};
use lsdf_metadata::query::eq;
use lsdf_metadata::{
    dataset, zebrafish_schema, CrossQuery, Federation, FieldType, ProjectStore, SchemaBuilder,
    UnifiedCatalog, Value,
};
use lsdf_net::units::{GB, PB, TB, TEN_GBIT};
use lsdf_net::{lsdf as lsdf_net_topo, NetSim, Placement, TransferModel};
use lsdf_obs::TraceCtx;
use lsdf_sim::{SimDuration, Simulation};
use lsdf_storage::{ArrayModel, TapeLibrary, TapeOp, TapeParams};
use lsdf_workloads::microscopy::{rates, HtmGenerator};
use lsdf_workloads::volume::{MipMapper, MipReducer, Volume};

/// E1: microscopy ingest sustains (a scaled version of) 200k images/day.
#[test]
fn e1_ingest_rate_shape() {
    let f = Facility::builder()
        .tenant(ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .build()
        .unwrap();
    let admin = f.admin().clone();
    let mut gen = HtmGenerator::new(1, 32);
    let mut items = Vec::new();
    for _ in 0..4 {
        for (acq, img) in gen.next_fish() {
            items.push(IngestItem {
                project: "zebrafish-htm".into(),
                key: acq.key(),
                data: img.encode(),
                metadata: Some(acq.document()),
            });
        }
    }
    let t = std::time::Instant::now();
    let report = f.ingest_batch(&admin, items, IngestPolicy::default());
    let rate = report.registered as f64 / t.elapsed().as_secs_f64();
    assert_eq!(report.registered, 96);
    // The paper's rate is 2.3 images/s; any healthy build beats it by
    // orders of magnitude even in debug mode.
    assert!(rate > rates::IMAGES_PER_DAY as f64 / 86_400.0);
}

/// E2: the facility network carries concurrent DAQ streams at line rate
/// and the arrays have the paper's capacities.
#[test]
fn e2_facility_capacity_and_throughput() {
    assert_eq!(
        ArrayModel::lsdf_ibm().capacity_bytes + ArrayModel::lsdf_ddn().capacity_bytes,
        1_900 * TB
    );
    let net = lsdf_net_topo::build(2).expect("lsdf net builds");
    let sim_net = NetSim::new(net.topology.clone());
    let mut sim = Simulation::new();
    let done = Rc::new(RefCell::new(0u32));
    for &daq in &net.daq {
        let done = done.clone();
        sim_net
            .start_flow(&mut sim, daq, net.storage_ibm, 125 * GB, move |_, _| {
                *done.borrow_mut() += 1;
            })
            .unwrap();
    }
    let end = sim.run();
    assert_eq!(*done.borrow(), 2);
    // Both at ~line rate thanks to dual-homing: ~100 s, not 200.
    assert!(end.as_secs_f64() < 110.0, "took {}", end.as_secs_f64());
}

/// E3: 1 PB over ideal 10 Gb/s ≈ 9.3 days; ≈15 days at 62 % goodput.
#[test]
fn e3_pb_transfer_estimate() {
    let ideal = TransferModel::ideal(TEN_GBIT).days_for_bytes(PB);
    assert!((ideal - 9.26).abs() < 0.05, "ideal {ideal}");
    let real = TransferModel::with_efficiency(TEN_GBIT, 0.62).days_for_bytes(PB);
    assert!((real - 14.9).abs() < 0.5, "realistic {real}");
}

/// E4: MapReduce strong scaling. Correctness half on the real executor
/// (identical output across worker counts); scaling half on the
/// virtual-time cluster model, since the host machine may have a single
/// core (the paper's 60 nodes are simulated per the substitution rule).
#[test]
fn e4_scaling_shape() {
    use lsdf_mapreduce::{simulate_job, ClusterModel, Mapper, Record, Reducer};
    struct Count;
    impl Mapper for Count {
        type Key = u8;
        type Value = u64;
        fn map(&self, record: &Record, emit: &mut dyn FnMut(u8, u64)) {
            emit(0, record.data.len() as u64);
        }
    }
    struct Sum;
    impl Reducer for Sum {
        type Key = u8;
        type Value = u64;
        type Output = u64;
        fn reduce(&self, _k: &u8, v: &[u64]) -> Vec<u64> {
            vec![v.iter().sum()]
        }
    }
    let dfs = Dfs::new(
        ClusterTopology::new(2, 4),
        DfsConfig {
            block_size: 256,
            replication: 2,
            ..DfsConfig::default()
        },
    );
    dfs.write("/in", &vec![7u8; 16 * 256], None).unwrap();
    let mut outputs = Vec::new();
    for workers in [1usize, 8] {
        let mut cfg = JobConfig::on_cluster(&dfs, 1);
        cfg.workers.truncate(workers);
        cfg.input_format = InputFormat::WholeBlock;
        let out = run_job(
            &dfs,
            &["/in".to_string()],
            &Count,
            no_combiner::<Count>(),
            &Sum,
            &cfg,
        )
        .unwrap();
        outputs.push(out.output);
    }
    assert_eq!(outputs[0], outputs[1], "worker count must not change results");
    // Facility-scale strong scaling on the calibrated cluster model.
    let mut last = f64::INFINITY;
    for nodes in [1usize, 4, 15, 60] {
        let r = simulate_job(
            &ClusterModel::lsdf_2011().with_nodes(nodes),
            TB,
            16_384,
            2 * nodes,
        );
        assert!(
            r.total.as_secs_f64() < last,
            "{nodes} nodes must beat fewer nodes"
        );
        last = r.total.as_secs_f64();
    }
}

/// E5: distributed MIP equals the sequential render (the correctness half
/// of the 1 TB-in-20-min claim; the timing half is `lsdf_bench::e5_visualization`).
#[test]
fn e5_visualization_correctness() {
    let v = Volume::synthetic(3, 24, 24, 16);
    let slabs = v.to_slabs(4);
    let slab_bytes = slabs[0].len() as u64;
    let dfs = Dfs::new(
        ClusterTopology::new(2, 3),
        DfsConfig {
            block_size: slab_bytes,
            replication: 2,
            ..DfsConfig::default()
        },
    );
    let mut all = Vec::new();
    for s in &slabs {
        all.extend_from_slice(s);
    }
    dfs.write("/vol", &all, None).unwrap();
    let mut cfg = JobConfig::on_cluster(&dfs, 1);
    cfg.input_format = InputFormat::WholeBlock;
    let out = run_job(
        &dfs,
        &["/vol".to_string()],
        &MipMapper,
        no_combiner::<MipMapper>(),
        &MipReducer,
        &cfg,
    )
    .unwrap();
    assert_eq!(out.output[0], v.mip());
}

/// E7: indexed metadata queries scan only their hits.
#[test]
fn e7_index_scan_shape() {
    let store = ProjectStore::new(
        SchemaBuilder::new("t")
            .required("run", FieldType::Int)
            .indexed()
            .build()
            .unwrap(),
    );
    for i in 0..2_000i64 {
        store
            .insert(dataset(
                &format!("d{i}"),
                1,
                [("run".to_string(), Value::Int(i % 50))].into_iter().collect(),
            ))
            .unwrap();
    }
    let hits = store.query(&eq("run", 7i64));
    assert_eq!(hits.len(), 40);
    let (_, scanned) = store.query_stats();
    assert_eq!(scanned, 40, "index must avoid the 2000-record scan");
}

/// E8: the unified catalog answers cross-project queries with one store
/// contact; the federation needs N.
#[test]
fn e8_unified_vs_federated_shape() {
    let schemas: Vec<_> = (0..6)
        .map(|i| {
            SchemaBuilder::new(format!("p{i}"))
                .required("kind", FieldType::Str)
                .indexed()
                .build()
                .unwrap()
        })
        .collect();
    let unified = UnifiedCatalog::new(&schemas).unwrap();
    let mut fed = Federation::new();
    for (i, s) in schemas.iter().enumerate() {
        let store = Arc::new(ProjectStore::new(s.clone()));
        for j in 0..50 {
            let kind = if i == 3 && j % 10 == 0 { "rare" } else { "common" };
            let d = dataset(
                &format!("d{j}"),
                1,
                [("kind".to_string(), Value::from(kind))].into_iter().collect(),
            );
            store.insert(d.clone()).unwrap();
            unified.insert(&format!("p{i}"), d).unwrap();
        }
        fed.add(store);
    }
    let pred = eq("kind", "rare");
    let u = unified.cross_query(&pred);
    let f = fed.cross_query(&pred);
    assert_eq!(u.hits.len(), 5);
    assert_eq!(f.hits.len(), 5);
    assert_eq!(u.stores_contacted, 1);
    assert_eq!(f.stores_contacted, 6);
}

/// E10: VM deployment is minutes, not hours, and spread placement
/// balances hosts.
#[test]
fn e10_cloud_deploy_shape() {
    use lsdf_cloud::{CloudConfig, CloudManager, VmTemplate};
    let cloud = CloudManager::new(CloudConfig::lsdf());
    let mut sim = Simulation::new();
    for i in 0..20 {
        cloud
            .submit(&mut sim, VmTemplate::small(&format!("vm{i}")), |_, _| {})
            .unwrap();
    }
    sim.run();
    let stats = cloud.stats();
    assert_eq!(stats.deployed, 20);
    // "very fast to deploy": all 20 running within 10 simulated minutes.
    assert!(stats.max_deploy_secs < 600.0, "max {}", stats.max_deploy_secs);
    // Spread policy: no host holds more than one of the 20 VMs (60 hosts).
    assert!(cloud.vms_per_host().iter().all(|&n| n <= 1));
}

/// E12: the move-data/move-compute crossover exists and sits between
/// 100 GB and 1 TB for the facility's parameters.
#[test]
fn e12_crossover_shape() {
    let link = TransferModel::with_efficiency(TEN_GBIT, 0.7);
    let plan_small = plan_processing(10 * GB, link, SimDuration::from_mins(5), 4 * GB);
    let plan_large = plan_processing(10 * TB, link, SimDuration::from_mins(5), 4 * GB);
    assert_eq!(plan_small.placement, Placement::MoveData);
    assert_eq!(plan_large.placement, Placement::MoveCompute);
}

/// E13: tape recall latency is minutes and grows under contention; disk
/// reads are instant by comparison.
#[test]
fn e13_tape_latency_shape() {
    let lib = TapeLibrary::new(TapeParams::lto5(2));
    let mut sim = Simulation::new();
    for _ in 0..6 {
        lib.submit(&TraceCtx::disabled(), &mut sim, TapeOp::Recall, 10 * GB, |_, _| {});
    }
    sim.run();
    let lat = lib.recall_latency();
    assert_eq!(lat.count(), 6);
    assert!(lat.min() >= 90.0, "even unloaded recall takes ~minutes");
    assert!(lat.max() > 2.0 * lat.min(), "contention inflates the tail");
}

/// E14: without enforced metadata a fraction of data becomes unfindable.
#[test]
fn e14_findability_shape() {
    let f = Facility::builder()
        .tenant(ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .build()
        .unwrap();
    let admin = f.admin().clone();
    let mut gen = HtmGenerator::new(4, 32);
    // A sloppy instrument: 1 in 4 items arrives without metadata.
    for (i, (acq, img)) in gen.next_fish().into_iter().enumerate() {
        let metadata = if i % 4 == 0 { None } else { Some(acq.document()) };
        f.ingest(
            &admin,
            IngestItem {
                project: "zebrafish-htm".into(),
                key: acq.key(),
                data: img.encode(),
                metadata,
            },
            IngestPolicy {
                enforce_metadata: false,
            },
        )
        .unwrap();
    }
    let b = DataBrowser::new(&f, admin.clone());
    let report = b.findability("zebrafish-htm").unwrap();
    assert_eq!(report.stored_objects, 24);
    assert_eq!(report.invisible, 6);
    // With enforcement the same instrument loses nothing (rejects force
    // the operator to fix the metadata feed).
    let f2 = Facility::builder()
        .tenant(ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .build()
        .unwrap();
    let admin2 = f2.admin().clone();
    let mut gen = HtmGenerator::new(4, 32);
    for (acq, img) in gen.next_fish() {
        let _ = f2.ingest(
            &admin2,
            IngestItem {
                project: "zebrafish-htm".into(),
                key: acq.key(),
                data: img.encode(),
                metadata: Some(acq.document()),
            },
            IngestPolicy::default(),
        );
    }
    let b2 = DataBrowser::new(&f2, admin2);
    let report2 = b2.findability("zebrafish-htm").unwrap();
    assert_eq!(report2.invisible, 0);
}

/// E1/E2 supporting claim: growth projections land in the paper's bands.
#[test]
fn growth_projection_shape() {
    let rows = project_growth(&lsdf_2011_communities(), 4);
    assert!(rows[1].produced_bytes > PB as f64); // "1+ PB/year in 2012"
    assert!(rows[3].produced_bytes > 4.0 * PB as f64); // "~6 PB/year in 2014"
}
