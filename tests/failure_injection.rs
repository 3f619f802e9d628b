//! Failure injection across subsystems: datanode death mid-campaign,
//! host failures under the cloud manager, tape-library contention, and
//! metadata enforcement failures — verifying the facility degrades the
//! way the real one must.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use lsdf_cloud::{CloudConfig, CloudManager, HostSpec, Placement, VmState, VmTemplate};
use lsdf_dfs::{ClusterTopology, Dfs, DfsConfig, DfsNodeId, PlacementPolicy};
use lsdf_mapreduce::{no_combiner, run_job, JobConfig, Mapper, Record, Reducer};
use lsdf_obs::TraceCtx;
use lsdf_sim::{SimDuration, Simulation};
use lsdf_storage::{TapeLibrary, TapeOp, TapeParams};

struct CountMap;
impl Mapper for CountMap {
    type Key = u8;
    type Value = u64;
    fn map(&self, record: &Record, emit: &mut dyn FnMut(u8, u64)) {
        emit(0, record.data.len() as u64);
    }
}
struct SumReduce;
impl Reducer for SumReduce {
    type Key = u8;
    type Value = u64;
    type Output = u64;
    fn reduce(&self, _k: &u8, values: &[u64]) -> Vec<u64> {
        vec![values.iter().sum()]
    }
}

#[test]
fn mapreduce_completes_after_datanode_death_with_rereplication() {
    let dfs = Dfs::new(
        ClusterTopology::new(3, 3),
        DfsConfig {
            block_size: 64,
            replication: 3,
            node_capacity: u64::MAX,
            placement: PlacementPolicy::RackAware,
            seed: 5,
        },
    );
    let payload: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
    dfs.write("/data", &payload, Some(DfsNodeId(0))).unwrap();

    // Kill two nodes (replication is 3: data must survive).
    dfs.kill_node(DfsNodeId(0));
    dfs.kill_node(DfsNodeId(4));
    assert!(!dfs.under_replicated().is_empty());
    dfs.re_replicate(&TraceCtx::disabled());
    assert!(dfs.under_replicated().is_empty());

    // The job runs on the surviving nodes and sees every byte.
    let mut cfg = JobConfig::on_cluster(&dfs, 1); // live nodes only
    cfg.input_format = lsdf_mapreduce::InputFormat::WholeBlock;
    assert_eq!(cfg.workers.len(), 7);
    let out = run_job(
        &dfs,
        &["/data".to_string()],
        &CountMap,
        no_combiner::<CountMap>(),
        &SumReduce,
        &cfg,
    )
    .unwrap();
    assert_eq!(out.output, vec![2048]);
}

#[test]
fn cascading_failures_eventually_lose_blocks_detectably() {
    let dfs = Dfs::new(
        ClusterTopology::new(2, 2),
        DfsConfig {
            block_size: 64,
            replication: 2,
            node_capacity: u64::MAX,
            placement: PlacementPolicy::RackAware,
            seed: 6,
        },
    );
    dfs.write("/data", &[1u8; 512], None).unwrap();
    // Kill everything: reads must fail loudly, not fabricate data.
    for n in dfs.live_nodes() {
        dfs.kill_node(n);
    }
    assert!(dfs.read("/data", None).is_err());
    // Re-replication cannot help with zero live sources.
    assert_eq!(dfs.re_replicate(&TraceCtx::disabled()), 0);
    // Reviving one replica-holder restores service.
    dfs.revive_node(DfsNodeId(0));
    dfs.revive_node(DfsNodeId(1));
    dfs.revive_node(DfsNodeId(2));
    dfs.revive_node(DfsNodeId(3));
    assert_eq!(dfs.read("/data", None).unwrap().len(), 512);
}

#[test]
fn cloud_host_failure_kills_vms_and_pending_queue_reroutes() {
    let cloud = CloudManager::new(CloudConfig {
        hosts: vec![HostSpec::lsdf_node(); 3],
        staging_bps: 1e9,
        concurrent_stagings: 4,
        boot_time: SimDuration::from_secs(10),
        policy: Placement::Spread,
    });
    let mut sim = Simulation::new();
    let running: Rc<RefCell<Vec<_>>> = Rc::new(RefCell::new(Vec::new()));
    for i in 0..3 {
        let running = running.clone();
        cloud
            .submit(&mut sim, VmTemplate::small(&format!("vm{i}")), move |_, id| {
                running.borrow_mut().push(id);
            })
            .unwrap();
    }
    sim.run();
    assert_eq!(running.borrow().len(), 3);
    // Fail the host of vm0.
    let victim = running.borrow()[0];
    let host = cloud.host_of(victim).unwrap();
    let failed = cloud.fail_host(&mut sim, host).unwrap();
    assert_eq!(failed, vec![victim]);
    assert_eq!(cloud.state(victim).unwrap(), VmState::Failed);
    // Resubmission lands on a surviving host.
    let resubmitted = Rc::new(RefCell::new(None));
    {
        let resubmitted = resubmitted.clone();
        cloud
            .submit(&mut sim, VmTemplate::small("vm0-retry"), move |_, id| {
                *resubmitted.borrow_mut() = Some(id);
            })
            .unwrap();
    }
    sim.run();
    let new_vm = resubmitted.borrow().expect("redeployed");
    assert_ne!(cloud.host_of(new_vm).unwrap(), host);
    assert_eq!(cloud.stats().failed, 1);
}

#[test]
fn tape_contention_degrades_latency_gracefully() {
    // One drive, burst of recalls: latency grows linearly with queue
    // position — no starvation, strict FIFO.
    let lib = TapeLibrary::new(TapeParams {
        drives: 1,
        mount: SimDuration::from_secs(60),
        seek: SimDuration::from_secs(30),
        stream_bps: 100e6,
        unmount: SimDuration::from_secs(10),
    });
    let mut sim = Simulation::new();
    let finishes: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..5 {
        let finishes = finishes.clone();
        lib.submit(&TraceCtx::disabled(), &mut sim, TapeOp::Recall, 1_000_000_000, move |s, _| {
            finishes.borrow_mut().push(s.now().as_secs_f64());
        });
    }
    sim.run();
    let f = finishes.borrow();
    // Each service takes 60+30+10+10 = 110 s.
    for (i, &t) in f.iter().enumerate() {
        assert!(
            (t - 110.0 * (i as f64 + 1.0)).abs() < 1e-6,
            "recall {i} finished at {t}"
        );
    }
    let tally = lib.recall_latency();
    assert_eq!(tally.count(), 5);
    assert!((tally.max() - 550.0).abs() < 1e-6);
}

#[test]
fn mapreduce_straggler_with_speculation_still_exact() {
    let dfs = Dfs::new(
        ClusterTopology::new(1, 4),
        DfsConfig {
            block_size: 64,
            replication: 2,
            node_capacity: u64::MAX,
            placement: PlacementPolicy::Random,
            seed: 8,
        },
    );
    let payload = vec![9u8; 1024];
    dfs.write("/d", &payload, None).unwrap();
    let mut cfg = JobConfig::on_cluster(&dfs, 2);
    cfg.input_format = lsdf_mapreduce::InputFormat::WholeBlock;
    cfg.speculative = true;
    cfg.slow_nodes = vec![
        (DfsNodeId(0), Duration::from_millis(150)),
        (DfsNodeId(1), Duration::from_millis(150)),
    ];
    let out = run_job(
        &dfs,
        &["/d".to_string()],
        &CountMap,
        no_combiner::<CountMap>(),
        &SumReduce,
        &cfg,
    )
    .unwrap();
    assert_eq!(out.output, vec![1024]);
    // Byte accounting unaffected by duplicated attempts.
    assert_eq!(out.stats.bytes_read, 1024);
    assert_eq!(out.stats.map_tasks, 16);
}
