//! The rack-awareness ablation: why HDFS's placement rule spans racks.
//!
//! A whole-rack failure (switch or PDU) is the correlated-failure mode
//! rack-aware placement defends against. With rack-aware placement and
//! replication ≥ 2 every block survives any single-rack loss *by
//! construction*; random placement concentrates some blocks inside one
//! rack and loses them.

use lsdf_dfs::{ClusterTopology, Dfs, DfsConfig, DfsNodeId, PlacementPolicy, RackId};
use lsdf_obs::TraceCtx;

fn cluster(policy: PlacementPolicy, seed: u64) -> Dfs {
    Dfs::new(
        ClusterTopology::new(3, 4),
        DfsConfig {
            block_size: 64,
            replication: 3,
            node_capacity: u64::MAX,
            placement: policy,
            seed,
        },
    )
}

fn kill_rack(dfs: &Dfs, rack: RackId) {
    let nodes: Vec<DfsNodeId> = dfs.topology().nodes_in_rack(rack).collect();
    for n in nodes {
        dfs.kill_node(n);
    }
}

#[test]
fn rack_aware_placement_survives_any_single_rack_failure() {
    for seed in 0..10 {
        for rack in 0..3u16 {
            let dfs = cluster(PlacementPolicy::RackAware, seed);
            let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
            for f in 0..4 {
                dfs.write(&format!("/f{f}"), &payload, Some(DfsNodeId(f)))
                    .unwrap();
            }
            kill_rack(&dfs, RackId(rack));
            for f in 0..4 {
                let data = dfs
                    .read(&format!("/f{f}"), None)
                    .unwrap_or_else(|e| panic!("seed {seed} rack {rack} lost /f{f}: {e}"));
                assert_eq!(data.len(), 4096);
            }
            // And a re-replication pass restores full redundancy on the
            // surviving racks.
            dfs.re_replicate(&TraceCtx::disabled());
            assert!(dfs.under_replicated().is_empty());
        }
    }
}

#[test]
fn random_placement_can_lose_blocks_to_a_rack_failure() {
    // Random placement puts some block's 3 replicas inside one rack with
    // probability ~ 3 * C(4,3)/C(12,3) per block ≈ 5%; with 64 blocks x
    // several seeds a loss is effectively certain. Find one and verify it
    // is *detected* (read errors, not silent corruption).
    let mut observed_loss = false;
    'outer: for seed in 0..20 {
        let dfs = cluster(PlacementPolicy::Random, seed);
        let payload = vec![7u8; 64 * 64]; // 64 blocks
        dfs.write("/f", &payload, None).unwrap();
        for rack in 0..3u16 {
            // Check whether any block lives entirely in this rack.
            let doomed = dfs.file_blocks("/f").unwrap().iter().any(|lb| {
                lb.replicas
                    .iter()
                    .all(|&n| dfs.topology().rack_of(n) == RackId(rack))
            });
            if doomed {
                kill_rack(&dfs, RackId(rack));
                let r = dfs.read("/f", None);
                assert!(
                    r.is_err(),
                    "a block with all replicas in rack {rack} must be unreadable"
                );
                observed_loss = true;
                break 'outer;
            }
        }
    }
    assert!(
        observed_loss,
        "random placement should concentrate at least one block in 20 seeds"
    );
}

#[test]
fn rack_aware_never_concentrates_a_block() {
    // The structural guarantee behind the first test: across many seeds,
    // no rack ever holds all replicas of any block.
    for seed in 0..25 {
        let dfs = cluster(PlacementPolicy::RackAware, seed);
        dfs.write("/f", &vec![1u8; 64 * 32], Some(DfsNodeId(seed as u32 % 12)))
            .unwrap();
        for lb in dfs.file_blocks("/f").unwrap() {
            let racks: std::collections::HashSet<u16> = lb
                .replicas
                .iter()
                .map(|&n| dfs.topology().rack_of(n).0)
                .collect();
            assert!(
                racks.len() >= 2,
                "seed {seed}: block {:?} concentrated in one rack",
                lb.id
            );
        }
    }
}
