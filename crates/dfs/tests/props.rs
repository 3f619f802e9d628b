//! Property tests for DFS invariants: placement distinctness, roundtrip
//! fidelity under arbitrary file sizes, and durability under failures up
//! to replication-1 nodes.

use bytes::Bytes;
use lsdf_dfs::{ClusterTopology, Dfs, DfsConfig, DfsNodeId, PlacementPolicy};
use lsdf_obs::TraceCtx;
use proptest::prelude::*;

fn make(racks: u16, per_rack: u16, block: u64, repl: usize, policy: PlacementPolicy, seed: u64) -> Dfs {
    Dfs::new(
        ClusterTopology::new(racks, per_rack),
        DfsConfig {
            block_size: block,
            replication: repl,
            node_capacity: u64::MAX,
            placement: policy,
            seed,
        },
    )
}

proptest! {
    /// Any file roundtrips exactly, for arbitrary sizes and block sizes.
    #[test]
    fn roundtrip_any_size(
        len in 0usize..5000,
        block in 1u64..512,
        seed in any::<u64>(),
    ) {
        let fs = make(2, 3, block, 2, PlacementPolicy::RackAware, seed);
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
        fs.write("/f", &payload, None).unwrap();
        prop_assert_eq!(fs.read("/f", None).unwrap(), Bytes::from(payload));
        let expect_blocks = if len == 0 { 0 } else { (len as u64).div_ceil(block) as usize };
        prop_assert_eq!(fs.stat("/f").unwrap().blocks, expect_blocks);
    }

    /// Replicas are always on distinct nodes; rack-aware placement spans
    /// at least two racks whenever replication >= 2 and racks >= 2.
    #[test]
    fn placement_invariants(
        seed in any::<u64>(),
        repl in 1usize..4,
        policy in prop::sample::select(vec![PlacementPolicy::RackAware, PlacementPolicy::Random]),
    ) {
        let fs = make(3, 4, 64, repl, policy, seed);
        fs.write("/f", &[0u8; 1000], Some(DfsNodeId(5))).unwrap();
        for lb in fs.file_blocks("/f").unwrap() {
            prop_assert_eq!(lb.replicas.len(), repl);
            let mut uniq = lb.replicas.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), repl, "duplicate replica nodes");
            if repl >= 2 && policy == PlacementPolicy::RackAware {
                let racks: std::collections::HashSet<u16> = lb
                    .replicas
                    .iter()
                    .map(|&n| fs.topology().rack_of(n).0)
                    .collect();
                prop_assert!(racks.len() >= 2, "rack-aware must span racks");
            }
        }
    }

    /// Killing any replication-1 nodes leaves every file readable, and a
    /// re-replication pass restores full redundancy.
    #[test]
    fn durability_under_failures(
        seed in any::<u64>(),
        kill in prop::collection::hash_set(0u32..12, 0..2),
    ) {
        let fs = make(3, 4, 128, 3, PlacementPolicy::RackAware, seed);
        let payloads: Vec<Vec<u8>> = (0..5)
            .map(|i| vec![i as u8; 300 + i * 17])
            .collect();
        for (i, p) in payloads.iter().enumerate() {
            fs.write(&format!("/f{i}"), p, Some(DfsNodeId((i % 12) as u32))).unwrap();
        }
        for &k in &kill {
            fs.kill_node(DfsNodeId(k));
        }
        // With at most 2 of 12 nodes dead and 3x replication, every block
        // keeps a live replica.
        for (i, p) in payloads.iter().enumerate() {
            prop_assert_eq!(fs.read(&format!("/f{i}"), None).unwrap(), Bytes::from(p.clone()));
        }
        fs.re_replicate(&TraceCtx::disabled());
        prop_assert!(fs.under_replicated().is_empty());
        // All replicas distinct and alive after repair.
        for i in 0..5 {
            for lb in fs.file_blocks(&format!("/f{i}")).unwrap() {
                let mut uniq = lb.replicas.clone();
                uniq.sort_unstable();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), lb.replicas.len());
                prop_assert!(lb.replicas.iter().all(|&n| fs.node(n).is_alive()));
            }
        }
    }

    /// Byte accounting: cluster usage equals sum of file sizes times
    /// replication, and returns to zero after deleting everything.
    #[test]
    fn usage_accounting(sizes in prop::collection::vec(1usize..500, 1..10)) {
        let fs = make(2, 3, 100, 2, PlacementPolicy::Random, 9);
        for (i, &s) in sizes.iter().enumerate() {
            fs.write(&format!("/f{i}"), &vec![0u8; s], None).unwrap();
        }
        let (used, _) = fs.usage();
        let expect: u64 = sizes.iter().map(|&s| s as u64 * 2).sum();
        prop_assert_eq!(used, expect);
        for i in 0..sizes.len() {
            fs.delete(&format!("/f{i}")).unwrap();
        }
        let (used, _) = fs.usage();
        prop_assert_eq!(used, 0);
    }
}
