//! Property tests for DFS invariants: placement distinctness, roundtrip
//! fidelity under arbitrary file sizes, durability under failures up
//! to replication-1 nodes, reads that hand back the written buffer, and
//! the replica try order under kills, revives and flaky nodes.
//!
//! `payload_deep_copies` is process-global and one test here counts it
//! exactly, so every test in this binary writes owned payloads
//! ([`put`]), never the copying `&[u8]` entry point.

use std::sync::Barrier;
use std::thread;

use bytes::Bytes;
use lsdf_dfs::{
    BlockExtent, BlockId, ClusterTopology, Dfs, DfsConfig, DfsError, DfsNodeId, Locality,
    PlacementPolicy,
};
use lsdf_obs::{names, TraceCtx};
use lsdf_storage::{payload_deep_copies, Payload};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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

/// Writes `data` as an owned payload (no counted copy) and returns the
/// buffer the file was written from.
fn put(fs: &Dfs, path: &str, data: Vec<u8>, writer: Option<DfsNodeId>) -> Bytes {
    let payload = Payload::from(data);
    fs.write_payload_traced(path, &payload, writer, &TraceCtx::disabled()).unwrap();
    payload.into_bytes()
}

/// `got` is `buf` itself — same bytes at the same address — not a copy.
/// An empty file has no blocks, hence no buffer to hand back: equal
/// bytes are all it can promise.
fn same_buffer(got: &Bytes, buf: &Bytes) -> bool {
    got == buf && (buf.is_empty() || got.as_ptr() == buf.as_ptr())
}

/// Every live replica of every block of `path` is the window of `buf`
/// at that block's offset.
fn replicas_are_windows_of(fs: &Dfs, path: &str, buf: &Bytes) -> bool {
    fs.file_blocks(path).unwrap().iter().all(|lb| {
        lb.replicas.iter().filter(|&&n| fs.node(n).is_alive()).all(|&n| {
            let block = fs.node(n).read_block(lb.id).unwrap().bytes();
            block.as_ptr() == buf[lb.offset as usize..].as_ptr() && block.len() as u64 == lb.size
        })
    })
}

/// Lengths 0, one short of a block, and every multiple of `block` in
/// 1, 2 and 4 blocks with its ±1 neighbours.
fn edge_lengths(block: usize) -> Vec<usize> {
    let mut lens = vec![0, block - 1];
    for k in [1, 2, 4] {
        lens.extend([k * block - 1, k * block, k * block + 1]);
    }
    lens.sort_unstable();
    lens.dedup();
    lens
}

#[test]
fn a_read_is_the_written_buffer_through_re_replication_and_rebalancing() {
    for block in [1usize, 3, 64, 100] {
        for len in edge_lengths(block) {
            let fs = make(3, 4, block as u64, 3, PlacementPolicy::RackAware, len as u64);
            let data: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            // Written from node 0: it holds a replica of every block, so
            // killing it leaves every block to repair and the balancer
            // has a skew to undo.
            let buf = put(&fs, "/f", data, Some(DfsNodeId(0)));
            let case = format!("block {block}, len {len}");
            // What the parent counted: each replica charges its window.
            let stored = 3 * len as u64;
            assert!(same_buffer(&fs.read("/f", None).unwrap(), &buf), "{case}: read");
            assert_eq!(fs.usage().0, stored, "{case}: usage after write");

            fs.kill_node(DfsNodeId(0));
            fs.re_replicate(&TraceCtx::disabled());
            assert!(fs.under_replicated().is_empty(), "{case}");
            assert!(replicas_are_windows_of(&fs, "/f", &buf), "{case}: re-replicated");
            assert!(same_buffer(&fs.read("/f", None).unwrap(), &buf), "{case}: read after repair");
            assert_eq!(fs.usage().0, stored, "{case}: usage after repair");

            fs.rebalance(0.0);
            assert!(replicas_are_windows_of(&fs, "/f", &buf), "{case}: rebalanced");
            assert!(same_buffer(&fs.read("/f", None).unwrap(), &buf), "{case}: read after rebalance");
            assert_eq!(fs.usage().0, stored, "{case}: usage after rebalance");
        }
    }
}

#[test]
fn a_replica_of_a_foreign_buffer_reads_back_through_one_counted_copy() {
    let fs = make(2, 3, 100, 2, PlacementPolicy::RackAware, 5);
    let data: Vec<u8> = (0..350).map(|i| (i % 251) as u8).collect();
    let buf = put(&fs, "/f", data.clone(), None);
    // Every replica of the second block swapped for an equal window of
    // another buffer, stored straight on the datanodes.
    let lb = fs.file_blocks("/f").unwrap()[1].clone();
    let range = lb.offset as usize..(lb.offset + lb.size) as usize;
    for &n in &lb.replicas {
        fs.node(n).delete_block(lb.id).unwrap();
        let foreign = Bytes::from(data[range.clone()].to_vec());
        fs.node(n).store_block(lb.id, BlockExtent::from(foreign)).unwrap();
    }
    let before = payload_deep_copies();
    let got = fs.read("/f", None).unwrap();
    assert_eq!(payload_deep_copies() - before, 1, "one concatenation, counted");
    assert_eq!(got, buf);
    assert_ne!(got.as_ptr(), buf.as_ptr());
    assert_eq!(fs.usage().0, 2 * 350, "the swap kept every window's size");
}

#[test]
fn reads_racing_kills_and_revives_return_the_buffer_or_unavailable() {
    const ROUNDS: usize = 2_000;
    let fs = make(2, 3, 64, 2, PlacementPolicy::RackAware, 29);
    let buf = put(&fs, "/f", (0..256).map(|i| i as u8).collect(), Some(DfsNodeId(0)));
    let mut holders: Vec<DfsNodeId> =
        fs.file_blocks("/f").unwrap().into_iter().flat_map(|lb| lb.replicas).collect();
    holders.sort_unstable();
    holders.dedup();
    let start = Barrier::new(2);
    let (served, unavailable) = thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            // Two holders down at a time: some blocks lose every replica.
            for i in 0..ROUNDS {
                let pair = [holders[i % holders.len()], holders[(i + 1) % holders.len()]];
                pair.iter().for_each(|&n| fs.kill_node(n));
                thread::yield_now();
                pair.iter().for_each(|&n| fs.revive_node(n));
            }
        });
        let reader = s.spawn(|| {
            start.wait();
            let (mut served, mut unavailable) = (0, 0);
            for _ in 0..ROUNDS {
                match fs.read("/f", None) {
                    Ok(got) => {
                        assert!(same_buffer(&got, &buf), "a foreign or partial buffer");
                        served += 1;
                    }
                    Err(DfsError::BlockUnavailable(_)) => unavailable += 1,
                    Err(e) => panic!("a read racing kills failed with {e}"),
                }
            }
            (served, unavailable)
        });
        reader.join().unwrap()
    });
    assert_eq!(served + unavailable, ROUNDS);
    // Settled: every holder down is unavailable, every holder up is the
    // buffer.
    holders.iter().for_each(|&n| fs.kill_node(n));
    assert!(matches!(fs.read("/f", None), Err(DfsError::BlockUnavailable(_))));
    holders.iter().for_each(|&n| fs.revive_node(n));
    assert!(same_buffer(&fs.read("/f", None).unwrap(), &buf));
}

/// The reference for which replica serves a read: per block, the live
/// replicas sorted by `(Locality, node id)`, tried in turn, a flaky one
/// drawing from its own stream seeded as the datanode's is. It keeps
/// the totals `dfs_block_reads_total{locality}` and
/// `dfs_flaky_failures_total` must show.
struct TryOrderModel {
    topology: ClusterTopology,
    alive: Vec<bool>,
    flaky: Vec<Option<(f64, ChaCha8Rng)>>,
    reads: [u64; 3],
    flaky_failures: u64,
}

impl TryOrderModel {
    fn new(topology: ClusterTopology) -> Self {
        let n = topology.node_count();
        TryOrderModel {
            topology,
            alive: vec![true; n],
            flaky: (0..n).map(|_| None).collect(),
            reads: [0; 3],
            flaky_failures: 0,
        }
    }

    fn locality(&self, reader: Option<DfsNodeId>, node: DfsNodeId) -> Locality {
        match reader {
            Some(r) if r == node => Locality::NodeLocal,
            Some(r) if self.topology.same_rack(r, node) => Locality::RackLocal,
            _ => Locality::Remote,
        }
    }

    /// Reads a file laid out as `blocks`; `Err` names the first block
    /// no replica served.
    fn read(&mut self, blocks: &[(BlockId, Vec<DfsNodeId>)], reader: Option<DfsNodeId>) -> Result<(), BlockId> {
        for (id, replicas) in blocks {
            let mut order: Vec<(Locality, DfsNodeId)> = replicas
                .iter()
                .filter(|n| self.alive[n.0 as usize])
                .map(|&n| (self.locality(reader, n), n))
                .collect();
            order.sort_unstable();
            let served = order.into_iter().find(|&(locality, n)| {
                let dropped = match &mut self.flaky[n.0 as usize] {
                    Some((rate, rng)) => rng.gen::<f64>() < *rate,
                    None => false,
                };
                if dropped {
                    self.flaky_failures += 1;
                } else {
                    self.reads[locality as usize] += 1;
                }
                !dropped
            });
            if served.is_none() {
                return Err(*id);
            }
        }
        Ok(())
    }
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
        let buf = put(&fs, "/f", payload, None);
        prop_assert!(same_buffer(&fs.read("/f", None).unwrap(), &buf));
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
        put(&fs, "/f", vec![0u8; 1000], Some(DfsNodeId(5)));
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
            put(&fs, &format!("/f{i}"), p.clone(), Some(DfsNodeId((i % 12) as u32)));
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

    /// Under random kills, revives and flaky nodes, every read serves
    /// from the replica the sorted try order names: the same result,
    /// the same per-locality read counts and the same flaky drops as
    /// [`TryOrderModel`].
    #[test]
    fn reads_follow_the_sorted_try_order_under_kills_and_flaky_nodes(seed in any::<u64>()) {
        let fs = make(3, 4, 64, 3, PlacementPolicy::RackAware, seed);
        let mut model = TryOrderModel::new(ClusterTopology::new(3, 4));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let node = |rng: &mut ChaCha8Rng| DfsNodeId(rng.gen_range(0..12));
        // Five files of one to five blocks, each written from some node.
        let mut files = Vec::new();
        for i in 0..5 {
            let path = format!("/f{i}");
            let data = (0..rng.gen_range(1..=320)).map(|b: usize| b as u8).collect();
            let buf = put(&fs, &path, data, Some(node(&mut rng)));
            let blocks: Vec<(BlockId, Vec<DfsNodeId>)> =
                fs.file_blocks(&path).unwrap().into_iter().map(|lb| (lb.id, lb.replicas)).collect();
            files.push((path, buf, blocks));
        }
        let reads = |l| fs.obs().counter_value(names::DFS_BLOCK_READS_TOTAL, &[("locality", l)]);
        for step in 0..200 {
            let n = node(&mut rng);
            match rng.gen_range(0..6) {
                0 => {
                    fs.kill_node(n);
                    model.alive[n.0 as usize] = false;
                }
                1 => {
                    fs.revive_node(n);
                    model.alive[n.0 as usize] = true;
                }
                2 => {
                    let rate = [0.25, 0.5, 1.0][rng.gen_range(0..3)];
                    let dice = rng.gen::<u64>();
                    fs.set_node_flaky(n, rate, dice);
                    model.flaky[n.0 as usize] = Some((rate, ChaCha8Rng::seed_from_u64(dice)));
                }
                3 => {
                    fs.clear_node_flaky(n);
                    model.flaky[n.0 as usize] = None;
                }
                _ => {
                    let (path, buf, blocks) = &files[rng.gen_range(0..files.len())];
                    let reader = rng.gen_bool(0.7).then_some(n);
                    let got = fs.read(path, reader);
                    match model.read(blocks, reader) {
                        Ok(()) => prop_assert!(
                            got.as_ref().is_ok_and(|got| same_buffer(got, buf)),
                            "step {}: {:?}", step, got.map(|b| b.len())
                        ),
                        Err(id) => prop_assert_eq!(got, Err(DfsError::BlockUnavailable(id)), "step {}", step),
                    }
                    let counted = [reads("node_local"), reads("rack_local"), reads("remote")];
                    prop_assert_eq!(counted, model.reads, "step {}", step);
                    let flaky = fs.obs().counter_value(names::DFS_FLAKY_FAILURES_TOTAL, &[]);
                    prop_assert_eq!(flaky, model.flaky_failures, "step {}", step);
                }
            }
        }
    }

    /// Byte accounting: cluster usage equals sum of file sizes times
    /// replication, and returns to zero after deleting everything.
    #[test]
    fn usage_accounting(sizes in prop::collection::vec(1usize..500, 1..10)) {
        let fs = make(2, 3, 100, 2, PlacementPolicy::Random, 9);
        for (i, &s) in sizes.iter().enumerate() {
            put(&fs, &format!("/f{i}"), vec![0u8; s], None);
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
