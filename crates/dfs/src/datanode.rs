//! Datanodes: per-node block storage holding real bytes.

use std::collections::HashMap;

use bytes::Bytes;
use lsdf_sync::{ranks, OrderedMutex, OrderedRwLock};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::cluster::DfsNodeId;

/// Identifies a block cluster-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// Errors from datanode operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataNodeError {
    /// The node has been marked dead.
    NodeDead(DfsNodeId),
    /// Block not stored here.
    NoSuchBlock(BlockId),
    /// Capacity would be exceeded.
    OutOfSpace {
        /// The node.
        node: DfsNodeId,
        /// Free bytes remaining.
        free: u64,
    },
    /// Block already stored here.
    DuplicateBlock(BlockId),
    /// A flaky node dropped this I/O; the replica is intact and an
    /// immediate retry may succeed (maps to a transient backend error).
    TransientIo(DfsNodeId),
}

impl std::fmt::Display for DataNodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataNodeError::NodeDead(n) => write!(f, "datanode {n:?} is dead"),
            DataNodeError::NoSuchBlock(b) => write!(f, "block {b:?} not on this node"),
            DataNodeError::OutOfSpace { node, free } => {
                write!(f, "datanode {node:?} out of space ({free} free)")
            }
            DataNodeError::DuplicateBlock(b) => write!(f, "block {b:?} already stored"),
            DataNodeError::TransientIo(n) => {
                write!(f, "datanode {n:?} dropped the i/o (flaky)")
            }
        }
    }
}

impl std::error::Error for DataNodeError {}

struct DataNodeState {
    blocks: HashMap<BlockId, Bytes>,
    used: u64,
    alive: bool,
}

struct FlakyState {
    rate: f64,
    rng: ChaCha8Rng,
}

/// One datanode: bounded block storage plus liveness and an optional
/// flaky mode (each I/O fails with a seeded probability) for fault
/// injection — a softer failure than the binary [`DataNode::kill`].
pub struct DataNode {
    id: DfsNodeId,
    capacity: u64,
    state: OrderedRwLock<DataNodeState>,
    flaky: OrderedMutex<Option<FlakyState>>,
}

impl DataNode {
    /// Creates an empty, alive datanode.
    pub fn new(id: DfsNodeId, capacity: u64) -> Self {
        DataNode {
            id,
            capacity,
            state: OrderedRwLock::new(
                ranks::DFS_DATANODE_STATE,
                DataNodeState { blocks: HashMap::new(), used: 0, alive: true },
            ),
            flaky: OrderedMutex::new(ranks::DFS_DATANODE_FLAKY, None),
        }
    }

    /// Makes the node flaky: every subsequent block I/O independently
    /// fails with probability `rate`, drawn from a ChaCha8 stream seeded
    /// with `seed` (deterministic per node). `rate` is clamped to
    /// `[0, 1]`.
    pub fn set_flaky(&self, rate: f64, seed: u64) {
        *self.flaky.lock() = Some(FlakyState {
            rate: rate.clamp(0.0, 1.0),
            rng: ChaCha8Rng::seed_from_u64(seed),
        });
    }

    /// Clears flaky mode; the node serves I/O normally again.
    pub fn clear_flaky(&self) {
        *self.flaky.lock() = None;
    }

    /// True while flaky mode is active.
    pub fn is_flaky(&self) -> bool {
        self.flaky.lock().is_some()
    }

    /// Draws the flaky dice for one I/O.
    fn flaky_drop(&self) -> bool {
        let mut guard = self.flaky.lock();
        match guard.as_mut() {
            Some(f) => f.rng.gen::<f64>() < f.rate,
            None => false,
        }
    }

    /// The node's id.
    pub fn id(&self) -> DfsNodeId {
        self.id
    }

    /// Byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes stored.
    pub fn used(&self) -> u64 {
        self.state.read().used
    }

    /// Number of blocks stored.
    pub fn block_count(&self) -> usize {
        self.state.read().blocks.len()
    }

    /// Liveness flag (heartbeat summary).
    pub fn is_alive(&self) -> bool {
        self.state.read().alive
    }

    /// Marks the node dead; its blocks become unreachable but are kept so
    /// a later revive can reuse them.
    pub fn kill(&self) {
        self.state.write().alive = false;
    }

    /// Revives a dead node (its blocks become readable again).
    pub fn revive(&self) {
        self.state.write().alive = true;
    }

    /// Stores a block replica.
    pub fn store_block(&self, id: BlockId, data: Bytes) -> Result<(), DataNodeError> {
        let mut st = self.state.write();
        if !st.alive {
            return Err(DataNodeError::NodeDead(self.id));
        }
        if self.flaky_drop() {
            return Err(DataNodeError::TransientIo(self.id));
        }
        if st.blocks.contains_key(&id) {
            return Err(DataNodeError::DuplicateBlock(id));
        }
        let free = self.capacity - st.used;
        if data.len() as u64 > free {
            return Err(DataNodeError::OutOfSpace {
                node: self.id,
                free,
            });
        }
        st.used += data.len() as u64;
        st.blocks.insert(id, data);
        Ok(())
    }

    /// Reads a block replica.
    pub fn read_block(&self, id: BlockId) -> Result<Bytes, DataNodeError> {
        let st = self.state.read();
        if !st.alive {
            return Err(DataNodeError::NodeDead(self.id));
        }
        if self.flaky_drop() {
            return Err(DataNodeError::TransientIo(self.id));
        }
        st.blocks
            .get(&id)
            .cloned()
            .ok_or(DataNodeError::NoSuchBlock(id))
    }

    /// Drops a block replica (e.g. after file deletion or re-balancing).
    pub fn delete_block(&self, id: BlockId) -> Result<(), DataNodeError> {
        let mut st = self.state.write();
        let data = st.blocks.remove(&id).ok_or(DataNodeError::NoSuchBlock(id))?;
        st.used -= data.len() as u64;
        Ok(())
    }

    /// True if a replica of `id` is stored here (even while dead).
    pub fn has_block(&self, id: BlockId) -> bool {
        self.state.read().blocks.contains_key(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(cap: u64) -> DataNode {
        DataNode::new(DfsNodeId(0), cap)
    }

    #[test]
    fn store_read_delete_roundtrip() {
        let n = node(1000);
        n.store_block(BlockId(1), Bytes::from_static(b"abc")).unwrap();
        assert_eq!(n.read_block(BlockId(1)).unwrap(), Bytes::from_static(b"abc"));
        assert_eq!(n.used(), 3);
        n.delete_block(BlockId(1)).unwrap();
        assert_eq!(n.used(), 0);
        assert_eq!(n.read_block(BlockId(1)), Err(DataNodeError::NoSuchBlock(BlockId(1))));
    }

    #[test]
    fn capacity_enforced() {
        let n = node(5);
        n.store_block(BlockId(1), Bytes::from_static(b"abc")).unwrap();
        assert_eq!(
            n.store_block(BlockId(2), Bytes::from_static(b"defg")),
            Err(DataNodeError::OutOfSpace {
                node: DfsNodeId(0),
                free: 2
            })
        );
    }

    #[test]
    fn duplicate_blocks_rejected() {
        let n = node(100);
        n.store_block(BlockId(1), Bytes::from_static(b"a")).unwrap();
        assert_eq!(
            n.store_block(BlockId(1), Bytes::from_static(b"b")),
            Err(DataNodeError::DuplicateBlock(BlockId(1)))
        );
    }

    #[test]
    fn dead_node_rejects_io_but_keeps_blocks() {
        let n = node(100);
        n.store_block(BlockId(1), Bytes::from_static(b"a")).unwrap();
        n.kill();
        assert!(!n.is_alive());
        assert_eq!(n.read_block(BlockId(1)), Err(DataNodeError::NodeDead(DfsNodeId(0))));
        assert_eq!(
            n.store_block(BlockId(2), Bytes::from_static(b"b")),
            Err(DataNodeError::NodeDead(DfsNodeId(0)))
        );
        assert!(n.has_block(BlockId(1)));
        n.revive();
        assert_eq!(n.read_block(BlockId(1)).unwrap(), Bytes::from_static(b"a"));
    }

    #[test]
    fn flaky_node_drops_some_io_deterministically() {
        let n = node(u64::MAX);
        n.store_block(BlockId(0), Bytes::from_static(b"a")).unwrap();
        n.set_flaky(0.5, 7);
        assert!(n.is_flaky());
        let outcomes: Vec<bool> = (0..64).map(|_| n.read_block(BlockId(0)).is_ok()).collect();
        assert!(outcomes.iter().any(|ok| *ok), "rate 0.5 must pass some");
        assert!(outcomes.iter().any(|ok| !*ok), "rate 0.5 must drop some");
        // Same seed → same drop pattern.
        let m = node(u64::MAX);
        m.store_block(BlockId(0), Bytes::from_static(b"a")).unwrap();
        m.set_flaky(0.5, 7);
        let again: Vec<bool> = (0..64).map(|_| m.read_block(BlockId(0)).is_ok()).collect();
        assert_eq!(outcomes, again);
        n.clear_flaky();
        assert!((0..32).all(|_| n.read_block(BlockId(0)).is_ok()));
    }

    #[test]
    fn flaky_store_reports_transient_not_duplicate() {
        let n = node(u64::MAX);
        n.set_flaky(1.0, 1);
        assert_eq!(
            n.store_block(BlockId(1), Bytes::from_static(b"x")),
            Err(DataNodeError::TransientIo(DfsNodeId(0)))
        );
        assert!(!n.has_block(BlockId(1)), "dropped store must not persist");
    }
}
