//! Datanodes: per-node block storage holding real bytes.

use std::collections::HashMap;
use std::ops::Range;

use bytes::Bytes;
use lsdf_storage::Payload;
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

/// One block replica: a window of the buffer its file was written
/// from. Every replica of every block of one write holds the same
/// buffer, which is what lets a whole-file read hand that buffer back
/// instead of reassembling the file from its blocks.
#[derive(Debug, Clone)]
pub struct BlockExtent {
    file: Bytes,
    range: Range<usize>,
}

impl BlockExtent {
    /// The window `range` of `file`; `range` lies within `file`.
    pub(crate) fn new(file: Bytes, range: Range<usize>) -> Self {
        BlockExtent { file, range }
    }

    /// Length of the block in bytes.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// True for an empty block.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The block's bytes: a view into the file's buffer, no copy.
    pub fn bytes(&self) -> Bytes {
        self.file.slice(self.range.clone())
    }

    /// The file `extents` make up, in order: one view of their buffer
    /// when they are consecutive windows of it (same pointer and
    /// length), otherwise their concatenation — the one counted deep
    /// copy of the read path.
    pub(crate) fn join(extents: &[BlockExtent]) -> Bytes {
        let consecutive = extents.windows(2).all(|w| {
            let (a, b) = (&w[0].file, &w[1].file);
            a.as_ptr() == b.as_ptr() && a.len() == b.len() && w[0].range.end == w[1].range.start
        });
        match (extents.first(), extents.last()) {
            (Some(first), Some(last)) if consecutive => {
                first.file.slice(first.range.start..last.range.end)
            }
            (Some(_), _) => {
                let parts: Vec<Bytes> = extents.iter().map(BlockExtent::bytes).collect();
                Payload::from(&parts[..]).into_bytes()
            }
            _ => Bytes::new(),
        }
    }
}

impl From<Bytes> for BlockExtent {
    /// The whole buffer as one block.
    fn from(file: Bytes) -> Self {
        let range = 0..file.len();
        BlockExtent { file, range }
    }
}

struct DataNodeState {
    blocks: HashMap<BlockId, BlockExtent>,
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

    /// Stores a block replica. Only the extent's own window counts
    /// against capacity, not the rest of the buffer it points into.
    pub fn store_block(&self, id: BlockId, extent: BlockExtent) -> Result<(), DataNodeError> {
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
        if extent.len() as u64 > free {
            return Err(DataNodeError::OutOfSpace {
                node: self.id,
                free,
            });
        }
        st.used += extent.len() as u64;
        st.blocks.insert(id, extent);
        Ok(())
    }

    /// Reads a block replica: the stored extent's handle, no bytes move.
    pub fn read_block(&self, id: BlockId) -> Result<BlockExtent, DataNodeError> {
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
        let extent = st.blocks.remove(&id).ok_or(DataNodeError::NoSuchBlock(id))?;
        st.used -= extent.len() as u64;
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

    fn ext(s: &'static [u8]) -> BlockExtent {
        BlockExtent::from(Bytes::from_static(s))
    }

    fn read(n: &DataNode, id: BlockId) -> Result<Bytes, DataNodeError> {
        n.read_block(id).map(|e| e.bytes())
    }

    #[test]
    fn store_read_delete_roundtrip() {
        let n = node(1000);
        n.store_block(BlockId(1), ext(b"abc")).unwrap();
        assert_eq!(read(&n, BlockId(1)).unwrap(), Bytes::from_static(b"abc"));
        assert_eq!(n.used(), 3);
        n.delete_block(BlockId(1)).unwrap();
        assert_eq!(n.used(), 0);
        assert_eq!(read(&n, BlockId(1)), Err(DataNodeError::NoSuchBlock(BlockId(1))));
    }

    #[test]
    fn a_replica_is_a_window_and_only_the_window_is_charged() {
        let file = Bytes::from(b"0123456789".to_vec());
        let n = node(4);
        n.store_block(BlockId(1), BlockExtent::new(file.clone(), 2..6)).unwrap();
        assert_eq!(n.used(), 4);
        let got = n.read_block(BlockId(1)).unwrap().bytes();
        assert_eq!(got, Bytes::from_static(b"2345"));
        assert_eq!(got.as_ptr(), file[2..].as_ptr(), "a view, not a copy");
    }

    #[test]
    fn join_is_one_view_of_consecutive_windows_else_a_copy() {
        let file = Bytes::from(b"0123456789".to_vec());
        let window = |r| BlockExtent::new(file.clone(), r);
        let whole = BlockExtent::join(&[window(0..4), window(4..8), window(8..10)]);
        assert_eq!((whole.as_ptr(), whole.len()), (file.as_ptr(), file.len()));
        // A gap, a reordering or a foreign buffer is joined by copying.
        let gap = BlockExtent::join(&[window(0..4), window(6..10)]);
        assert_eq!(gap, Bytes::from_static(b"01236789"));
        let swapped = BlockExtent::join(&[window(4..8), window(0..4)]);
        assert_eq!(swapped, Bytes::from_static(b"45670123"));
        let foreign = BlockExtent::from(Bytes::from(b"4567".to_vec()));
        let mixed = BlockExtent::join(&[window(0..4), foreign, window(8..10)]);
        assert_eq!(mixed, Bytes::from_static(b"0123456789"));
        assert_ne!(mixed.as_ptr(), file.as_ptr());
        assert!(BlockExtent::join(&[]).is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let n = node(5);
        n.store_block(BlockId(1), ext(b"abc")).unwrap();
        assert_eq!(
            n.store_block(BlockId(2), ext(b"defg")),
            Err(DataNodeError::OutOfSpace {
                node: DfsNodeId(0),
                free: 2
            })
        );
    }

    #[test]
    fn duplicate_blocks_rejected() {
        let n = node(100);
        n.store_block(BlockId(1), ext(b"a")).unwrap();
        assert_eq!(
            n.store_block(BlockId(1), ext(b"b")),
            Err(DataNodeError::DuplicateBlock(BlockId(1)))
        );
    }

    #[test]
    fn dead_node_rejects_io_but_keeps_blocks() {
        let n = node(100);
        n.store_block(BlockId(1), ext(b"a")).unwrap();
        n.kill();
        assert!(!n.is_alive());
        assert_eq!(read(&n, BlockId(1)), Err(DataNodeError::NodeDead(DfsNodeId(0))));
        assert_eq!(
            n.store_block(BlockId(2), ext(b"b")),
            Err(DataNodeError::NodeDead(DfsNodeId(0)))
        );
        assert!(n.has_block(BlockId(1)));
        n.revive();
        assert_eq!(read(&n, BlockId(1)).unwrap(), Bytes::from_static(b"a"));
    }

    #[test]
    fn flaky_node_drops_some_io_deterministically() {
        let n = node(u64::MAX);
        n.store_block(BlockId(0), ext(b"a")).unwrap();
        n.set_flaky(0.5, 7);
        assert!(n.is_flaky());
        let outcomes: Vec<bool> = (0..64).map(|_| n.read_block(BlockId(0)).is_ok()).collect();
        assert!(outcomes.iter().any(|ok| *ok), "rate 0.5 must pass some");
        assert!(outcomes.iter().any(|ok| !*ok), "rate 0.5 must drop some");
        // Same seed → same drop pattern.
        let m = node(u64::MAX);
        m.store_block(BlockId(0), ext(b"a")).unwrap();
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
            n.store_block(BlockId(1), ext(b"x")),
            Err(DataNodeError::TransientIo(DfsNodeId(0)))
        );
        assert!(!n.has_block(BlockId(1)), "dropped store must not persist");
    }
}
