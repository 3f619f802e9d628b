//! Datanodes: per-node block storage holding real bytes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

use bytes::Bytes;
use lsdf_storage::Payload;
use lsdf_sync::{ranks, OrderedMutex, OrderedRwLock};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::cluster::DfsNodeId;

/// Identifies a block cluster-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// Hashes a dense block id with one multiply by the 64-bit golden
/// ratio: the low bits a table indexes by stay a permutation of the
/// id's low bits, and the high bits it tags slots with are well mixed.
/// SipHash's flood resistance buys nothing for ids the namenode hands
/// out in sequence.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

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

    /// True when `next` is the window right after this one in the same
    /// buffer (same pointer and length).
    fn is_followed_by(&self, next: &BlockExtent) -> bool {
        self.file.as_ptr() == next.file.as_ptr()
            && self.file.len() == next.file.len()
            && self.range.end == next.range.start
    }
}

impl From<Bytes> for BlockExtent {
    /// The whole buffer as one block.
    fn from(file: Bytes) -> Self {
        let range = 0..file.len();
        BlockExtent { file, range }
    }
}

/// A file assembled from its blocks' extents as they arrive, in order.
/// While they are consecutive windows of one buffer it is one view of
/// that buffer, for one block or a thousand; the first block that
/// breaks the run turns it into their concatenation, the one counted
/// deep copy of the read path.
#[derive(Default)]
pub(crate) enum Assembly {
    /// No block yet: the empty file.
    #[default]
    Empty,
    /// Consecutive windows so far: the window they span.
    View(BlockExtent),
    /// Blocks of different buffers: each block's bytes, in order.
    Parts(Vec<Bytes>),
}

impl Assembly {
    /// Appends the file's next block.
    pub(crate) fn push(&mut self, next: &BlockExtent) {
        match self {
            Assembly::Empty => *self = Assembly::View(next.clone()),
            Assembly::View(run) if run.is_followed_by(next) => run.range.end = next.range.end,
            Assembly::View(run) => *self = Assembly::Parts(vec![run.bytes(), next.bytes()]),
            Assembly::Parts(parts) => parts.push(next.bytes()),
        }
    }

    /// The assembled file.
    pub(crate) fn finish(self) -> Bytes {
        match self {
            Assembly::Empty => Bytes::new(),
            Assembly::View(run) => run.bytes(),
            Assembly::Parts(parts) => Payload::from(&parts[..]).into_bytes(),
        }
    }
}

struct DataNodeState {
    blocks: HashMap<BlockId, BlockExtent, BuildHasherDefault<IdHasher>>,
    used: u64,
}

struct FlakyState {
    rate: f64,
    rng: ChaCha8Rng,
}

/// One datanode: bounded block storage plus liveness and an optional
/// flaky mode (each I/O fails with a seeded probability) for fault
/// injection — a softer failure than the binary [`DataNode::kill`].
///
/// Liveness is an atomic that [`DataNode::kill`]/[`DataNode::revive`]
/// store and every I/O loads once on entry, so a read that began
/// before a kill may finish. The flaky dice sit behind a mutex that an
/// I/O takes only while the `flaky_armed` flag is on. Both flags are
/// `Relaxed`: neither publishes data, the dice's own mutex orders them.
pub struct DataNode {
    id: DfsNodeId,
    capacity: u64,
    alive: AtomicBool,
    flaky_armed: AtomicBool,
    state: OrderedRwLock<DataNodeState>,
    flaky: OrderedMutex<Option<FlakyState>>,
}

impl DataNode {
    /// Creates an empty, alive datanode.
    pub fn new(id: DfsNodeId, capacity: u64) -> Self {
        DataNode {
            id,
            capacity,
            alive: AtomicBool::new(true),
            flaky_armed: AtomicBool::new(false),
            state: OrderedRwLock::new(
                ranks::DFS_DATANODE_STATE,
                DataNodeState { blocks: HashMap::default(), used: 0 },
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
        self.flaky_armed.store(true, Ordering::Relaxed);
    }

    /// Clears flaky mode; the node serves I/O normally again.
    pub fn clear_flaky(&self) {
        self.flaky_armed.store(false, Ordering::Relaxed);
        *self.flaky.lock() = None;
    }

    /// True while flaky mode is active.
    pub fn is_flaky(&self) -> bool {
        self.flaky_armed.load(Ordering::Relaxed)
    }

    /// Draws the flaky dice for one I/O; no lock while the node is
    /// healthy.
    fn flaky_drop(&self) -> bool {
        if !self.is_flaky() {
            return false;
        }
        match self.flaky.lock().as_mut() {
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
        self.alive.load(Ordering::Relaxed)
    }

    /// Marks the node dead; its blocks become unreachable but are kept so
    /// a later revive can reuse them.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Relaxed);
    }

    /// Revives a dead node (its blocks become readable again).
    pub fn revive(&self) {
        self.alive.store(true, Ordering::Relaxed);
    }

    /// Stores a block replica. Only the extent's own window counts
    /// against capacity, not the rest of the buffer it points into.
    pub fn store_block(&self, id: BlockId, extent: BlockExtent) -> Result<(), DataNodeError> {
        if !self.is_alive() {
            return Err(DataNodeError::NodeDead(self.id));
        }
        if self.flaky_drop() {
            return Err(DataNodeError::TransientIo(self.id));
        }
        let mut st = self.state.write();
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
        self.with_block(id, BlockExtent::clone)
    }

    /// Reads a block replica: `f` sees the stored extent under the
    /// node's read guard.
    pub(crate) fn with_block<R>(
        &self,
        id: BlockId,
        f: impl FnOnce(&BlockExtent) -> R,
    ) -> Result<R, DataNodeError> {
        if !self.is_alive() {
            return Err(DataNodeError::NodeDead(self.id));
        }
        if self.flaky_drop() {
            return Err(DataNodeError::TransientIo(self.id));
        }
        self.state.read().blocks.get(&id).map(f).ok_or(DataNodeError::NoSuchBlock(id))
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
    fn assembly_is_one_view_of_consecutive_windows_else_a_copy() {
        let file = Bytes::from(b"0123456789".to_vec());
        let window = |r| BlockExtent::new(file.clone(), r);
        let assemble = |extents: Vec<BlockExtent>| {
            let mut file = Assembly::default();
            extents.iter().for_each(|e| file.push(e));
            file.finish()
        };
        let whole = assemble(vec![window(0..4), window(4..8), window(8..10)]);
        assert_eq!((whole.as_ptr(), whole.len()), (file.as_ptr(), file.len()));
        // A gap, a reordering or a foreign buffer is joined by copying.
        let gap = assemble(vec![window(0..4), window(6..10)]);
        assert_eq!(gap, Bytes::from_static(b"01236789"));
        let swapped = assemble(vec![window(4..8), window(0..4)]);
        assert_eq!(swapped, Bytes::from_static(b"45670123"));
        let foreign = BlockExtent::from(Bytes::from(b"4567".to_vec()));
        let mixed = assemble(vec![window(0..4), foreign, window(8..10)]);
        assert_eq!(mixed, Bytes::from_static(b"0123456789"));
        assert_ne!(mixed.as_ptr(), file.as_ptr());
        // A run that resumes after a break is still copied, in order.
        let resumed = assemble(vec![window(0..2), window(4..6), window(6..10)]);
        assert_eq!(resumed, Bytes::from_static(b"01456789"));
        assert!(assemble(vec![]).is_empty());
    }

    #[test]
    fn dense_ids_hash_to_distinct_low_bits() {
        let hash = |id: u64| {
            let mut h = IdHasher::default();
            std::hash::Hash::hash(&BlockId(id), &mut h);
            h.finish()
        };
        // The multiplier is odd, so it permutes every power-of-two
        // table's index bits: 1 024 dense ids fill 1 024 slots exactly.
        let mut slots: Vec<u64> = (0..1024).map(|id| hash(id) & 1023).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 1024);
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
        assert!(!n.is_flaky());
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
