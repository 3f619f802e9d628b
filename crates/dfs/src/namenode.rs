//! The namenode and the DFS facade: namespace, block map, rack-aware
//! placement, replication pipeline, failure handling and re-replication.
//!
//! This is the HDFS-architecture reimplementation the paper's Hadoop
//! deployment relies on (slides 7/11): files split into fixed-size blocks,
//! each block replicated (default 3×) across fault domains, reads served
//! from the closest replica.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use lsdf_obs::{Counter, Gauge, Histogram, Registry, Span, TraceCtx};
use lsdf_sync::{ranks, OrderedMutex, OrderedRwLock};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::cluster::{ClusterTopology, DfsNodeId, Locality, TryOrder};
use crate::datanode::{Assembly, BlockExtent, BlockId, DataNode, DataNodeError};
use crate::shard::ShardedMap;
use crate::wal::{BlockEntry, DfsSnapshot, DfsWalRecord};
use lsdf_durability::{Chunk, Chunks, ComponentDurability, RecoveryStats};
use lsdf_obs::names;
use lsdf_storage::{sha256, Payload};

/// Shard count for the namenode block map. Dense block ids stripe over
/// the shards by their low bits, so 16 shards give 16-way write
/// concurrency on the block-map hot path without a config knob.
const BLOCK_MAP_SHARDS: usize = 16;

/// Block-placement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// HDFS default: first replica on the writer, second off-rack, third
    /// on the second's rack.
    RackAware,
    /// Uniformly random distinct nodes (ablation baseline).
    Random,
}

/// DFS configuration.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Block size in bytes (HDFS used 64 MB; tests use small blocks).
    pub block_size: u64,
    /// Target replica count per block.
    pub replication: usize,
    /// Per-node storage capacity in bytes.
    pub node_capacity: u64,
    /// Placement strategy.
    pub placement: PlacementPolicy,
    /// RNG seed (placement tie-breaking, replica choice).
    pub seed: u64,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            block_size: 64 * 1024 * 1024,
            replication: 3,
            node_capacity: u64::MAX,
            placement: PlacementPolicy::RackAware,
            seed: 42,
        }
    }
}

/// Errors from DFS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// File already exists (files are write-once, like HDFS).
    FileExists(String),
    /// File not found.
    FileNotFound(String),
    /// A block has no live replica.
    BlockUnavailable(BlockId),
    /// Could not place even one replica.
    NoSpace,
    /// Datanode-level failure surfaced.
    DataNode(DataNodeError),
}

impl std::fmt::Display for DfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfsError::FileExists(p) => write!(f, "file '{p}' exists"),
            DfsError::FileNotFound(p) => write!(f, "file '{p}' not found"),
            DfsError::BlockUnavailable(b) => write!(f, "no live replica of {b:?}"),
            DfsError::NoSpace => write!(f, "no datanode can accept the block"),
            DfsError::DataNode(e) => write!(f, "datanode: {e}"),
        }
    }
}

impl std::error::Error for DfsError {}

impl From<DataNodeError> for DfsError {
    fn from(e: DataNodeError) -> Self {
        DfsError::DataNode(e)
    }
}

/// A block and its current replica locations.
#[derive(Debug, Clone)]
pub struct LocatedBlock {
    /// Block id.
    pub id: BlockId,
    /// Payload size of this block.
    pub size: u64,
    /// Offset of this block within the file.
    pub offset: u64,
    /// Nodes holding replicas.
    pub replicas: Vec<DfsNodeId>,
}

/// A file staged on the datanodes but not yet committed: its blocks
/// are placed and registered in the block map, while the namespace
/// entry and WAL record wait for [`Dfs::commit_files_batch`]. Produced
/// by [`Dfs::stage_write_traced`]; holds the write-latency span so the
/// recorded latency covers stage + commit, like the single-file path.
pub struct StagedFile {
    path: String,
    size: u64,
    max_id: Option<u64>,
    block_ids: Vec<BlockId>,
    entries: Vec<BlockEntry>,
    span: Span,
}

impl StagedFile {
    /// The path this staged file will commit under.
    pub fn path(&self) -> &str {
        &self.path
    }
}

/// File metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Full path.
    pub path: String,
    /// Total size in bytes.
    pub size: u64,
    /// Number of blocks.
    pub blocks: usize,
}

/// A committed file. Files are write-once: the block list is published
/// once (commit, install, replay) and reads take a handle, not a copy.
struct FileEntry {
    blocks: Arc<[BlockId]>,
    size: u64,
}

struct BlockInfo {
    size: u64,
    replicas: Vec<DfsNodeId>,
}

/// Registry handles for namenode-op and block-I/O accounting.
struct DfsObs {
    registry: Arc<Registry>,
    writes: Counter,
    reads: Counter,
    stats: Counter,
    lists: Counter,
    deletes: Counter,
    node_local: Counter,
    rack_local: Counter,
    remote: Counter,
    rereplicated: Counter,
    store_retries: Counter,
    flaky_failures: Counter,
    under_replicated_unrecoverable: Gauge,
    write_bytes: Histogram,
    read_bytes: Histogram,
    write_latency: Histogram,
    read_latency: Histogram,
}

impl DfsObs {
    fn new(registry: Arc<Registry>) -> Self {
        let op = |name| registry.counter(names::DFS_OPS_TOTAL, &[("op", name)]);
        let loc = |name| registry.counter(names::DFS_BLOCK_READS_TOTAL, &[("locality", name)]);
        DfsObs {
            writes: op("write"),
            reads: op("read"),
            stats: op("stat"),
            lists: op("list"),
            deletes: op("delete"),
            node_local: loc("node_local"),
            rack_local: loc("rack_local"),
            remote: loc("remote"),
            rereplicated: registry.counter(names::DFS_REREPLICATIONS_TOTAL, &[]),
            store_retries: registry.counter(names::DFS_STORE_RETRY_TOTAL, &[]),
            flaky_failures: registry.counter(names::DFS_FLAKY_FAILURES_TOTAL, &[]),
            under_replicated_unrecoverable: registry
                .gauge(names::DFS_UNDER_REPLICATED_UNRECOVERABLE, &[]),
            write_bytes: registry.histogram(names::DFS_WRITE_BYTES, &[]),
            read_bytes: registry.histogram(names::DFS_READ_BYTES, &[]),
            write_latency: registry.histogram(names::DFS_OP_LATENCY_NS, &[("op", "write")]),
            read_latency: registry.histogram(names::DFS_OP_LATENCY_NS, &[("op", "read")]),
            registry,
        }
    }
}

/// The distributed filesystem: namenode state plus datanodes.
///
/// Namenode state is split for concurrency: the file namespace keeps
/// one `RwLock` (directory ops are rare and cheap), block ids come from
/// a lock-free atomic, and the block map is striped over
/// [`BLOCK_MAP_SHARDS`] independently locked shards so concurrent
/// writers touching different blocks do not serialize.
pub struct Dfs {
    topology: ClusterTopology,
    config: DfsConfig,
    nodes: Vec<Arc<DataNode>>,
    files: OrderedRwLock<BTreeMap<String, FileEntry>>,
    blocks: ShardedMap<BlockInfo>,
    next_block: AtomicU64,
    rng: OrderedMutex<ChaCha8Rng>,
    obs: DfsObs,
    durability: Option<ComponentDurability>,
}

impl Dfs {
    /// Builds a cluster of `topology.node_count()` empty datanodes,
    /// recording into a private obs registry.
    ///
    /// # Panics
    /// Panics if `replication` is zero or exceeds the node count.
    pub fn new(topology: ClusterTopology, config: DfsConfig) -> Self {
        Self::with_registry(topology, config, Arc::new(Registry::new()))
    }

    /// Builds the cluster recording namenode ops, block-read locality,
    /// and I/O sizes/latencies into a shared obs registry.
    ///
    /// # Panics
    /// Panics if `replication` is zero or exceeds the node count.
    pub fn with_registry(
        topology: ClusterTopology,
        config: DfsConfig,
        registry: Arc<Registry>,
    ) -> Self {
        Self::with_durability(topology, config, registry, None)
    }

    /// Builds the cluster with an optional durability handle: when
    /// `Some`, every acked namespace mutation is committed to the WAL
    /// before it returns, and any state already present on the handle's
    /// durable store (checkpoint + WAL segments from a previous
    /// incarnation) is recovered before this returns.
    ///
    /// # Panics
    /// Panics if `replication` is zero or exceeds the node count.
    pub fn with_durability(
        topology: ClusterTopology,
        config: DfsConfig,
        registry: Arc<Registry>,
        durability: Option<ComponentDurability>,
    ) -> Self {
        assert!(config.replication >= 1, "replication must be >= 1");
        assert!(
            config.replication <= topology.node_count(),
            "replication {} exceeds cluster size {}",
            config.replication,
            topology.node_count()
        );
        assert!(config.block_size > 0, "block size must be positive");
        let nodes = topology
            .nodes()
            .map(|id| Arc::new(DataNode::new(id, config.node_capacity)))
            .collect();
        let fs = Dfs {
            topology,
            rng: OrderedMutex::new(ranks::DFS_RNG, ChaCha8Rng::seed_from_u64(config.seed)),
            config,
            nodes,
            files: OrderedRwLock::new(ranks::DFS_FILES, BTreeMap::new()),
            blocks: ShardedMap::new(BLOCK_MAP_SHARDS),
            next_block: AtomicU64::new(0),
            obs: DfsObs::new(registry),
            durability,
        };
        // Re-open from disk state: a fresh store replays nothing.
        fs.recover();
        fs
    }

    /// The obs registry this DFS records into.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    /// The cluster topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The configuration.
    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    /// Access to a datanode (tests and the MapReduce runtime use this).
    pub fn node(&self, id: DfsNodeId) -> &Arc<DataNode> {
        &self.nodes[id.0 as usize]
    }

    /// Live datanode ids.
    pub fn live_nodes(&self) -> Vec<DfsNodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_alive())
            .map(|n| n.id())
            .collect()
    }

    /// Writes a file (write-once). `writer` is the node issuing the write,
    /// if it is part of the cluster — the first replica lands there.
    ///
    /// Legacy `&[u8]` entry point: copies the slice into an owned
    /// payload once. The zero-copy path is [`Dfs::write_payload_traced`].
    pub fn write(
        &self,
        path: &str,
        data: &[u8],
        writer: Option<DfsNodeId>,
    ) -> Result<FileMeta, DfsError> {
        self.write_payload_traced(path, &Payload::from(data), writer, &TraceCtx::disabled())
    }

    /// Zero-copy write: blocks are views into the shared payload buffer
    /// (no per-chunk copy), and the namespace commit goes through
    /// [`Dfs::commit_files_batch`] with a batch of one. Attributed to a
    /// causal trace as a `dfs_write` child span of `ctx` with one
    /// `dfs_block_placed` event per block, recording the block id and
    /// how many replicas landed.
    pub fn write_payload_traced(
        &self,
        path: &str,
        data: &Payload,
        writer: Option<DfsNodeId>,
        ctx: &TraceCtx,
    ) -> Result<FileMeta, DfsError> {
        let staged = self.stage_write_traced(path, data, writer, ctx)?;
        self.commit_files_batch(vec![staged])
            .pop()
            .unwrap_or(Err(DfsError::NoSpace))
    }

    /// Places a file's blocks on the datanodes without committing the
    /// namespace entry: everything in a write except the `files` map
    /// insert and the WAL record, which happen in
    /// [`Dfs::commit_files_batch`] — one lock acquisition and one WAL
    /// group commit for a whole batch of staged files.
    ///
    /// Every replica is a [`BlockExtent`] of `data`'s buffer, so a
    /// whole-file read hands that buffer back.
    pub fn stage_write_traced(
        &self,
        path: &str,
        data: &Payload,
        writer: Option<DfsNodeId>,
        ctx: &TraceCtx,
    ) -> Result<StagedFile, DfsError> {
        let tspan = ctx.child(names::DFS_WRITE_SPAN);
        tspan.add_field("path", path);
        let span = self.obs.registry.span(&self.obs.write_latency);
        if self.files.read().contains_key(path) {
            return Err(DfsError::FileExists(path.to_string()));
        }
        let mut block_ids = Vec::new();
        let mut entries: Vec<BlockEntry> = Vec::new();
        let mut max_id: Option<u64> = None;
        let block_size = self.config.block_size as usize;
        let mut start = 0usize;
        while start < data.len() {
            let end = usize::min(start + block_size, data.len());
            let id = BlockId(self.next_block.fetch_add(1, Ordering::Relaxed));
            max_id = Some(id.0);
            let targets = self.choose_targets(writer, self.config.replication);
            if targets.is_empty() {
                // Roll back blocks written so far.
                self.drop_blocks(&block_ids);
                self.log_rolled_back_alloc(max_id);
                return Err(DfsError::NoSpace);
            }
            // A window of the shared payload buffer — refcount bump per
            // replica, zero copies.
            let extent = BlockExtent::new(data.bytes().clone(), start..end);
            let mut placed = Vec::new();
            for t in targets {
                match self.nodes[t.0 as usize].store_block(id, extent.clone()) {
                    Ok(()) => placed.push(t),
                    Err(DataNodeError::TransientIo(_)) => {
                        self.obs.flaky_failures.inc();
                    }
                    Err(_) => {}
                }
            }
            if placed.is_empty() {
                self.drop_blocks(&block_ids);
                self.log_rolled_back_alloc(max_id);
                return Err(DfsError::NoSpace);
            }
            tspan.event(
                names::DFS_BLOCK_PLACED_EVENT,
                &[
                    ("block", &id.0.to_string()),
                    ("replicas", &placed.len().to_string()),
                ],
            );
            if self.durability.is_some() {
                entries.push((id, extent.len() as u64, placed.clone()));
            }
            self.blocks.insert(
                id,
                BlockInfo {
                    size: extent.len() as u64,
                    replicas: placed,
                },
            );
            block_ids.push(id);
            start = end;
        }
        Ok(StagedFile {
            path: path.to_string(),
            size: data.len() as u64,
            max_id,
            block_ids,
            entries,
            span,
        })
    }

    /// Commits a batch of staged files to the namespace under **one**
    /// `files` write lock and **one** WAL group commit (N `FileCommit`
    /// records, a single fsync charge) — the batched-namenode protocol
    /// that lets N-file ingest batches pay per batch instead of per
    /// file. Results are returned in batch order; a file whose path was
    /// committed concurrently loses the re-check, gets its blocks rolled
    /// back, and reports `FileExists` — exactly as on the single-file
    /// path. Callers must only ack a write after this returns.
    pub fn commit_files_batch(
        &self,
        staged: Vec<StagedFile>,
    ) -> Vec<Result<FileMeta, DfsError>> {
        let mut results = Vec::with_capacity(staged.len());
        let mut wal: Vec<Vec<u8>> = Vec::new();
        let mut rollbacks: Vec<(Vec<BlockId>, Option<u64>)> = Vec::new();
        let mut committed: Vec<(u64, Span)> = Vec::new();
        {
            let mut files = self.files.write();
            for sf in staged {
                // Re-check under the write lock: a concurrent writer may
                // have committed the same path since the optimistic
                // check at stage time.
                if files.contains_key(&sf.path) {
                    rollbacks.push((sf.block_ids, sf.max_id));
                    results.push(Err(DfsError::FileExists(sf.path)));
                    continue;
                }
                let blocks = sf.block_ids.len();
                let entry = FileEntry { blocks: sf.block_ids.into(), size: sf.size };
                files.insert(sf.path.clone(), entry);
                // Encode the WAL record under the namespace lock so log
                // order agrees with namespace order for same-path
                // commit/delete races; the batch is synced before any
                // write in it is acked.
                if self.durability.is_some() {
                    wal.push(
                        DfsWalRecord::FileCommit {
                            path: sf.path.clone(),
                            size: sf.size,
                            watermark: sf.max_id.map_or(0, |m| m + 1),
                            blocks: sf.entries,
                        }
                        .encode(),
                    );
                }
                committed.push((sf.size, sf.span));
                results.push(Ok(FileMeta { path: sf.path, size: sf.size, blocks }));
            }
            if let Some(d) = &self.durability {
                d.log_batch(&wal);
            }
        }
        for (ids, max_id) in rollbacks {
            self.drop_blocks(&ids);
            self.log_rolled_back_alloc(max_id);
        }
        for (size, span) in committed {
            self.obs.writes.inc();
            self.obs.write_bytes.record(size);
            span.finish();
        }
        results
    }

    /// Reads a whole file, choosing the closest live replica per block.
    pub fn read(&self, path: &str, reader: Option<DfsNodeId>) -> Result<Bytes, DfsError> {
        self.read_traced(path, reader, &TraceCtx::disabled())
    }

    /// [`Dfs::read`] attributed to a causal trace via a `dfs_read`
    /// child span.
    ///
    /// One namespace lookup, then per block one stripe read (its try
    /// order) and one datanode read; nothing is allocated. One rule
    /// assembles the file: when the block extents are consecutive
    /// windows of one buffer — every file this DFS wrote, however its
    /// replicas moved since — the read is one view of that buffer.
    /// Extents of different buffers (a replica stored through
    /// [`Dfs::node`]) are concatenated, the one counted copy.
    pub fn read_traced(
        &self,
        path: &str,
        reader: Option<DfsNodeId>,
        ctx: &TraceCtx,
    ) -> Result<Bytes, DfsError> {
        let tspan = ctx.child(names::DFS_READ_SPAN);
        tspan.add_field("path", path);
        // Timed as a `Span` would (failed reads too), minus its handle clones.
        let clock = self.obs.registry.clock();
        let start = clock.now_ns();
        let read = || {
            let mut file = Assembly::default();
            for &id in self.layout(path)?.iter() {
                self.read_extent(id, reader, |extent| file.push(extent))?;
            }
            let data = file.finish();
            self.obs.reads.inc();
            self.obs.read_bytes.record(data.len() as u64);
            Ok(data)
        };
        let data = read();
        self.obs.read_latency.record(clock.now_ns().saturating_sub(start));
        data
    }

    /// Reads one located block from the best replica, recording locality.
    pub fn read_block(
        &self,
        lb: &LocatedBlock,
        reader: Option<DfsNodeId>,
    ) -> Result<Bytes, DfsError> {
        self.read_extent(lb.id, reader, BlockExtent::bytes)
    }

    /// `read` of the extent on the first replica in the block's try
    /// order that answers, counted under the locality it was served at.
    fn read_extent<R>(
        &self,
        id: BlockId,
        reader: Option<DfsNodeId>,
        mut read: impl FnMut(&BlockExtent) -> R,
    ) -> Result<R, DfsError> {
        let order = self.try_order(id, reader).ok_or(DfsError::BlockUnavailable(id))?;
        for &(locality, n) in order.as_slice() {
            match self.nodes[n.0 as usize].with_block(id, &mut read) {
                Ok(r) => {
                    let counter = match locality {
                        Locality::NodeLocal => &self.obs.node_local,
                        Locality::RackLocal => &self.obs.rack_local,
                        Locality::Remote => &self.obs.remote,
                    };
                    counter.inc();
                    return Ok(r);
                }
                Err(DataNodeError::TransientIo(_)) => {
                    // Flaky drop: fall through to the next replica.
                    self.obs.flaky_failures.inc();
                }
                Err(_) => {}
            }
        }
        Err(DfsError::BlockUnavailable(id))
    }

    /// The block's live replicas nearest to `reader` first, ties by node
    /// id — the one try order of both read paths — taken under its stripe
    /// guard. `None` once the block is gone (its file was deleted).
    fn try_order(&self, id: BlockId, reader: Option<DfsNodeId>) -> Option<TryOrder> {
        self.blocks.read(id, |info| {
            let live = info.replicas.iter().filter(|n| self.nodes[n.0 as usize].is_alive());
            live.map(|&n| (self.topology.locality(reader, n), n)).collect()
        })
    }

    /// A committed file's block ids: the handle published at commit.
    fn layout(&self, path: &str) -> Result<Arc<[BlockId]>, DfsError> {
        let files = self.files.read();
        let entry = files.get(path).ok_or_else(|| DfsError::FileNotFound(path.to_string()))?;
        Ok(Arc::clone(&entry.blocks))
    }

    /// Locates a file's blocks.
    pub fn file_blocks(&self, path: &str) -> Result<Vec<LocatedBlock>, DfsError> {
        let mut offset = 0;
        let locate = |&id: &BlockId| {
            // A block can only vanish if the file was deleted between the
            // namespace read and here; surface that as unavailability.
            let (size, replicas) = self
                .blocks
                .read(id, |info| (info.size, info.replicas.clone()))
                .ok_or(DfsError::BlockUnavailable(id))?;
            offset += size;
            Ok(LocatedBlock { id, size, offset: offset - size, replicas })
        };
        self.layout(path)?.iter().map(locate).collect()
    }

    /// File metadata.
    pub fn stat(&self, path: &str) -> Result<FileMeta, DfsError> {
        let files = self.files.read();
        let entry = files
            .get(path)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))?;
        self.obs.stats.inc();
        Ok(FileMeta {
            path: path.to_string(),
            size: entry.size,
            blocks: entry.blocks.len(),
        })
    }

    /// Lists files under a prefix.
    pub fn list(&self, prefix: &str) -> Vec<FileMeta> {
        self.obs.lists.inc();
        let files = self.files.read();
        files
            .range(prefix.to_string()..)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(p, e)| FileMeta {
                path: p.clone(),
                size: e.size,
                blocks: e.blocks.len(),
            })
            .collect()
    }

    /// Deletes a file and its block replicas.
    ///
    /// Replica cleanup is best-effort by design: a replica list only
    /// names *live* holders (re-replication prunes dead nodes), so a
    /// node that was down at delete time can revive still holding the
    /// block's bytes. Those bytes are unreachable — the namespace and
    /// block map no longer reference the id — and only cost space on
    /// the revived node.
    pub fn delete(&self, path: &str) -> Result<(), DfsError> {
        let entry = {
            let mut files = self.files.write();
            let entry = files
                .remove(path)
                .ok_or_else(|| DfsError::FileNotFound(path.to_string()))?;
            // Log under the namespace lock (see `commit_files_batch`); the
            // record carries the block ids so replay can clear the block
            // map even when a checkpoint captured blocks but not the
            // file entry.
            if let Some(d) = &self.durability {
                let record = DfsWalRecord::Delete {
                    path: path.to_string(),
                    blocks: Arc::clone(&entry.blocks),
                };
                d.log(&record.encode());
            }
            entry
        };
        self.drop_blocks(&entry.blocks);
        self.obs.deletes.inc();
        Ok(())
    }

    /// Marks a datanode dead (failure injection).
    pub fn kill_node(&self, id: DfsNodeId) {
        self.nodes[id.0 as usize].kill();
    }

    /// Revives a dead datanode.
    pub fn revive_node(&self, id: DfsNodeId) {
        self.nodes[id.0 as usize].revive();
    }

    /// Makes a datanode flaky (each I/O drops with probability `rate`,
    /// seeded): the soft failure mode between healthy and
    /// [`Dfs::kill_node`]. Dropped I/Os are counted in
    /// `dfs_flaky_failures_total`.
    pub fn set_node_flaky(&self, id: DfsNodeId, rate: f64, seed: u64) {
        self.nodes[id.0 as usize].set_flaky(rate, seed);
    }

    /// Returns a flaky datanode to normal service.
    pub fn clear_node_flaky(&self, id: DfsNodeId) {
        self.nodes[id.0 as usize].clear_flaky();
    }

    /// Blocks whose live replica count is below target.
    pub fn under_replicated(&self) -> Vec<BlockId> {
        let mut out = self.blocks.fold(Vec::new(), |mut acc, id, info| {
            let live = info
                .replicas
                .iter()
                .filter(|n| self.nodes[n.0 as usize].is_alive())
                .count();
            if live < self.config.replication {
                acc.push(id);
            }
            acc
        });
        out.sort_unstable();
        out
    }

    /// Replication monitor pass: for every under-replicated block, copy
    /// from a live replica to fresh targets that have room for it. The
    /// copy is the source's extent handle, so the new replica is a
    /// window of the same file buffer as the old ones.
    /// A target whose `store_block` fails (flaky node, capacity raced
    /// away) is excluded and the placement retried on another node,
    /// counted in `dfs_store_retry_total`. Blocks that cannot reach
    /// target replication this pass — no readable live source, or no
    /// candidate node left that can accept the copy — are counted into
    /// the `dfs_under_replicated_unrecoverable` gauge instead of being
    /// silently retried forever. Returns new replicas created.
    ///
    /// Each block's repair touches only that block's shard of the block
    /// map, so monitor passes run concurrently with foreground writes
    /// to other blocks.
    ///
    /// The pass is a `dfs_re_replicate` child span of `ctx` with one
    /// `dfs_block_rereplicated` event per replica created.
    pub fn re_replicate(&self, ctx: &TraceCtx) -> usize {
        let tspan = ctx.child(names::DFS_RE_REPLICATE_SPAN);
        let todo = self.under_replicated();
        let mut created = 0;
        let mut unrecoverable: i64 = 0;
        for id in todo {
            let Some((source, existing_live)) = self.blocks.read(id, |info| {
                let live: Vec<DfsNodeId> = info
                    .replicas
                    .iter()
                    .copied()
                    .filter(|n| self.nodes[n.0 as usize].is_alive())
                    .collect();
                // Any readable live replica can source the copy (the
                // first may be flaky).
                let source = live
                    .iter()
                    .find_map(|n| self.nodes[n.0 as usize].read_block(id).ok());
                (source, live)
            }) else {
                continue;
            };
            let Some(extent) = source else {
                unrecoverable += 1;
                continue;
            };
            let missing = self.config.replication - existing_live.len();
            let mut stuck = false;
            for _ in 0..missing {
                // Exclude current replica holders plus every target that
                // already failed the store this round.
                let mut exclude = self
                    .blocks
                    .read(id, |info| info.replicas.clone())
                    .unwrap_or_default();
                let mut placed = None;
                while let Some(t) = self.pick_new_target(&exclude, extent.len() as u64) {
                    if self.nodes[t.0 as usize].store_block(id, extent.clone()).is_ok() {
                        placed = Some(t);
                        break;
                    }
                    // The chosen target dropped the store: count the miss
                    // and retry on a different node instead of giving up.
                    self.obs.store_retries.inc();
                    exclude.push(t);
                }
                let Some(t) = placed else {
                    stuck = true;
                    break;
                };
                let committed = self.commit_replicas(id, |replicas| {
                    // Drop dead replicas from the map now that we have
                    // fresh copies; keep list = live ∪ {new}.
                    replicas.retain(|n| self.nodes[n.0 as usize].is_alive());
                    replicas.push(t);
                });
                if !committed {
                    // The owning file was deleted while we were copying:
                    // the map entry is gone, so the fresh copy on `t`
                    // would leak. Drop it and move to the next block.
                    let _ = self.nodes[t.0 as usize].delete_block(id);
                    break;
                }
                created += 1;
                self.obs.rereplicated.inc();
                tspan.event(
                    names::DFS_BLOCK_REREPLICATED_EVENT,
                    &[("block", &id.0.to_string()), ("target", &t.0.to_string())],
                );
            }
            if stuck {
                unrecoverable += 1;
            }
        }
        self.obs.under_replicated_unrecoverable.set(unrecoverable);
        tspan.add_field("created", &created.to_string());
        created
    }

    /// `(used bytes, capacity bytes)` across live nodes.
    pub fn usage(&self) -> (u64, u64) {
        let mut used: u64 = 0;
        let mut cap: u64 = 0;
        for n in &self.nodes {
            if n.is_alive() {
                used += n.used();
                cap = cap.saturating_add(n.capacity());
            }
        }
        (used, cap)
    }

    /// Per-node block counts (balance diagnostics).
    pub fn block_distribution(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.block_count()).collect()
    }

    /// The balancer: moves replicas from over-full to under-full live
    /// nodes until every node's used bytes are within `threshold`
    /// (fraction of mean usage, e.g. 0.1 = ±10 %) or no legal move
    /// remains. A move never co-locates two replicas of one block, and
    /// hands the extent itself to the new holder. Returns the number of
    /// replicas moved — HDFS's `balancer` tool.
    pub fn rebalance(&self, threshold: f64) -> usize {
        assert!(threshold >= 0.0, "threshold must be non-negative");
        let mut moved = 0;
        loop {
            let live = self.live_nodes();
            if live.len() < 2 {
                return moved;
            }
            let mean = live
                .iter()
                .map(|&n| self.nodes[n.0 as usize].used() as f64)
                .sum::<f64>()
                / live.len() as f64;
            let hi_cut = mean * (1.0 + threshold);
            let lo_cut = mean * (1.0 - threshold);
            // Busiest over-full source and emptiest under-full target.
            let Some(&src) = live
                .iter()
                .filter(|&&n| self.nodes[n.0 as usize].used() as f64 > hi_cut)
                .max_by_key(|&&n| self.nodes[n.0 as usize].used())
            else {
                return moved;
            };
            let Some(&dst) = live
                .iter()
                .filter(|&&n| (self.nodes[n.0 as usize].used() as f64) < lo_cut)
                .min_by_key(|&&n| self.nodes[n.0 as usize].used())
            else {
                return moved;
            };
            // Pick a block on src whose other replicas avoid dst.
            let candidate: Option<(BlockId, u64)> =
                self.blocks.fold(None, |best, id, info| {
                    if !(info.replicas.contains(&src)
                        && !info.replicas.contains(&dst)
                        && self.nodes[src.0 as usize].has_block(id))
                    {
                        return best;
                    }
                    // Prefer the largest block that still fits the gap
                    // and leaves dst below where src was: every move
                    // shrinks the spread, so the balancer converges
                    // instead of ping-ponging a block that outweighs
                    // the mean between an empty node and a full one.
                    let dst_used = self.nodes[dst.0 as usize].used();
                    let src_used = self.nodes[src.0 as usize].used();
                    if (dst_used + info.size) as f64 > hi_cut.max(info.size as f64)
                        || dst_used + info.size >= src_used
                    {
                        return best;
                    }
                    match best {
                        Some((_, sz)) if sz >= info.size => best,
                        _ => Some((id, info.size)),
                    }
                });
            let Some((block, _)) = candidate else {
                return moved;
            };
            let Ok(extent) = self.nodes[src.0 as usize].read_block(block) else {
                return moved;
            };
            if self.nodes[dst.0 as usize].store_block(block, extent).is_err() {
                return moved;
            }
            let committed = self.commit_replicas(block, |replicas| {
                replicas.retain(|&n| n != src);
                replicas.push(dst);
            });
            if !committed {
                // Deleted out from under the balancer: drop the copy we
                // just made rather than leaking it on `dst`.
                let _ = self.nodes[dst.0 as usize].delete_block(block);
                continue;
            }
            let _ = self.nodes[src.0 as usize].delete_block(block);
            moved += 1;
        }
    }

    /// The one live change to a block's replica set: `edit` runs on
    /// the set and the resulting `ReplicaSet` record is logged inside
    /// the stripe's write guard, so two passes moving the same block
    /// log in the order they mutated it. `false` when the block is gone
    /// (its file was deleted): nothing edited, nothing logged.
    fn commit_replicas(&self, block: BlockId, edit: impl FnOnce(&mut Vec<DfsNodeId>)) -> bool {
        let committed = self.blocks.write(block, |info| {
            edit(&mut info.replicas);
            if let Some(d) = &self.durability {
                // lint: allow(payload_copy) -- node-id list, not payload bytes
                let replicas = info.replicas.clone();
                d.log(&DfsWalRecord::ReplicaSet { block, replicas }.encode());
            }
        });
        committed.is_some()
    }

    // --- Durability: snapshot, crash, recovery ------------------------

    fn snapshot(&self) -> DfsSnapshot {
        let files: Vec<(String, u64, Arc<[BlockId]>)> = {
            let guard = self.files.read();
            guard
                .iter()
                .map(|(p, e)| (p.clone(), e.size, Arc::clone(&e.blocks)))
                .collect()
        };
        // Walk blocks through the file table: only committed (referenced)
        // blocks enter the snapshot, in canonical path order.
        let mut blocks = Vec::new();
        for (_, _, ids) in &files {
            for &id in ids.iter() {
                if let Some(entry) =
                    self.blocks.read(id, |info| (id, info.size, info.replicas.clone()))
                {
                    blocks.push(entry);
                }
            }
        }
        DfsSnapshot {
            next_block: self.next_block.load(Ordering::Relaxed),
            files,
            blocks,
        }
    }

    /// Hex SHA-256 of the canonical namespace encoding: file table,
    /// referenced block map, allocator watermark. Two namenodes with
    /// equal digests have bit-identical namespaces.
    pub fn namespace_digest(&self) -> String {
        sha256(&self.snapshot().encode()).to_hex()
    }

    /// The reconciler's step: takes a checkpoint (rotate WAL →
    /// snapshot → persist → truncate old segments) when the configured
    /// record threshold has been reached; returns whether one was
    /// taken. Never on a namenode that is not durable.
    ///
    /// The namespace is always one chunk, always written: it is keyed
    /// by path and deletes move entries, so there is no stable range to
    /// cut it by, and no workload brings it to a checkpoint large
    /// enough to measure one.
    pub fn maybe_checkpoint(&self) -> bool {
        let namespace = |_| vec![Chunk::Put(self.snapshot().encode())];
        self.durability.as_ref().and_then(|d| d.checkpoint_if_due(namespace)).is_some()
    }

    /// Simulates a namenode crash: every volatile structure (file table,
    /// block map, allocator) is wiped, and the WAL device tears a
    /// never-acked in-flight frame chosen by `seed`. Datanodes are
    /// separate machines and keep their blocks. Call [`Dfs::recover`]
    /// to re-open from disk state.
    pub fn crash(&self, seed: u64) {
        if let Some(d) = &self.durability {
            d.crash_torn(seed);
        }
        self.files.write().clear();
        self.blocks.clear();
        self.next_block.store(0, Ordering::Relaxed);
    }

    /// Recovers the namespace from the durable store through the
    /// harness's recovery loop: the latest verified checkpoint is
    /// installed, then the committed WAL suffix replayed idempotently.
    /// A namenode without durability returns zeroed stats.
    pub fn recover(&self) -> RecoveryStats {
        let Some(d) = &self.durability else {
            return RecoveryStats::default();
        };
        d.recover_with(
            |chunks| self.install(chunks),
            // An undecodable committed record cannot occur (we wrote
            // it); it counts as skipped rather than panicking.
            |payload| DfsWalRecord::decode(payload).is_some_and(|rec| self.apply_record(rec)),
        )
    }

    /// Loads a checkpoint's one chunk over the (wiped) volatile state;
    /// `false`, with nothing loaded, unless the manifest names exactly
    /// one chunk and it verifies and decodes.
    fn install(&self, chunks: &Chunks<'_>) -> bool {
        let mut decoded = Vec::new();
        let stage = |bytes: &[u8]| DfsSnapshot::decode(bytes).map(|snap| decoded.push(snap)).is_some();
        if !chunks.try_for_each(stage) {
            return false;
        }
        let Ok([snap]) = <[DfsSnapshot; 1]>::try_from(decoded) else {
            return false;
        };
        self.next_block.fetch_max(snap.next_block, Ordering::Relaxed);
        for (id, size, replicas) in snap.blocks {
            self.blocks.insert(id, BlockInfo { size, replicas });
        }
        let mut files = self.files.write();
        for (path, size, blocks) in snap.files {
            files.insert(path, FileEntry { blocks, size });
        }
        true
    }

    /// Applies one replayed record; returns `false` when its effect was
    /// already present (idempotent skip).
    fn apply_record(&self, rec: DfsWalRecord) -> bool {
        match rec {
            DfsWalRecord::FileCommit { path, size, watermark, blocks } => {
                self.next_block.fetch_max(watermark, Ordering::Relaxed);
                let mut files = self.files.write();
                if files.contains_key(&path) {
                    return false;
                }
                let ids: Arc<[BlockId]> = blocks.iter().map(|(id, _, _)| *id).collect();
                for (id, bsize, replicas) in blocks {
                    self.blocks.insert(id, BlockInfo { size: bsize, replicas });
                }
                files.insert(path, FileEntry { blocks: ids, size });
                true
            }
            DfsWalRecord::Delete { path, blocks } => {
                let had_file = self.files.write().remove(&path).is_some();
                let mut had_blocks = false;
                for &id in blocks.iter() {
                    had_blocks |= self.blocks.remove(id).is_some();
                }
                had_file || had_blocks
            }
            DfsWalRecord::ReplicaSet { block, replicas } => self
                .blocks
                .write(block, |info| {
                    let changed = info.replicas != replicas;
                    info.replicas = replicas;
                    changed
                })
                .unwrap_or(false),
            DfsWalRecord::Alloc { watermark } => {
                self.next_block.fetch_max(watermark, Ordering::Relaxed) < watermark
            }
        }
    }

    /// Logs an `Alloc` watermark for ids consumed by a rolled-back
    /// write, so the recovered allocator matches the live one.
    fn log_rolled_back_alloc(&self, max_id: Option<u64>) {
        if let (Some(d), Some(m)) = (&self.durability, max_id) {
            d.log(&DfsWalRecord::Alloc { watermark: m + 1 }.encode());
        }
    }

    fn drop_blocks(&self, ids: &[BlockId]) {
        for id in ids {
            if let Some(info) = self.blocks.remove(*id) {
                for n in info.replicas {
                    let _ = self.nodes[n.0 as usize].delete_block(*id);
                }
            }
        }
    }

    /// Chooses up to `count` distinct placement targets.
    fn choose_targets(&self, writer: Option<DfsNodeId>, count: usize) -> Vec<DfsNodeId> {
        let live = self.live_nodes();
        if live.is_empty() {
            return Vec::new();
        }
        let mut rng = self.rng.lock();
        let mut targets: Vec<DfsNodeId> = Vec::with_capacity(count);
        match self.config.placement {
            PlacementPolicy::Random => {
                let mut pool = live;
                while targets.len() < count && !pool.is_empty() {
                    let i = rng.gen_range(0..pool.len());
                    targets.push(pool.swap_remove(i));
                }
            }
            PlacementPolicy::RackAware => {
                // 1st: the writer when possible, else random.
                let first = match writer {
                    Some(w) if self.nodes[w.0 as usize].is_alive() => w,
                    _ => live[rng.gen_range(0..live.len())],
                };
                targets.push(first);
                // 2nd: different rack.
                if targets.len() < count {
                    let off_rack: Vec<DfsNodeId> = live
                        .iter()
                        .copied()
                        .filter(|&n| !self.topology.same_rack(n, first) && n != first)
                        .collect();
                    if let Some(&second) = (!off_rack.is_empty())
                        .then(|| &off_rack[rng.gen_range(0..off_rack.len())])
                    {
                        targets.push(second);
                        // 3rd: same rack as 2nd, different node.
                        if targets.len() < count {
                            let near_second: Vec<DfsNodeId> = live
                                .iter()
                                .copied()
                                .filter(|&n| {
                                    self.topology.same_rack(n, second)
                                        && !targets.contains(&n)
                                })
                                .collect();
                            if !near_second.is_empty() {
                                targets
                                    .push(near_second[rng.gen_range(0..near_second.len())]);
                            }
                        }
                    }
                }
                // Remaining: random distinct.
                let mut pool: Vec<DfsNodeId> = live
                    .into_iter()
                    .filter(|n| !targets.contains(n))
                    .collect();
                while targets.len() < count && !pool.is_empty() {
                    let i = rng.gen_range(0..pool.len());
                    targets.push(pool.swap_remove(i));
                }
            }
        }
        targets
    }

    /// A live node outside `exclude` with at least `size` free bytes.
    fn pick_new_target(&self, exclude: &[DfsNodeId], size: u64) -> Option<DfsNodeId> {
        let live: Vec<DfsNodeId> = self
            .live_nodes()
            .into_iter()
            .filter(|n| !exclude.contains(n))
            .filter(|n| {
                let node = &self.nodes[n.0 as usize];
                node.capacity() - node.used() >= size
            })
            .collect();
        if live.is_empty() {
            return None;
        }
        let mut rng = self.rng.lock();
        Some(live[rng.gen_range(0..live.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_mirrors_ops_and_locality() {
        let reg = Arc::new(Registry::new());
        let fs = Dfs::with_registry(
            ClusterTopology::new(2, 3),
            DfsConfig {
                block_size: 64,
                replication: 2,
                ..DfsConfig::default()
            },
            reg.clone(),
        );
        let data = vec![1u8; 200];
        fs.write("/a/f1", &data, Some(DfsNodeId(0))).unwrap();
        fs.read("/a/f1", Some(DfsNodeId(0))).unwrap();
        fs.stat("/a/f1").unwrap();
        fs.list("/a/");
        assert_eq!(reg.counter_value(names::DFS_OPS_TOTAL, &[("op", "write")]), 1);
        assert_eq!(reg.counter_value(names::DFS_OPS_TOTAL, &[("op", "read")]), 1);
        assert_eq!(reg.counter_value(names::DFS_OPS_TOTAL, &[("op", "stat")]), 1);
        assert_eq!(reg.counter_value(names::DFS_OPS_TOTAL, &[("op", "list")]), 1);
        assert_eq!(reg.histogram(names::DFS_WRITE_BYTES, &[]).sum(), 200);
        assert_eq!(reg.histogram(names::DFS_READ_BYTES, &[]).sum(), 200);
        assert!(reg.histogram(names::DFS_OP_LATENCY_NS, &[("op", "read")]).count() >= 1);
        // One block read per block the read spans: 200 bytes in 64-byte
        // blocks, each with its first replica on the writer that reads.
        assert_eq!(reg.counter_total(names::DFS_BLOCK_READS_TOTAL), 200u64.div_ceil(64));
        let node_local = [("locality", "node_local")];
        assert_eq!(reg.counter_value(names::DFS_BLOCK_READS_TOTAL, &node_local), 4);
    }

    fn dfs(racks: u16, per_rack: u16, block: u64, repl: usize) -> Dfs {
        Dfs::new(
            ClusterTopology::new(racks, per_rack),
            DfsConfig {
                block_size: block,
                replication: repl,
                node_capacity: u64::MAX,
                placement: PlacementPolicy::RackAware,
                seed: 7,
            },
        )
    }

    /// Blocks the last `re_replicate` pass could not repair.
    fn unrecoverable(fs: &Dfs) -> i64 {
        fs.obs().gauge_value(names::DFS_UNDER_REPLICATED_UNRECOVERABLE, &[])
    }

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn write_read_roundtrip_multi_block() {
        let fs = dfs(3, 4, 100, 3);
        let payload = data(1234); // 13 blocks
        fs.write("/exp/file1", &payload, None).unwrap();
        let meta = fs.stat("/exp/file1").unwrap();
        assert_eq!(meta.size, 1234);
        assert_eq!(meta.blocks, 13);
        assert_eq!(fs.read("/exp/file1", None).unwrap(), Bytes::from(payload));
    }

    #[test]
    fn empty_file_roundtrip() {
        let fs = dfs(1, 3, 100, 2);
        fs.write("/empty", &[], None).unwrap();
        assert_eq!(fs.read("/empty", None).unwrap().len(), 0);
        assert_eq!(fs.stat("/empty").unwrap().blocks, 0);
    }

    #[test]
    fn files_are_write_once() {
        let fs = dfs(1, 3, 100, 1);
        fs.write("/a", &data(10), None).unwrap();
        assert_eq!(
            fs.write("/a", &data(10), None),
            Err(DfsError::FileExists("/a".into()))
        );
    }

    #[test]
    fn replicas_are_on_distinct_nodes_and_span_racks() {
        let fs = dfs(3, 4, 1000, 3);
        fs.write("/f", &data(5000), Some(DfsNodeId(0))).unwrap();
        for lb in fs.file_blocks("/f").unwrap() {
            assert_eq!(lb.replicas.len(), 3);
            let mut uniq = lb.replicas.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas must be distinct nodes");
            // First replica on the writer.
            assert_eq!(lb.replicas[0], DfsNodeId(0));
            // At least two racks involved.
            let racks: std::collections::HashSet<u16> = lb
                .replicas
                .iter()
                .map(|&n| fs.topology().rack_of(n).0)
                .collect();
            assert!(racks.len() >= 2, "placement must span racks: {racks:?}");
        }
    }

    #[test]
    fn rack_aware_places_third_near_second() {
        let fs = dfs(4, 5, 1_000_000, 3);
        fs.write("/f", &data(10), Some(DfsNodeId(1))).unwrap();
        let lb = &fs.file_blocks("/f").unwrap()[0];
        let second = lb.replicas[1];
        let third = lb.replicas[2];
        assert!(fs.topology().same_rack(second, third));
        assert!(!fs.topology().same_rack(lb.replicas[0], second));
    }

    #[test]
    fn read_prefers_local_replica() {
        let fs = dfs(2, 3, 1000, 3);
        fs.write("/f", &data(100), Some(DfsNodeId(2))).unwrap();
        fs.read("/f", Some(DfsNodeId(2))).unwrap();
        let reads = |l| fs.obs().counter_value(names::DFS_BLOCK_READS_TOTAL, &[("locality", l)]);
        assert_eq!(reads("node_local"), 1);
        assert_eq!(reads("remote"), 0);
    }

    #[test]
    fn read_survives_node_failure() {
        let fs = dfs(3, 3, 100, 3);
        let payload = data(950);
        fs.write("/f", &payload, Some(DfsNodeId(0))).unwrap();
        fs.kill_node(DfsNodeId(0));
        assert_eq!(fs.read("/f", None).unwrap(), Bytes::from(payload));
    }

    #[test]
    fn under_replication_detected_and_repaired() {
        let fs = dfs(3, 3, 100, 3);
        fs.write("/f", &data(500), Some(DfsNodeId(0))).unwrap();
        assert!(fs.under_replicated().is_empty());
        fs.kill_node(DfsNodeId(0));
        let under = fs.under_replicated();
        assert_eq!(under.len(), 5, "all 5 blocks lost their first replica");
        let created = fs.re_replicate(&TraceCtx::disabled());
        assert_eq!(created, 5);
        assert!(fs.under_replicated().is_empty());
        // All replicas now live and distinct.
        for lb in fs.file_blocks("/f").unwrap() {
            assert_eq!(lb.replicas.len(), 3);
            assert!(lb
                .replicas
                .iter()
                .all(|n| fs.node(*n).is_alive()));
        }
        assert_eq!(fs.obs().counter_value(names::DFS_REREPLICATIONS_TOTAL, &[]), 5);
    }

    #[test]
    fn re_replicate_skips_full_nodes_and_reports_unrecoverable() {
        // 3 nodes, replication 2, node capacity 100. Fill the spare node
        // so it cannot take the re-replicated copy.
        let fs = Dfs::new(
            ClusterTopology::new(1, 3),
            DfsConfig {
                block_size: 100,
                replication: 2,
                node_capacity: 100,
                placement: PlacementPolicy::Random,
                seed: 5,
            },
        );
        fs.write("/f", &data(100), None).unwrap(); // one block on 2 of 3 nodes
        let lb = &fs.file_blocks("/f").unwrap()[0];
        let spare = fs
            .topology()
            .nodes()
            .find(|n| !lb.replicas.contains(n))
            .unwrap();
        // Fill the spare node to the brim via a replication-1 file pinned
        // there: direct block store keeps the test simple.
        fs.node(spare)
            .store_block(BlockId(999), Bytes::from(data(100)).into())
            .unwrap();
        fs.kill_node(lb.replicas[0]);
        let created = fs.re_replicate(&TraceCtx::disabled());
        assert_eq!(created, 0, "the only candidate node is full");
        assert_eq!(unrecoverable(&fs), 1);
        // Free the space: the next pass repairs and clears the gauge.
        fs.node(spare).delete_block(BlockId(999)).unwrap();
        assert_eq!(fs.re_replicate(&TraceCtx::disabled()), 1);
        assert_eq!(unrecoverable(&fs), 0);
        assert!(fs.under_replicated().is_empty());
    }

    #[test]
    fn re_replicate_counts_store_retry_when_only_target_is_flaky() {
        // 3 nodes, replication 2: after killing one replica there is
        // exactly one spare. Making it flaky forces the store to fail,
        // which must be counted as a retry (and then unrecoverable,
        // since no other candidate exists) — not silently dropped.
        let fs = dfs(1, 3, 100, 2);
        fs.write("/f", &data(100), Some(DfsNodeId(0))).unwrap();
        let lb = &fs.file_blocks("/f").unwrap()[0];
        let spare = fs
            .topology()
            .nodes()
            .find(|n| !lb.replicas.contains(n))
            .unwrap();
        fs.set_node_flaky(spare, 1.0, 11);
        fs.kill_node(lb.replicas[1]);
        assert_eq!(fs.re_replicate(&TraceCtx::disabled()), 0);
        assert!(fs.obs().counter_value(names::DFS_STORE_RETRY_TOTAL, &[]) >= 1);
        assert_eq!(unrecoverable(&fs), 1);
        // Healthy again: the next pass places the replica and clears the
        // gauge.
        fs.clear_node_flaky(spare);
        assert_eq!(fs.re_replicate(&TraceCtx::disabled()), 1);
        assert_eq!(unrecoverable(&fs), 0);
        assert!(fs.under_replicated().is_empty());
    }

    #[test]
    fn re_replicate_retries_on_another_node_after_store_failure() {
        // 4 nodes, replication 2, one flaky spare: whenever placement
        // picks the flaky spare first, the repair must fall through to
        // the healthy spare instead of leaving the block stuck. Sweep a
        // few seeds so both pick orders are exercised deterministically.
        let mut saw_retry = false;
        for seed in 0..16u64 {
            let fs = Dfs::new(
                ClusterTopology::new(1, 4),
                DfsConfig {
                    block_size: 100,
                    replication: 2,
                    node_capacity: u64::MAX,
                    placement: PlacementPolicy::RackAware,
                    seed,
                },
            );
            fs.write("/f", &data(100), Some(DfsNodeId(0))).unwrap();
            let lb = &fs.file_blocks("/f").unwrap()[0];
            let spares: Vec<DfsNodeId> = fs
                .topology()
                .nodes()
                .filter(|n| !lb.replicas.contains(n))
                .collect();
            fs.set_node_flaky(spares[0], 1.0, 13);
            fs.kill_node(lb.replicas[1]);
            let repaired = fs.re_replicate(&TraceCtx::disabled());
            assert_eq!(repaired, 1, "seed {seed}: repair must succeed");
            assert!(fs.under_replicated().is_empty(), "seed {seed}");
            assert_eq!(unrecoverable(&fs), 0, "seed {seed}");
            saw_retry |= fs.obs().counter_value(names::DFS_STORE_RETRY_TOTAL, &[]) >= 1;
        }
        assert!(saw_retry, "some seed must have hit the flaky spare first");
    }

    #[test]
    fn flaky_node_failures_counted_and_reads_fail_over() {
        let fs = dfs(1, 3, 100, 2);
        fs.write("/f", &data(100), Some(DfsNodeId(0))).unwrap();
        fs.set_node_flaky(DfsNodeId(0), 1.0, 9);
        // The read falls through to the healthy replica.
        assert_eq!(fs.read("/f", Some(DfsNodeId(0))).unwrap(), Bytes::from(data(100)));
        assert!(fs.obs().counter_value(names::DFS_FLAKY_FAILURES_TOTAL, &[]) >= 1);
        fs.clear_node_flaky(DfsNodeId(0));
        fs.read("/f", Some(DfsNodeId(0))).unwrap();
        let node_local = [("locality", "node_local")];
        assert_eq!(
            fs.obs().counter_value(names::DFS_BLOCK_READS_TOTAL, &node_local),
            1,
            "healthy again"
        );
    }

    #[test]
    fn read_fails_when_all_replicas_dead() {
        let fs = dfs(1, 3, 100, 2);
        fs.write("/f", &data(50), None).unwrap();
        let lb = &fs.file_blocks("/f").unwrap()[0];
        for &n in &lb.replicas {
            fs.kill_node(n);
        }
        assert!(matches!(fs.read("/f", None), Err(DfsError::BlockUnavailable(_))));
    }

    #[test]
    fn delete_frees_space() {
        let fs = dfs(2, 2, 100, 2);
        fs.write("/f", &data(400), None).unwrap();
        let (used_before, _) = fs.usage();
        assert_eq!(used_before, 800); // 400 bytes x2 replicas
        fs.delete("/f").unwrap();
        let (used_after, _) = fs.usage();
        assert_eq!(used_after, 0);
        assert!(matches!(fs.read("/f", None), Err(DfsError::FileNotFound(_))));
    }

    #[test]
    fn list_by_prefix() {
        let fs = dfs(1, 2, 100, 1);
        for p in ["/a/1", "/a/2", "/b/1"] {
            fs.write(p, &data(10), None).unwrap();
        }
        let names: Vec<String> = fs.list("/a/").into_iter().map(|m| m.path).collect();
        assert_eq!(names, vec!["/a/1", "/a/2"]);
    }

    #[test]
    fn capacity_exhaustion_reported() {
        let fs = Dfs::new(
            ClusterTopology::new(1, 2),
            DfsConfig {
                block_size: 100,
                replication: 1,
                node_capacity: 150,
                placement: PlacementPolicy::Random,
                seed: 1,
            },
        );
        // 400 bytes needs 4 blocks x1 replica = 400 bytes; cluster has 300.
        assert_eq!(fs.write("/big", &data(400), None), Err(DfsError::NoSpace));
        // Failed write must leave no orphan blocks.
        let (used, _) = fs.usage();
        assert_eq!(used, 0);
        // A smaller file fits.
        fs.write("/ok", &data(200), None).unwrap();
    }

    fn durable_dfs(store: &lsdf_durability::DurableStore, checkpoint_every: u64) -> Dfs {
        let reg = Arc::new(Registry::new());
        let cfg = lsdf_durability::DurabilityConfig {
            checkpoint_every,
            ..lsdf_durability::DurabilityConfig::default()
        };
        Dfs::with_durability(
            ClusterTopology::new(2, 3),
            DfsConfig {
                block_size: 100,
                replication: 2,
                node_capacity: u64::MAX,
                placement: PlacementPolicy::RackAware,
                seed: 17,
            },
            reg.clone(),
            Some(ComponentDurability::open(store, "dfs", &reg, &cfg)),
        )
    }

    #[test]
    fn crash_recover_is_bit_identical() {
        let store = lsdf_durability::DurableStore::new();
        let fs = durable_dfs(&store, 3);
        fs.write("/exp/a", &data(250), Some(DfsNodeId(0))).unwrap();
        fs.write("/exp/b", &data(90), None).unwrap();
        fs.write("/exp/c", &data(410), Some(DfsNodeId(3))).unwrap();
        assert!(fs.maybe_checkpoint(), "threshold reached");
        fs.delete("/exp/b").unwrap();
        fs.write("/exp/d", &data(120), None).unwrap();
        let digest = fs.namespace_digest();
        // Pinned across hosts, kernels and PRs (see the catalog's twin
        // in lsdf-metadata).
        assert_eq!(digest, "59aeba0f99f41bbc5daefa6bab8ba917836e8596b58f989dbeae12ddb7ab5d22");
        let files_before: Vec<FileMeta> = fs.list("/");

        fs.crash(99);
        assert!(fs.list("/").is_empty(), "volatile state wiped");
        let stats = fs.recover();
        assert!(stats.snapshot_loaded);
        assert!(stats.torn_tails >= 1, "crash tears an in-flight frame");
        assert_eq!(fs.namespace_digest(), digest);
        assert_eq!(fs.list("/"), files_before);
        // Data survives: datanodes kept their blocks.
        assert_eq!(fs.read("/exp/a", None).unwrap(), Bytes::from(data(250)));
        assert_eq!(fs.read("/exp/d", None).unwrap(), Bytes::from(data(120)));
        // The allocator watermark is bit-identical too: the next write
        // must not reuse ids (which would clobber surviving blocks).
        fs.write("/exp/e", &data(50), None).unwrap();
        assert_eq!(fs.read("/exp/c", None).unwrap(), Bytes::from(data(410)));
    }

    #[test]
    fn a_checkpoint_the_namenode_cannot_install_is_rejected_and_counted() {
        let store = lsdf_durability::DurableStore::new();
        let fs = durable_dfs(&store, 1_000);
        fs.write("/exp/a", &data(250), None).unwrap();
        let digest = fs.namespace_digest();
        // A manifest whose one chunk hashes to what it says and is not a
        // namespace, at an epoch above the segment that holds the write.
        let ckpts = lsdf_durability::CheckpointStore::open(store.clone(), "dfs", fs.obs());
        assert_eq!(ckpts.save(vec![Chunk::Put(b"not a namespace".to_vec())], 1_000, 1), Some(1));
        fs.crash(5);
        let stats = fs.recover();
        assert!(stats.checkpoint_rejected && !stats.snapshot_loaded, "{stats:?}");
        assert_eq!(fs.obs().counter_value(names::CKPT_REJECTED_TOTAL, &[("log", "dfs")]), 1);
        // Replayed from epoch 0, not from the refused manifest's epoch.
        assert_eq!(fs.namespace_digest(), digest);
    }

    #[test]
    fn rolled_back_write_preserves_allocator_watermark() {
        let store = lsdf_durability::DurableStore::new();
        let fs = durable_dfs(&store, 1_000);
        fs.write("/a", &data(100), None).unwrap();
        // A duplicate-path write allocates ids, then rolls back.
        assert!(fs.write("/a", &data(300), None).is_err());
        let before = fs.next_block.load(Ordering::Relaxed);
        let digest = fs.namespace_digest();
        fs.crash(3);
        fs.recover();
        assert_eq!(fs.next_block.load(Ordering::Relaxed), before);
        assert_eq!(fs.namespace_digest(), digest);
    }

    #[test]
    fn a_replayed_record_counts_once_as_applied_or_as_skipped() {
        const N: u64 = 5;
        let store = lsdf_durability::DurableStore::new();
        let fs = durable_dfs(&store, 1_000);
        for i in 0..N {
            fs.write(&format!("/f{i}"), &data(150), None).unwrap();
        }
        let digest = fs.namespace_digest();
        fs.crash(21);
        let first = fs.recover();
        assert_eq!((first.replayed, first.skipped), (N, 0));
        // Nothing crashed in between: every record's file is there.
        let second = fs.recover();
        assert_eq!((second.replayed, second.skipped), (0, N));
        assert_eq!(fs.namespace_digest(), digest);
        // The harness's own series say what the returned stats say.
        let counted = |name| fs.obs().counter_value(name, &[("log", "dfs")]);
        assert_eq!(counted(names::RECOVERY_REPLAYED_RECORDS_TOTAL), N);
        assert_eq!(counted(names::RECOVERY_SKIPPED_RECORDS_TOTAL), N);
    }

    #[test]
    fn delete_then_recover_yields_identical_under_replicated_set() {
        let store = lsdf_durability::DurableStore::new();
        let fs = durable_dfs(&store, 1_000);
        fs.write("/keep", &data(300), Some(DfsNodeId(0))).unwrap();
        fs.write("/drop", &data(200), Some(DfsNodeId(1))).unwrap();
        fs.delete("/drop").unwrap();
        fs.kill_node(DfsNodeId(0));
        let before = fs.under_replicated();
        assert!(!before.is_empty());
        fs.crash(7);
        fs.recover();
        // No leaked /drop blocks may reappear in the recovered map, and
        // the surviving under-replication must match exactly.
        assert_eq!(fs.under_replicated(), before);
        assert_eq!(fs.blocks.len(), 3, "only /keep's blocks survive");
    }

    #[test]
    fn re_replicate_ignores_blocks_of_deleted_files() {
        // Direct regression for the leak: simulate the interleaving by
        // deleting the map entry between the under-replication scan and
        // the repair write via a pre-removed entry.
        let fs = dfs(1, 3, 100, 2);
        fs.write("/f", &data(100), Some(DfsNodeId(0))).unwrap();
        let lb = &fs.file_blocks("/f").unwrap()[0];
        fs.kill_node(lb.replicas[1]);
        // Delete the file: the under-replicated set is now empty and a
        // later re_replicate pass must not resurrect anything.
        fs.delete("/f").unwrap();
        assert_eq!(fs.re_replicate(&TraceCtx::disabled()), 0);
        assert!(fs.under_replicated().is_empty());
    }

    #[test]
    fn random_policy_spreads_blocks() {
        let fs = Dfs::new(
            ClusterTopology::new(2, 5),
            DfsConfig {
                block_size: 10,
                replication: 2,
                node_capacity: u64::MAX,
                placement: PlacementPolicy::Random,
                seed: 3,
            },
        );
        fs.write("/f", &data(1000), None).unwrap(); // 100 blocks x2
        let dist = fs.block_distribution();
        assert_eq!(dist.iter().sum::<usize>(), 200);
        assert!(dist.iter().all(|&c| c > 0), "every node used: {dist:?}");
    }
}
