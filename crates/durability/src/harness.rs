//! [`ComponentDurability`] — the one-stop handle a stateful component
//! (namenode, metadata store) holds to get WAL + checkpoints + recovery
//! without re-implementing the epoch dance.
//!
//! Protocol per component:
//!
//! * every acked mutation calls [`ComponentDurability::log`] with a
//!   canonical record *before* returning to the caller;
//! * a background reconciler polls [`ComponentDurability::should_checkpoint`]
//!   and calls [`ComponentDurability::checkpoint_with`] with the
//!   canonical state as a list of chunks, of which only the ones that
//!   changed since the last checkpoint carry bytes;
//! * after a crash, [`ComponentDurability::recover`] hands back the
//!   latest verified checkpoint plus the committed WAL suffix, which the
//!   component applies idempotently.

use crate::checkpoint::{CheckpointStore, Chunk, Loaded};
use crate::device::DurableStore;
use crate::log::{DurableLog, WalConfig};
use lsdf_obs::names;
use lsdf_obs::{Counter, Histogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Modeled cost of applying one replayed record during recovery.
const REPLAY_NS_PER_RECORD: u64 = 1_000;
/// Modeled fixed cost of opening the log + manifest during recovery.
const RECOVERY_BASE_NS: u64 = 20_000;

/// Facility-level durability tuning, shared by every component.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// Modeled single-fsync latency (see [`WalConfig::fsync_ns`]).
    pub fsync_ns: u64,
    /// Records per accounted fsync (see [`WalConfig::group_commit`]).
    pub group_commit: u64,
    /// Checkpoint after this many WAL records since the last one. Also
    /// the number of records in one checkpoint chunk, so a sweep that
    /// is due has about a chunk's worth to write.
    pub checkpoint_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self { fsync_ns: 50_000, group_commit: 8, checkpoint_every: 4_096 }
    }
}

/// What [`ComponentDurability::recover`] found on disk.
pub struct Recovered {
    /// The verified checkpoint's chunks in order, if there is one.
    pub snapshot: Option<Vec<Vec<u8>>>,
    /// A checkpoint was on disk and failed verification: `records` is
    /// every surviving segment from epoch 0, over no base.
    pub checkpoint_rejected: bool,
    /// Committed WAL records to replay over the snapshot, in log order.
    pub records: Vec<Vec<u8>>,
    /// Segments that ended in a torn frame (discarded un-acked tails).
    pub torn_tails: u64,
}

struct RecoveryObs {
    runs: Counter,
    replayed: Counter,
    skipped: Counter,
    latency: Histogram,
}

/// WAL + checkpoint + recovery bundle for one named component.
pub struct ComponentDurability {
    log: DurableLog,
    ckpts: CheckpointStore,
    checkpoint_every: u64,
    since_ckpt: AtomicU64,
    obs: RecoveryObs,
}

impl ComponentDurability {
    /// Opens (or creates) the durable state for component `name`.
    pub fn open(
        store: &DurableStore,
        name: &str,
        registry: &Arc<Registry>,
        cfg: &DurabilityConfig,
    ) -> Self {
        let wal_cfg = WalConfig { fsync_ns: cfg.fsync_ns, group_commit: cfg.group_commit };
        let labels = &[("log", name)];
        let obs = RecoveryObs {
            runs: registry.counter(names::RECOVERY_RUNS_TOTAL, labels),
            replayed: registry.counter(names::RECOVERY_REPLAYED_RECORDS_TOTAL, labels),
            skipped: registry.counter(names::RECOVERY_SKIPPED_RECORDS_TOTAL, labels),
            latency: registry.histogram(names::RECOVERY_LATENCY_NS, labels),
        };
        Self {
            log: DurableLog::open(store.clone(), name, registry, wal_cfg),
            ckpts: CheckpointStore::open(store.clone(), name, registry),
            checkpoint_every: cfg.checkpoint_every.max(1),
            since_ckpt: AtomicU64::new(0),
            obs,
        }
    }

    /// Durably commits one mutation record; the mutation may ack once
    /// this returns.
    pub fn log(&self, payload: &[u8]) {
        self.log.append_commit(payload);
        self.since_ckpt.fetch_add(1, Ordering::Relaxed);
    }

    /// Logs a batch of records through one group commit: a single lock
    /// acquisition and a single fsync charge for the whole batch (see
    /// [`DurableLog::append_commit_batch`]). Every record still counts
    /// toward the checkpoint cadence.
    pub fn log_batch(&self, payloads: &[Vec<u8>]) {
        if payloads.is_empty() {
            return;
        }
        self.log.append_commit_batch(payloads);
        self.since_ckpt
            .fetch_add(payloads.len() as u64, Ordering::Relaxed);
    }

    /// True when enough records have accumulated since the last
    /// checkpoint for the reconciler to take a new one.
    pub fn should_checkpoint(&self) -> bool {
        self.since_ckpt.load(Ordering::Relaxed) >= self.checkpoint_every
    }

    /// WAL records committed since the last checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.since_ckpt.load(Ordering::Relaxed)
    }

    /// Records per checkpoint chunk: chunk `i` of what
    /// [`ComponentDurability::checkpoint_with`] is handed covers
    /// records `i * n .. (i + 1) * n` of the component's state.
    pub fn chunk_records(&self) -> u64 {
        self.checkpoint_every
    }

    /// Takes a checkpoint: rotates the WAL so new records land in a
    /// fresh segment, asks `snapshot(false)` for the state's chunks
    /// (`Put` where changed since the last checkpoint, `Keep` where
    /// not), persists the new chunks and the manifest, then truncates
    /// the superseded segments. Returns how many chunks were written.
    ///
    /// A `Keep` the manifest on disk cannot honour (it was written with
    /// another chunk size) fails the save before the manifest moves;
    /// `snapshot(true)` then asks for every chunk as a `Put`. `None`,
    /// with the log untruncated, only if that one holds a `Keep` too.
    pub fn checkpoint_with(&self, snapshot: impl Fn(bool) -> Vec<Chunk>) -> Option<u64> {
        let epoch = self.log.rotate();
        self.since_ckpt.store(0, Ordering::Relaxed);
        // Mutations racing with the snapshot land in the new segment and
        // may or may not be captured by `snapshot()`; replay over the
        // checkpoint is idempotent either way.
        let n = self.checkpoint_every;
        let written = self
            .ckpts
            .save(snapshot(false), n, epoch)
            .or_else(|| self.ckpts.save(snapshot(true), n, epoch))?;
        let truncated = self.log.truncate_below(epoch);
        self.ckpts.note_truncated(truncated);
        Some(written)
    }

    /// Reads the latest verified checkpoint and the committed WAL suffix
    /// above it. Counts the run and models replay latency on the
    /// recovery histogram.
    pub fn recover(&self) -> Recovered {
        // A checkpoint that failed verification falls back to replaying
        // every surviving segment rather than just the suffix.
        let (from_epoch, snapshot, checkpoint_rejected) = match self.ckpts.load() {
            Loaded::Verified { wal_epoch, chunks } => (wal_epoch, Some(chunks), false),
            Loaded::Rejected => (0, None, true),
            Loaded::Absent => (0, None, false),
        };
        let replay = self.log.replay_from(from_epoch);
        self.obs.runs.inc();
        self.obs.replayed.add(replay.records.len() as u64);
        self.obs
            .latency
            .record(RECOVERY_BASE_NS + REPLAY_NS_PER_RECORD * replay.records.len() as u64);
        self.since_ckpt.store(replay.records.len() as u64, Ordering::Relaxed);
        Recovered {
            snapshot,
            checkpoint_rejected,
            records: replay.records,
            torn_tails: replay.torn_tails,
        }
    }

    /// Counts records that replay skipped because their effect was
    /// already present (idempotent re-application).
    pub fn note_skipped(&self, n: u64) {
        self.obs.skipped.add(n);
    }

    /// Simulates the crash tearing an in-flight, never-acked frame onto
    /// the active segment's tail; `seed` picks the tear point.
    pub fn crash_torn(&self, seed: u64) {
        let payload_len = 16 + (seed % 48) as usize;
        let payload: Vec<u8> = (0..payload_len).map(|i| (seed as u8).wrapping_add(i as u8)).collect();
        let keep = (seed % (payload_len as u64 + crate::log::FRAME_HEADER_LEN as u64)) as usize;
        self.log.crash_torn(&payload, keep);
    }
}
