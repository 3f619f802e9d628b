//! [`ComponentDurability`] — the one-stop handle a stateful component
//! (namenode, metadata store) holds to get WAL + checkpoints + recovery
//! without re-implementing the epoch dance.
//!
//! Protocol per component (DESIGN §13 states who logs, who applies and
//! who counts):
//!
//! * every acked mutation calls [`ComponentDurability::log`] with a
//!   canonical record *before* returning to the caller;
//! * a background reconciler calls
//!   [`ComponentDurability::checkpoint_if_due`] with the canonical
//!   state as a list of chunks, of which only the ones that changed
//!   since the last checkpoint carry bytes;
//! * after a crash, [`ComponentDurability::recover_with`] runs the
//!   recovery loop: the latest checkpoint's chunks are lent, verified,
//!   to the component's `install`, the committed WAL suffix goes
//!   through its idempotent `apply`, and the harness counts what took
//!   effect.

use crate::checkpoint::{CheckpointStore, Chunk, Chunks, Loaded};
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
    /// Checkpoint after this many WAL records since the last one. Also
    /// the number of records in one checkpoint chunk, so a sweep that
    /// is due has about a chunk's worth to write.
    pub checkpoint_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self { fsync_ns: 50_000, checkpoint_every: 4_096 }
    }
}

/// What one [`ComponentDurability::recover_with`] pass found and did —
/// the one recovery-stats type of every durable component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// A verified checkpoint was installed as the replay base.
    pub snapshot_loaded: bool,
    /// A checkpoint was on disk and failed verification, or held what
    /// the component refused to install: the component holds what its
    /// surviving WAL segments hold, over no base.
    pub checkpoint_rejected: bool,
    /// Replayed WAL records that took effect.
    pub replayed: u64,
    /// Replayed WAL records that did not: the effect was already
    /// present, or the record did not decode.
    pub skipped: u64,
    /// Log segments that ended in a torn (never-acked) frame.
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
        let wal_cfg = WalConfig { fsync_ns: cfg.fsync_ns };
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

    /// Records per checkpoint chunk: chunk `i` of what
    /// [`ComponentDurability::checkpoint_with`] is handed covers
    /// records `i * n .. (i + 1) * n` of the component's state.
    pub fn chunk_records(&self) -> u64 {
        self.checkpoint_every
    }

    /// The reconciler's step: [`ComponentDurability::checkpoint_with`]
    /// when at least `checkpoint_every` records were logged since the
    /// last checkpoint, `None` (and `snapshot` uncalled) when not.
    pub fn checkpoint_if_due(&self, snapshot: impl Fn(bool) -> Vec<Chunk>) -> Option<u64> {
        if self.since_ckpt.load(Ordering::Relaxed) < self.checkpoint_every {
            return None;
        }
        self.checkpoint_with(snapshot)
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

    /// The recovery loop, the same for every component: lends the
    /// latest checkpoint's chunks, each verified against the manifest
    /// as it is read, to `install` (`true` = installed as the base,
    /// `false` = nothing of the component changed), then replays the
    /// committed WAL suffix above it, in log order, through `apply`
    /// (`true` = the record took effect; `false` = its effect was
    /// already present or it did not decode). A checkpoint that failed
    /// verification or that `install` refused is one outcome: rejected,
    /// counted, and every surviving segment replayed instead.
    ///
    /// Counts the run, `replayed` and `skipped` on the `recovery_*`
    /// series exactly as returned. The modelled replay latency and the
    /// checkpoint cadence go by records read, whatever their effect.
    pub fn recover_with(
        &self,
        install: impl FnOnce(&Chunks<'_>) -> bool,
        mut apply: impl FnMut(&[u8]) -> bool,
    ) -> RecoveryStats {
        let mut stats = RecoveryStats::default();
        let from_epoch = match self.ckpts.load_with(install) {
            Loaded::Installed { wal_epoch } => {
                stats.snapshot_loaded = true;
                wal_epoch
            }
            Loaded::Rejected => {
                stats.checkpoint_rejected = true;
                0
            }
            Loaded::Absent => 0,
        };
        let mut read = 0;
        (stats.torn_tails, _) = self.log.replay_with(from_epoch, |payload| {
            read += 1;
            stats.replayed += u64::from(apply(payload));
        });
        stats.skipped = read - stats.replayed;
        self.obs.runs.inc();
        self.obs.replayed.add(stats.replayed);
        self.obs.skipped.add(stats.skipped);
        self.obs.latency.record(RECOVERY_BASE_NS + REPLAY_NS_PER_RECORD * read);
        self.since_ckpt.store(read, Ordering::Relaxed);
        stats
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
