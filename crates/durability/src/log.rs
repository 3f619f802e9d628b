//! CRC-framed write-ahead log over a [`DurableStore`].
//!
//! ## Frame format
//!
//! ```text
//! +-------+-----------+-----------+-----------------+
//! | 0xA7  | len: u32  | crc: u32  | payload[len]    |
//! | magic |   LE      |  LE (IEEE)|                 |
//! +-------+-----------+-----------+-----------------+
//! ```
//!
//! Replay walks frames from the start of each segment and stops at the
//! first frame that fails the magic, length, or CRC check — a *torn
//! tail* left by a crash mid-write. Everything before the torn frame is
//! exactly the committed prefix; nothing after it can have been ack'd,
//! because [`DurableLog::append_commit`] only returns once the frame is
//! synced to the durable image.
//!
//! ## Segments
//!
//! The log is a sequence of epoch-numbered segment devices
//! (`<name>-wal-00000000`, `<name>-wal-00000001`, ...). A checkpoint
//! rotates to a fresh segment first, snapshots state, then truncates
//! every segment below the new epoch — so a crash at any point in that
//! sequence leaves either the old segments (replayable over the old
//! checkpoint) or the new manifest (replaying the fresh segment, whose
//! records are applied idempotently).
//!
//! ## Cost model
//!
//! Every frame is physically synced before the append returns (that is
//! what "acked writes survive" means). The *cost* of syncing is charged
//! by group commit. A batch of any size — one included — handed to
//! [`DurableLog::append_commit_batch`] is one group: one buffer, one
//! device append, one sync, one `wal_fsyncs_total` and one modeled
//! `wal_fsync_latency_ns`. Records appended singly through
//! [`DurableLog::append_commit`] are charged once per [`GROUP_COMMIT`]
//! records, reflecting that a real namenode coalesces concurrent
//! commits into one fsync. Charging by batch and by record count keeps
//! the metrics bit-identical at any worker count.

use crate::crc::crc32;
use crate::device::{DurableStore, MemDisk};
use lsdf_obs::names;
use lsdf_obs::{Counter, Histogram, Registry};
use lsdf_sync::{ranks, OrderedMutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Frame header: magic byte + u32 length + u32 CRC.
pub const FRAME_HEADER_LEN: usize = 9;
const FRAME_MAGIC: u8 = 0xA7;
/// Upper bound on a single record payload (guards against reading a
/// garbage length field as an allocation size).
pub const MAX_RECORD_LEN: u32 = 1 << 26;
/// Records appended singly per accounted fsync (group commit batching).
const GROUP_COMMIT: u64 = 8;

/// Tuning knobs for one write-ahead log.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Modeled latency of one device fsync, charged to
    /// `wal_fsync_latency_ns`.
    pub fsync_ns: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self { fsync_ns: 50_000 }
    }
}

struct ActiveSegment {
    epoch: u64,
    dev: Arc<MemDisk>,
}

struct WalObs {
    appends: Counter,
    append_bytes: Histogram,
    fsyncs: Counter,
    fsync_latency: Histogram,
    torn_tails: Counter,
}

/// An epoch-segmented, CRC-framed write-ahead log.
pub struct DurableLog {
    store: DurableStore,
    name: String,
    active: OrderedMutex<ActiveSegment>,
    records: AtomicU64,
    cfg: WalConfig,
    obs: WalObs,
}

/// Result of replaying the log from a starting epoch.
#[derive(Debug, Default)]
pub struct Replay {
    /// Committed record payloads, in log order.
    pub records: Vec<Vec<u8>>,
    /// Number of segments that ended in a torn (partial/corrupt) frame.
    pub torn_tails: u64,
    /// Number of segments scanned.
    pub segments: u64,
}

fn segment_name(name: &str, epoch: u64) -> String {
    // Zero-padded so lexicographic device order equals epoch order.
    format!("{name}-wal-{epoch:08}")
}

fn parse_epoch(name: &str, device: &str) -> Option<u64> {
    let rest = device.strip_prefix(name)?.strip_prefix("-wal-")?;
    rest.parse::<u64>().ok()
}

impl DurableLog {
    /// Opens the log named `name` in `store`, resuming at the highest
    /// existing segment epoch (or creating segment 0).
    pub fn open(store: DurableStore, name: &str, registry: &Arc<Registry>, cfg: WalConfig) -> Self {
        let epoch = store
            .names_with_prefix(&format!("{name}-wal-"))
            .iter()
            .filter_map(|d| parse_epoch(name, d))
            .max()
            .unwrap_or(0);
        let dev = store.open(&segment_name(name, epoch));
        let labels = &[("log", name)];
        let obs = WalObs {
            appends: registry.counter(names::WAL_APPENDS_TOTAL, labels),
            append_bytes: registry.histogram(names::WAL_APPEND_BYTES, labels),
            fsyncs: registry.counter(names::WAL_FSYNCS_TOTAL, labels),
            fsync_latency: registry.histogram(names::WAL_FSYNC_LATENCY_NS, labels),
            torn_tails: registry.counter(names::WAL_TORN_TAIL_TOTAL, labels),
        };
        Self {
            store,
            name: name.to_string(),
            active: OrderedMutex::new(ranks::WAL_ACTIVE, ActiveSegment { epoch, dev }),
            records: AtomicU64::new(0),
            cfg,
            obs,
        }
    }

    /// Appends the frame for `payload` to `out`.
    fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
        out.push(FRAME_MAGIC);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        Self::push_frame(&mut out, payload);
        out
    }

    /// Appends one record and syncs it to the durable image before
    /// returning — the caller may ack its mutation as soon as this
    /// returns. Fsync cost is charged once per [`GROUP_COMMIT`] records.
    pub fn append_commit(&self, payload: &[u8]) {
        let frame = Self::frame(payload);
        {
            let seg = self.active.lock();
            seg.dev.append(&frame);
            seg.dev.sync();
        }
        self.obs.appends.inc();
        self.obs.append_bytes.record(frame.len() as u64);
        let n = self.records.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(GROUP_COMMIT) {
            self.obs.fsyncs.inc();
            self.obs.fsync_latency.record(self.cfg.fsync_ns);
        }
    }

    /// Appends a batch of records under one lock acquisition and one
    /// sync — the group commit the batched namenode and catalog paths
    /// rely on: N commits share a single fsync charge instead of
    /// advancing the per-record group counter N times. The segment
    /// gets the same bytes N [`DurableLog::append_commit`]s would have
    /// written. The whole batch is synced before return, so every
    /// record in it may be acked. Batch composition is deterministic
    /// in the caller, which keeps the fsync accounting identical at
    /// any worker count.
    pub fn append_commit_batch(&self, payloads: &[Vec<u8>]) {
        if payloads.is_empty() {
            return;
        }
        // The whole batch is framed into one contiguous buffer: one
        // allocation, one device append, one sync.
        let total = payloads.iter().map(|p| FRAME_HEADER_LEN + p.len()).sum();
        let mut frames = Vec::with_capacity(total);
        for p in payloads {
            Self::push_frame(&mut frames, p);
        }
        {
            let seg = self.active.lock();
            seg.dev.append(&frames);
            seg.dev.sync();
        }
        self.obs.appends.add(payloads.len() as u64);
        self.obs
            .append_bytes
            .record_all(payloads.iter().map(|p| (FRAME_HEADER_LEN + p.len()) as u64));
        self.obs.fsyncs.inc();
        self.obs.fsync_latency.record(self.cfg.fsync_ns);
    }

    /// Current segment epoch.
    pub fn active_epoch(&self) -> u64 {
        self.active.lock().epoch
    }

    /// Rotates to a fresh segment and returns its epoch. Subsequent
    /// appends land in the new segment; older segments stay until
    /// [`DurableLog::truncate_below`].
    pub fn rotate(&self) -> u64 {
        let mut seg = self.active.lock();
        seg.epoch += 1;
        seg.dev = self.store.open(&segment_name(&self.name, seg.epoch));
        seg.epoch
    }

    /// Deletes every segment with epoch below `epoch`; returns how many
    /// were removed.
    pub fn truncate_below(&self, epoch: u64) -> u64 {
        let mut removed = 0;
        for dev in self.store.names_with_prefix(&format!("{}-wal-", self.name)) {
            if let Some(e) = parse_epoch(&self.name, &dev) {
                if e < epoch && self.store.remove(&dev) {
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Replays every committed record in segments `from_epoch..`,
    /// tolerating a torn tail at the end of any segment.
    ///
    /// A torn tail is *repaired* as it is found: the segment is
    /// truncated back to its committed prefix, so records appended
    /// after this recovery sit at a valid frame boundary and survive
    /// the *next* crash too — without the repair they would hide
    /// behind the garbage tail and vanish from every later replay.
    pub fn replay_from(&self, from_epoch: u64) -> Replay {
        let mut out = Replay::default();
        let mut devices: Vec<(u64, String)> = self
            .store
            .names_with_prefix(&format!("{}-wal-", self.name))
            .into_iter()
            .filter_map(|d| parse_epoch(&self.name, &d).map(|e| (e, d)))
            .filter(|(e, _)| *e >= from_epoch)
            .collect();
        devices.sort();
        for (_, device) in devices {
            out.segments += 1;
            let Some(dev) = self.store.get(&device) else { continue };
            let bytes = dev.read();
            let (records, torn) = parse_frames(&bytes);
            if torn {
                out.torn_tails += 1;
                self.obs.torn_tails.inc();
                let committed: usize =
                    records.iter().map(|r| FRAME_HEADER_LEN + r.len()).sum();
                dev.truncate(committed);
            }
            out.records.extend(records);
        }
        out
    }

    /// Simulates a crash mid-write of an *un-acked* record: stages the
    /// frame for `payload` in the write cache and then loses power
    /// keeping only `keep` bytes of it — producing a torn tail for
    /// recovery to discard. Committed frames are untouched.
    pub fn crash_torn(&self, payload: &[u8], keep: usize) {
        let frame = Self::frame(payload);
        let seg = self.active.lock();
        seg.dev.append(&frame);
        // Keep strictly less than the whole frame so the tail is torn.
        seg.dev.crash(keep.min(frame.len().saturating_sub(1)));
    }
}

/// Parses `bytes` as a sequence of frames. Returns the committed
/// payload prefix and whether a torn/corrupt tail was found. Never
/// panics on any input.
pub fn parse_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, bool) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER_LEN || rest[0] != FRAME_MAGIC {
            return (records, true);
        }
        let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]);
        let crc = u32::from_le_bytes([rest[5], rest[6], rest[7], rest[8]]);
        if len > MAX_RECORD_LEN {
            return (records, true);
        }
        let len = len as usize;
        let Some(payload) = rest.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len) else {
            return (records, true);
        };
        if crc32(payload) != crc {
            return (records, true);
        }
        records.push(payload.to_vec());
        pos += FRAME_HEADER_LEN + len;
    }
    (records, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Arc<Registry> {
        Arc::new(Registry::new())
    }

    #[test]
    fn append_replay_roundtrip() {
        let store = DurableStore::new();
        let log = DurableLog::open(store.clone(), "t", &registry(), WalConfig::default());
        log.append_commit(b"one");
        log.append_commit(b"two");
        log.append_commit(b"");
        let r = log.replay_from(0);
        assert_eq!(r.records, vec![b"one".to_vec(), b"two".to_vec(), Vec::new()]);
        assert_eq!(r.torn_tails, 0);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let store = DurableStore::new();
        let log = DurableLog::open(store.clone(), "t", &registry(), WalConfig::default());
        log.append_commit(b"committed");
        log.crash_torn(b"never-acked-record", 7);
        let reopened = DurableLog::open(store, "t", &registry(), WalConfig::default());
        let r = reopened.replay_from(0);
        assert_eq!(r.records, vec![b"committed".to_vec()]);
        assert_eq!(r.torn_tails, 1);
    }

    #[test]
    fn torn_tail_is_repaired_so_later_appends_survive_the_next_crash() {
        let store = DurableStore::new();
        let log = DurableLog::open(store.clone(), "t", &registry(), WalConfig::default());
        log.append_commit(b"one");
        log.crash_torn(b"never-acked", 5);
        // First recovery discards and *repairs* the torn tail...
        let r = log.replay_from(0);
        assert_eq!(r.records, vec![b"one".to_vec()]);
        assert_eq!(r.torn_tails, 1);
        // ...so a record acked after recovery is replayable after a
        // second crash, instead of hiding behind the garbage bytes.
        log.append_commit(b"two");
        let r = log.replay_from(0);
        assert_eq!(r.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(r.torn_tails, 0, "tail was repaired on first replay");
    }

    #[test]
    fn rotation_and_truncation() {
        let store = DurableStore::new();
        let log = DurableLog::open(store.clone(), "t", &registry(), WalConfig::default());
        log.append_commit(b"old");
        let e = log.rotate();
        assert_eq!(e, 1);
        log.append_commit(b"new");
        assert_eq!(log.replay_from(0).records.len(), 2);
        assert_eq!(log.replay_from(e).records, vec![b"new".to_vec()]);
        assert_eq!(log.truncate_below(e), 1);
        assert_eq!(log.replay_from(0).records, vec![b"new".to_vec()]);
        // Reopen resumes at the surviving epoch.
        let reopened = DurableLog::open(store, "t", &registry(), WalConfig::default());
        assert_eq!(reopened.active_epoch(), 1);
    }

    #[test]
    fn fsync_accounting_batches_by_group() {
        let reg = registry();
        let store = DurableStore::new();
        let cfg = WalConfig { fsync_ns: 1_000 };
        let log = DurableLog::open(store, "t", &reg, cfg);
        // Two full groups and a partial one: the partial is not charged.
        let n = 2 * GROUP_COMMIT + 2;
        for i in 0..n {
            log.append_commit(&[i as u8]);
        }
        assert_eq!(reg.counter_value(names::WAL_APPENDS_TOTAL, &[("log", "t")]), n);
        assert_eq!(reg.counter_value(names::WAL_FSYNCS_TOTAL, &[("log", "t")]), 2);
    }

    #[test]
    fn batch_segment_is_byte_identical_to_per_record_appends() {
        let payloads: Vec<Vec<u8>> = [0usize, 1, 8, 9, 229, 1000]
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 37 + j) as u8).collect())
            .collect();
        let labels = [("log", "t")];
        let (one_by_one, one_reg) = (DurableStore::new(), registry());
        let log = DurableLog::open(one_by_one.clone(), "t", &one_reg, WalConfig::default());
        for p in &payloads {
            log.append_commit(p);
        }
        let (batched, batch_reg) = (DurableStore::new(), registry());
        let log = DurableLog::open(batched.clone(), "t", &batch_reg, WalConfig::default());
        log.append_commit_batch(&payloads);
        let segment = |s: &DurableStore| s.get("t-wal-00000000").expect("segment 0").read();
        assert_eq!(segment(&one_by_one), segment(&batched));
        for reg in [&one_reg, &batch_reg] {
            assert_eq!(reg.counter_value(names::WAL_APPENDS_TOTAL, &labels), 6);
            let bytes = reg.histogram(names::WAL_APPEND_BYTES, &labels);
            assert_eq!(bytes.count(), 6);
            assert_eq!(bytes.sum(), segment(&batched).len() as u64);
        }
    }

    #[test]
    fn batch_append_shares_one_fsync_and_replays_in_order() {
        let reg = registry();
        let store = DurableStore::new();
        let cfg = WalConfig { fsync_ns: 1_000 };
        let log = DurableLog::open(store, "t", &reg, cfg);
        let n = 2 * GROUP_COMMIT + 2;
        let batch: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8]).collect();
        log.append_commit_batch(&batch);
        log.append_commit_batch(&[]);
        assert_eq!(reg.counter_value(names::WAL_APPENDS_TOTAL, &[("log", "t")]), n);
        // One fsync for the whole batch (an empty batch charges none),
        // vs. two for the same records on the per-record path above.
        assert_eq!(reg.counter_value(names::WAL_FSYNCS_TOTAL, &[("log", "t")]), 1);
        let r = log.replay_from(0);
        assert_eq!(r.records, batch);
        assert_eq!(r.torn_tails, 0);
    }
}
