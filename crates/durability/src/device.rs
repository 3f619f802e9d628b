//! Simulated durable devices.
//!
//! A [`MemDisk`] models one append-mostly file on stable storage with an
//! explicit *staged* / *synced* boundary: `append` stages bytes in the
//! device's volatile write cache, `sync` (the simulated `fsync`) moves
//! the staged tail to the durable image. A crash discards the write
//! cache except for a seeded prefix of the oldest in-flight bytes —
//! exactly how a real disk tears a frame that was being written when
//! power was lost. Bytes that were synced before the crash always
//! survive; bytes that were never synced never ack'd, so losing them
//! cannot lose an acknowledged write.
//!
//! A [`DurableStore`] is a flat named-device directory shared by every
//! durable component of a facility — the namenode WAL segments, the
//! per-project metadata WAL segments, checkpoint chunks, and manifests
//! all live here under distinct names, which is what lets a facility be
//! re-opened "from disk" after a crash.

use lsdf_sync::{ranks, OrderedMutex};
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Default)]
struct DiskState {
    /// The durable image: survives any crash.
    synced: Vec<u8>,
    /// The volatile write cache: staged but not yet fsync'd.
    staged: Vec<u8>,
}

/// One simulated append-mostly file on stable storage.
pub struct MemDisk {
    state: OrderedMutex<DiskState>,
}

impl Default for MemDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl MemDisk {
    /// Creates an empty device.
    pub fn new() -> Self {
        Self { state: OrderedMutex::new(ranks::MEMDISK_STATE, DiskState::default()) }
    }

    /// Stages bytes in the write cache (not yet durable).
    pub fn append(&self, data: &[u8]) {
        self.state.lock().staged.extend_from_slice(data);
    }

    /// Simulated `fsync`: moves every staged byte to the durable image.
    /// Returns the number of bytes flushed (0 means the cache was clean).
    pub fn sync(&self) -> u64 {
        let mut s = self.state.lock();
        let DiskState { synced, staged } = &mut *s;
        let n = staged.len() as u64;
        synced.extend_from_slice(staged);
        // Cleared, not dropped: the write cache keeps its buffer.
        staged.clear();
        n
    }

    /// Atomically replaces the entire durable image (models write-temp +
    /// rename, the idiom used for manifests and checkpoint chunks). The
    /// buffer is moved in, not copied; the write cache is discarded.
    pub fn set(&self, data: Vec<u8>) {
        let mut s = self.state.lock();
        s.synced = data;
        s.staged.clear();
    }

    /// Snapshot of the durable image.
    pub fn read(&self) -> Vec<u8> {
        self.state.lock().synced.clone()
    }

    /// Lends the durable image to `f` where it lies, for a reader that
    /// only looks (hash, decode): the device stays locked meanwhile.
    pub fn with_image<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.state.lock().synced)
    }

    /// Bytes in the durable image.
    pub fn synced_len(&self) -> u64 {
        self.state.lock().synced.len() as u64
    }

    /// Bytes sitting in the volatile write cache.
    pub fn staged_len(&self) -> u64 {
        self.state.lock().staged.len() as u64
    }

    /// Truncates the durable image to `len` bytes, discarding any staged
    /// bytes — the `ftruncate` a WAL performs on open to repair a torn
    /// tail, so that post-recovery appends land at a valid frame
    /// boundary instead of hiding behind garbage.
    pub fn truncate(&self, len: usize) {
        let mut s = self.state.lock();
        s.synced.truncate(len);
        s.staged.clear();
    }

    /// Simulates power loss: keeps at most `keep_staged` bytes of the
    /// write cache (the prefix the disk happened to get down before the
    /// lights went out — typically tearing a frame in half) and discards
    /// the rest. The durable image is untouched.
    pub fn crash(&self, keep_staged: usize) {
        let mut s = self.state.lock();
        let keep = keep_staged.min(s.staged.len());
        let staged = std::mem::take(&mut s.staged);
        s.synced.extend_from_slice(&staged[..keep]);
    }
}

/// A flat, named-device directory: the "disk" a facility re-opens after
/// a crash. Cloning shares the underlying devices.
#[derive(Clone)]
pub struct DurableStore {
    devices: Arc<OrderedMutex<BTreeMap<String, Arc<MemDisk>>>>,
}

impl Default for DurableStore {
    fn default() -> Self {
        Self::new()
    }
}

impl DurableStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self { devices: Arc::new(OrderedMutex::new(ranks::DURABLE_DEVICES, BTreeMap::new())) }
    }

    /// Opens (creating if absent) the device with the given name.
    pub fn open(&self, name: &str) -> Arc<MemDisk> {
        self.devices
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(MemDisk::new()))
            .clone()
    }

    /// Returns the device if it exists, without creating it.
    pub fn get(&self, name: &str) -> Option<Arc<MemDisk>> {
        self.devices.lock().get(name).cloned()
    }

    /// Deletes a device (segment truncation, stale checkpoint GC).
    pub fn remove(&self, name: &str) -> bool {
        self.devices.lock().remove(name).is_some()
    }

    /// Names of all devices, in lexicographic order.
    pub fn names(&self) -> Vec<String> {
        self.devices.lock().keys().cloned().collect()
    }

    /// Names of devices starting with `prefix`, in lexicographic order.
    pub fn names_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.devices
            .lock()
            .keys()
            .filter(|n| n.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Total durable bytes across every device.
    pub fn durable_bytes(&self) -> u64 {
        self.devices.lock().values().map(|d| d.synced_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_moves_staged_to_durable() {
        let d = MemDisk::new();
        d.append(b"abc");
        assert_eq!(d.synced_len(), 0);
        assert_eq!(d.staged_len(), 3);
        assert_eq!(d.sync(), 3);
        assert_eq!(d.read(), b"abc");
        assert_eq!(d.sync(), 0);
    }

    #[test]
    fn crash_preserves_synced_and_tears_staged() {
        let d = MemDisk::new();
        d.append(b"durable");
        d.sync();
        d.append(b"in-flight");
        d.crash(4);
        assert_eq!(d.read(), b"durablein-f");
        assert_eq!(d.staged_len(), 0);
    }

    #[test]
    fn store_namespaces_devices() {
        let s = DurableStore::new();
        s.open("dfs-wal-0").append(b"x");
        s.open("meta-zebrafish-wal-0");
        assert_eq!(s.names(), vec!["dfs-wal-0", "meta-zebrafish-wal-0"]);
        assert_eq!(s.names_with_prefix("dfs-"), vec!["dfs-wal-0"]);
        let again = s.open("dfs-wal-0");
        assert_eq!(again.staged_len(), 1);
        assert!(s.remove("dfs-wal-0"));
        assert!(s.get("dfs-wal-0").is_none());
    }
}
