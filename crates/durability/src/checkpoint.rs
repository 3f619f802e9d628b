//! Chunked, content-addressed checkpoints behind an atomically
//! replaced manifest.
//!
//! A checkpoint is an ordered list of chunks. Each chunk lives in a
//! device named by the SHA-256 of its bytes (`<name>-ckpt-<hex>`); the
//! manifest device (`<name>-manifest`) lists the chunk hashes in order,
//! how many records the component puts in a chunk, and the WAL epoch
//! from which replay must start:
//!
//! ```text
//! u8 version = 2 | u64 wal_epoch | u64 chunk_records | u32 count | count x [u8; 32]
//! ```
//!
//! A save writes only the chunks the component hands it as
//! [`Chunk::Put`]; a [`Chunk::Keep`] carries the hash the current
//! manifest holds at that index into the new one. The manifest is
//! replaced atomically (write-temp + rename in a real filesystem,
//! [`MemDisk::set`] here) after every new chunk is down, and chunks the
//! new manifest does not name are collected after that, so a crash
//! leaves one of three states, each of which recovers:
//!
//! * new chunks, old manifest — the old checkpoint, whose WAL segments
//!   were not yet truncated; the new chunks are orphans;
//! * new manifest, old chunks not yet collected — the new checkpoint;
//!   the next save collects the orphans;
//! * a chunk the manifest names is missing or fails its hash, or the
//!   component refuses what the chunks hold — the checkpoint is
//!   rejected as a whole and counted, and recovery replays whatever
//!   WAL survives from epoch 0.
//!
//! [`MemDisk::set`]: crate::device::MemDisk::set

use crate::codec::{Dec, Enc};
use crate::device::DurableStore;
use lsdf_obs::names;
use lsdf_obs::{Counter, Histogram, Registry};
use lsdf_storage::{sha256, Digest};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One position of a checkpoint being saved.
#[derive(Debug)]
pub enum Chunk {
    /// Unchanged since the last checkpoint: the chunk the current
    /// manifest names at this index stays.
    Keep,
    /// The bytes of this index now.
    Put(Vec<u8>),
}

/// What [`CheckpointStore::load_with`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Loaded {
    /// No manifest: the component never checkpointed.
    Absent,
    /// A manifest that does not decode or names a chunk that is missing
    /// or fails its hash, or chunks the component refused to install.
    /// Nothing of it is used.
    Rejected,
    /// Every chunk verified and the component installed them.
    Installed {
        /// WAL segments at or above this epoch replay over the chunks.
        wal_epoch: u64,
    },
}

/// The chunks a manifest names, lent to the component that installs
/// them.
pub struct Chunks<'a> {
    store: &'a DurableStore,
    prefix: String,
    hashes: &'a [Digest],
}

impl Chunks<'_> {
    /// Lends each chunk to `visit`, in manifest order, once its bytes
    /// hash to what the manifest says: verified and read under one
    /// borrow of the device image, not from a copy of it. `false` at
    /// the first chunk that is missing, fails its hash or that `visit`
    /// refuses. A later chunk may still fail after `visit` accepted
    /// earlier ones, so `visit` stages and the caller commits on `true`.
    pub fn try_for_each(&self, mut visit: impl FnMut(&[u8]) -> bool) -> bool {
        self.hashes.iter().all(|hash| {
            let dev = self.store.get(&format!("{}{hash}", self.prefix));
            dev.is_some_and(|dev| dev.with_image(|body| sha256(body) == *hash && visit(body)))
        })
    }
}

/// The durable pointer at the root of recovery.
#[derive(Debug, PartialEq, Eq)]
struct Manifest {
    wal_epoch: u64,
    chunk_records: u64,
    chunks: Vec<Digest>,
}

const MANIFEST_VERSION: u8 = 2;

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(21 + 32 * self.chunks.len());
        e.u8(MANIFEST_VERSION);
        e.u64(self.wal_epoch);
        e.u64(self.chunk_records);
        e.u32(self.chunks.len() as u32);
        for hash in &self.chunks {
            e.raw(&hash.0);
        }
        e.finish()
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        if d.u8()? != MANIFEST_VERSION {
            return None;
        }
        let (wal_epoch, chunk_records, count) = (d.u64()?, d.u64()?, d.u32()?);
        let chunks = (0..count)
            .map(|_| Some(Digest(d.take(32)?.try_into().ok()?)))
            .collect::<Option<_>>()?;
        d.at_end().then_some(Self { wal_epoch, chunk_records, chunks })
    }
}

struct CkptObs {
    taken: Counter,
    bytes: Histogram,
    chunks_written: Counter,
    chunks_reused: Counter,
    rejected: Counter,
    truncated: Counter,
}

/// Saves and loads chunked checkpoints for one component.
pub struct CheckpointStore {
    store: DurableStore,
    name: String,
    obs: CkptObs,
}

impl CheckpointStore {
    /// Opens the checkpoint namespace for component `name`.
    pub fn open(store: DurableStore, name: &str, registry: &Arc<Registry>) -> Self {
        let labels = &[("log", name)];
        let obs = CkptObs {
            taken: registry.counter(names::CKPT_TAKEN_TOTAL, labels),
            bytes: registry.histogram(names::CKPT_BYTES, labels),
            chunks_written: registry.counter(names::CKPT_CHUNKS_WRITTEN_TOTAL, labels),
            chunks_reused: registry.counter(names::CKPT_CHUNKS_REUSED_TOTAL, labels),
            rejected: registry.counter(names::CKPT_REJECTED_TOTAL, labels),
            truncated: registry.counter(names::CKPT_SEGMENTS_TRUNCATED_TOTAL, labels),
        };
        Self { store, name: name.to_string(), obs }
    }

    fn chunk_prefix(&self) -> String {
        format!("{}-ckpt-", self.name)
    }

    fn manifest_device(&self) -> String {
        format!("{}-manifest", self.name)
    }

    /// Saves a checkpoint of `chunks.len()` chunks with `wal_epoch` as
    /// the replay floor: hashes each [`Chunk::Put`] once and moves it
    /// into its device, replaces the manifest, then collects the chunk
    /// devices the new manifest does not name. Returns how many chunks
    /// were written.
    ///
    /// `None` when a [`Chunk::Keep`] has nothing to keep — the current
    /// manifest is shorter, absent, or was written with another
    /// `chunk_records`. The manifest has not moved then; the caller
    /// saves again with every chunk a `Put`.
    pub fn save(&self, chunks: Vec<Chunk>, chunk_records: u64, wal_epoch: u64) -> Option<u64> {
        let prefix = self.chunk_prefix();
        let current = self
            .store
            .get(&self.manifest_device())
            .and_then(|dev| Manifest::decode(&dev.read()))
            .filter(|m| m.chunk_records == chunk_records)
            .map_or_else(Vec::new, |m| m.chunks);
        let (mut written, mut bytes) = (0u64, 0u64);
        let mut hashes = Vec::with_capacity(chunks.len());
        for (i, chunk) in chunks.into_iter().enumerate() {
            hashes.push(match chunk {
                Chunk::Keep => *current.get(i)?,
                Chunk::Put(body) => {
                    let hash = sha256(&body);
                    written += 1;
                    bytes += body.len() as u64;
                    self.store.open(&format!("{prefix}{hash}")).set(body);
                    hash
                }
            });
        }
        let manifest = Manifest { wal_epoch, chunk_records, chunks: hashes };
        self.store.open(&self.manifest_device()).set(manifest.encode());
        // Only a name this store could have written — the prefix and
        // exactly one hex digest — is its to remove: a component called
        // `<name>-ckpt-x` keeps its segments, manifest and chunks.
        let live: BTreeSet<&Digest> = manifest.chunks.iter().collect();
        for dev in self.store.names_with_prefix(&prefix) {
            let hash = dev.strip_prefix(&prefix).and_then(Digest::from_hex);
            if hash.is_some_and(|h| !live.contains(&h)) {
                self.store.remove(&dev);
            }
        }
        self.obs.taken.inc();
        self.obs.bytes.record(bytes);
        self.obs.chunks_written.add(written);
        self.obs.chunks_reused.add(manifest.chunks.len() as u64 - written);
        Some(written)
    }

    /// Records how many WAL segments the caller truncated after this
    /// checkpoint landed.
    pub fn note_truncated(&self, segments: u64) {
        self.obs.truncated.add(segments);
    }

    /// Loads the manifest and lends the chunks it names to `install`,
    /// the component's routine that replaces its state with them and
    /// says whether it did. A manifest that does not decode, or an
    /// `install` that answers `false` — a chunk missing or failing its
    /// hash, or holding what the component cannot accept — rejects the
    /// checkpoint as a whole (counted once on `ckpt_rejected_total`):
    /// the caller replays the WAL from epoch 0 over no base, which
    /// idempotent replay makes safe for whatever segments still exist.
    pub fn load_with(&self, install: impl FnOnce(&Chunks<'_>) -> bool) -> Loaded {
        let Some(dev) = self.store.get(&self.manifest_device()) else {
            return Loaded::Absent;
        };
        let installed = Manifest::decode(&dev.read()).filter(|m| {
            install(&Chunks { store: &self.store, prefix: self.chunk_prefix(), hashes: &m.chunks })
        });
        match installed {
            Some(m) => Loaded::Installed { wal_epoch: m.wal_epoch },
            None => {
                self.obs.rejected.inc();
                Loaded::Rejected
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(store: &DurableStore) -> (CheckpointStore, Arc<Registry>) {
        let reg = Arc::new(Registry::new());
        (CheckpointStore::open(store.clone(), "t", &reg), reg)
    }

    fn put(bodies: &[&[u8]]) -> Vec<Chunk> {
        bodies.iter().map(|b| Chunk::Put(b.to_vec())).collect()
    }

    /// What a component that accepts any bytes is told and handed.
    fn load(ckpts: &CheckpointStore) -> (Loaded, Vec<Vec<u8>>) {
        let mut bodies = Vec::new();
        let stage = |body: &[u8]| {
            bodies.push(body.to_vec());
            true
        };
        let loaded = ckpts.load_with(|chunks| chunks.try_for_each(stage));
        (loaded, bodies)
    }

    fn verified(wal_epoch: u64, bodies: &[&[u8]]) -> (Loaded, Vec<Vec<u8>>) {
        (Loaded::Installed { wal_epoch }, bodies.iter().map(|b| b.to_vec()).collect())
    }

    #[test]
    fn save_load_roundtrip_and_gc() {
        let store = DurableStore::new();
        let (ckpts, reg) = open(&store);
        assert_eq!(ckpts.save(put(&[b"a0", b"b0", b"c0"]), 4, 1), Some(3));
        assert_eq!(load(&ckpts), verified(1, &[b"a0", b"b0", b"c0"]));
        // The middle chunk changed and a fourth appeared.
        let next = vec![Chunk::Keep, Chunk::Put(b"b1".to_vec()), Chunk::Keep, Chunk::Put(b"d0".to_vec())];
        assert_eq!(ckpts.save(next, 4, 2), Some(2));
        assert_eq!(load(&ckpts), verified(2, &[b"a0", b"b1", b"c0", b"d0"]));
        assert_eq!(store.names_with_prefix("t-ckpt-").len(), 4, "b0 was collected");
        let count = |name| reg.counter_value(name, &[("log", "t")]);
        assert_eq!(count(names::CKPT_TAKEN_TOTAL), 2);
        assert_eq!(count(names::CKPT_CHUNKS_WRITTEN_TOTAL), 5);
        assert_eq!(count(names::CKPT_CHUNKS_REUSED_TOTAL), 2);
        let bytes = reg.histogram(names::CKPT_BYTES, &[("log", "t")]);
        assert_eq!((bytes.count(), bytes.sum()), (2, 10), "bytes written, not bytes referenced");
        // Nothing changed: nothing is written, the replay floor moves.
        assert_eq!(ckpts.save((0..4).map(|_| Chunk::Keep).collect(), 4, 3), Some(0));
        assert_eq!(load(&ckpts), verified(3, &[b"a0", b"b1", b"c0", b"d0"]));
        // An empty state is a checkpoint too, distinct from none at all.
        assert_eq!(ckpts.save(Vec::new(), 4, 4), Some(0));
        assert_eq!(load(&ckpts), verified(4, &[]));
        assert!(store.names_with_prefix("t-ckpt-").is_empty());
    }

    #[test]
    fn chunks_with_equal_bytes_share_one_device() {
        let store = DurableStore::new();
        let (ckpts, _) = open(&store);
        ckpts.save(put(&[b"same", b"same", b"other"]), 4, 1);
        assert_eq!(store.names_with_prefix("t-ckpt-").len(), 2);
        ckpts.save(vec![Chunk::Put(b"new".to_vec()), Chunk::Keep, Chunk::Keep], 4, 2);
        assert_eq!(load(&ckpts), verified(2, &[b"new", b"same", b"other"]));
    }

    #[test]
    fn a_keep_with_nothing_to_keep_fails_before_the_manifest_moves() {
        let store = DurableStore::new();
        let (ckpts, _) = open(&store);
        assert_eq!(ckpts.save(vec![Chunk::Keep], 4, 1), None, "no manifest yet");
        assert_eq!(load(&ckpts).0, Loaded::Absent);
        ckpts.save(put(&[b"a", b"b"]), 4, 1);
        let longer = vec![Chunk::Keep, Chunk::Keep, Chunk::Keep];
        assert_eq!(ckpts.save(longer, 4, 2), None, "index 2 was never written");
        let resized = vec![Chunk::Put(b"a2".to_vec()), Chunk::Keep];
        assert_eq!(ckpts.save(resized, 8, 2), None, "chunks of 4 records are not chunks of 8");
        assert_eq!(load(&ckpts), verified(1, &[b"a", b"b"]));
        // The orphan `a2` goes with the next save that lands.
        assert_eq!(store.names_with_prefix("t-ckpt-").len(), 3);
        assert_eq!(ckpts.save(put(&[b"a", b"b"]), 8, 2), Some(2));
        assert_eq!(store.names_with_prefix("t-ckpt-").len(), 2);
    }

    #[test]
    fn chunks_the_component_refuses_reject_the_checkpoint_like_a_bad_hash() {
        let store = DurableStore::new();
        let (ckpts, reg) = open(&store);
        ckpts.save(put(&[b"a", b"b"]), 4, 7);
        let rejected = || reg.counter_value(names::CKPT_REJECTED_TOTAL, &[("log", "t")]);
        // Refused after every chunk was read, and at the second chunk.
        let refuse = |chunks: &Chunks<'_>| {
            assert!(chunks.try_for_each(|_| true), "both chunks verify");
            false
        };
        assert_eq!(ckpts.load_with(refuse), Loaded::Rejected);
        let mut seen = 0;
        let only_a = |body: &[u8]| {
            seen += 1;
            body == b"a"
        };
        assert_eq!(ckpts.load_with(|chunks| chunks.try_for_each(only_a)), Loaded::Rejected);
        assert_eq!((seen, rejected()), (2, 2));
        assert_eq!(ckpts.load_with(|_| true), Loaded::Installed { wal_epoch: 7 });
        assert_eq!(rejected(), 2);
    }

    #[test]
    fn missing_manifest_is_epoch_zero() {
        let store = DurableStore::new();
        let (ckpts, reg) = open(&store);
        assert_eq!(load(&ckpts).0, Loaded::Absent);
        assert_eq!(reg.counter_value(names::CKPT_REJECTED_TOTAL, &[("log", "t")]), 0);
    }

    #[test]
    fn one_bad_chunk_rejects_the_whole_checkpoint() {
        let bodies: [&[u8]; 3] = [b"first", b"second", b"third"];
        for damaged in 0..3 {
            for remove in [false, true] {
                let store = DurableStore::new();
                let (ckpts, reg) = open(&store);
                ckpts.save(put(&bodies), 4, 3);
                let dev = format!("t-ckpt-{}", sha256(bodies[damaged]));
                if remove {
                    assert!(store.remove(&dev));
                } else {
                    store.open(&dev).set(b"tampered".to_vec());
                }
                assert_eq!(load(&ckpts).0, Loaded::Rejected, "chunk {damaged} remove={remove}");
                assert_eq!(reg.counter_value(names::CKPT_REJECTED_TOTAL, &[("log", "t")]), 1);
            }
        }
        // So does a manifest that is not one (an older version byte).
        let store = DurableStore::new();
        let (ckpts, _) = open(&store);
        ckpts.save(put(&bodies), 4, 3);
        let manifest = store.open("t-manifest");
        let mut bytes = manifest.read();
        assert_eq!(bytes.len(), 21 + 3 * 32);
        bytes[0] = 1;
        manifest.set(bytes);
        assert_eq!(load(&ckpts).0, Loaded::Rejected);
    }
}
