//! The object store: named, checksummed, write-once objects holding real
//! bytes.
//!
//! This is the in-memory stand-in for the LSDF's GPFS-backed disk systems.
//! Objects are write-once (matching the paper's "data: write once, read
//! many — persistent" model on slide 8); deletion exists for lifecycle
//! management but overwriting does not. Every object carries its SHA-256
//! digest, captured at ingest and re-verifiable on read.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use lsdf_sync::{ranks, OrderedRwLock};

use crate::checksum::Digest;
use crate::payload::Payload;

/// Identifies an object within a store (monotonically assigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

/// Immutable metadata kept per object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// The object's id.
    pub id: ObjectId,
    /// Full key (path-like name) of the object.
    pub key: String,
    /// Payload size in bytes.
    pub size: u64,
    /// SHA-256 of the payload, computed at put time.
    pub digest: Digest,
}

/// Errors from object-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The key already holds an object (objects are write-once).
    AlreadyExists(String),
    /// No object under the key.
    NotFound(String),
    /// The store's byte capacity would be exceeded.
    CapacityExceeded {
        /// Requested payload size.
        requested: u64,
        /// Remaining free bytes.
        free: u64,
    },
    /// Read-back digest did not match the ingest digest.
    ChecksumMismatch(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::AlreadyExists(k) => write!(f, "object '{k}' already exists (WORM)"),
            StoreError::NotFound(k) => write!(f, "object '{k}' not found"),
            StoreError::CapacityExceeded { requested, free } => {
                write!(f, "capacity exceeded: need {requested} bytes, {free} free")
            }
            StoreError::ChecksumMismatch(k) => write!(f, "checksum mismatch reading '{k}'"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One object. Its key is held once, as the map's key; an
/// [`ObjectMeta`] is built from the two when asked for.
struct Stored {
    id: ObjectId,
    size: u64,
    digest: Digest,
    data: Payload,
}

impl Stored {
    fn meta(&self, key: String) -> ObjectMeta {
        ObjectMeta { id: self.id, key, size: self.size, digest: self.digest }
    }
}

struct StoreInner {
    by_key: BTreeMap<String, Stored>,
    used: u64,
    next_id: u64,
}

/// A thread-safe, capacity-bounded, write-once object store.
pub struct ObjectStore {
    name: String,
    capacity: u64,
    inner: OrderedRwLock<StoreInner>,
}

impl ObjectStore {
    /// Creates a store with a byte capacity (use `u64::MAX` for unbounded).
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        ObjectStore {
            name: name.into(),
            capacity,
            inner: OrderedRwLock::new(
                ranks::STORAGE_OBJECT,
                StoreInner { by_key: BTreeMap::new(), used: 0, next_id: 0 },
            ),
        }
    }

    /// The store's configured name (e.g. `"storage-ibm"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently stored.
    pub fn used(&self) -> u64 {
        self.inner.read().used
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.inner.read().by_key.len()
    }

    /// True when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores `data` under `key`; write-once semantics. The ingest
    /// digest is the payload's memoized SHA-256 — if an upstream layer
    /// (ADAL verification, the metadata catalog) already hashed this
    /// payload family, no second hash happens here.
    ///
    /// A taken key is refused before capacity is checked, and a refused
    /// put consumes no id.
    pub fn put(&self, key: &str, data: impl Into<Payload>) -> Result<ObjectMeta, StoreError> {
        let data = data.into();
        // Hash (or hit the memo) outside the write lock.
        let digest = data.digest();
        let size = data.len() as u64;
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        // One descent finds the key taken or the slot it goes in.
        let Entry::Vacant(slot) = inner.by_key.entry(key.to_string()) else {
            return Err(StoreError::AlreadyExists(key.to_string()));
        };
        let free = self.capacity - inner.used;
        if size > free {
            return Err(StoreError::CapacityExceeded {
                requested: size,
                free,
            });
        }
        let id = ObjectId(inner.next_id);
        inner.next_id += 1;
        inner.used += size;
        Ok(slot.insert(Stored { id, size, digest, data }).meta(key.to_string()))
    }

    /// Fetches the payload, verifying its checksum. Payload buffers are
    /// immutable, so corruption in this model is always a *substituted*
    /// buffer (e.g. a torn write) whose fresh digest cell re-hashes on
    /// first use — the memoized comparison here stays sound while an
    /// untorn read-back costs zero hashes.
    pub fn get(&self, key: &str) -> Result<Payload, StoreError> {
        let inner = self.inner.read();
        let stored = inner
            .by_key
            .get(key)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        if stored.data.digest() != stored.digest {
            return Err(StoreError::ChecksumMismatch(key.to_string()));
        }
        // lint: allow(payload_copy) -- Payload handle clone: refcount bump
        Ok(stored.data.clone())
    }

    /// Fetches metadata only (no checksum verification).
    pub fn stat(&self, key: &str) -> Result<ObjectMeta, StoreError> {
        self.inner
            .read()
            .by_key
            .get(key)
            .map(|s| s.meta(key.to_string()))
            .ok_or_else(|| StoreError::NotFound(key.to_string()))
    }

    /// True if the key exists.
    pub fn contains(&self, key: &str) -> bool {
        self.inner.read().by_key.contains_key(key)
    }

    /// Removes an object, freeing its capacity. Part of lifecycle
    /// management (HSM migration), not of the user-facing WORM contract.
    pub fn delete(&self, key: &str) -> Result<ObjectMeta, StoreError> {
        let mut inner = self.inner.write();
        let (key, stored) = inner
            .by_key
            .remove_entry(key)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        inner.used -= stored.size;
        Ok(stored.meta(key))
    }

    /// Lists keys beginning with `prefix`, in lexicographic order.
    pub fn list(&self, prefix: &str) -> Vec<ObjectMeta> {
        let inner = self.inner.read();
        inner
            .by_key
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, s)| s.meta(k.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::sha256;
    use bytes::Bytes;

    fn payload(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_roundtrip_with_checksum() {
        let store = ObjectStore::new("t", u64::MAX);
        let meta = store.put("proj/a.img", payload("pixels")).unwrap();
        assert_eq!(meta.size, 6);
        assert_eq!(meta.digest, sha256(b"pixels"));
        assert_eq!(store.get("proj/a.img").unwrap(), payload("pixels"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.used(), 6);
    }

    #[test]
    fn worm_overwrite_rejected() {
        let store = ObjectStore::new("t", u64::MAX);
        store.put("k", payload("v1")).unwrap();
        assert_eq!(
            store.put("k", payload("v2")),
            Err(StoreError::AlreadyExists("k".into()))
        );
        assert_eq!(store.get("k").unwrap(), payload("v1"));
    }

    #[test]
    fn capacity_enforced_and_freed_by_delete() {
        let store = ObjectStore::new("t", 10);
        store.put("a", payload("12345")).unwrap();
        assert!(matches!(
            store.put("b", payload("1234567")),
            Err(StoreError::CapacityExceeded { requested: 7, free: 5 })
        ));
        store.delete("a").unwrap();
        assert_eq!(store.used(), 0);
        store.put("b", payload("1234567890")).unwrap();
        assert_eq!(store.used(), 10);
    }

    #[test]
    fn missing_key_errors() {
        let store = ObjectStore::new("t", u64::MAX);
        assert_eq!(store.get("x"), Err(StoreError::NotFound("x".into())));
        assert_eq!(store.stat("x"), Err(StoreError::NotFound("x".into())));
        assert_eq!(store.delete("x"), Err(StoreError::NotFound("x".into())));
        assert!(!store.contains("x"));
    }

    #[test]
    fn list_by_prefix_is_sorted() {
        let store = ObjectStore::new("t", u64::MAX);
        for k in ["p1/b", "p1/a", "p2/z", "p1/c"] {
            store.put(k, payload("x")).unwrap();
        }
        let keys: Vec<String> = store.list("p1/").into_iter().map(|m| m.key).collect();
        assert_eq!(keys, vec!["p1/a", "p1/b", "p1/c"]);
        assert_eq!(store.list("p3/").len(), 0);
        assert_eq!(store.list("").len(), 4);
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let store = ObjectStore::new("t", u64::MAX);
        let a = store.put("a", payload("x")).unwrap();
        let b = store.put("b", payload("y")).unwrap();
        assert!(b.id > a.id);
    }

    #[test]
    fn op_counters_track() {
        let store = ObjectStore::new("t", u64::MAX);
        store.put("a", payload("x")).unwrap();
        assert_eq!(store.get("a").unwrap(), payload("x"));
        assert_eq!(store.get("a").unwrap(), payload("x"));
    }

    #[test]
    fn gets_share_the_lock_and_every_attempt_is_counted() {
        const READERS: usize = 4;
        const GETS: usize = 1_000;
        let store = ObjectStore::new("t", u64::MAX);
        for i in 0..10 {
            store.put(&format!("old/{i}"), payload(&format!("data-{i}"))).unwrap();
        }
        let start = std::sync::Barrier::new(READERS + 1);
        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| {
                    start.wait();
                    for i in 0..GETS {
                        if i % 2 == 0 {
                            let want = payload(&format!("data-{}", i % 10));
                            assert_eq!(store.get(&format!("old/{}", i % 10)).unwrap(), want);
                        } else {
                            let missing = format!("missing/{i}");
                            assert_eq!(store.get(&missing), Err(StoreError::NotFound(missing)));
                        }
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for i in 0..GETS {
                    store.put(&format!("new/{i}"), payload("fresh")).unwrap();
                }
            });
        });
        assert_eq!(store.len(), 10 + GETS);
    }

    #[test]
    fn concurrent_puts_are_safe() {
        let store = std::sync::Arc::new(ObjectStore::new("t", u64::MAX));
        std::thread::scope(|s| {
            for t in 0..8 {
                let store = store.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        store
                            .put(&format!("t{t}/obj{i}"), payload("data"))
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(store.len(), 400);
        assert_eq!(store.used(), 1600);
    }
}
