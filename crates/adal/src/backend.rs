//! The storage-backend abstraction and its adapters.
//!
//! "Hardware and software choices limit the access protocols and APIs ⇒
//! not all components accessible through all methods ⇒ need a unified
//! access layer" (paper, slide 9). [`StorageBackend`] is that low-level
//! interface; adapters wrap the object store (disk arrays), the DFS
//! (Hadoop filesystem) and the HSM (disk+tape) so every component is
//! reachable through one API — and the layer is "extensible to support
//! new backends".

use std::sync::Arc;

use lsdf_dfs::{Dfs, DfsError, StagedFile};
use lsdf_obs::TraceCtx;
use lsdf_storage::{Hsm, HsmError, ObjectStore, Payload, StoreError};

/// Metadata returned by `stat`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryMeta {
    /// Key within the backend.
    pub key: String,
    /// Payload size, bytes.
    pub size: u64,
}

/// Unified backend error.
///
/// Every failure mode of the wrapped subsystems maps to a typed variant
/// here; [`BackendError::Other`] exists only for out-of-tree backends
/// and carries no in-tree conversions.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// Key not found.
    NotFound(String),
    /// Key already exists (all LSDF backends are write-once).
    AlreadyExists(String),
    /// Out of capacity.
    NoSpace(String),
    /// Data integrity violation (checksum mismatch on read-back or
    /// during a tier move).
    Integrity(String),
    /// The data exists but cannot currently be served (e.g. every
    /// replica of a DFS block is on a dead datanode).
    Unavailable(String),
    /// The backend does not support this operation by design.
    Unsupported(String),
    /// A transient I/O fault (flaky datanode, injected fault, dropped
    /// connection): retrying the same call may succeed.
    TransientIo(String),
    /// Anything else, with context (reserved for external backends).
    Other(String),
}

impl BackendError {
    /// True when retrying the same operation may succeed — the
    /// classification the ADAL [`crate::RetryPolicy`] honours.
    ///
    /// Transient: [`BackendError::TransientIo`] (flaky hardware),
    /// [`BackendError::Unavailable`] (replicas may re-replicate, an
    /// outage may end) and [`BackendError::Integrity`] (a torn write or
    /// corrupted read-back is repairable by redoing the transfer).
    /// Everything else — `NotFound`, `AlreadyExists`, `NoSpace`,
    /// `Unsupported`, `Other` — is deterministic and retrying is wasted
    /// work.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            BackendError::TransientIo(_)
                | BackendError::Unavailable(_)
                | BackendError::Integrity(_)
        )
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::NotFound(k) => write!(f, "'{k}' not found"),
            BackendError::AlreadyExists(k) => write!(f, "'{k}' already exists"),
            BackendError::NoSpace(m) => write!(f, "no space: {m}"),
            BackendError::Integrity(m) => write!(f, "integrity violation: {m}"),
            BackendError::Unavailable(m) => write!(f, "unavailable: {m}"),
            BackendError::Unsupported(m) => write!(f, "unsupported: {m}"),
            BackendError::TransientIo(m) => write!(f, "transient i/o fault: {m}"),
            BackendError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<StoreError> for BackendError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::NotFound(k) => BackendError::NotFound(k),
            StoreError::AlreadyExists(k) => BackendError::AlreadyExists(k),
            StoreError::CapacityExceeded { requested, free } => {
                BackendError::NoSpace(format!("need {requested}, free {free}"))
            }
            StoreError::ChecksumMismatch(k) => {
                BackendError::Integrity(format!("checksum mismatch on '{k}'"))
            }
        }
    }
}

impl From<DfsError> for BackendError {
    fn from(e: DfsError) -> Self {
        match e {
            DfsError::FileNotFound(p) => BackendError::NotFound(p),
            DfsError::FileExists(p) => BackendError::AlreadyExists(p),
            DfsError::NoSpace => BackendError::NoSpace("dfs".into()),
            DfsError::BlockUnavailable(b) => {
                BackendError::Unavailable(format!("no live replica of {b:?}"))
            }
            // A flaky datanode dropping one I/O is retryable in place;
            // other datanode-level failures mean the data cannot be
            // served right now.
            DfsError::DataNode(lsdf_dfs::DataNodeError::TransientIo(n)) => {
                BackendError::TransientIo(format!("datanode {n:?} dropped the i/o"))
            }
            DfsError::DataNode(e) => BackendError::Unavailable(format!("datanode: {e}")),
        }
    }
}

impl From<HsmError> for BackendError {
    fn from(e: HsmError) -> Self {
        match e {
            HsmError::NotFound(k) => BackendError::NotFound(k),
            HsmError::Store(s) => s.into(),
            HsmError::IntegrityViolation(k) => {
                BackendError::Integrity(format!("tier move verification failed for '{k}'"))
            }
        }
    }
}

/// The low-level unified interface to any LSDF storage component.
///
/// Every operation — including `list`, which historically returned a
/// plain `Vec` — is fallible and returns a typed [`BackendError`], so
/// the resilience layer can classify failures (see
/// [`BackendError::is_transient`]) instead of guessing from sentinel
/// values. Every operation takes the caller's [`TraceCtx`] as a plain
/// parameter: backends that can attribute internal work to a causal
/// trace (DFS block placement, HSM tape staging, chaos fault injection)
/// attach child spans/events to it, the others ignore it, and an
/// untraced call passes [`TraceCtx::disabled`], which costs nothing.
/// Implementations must be `Send + Sync`: the ADAL shares one backend
/// handle across mounts and sim callbacks.
pub trait StorageBackend: Send + Sync {
    /// Backend kind label (for reporting).
    fn kind(&self) -> &'static str;
    /// Stores `data` under `key` (write-once). The payload handle is a
    /// refcounted view — implementations must not copy the bytes on the
    /// success path, and a memoized digest travels with the handle.
    fn put(&self, ctx: &TraceCtx, key: &str, data: Payload) -> Result<(), BackendError>;
    /// Fetches the payload under `key`.
    fn get(&self, ctx: &TraceCtx, key: &str) -> Result<Payload, BackendError>;
    /// Metadata for `key`.
    fn stat(&self, ctx: &TraceCtx, key: &str) -> Result<EntryMeta, BackendError>;
    /// Deletes `key` (lifecycle management).
    fn delete(&self, ctx: &TraceCtx, key: &str) -> Result<(), BackendError>;
    /// Keys under `prefix`, sorted. Backend failures surface as errors
    /// rather than being swallowed into an empty listing.
    fn list(&self, ctx: &TraceCtx, prefix: &str) -> Result<Vec<EntryMeta>, BackendError>;
    /// Stages a put, deferring any commit step that serialises on
    /// shared metadata (the DFS namenode), so a batch of N puts pays one
    /// metadata lock and one WAL group commit instead of N. Default for
    /// backends without a staged protocol: commits immediately via
    /// [`StorageBackend::put`], which makes `stage + commit` exactly
    /// equivalent to `put`.
    fn stage_put(&self, ctx: &TraceCtx, key: &str, data: Payload) -> Result<StagedPut, BackendError> {
        self.put(ctx, key, data).map(|()| StagedPut::Committed)
    }

    /// Commits a batch of staged puts; results are in batch order. A
    /// staged put is only durable/acknowledgeable once this returns Ok
    /// for it. Default: everything was already committed at stage time.
    fn commit_staged(&self, staged: Vec<StagedPut>) -> Vec<Result<(), BackendError>> {
        staged.into_iter().map(|_| Ok(())).collect()
    }
}

/// A staged put whose backend handed back no commit result is an
/// error, never an ack: [`StorageBackend::commit_staged`] promises one
/// result per staged put, and an out-of-tree backend can break that.
pub(crate) fn missing_commit_result() -> BackendError {
    BackendError::Other("backend returned no commit result for staged put".into())
}

/// A put staged by [`StorageBackend::stage_put`], awaiting
/// [`StorageBackend::commit_staged`].
pub enum StagedPut {
    /// The backend has no staged protocol; the put already committed.
    Committed,
    /// A DFS file with blocks placed, awaiting its batched namespace
    /// commit.
    Dfs(StagedFile),
}

/// Adapter: the in-memory object store (stand-in for the GPFS arrays).
pub struct ObjectStoreBackend {
    store: Arc<ObjectStore>,
}

impl ObjectStoreBackend {
    /// Wraps an object store.
    pub fn new(store: Arc<ObjectStore>) -> Self {
        ObjectStoreBackend { store }
    }
}

impl StorageBackend for ObjectStoreBackend {
    fn kind(&self) -> &'static str {
        "object-store"
    }
    fn put(&self, _ctx: &TraceCtx, key: &str, data: Payload) -> Result<(), BackendError> {
        self.store.put(key, data)?;
        Ok(())
    }
    fn get(&self, _ctx: &TraceCtx, key: &str) -> Result<Payload, BackendError> {
        Ok(self.store.get(key)?)
    }
    fn stat(&self, _ctx: &TraceCtx, key: &str) -> Result<EntryMeta, BackendError> {
        let m = self.store.stat(key)?;
        Ok(EntryMeta {
            key: m.key,
            size: m.size,
        })
    }
    fn delete(&self, _ctx: &TraceCtx, key: &str) -> Result<(), BackendError> {
        self.store.delete(key)?;
        Ok(())
    }
    fn list(&self, _ctx: &TraceCtx, prefix: &str) -> Result<Vec<EntryMeta>, BackendError> {
        Ok(self
            .store
            .list(prefix)
            .into_iter()
            .map(|m| EntryMeta {
                key: m.key,
                size: m.size,
            })
            .collect())
    }
}

/// Adapter: the distributed filesystem (Hadoop-style).
pub struct DfsBackend {
    dfs: Arc<Dfs>,
}

impl DfsBackend {
    /// Wraps a DFS.
    pub fn new(dfs: Arc<Dfs>) -> Self {
        DfsBackend { dfs }
    }
}

impl StorageBackend for DfsBackend {
    fn kind(&self) -> &'static str {
        "dfs"
    }
    fn put(&self, ctx: &TraceCtx, key: &str, data: Payload) -> Result<(), BackendError> {
        self.dfs.write_payload_traced(key, &data, None, ctx)?;
        Ok(())
    }
    fn get(&self, ctx: &TraceCtx, key: &str) -> Result<Payload, BackendError> {
        Ok(Payload::new(self.dfs.read_traced(key, None, ctx)?))
    }
    fn stat(&self, _ctx: &TraceCtx, key: &str) -> Result<EntryMeta, BackendError> {
        let m = self.dfs.stat(key)?;
        Ok(EntryMeta {
            key: m.path,
            size: m.size,
        })
    }
    fn delete(&self, _ctx: &TraceCtx, key: &str) -> Result<(), BackendError> {
        self.dfs.delete(key)?;
        Ok(())
    }
    fn list(&self, _ctx: &TraceCtx, prefix: &str) -> Result<Vec<EntryMeta>, BackendError> {
        Ok(self
            .dfs
            .list(prefix)
            .into_iter()
            .map(|m| EntryMeta {
                key: m.path,
                size: m.size,
            })
            .collect())
    }
    fn stage_put(&self, ctx: &TraceCtx, key: &str, data: Payload) -> Result<StagedPut, BackendError> {
        Ok(StagedPut::Dfs(
            self.dfs.stage_write_traced(key, &data, None, ctx)?,
        ))
    }
    fn commit_staged(&self, staged: Vec<StagedPut>) -> Vec<Result<(), BackendError>> {
        // Batch every DFS staged file into one namenode commit,
        // preserving batch order in the results.
        let mut results: Vec<Option<Result<(), BackendError>>> =
            staged.iter().map(|_| None).collect();
        let mut files = Vec::new();
        let mut slots = Vec::new();
        for (i, s) in staged.into_iter().enumerate() {
            match s {
                StagedPut::Committed => results[i] = Some(Ok(())),
                StagedPut::Dfs(f) => {
                    files.push(f);
                    slots.push(i);
                }
            }
        }
        for (i, r) in slots.into_iter().zip(self.dfs.commit_files_batch(files)) {
            results[i] = Some(r.map(|_| ()).map_err(BackendError::from));
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(missing_commit_result())))
            .collect()
    }
}

/// Adapter: the HSM (disk + tape tiering).
pub struct HsmBackend {
    hsm: Arc<Hsm>,
}

impl HsmBackend {
    /// Wraps an HSM.
    pub fn new(hsm: Arc<Hsm>) -> Self {
        HsmBackend { hsm }
    }
}

impl StorageBackend for HsmBackend {
    fn kind(&self) -> &'static str {
        "hsm"
    }
    fn put(&self, _ctx: &TraceCtx, key: &str, data: Payload) -> Result<(), BackendError> {
        self.hsm.put(key, data)?;
        Ok(())
    }
    fn get(&self, ctx: &TraceCtx, key: &str) -> Result<Payload, BackendError> {
        Ok(self.hsm.get(ctx, key)?)
    }
    fn stat(&self, _ctx: &TraceCtx, key: &str) -> Result<EntryMeta, BackendError> {
        let e = self.hsm.stat(key)?;
        Ok(EntryMeta {
            key: e.key,
            size: e.size,
        })
    }
    fn delete(&self, _ctx: &TraceCtx, key: &str) -> Result<(), BackendError> {
        self.hsm.delete(key)?;
        Ok(())
    }
    fn list(&self, _ctx: &TraceCtx, prefix: &str) -> Result<Vec<EntryMeta>, BackendError> {
        let mut out: Vec<EntryMeta> = self
            .hsm
            .catalog()
            .into_iter()
            .filter(|e| e.key.starts_with(prefix))
            .map(|e| EntryMeta {
                key: e.key,
                size: e.size,
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{ResilienceConfig, ResilientBackend};
    use bytes::Bytes;
    use lsdf_dfs::{ClusterTopology, DfsConfig};
    use lsdf_obs::Registry;
    use lsdf_pool::WorkerPool;
    use lsdf_storage::MigrationPolicy;

    fn payload(s: &str) -> Payload {
        Payload::new(Bytes::copy_from_slice(s.as_bytes()))
    }

    fn backends() -> Vec<Box<dyn StorageBackend>> {
        let obj = Arc::new(ObjectStore::new("obj", u64::MAX));
        let dfs = Arc::new(Dfs::new(
            ClusterTopology::new(1, 3),
            DfsConfig {
                block_size: 64,
                replication: 2,
                ..DfsConfig::default()
            },
        ));
        let disk = Arc::new(ObjectStore::new("disk", u64::MAX));
        let tape = Arc::new(ObjectStore::new("tape", u64::MAX));
        let hsm = Arc::new(Hsm::new(disk, tape, 0.5, 0.8, MigrationPolicy::OldestFirst));
        // The resilience decorator over a quiet primary is one more
        // backend under the same contract, with and without a replica.
        let store = |name: &str| -> Arc<dyn StorageBackend> {
            Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(name, u64::MAX))))
        };
        let resilient = |replica: Option<Arc<dyn StorageBackend>>| {
            let (cfg, reg) = (ResilienceConfig::default(), Arc::new(Registry::new()));
            ResilientBackend::new("p", store("primary"), replica, cfg, reg, WorkerPool::serial())
        };
        vec![
            Box::new(ObjectStoreBackend::new(obj)),
            Box::new(DfsBackend::new(dfs)),
            Box::new(HsmBackend::new(hsm)),
            Box::new(resilient(None)),
            Box::new(resilient(Some(store("replica")))),
        ]
    }

    #[test]
    fn all_backends_satisfy_the_contract() {
        let ctx = TraceCtx::disabled();
        for b in backends() {
            let kind = b.kind();
            // put / get / stat
            b.put(&ctx, "a/x", payload("hello")).unwrap();
            assert_eq!(b.get(&ctx, "a/x").unwrap(), payload("hello"), "{kind}");
            let m = b.stat(&ctx, "a/x").unwrap();
            assert_eq!(m.size, 5, "{kind}");
            // write-once
            assert!(
                matches!(b.put(&ctx, "a/x", payload("v2")), Err(BackendError::AlreadyExists(_))),
                "{kind} must be write-once"
            );
            // list
            b.put(&ctx, "a/y", payload("1")).unwrap();
            b.put(&ctx, "b/z", payload("2")).unwrap();
            let keys: Vec<String> = b
                .list(&ctx, "a/")
                .unwrap()
                .into_iter()
                .map(|m| m.key)
                .collect();
            assert_eq!(keys, vec!["a/x", "a/y"], "{kind}");
            // missing keys
            assert!(matches!(b.get(&ctx, "nope"), Err(BackendError::NotFound(_))), "{kind}");
            assert!(matches!(b.stat(&ctx, "nope"), Err(BackendError::NotFound(_))), "{kind}");
        }
    }

    #[test]
    fn every_backend_supports_delete() {
        let ctx = TraceCtx::disabled();
        for b in backends() {
            b.put(&ctx, "k", payload("v")).unwrap();
            b.delete(&ctx, "k").unwrap();
            assert!(b.stat(&ctx, "k").is_err(), "{}", b.kind());
            assert!(
                matches!(b.delete(&ctx, "k"), Err(BackendError::NotFound(_))),
                "{} double delete",
                b.kind()
            );
        }
    }

    #[test]
    fn staged_puts_commit_in_one_batch_on_every_backend() {
        let ctx = TraceCtx::disabled();
        for b in backends() {
            let s1 = b.stage_put(&ctx, "s/1", payload("a")).unwrap();
            let s2 = b.stage_put(&ctx, "s/2", payload("b")).unwrap();
            let results = b.commit_staged(vec![s1, s2]);
            assert!(results.iter().all(|r| r.is_ok()), "{}", b.kind());
            assert_eq!(b.get(&ctx, "s/1").unwrap(), payload("a"), "{}", b.kind());
            assert_eq!(b.get(&ctx, "s/2").unwrap(), payload("b"), "{}", b.kind());
        }
        // A single put is a batch of one: on twin backends, `put` and
        // `stage_put` + `commit_staged` leave the same state behind and
        // refuse a taken key with the same error.
        let batch_of_one = |b: &dyn StorageBackend, key: &str, data: Payload| {
            let staged = b.stage_put(&ctx, key, data)?;
            b.commit_staged(vec![staged]).pop().expect("one result per staged put")
        };
        for (eager, staged) in backends().into_iter().zip(backends()) {
            let kind = eager.kind();
            for key in ["p/1", "p/2", "q/3"] {
                eager.put(&ctx, key, payload(key)).unwrap();
                batch_of_one(&*staged, key, payload(key)).unwrap();
            }
            assert_eq!(eager.get(&ctx, "p/2"), staged.get(&ctx, "p/2"), "{kind}");
            assert_eq!(eager.stat(&ctx, "p/2"), staged.stat(&ctx, "p/2"), "{kind}");
            assert_eq!(eager.list(&ctx, "p/"), staged.list(&ctx, "p/"), "{kind}");
            assert_eq!(eager.list(&ctx, "p/").unwrap().len(), 2, "{kind}");
            let taken = eager.put(&ctx, "p/1", payload("again"));
            assert!(matches!(taken, Err(BackendError::AlreadyExists(_))), "{kind}");
            assert_eq!(taken, batch_of_one(&*staged, "p/1", payload("again")), "{kind}");
        }
    }

    #[test]
    fn dfs_batch_commit_detects_conflicts_at_commit_time() {
        let dfs = Arc::new(Dfs::new(
            ClusterTopology::new(1, 3),
            DfsConfig {
                block_size: 64,
                replication: 2,
                ..DfsConfig::default()
            },
        ));
        let b = DfsBackend::new(dfs);
        let ctx = TraceCtx::disabled();
        // Both stages pass the optimistic namespace check; the batched
        // commit's re-check under the write lock catches the duplicate
        // and rolls back the loser's blocks.
        let s1 = b.stage_put(&ctx, "dup", payload("one")).unwrap();
        let s2 = b.stage_put(&ctx, "dup", payload("two")).unwrap();
        let r = b.commit_staged(vec![s1, s2]);
        assert!(r[0].is_ok());
        assert!(matches!(&r[1], Err(BackendError::AlreadyExists(_))));
        assert_eq!(b.get(&ctx, "dup").unwrap(), payload("one"));
    }

    #[test]
    fn transient_classification() {
        assert!(BackendError::TransientIo("x".into()).is_transient());
        assert!(BackendError::Unavailable("x".into()).is_transient());
        assert!(BackendError::Integrity("x".into()).is_transient());
        assert!(!BackendError::NotFound("x".into()).is_transient());
        assert!(!BackendError::AlreadyExists("x".into()).is_transient());
        assert!(!BackendError::NoSpace("x".into()).is_transient());
        assert!(!BackendError::Unsupported("x".into()).is_transient());
        assert!(!BackendError::Other("x".into()).is_transient());
        // The flaky-datanode error maps to the transient variant.
        let e = BackendError::from(DfsError::DataNode(
            lsdf_dfs::DataNodeError::TransientIo(lsdf_dfs::DfsNodeId(3)),
        ));
        assert!(matches!(e, BackendError::TransientIo(_)));
    }

    #[test]
    fn subsystem_errors_map_to_typed_variants() {
        assert!(matches!(
            BackendError::from(StoreError::ChecksumMismatch("k".into())),
            BackendError::Integrity(_)
        ));
        assert!(matches!(
            BackendError::from(DfsError::NoSpace),
            BackendError::NoSpace(_)
        ));
        assert!(matches!(
            BackendError::from(HsmError::IntegrityViolation("k".into())),
            BackendError::Integrity(_)
        ));
    }
}
