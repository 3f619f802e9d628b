//! Hierarchical storage management: the disk ↔ tape tiering layer.
//!
//! The paper's facility keeps hot data on the disk arrays and uses the tape
//! library for "archive and backup" (slide 7); climate data arrives with
//! "archival quality" requirements (slide 14). The [`Hsm`] catalog tracks
//! where every object lives, migration policies choose what to demote when
//! the disk tier crosses a high watermark, and recalls promote objects back
//! to disk. The object's bytes really move between two [`ObjectStore`]s, so
//! integrity (checksums) is preserved across tier changes.

use std::collections::HashMap;
use std::sync::Arc;

use lsdf_obs::{Counter, Histogram, Registry, TraceCtx};
use lsdf_sync::{ranks, OrderedMutex};

use crate::checksum::Digest;
use crate::object::{ObjectStore, StoreError};
use crate::payload::Payload;
use lsdf_obs::names;

/// Which tier currently holds an object's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// On the disk arrays — immediately readable.
    Disk,
    /// On tape — reading requires a recall.
    Tape,
}

/// Per-object catalog entry.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Object key.
    pub key: String,
    /// Current tier.
    pub tier: Tier,
    /// Payload size, bytes.
    pub size: u64,
    /// Ingest digest — must match on every tier move.
    pub digest: Digest,
    /// Logical ingest sequence number (stands in for ingest time).
    pub ingested_seq: u64,
    /// Logical sequence of the last read (for LRU policies).
    pub last_access_seq: u64,
}

/// Strategy for picking demotion victims when disk usage crosses the
/// high watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Demote the oldest-ingested objects first (age-based; archival
    /// streams like climate data).
    OldestFirst,
    /// Demote the least-recently-accessed objects first.
    LeastRecentlyUsed,
    /// Demote the largest objects first (frees space fastest, fewest
    /// tape mounts).
    LargestFirst,
}

/// Result of a watermark-driven migration pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Keys demoted to tape, in demotion order.
    pub demoted: Vec<String>,
    /// Total bytes moved to tape.
    pub bytes: u64,
}

/// Errors from HSM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HsmError {
    /// Unknown object key.
    NotFound(String),
    /// Underlying store failure.
    Store(StoreError),
    /// Integrity check failed during a tier move.
    IntegrityViolation(String),
}

impl std::fmt::Display for HsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HsmError::NotFound(k) => write!(f, "HSM: object '{k}' not found"),
            HsmError::Store(e) => write!(f, "HSM store error: {e}"),
            HsmError::IntegrityViolation(k) => {
                write!(f, "HSM: integrity violation migrating '{k}'")
            }
        }
    }
}

impl std::error::Error for HsmError {}

impl From<StoreError> for HsmError {
    fn from(e: StoreError) -> Self {
        HsmError::Store(e)
    }
}

struct HsmInner {
    catalog: HashMap<String, CatalogEntry>,
    seq: u64,
}

/// Registry handles for tier-transition accounting, labelled by the
/// disk store's name so multi-HSM facilities stay distinguishable.
struct HsmObs {
    registry: Arc<Registry>,
    puts: Counter,
    deletes: Counter,
    demotions: Counter,
    recalls: Counter,
    demote_bytes: Histogram,
    recall_bytes: Histogram,
    recall_latency: Histogram,
}

impl HsmObs {
    fn new(registry: Arc<Registry>, store: &str) -> Self {
        let labels: [(&str, &str); 1] = [("store", store)];
        HsmObs {
            puts: registry.counter(names::HSM_PUTS_TOTAL, &labels),
            deletes: registry.counter(names::HSM_DELETES_TOTAL, &labels),
            demotions: registry.counter(names::HSM_DEMOTIONS_TOTAL, &labels),
            recalls: registry.counter(names::HSM_RECALLS_TOTAL, &labels),
            demote_bytes: registry.histogram(names::HSM_DEMOTE_BYTES, &labels),
            recall_bytes: registry.histogram(names::HSM_RECALL_BYTES, &labels),
            recall_latency: registry.histogram(names::HSM_RECALL_LATENCY_NS, &labels),
            registry,
        }
    }
}

/// The tiering manager over a disk store and a tape store.
pub struct Hsm {
    disk: Arc<ObjectStore>,
    tape: Arc<ObjectStore>,
    /// Demote until disk usage falls to this fraction of capacity.
    low_watermark: f64,
    /// Start demoting when disk usage exceeds this fraction.
    high_watermark: f64,
    policy: MigrationPolicy,
    obs: HsmObs,
    inner: OrderedMutex<HsmInner>,
}

impl Hsm {
    /// Creates a tiering manager recording into a private obs registry.
    ///
    /// # Panics
    /// Panics unless `0 < low <= high <= 1`.
    pub fn new(
        disk: Arc<ObjectStore>,
        tape: Arc<ObjectStore>,
        low_watermark: f64,
        high_watermark: f64,
        policy: MigrationPolicy,
    ) -> Self {
        Self::with_registry(
            disk,
            tape,
            low_watermark,
            high_watermark,
            policy,
            Arc::new(Registry::new()),
        )
    }

    /// Creates a tiering manager recording tier transitions into a
    /// shared obs registry (metrics labelled with the disk store name).
    ///
    /// # Panics
    /// Panics unless `0 < low <= high <= 1`.
    pub fn with_registry(
        disk: Arc<ObjectStore>,
        tape: Arc<ObjectStore>,
        low_watermark: f64,
        high_watermark: f64,
        policy: MigrationPolicy,
        registry: Arc<Registry>,
    ) -> Self {
        assert!(
            0.0 < low_watermark && low_watermark <= high_watermark && high_watermark <= 1.0,
            "watermarks must satisfy 0 < low <= high <= 1"
        );
        let obs = HsmObs::new(registry, disk.name());
        Hsm {
            disk,
            tape,
            low_watermark,
            high_watermark,
            policy,
            obs,
            inner: OrderedMutex::new(
                ranks::STORAGE_HSM,
                HsmInner { catalog: HashMap::new(), seq: 0 },
            ),
        }
    }

    /// The obs registry this HSM records into.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    /// Ingests a new object onto the disk tier. If the tier is full,
    /// policy-chosen victims are demoted first — ingest pressure must
    /// never bounce experiment data while tape capacity remains.
    pub fn put(&self, key: &str, data: impl Into<Payload>) -> Result<(), HsmError> {
        let data = data.into();
        self.make_room(data.len() as u64)?;
        let meta = self.disk.put(key, data)?;
        self.obs.puts.inc();
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let seq = inner.seq;
        inner.catalog.insert(
            key.to_string(),
            CatalogEntry {
                key: key.to_string(),
                tier: Tier::Disk,
                size: meta.size,
                digest: meta.digest,
                ingested_seq: seq,
                last_access_seq: seq,
            },
        );
        Ok(())
    }

    /// Reads an object; a tape-resident object is transparently recalled
    /// to disk first (and stays there — recall implies promotion). The
    /// staging (recall) leg is recorded as a child span of `ctx`, so a
    /// slow read is attributable to the tape tier rather than the disk
    /// array.
    pub fn get(&self, ctx: &TraceCtx, key: &str) -> Result<Payload, HsmError> {
        let tier = {
            let mut inner = self.inner.lock();
            let entry = inner
                .catalog
                .get_mut(key)
                .ok_or_else(|| HsmError::NotFound(key.to_string()))?;
            entry.tier
        };
        if tier == Tier::Tape {
            let stage = ctx.child(names::HSM_STAGE_SPAN);
            stage.add_field("key", key);
            stage.add_field("store", self.disk.name());
            self.recall(key)?;
            stage.finish();
        }
        let data = self.disk.get(key)?;
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let seq = inner.seq;
        if let Some(e) = inner.catalog.get_mut(key) {
            e.last_access_seq = seq;
        }
        Ok(data)
    }

    /// Deletes an object through the catalog, whichever tier holds it
    /// (lifecycle curation: retention windows expiring, projects being
    /// decommissioned). The catalog entry is removed only after the
    /// owning store confirms the payload is gone.
    pub fn delete(&self, key: &str) -> Result<(), HsmError> {
        let tier = {
            let inner = self.inner.lock();
            inner
                .catalog
                .get(key)
                .ok_or_else(|| HsmError::NotFound(key.to_string()))?
                .tier
        };
        match tier {
            Tier::Disk => self.disk.delete(key)?,
            Tier::Tape => self.tape.delete(key)?,
        };
        self.inner.lock().catalog.remove(key);
        self.obs.deletes.inc();
        self.obs.registry.event(names::HSM_DELETE_LOG_EVENT, &[("key", key)]);
        Ok(())
    }

    /// Where the object currently lives.
    pub fn tier_of(&self, key: &str) -> Result<Tier, HsmError> {
        self.inner
            .lock()
            .catalog
            .get(key)
            .map(|e| e.tier)
            .ok_or_else(|| HsmError::NotFound(key.to_string()))
    }

    /// The catalog entry of one object: a single map lookup.
    pub fn stat(&self, key: &str) -> Result<CatalogEntry, HsmError> {
        self.inner
            .lock()
            .catalog
            .get(key)
            .cloned()
            .ok_or_else(|| HsmError::NotFound(key.to_string()))
    }

    /// Full catalog snapshot.
    pub fn catalog(&self) -> Vec<CatalogEntry> {
        self.inner.lock().catalog.values().cloned().collect()
    }

    /// Disk usage as a fraction of capacity.
    pub fn disk_usage(&self) -> f64 {
        self.disk.used() as f64 / self.disk.capacity() as f64
    }

    /// Runs one migration pass: if disk usage exceeds the high watermark,
    /// demotes policy-chosen victims until usage drops below the low
    /// watermark (or nothing demotable remains).
    pub fn run_migration(&self) -> Result<MigrationReport, HsmError> {
        let mut report = MigrationReport::default();
        if self.disk_usage() <= self.high_watermark {
            return Ok(report);
        }
        let target = (self.low_watermark * self.disk.capacity() as f64) as u64;
        // Victim order by policy, computed from a catalog snapshot.
        let mut candidates: Vec<CatalogEntry> = {
            let inner = self.inner.lock();
            inner
                .catalog
                .values()
                .filter(|e| e.tier == Tier::Disk)
                .cloned()
                .collect()
        };
        match self.policy {
            MigrationPolicy::OldestFirst => {
                candidates.sort_by_key(|e| e.ingested_seq);
            }
            MigrationPolicy::LeastRecentlyUsed => {
                candidates.sort_by_key(|e| e.last_access_seq);
            }
            MigrationPolicy::LargestFirst => {
                candidates.sort_by(|a, b| b.size.cmp(&a.size).then(a.key.cmp(&b.key)));
            }
        }
        for victim in candidates {
            if self.disk.used() <= target {
                break;
            }
            self.demote(&victim.key)?;
            report.bytes += victim.size;
            report.demoted.push(victim.key);
        }
        Ok(report)
    }

    /// Demotes policy-chosen victims until the disk tier has at least
    /// `bytes` free. A no-op when enough space already exists. Errors if
    /// the request can never fit (larger than total capacity).
    fn make_room(&self, bytes: u64) -> Result<(), HsmError> {
        let free = self.disk.capacity() - self.disk.used();
        if bytes <= free {
            return Ok(());
        }
        let mut victims: Vec<CatalogEntry> = {
            let inner = self.inner.lock();
            inner
                .catalog
                .values()
                .filter(|e| e.tier == Tier::Disk)
                .cloned()
                .collect()
        };
        match self.policy {
            MigrationPolicy::OldestFirst => victims.sort_by_key(|e| e.ingested_seq),
            MigrationPolicy::LeastRecentlyUsed => victims.sort_by_key(|e| e.last_access_seq),
            MigrationPolicy::LargestFirst => {
                victims.sort_by(|a, b| b.size.cmp(&a.size).then(a.key.cmp(&b.key)))
            }
        }
        for v in victims {
            if self.disk.capacity() - self.disk.used() >= bytes {
                return Ok(());
            }
            self.demote(&v.key)?;
        }
        if self.disk.capacity() - self.disk.used() >= bytes {
            Ok(())
        } else {
            Err(HsmError::Store(StoreError::CapacityExceeded {
                requested: bytes,
                free: self.disk.capacity() - self.disk.used(),
            }))
        }
    }

    /// Moves one object disk → tape, verifying integrity.
    pub fn demote(&self, key: &str) -> Result<(), HsmError> {
        let expected = {
            let inner = self.inner.lock();
            inner
                .catalog
                .get(key)
                .ok_or_else(|| HsmError::NotFound(key.to_string()))?
                .digest
        };
        let data = self.disk.get(key)?;
        let size = data.len() as u64;
        let meta = self.tape.put(key, data)?;
        if meta.digest != expected {
            // Roll back the copy rather than lose the good replica.
            let _ = self.tape.delete(key);
            return Err(HsmError::IntegrityViolation(key.to_string()));
        }
        self.disk.delete(key)?;
        self.obs.demotions.inc();
        self.obs.demote_bytes.record(size);
        self.obs.registry.event(names::HSM_DEMOTE_LOG_EVENT, &[("key", key)]);
        let mut inner = self.inner.lock();
        if let Some(e) = inner.catalog.get_mut(key) {
            e.tier = Tier::Tape;
        }
        Ok(())
    }

    /// Moves one object tape → disk, verifying integrity. If the disk tier
    /// is full, policy-chosen victims are demoted first to make room (the
    /// standard HSM space-management reaction to a promote).
    pub fn recall(&self, key: &str) -> Result<(), HsmError> {
        let span = self.obs.registry.span(&self.obs.recall_latency);
        let expected = {
            let inner = self.inner.lock();
            inner
                .catalog
                .get(key)
                .ok_or_else(|| HsmError::NotFound(key.to_string()))?
                .digest
        };
        let data = self.tape.get(key)?;
        let size = data.len() as u64;
        self.make_room(size)?;
        let meta = self.disk.put(key, data)?;
        if meta.digest != expected {
            let _ = self.disk.delete(key);
            return Err(HsmError::IntegrityViolation(key.to_string()));
        }
        self.tape.delete(key)?;
        self.obs.recalls.inc();
        self.obs.recall_bytes.record(size);
        self.obs.registry.event(names::HSM_RECALL_LOG_EVENT, &[("key", key)]);
        {
            let mut inner = self.inner.lock();
            if let Some(e) = inner.catalog.get_mut(key) {
                e.tier = Tier::Disk;
            }
        }
        span.finish();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn setup(disk_cap: u64, policy: MigrationPolicy) -> Hsm {
        let disk = Arc::new(ObjectStore::new("disk", disk_cap));
        let tape = Arc::new(ObjectStore::new("tape", u64::MAX));
        Hsm::new(disk, tape, 0.5, 0.8, policy)
    }

    fn blob(n: usize) -> Bytes {
        Bytes::from(vec![7u8; n])
    }

    #[test]
    fn put_lands_on_disk() {
        let hsm = setup(1000, MigrationPolicy::OldestFirst);
        hsm.put("a", blob(100)).unwrap();
        assert_eq!(hsm.tier_of("a").unwrap(), Tier::Disk);
        assert_eq!(hsm.get(&TraceCtx::disabled(), "a").unwrap(), blob(100));
        let labels: [(&str, &str); 1] = [("store", "disk")];
        assert_eq!(hsm.obs().counter_value(names::HSM_DEMOTIONS_TOTAL, &labels), 0);
        assert_eq!(hsm.obs().counter_value(names::HSM_RECALLS_TOTAL, &labels), 0);
    }

    #[test]
    fn migration_respects_watermarks() {
        let hsm = setup(1000, MigrationPolicy::OldestFirst);
        for i in 0..9 {
            hsm.put(&format!("o{i}"), blob(100)).unwrap();
        }
        // 900/1000 = 0.9 > 0.8 high watermark; demote until <= 500.
        let report = hsm.run_migration().unwrap();
        assert_eq!(report.demoted.len(), 4);
        assert_eq!(report.bytes, 400);
        assert!(hsm.disk_usage() <= 0.5 + 1e-12);
        // Oldest first: o0..o3 demoted.
        assert_eq!(report.demoted, vec!["o0", "o1", "o2", "o3"]);
        assert_eq!(hsm.tier_of("o0").unwrap(), Tier::Tape);
        assert_eq!(hsm.tier_of("o4").unwrap(), Tier::Disk);
    }

    #[test]
    fn migration_is_noop_below_watermark() {
        let hsm = setup(1000, MigrationPolicy::OldestFirst);
        hsm.put("a", blob(100)).unwrap();
        assert_eq!(hsm.run_migration().unwrap(), MigrationReport::default());
    }

    #[test]
    fn lru_policy_keeps_recently_read_objects() {
        let hsm = setup(1000, MigrationPolicy::LeastRecentlyUsed);
        for i in 0..9 {
            hsm.put(&format!("o{i}"), blob(100)).unwrap();
        }
        // Touch the oldest objects so LRU protects them.
        hsm.get(&TraceCtx::disabled(), "o0").unwrap();
        hsm.get(&TraceCtx::disabled(), "o1").unwrap();
        let report = hsm.run_migration().unwrap();
        assert!(!report.demoted.contains(&"o0".to_string()));
        assert!(!report.demoted.contains(&"o1".to_string()));
        assert!(report.demoted.contains(&"o2".to_string()));
    }

    #[test]
    fn largest_first_minimizes_demotions() {
        let hsm = setup(1000, MigrationPolicy::LargestFirst);
        hsm.put("small1", blob(50)).unwrap();
        hsm.put("big", blob(600)).unwrap();
        hsm.put("small2", blob(200)).unwrap();
        // 850/1000 > 0.8 → demote 'big' alone reaches 250 <= 500.
        let report = hsm.run_migration().unwrap();
        assert_eq!(report.demoted, vec!["big"]);
    }

    #[test]
    fn get_transparently_recalls_from_tape() {
        let hsm = setup(1000, MigrationPolicy::OldestFirst);
        for i in 0..9 {
            hsm.put(&format!("o{i}"), blob(100)).unwrap();
        }
        hsm.run_migration().unwrap();
        assert_eq!(hsm.tier_of("o0").unwrap(), Tier::Tape);
        let data = hsm.get(&TraceCtx::disabled(), "o0").unwrap();
        assert_eq!(data, blob(100));
        assert_eq!(hsm.tier_of("o0").unwrap(), Tier::Disk, "recall promotes");
        let labels: [(&str, &str); 1] = [("store", "disk")];
        assert_eq!(hsm.obs().counter_value(names::HSM_DEMOTIONS_TOTAL, &labels), 4);
        assert_eq!(hsm.obs().counter_value(names::HSM_RECALLS_TOTAL, &labels), 1);
    }

    #[test]
    fn no_object_is_ever_lost() {
        let hsm = setup(2_000, MigrationPolicy::LeastRecentlyUsed);
        for i in 0..20 {
            hsm.put(&format!("o{i}"), blob(90)).unwrap();
        }
        hsm.run_migration().unwrap();
        for i in 0..20 {
            // Every object readable regardless of tier.
            assert_eq!(hsm.get(&TraceCtx::disabled(), &format!("o{i}")).unwrap(), blob(90));
        }
    }

    #[test]
    fn unknown_keys_error() {
        let hsm = setup(1000, MigrationPolicy::OldestFirst);
        assert!(matches!(hsm.get(&TraceCtx::disabled(), "nope"), Err(HsmError::NotFound(_))));
        assert!(matches!(hsm.tier_of("nope"), Err(HsmError::NotFound(_))));
        assert!(matches!(hsm.demote("nope"), Err(HsmError::NotFound(_))));
        assert!(matches!(hsm.delete("nope"), Err(HsmError::NotFound(_))));
    }

    #[test]
    fn delete_works_on_both_tiers() {
        let hsm = setup(1000, MigrationPolicy::OldestFirst);
        hsm.put("disk-res", blob(100)).unwrap();
        hsm.put("tape-res", blob(100)).unwrap();
        hsm.demote("tape-res").unwrap();
        hsm.delete("disk-res").unwrap();
        hsm.delete("tape-res").unwrap();
        assert!(matches!(hsm.get(&TraceCtx::disabled(), "disk-res"), Err(HsmError::NotFound(_))));
        assert!(matches!(hsm.get(&TraceCtx::disabled(), "tape-res"), Err(HsmError::NotFound(_))));
        assert!(hsm.catalog().is_empty());
        assert_eq!(
            hsm.obs()
                .counter_value(names::HSM_DELETES_TOTAL, &[("store", "disk")]),
            2
        );
        // The key is reusable after deletion (write-once applies to live
        // objects only).
        hsm.put("disk-res", blob(10)).unwrap();
        assert_eq!(hsm.get(&TraceCtx::disabled(), "disk-res").unwrap(), blob(10));
    }

    #[test]
    fn registry_sees_tier_transitions() {
        let disk = Arc::new(ObjectStore::new("disk", 1000));
        let tape = Arc::new(ObjectStore::new("tape", u64::MAX));
        let reg = Arc::new(Registry::new());
        let hsm = Hsm::with_registry(
            disk,
            tape,
            0.5,
            0.8,
            MigrationPolicy::OldestFirst,
            reg.clone(),
        );
        for i in 0..9 {
            hsm.put(&format!("o{i}"), blob(100)).unwrap();
        }
        hsm.run_migration().unwrap();
        hsm.get(&TraceCtx::disabled(), "o0").unwrap(); // transparent recall
        let labels: [(&str, &str); 1] = [("store", "disk")];
        assert_eq!(reg.counter_value(names::HSM_DEMOTIONS_TOTAL, &labels), 4);
        assert_eq!(reg.counter_value(names::HSM_RECALLS_TOTAL, &labels), 1);
        assert_eq!(reg.counter_value(names::HSM_PUTS_TOTAL, &labels), 9);
        assert_eq!(reg.histogram(names::HSM_DEMOTE_BYTES, &labels).sum(), 400);
        assert_eq!(reg.histogram(names::HSM_RECALL_LATENCY_NS, &labels).count(), 1);
        assert!(reg.events().iter().any(|e| e.name == "hsm_recall"));
    }

    #[test]
    #[should_panic(expected = "watermarks")]
    fn bad_watermarks_panic() {
        let disk = Arc::new(ObjectStore::new("d", 10));
        let tape = Arc::new(ObjectStore::new("t", 10));
        let _ = Hsm::new(disk, tape, 0.9, 0.5, MigrationPolicy::OldestFirst);
    }
}
