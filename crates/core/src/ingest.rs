//! The ingest pipeline: checksum → store via ADAL → register metadata.
//!
//! This is the facility's front door for experiment data. The
//! `enforce_metadata` switch embodies the paper's slide-3 warning —
//! "invisible (not-found, no-metadata) data is lost data": with
//! enforcement on, an item without valid metadata is rejected; with it
//! off, the bytes land in storage but no catalog entry exists, and
//! experiment E14 measures exactly how much data becomes unfindable.

use std::collections::HashMap;

use bytes::Bytes;

use lsdf_adal::{AdalError, BackendError, Credential, OpKind, PendingPut, ProjectHandle};
use lsdf_metadata::{DatasetId, Document, NewDataset, ProjectStore};
use lsdf_obs::{Counter, Histogram, Registry, TraceCtx};
use lsdf_storage::Payload;

use crate::error::FacilityError;
use crate::facility::Facility;
use lsdf_obs::names;
use std::sync::Arc;

/// Per-project ingest metric handles, resolved once at facility build.
pub(crate) struct ProjectIngestObs {
    registered: Counter,
    stored_unregistered: Counter,
    rejected: Counter,
    bytes: Histogram,
}

/// Cached ingest metric handles: the registry maps are touched once
/// per project at construction, never on the per-item hot path.
pub(crate) struct IngestObs {
    latency: Histogram,
    projects: HashMap<String, ProjectIngestObs>,
}

impl IngestObs {
    /// Resolves the latency histogram plus every per-project outcome
    /// counter and byte histogram for the given project names.
    pub(crate) fn new<'a>(
        registry: &Registry,
        projects: impl Iterator<Item = &'a String>,
    ) -> Self {
        let per_project = |project: &str| {
            let outcome = |o: &str| {
                registry.counter(
                    names::FACILITY_INGEST_TOTAL,
                    &[("project", project), ("outcome", o)],
                )
            };
            ProjectIngestObs {
                registered: outcome("registered"),
                stored_unregistered: outcome("stored_unregistered"),
                rejected: outcome("rejected"),
                bytes: registry.histogram(names::FACILITY_INGEST_BYTES, &[("project", project)]),
            }
        };
        IngestObs {
            latency: registry.histogram(names::FACILITY_INGEST_LATENCY_NS, &[]),
            projects: projects.map(|p| (p.clone(), per_project(p))).collect(),
        }
    }

    fn project(&self, project: &str) -> Option<&ProjectIngestObs> {
        self.projects.get(project)
    }
}

/// One item arriving from an experiment DAQ.
#[derive(Debug, Clone)]
pub struct IngestItem {
    /// Target project.
    pub project: String,
    /// Storage key within the project.
    pub key: String,
    /// Payload.
    pub data: Bytes,
    /// Basic metadata (may be `None` for instruments that fail to provide
    /// it — the "invisible data" failure mode).
    pub metadata: Option<Document>,
}

/// Outcome counters for a batch ingest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Items fully ingested (stored + registered).
    pub registered: u64,
    /// Items stored without metadata (enforcement off only).
    pub stored_unregistered: u64,
    /// Items rejected.
    pub rejected: u64,
    /// Items shed at the admission front door before touching storage
    /// (quota exhausted or queue full); retry later.
    pub shed: u64,
    /// Payload bytes accepted into storage.
    pub bytes: u64,
}

/// Ingest configuration.
#[derive(Debug, Clone, Copy)]
pub struct IngestPolicy {
    /// Reject items whose metadata is missing or schema-invalid.
    pub enforce_metadata: bool,
}

impl Default for IngestPolicy {
    fn default() -> Self {
        IngestPolicy {
            enforce_metadata: true,
        }
    }
}

/// The item's metadata when it is present and schema-valid. Under
/// enforcement a missing or invalid document is the rejection reason;
/// without it the item goes on with no catalog entry.
fn checked_metadata(
    store: &ProjectStore,
    metadata: Option<Document>,
    policy: IngestPolicy,
) -> Result<Option<Document>, String> {
    let reason = match metadata {
        Some(doc) => match store.schema().validate(&doc) {
            Ok(()) => return Ok(Some(doc)),
            Err(e) => e.to_string(),
        },
        None => "no metadata supplied".to_string(),
    };
    if policy.enforce_metadata {
        Err(reason)
    } else {
        Ok(None)
    }
}

/// One batch item staged through the ADAL, plus everything needed to
/// finalize it (catalog entry, metrics, latency start) once the batched
/// commit lands.
struct StagedIngest<'a> {
    pending: PendingPut,
    fin: IngestFinalize<'a>,
}

/// What [`Facility::ingest_finalize`] answers per item: the dataset id
/// when a catalog entry was created, and the payload bytes accepted.
type Ingested = Result<(Option<DatasetId>, u64), FacilityError>;

/// What the front door answers per item: the index of its run's
/// handle and its simulated admission wait; an admission error when
/// shed; any other error when refused (an unknown project, or an open
/// the ADAL refused), which staging reports as the item's rejection.
type Door = Result<(usize, u64), FacilityError>;

/// The answer for an item a layer below returned no result for: an
/// error, never an ack.
fn no_result() -> FacilityError {
    let e = BackendError::Other("no result for staged ingest item".into());
    FacilityError::Adal(AdalError::Backend(e))
}

struct IngestFinalize<'a> {
    store: Arc<ProjectStore>,
    pm: &'a ProjectIngestObs,
    size: u64,
    /// The catalog entry to register; `None` for an item stored
    /// without metadata (enforcement off).
    dataset: Option<NewDataset>,
    /// When the item's `facility_ingest` latency started; the tally
    /// finishes it.
    start_ns: u64,
}

impl Facility {
    /// Ingests one item: checksums the payload, stores it through the
    /// ADAL, and registers the dataset in the project's metadata store.
    /// Returns the dataset id when a catalog entry was created.
    ///
    /// Outcomes feed the registry as
    /// `facility_ingest_total{project,outcome}` plus a
    /// `facility_ingest_bytes{project}` histogram for accepted payloads.
    ///
    /// The item passes the front door first: a project over its quota
    /// gets [`FacilityError::Admission`] with `retry_after_ns` before
    /// any byte reaches storage. From there a single item is a batch of
    /// one: stage, then finalize.
    pub fn ingest(
        &self,
        cred: &Credential,
        item: IngestItem,
        policy: IngestPolicy,
    ) -> Result<Option<DatasetId>, FacilityError> {
        let (handles, mut doors) = self.front_door_batch(cred, std::slice::from_ref(&item));
        let door = doors.pop().unwrap_or_else(|| Err(no_result()));
        if let Err(shed @ FacilityError::Admission(_)) = door {
            return Err(shed);
        }
        let staged = self.ingest_stage_all(&TraceCtx::disabled(), &handles, vec![(item, door)], policy);
        let (id, _) = self
            .ingest_finalize(staged)
            .pop()
            .unwrap_or_else(|| Err(no_result()))?;
        Ok(id)
    }

    /// The serial front door of a batch: on the caller thread, before
    /// any pool fan-out and in submission order, so its answers are the
    /// same at every worker count. Each run of consecutive items of one
    /// project is opened in the ADAL once and authorized to write, then
    /// admitted as one [`lsdf_admission::Account::admit_batch`]:
    /// authorized before admitted, so a refused item spends no token,
    /// and staging does not authenticate per item. A run the ADAL
    /// refuses is refused item by item, each on an open of its own as a
    /// session's ops are (each one denied request), until one is let
    /// in; the rest of the run is admitted under that handle.
    fn front_door_batch<'f>(
        &'f self,
        cred: &Credential,
        items: &[IngestItem],
    ) -> (Vec<ProjectHandle<'f>>, Vec<Door>) {
        let (mut handles, mut doors) = (Vec::new(), Vec::with_capacity(items.len()));
        let mut sizes = Vec::new();
        for run in items.chunk_by(|a, b| a.project == b.project) {
            let project = &run[0].project;
            let (account, lane) = match self.front_door(project) {
                Ok(door) => door,
                Err(e) => {
                    doors.extend(run.iter().map(|_| Err(e.clone())));
                    continue;
                }
            };
            let mut rest = run;
            let handle = loop {
                let Some((_, tail)) = rest.split_first() else { break None };
                let opened = self.adal().open(cred, project);
                match opened.and_then(|handle| handle.authorize(OpKind::Put).map(|()| handle)) {
                    Ok(handle) => break Some(handle),
                    Err(e) => {
                        doors.push(Err(e.into()));
                        rest = tail;
                    }
                }
            };
            let Some(handle) = handle else { continue };
            sizes.clear();
            sizes.extend(rest.iter().map(|item| item.data.len() as u64));
            let at = handles.len();
            handles.push(handle);
            let decided = account.admit_batch(lane, &sizes).into_iter();
            doors.extend(decided.map(|d| d.map(|t| (at, t.wait_ns)).map_err(FacilityError::from)));
        }
        (handles, doors)
    }

    /// The one staging body under [`Facility::ingest`] and
    /// [`Facility::ingest_batch`]: hashes every payload in one pass
    /// ([`Facility::hash_pass`]), then fans the items out across the
    /// pool to [`Facility::ingest_stage`] with their run's handle, each
    /// under its own `pool_task` span of `trace` (with an
    /// `admission_wait` child when the front door queued it). Results
    /// come back in submission order.
    fn ingest_stage_all<'f>(
        &'f self,
        trace: &TraceCtx,
        handles: &[ProjectHandle<'_>],
        doors: Vec<(IngestItem, Door)>,
        policy: IngestPolicy,
    ) -> Vec<Result<StagedIngest<'f>, FacilityError>> {
        let (items, payloads): (Vec<_>, Vec<Payload>) = doors
            .into_iter()
            .map(|(mut item, door)| {
                let data = Payload::new(std::mem::take(&mut item.data));
                ((item, door), data)
            })
            .unzip();
        self.hash_pass(&payloads);
        let tasks: Vec<_> = items.into_iter().zip(payloads).collect();
        self.pool()
            .run_traced(trace, tasks, |_, ((item, door), data), ctx| {
                let wait_ns = door.as_ref().map_or(0, |&(_, wait_ns)| wait_ns);
                if wait_ns > 0 && ctx.is_enabled() {
                    let span = ctx.child(names::ADMISSION_WAIT_SPAN);
                    span.add_field("wait_ns", &wait_ns.to_string());
                    span.finish_at(self.obs().now_ns() + wait_ns);
                }
                let handle = door.and_then(|(run, _)| handles.get(run).ok_or_else(no_result));
                self.ingest_stage(ctx, handle, item, data, policy)
            })
    }

    /// Fills every payload's digest cell before the stage fan-out, so
    /// the stage's `digest()` is a load: with W workers, W contiguous
    /// chunks, one [`Payload::digest_all`] each (one call at W = 1).
    /// Payloads of one block layout hash sixteen at a time where the
    /// CPU allows; a chunk too small for that hashes them one at a time,
    /// in parallel with the other chunks. The pass opens no span, so it
    /// leaves no mark on a trace.
    fn hash_pass(&self, payloads: &[Payload]) {
        let chunk = payloads.len().div_ceil(self.pool().workers()).max(1);
        let chunks: Vec<&[Payload]> = payloads.chunks(chunk).collect();
        self.pool().run(chunks, |_, c| Payload::digest_all(c));
    }

    /// Stages one item: metadata validation (*before* the payload
    /// lands, so enforcement never leaves orphan bytes), the single
    /// payload hash (already filled by the batch's hash pass, so here a
    /// load), and ADAL staging (placement / resilient fan-out) happen
    /// here, safely inside a pool worker; the metadata commit and
    /// catalog insert wait for [`Facility::ingest_finalize`]. The ADAL
    /// put (and everything below it — retries, breaker transitions, DFS
    /// placement, HSM staging) attaches as children of `ctx`. An item
    /// that fails here is counted as rejected, and its latency recorded,
    /// here; its payload was hashed by the pass but is never stored.
    ///
    /// Admission is *not* checked here — callers admit before this runs,
    /// and hand over the run's `handle`, or why the front door refused
    /// the item. `item.data` has been moved into `data`.
    fn ingest_stage(
        &self,
        ctx: &TraceCtx,
        handle: Result<&ProjectHandle<'_>, FacilityError>,
        item: IngestItem,
        data: Payload,
        policy: IngestPolicy,
    ) -> Result<StagedIngest<'_>, FacilityError> {
        let store = self.store(&item.project)?.clone();
        // Metric handles were cached at facility build: the hot path
        // only bumps atomics, never the registry maps.
        let pm = self
            .ingest_obs()
            .project(&item.project)
            .ok_or_else(|| FacilityError::UnknownProject(item.project.clone()))?;
        let start_ns = self.obs().now_ns();
        let reject = |e: FacilityError| {
            pm.rejected.inc();
            let dt = self.obs().now_ns().saturating_sub(start_ns);
            self.ingest_obs().latency.record(dt);
            e
        };
        let doc = match checked_metadata(&store, item.metadata, policy) {
            Ok(doc) => doc,
            Err(reason) => return Err(reject(FacilityError::MetadataRequired { key: item.key, reason })),
        };
        let handle = handle.map_err(reject)?;
        // One SHA-256 per acked payload: the memoized digest travels
        // with the handle, so the object store / replica reuse it.
        let digest = data.digest();
        let size = data.len() as u64;
        let pending = handle
            .put_stage(ctx, &item.key, data)
            .map_err(|e| reject(e.into()))?;
        let dataset = doc.map(|basic| NewDataset {
            location: format!("lsdf://{}/{}", item.project, item.key),
            name: item.key,
            size_bytes: size,
            checksum_hex: digest.to_hex(),
            basic,
        });
        Ok(StagedIngest {
            pending,
            fin: IngestFinalize { store, pm, size, dataset, start_ns },
        })
    }

    /// Commits a batch of staged items — one ADAL batched commit (one
    /// namenode lock, one WAL group commit for a DFS mount), then one
    /// catalog commit per project store (one catalog lock, one WAL
    /// group, one modelled fsync) — and tallies outcomes and metrics
    /// serially in submission order from what storage and the catalog
    /// answered. An item is acked (`Ok`) only after both returned Ok;
    /// otherwise it carries the error of the step that refused it.
    ///
    /// A batch item's `facility_ingest` latency is its time to that
    /// ack: started at staging, finished in the tally at one clock
    /// reading for the whole batch, after every store's catalog commit,
    /// so on a wall clock it includes the batch's whole commit (as it
    /// already included the whole batched storage commit), not only the
    /// item's own catalog insert.
    fn ingest_finalize(
        &self,
        staged: Vec<Result<StagedIngest<'_>, FacilityError>>,
    ) -> Vec<Ingested> {
        // `None` until the step that decides the item has answered.
        let mut results: Vec<Option<Ingested>> = Vec::with_capacity(staged.len());
        let mut fins: Vec<Option<IngestFinalize<'_>>> = Vec::with_capacity(staged.len());
        let mut pendings = Vec::with_capacity(staged.len());
        for r in staged {
            match r {
                Ok(s) => {
                    pendings.push(s.pending);
                    fins.push(Some(s.fin));
                    results.push(None);
                }
                Err(e) => {
                    fins.push(None);
                    results.push(Some(Err(e)));
                }
            }
        }
        let mut commits = self.adal().commit_staged(pendings).into_iter();
        // Catalog entries grouped per store, in submission order, each
        // with its place in the batch and its payload size.
        type CatalogGroup = (Arc<ProjectStore>, Vec<(usize, u64)>, Vec<NewDataset>);
        let mut groups: Vec<CatalogGroup> = Vec::new();
        for (i, fin) in fins.iter_mut().enumerate() {
            let Some(f) = fin else { continue };
            match commits.next() {
                Some(Ok(())) => {}
                Some(Err(e)) => {
                    results[i] = Some(Err(e.into()));
                    continue;
                }
                None => continue,
            }
            let Some(dataset) = f.dataset.take() else {
                results[i] = Some(Ok((None, f.size)));
                continue;
            };
            match groups.iter_mut().find(|(s, _, _)| Arc::ptr_eq(s, &f.store)) {
                Some((_, at, datasets)) => {
                    at.push((i, f.size));
                    datasets.push(dataset);
                }
                None => groups.push((f.store.clone(), vec![(i, f.size)], vec![dataset])),
            }
        }
        for (store, at, datasets) in groups {
            for ((i, size), r) in at.into_iter().zip(store.insert_batch(datasets)) {
                results[i] = Some(r.map(|id| (Some(id), size)).map_err(FacilityError::from));
            }
        }
        let results: Vec<Ingested> =
            results.into_iter().map(|r| r.unwrap_or_else(|| Err(no_result()))).collect();
        // Counted once the catalog has answered: an item it refused (a
        // taken name) is rejected, not registered. Items that failed
        // staging were counted there. One clock reading finishes every
        // latency; outcomes and bytes land once per run of one project.
        let now = self.obs().now_ns();
        let tallied: Vec<(&IngestFinalize<'_>, &Ingested)> =
            fins.iter().zip(&results).filter_map(|(f, r)| Some((f.as_ref()?, r))).collect();
        let latency = tallied.iter().map(|(f, _)| now.saturating_sub(f.start_ns));
        self.ingest_obs().latency.record_all(latency);
        for run in tallied.chunk_by(|(a, _), (b, _)| std::ptr::eq(a.pm, b.pm)) {
            let pm = run[0].0.pm;
            let count = |outcome: fn(&Ingested) -> bool| run.iter().filter(|(_, r)| outcome(r)).count() as u64;
            pm.registered.add(count(|r| matches!(r, Ok((Some(_), _)))));
            pm.stored_unregistered.add(count(|r| matches!(r, Ok((None, _)))));
            pm.rejected.add(count(Result::is_err));
            pm.bytes.record_all(run.iter().filter(|(_, r)| r.is_ok()).map(|(f, _)| f.size));
        }
        results
    }

    /// Ingests a batch, tallying outcomes instead of failing fast.
    ///
    /// The front door (open, then admission) runs as a serial pre-pass
    /// on the caller thread, in submission order, *before* the pool
    /// fan-out: token-bucket decisions (admit / wait / shed) therefore
    /// never depend on worker interleaving. Shed items are tallied in
    /// [`IngestReport::shed`] and never reach storage; items whose
    /// project the credential may not write are rejected, spending no
    /// token.
    ///
    /// Admitted items fan out across the facility's worker pool (see
    /// [`crate::facility::FacilityBuilder::workers`]); per-item
    /// outcomes are merged back in submission order, so the report —
    /// and the metrics it mirrors — are bit-identical to the serial
    /// path at every worker count.
    pub fn ingest_batch(
        &self,
        cred: &Credential,
        items: Vec<IngestItem>,
        policy: IngestPolicy,
    ) -> IngestReport {
        let trace = match self.tracer() {
            Some(t) => {
                let root = t.root(names::FACILITY_INGEST_BATCH_SPAN, "batch");
                root.add_field("items", &items.len().to_string());
                root
            }
            None => TraceCtx::disabled(),
        };
        // Serial front door: deterministic at any worker count.
        let mut shed = 0u64;
        let (handles, doors) = self.front_door_batch(cred, &items);
        let admitted: Vec<(IngestItem, Door)> = items
            .into_iter()
            .zip(doors)
            .filter_map(|(item, door)| match door {
                Err(FacilityError::Admission(_)) => {
                    shed += 1;
                    None
                }
                // Refused items fall through to the pool, so the
                // per-item pipeline reports them as rejected.
                door => Some((item, door)),
            })
            .collect();
        // One hash pass, then workers stage items (validation, block
        // placement); the metadata commits that serialise on shared
        // state happen below, batched, after the fan-out.
        let staged = self.ingest_stage_all(&trace, &handles, admitted, policy);
        let results = self.ingest_finalize(staged);
        trace.finish();
        // Telemetry scrape in the serial tail: at most one scrape per
        // interval, never inside the fan-out, so the history — and
        // everything derived from it — is worker-count-invariant.
        self.telemetry().maybe_scrape(self.obs());
        let mut report = IngestReport {
            shed,
            ..IngestReport::default()
        };
        for r in results {
            match r {
                Ok((Some(_), size)) => {
                    report.registered += 1;
                    report.bytes += size;
                }
                Ok((None, size)) => {
                    report.stored_unregistered += 1;
                    report.bytes += size;
                }
                Err(_) => report.rejected += 1,
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facility::{BackendChoice, ProjectSpec};
    use lsdf_adal::{EntryMeta, StagedPut, StorageBackend};
    use lsdf_durability::{DurabilityConfig, DurableStore};
    use lsdf_metadata::query::eq;
    use lsdf_metadata::zebrafish_schema;
    use lsdf_workloads::microscopy::HtmGenerator;

    fn facility() -> Facility {
        Facility::builder()
            .tenant(ProjectSpec::new(
                zebrafish_schema(),
                BackendChoice::ObjectStore { capacity: u64::MAX },
            ))
            .build()
            .unwrap()
    }

    fn items(n_fish: usize) -> Vec<IngestItem> {
        let mut gen = HtmGenerator::new(5, 32);
        let mut out = Vec::new();
        for _ in 0..n_fish {
            for (acq, img) in gen.next_fish() {
                out.push(IngestItem {
                    project: "zebrafish-htm".to_string(),
                    key: acq.key(),
                    data: img.encode(),
                    metadata: Some(acq.document()),
                });
            }
        }
        out
    }

    #[test]
    fn ingest_stores_registers_and_checksums() {
        let f = facility();
        let admin = f.admin().clone();
        let batch = items(2);
        let payload0 = batch[0].data.clone();
        let key0 = batch[0].key.clone();
        let report = f.ingest_batch(&admin, batch, IngestPolicy::default());
        assert_eq!(report.registered, 48);
        assert_eq!(report.rejected, 0);
        // Payload retrievable through the unified namespace.
        let path = format!("lsdf://zebrafish-htm/{key0}");
        assert_eq!(f.adal().get(&admin, &path).unwrap(), payload0);
        // Catalog entry carries checksum + size + location.
        let store = f.store("zebrafish-htm").unwrap();
        let rec = store.get_by_name(&key0).unwrap();
        assert_eq!(rec.size_bytes, payload0.len() as u64);
        assert_eq!(rec.checksum_hex, lsdf_storage::sha256(&payload0).to_hex());
        assert_eq!(rec.location(), path);
        // Indexed query works on ingested metadata.
        assert_eq!(store.query(&eq("fish_id", 0i64)).len(), 24);
    }

    #[test]
    fn enforcement_rejects_missing_metadata_without_orphan_bytes() {
        let f = facility();
        let admin = f.admin().clone();
        let item = IngestItem {
            project: "zebrafish-htm".into(),
            key: "raw/mystery".into(),
            data: Bytes::from_static(b"pixels"),
            metadata: None,
        };
        let r = f.ingest(&admin, item, IngestPolicy::default());
        assert!(matches!(r, Err(FacilityError::MetadataRequired { .. })));
        // No orphan object.
        assert!(f
            .adal()
            .get(&admin, "lsdf://zebrafish-htm/raw/mystery")
            .is_err());
    }

    #[test]
    fn lax_policy_stores_invisible_data() {
        let f = facility();
        let admin = f.admin().clone();
        let item = IngestItem {
            project: "zebrafish-htm".into(),
            key: "raw/mystery".into(),
            data: Bytes::from_static(b"pixels"),
            metadata: None,
        };
        let id = f
            .ingest(&admin, item, IngestPolicy {
                enforce_metadata: false,
            })
            .unwrap();
        assert_eq!(id, None, "no catalog entry");
        // Bytes exist...
        assert!(f
            .adal()
            .get(&admin, "lsdf://zebrafish-htm/raw/mystery")
            .is_ok());
        // ...but the data is invisible to every metadata query.
        let store = f.store("zebrafish-htm").unwrap();
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn invalid_metadata_counted_as_rejected_in_batch() {
        let f = facility();
        let admin = f.admin().clone();
        let mut batch = items(1);
        batch[3].metadata = Some(Document::new()); // invalid: required fields missing
        batch[7].metadata = None;
        let report = f.ingest_batch(&admin, batch, IngestPolicy::default());
        assert_eq!(report.registered, 22);
        assert_eq!(report.rejected, 2);
        assert_eq!(report.stored_unregistered, 0);
    }

    #[test]
    fn registry_tallies_ingest_outcomes_per_project() {
        let f = facility();
        let admin = f.admin().clone();
        let mut batch = items(1);
        batch[3].metadata = None;
        let report = f.ingest_batch(&admin, batch, IngestPolicy::default());
        assert_eq!(report.registered, 23);
        assert_eq!(report.rejected, 1);
        let reg = f.obs();
        fn labels(o: &str) -> [(&str, &str); 2] {
            [("project", "zebrafish-htm"), ("outcome", o)]
        }
        assert_eq!(
            reg.counter_value(names::FACILITY_INGEST_TOTAL, &labels("registered")),
            report.registered
        );
        assert_eq!(
            reg.counter_value(names::FACILITY_INGEST_TOTAL, &labels("rejected")),
            report.rejected
        );
        let bytes = reg.histogram(names::FACILITY_INGEST_BYTES, &[("project", "zebrafish-htm")]);
        assert_eq!(bytes.sum(), report.bytes);
        assert_eq!(bytes.count(), report.registered);
        // Ingest flowed through the shared ADAL counters too.
        assert_eq!(
            reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", "put")]),
            report.registered
        );
    }

    #[test]
    fn outcomes_are_counted_after_the_catalog_answers() {
        let f = facility();
        let admin = f.admin().clone();
        let batch = items(1);
        let n = batch.len() as u64;
        let first = f.ingest_batch(&admin, batch.clone(), IngestPolicy::default());
        assert_eq!(first.registered, n);
        let reg = f.obs();
        let outcome = |o: &str| {
            let labels = [("project", "zebrafish-htm"), ("outcome", o)];
            reg.counter_value(names::FACILITY_INGEST_TOTAL, &labels)
        };
        let bytes = reg.histogram(names::FACILITY_INGEST_BYTES, &[("project", "zebrafish-htm")]);
        assert_eq!((outcome("registered"), outcome("rejected"), bytes.count()), (n, 0, n));
        // Storage forgets the objects, the catalog does not: the same
        // batch now passes storage and every name is refused by the
        // catalog. The registry must say what the report says.
        let forget = |item: &IngestItem| {
            let path = format!("lsdf://zebrafish-htm/{}", item.key);
            f.adal().delete(&admin, &path).unwrap();
        };
        batch.iter().for_each(forget);
        let second = f.ingest_batch(&admin, batch.clone(), IngestPolicy::default());
        assert_eq!((second.registered, second.rejected, second.bytes), (0, n, 0));
        assert_eq!((outcome("registered"), outcome("rejected"), bytes.count()), (n, n, n));
        // The single-item path counts the same way.
        batch.iter().for_each(forget);
        let r = f.ingest(&admin, batch[0].clone(), IngestPolicy::default());
        assert!(matches!(r, Err(FacilityError::Metadata(_))), "{r:?}");
        assert_eq!((outcome("registered"), outcome("rejected"), bytes.count()), (n, n + 1, n));
    }

    #[test]
    fn traced_batch_produces_nested_trace_and_health_report() {
        use lsdf_obs::TraceConfig;
        let f = Facility::builder()
            .tenant(ProjectSpec::new(
                zebrafish_schema(),
                BackendChoice::ObjectStore { capacity: u64::MAX },
            ))
            .tracing(TraceConfig::full())
            .build()
            .unwrap();
        let admin = f.admin().clone();
        let batch = items(1);
        let n = batch.len();
        let report = f.ingest_batch(&admin, batch, IngestPolicy::default());
        assert_eq!(report.registered as usize, n);
        let tracer = f.tracer().expect("tracing was enabled");
        let traces = tracer.traces();
        assert_eq!(traces.len(), 1, "one batch => one trace");
        let root = &traces[0].root;
        assert_eq!(root.name, names::FACILITY_INGEST_BATCH_SPAN);
        assert_eq!(root.children.len(), n, "one pool task per item");
        for task in &root.children {
            assert_eq!(task.name, names::POOL_TASK_SPAN);
            assert_eq!(task.children[0].name, names::ADAL_PUT_SPAN);
        }
        // Health: default rules pass on a healthy facility, and the
        // accounting sees the project's ops and bytes.
        let health = f.facility_health();
        assert!(health.healthy, "no SLO violated: {:?}", health.rules);
        let acct = health
            .projects
            .iter()
            .find(|p| p.project == "zebrafish-htm")
            .expect("project accounted");
        assert_eq!(acct.bytes, report.bytes);
        assert!(acct.ops >= report.registered);
    }

    #[test]
    fn quota_limited_batch_sheds_and_traces_admission_waits() {
        use lsdf_obs::TraceConfig;
        let f = Facility::builder()
            .tenant(
                ProjectSpec::new(
                    zebrafish_schema(),
                    BackendChoice::ObjectStore { capacity: u64::MAX },
                )
                // Bulk-lane bucket mounts full at 7 tokens; a queue of
                // 2 admits two more with simulated waits, then sheds.
                .quota(lsdf_admission::QuotaSpec::per_second(7, 1 << 20).queue_depth(2)),
            )
            .tracing(TraceConfig::full())
            .build()
            .unwrap();
        let admin = f.admin().clone();
        let batch = items(1); // 24 items in one instant
        let report = f.ingest_batch(&admin, batch, IngestPolicy::default());
        assert_eq!(report.registered, 9, "7 burst + 2 queued");
        assert_eq!(report.shed, 15);
        assert_eq!(report.rejected, 0);
        let reg = f.obs();
        let labels = [("project", "zebrafish-htm"), ("lane", "bulk")];
        assert_eq!(
            reg.counter_value(names::ADMISSION_ADMITTED_TOTAL, &labels),
            9
        );
        assert_eq!(reg.counter_value(names::ADMISSION_SHED_TOTAL, &labels), 15);
        // The two queued admissions carry admission_wait spans parented
        // under their pool tasks; burst admissions (wait 0) do not.
        let traces = f.tracer().unwrap().traces();
        let root = &traces[0].root;
        assert_eq!(root.children.len(), 9, "only admitted items reach the pool");
        let mut waits = 0;
        for task in &root.children {
            let span_names: Vec<&str> = task.children.iter().map(|c| c.name).collect();
            if span_names.first() == Some(&names::ADMISSION_WAIT_SPAN) {
                waits += 1;
                assert!(span_names.contains(&names::ADAL_PUT_SPAN));
            } else {
                assert_eq!(span_names.first(), Some(&names::ADAL_PUT_SPAN));
            }
        }
        assert_eq!(waits, 2, "exactly the queued admissions record a wait");
    }

    #[test]
    fn a_single_ingest_is_a_batch_of_one() {
        // Two tenants: zebrafish on the DFS, and medaka, of the same
        // schema, on an object store whose front door holds one token.
        let twin = || {
            let mut medaka = zebrafish_schema();
            medaka.name = "medaka-htm".into();
            let one_token = lsdf_admission::QuotaSpec::per_second(1, 1 << 20).ops_burst(1).queue_depth(0);
            let f = Facility::builder()
                .tenant(ProjectSpec::new(zebrafish_schema(), BackendChoice::Dfs))
                .tenant(
                    ProjectSpec::new(medaka, BackendChoice::ObjectStore { capacity: u64::MAX })
                        .quota(one_token),
                )
                .durability(DurableStore::new(), DurabilityConfig::default())
                .build()
                .unwrap();
            // A stopped clock: no token refills between admissions.
            f.obs().set_virtual_time_ns(1);
            f
        };
        let (single, batched) = (twin(), twin());
        let admin = single.admin().clone();
        let good = items(1);
        let orphan = IngestItem {
            key: "raw/mystery".into(),
            metadata: None,
            ..good[0].clone()
        };
        let medaka = |item: &IngestItem| IngestItem { project: "medaka-htm".into(), ..item.clone() };
        let path = |item: &IngestItem| format!("lsdf://zebrafish-htm/{}", item.key);
        // Three acked items, then the three refusals: no metadata under
        // enforcement, a taken key, and — once storage has forgotten
        // the object — a name the catalog still holds. Last, a batch of
        // three project runs whose second medaka item is shed.
        let script = [
            vec![good[0].clone(), good[1].clone(), good[2].clone()],
            vec![orphan.clone()],
            vec![good[0].clone()],
            vec![good[1].clone()],
            vec![medaka(&good[3]), good[3].clone(), good[4].clone(), medaka(&good[4])],
        ];
        let mut errors = Vec::new();
        for (step, batch) in script.into_iter().enumerate() {
            if step == 3 {
                for f in [&single, &batched] {
                    f.adal().delete(&admin, &path(&good[1])).unwrap();
                }
            }
            let singles: Vec<_> =
                batch.iter().map(|item| single.ingest(&admin, item.clone(), IngestPolicy::default())).collect();
            let report = batched.ingest_batch(&admin, batch, IngestPolicy::default());
            let count = |f: fn(&Result<_, FacilityError>) -> bool| singles.iter().filter(|r| f(r)).count() as u64;
            let shed = count(|r| matches!(r, Err(FacilityError::Admission(_))));
            let rejected = count(|r| r.is_err()) - shed;
            assert_eq!((report.registered, report.rejected, report.shed), (count(|r| r.is_ok()), rejected, shed));
            errors.extend(singles.into_iter().filter_map(Result::err));
        }
        assert!(matches!(errors[0], FacilityError::MetadataRequired { .. }), "{errors:?}");
        for f in [&single, &batched] {
            assert!(f.adal().get(&admin, &path(&orphan)).is_err(), "orphan bytes");
        }
        assert!(
            matches!(errors[1], FacilityError::Adal(AdalError::Backend(BackendError::AlreadyExists(_)))),
            "{errors:?}"
        );
        assert!(matches!(errors[2], FacilityError::Metadata(_)), "{errors:?}");
        assert!(matches!(errors[3], FacilityError::Admission(_)), "{errors:?}");
        assert_eq!(errors.len(), 4);

        for project in ["zebrafish-htm", "medaka-htm"] {
            let store = |f: &Facility| f.store(project).unwrap().catalog_digest();
            assert_eq!(store(&single), store(&batched), "{project}");
        }
        assert_eq!(single.dfs().namespace_digest(), batched.dfs().namespace_digest());
        // Every outcome series by name, labels and value; the latencies
        // by count.
        let series = |f: &Facility| {
            let snap = f.obs().snapshot();
            let counted = [
                names::FACILITY_INGEST_TOTAL,
                names::ADAL_OPS_TOTAL,
                names::ADAL_PROJECT_OPS_TOTAL,
                names::ADMISSION_ADMITTED_TOTAL,
                names::ADMISSION_SHED_TOTAL,
            ];
            let valued = [names::FACILITY_INGEST_BYTES, names::WAL_APPEND_BYTES];
            let timed =
                [names::FACILITY_INGEST_LATENCY_NS, names::ADAL_OP_LATENCY_NS, names::ADAL_PROJECT_OP_LATENCY_NS];
            let counters = snap.counters.iter().filter(|(id, _)| counted.contains(&id.name.as_str()));
            let histograms = snap.histograms.iter().filter_map(|(id, h)| match id.name.as_str() {
                name if valued.contains(&name) => Some(format!("{id} {h:?}")),
                name if timed.contains(&name) => Some(format!("{id} count {}", h.count)),
                _ => None,
            });
            counters.map(|(id, v)| format!("{id} {v}")).chain(histograms).collect::<Vec<_>>()
        };
        let exported = series(&single);
        assert_eq!(exported, series(&batched));
        for line in [
            "facility_ingest_total{outcome=registered,project=zebrafish-htm} 5",
            "facility_ingest_total{outcome=rejected,project=zebrafish-htm} 3",
            "facility_ingest_total{outcome=registered,project=medaka-htm} 1",
            "admission_shed_total{lane=bulk,project=medaka-htm} 1",
            "adal_ops_total{op=put} 7",
            "facility_ingest_latency_ns count 9",
        ] {
            assert!(exported.iter().any(|l| l == line), "{line} not in {exported:#?}");
        }
        assert!(exported.iter().any(|l| l.starts_with(names::WAL_APPEND_BYTES)), "{exported:#?}");
    }

    /// An out-of-tree backend that breaks the commit contract: handed
    /// N staged puts, it answers with no results at all.
    struct SilentCommit;

    impl StorageBackend for SilentCommit {
        fn kind(&self) -> &'static str {
            "silent"
        }
        fn put(&self, _: &TraceCtx, key: &str, _: Payload) -> Result<(), BackendError> {
            Err(BackendError::Unsupported(key.to_string()))
        }
        fn get(&self, _: &TraceCtx, key: &str) -> Result<Payload, BackendError> {
            Err(BackendError::NotFound(key.to_string()))
        }
        fn stat(&self, _: &TraceCtx, key: &str) -> Result<EntryMeta, BackendError> {
            Err(BackendError::NotFound(key.to_string()))
        }
        fn delete(&self, _: &TraceCtx, key: &str) -> Result<(), BackendError> {
            Err(BackendError::NotFound(key.to_string()))
        }
        fn list(&self, _: &TraceCtx, _: &str) -> Result<Vec<EntryMeta>, BackendError> {
            Ok(Vec::new())
        }
        fn stage_put(&self, _: &TraceCtx, _: &str, _: Payload) -> Result<StagedPut, BackendError> {
            Ok(StagedPut::Committed)
        }
        fn commit_staged(&self, _: Vec<StagedPut>) -> Vec<Result<(), BackendError>> {
            Vec::new()
        }
    }

    #[test]
    fn bytes_no_backend_committed_get_no_catalog_entry() {
        let f = facility();
        let admin = f.admin().clone();
        f.adal().mount("zebrafish-htm", Arc::new(SilentCommit));
        let batch = items(1)[..2].to_vec();
        let report = f.ingest_batch(&admin, batch, IngestPolicy::default());
        assert_eq!((report.registered, report.rejected, report.bytes), (0, 2, 0));
        assert_eq!(f.store("zebrafish-htm").unwrap().len(), 0);
        assert_eq!(f.obs().counter_value(names::ADAL_OPS_TOTAL, &[("op", "put")]), 0);
    }

    #[test]
    fn duplicate_keys_rejected_at_storage_layer() {
        let f = facility();
        let admin = f.admin().clone();
        let batch = items(1);
        let one = batch[0].clone();
        f.ingest(&admin, one.clone(), IngestPolicy::default())
            .unwrap();
        let r = f.ingest(&admin, one, IngestPolicy::default());
        assert!(matches!(r, Err(FacilityError::Adal(_))));
    }
}
