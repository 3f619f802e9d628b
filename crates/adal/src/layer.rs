//! The ADAL itself: a registry mapping project mounts to backends, with
//! authentication, authorization and operation accounting.
//!
//! A project is opened once for a credential ([`Adal::open`]): the
//! principal, whether it may write, the mount and the read-side
//! [`RequestClass`] resolve into a [`ProjectHandle`], whose ops take a
//! key. An op on a handle does not split a path, authenticate or
//! authorize again. It compares the auth, ACL and mount epochs the
//! handle resolved under with the current ones and re-opens only when
//! one moved, so a revoke, a re-registered token or a remount takes
//! effect on the very next op. The path-string API
//! (`get(cred, "lsdf://project/key")`, ...) is the same body with a
//! split and a resolve in front.
//!
//! That body: mint the root trace, start the latency span, find the
//! mount, call the backend, and — on success only — account. A `put`
//! is that front half, a [`StorageBackend::stage_put`], and the
//! accounting deferred to [`Adal::commit_staged`]; a single put is a
//! batch of one.
//!
//! Accounting goes through the `lsdf-obs` registry: each operation
//! bumps `adal_ops_total{op=..}` (plus a per-project
//! `adal_project_ops_total{project=..,op=..}` breakdown) and records
//! its latency into `adal_op_latency_ns{op=..}`; rejected requests
//! count in `adal_denied_total`.
//!
//! The layer has one mode. A project mounted with
//! [`Adal::mount_resilient`] is served by one more backend — the
//! retry / breaker / failover / journal decorator of
//! [`crate::resilience`] — that no operation here branches on; the
//! layer keeps a typed handle to it for [`Adal::health`] and
//! [`Adal::drain_journal`] only.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use lsdf_obs::{names, Counter, Histogram, Registry, TraceCtx, Tracer};
use lsdf_pool::WorkerPool;
use lsdf_storage::Payload;
use lsdf_sync::{ranks, OrderedRwLock};

use crate::auth::{Access, Acl, AuthError, AuthProvider, Credential, TokenAuth};
use crate::backend::{missing_commit_result, BackendError, EntryMeta, StagedPut, StorageBackend};
use crate::path::PathError;
use crate::resilience::{BreakerState, HealthReport, ResilienceConfig, ResilientBackend};

mod handle;

pub use handle::ProjectHandle;
use handle::Target;

/// Errors surfaced by ADAL operations.
#[derive(Debug, Clone, PartialEq)]
pub enum AdalError {
    /// Malformed path.
    Path(PathError),
    /// Authentication / authorization failure.
    Auth(AuthError),
    /// No backend mounted for the project.
    NoMount(String),
    /// Backend-level failure.
    Backend(BackendError),
}

impl std::fmt::Display for AdalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdalError::Path(e) => write!(f, "path: {e}"),
            AdalError::Auth(e) => write!(f, "auth: {e}"),
            AdalError::NoMount(p) => write!(f, "no backend mounted for project '{p}'"),
            AdalError::Backend(e) => write!(f, "backend: {e}"),
        }
    }
}

impl std::error::Error for AdalError {}

impl From<PathError> for AdalError {
    fn from(e: PathError) -> Self {
        AdalError::Path(e)
    }
}
impl From<AuthError> for AdalError {
    fn from(e: AuthError) -> Self {
        AdalError::Auth(e)
    }
}
impl From<BackendError> for AdalError {
    fn from(e: BackendError) -> Self {
        AdalError::Backend(e)
    }
}

/// The operation kinds the layer runs — the same set the per-op
/// counters track, as a type instead of a string.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `put` — store an object.
    Put,
    /// `get` — fetch an object.
    Get,
    /// `stat` — metadata for one object.
    Stat,
    /// `list` — enumerate a prefix.
    List,
    /// `delete` — remove an object.
    Delete,
}

impl OpKind {
    const COUNT: usize = 5;
    const ALL: [OpKind; Self::COUNT] =
        [OpKind::Put, OpKind::Get, OpKind::Stat, OpKind::List, OpKind::Delete];

    /// The name of the operation's trace span.
    fn span_name(self) -> &'static str {
        match self {
            OpKind::Put => names::ADAL_PUT_SPAN,
            OpKind::Get => names::ADAL_GET_SPAN,
            OpKind::Stat => names::ADAL_STAT_SPAN,
            OpKind::List => names::ADAL_LIST_SPAN,
            OpKind::Delete => names::ADAL_DELETE_SPAN,
        }
    }

    /// The `op` label value of the per-op metrics.
    fn label(self) -> &'static str {
        match self {
            OpKind::Put => "put",
            OpKind::Get => "get",
            OpKind::Stat => "stat",
            OpKind::List => "list",
            OpKind::Delete => "delete",
        }
    }

    /// The access the operation needs.
    fn access(self) -> Access {
        match self {
            OpKind::Put | OpKind::Delete => Access::Write,
            OpKind::Get | OpKind::Stat | OpKind::List => Access::Read,
        }
    }
}

/// How the multi-tenant front door should treat a project's read-side
/// traffic, derived from the backend serving it. The admission layer
/// maps each class onto a QoS lane; writes ride the lane the tenant
/// registered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Latency-sensitive reads (`get`/`stat`/`list`).
    InteractiveRead,
    /// Reads on an HSM mount, where a cold read winds tape.
    TapeRecall,
}

/// Cached registry handles for the hot path — resolved once at
/// construction so operations only touch atomics.
struct OpMetrics {
    /// `adal_ops_total{op}`, indexed by [`OpKind`].
    ops: [Counter; OpKind::COUNT],
    /// `adal_op_latency_ns{op}`, indexed by [`OpKind`], for every kind
    /// but the last: `delete` exports no latency series.
    latency: [Histogram; OpKind::COUNT - 1],
    denied: Counter,
    put_bytes: Histogram,
    get_bytes: Histogram,
}

impl OpMetrics {
    fn new(reg: &Registry) -> Self {
        let op_latency = |op: OpKind| reg.histogram(names::ADAL_OP_LATENCY_NS, &[("op", op.label())]);
        OpMetrics {
            ops: OpKind::ALL.map(|op| reg.counter(names::ADAL_OPS_TOTAL, &[("op", op.label())])),
            latency: std::array::from_fn(|i| op_latency(OpKind::ALL[i])),
            denied: reg.counter(names::ADAL_DENIED_TOTAL, &[]),
            put_bytes: reg.histogram(names::ADAL_PUT_BYTES, &[]),
            get_bytes: reg.histogram(names::ADAL_GET_BYTES, &[]),
        }
    }
}

/// A mount's per-project metric handles, resolved from the registry
/// the first time each is used and held for the life of the mount: an
/// operation bumps atomics instead of formatting a label set, and a
/// project that never performed an op exports no series for it.
struct MountMetrics {
    project: String,
    backend: &'static str,
    ops: [OnceLock<Counter>; OpKind::COUNT],
    latency: OnceLock<Histogram>,
}

impl MountMetrics {
    fn new(project: &str, backend: &'static str) -> Arc<Self> {
        Arc::new(MountMetrics {
            project: project.to_string(),
            backend,
            ops: Default::default(),
            latency: OnceLock::new(),
        })
    }

    /// Per-project operation breakdown, labelled by backend kind: `n`
    /// successes of `op`.
    fn ops(&self, reg: &Registry, op: OpKind, n: u64) {
        self.ops[op as usize]
            .get_or_init(|| {
                reg.counter(
                    names::ADAL_PROJECT_OPS_TOTAL,
                    &[("project", &self.project), ("backend", self.backend), ("op", op.label())],
                )
            })
            .add(n);
    }

    /// Per-project latency view — the per-tenant histogram the admission
    /// governor's SLO rules read to find the project breaching its p99.
    fn op_latency(&self, reg: &Registry) -> &Histogram {
        self.latency.get_or_init(|| {
            reg.histogram(names::ADAL_PROJECT_OP_LATENCY_NS, &[("project", &self.project)])
        })
    }
}

/// One project mount. `resilient` is the same object as `backend`,
/// typed, when the project was mounted with [`Adal::mount_resilient`].
#[derive(Clone)]
struct Mount {
    backend: Arc<dyn StorageBackend>,
    resilient: Option<Arc<ResilientBackend>>,
    metrics: Arc<MountMetrics>,
    read_class: RequestClass,
}

/// A put staged by [`Adal::put_stage_traced`], carrying everything
/// needed to finalize it — the backend's staged commit plus the latency
/// start and per-project accounting that [`Adal::commit_staged`]
/// completes once per batch. The trace span closes at stage time, while
/// its parent (e.g. a pool task span) is still open — a trace child
/// finishing after its parent is dropped.
///
/// A pending put that is dropped without being committed records
/// nothing: its latency is timed only by the commit.
pub struct PendingPut {
    backend: Arc<dyn StorageBackend>,
    staged: StagedPut,
    metrics: Arc<MountMetrics>,
    len: u64,
    start_ns: u64,
}

/// The Abstract Data Access Layer.
pub struct Adal {
    auth: Arc<dyn AuthProvider>,
    acl: Arc<Acl>,
    mounts: OrderedRwLock<HashMap<String, Mount>>,
    /// Bumped by every [`Adal::install`], after the mount changed.
    mount_epoch: AtomicU64,
    obs: Arc<Registry>,
    ops: OpMetrics,
    pool: WorkerPool,
    tracer: Option<Tracer>,
}

impl Adal {
    /// Starts a fluent [`AdalBuilder`], the one way to construct the
    /// layer. Defaults: a fresh [`TokenAuth`] with no tokens, an empty
    /// [`Acl`], no mounts, a private registry.
    pub fn builder() -> AdalBuilder {
        AdalBuilder::default()
    }

    /// The obs registry this layer records into.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Mints the root trace context for one operation, or a disabled
    /// context when no tracer is attached.
    fn trace_root(&self, name: &'static str, at: Target<'_>) -> TraceCtx {
        match &self.tracer {
            Some(t) => t.root(name, &at.path()),
            None => TraceCtx::disabled(),
        }
    }

    /// Mounts a backend under a project name. Remounting replaces the
    /// previous backend (used for transparent technology migrations —
    /// slide 6: "transparent access over background storage and
    /// technology changes").
    pub fn mount(&self, project: &str, backend: Arc<dyn StorageBackend>) {
        self.install(project, backend, None);
    }

    /// Mounts a backend with the full resilience stack: retries for
    /// transient errors, a circuit breaker, optional replica failover
    /// for reads, and a redo journal for degraded writes. Successful
    /// writes are also copied to `replica` (best effort), so the
    /// replica can serve reads while the primary's breaker is open. A
    /// write acknowledged into the journal is readable at once
    /// (`get`/`stat`/`list`), stays write-once, is cancelled by a
    /// `delete`, and drains back to the primary after the outage.
    ///
    /// The stack is one more backend wrapped around `primary`; every
    /// operation reaches it the way it reaches a plain mount.
    /// Remounting replaces any previous mount for the project; the
    /// resilience state (breaker, journal) starts fresh.
    pub fn mount_resilient(
        &self,
        project: &str,
        primary: Arc<dyn StorageBackend>,
        replica: Option<Arc<dyn StorageBackend>>,
        cfg: ResilienceConfig,
    ) {
        let backend = Arc::new(ResilientBackend::new(
            project,
            primary,
            replica,
            cfg,
            self.obs.clone(),
            self.pool,
        ));
        self.install(project, backend.clone(), Some(backend));
    }

    fn install(
        &self,
        project: &str,
        backend: Arc<dyn StorageBackend>,
        resilient: Option<Arc<ResilientBackend>>,
    ) {
        let mut fields = vec![("project", project), ("backend", backend.kind())];
        if resilient.is_some() {
            fields.push(("mode", "resilient"));
        }
        self.obs.event(names::ADAL_MOUNT_LOG_EVENT, &fields);
        let read_class = match backend.kind() {
            "hsm" => RequestClass::TapeRecall,
            _ => RequestClass::InteractiveRead,
        };
        let mount = Mount {
            metrics: MountMetrics::new(project, backend.kind()),
            backend,
            resilient,
            read_class,
        };
        self.mounts.write().insert(project.to_string(), mount);
        self.mount_epoch.fetch_add(1, Ordering::Release);
    }

    /// Mounted project names, sorted.
    pub fn projects(&self) -> Vec<String> {
        let mut v: Vec<String> = self.mounts.read().keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// The one body of `get`, `stat`, `list` and `delete`, by path or on
    /// a handle: root trace, latency span, [`Adal::enter`], the backend
    /// `call`, and — on success only — the global counter, the per-mount
    /// counter and the latencies. A failed call still records the
    /// attempt in the global latency histogram when its span drops.
    fn run<T>(
        &self,
        op: OpKind,
        at: Target<'_>,
        call: impl FnOnce(&dyn StorageBackend, &TraceCtx, &str) -> Result<T, BackendError>,
    ) -> Result<T, AdalError> {
        let trace = self.trace_root(op.span_name(), at);
        let span = self.ops.latency.get(op as usize).map(|h| self.obs.span(h));
        let (mount, key) = self.enter(op, at)?;
        let out = call(&*mount.backend, &trace, key)?;
        self.ops.ops[op as usize].inc();
        mount.metrics.ops(&self.obs, op, 1);
        if let Some(span) = span {
            mount.metrics.op_latency(&self.obs).record(span.finish());
        }
        trace.finish();
        Ok(out)
    }

    /// Stores an object at `lsdf://project/key`.
    pub fn put(
        &self,
        cred: &Credential,
        path: &str,
        data: impl Into<Payload>,
    ) -> Result<(), AdalError> {
        self.put_at(Target::Path(cred, path), data)
    }

    /// A single put is a batch of one: [`Adal::stage`] under a new root
    /// span, then [`Adal::commit_staged`].
    fn put_at(&self, at: Target<'_>, data: impl Into<Payload>) -> Result<(), AdalError> {
        let staged = self.stage(&TraceCtx::disabled(), at, data)?;
        self.commit_staged(vec![staged])
            .pop()
            .unwrap_or_else(|| Err(missing_commit_result().into()))
    }

    /// Stages a put for a later batched commit: resolution and the
    /// backend's [`StorageBackend::stage_put`] (block placement on the
    /// DFS; the whole write on a backend without a staged protocol)
    /// happen now, safely in a pool worker; the metadata commit that
    /// serialises on shared state is deferred to
    /// [`Adal::commit_staged`]. A write staged here is **not**
    /// acknowledgeable until its commit returns Ok.
    ///
    /// The operation's `adal_put` span is a child of an enabled
    /// `parent` (e.g. a pool task inside a batch ingest), else a new
    /// root trace.
    pub fn put_stage_traced(
        &self,
        parent: &TraceCtx,
        cred: &Credential,
        path: &str,
        data: impl Into<Payload>,
    ) -> Result<PendingPut, AdalError> {
        self.stage(parent, Target::Path(cred, path), data)
    }

    /// The one body of a staged put, by path or on a handle.
    fn stage(&self, parent: &TraceCtx, at: Target<'_>, data: impl Into<Payload>) -> Result<PendingPut, AdalError> {
        let trace = if parent.is_enabled() {
            let t = parent.child(names::ADAL_PUT_SPAN);
            t.add_field("path", &at.path());
            t
        } else {
            self.trace_root(names::ADAL_PUT_SPAN, at)
        };
        let start_ns = self.obs.now_ns();
        let pending = self.enter(OpKind::Put, at).and_then(|(mount, key)| {
            let data = data.into();
            let len = data.len() as u64;
            let staged = mount.backend.stage_put(&trace, key, data)?;
            let Mount { backend, metrics, .. } = mount.into_owned();
            Ok(PendingPut { backend, staged, metrics, len, start_ns })
        });
        if pending.is_err() {
            // A refused put is an attempt like any other op's: timed.
            let dt = self.obs.now_ns().saturating_sub(start_ns);
            self.ops.latency[OpKind::Put as usize].record(dt);
        }
        trace.finish();
        pending
    }

    /// Commits a batch of staged puts, grouping them per backend so a
    /// whole N-file batch pays one namenode lock and one WAL group
    /// commit. Results are in batch order. The accounting lands once
    /// per batch, at one clock reading: every put's latency in the
    /// global histogram, and for the acked puts the counters by count,
    /// the sizes in one histogram pass, and the per-mount series once
    /// per run of puts to one mount.
    pub fn commit_staged(&self, pending: Vec<PendingPut>) -> Vec<Result<(), AdalError>> {
        let mut outcomes: Vec<Option<Result<(), BackendError>>> =
            pending.iter().map(|_| None).collect();
        let mut finalize = Vec::with_capacity(pending.len());
        // Group the commits by backend instance, preserving order.
        type CommitGroup = (Arc<dyn StorageBackend>, Vec<usize>, Vec<StagedPut>);
        let mut groups: Vec<CommitGroup> = Vec::new();
        for (i, p) in pending.into_iter().enumerate() {
            match groups.iter_mut().find(|(b, _, _)| Arc::ptr_eq(b, &p.backend)) {
                Some((_, idxs, batch)) => {
                    idxs.push(i);
                    batch.push(p.staged);
                }
                None => groups.push((p.backend, vec![i], vec![p.staged])),
            }
            finalize.push((p.metrics, p.len, p.start_ns));
        }
        for (backend, idxs, batch) in groups {
            for (i, r) in idxs.into_iter().zip(backend.commit_staged(batch)) {
                outcomes[i] = Some(r);
            }
        }
        let results: Vec<Result<(), AdalError>> = outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(|| Err(missing_commit_result())).map_err(AdalError::Backend))
            .collect();

        let now = self.obs.now_ns();
        let elapsed = |start_ns: u64| now.saturating_sub(start_ns);
        let put = OpKind::Put as usize;
        self.ops.latency[put].record_all(finalize.iter().map(|(_, _, start)| elapsed(*start)));
        let acked: Vec<_> =
            finalize.iter().zip(&results).filter(|(_, r)| r.is_ok()).map(|(f, _)| f).collect();
        self.ops.ops[put].add(acked.len() as u64);
        self.ops.put_bytes.record_all(acked.iter().map(|(_, len, _)| *len));
        for run in acked.chunk_by(|a, b| Arc::ptr_eq(&a.0, &b.0)) {
            let metrics = &run[0].0;
            metrics.ops(&self.obs, OpKind::Put, run.len() as u64);
            metrics.op_latency(&self.obs).record_all(run.iter().map(|(_, _, start)| elapsed(*start)));
        }
        results
    }

    /// Fetches an object.
    pub fn get(&self, cred: &Credential, path: &str) -> Result<Bytes, AdalError> {
        self.get_at(Target::Path(cred, path))
    }

    fn get_at(&self, at: Target<'_>) -> Result<Bytes, AdalError> {
        self.run(OpKind::Get, at, |backend, ctx, key| {
            let data = backend.get(ctx, key)?.into_bytes();
            self.ops.get_bytes.record(data.len() as u64);
            Ok(data)
        })
    }

    /// Metadata for an object.
    pub fn stat(&self, cred: &Credential, path: &str) -> Result<EntryMeta, AdalError> {
        self.run(OpKind::Stat, Target::Path(cred, path), |backend, ctx, key| backend.stat(ctx, key))
    }

    /// Lists keys under `lsdf://project/prefix` (the prefix may be empty
    /// to list a whole project). Backend listing failures surface as
    /// [`AdalError::Backend`].
    pub fn list(&self, cred: &Credential, path: &str) -> Result<Vec<EntryMeta>, AdalError> {
        self.run(OpKind::List, Target::Path(cred, path), |backend, ctx, prefix| backend.list(ctx, prefix))
    }

    /// Deletes an object (requires write access).
    pub fn delete(&self, cred: &Credential, path: &str) -> Result<(), AdalError> {
        self.run(OpKind::Delete, Target::Path(cred, path), |backend, ctx, key| backend.delete(ctx, key))
    }

    /// Explicitly drains a project's redo journal (e.g. from a recovery
    /// loop after an outage ends). Returns entries landed. Plain mounts
    /// and unknown projects drain nothing.
    pub fn drain_journal(&self, project: &str) -> usize {
        let resilient = self.mounts.read().get(project).and_then(|m| m.resilient.clone());
        let Some(resilient) = resilient else { return 0 };
        let trace = self.tracer.as_ref().map_or_else(TraceCtx::disabled, |t| t.root(names::ADAL_DRAIN_SPAN, project));
        let drained = resilient.drain_step(&trace);
        if trace.is_enabled() {
            trace.add_field("drained", &drained.to_string());
        }
        trace.finish();
        drained
    }

    /// Point-in-time health of one project's mount. Plain mounts report
    /// a closed breaker and an empty journal.
    pub fn health(&self, project: &str) -> Option<HealthReport> {
        let mount = self.mounts.read().get(project).cloned()?;
        Some(match &mount.resilient {
            Some(resilient) => resilient.health(),
            None => HealthReport {
                project: project.to_string(),
                backend: mount.backend.kind(),
                breaker: BreakerState::Closed,
                failure_rate: 0.0,
                has_replica: false,
                journal_depth: 0,
                journal_bytes: 0,
                retries: 0,
                failover_reads: 0,
            },
        })
    }

    /// Health of every mounted project, sorted by project name.
    pub fn health_report(&self) -> Vec<HealthReport> {
        self.projects()
            .into_iter()
            .filter_map(|p| self.health(&p))
            .collect()
    }
}

/// Fluent construction for [`Adal`]: auth provider, ACL, initial
/// mounts, and the obs registry in one chain.
///
/// ```
/// use std::sync::Arc;
/// use lsdf_adal::{Adal, Acl, TokenAuth};
///
/// let auth = Arc::new(TokenAuth::new());
/// auth.register("tok", "alice");
/// let acl = Arc::new(Acl::new());
/// acl.grant("alice", "proj", true);
/// let adal = Adal::builder().auth(auth).acl(acl).build();
/// assert!(adal.projects().is_empty());
/// ```
#[derive(Default)]
pub struct AdalBuilder {
    auth: Option<Arc<dyn AuthProvider>>,
    acl: Option<Arc<Acl>>,
    mounts: Vec<(String, Arc<dyn StorageBackend>)>,
    registry: Option<Arc<Registry>>,
    workers: Option<usize>,
    tracer: Option<Tracer>,
}

impl AdalBuilder {
    /// Sets the authentication provider.
    pub fn auth(mut self, auth: Arc<dyn AuthProvider>) -> Self {
        self.auth = Some(auth);
        self
    }

    /// Sets the ACL.
    pub fn acl(mut self, acl: Arc<Acl>) -> Self {
        self.acl = Some(acl);
        self
    }

    /// Adds an initial project mount.
    pub fn mount(mut self, project: &str, backend: Arc<dyn StorageBackend>) -> Self {
        self.mounts.push((project.to_string(), backend));
        self
    }

    /// Records into a shared obs registry instead of a private one.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Sets the worker-pool width for resilient replica fan-out.
    /// Defaults to the `LSDF_WORKERS` environment variable (unset =
    /// serial). Results are identical for every worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Attaches a causal tracer: every operation mints a root trace,
    /// subject to the tracer's sampling mode.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Builds the layer and applies the mounts.
    pub fn build(self) -> Adal {
        let auth = self
            .auth
            .unwrap_or_else(|| Arc::new(TokenAuth::new()) as Arc<dyn AuthProvider>);
        let acl = self.acl.unwrap_or_else(|| Arc::new(Acl::new()));
        let registry = self.registry.unwrap_or_default();
        let pool = self
            .workers
            .map(WorkerPool::new)
            .unwrap_or_else(WorkerPool::from_env);
        let adal = Adal {
            auth,
            acl,
            mounts: OrderedRwLock::new(ranks::ADAL_MOUNTS, HashMap::new()),
            mount_epoch: AtomicU64::new(0),
            ops: OpMetrics::new(&registry),
            obs: registry,
            pool,
            tracer: self.tracer,
        };
        for (project, backend) in self.mounts {
            adal.mount(&project, backend);
        }
        adal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ObjectStoreBackend;
    use lsdf_storage::ObjectStore;
    use parking_lot::Mutex;

    fn setup() -> (Adal, Credential) {
        let auth = Arc::new(TokenAuth::new());
        auth.register("tok", "garcia");
        let acl = Arc::new(Acl::new());
        acl.grant("garcia", "zebrafish", true);
        acl.grant("garcia", "katrin", false); // read-only
        let adal = Adal::builder().auth(auth).acl(acl).build();
        adal.mount(
            "zebrafish",
            Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(
                "z",
                u64::MAX,
            )))),
        );
        adal.mount(
            "katrin",
            Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(
                "k",
                u64::MAX,
            )))),
        );
        (adal, Credential::Token("tok".into()))
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_through_the_layer() {
        let (adal, cred) = setup();
        adal.put(&cred, "lsdf://zebrafish/raw/i1", b("px")).unwrap();
        assert_eq!(adal.get(&cred, "lsdf://zebrafish/raw/i1").unwrap(), b("px"));
        let meta = adal.stat(&cred, "lsdf://zebrafish/raw/i1").unwrap();
        assert_eq!(meta.size, 2);
        let listed = adal.list(&cred, "lsdf://zebrafish/raw/").unwrap();
        assert_eq!(listed.len(), 1);
        for op in ["put", "get", "stat", "list"] {
            assert_eq!(adal.obs().counter_value(names::ADAL_OPS_TOTAL, &[("op", op)]), 1, "{op}");
        }
        assert_eq!(adal.obs().counter_value(names::ADAL_DENIED_TOTAL, &[]), 0);
    }

    #[test]
    fn registry_mirrors_the_compat_counters() {
        let (adal, cred) = setup();
        adal.put(&cred, "lsdf://zebrafish/raw/i1", b("px")).unwrap();
        adal.get(&cred, "lsdf://zebrafish/raw/i1").unwrap();
        adal.stat(&cred, "lsdf://zebrafish/raw/i1").unwrap();
        let reg = adal.obs();
        assert_eq!(reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", "put")]), 1);
        assert_eq!(reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", "get")]), 1);
        assert_eq!(reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", "stat")]), 1);
        // Per-project breakdown carries the backend label.
        assert_eq!(
            reg.counter_value(
                names::ADAL_PROJECT_OPS_TOTAL,
                &[("project", "zebrafish"), ("backend", "object-store"), ("op", "put")],
            ),
            1
        );
        // Latency recorded per op.
        let lat = reg.histogram(names::ADAL_OP_LATENCY_NS, &[("op", "put")]);
        assert_eq!(lat.count(), 1);
        // Payload sizes recorded.
        assert_eq!(reg.histogram(names::ADAL_PUT_BYTES, &[]).sum(), 2);
    }

    #[test]
    fn per_mount_handles_count_every_op_and_stay_lazy() {
        for resilient in [false, true] {
            let (adal, cred) = setup();
            if resilient {
                for project in ["zebrafish", "katrin"] {
                    let store = Arc::new(ObjectStore::new(project, u64::MAX));
                    let primary = Arc::new(ObjectStoreBackend::new(store));
                    adal.mount_resilient(project, primary, None, ResilienceConfig::default());
                }
            }
            per_mount_handles(&adal, &cred);
        }
    }

    /// The body of the test above, run over a plain and a resilient
    /// mount of the same store: the accounting is the layer's, so the
    /// backend serving the project moves none of it.
    fn per_mount_handles(adal: &Adal, cred: &Credential) {
        adal.acl.grant("garcia", "katrin", true);
        for i in 0..5 {
            adal.put(cred, &format!("lsdf://zebrafish/raw/i{i}"), b("px")).unwrap();
        }
        let staged = (0..2)
            .map(|i| {
                adal.put_stage_traced(
                    &TraceCtx::disabled(),
                    cred,
                    &format!("lsdf://zebrafish/raw/s{i}"),
                    b("px"),
                )
                .unwrap()
            })
            .collect();
        assert!(adal.commit_staged(staged).iter().all(Result::is_ok));
        for _ in 0..3 {
            adal.get(cred, "lsdf://zebrafish/raw/i0").unwrap();
        }
        adal.put(cred, "lsdf://katrin/run1", b("ev")).unwrap();
        let reg = adal.obs();
        let ops = |project: &str, op: &str| {
            let labels = [("project", project), ("backend", "object-store"), ("op", op)];
            reg.counter_value(names::ADAL_PROJECT_OPS_TOTAL, &labels)
        };
        assert_eq!(ops("zebrafish", "put"), 7);
        assert_eq!(ops("zebrafish", "get"), 3);
        assert_eq!(ops("katrin", "put"), 1);
        let latency = |project| {
            reg.histogram(names::ADAL_PROJECT_OP_LATENCY_NS, &[("project", project)])
                .count()
        };
        assert_eq!((latency("zebrafish"), latency("katrin")), (10, 1));
        // Creation stays lazy: a project that never read exports no
        // `op="get"` series, and no op exports one it never ran.
        let exported: Vec<String> = reg
            .snapshot()
            .counters
            .iter()
            .filter(|(id, _)| id.name == names::ADAL_PROJECT_OPS_TOTAL)
            .map(|(id, _)| id.to_string())
            .collect();
        assert_eq!(
            exported,
            [
                "adal_project_ops_total{backend=object-store,op=get,project=zebrafish}",
                "adal_project_ops_total{backend=object-store,op=put,project=katrin}",
                "adal_project_ops_total{backend=object-store,op=put,project=zebrafish}",
            ]
        );

        // Every kind of op: N successes are N in the global counter, N
        // in the per-mount counter and (but for `delete`, which exports
        // no latency series) N in both latency families.
        for _ in 0..2 {
            adal.stat(cred, "lsdf://zebrafish/raw/i0").unwrap();
        }
        adal.list(cred, "lsdf://zebrafish/raw/").unwrap();
        adal.delete(cred, "lsdf://zebrafish/raw/i4").unwrap();
        let global = |op| reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", op)]);
        let attempts = |op| reg.histogram(names::ADAL_OP_LATENCY_NS, &[("op", op)]).count();
        for (op, zebrafish, katrin) in
            [("put", 7, 1), ("get", 3, 0), ("stat", 2, 0), ("list", 1, 0), ("delete", 1, 0)]
        {
            assert_eq!((ops("zebrafish", op), ops("katrin", op)), (zebrafish, katrin), "{op}");
            assert_eq!(global(op), zebrafish + katrin, "{op}");
            let timed = if op == "delete" { 0 } else { zebrafish + katrin };
            assert_eq!(attempts(op), timed, "{op}");
        }
        assert_eq!((latency("zebrafish"), latency("katrin")), (13, 1));

        // A call that fails — bad credential, ACL denial, no mount, a
        // whole project named as an object, a missing key — moves no
        // success series; only the attempt is timed, and the first two
        // are counted as denied.
        adal.acl.grant("garcia", "ghost", true);
        let accounted = || -> Vec<(String, u64)> {
            let snap = reg.snapshot();
            let counters = snap.counters.iter().map(|(id, v)| (id, *v));
            let histograms = snap.histograms.iter().map(|(id, h)| (id, h.count));
            counters
                .chain(histograms)
                .filter(|(id, _)| id.name == names::ADAL_OPS_TOTAL || id.name.starts_with("adal_project_"))
                .map(|(id, v)| (id.to_string(), v))
                .collect()
        };
        let before = accounted();
        let stranger = Credential::Token("nope".into());
        assert!(matches!(adal.get(&stranger, "lsdf://zebrafish/raw/i0"), Err(AdalError::Auth(_))));
        assert!(matches!(adal.get(cred, "lsdf://mystery/x"), Err(AdalError::Auth(_))));
        assert!(matches!(adal.get(cred, "lsdf://ghost/x"), Err(AdalError::NoMount(_))));
        assert!(matches!(adal.stat(cred, "lsdf://zebrafish/"), Err(AdalError::Path(_))));
        assert!(matches!(adal.delete(cred, "lsdf://zebrafish/raw/i4"), Err(AdalError::Backend(_))));
        assert_eq!(accounted(), before);
        assert_eq!(reg.counter_value(names::ADAL_DENIED_TOTAL, &[]), 2);
        assert_eq!((attempts("get"), attempts("stat"), attempts("delete")), (6, 3, 0));
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
    fn a_missing_commit_result_is_an_error_not_an_ack() {
        let (adal, cred) = setup();
        adal.mount("zebrafish", Arc::new(SilentCommit));
        let staged = ["a", "b"]
            .map(|k| {
                let path = format!("lsdf://zebrafish/{k}");
                adal.put_stage_traced(&TraceCtx::disabled(), &cred, &path, b("px")).unwrap()
            })
            .into();
        let results = adal.commit_staged(staged);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(matches!(r, Err(AdalError::Backend(BackendError::Other(_)))), "{r:?}");
        }
        assert!(adal.put(&cred, "lsdf://zebrafish/c", b("px")).is_err());
        assert_eq!(adal.obs().counter_value(names::ADAL_OPS_TOTAL, &[("op", "put")]), 0);
        let acked = [("project", "zebrafish")];
        assert_eq!(adal.obs().histogram(names::ADAL_PROJECT_OP_LATENCY_NS, &acked).count(), 0);
    }

    #[test]
    fn a_put_is_timed_when_refused_or_committed_and_not_when_dropped() {
        let (adal, cred) = setup();
        let reg = adal.obs();
        let attempts = || reg.histogram(names::ADAL_OP_LATENCY_NS, &[("op", "put")]).count();
        // Refused at stage: katrin is read-only.
        assert!(matches!(adal.put(&cred, "lsdf://katrin/x", b("px")), Err(AdalError::Auth(_))));
        assert_eq!(attempts(), 1);
        // Staged, then dropped uncommitted.
        let pending = adal.put_stage_traced(&TraceCtx::disabled(), &cred, "lsdf://zebrafish/y", b("px"));
        drop(pending.unwrap());
        assert_eq!(attempts(), 1);
        // Acked, then refused as a second write of the same key.
        adal.put(&cred, "lsdf://zebrafish/z", b("px")).unwrap();
        assert!(adal.put(&cred, "lsdf://zebrafish/z", b("px")).is_err());
        assert_eq!(attempts(), 3);
        assert_eq!(reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", "put")]), 1);
    }

    #[test]
    fn a_handle_op_sees_grants_tokens_and_mounts_changed_since_it_opened() {
        let auth = Arc::new(TokenAuth::new());
        auth.register("tok", "garcia");
        let acl = Arc::new(Acl::new());
        acl.grant("garcia", "zebrafish", true);
        let adal = Adal::builder().auth(auth.clone()).acl(acl.clone()).build();
        let store = |name| Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(name, u64::MAX))));
        adal.mount("zebrafish", store("z"));
        let cred = Credential::Token("tok".into());
        let handle = adal.open(&cred, "zebrafish").unwrap();
        assert_eq!(handle.read_class(), RequestClass::InteractiveRead);
        handle.put("a", b("1")).unwrap();
        assert_eq!(handle.get("a"), Ok(b("1")));
        assert!(handle.is_current());
        let denied = || adal.obs().counter_value(names::ADAL_DENIED_TOTAL, &[]);

        // A revoke fails the next op; a grant lets the one after in.
        acl.revoke("garcia", "zebrafish");
        assert!(!handle.is_current());
        assert!(matches!(handle.get("a"), Err(AdalError::Auth(AuthError::Denied { .. }))));
        assert_eq!(denied(), 1);
        acl.grant("garcia", "zebrafish", false);
        assert_eq!(handle.get("a"), Ok(b("1")));
        let write = AuthError::Denied { user: "garcia".into(), project: "zebrafish".into(), access: Access::Write };
        assert_eq!(handle.put("b", b("1")), Err(AdalError::Auth(write)));
        assert_eq!(denied(), 2);

        // A remount serves the next op from the new backend.
        let migrated = store("z2");
        migrated.put(&TraceCtx::disabled(), "a", b("2").into()).unwrap();
        adal.mount("zebrafish", migrated);
        assert_eq!(handle.get("a"), Ok(b("2")));

        // The token moves to a user without a grant.
        auth.register("tok", "nobody");
        assert!(matches!(handle.get("a"), Err(AdalError::Auth(AuthError::Denied { user, .. })) if user == "nobody"));

        // A fresh open is current; one the ADAL refuses counts denied.
        assert!(adal.open(&cred, "zebrafish").is_err());
        auth.register("tok", "garcia");
        let reopened = adal.open(&cred, "zebrafish").unwrap();
        assert!(reopened.is_current());
        assert_eq!(reopened.authorize(OpKind::Put), Err(AdalError::Auth(AuthError::Denied {
            user: "garcia".into(),
            project: "zebrafish".into(),
            access: Access::Write,
        })));
        assert_eq!(denied(), 5);
        assert!(matches!(reopened.get(""), Err(AdalError::Path(PathError::EmptyKey(p))) if p == "lsdf://zebrafish/"));
    }

    #[test]
    fn a_handle_op_is_traced_and_counted_as_its_path_twin() {
        use lsdf_obs::{TraceConfig, Tracer};
        let twin = || {
            let (adal, cred) = setup();
            let reg = adal.obs().clone();
            reg.set_virtual_time_ns(1);
            let tracer = Tracer::new(&reg, TraceConfig::full());
            let adal = Adal { tracer: Some(tracer.clone()), ..adal };
            (adal, cred, tracer)
        };
        let ((by_path, cred, path_tracer), (by_handle, _, handle_tracer)) = (twin(), twin());
        by_path.put(&cred, "lsdf://zebrafish/raw/i1", b("px")).unwrap();
        by_path.get(&cred, "lsdf://zebrafish/raw/i1").unwrap();
        let handle = by_handle.open(&cred, "zebrafish").unwrap();
        handle.put("raw/i1", b("px")).unwrap();
        handle.get("raw/i1").unwrap();
        let roots = |t: &Tracer| -> Vec<(String, &'static str, u64)> {
            t.traces().iter().map(|r| (r.key.clone(), r.root.name, r.trace_id.0)).collect()
        };
        assert_eq!(roots(&path_tracer), roots(&handle_tracer));
        assert_eq!(roots(&handle_tracer)[1].0, "lsdf://zebrafish/raw/i1");
        assert_eq!(by_path.obs().snapshot().counters, by_handle.obs().snapshot().counters);
    }

    #[test]
    fn builder_chain_builds_a_working_layer() {
        let auth = Arc::new(TokenAuth::new());
        auth.register("tok", "garcia");
        let acl = Arc::new(Acl::new());
        acl.grant("garcia", "zebrafish", true);
        let reg = Arc::new(Registry::new());
        let adal = Adal::builder()
            .auth(auth)
            .acl(acl)
            .registry(reg.clone())
            .mount(
                "zebrafish",
                Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(
                    "z",
                    u64::MAX,
                )))),
            )
            .build();
        let cred = Credential::Token("tok".into());
        adal.put(&cred, "lsdf://zebrafish/a", b("1")).unwrap();
        assert_eq!(adal.projects(), vec!["zebrafish"]);
        // The shared registry saw the op.
        assert_eq!(reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", "put")]), 1);
    }

    #[test]
    fn builder_defaults_deny_everything() {
        let adal = Adal::builder().build();
        let r = adal.get(&Credential::Token("any".into()), "lsdf://p/x");
        assert!(matches!(r, Err(AdalError::Auth(_))));
        assert_eq!(adal.obs().counter_value(names::ADAL_DENIED_TOTAL, &[]), 1);
    }

    #[test]
    fn write_denied_on_readonly_project() {
        let (adal, cred) = setup();
        let r = adal.put(&cred, "lsdf://katrin/run1", b("ev"));
        assert!(matches!(r, Err(AdalError::Auth(AuthError::Denied { .. }))));
        assert_eq!(adal.obs().counter_value(names::ADAL_DENIED_TOTAL, &[]), 1);
    }

    #[test]
    fn unknown_project_and_bad_paths() {
        let (adal, cred) = setup();
        // ACL denies before mount resolution for unknown projects.
        assert!(matches!(
            adal.get(&cred, "lsdf://mystery/x"),
            Err(AdalError::Auth(_))
        ));
        assert!(matches!(
            adal.get(&cred, "file:///etc/passwd"),
            Err(AdalError::Path(_))
        ));
        // A whole project is a listing prefix, never an object.
        let whole = "lsdf://zebrafish/";
        let empty_key = |e: AdalError| e == AdalError::Path(PathError::EmptyKey(whole.into()));
        assert!(adal.get(&cred, whole).is_err_and(empty_key));
        assert!(adal.put(&cred, whole, b("x")).is_err_and(empty_key));
        assert_eq!(adal.list(&cred, whole), Ok(vec![]));
    }

    #[test]
    fn bad_credential_rejected() {
        let (adal, _) = setup();
        let r = adal.get(&Credential::Token("nope".into()), "lsdf://zebrafish/x");
        assert!(matches!(
            r,
            Err(AdalError::Auth(AuthError::InvalidCredential))
        ));
    }

    #[test]
    fn remount_swaps_backend_transparently() {
        let (adal, cred) = setup();
        adal.put(&cred, "lsdf://zebrafish/a", b("1")).unwrap();
        assert_eq!(adal.health("zebrafish").map(|h| h.backend), Some("object-store"));
        // Technology change: remount the project onto a fresh backend
        // (clients keep using the same paths).
        let new_store = Arc::new(ObjectStore::new("z2", u64::MAX));
        new_store.put("a", b("1")).unwrap(); // migrated content
        adal.mount(
            "zebrafish",
            Arc::new(ObjectStoreBackend::new(new_store)),
        );
        assert_eq!(adal.get(&cred, "lsdf://zebrafish/a").unwrap(), b("1"));
    }

    #[test]
    fn projects_enumerated() {
        let (adal, _) = setup();
        assert_eq!(adal.projects(), vec!["katrin", "zebrafish"]);
    }

    // ----- resilience ----------------------------------------------------

    use crate::resilience::{BreakerConfig, RetryPolicy};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Test double: an object store whose next N primary calls fail with
    /// a transient error, whose next M puts are torn (stored corrupted
    /// while still acknowledged), and whose next put can be parked: it
    /// reports in on the sender, then waits for the receiver.
    struct ScriptedBackend {
        inner: ObjectStoreBackend,
        fail_budget: Mutex<u64>,
        tear_budget: Mutex<u64>,
        park: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    }

    impl ScriptedBackend {
        fn new(name: &str) -> Arc<Self> {
            Arc::new(ScriptedBackend {
                inner: ObjectStoreBackend::new(Arc::new(ObjectStore::new(name, u64::MAX))),
                fail_budget: Mutex::new(0),
                tear_budget: Mutex::new(0),
                park: Mutex::new(None),
            })
        }
        fn fail_next(&self, n: u64) {
            *self.fail_budget.lock() = n;
        }
        fn tear_next(&self, n: u64) {
            *self.tear_budget.lock() = n;
        }
        fn trip(&self, budget: &Mutex<u64>) -> bool {
            let mut b = budget.lock();
            if *b > 0 {
                *b -= 1;
                true
            } else {
                false
            }
        }
    }

    impl StorageBackend for ScriptedBackend {
        fn kind(&self) -> &'static str {
            "scripted"
        }
        fn put(&self, ctx: &TraceCtx, key: &str, data: Payload) -> Result<(), BackendError> {
            if self.trip(&self.fail_budget) {
                return Err(BackendError::TransientIo(format!("scripted put '{key}'")));
            }
            let park = self.park.lock().take();
            if let Some((entered, release)) = park {
                let _ = entered.send(());
                let _ = release.recv();
            }
            if self.trip(&self.tear_budget) {
                // Torn write: mutate a private copy — the shared buffer
                // is immutable — and store it as a fresh payload with a
                // fresh digest cell.
                let mut torn = data.to_vec();
                torn[0] ^= 0xff;
                return self.inner.put(ctx, key, Payload::from(torn));
            }
            self.inner.put(ctx, key, data)
        }
        fn get(&self, ctx: &TraceCtx, key: &str) -> Result<Payload, BackendError> {
            if self.trip(&self.fail_budget) {
                return Err(BackendError::TransientIo(format!("scripted get '{key}'")));
            }
            self.inner.get(ctx, key)
        }
        fn stat(&self, ctx: &TraceCtx, key: &str) -> Result<EntryMeta, BackendError> {
            if self.trip(&self.fail_budget) {
                return Err(BackendError::TransientIo(format!("scripted stat '{key}'")));
            }
            self.inner.stat(ctx, key)
        }
        fn delete(&self, ctx: &TraceCtx, key: &str) -> Result<(), BackendError> {
            if self.trip(&self.fail_budget) {
                return Err(BackendError::TransientIo(format!(
                    "scripted delete '{key}'"
                )));
            }
            self.inner.delete(ctx, key)
        }
        fn list(&self, ctx: &TraceCtx, prefix: &str) -> Result<Vec<EntryMeta>, BackendError> {
            if self.trip(&self.fail_budget) {
                return Err(BackendError::TransientIo(format!(
                    "scripted list '{prefix}'"
                )));
            }
            self.inner.list(ctx, prefix)
        }
    }

    /// Resilient ADAL over a scripted primary + plain replica, with a
    /// small breaker window and the registry pinned to virtual time so
    /// cool-downs are test-controlled.
    fn resilient_setup(
        name: &str,
    ) -> (Adal, Credential, Arc<ScriptedBackend>, Arc<dyn StorageBackend>) {
        let auth = Arc::new(TokenAuth::new());
        auth.register("tok", "garcia");
        let acl = Arc::new(Acl::new());
        acl.grant("garcia", "anka", true);
        let reg = Arc::new(Registry::new());
        reg.set_virtual_time_ns(1);
        let adal = Adal::builder().auth(auth).acl(acl).registry(reg).build();
        let primary = ScriptedBackend::new(name);
        let replica: Arc<dyn StorageBackend> = Arc::new(ObjectStoreBackend::new(Arc::new(
            ObjectStore::new("replica", u64::MAX),
        )));
        let cfg = ResilienceConfig {
            retry: RetryPolicy::new(2, 100, 1_000, 0),
            breaker: BreakerConfig {
                window: 4,
                min_calls: 2,
                failure_rate: 0.5,
                cooldown_ns: 1_000,
                half_open_probes: 1,
            },
            journal_entries: 2,
            ..ResilienceConfig::default()
        };
        adal.mount_resilient("anka", primary.clone(), Some(replica.clone()), cfg);
        (adal, Credential::Token("tok".into()), primary, replica)
    }

    #[test]
    fn resilient_put_retries_through_transient_faults() {
        let (adal, cred, primary, _) = resilient_setup("p1");
        primary.fail_next(1);
        adal.put(&cred, "lsdf://anka/run/f1", b("data")).unwrap();
        assert_eq!(adal.get(&cred, "lsdf://anka/run/f1").unwrap(), b("data"));
        let reg = adal.obs();
        let p = [("project", "anka")];
        assert_eq!(reg.counter_value(names::ADAL_RETRIES_TOTAL, &p), 1);
        assert_eq!(reg.counter_value(names::ADAL_TRANSIENT_OBSERVED_TOTAL, &p), 1);
        assert_eq!(reg.counter_value(names::ADAL_RETRY_EXHAUSTED_TOTAL, &p), 0);
        // The retry schedule was recorded, not slept.
        assert_eq!(reg.histogram(names::ADAL_RETRY_BACKOFF_NS, &p).count(), 1);
    }

    #[test]
    fn torn_write_detected_cleaned_and_retried() {
        let (adal, cred, primary, _) = resilient_setup("p2");
        primary.tear_next(1);
        adal.put(&cred, "lsdf://anka/run/f1", b("payload")).unwrap();
        // The torn first copy was detected via read-back checksum,
        // deleted, and the retry landed the intact payload.
        assert_eq!(adal.get(&cred, "lsdf://anka/run/f1").unwrap(), b("payload"));
        let reg = adal.obs();
        let p = [("project", "anka")];
        assert_eq!(reg.counter_value(names::ADAL_WRITE_VERIFY_FAILURES_TOTAL, &p), 1);
        assert_eq!(reg.counter_value(names::ADAL_RETRIES_TOTAL, &p), 1);
    }

    #[test]
    fn breaker_opens_degrades_and_recovers() {
        let (adal, cred, primary, _) = resilient_setup("p3");
        let reg = adal.obs().clone();
        let p = [("project", "anka")];

        // A healthy write lands on primary and replica.
        adal.put(&cred, "lsdf://anka/a", b("aa")).unwrap();

        // Persistent failure: the retry budget (2 attempts) is spent,
        // the breaker opens, and the acked write degrades to the journal.
        primary.fail_next(u64::MAX / 2);
        adal.put(&cred, "lsdf://anka/b", b("bb")).unwrap();
        assert_eq!(reg.counter_value(names::ADAL_BREAKER_TRANSITIONS_TOTAL, &[("project", "anka"), ("to", "open")]), 1);
        assert_eq!(reg.counter_value(names::ADAL_JOURNAL_ENQUEUED_TOTAL, &p), 1);
        assert_eq!(reg.gauge_value(names::ADAL_JOURNAL_DEPTH, &p), 1);
        let h = adal.health("anka").unwrap();
        assert_eq!(h.breaker, BreakerState::Open);
        assert_eq!(h.journal_depth, 1);
        assert!(h.has_replica);

        // Counter identity: every observed transient is either retried
        // or ends a retry loop.
        assert_eq!(
            reg.counter_value(names::ADAL_TRANSIENT_OBSERVED_TOTAL, &p),
            reg.counter_value(names::ADAL_RETRIES_TOTAL, &p)
                + reg.counter_value(names::ADAL_RETRY_EXHAUSTED_TOTAL, &p)
        );

        // Degraded reads: 'a' fails over to the replica, 'b' is served
        // from the journal (read-your-writes), the listing merges both.
        assert_eq!(adal.get(&cred, "lsdf://anka/a").unwrap(), b("aa"));
        assert_eq!(reg.counter_value(names::ADAL_FAILOVER_READS_TOTAL, &p), 1);
        assert_eq!(adal.get(&cred, "lsdf://anka/b").unwrap(), b("bb"));
        assert_eq!(adal.stat(&cred, "lsdf://anka/b").unwrap().size, 2);
        let listed = adal.list(&cred, "lsdf://anka/").unwrap();
        assert_eq!(
            listed.iter().map(|e| e.key.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );

        // Write-once holds for journaled keys and for replica-landed keys.
        assert!(matches!(
            adal.put(&cred, "lsdf://anka/b", b("x")),
            Err(AdalError::Backend(BackendError::AlreadyExists(_)))
        ));
        assert!(matches!(
            adal.put(&cred, "lsdf://anka/a", b("x")),
            Err(AdalError::Backend(BackendError::AlreadyExists(_)))
        ));

        // The journal is bounded (2 entries): one more degraded write
        // fits, the next is refused rather than silently acked.
        adal.put(&cred, "lsdf://anka/c", b("cc")).unwrap();
        assert!(matches!(
            adal.put(&cred, "lsdf://anka/d", b("dd")),
            Err(AdalError::Backend(BackendError::NoSpace(_)))
        ));

        // Recovery: heal the backend, let the cool-down elapse, drain.
        primary.fail_next(0);
        reg.set_virtual_time_ns(10_000);
        assert_eq!(adal.drain_journal("anka"), 2);
        assert_eq!(reg.counter_value(names::ADAL_BREAKER_TRANSITIONS_TOTAL, &[("project", "anka"), ("to", "half_open")]), 1);
        assert_eq!(reg.counter_value(names::ADAL_BREAKER_TRANSITIONS_TOTAL, &[("project", "anka"), ("to", "closed")]), 1);
        assert_eq!(reg.gauge_value(names::ADAL_JOURNAL_DEPTH, &p), 0);
        let h = adal.health("anka").unwrap();
        assert_eq!(h.breaker, BreakerState::Closed);
        assert_eq!(h.journal_depth, 0);
        // Journaled writes landed on the primary itself.
        assert!(primary.inner.stat(&TraceCtx::disabled(), "b").is_ok());
        assert!(primary.inner.stat(&TraceCtx::disabled(), "c").is_ok());
        assert_eq!(adal.get(&cred, "lsdf://anka/b").unwrap(), b("bb"));
    }

    #[test]
    fn open_breaker_read_without_replica_is_unavailable() {
        let auth = Arc::new(TokenAuth::new());
        auth.register("tok", "garcia");
        let acl = Arc::new(Acl::new());
        acl.grant("garcia", "anka", true);
        let reg = Arc::new(Registry::new());
        reg.set_virtual_time_ns(1);
        let adal = Adal::builder().auth(auth).acl(acl).registry(reg).build();
        let primary = ScriptedBackend::new("p4");
        let cfg = ResilienceConfig {
            retry: RetryPolicy::new(2, 100, 1_000, 0),
            breaker: BreakerConfig {
                window: 4,
                min_calls: 2,
                failure_rate: 0.5,
                cooldown_ns: 1_000,
                half_open_probes: 1,
            },
            ..ResilienceConfig::default()
        };
        adal.mount_resilient("anka", primary.clone(), None, cfg);
        let cred = Credential::Token("tok".into());
        primary.fail_next(u64::MAX / 2);
        // Acked into the journal even with no replica.
        adal.put(&cred, "lsdf://anka/k", b("v")).unwrap();
        // Journaled key still readable; anything else is honestly down.
        assert_eq!(adal.get(&cred, "lsdf://anka/k").unwrap(), b("v"));
        assert!(matches!(
            adal.get(&cred, "lsdf://anka/other"),
            Err(AdalError::Backend(BackendError::Unavailable(_)))
        ));
    }

    #[test]
    fn delete_cancels_journaled_write() {
        let (adal, cred, primary, _) = resilient_setup("p5");
        primary.fail_next(u64::MAX / 2);
        adal.put(&cred, "lsdf://anka/tmp", b("t")).unwrap();
        assert_eq!(adal.health("anka").unwrap().journal_depth, 1);
        adal.delete(&cred, "lsdf://anka/tmp").unwrap();
        assert_eq!(adal.health("anka").unwrap().journal_depth, 0);
        // Nothing to drain once healed.
        primary.fail_next(0);
        adal.obs().set_virtual_time_ns(10_000);
        assert_eq!(adal.drain_journal("anka"), 0);
        assert!(primary.inner.stat(&TraceCtx::disabled(), "tmp").is_err());
    }

    #[test]
    fn an_acked_write_stays_readable_while_it_drains() {
        let (adal, cred, primary, _) = resilient_setup("p6");
        // Outage: the write is acknowledged into the journal.
        primary.fail_next(u64::MAX / 2);
        adal.put(&cred, "lsdf://anka/k", b("payload")).unwrap();
        assert_eq!(adal.health("anka").unwrap().journal_depth, 1);
        // Healed, cooled down — and the drain's landing put parks inside
        // the primary, the entry neither landed nor given up.
        primary.fail_next(0);
        adal.obs().set_virtual_time_ns(10_000);
        let (entered, parked) = mpsc::channel();
        let (release, released) = mpsc::channel();
        *primary.park.lock() = Some((entered, released));
        let (read, meta, rewrite, drained) = std::thread::scope(|s| {
            let drainer = s.spawn(|| adal.drain_journal("anka"));
            let reached = parked.recv_timeout(Duration::from_secs(30));
            let seen = (
                adal.get(&cred, "lsdf://anka/k"),
                adal.stat(&cred, "lsdf://anka/k"),
                adal.put(&cred, "lsdf://anka/k", b("usurper")),
            );
            let _ = release.send(());
            reached.expect("the drain never reached primary.put");
            (seen.0, seen.1, seen.2, drainer.join().expect("drainer panicked"))
        });
        assert_eq!(read, Ok(b("payload")));
        assert_eq!(meta.map(|m| m.size), Ok(7));
        assert!(
            matches!(rewrite, Err(AdalError::Backend(BackendError::AlreadyExists(_)))),
            "{rewrite:?}"
        );
        // Landed once, counted once, and it is the acknowledged bytes.
        assert_eq!(drained, 1);
        let p = [("project", "anka")];
        assert_eq!(adal.obs().counter_value(names::ADAL_JOURNAL_DRAINED_TOTAL, &p), 1);
        assert_eq!(adal.obs().counter_value(names::ADAL_JOURNAL_CONFLICTS_TOTAL, &p), 0);
        assert_eq!(adal.obs().gauge_value(names::ADAL_JOURNAL_DEPTH, &p), 0);
        let landed = primary.inner.get(&TraceCtx::disabled(), "k").unwrap();
        assert_eq!(landed.into_bytes(), b("payload"));
        assert_eq!(adal.get(&cred, "lsdf://anka/k").unwrap(), b("payload"));
    }

    #[test]
    fn a_resilient_dfs_put_is_a_batch_of_one() {
        use crate::backend::DfsBackend;
        use lsdf_dfs::{ClusterTopology, Dfs, DfsConfig};
        use lsdf_obs::{SpanRecord, TraceConfig, Tracer};
        // The decorator has no staged protocol, so over a DFS primary
        // both the single put and the staged one must reach the DFS
        // through `ResilientBackend::put`, under the same spans.
        let twin = |resilient: bool| {
            let auth = Arc::new(TokenAuth::new());
            auth.register("tok", "garcia");
            let acl = Arc::new(Acl::new());
            acl.grant("garcia", "anka", true);
            let reg = Arc::new(Registry::new());
            reg.set_virtual_time_ns(1);
            let tracer = Tracer::new(&reg, TraceConfig::full());
            let adal = Adal::builder().auth(auth).acl(acl).registry(reg).tracer(tracer.clone()).build();
            let cfg = DfsConfig { block_size: 64, replication: 2, ..DfsConfig::default() };
            let dfs = Arc::new(Dfs::new(ClusterTopology::new(1, 3), cfg));
            let backend = Arc::new(DfsBackend::new(dfs.clone()));
            if resilient {
                adal.mount_resilient("anka", backend, None, ResilienceConfig::default());
            } else {
                adal.mount("anka", backend);
            }
            (adal, tracer, dfs)
        };
        let (single, batched, plain) = (twin(true), twin(true), twin(false));
        let cred = Credential::Token("tok".into());
        for key in ["run/f1", "run/f2"] {
            let path = format!("lsdf://anka/{key}");
            let data = b(&"x".repeat(100));
            single.0.put(&cred, &path, data.clone()).unwrap();
            plain.0.put(&cred, &path, data.clone()).unwrap();
            let staged = batched
                .0
                .put_stage_traced(&TraceCtx::disabled(), &cred, &path, data)
                .unwrap();
            assert_eq!(batched.0.commit_staged(vec![staged]), [Ok(())]);
        }
        assert_eq!(single.2.namespace_digest(), batched.2.namespace_digest());
        assert_eq!(single.2.namespace_digest(), plain.2.namespace_digest());
        fn shape(span: &SpanRecord) -> String {
            let children: Vec<String> = span.children.iter().map(shape).collect();
            format!("{}[{}]", span.name, children.join(","))
        }
        let shapes = |tracer: &Tracer| -> Vec<String> {
            tracer.traces().iter().map(|t| shape(&t.root)).collect()
        };
        assert_eq!(shapes(&single.1), shapes(&batched.1));
        let root = &single.1.traces()[0].root;
        assert_eq!(root.name, names::ADAL_PUT_SPAN);
        assert_eq!(root.children[0].name, names::ADAL_PRIMARY_PUT_SPAN);
        assert_eq!(root.children[0].children[0].name, names::ADAL_ATTEMPT_SPAN);
    }

    #[test]
    fn traced_put_records_attempts_and_retry_events() {
        use lsdf_obs::{TraceConfig, Tracer};
        let auth = Arc::new(TokenAuth::new());
        auth.register("tok", "garcia");
        let acl = Arc::new(Acl::new());
        acl.grant("garcia", "anka", true);
        let reg = Arc::new(Registry::new());
        reg.set_virtual_time_ns(1);
        let tracer = Tracer::new(&reg, TraceConfig::full());
        let adal = Adal::builder()
            .auth(auth)
            .acl(acl)
            .registry(reg.clone())
            .tracer(tracer.clone())
            .build();
        let primary = ScriptedBackend::new("tp");
        let replica: Arc<dyn StorageBackend> = Arc::new(ObjectStoreBackend::new(Arc::new(
            ObjectStore::new("replica-t", u64::MAX),
        )));
        let cfg = ResilienceConfig {
            retry: RetryPolicy::new(3, 100, 1_000, 0),
            ..ResilienceConfig::default()
        };
        adal.mount_resilient("anka", primary.clone(), Some(replica), cfg);
        let cred = Credential::Token("tok".into());
        primary.fail_next(1);
        adal.put(&cred, "lsdf://anka/k1", b("payload")).unwrap();
        let traces = tracer.traces();
        assert_eq!(traces.len(), 1);
        let root = &traces[0].root;
        assert_eq!(root.name, names::ADAL_PUT_SPAN);
        // Both fan-out legs were reserved serially, in a fixed order.
        assert_eq!(root.children[0].name, names::ADAL_PRIMARY_PUT_SPAN);
        assert_eq!(root.children[1].name, names::ADAL_REPLICA_PUT_SPAN);
        // The transient fault cost one extra attempt and one retry event.
        let attempts = root.children[0]
            .children
            .iter()
            .filter(|c| c.name == names::ADAL_ATTEMPT_SPAN)
            .count();
        assert_eq!(attempts, 2);
        let mut retries = 0;
        root.for_each_event(&mut |_, e| {
            if e.name == names::ADAL_RETRY_EVENT {
                retries += 1;
            }
        });
        assert_eq!(retries, 1);
        assert_eq!(
            reg.counter_value(names::ADAL_RETRIES_TOTAL, &[("project", "anka")]),
            1
        );
    }

    #[test]
    fn health_covers_plain_mounts_too() {
        let (adal, _) = setup();
        let h = adal.health("zebrafish").unwrap();
        assert_eq!(h.breaker, BreakerState::Closed);
        assert_eq!(h.journal_depth, 0);
        assert!(!h.has_replica);
        assert!(adal.health("nope").is_none());
        assert_eq!(adal.health_report().len(), 2);
    }
}
