//! The ADAL itself: a registry mapping project mounts to backends, with
//! authentication, authorization and operation accounting on every call.
//!
//! Accounting goes through the `lsdf-obs` registry: each operation
//! bumps `adal_ops_total{op=..}` (plus a per-project
//! `adal_project_ops_total{project=..,op=..}` breakdown) and records
//! its latency into `adal_op_latency_ns{op=..}`; rejected requests
//! count in `adal_denied_total`.
//!
//! Projects mounted with [`Adal::mount_resilient`] additionally get the
//! failure handling a 24/7 ingest facility needs:
//!
//! * transient backend errors are retried under a [`RetryPolicy`]
//!   (bounded exponential backoff, jitter from a deterministic stream);
//! * a per-project [`CircuitBreaker`] stops hammering a failing
//!   backend and probes it half-open after a cool-down;
//! * while the breaker is open, reads fail over to an optional replica
//!   backend and writes are acknowledged into a bounded [`RedoJournal`]
//!   that drains back to the primary on recovery;
//! * every put can be read back and checksum-verified (torn-write
//!   detection via `lsdf_storage::checksum`).
//!
//! All of it is observable: `adal_retries_total`,
//! `adal_breaker_transitions_total{to=..}`, `adal_failover_reads_total`,
//! `adal_journal_depth` and friends land in the shared registry, and
//! [`Adal::health`] assembles a per-project [`HealthReport`].

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use lsdf_obs::{Counter, Gauge, Histogram, Registry, Span, TraceCtx, Tracer};
use lsdf_pool::WorkerPool;
use lsdf_sim::SimRng;
use lsdf_storage::Payload;
use lsdf_sync::{ranks, OrderedMutex, OrderedRwLock};

use crate::auth::{Access, Acl, AuthError, AuthProvider, Credential, TokenAuth};
use crate::backend::{missing_commit_result, BackendError, EntryMeta, StagedPut, StorageBackend};
use crate::path::{LsdfPath, PathError};
use lsdf_obs::names;

use crate::resilience::{
    BreakerState, BreakerTransition, CircuitBreaker, HealthReport, RedoJournal,
    ResilienceConfig, RetryPolicy,
};

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

/// The operation kinds [`Adal::classify`] understands — the same set
/// the per-op counters track, as a type instead of a string.
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
}

/// How the multi-tenant front door should treat a request, derived
/// from the operation and the backend serving the project. The
/// admission layer maps each class onto a QoS lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Latency-sensitive read-side traffic (`get`/`stat`/`list`).
    InteractiveRead,
    /// Throughput-bound write-side traffic (`put`/`delete`).
    BulkWrite,
    /// Read-side traffic on an HSM mount, where a cold read winds tape.
    TapeRecall,
}

/// Cached registry handles for the hot path — resolved once at
/// construction so operations only touch atomics.
struct OpMetrics {
    puts: Counter,
    gets: Counter,
    stats: Counter,
    lists: Counter,
    deletes: Counter,
    denied: Counter,
    put_latency: Histogram,
    get_latency: Histogram,
    stat_latency: Histogram,
    list_latency: Histogram,
    put_bytes: Histogram,
    get_bytes: Histogram,
}

impl OpMetrics {
    fn new(reg: &Registry) -> Self {
        let op_counter = |op| reg.counter(names::ADAL_OPS_TOTAL, &[("op", op)]);
        let op_latency = |op| reg.histogram(names::ADAL_OP_LATENCY_NS, &[("op", op)]);
        OpMetrics {
            puts: op_counter("put"),
            gets: op_counter("get"),
            stats: op_counter("stat"),
            lists: op_counter("list"),
            deletes: op_counter("delete"),
            denied: reg.counter(names::ADAL_DENIED_TOTAL, &[]),
            put_latency: op_latency("put"),
            get_latency: op_latency("get"),
            stat_latency: op_latency("stat"),
            list_latency: op_latency("list"),
            put_bytes: reg.histogram(names::ADAL_PUT_BYTES, &[]),
            get_bytes: reg.histogram(names::ADAL_GET_BYTES, &[]),
        }
    }
}

/// Cached per-project registry handles for the resilience machinery.
struct ResilienceMetrics {
    retries: Counter,
    transient_observed: Counter,
    retry_exhausted: Counter,
    failover_reads: Counter,
    journal_enqueued: Counter,
    journal_drained: Counter,
    journal_conflicts: Counter,
    verify_failures: Counter,
    replica_write_failures: Counter,
    breaker_to_open: Counter,
    breaker_to_half_open: Counter,
    breaker_to_closed: Counter,
    breaker_state: Gauge,
    journal_depth: Gauge,
    journal_bytes: Gauge,
    backoff_ns: Histogram,
}

impl ResilienceMetrics {
    fn new(reg: &Registry, project: &str) -> Self {
        let labels: [(&str, &str); 1] = [("project", project)];
        let transition =
            |to| reg.counter(names::ADAL_BREAKER_TRANSITIONS_TOTAL, &[("project", project), ("to", to)]);
        ResilienceMetrics {
            retries: reg.counter(names::ADAL_RETRIES_TOTAL, &labels),
            transient_observed: reg.counter(names::ADAL_TRANSIENT_OBSERVED_TOTAL, &labels),
            retry_exhausted: reg.counter(names::ADAL_RETRY_EXHAUSTED_TOTAL, &labels),
            failover_reads: reg.counter(names::ADAL_FAILOVER_READS_TOTAL, &labels),
            journal_enqueued: reg.counter(names::ADAL_JOURNAL_ENQUEUED_TOTAL, &labels),
            journal_drained: reg.counter(names::ADAL_JOURNAL_DRAINED_TOTAL, &labels),
            journal_conflicts: reg.counter(names::ADAL_JOURNAL_CONFLICTS_TOTAL, &labels),
            verify_failures: reg.counter(names::ADAL_WRITE_VERIFY_FAILURES_TOTAL, &labels),
            replica_write_failures: reg.counter(names::ADAL_REPLICA_WRITE_FAILURES_TOTAL, &labels),
            breaker_to_open: transition("open"),
            breaker_to_half_open: transition("half_open"),
            breaker_to_closed: transition("closed"),
            breaker_state: reg.gauge(names::ADAL_BREAKER_STATE, &labels),
            journal_depth: reg.gauge(names::ADAL_JOURNAL_DEPTH, &labels),
            journal_bytes: reg.gauge(names::ADAL_JOURNAL_BYTES, &labels),
            backoff_ns: reg.histogram(names::ADAL_RETRY_BACKOFF_NS, &labels),
        }
    }
}

/// Resilience state attached to a mount by [`Adal::mount_resilient`].
struct ResilientState {
    replica: Option<Arc<dyn StorageBackend>>,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    journal: RedoJournal,
    verify_writes: bool,
    rng: OrderedMutex<SimRng>,
    metrics: ResilienceMetrics,
}

impl ResilientState {
    /// Publishes a breaker transition to counters, the state gauge, the
    /// event ring, and — when a trace is live — the causal trace.
    fn note_transition(&self, obs: &Registry, ctx: &TraceCtx, project: &str, t: BreakerTransition) {
        match t.to {
            BreakerState::Open => self.metrics.breaker_to_open.inc(),
            BreakerState::HalfOpen => self.metrics.breaker_to_half_open.inc(),
            BreakerState::Closed => self.metrics.breaker_to_closed.inc(),
        }
        self.metrics.breaker_state.set(t.to.as_gauge());
        ctx.event(
            names::ADAL_BREAKER_TRANSITION_EVENT,
            &[("project", project), ("from", t.from.name()), ("to", t.to.name())],
        );
        obs.event(
            names::ADAL_BREAKER_LOG_EVENT,
            &[("project", project), ("from", t.from.name()), ("to", t.to.name())],
        );
    }

    /// Asks the breaker for permission to call the primary.
    fn acquire(&self, obs: &Registry, ctx: &TraceCtx, project: &str) -> bool {
        let (ok, t) = self.breaker.try_acquire(obs.now_ns());
        if let Some(t) = t {
            self.note_transition(obs, ctx, project, t);
        }
        ok
    }

    /// Records a call outcome in the breaker.
    fn record(&self, obs: &Registry, ctx: &TraceCtx, project: &str, success: bool) {
        if let Some(t) = self.breaker.record(obs.now_ns(), success) {
            self.note_transition(obs, ctx, project, t);
        }
    }

    /// Mirrors the journal bounds into the depth/bytes gauges.
    fn sync_journal_gauges(&self) {
        self.metrics.journal_depth.set(self.journal.depth() as i64);
        self.metrics.journal_bytes.set(self.journal.bytes() as i64);
    }

    /// Runs `call` under the retry policy: transient errors are retried
    /// with recorded (not slept) backoff until the attempt budget is
    /// spent or the breaker leaves the closed state; deterministic
    /// errors return immediately and count as backend-healthy.
    ///
    /// Each attempt runs inside its own `adal_attempt` child span of
    /// `ctx`; retries and exhaustion are mirrored onto the trace as
    /// events next to their counters.
    ///
    /// Counter identity, asserted by the chaos soak:
    /// `adal_transient_observed_total ==
    ///  adal_retries_total + adal_retry_exhausted_total`.
    fn with_retries<T>(
        &self,
        obs: &Registry,
        ctx: &TraceCtx,
        project: &str,
        mut call: impl FnMut(&TraceCtx) -> Result<T, BackendError>,
    ) -> Result<T, BackendError> {
        let mut attempt: u32 = 0;
        loop {
            let attempt_span = ctx.child(names::ADAL_ATTEMPT_SPAN);
            if attempt_span.is_enabled() {
                attempt_span.add_field("attempt", &attempt.to_string());
            }
            let out = call(&attempt_span);
            attempt_span.finish();
            match out {
                Ok(v) => {
                    self.record(obs, ctx, project, true);
                    return Ok(v);
                }
                Err(e) if e.is_transient() => {
                    self.metrics.transient_observed.inc();
                    self.record(obs, ctx, project, false);
                    let out_of_attempts = attempt + 1 >= self.policy.max_attempts;
                    // A breaker our own failures just opened must not be
                    // hammered by the rest of the retry budget.
                    if out_of_attempts || self.breaker.state() == BreakerState::Open {
                        self.metrics.retry_exhausted.inc();
                        ctx.event(names::ADAL_RETRY_EXHAUSTED_EVENT, &[("project", project)]);
                        return Err(e);
                    }
                    let delay = self.policy.delay_ns(attempt, &mut self.rng.lock());
                    self.metrics.backoff_ns.record(delay);
                    self.metrics.retries.inc();
                    if ctx.is_enabled() {
                        ctx.event(
                            names::ADAL_RETRY_EVENT,
                            &[("project", project), ("delay_ns", &delay.to_string())],
                        );
                    }
                    attempt += 1;
                }
                Err(e) => {
                    // The backend answered authoritatively: it is healthy,
                    // the request is just wrong (NotFound, AlreadyExists…).
                    self.record(obs, ctx, project, true);
                    return Err(e);
                }
            }
        }
    }

    /// One put attempt with optional read-back verification. The
    /// read-back is compared against the source payload with
    /// [`Payload::content_eq`] — an identical shared buffer verifies in
    /// O(1), a substituted (torn) buffer fails the byte comparison, and
    /// neither side is hashed. A mismatch removes the bad copy and
    /// reports [`BackendError::Integrity`] so the retry loop redoes the
    /// transfer.
    fn put_verified(
        &self,
        ctx: &TraceCtx,
        backend: &Arc<dyn StorageBackend>,
        key: &str,
        data: &Payload,
    ) -> Result<(), BackendError> {
        // lint: allow(payload_copy) -- Payload handle clone: refcount bump
        backend.put(ctx, key, data.clone())?;
        if !self.verify_writes {
            return Ok(());
        }
        match backend.get(ctx, key) {
            Ok(back) if back.content_eq(data) => Ok(()),
            Ok(_) => {
                self.metrics.verify_failures.inc();
                let _ = backend.delete(ctx, key);
                Err(BackendError::Integrity(format!(
                    "write verification failed for '{key}'"
                )))
            }
            Err(e) => {
                // Could not read our own write back: clean up and let the
                // retry loop redo the transfer.
                let _ = backend.delete(ctx, key);
                if e.is_transient() {
                    Err(e)
                } else {
                    Err(BackendError::Integrity(format!(
                        "write verification read-back failed for '{key}': {e}"
                    )))
                }
            }
        }
    }

    /// Best-effort copy of a successful write onto the replica. The
    /// clone is a refcount bump sharing one payload handle (and its
    /// memoized digest) with the primary copy.
    fn replicate(&self, ctx: &TraceCtx, key: &str, data: &Payload) {
        if let Some(rep) = &self.replica {
            // lint: allow(payload_copy) -- Payload handle clone: refcount bump
            if rep.put(ctx, key, data.clone()).is_err() {
                self.metrics.replica_write_failures.inc();
            }
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

    /// Per-project operation breakdown, labelled by backend kind.
    fn op(&self, reg: &Registry, op: OpKind) {
        self.ops[op as usize]
            .get_or_init(|| {
                reg.counter(
                    names::ADAL_PROJECT_OPS_TOTAL,
                    &[("project", &self.project), ("backend", self.backend), ("op", op.label())],
                )
            })
            .inc();
    }

    /// Per-project latency view — the per-tenant histogram the admission
    /// governor's SLO rules read to find the project breaching its p99.
    fn op_latency(&self, reg: &Registry, dt_ns: u64) {
        self.latency
            .get_or_init(|| {
                reg.histogram(names::ADAL_PROJECT_OP_LATENCY_NS, &[("project", &self.project)])
            })
            .record(dt_ns);
    }
}

/// One project mount: the primary backend plus optional resilience.
#[derive(Clone)]
struct Mount {
    backend: Arc<dyn StorageBackend>,
    resilience: Option<Arc<ResilientState>>,
    metrics: Arc<MountMetrics>,
}

/// A put staged by [`Adal::put_stage_traced`], carrying everything
/// needed to finalize it — the deferred backend commit (if any) plus
/// the latency span and per-project accounting that
/// [`Adal::commit_staged`] completes in batch order. The trace span
/// closes at stage time, while its parent (e.g. a pool task span) is
/// still open — a trace child finishing after its parent is dropped.
pub struct PendingPut {
    backend: Arc<dyn StorageBackend>,
    staged: Option<StagedPut>,
    metrics: Arc<MountMetrics>,
    len: u64,
    span: Span,
}

/// The Abstract Data Access Layer.
pub struct Adal {
    auth: Arc<dyn AuthProvider>,
    acl: Arc<Acl>,
    mounts: OrderedRwLock<HashMap<String, Mount>>,
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

    /// The worker pool used for resilient replica fan-out.
    pub fn pool(&self) -> WorkerPool {
        self.pool
    }

    /// The causal tracer, if one is attached.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Attaches a causal tracer: from here on every operation mints a
    /// root trace (subject to the tracer's sampling mode).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Mints the root trace context for one operation, or a disabled
    /// context when no tracer is attached.
    fn trace_root(&self, name: &'static str, key: &str) -> TraceCtx {
        match &self.tracer {
            Some(t) => t.root(name, key),
            None => TraceCtx::disabled(),
        }
    }

    /// Mounts a backend under a project name. Remounting replaces the
    /// previous backend (used for transparent technology migrations —
    /// slide 6: "transparent access over background storage and
    /// technology changes").
    pub fn mount(&self, project: &str, backend: Arc<dyn StorageBackend>) {
        self.obs.event(
            names::ADAL_MOUNT_LOG_EVENT,
            &[("project", project), ("backend", backend.kind())],
        );
        let mount = Mount {
            metrics: MountMetrics::new(project, backend.kind()),
            backend,
            resilience: None,
        };
        self.mounts.write().insert(project.to_string(), mount);
    }

    /// Mounts a backend with the full resilience stack: retries for
    /// transient errors, a circuit breaker, optional replica failover
    /// for reads, and a redo journal for degraded writes. Successful
    /// writes are also copied to `replica` (best effort), so the
    /// replica can serve reads while the primary's breaker is open.
    ///
    /// Remounting replaces any previous mount for the project; the
    /// resilience state (breaker, journal) starts fresh.
    pub fn mount_resilient(
        &self,
        project: &str,
        primary: Arc<dyn StorageBackend>,
        replica: Option<Arc<dyn StorageBackend>>,
        cfg: ResilienceConfig,
    ) {
        let metrics = ResilienceMetrics::new(&self.obs, project);
        metrics.breaker_state.set(BreakerState::Closed.as_gauge());
        let state = ResilientState {
            replica,
            breaker: CircuitBreaker::new(cfg.breaker),
            journal: RedoJournal::new(cfg.journal_entries, cfg.journal_bytes),
            verify_writes: cfg.verify_writes,
            rng: OrderedMutex::new(
                ranks::ADAL_RETRY_RNG,
                SimRng::seed_from_u64(cfg.seed).stream(project),
            ),
            policy: cfg.retry,
            metrics,
        };
        self.obs.event(
            names::ADAL_MOUNT_LOG_EVENT,
            &[
                ("project", project),
                ("backend", primary.kind()),
                ("mode", "resilient"),
            ],
        );
        let mount = Mount {
            metrics: MountMetrics::new(project, primary.kind()),
            backend: primary,
            resilience: Some(Arc::new(state)),
        };
        self.mounts.write().insert(project.to_string(), mount);
    }

    /// The backend kind currently serving a project.
    pub fn backend_kind(&self, project: &str) -> Option<&'static str> {
        self.mounts.read().get(project).map(|m| m.backend.kind())
    }

    /// Mounted project names, sorted.
    pub fn projects(&self) -> Vec<String> {
        let mut v: Vec<String> = self.mounts.read().keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// Authenticates, authorizes and finds the mount for an object
    /// path; the project and key come back borrowed from `path`.
    fn resolve<'p>(
        &self,
        cred: &Credential,
        path: &'p str,
        access: Access,
    ) -> Result<(Mount, &'p str, &'p str), AdalError> {
        match LsdfPath::split(path)? {
            (_, "") => Err(PathError::EmptyKey(path.to_string()).into()),
            (project, key) => Ok((self.resolve_project(cred, project, access)?, project, key)),
        }
    }

    fn resolve_project(
        &self,
        cred: &Credential,
        project: &str,
        access: Access,
    ) -> Result<Mount, AdalError> {
        let principal = self.auth.authenticate(cred).inspect_err(|_| {
            self.ops.denied.inc();
        })?;
        self.acl.check(&principal, project, access).inspect_err(|_| {
            self.ops.denied.inc();
        })?;
        self.mounts
            .read()
            .get(project)
            .cloned()
            .ok_or_else(|| AdalError::NoMount(project.to_string()))
    }

    /// Classifies an operation into the admission lane it should ride:
    /// read-side ops are interactive unless the project sits on an HSM
    /// mount (where a read may wind tape); write-side ops are bulk.
    pub fn classify(&self, op: OpKind, project: &str) -> RequestClass {
        match op {
            OpKind::Put | OpKind::Delete => RequestClass::BulkWrite,
            OpKind::Get | OpKind::Stat | OpKind::List => {
                if self.backend_kind(project) == Some("hsm") {
                    RequestClass::TapeRecall
                } else {
                    RequestClass::InteractiveRead
                }
            }
        }
    }

    /// Stores an object at `lsdf://project/key`. On a resilient mount
    /// the write is retried through transient faults, verified against
    /// torn writes, and — when the backend is down — acknowledged into
    /// the redo journal for later draining.
    ///
    /// A single put is a batch of one: [`Adal::put_stage_traced`] under
    /// a new root span, then [`Adal::commit_staged`].
    pub fn put(
        &self,
        cred: &Credential,
        path: &str,
        data: impl Into<Payload>,
    ) -> Result<(), AdalError> {
        let staged = self.put_stage_traced(&TraceCtx::disabled(), cred, path, data)?;
        self.commit_staged(vec![staged])
            .pop()
            .unwrap_or_else(|| Err(missing_commit_result().into()))
    }

    /// Stages a put for a later batched commit: resolution, admission
    /// of resilient writes, and block placement happen now (safely in a
    /// pool worker); the metadata commit that serialises on shared
    /// state is deferred to [`Adal::commit_staged`]. A write staged
    /// here is **not** acknowledgeable until its commit returns Ok.
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
        let trace = if parent.is_enabled() {
            let t = parent.child(names::ADAL_PUT_SPAN);
            t.add_field("path", path);
            t
        } else {
            self.trace_root(names::ADAL_PUT_SPAN, path)
        };
        let span = self.obs.span(&self.ops.put_latency);
        let (mount, project, key) = self.resolve(cred, path, Access::Write)?;
        let data = data.into();
        let len = data.len() as u64;
        let staged = match &mount.resilience {
            // The resilient path commits (or journals) eagerly: its
            // fan-out, retries, and journaling are self-contained and
            // its ack point is unchanged.
            Some(st) => {
                self.resilient_put(
                    &trace,
                    st,
                    &mount.backend,
                    project,
                    key,
                    data,
                )?;
                None
            }
            None => Some(mount.backend.stage_put(&trace, key, data)?),
        };
        trace.finish();
        Ok(PendingPut {
            backend: mount.backend,
            staged,
            metrics: mount.metrics,
            len,
            span,
        })
    }

    /// Commits a batch of staged puts, grouping them per backend so a
    /// whole N-file batch pays one namenode lock and one WAL group
    /// commit. Results are in batch order; per-put success metrics and
    /// spans are finalized here, serially, in batch order.
    pub fn commit_staged(&self, pending: Vec<PendingPut>) -> Vec<Result<(), AdalError>> {
        let mut outcomes: Vec<Option<Result<(), BackendError>>> =
            pending.iter().map(|_| None).collect();
        let mut finalize = Vec::with_capacity(pending.len());
        // Group deferred commits by backend instance, preserving order.
        type CommitGroup = (Arc<dyn StorageBackend>, Vec<usize>, Vec<StagedPut>);
        let mut groups: Vec<CommitGroup> = Vec::new();
        for (i, p) in pending.into_iter().enumerate() {
            match p.staged {
                None => outcomes[i] = Some(Ok(())),
                Some(s) => {
                    if let Some((_, idxs, batch)) = groups
                        .iter_mut()
                        .find(|(b, _, _)| Arc::ptr_eq(b, &p.backend))
                    {
                        idxs.push(i);
                        batch.push(s);
                    } else {
                        groups.push((p.backend.clone(), vec![i], vec![s]));
                    }
                }
            }
            finalize.push((p.metrics, p.len, p.span));
        }
        for (backend, idxs, batch) in groups {
            for (i, r) in idxs.into_iter().zip(backend.commit_staged(batch)) {
                outcomes[i] = Some(r);
            }
        }
        outcomes
            .into_iter()
            .zip(finalize)
            .map(|(outcome, (metrics, len, span))| {
                match outcome.unwrap_or_else(|| Err(missing_commit_result())) {
                    Ok(()) => {
                        self.ops.puts.inc();
                        self.ops.put_bytes.record(len);
                        metrics.op(&self.obs, OpKind::Put);
                        let dt = span.finish();
                        metrics.op_latency(&self.obs, dt);
                        Ok(())
                    }
                    Err(e) => Err(AdalError::Backend(e)),
                }
            })
            .collect()
    }

    /// Fetches an object. On a resilient mount, journaled writes are
    /// readable immediately (read-your-writes), transient faults are
    /// retried, and an open breaker fails the read over to the replica.
    pub fn get(&self, cred: &Credential, path: &str) -> Result<Bytes, AdalError> {
        let trace = self.trace_root(names::ADAL_GET_SPAN, path);
        let span = self.obs.span(&self.ops.get_latency);
        let (mount, project, key) = self.resolve(cred, path, Access::Read)?;
        let data = match &mount.resilience {
            Some(st) => self.resilient_get(
                &trace,
                st,
                &mount.backend,
                project,
                key,
            )?,
            None => mount.backend.get(&trace, key)?,
        }
        .into_bytes();
        self.ops.gets.inc();
        self.ops.get_bytes.record(data.len() as u64);
        mount.metrics.op(&self.obs, OpKind::Get);
        let dt = span.finish();
        mount.metrics.op_latency(&self.obs, dt);
        trace.finish();
        Ok(data)
    }

    /// Metadata for an object (degrades like [`Adal::get`]).
    pub fn stat(&self, cred: &Credential, path: &str) -> Result<EntryMeta, AdalError> {
        let trace = self.trace_root(names::ADAL_STAT_SPAN, path);
        let span = self.obs.span(&self.ops.stat_latency);
        let (mount, project, key) = self.resolve(cred, path, Access::Read)?;
        let meta = match &mount.resilience {
            Some(st) => self.resilient_stat(
                &trace,
                st,
                &mount.backend,
                project,
                key,
            )?,
            None => mount.backend.stat(&trace, key)?,
        };
        self.ops.stats.inc();
        mount.metrics.op(&self.obs, OpKind::Stat);
        let dt = span.finish();
        mount.metrics.op_latency(&self.obs, dt);
        trace.finish();
        Ok(meta)
    }

    /// Lists keys under `lsdf://project/prefix` (the prefix may be empty
    /// to list a whole project). Backend listing failures surface as
    /// [`AdalError::Backend`]. On a resilient mount the listing merges
    /// journaled (acknowledged but not yet landed) writes.
    pub fn list(&self, cred: &Credential, path: &str) -> Result<Vec<EntryMeta>, AdalError> {
        let trace = self.trace_root(names::ADAL_LIST_SPAN, path);
        let span = self.obs.span(&self.ops.list_latency);
        let (project, key) = LsdfPath::split(path)?;
        let mount = self.resolve_project(cred, project, Access::Read)?;
        let entries = match &mount.resilience {
            Some(st) => self.resilient_list(
                &trace,
                st,
                &mount.backend,
                project,
                key,
            )?,
            None => mount.backend.list(&trace, key)?,
        };
        self.ops.lists.inc();
        mount.metrics.op(&self.obs, OpKind::List);
        let dt = span.finish();
        mount.metrics.op_latency(&self.obs, dt);
        trace.finish();
        Ok(entries)
    }

    /// Deletes an object (requires write access). On a resilient mount a
    /// delete first cancels any journaled write for the key.
    pub fn delete(&self, cred: &Credential, path: &str) -> Result<(), AdalError> {
        let trace = self.trace_root(names::ADAL_DELETE_SPAN, path);
        let (mount, project, key) = self.resolve(cred, path, Access::Write)?;
        match &mount.resilience {
            Some(st) => self.resilient_delete(
                &trace,
                st,
                &mount.backend,
                project,
                key,
            )?,
            None => mount.backend.delete(&trace, key)?,
        }
        self.ops.deletes.inc();
        mount.metrics.op(&self.obs, OpKind::Delete);
        trace.finish();
        Ok(())
    }

    // ----- resilient operation paths -------------------------------------

    fn resilient_put(
        &self,
        ctx: &TraceCtx,
        st: &ResilientState,
        backend: &Arc<dyn StorageBackend>,
        project: &str,
        key: &str,
        data: Payload,
    ) -> Result<(), BackendError> {
        // Write-once applies to acknowledged-but-unlanded writes too.
        if st.journal.lookup(key).is_some() {
            return Err(BackendError::AlreadyExists(key.to_string()));
        }
        if !st.acquire(&self.obs, ctx, project) {
            return self.journal_put(ctx, st, project, key, data);
        }
        // No hashing here: read-back verification compares payload
        // content directly, and the catalog/object-store digest is
        // memoized on the shared handle.
        // Both legs' child spans are reserved here, serially and in a
        // fixed order, BEFORE any parallel hand-off: the trace tree is
        // therefore identical at every worker count.
        let primary_ctx = ctx.child(names::ADAL_PRIMARY_PUT_SPAN);
        let replica_ctx = if st.replica.is_some() {
            ctx.child(names::ADAL_REPLICA_PUT_SPAN)
        } else {
            TraceCtx::disabled()
        };
        let primary = match (&st.replica, self.pool.is_parallel()) {
            // Parallel fan-out: the replica leg shares the payload
            // handle (refcount bump, shared digest cell) and streams
            // concurrently with the primary's verified write.
            (Some(rep), true) => {
                let (primary, replica) = self.pool.join(
                    || {
                        let out = st.with_retries(&self.obs, &primary_ctx, project, |actx| {
                            st.put_verified(actx, backend, key, &data)
                        });
                        primary_ctx.finish();
                        out
                    },
                    || {
                        // lint: allow(payload_copy) -- Payload handle clone: refcount bump
                        let out = rep.put(&replica_ctx, key, data.clone());
                        replica_ctx.finish();
                        out
                    },
                );
                match (&primary, replica) {
                    // Same best-effort accounting as the serial
                    // replicate() path.
                    (Ok(()), Err(_)) => st.metrics.replica_write_failures.inc(),
                    // The primary write failed: withdraw the speculative
                    // replica copy so failover reads and the journal's
                    // replica-side write-once check cannot observe an
                    // unacknowledged write.
                    (Err(_), Ok(())) => {
                        let _ = rep.delete(ctx, key);
                    }
                    _ => {}
                }
                primary
            }
            _ => {
                let out = st.with_retries(&self.obs, &primary_ctx, project, |actx| {
                    st.put_verified(actx, backend, key, &data)
                });
                primary_ctx.finish();
                if out.is_ok() {
                    st.replicate(&replica_ctx, key, &data);
                }
                replica_ctx.finish();
                out
            }
        };
        match primary {
            Ok(()) => {
                self.drain_step(ctx, st, backend, project);
                Ok(())
            }
            // Retry budget spent on transient faults (or the breaker
            // opened): degrade to the journal rather than bounce the
            // experiment's data.
            Err(e) if e.is_transient() => self.journal_put(ctx, st, project, key, data),
            Err(e) => Err(e),
        }
    }

    /// Acknowledges a write into the redo journal (degraded-write path).
    fn journal_put(
        &self,
        ctx: &TraceCtx,
        st: &ResilientState,
        project: &str,
        key: &str,
        data: Payload,
    ) -> Result<(), BackendError> {
        // The primary cannot be asked whether the key exists, but the
        // replica holds a copy of every landed write: honour write-once
        // as far as it can be checked (`stat`, not `exists`: it takes
        // the ctx, so a fault injected on this probe is traced).
        if let Some(rep) = &st.replica {
            if rep.stat(ctx, key).is_ok() {
                return Err(BackendError::AlreadyExists(key.to_string()));
            }
        }
        if st.journal.push(key, data) {
            st.metrics.journal_enqueued.inc();
            st.sync_journal_gauges();
            ctx.event(
                names::ADAL_JOURNAL_ENQUEUE_EVENT,
                &[("project", project), ("key", key)],
            );
            self.obs
                .event(names::ADAL_JOURNAL_ENQUEUE_EVENT, &[("project", project), ("key", key)]);
            Ok(())
        } else {
            // A full journal must NOT acknowledge: that would risk data
            // loss the caller never hears about.
            Err(BackendError::NoSpace(format!(
                "redo journal for '{project}' is full"
            )))
        }
    }

    fn resilient_get(
        &self,
        ctx: &TraceCtx,
        st: &ResilientState,
        backend: &Arc<dyn StorageBackend>,
        project: &str,
        key: &str,
    ) -> Result<Payload, BackendError> {
        // Read-your-writes for journaled, acknowledged writes.
        if let Some(data) = st.journal.lookup(key) {
            return Ok(data);
        }
        if st.acquire(&self.obs, ctx, project) {
            match st.with_retries(&self.obs, ctx, project, |actx| backend.get(actx, key)) {
                Ok(data) => {
                    self.drain_step(ctx, st, backend, project);
                    return Ok(data);
                }
                Err(e) if e.is_transient() => { /* fall over to the replica */ }
                Err(e) => return Err(e),
            }
        }
        self.failover_read(ctx, st, project, key, |rep| rep.get(ctx, key))
    }

    fn resilient_stat(
        &self,
        ctx: &TraceCtx,
        st: &ResilientState,
        backend: &Arc<dyn StorageBackend>,
        project: &str,
        key: &str,
    ) -> Result<EntryMeta, BackendError> {
        if let Some(data) = st.journal.lookup(key) {
            return Ok(EntryMeta {
                key: key.to_string(),
                size: data.len() as u64,
            });
        }
        if st.acquire(&self.obs, ctx, project) {
            match st.with_retries(&self.obs, ctx, project, |actx| backend.stat(actx, key)) {
                Ok(meta) => return Ok(meta),
                Err(e) if e.is_transient() => {}
                Err(e) => return Err(e),
            }
        }
        self.failover_read(ctx, st, project, key, |rep| rep.stat(ctx, key))
    }

    fn resilient_list(
        &self,
        ctx: &TraceCtx,
        st: &ResilientState,
        backend: &Arc<dyn StorageBackend>,
        project: &str,
        prefix: &str,
    ) -> Result<Vec<EntryMeta>, BackendError> {
        let landed = if st.acquire(&self.obs, ctx, project) {
            match st.with_retries(&self.obs, ctx, project, |actx| {
                backend.list(actx, prefix)
            }) {
                Ok(entries) => Ok(entries),
                Err(e) if e.is_transient() => {
                    self.failover_read(ctx, st, project, prefix, |rep| rep.list(ctx, prefix))
                }
                Err(e) => Err(e),
            }
        } else {
            self.failover_read(ctx, st, project, prefix, |rep| rep.list(ctx, prefix))
        }?;
        // Merge acknowledged journal entries; the journal wins on key
        // collisions (it is the newer acknowledged state).
        let mut out: Vec<EntryMeta> = st
            .journal
            .entries_under(prefix)
            .into_iter()
            .map(|(key, size)| EntryMeta { key, size })
            .collect();
        let journaled: std::collections::HashSet<String> =
            out.iter().map(|e| e.key.clone()).collect();
        out.extend(landed.into_iter().filter(|e| !journaled.contains(&e.key)));
        out.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(out)
    }

    fn resilient_delete(
        &self,
        ctx: &TraceCtx,
        st: &ResilientState,
        backend: &Arc<dyn StorageBackend>,
        project: &str,
        key: &str,
    ) -> Result<(), BackendError> {
        // A journaled write never reached the primary or the replica:
        // cancelling it completes the delete.
        if st.journal.remove(key).is_some() {
            st.sync_journal_gauges();
            return Ok(());
        }
        if !st.acquire(&self.obs, ctx, project) {
            return Err(BackendError::Unavailable(format!(
                "backend for '{project}' is cooling down (breaker open)"
            )));
        }
        st.with_retries(&self.obs, ctx, project, |actx| {
            backend.delete(actx, key)
        })?;
        if let Some(rep) = &st.replica {
            // Best effort: the replica copy may or may not exist.
            let _ = rep.delete(ctx, key);
        }
        self.drain_step(ctx, st, backend, project);
        Ok(())
    }

    /// Serves a read from the replica, counting the failover.
    fn failover_read<T>(
        &self,
        ctx: &TraceCtx,
        st: &ResilientState,
        project: &str,
        key: &str,
        read: impl FnOnce(&Arc<dyn StorageBackend>) -> Result<T, BackendError>,
    ) -> Result<T, BackendError> {
        let Some(rep) = &st.replica else {
            return Err(BackendError::Unavailable(format!(
                "backend for '{project}' is unavailable and no replica is mounted"
            )));
        };
        let out = read(rep)?;
        st.metrics.failover_reads.inc();
        ctx.event(
            names::ADAL_FAILOVER_READ_EVENT,
            &[("project", project), ("key", key)],
        );
        self.obs
            .event(names::ADAL_FAILOVER_READ_EVENT, &[("project", project), ("key", key)]);
        Ok(out)
    }

    /// Drains the redo journal while the breaker allows it. Called after
    /// successful operations and by [`Adal::drain_journal`]; each landed
    /// entry is verified and replicated like a live put.
    fn drain_step(
        &self,
        ctx: &TraceCtx,
        st: &ResilientState,
        backend: &Arc<dyn StorageBackend>,
        project: &str,
    ) -> usize {
        let mut drained = 0;
        loop {
            if st.journal.depth() == 0 || !st.acquire(&self.obs, ctx, project) {
                break;
            }
            let Some((key, data)) = st.journal.pop() else { break };
            // Zero hashes per journal entry: the landing attempt, the
            // conflict comparison, and the repair re-put all compare
            // payload content directly.
            match st.with_retries(&self.obs, ctx, project, |actx| {
                st.put_verified(actx, backend, &key, &data)
            }) {
                Ok(()) => {
                    drained += 1;
                    st.metrics.journal_drained.inc();
                    st.replicate(ctx, &key, &data);
                    self.obs
                        .event(names::ADAL_JOURNAL_DRAIN_LOG_EVENT, &[("project", project), ("key", &key)]);
                }
                Err(BackendError::AlreadyExists(_)) => {
                    // The key landed before the outage. Equal payload:
                    // the drain is a no-op. Different payload: the
                    // journal holds the acknowledged write — repair the
                    // primary (covers torn residue left by a failed
                    // verify cleanup).
                    match backend.get(ctx, &key) {
                        Ok(existing) if existing.content_eq(&data) => {
                            drained += 1;
                            st.metrics.journal_drained.inc();
                        }
                        _ => {
                            st.metrics.journal_conflicts.inc();
                            self.obs.event(
                                names::ADAL_JOURNAL_CONFLICT_LOG_EVENT,
                                &[("project", project), ("key", &key)],
                            );
                            let _ = backend.delete(ctx, &key);
                            match st.with_retries(&self.obs, ctx, project, |actx| {
                                st.put_verified(actx, backend, &key, &data)
                            }) {
                                Ok(()) => {
                                    drained += 1;
                                    st.metrics.journal_drained.inc();
                                    st.replicate(ctx, &key, &data);
                                }
                                Err(_) => {
                                    st.journal.requeue_front(key, data);
                                    st.sync_journal_gauges();
                                    break;
                                }
                            }
                        }
                    }
                }
                // Transient exhaustion or the disk filling up: keep the
                // entry and stop this pass.
                Err(e) if e.is_transient() || matches!(e, BackendError::NoSpace(_)) => {
                    st.journal.requeue_front(key, data);
                    st.sync_journal_gauges();
                    break;
                }
                Err(_) => {
                    // Deterministic refusal (e.g. Unsupported): the entry
                    // can never land — drop it as a conflict rather than
                    // wedge the journal forever.
                    st.metrics.journal_conflicts.inc();
                    self.obs.event(
                        names::ADAL_JOURNAL_CONFLICT_LOG_EVENT,
                        &[("project", project), ("key", &key)],
                    );
                }
            }
        }
        if drained > 0 {
            st.sync_journal_gauges();
        }
        drained
    }

    /// Explicitly drains a project's redo journal (e.g. from a recovery
    /// loop after an outage ends). Returns entries landed. Plain mounts
    /// and unknown projects drain nothing.
    pub fn drain_journal(&self, project: &str) -> usize {
        let mount = { self.mounts.read().get(project).cloned() };
        match mount {
            Some(Mount {
                backend,
                resilience: Some(st),
                ..
            }) => {
                let trace = self.trace_root(names::ADAL_DRAIN_SPAN, project);
                let drained = self.drain_step(&trace, &st, &backend, project);
                if trace.is_enabled() {
                    trace.add_field("drained", &drained.to_string());
                }
                trace.finish();
                drained
            }
            _ => 0,
        }
    }

    /// Point-in-time health of one project's mount. Plain mounts report
    /// a closed breaker and an empty journal.
    pub fn health(&self, project: &str) -> Option<HealthReport> {
        let mount = { self.mounts.read().get(project).cloned() }?;
        Some(match &mount.resilience {
            Some(st) => HealthReport {
                project: project.to_string(),
                backend: mount.backend.kind(),
                breaker: st.breaker.state(),
                failure_rate: st.breaker.failure_rate(),
                has_replica: st.replica.is_some(),
                journal_depth: st.journal.depth(),
                journal_bytes: st.journal.bytes(),
                retries: st.metrics.retries.get(),
                failover_reads: st.metrics.failover_reads.get(),
            },
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
        let (adal, cred) = setup();
        adal.acl.grant("garcia", "katrin", true);
        for i in 0..5 {
            adal.put(&cred, &format!("lsdf://zebrafish/raw/i{i}"), b("px")).unwrap();
        }
        let staged = (0..2)
            .map(|i| {
                adal.put_stage_traced(
                    &TraceCtx::disabled(),
                    &cred,
                    &format!("lsdf://zebrafish/raw/s{i}"),
                    b("px"),
                )
                .unwrap()
            })
            .collect();
        assert!(adal.commit_staged(staged).iter().all(Result::is_ok));
        for _ in 0..3 {
            adal.get(&cred, "lsdf://zebrafish/raw/i0").unwrap();
        }
        adal.put(&cred, "lsdf://katrin/run1", b("ev")).unwrap();
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
        assert_eq!(adal.backend_kind("zebrafish"), Some("object-store"));
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

    use crate::resilience::BreakerConfig;

    /// Test double: an object store whose next N primary calls fail with
    /// a transient error, and whose next M puts are torn (stored
    /// corrupted while still acknowledged).
    struct ScriptedBackend {
        inner: ObjectStoreBackend,
        fail_budget: Mutex<u64>,
        tear_budget: Mutex<u64>,
    }

    impl ScriptedBackend {
        fn new(name: &str) -> Arc<Self> {
            Arc::new(ScriptedBackend {
                inner: ObjectStoreBackend::new(Arc::new(ObjectStore::new(name, u64::MAX))),
                fail_budget: Mutex::new(0),
                tear_budget: Mutex::new(0),
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
        assert!(primary.inner.exists("b"));
        assert!(primary.inner.exists("c"));
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
        assert!(!primary.inner.exists("tmp"));
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
