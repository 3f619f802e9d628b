//! The facility: wiring storage backends, the ADAL, per-project metadata
//! stores and access control into one system, as deployed at KIT.

use std::collections::HashMap;
use std::sync::Arc;

use lsdf_adal::{
    Acl, Adal, Credential, DfsBackend, HsmBackend, ObjectStoreBackend, ResilienceConfig,
    StorageBackend, TokenAuth,
};
use lsdf_admission::{AdmissionController, AdmissionError, Lane, QuotaSpec, Ticket};
use lsdf_dfs::{ClusterTopology, Dfs, DfsConfig};
use lsdf_durability::{ComponentDurability, DurabilityConfig, DurableStore, RecoveryStats};
use lsdf_metadata::{ProjectStore, Schema};
use lsdf_obs::{
    facility_status, names, ConsoleInputs, FacilityHealth, Registry, SloMonitor, SloRule,
    SpanProfile, TelemetryConfig, TelemetryStore, TraceConfig, TraceCtx, Tracer,
};
use lsdf_pool::WorkerPool;
use lsdf_storage::checksum::X16_MIN_LANES;
use lsdf_storage::{sha256_kernel, sha256_many_kernel, Hsm, MigrationPolicy, ObjectStore};

use crate::error::FacilityError;
use crate::ingest::{IngestItem, IngestObs};
use crate::session::ProjectSession;

/// Which storage component backs a project's data.
#[derive(Debug, Clone)]
pub enum BackendChoice {
    /// Plain disk-array object store with the given capacity.
    ObjectStore {
        /// Capacity in bytes.
        capacity: u64,
    },
    /// HSM-tiered store (disk watermarks + tape).
    Hsm {
        /// Disk-tier capacity in bytes.
        disk_capacity: u64,
        /// Demote until usage falls below this fraction.
        low_watermark: f64,
        /// Demote when usage exceeds this fraction.
        high_watermark: f64,
        /// Victim-selection policy.
        policy: MigrationPolicy,
    },
    /// The shared Hadoop-style DFS (analysis data).
    Dfs,
}

/// Declarative description of one tenant project, consumed by
/// [`FacilityBuilder::tenant`]: the metadata schema, the backend
/// serving the data, optional resilience (replica + retry/breaker/
/// journal configuration), the admission [`QuotaSpec`] the front door
/// enforces, and the QoS [`Lane`] the project's bulk traffic rides.
pub struct ProjectSpec {
    schema: Schema,
    backend: BackendChoice,
    resilience: Option<(BackendChoice, ResilienceConfig)>,
    quota: QuotaSpec,
    lane: Lane,
}

impl ProjectSpec {
    /// A plain tenant: `schema` names the project, `backend` serves
    /// its bytes. Defaults: unlimited quota, bulk-ingest lane, no
    /// resilience.
    pub fn new(schema: Schema, backend: BackendChoice) -> Self {
        ProjectSpec {
            schema,
            backend,
            resilience: None,
            quota: QuotaSpec::unlimited(),
            lane: Lane::Bulk,
        }
    }

    /// Mounts the project through the full ADAL resilience stack:
    /// retries, circuit breaker, replica failover reads and a redo
    /// journal (see [`Adal::mount_resilient`]). The replica should be
    /// an independent backend (a [`BackendChoice::Dfs`] replica shares
    /// the facility-wide DFS namespace with any DFS primary).
    pub fn resilient(mut self, replica: BackendChoice, cfg: ResilienceConfig) -> Self {
        self.resilience = Some((replica, cfg));
        self
    }

    /// Installs the admission quota the front door enforces for this
    /// tenant (default: [`QuotaSpec::unlimited`]).
    pub fn quota(mut self, quota: QuotaSpec) -> Self {
        self.quota = quota;
        self
    }

    /// The QoS lane the tenant's bulk (write-side) traffic rides
    /// (default: [`Lane::Bulk`]). Read-side traffic is classified per
    /// request, so this only moves writes.
    pub fn lane(mut self, lane: Lane) -> Self {
        self.lane = lane;
        self
    }

    /// The project name (the schema's name).
    pub fn name(&self) -> &str {
        &self.schema.name
    }
}

/// Builder for a [`Facility`].
pub struct FacilityBuilder {
    projects: Vec<ProjectSpec>,
    cluster: ClusterTopology,
    dfs_config: DfsConfig,
    admin_token: String,
    registry: Option<Arc<Registry>>,
    workers: Option<usize>,
    tracing: Option<TraceConfig>,
    slo_rules: Option<Vec<SloRule>>,
    durability: Option<(DurableStore, DurabilityConfig)>,
    telemetry: Option<TelemetryConfig>,
}

impl FacilityBuilder {
    /// Starts a builder with the paper's 60-node cluster and an
    /// `"admin"` token.
    pub fn new() -> Self {
        FacilityBuilder {
            projects: Vec::new(),
            cluster: ClusterTopology::lsdf(),
            dfs_config: DfsConfig::default(),
            admin_token: "admin-token".to_string(),
            registry: None,
            workers: None,
            tracing: None,
            slo_rules: None,
            durability: None,
            telemetry: None,
        }
    }

    /// Overrides the telemetry store's scrape interval / retention (see
    /// [`TelemetryConfig`]). The store itself is always on: it scrapes
    /// the registry on the virtual clock, keeps the bounded time-series
    /// history that powers windowed SLO rules (`window(N) ...`), and
    /// feeds the sparklines in [`Facility::operator_report`].
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Makes the facility's stateful services (DFS namenode, per-project
    /// metadata stores) crash-durable: every acked mutation is committed
    /// to a per-component WAL in `store` before returning, checkpoints
    /// are taken by [`Facility::run_durability_reconciler`], and any
    /// state already in `store` (a previous incarnation's checkpoint +
    /// WAL) is recovered during [`FacilityBuilder::build`].
    pub fn durability(mut self, store: DurableStore, cfg: DurabilityConfig) -> Self {
        self.durability = Some((store, cfg));
        self
    }

    /// Enables causal tracing: every ADAL operation and batch ingest
    /// mints a trace (subject to `config`'s sampling mode), retrievable
    /// through [`Facility::tracer`].
    pub fn tracing(mut self, config: TraceConfig) -> Self {
        self.tracing = Some(config);
        self
    }

    /// Installs declarative SLO rules evaluated by
    /// [`Facility::facility_health`]. Without this call the facility
    /// monitors the default rule set (see [`SloMonitor::with_defaults`]).
    pub fn slo(mut self, rules: Vec<SloRule>) -> Self {
        self.slo_rules = Some(rules);
        self
    }

    /// Sets the worker-pool width for the parallel data path (batch
    /// ingest fan-out and ADAL replica writes). Defaults to the
    /// `LSDF_WORKERS` environment variable; unset means serial. Results
    /// are bit-identical for every worker count — only wall-clock time
    /// changes.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Supplies an external metrics registry. Every subsystem the builder
    /// assembles (ADAL, DFS, HSM tiers, ingest pipeline) records into it;
    /// by default the facility creates its own.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Adds a tenant project from its declarative [`ProjectSpec`]:
    /// schema, backend, optional resilience, admission quota and QoS
    /// lane, all in one description.
    pub fn tenant(mut self, spec: ProjectSpec) -> Self {
        self.projects.push(spec);
        self
    }

    /// Overrides the compute-cluster shape.
    pub fn cluster(mut self, topology: ClusterTopology, config: DfsConfig) -> Self {
        self.cluster = topology;
        self.dfs_config = config;
        self
    }

    /// Overrides the bootstrap admin token.
    pub fn admin_token(mut self, token: &str) -> Self {
        self.admin_token = token.to_string();
        self
    }

    /// Assembles the facility.
    pub fn build(self) -> Result<Facility, FacilityError> {
        let obs = self.registry.unwrap_or_else(|| Arc::new(Registry::new()));
        let pool = self
            .workers
            .map(WorkerPool::new)
            .unwrap_or_else(WorkerPool::from_env);
        let auth = Arc::new(TokenAuth::new());
        auth.register(&self.admin_token, "admin");
        let acl = Arc::new(Acl::new());
        let tracer = self.tracing.map(|cfg| Tracer::new(&obs, cfg));
        let telemetry = TelemetryStore::new(self.telemetry.unwrap_or_default());
        let slo = match self.slo_rules {
            Some(rules) => SloMonitor::new(rules),
            None => SloMonitor::with_defaults(),
        };
        let mut adal_builder = Adal::builder()
            .auth(auth.clone())
            .acl(acl.clone())
            .registry(obs.clone())
            .workers(pool.workers());
        if let Some(t) = &tracer {
            adal_builder = adal_builder.tracer(t.clone());
        }
        let adal = Arc::new(adal_builder.build());
        let dfs_durability = self
            .durability
            .as_ref()
            .map(|(store, cfg)| ComponentDurability::open(store, "dfs", &obs, cfg));
        let dfs = Arc::new(Dfs::with_durability(
            self.cluster,
            self.dfs_config,
            obs.clone(),
            dfs_durability,
        ));

        let admission = Arc::new(AdmissionController::new(obs.clone()));
        let mut stores = HashMap::new();
        let mut hsms = HashMap::new();
        let mut lanes = HashMap::new();
        for spec in self.projects {
            let project = spec.schema.name.clone();
            if stores.contains_key(&project) {
                return Err(FacilityError::DuplicateProject(project));
            }
            let primary = make_backend(&project, spec.backend, &obs, &dfs, &mut hsms);
            match spec.resilience {
                None => adal.mount(&project, primary),
                Some((replica_choice, cfg)) => {
                    // The replica's stores carry a `-replica` suffix so
                    // they never collide with the primary's.
                    let replica = make_backend(
                        &format!("{project}-replica"),
                        replica_choice,
                        &obs,
                        &dfs,
                        &mut hsms,
                    );
                    adal.mount_resilient(&project, primary, Some(replica), cfg);
                }
            }
            // Admin gets full access to every project.
            acl.grant("admin", &project, true);
            admission.register(&project, spec.quota);
            lanes.insert(project.clone(), spec.lane);
            let meta_durability = self.durability.as_ref().map(|(store, cfg)| {
                ComponentDurability::open(store, &format!("meta-{project}"), &obs, cfg)
            });
            stores.insert(
                project,
                Arc::new(ProjectStore::with_durability(spec.schema, meta_durability)),
            );
        }
        // Resolve every ingest metric handle once, so the steady-state
        // ingest hot path never touches the registry maps.
        let ingest_obs = IngestObs::new(&obs, stores.keys());
        Ok(Facility {
            adal,
            auth,
            acl,
            dfs,
            stores,
            hsms,
            admin: Credential::Token(self.admin_token),
            obs,
            pool,
            ingest_obs,
            tracer,
            telemetry,
            slo,
            admission,
            lanes,
            durability: self.durability,
        })
    }
}

impl Default for FacilityBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Constructs the storage backend for one mount. `name` keys the
/// underlying stores (and the [`Facility::hsm`] lookup for HSM mounts);
/// resilient replicas pass a suffixed name so their stores stay
/// distinct from the primary's.
fn make_backend(
    name: &str,
    choice: BackendChoice,
    obs: &Arc<Registry>,
    dfs: &Arc<Dfs>,
    hsms: &mut HashMap<String, Arc<Hsm>>,
) -> Arc<dyn StorageBackend> {
    match choice {
        BackendChoice::ObjectStore { capacity } => {
            let store = Arc::new(ObjectStore::new(name, capacity));
            Arc::new(ObjectStoreBackend::new(store))
        }
        BackendChoice::Hsm {
            disk_capacity,
            low_watermark,
            high_watermark,
            policy,
        } => {
            let disk = Arc::new(ObjectStore::new(format!("{name}-disk"), disk_capacity));
            let tape = Arc::new(ObjectStore::new(format!("{name}-tape"), u64::MAX));
            let hsm = Arc::new(Hsm::with_registry(
                disk,
                tape,
                low_watermark,
                high_watermark,
                policy,
                obs.clone(),
            ));
            hsms.insert(name.to_string(), hsm.clone());
            Arc::new(HsmBackend::new(hsm))
        }
        BackendChoice::Dfs => Arc::new(DfsBackend::new(dfs.clone())),
    }
}

/// The assembled Large Scale Data Facility.
pub struct Facility {
    adal: Arc<Adal>,
    auth: Arc<TokenAuth>,
    acl: Arc<Acl>,
    dfs: Arc<Dfs>,
    stores: HashMap<String, Arc<ProjectStore>>,
    hsms: HashMap<String, Arc<Hsm>>,
    admin: Credential,
    obs: Arc<Registry>,
    pool: WorkerPool,
    ingest_obs: IngestObs,
    tracer: Option<Tracer>,
    telemetry: TelemetryStore,
    slo: SloMonitor,
    admission: Arc<AdmissionController>,
    lanes: HashMap<String, Lane>,
    durability: Option<(DurableStore, DurabilityConfig)>,
}

/// What one component replayed during [`Facility::crash_restart`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentRecovery {
    /// Component name (`"dfs"` or `"meta-<project>"`).
    pub component: String,
    /// What its recovery pass found and did.
    pub stats: RecoveryStats,
}

/// One of the facility's durable components: the namenode or a
/// project's catalog.
#[derive(Clone, Copy)]
enum Durable<'a> {
    Dfs(&'a Dfs),
    Store(&'a ProjectStore),
}

impl Durable<'_> {
    fn crash(self, seed: u64) {
        match self {
            Durable::Dfs(dfs) => dfs.crash(seed),
            Durable::Store(store) => store.crash(seed),
        }
    }

    fn recover(self) -> RecoveryStats {
        match self {
            Durable::Dfs(dfs) => dfs.recover(),
            Durable::Store(store) => store.recover(),
        }
    }

    fn maybe_checkpoint(self) -> bool {
        match self {
            Durable::Dfs(dfs) => dfs.maybe_checkpoint(),
            Durable::Store(store) => store.maybe_checkpoint(),
        }
    }
}

/// Per-component recovery outcome of one kill-and-restart cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// One entry per stateful component, DFS first, then the metadata
    /// stores in project order.
    pub components: Vec<ComponentRecovery>,
}

impl RecoveryReport {
    /// Total WAL records that took effect in replay, across components.
    pub fn total_replayed(&self) -> u64 {
        self.components.iter().map(|c| c.stats.replayed).sum()
    }

    /// Total torn (discarded, never-acked) frames across components.
    pub fn total_torn_tails(&self) -> u64 {
        self.components.iter().map(|c| c.stats.torn_tails).sum()
    }

    /// Renders the report as a stable JSON document (the restart-soak
    /// CI artifact).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"components\": [\n");
        for (i, c) in self.components.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"component\": \"{}\", \"snapshot_loaded\": {}, \"checkpoint_rejected\": {}, \"replayed\": {}, \"skipped\": {}, \"torn_tails\": {}}}{}\n",
                c.component,
                c.stats.snapshot_loaded,
                c.stats.checkpoint_rejected,
                c.stats.replayed,
                c.stats.skipped,
                c.stats.torn_tails,
                if i + 1 < self.components.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"total_replayed\": {},\n  \"total_torn_tails\": {}\n}}\n",
            self.total_replayed(),
            self.total_torn_tails()
        ));
        out
    }
}

impl Facility {
    /// Starts a builder.
    pub fn builder() -> FacilityBuilder {
        FacilityBuilder::new()
    }

    /// The unified access layer.
    pub fn adal(&self) -> &Arc<Adal> {
        &self.adal
    }

    /// The facility-wide metrics registry. Every subsystem assembled by
    /// the builder records into it; export with
    /// [`Registry::to_json`].
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The shared analysis cluster's DFS.
    pub fn dfs(&self) -> &Arc<Dfs> {
        &self.dfs
    }

    /// The worker pool driving the parallel data path.
    pub fn pool(&self) -> WorkerPool {
        self.pool
    }

    /// Cached ingest metric handles (resolved once at build time).
    pub(crate) fn ingest_obs(&self) -> &IngestObs {
        &self.ingest_obs
    }

    /// The causal tracer, when the facility was built with
    /// [`FacilityBuilder::tracing`].
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The installed SLO monitor.
    pub fn slo(&self) -> &SloMonitor {
        &self.slo
    }

    /// The always-on telemetry store: the bounded time-series history
    /// scraped from [`Facility::obs`] on the virtual clock.
    pub fn telemetry(&self) -> &TelemetryStore {
        &self.telemetry
    }

    /// Evaluates the SLO rules against the current registry state and
    /// returns the facility health report, including per-project
    /// accounting (ops, bytes, tape mounts, violations). Scrapes the
    /// telemetry store first (if its interval has elapsed) so windowed
    /// rules see history up to the current virtual time.
    pub fn facility_health(&self) -> FacilityHealth {
        self.telemetry.maybe_scrape(&self.obs);
        self.slo.evaluate(&self.obs, &self.telemetry)
    }

    /// Renders the operator console: per-tenant accounts with
    /// ops/latency sparklines, lane queue depths, breaker states,
    /// WAL/checkpoint lag, active alerts, the slowest-operations span
    /// profile (when tracing is on), the telemetry store's
    /// self-accounting, and the SHA-256 kernels this host checksums
    /// with (one message at a time, and a batch's groups of
    /// `X16_MIN_LANES` or more). Byte-identical at any worker count for
    /// a given seed.
    pub fn operator_report(&self) -> String {
        let health = self.facility_health();
        let profile = self
            .tracer
            .as_ref()
            .map(|t| SpanProfile::from_traces(&t.traces()));
        let mut report = facility_status(&ConsoleInputs {
            registry: &self.obs,
            telemetry: &self.telemetry,
            health: &health,
            profile: profile.as_ref(),
        });
        report.push_str(&format!(
            "\n-- checksums --\nsha256 kernel: {}; batches of {X16_MIN_LANES}+: {}\n",
            sha256_kernel(),
            sha256_many_kernel()
        ));
        report
    }

    /// The collapsed-stack (flamegraph) export of every retained trace,
    /// or `None` when the facility was built without tracing.
    pub fn collapsed_stacks(&self) -> Option<String> {
        self.tracer
            .as_ref()
            .map(|t| SpanProfile::from_traces(&t.traces()).collapsed_stacks())
    }

    /// The multi-tenant admission front door.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// One governor step: evaluates the SLO rules and feeds the report
    /// to the admission governor, which throttles (halves the refill
    /// rate of) each project attributed a violation and restores full
    /// rate once the project is healthy again. Returns the report.
    pub fn govern(&self) -> FacilityHealth {
        let health = self.facility_health();
        self.admission.observe(&health);
        health
    }

    /// True when the facility was built with
    /// [`FacilityBuilder::durability`].
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durable store backing every component's WAL + checkpoints,
    /// when the facility is durable.
    pub fn durable_store(&self) -> Option<&DurableStore> {
        self.durability.as_ref().map(|(s, _)| s)
    }

    /// One background-reconciler sweep: checkpoints every stateful
    /// component whose WAL has crossed the configured record threshold
    /// (rotate → snapshot → persist → truncate old segments). Returns
    /// the number of checkpoints taken. A non-durable facility returns
    /// zero.
    pub fn run_durability_reconciler(&self) -> usize {
        let components = self.durable_components();
        components.iter().filter(|(_, c)| c.maybe_checkpoint()).count()
    }

    /// Every durable component with its log name: the namenode first,
    /// then the catalogs in project order.
    fn durable_components(&self) -> Vec<(String, Durable<'_>)> {
        let stores = self.projects().into_iter();
        let stores = stores.map(|p| (format!("meta-{p}"), Durable::Store(&self.stores[&p])));
        std::iter::once(("dfs".to_string(), Durable::Dfs(&self.dfs))).chain(stores).collect()
    }

    /// Kills and restarts the facility's stateful services in place:
    /// the namenode and every metadata store lose all volatile state
    /// (with an in-flight WAL frame torn at a seed-picked offset), then
    /// recover from their durable logs — checkpoint install plus
    /// idempotent WAL replay. Datanodes model separate machines and
    /// keep their block bytes.
    ///
    /// Emits a `recovery_replay` root span (when tracing is on) with a
    /// `chaos_crash` event and one `recovery_component` child span per
    /// recovered component. A non-durable facility returns an empty
    /// report and loses nothing, because nothing is wiped.
    pub fn crash_restart(&self, seed: u64) -> RecoveryReport {
        if self.durability.is_none() {
            return RecoveryReport::default();
        }
        let root = self
            .tracer
            .as_ref()
            .map_or_else(TraceCtx::disabled, |t| {
                t.root(names::RECOVERY_REPLAY_SPAN, "restart")
            });
        root.event(names::CHAOS_CRASH_LOG_EVENT, &[("seed", &seed.to_string())]);
        // One process, one death: every stateful service crashes
        // together, each tearing its own in-flight frame.
        let durable = self.durable_components();
        for (i, (_, component)) in durable.iter().enumerate() {
            component.crash(seed.wrapping_add(i as u64));
        }
        let recover = |(name, component): (String, Durable<'_>)| {
            let span = root.child(names::RECOVERY_COMPONENT_SPAN);
            span.add_field("component", &name);
            let stats = component.recover();
            span.finish();
            ComponentRecovery { component: name, stats }
        };
        let components = durable.into_iter().map(recover).collect();
        root.finish();
        RecoveryReport { components }
    }

    /// The QoS lane a project's bulk (write-side) traffic rides.
    pub(crate) fn default_lane(&self, project: &str) -> Lane {
        self.lanes.get(project).copied().unwrap_or(Lane::Bulk)
    }

    /// Serial admission decisions for ingest items, one per item in
    /// submission order, made on the caller thread (never inside pool
    /// workers) so decisions are identical at every worker count. Each
    /// run of consecutive items of one project passes the front door as
    /// one [`AdmissionController::admit_batch`]. Unknown projects keep
    /// their legacy `FacilityError::UnknownProject`.
    pub(crate) fn admit_ingest(&self, items: &[IngestItem]) -> Vec<Result<Ticket, FacilityError>> {
        let mut decisions = Vec::with_capacity(items.len());
        let mut sizes = Vec::new();
        for run in items.chunk_by(|a, b| a.project == b.project) {
            let project = &run[0].project;
            sizes.clear();
            sizes.extend(run.iter().map(|item| item.data.len() as u64));
            match self.admission.admit_batch(project, self.default_lane(project), &sizes) {
                Ok(tickets) => decisions.extend(tickets.into_iter().map(|t| t.map_err(FacilityError::from))),
                Err(e) => {
                    let e = match e {
                        AdmissionError::UnknownProject(p) => FacilityError::UnknownProject(p),
                        e => e.into(),
                    };
                    decisions.extend(run.iter().map(|_| Err(e.clone())));
                }
            }
        }
        decisions
    }

    /// Opens a session on `project` under the admin credential: the
    /// handle every tenant-facing operation hangs off.
    pub fn session(&self, project: &str) -> Result<ProjectSession<'_>, FacilityError> {
        self.session_as(project, self.admin.clone())
    }

    /// Opens a session on `project` under a caller-supplied credential
    /// (register + grant the user first).
    pub fn session_as(
        &self,
        project: &str,
        cred: Credential,
    ) -> Result<ProjectSession<'_>, FacilityError> {
        if !self.stores.contains_key(project) {
            return Err(FacilityError::UnknownProject(project.to_string()));
        }
        Ok(ProjectSession::new(self, project.to_string(), cred))
    }

    /// A project's metadata store.
    pub fn store(&self, project: &str) -> Result<&Arc<ProjectStore>, FacilityError> {
        self.stores
            .get(project)
            .ok_or_else(|| FacilityError::UnknownProject(project.to_string()))
    }

    /// A project's HSM, when HSM-backed.
    pub fn hsm(&self, project: &str) -> Option<&Arc<Hsm>> {
        self.hsms.get(project)
    }

    /// Registered project names, sorted.
    pub fn projects(&self) -> Vec<String> {
        let mut v: Vec<String> = self.stores.keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// The bootstrap admin credential.
    pub fn admin(&self) -> &Credential {
        &self.admin
    }

    /// Registers a user token.
    pub fn register_user(&self, token: &str, user: &str) {
        self.auth.register(token, user);
    }

    /// Grants project access to a user.
    pub fn grant(&self, user: &str, project: &str, write: bool) {
        self.acl.grant(user, project, write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdf_metadata::{zebrafish_schema, FieldType, SchemaBuilder};
    use lsdf_obs::names;

    fn katrin_schema() -> Schema {
        SchemaBuilder::new("katrin")
            .required("run", FieldType::Int)
            .build()
            .unwrap()
    }

    fn mini() -> Facility {
        Facility::builder()
            .tenant(ProjectSpec::new(
                zebrafish_schema(),
                BackendChoice::ObjectStore { capacity: u64::MAX },
            ))
            .tenant(ProjectSpec::new(katrin_schema(), BackendChoice::Hsm {
                disk_capacity: 10_000,
                low_watermark: 0.5,
                high_watermark: 0.8,
                policy: MigrationPolicy::OldestFirst,
            }))
            .cluster(ClusterTopology::new(2, 2), DfsConfig {
                block_size: 1024,
                replication: 2,
                ..DfsConfig::default()
            })
            .build()
            .unwrap()
    }

    #[test]
    fn builder_wires_projects_and_backends() {
        let f = mini();
        assert_eq!(f.projects(), vec!["katrin", "zebrafish-htm"]);
        assert_eq!(f.adal().backend_kind("zebrafish-htm"), Some("object-store"));
        assert_eq!(f.adal().backend_kind("katrin"), Some("hsm"));
        assert!(f.hsm("katrin").is_some());
        assert!(f.hsm("zebrafish-htm").is_none());
        assert!(f.store("zebrafish-htm").is_ok());
        assert!(f.store("nope").is_err());
    }

    #[test]
    fn facility_shares_one_registry_across_subsystems() {
        let reg = Arc::new(Registry::new());
        let f = Facility::builder()
            .tenant(ProjectSpec::new(
                zebrafish_schema(),
                BackendChoice::ObjectStore { capacity: u64::MAX },
            ))
            .tenant(ProjectSpec::new(katrin_schema(), BackendChoice::Hsm {
                disk_capacity: 10_000,
                low_watermark: 0.5,
                high_watermark: 0.8,
                policy: MigrationPolicy::OldestFirst,
            }))
            .registry(reg.clone())
            .build()
            .unwrap();
        assert!(Arc::ptr_eq(f.obs(), &reg));
        assert!(Arc::ptr_eq(f.adal().obs(), &reg));
        let admin = f.admin().clone();
        f.adal()
            .put(&admin, "lsdf://katrin/obs1", bytes::Bytes::from_static(b"abc"))
            .unwrap();
        // The same put is visible at the ADAL layer and the HSM tier.
        assert_eq!(reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", "put")]), 1);
        assert_eq!(
            reg.counter_value(names::HSM_PUTS_TOTAL, &[("store", "katrin-disk")]),
            1
        );
        // The operator console names the checksum kernels this host
        // runs: one message at a time, and a batch's groups of 8+.
        let kernel_line = format!(
            "sha256 kernel: {}; batches of 8+: {}\n",
            sha256_kernel(),
            sha256_many_kernel()
        );
        assert!(f.operator_report().ends_with(&kernel_line));
    }

    #[test]
    fn resilient_project_mounts_with_replica_and_health() {
        let f = Facility::builder()
            .tenant(
                ProjectSpec::new(
                    zebrafish_schema(),
                    BackendChoice::ObjectStore { capacity: u64::MAX },
                )
                .resilient(
                    BackendChoice::ObjectStore { capacity: u64::MAX },
                    ResilienceConfig::default(),
                ),
            )
            .build()
            .unwrap();
        let admin = f.admin().clone();
        f.adal()
            .put(
                &admin,
                "lsdf://zebrafish-htm/a",
                bytes::Bytes::from_static(b"x"),
            )
            .unwrap();
        assert_eq!(
            f.adal()
                .get(&admin, "lsdf://zebrafish-htm/a")
                .unwrap(),
            bytes::Bytes::from_static(b"x")
        );
        let h = f.adal().health("zebrafish-htm").unwrap();
        assert!(h.has_replica);
        // A spec without `.quota(..)` gets an unlimited quota: never shed.
        assert_eq!(f.admission().quota("zebrafish-htm"), Some(QuotaSpec::unlimited()));
        assert_eq!(h.breaker, lsdf_adal::BreakerState::Closed);
        assert_eq!(h.journal_depth, 0);
        // The write was replicated: re-putting the same key is refused
        // by the replica-side write-once check even while degraded.
        assert!(f
            .adal()
            .put(
                &admin,
                "lsdf://zebrafish-htm/a",
                bytes::Bytes::from_static(b"y"),
            )
            .is_err());
    }

    #[test]
    fn duplicate_projects_rejected() {
        let r = Facility::builder()
            .tenant(ProjectSpec::new(
                zebrafish_schema(),
                BackendChoice::ObjectStore { capacity: 1 },
            ))
            .tenant(ProjectSpec::new(
                zebrafish_schema(),
                BackendChoice::ObjectStore { capacity: 1 },
            ))
            .build();
        assert!(matches!(r, Err(FacilityError::DuplicateProject(_))));
    }

    #[test]
    fn session_puts_gets_and_reports_usage() {
        let f = mini();
        let s = f.session("katrin").unwrap();
        assert_eq!(s.project(), "katrin");
        let ticket = s.put("run1", bytes::Bytes::from_static(b"spectra")).unwrap();
        assert_eq!(ticket.wait_ns, 0, "unlimited quota never waits");
        assert_eq!(
            s.get("run1").unwrap(),
            bytes::Bytes::from_static(b"spectra")
        );
        let usage = s.usage();
        assert_eq!(usage.admitted, 2);
        assert_eq!(usage.shed, 0);
        assert_eq!(usage.bytes, 7);
        assert!(
            !s.health().expect("mount reports health").has_replica,
            "plain mount has no replica"
        );
        assert!(matches!(
            f.session("nope"),
            Err(FacilityError::UnknownProject(_))
        ));
    }

    #[test]
    fn session_sheds_puts_beyond_quota_with_typed_retry() {
        let f = Facility::builder()
            .tenant(
                ProjectSpec::new(
                    zebrafish_schema(),
                    BackendChoice::ObjectStore { capacity: u64::MAX },
                )
                .quota(QuotaSpec::per_second(7, 1 << 20).queue_depth(0))
                .lane(Lane::Bulk),
            )
            .build()
            .unwrap();
        let s = f.session("zebrafish-htm").unwrap();
        // The bulk lane's bucket mounts full (7 tokens); with no queue
        // the eighth put in the same instant is shed.
        for i in 0..7 {
            s.put(&format!("k{i}"), bytes::Bytes::from_static(b"x"))
                .unwrap();
        }
        let err = s.put("k7", bytes::Bytes::from_static(b"x")).unwrap_err();
        match err {
            FacilityError::Admission(AdmissionError::Rejected {
                project,
                lane,
                retry_after_ns,
            }) => {
                assert_eq!(project, "zebrafish-htm");
                assert_eq!(lane, Lane::Bulk);
                assert!(retry_after_ns > 0);
            }
            other => panic!("expected typed admission shed, got {other:?}"),
        }
        // The shed put never reached storage.
        assert!(s.get("k7").is_err());
        assert_eq!(s.usage().shed, 1);
    }

    fn zf_ds(name: &str, fish: i64) -> lsdf_metadata::NewDataset {
        lsdf_metadata::NewDataset {
            name: name.to_string(),
            location: format!("lsdf://zebrafish-htm/raw/{name}"),
            size_bytes: 9,
            checksum_hex: String::new(),
            basic: [
                ("fish_id".to_string(), lsdf_metadata::Value::Int(fish)),
                ("image_index".to_string(), lsdf_metadata::Value::Int(0)),
                ("focus_um".to_string(), lsdf_metadata::Value::Float(10.0)),
                (
                    "wavelength_nm".to_string(),
                    lsdf_metadata::Value::Float(488.0),
                ),
                ("well".to_string(), lsdf_metadata::Value::from("A1")),
                ("acquired_at".to_string(), lsdf_metadata::Value::Time(fish)),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn durable_facility_crash_restart_recovers_bit_identically() {
        let disk = DurableStore::new();
        let cfg = DurabilityConfig {
            checkpoint_every: 4,
            ..DurabilityConfig::default()
        };
        let f = Facility::builder()
            .tenant(ProjectSpec::new(zebrafish_schema(), BackendChoice::Dfs))
            .cluster(ClusterTopology::new(2, 2), DfsConfig {
                block_size: 1024,
                replication: 2,
                ..DfsConfig::default()
            })
            .durability(disk.clone(), cfg)
            .tracing(TraceConfig::full())
            .build()
            .unwrap();
        assert!(f.is_durable());
        assert!(f.durable_store().is_some());
        let admin = f.admin().clone();
        f.adal()
            .put(
                &admin,
                "lsdf://zebrafish-htm/a",
                bytes::Bytes::from_static(b"payload-a"),
            )
            .unwrap();
        f.adal()
            .put(
                &admin,
                "lsdf://zebrafish-htm/b",
                bytes::Bytes::from_static(b"payload-b"),
            )
            .unwrap();
        let store = f.store("zebrafish-htm").unwrap().clone();
        store.insert(zf_ds("img-0", 1)).unwrap();
        store.insert(zf_ds("img-1", 2)).unwrap();
        let dfs_digest = f.dfs().namespace_digest();
        let meta_digest = store.catalog_digest();

        let report = f.crash_restart(42);
        assert_eq!(report.components.len(), 2, "dfs + one metadata store");
        assert_eq!(report.components[0].component, "dfs");
        assert_eq!(report.components[1].component, "meta-zebrafish-htm");
        assert!(report.total_torn_tails() >= 2, "each component tears a frame");
        assert!(report.total_replayed() > 0);
        // Bit-identical namespaces, and the acked data is still readable.
        assert_eq!(f.dfs().namespace_digest(), dfs_digest);
        assert_eq!(store.catalog_digest(), meta_digest);
        assert_eq!(
            f.adal().get(&admin, "lsdf://zebrafish-htm/a").unwrap(),
            bytes::Bytes::from_static(b"payload-a")
        );
        assert_eq!(store.get_by_name("img-1").unwrap().size_bytes, 9);
        // The report renders as the CI artifact.
        let json = report.to_json();
        assert!(json.contains("\"component\": \"dfs\""));
        assert!(json.contains("\"total_replayed\""));
        // The restart minted a recovery_replay trace with per-component
        // child spans and the chaos_crash event.
        let traces = f.tracer().unwrap().traces();
        let recovery = traces
            .iter()
            .find(|t| t.root.name == names::RECOVERY_REPLAY_SPAN)
            .expect("recovery span recorded");
        assert_eq!(recovery.root.children.len(), 2, "one child span per component");
        assert!(recovery
            .root
            .events
            .iter()
            .any(|e| e.name == names::CHAOS_CRASH_LOG_EVENT));
    }

    #[test]
    fn reconciler_checkpoints_when_thresholds_cross() {
        let disk = DurableStore::new();
        let cfg = DurabilityConfig {
            checkpoint_every: 2,
            ..DurabilityConfig::default()
        };
        let f = Facility::builder()
            .tenant(ProjectSpec::new(zebrafish_schema(), BackendChoice::Dfs))
            .cluster(ClusterTopology::new(2, 2), DfsConfig {
                block_size: 1024,
                replication: 2,
                ..DfsConfig::default()
            })
            .durability(disk, cfg)
            .build()
            .unwrap();
        assert_eq!(f.run_durability_reconciler(), 0, "nothing to checkpoint yet");
        let store = f.store("zebrafish-htm").unwrap();
        store.insert(zf_ds("img-0", 1)).unwrap();
        store.insert(zf_ds("img-1", 2)).unwrap();
        assert_eq!(f.run_durability_reconciler(), 1, "metadata store crossed");
        assert_eq!(f.run_durability_reconciler(), 0, "the count restarts at a checkpoint");
    }

    #[test]
    fn non_durable_facility_crash_restart_is_a_no_op() {
        let f = mini();
        assert!(!f.is_durable());
        assert!(f.durable_store().is_none());
        assert_eq!(f.run_durability_reconciler(), 0);
        let admin = f.admin().clone();
        f.adal()
            .put(&admin, "lsdf://katrin/run1", bytes::Bytes::from_static(b"x"))
            .unwrap();
        let report = f.crash_restart(7);
        assert!(report.components.is_empty());
        // Nothing was wiped.
        assert_eq!(
            f.adal().get(&admin, "lsdf://katrin/run1").unwrap(),
            bytes::Bytes::from_static(b"x")
        );
    }

    #[test]
    fn admin_has_access_users_do_not_until_granted() {
        let f = mini();
        let admin = f.admin().clone();
        f.adal()
            .put(&admin, "lsdf://katrin/run1", bytes::Bytes::from_static(b"x"))
            .unwrap();
        let user = Credential::Token("utok".into());
        assert!(f.adal().get(&user, "lsdf://katrin/run1").is_err());
        f.register_user("utok", "alice");
        assert!(f.adal().get(&user, "lsdf://katrin/run1").is_err());
        f.grant("alice", "katrin", false);
        assert_eq!(
            f.adal().get(&user, "lsdf://katrin/run1").unwrap(),
            bytes::Bytes::from_static(b"x")
        );
        // Read-only: writes still denied.
        assert!(f
            .adal()
            .put(&user, "lsdf://katrin/run2", bytes::Bytes::from_static(b"y"))
            .is_err());
    }
}
