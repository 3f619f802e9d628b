//! # lsdf-admission — the multi-tenant front door
//!
//! The facility serves "many experiments with very different data
//! rates" (paper, slide 4): a flood from one project must not starve
//! the others. This crate implements the admission layer that sits
//! ahead of ADAL:
//!
//! * [`QuotaSpec`] — per-project token-bucket quotas (operations per
//!   second and bytes per second) with bounded bursts and a bounded
//!   virtual queue;
//! * [`Lane`] — QoS lanes (interactive reads > bulk ingest > tape
//!   recalls) sharing a project's operation rate by weighted
//!   fair-share partition;
//! * [`AdmissionController`] — the decision point: admit with a
//!   simulated wait, or shed with a typed
//!   [`AdmissionError::Rejected`] carrying `retry_after_ns`;
//! * the adaptive governor ([`AdmissionController::observe`]) that
//!   reads a [`FacilityHealth`] report and halves the refill rate of
//!   the project breaching its SLO until it is healthy again.
//!
//! ## Determinism
//!
//! Every quantity is integer arithmetic on the registry's virtual
//! clock: refills carry the sub-token remainder exactly, so the same
//! sequence of `admit` calls at the same virtual times produces
//! bit-identical decisions regardless of wall-clock speed or worker
//! count. Waits are *simulated* — recorded in metrics and traces,
//! never slept.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::Arc;

use lsdf_obs::{names, Counter, FacilityHealth, Gauge, Histogram, Registry};
use lsdf_sync::{ranks, OrderedMutex, OrderedRwLock};

/// Nanoseconds per second — the token-bucket refill denominator.
const NANOS_PER_SEC: u128 = 1_000_000_000;

/// Deepest governor throttle: rates are shifted right by the level,
/// so level 3 runs a project at 1/8th of its contracted rate.
const MAX_THROTTLE: u8 = 3;

/// Number of QoS lanes.
pub const LANES: usize = 3;

/// Default fair-share weights, indexed like [`Lane::ALL`]:
/// interactive reads 4, bulk ingest 2, tape recalls 1.
pub const DEFAULT_LANE_WEIGHTS: [u32; LANES] = [4, 2, 1];

/// A QoS lane. Each project's operation rate is partitioned across
/// the lanes by [`QuotaSpec::lane_weights`], so a burst of tape
/// recalls cannot consume the tokens reserved for interactive reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Latency-sensitive read-side traffic.
    Interactive,
    /// Throughput-bound ingest / write-side traffic.
    Bulk,
    /// Reads that wind tape on an HSM-backed project.
    TapeRecall,
}

impl Lane {
    /// Every lane, in weight order.
    pub const ALL: [Lane; LANES] = [Lane::Interactive, Lane::Bulk, Lane::TapeRecall];

    /// Stable label value for metrics (`lane=...`).
    pub fn name(self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Bulk => "bulk",
            Lane::TapeRecall => "tape_recall",
        }
    }

    fn idx(self) -> usize {
        match self {
            Lane::Interactive => 0,
            Lane::Bulk => 1,
            Lane::TapeRecall => 2,
        }
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-project admission contract: token-bucket rates, burst caps,
/// the virtual queue bound, and the lane fair-share weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuotaSpec {
    /// Operations refilled per second, shared across lanes by weight.
    pub ops_per_sec: u64,
    /// Maximum operation tokens a lane bucket can hold (burst size).
    pub ops_burst: u64,
    /// Bytes refilled per second (project-wide, all lanes).
    pub bytes_per_sec: u64,
    /// Maximum byte tokens the project bucket can hold; also bounds
    /// how far the byte account may run into debt before shedding.
    pub bytes_burst: u64,
    /// How many operations may borrow ahead of their tokens (the
    /// virtual queue depth) before the front door sheds.
    pub queue_depth: u64,
    /// Fair-share weights, indexed like [`Lane::ALL`].
    pub lane_weights: [u32; LANES],
}

impl QuotaSpec {
    /// A quota so large it never sheds — the contract legacy
    /// (pre-admission) projects run under.
    pub fn unlimited() -> QuotaSpec {
        QuotaSpec {
            ops_per_sec: 1_000_000_000,
            ops_burst: 1_000_000_000,
            bytes_per_sec: 1 << 40,
            bytes_burst: 1 << 40,
            queue_depth: 1_000_000,
            lane_weights: DEFAULT_LANE_WEIGHTS,
        }
    }

    /// A contract of `ops` operations and `bytes` bytes per second,
    /// with one second of burst and a queue half the burst deep.
    pub fn per_second(ops: u64, bytes: u64) -> QuotaSpec {
        QuotaSpec {
            ops_per_sec: ops,
            ops_burst: ops,
            bytes_per_sec: bytes,
            bytes_burst: bytes,
            queue_depth: (ops / 2).max(1),
            lane_weights: DEFAULT_LANE_WEIGHTS,
        }
    }

    /// Overrides the operation burst size.
    pub fn ops_burst(mut self, burst: u64) -> QuotaSpec {
        self.ops_burst = burst;
        self
    }

    /// Overrides the byte burst size.
    pub fn bytes_burst(mut self, burst: u64) -> QuotaSpec {
        self.bytes_burst = burst;
        self
    }

    /// Overrides the virtual queue depth.
    pub fn queue_depth(mut self, depth: u64) -> QuotaSpec {
        self.queue_depth = depth;
        self
    }

    /// Overrides the lane fair-share weights (indexed like
    /// [`Lane::ALL`]).
    pub fn lane_weights(mut self, weights: [u32; LANES]) -> QuotaSpec {
        self.lane_weights = weights;
        self
    }

    /// The operation rate carved out for `lane` at throttle level
    /// `throttle`: weighted share of the project rate, halved per
    /// throttle level, never rounded to zero while the project has
    /// any rate at all (so a throttled tenant still drains).
    fn lane_rate(&self, lane: Lane, throttle: u8) -> u64 {
        if self.ops_per_sec == 0 {
            return 0;
        }
        let sum: u64 = self.lane_weights.iter().map(|w| u64::from(*w)).sum();
        // All-zero weights degenerate to an unpartitioned rate.
        let share = (self.ops_per_sec * u64::from(self.lane_weights[lane.idx()]))
            .checked_div(sum)
            .unwrap_or(self.ops_per_sec);
        (share >> throttle).max(1)
    }

    /// The byte refill rate at throttle level `throttle`.
    fn byte_rate(&self, throttle: u8) -> u64 {
        if self.bytes_per_sec == 0 {
            return 0;
        }
        (self.bytes_per_sec >> throttle).max(1)
    }
}

/// A granted admission: how long the request would wait for its
/// tokens (simulated, never slept) and how deep the lane's virtual
/// queue is after this grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket {
    /// Simulated wait before the request's tokens exist, in
    /// nanoseconds of registry-clock time.
    pub wait_ns: u64,
    /// Operations borrowing ahead of their tokens in this lane after
    /// the grant (0 when the bucket still held a token).
    pub queue_depth: u64,
}

/// Why the front door refused a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The lane's virtual queue (or the byte account) is exhausted;
    /// retry after the given registry-clock delay. `u64::MAX` means
    /// the quota can never satisfy the request (zero refill rate).
    Rejected {
        /// Project that was shed.
        project: String,
        /// Lane the request rode.
        lane: Lane,
        /// Registry-clock nanoseconds until a retry can be admitted.
        retry_after_ns: u64,
    },
    /// The project was never registered with the controller.
    UnknownProject(String),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Rejected {
                project,
                lane,
                retry_after_ns,
            } => write!(
                f,
                "admission shed {project}/{lane}: retry after {retry_after_ns}ns"
            ),
            AdmissionError::UnknownProject(p) => {
                write!(f, "project {p} not registered for admission")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A project's front-door account, for `ProjectSession::usage`-style
/// reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProjectUsage {
    /// Requests admitted (across all lanes).
    pub admitted: u64,
    /// Requests shed (across all lanes).
    pub shed: u64,
    /// Bytes admitted.
    pub bytes: u64,
    /// Current governor throttle level (0 = full rate).
    pub throttle_level: u8,
}

/// One token bucket: a signed level (negative = requests borrowing
/// ahead, i.e. the virtual queue) plus the exact sub-token remainder
/// so refills lose nothing to integer division.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    level: i128,
    carry: u128,
    last_ns: u64,
}

impl Bucket {
    fn full(cap: u64, now_ns: u64) -> Bucket {
        Bucket {
            level: i128::from(cap),
            carry: 0,
            last_ns: now_ns,
        }
    }

    /// Advances the bucket to `now_ns` at `rate` tokens/second,
    /// carrying the division remainder, capping at `cap`.
    fn refill(&mut self, now_ns: u64, rate: u64, cap: u64) {
        let dt = now_ns.saturating_sub(self.last_ns);
        self.last_ns = now_ns.max(self.last_ns);
        if dt == 0 || rate == 0 {
            return;
        }
        let product = u128::from(rate) * u128::from(dt) + self.carry;
        let tokens = product / NANOS_PER_SEC;
        self.carry = product % NANOS_PER_SEC;
        self.level = (self.level + tokens as i128).min(i128::from(cap));
        if self.level == i128::from(cap) {
            // A full bucket holds no partial token either.
            self.carry = 0;
        }
    }
}

/// Nanoseconds until `tokens` tokens exist at `rate` tokens/second
/// (`None` when the rate is zero and they never will).
fn ns_for(tokens: u128, rate: u64) -> Option<u64> {
    if rate == 0 {
        return None;
    }
    let ns = (tokens * NANOS_PER_SEC).div_ceil(u128::from(rate));
    Some(u64::try_from(ns).unwrap_or(u64::MAX))
}

/// Mutable per-project state, guarded by one mutex: the lane buckets,
/// the project-wide byte bucket, the governor level, and the usage
/// account.
struct ProjectState {
    quota: QuotaSpec,
    lanes: [Bucket; LANES],
    bytes: Bucket,
    throttle: u8,
    usage: ProjectUsage,
}

/// What a run of decisions in one lane at one instant is made on: the
/// lane's and the byte account's refill rates at the throttle level.
#[derive(Clone, Copy)]
struct Terms {
    lane: Lane,
    lane_rate: u64,
    byte_rate: u64,
}

impl ProjectState {
    /// Refills `lane` and the byte account to `now_ns` and returns the
    /// terms the decisions made at that instant share.
    fn settle(&mut self, lane: Lane, now_ns: u64) -> Terms {
        let lane_rate = self.quota.lane_rate(lane, self.throttle);
        let byte_rate = self.quota.byte_rate(self.throttle);
        self.lanes[lane.idx()].refill(now_ns, lane_rate, self.quota.ops_burst);
        self.bytes.refill(now_ns, byte_rate, self.quota.bytes_burst);
        Terms { lane, lane_rate, byte_rate }
    }

    /// Decides one request of `bytes` payload under `terms`: the one copy
    /// of the token arithmetic, for a single request and for each of a
    /// batch's.
    fn decide(&mut self, project: &str, terms: Terms, bytes: u64) -> Result<Ticket, AdmissionError> {
        let Terms { lane, lane_rate, byte_rate } = terms;
        let (bytes_burst, queue_depth) = (self.quota.bytes_burst, self.quota.queue_depth);
        // Operation account: borrow ahead up to `queue_depth`, then shed.
        let ops_after = self.lanes[lane.idx()].level - 1;
        if ops_after < -i128::from(queue_depth) {
            let need = (-i128::from(queue_depth) - ops_after) as u128;
            return self.shed(project, lane, ns_for(need, lane_rate).unwrap_or(u64::MAX));
        }
        // Byte account: debt bounded by the burst window.
        let bytes_after = self.bytes.level - i128::from(bytes);
        if bytes_after < -i128::from(bytes_burst) {
            let need = (-i128::from(bytes_burst) - bytes_after) as u128;
            return self.shed(project, lane, ns_for(need, byte_rate).unwrap_or(u64::MAX));
        }
        // The wait until the borrowed tokens actually exist.
        let ops_wait = if ops_after >= 0 {
            Some(0)
        } else {
            ns_for((-ops_after) as u128, lane_rate)
        };
        let bytes_wait = if bytes_after >= 0 {
            Some(0)
        } else {
            ns_for((-bytes_after) as u128, byte_rate)
        };
        let (Some(ops_wait), Some(bytes_wait)) = (ops_wait, bytes_wait) else {
            // Zero refill rate can never produce the borrowed tokens.
            return self.shed(project, lane, u64::MAX);
        };

        self.lanes[lane.idx()].level = ops_after;
        self.bytes.level = bytes_after;
        self.usage.admitted += 1;
        self.usage.bytes += bytes;
        Ok(Ticket {
            wait_ns: ops_wait.max(bytes_wait),
            queue_depth: u64::try_from(-ops_after.min(0)).unwrap_or(u64::MAX),
        })
    }

    fn shed(&mut self, project: &str, lane: Lane, retry_after_ns: u64) -> Result<Ticket, AdmissionError> {
        self.usage.shed += 1;
        Err(AdmissionError::Rejected {
            project: project.to_string(),
            lane,
            retry_after_ns,
        })
    }
}

/// Registry handles cached at registration so the admit hot path
/// never takes the registry's name-interning locks.
struct LaneMetrics {
    admitted: Counter,
    shed: Counter,
    queue: Gauge,
    wait: Histogram,
}

struct ProjectMetrics {
    lanes: [LaneMetrics; LANES],
    throttle: Gauge,
    throttled: Counter,
    cleared: Counter,
}

impl ProjectMetrics {
    fn new(reg: &Registry, project: &str) -> ProjectMetrics {
        let lane_metrics = |lane: Lane| {
            let labels: [(&str, &str); 2] = [("project", project), ("lane", lane.name())];
            LaneMetrics {
                admitted: reg.counter(names::ADMISSION_ADMITTED_TOTAL, &labels),
                shed: reg.counter(names::ADMISSION_SHED_TOTAL, &labels),
                queue: reg.gauge(names::ADMISSION_QUEUE_DEPTH, &labels),
                wait: reg.histogram(names::ADMISSION_WAIT_NS, &labels),
            }
        };
        let labels: [(&str, &str); 1] = [("project", project)];
        ProjectMetrics {
            lanes: [
                lane_metrics(Lane::Interactive),
                lane_metrics(Lane::Bulk),
                lane_metrics(Lane::TapeRecall),
            ],
            throttle: reg.gauge(names::ADMISSION_THROTTLE_LEVEL, &labels),
            throttled: reg.counter(
                names::ADMISSION_GOVERNOR_TRANSITIONS_TOTAL,
                &[("project", project), ("to", "throttled")],
            ),
            cleared: reg.counter(
                names::ADMISSION_GOVERNOR_TRANSITIONS_TOTAL,
                &[("project", project), ("to", "cleared")],
            ),
        }
    }
}

struct ProjectEntry {
    project: String,
    state: OrderedMutex<ProjectState>,
    metrics: ProjectMetrics,
}

impl ProjectEntry {
    /// One decision at `now_ns`: the batch of one of
    /// [`ProjectEntry::admit_batch`], with no `Vec`.
    fn admit(&self, now_ns: u64, lane: Lane, bytes: u64) -> Result<Ticket, AdmissionError> {
        let mut st = self.state.lock();
        let terms = st.settle(lane, now_ns);
        let decision = st.decide(&self.project, terms, bytes);
        self.publish(lane, std::slice::from_ref(&decision));
        decision
    }

    /// A run of decisions at `now_ns`, one per entry of `sizes`, in
    /// order: one lock and one publication of the metrics.
    fn admit_batch(&self, now_ns: u64, lane: Lane, sizes: &[u64]) -> Vec<Result<Ticket, AdmissionError>> {
        let mut st = self.state.lock();
        let terms = st.settle(lane, now_ns);
        let decisions: Vec<_> = sizes.iter().map(|&bytes| st.decide(&self.project, terms, bytes)).collect();
        self.publish(lane, &decisions);
        decisions
    }

    /// Publishes a run of `lane` decisions, under the state lock so the
    /// queue gauge follows decision order: the admitted and shed
    /// counters by count, the waits in one histogram pass, the queue
    /// gauge at the last admitted depth.
    fn publish(&self, lane: Lane, decisions: &[Result<Ticket, AdmissionError>]) {
        let lm = &self.metrics.lanes[lane.idx()];
        let tickets = || decisions.iter().filter_map(|d| d.as_ref().ok());
        lm.wait.record_all(tickets().map(|t| t.wait_ns));
        let admitted = tickets().count() as u64;
        let shed = decisions.len() as u64 - admitted;
        // A batch of one moves one counter, as a single admit did.
        if admitted > 0 {
            lm.admitted.add(admitted);
        }
        if shed > 0 {
            lm.shed.add(shed);
        }
        if let Some(last) = tickets().next_back() {
            lm.queue.set(i64::try_from(last.queue_depth).unwrap_or(i64::MAX));
        }
    }
}

/// A registered project's front-door account, resolved once by
/// [`AdmissionController::account`]: a decision against it takes the
/// project's state lock and nothing else, with no name lookup and no
/// allocation (but a shed's error). It is the entry registered when it
/// was taken; a re-registration is seen by accounts taken after it.
#[derive(Clone)]
pub struct Account {
    obs: Arc<Registry>,
    entry: Arc<ProjectEntry>,
}

impl Account {
    /// Decides one request of `bytes` payload riding `lane`: a batch of
    /// one of [`Account::admit_batch`], under the same ordering rule.
    pub fn admit(&self, lane: Lane, bytes: u64) -> Result<Ticket, AdmissionError> {
        self.entry.admit(self.obs.now_ns(), lane, bytes)
    }

    /// Decides a run of requests riding one lane, one per entry of
    /// `sizes` (payload bytes), in order, at one clock reading: the
    /// decisions of one [`Account::admit`] per request, for one clock
    /// read, one lock and one publication of the metrics.
    ///
    /// Callers MUST decide serially in submission order (the facility
    /// does so on the caller thread before any pool fan-out): a decision
    /// depends on every prior one, and serial admission is what makes
    /// shed sets and `retry_after_ns` values identical at any worker
    /// count.
    pub fn admit_batch(&self, lane: Lane, sizes: &[u64]) -> Vec<Result<Ticket, AdmissionError>> {
        self.entry.admit_batch(self.obs.now_ns(), lane, sizes)
    }

    /// The project's front-door account so far.
    pub fn usage(&self) -> ProjectUsage {
        let st = self.entry.state.lock();
        ProjectUsage {
            throttle_level: st.throttle,
            ..st.usage
        }
    }
}

/// The admission decision point. One controller fronts a facility;
/// projects register a [`QuotaSpec`] at mount time and every request
/// passes [`AdmissionController::admit`] before touching ADAL.
pub struct AdmissionController {
    obs: Arc<Registry>,
    projects: OrderedRwLock<HashMap<String, Arc<ProjectEntry>>>,
}

impl AdmissionController {
    /// A controller publishing into `obs` and refilling on its clock.
    pub fn new(obs: Arc<Registry>) -> AdmissionController {
        AdmissionController {
            obs,
            projects: OrderedRwLock::new(ranks::ADMISSION_PROJECTS, HashMap::new()),
        }
    }

    /// Registers (or re-registers) a project under `quota`. Buckets
    /// start full so a tenant can burst immediately after mount.
    pub fn register(&self, project: &str, quota: QuotaSpec) {
        let now = self.obs.now_ns();
        let state = ProjectState {
            quota,
            lanes: [Bucket::full(quota.ops_burst, now); LANES],
            bytes: Bucket::full(quota.bytes_burst, now),
            throttle: 0,
            usage: ProjectUsage::default(),
        };
        let entry = Arc::new(ProjectEntry {
            project: project.to_string(),
            state: OrderedMutex::new(ranks::ADMISSION_PROJECT_STATE, state),
            metrics: ProjectMetrics::new(&self.obs, project),
        });
        self.projects.write().insert(project.to_string(), entry);
    }

    /// Registered project names, sorted.
    pub fn projects(&self) -> Vec<String> {
        let mut v: Vec<String> = self.projects.read().keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// The quota a project registered under.
    pub fn quota(&self, project: &str) -> Option<QuotaSpec> {
        self.projects
            .read()
            .get(project)
            .map(|e| e.state.lock().quota)
    }

    /// The project's front-door account so far.
    pub fn usage(&self, project: &str) -> Option<ProjectUsage> {
        self.account(project).ok().map(|a| a.usage())
    }

    /// The project's account, for decisions that resolve it once.
    pub fn account(&self, project: &str) -> Result<Account, AdmissionError> {
        let entry = self.projects.read().get(project).cloned();
        let entry = entry.ok_or_else(|| AdmissionError::UnknownProject(project.to_string()))?;
        Ok(Account { obs: self.obs.clone(), entry })
    }

    /// Current governor throttle level for a project.
    pub fn throttle_level(&self, project: &str) -> Option<u8> {
        self.projects
            .read()
            .get(project)
            .map(|e| e.state.lock().throttle)
    }

    /// Runs `decide` on the project's entry at the current clock reading.
    /// The project map's read guard (its rank is below the state lock's)
    /// is held for it instead of cloning the entry out.
    fn by_name<T>(
        &self,
        project: &str,
        decide: impl FnOnce(&ProjectEntry, u64) -> T,
    ) -> Result<T, AdmissionError> {
        let projects = self.projects.read();
        let entry = projects
            .get(project)
            .ok_or_else(|| AdmissionError::UnknownProject(project.to_string()))?;
        Ok(decide(entry, self.obs.now_ns()))
    }

    /// Decides one request of `bytes` payload riding `lane`: the
    /// project's entry and one decision, as [`Account::admit`] makes it.
    ///
    /// Callers MUST invoke this serially in submission order (the
    /// facility does so on the caller thread before any pool fan-out):
    /// the decision depends on every prior decision, and serial
    /// admission is what makes shed sets and `retry_after_ns` values
    /// identical at any worker count.
    pub fn admit(
        &self,
        project: &str,
        lane: Lane,
        bytes: u64,
    ) -> Result<Ticket, AdmissionError> {
        self.by_name(project, |entry, now| entry.admit(now, lane, bytes))?
    }

    /// Decides a run of requests of one project riding one lane, as
    /// [`Account::admit_batch`] does. An unregistered project refuses
    /// the whole run.
    pub fn admit_batch(
        &self,
        project: &str,
        lane: Lane,
        sizes: &[u64],
    ) -> Result<Vec<Result<Ticket, AdmissionError>>, AdmissionError> {
        self.by_name(project, |entry, now| entry.admit_batch(now, lane, sizes))
    }

    /// The adaptive governor: reads a [`FacilityHealth`] report and
    /// throttles each project attributed an SLO violation (halving
    /// its refill rate per level, up to 1/8th), clearing the throttle
    /// the first report the project is violation-free.
    ///
    /// When the rule set includes `window(N)` rules, the governor
    /// follows the *windowed* per-project violations only — a
    /// transient spike that an instantaneous rule catches does not move
    /// the throttle; sustained burn-rate breaches do, and the throttle
    /// clears only once the window itself is clean. Rule sets without
    /// windowed rules keep the legacy instantaneous behavior.
    pub fn observe(&self, health: &FacilityHealth) {
        let windowed = health.windowed_alerting();
        for acct in &health.projects {
            let breaches = if windowed {
                acct.windowed_violations
            } else {
                acct.violations
            };
            let Some(entry) = self.projects.read().get(&acct.project).cloned() else {
                continue;
            };
            let mut st = entry.state.lock();
            // Settle the buckets at the old rate before changing it, so
            // the rate switch takes effect exactly at `health.t_ns`.
            let now = self.obs.now_ns();
            for lane in Lane::ALL {
                let rate = st.quota.lane_rate(lane, st.throttle);
                let cap = st.quota.ops_burst;
                st.lanes[lane.idx()].refill(now, rate, cap);
            }
            let byte_rate = st.quota.byte_rate(st.throttle);
            let bytes_burst = st.quota.bytes_burst;
            st.bytes.refill(now, byte_rate, bytes_burst);

            let to = if breaches > 0 && st.throttle < MAX_THROTTLE {
                st.throttle += 1;
                Some("throttled")
            } else if breaches == 0 && st.throttle > 0 {
                st.throttle = 0;
                Some("cleared")
            } else {
                None
            };
            entry.metrics.throttle.set(i64::from(st.throttle));
            if let Some(to) = to {
                match to {
                    "throttled" => entry.metrics.throttled.inc(),
                    _ => entry.metrics.cleared.inc(),
                }
                let level = st.throttle.to_string();
                self.obs.event(
                    names::ADMISSION_GOVERNOR_LOG_EVENT,
                    &[
                        ("project", acct.project.as_str()),
                        ("to", to),
                        ("level", level.as_str()),
                    ],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn registry() -> Arc<Registry> {
        let reg = Arc::new(Registry::new());
        reg.set_virtual_time_ns(0);
        reg
    }

    fn controller(reg: &Arc<Registry>) -> AdmissionController {
        AdmissionController::new(Arc::clone(reg))
    }

    #[test]
    fn burst_exactly_at_capacity_then_borrows() {
        let reg = registry();
        let ctl = controller(&reg);
        ctl.register("katrin", QuotaSpec::per_second(7, 1 << 20).queue_depth(2));
        // Interactive share of 7 ops/s at weights 4/2/1 is 4 → burst
        // capacity is still the full bucket (7 tokens at mount).
        for _ in 0..7 {
            let t = ctl.admit("katrin", Lane::Interactive, 0).expect("in burst");
            assert_eq!(t.wait_ns, 0, "tokens in the bucket admit immediately");
        }
        // Borrowing ahead: queue_depth 2 admits two more, with waits.
        let t8 = ctl.admit("katrin", Lane::Interactive, 0).expect("queued");
        assert!(t8.wait_ns > 0);
        assert_eq!(t8.queue_depth, 1);
        let t9 = ctl.admit("katrin", Lane::Interactive, 0).expect("queued");
        assert!(t9.wait_ns > t8.wait_ns);
        assert_eq!(t9.queue_depth, 2);
        // The tenth is shed with a finite, exact retry hint.
        match ctl.admit("katrin", Lane::Interactive, 0) {
            Err(AdmissionError::Rejected { retry_after_ns, .. }) => {
                assert!(retry_after_ns > 0 && retry_after_ns < u64::MAX);
            }
            other => panic!("expected shed, got {other:?}"),
        }
    }

    #[test]
    fn zero_byte_quota_sheds_forever() {
        let reg = registry();
        let ctl = controller(&reg);
        ctl.register(
            "cold",
            QuotaSpec {
                ops_per_sec: 100,
                ops_burst: 100,
                bytes_per_sec: 0,
                bytes_burst: 0,
                queue_depth: 10,
                lane_weights: DEFAULT_LANE_WEIGHTS,
            },
        );
        match ctl.admit("cold", Lane::Bulk, 1) {
            Err(AdmissionError::Rejected { retry_after_ns, .. }) => {
                assert_eq!(retry_after_ns, u64::MAX, "no refill rate → never");
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // Zero-byte requests still pass: the op account has tokens.
        assert!(ctl.admit("cold", Lane::Bulk, 0).is_ok());
    }

    #[test]
    fn refill_carries_remainders_across_clock_jumps() {
        let reg = registry();
        let ctl = controller(&reg);
        // 21 ops/s → interactive lane rate 21·4/7 = 12/s. A one-token
        // bucket and no queue: only a refilled token admits.
        ctl.register(
            "jump",
            QuotaSpec::per_second(21, 1 << 20).ops_burst(1).queue_depth(0),
        );
        // Spend the single burst token, emptying the bucket.
        let t = ctl.admit("jump", Lane::Interactive, 0).expect("burst token");
        assert_eq!(t.wait_ns, 0);
        // One token at 12/s takes ceil(1e9/12) = 83_333_334ns.
        match ctl.admit("jump", Lane::Interactive, 0) {
            Err(AdmissionError::Rejected { retry_after_ns, .. }) => {
                assert_eq!(retry_after_ns, 83_333_334);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // Jump the clock by thirds of a token. Each refill yields
        // 12/s × 27_777_778ns = 0.333… tokens; without the exact
        // carry every jump would round to zero and no request would
        // ever be admitted again.
        for i in 1..=2u64 {
            reg.set_virtual_time_ns(i * 27_777_778);
            assert!(
                ctl.admit("jump", Lane::Interactive, 0).is_err(),
                "jump {i}: still a fraction of a token short"
            );
        }
        reg.set_virtual_time_ns(3 * 27_777_778);
        let t = ctl.admit("jump", Lane::Interactive, 0).expect("carried token");
        assert_eq!(t.wait_ns, 0, "the third jump completes one whole token");
    }

    #[test]
    fn lane_partition_isolates_interactive_from_bulk() {
        let reg = registry();
        let ctl = controller(&reg);
        ctl.register("mix", QuotaSpec::per_second(70, 1 << 20).queue_depth(0));
        // Drain the bulk lane completely.
        let mut bulk_shed = 0;
        for _ in 0..200 {
            if ctl.admit("mix", Lane::Bulk, 0).is_err() {
                bulk_shed += 1;
            }
        }
        assert!(bulk_shed > 0, "bulk lane must exhaust");
        // Interactive still has its own full bucket.
        assert!(ctl.admit("mix", Lane::Interactive, 0).is_ok());
    }

    #[test]
    fn governor_throttles_and_clears() {
        let reg = registry();
        let ctl = controller(&reg);
        ctl.register("flood", QuotaSpec::per_second(1000, 1 << 20));
        let health = |violations| FacilityHealth {
            t_ns: reg.now_ns(),
            healthy: violations == 0,
            rules: Vec::new(),
            projects: vec![lsdf_obs::ProjectAccount {
                project: "flood".into(),
                ops: 0,
                bytes: 0,
                tape_mounts: 0,
                violations,
                windowed_violations: 0,
            }],
        };
        ctl.observe(&health(1));
        assert_eq!(ctl.throttle_level("flood"), Some(1));
        ctl.observe(&health(1));
        ctl.observe(&health(1));
        ctl.observe(&health(1));
        assert_eq!(ctl.throttle_level("flood"), Some(3), "capped at 3");
        ctl.observe(&health(0));
        assert_eq!(ctl.throttle_level("flood"), Some(0), "cleared when healthy");
        let snap = reg.snapshot();
        let transitions: u64 = snap
            .counters
            .iter()
            .filter(|(id, _)| id.name == names::ADMISSION_GOVERNOR_TRANSITIONS_TOTAL)
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(transitions, 4, "3 throttles + 1 clear");
    }

    #[test]
    fn governor_follows_the_windowed_signal_when_windowed_rules_exist() {
        let reg = registry();
        let ctl = controller(&reg);
        ctl.register("burst", QuotaSpec::per_second(1000, 1 << 20));
        let health = |violations, windowed_violations| FacilityHealth {
            t_ns: reg.now_ns(),
            healthy: false,
            rules: vec![lsdf_obs::RuleOutcome {
                rule: "window(8) burn(a / b, 0.01) <= 2".into(),
                ok: windowed_violations == 0,
                observed: 0.0,
                threshold: 2.0,
                windowed: true,
            }],
            projects: vec![lsdf_obs::ProjectAccount {
                project: "burst".into(),
                ops: 0,
                bytes: 0,
                tape_mounts: 0,
                violations,
                windowed_violations,
            }],
        };
        // A transient spike (instantaneous violation only) does not
        // move the throttle while windowed alerting is configured.
        ctl.observe(&health(1, 0));
        assert_eq!(ctl.throttle_level("burst"), Some(0));
        // Sustained degradation does.
        ctl.observe(&health(0, 1));
        assert_eq!(ctl.throttle_level("burst"), Some(1));
        // And the throttle clears only when the window is clean, even
        // if a fresh spike is in flight.
        ctl.observe(&health(1, 0));
        assert_eq!(ctl.throttle_level("burst"), Some(0));
    }

    #[test]
    fn throttling_halves_the_refill_rate() {
        let reg = registry();
        let ctl = controller(&reg);
        ctl.register("slow", QuotaSpec::per_second(700, 1 << 30).ops_burst(0));
        // Full rate: interactive lane refills at 400/s.
        let t = ctl.admit("slow", Lane::Interactive, 0).expect("borrow");
        assert_eq!(t.wait_ns, 2_500_000);
        let health = FacilityHealth {
            t_ns: reg.now_ns(),
            healthy: false,
            rules: Vec::new(),
            projects: vec![lsdf_obs::ProjectAccount {
                project: "slow".into(),
                ops: 0,
                bytes: 0,
                tape_mounts: 0,
                violations: 1,
                windowed_violations: 0,
            }],
        };
        ctl.observe(&health);
        // Level 1: 200/s, so the next borrowed token is twice as far
        // out (two tokens deep at 5ms each).
        let t = ctl.admit("slow", Lane::Interactive, 0).expect("borrow");
        assert_eq!(t.wait_ns, 10_000_000);
    }

    #[test]
    fn decisions_are_deterministic_for_a_fixed_schedule() {
        let run = || {
            let reg = registry();
            let ctl = controller(&reg);
            ctl.register("det", QuotaSpec::per_second(5, 4096).queue_depth(3));
            let mut log = Vec::new();
            for step in 0..40u64 {
                reg.set_virtual_time_ns(step * 37_000_000);
                let lane = Lane::ALL[(step % 3) as usize];
                match ctl.admit("det", lane, (step % 7) * 100) {
                    Ok(t) => log.push(format!("ok {} {}", t.wait_ns, t.queue_depth)),
                    Err(AdmissionError::Rejected { retry_after_ns, .. }) => {
                        log.push(format!("shed {retry_after_ns}"))
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            log
        };
        assert_eq!(run(), run(), "same schedule → bit-identical decisions");
    }

    #[test]
    fn unknown_project_is_typed() {
        let reg = registry();
        let ctl = controller(&reg);
        assert_eq!(
            ctl.admit("ghost", Lane::Bulk, 0),
            Err(AdmissionError::UnknownProject("ghost".into()))
        );
    }

    /// Throttles `project` `level` times through the governor.
    fn throttle(ctl: &AdmissionController, reg: &Registry, project: &str, level: u8) {
        for _ in 0..level {
            ctl.observe(&FacilityHealth {
                t_ns: reg.now_ns(),
                healthy: false,
                rules: Vec::new(),
                projects: vec![lsdf_obs::ProjectAccount {
                    project: project.into(),
                    ops: 0,
                    bytes: 0,
                    tape_mounts: 0,
                    violations: 1,
                    windowed_violations: 0,
                }],
            });
        }
    }

    proptest! {
        #[test]
        fn admit_batch_equals_sequential_admits(
            // Refill rates (zero included), then ops burst, byte burst
            // and queue depth; sizes reach past the byte burst.
            rates in (prop_oneof![Just(0u64), 1u64..2_000], prop_oneof![Just(0u64), 1u64..1 << 20]),
            bursts in (0u64..12, 0u64..4_096, 0u64..8),
            lane_weights in (0u32..5, 0u32..5, 0u32..5),
            level in 0u8..5,
            rounds in prop::collection::vec(
                (
                    0u64..40_000_000,
                    0usize..LANES,
                    prop::collection::vec(prop_oneof![0u64..600, 4_096u64..10_000], 0..20),
                ),
                1..6,
            ),
        ) {
            let quota = QuotaSpec {
                ops_per_sec: rates.0,
                ops_burst: bursts.0,
                bytes_per_sec: rates.1,
                bytes_burst: bursts.1,
                queue_depth: bursts.2,
                lane_weights: [lane_weights.0, lane_weights.1, lane_weights.2],
            };
            let twin = || {
                let reg = registry();
                let ctl = controller(&reg);
                ctl.register("p", quota);
                throttle(&ctl, &reg, "p", level);
                (reg, ctl)
            };
            // By name, on a held account, and as batches of one: each
            // must decide and publish what the whole batch does.
            let (one_reg, one) = twin();
            let (acct_reg, acct) = twin();
            let (unit_reg, unit) = twin();
            let (all_reg, all) = twin();
            let account = acct.account("p").expect("registered");
            let mut t = 0;
            for (dt, lane, sizes) in rounds {
                t += dt;
                for reg in [&one_reg, &acct_reg, &unit_reg, &all_reg] {
                    reg.set_virtual_time_ns(t);
                }
                let lane = Lane::ALL[lane];
                let singles: Vec<_> = sizes.iter().map(|&b| one.admit("p", lane, b)).collect();
                let held: Vec<_> = sizes.iter().map(|&b| account.admit(lane, b)).collect();
                let units: Vec<_> =
                    sizes.iter().flat_map(|&b| unit.admit_batch("p", lane, &[b]).expect("registered")).collect();
                let batch = all.admit_batch("p", lane, &sizes).expect("registered");
                prop_assert_eq!(&singles, &batch);
                prop_assert_eq!(&held, &batch);
                prop_assert_eq!(units, batch);
            }
            prop_assert_eq!(account.usage(), all.usage("p").expect("registered"));
            let all_snap = all_reg.snapshot();
            for (twin, reg) in [(&one, &one_reg), (&acct, &acct_reg), (&unit, &unit_reg)] {
                prop_assert_eq!(twin.usage("p"), all.usage("p"));
                let snap = reg.snapshot();
                prop_assert_eq!(&snap.counters, &all_snap.counters);
                prop_assert_eq!(&snap.gauges, &all_snap.gauges);
                prop_assert_eq!(&snap.histograms, &all_snap.histograms);
            }
        }
    }

    #[test]
    fn a_batch_for_an_unknown_project_is_refused_whole() {
        let reg = registry();
        let ctl = controller(&reg);
        assert_eq!(
            ctl.admit_batch("ghost", Lane::Bulk, &[1, 2]),
            Err(AdmissionError::UnknownProject("ghost".into()))
        );
    }

    #[test]
    fn unlimited_quota_never_waits() {
        let reg = registry();
        let ctl = controller(&reg);
        ctl.register("legacy", QuotaSpec::unlimited());
        for _ in 0..10_000 {
            let t = ctl.admit("legacy", Lane::Bulk, 1 << 20).expect("unlimited");
            assert_eq!(t.wait_ns, 0);
            assert_eq!(t.queue_depth, 0);
        }
        assert_eq!(ctl.usage("legacy").map(|u| u.shed), Some(0));
    }
}
