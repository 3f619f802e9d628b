//! Resilience for the ADAL, as a backend: bounded-backoff retries, a
//! circuit breaker and the redo journal behind degraded writes, composed
//! by `ResilientBackend` — a [`StorageBackend`] decorator the layer
//! mounts like any other backend and never branches on.
//!
//! The facility ingests around the clock (zebrafish screens, sequencers,
//! KATRIN), so a disk array rebooting or a DFS datanode flapping must be
//! a survivable event, not a crash propagated to the beamline:
//!
//! * transient primary errors are retried under a [`RetryPolicy`]
//!   (bounded exponential backoff, jitter from a deterministic stream);
//! * a [`CircuitBreaker`] stops hammering a failing primary and probes
//!   it half-open after a cool-down;
//! * while the breaker is open, reads fail over to an optional replica
//!   backend and writes are acknowledged into a bounded [`RedoJournal`]
//!   that drains back to the primary on recovery — peek, land, then
//!   remove, so an acknowledged write is always in the journal or on
//!   the primary;
//! * every put can be read back and compared against its source
//!   (torn-write detection).
//!
//! All of it is observable (`adal_retries_total`,
//! `adal_breaker_transitions_total{to=..}`, `adal_failover_reads_total`,
//! `adal_journal_depth` and friends) and deterministic: backoff jitter
//! draws from a named [`SimRng`] stream and the breaker cool-down runs
//! on the obs registry clock, so a chaos run with a fixed seed (and a
//! virtual clock) is bit-identical across executions.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use lsdf_obs::{names, Counter, Gauge, Histogram, Registry, TraceCtx};
use lsdf_pool::WorkerPool;
use lsdf_sim::SimRng;
use lsdf_storage::Payload;
use lsdf_sync::{ranks, OrderedMutex};

use crate::backend::{BackendError, EntryMeta, StorageBackend};

/// Retry policy: bounded exponential backoff with additive jitter.
///
/// Attempt `k` (zero-based retry index) waits
/// `min(base_delay_ns << k, max_delay_ns)` plus a uniform jitter draw in
/// `[0, jitter_ns]`, the sum again capped at `max_delay_ns`. Because the
/// jitter bound never exceeds the base delay (the constructor clamps
/// it), the schedule is monotone non-decreasing — the property the
/// resilience proptests pin down. Delays are *recorded*, not slept: the
/// layer runs on simulated time and reports what it would have waited
/// through `adal_retry_backoff_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (>= 1).
    pub max_attempts: u32,
    /// First retry delay in nanoseconds (>= 1).
    pub base_delay_ns: u64,
    /// Upper bound for any single delay.
    pub max_delay_ns: u64,
    /// Jitter bound, clamped to `base_delay_ns` at construction.
    pub jitter_ns: u64,
}

impl RetryPolicy {
    /// Builds a policy.
    ///
    /// # Panics
    /// Panics if `max_attempts == 0`, `base_delay_ns == 0`, or
    /// `max_delay_ns < base_delay_ns`.
    pub fn new(max_attempts: u32, base_delay_ns: u64, max_delay_ns: u64, jitter_ns: u64) -> Self {
        assert!(max_attempts >= 1, "retry policy needs at least one attempt");
        assert!(base_delay_ns >= 1, "base delay must be positive");
        assert!(
            max_delay_ns >= base_delay_ns,
            "max delay must be >= base delay"
        );
        RetryPolicy {
            max_attempts,
            base_delay_ns,
            max_delay_ns,
            // Monotonicity of the schedule depends on jitter <= base.
            jitter_ns: jitter_ns.min(base_delay_ns),
        }
    }

    /// Delay before retry `retry_index` (0 = delay after the first
    /// failed attempt), with jitter drawn from `rng`.
    pub fn delay_ns(&self, retry_index: u32, rng: &mut SimRng) -> u64 {
        let raw = self
            .base_delay_ns
            .checked_shl(retry_index)
            .unwrap_or(self.max_delay_ns)
            .min(self.max_delay_ns);
        let jitter = rng.range_u64(0, self.jitter_ns.saturating_add(1));
        raw.saturating_add(jitter).min(self.max_delay_ns)
    }

    /// The full backoff schedule (`max_attempts - 1` delays) for a
    /// master seed, via the `"retry-backoff"` named stream. Used by the
    /// determinism proptests and by reports.
    pub fn schedule(&self, seed: u64) -> Vec<u64> {
        let mut rng = SimRng::seed_from_u64(seed).stream("retry-backoff");
        (0..self.max_attempts.saturating_sub(1))
            .map(|k| self.delay_ns(k, &mut rng))
            .collect()
    }
}

impl Default for RetryPolicy {
    /// 5 attempts, 1 ms base, 100 ms cap, 0.5 ms jitter.
    fn default() -> Self {
        RetryPolicy::new(5, 1_000_000, 100_000_000, 500_000)
    }
}

/// Circuit-breaker states, in the classic closed → open → half-open
/// cycle. The only path back to [`BreakerState::Closed`] runs through
/// [`BreakerState::HalfOpen`] probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally; outcomes feed the failure-rate window.
    Closed,
    /// Calls are rejected until the cool-down elapses.
    Open,
    /// Trial calls allowed; successes close, any failure re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Metric label (`adal_breaker_transitions_total{to=..}`).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Gauge encoding for `adal_breaker_state`: 0 closed, 1 half-open,
    /// 2 open.
    pub fn as_gauge(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Sliding outcome window evaluated while closed.
    pub window: usize,
    /// Minimum outcomes in the window before the rate is evaluated.
    pub min_calls: usize,
    /// Failure rate (in `[0, 1]`) at which the breaker opens.
    pub failure_rate: f64,
    /// Nanoseconds (registry clock) the breaker stays open before
    /// half-opening.
    pub cooldown_ns: u64,
    /// Consecutive half-open successes required to close.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    /// Window 16, min 8 calls, 50 % failure rate, 50 ms cool-down,
    /// 2 probes.
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            min_calls: 8,
            failure_rate: 0.5,
            cooldown_ns: 50_000_000,
            half_open_probes: 2,
        }
    }
}

/// A state transition observed by the breaker; the layer turns these
/// into `adal_breaker_transitions_total` counters and events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Previous state.
    pub from: BreakerState,
    /// New state.
    pub to: BreakerState,
}

struct BreakerInner {
    state: BreakerState,
    window: VecDeque<bool>,
    opened_at_ns: u64,
    probe_successes: u32,
}

/// Per-backend circuit breaker (closed / open / half-open).
///
/// Time comes in as explicit `now_ns` arguments so the breaker follows
/// whatever clock the caller runs on — wall time in production, virtual
/// time in deterministic chaos runs.
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    breaker: OrderedMutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    ///
    /// # Panics
    /// Panics if `window == 0`, `min_calls == 0`, `half_open_probes == 0`
    /// or `failure_rate` is outside `[0, 1]`.
    pub fn new(cfg: BreakerConfig) -> Self {
        assert!(cfg.window >= 1, "breaker window must be positive");
        assert!(cfg.min_calls >= 1, "breaker min_calls must be positive");
        assert!(cfg.half_open_probes >= 1, "breaker needs >= 1 probe");
        assert!(
            (0.0..=1.0).contains(&cfg.failure_rate),
            "failure_rate must be in [0, 1]"
        );
        CircuitBreaker {
            cfg,
            breaker: OrderedMutex::new(ranks::ADAL_BREAKER, BreakerInner {
                state: BreakerState::Closed,
                window: VecDeque::new(),
                opened_at_ns: 0,
                probe_successes: 0,
            }),
        }
    }

    /// Current state (may lag `try_acquire`'s cool-down check).
    pub fn state(&self) -> BreakerState {
        self.breaker.lock().state
    }

    /// Failure rate over the current closed-state window (0 when empty).
    pub fn failure_rate(&self) -> f64 {
        let inner = self.breaker.lock();
        if inner.window.is_empty() {
            return 0.0;
        }
        let failures = inner.window.iter().filter(|ok| !**ok).count();
        failures as f64 / inner.window.len() as f64
    }

    /// Asks permission for a call at `now_ns`. An open breaker whose
    /// cool-down has elapsed transitions to half-open (reported in the
    /// returned transition) and the call is allowed as a probe.
    pub fn try_acquire(&self, now_ns: u64) -> (bool, Option<BreakerTransition>) {
        let mut inner = self.breaker.lock();
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => (true, None),
            BreakerState::Open => {
                if now_ns.saturating_sub(inner.opened_at_ns) >= self.cfg.cooldown_ns {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_successes = 0;
                    (
                        true,
                        Some(BreakerTransition {
                            from: BreakerState::Open,
                            to: BreakerState::HalfOpen,
                        }),
                    )
                } else {
                    (false, None)
                }
            }
        }
    }

    /// Records the outcome of a permitted call at `now_ns`.
    pub fn record(&self, now_ns: u64, success: bool) -> Option<BreakerTransition> {
        let mut inner = self.breaker.lock();
        match inner.state {
            BreakerState::Closed => {
                if inner.window.len() == self.cfg.window {
                    inner.window.pop_front();
                }
                inner.window.push_back(success);
                if inner.window.len() >= self.cfg.min_calls {
                    let failures = inner.window.iter().filter(|ok| !**ok).count();
                    let rate = failures as f64 / inner.window.len() as f64;
                    if rate >= self.cfg.failure_rate {
                        inner.state = BreakerState::Open;
                        inner.opened_at_ns = now_ns;
                        inner.window.clear();
                        return Some(BreakerTransition {
                            from: BreakerState::Closed,
                            to: BreakerState::Open,
                        });
                    }
                }
                None
            }
            BreakerState::HalfOpen => {
                if success {
                    inner.probe_successes += 1;
                    if inner.probe_successes >= self.cfg.half_open_probes {
                        inner.state = BreakerState::Closed;
                        inner.window.clear();
                        return Some(BreakerTransition {
                            from: BreakerState::HalfOpen,
                            to: BreakerState::Closed,
                        });
                    }
                    None
                } else {
                    inner.state = BreakerState::Open;
                    inner.opened_at_ns = now_ns;
                    Some(BreakerTransition {
                        from: BreakerState::HalfOpen,
                        to: BreakerState::Open,
                    })
                }
            }
            // A late record against an open breaker (e.g. the breaker
            // opened from another thread mid-call) is dropped.
            BreakerState::Open => None,
        }
    }
}

struct JournalInner {
    entries: VecDeque<(String, Payload)>,
    bytes: u64,
}

/// Bounded redo journal: writes accepted while a backend's breaker is
/// open (or after retry exhaustion) queue here and drain on recovery.
/// Acknowledged journal entries are readable through the layer
/// (read-your-writes) until the drain lands them on the backend.
pub struct RedoJournal {
    cap_entries: usize,
    cap_bytes: u64,
    journal: OrderedMutex<JournalInner>,
}

impl RedoJournal {
    /// An empty journal bounded by entry count and total payload bytes.
    ///
    /// # Panics
    /// Panics if either bound is zero.
    pub fn new(cap_entries: usize, cap_bytes: u64) -> Self {
        assert!(cap_entries >= 1, "journal needs capacity for an entry");
        assert!(cap_bytes >= 1, "journal byte bound must be positive");
        RedoJournal {
            cap_entries,
            cap_bytes,
            journal: OrderedMutex::new(ranks::ADAL_JOURNAL, JournalInner {
                entries: VecDeque::new(),
                bytes: 0,
            }),
        }
    }

    /// Queues a write. `false` means the journal is full (the write must
    /// NOT be acknowledged) or the key is already queued.
    pub fn push(&self, key: &str, data: Payload) -> bool {
        let mut inner = self.journal.lock();
        if inner.entries.len() >= self.cap_entries
            || inner.bytes.saturating_add(data.len() as u64) > self.cap_bytes
            || inner.entries.iter().any(|(k, _)| k == key)
        {
            return false;
        }
        inner.bytes += data.len() as u64;
        inner.entries.push_back((key.to_string(), data));
        true
    }

    /// The queued payload for `key`, if any (read-your-writes).
    pub fn lookup(&self, key: &str) -> Option<Payload> {
        self.journal
            .lock()
            .entries
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, d)| d.clone())
    }

    /// Removes a queued write for `key` (a delete overtaking the redo).
    pub fn remove(&self, key: &str) -> Option<Payload> {
        let mut inner = self.journal.lock();
        let pos = inner.entries.iter().position(|(k, _)| k == key)?;
        let (_, data) = inner.entries.remove(pos)?;
        inner.bytes -= data.len() as u64;
        Some(data)
    }

    /// The oldest queued write, left queued: the drain lands it first
    /// and [`RedoJournal::remove`]s it after, so it stays readable and
    /// write-once until it is on the primary.
    pub fn front(&self) -> Option<(String, Payload)> {
        let inner = self.journal.lock();
        inner.entries.front().map(|(k, d)| (k.clone(), d.clone()))
    }

    /// Queued entry count.
    pub fn depth(&self) -> usize {
        self.journal.lock().entries.len()
    }

    /// Queued payload bytes.
    pub fn bytes(&self) -> u64 {
        self.journal.lock().bytes
    }

    /// Queued keys under `prefix`, with payload sizes (for degraded
    /// listings).
    pub fn entries_under(&self, prefix: &str) -> Vec<(String, u64)> {
        self.journal
            .lock()
            .entries
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, d)| (k.clone(), d.len() as u64))
            .collect()
    }
}

/// Configuration for a resilient mount
/// ([`crate::Adal::mount_resilient`]).
#[derive(Clone)]
pub struct ResilienceConfig {
    /// Retry policy for transient backend errors.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Redo-journal entry bound.
    pub journal_entries: usize,
    /// Redo-journal byte bound.
    pub journal_bytes: u64,
    /// Read every put back and compare digests (torn-write detection).
    pub verify_writes: bool,
    /// Master seed for the jitter stream (stream name = project).
    pub seed: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            journal_entries: 1024,
            journal_bytes: 64 * 1024 * 1024,
            verify_writes: true,
            seed: 42,
        }
    }
}

/// Point-in-time health of one project's backend, assembled by
/// [`crate::Adal::health`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Project name.
    pub project: String,
    /// Backend kind label.
    pub backend: &'static str,
    /// Breaker state (always `Closed` for plain mounts).
    pub breaker: BreakerState,
    /// Failure rate over the breaker's current window.
    pub failure_rate: f64,
    /// Whether a failover replica is mounted.
    pub has_replica: bool,
    /// Queued redo-journal writes.
    pub journal_depth: usize,
    /// Queued redo-journal bytes.
    pub journal_bytes: u64,
    /// Retries performed for this project so far.
    pub retries: u64,
    /// Reads served from the replica so far.
    pub failover_reads: u64,
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

/// The resilience stack as a backend: wraps any primary
/// [`StorageBackend`] (a fault-injecting one included) and serves the
/// same five operations through retries, the breaker, replica failover
/// and the redo journal. It has no staged protocol — the trait's
/// default `stage_put` puts and acknowledges at once, which is this
/// backend's ack point: a write is acknowledged when it is on the
/// primary or in the journal. [`crate::Adal::mount_resilient`] builds
/// one per project and keeps a typed handle beside the `dyn` one for
/// [`crate::Adal::health`] and [`crate::Adal::drain_journal`] only.
pub(crate) struct ResilientBackend {
    project: String,
    primary: Arc<dyn StorageBackend>,
    replica: Option<Arc<dyn StorageBackend>>,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    journal: RedoJournal,
    verify_writes: bool,
    rng: OrderedMutex<SimRng>,
    metrics: ResilienceMetrics,
    obs: Arc<Registry>,
    pool: WorkerPool,
}

impl ResilientBackend {
    /// A closed breaker and an empty journal over `primary`; successful
    /// writes are also copied to `replica` (best effort), so it can
    /// serve reads while the breaker is open.
    pub(crate) fn new(
        project: &str,
        primary: Arc<dyn StorageBackend>,
        replica: Option<Arc<dyn StorageBackend>>,
        cfg: ResilienceConfig,
        obs: Arc<Registry>,
        pool: WorkerPool,
    ) -> Self {
        let metrics = ResilienceMetrics::new(&obs, project);
        metrics.breaker_state.set(BreakerState::Closed.as_gauge());
        ResilientBackend {
            project: project.to_string(),
            primary,
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
            obs,
            pool,
        }
    }

    /// Point-in-time health of the mount this backend serves.
    pub(crate) fn health(&self) -> HealthReport {
        HealthReport {
            project: self.project.clone(),
            backend: self.primary.kind(),
            breaker: self.breaker.state(),
            failure_rate: self.breaker.failure_rate(),
            has_replica: self.replica.is_some(),
            journal_depth: self.journal.depth(),
            journal_bytes: self.journal.bytes(),
            retries: self.metrics.retries.get(),
            failover_reads: self.metrics.failover_reads.get(),
        }
    }

    /// Publishes a breaker transition to counters, the state gauge, the
    /// event ring, and — when a trace is live — the causal trace.
    fn note_transition(&self, ctx: &TraceCtx, t: BreakerTransition) {
        match t.to {
            BreakerState::Open => self.metrics.breaker_to_open.inc(),
            BreakerState::HalfOpen => self.metrics.breaker_to_half_open.inc(),
            BreakerState::Closed => self.metrics.breaker_to_closed.inc(),
        }
        self.metrics.breaker_state.set(t.to.as_gauge());
        let fields = [("project", &*self.project), ("from", t.from.name()), ("to", t.to.name())];
        ctx.event(names::ADAL_BREAKER_TRANSITION_EVENT, &fields);
        self.obs.event(names::ADAL_BREAKER_LOG_EVENT, &fields);
    }

    /// Asks the breaker for permission to call the primary.
    fn acquire(&self, ctx: &TraceCtx) -> bool {
        let (ok, t) = self.breaker.try_acquire(self.obs.now_ns());
        if let Some(t) = t {
            self.note_transition(ctx, t);
        }
        ok
    }

    /// Records a call outcome in the breaker.
    fn record(&self, ctx: &TraceCtx, success: bool) {
        if let Some(t) = self.breaker.record(self.obs.now_ns(), success) {
            self.note_transition(ctx, t);
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
        ctx: &TraceCtx,
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
                    self.record(ctx, true);
                    return Ok(v);
                }
                Err(e) if e.is_transient() => {
                    self.metrics.transient_observed.inc();
                    self.record(ctx, false);
                    let out_of_attempts = attempt + 1 >= self.policy.max_attempts;
                    // A breaker our own failures just opened must not be
                    // hammered by the rest of the retry budget.
                    if out_of_attempts || self.breaker.state() == BreakerState::Open {
                        self.metrics.retry_exhausted.inc();
                        let project = [("project", &*self.project)];
                        ctx.event(names::ADAL_RETRY_EXHAUSTED_EVENT, &project);
                        return Err(e);
                    }
                    let delay = self.policy.delay_ns(attempt, &mut self.rng.lock());
                    self.metrics.backoff_ns.record(delay);
                    self.metrics.retries.inc();
                    if ctx.is_enabled() {
                        ctx.event(
                            names::ADAL_RETRY_EVENT,
                            &[("project", &*self.project), ("delay_ns", &delay.to_string())],
                        );
                    }
                    attempt += 1;
                }
                Err(e) => {
                    // The backend answered authoritatively: it is healthy,
                    // the request is just wrong (NotFound, AlreadyExists…).
                    self.record(ctx, true);
                    return Err(e);
                }
            }
        }
    }

    /// One primary put attempt with optional read-back verification.
    /// The read-back is compared against the source payload with
    /// [`Payload::content_eq`] — an identical shared buffer verifies in
    /// O(1), a substituted (torn) buffer fails the byte comparison, and
    /// neither side is hashed. A mismatch removes the bad copy and
    /// reports [`BackendError::Integrity`] so the retry loop redoes the
    /// transfer.
    fn put_verified(&self, ctx: &TraceCtx, key: &str, data: &Payload) -> Result<(), BackendError> {
        // lint: allow(payload_copy) -- Payload handle clone: refcount bump
        self.primary.put(ctx, key, data.clone())?;
        if !self.verify_writes {
            return Ok(());
        }
        match self.primary.get(ctx, key) {
            Ok(back) if back.content_eq(data) => Ok(()),
            Ok(_) => {
                self.metrics.verify_failures.inc();
                let _ = self.primary.delete(ctx, key);
                Err(BackendError::Integrity(format!(
                    "write verification failed for '{key}'"
                )))
            }
            Err(e) => {
                // Could not read our own write back: clean up and let the
                // retry loop redo the transfer.
                let _ = self.primary.delete(ctx, key);
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

    /// Lands a write on the primary: verified, under the retry policy.
    fn land(&self, ctx: &TraceCtx, key: &str, data: &Payload) -> Result<(), BackendError> {
        self.with_retries(ctx, |actx| self.put_verified(actx, key, data))
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

    /// Acknowledges a write into the redo journal (degraded-write path).
    fn journal_put(&self, ctx: &TraceCtx, key: &str, data: Payload) -> Result<(), BackendError> {
        // The primary cannot be asked whether the key exists, but the
        // replica holds a copy of every landed write: honour write-once
        // as far as it can be checked (through `ctx`, so a fault
        // injected on this probe is traced).
        if let Some(rep) = &self.replica {
            if rep.stat(ctx, key).is_ok() {
                return Err(BackendError::AlreadyExists(key.to_string()));
            }
        }
        if self.journal.push(key, data) {
            self.metrics.journal_enqueued.inc();
            self.sync_journal_gauges();
            let fields = [("project", &*self.project), ("key", key)];
            ctx.event(names::ADAL_JOURNAL_ENQUEUE_EVENT, &fields);
            self.obs.event(names::ADAL_JOURNAL_ENQUEUE_EVENT, &fields);
            Ok(())
        } else {
            // A full journal must NOT acknowledge: that would risk data
            // loss the caller never hears about.
            Err(BackendError::NoSpace(format!(
                "redo journal for '{}' is full",
                self.project
            )))
        }
    }

    /// Serves a read from the replica, counting the failover.
    fn failover_read<T>(
        &self,
        ctx: &TraceCtx,
        key: &str,
        read: impl FnOnce(&dyn StorageBackend) -> Result<T, BackendError>,
    ) -> Result<T, BackendError> {
        let Some(rep) = &self.replica else {
            return Err(BackendError::Unavailable(format!(
                "backend for '{}' is unavailable and no replica is mounted",
                self.project
            )));
        };
        let out = read(&**rep)?;
        self.metrics.failover_reads.inc();
        let fields = [("project", &*self.project), ("key", key)];
        ctx.event(names::ADAL_FAILOVER_READ_EVENT, &fields);
        self.obs.event(names::ADAL_FAILOVER_READ_EVENT, &fields);
        Ok(out)
    }

    /// A read of the primary under the breaker and the retry policy,
    /// failing over to the replica when the primary cannot be asked or
    /// keeps failing transiently. `Ok` carries whether the primary
    /// itself answered.
    fn read<T>(
        &self,
        ctx: &TraceCtx,
        key: &str,
        read: impl Fn(&dyn StorageBackend, &TraceCtx) -> Result<T, BackendError>,
    ) -> Result<(T, bool), BackendError> {
        if self.acquire(ctx) {
            match self.with_retries(ctx, |actx| read(&*self.primary, actx)) {
                Ok(out) => return Ok((out, true)),
                Err(e) if e.is_transient() => { /* fall over to the replica */ }
                Err(e) => return Err(e),
            }
        }
        Ok((self.failover_read(ctx, key, |rep| read(rep, ctx))?, false))
    }

    /// Drains the redo journal while the breaker allows it. Called after
    /// successful operations and by [`crate::Adal::drain_journal`]; each
    /// landed entry is verified and replicated like a live put. Returns
    /// entries landed.
    ///
    /// Peek, land, then remove: the entry stays queued — readable, and
    /// refusing a second write of its key — until it is on the primary,
    /// and a failed pass simply leaves it where it was. `remove` is
    /// also the tie-break between concurrent drainers: both may land
    /// the same entry (the loser sees equal content), one counts it.
    pub(crate) fn drain_step(&self, ctx: &TraceCtx) -> usize {
        let mut drained = 0;
        while self.journal.depth() > 0 && self.acquire(ctx) {
            let Some((key, data)) = self.journal.front() else { break };
            let conflict = || {
                self.metrics.journal_conflicts.inc();
                self.obs.event(
                    names::ADAL_JOURNAL_CONFLICT_LOG_EVENT,
                    &[("project", &*self.project), ("key", &key)],
                );
            };
            // Zero hashes per journal entry: the landing attempt, the
            // conflict comparison, and the repair re-put all compare
            // payload content directly.
            let landed = match self.land(ctx, &key, &data) {
                Ok(()) => {
                    self.replicate(ctx, &key, &data);
                    self.obs.event(
                        names::ADAL_JOURNAL_DRAIN_LOG_EVENT,
                        &[("project", &*self.project), ("key", &key)],
                    );
                    true
                }
                // The key landed before the outage. Equal payload: the
                // drain is a no-op. Different payload: the journal holds
                // the acknowledged write — repair the primary (covers
                // torn residue left by a failed verify cleanup).
                Err(BackendError::AlreadyExists(_)) => match self.primary.get(ctx, &key) {
                    Ok(existing) if existing.content_eq(&data) => true,
                    _ => {
                        conflict();
                        let _ = self.primary.delete(ctx, &key);
                        if self.land(ctx, &key, &data).is_err() {
                            break;
                        }
                        self.replicate(ctx, &key, &data);
                        true
                    }
                },
                // Transient exhaustion or the disk filling up: the entry
                // stays queued; stop this pass.
                Err(e) if e.is_transient() || matches!(e, BackendError::NoSpace(_)) => break,
                // Deterministic refusal (e.g. Unsupported): the entry
                // can never land — drop it as a conflict rather than
                // wedge the journal forever.
                Err(_) => {
                    conflict();
                    false
                }
            };
            if self.journal.remove(&key).is_some() {
                self.sync_journal_gauges();
                if landed {
                    drained += 1;
                    self.metrics.journal_drained.inc();
                }
            }
        }
        drained
    }
}

impl StorageBackend for ResilientBackend {
    fn kind(&self) -> &'static str {
        self.primary.kind()
    }

    /// Retried through transient faults, verified against torn writes,
    /// and — when the primary is down — acknowledged into the redo
    /// journal for later draining.
    fn put(&self, ctx: &TraceCtx, key: &str, data: Payload) -> Result<(), BackendError> {
        // Write-once applies to acknowledged-but-unlanded writes too.
        if self.journal.lookup(key).is_some() {
            return Err(BackendError::AlreadyExists(key.to_string()));
        }
        if !self.acquire(ctx) {
            return self.journal_put(ctx, key, data);
        }
        // No hashing here: read-back verification compares payload
        // content directly, and the catalog/object-store digest is
        // memoized on the shared handle.
        // Both legs' child spans are reserved here, serially and in a
        // fixed order, BEFORE any parallel hand-off: the trace tree is
        // therefore identical at every worker count.
        let primary_ctx = ctx.child(names::ADAL_PRIMARY_PUT_SPAN);
        let replica_ctx = if self.replica.is_some() {
            ctx.child(names::ADAL_REPLICA_PUT_SPAN)
        } else {
            TraceCtx::disabled()
        };
        let primary = match (&self.replica, self.pool.is_parallel()) {
            // Parallel fan-out: the replica leg shares the payload
            // handle (refcount bump, shared digest cell) and streams
            // concurrently with the primary's verified write.
            (Some(rep), true) => {
                let (primary, replica) = self.pool.join(
                    || {
                        let out = self.land(&primary_ctx, key, &data);
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
                    (Ok(()), Err(_)) => self.metrics.replica_write_failures.inc(),
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
                let out = self.land(&primary_ctx, key, &data);
                primary_ctx.finish();
                if out.is_ok() {
                    self.replicate(&replica_ctx, key, &data);
                }
                replica_ctx.finish();
                out
            }
        };
        match primary {
            Ok(()) => {
                self.drain_step(ctx);
                Ok(())
            }
            // Retry budget spent on transient faults (or the breaker
            // opened): degrade to the journal rather than bounce the
            // experiment's data.
            Err(e) if e.is_transient() => self.journal_put(ctx, key, data),
            Err(e) => Err(e),
        }
    }

    /// Journaled writes are readable immediately (read-your-writes),
    /// transient faults are retried, and an open breaker fails the read
    /// over to the replica.
    fn get(&self, ctx: &TraceCtx, key: &str) -> Result<Payload, BackendError> {
        if let Some(data) = self.journal.lookup(key) {
            return Ok(data);
        }
        let (data, from_primary) = self.read(ctx, key, |b, c| b.get(c, key))?;
        if from_primary {
            self.drain_step(ctx);
        }
        Ok(data)
    }

    /// Degrades like `get`.
    fn stat(&self, ctx: &TraceCtx, key: &str) -> Result<EntryMeta, BackendError> {
        if let Some(data) = self.journal.lookup(key) {
            return Ok(EntryMeta {
                key: key.to_string(),
                size: data.len() as u64,
            });
        }
        Ok(self.read(ctx, key, |b, c| b.stat(c, key))?.0)
    }

    /// A delete first cancels any journaled write for the key.
    fn delete(&self, ctx: &TraceCtx, key: &str) -> Result<(), BackendError> {
        // A journaled write never reached the primary or the replica:
        // cancelling it completes the delete.
        if self.journal.remove(key).is_some() {
            self.sync_journal_gauges();
            return Ok(());
        }
        if !self.acquire(ctx) {
            return Err(BackendError::Unavailable(format!(
                "backend for '{}' is cooling down (breaker open)",
                self.project
            )));
        }
        self.with_retries(ctx, |actx| self.primary.delete(actx, key))?;
        if let Some(rep) = &self.replica {
            // Best effort: the replica copy may or may not exist.
            let _ = rep.delete(ctx, key);
        }
        self.drain_step(ctx);
        Ok(())
    }

    /// The listing merges journaled (acknowledged but not yet landed)
    /// writes.
    fn list(&self, ctx: &TraceCtx, prefix: &str) -> Result<Vec<EntryMeta>, BackendError> {
        let (landed, _) = self.read(ctx, prefix, |b, c| b.list(c, prefix))?;
        // The journal wins on key collisions (it is the newer
        // acknowledged state).
        let mut out: Vec<EntryMeta> = self
            .journal
            .entries_under(prefix)
            .into_iter()
            .map(|(key, size)| EntryMeta { key, size })
            .collect();
        let journaled: HashSet<String> = out.iter().map(|e| e.key.clone()).collect();
        out.extend(landed.into_iter().filter(|e| !journaled.contains(&e.key)));
        out.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pay(b: &'static [u8]) -> Payload {
        Payload::new(bytes::Bytes::from_static(b))
    }

    #[test]
    fn backoff_doubles_until_capped() {
        let p = RetryPolicy::new(6, 100, 1_000, 0);
        let mut rng = SimRng::seed_from_u64(1);
        let delays: Vec<u64> = (0..5).map(|k| p.delay_ns(k, &mut rng)).collect();
        assert_eq!(delays, vec![100, 200, 400, 800, 1_000]);
    }

    #[test]
    fn backoff_schedule_is_monotone_and_deterministic() {
        let p = RetryPolicy::new(8, 1_000, 50_000, 900);
        let a = p.schedule(7);
        let b = p.schedule(7);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0] <= w[1], "schedule must be non-decreasing: {a:?}");
        }
        assert!(a.iter().all(|d| *d <= 50_000));
    }

    #[test]
    fn jitter_is_clamped_to_base() {
        let p = RetryPolicy::new(3, 10, 1_000, 999);
        assert_eq!(p.jitter_ns, 10);
    }

    #[test]
    fn breaker_full_cycle() {
        let cb = CircuitBreaker::new(BreakerConfig {
            window: 4,
            min_calls: 2,
            failure_rate: 0.5,
            cooldown_ns: 100,
            half_open_probes: 2,
        });
        assert_eq!(cb.state(), BreakerState::Closed);
        assert!(cb.record(0, false).is_none(), "below min_calls");
        let t = cb.record(1, false).expect("opens at 2/2 failures");
        assert_eq!(t.to, BreakerState::Open);
        // Rejected during cool-down.
        let (ok, t) = cb.try_acquire(50);
        assert!(!ok);
        assert!(t.is_none());
        // Half-opens after cool-down.
        let (ok, t) = cb.try_acquire(101);
        assert!(ok);
        assert_eq!(t.unwrap().to, BreakerState::HalfOpen);
        // One success is not enough; the second closes.
        assert!(cb.record(102, true).is_none());
        let t = cb.record(103, true).expect("closes after probes");
        assert_eq!(t.from, BreakerState::HalfOpen);
        assert_eq!(t.to, BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens() {
        let cb = CircuitBreaker::new(BreakerConfig {
            window: 4,
            min_calls: 1,
            failure_rate: 0.5,
            cooldown_ns: 10,
            half_open_probes: 1,
        });
        cb.record(0, false);
        assert_eq!(cb.state(), BreakerState::Open);
        let (ok, _) = cb.try_acquire(20);
        assert!(ok);
        let t = cb.record(21, false).expect("probe failure reopens");
        assert_eq!(t.to, BreakerState::Open);
        // New cool-down runs from the reopen time.
        assert!(!cb.try_acquire(25).0);
        assert!(cb.try_acquire(31).0);
    }

    #[test]
    fn journal_bounds_and_read_your_writes() {
        let j = RedoJournal::new(2, 100);
        assert!(j.push("a", pay(b"xx")));
        assert!(!j.push("a", pay(b"yy")), "duplicate key");
        assert!(j.push("b", pay(b"zz")));
        assert!(!j.push("c", pay(b"ww")), "entry bound");
        assert_eq!(j.lookup("a").unwrap(), pay(b"xx"));
        assert_eq!(j.depth(), 2);
        assert_eq!(j.bytes(), 4);
        assert_eq!(j.remove("a").unwrap(), pay(b"xx"));
        assert_eq!(j.depth(), 1);
        assert_eq!(j.front().unwrap(), ("b".to_string(), pay(b"zz")));
        assert_eq!(j.depth(), 1);
        assert_eq!(j.bytes(), 2);
    }

    #[test]
    fn journal_byte_bound_enforced() {
        let j = RedoJournal::new(100, 3);
        assert!(j.push("a", pay(b"ab")));
        assert!(!j.push("b", pay(b"cd")), "byte bound");
        assert!(j.push("c", pay(b"e")));
    }
}
