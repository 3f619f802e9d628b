//! A `StorageBackend` wrapper that injects the faults a plan decides.

use std::sync::Arc;

use lsdf_storage::Payload;

use lsdf_adal::{BackendError, EntryMeta, StorageBackend};
use lsdf_obs::{Counter, Histogram, Registry, TraceCtx};
use lsdf_sim::SimRng;
use lsdf_sync::{ranks, OrderedMutex};

use crate::plan::{FaultDecision, FaultPlan};
use lsdf_obs::names;

/// Per-backend injection state: the fault RNG stream and the op index,
/// advanced together under one lock so concurrent callers still see a
/// single deterministic fault sequence.
struct InjectState {
    rng: SimRng,
    ops: u64,
}

/// Cached registry handles for the injection counters.
struct ChaosObs {
    outages: Counter,
    transients: Counter,
    torn_writes: Counter,
    latency_spikes: Counter,
    injected_latency: Histogram,
}

impl ChaosObs {
    fn new(reg: &Registry, backend: &str) -> Self {
        let fault = |f| reg.counter(names::CHAOS_INJECTED_TOTAL, &[("backend", backend), ("fault", f)]);
        ChaosObs {
            outages: fault("outage"),
            transients: fault("transient"),
            torn_writes: fault("torn_write"),
            latency_spikes: fault("latency_spike"),
            injected_latency: reg.histogram(names::CHAOS_INJECTED_LATENCY_NS, &[("backend", backend)]),
        }
    }
}

/// Wraps a [`StorageBackend`] and injects faults per a [`FaultPlan`].
///
/// Injected failures surface as the errors real hardware produces —
/// [`BackendError::Unavailable`] for scheduled outages,
/// [`BackendError::TransientIo`] for probabilistic drops — and torn
/// writes corrupt one payload byte while still acknowledging the call,
/// exactly the failure a read-back checksum must catch. Every injection
/// is counted in `chaos_injected_total{backend,fault}`; latency spikes
/// additionally land in `chaos_injected_latency_ns{backend}`.
pub struct FaultyBackend {
    inner: Arc<dyn StorageBackend>,
    name: String,
    plan: FaultPlan,
    state: OrderedMutex<InjectState>,
    obs: ChaosObs,
}

impl FaultyBackend {
    /// Wraps `inner` under `plan`, drawing faults from the plan's RNG
    /// stream for `name` and counting injections in `registry`.
    pub fn new(
        name: &str,
        inner: Arc<dyn StorageBackend>,
        plan: FaultPlan,
        registry: &Registry,
    ) -> Arc<Self> {
        let rng = plan.stream(name);
        Arc::new(FaultyBackend {
            inner,
            name: name.to_string(),
            obs: ChaosObs::new(registry, name),
            plan,
            state: OrderedMutex::new(ranks::CHAOS_INJECT, InjectState { rng, ops: 0 }),
        })
    }

    /// The injection name this backend counts faults under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operations seen so far (the outage-window clock).
    pub fn ops_seen(&self) -> u64 {
        self.state.lock().ops
    }

    /// Draws the fault decision for the next operation and counts the
    /// non-tearing injections (torn writes are counted at the tear, so
    /// an empty payload that cannot be torn is not over-counted).
    fn next_decision(&self, is_write: bool) -> FaultDecision {
        let mut st = self.state.lock();
        let op = st.ops;
        st.ops += 1;
        let d = self.plan.decide(op, is_write, &mut st.rng);
        if d.outage {
            self.obs.outages.inc();
        }
        if d.transient {
            self.obs.transients.inc();
        }
        if let Some(ns) = d.latency_ns {
            self.obs.latency_spikes.inc();
            self.obs.injected_latency.record(ns);
        }
        d
    }

    /// Maps a decision to the error it injects, if any.
    fn gate(&self, d: &FaultDecision, op: &str, key: &str) -> Result<(), BackendError> {
        if d.outage {
            return Err(BackendError::Unavailable(format!(
                "injected outage: {} {op} '{key}'",
                self.name
            )));
        }
        if d.transient {
            return Err(BackendError::TransientIo(format!(
                "injected fault: {} {op} '{key}'",
                self.name
            )));
        }
        Ok(())
    }

    /// Mirrors the non-tearing injection counters onto the trace: every
    /// operation has one body, so a trace's `chaos_fault` events
    /// reconcile 1:1 with `chaos_injected_total` whenever the caller's
    /// ctx is enabled.
    fn trace_decision(&self, ctx: &TraceCtx, d: &FaultDecision) {
        if !ctx.is_enabled() {
            return;
        }
        if d.outage {
            ctx.event(
                names::CHAOS_FAULT_EVENT,
                &[("backend", self.name.as_str()), ("fault", "outage")],
            );
        }
        if d.transient {
            ctx.event(
                names::CHAOS_FAULT_EVENT,
                &[("backend", self.name.as_str()), ("fault", "transient")],
            );
        }
        if let Some(ns) = d.latency_ns {
            ctx.event(
                names::CHAOS_FAULT_EVENT,
                &[
                    ("backend", self.name.as_str()),
                    ("fault", "latency_spike"),
                    ("latency_ns", &ns.to_string()),
                ],
            );
        }
    }

    /// Flips one payload byte (torn write). The shared buffer is
    /// immutable, so the flip happens on a private copy returned as a
    /// *fresh* payload: its new digest cell cannot inherit the
    /// original's memoized digest, which is exactly what lets read-back
    /// verification catch the tear.
    fn tear(&self, data: Payload) -> Payload {
        if data.is_empty() {
            return data;
        }
        let idx = {
            let mut st = self.state.lock();
            st.rng.index(data.len())
        };
        self.obs.torn_writes.inc();
        let mut torn = data.to_vec();
        torn[idx] ^= 0x01;
        Payload::from(torn)
    }
}

impl StorageBackend for FaultyBackend {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn put(&self, ctx: &TraceCtx, key: &str, data: Payload) -> Result<(), BackendError> {
        let d = self.next_decision(true);
        self.trace_decision(ctx, &d);
        self.gate(&d, "put", key)?;
        let payload = if d.torn {
            // tear() silently skips empty payloads; only an actual flip
            // is counted, so only an actual flip is traced.
            if !data.is_empty() && ctx.is_enabled() {
                ctx.event(
                    names::CHAOS_FAULT_EVENT,
                    &[("backend", self.name.as_str()), ("fault", "torn_write")],
                );
            }
            self.tear(data)
        } else {
            data
        };
        self.inner.put(ctx, key, payload)
    }

    fn get(&self, ctx: &TraceCtx, key: &str) -> Result<Payload, BackendError> {
        let d = self.next_decision(false);
        self.trace_decision(ctx, &d);
        self.gate(&d, "get", key)?;
        self.inner.get(ctx, key)
    }

    fn stat(&self, ctx: &TraceCtx, key: &str) -> Result<EntryMeta, BackendError> {
        let d = self.next_decision(false);
        self.trace_decision(ctx, &d);
        self.gate(&d, "stat", key)?;
        self.inner.stat(ctx, key)
    }

    fn delete(&self, ctx: &TraceCtx, key: &str) -> Result<(), BackendError> {
        let d = self.next_decision(false);
        self.trace_decision(ctx, &d);
        self.gate(&d, "delete", key)?;
        self.inner.delete(ctx, key)
    }

    fn list(&self, ctx: &TraceCtx, prefix: &str) -> Result<Vec<EntryMeta>, BackendError> {
        let d = self.next_decision(false);
        self.trace_decision(ctx, &d);
        self.gate(&d, "list", prefix)?;
        self.inner.list(ctx, prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdf_adal::ObjectStoreBackend;
    use lsdf_storage::ObjectStore;

    fn store(name: &str) -> Arc<dyn StorageBackend> {
        Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(
            name,
            u64::MAX,
        ))))
    }

    fn b(s: &str) -> Payload {
        Payload::from(s.as_bytes().to_vec())
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let reg = Registry::new();
        let ctx = TraceCtx::disabled();
        let fb = FaultyBackend::new("disk", store("d"), FaultPlan::quiet(1), &reg);
        fb.put(&ctx, "k", b("v")).unwrap();
        assert_eq!(fb.get(&ctx, "k").unwrap(), b("v"));
        assert_eq!(fb.stat(&ctx, "k").unwrap().size, 1);
        assert_eq!(fb.list(&ctx, "").unwrap().len(), 1);
        fb.delete(&ctx, "k").unwrap();
        assert!(fb.stat(&ctx, "k").is_err());
        assert_eq!(reg.counter_total(names::CHAOS_INJECTED_TOTAL), 0);
        assert_eq!(fb.ops_seen(), 6);

        // A single put is a batch of one here too: `stage_put` +
        // `commit_staged` on a twin leaves what `put` leaves and refuses
        // a taken key with the same error.
        let twin = FaultyBackend::new("twin", store("t"), FaultPlan::quiet(1), &reg);
        let batch_of_one = |key: &str, data: Payload| {
            let staged = twin.stage_put(&ctx, key, data)?;
            twin.commit_staged(vec![staged]).pop().expect("one result per staged put")
        };
        for key in ["p/1", "p/2", "q/3"] {
            fb.put(&ctx, key, b(key)).unwrap();
            batch_of_one(key, b(key)).unwrap();
        }
        assert_eq!(fb.get(&ctx, "p/2"), twin.get(&ctx, "p/2"));
        assert_eq!(fb.stat(&ctx, "p/2"), twin.stat(&ctx, "p/2"));
        assert_eq!(fb.list(&ctx, "p/"), twin.list(&ctx, "p/"));
        let taken = fb.put(&ctx, "p/1", b("again"));
        assert!(matches!(taken, Err(BackendError::AlreadyExists(_))));
        assert_eq!(taken, batch_of_one("p/1", b("again")));
    }

    #[test]
    fn outage_window_fails_exactly_its_ops() {
        let ctx = TraceCtx::disabled();
        let reg = Registry::new();
        let plan = FaultPlan::quiet(1).outage(1, 3);
        let fb = FaultyBackend::new("disk", store("d"), plan, &reg);
        fb.put(&ctx, "a", b("1")).unwrap(); // op 0: before the window
        assert!(matches!(
            fb.put(&ctx, "b", b("2")), // op 1
            Err(BackendError::Unavailable(_))
        ));
        assert!(matches!(fb.get(&ctx, "a"), Err(BackendError::Unavailable(_)))); // op 2
        assert_eq!(fb.get(&ctx, "a").unwrap(), b("1")); // op 3: recovered
        assert_eq!(
            reg.counter_value(
                names::CHAOS_INJECTED_TOTAL,
                &[("backend", "disk"), ("fault", "outage")]
            ),
            2
        );
    }

    #[test]
    fn transient_faults_are_counted_and_reproducible() {
        let ctx = TraceCtx::disabled();
        let run = || {
            let reg = Registry::new();
            let plan = FaultPlan::quiet(9).transient(0.5);
            let fb = FaultyBackend::new("disk", store("d"), plan, &reg);
            (0..64)
                .map(|i| fb.put(&ctx, &format!("k{i}"), b("x")).is_ok())
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|ok| *ok));
        assert!(a.iter().any(|ok| !*ok));
    }

    #[test]
    fn torn_write_acknowledges_but_corrupts() {
        let ctx = TraceCtx::disabled();
        let reg = Registry::new();
        let inner = store("d");
        let plan = FaultPlan::quiet(5).torn_writes(1.0);
        let fb = FaultyBackend::new("disk", inner.clone(), plan, &reg);
        fb.put(&ctx, "k", b("payload")).unwrap(); // acked!
        let stored = inner.get(&ctx, "k").unwrap();
        assert_ne!(stored, b("payload"));
        assert_eq!(stored.len(), 7); // one byte flipped, not truncated
        assert_eq!(
            reg.counter_value(
                names::CHAOS_INJECTED_TOTAL,
                &[("backend", "disk"), ("fault", "torn_write")]
            ),
            1
        );
    }

    #[test]
    fn torn_write_mutates_a_private_copy_never_the_shared_buffer() {
        let ctx = TraceCtx::disabled();
        // The zero-copy invariant under chaos: the caller's Payload
        // handle is shared with replicas and the catalog, so a torn
        // write must corrupt its own copy — the shared buffer and its
        // memoized digest cell stay pristine.
        let reg = Registry::new();
        let inner = store("d");
        let plan = FaultPlan::quiet(5).torn_writes(1.0);
        let fb = FaultyBackend::new("disk", inner.clone(), plan, &reg);
        let original = b("payload");
        let caller_handle = original.clone(); // e.g. the replica's handle
        let digest_before = caller_handle.digest();
        fb.put(&ctx, "k", original).unwrap();
        assert_eq!(caller_handle, b("payload"), "shared buffer was mutated");
        assert_eq!(
            caller_handle.digest(),
            digest_before,
            "memoized digest cell poisoned by the torn copy"
        );
        let stored = inner.get(&ctx, "k").unwrap();
        assert_ne!(stored, caller_handle);
        assert_ne!(stored.digest(), digest_before, "tear got its own digest cell");
    }

    #[test]
    fn faulty_backend_is_send_sync() {
        // The worker pool fans ADAL puts across threads; a chaos-wrapped
        // backend must stay shareable or pooled soaks cannot compile.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FaultyBackend>();
    }

    #[test]
    fn latency_spikes_recorded_without_failing() {
        let ctx = TraceCtx::disabled();
        let reg = Registry::new();
        let plan = FaultPlan::quiet(2).latency_spikes(1.0, 7_000);
        let fb = FaultyBackend::new("disk", store("d"), plan, &reg);
        fb.put(&ctx, "k", b("v")).unwrap();
        assert_eq!(fb.get(&ctx, "k").unwrap(), b("v"));
        let h = reg.histogram(names::CHAOS_INJECTED_LATENCY_NS, &[("backend", "disk")]);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 14_000);
    }
}
