//! Tracing <-> metrics reconciliation under chaos.
//!
//! A seeded mini-soak against a faulty primary, with full causal
//! tracing on, must tell the *same story* twice: every retry, retry
//! exhaustion, breaker-open transition, and injected fault that the
//! metric counters tally must appear as a trace event, and vice versa.
//! Divergence would mean one of the two observability channels lies.
//!
//! The same run doubles as the SLO-flip witness: a declarative rule on
//! the breaker-state gauge must flip `FacilityHealth` to violated while
//! the breaker is open mid-soak and back to healthy once the facility
//! recovers.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use lsdf_adal::{
    Acl, Adal, BreakerConfig, Credential, ObjectStoreBackend, ResilienceConfig, RetryPolicy,
    StorageBackend, TokenAuth,
};
use lsdf_chaos::{FaultPlan, FaultyBackend};
use lsdf_obs::{
    names, Registry, SloMonitor, SloRule, TelemetryConfig, TelemetryStore, TraceConfig, Tracer,
};
use lsdf_sim::SimRng;
use lsdf_storage::ObjectStore;

const OPS: u64 = 1_500;
const MS: u64 = 1_000_000;

/// Counts trace events by `(event name, fault/to field value)` across
/// every retained trace.
fn event_tallies(tracer: &Tracer) -> BTreeMap<(String, String), u64> {
    let mut tallies: BTreeMap<(String, String), u64> = BTreeMap::new();
    for trace in tracer.traces() {
        trace.root.for_each_event(&mut |_, event| {
            let detail = event
                .fields
                .iter()
                .find(|(k, _)| k == "fault" || k == "to")
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            *tallies.entry((event.name.to_string(), detail)).or_insert(0) += 1;
        });
    }
    tallies
}

fn object_store(name: &str) -> Arc<dyn StorageBackend> {
    Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(name, u64::MAX))))
}

/// A fully traced ADAL with project `soak` mounted resiliently over
/// `primary` and `replica`.
fn traced_soak_adal(
    seed: u64,
    reg: &Arc<Registry>,
    tracer: &Tracer,
    primary: Arc<dyn StorageBackend>,
    replica: Arc<dyn StorageBackend>,
) -> (Adal, Credential) {
    let auth = Arc::new(TokenAuth::new());
    auth.register("tok", "operator");
    let acl = Arc::new(Acl::new());
    acl.grant("operator", "soak", true);
    let adal = Adal::builder()
        .auth(auth)
        .acl(acl)
        .registry(reg.clone())
        .tracer(tracer.clone())
        .build();
    adal.mount_resilient(
        "soak",
        primary,
        Some(replica),
        ResilienceConfig {
            retry: RetryPolicy::new(4, MS, 50 * MS, MS / 2),
            breaker: BreakerConfig {
                window: 16,
                min_calls: 8,
                failure_rate: 0.5,
                cooldown_ns: 10 * MS,
                half_open_probes: 2,
            },
            seed,
            ..ResilienceConfig::default()
        },
    );
    (adal, Credential::Token("tok".into()))
}

#[test]
fn traced_chaos_soak_reconciles_events_with_counters() {
    let seed = 0x15df_0005u64;
    let reg = Arc::new(Registry::new());
    reg.set_virtual_time_ns(1);
    let tracer = Tracer::new(&reg, TraceConfig::full().capacity(100_000).seed(seed));

    // With full tracing every backend op runs under an enabled trace
    // context — so chaos decisions are visible to both the counters
    // and the trace events.
    let primary: Arc<dyn StorageBackend> = FaultyBackend::new(
        "soak",
        object_store("soak-primary"),
        FaultPlan::quiet(seed)
            .transient(0.05)
            .torn_writes(0.02)
            .latency_spikes(0.05, 2 * MS)
            .outage(150, 190),
        &reg,
    );
    let (adal, cred) =
        traced_soak_adal(seed, &reg, &tracer, primary, object_store("soak-replica"));

    // The SLO under test: the soak project's breaker must be closed.
    let rule = format!("gauge({}{{project=soak}}) == 0", names::ADAL_BREAKER_STATE);
    let monitor = SloMonitor::new(vec![SloRule::parse(&rule).expect("rule parses")]);
    // A gauge rule reads the current value; the monitor still takes a
    // history, which stays empty here.
    let history = TelemetryStore::new(TelemetryConfig::default());
    let mut violated_mid_soak = false;

    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut keys: Vec<String> = Vec::new();
    let mut rng = SimRng::seed_from_u64(seed).stream("trace-reconciliation");
    for i in 0..OPS {
        reg.set_virtual_time_ns(1 + i * MS);
        match rng.index(100) {
            0..=54 => {
                let path = format!("lsdf://soak/k/{i:05}");
                let len = rng.range_u64(1, 48) as usize;
                let payload: Vec<u8> = (0..len).map(|_| rng.range_u64(0, 256) as u8).collect();
                if adal.put(&cred, &path, Bytes::from(payload.clone())).is_ok() {
                    keys.push(path.clone());
                    model.insert(path, payload);
                }
            }
            55..=84 if !keys.is_empty() => {
                let path = &keys[rng.index(keys.len())];
                let data = adal
                    .get(&cred, path)
                    .unwrap_or_else(|e| panic!("acked read {path} failed at op {i}: {e}"));
                assert_eq!(&data[..], &model[path.as_str()][..]);
            }
            _ if !keys.is_empty() => {
                let path = &keys[rng.index(keys.len())];
                let meta = adal
                    .stat(&cred, path)
                    .unwrap_or_else(|e| panic!("acked stat {path} failed at op {i}: {e}"));
                assert_eq!(meta.size, model[path.as_str()].len() as u64);
            }
            _ => {}
        }
        if !monitor.evaluate(&reg, &history).healthy {
            violated_mid_soak = true;
        }
    }
    assert!(
        violated_mid_soak,
        "the breaker-state SLO never flipped FacilityHealth to violated under chaos"
    );

    // Recovery: cooldowns expire, journals drain, breaker closes.
    let mut t = 1 + OPS * MS;
    for round in 0..200u64 {
        t += 20 * MS;
        reg.set_virtual_time_ns(t);
        adal.drain_journal("soak");
        if adal.health("soak").map(|h| h.journal_depth) == Some(0) {
            break;
        }
        assert!(round < 199, "journal failed to drain");
    }
    let health = monitor.evaluate(&reg, &history);
    assert!(
        health.healthy,
        "facility must be healthy after recovery: {:?}",
        health.rules
    );

    // Reconciliation: trace events and metric counters agree exactly.
    let tallies = event_tallies(&tracer);
    let tally = |name: &str, detail: &str| {
        tallies
            .get(&(name.to_string(), detail.to_string()))
            .copied()
            .unwrap_or(0)
    };
    let l = [("project", "soak")];
    assert_eq!(
        tally(names::ADAL_RETRY_EVENT, ""),
        reg.counter_value(names::ADAL_RETRIES_TOTAL, &l),
        "retry events vs retry counter"
    );
    assert_eq!(
        tally(names::ADAL_RETRY_EXHAUSTED_EVENT, ""),
        reg.counter_value(names::ADAL_RETRY_EXHAUSTED_TOTAL, &l),
        "retry-exhausted events vs counter"
    );
    for to in ["open", "half_open", "closed"] {
        assert_eq!(
            tally(names::ADAL_BREAKER_TRANSITION_EVENT, to),
            reg.counter_value(
                names::ADAL_BREAKER_TRANSITIONS_TOTAL,
                &[("project", "soak"), ("to", to)]
            ),
            "breaker transitions to {to}"
        );
    }
    for fault in ["transient", "torn_write", "outage", "latency_spike"] {
        assert_eq!(
            tally(names::CHAOS_FAULT_EVENT, fault),
            reg.counter_value(
                names::CHAOS_INJECTED_TOTAL,
                &[("backend", "soak"), ("fault", fault)]
            ),
            "chaos {fault} events vs injected counter"
        );
        assert!(
            tally(names::CHAOS_FAULT_EVENT, fault) >= 1,
            "no {fault} was injected — the soak is vacuous"
        );
    }

    // At least one retained trace tells a full degradation story:
    // retries that exhausted or a breaker that opened.
    let degraded = tracer.traces().into_iter().any(|tr| {
        let mut hit = false;
        tr.root.for_each_event(&mut |_, e| {
            if e.name == names::ADAL_RETRY_EXHAUSTED_EVENT
                || (e.name == names::ADAL_BREAKER_TRANSITION_EVENT
                    && e.fields.iter().any(|(k, v)| k == "to" && v == "open"))
            {
                hit = true;
            }
        });
        hit
    });
    assert!(
        degraded,
        "no trace captured a retry-exhausted or breaker-open event"
    );
}

/// A shorter run with a faulty replica as well (transient faults
/// only): the replica leg of a resilient put runs under the
/// `adal_replica_put` span it reserves, so a fault injected on the
/// replica is traced there — counted and traced, per backend name.
#[test]
fn a_faulty_replica_is_traced_under_its_replica_put_span() {
    let seed = 0x15df_0013u64;
    let reg = Arc::new(Registry::new());
    reg.set_virtual_time_ns(1);
    let tracer = Tracer::new(&reg, TraceConfig::full().capacity(100_000).seed(seed));
    let faulty = |name: &str, inner: &str| -> Arc<dyn StorageBackend> {
        let plan = FaultPlan::quiet(seed).transient(0.05);
        FaultyBackend::new(name, object_store(inner), plan, &reg)
    };
    let (adal, cred) = traced_soak_adal(
        seed,
        &reg,
        &tracer,
        faulty("soak", "soak-primary"),
        faulty("soak-replica", "soak-replica-disk"),
    );
    let mut rng = SimRng::seed_from_u64(seed).stream("faulty-replica");
    let mut keys: Vec<String> = Vec::new();
    for i in 0..OPS / 5 {
        reg.set_virtual_time_ns(1 + i * MS);
        if keys.is_empty() || rng.index(100) < 60 {
            let path = format!("lsdf://soak/k/{i:05}");
            if adal.put(&cred, &path, Bytes::from_static(b"payload")).is_ok() {
                keys.push(path);
            }
        } else {
            let path = &keys[rng.index(keys.len())];
            assert_eq!(&adal.get(&cred, path).expect("acked read")[..], b"payload");
        }
    }

    // Every chaos_fault event, by the backend that injected it and the
    // span it sits in.
    let mut events: BTreeMap<(String, &'static str), u64> = BTreeMap::new();
    for trace in tracer.traces() {
        trace.root.for_each_event(&mut |span, event| {
            if event.name == names::CHAOS_FAULT_EVENT {
                let backend = event.fields.iter().find(|(k, _)| k == "backend");
                let backend = backend.map(|(_, v)| v.clone()).unwrap_or_default();
                *events.entry((backend, span.name)).or_insert(0) += 1;
            }
        });
    }
    for backend in ["soak", "soak-replica"] {
        let traced: u64 = events.iter().filter(|((b, _), _)| b == backend).map(|(_, n)| n).sum();
        let labels = [("backend", backend), ("fault", "transient")];
        assert_eq!(
            traced,
            reg.counter_value(names::CHAOS_INJECTED_TOTAL, &labels),
            "{backend}: chaos events vs injected counter"
        );
        assert!(traced >= 1, "no fault was injected on {backend} — the run is vacuous");
    }
    let elsewhere: Vec<_> = events
        .keys()
        .filter(|(b, span)| b == "soak-replica" && *span != names::ADAL_REPLICA_PUT_SPAN)
        .collect();
    assert!(elsewhere.is_empty(), "replica faults traced outside the replica leg: {elsewhere:?}");
}
