//! Seeded chaos run: a resilient ADAL mount over a fault-injected
//! object store, driven through an outage with full causal tracing on,
//! then a JSON obs report, the slowest traces, and a facility-health
//! verdict.
//!
//! ```text
//! cargo run -p lsdf-examples --bin chaos_run -- [seed]
//! ```
//!
//! The same seed always produces the same faults, the same retries and
//! the same report — paste a failing seed into a test and it replays.
//! Artifacts land under `target/`: `chaos-trace.json` (open it at
//! chrome://tracing), `facility-health.json` (the final SLO report),
//! `operator-report.txt` (the operator console), and
//! `chaos-collapsed.txt` (collapsed stacks for flamegraph.pl).


#![allow(clippy::print_stdout)] // binaries report to stdout by design
use std::sync::Arc;

use bytes::Bytes;

use lsdf_adal::{
    Acl, Adal, Credential, ObjectStoreBackend, ResilienceConfig, StorageBackend, TokenAuth,
};
use lsdf_chaos::{FaultPlan, FaultyBackend};
use lsdf_obs::{
    facility_status, names, ConsoleInputs, Registry, SloMonitor, SloRule, SpanProfile,
    TelemetryConfig, TelemetryStore, TraceConfig, Tracer,
};
use lsdf_sim::SimRng;
use lsdf_storage::ObjectStore;

const MS: u64 = 1_000_000;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // Shared registry on a virtual clock: the run is bit-reproducible.
    let reg = Arc::new(Registry::new());
    reg.set_virtual_time_ns(1);

    let auth = Arc::new(TokenAuth::new());
    auth.register("tok", "operator");
    let acl = Arc::new(Acl::new());
    acl.grant("operator", "screening", true);
    // Full causal tracing: every ADAL op mints a trace whose children
    // record retries, breaker flips, and injected faults.
    let tracer = Tracer::new(&reg, TraceConfig::full().capacity(4096).seed(seed));
    let adal = Adal::builder()
        .auth(auth)
        .acl(acl)
        .registry(reg.clone())
        .tracer(tracer.clone())
        .build();
    let cred = Credential::Token("tok".into());

    // The SLO under watch: the screening project's breaker stays closed.
    let rule = format!("gauge({}{{project=screening}}) == 0", names::ADAL_BREAKER_STATE);
    let monitor = SloMonitor::new(vec![SloRule::parse(&rule).expect("rule parses")]);
    let mut violated_evals = 0u64;
    // Telemetry history every 10 virtual ms: feeds the sparklines in
    // the operator report written at the end of the run.
    let telemetry = TelemetryStore::new(TelemetryConfig::default().interval_ns(10 * MS));

    // Primary disk array wrapped in a fault plan: 5 % transient errors,
    // 2 % torn writes, and a hard outage for backend ops 60..90.
    let primary: Arc<dyn StorageBackend> = Arc::new(ObjectStoreBackend::new(Arc::new(
        ObjectStore::new("screening-primary", u64::MAX),
    )));
    let plan = FaultPlan::quiet(seed)
        .transient(0.05)
        .torn_writes(0.02)
        .latency_spikes(0.05, 2 * MS)
        .outage(60, 90);
    let faulty: Arc<dyn StorageBackend> =
        FaultyBackend::new("screening", primary, plan, &reg);
    let replica: Arc<dyn StorageBackend> = Arc::new(ObjectStoreBackend::new(Arc::new(
        ObjectStore::new("screening-replica", u64::MAX),
    )));
    adal.mount_resilient(
        "screening",
        faulty,
        Some(replica),
        ResilienceConfig {
            seed,
            ..ResilienceConfig::default()
        },
    );

    // 300 ops of seeded ingest + readback across the outage.
    let mut rng = SimRng::seed_from_u64(seed).stream("chaos-example");
    let mut acked: Vec<String> = Vec::new();
    let (mut ok_puts, mut ok_gets) = (0u64, 0u64);
    for i in 0..300u64 {
        reg.set_virtual_time_ns(1 + i * MS);
        if i % 2 == 0 {
            let path = format!("lsdf://screening/img/{i:04}");
            let len = rng.range_u64(16, 128) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.range_u64(0, 256) as u8).collect();
            if adal.put(&cred, &path, Bytes::from(data)).is_ok() {
                ok_puts += 1;
                acked.push(path);
            }
        } else if !acked.is_empty() {
            let path = &acked[rng.index(acked.len())];
            if adal.get(&cred, path).is_ok() {
                ok_gets += 1;
            }
        }
        if !monitor.evaluate(&reg, &telemetry).healthy {
            violated_evals += 1;
        }
        telemetry.maybe_scrape(&reg);
    }

    // Recovery: cool the breaker down and drain the redo journal.
    let mut drained = 0;
    for round in 1..=100u64 {
        reg.set_virtual_time_ns(1 + (300 + round * 60) * MS);
        drained += adal.drain_journal("screening");
        if adal.health("screening").unwrap().journal_depth == 0 {
            break;
        }
    }

    let h = adal.health("screening").unwrap();
    println!("chaos run (seed {seed})");
    println!("  acked puts         : {ok_puts}");
    println!("  successful reads   : {ok_gets}");
    println!("  journal drained    : {drained}");
    println!("  breaker            : {:?} (failure rate {:.2})", h.breaker, h.failure_rate);
    println!("  retries            : {}", h.retries);
    println!("  failover reads     : {}", h.failover_reads);
    println!(
        "  injected faults    : {}",
        reg.counter_total(names::CHAOS_INJECTED_TOTAL)
    );
    assert_eq!(h.journal_depth, 0, "journal must drain after recovery");
    // Zero data loss: every acked put is still readable.
    for path in &acked {
        adal.get(&cred, path).expect("acked write lost");
    }
    println!("  data loss          : none ({} keys verified)", acked.len());

    // The SLO flipped to violated while the breaker was open, and the
    // facility is demonstrably healthy again after recovery.
    let health = monitor.evaluate(&reg, &telemetry);
    assert!(
        violated_evals >= 1,
        "the outage must flip the breaker SLO at least once"
    );
    assert!(health.healthy, "facility must be healthy after recovery");
    println!("  slo violations     : {violated_evals} evaluations during the outage");
    println!("  facility health    : healthy again after recovery");

    println!("\n--- slowest traces ---");
    println!("{}", tracer.render_slowest(3));

    std::fs::create_dir_all("target").expect("create target dir");
    let trace_path = "target/chaos-trace.json";
    std::fs::write(trace_path, tracer.export_chrome()).expect("write chrome trace");
    println!("wrote {trace_path} (open at chrome://tracing)");
    let health_path = "target/facility-health.json";
    std::fs::write(health_path, health.to_json()).expect("write health report");
    println!("wrote {health_path}");

    // Operator console + span profile: the same artifacts CI uploads
    // from the chaos soak, reproducible byte-for-byte from the seed.
    telemetry.scrape(&reg);
    let profile = SpanProfile::from_traces(&tracer.traces());
    let report = facility_status(&ConsoleInputs {
        registry: &reg,
        telemetry: &telemetry,
        health: &health,
        profile: Some(&profile),
    });
    let report_path = "target/operator-report.txt";
    std::fs::write(report_path, &report).expect("write operator report");
    println!("wrote {report_path}");
    let collapsed_path = "target/chaos-collapsed.txt";
    std::fs::write(collapsed_path, profile.collapsed_stacks()).expect("write collapsed stacks");
    println!("wrote {collapsed_path} (flamegraph.pl-compatible collapsed stacks)");

    println!("\n--- obs report (JSON) ---");
    println!("{}", reg.to_json());
}
