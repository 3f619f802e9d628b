//! Tenant-isolation soak: a fleet of tenant projects ingesting side by
//! side while one project — mounted on a chaos backend injecting
//! latency spikes — floods the facility at many times its contracted
//! rate.
//!
//! The multi-tenancy contract under test:
//! * **isolation** — the flood cannot move a victim tenant's p99
//!   admission wait by more than a bounded epsilon; in fact the
//!   victims' wait histograms are byte-identical to a calm run;
//! * **back-pressure lands on the offender** — the flooder is shed
//!   (with finite `retry_after` hints) and the adaptive governor
//!   throttles it; no victim is ever shed or throttled;
//! * **zero acked-write loss** — every registered dataset reads back
//!   with a matching SHA-256, flood or no flood;
//! * **determinism** — the registry JSON of the whole soak is
//!   byte-identical at 1, 4 and 8 pool workers for a fixed seed.
//!
//! Scale: `LSDF_SOAK_TENANTS` overrides the fleet size (default 48 for
//! CI; `just soak-tenants` runs thousands).

use std::sync::Arc;

use lsdf_adal::ObjectStoreBackend;
use lsdf_chaos::{FaultPlan, FaultyBackend};
use lsdf_core::prelude::*;
use lsdf_obs::SloRule;
use lsdf_storage::{sha256, ObjectStore};
use lsdf_workloads::tenants::{tenant_schema, TenantFleet};

const ROUNDS: u64 = 30;
const ROUND_NS: u64 = 100_000_000; // 100 ms of virtual time per round
const FLOODER: usize = 0;
const FLOOD_MULTIPLIER: u64 = 40;
/// Bound on how far a flood may move a victim's p99 admission wait.
/// (The distribution-equality assertion below proves the shift is in
/// fact exactly zero; the epsilon states the contract.)
const EPSILON_NS: u64 = 1_000;

fn fleet_size() -> usize {
    std::env::var("LSDF_SOAK_TENANTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// One victim tenant's admission-wait distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VictimWait {
    project: String,
    count: u64,
    sum: u64,
    p99: u64,
}

struct SoakOutcome {
    registry_json: String,
    operator_report: String,
    victim_waits: Vec<VictimWait>,
    flooder_usage: ProjectUsage,
    total_shed: u64,
}

/// Runs the soak and checks the per-run invariants. `flood_multiplier`
/// of 1 is the calm baseline; larger floods the [`FLOODER`] tenant.
fn run_soak(seed: u64, workers: usize, flood_multiplier: u64) -> SoakOutcome {
    let n = fleet_size();
    let fleet = TenantFleet::new(seed, n);
    let flooder = fleet.project_name(FLOODER);
    let reg = Arc::new(Registry::new());
    reg.set_virtual_time_ns(0);

    let mut builder = Facility::builder()
        .registry(reg.clone())
        .workers(workers)
        // The governor watches the flooder's bulk-lane p99 wait: once
        // the flood drives it past 1 ms of borrowing, the project is
        // breaching its latency SLO and gets throttled.
        .slo(vec![SloRule::parse(&format!(
            "p99(admission_wait_ns{{lane=bulk,project={flooder}}}) < 1000000"
        ))
        .expect("rule parses")]);
    for name in fleet.project_names() {
        let backend = BackendChoice::ObjectStore { capacity: u64::MAX };
        let quota = if name == flooder {
            // The flooder's contract: far below its flooded volume.
            QuotaSpec::per_second(200, 1 << 22).queue_depth(64)
        } else {
            // Victims are contracted well above their actual load, so
            // any wait they see could only come from cross-tenant leak.
            QuotaSpec::per_second(10_000, 1 << 30)
        };
        builder = builder.tenant(ProjectSpec::new(tenant_schema(&name), backend).quota(quota));
    }
    let f = builder.build().expect("facility assembles");

    // Chaos-flood the offender: remount it on a backend injecting
    // deterministic latency spikes (no errors — acked writes must
    // still verify). All soak-phase ops on this backend are writes, so
    // the spike draw sequence is worker-order independent.
    let chaos_store = Arc::new(ObjectStore::new("flooder-chaos", u64::MAX));
    let plan = FaultPlan::quiet(seed).latency_spikes(0.05, 5_000_000);
    let faulty = FaultyBackend::new(
        &flooder,
        Arc::new(ObjectStoreBackend::new(chaos_store)),
        plan,
        &reg,
    );
    f.adal().mount(&flooder, faulty);

    let admin = f.admin().clone();
    let mut total_shed = 0u64;
    let mut registered = 0u64;
    for round in 0..ROUNDS {
        reg.set_virtual_time_ns(round * ROUND_NS);
        let items: Vec<IngestItem> = fleet
            .round(round, FLOODER, flood_multiplier)
            .into_iter()
            .map(|op| IngestItem {
                project: op.project,
                key: op.key,
                data: op.data,
                metadata: Some(op.doc),
            })
            .collect();
        let report = f.ingest_batch(&admin, items, IngestPolicy::default());
        assert_eq!(report.rejected, 0, "round {round}: only shed, never rejected");
        total_shed += report.shed;
        registered += report.registered;
        f.govern();
        // Periodic reporter hook: every tenth round an operator would
        // glance at the console; the render must never panic mid-flood
        // and always carries the tenant table.
        if round % 10 == 9 {
            let status = f.operator_report();
            assert!(
                status.contains("-- tenants --"),
                "round {round}: operator report lost its tenant table"
            );
        }
    }

    // Zero acked-write loss: every registered dataset reads back with
    // a matching checksum — including everything the chaos backend
    // acknowledged for the flooder.
    let mut records = 0u64;
    for project in f.projects() {
        for rec in f.store(&project).expect("project store").all() {
            let data = f
                .adal()
                .get(&admin, &rec.location())
                .unwrap_or_else(|e| panic!("acked write {} lost: {e}", rec.location()));
            assert_eq!(
                sha256(&data).to_hex(),
                rec.checksum_hex,
                "acked write {} corrupted",
                rec.location()
            );
            records += 1;
        }
    }
    assert_eq!(records, registered, "catalog and report disagree");

    // Back-pressure lands on the offender only.
    let mut victim_waits = Vec::new();
    for project in f.projects() {
        let usage = f
            .admission()
            .usage(&project)
            .expect("project registered for admission");
        if project == flooder {
            continue;
        }
        assert_eq!(usage.shed, 0, "victim {project} was shed");
        assert_eq!(usage.throttle_level, 0, "victim {project} was throttled");
        let wait = reg.histogram(
            names::ADMISSION_WAIT_NS,
            &[("project", &project), ("lane", "bulk")],
        );
        victim_waits.push(VictimWait {
            project,
            count: wait.count(),
            sum: wait.sum(),
            p99: wait.quantile(0.99),
        });
    }
    let flooder_usage = f
        .admission()
        .usage(&flooder)
        .expect("flooder registered for admission");

    SoakOutcome {
        registry_json: reg.to_json(),
        operator_report: f.operator_report(),
        victim_waits,
        flooder_usage,
        total_shed,
    }
}

#[test]
fn flood_backpressure_hits_flooder_and_spares_victims() {
    let calm = run_soak(23, 1, 1);
    assert_eq!(calm.total_shed, 0, "nobody sheds in the calm baseline");

    let flood = run_soak(23, 1, FLOOD_MULTIPLIER);
    assert!(flood.total_shed > 0, "the flood must overrun its quota");
    assert_eq!(
        flood.total_shed, flood.flooder_usage.shed,
        "every shed in the run belongs to the flooder"
    );
    assert!(
        flood.flooder_usage.throttle_level > 0,
        "the governor must throttle the flooder"
    );

    // Isolation: the flood moved no victim's p99 beyond epsilon — the
    // victims' wait distributions are identical to the calm run.
    assert_eq!(calm.victim_waits.len(), flood.victim_waits.len());
    for (calm_w, flood_w) in calm.victim_waits.iter().zip(&flood.victim_waits) {
        assert_eq!(calm_w.project, flood_w.project);
        assert!(
            flood_w.p99.abs_diff(calm_w.p99) <= EPSILON_NS,
            "{}: flood moved victim p99 wait from {} to {}",
            calm_w.project,
            calm_w.p99,
            flood_w.p99
        );
        assert_eq!(
            (calm_w.count, calm_w.sum),
            (flood_w.count, flood_w.sum),
            "{}: flood perturbed the victim's whole wait distribution",
            calm_w.project
        );
    }
}

#[test]
fn flooded_soak_is_bit_identical_at_any_worker_count() {
    let serial = run_soak(42, 1, FLOOD_MULTIPLIER);
    for workers in [4, 8] {
        let pooled = run_soak(42, workers, FLOOD_MULTIPLIER);
        assert_eq!(
            serial.registry_json, pooled.registry_json,
            "registry diverged at {workers} workers"
        );
        assert_eq!(
            serial.operator_report, pooled.operator_report,
            "operator report diverged at {workers} workers"
        );
        assert_eq!(serial.total_shed, pooled.total_shed);
        assert_eq!(serial.flooder_usage, pooled.flooder_usage);
    }
}
