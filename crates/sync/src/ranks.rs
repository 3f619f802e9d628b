//! The facility lock-rank manifest — the single place a lock's position
//! in the global acquisition order is declared, mirroring the
//! `lsdf_obs::names` registry for metric names.
//!
//! Rules of the manifest:
//!
//! * higher id = inner lock (acquired later); ids are unique;
//! * gaps are deliberate — new locks slot between existing ranks
//!   without renumbering;
//! * every const here must be used by exactly one `OrderedMutex` /
//!   `OrderedRwLock` construction site family, named directly at the
//!   site; lint L5 checks this statically (unused, duplicated or
//!   undeclared ranks);
//! * two locks may share a rank const only if they are *the same
//!   striped family* and never nest with each other — the `ShardedMap`
//!   stripes are the one sanctioned case;
//! * the order itself is checked by the runtime witness on the paths
//!   the witness-armed tests execute: a nesting on a path no test runs
//!   is unchecked, so put a test on it.
//!
//! The declared partial order encodes the real call topology:
//! admission gates a request, ADAL resolves its mount and calls a
//! backend (the HSM catalog over its object stores, or the namenode,
//! whose namespace, block map and placement RNG sit above the
//! datanodes they place on), the catalog commits it, the commit is
//! WAL-logged, the WAL hits a device, a tag the catalog emits queues a
//! workflow run; observability is innermost because every layer may
//! record while holding its own lock.

use crate::{rank, LockRank};

/// `lsdf_pool::WorkerPool` per-item slot mutex. Each slot is locked
/// once, standalone, by the worker that claimed its index (the guard
/// never survives into the task closure), so it ranks below everything
/// the tasks themselves lock.
pub const POOL_SLOT: LockRank = rank(50, "pool_slot");

/// Admission controller's project table (`AdmissionController::projects`).
pub const ADMISSION_PROJECTS: LockRank = rank(100, "admission_projects");

/// Per-project admission state (`ProjectEntry::state`); locked while
/// the project table read guard is still held by a decision by name,
/// and with no other lock through an `Account`.
pub const ADMISSION_PROJECT_STATE: LockRank = rank(110, "admission_project_state");

/// The static token registry (`TokenAuth::tokens`): read once when a
/// project is opened (`Adal::open`, or an op by path), before the ACL;
/// an op on an open handle reads an epoch instead. Leaf lock.
pub const ADAL_AUTH_TOKENS: LockRank = rank(170, "adal_auth_tokens");

/// The per-project ACL (`Acl::grants`): read after authentication and
/// before the mount lookup, when a project is opened. Leaf lock.
pub const ADAL_ACL_GRANTS: LockRank = rank(180, "adal_acl_grants");

/// ADAL mount table (`Adal::mounts`): a lookup clones the mount out and
/// drops the guard before any backend call, so it sits above admission
/// and below everything a backend locks.
pub const ADAL_MOUNTS: LockRank = rank(190, "adal_mounts");

/// ADAL circuit-breaker state (`CircuitBreaker::breaker`). Leaf lock.
pub const ADAL_BREAKER: LockRank = rank(200, "adal_breaker");

/// ADAL redo-journal queue (`RedoJournal::journal`). Leaf lock.
pub const ADAL_JOURNAL: LockRank = rank(210, "adal_journal");

/// A resilient mount's retry-jitter stream (`ResilientBackend::rng`);
/// drawn between attempts with no other ADAL lock held. Leaf lock.
pub const ADAL_RETRY_RNG: LockRank = rank(220, "adal_retry_rng");

/// A fault-injecting backend's decision state (`FaultyBackend::state`);
/// released before the wrapped backend is called. Leaf lock.
pub const CHAOS_INJECT: LockRank = rank(230, "chaos_inject");

/// The HSM tier catalog (`Hsm::inner`); below the object stores it
/// moves payloads between.
pub const STORAGE_HSM: LockRank = rank(240, "storage_hsm");

/// One object store's key map (`ObjectStore::inner`): the disk or tape
/// tier under an HSM, or a plain backend. Leaf lock.
pub const STORAGE_OBJECT: LockRank = rank(250, "storage_object");

/// The namenode namespace map (`Dfs::files`): held across block
/// allocation and the WAL append that commits a mutation.
pub const DFS_FILES: LockRank = rank(300, "dfs_files");

/// One `ShardedMap` block-table stripe. All stripes share this rank:
/// the map's discipline is one stripe at a time, and the witness's
/// same-rank check enforces exactly that.
pub const DFS_BLOCK_SHARD: LockRank = rank(310, "dfs_block_shard");

/// The namenode's seeded placement RNG (`Dfs::rng`). Leaf lock.
pub const DFS_RNG: LockRank = rank(320, "dfs_rng");

/// One datanode's block table and used bytes (`DataNode::state`;
/// liveness is an atomic beside it): read under a block-map stripe
/// (repair copies), so it ranks above it.
pub const DFS_DATANODE_STATE: LockRank = rank(330, "dfs_datanode_state");

/// One datanode's flaky-mode dice (`DataNode::flaky`), taken only while
/// the node's `flaky_armed` flag is on; rolled before the state guard
/// is taken, and under a stripe by repair copies. Leaf lock.
pub const DFS_DATANODE_FLAKY: LockRank = rank(340, "dfs_datanode_flaky");

/// Per-project metadata store state (`ProjectStore::state`): held
/// across the WAL append that commits an insert.
pub const META_STATE: LockRank = rank(400, "meta_state");

/// The WAL's active segment (`DurableLog::active`): held across device
/// appends and segment rotation.
pub const WAL_ACTIVE: LockRank = rank(500, "wal_active");

/// The durable-store device directory (`DurableStore::devices`); held
/// while interrogating individual devices.
pub const DURABLE_DEVICES: LockRank = rank(510, "durable_devices");

/// One simulated device's staged/synced image (`MemDisk::state`).
/// Innermost of the durability stack.
pub const MEMDISK_STATE: LockRank = rank(520, "memdisk_state");

/// The trigger engine's pending-run queue (`TriggerEngine::queue`):
/// pushed by the metadata store's subscriber callback, which runs after
/// `META_STATE` is released, and popped one run at a time. Leaf lock.
pub const WORKFLOW_TRIGGER_QUEUE: LockRank = rank(600, "workflow_trigger_queue");

/// The trigger engine's outcome log (`TriggerEngine::completed`);
/// appended after a run's catalog writes return. Leaf lock.
pub const WORKFLOW_TRIGGER_COMPLETED: LockRank = rank(610, "workflow_trigger_completed");

/// Telemetry ring-buffer store (`TelemetryStore::inner`); held across
/// the registry snapshot a scrape folds in and the self-metric updates
/// it records, so it ranks below the registry tables. It never nests
/// with the SLO window lock: windowed rules query the store through
/// methods that return owned data before the monitor takes its own
/// lock.
pub const OBS_TELEMETRY: LockRank = rank(830, "obs_telemetry");

/// SLO monitor window state (`SloMonitor::windows`); held across
/// registry reads and metric updates, so it ranks below the registry
/// tables.
pub const OBS_SLO_WINDOWS: LockRank = rank(840, "obs_slo_windows");

/// One in-flight trace span cell (`SpanCell`). All cells share this
/// rank: a cell guard is always released before the parent/store lock
/// is taken, so cells never nest.
pub const OBS_SPAN_CELL: LockRank = rank(850, "obs_span_cell");

/// The tracer's retained-trace store (`TracerInner::store`).
pub const OBS_TRACE_STORE: LockRank = rank(860, "obs_trace_store");

/// Registry counter table (`Registry::counters`). The obs locks are
/// the innermost of the whole facility — any layer may touch the
/// registry while holding its own locks — and are ordered among
/// themselves in snapshot-assembly order.
pub const OBS_COUNTERS: LockRank = rank(900, "obs_counters");

/// Registry gauge table (`Registry::gauges`).
pub const OBS_GAUGES: LockRank = rank(910, "obs_gauges");

/// Registry histogram table (`Registry::histograms`).
pub const OBS_HISTOGRAMS: LockRank = rank(920, "obs_histograms");

/// Registry event log (`Registry::events`); innermost obs lock because
/// snapshots read it after the three metric tables.
pub const OBS_EVENTS: LockRank = rank(930, "obs_events");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_ids_are_unique_and_names_match_style() {
        let all: &[LockRank] = &[
            POOL_SLOT,
            ADMISSION_PROJECTS,
            ADMISSION_PROJECT_STATE,
            ADAL_AUTH_TOKENS,
            ADAL_ACL_GRANTS,
            ADAL_MOUNTS,
            ADAL_BREAKER,
            ADAL_JOURNAL,
            ADAL_RETRY_RNG,
            CHAOS_INJECT,
            STORAGE_HSM,
            STORAGE_OBJECT,
            DFS_FILES,
            DFS_BLOCK_SHARD,
            DFS_RNG,
            DFS_DATANODE_STATE,
            DFS_DATANODE_FLAKY,
            META_STATE,
            WAL_ACTIVE,
            DURABLE_DEVICES,
            MEMDISK_STATE,
            WORKFLOW_TRIGGER_QUEUE,
            WORKFLOW_TRIGGER_COMPLETED,
            OBS_TELEMETRY,
            OBS_SLO_WINDOWS,
            OBS_SPAN_CELL,
            OBS_TRACE_STORE,
            OBS_COUNTERS,
            OBS_GAUGES,
            OBS_HISTOGRAMS,
            OBS_EVENTS,
        ];
        let mut ids: Vec<u16> = all.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "duplicate rank id in manifest");
        for r in all {
            assert!(
                r.name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "rank name {:?} must be snake_case",
                r.name
            );
        }
    }
}
