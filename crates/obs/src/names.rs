//! The facility metric-name registry: every metric name used by a
//! production crate is declared here, once, as a `pub const`.
//!
//! This module is the single source of truth that `lsdf-lint` rule
//! **L3 (metric-names)** enforces: increment sites, compat views, and
//! the E1/E9 bench report must all refer to these consts instead of
//! repeating string literals, so a typo'd name can no longer silently
//! split one metric into two. The lint checks both directions — no
//! string-literal names at call sites outside this crate, and no
//! declared name that is never used.
//!
//! Naming convention (checked by the unit tests below):
//!
//! * `snake_case`, prefixed with the owning subsystem
//!   (`adal_`, `admission_`, `dfs_`, `hsm_`, `tape_`, `cloud_`,
//!   `workflow_`, `facility_`, `chaos_`, `mr_`, `pool_`, `trace_`,
//!   `wal_`, `ckpt_`, `recovery_`, `telemetry_`);
//! * monotonically increasing counters end in `_total`;
//! * nanosecond latency histograms end in `_ns`;
//! * byte-size histograms end in `_bytes`;
//! * everything else is a gauge of current state.

// --- ADAL: operation accounting (E9 overhead) -------------------------

/// Operations served, labelled `op=put|get|stat|list|delete`.
pub const ADAL_OPS_TOTAL: &str = "adal_ops_total";
/// Per-op latency histogram, labelled `op=...`.
pub const ADAL_OP_LATENCY_NS: &str = "adal_op_latency_ns";
/// Per-project operation breakdown, labelled `project=..,backend=..,op=..`.
pub const ADAL_PROJECT_OPS_TOTAL: &str = "adal_project_ops_total";
/// Requests rejected by authentication / ACL checks.
pub const ADAL_DENIED_TOTAL: &str = "adal_denied_total";
/// Payload sizes of accepted `put`s.
pub const ADAL_PUT_BYTES: &str = "adal_put_bytes";
/// Payload sizes of served `get`s.
pub const ADAL_GET_BYTES: &str = "adal_get_bytes";
/// Per-project op latency histogram, labelled `project=...` — the
/// per-tenant view the admission governor's SLO rules read.
pub const ADAL_PROJECT_OP_LATENCY_NS: &str = "adal_project_op_latency_ns";

// --- ADAL: resilience machinery (labelled `project=...`) --------------

/// Circuit-breaker transitions, labelled `project` and `to=open|half_open|closed`.
pub const ADAL_BREAKER_TRANSITIONS_TOTAL: &str = "adal_breaker_transitions_total";
/// Retry attempts issued by the retry policy.
pub const ADAL_RETRIES_TOTAL: &str = "adal_retries_total";
/// Transient backend errors observed (equals retries + exhausted loops).
pub const ADAL_TRANSIENT_OBSERVED_TOTAL: &str = "adal_transient_observed_total";
/// Retry loops that ran out of attempts.
pub const ADAL_RETRY_EXHAUSTED_TOTAL: &str = "adal_retry_exhausted_total";
/// Reads served from a replica after the primary failed.
pub const ADAL_FAILOVER_READS_TOTAL: &str = "adal_failover_reads_total";
/// Writes parked in the redo journal while the breaker was open.
pub const ADAL_JOURNAL_ENQUEUED_TOTAL: &str = "adal_journal_enqueued_total";
/// Journal entries successfully replayed to the primary.
pub const ADAL_JOURNAL_DRAINED_TOTAL: &str = "adal_journal_drained_total";
/// Journal replays that found a newer write and skipped themselves.
pub const ADAL_JOURNAL_CONFLICTS_TOTAL: &str = "adal_journal_conflicts_total";
/// Post-write SHA-256 verification failures.
pub const ADAL_WRITE_VERIFY_FAILURES_TOTAL: &str = "adal_write_verify_failures_total";
/// Replica writes that failed while the primary write succeeded.
pub const ADAL_REPLICA_WRITE_FAILURES_TOTAL: &str = "adal_replica_write_failures_total";
/// Breaker state gauge: 0 closed, 1 open, 2 half-open.
pub const ADAL_BREAKER_STATE: &str = "adal_breaker_state";
/// Entries currently parked in the redo journal.
pub const ADAL_JOURNAL_DEPTH: &str = "adal_journal_depth";
/// Bytes currently parked in the redo journal.
pub const ADAL_JOURNAL_BYTES: &str = "adal_journal_bytes";
/// Backoff sleeps taken between retry attempts.
pub const ADAL_RETRY_BACKOFF_NS: &str = "adal_retry_backoff_ns";

// --- Chaos / fault injection ------------------------------------------

/// Faults injected, labelled `backend` and `fault=transient|torn|latency|outage`.
pub const CHAOS_INJECTED_TOTAL: &str = "chaos_injected_total";
/// Artificial latency added by the fault plan, labelled `backend`.
pub const CHAOS_INJECTED_LATENCY_NS: &str = "chaos_injected_latency_ns";

// --- Cloud (OpenNebula-like IaaS) -------------------------------------

/// VM lifecycle counter, labelled `state=submitted|deployed|failed`.
pub const CLOUD_VMS_TOTAL: &str = "cloud_vms_total";
/// VMs currently running.
pub const CLOUD_VMS_RUNNING: &str = "cloud_vms_running";
/// Submit-to-running deploy latency.
pub const CLOUD_DEPLOY_LATENCY_NS: &str = "cloud_deploy_latency_ns";

// --- DFS (HDFS-like) ---------------------------------------------------

/// Namenode operations, labelled `op=write|read|stat|list|delete`.
pub const DFS_OPS_TOTAL: &str = "dfs_ops_total";
/// Block reads, labelled `locality=node_local|rack_local|remote`.
pub const DFS_BLOCK_READS_TOTAL: &str = "dfs_block_reads_total";
/// Blocks re-replicated after node loss.
pub const DFS_REREPLICATIONS_TOTAL: &str = "dfs_rereplications_total";
/// Re-replication stores that failed on the chosen target and were
/// retried on another node.
pub const DFS_STORE_RETRY_TOTAL: &str = "dfs_store_retry_total";
/// Reads that failed on a flaky datanode before failover.
pub const DFS_FLAKY_FAILURES_TOTAL: &str = "dfs_flaky_failures_total";
/// Blocks that lost every replica and cannot be re-replicated.
pub const DFS_UNDER_REPLICATED_UNRECOVERABLE: &str = "dfs_under_replicated_unrecoverable";
/// File-write payload sizes.
pub const DFS_WRITE_BYTES: &str = "dfs_write_bytes";
/// File-read payload sizes.
pub const DFS_READ_BYTES: &str = "dfs_read_bytes";
/// Per-op latency histogram, labelled `op=write|read`.
pub const DFS_OP_LATENCY_NS: &str = "dfs_op_latency_ns";

// --- Facility ingest pipeline (E1) ------------------------------------

/// Ingest outcomes, labelled `project` and `outcome=registered|stored|rejected`.
pub const FACILITY_INGEST_TOTAL: &str = "facility_ingest_total";
/// Accepted payload sizes, labelled `project`.
pub const FACILITY_INGEST_BYTES: &str = "facility_ingest_bytes";
/// End-to-end ingest latency (checksum + store + catalog).
pub const FACILITY_INGEST_LATENCY_NS: &str = "facility_ingest_latency_ns";

// --- HSM tiering (labelled `store=...`) -------------------------------

/// Objects written into the HSM.
pub const HSM_PUTS_TOTAL: &str = "hsm_puts_total";
/// Objects deleted from the HSM (both tiers).
pub const HSM_DELETES_TOTAL: &str = "hsm_deletes_total";
/// Disk-to-tape demotions performed by the migration policy.
pub const HSM_DEMOTIONS_TOTAL: &str = "hsm_demotions_total";
/// Tape-to-disk recalls triggered by reads.
pub const HSM_RECALLS_TOTAL: &str = "hsm_recalls_total";
/// Bytes demoted to tape.
pub const HSM_DEMOTE_BYTES: &str = "hsm_demote_bytes";
/// Bytes recalled from tape.
pub const HSM_RECALL_BYTES: &str = "hsm_recall_bytes";
/// Recall latency including tape mount and wind time.
pub const HSM_RECALL_LATENCY_NS: &str = "hsm_recall_latency_ns";

// --- Tape library ------------------------------------------------------

/// Cartridge mounts performed by the robot.
pub const TAPE_MOUNTS_TOTAL: &str = "tape_mounts_total";
/// Mounts that wedged and needed operator intervention (chaos hook).
pub const TAPE_STUCK_MOUNTS_TOTAL: &str = "tape_stuck_mounts_total";
/// Tape operations, labelled `op=recall|archive`.
pub const TAPE_OPS_TOTAL: &str = "tape_ops_total";
/// Per-op tape latency, labelled `op=recall|archive`.
pub const TAPE_OP_LATENCY_NS: &str = "tape_op_latency_ns";

// --- Workflow engine (Kepler-like) ------------------------------------

/// Actor firings across all runs.
pub const WORKFLOW_FIRINGS_TOTAL: &str = "workflow_firings_total";
/// Tokens moved along workflow edges.
pub const WORKFLOW_TOKENS_MOVED_TOTAL: &str = "workflow_tokens_moved_total";
/// Completed workflow runs.
pub const WORKFLOW_RUNS_TOTAL: &str = "workflow_runs_total";
/// End-to-end run latency.
pub const WORKFLOW_RUN_LATENCY_NS: &str = "workflow_run_latency_ns";
/// Tag-trigger rule executions, labelled `step`.
pub const WORKFLOW_TRIGGER_RUNS_TOTAL: &str = "workflow_trigger_runs_total";

// --- MapReduce ---------------------------------------------------------

/// Completed MapReduce jobs.
pub const MR_JOBS_TOTAL: &str = "mr_jobs_total";
/// End-to-end job latency per the registry clock (virtual-time safe).
pub const MR_JOB_LATENCY_NS: &str = "mr_job_latency_ns";

// --- Causal tracing: tracer metrics -----------------------------------

/// Trace roots minted (counts even when sampling rejects the root).
pub const TRACE_ROOTS_TOTAL: &str = "trace_roots_total";
/// Trace roots accepted by the sampler.
pub const TRACE_SAMPLED_TOTAL: &str = "trace_sampled_total";
/// Traces currently retained in the bounded store.
pub const TRACE_RETAINED: &str = "trace_retained";

// --- Causal tracing: span names (rule L3 covers `TraceCtx::child` /
// --- `Tracer::root` call sites just like metric calls) -----------------

/// Root span of an ADAL `put`.
pub const ADAL_PUT_SPAN: &str = "adal_put";
/// Root span of an ADAL `get`.
pub const ADAL_GET_SPAN: &str = "adal_get";
/// Root span of an ADAL `stat`.
pub const ADAL_STAT_SPAN: &str = "adal_stat";
/// Root span of an ADAL `list`.
pub const ADAL_LIST_SPAN: &str = "adal_list";
/// Root span of an ADAL `delete`.
pub const ADAL_DELETE_SPAN: &str = "adal_delete";
/// Root span of an explicit journal drain.
pub const ADAL_DRAIN_SPAN: &str = "adal_drain";
/// One attempt inside the retry loop, field `attempt=0..`.
pub const ADAL_ATTEMPT_SPAN: &str = "adal_attempt";
/// Primary-backend leg of a resilient put fan-out.
pub const ADAL_PRIMARY_PUT_SPAN: &str = "adal_primary_put";
/// Replica leg of a resilient put fan-out (bare by design: serial and
/// pooled runs must render it identically).
pub const ADAL_REPLICA_PUT_SPAN: &str = "adal_replica_put";
/// One work item executing on a pool worker.
pub const POOL_TASK_SPAN: &str = "pool_task";
/// Root span over a whole `Facility::ingest_batch` call.
pub const FACILITY_INGEST_BATCH_SPAN: &str = "facility_ingest_batch";
/// DFS file write (chunk + place + store).
pub const DFS_WRITE_SPAN: &str = "dfs_write";
/// DFS file read (locate + fetch blocks).
pub const DFS_READ_SPAN: &str = "dfs_read";
/// DFS re-replication sweep after node loss.
pub const DFS_RE_REPLICATE_SPAN: &str = "dfs_re_replicate";
/// HSM tape-to-disk staging performed inside a `get`.
pub const HSM_STAGE_SPAN: &str = "hsm_stage";
/// Tape-library request from submit to completion.
pub const TAPE_REQUEST_SPAN: &str = "tape_request";
/// Cartridge mount inside a tape request (same name as the registry
/// event the robot already emits).
pub const TAPE_MOUNT_SPAN: &str = "tape_mount";

// --- Causal tracing: trace-event names --------------------------------

/// Retry scheduled after a transient error, field `delay_ns`.
pub const ADAL_RETRY_EVENT: &str = "adal_retry";
/// Retry loop gave up (attempts exhausted or breaker open).
pub const ADAL_RETRY_EXHAUSTED_EVENT: &str = "adal_retry_exhausted";
/// Circuit-breaker state change, fields `project`, `to`.
pub const ADAL_BREAKER_TRANSITION_EVENT: &str = "adal_breaker_transition";
/// Write parked in the redo journal, fields `project`, `key`.
pub const ADAL_JOURNAL_ENQUEUE_EVENT: &str = "adal_journal_enqueue";
/// Read served from the replica after the primary failed.
pub const ADAL_FAILOVER_READ_EVENT: &str = "adal_failover_read";
/// Fault injected by a chaos plan, fields `backend`, `fault`.
pub const CHAOS_FAULT_EVENT: &str = "chaos_fault";
/// DFS block placed on its replica set, fields `block`, `replicas`.
pub const DFS_BLOCK_PLACED_EVENT: &str = "dfs_block_placed";
/// DFS block copied to a fresh node during re-replication.
pub const DFS_BLOCK_REREPLICATED_EVENT: &str = "dfs_block_rereplicated";

// --- Registry event log: structured event names -----------------------

/// Circuit-breaker state change in the registry event log.
pub const ADAL_BREAKER_LOG_EVENT: &str = "adal_breaker";
/// Backend mounted (or remounted) under a project prefix.
pub const ADAL_MOUNT_LOG_EVENT: &str = "adal_mount";
/// Journal entry replayed against the recovered primary.
pub const ADAL_JOURNAL_DRAIN_LOG_EVENT: &str = "adal_journal_drain";
/// Journal replay found the key already written; entry dropped.
pub const ADAL_JOURNAL_CONFLICT_LOG_EVENT: &str = "adal_journal_conflict";
/// HSM object deleted from disk + catalog.
pub const HSM_DELETE_LOG_EVENT: &str = "hsm_delete";
/// HSM object demoted disk → tape.
pub const HSM_DEMOTE_LOG_EVENT: &str = "hsm_demote";
/// HSM object recalled tape → disk.
pub const HSM_RECALL_LOG_EVENT: &str = "hsm_recall";

// --- Admission control (multi-tenant front door) ----------------------

/// Requests admitted past the front door, labelled `project`, `lane`.
pub const ADMISSION_ADMITTED_TOTAL: &str = "admission_admitted_total";
/// Requests shed at the front door, labelled `project`, `lane`.
pub const ADMISSION_SHED_TOTAL: &str = "admission_shed_total";
/// Requests currently borrowing ahead of their token budget (the
/// virtual queue depth), labelled `project`, `lane`.
pub const ADMISSION_QUEUE_DEPTH: &str = "admission_queue_depth";
/// Simulated wait before an admitted request may proceed, labelled
/// `project`, `lane`.
pub const ADMISSION_WAIT_NS: &str = "admission_wait_ns";
/// Current governor throttle level for a project (0 = full rate,
/// each level halves the refill rate), labelled `project`.
pub const ADMISSION_THROTTLE_LEVEL: &str = "admission_throttle_level";
/// Governor state transitions, labelled `project`, `to=throttled|cleared`.
pub const ADMISSION_GOVERNOR_TRANSITIONS_TOTAL: &str = "admission_governor_transitions_total";
/// Span recording the simulated admission wait under the op root.
pub const ADMISSION_WAIT_SPAN: &str = "admission_wait";
/// Governor decision in the registry event log.
pub const ADMISSION_GOVERNOR_LOG_EVENT: &str = "admission_governor";

// --- Durability: write-ahead log (labelled `log=<component>`) ---------

/// Records appended (and synced) to a component's WAL.
pub const WAL_APPENDS_TOTAL: &str = "wal_appends_total";
/// Framed record sizes written to the WAL.
pub const WAL_APPEND_BYTES: &str = "wal_append_bytes";
/// Accounted device fsyncs (one per batch append, one per `GROUP_COMMIT`
/// records appended singly).
pub const WAL_FSYNCS_TOTAL: &str = "wal_fsyncs_total";
/// Modeled latency charged per accounted fsync.
pub const WAL_FSYNC_LATENCY_NS: &str = "wal_fsync_latency_ns";
/// Segments found ending in a torn (partial/corrupt) frame at replay.
pub const WAL_TORN_TAIL_TOTAL: &str = "wal_torn_tail_total";

// --- Durability: checkpoints ------------------------------------------

/// Checkpoints taken by the reconciler.
pub const CKPT_TAKEN_TOTAL: &str = "ckpt_taken_total";
/// Bytes one checkpoint wrote: the chunks it put, not the ones it kept.
pub const CKPT_BYTES: &str = "ckpt_bytes";
/// Checkpoint chunks written because they changed since the last one.
pub const CKPT_CHUNKS_WRITTEN_TOTAL: &str = "ckpt_chunks_written_total";
/// Checkpoint chunks kept by reference because they did not change.
pub const CKPT_CHUNKS_REUSED_TOTAL: &str = "ckpt_chunks_reused_total";
/// Recoveries that found a manifest but could not verify every chunk it
/// names, and so replayed the surviving WAL from epoch 0 with no base.
pub const CKPT_REJECTED_TOTAL: &str = "ckpt_rejected_total";
/// WAL segments truncated after a checkpoint landed.
pub const CKPT_SEGMENTS_TRUNCATED_TOTAL: &str = "ckpt_segments_truncated_total";

// --- Durability: recovery ---------------------------------------------

/// Recovery passes performed (initial open + every crash-restart).
pub const RECOVERY_RUNS_TOTAL: &str = "recovery_runs_total";
/// WAL records replayed over checkpoints during recovery.
pub const RECOVERY_REPLAYED_RECORDS_TOTAL: &str = "recovery_replayed_records_total";
/// Replayed records skipped because their effect was already present.
pub const RECOVERY_SKIPPED_RECORDS_TOTAL: &str = "recovery_skipped_records_total";
/// Modeled recovery latency (manifest load + replay).
pub const RECOVERY_LATENCY_NS: &str = "recovery_latency_ns";
/// Root span over a full facility crash-restart.
pub const RECOVERY_REPLAY_SPAN: &str = "recovery_replay";
/// Per-component recovery leg under the restart root.
pub const RECOVERY_COMPONENT_SPAN: &str = "recovery_component";
/// Component crash injected by the chaos crash schedule, in the
/// registry event log.
pub const CHAOS_CRASH_LOG_EVENT: &str = "chaos_crash";

// --- SLO monitor -------------------------------------------------------

/// SLO evaluation passes performed by the monitor.
pub const FACILITY_SLO_EVALUATIONS_TOTAL: &str = "facility_slo_evaluations_total";
/// Individual rule violations observed across all evaluations.
pub const FACILITY_SLO_VIOLATIONS_TOTAL: &str = "facility_slo_violations_total";
/// 1 while the latest evaluation passed every rule, else 0.
pub const FACILITY_SLO_HEALTHY: &str = "facility_slo_healthy";
/// Windowed-rule violations observed across all evaluations (counted
/// separately from instantaneous breaches so burn-rate alerting is
/// auditable on its own).
pub const FACILITY_SLO_WINDOWED_VIOLATIONS_TOTAL: &str = "facility_slo_windowed_violations_total";

// --- Telemetry store (the TSDB observing the registry) ----------------

/// Scrape passes the telemetry store performed against the registry.
pub const TELEMETRY_SCRAPES_TOTAL: &str = "telemetry_scrapes_total";
/// Individual samples (counter deltas, gauge points, histogram
/// quantile points) appended to telemetry series.
pub const TELEMETRY_SAMPLES_TOTAL: &str = "telemetry_samples_total";
/// Points evicted from series rings by capacity or age bounds.
pub const TELEMETRY_EVICTIONS_TOTAL: &str = "telemetry_evictions_total";
/// High-water mark of points retained across all series at once.
pub const TELEMETRY_POINTS_HIGH_WATER: &str = "telemetry_points_high_water";
/// Series currently tracked by the store.
pub const TELEMETRY_SERIES: &str = "telemetry_series";

/// Every declared metric name, for exhaustiveness checks and the
/// `lsdf-lint` unused-name rule's own tests.
pub const ALL: &[&str] = &[
    ADAL_OPS_TOTAL,
    ADAL_OP_LATENCY_NS,
    ADAL_PROJECT_OPS_TOTAL,
    ADAL_DENIED_TOTAL,
    ADAL_PUT_BYTES,
    ADAL_GET_BYTES,
    ADAL_PROJECT_OP_LATENCY_NS,
    ADAL_BREAKER_TRANSITIONS_TOTAL,
    ADAL_RETRIES_TOTAL,
    ADAL_TRANSIENT_OBSERVED_TOTAL,
    ADAL_RETRY_EXHAUSTED_TOTAL,
    ADAL_FAILOVER_READS_TOTAL,
    ADAL_JOURNAL_ENQUEUED_TOTAL,
    ADAL_JOURNAL_DRAINED_TOTAL,
    ADAL_JOURNAL_CONFLICTS_TOTAL,
    ADAL_WRITE_VERIFY_FAILURES_TOTAL,
    ADAL_REPLICA_WRITE_FAILURES_TOTAL,
    ADAL_BREAKER_STATE,
    ADAL_JOURNAL_DEPTH,
    ADAL_JOURNAL_BYTES,
    ADAL_RETRY_BACKOFF_NS,
    CHAOS_INJECTED_TOTAL,
    CHAOS_INJECTED_LATENCY_NS,
    CLOUD_VMS_TOTAL,
    CLOUD_VMS_RUNNING,
    CLOUD_DEPLOY_LATENCY_NS,
    DFS_OPS_TOTAL,
    DFS_BLOCK_READS_TOTAL,
    DFS_REREPLICATIONS_TOTAL,
    DFS_STORE_RETRY_TOTAL,
    DFS_FLAKY_FAILURES_TOTAL,
    DFS_UNDER_REPLICATED_UNRECOVERABLE,
    DFS_WRITE_BYTES,
    DFS_READ_BYTES,
    DFS_OP_LATENCY_NS,
    FACILITY_INGEST_TOTAL,
    FACILITY_INGEST_BYTES,
    FACILITY_INGEST_LATENCY_NS,
    HSM_PUTS_TOTAL,
    HSM_DELETES_TOTAL,
    HSM_DEMOTIONS_TOTAL,
    HSM_RECALLS_TOTAL,
    HSM_DEMOTE_BYTES,
    HSM_RECALL_BYTES,
    HSM_RECALL_LATENCY_NS,
    TAPE_MOUNTS_TOTAL,
    TAPE_STUCK_MOUNTS_TOTAL,
    TAPE_OPS_TOTAL,
    TAPE_OP_LATENCY_NS,
    WORKFLOW_FIRINGS_TOTAL,
    WORKFLOW_TOKENS_MOVED_TOTAL,
    WORKFLOW_RUNS_TOTAL,
    WORKFLOW_RUN_LATENCY_NS,
    WORKFLOW_TRIGGER_RUNS_TOTAL,
    MR_JOBS_TOTAL,
    MR_JOB_LATENCY_NS,
    TRACE_ROOTS_TOTAL,
    TRACE_SAMPLED_TOTAL,
    TRACE_RETAINED,
    ADAL_PUT_SPAN,
    ADAL_GET_SPAN,
    ADAL_STAT_SPAN,
    ADAL_LIST_SPAN,
    ADAL_DELETE_SPAN,
    ADAL_DRAIN_SPAN,
    ADAL_ATTEMPT_SPAN,
    ADAL_PRIMARY_PUT_SPAN,
    ADAL_REPLICA_PUT_SPAN,
    POOL_TASK_SPAN,
    FACILITY_INGEST_BATCH_SPAN,
    DFS_WRITE_SPAN,
    DFS_READ_SPAN,
    DFS_RE_REPLICATE_SPAN,
    HSM_STAGE_SPAN,
    TAPE_REQUEST_SPAN,
    TAPE_MOUNT_SPAN,
    ADAL_RETRY_EVENT,
    ADAL_RETRY_EXHAUSTED_EVENT,
    ADAL_BREAKER_TRANSITION_EVENT,
    ADAL_JOURNAL_ENQUEUE_EVENT,
    ADAL_FAILOVER_READ_EVENT,
    CHAOS_FAULT_EVENT,
    DFS_BLOCK_PLACED_EVENT,
    DFS_BLOCK_REREPLICATED_EVENT,
    ADAL_BREAKER_LOG_EVENT,
    ADAL_MOUNT_LOG_EVENT,
    ADAL_JOURNAL_DRAIN_LOG_EVENT,
    ADAL_JOURNAL_CONFLICT_LOG_EVENT,
    HSM_DELETE_LOG_EVENT,
    HSM_DEMOTE_LOG_EVENT,
    HSM_RECALL_LOG_EVENT,
    ADMISSION_ADMITTED_TOTAL,
    ADMISSION_SHED_TOTAL,
    ADMISSION_QUEUE_DEPTH,
    ADMISSION_WAIT_NS,
    ADMISSION_THROTTLE_LEVEL,
    ADMISSION_GOVERNOR_TRANSITIONS_TOTAL,
    ADMISSION_WAIT_SPAN,
    ADMISSION_GOVERNOR_LOG_EVENT,
    WAL_APPENDS_TOTAL,
    WAL_APPEND_BYTES,
    WAL_FSYNCS_TOTAL,
    WAL_FSYNC_LATENCY_NS,
    WAL_TORN_TAIL_TOTAL,
    CKPT_TAKEN_TOTAL,
    CKPT_BYTES,
    CKPT_CHUNKS_WRITTEN_TOTAL,
    CKPT_CHUNKS_REUSED_TOTAL,
    CKPT_REJECTED_TOTAL,
    CKPT_SEGMENTS_TRUNCATED_TOTAL,
    RECOVERY_RUNS_TOTAL,
    RECOVERY_REPLAYED_RECORDS_TOTAL,
    RECOVERY_SKIPPED_RECORDS_TOTAL,
    RECOVERY_LATENCY_NS,
    RECOVERY_REPLAY_SPAN,
    RECOVERY_COMPONENT_SPAN,
    CHAOS_CRASH_LOG_EVENT,
    FACILITY_SLO_EVALUATIONS_TOTAL,
    FACILITY_SLO_VIOLATIONS_TOTAL,
    FACILITY_SLO_HEALTHY,
    FACILITY_SLO_WINDOWED_VIOLATIONS_TOTAL,
    TELEMETRY_SCRAPES_TOTAL,
    TELEMETRY_SAMPLES_TOTAL,
    TELEMETRY_EVICTIONS_TOTAL,
    TELEMETRY_POINTS_HIGH_WATER,
    TELEMETRY_SERIES,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for n in ALL {
            assert!(seen.insert(n), "duplicate metric name: {n}");
        }
    }

    #[test]
    fn names_follow_the_convention() {
        const PREFIXES: &[&str] = &[
            "adal_",
            "admission_",
            "chaos_",
            "cloud_",
            "dfs_",
            "facility_",
            "hsm_",
            "tape_",
            "workflow_",
            "mr_",
            "pool_",
            "trace_",
            "wal_",
            "ckpt_",
            "recovery_",
            "telemetry_",
        ];
        for n in ALL {
            assert!(
                PREFIXES.iter().any(|p| n.starts_with(p)),
                "{n} lacks a subsystem prefix"
            );
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()),
                "{n} is not snake_case"
            );
        }
    }
}
