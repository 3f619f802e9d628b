//! The job runner: locality-aware task scheduling, shuffle, sort, reduce,
//! and speculative execution — one worker thread per cluster node.
//!
//! The scheduler reproduces Hadoop's behaviour on the paper's 60-node
//! cluster: map tasks preferentially run where a replica of their block
//! lives (node-local > rack-local > remote), stragglers are duplicated
//! once the pending queue drains, and the first finished attempt commits.
//!
//! Task→node assignment is **planned deterministically** before the
//! executor threads start: workers claim their best pending task by
//! locality rank in canonical round-robin order. Threads still race over
//! which attempt they drive (work conservation, speculation), but block
//! reads and locality accounting are attributed to the planned node, so
//! the obs registry sees an identical schedule on every run no matter
//! how the OS interleaves the threads (lint rule L1).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use lsdf_dfs::{Dfs, DfsError, DfsNodeId, LocatedBlock};
use lsdf_obs::names;
use lsdf_pool::WorkerPool;

use crate::api::{Combiner, InputFormat, Mapper, Reducer};

/// Job configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Worker nodes (each becomes one executor thread). Defaults to all
    /// live DFS nodes.
    pub workers: Vec<DfsNodeId>,
    /// Number of reduce partitions.
    pub reducers: usize,
    /// Prefer node-local / rack-local splits when picking map tasks.
    pub locality_aware: bool,
    /// Duplicate long-running map attempts once the queue drains.
    pub speculative: bool,
    /// Artificial per-map-task delay for specific nodes (straggler
    /// injection for the E4 ablation): an attempt on such a node stalls
    /// for the delay, or until another attempt commits its task.
    pub slow_nodes: Vec<(DfsNodeId, Duration)>,
    /// How records are carved from blocks.
    pub input_format: InputFormat,
}

impl JobConfig {
    /// A config running on every live node of `dfs` with `reducers`
    /// partitions.
    pub fn on_cluster(dfs: &Dfs, reducers: usize) -> Self {
        JobConfig {
            workers: dfs.live_nodes(),
            reducers,
            locality_aware: true,
            speculative: false,
            slow_nodes: Vec::new(),
            input_format: InputFormat::Lines,
        }
    }
}

/// Errors from job execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrError {
    /// Input file missing or unreadable.
    Dfs(DfsError),
    /// The job was configured with no workers or no reducers.
    BadConfig(String),
}

impl std::fmt::Display for MrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrError::Dfs(e) => write!(f, "dfs: {e}"),
            MrError::BadConfig(m) => write!(f, "bad job config: {m}"),
        }
    }
}

impl std::error::Error for MrError {}

impl From<DfsError> for MrError {
    fn from(e: DfsError) -> Self {
        MrError::Dfs(e)
    }
}

/// Where a map attempt ran relative to its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskLocality {
    NodeLocal,
    RackLocal,
    Remote,
}

/// Job statistics.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Map tasks (splits).
    pub map_tasks: usize,
    /// Reduce partitions.
    pub reduce_tasks: usize,
    /// Input records fed to mappers.
    pub input_records: u64,
    /// Intermediate pairs emitted by mappers (pre-combine).
    pub map_output_records: u64,
    /// Intermediate pairs after combining (equals the above when no
    /// combiner runs).
    pub shuffled_records: u64,
    /// Final output records.
    pub output_records: u64,
    /// Input bytes read from the DFS.
    pub bytes_read: u64,
    /// Map attempts that ran node-local.
    pub node_local_maps: u64,
    /// Map attempts that ran rack-local.
    pub rack_local_maps: u64,
    /// Map attempts that ran remote.
    pub remote_maps: u64,
    /// Speculative attempts launched.
    pub speculative_launched: u64,
    /// Speculative attempts that won the commit race.
    pub speculative_won: u64,
    /// Duration of the run per the DFS obs registry clock — wall time
    /// normally, virtual time when the registry runs under `lsdf-sim`.
    pub wall: Duration,
}

/// A finished job: reducer outputs in deterministic (partition, key) order
/// plus statistics.
#[derive(Debug)]
pub struct JobOutput<O> {
    /// All reducer outputs.
    pub output: Vec<O>,
    /// Run statistics.
    pub stats: JobStats,
}

struct MapTaskDesc {
    file: String,
    block: LocatedBlock,
}

#[derive(Clone, Copy, PartialEq)]
enum TaskState {
    Pending,
    Running { attempts: u8 },
    Done,
}

struct Board {
    states: Vec<TaskState>,
    pending: usize,
    done: usize,
}

/// Runs a full MapReduce job over DFS input files.
///
/// Type parameters tie mapper, optional combiner and reducer key/value
/// types together; pass `NoCombiner::default()` when no combiner is wanted.
pub fn run_job<M, C, R>(
    dfs: &Dfs,
    inputs: &[String],
    mapper: &M,
    combiner: Option<&C>,
    reducer: &R,
    config: &JobConfig,
) -> Result<JobOutput<R::Output>, MrError>
where
    M: Mapper,
    C: Combiner<Key = M::Key, Value = M::Value>,
    R: Reducer<Key = M::Key, Value = M::Value>,
{
    // Job timing reads the obs registry clock shared with the DFS, not
    // the wall clock, so a run under virtual time is bit-reproducible.
    let clock = dfs.obs().clock().clone();
    let job_latency = dfs.obs().histogram(names::MR_JOB_LATENCY_NS, &[]);
    let jobs_total = dfs.obs().counter(names::MR_JOBS_TOTAL, &[]);
    let started_ns = clock.now_ns();
    if config.workers.is_empty() {
        return Err(MrError::BadConfig("no workers".into()));
    }
    if config.reducers == 0 {
        return Err(MrError::BadConfig("no reducers".into()));
    }
    // Build map tasks: one per input block.
    let mut tasks: Vec<MapTaskDesc> = Vec::new();
    for path in inputs {
        for block in dfs.file_blocks(path)? {
            tasks.push(MapTaskDesc {
                file: path.clone(),
                block,
            });
        }
    }
    let n_tasks = tasks.len();
    let n_reducers = config.reducers;

    // How far `worker` sits from a task's data (0 node-local, 1
    // rack-local, 2 remote); locality-blind scheduling flattens it.
    let rank_for = |worker: DfsNodeId, t: &MapTaskDesc| -> u8 {
        if !config.locality_aware || t.block.replicas.contains(&worker) {
            0
        } else if t
            .block
            .replicas
            .iter()
            .any(|&r| dfs.topology().same_rack(r, worker))
        {
            1
        } else {
            2
        }
    };

    // Deterministic schedule: round-robin over the workers in config
    // order, each claiming its best unclaimed task by locality rank —
    // the same greedy pick the executors race over, made canonical.
    let plan: Vec<DfsNodeId> = {
        let mut owner: Vec<Option<DfsNodeId>> = vec![None; n_tasks];
        let mut left = n_tasks;
        while left > 0 {
            for &worker in &config.workers {
                if left == 0 {
                    break;
                }
                let mut best: Option<(u8, usize)> = None;
                for (i, t) in tasks.iter().enumerate() {
                    if owner[i].is_some() {
                        continue;
                    }
                    let rank = rank_for(worker, t);
                    match best {
                        Some((br, _)) if br <= rank => {}
                        _ => best = Some((rank, i)),
                    }
                    if rank == 0 && config.locality_aware {
                        break;
                    }
                }
                if let Some((_, i)) = best {
                    owner[i] = Some(worker);
                    left -= 1;
                }
            }
        }
        owner
            .into_iter()
            .map(|o| o.expect("every task planned"))
            .collect()
    };

    // Each worker's first planned task is claimed here, before the
    // executors start, so the first round is the plan itself on every
    // run: a thread that is slow to start can have its task duplicated
    // by speculation, never stolen.
    let mut states = vec![TaskState::Pending; n_tasks];
    let first_tasks: Vec<Option<usize>> = config
        .workers
        .iter()
        .map(|&worker| {
            let i = (0..n_tasks).find(|&i| plan[i] == worker && states[i] == TaskState::Pending)?;
            states[i] = TaskState::Running { attempts: 1 };
            Some(i)
        })
        .collect();
    let pending = states.iter().filter(|s| **s == TaskState::Pending).count();
    // lint: allow(lock_order) -- job-local board; no guard outlives the pick or commit that took it
    let board = Mutex::new(Board { states, pending, done: 0 });
    // lint: allow(lock_order) -- waits on the board's guard only; an ordered guard has no condvar
    let board_cv = Condvar::new();
    // Committed map outputs: per task, per reducer partition.
    type Buckets<K, V> = Vec<Vec<(K, V)>>;
    let mut committed: Vec<Option<Buckets<M::Key, M::Value>>> =
        (0..n_tasks).map(|_| None).collect();

    let input_records = AtomicU64::new(0);
    let map_output_records = AtomicU64::new(0);
    let shuffled_records = AtomicU64::new(0);
    let bytes_read = AtomicU64::new(0);
    let node_local = AtomicU64::new(0);
    let rack_local = AtomicU64::new(0);
    let remote = AtomicU64::new(0);
    let spec_launched = AtomicU64::new(0);
    let spec_won = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let mut attempts = Vec::with_capacity(config.workers.len());
        for (&worker, mut claimed) in config.workers.iter().zip(first_tasks) {
            let tasks = &tasks;
            let plan = &plan;
            let rank_for = &rank_for;
            let board = &board;
            let board_cv = &board_cv;
            let input_records = &input_records;
            let map_output_records = &map_output_records;
            let shuffled_records = &shuffled_records;
            let bytes_read = &bytes_read;
            let node_local = &node_local;
            let rack_local = &rack_local;
            let remote = &remote;
            let spec_launched = &spec_launched;
            let spec_won = &spec_won;
            attempts.push(scope.spawn(move || {
                let slow = config
                    .slow_nodes
                    .iter()
                    .find(|(n, _)| *n == worker)
                    .map(|(_, d)| *d);
                let mut won_outputs = Vec::new();
                loop {
                    // Pick a task: pending (locality-ranked), else a
                    // speculative duplicate, else wait/exit.
                    enum Pick {
                        Task(usize, bool),
                        Wait,
                        Exit,
                    }
                    let pick = if let Some(i) = claimed.take() {
                        Pick::Task(i, false)
                    } else {
                        let mut b = board.lock();
                        if b.done == tasks.len() {
                            Pick::Exit
                        } else if b.pending > 0 {
                            // Own planned tasks first (the deterministic
                            // schedule), else steal the best-ranked
                            // pending task for work conservation.
                            let mut own: Option<usize> = None;
                            let mut steal: Option<(u8, usize)> = None;
                            for (i, t) in tasks.iter().enumerate() {
                                if b.states[i] != TaskState::Pending {
                                    continue;
                                }
                                if plan[i] == worker {
                                    own = Some(i);
                                    break;
                                }
                                let rank = rank_for(worker, t);
                                match steal {
                                    Some((br, _)) if br <= rank => {}
                                    _ => steal = Some((rank, i)),
                                }
                            }
                            match own.or(steal.map(|(_, i)| i)) {
                                Some(i) => {
                                    b.states[i] = TaskState::Running { attempts: 1 };
                                    b.pending -= 1;
                                    Pick::Task(i, false)
                                }
                                None => Pick::Wait,
                            }
                        } else if config.speculative {
                            // Duplicate a running, not-yet-duplicated task.
                            let cand = b
                                .states
                                .iter()
                                .position(|s| matches!(s, TaskState::Running { attempts: 1 }));
                            match cand {
                                Some(i) => {
                                    b.states[i] = TaskState::Running { attempts: 2 };
                                    Pick::Task(i, true)
                                }
                                None => Pick::Wait,
                            }
                        } else {
                            Pick::Wait
                        }
                    };
                    match pick {
                        Pick::Exit => break,
                        Pick::Wait => {
                            let mut b = board.lock();
                            if b.done == tasks.len() {
                                break;
                            }
                            board_cv.wait_for(&mut b, Duration::from_millis(1));
                            continue;
                        }
                        Pick::Task(i, is_spec) => {
                            if is_spec {
                                spec_launched.fetch_add(1, Ordering::Relaxed);
                            }
                            let t = &tasks[i];
                            // Straggler injection: the attempt stalls for
                            // the node's delay, or until another attempt has
                            // committed its task if that comes first — a
                            // duplicate that finishes inside the delay wins
                            // on the board, not by a race against a sleep.
                            if let Some(d) = slow {
                                let mut b = board.lock();
                                board_cv.wait_while_for(
                                    &mut b,
                                    |b| b.states[i] != TaskState::Done,
                                    d,
                                );
                            }
                            // The node this attempt runs on: the planned
                            // owner for first attempts, the idle
                            // executor's own node for speculative
                            // duplicates (a second attempt elsewhere).
                            let node = if is_spec { worker } else { plan[i] };
                            let data = match dfs.read_block(&t.block, Some(node)) {
                                Ok(d) => d,
                                Err(_) => {
                                    // Requeue on read failure.
                                    let mut b = board.lock();
                                    if b.states[i] != TaskState::Done {
                                        b.states[i] = TaskState::Pending;
                                        b.pending += 1;
                                    }
                                    continue;
                                }
                            };
                            let loc = if t.block.replicas.contains(&node) {
                                TaskLocality::NodeLocal
                            } else if t
                                .block
                                .replicas
                                .iter()
                                .any(|&r| dfs.topology().same_rack(r, node))
                            {
                                TaskLocality::RackLocal
                            } else {
                                TaskLocality::Remote
                            };
                            // Run the mapper over the block's records.
                            let records =
                                config.input_format.records(&t.file, t.block.offset, &data);
                            let mut buckets: Buckets<M::Key, M::Value> =
                                (0..n_reducers).map(|_| Vec::new()).collect();
                            let mut emitted = 0u64;
                            for rec in &records {
                                mapper.map(rec, &mut |k, v| {
                                    let p = partition(&k, n_reducers);
                                    buckets[p].push((k, v));
                                    emitted += 1;
                                });
                            }
                            // Local combine.
                            let mut after_combine = 0u64;
                            if let Some(c) = combiner {
                                for bucket in &mut buckets {
                                    *bucket = combine_bucket(c, std::mem::take(bucket));
                                    after_combine += bucket.len() as u64;
                                }
                            } else {
                                after_combine = emitted;
                            }
                            // Commit if first attempt to finish.
                            let won = {
                                let mut b = board.lock();
                                if b.states[i] == TaskState::Done {
                                    false
                                } else {
                                    b.states[i] = TaskState::Done;
                                    b.done += 1;
                                    true
                                }
                            };
                            if won {
                                won_outputs.push((i, buckets));
                                input_records
                                    .fetch_add(records.len() as u64, Ordering::Relaxed);
                                map_output_records.fetch_add(emitted, Ordering::Relaxed);
                                shuffled_records.fetch_add(after_combine, Ordering::Relaxed);
                                bytes_read.fetch_add(data.len() as u64, Ordering::Relaxed);
                                match loc {
                                    TaskLocality::NodeLocal => {
                                        node_local.fetch_add(1, Ordering::Relaxed)
                                    }
                                    TaskLocality::RackLocal => {
                                        rack_local.fetch_add(1, Ordering::Relaxed)
                                    }
                                    TaskLocality::Remote => {
                                        remote.fetch_add(1, Ordering::Relaxed)
                                    }
                                };
                                if is_spec {
                                    spec_won.fetch_add(1, Ordering::Relaxed);
                                }
                                board_cv.notify_all();
                            }
                        }
                    }
                }
                won_outputs
            }));
        }
        for attempt in attempts {
            for (i, buckets) in attempt.join().expect("worker thread panicked") {
                committed[i] = Some(buckets);
            }
        }
    });

    // Shuffle: gather each reducer's bucket across all committed tasks.
    let mut reducer_inputs: Vec<Vec<(M::Key, M::Value)>> =
        (0..n_reducers).map(|_| Vec::new()).collect();
    for task_out in committed.into_iter() {
        let buckets = task_out.expect("every map task must have committed output");
        for (r, bucket) in buckets.into_iter().enumerate() {
            reducer_inputs[r].extend(bucket);
        }
    }

    // Reduce phase: sort, group, fold — parallel across partitions,
    // outputs back in partition order.
    let output: Vec<R::Output> = WorkerPool::new(config.workers.len())
        .run(reducer_inputs, |_, mut pairs| {
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            let mut outs = Vec::new();
            let mut i = 0;
            while i < pairs.len() {
                let mut j = i + 1;
                while j < pairs.len() && pairs[j].0 == pairs[i].0 {
                    j += 1;
                }
                let values: Vec<M::Value> =
                    pairs[i..j].iter().map(|(_, v)| v.clone()).collect();
                outs.extend(reducer.reduce(&pairs[i].0, &values));
                i = j;
            }
            outs
        })
        .into_iter()
        .flatten()
        .collect();

    let output_records = output.len() as u64;
    let wall = Duration::from_nanos(clock.now_ns().saturating_sub(started_ns));
    job_latency.record(wall.as_nanos() as u64);
    jobs_total.inc();
    Ok(JobOutput {
        output,
        stats: JobStats {
            map_tasks: n_tasks,
            reduce_tasks: n_reducers,
            input_records: input_records.into_inner(),
            map_output_records: map_output_records.into_inner(),
            shuffled_records: shuffled_records.into_inner(),
            output_records,
            bytes_read: bytes_read.into_inner(),
            node_local_maps: node_local.into_inner(),
            rack_local_maps: rack_local.into_inner(),
            remote_maps: remote.into_inner(),
            speculative_launched: spec_launched.into_inner(),
            speculative_won: spec_won.into_inner(),
            wall,
        },
    })
}

/// A combiner that is never instantiated — pass `None::<&NoCombiner<_, _>>`
/// equivalents via [`no_combiner`].
pub struct NoCombiner<K, V>(std::marker::PhantomData<(K, V)>);

impl<K, V> Combiner for NoCombiner<K, V>
where
    K: Ord + std::hash::Hash + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    type Key = K;
    type Value = V;
    fn combine(&self, _key: &K, values: &[V]) -> Vec<V> {
        values.to_vec()
    }
}

/// Typed `None` for the combiner argument of [`run_job`].
pub fn no_combiner<M: Mapper>() -> Option<&'static NoCombiner<M::Key, M::Value>> {
    None
}

fn partition<K: Hash>(key: &K, n: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % n as u64) as usize
}

fn combine_bucket<C: Combiner>(
    c: &C,
    mut bucket: Vec<(C::Key, C::Value)>,
) -> Vec<(C::Key, C::Value)> {
    bucket.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::with_capacity(bucket.len());
    let mut i = 0;
    while i < bucket.len() {
        let mut j = i + 1;
        while j < bucket.len() && bucket[j].0 == bucket[i].0 {
            j += 1;
        }
        let values: Vec<C::Value> = bucket[i..j].iter().map(|(_, v)| v.clone()).collect();
        for v in c.combine(&bucket[i].0, &values) {
            out.push((bucket[i].0.clone(), v));
        }
        i = j;
    }
    out
}
