//! `lsdf-pool`: the facility's deterministic worker pool.
//!
//! The LSDF front door (batch ingest, ADAL replica fan-out) is
//! throughput-bound on pipeline parallelism, not on any single device.
//! This crate provides the one concurrency primitive the data path is
//! allowed to use: a [`WorkerPool`] that fans independent items across
//! scoped threads and merges results back in **submission order**, so a
//! parallel run is bit-identical to the serial run for any worker
//! count.
//!
//! Determinism argument: results land in per-index slots that are
//! pre-allocated before any worker starts; workers claim indices from
//! a single atomic counter and race only over *which* item they pull,
//! never over where its result lands. There is no merge pass and no
//! reorder barrier — the slot vector *is* the output, already in
//! submission order. As long as the per-item closure is a pure
//! function of its item (plus order-independent side effects such as
//! monotonic counter increments), the collected `Vec<R>` — and
//! therefore everything derived from it — cannot observe the
//! scheduling order.
//!
//! The pool is configuration, not a thread cache: `WorkerPool` is
//! `Copy`, and threads are spawned per call via `std::thread::scope`,
//! which keeps borrowed captures (`&Facility`, `&Credential`) safe
//! without `'static` bounds and guarantees worker panics propagate to
//! the caller instead of being swallowed.

#![forbid(unsafe_code)]

use lsdf_sync::{ranks, OrderedMutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use lsdf_obs::{names, TraceCtx};

/// Environment variable consulted by [`WorkerPool::from_env`]; holds the
/// worker count for facility data paths (default 1 = serial).
pub const WORKERS_ENV: &str = "LSDF_WORKERS";

/// A fixed-width worker pool with deterministic, index-ordered merges.
///
/// `workers == 1` is the serial identity: `run` degenerates to a plain
/// in-order loop on the calling thread and `join` evaluates its two
/// closures sequentially. Results are identical for every worker count;
/// only wall-clock time changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::serial()
    }
}

impl WorkerPool {
    /// A pool with `workers` threads; clamped to at least 1.
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// The serial pool: one worker, no threads spawned.
    pub fn serial() -> Self {
        WorkerPool::new(1)
    }

    /// Reads the worker count from [`WORKERS_ENV`] (`LSDF_WORKERS`);
    /// unset, empty, or unparsable values mean serial.
    pub fn from_env() -> Self {
        let workers = std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1);
        WorkerPool::new(workers)
    }

    /// The configured worker count (>= 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True when `run`/`join` will actually spawn threads.
    pub fn is_parallel(&self) -> bool {
        self.workers > 1
    }

    /// Applies `f` to every item and returns the results **in input
    /// order**, regardless of which worker finished first.
    ///
    /// Workers claim indices from a shared atomic counter (so a slow
    /// item does not stall the others) and write each result directly
    /// into its pre-allocated, index-addressed slot. The slot vector
    /// is the output: there is no per-worker buffering, no merge pass,
    /// and no reorder barrier after the scope joins. With one worker
    /// (or at most one item) no threads are spawned.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.workers == 1 || n <= 1 {
            return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let threads = self.workers.min(n);
        // One cell per item: the worker that wins index `i` takes the
        // item out of `cells[i]` and publishes into `slots[i]`. Each
        // cell is locked exactly once, standalone, so slot locks rank
        // below everything the task closure may acquire.
        let cells: Vec<OrderedMutex<Option<T>>> = items
            .into_iter()
            .map(|t| OrderedMutex::new(ranks::POOL_SLOT, Some(t)))
            .collect();
        let mut slots: Vec<OrderedMutex<Option<R>>> = Vec::with_capacity(n);
        slots.resize_with(n, || OrderedMutex::new(ranks::POOL_SLOT, None));
        let next = AtomicUsize::new(0);
        thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let cells = &cells;
                let slots = &slots;
                let next = &next;
                let f = &f;
                handles.push(scope.spawn(move || loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let item = cells[idx].lock().take();
                    if let Some(item) = item {
                        // Uncontended by construction: `fetch_add`
                        // hands index `idx` to exactly one worker.
                        let result = f(idx, item);
                        *slots[idx].lock() = Some(result);
                    }
                }));
            }
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        let out: Vec<R> = slots.iter().filter_map(|s| s.lock().take()).collect();
        debug_assert_eq!(out.len(), n);
        out
    }

    /// [`WorkerPool::run`] with causal tracing: each item executes
    /// inside its own `pool_task` child span of `parent`.
    ///
    /// The child spans are reserved **serially, in index order, before
    /// any worker thread sees the queue**, so the trace tree (child
    /// order included) is bit-identical for every worker count; only
    /// the recorded timestamps can differ, and under a virtual clock
    /// even those agree.
    pub fn run_traced<T, R, F>(&self, parent: &TraceCtx, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T, &TraceCtx) -> R + Sync,
    {
        if !parent.is_enabled() {
            let disabled = TraceCtx::disabled();
            return self.run(items, |i, t| f(i, t, &disabled));
        }
        let tagged: Vec<(T, TraceCtx)> = items
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let span = parent.child(names::POOL_TASK_SPAN);
                span.add_field("idx", &i.to_string());
                (t, span)
            })
            .collect();
        self.run(tagged, |i, (t, span)| {
            let out = f(i, t, &span);
            span.finish();
            out
        })
    }

    /// Evaluates `fa` and `fb`, concurrently when the pool is parallel,
    /// and returns both results as `(a, b)`.
    ///
    /// Serial pools run `fa` then `fb` on the calling thread, so side
    /// effects keep their serial order when parallelism is off.
    pub fn join<A, B, FA, FB>(&self, fa: FA, fb: FB) -> (A, B)
    where
        A: Send,
        B: Send,
        FA: FnOnce() -> A + Send,
        FB: FnOnce() -> B + Send,
    {
        if self.workers == 1 {
            let a = fa();
            let b = fb();
            return (a, b);
        }
        thread::scope(|scope| {
            let hb = scope.spawn(fb);
            let a = fa();
            let b = match hb.join() {
                Ok(b) => b,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            (a, b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = WorkerPool::serial().run(items.clone(), |i, x| (i as u64) * 1000 + x * x);
        for workers in [2usize, 4, 8] {
            let par = WorkerPool::new(workers).run(items.clone(), |i, x| (i as u64) * 1000 + x * x);
            assert_eq!(serial, par, "workers={workers}");
        }
    }

    #[test]
    fn run_preserves_index_even_when_late_items_finish_first() {
        // Stagger work so high indices finish before low ones.
        let items: Vec<u64> = (0..64).collect();
        let out = WorkerPool::new(4).run(items, |i, x| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn side_effect_sums_are_worker_count_independent() {
        let serial_total = {
            let total = AtomicU64::new(0);
            WorkerPool::serial().run((1..=100u64).collect(), |_, x| {
                total.fetch_add(x, Ordering::Relaxed);
            });
            total.load(Ordering::Relaxed)
        };
        let par_total = {
            let total = AtomicU64::new(0);
            WorkerPool::new(8).run((1..=100u64).collect(), |_, x| {
                total.fetch_add(x, Ordering::Relaxed);
            });
            total.load(Ordering::Relaxed)
        };
        assert_eq!(serial_total, 5050);
        assert_eq!(serial_total, par_total);
    }

    #[test]
    fn run_traced_trees_are_worker_count_invariant() {
        use lsdf_obs::{Registry, TraceConfig, Tracer};
        use std::sync::Arc;
        let tree = |workers: usize| {
            let reg = Arc::new(Registry::new());
            reg.set_virtual_time_ns(7);
            let tracer = Tracer::new(&reg, TraceConfig::full());
            let root = tracer.root(names::POOL_TASK_SPAN, "batch");
            let out =
                WorkerPool::new(workers).run_traced(&root, (0..32u64).collect(), |i, x, ctx| {
                    assert!(ctx.is_enabled());
                    (i as u64) * 100 + x
                });
            root.finish();
            (out, tracer.export_chrome())
        };
        let (out1, trace1) = tree(1);
        for workers in [4usize, 8] {
            let (out, trace) = tree(workers);
            assert_eq!(out1, out, "workers={workers}");
            assert_eq!(trace1, trace, "workers={workers}");
        }
    }

    #[test]
    fn run_traced_disabled_parent_is_transparent() {
        let out = WorkerPool::new(4).run_traced(
            &lsdf_obs::TraceCtx::disabled(),
            vec![1u32, 2, 3],
            |_, x, ctx| {
                assert!(!ctx.is_enabled());
                x * 2
            },
        );
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn join_returns_both_results() {
        assert_eq!(WorkerPool::serial().join(|| 1, || "b"), (1, "b"));
        assert_eq!(WorkerPool::new(4).join(|| 1, || "b"), (1, "b"));
    }

    #[test]
    fn empty_and_single_item_batches_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(WorkerPool::new(4).run(empty, |_, x: u32| x).is_empty());
        assert_eq!(WorkerPool::new(4).run(vec![7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn new_clamps_zero_to_serial() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
        assert!(!WorkerPool::new(0).is_parallel());
        assert!(WorkerPool::new(2).is_parallel());
    }
}
