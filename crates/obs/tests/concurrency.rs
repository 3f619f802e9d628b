//! Concurrency: many threads hammering the same registry handles must
//! lose no increments and tear no histogram state.

use std::sync::{Arc, Barrier};
use std::thread;

use lsdf_obs::{Histogram, Registry};
use proptest::prelude::*;

#[test]
fn concurrent_counter_increments_are_lossless() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let reg = Arc::new(Registry::new());
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let reg = reg.clone();
        handles.push(thread::spawn(move || {
            // Each thread resolves its own handle: get-or-create must
            // converge on the same underlying cell.
            let c = reg.counter("stress_total", &[("kind", "inc")]);
            let g = reg.gauge("stress_inflight", &[]);
            for i in 0..PER_THREAD {
                g.add(1);
                c.inc();
                // Mix in per-thread labels to exercise map growth.
                if i % 1000 == 0 {
                    reg.counter("stress_total", &[("kind", "labelled")])
                        .inc();
                }
                g.add(-1);
            }
            let _ = t;
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        reg.counter_value("stress_total", &[("kind", "inc")]),
        (THREADS as u64) * PER_THREAD
    );
    assert_eq!(
        reg.counter_value("stress_total", &[("kind", "labelled")]),
        (THREADS as u64) * (PER_THREAD / 1000)
    );
    assert_eq!(reg.gauge_value("stress_inflight", &[]), 0);
    assert_eq!(
        reg.counter_total("stress_total"),
        (THREADS as u64) * (PER_THREAD + PER_THREAD / 1000)
    );
}

#[test]
fn concurrent_histogram_records_preserve_count_and_sum() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    let reg = Arc::new(Registry::new());
    let hist = reg.histogram("stress_lat_ns", &[]);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let hist = hist.clone();
        handles.push(thread::spawn(move || {
            for i in 0..PER_THREAD {
                hist.record(t * PER_THREAD + i);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let n = THREADS * PER_THREAD;
    assert_eq!(hist.count(), n);
    assert_eq!(hist.sum(), n * (n - 1) / 2);
    assert_eq!(hist.min(), 0);
    assert_eq!(hist.max(), n - 1);
}

proptest! {
    /// Threads released together by a barrier, each recording its share
    /// of `values`, leave the histogram a sequential fold of them would:
    /// count, sum, min, max and every bucket. Buckets are compared
    /// through the quantile of each rank, which names the rank's bucket.
    #[test]
    fn concurrent_records_equal_a_sequential_fold(
        values in prop::collection::vec(any::<u64>(), 1..400),
        threads in 2usize..5,
    ) {
        let shared = Histogram::new();
        let start = Barrier::new(threads);
        let share = values.len().div_ceil(threads);
        thread::scope(|s| {
            for part in values.chunks(share) {
                let (shared, start) = (&shared, &start);
                s.spawn(move || {
                    start.wait();
                    part.iter().for_each(|&v| shared.record(v));
                });
            }
            // Fewer chunks than threads: the missing ones still arrive.
            for _ in values.chunks(share).len()..threads {
                s.spawn(|| start.wait());
            }
        });
        let fold = Histogram::new();
        values.iter().for_each(|&v| fold.record(v));
        prop_assert_eq!(shared.count(), fold.count());
        prop_assert_eq!(shared.sum(), fold.sum());
        prop_assert_eq!(shared.min(), fold.min());
        prop_assert_eq!(shared.max(), fold.max());
        let n = values.len();
        for rank in 1..=n {
            let q = (rank as f64 - 0.5) / n as f64;
            prop_assert_eq!(shared.quantile(q), fold.quantile(q), "rank {}", rank);
        }
    }
}
