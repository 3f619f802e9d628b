//! The timing rule: clock-normalised fixed-work segments, combined
//! across repetitions by the per-segment minimum.
//!
//! The host this benchmark was built on is a 2-vCPU KVM guest whose
//! clock is bistable (a base mode and a turbo mode ~1.27x faster, each
//! lasting seconds) and whose memory-bound work moves between plateaus
//! up to 2x apart as neighbours load the shared cache. Medians of
//! repetitions disagree by 12–38% across processes there; this rule
//! brings the same numbers within a few percent:
//!
//! * a phase is cut into segments that do identical work in every
//!   repetition;
//! * a segment's time is its wall time, or the CPU time the process
//!   used meanwhile if that is less: a thread the host kept off its CPU
//!   (a neighbour's turn, the hypervisor's steal) used none, and on a
//!   bad hour that is half of all wall time;
//! * a clock probe runs before and after each segment, and the
//!   segment's time is scaled by `clock / NOMINAL_CLOCK` (the larger of
//!   the two readings, so a segment that straddles a mode change is
//!   reported slower, never faster);
//! * the phase's time is `Σᵢ minᵣ t[r][i]`: work the program does at
//!   the same place in every repetition survives the minimum,
//!   interference that differs between repetitions does not. (Where two
//!   threads contend, the two smallest readings go first: see
//!   [`CONTENDED_SKIP`].)

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The probe rate (chain steps per microsecond) of this host's base
/// clock mode. A unit definition: every reported time is "seconds at
/// the nominal clock". Never retuned, or results stop being comparable.
pub const NOMINAL_CLOCK: f64 = 824.0;

/// Probe readings above this multiple of nominal count as turbo.
const TURBO_RATIO: f64 = 1.12;

/// Steps of the dependent chain per probe (~150 µs at nominal).
const PROBE_STEPS: u64 = 124_000;

/// A probe reading younger than this is reused as the next segment's
/// "before" reading, so back-to-back segments pay one probe, not two.
const PROBE_REUSE_NS: u128 = 500_000;

fn probe_once() -> f64 {
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let t = Instant::now();
    for _ in 0..PROBE_STEPS {
        // Square-and-add: each step needs the previous one (imul + add,
        // four cycles), and the compiler cannot fold a non-affine chain.
        x = x.wrapping_mul(x).wrapping_add(0x632B_E59B_D9B4_E019);
    }
    let ns = t.elapsed().as_nanos().max(1) as f64;
    black_box(x);
    PROBE_STEPS as f64 * 1_000.0 / ns
}

/// Best of three: a probe can only be slowed by interference, so the
/// largest reading is the clock.
pub fn clock_probe() -> f64 {
    (0..3).map(|_| probe_once()).fold(0.0, f64::max)
}

/// Scales a raw time to the nominal clock using the larger probe
/// reading.
pub fn normalise(raw_ns: f64, clock_before: f64, clock_after: f64) -> f64 {
    raw_ns * clock_before.max(clock_after) / NOMINAL_CLOCK
}

/// CPU time this process has used so far, all threads, in nanoseconds;
/// `None` where there is no such clock. The time a vCPU was descheduled
/// by the hypervisor is not in it (the guest kernel takes steal out of
/// task run time), nor the time a thread waited for a CPU.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_ns() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` is the C library's, which std links; it
    // writes one `struct timespec` (two 64-bit integers on 64-bit
    // Linux) through the pointer, which is to a live local of that
    // layout, and keeps nothing.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    (rc == 0).then_some(time.sec as f64 * 1e9 + time.nsec as f64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_ns() -> Option<f64> {
    None
}

/// What a segment that took `wall_ns` and in which the process used
/// `cpu_ns` of CPU counts for. A single thread that never blocks uses
/// as much CPU as wall time passes unless the host takes the CPU away,
/// so the smaller is the time the work took; with two threads at work
/// the process uses more CPU than wall time and the wall time stands.
pub fn undisturbed(wall_ns: f64, cpu_ns: Option<f64>) -> f64 {
    cpu_ns.map_or(wall_ns, |cpu| cpu.min(wall_ns))
}

/// One timed segment.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall time as measured.
    pub raw_ns: f64,
    /// Time at the nominal clock, without what the host took.
    pub norm_ns: f64,
    /// The segment's clock reading was in the turbo mode.
    pub turbo: bool,
}

impl Sample {
    /// A part of this segment that took `raw_ns` by its own stopwatch:
    /// the segment's clock reading, and the share of it the host took,
    /// apply to all of its parts.
    pub fn part(&self, raw_ns: f64) -> Sample {
        Sample {
            raw_ns,
            norm_ns: raw_ns * self.norm_ns / self.raw_ns.max(1.0),
            turbo: self.turbo,
        }
    }
}

/// A spinning barrier for threads whose segments must start together.
/// A blocking barrier parks one side, and waking a halted vCPU takes up
/// to a millisecond on a shared host: whoever woke late left the other
/// uncontended for that long, and the minimum over repetitions then
/// picked exactly those segments.
pub struct Gate {
    parties: usize,
    arrived: AtomicUsize,
}

impl Gate {
    pub fn new(parties: usize) -> Self {
        Gate {
            parties,
            arrived: AtomicUsize::new(0),
        }
    }

    /// Returns once `parties` threads have arrived for this round.
    pub fn wait(&self) {
        let n = self.arrived.fetch_add(1, Ordering::SeqCst) + 1;
        let round_full = n.div_ceil(self.parties) * self.parties;
        let mut spins = 0u32;
        while self.arrived.load(Ordering::SeqCst) < round_full {
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(4096) {
                // With fewer CPUs than parties the other side needs
                // this one's time slice to arrive at all.
                std::thread::yield_now();
            }
        }
    }
}

/// Times segments; one per thread.
pub struct Timer {
    /// Every segment starts at this gate, right after a fresh probe.
    gate: Option<Arc<Gate>>,
    last: Option<(Instant, f64)>,
    /// Segments timed so far, and how many ran in turbo mode.
    pub segments: u64,
    pub turbo_segments: u64,
    probe_sum: f64,
}

impl Timer {
    pub fn new() -> Self {
        Timer {
            gate: None,
            last: None,
            segments: 0,
            turbo_segments: 0,
            probe_sum: 0.0,
        }
    }

    /// A timer whose every segment starts at `gate`.
    pub fn gated(gate: Arc<Gate>) -> Self {
        Timer {
            gate: Some(gate),
            ..Timer::new()
        }
    }

    fn before(&mut self) -> f64 {
        match self.last {
            Some((at, clock)) if at.elapsed().as_nanos() < PROBE_REUSE_NS => clock,
            _ => clock_probe(),
        }
    }

    /// Runs `f` as one segment: probe, (gate,) run, probe.
    pub fn segment<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let before = match &self.gate {
            Some(gate) => {
                let clock = clock_probe();
                gate.wait();
                clock
            }
            None => self.before(),
        };
        let cpu = process_cpu_ns();
        let t = Instant::now();
        let out = f();
        let raw_ns = t.elapsed().as_nanos() as f64;
        let cpu_ns = cpu.zip(process_cpu_ns()).map(|(from, to)| to - from);
        let after = clock_probe();
        self.last = Some((Instant::now(), after));
        let clock = before.max(after);
        let turbo = clock > NOMINAL_CLOCK * TURBO_RATIO;
        self.segments += 1;
        self.turbo_segments += u64::from(turbo);
        self.probe_sum += clock;
        let sample = Sample {
            raw_ns,
            norm_ns: normalise(undisturbed(raw_ns, cpu_ns), before, after),
            turbo,
        };
        (out, sample)
    }

    /// Mean segment clock over nominal (1.0 = the host ran at base).
    pub fn probe_nominal_ratio(&self) -> f64 {
        if self.segments == 0 {
            return clock_probe() / NOMINAL_CLOCK;
        }
        self.probe_sum / self.segments as f64 / NOMINAL_CLOCK
    }

    /// Folds another thread's timer into this one's host statistics.
    pub fn absorb(&mut self, other: &Timer) {
        self.segments += other.segments;
        self.turbo_segments += other.turbo_segments;
        self.probe_sum += other.probe_sum;
    }
}

/// Readings of a segment discarded from below where two threads ran
/// against each other. There a stall of the *other* thread (preempted,
/// late out of the gate) leaves this one uncontended, so interference
/// also makes segments faster, and the plain minimum picks exactly
/// those: about one reading in a hundred, so two of a segment's ten
/// are margin enough.
pub const CONTENDED_SKIP: usize = 2;

/// For every segment index `i`, the smallest of `t[r][i]` over the
/// repetitions `r` after discarding the `skip` smallest (`skip` 0: the
/// minimum), and never more than a quarter of them: a run cut short to
/// three repetitions must not report its slowest. Every repetition must
/// have run the same segments.
pub fn composite_of(reps: &[Vec<f64>], skip: usize) -> Vec<f64> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    assert!(
        reps.iter().all(|r| r.len() == first.len()),
        "repetitions ran different segment counts"
    );
    (0..first.len())
        .map(|i| {
            let mut readings: Vec<f64> = reps.iter().map(|r| r[i]).collect();
            readings.sort_by(f64::total_cmp);
            readings[skip.min(readings.len() / 4)]
        })
        .collect()
}

/// Normalised times of one phase across repetitions → composite.
pub fn composite(reps: &[Vec<Sample>], skip: usize) -> Vec<f64> {
    let norm: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| r.iter().map(|s| s.norm_ns).collect())
        .collect();
    composite_of(&norm, skip)
}

/// Σ of the composite, in nanoseconds at the nominal clock.
pub fn composite_total(reps: &[Vec<Sample>], skip: usize) -> f64 {
    composite(reps, skip).iter().sum()
}

/// The `p`-th percentile (nearest rank) of `samples`, or `None` when
/// fewer than ten samples lie beyond it: a tail read off a handful of
/// points is noise.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..100.0).contains(&p), "percentile out of range");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    (v.len() >= rank + 10).then(|| v[rank - 1])
}

/// First quartile, median, third quartile (linear interpolation); for
/// the informational "under load" figures.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        if v.is_empty() {
            return f64::NAN;
        }
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::inputs::Rng;

    /// Uniform in [0, 1).
    fn unit(rng: &mut Rng) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A synthetic host: segment `i` costs `cost[i]` ns at the nominal
    /// clock; the clock flips between base and 1.28x turbo in runs of
    /// segments, 2x memory plateaus cover runs of segments, and rare
    /// preemption spikes add up to 3 ms.
    fn synthetic_rep(cost: &[f64], rng: &mut Rng) -> Vec<f64> {
        let mut turbo = unit(rng) < 0.5;
        let mut plateau = false;
        cost.iter()
            .map(|&c| {
                if unit(rng) < 0.05 {
                    turbo = !turbo;
                }
                if unit(rng) < 0.08 {
                    plateau = !plateau;
                }
                let speed = if turbo { 1.28 } else { 1.0 };
                let mut raw = c / speed;
                if plateau {
                    raw *= 2.0;
                }
                if unit(rng) < 0.02 {
                    raw += unit(rng) * 3.0e6;
                }
                // The probe is compute-bound: it sees the clock mode
                // and nothing else, with a little reading noise.
                let clock = NOMINAL_CLOCK * speed * (1.0 - unit(rng) * 0.004);
                normalise(raw, clock, clock)
            })
            .collect()
    }

    #[test]
    fn segment_minimum_recovers_the_planted_cost() {
        let mut rng = Rng::new(7);
        // 200 segments of uneven cost, including a periodic stall the
        // program itself causes (it must survive the minimum).
        let cost: Vec<f64> = (0..200)
            .map(|i| 40_000.0 + 500.0 * (i % 7) as f64 + if i % 16 == 15 { 250_000.0 } else { 0.0 })
            .collect();
        let planted: f64 = cost.iter().sum();
        let reps: Vec<Vec<f64>> = (0..8).map(|_| synthetic_rep(&cost, &mut rng)).collect();
        let got: f64 = composite_of(&reps, 0).iter().sum();
        assert!(
            (got / planted - 1.0).abs() < 0.02,
            "composite {got} vs planted {planted}"
        );
        // The per-repetition totals it replaces are far off.
        let worst = reps
            .iter()
            .map(|r| r.iter().sum::<f64>() / planted)
            .fold(0.0, f64::max);
        assert!(worst > 1.15, "synthetic host was not noisy enough: {worst}");
    }

    /// Two threads: one reading in a hundred is of a segment the other
    /// thread slept through, and costs half.
    #[test]
    fn skipping_composite_ignores_segments_the_peer_slept_through() {
        let mut rng = Rng::new(11);
        let cost = vec![50_000.0; 300];
        let planted: f64 = cost.iter().sum();
        let reps: Vec<Vec<f64>> = (0..10)
            .map(|_| {
                let mut rep = synthetic_rep(&cost, &mut rng);
                for t in &mut rep {
                    if unit(&mut rng) < 0.01 {
                        *t *= 0.5;
                    }
                }
                rep
            })
            .collect();
        let plain: f64 = composite_of(&reps, 0).iter().sum();
        let skipping: f64 = composite_of(&reps, CONTENDED_SKIP).iter().sum();
        assert!(plain / planted < 0.97, "no lucky segments planted: {plain}");
        // The third smallest of ten sits on this synthetic host's 2x
        // plateaus (half of all time) more often than the smallest, so
        // it is allowed 5% where the minimum is held to 2%.
        assert!(
            (skipping / planted - 1.0).abs() < 0.05,
            "composite {skipping} vs planted {planted}"
        );
    }

    #[test]
    fn time_the_host_took_is_not_the_works() {
        // Kept off the CPU for half the segment: the CPU time counts.
        assert_eq!(undisturbed(2_000.0, Some(1_000.0)), 1_000.0);
        // Two threads at work, or no CPU clock: the wall time stands.
        assert_eq!(undisturbed(2_000.0, Some(3_900.0)), 2_000.0);
        assert_eq!(undisturbed(2_000.0, None), 2_000.0);
        // Where there is a CPU clock, it runs.
        if let Some(from) = process_cpu_ns() {
            let t = Instant::now();
            while t.elapsed().as_millis() < 20 {
                black_box(probe_once());
            }
            let used = process_cpu_ns().unwrap() - from;
            assert!(used > 0.0, "the CPU clock stood still");
        }
    }

    #[test]
    fn skipping_never_discards_more_than_a_quarter() {
        let reps = |n: usize| -> Vec<Vec<f64>> { (1..=n).map(|r| vec![r as f64]).collect() };
        assert_eq!(composite_of(&reps(9), CONTENDED_SKIP), [3.0]);
        assert_eq!(composite_of(&reps(5), CONTENDED_SKIP), [2.0]);
        assert_eq!(composite_of(&reps(3), CONTENDED_SKIP), [1.0]);
        assert_eq!(composite_of(&reps(1), CONTENDED_SKIP), [1.0]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v, 95.0), None);
        let big: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&big, 95.0), Some(190.0));
        assert_eq!(percentile(&big[..199], 95.0), None);
    }

    #[test]
    fn transition_segment_reads_slower_never_faster() {
        let raw = 1.0e6;
        let base = NOMINAL_CLOCK;
        let turbo = NOMINAL_CLOCK * 1.28;
        let steady_base = normalise(raw, base, base);
        let steady_turbo = normalise(raw, turbo, turbo);
        for transition in [normalise(raw, base, turbo), normalise(raw, turbo, base)] {
            assert!(transition >= steady_base);
            assert!(transition >= steady_turbo);
        }
        // A segment that ran wholly in turbo is scaled back up.
        assert!((normalise(raw / 1.28, turbo, turbo) / steady_base - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gate_releases_each_round_together() {
        let gate = Gate::new(2);
        let rounds = 200;
        let order = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for id in 0..2 {
                let (gate, order) = (&gate, &order);
                s.spawn(move || {
                    for round in 0..rounds {
                        order.lock().unwrap().push((round, id, false));
                        gate.wait();
                        order.lock().unwrap().push((round, id, true));
                    }
                });
            }
        });
        // Nobody leaves round r before both have entered it.
        let order = order.into_inner().unwrap();
        for round in 0..rounds {
            let first_exit = order
                .iter()
                .position(|&(r, _, out)| r == round && out)
                .unwrap();
            let entered = order[..first_exit]
                .iter()
                .filter(|&&(r, _, out)| r == round && !out)
                .count();
            assert_eq!(entered, 2, "round {round}");
        }
    }

    #[test]
    fn composite_refuses_ragged_repetitions() {
        let r = std::panic::catch_unwind(|| composite_of(&[vec![1.0, 2.0], vec![1.0]], 0));
        assert!(r.is_err());
    }

    #[test]
    fn quartiles_interpolate() {
        let (q1, q2, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
    }
}
