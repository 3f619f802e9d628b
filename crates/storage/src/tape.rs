//! Discrete-event model of the LSDF tape library (archive & backup
//! backend, paper slide 7).
//!
//! A library has a robot arm and a set of tape drives. An archive or recall
//! request must (1) win a drive, (2) have the robot fetch and mount the
//! cartridge, (3) seek to position, (4) stream, then (5) unmount. The robot
//! is a single shared resource; drives are a counted pool. Recall latency
//! under contention — the figure behind experiment E13 — is dominated by
//! mount waits, exactly as in the real facility.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use lsdf_obs::{Counter, Histogram, Registry, TraceCtx};
use lsdf_sim::{Resource, SimDuration, SimRng, SimTime, Simulation, Tally};
use lsdf_obs::names;

/// Direction of a tape request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeOp {
    /// Disk → tape (archive / backup).
    Archive,
    /// Tape → disk (recall).
    Recall,
}

impl TapeOp {
    /// Lowercase label used in metrics and events.
    pub fn name(self) -> &'static str {
        match self {
            TapeOp::Archive => "archive",
            TapeOp::Recall => "recall",
        }
    }
}

/// Timing parameters of the library hardware.
#[derive(Debug, Clone, Copy)]
pub struct TapeParams {
    /// Number of drives.
    pub drives: usize,
    /// Robot exchange time (fetch cartridge, load drive).
    pub mount: SimDuration,
    /// Average seek-to-position time once mounted.
    pub seek: SimDuration,
    /// Streaming rate, bytes per second.
    pub stream_bps: f64,
    /// Unload + return-to-slot time.
    pub unmount: SimDuration,
}

impl TapeParams {
    /// LTO-5-era parameters matching a 2011 facility library.
    pub fn lto5(drives: usize) -> Self {
        TapeParams {
            drives,
            mount: SimDuration::from_secs(90),
            seek: SimDuration::from_secs(45),
            stream_bps: 140e6,
            unmount: SimDuration::from_secs(30),
        }
    }
}

/// Completion record for a tape request.
#[derive(Debug, Clone)]
pub struct TapeCompletion {
    /// Operation kind.
    pub op: TapeOp,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Time spent waiting for a drive before service began.
    pub queued_for: SimDuration,
}

/// Stuck-mount fault injection: with probability `rate`, a mount takes
/// `extra` longer (the robot fumbling a cartridge exchange).
struct StuckMounts {
    rate: f64,
    extra: SimDuration,
    rng: SimRng,
    count: u64,
}

struct TapeInner {
    params: TapeParams,
    drives: Resource,
    robot: Resource,
    completed: Vec<TapeCompletion>,
    recall_latency: Tally,
    archive_latency: Tally,
    bytes_archived: u128,
    bytes_recalled: u128,
    stuck: Option<StuckMounts>,
    obs: Option<TapeObs>,
}

/// Registry handles for tape accounting. Latencies are recorded in
/// *virtual* nanoseconds (the library runs on `lsdf-sim` time), and
/// events carry explicit sim timestamps so the shared clock is never
/// flipped into virtual mode behind other subsystems' backs.
#[derive(Clone)]
struct TapeObs {
    registry: Arc<Registry>,
    mounts: Counter,
    stuck_mounts: Counter,
    recall_ops: Counter,
    archive_ops: Counter,
    recall_latency_ns: Histogram,
    archive_latency_ns: Histogram,
}

impl TapeObs {
    fn new(registry: Arc<Registry>) -> Self {
        TapeObs {
            mounts: registry.counter(names::TAPE_MOUNTS_TOTAL, &[]),
            stuck_mounts: registry.counter(names::TAPE_STUCK_MOUNTS_TOTAL, &[]),
            recall_ops: registry.counter(names::TAPE_OPS_TOTAL, &[("op", "recall")]),
            archive_ops: registry.counter(names::TAPE_OPS_TOTAL, &[("op", "archive")]),
            recall_latency_ns: registry
                .histogram(names::TAPE_OP_LATENCY_NS, &[("op", "recall")]),
            archive_latency_ns: registry
                .histogram(names::TAPE_OP_LATENCY_NS, &[("op", "archive")]),
            registry,
        }
    }
}

/// Handle to a simulated tape library (cheaply cloneable).
#[derive(Clone)]
pub struct TapeLibrary {
    inner: Rc<RefCell<TapeInner>>,
}

impl TapeLibrary {
    /// Creates a library with the given hardware parameters.
    pub fn new(params: TapeParams) -> Self {
        assert!(params.drives > 0, "tape library needs at least one drive");
        assert!(params.stream_bps > 0.0, "stream rate must be positive");
        TapeLibrary {
            inner: Rc::new(RefCell::new(TapeInner {
                drives: Resource::new("tape-drives", params.drives),
                robot: Resource::new("tape-robot", 1),
                params,
                completed: Vec::new(),
                recall_latency: Tally::new(),
                archive_latency: Tally::new(),
                bytes_archived: 0,
                bytes_recalled: 0,
                stuck: None,
                obs: None,
            })),
        }
    }

    /// Creates a library that additionally records mounts, op counts,
    /// and sim-time latencies into a shared obs registry.
    pub fn with_registry(params: TapeParams, registry: Arc<Registry>) -> Self {
        let lib = Self::new(params);
        lib.inner.borrow_mut().obs = Some(TapeObs::new(registry));
        lib
    }

    /// Arms stuck-mount injection: each subsequent mount independently
    /// takes `extra` longer with probability `rate` (clamped to
    /// `[0, 1]`), drawn from `rng` — pass a named stream
    /// (e.g. `master.stream("tape-stuck")`) for reproducible chaos runs.
    pub fn inject_stuck_mounts(&self, rate: f64, extra: SimDuration, rng: SimRng) {
        self.inner.borrow_mut().stuck = Some(StuckMounts {
            rate: rate.clamp(0.0, 1.0),
            extra,
            rng,
            count: 0,
        });
    }

    /// Disarms stuck-mount injection.
    pub fn clear_stuck_mounts(&self) {
        self.inner.borrow_mut().stuck = None;
    }

    /// Stuck mounts injected so far (also in `tape_stuck_mounts_total`).
    pub fn stuck_mount_count(&self) -> u64 {
        self.inner.borrow().stuck.as_ref().map_or(0, |s| s.count)
    }

    /// Submits a request; `on_done` runs at completion inside the sim.
    /// The whole request (queue wait included) becomes a `tape_request`
    /// child span of `ctx` and the robot's cartridge exchange a nested
    /// `tape_mount` span, both timestamped in sim time so a recall trace
    /// shows exactly where the minutes went.
    pub fn submit(
        &self,
        ctx: &TraceCtx,
        sim: &mut Simulation,
        op: TapeOp,
        bytes: u64,
        on_done: impl FnOnce(&mut Simulation, TapeCompletion) + 'static,
    ) {
        let submitted = sim.now();
        let req_span = ctx.child_at(names::TAPE_REQUEST_SPAN, submitted.as_nanos());
        req_span.add_field("op", op.name());
        req_span.add_field("bytes", &bytes.to_string());
        let this = self.clone();
        let drives = self.inner.borrow().drives.clone();
        drives.acquire(sim, move |sim| {
            let granted = sim.now();
            let queued_for = granted.since(submitted);
            // Robot mounts the cartridge (serialized across drives).
            let robot = this.inner.borrow().robot.clone();
            let this2 = this.clone();
            robot.acquire(sim, move |sim| {
                // The robot has the cartridge: this is a physical mount.
                if let Some(obs) = this2.inner.borrow().obs.clone() {
                    obs.mounts.inc();
                    obs.registry.event_at(
                        sim.now().as_nanos(),
                        "tape_mount",
                        &[("op", op.name())],
                    );
                }
                let mount_span = req_span.child_at(names::TAPE_MOUNT_SPAN, sim.now().as_nanos());
                mount_span.add_field("op", op.name());
                let mount = {
                    let mut inner = this2.inner.borrow_mut();
                    let base = inner.params.mount;
                    // Stuck-mount fault: the robot fumbles the exchange
                    // and holds the arm for the extra delay.
                    let stuck_extra = inner.stuck.as_mut().and_then(|s| {
                        if s.rng.chance(s.rate) {
                            s.count += 1;
                            Some(s.extra)
                        } else {
                            None
                        }
                    });
                    match stuck_extra {
                        Some(extra) => {
                            if let Some(obs) = &inner.obs {
                                obs.stuck_mounts.inc();
                                obs.registry.event_at(
                                    sim.now().as_nanos(),
                                    "tape_stuck_mount",
                                    &[("op", op.name())],
                                );
                            }
                            mount_span.add_field("stuck", "true");
                            base + extra
                        }
                        None => base,
                    }
                };
                let this3 = this2.clone();
                sim.schedule_in(mount, move |sim| {
                    mount_span.finish_at(sim.now().as_nanos());
                    // Robot freed after the exchange completes (clone the
                    // handle out so no RefCell borrow spans the release).
                    let robot = this3.inner.borrow().robot.clone();
                    robot.release(sim);
                    let (seek, stream_bps, unmount) = {
                        let p = this3.inner.borrow().params;
                        (p.seek, p.stream_bps, p.unmount)
                    };
                    let xfer = SimDuration::from_secs_f64(bytes as f64 / stream_bps);
                    let this4 = this3.clone();
                    sim.schedule_in(seek + xfer + unmount, move |sim| {
                        let finished = sim.now();
                        let completion = TapeCompletion {
                            op,
                            bytes,
                            submitted,
                            finished,
                            queued_for,
                        };
                        // Record stats, then drop the borrow before
                        // releasing the drive: release may synchronously run
                        // the next waiter's continuation, which borrows
                        // `inner` again.
                        let drives = {
                            let mut inner = this4.inner.borrow_mut();
                            let latency = finished.since(submitted).as_secs_f64();
                            match op {
                                TapeOp::Recall => {
                                    inner.recall_latency.record(latency);
                                    inner.bytes_recalled += u128::from(bytes);
                                }
                                TapeOp::Archive => {
                                    inner.archive_latency.record(latency);
                                    inner.bytes_archived += u128::from(bytes);
                                }
                            }
                            if let Some(obs) = &inner.obs {
                                let lat_ns = finished.since(submitted).as_nanos();
                                match op {
                                    TapeOp::Recall => {
                                        obs.recall_ops.inc();
                                        obs.recall_latency_ns.record(lat_ns);
                                    }
                                    TapeOp::Archive => {
                                        obs.archive_ops.inc();
                                        obs.archive_latency_ns.record(lat_ns);
                                    }
                                }
                            }
                            inner.completed.push(completion.clone());
                            inner.drives.clone()
                        };
                        drives.release(sim);
                        req_span.finish_at(finished.as_nanos());
                        on_done(sim, completion);
                    });
                });
            });
        });
    }

    /// Recall-latency statistics (seconds, submission → completion).
    pub fn recall_latency(&self) -> Tally {
        self.inner.borrow().recall_latency.clone()
    }

    /// Archive-latency statistics (seconds).
    pub fn archive_latency(&self) -> Tally {
        self.inner.borrow().archive_latency.clone()
    }

    /// `(bytes archived, bytes recalled)` so far.
    pub fn bytes_moved(&self) -> (u128, u128) {
        let i = self.inner.borrow();
        (i.bytes_archived, i.bytes_recalled)
    }

    /// All completions, in completion order.
    pub fn completions(&self) -> Vec<TapeCompletion> {
        self.inner.borrow().completed.clone()
    }

    /// Minimum possible latency for a request of `bytes` on an idle
    /// library (no queueing): mount + seek + stream + unmount.
    pub fn unloaded_latency(&self, bytes: u64) -> SimDuration {
        let p = self.inner.borrow().params;
        p.mount + p.seek + SimDuration::from_secs_f64(bytes as f64 / p.stream_bps) + p.unmount
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn params() -> TapeParams {
        TapeParams {
            drives: 2,
            mount: SimDuration::from_secs(60),
            seek: SimDuration::from_secs(30),
            stream_bps: 100e6,
            unmount: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn unloaded_recall_matches_component_sum() {
        let lib = TapeLibrary::new(params());
        let mut sim = Simulation::new();
        let done = Rc::new(RefCell::new(None));
        {
            let done = done.clone();
            lib.submit(&TraceCtx::disabled(), &mut sim, TapeOp::Recall, 10_000_000_000, move |_, c| {
                *done.borrow_mut() = Some(c);
            });
        }
        sim.run();
        let c = done.borrow().clone().expect("completes");
        // 60 mount + 30 seek + 100 s stream + 10 unmount = 200 s.
        assert!((c.finished.as_secs_f64() - 200.0).abs() < 1e-9);
        assert_eq!(c.queued_for, SimDuration::ZERO);
        assert_eq!(
            lib.unloaded_latency(10_000_000_000),
            SimDuration::from_secs(200)
        );
    }

    #[test]
    fn third_request_waits_for_a_drive() {
        let lib = TapeLibrary::new(params());
        let mut sim = Simulation::new();
        let finishes: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let finishes = finishes.clone();
            lib.submit(&TraceCtx::disabled(), &mut sim, TapeOp::Recall, 10_000_000_000, move |s, _| {
                finishes.borrow_mut().push(s.now().as_secs_f64());
            });
        }
        sim.run();
        let f = finishes.borrow().clone();
        // Robot serializes the two concurrent mounts: req1 finishes at 200,
        // req2 mounts 60s later -> 260. Req3 gets the drive at t=200 and
        // finishes at 400.
        assert!((f[0] - 200.0).abs() < 1e-9, "{f:?}");
        assert!((f[1] - 260.0).abs() < 1e-9, "{f:?}");
        assert!((f[2] - 400.0).abs() < 1e-9, "{f:?}");
        let lat = lib.recall_latency();
        assert_eq!(lat.count(), 3);
        assert!(lat.max() >= 400.0 - 1e-9);
    }

    #[test]
    fn robot_serializes_simultaneous_mounts() {
        let mut p = params();
        p.drives = 4;
        let lib = TapeLibrary::new(p);
        let mut sim = Simulation::new();
        let finishes: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let finishes = finishes.clone();
            lib.submit(&TraceCtx::disabled(), &mut sim, TapeOp::Archive, 0, move |s, _| {
                finishes.borrow_mut().push(s.now().as_secs_f64());
            });
        }
        sim.run();
        let f = finishes.borrow().clone();
        // All four have drives, but mounts go 60,120,180,240 + 40 s tail.
        assert_eq!(f.len(), 4);
        assert!((f[0] - 100.0).abs() < 1e-9, "{f:?}");
        assert!((f[3] - 280.0).abs() < 1e-9, "{f:?}");
    }

    #[test]
    fn registry_records_mounts_and_sim_time_latency() {
        let reg = Arc::new(Registry::new());
        let lib = TapeLibrary::with_registry(params(), reg.clone());
        let mut sim = Simulation::new();
        lib.submit(&TraceCtx::disabled(), &mut sim, TapeOp::Recall, 10_000_000_000, |_, _| {});
        lib.submit(&TraceCtx::disabled(), &mut sim, TapeOp::Archive, 0, |_, _| {});
        sim.run();
        assert_eq!(reg.counter_value(names::TAPE_MOUNTS_TOTAL, &[]), 2);
        assert_eq!(reg.counter_value(names::TAPE_OPS_TOTAL, &[("op", "recall")]), 1);
        assert_eq!(reg.counter_value(names::TAPE_OPS_TOTAL, &[("op", "archive")]), 1);
        // Latency is recorded in virtual (sim) nanoseconds: the unloaded
        // recall takes exactly 200 simulated seconds.
        let h = reg.histogram(names::TAPE_OP_LATENCY_NS, &[("op", "recall")]);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), SimDuration::from_secs(200).as_nanos());
        let mounts: Vec<_> = reg
            .events()
            .into_iter()
            .filter(|e| e.name == "tape_mount")
            .collect();
        assert_eq!(mounts.len(), 2);
    }

    #[test]
    fn stuck_mounts_delay_completions_deterministically() {
        let run = |inject: bool| -> f64 {
            let lib = TapeLibrary::new(params());
            if inject {
                lib.inject_stuck_mounts(
                    1.0,
                    SimDuration::from_secs(300),
                    lsdf_sim::SimRng::seed_from_u64(11).stream("tape-stuck"),
                );
            }
            let mut sim = Simulation::new();
            let finish = Rc::new(RefCell::new(0.0));
            {
                let finish = finish.clone();
                lib.submit(&TraceCtx::disabled(), &mut sim, TapeOp::Recall, 0, move |s, _| {
                    *finish.borrow_mut() = s.now().as_secs_f64();
                });
            }
            sim.run();
            let out = *finish.borrow();
            if inject {
                assert_eq!(lib.stuck_mount_count(), 1);
            }
            out
        };
        // 60 mount + 30 seek + 10 unmount = 100 s; stuck adds 300.
        assert!((run(false) - 100.0).abs() < 1e-9);
        assert!((run(true) - 400.0).abs() < 1e-9);
        assert!((run(true) - 400.0).abs() < 1e-9, "same seed, same delay");
    }

    #[test]
    fn byte_accounting_by_direction() {
        let lib = TapeLibrary::new(params());
        let mut sim = Simulation::new();
        lib.submit(&TraceCtx::disabled(), &mut sim, TapeOp::Archive, 500, |_, _| {});
        lib.submit(&TraceCtx::disabled(), &mut sim, TapeOp::Recall, 300, |_, _| {});
        sim.run();
        assert_eq!(lib.bytes_moved(), (500, 300));
        assert_eq!(lib.archive_latency().count(), 1);
        assert_eq!(lib.recall_latency().count(), 1);
        assert_eq!(lib.completions().len(), 2);
    }

    #[test]
    fn traced_recall_records_request_and_mount_spans() {
        use lsdf_obs::{TraceConfig, Tracer};
        let reg = Arc::new(Registry::new());
        let tracer = Tracer::new(&reg, TraceConfig::full());
        let lib = TapeLibrary::new(params());
        let mut sim = Simulation::new();
        let root = tracer.root(names::HSM_STAGE_SPAN, "recall-test");
        lib.submit(&root, &mut sim, TapeOp::Recall, 0, |_, _| {});
        sim.run();
        root.finish();
        let traces = tracer.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].root.children.len(), 1);
        let req = &traces[0].root.children[0];
        assert_eq!(req.name, names::TAPE_REQUEST_SPAN);
        // 60 mount + 30 seek + 0 stream + 10 unmount = 100 sim-seconds.
        assert_eq!(req.duration_ns(), SimDuration::from_secs(100).as_nanos());
        assert_eq!(req.children.len(), 1);
        let mount = &req.children[0];
        assert_eq!(mount.name, names::TAPE_MOUNT_SPAN);
        assert_eq!(mount.duration_ns(), SimDuration::from_secs(60).as_nanos());
        assert_eq!(mount.start_ns, req.start_ns, "mount starts when the drive is granted");
    }

    #[test]
    #[should_panic(expected = "at least one drive")]
    fn zero_drives_rejected() {
        let mut p = params();
        p.drives = 0;
        let _ = TapeLibrary::new(p);
    }
}
