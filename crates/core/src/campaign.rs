//! Facility-scale ingest campaigns in virtual time: months of operation
//! of the slide-7 infrastructure, simulated in seconds.
//!
//! Each community's DAQ emits data batches at its daily rate; batches
//! become flows on the facility's 10 GE fabric (max–min fair with
//! everything else in the air) into the storage heads. The result is the
//! storage fill curve, per-community delivery accounting, and the date
//! the installed capacity runs out — the operational question behind the
//! paper's "6 PB in 2012" expansion plan (slide 14).

use std::cell::RefCell;
use std::rc::Rc;

use lsdf_net::lsdf::{build as build_facility_net, capacity};
use lsdf_net::{NetSim, TopologyError};

use lsdf_sim::{SimDuration, SimTime, Simulation};

/// Which storage system a community writes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageTarget {
    /// The 1.4 PB IBM system.
    Ibm,
    /// The 0.5 PB DDN system.
    Ddn,
}

/// One data-producing community in the campaign.
#[derive(Debug, Clone)]
pub struct CampaignCommunity {
    /// Community name.
    pub name: String,
    /// Production rate, bytes per simulated day.
    pub daily_bytes: u64,
    /// Batches per day (one flow per batch).
    pub batches_per_day: u32,
    /// Which storage system it targets.
    pub target: StorageTarget,
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Days to simulate.
    pub days: u32,
    /// The communities.
    pub communities: Vec<CampaignCommunity>,
    /// Network protocol efficiency in `(0, 1]`.
    pub efficiency: f64,
}

impl CampaignConfig {
    /// The paper's 2011 steady state: zebrafish at 2 TB/day into IBM,
    /// the smaller communities into DDN.
    pub fn lsdf_2011(days: u32) -> Self {
        CampaignConfig {
            days,
            communities: vec![
                CampaignCommunity {
                    name: "zebrafish-htm".into(),
                    daily_bytes: 2_000_000_000_000,
                    batches_per_day: 24,
                    target: StorageTarget::Ibm,
                },
                CampaignCommunity {
                    name: "katrin".into(),
                    daily_bytes: 100_000_000_000,
                    batches_per_day: 12,
                    target: StorageTarget::Ddn,
                },
                CampaignCommunity {
                    name: "anka".into(),
                    daily_bytes: 300_000_000_000,
                    batches_per_day: 8,
                    target: StorageTarget::Ddn,
                },
            ],
            efficiency: 0.7,
        }
    }
}

/// One sample of the fill curve (taken at each simulated midnight).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillSample {
    /// Day index (1-based: sampled at the end of this day).
    pub day: u32,
    /// Bytes accumulated on the IBM system.
    pub ibm_bytes: u128,
    /// Bytes accumulated on the DDN system.
    pub ddn_bytes: u128,
}

/// Campaign outcome.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Bytes delivered into storage, total.
    pub delivered_bytes: u128,
    /// Bytes the communities produced (delivered + still in flight).
    pub produced_bytes: u128,
    /// Flows still in the air when the horizon hit (ingest backlog).
    pub in_flight_flows: usize,
    /// End-of-day fill samples.
    pub fill_curve: Vec<FillSample>,
    /// First day the combined fill exceeded the installed 1.9 PB, if any.
    pub capacity_exhausted_on_day: Option<u32>,
}

/// Runs the campaign. Virtual time only — a year simulates in well under
/// a second of wall clock.
///
/// # Panics
/// Panics if `days == 0`, a community has zero batches, or the config
/// routes more communities than the facility has DAQ ports (one each).
///
/// # Errors
/// Propagates facility-network construction failures.
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignResult, TopologyError> {
    assert!(config.days > 0, "campaign needs at least one day");
    assert!(
        config.communities.iter().all(|c| c.batches_per_day > 0),
        "each community needs at least one batch per day"
    );
    let net = build_facility_net(config.communities.len())?;
    let sim_net = NetSim::with_efficiency(net.topology.clone(), config.efficiency);
    let mut sim = Simulation::new();

    let ibm = Rc::new(RefCell::new(0u128));
    let ddn = Rc::new(RefCell::new(0u128));
    let produced = Rc::new(RefCell::new(0u128));
    let day_ns: u64 = 86_400_000_000_000;

    // Schedule every batch of every community up front (they are light).
    for (ci, community) in config.communities.iter().enumerate() {
        // Split the daily volume exactly: early batches carry the
        // remainder byte so per-day sums match daily_bytes.
        let base = community.daily_bytes / u64::from(community.batches_per_day);
        let rem = community.daily_bytes % u64::from(community.batches_per_day);
        let interval = SimDuration::from_nanos(day_ns / u64::from(community.batches_per_day));
        let daq = net.daq[ci];
        let dst = match community.target {
            StorageTarget::Ibm => net.storage_ibm,
            StorageTarget::Ddn => net.storage_ddn,
        };
        let sink = match community.target {
            StorageTarget::Ibm => ibm.clone(),
            StorageTarget::Ddn => ddn.clone(),
        };
        for day in 0..config.days {
            for b in 0..community.batches_per_day {
                let batch_bytes = base + u64::from(u64::from(b) < rem);
                let at = SimTime::ZERO
                    + SimDuration::from_nanos(u64::from(day) * day_ns)
                    + interval * u64::from(b);
                let sim_net = sim_net.clone();
                let sink = sink.clone();
                let produced = produced.clone();
                sim.schedule_at(at, move |s| {
                    *produced.borrow_mut() += u128::from(batch_bytes);
                    let sink = sink.clone();
                    sim_net
                        .start_flow(s, daq, dst, batch_bytes, move |_, summary| {
                            *sink.borrow_mut() += u128::from(summary.bytes);
                        })
                        // lint: allow(no_panic) -- sim callback; every DAQ is dual-homed so routes exist
                        .expect("facility routes exist");
                });
            }
        }
    }

    // Sample the fill at each midnight.
    let fill: Rc<RefCell<Vec<FillSample>>> = Rc::new(RefCell::new(Vec::new()));
    for day in 1..=config.days {
        let at = SimTime::ZERO + SimDuration::from_nanos(u64::from(day) * day_ns);
        let ibm = ibm.clone();
        let ddn = ddn.clone();
        let fill = fill.clone();
        sim.schedule_at(at, move |_| {
            fill.borrow_mut().push(FillSample {
                day,
                ibm_bytes: *ibm.borrow(),
                ddn_bytes: *ddn.borrow(),
            });
        });
    }

    // Run to the horizon plus a drain allowance for in-flight batches.
    let horizon = SimTime::ZERO + SimDuration::from_nanos(u64::from(config.days) * day_ns);
    sim.run_until(horizon);
    let in_flight = sim_net.active_flows();
    // Let the tail drain for accounting, but keep the fill curve as-of
    // the horizon.
    sim.run();

    let fill_curve = fill.borrow().clone();
    let installed = u128::from(capacity::TOTAL_DISK_BYTES);
    let capacity_exhausted_on_day = fill_curve
        .iter()
        .find(|s| s.ibm_bytes + s.ddn_bytes > installed)
        .map(|s| s.day);
    let delivered_bytes = *ibm.borrow() + *ddn.borrow();
    let produced_bytes = *produced.borrow();
    Ok(CampaignResult {
        delivered_bytes,
        produced_bytes,
        in_flight_flows: in_flight,
        fill_curve,
        capacity_exhausted_on_day,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_days_deliver_everything() {
        let config = CampaignConfig::lsdf_2011(30);
        let r = run_campaign(&config).expect("campaign runs");
        let expect: u128 = config
            .communities
            .iter()
            .map(|c| u128::from(c.daily_bytes) * 30)
            .sum();
        assert_eq!(r.produced_bytes, expect);
        assert_eq!(r.delivered_bytes, expect, "10 GE keeps up with 2.4 TB/day");
        assert_eq!(r.fill_curve.len(), 30);
        assert!(r.capacity_exhausted_on_day.is_none());
    }

    #[test]
    fn fill_curve_is_monotone_and_split_by_target() {
        let r = run_campaign(&CampaignConfig::lsdf_2011(10)).expect("campaign runs");
        for w in r.fill_curve.windows(2) {
            assert!(w[1].ibm_bytes >= w[0].ibm_bytes);
            assert!(w[1].ddn_bytes >= w[0].ddn_bytes);
        }
        let last = r.fill_curve.last().unwrap();
        // Zebrafish (2 TB/day) goes to IBM; katrin+anka (0.4 TB/day) to DDN.
        assert_eq!(last.ibm_bytes, 2_000_000_000_000u128 * 10);
        assert_eq!(last.ddn_bytes, 400_000_000_000u128 * 10);
    }

    #[test]
    fn capacity_exhaustion_day_matches_arithmetic() {
        // Crank zebrafish to 60 TB/day — below the DAQ uplink's
        // 75.6 TB/day (10 Gb/s x 0.7), so delivery tracks production and
        // the fill is pure arithmetic: 1.9 PB / 60.4 TB/day ~ day 32.
        let mut config = CampaignConfig::lsdf_2011(40);
        config.communities[0].daily_bytes = 60_000_000_000_000;
        let r = run_campaign(&config).expect("campaign runs");
        let day = r.capacity_exhausted_on_day.expect("must exhaust");
        assert!(
            (31..=33).contains(&day),
            "exhaustion on day {day}, expected ~32"
        );
    }

    #[test]
    fn overload_completions_lag_link_capacity() {
        // Above uplink capacity, processor-sharing keeps many flows
        // partially complete: delivered-to-storage per day is *below*
        // even the link's capacity, and the backlog grows — the queueing
        // insight behind giving heavy experiments dedicated links.
        let mut config = CampaignConfig::lsdf_2011(10);
        config.communities[0].daily_bytes = 100_000_000_000_000;
        let r = run_campaign(&config).expect("campaign runs");
        let last = r.fill_curve.last().unwrap();
        let per_day = last.ibm_bytes as f64 / 10.0;
        assert!(per_day < 75.6e12, "delivery {per_day} must be under link rate");
        assert!(per_day > 40e12, "but the link is far from idle");
        assert!(r.in_flight_flows > 50, "backlog grows without backpressure");
    }

    #[test]
    fn overload_creates_backlog() {
        // A DAQ cannot push more than its 10 GE uplink: 10 Gb/s * 0.7 eff
        // ≈ 75.6 TB/day. Ask for 200 TB/day and the backlog shows up as
        // in-flight flows at the horizon.
        let mut config = CampaignConfig::lsdf_2011(5);
        config.communities[0].daily_bytes = 200_000_000_000_000;
        let r = run_campaign(&config).expect("campaign runs");
        assert!(
            r.in_flight_flows > 0,
            "an oversubscribed uplink must leave flows in the air"
        );
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn zero_days_rejected() {
        let _ = run_campaign(&CampaignConfig::lsdf_2011(0));
    }
}
