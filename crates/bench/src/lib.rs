//! # lsdf-bench — the experiment harness
//!
//! One function per experiment in DESIGN.md's index (E1–E14), each
//! returning a paper-vs-measured table. The `report` binary runs them all
//! (`cargo run --release -p lsdf-bench --bin report`); timing is the
//! `benchmark` binary's job (BENCHMARK.json).

#![warn(missing_docs)]

mod exp_compute;
mod exp_data;
mod exp_net;
mod exp_storage;
pub mod report;

pub use exp_compute::{e4_scaling, e5_visualization, e6_dna};
pub use exp_data::{e11_workflow, e14_findability, e1_ingest, e7_metadata, e8_unified};
pub use exp_net::{e12_crossover, e2_facility, e3_pb_transfer};
pub use exp_storage::{e10_cloud, e13_hsm, e9_adal};
pub use report::{fmt_bytes, fmt_secs, ExpReport, ExpRow};

/// Runs every experiment in id order. `quick` shrinks workloads to smoke
/// scale (used by tests); the report binary runs full scale.
pub fn run_all(quick: bool) -> Vec<ExpReport> {
    vec![
        e1_ingest(quick),
        e2_facility(quick),
        e3_pb_transfer(quick),
        e4_scaling(quick),
        e5_visualization(quick),
        e6_dna(quick),
        e7_metadata(quick),
        e8_unified(quick),
        e9_adal(quick),
        e10_cloud(quick),
        e11_workflow(quick),
        e12_crossover(quick),
        e13_hsm(quick),
        e14_findability(quick),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_run_quick() {
        let reports = run_all(true);
        assert_eq!(reports.len(), 14);
        for r in &reports {
            assert!(!r.rows.is_empty(), "{} must produce rows", r.id);
            assert!(!r.render().is_empty());
        }
    }
}
