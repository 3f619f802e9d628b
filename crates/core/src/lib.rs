//! # lsdf-core — the Large Scale Data Facility, assembled
//!
//! The façade tying every substrate together the way the paper's
//! architecture slide (slide 10) does:
//!
//! * [`Facility`] / [`FacilityBuilder`] — wires per-project storage
//!   backends (object store, HSM, DFS) behind the [ADAL](lsdf_adal),
//!   creates the per-project metadata stores, and manages users/ACLs;
//! * [`ProjectSpec`] / [`ProjectSession`] — the multi-tenant front
//!   door: tenants register with quotas and a QoS lane, then operate
//!   through a session handle that passes admission before the ADAL;
//! * [`IngestItem`] / [`Facility::ingest`] — the checksum → store →
//!   register pipeline, with metadata-at-ingest enforcement (the
//!   "invisible data is lost data" control, experiment E14);
//! * [`DataBrowser`] — browse, query, fetch, tag (tag-triggered
//!   workflows are the slide-12 loop);
//! * [`planner`] — capacity projections ("1+ PB/yr in 2012, 6 PB/yr in
//!   2014") and the move-data vs move-compute decision (slide 11);
//! * [`PolicyEngine`] — iRODS-style auto-tag rules on ingest (the
//!   slide-14 outlook item), chaining into trigger-driven workflows.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod browser;
pub mod campaign;
mod error;
mod facility;
mod ingest;
pub mod planner;
mod policy;
pub mod prelude;
mod session;

pub use browser::{DataBrowser, FindabilityReport};
pub use error::FacilityError;
pub use facility::{
    BackendChoice, ComponentRecovery, Facility, FacilityBuilder, ProjectSpec, RecoveryReport,
};
pub use ingest::{IngestItem, IngestPolicy, IngestReport};
pub use session::ProjectSession;
pub use campaign::{
    run_campaign, CampaignCommunity, CampaignConfig, CampaignResult, FillSample, StorageTarget,
};
pub use policy::{AutoTagRule, PolicyEngine};
