//! One-import surface for facility users.
//!
//! `use lsdf_core::prelude::*;` brings in the types a typical experiment
//! script touches: the facility facade, the ADAL and its credentials, the
//! metadata vocabulary, storage policies, workflow building blocks and the
//! metrics registry — without hunting through eight crates' namespaces.

pub use crate::{
    BackendChoice, ComponentRecovery, DataBrowser, Facility, FacilityBuilder, FacilityError,
    IngestItem, IngestPolicy, IngestReport, ProjectSession, ProjectSpec, RecoveryReport,
};

pub use lsdf_chaos::{CrashPoint, FaultPlan};

pub use lsdf_durability::{DurabilityConfig, DurableStore};

pub use lsdf_adal::{
    Acl, Adal, AdalBuilder, AdalError, BackendError, BreakerConfig, BreakerState,
    Credential, EntryMeta, HealthReport, OpKind, ProjectHandle, RequestClass, ResilienceConfig,
    RetryPolicy, StorageBackend, TokenAuth,
};

pub use lsdf_admission::{
    Account, AdmissionController, AdmissionError, Lane, ProjectUsage, QuotaSpec, Ticket,
};

pub use lsdf_dfs::{ClusterTopology, Dfs, DfsConfig, DfsError, PlacementPolicy};

pub use lsdf_metadata::{
    DatasetId, DatasetRecord, Document, FieldType, MetadataError, NewDataset, ProjectStore,
    Schema, SchemaBuilder, Value,
};

pub use lsdf_obs::names;
pub use lsdf_obs::{
    Clock, Counter, Gauge, Histogram, Registry, Span, SpanProfile, TelemetryConfig, TelemetryStore,
};

pub use lsdf_storage::{Hsm, HsmError, MigrationPolicy, ObjectStore, StoreError};

pub use lsdf_workflow::{
    Actor, Director, Token, TriggerEngine, TriggerRule, Workflow, WorkflowError,
};
