//! # lsdf-adal — the Abstract Data Access Layer
//!
//! "Hardware and software choices limit the access protocols and APIs ⇒
//! need a unified access layer. Abstract Data Access Layer, low-level
//! interface to LSDF ⇒ extensible to support new backends, authentication
//! mechanisms" (paper, slide 9).
//!
//! * [`LsdfPath`] — the unified `lsdf://project/key` namespace;
//! * [`StorageBackend`] — the backend trait, with adapters for the object
//!   store, the DFS, and the HSM;
//! * [`TokenAuth`] / [`Acl`] — pluggable authentication and per-project
//!   authorization;
//! * [`Adal`] — the mount registry tying it together: one operation
//!   body whatever the backend, with operation counters used by the
//!   overhead experiment (E9);
//! * [`RetryPolicy`] / [`CircuitBreaker`] / [`RedoJournal`] — the
//!   parts of the resilience backend [`Adal::mount_resilient`] wraps a
//!   primary in: bounded retries for transient faults, a breaker,
//!   replica failover reads and journaled degraded writes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod auth;
mod backend;
mod layer;
mod path;
mod resilience;

pub use auth::{Access, Acl, AuthError, AuthProvider, Credential, Principal, TokenAuth};
pub use backend::{
    BackendError, DfsBackend, EntryMeta, HsmBackend, ObjectStoreBackend, StagedPut,
    StorageBackend,
};
pub use layer::{Adal, AdalBuilder, AdalError, OpKind, PendingPut, RequestClass};
pub use path::{LsdfPath, PathError};
pub use resilience::{
    BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker, HealthReport,
    RedoJournal, ResilienceConfig, RetryPolicy,
};
