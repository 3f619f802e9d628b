//! # lsdf-metadata — the project metadata repository
//!
//! Implements the paper's slide-8 data model: experiment data is
//! **write-once, read-many**; each dataset carries WORM *basic metadata*
//! validated against a **project-dependent schema**, plus any number of
//! appended *processing-result* metadata sets (METADATA 1..N). Tagging
//! datasets emits events that the workflow engine (lsdf-workflow)
//! subscribes to — the slide-12 automation loop.
//!
//! The crate also provides the substrate for two of the paper's claims:
//!
//! * slide 3, "a single big DB with scientific data is more valuable than
//!   many small ones" — [`UnifiedCatalog`] vs [`Federation`] (experiment E8);
//! * slide 3, "invisible (not-found, no-metadata) data is lost data" —
//!   findability measured through [`ProjectStore::query`] (experiment E14).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod events;
pub mod export;
mod federation;
mod index;
pub mod query;
mod record;
mod schema;
mod store;
mod value;
mod wal;

pub use events::{MetadataEvent, Subscriber};
pub use federation::{dataset, CrossQuery, CrossQueryResult, Federation, UnifiedCatalog};
pub use index::{FieldIndex, TagIndex};
pub use query::{BoundPredicate, Predicate};
pub use record::{Checksum, DatasetId, DatasetRecord, ProcessingResult};
pub use schema::{zebrafish_schema, Document, FieldDef, Fields, Schema, SchemaBuilder, SchemaError};
pub use store::{MetadataError, NewDataset, ProjectStore};
pub use value::{FieldType, OrderKey, Value};
