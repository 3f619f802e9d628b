//! # lsdf-storage — storage substrates of the LSDF facility
//!
//! Implements the storage layer the paper describes on slide 7:
//!
//! * [`ObjectStore`] — a thread-safe, capacity-bounded, **write-once** object
//!   store holding real bytes with SHA-256 ingest checksums (the stand-in for
//!   the GPFS-backed IBM/DDN disk systems).
//! * [`DiskModel`] / [`ArrayModel`] — performance models of the spindle
//!   arrays, used by facility-scale extrapolations.
//! * [`TapeLibrary`] — a discrete-event tape library (robot, drives, mounts)
//!   for archive/backup and the recall-latency experiment (E13).
//! * [`Hsm`] — hierarchical storage management tying the two tiers together
//!   with watermark-driven migration policies.
//! * [`checksum`] — SHA-256 (FIPS 180-4, implemented from scratch: an
//!   x86-64 SHA-NI kernel where the CPU has it, portable scalar rounds
//!   everywhere else) and FNV-1a.
//! * [`Payload`] — the shared, immutable byte buffer with a memoized
//!   SHA-256 digest that the whole write path hands around instead of
//!   copying (see the zero-copy rules in its docs).

#![warn(missing_docs)]
// The SHA-NI kernel module in `checksum` carries the one `allow`.
#![deny(unsafe_code)]

pub mod checksum;
mod disk;
mod hsm;
mod object;
mod payload;
mod tape;

pub use checksum::{fnv1a64, sha256, sha256_kernel, Digest, Sha256};
pub use payload::{payload_deep_copies, payload_digests_computed, Payload};
pub use disk::{ArrayModel, DiskModel};
pub use hsm::{CatalogEntry, Hsm, HsmError, MigrationPolicy, MigrationReport, Tier};
pub use object::{ObjectId, ObjectMeta, ObjectStore, StoreError};
pub use tape::{TapeCompletion, TapeLibrary, TapeOp, TapeParams};
