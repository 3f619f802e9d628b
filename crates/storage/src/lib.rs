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
//!   everywhere else, and an AVX-512 kernel hashing sixteen messages of
//!   one block layout in lockstep for [`sha256_many`]) and FNV-1a.
//! * [`Payload`] — the shared, immutable byte buffer with a memoized
//!   SHA-256 digest that the whole write path hands around instead of
//!   copying (see the zero-copy rules in its docs);
//!   [`Payload::digest_all`] fills a batch's digest cells in one pass.

#![warn(missing_docs)]
// The two x86-64 kernel modules in `checksum` (SHA-NI and the 16-lane
// AVX-512 one) carry the only `allow`s.
#![deny(unsafe_code)]

pub mod checksum;
mod disk;
mod hsm;
mod object;
mod payload;
mod tape;

pub use checksum::{
    fnv1a64, sha256, sha256_kernel, sha256_many, sha256_many_kernel, Digest, Sha256,
};
pub use payload::{payload_deep_copies, payload_digests_computed, Payload};
pub use disk::{ArrayModel, DiskModel};
pub use hsm::{CatalogEntry, Hsm, HsmError, MigrationPolicy, MigrationReport, Tier};
pub use object::{ObjectId, ObjectMeta, ObjectStore, StoreError};
pub use tape::{TapeCompletion, TapeLibrary, TapeOp, TapeParams};
