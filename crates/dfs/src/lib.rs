//! # lsdf-dfs — an HDFS-architecture distributed filesystem
//!
//! The paper's compute substrate is a 60-node Hadoop cluster with a 110 TB
//! HDFS (slides 7/11). This crate reimplements the HDFS architecture
//! in-process: a namenode (namespace + block map), datanodes holding real
//! block bytes, fixed-size blocks with configurable replication, HDFS's
//! rack-aware placement rule (writer / off-rack / near-second), closest-
//! replica reads with locality accounting, failure detection and
//! re-replication.
//!
//! Nodes are data structures, not OS processes — the standard miniature
//! for protocol-accurate DFS testing (cf. Hadoop's own `MiniDFSCluster`).
//! The lsdf-mapreduce crate schedules tasks against the same topology so
//! data-locality behaviour (experiments E4/E12) is faithful.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cluster;
mod datanode;
mod namenode;
pub mod shard;
mod wal;

pub use cluster::{ClusterTopology, DfsNodeId, Locality, RackId};
pub use datanode::{BlockExtent, BlockId, DataNode, DataNodeError};
pub use namenode::{
    Dfs, DfsConfig, DfsError, FileMeta, LocatedBlock, PlacementPolicy, StagedFile,
};
