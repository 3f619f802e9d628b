//! Namenode WAL records and the canonical namespace snapshot codec.
//!
//! Every namespace mutation the namenode acks is first committed to its
//! [`lsdf_durability::DurableLog`] as one of the records below; a
//! checkpoint serializes the full namespace (file table, block map,
//! allocator watermark) with the canonical [`lsdf_durability::codec`]
//! so that replaying WAL over the latest checkpoint reconstructs a
//! bit-identical namespace. Replay is idempotent: records whose effect
//! is already present (because the checkpoint raced ahead of the
//! segment rotation, or a record survives in both an old and new
//! segment) are skipped, which is what makes a crash at any point of
//! the checkpoint sequence safe.
//!
//! Allocator durability: each `FileCommit` carries the writer's
//! high-water block id + 1, and rolled-back writes emit an explicit
//! `Alloc` record for the ids they consumed, so the recovered
//! `next_block` watermark always matches the pre-crash allocator even
//! though failed writes leave no file behind.

use std::sync::Arc;

use crate::cluster::DfsNodeId;
use crate::datanode::BlockId;
use lsdf_durability::{Dec, Enc};

/// One block's durable placement: id, payload size, replica nodes.
pub(crate) type BlockEntry = (BlockId, u64, Vec<DfsNodeId>);

/// A logged namespace mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DfsWalRecord {
    /// A completed file write: path, byte size, allocator watermark
    /// (max allocated id + 1), and every block with its replica set.
    FileCommit {
        path: String,
        size: u64,
        watermark: u64,
        blocks: Vec<BlockEntry>,
    },
    /// A file deletion. Carries the block ids so replay can drop the
    /// block-map entries even when the checkpoint captured the blocks
    /// but not the file entry (snapshot raced a concurrent delete).
    Delete { path: String, blocks: Arc<[BlockId]> },
    /// A block's replica set changed (re-replication, rebalancing).
    ReplicaSet {
        block: BlockId,
        replicas: Vec<DfsNodeId>,
    },
    /// Ids consumed by a rolled-back write: bumps the allocator
    /// watermark without creating namespace state.
    Alloc { watermark: u64 },
}

const TAG_FILE_COMMIT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_REPLICA_SET: u8 = 3;
const TAG_ALLOC: u8 = 4;

fn enc_replicas(e: &mut Enc, replicas: &[DfsNodeId]) {
    e.u32(replicas.len() as u32);
    for r in replicas {
        e.u32(r.0);
    }
}

fn enc_ids(e: &mut Enc, ids: &[BlockId]) {
    e.u32(ids.len() as u32);
    for id in ids {
        e.u64(id.0);
    }
}

/// The ids are taken as one slice first, so a bad count fails before
/// anything is allocated and the list is built in one allocation.
fn dec_ids(d: &mut Dec<'_>) -> Option<Arc<[BlockId]>> {
    let n = d.u32()? as usize;
    let mut ids = Dec::new(d.take(n.checked_mul(8)?)?);
    // In bounds: `ids` holds exactly `n` words.
    Some((0..n).map(|_| BlockId(ids.u64().unwrap_or_default())).collect())
}

fn dec_replicas(d: &mut Dec<'_>) -> Option<Vec<DfsNodeId>> {
    let n = d.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(DfsNodeId(d.u32()?));
    }
    Some(out)
}

impl DfsWalRecord {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            DfsWalRecord::FileCommit { path, size, watermark, blocks } => {
                e.u8(TAG_FILE_COMMIT);
                e.str(path);
                e.u64(*size);
                e.u64(*watermark);
                e.u32(blocks.len() as u32);
                for (id, bsize, replicas) in blocks {
                    e.u64(id.0);
                    e.u64(*bsize);
                    enc_replicas(&mut e, replicas);
                }
            }
            DfsWalRecord::Delete { path, blocks } => {
                e.u8(TAG_DELETE);
                e.str(path);
                enc_ids(&mut e, blocks);
            }
            DfsWalRecord::ReplicaSet { block, replicas } => {
                e.u8(TAG_REPLICA_SET);
                e.u64(block.0);
                enc_replicas(&mut e, replicas);
            }
            DfsWalRecord::Alloc { watermark } => {
                e.u8(TAG_ALLOC);
                e.u64(*watermark);
            }
        }
        e.finish()
    }

    /// Decodes a record; `None` on any malformed payload (recovery
    /// treats that as a skipped record, never a panic).
    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let rec = match d.u8()? {
            TAG_FILE_COMMIT => {
                let path = d.str()?;
                let size = d.u64()?;
                let watermark = d.u64()?;
                let n = d.u32()? as usize;
                let mut blocks = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let id = BlockId(d.u64()?);
                    let bsize = d.u64()?;
                    let replicas = dec_replicas(&mut d)?;
                    blocks.push((id, bsize, replicas));
                }
                DfsWalRecord::FileCommit { path, size, watermark, blocks }
            }
            TAG_DELETE => DfsWalRecord::Delete { path: d.str()?, blocks: dec_ids(&mut d)? },
            TAG_REPLICA_SET => DfsWalRecord::ReplicaSet {
                block: BlockId(d.u64()?),
                replicas: dec_replicas(&mut d)?,
            },
            TAG_ALLOC => DfsWalRecord::Alloc { watermark: d.u64()? },
            _ => return None,
        };
        d.at_end().then_some(rec)
    }
}

/// Canonical full-namespace snapshot (checkpoint payload and the
/// namespace-digest witness).
///
/// Layout: allocator watermark, then the file table in path order, then
/// every *referenced* block in file-table order. Walking blocks through
/// the file table (instead of scanning the sharded map) keeps the bytes
/// canonical even while concurrent writers hold half-inserted blocks:
/// a block only becomes referenced once its file entry commits. Same
/// logical namespace ⇒ same bytes ⇒ same SHA-256.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct DfsSnapshot {
    pub next_block: u64,
    /// `(path, file size, block ids)` in path order.
    pub files: Vec<(String, u64, Arc<[BlockId]>)>,
    /// `(block, payload size, replicas)` for every referenced block,
    /// in file-table order.
    pub blocks: Vec<BlockEntry>,
}

impl DfsSnapshot {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.next_block);
        e.u64(self.files.len() as u64);
        for (path, size, blocks) in &self.files {
            e.str(path);
            e.u64(*size);
            enc_ids(&mut e, blocks);
        }
        e.u64(self.blocks.len() as u64);
        for (id, size, replicas) in &self.blocks {
            e.u64(id.0);
            e.u64(*size);
            enc_replicas(&mut e, replicas);
        }
        e.finish()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let next_block = d.u64()?;
        let n_files = d.u64()? as usize;
        let mut files = Vec::with_capacity(n_files.min(65_536));
        for _ in 0..n_files {
            let path = d.str()?;
            let size = d.u64()?;
            files.push((path, size, dec_ids(&mut d)?));
        }
        let n_blocks = d.u64()? as usize;
        let mut blocks = Vec::with_capacity(n_blocks.min(65_536));
        for _ in 0..n_blocks {
            let id = BlockId(d.u64()?);
            let size = d.u64()?;
            let replicas = dec_replicas(&mut d)?;
            blocks.push((id, size, replicas));
        }
        d.at_end().then_some(DfsSnapshot { next_block, files, blocks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let records = vec![
            DfsWalRecord::FileCommit {
                path: "/exp/f1".into(),
                size: 1234,
                watermark: 14,
                blocks: vec![
                    (BlockId(12), 100, vec![DfsNodeId(0), DfsNodeId(5)]),
                    (BlockId(13), 34, vec![DfsNodeId(2)]),
                ],
            },
            DfsWalRecord::Delete {
                path: "/exp/f1".into(),
                blocks: [BlockId(12), BlockId(13)].into(),
            },
            DfsWalRecord::ReplicaSet {
                block: BlockId(12),
                replicas: vec![DfsNodeId(1), DfsNodeId(3)],
            },
            DfsWalRecord::Alloc { watermark: 99 },
        ];
        for r in records {
            assert_eq!(DfsWalRecord::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn snapshot_roundtrip_and_canonical_bytes() {
        let snap = DfsSnapshot {
            next_block: 7,
            files: vec![
                ("/a".into(), 10, [BlockId(0)].into()),
                ("/b".into(), 20, [BlockId(1), BlockId(2)].into()),
            ],
            blocks: vec![
                (BlockId(0), 10, vec![DfsNodeId(0)]),
                (BlockId(1), 10, vec![DfsNodeId(1), DfsNodeId(2)]),
                (BlockId(2), 10, vec![DfsNodeId(0)]),
            ],
        };
        let bytes = snap.encode();
        assert_eq!(DfsSnapshot::decode(&bytes), Some(snap));
        // Canonical: encoding the decoded snapshot reproduces the bytes.
        let decoded = DfsSnapshot::decode(&bytes).map(|s| s.encode());
        assert_eq!(decoded.as_deref(), Some(&bytes[..]));
    }

    #[test]
    fn malformed_records_are_rejected_not_panicked() {
        assert_eq!(DfsWalRecord::decode(&[]), None);
        assert_eq!(DfsWalRecord::decode(&[99, 1, 2, 3]), None);
        let mut good = DfsWalRecord::Alloc { watermark: 1 }.encode();
        good.push(0); // trailing garbage
        assert_eq!(DfsWalRecord::decode(&good), None);
        for cut in 0..good.len() - 1 {
            let _ = DfsWalRecord::decode(&good[..cut]);
        }
    }
}
