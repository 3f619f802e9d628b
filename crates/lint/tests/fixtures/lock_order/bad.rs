//! L5 fixture (bad): one unranked construction, one undeclared rank,
//! and one raw parking_lot lock. How the locks nest is the runtime
//! witness's to judge, not L5's.

use lsdf_sync::{ranks, OrderedMutex};

pub struct Tangle {
    outer: OrderedMutex<u32>,
    loose: parking_lot::Mutex<u32>,
}

impl Tangle {
    pub fn new() -> Self {
        Self {
            outer: OrderedMutex::new(ranks::OUTER, 0),
            loose: parking_lot::Mutex::new(0),
        }
    }
}

/// No rank argument at all.
pub fn unranked(rank_ref: &lsdf_sync::LockRank) -> OrderedMutex<u32> {
    OrderedMutex::new(*rank_ref, 0)
}

/// A rank the manifest never declared.
pub fn undeclared() -> OrderedMutex<u32> {
    OrderedMutex::new(ranks::GHOST, 0)
}
