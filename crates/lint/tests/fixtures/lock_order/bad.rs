//! L5 fixture (bad): one rank inversion, one same-rank nesting (which
//! is also a self-loop cycle), one unranked construction, one
//! undeclared rank, and one raw parking_lot lock.

use lsdf_sync::{ranks, OrderedMutex};

pub struct Tangle {
    outer: OrderedMutex<u32>,
    inner: OrderedMutex<u32>,
    loose: parking_lot::Mutex<u32>,
}

impl Tangle {
    pub fn new() -> Self {
        Self {
            outer: OrderedMutex::new(ranks::OUTER, 0),
            inner: OrderedMutex::new(ranks::INNER, 0),
            loose: parking_lot::Mutex::new(0),
        }
    }

    /// Acquires inner(20) then outer(10): inversion.
    pub fn inverted(&self) -> u32 {
        let i = self.inner.lock();
        let o = self.outer.lock();
        *i + *o
    }

    /// Same-rank nesting: not strictly increasing, and a self-cycle.
    pub fn same_rank(&self, other: &Tangle) -> u32 {
        let a = self.inner.lock();
        let b = other.inner.lock();
        *a + *b
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
