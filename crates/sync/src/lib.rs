//! `lsdf-sync` — rank-ordered lock wrappers and the facility lock-rank
//! manifest.
//!
//! The facility is one shared concurrent system: the namenode
//! namespace, per-project metadata stores, the WAL, the metrics
//! registry. Every one of those holds locks, and several hold one lock
//! while acquiring another (namespace → WAL → device, admission table →
//! project state). Deadlock freedom therefore rests on a single global
//! invariant: **locks are acquired in strictly increasing rank order**,
//! where every lock's rank is declared once in [`ranks`] — the same
//! registry discipline `lsdf_obs::names` applies to metric names.
//!
//! Two layers enforce it:
//!
//! * statically, `lsdf-lint`'s L5 `lock_order` rule parses the manifest
//!   and the workspace source, reconstructs the acquisition graph, and
//!   fails CI on any edge the declared partial order forbids — and on
//!   any raw `Mutex`/`RwLock`/`Condvar` constructed outside this crate,
//!   so a lock the witness cannot see does not get written;
//! * dynamically, [`OrderedMutex`] / [`OrderedRwLock`] — under the
//!   `lock-order` cargo feature, enabled by tests and soaks — keep a
//!   thread-local stack of held ranks and panic with a deterministic
//!   report on any inversion the static layer's heuristics missed.
//!
//! Without the feature the wrappers are transparent newtypes over
//! `parking_lot` and compile to zero-cost passthrough, so release
//! builds pay nothing.

pub mod ranks;

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A position in the facility-wide lock order. Higher id = acquired
/// later (inner lock). Every rank is declared exactly once in
/// [`ranks`]; constructing an ordered lock with an undeclared rank is
/// an L5 lint violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockRank {
    /// Position in the global order; must be unique per rank.
    pub id: u16,
    /// Stable human-readable name used in witness reports.
    pub name: &'static str,
}

/// Declares a rank. Only [`ranks`] should call this.
pub const fn rank(id: u16, name: &'static str) -> LockRank {
    LockRank { id, name }
}

/// True when this build carries the runtime lock-order witness
/// (the `lock-order` cargo feature). Soak and determinism tests assert
/// on this so "the soaks ran with the witness enabled" is checked, not
/// assumed.
pub const fn witness_enabled() -> bool {
    cfg!(feature = "lock-order")
}

#[cfg(feature = "lock-order")]
mod witness {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks currently held by this thread, in acquisition order.
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Records an acquisition, panicking deterministically if `r` does
    /// not rank strictly above every lock already held. Out-of-order
    /// *release* is fine (guards may be dropped in any order), which is
    /// why the check is against the maximum held rank, not the top of
    /// the stack.
    pub fn acquire(r: LockRank) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(max) = held.iter().max_by_key(|l| l.id) {
                if r.id <= max.id {
                    let stack: Vec<String> = held
                        .iter()
                        .map(|l| format!("{}({})", l.name, l.id))
                        .collect();
                    panic!(
                        "lock-order violation: acquiring {}({}) while holding [{}]; \
                         ranks must strictly increase (see lsdf_sync::ranks)",
                        r.name,
                        r.id,
                        stack.join(", ")
                    );
                }
            }
            held.push(r);
        });
    }

    /// Records a release (guard drop). Removes the most recent instance
    /// of the rank, tolerating out-of-order guard drops.
    pub fn release(r: LockRank) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|l| l.id == r.id) {
                held.remove(pos);
            }
        });
    }

    /// Names of the ranks this thread currently holds (tests only).
    pub fn held_names() -> Vec<&'static str> {
        HELD.with(|h| h.borrow().iter().map(|l| l.name).collect())
    }
}

/// Names of the ranks the current thread holds; always empty without
/// the `lock-order` feature.
pub fn held_ranks() -> Vec<&'static str> {
    #[cfg(feature = "lock-order")]
    {
        witness::held_names()
    }
    #[cfg(not(feature = "lock-order"))]
    {
        Vec::new()
    }
}

/// A `parking_lot::Mutex` with a declared position in the facility
/// lock order.
pub struct OrderedMutex<T: ?Sized> {
    rank: LockRank,
    inner: parking_lot::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` under the declared `rank`.
    pub fn new(rank: LockRank, value: T) -> Self {
        Self { rank, inner: parking_lot::Mutex::new(value) }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// Acquires the lock, checking the rank order under the witness.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        witness::acquire(self.rank);
        OrderedMutexGuard {
            #[cfg(feature = "lock-order")]
            rank: self.rank,
            inner: self.inner.lock(),
        }
    }

    /// The declared rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex").field("rank", &self.rank).field("inner", &self.inner).finish()
    }
}

/// Guard for [`OrderedMutex`]; pops the witness stack on drop.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-order")]
    rank: LockRank,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(feature = "lock-order")]
impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        witness::release(self.rank);
    }
}

/// A `parking_lot::RwLock` with a declared position in the facility
/// lock order. Reader re-entrancy is *not* granted: a read acquisition
/// must also rank strictly above every held lock, because a recursive
/// read deadlocks the moment a writer queues between the two reads.
pub struct OrderedRwLock<T: ?Sized> {
    rank: LockRank,
    inner: parking_lot::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` under the declared `rank`.
    pub fn new(rank: LockRank, value: T) -> Self {
        Self { rank, inner: parking_lot::RwLock::new(value) }
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// Acquires a shared read guard, checking the rank order.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        witness::acquire(self.rank);
        OrderedReadGuard {
            #[cfg(feature = "lock-order")]
            rank: self.rank,
            inner: self.inner.read(),
        }
    }

    /// Acquires an exclusive write guard, checking the rank order.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        witness::acquire(self.rank);
        OrderedWriteGuard {
            #[cfg(feature = "lock-order")]
            rank: self.rank,
            inner: self.inner.write(),
        }
    }

    /// The declared rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard for [`OrderedRwLock`]; pops the witness stack on drop.
pub struct OrderedReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-order")]
    rank: LockRank,
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(feature = "lock-order")]
impl<T: ?Sized> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        witness::release(self.rank);
    }
}

/// Exclusive guard for [`OrderedRwLock`]; pops the witness stack on drop.
pub struct OrderedWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-order")]
    rank: LockRank,
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(feature = "lock-order")]
impl<T: ?Sized> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        witness::release(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_acquisition_is_clean() {
        let outer = OrderedMutex::new(ranks::ADMISSION_PROJECTS, 1u32);
        let inner = OrderedMutex::new(ranks::ADMISSION_PROJECT_STATE, 2u32);
        let a = outer.lock();
        let b = inner.lock();
        assert_eq!(*a + *b, 3);
    }

    #[test]
    fn out_of_order_release_is_clean() {
        let low = OrderedMutex::new(ranks::DFS_FILES, ());
        let mid = OrderedRwLock::new(ranks::WAL_ACTIVE, ());
        let high = OrderedMutex::new(ranks::MEMDISK_STATE, ());
        let a = low.lock();
        let b = mid.read();
        drop(a); // release the *outer* lock first
        let c = high.lock();
        drop(b);
        drop(c);
        assert!(held_ranks().is_empty());
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn witness_reports_inversion() {
        let err = std::panic::catch_unwind(|| {
            let outer = OrderedMutex::new(ranks::WAL_ACTIVE, ());
            let inner = OrderedMutex::new(ranks::DFS_FILES, ());
            let _a = outer.lock();
            let _b = inner.lock(); // rank goes down: inversion
        })
        .expect_err("inversion must panic under the witness");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(msg.contains("dfs_files"), "{msg}");
        assert!(msg.contains("wal_active"), "{msg}");
        // The unwound guards must not leave residue on the thread stack.
        assert!(held_ranks().is_empty());
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn same_rank_nesting_is_an_inversion() {
        let a = OrderedMutex::new(ranks::DFS_BLOCK_SHARD, ());
        let b = OrderedMutex::new(ranks::DFS_BLOCK_SHARD, ());
        let res = std::panic::catch_unwind(|| {
            let _g1 = a.lock();
            let _g2 = b.lock();
        });
        assert!(res.is_err(), "same-rank nesting must be rejected");
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn witness_flag_matches_feature() {
        assert_eq!(witness_enabled(), cfg!(feature = "lock-order"));
    }
}
