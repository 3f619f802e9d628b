//! The lock-order witness judges how locks nest, by execution.
//!
//! `lsdf-lint`'s `lock_order` rule checks ranks and construction sites
//! statically: every ordered lock names a rank declared in
//! `lsdf_sync::ranks`, and no raw lock is built outside `crates/sync`.
//! Nesting is checked here and in every other test of this crate, which
//! arms `lsdf-sync`'s `lock-order` feature: an acquisition that does not
//! rank strictly above every lock its thread holds panics, naming both
//! ranks. A nesting on a path no test runs is unchecked, so put a test on
//! it.
//!
//! Each inverted shape below must panic with both rank names and leave
//! the thread's witness stack empty; each legal shape must run clean. CI
//! counts the `panicked as expected` lines.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lsdf_sync::{held_ranks, ranks, witness_enabled, LockRank, OrderedMutex, OrderedRwLock};

/// A catalog over its log: `META_STATE` (400) ranks below `WAL_ACTIVE`
/// (500), so a commit may log under the catalog lock, never the reverse.
struct Store {
    state: OrderedMutex<u32>,
    log: OrderedRwLock<u32>,
}

impl Store {
    fn new() -> Self {
        Store {
            state: OrderedMutex::new(ranks::META_STATE, 1),
            log: OrderedRwLock::new(ranks::WAL_ACTIVE, 2),
        }
    }
}

/// Runs `f`, which must trip the witness acquiring `acquired` while it
/// holds `held` and nothing else.
fn expect_inversion(pattern: &str, acquired: LockRank, held: LockRank, f: impl FnOnce()) {
    assert!(
        witness_enabled(),
        "this crate's tests run with the lock-order witness armed"
    );
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the witness must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    let expected = format!(
        "acquiring {}({}) while holding [{}({})]",
        acquired.name, acquired.id, held.name, held.id
    );
    assert!(
        msg.contains(&expected),
        "{pattern}: expected `{expected}` in `{msg}`"
    );
    assert!(
        held_ranks().is_empty(),
        "{pattern}: unwound guards left {:?}",
        held_ranks()
    );
    eprintln!("lock-order witness panicked as expected: {pattern}");
}

#[test]
fn the_witness_is_armed() {
    eprintln!("lock-order witness armed: {}", witness_enabled());
    assert!(
        witness_enabled(),
        "this crate's tests run with the lock-order witness armed"
    );
}

#[test]
fn a_direct_inversion_panics() {
    let s = Store::new();
    expect_inversion(
        "direct inversion",
        ranks::META_STATE,
        ranks::WAL_ACTIVE,
        || {
            let _log = s.log.write();
            let _state = s.state.lock();
        },
    );
}

#[test]
fn same_rank_nesting_on_a_mutex_panics() {
    // Two stripes of one family share a rank; holding both is what the
    // shared rank forbids.
    let stripes = [
        OrderedMutex::new(ranks::DFS_BLOCK_SHARD, 0u32),
        OrderedMutex::new(ranks::DFS_BLOCK_SHARD, 0u32),
    ];
    let shard = ranks::DFS_BLOCK_SHARD;
    expect_inversion("same-rank mutex nesting", shard, shard, || {
        let _a = stripes[0].lock();
        let _b = stripes[1].lock();
    });
}

#[test]
fn a_read_under_a_read_of_one_rwlock_rank_panics() {
    // A recursive read deadlocks once a writer queues between the two.
    let mounts = OrderedRwLock::new(ranks::ADAL_MOUNTS, 0u32);
    let rank = ranks::ADAL_MOUNTS;
    expect_inversion("read under read", rank, rank, || {
        let _a = mounts.read();
        let _b = mounts.read();
    });
}

mod catalog {
    use lsdf_sync::{ranks, OrderedMutex};

    pub struct Catalog {
        state: OrderedMutex<u32>,
    }

    impl Catalog {
        pub fn new() -> Self {
            Catalog {
                state: OrderedMutex::new(ranks::META_STATE, 3),
            }
        }

        pub fn poke(&self) -> u32 {
            *self.state.lock()
        }
    }
}

mod cache {
    /// Has a `poke` too, which takes no lock.
    pub struct Cache(pub u32);

    impl Cache {
        pub fn poke(&self) -> u32 {
            self.0
        }
    }
}

#[test]
fn an_inversion_through_a_call_into_another_module_panics() {
    let log = OrderedRwLock::new(ranks::WAL_ACTIVE, 0u32);
    let catalog = catalog::Catalog::new();
    expect_inversion(
        "inversion through a call",
        ranks::META_STATE,
        ranks::WAL_ACTIVE,
        || {
            let _log = log.read();
            catalog.poke();
        },
    );
}

#[test]
fn a_same_named_lock_free_callee_adds_no_nesting() {
    // A call is judged by what the callee locks, not by its name:
    // `Cache::poke` shares `Catalog::poke`'s name but takes no lock.
    let log = OrderedRwLock::new(ranks::WAL_ACTIVE, 0u32);
    let cache = cache::Cache(7);
    let _log = log.read();
    assert_eq!(cache.poke(), 7);
    assert_eq!(held_ranks(), ["wal_active"]);
}

#[test]
fn an_if_let_scrutinee_guard_is_held_inside_its_block() {
    let s = Store::new();
    expect_inversion(
        "if-let scrutinee guard",
        ranks::META_STATE,
        ranks::WAL_ACTIVE,
        || {
            if let Some(next) = s.log.read().checked_add(1) {
                *s.state.lock() = next;
            }
        },
    );
}

struct Snapshot {
    state: u32,
    logged: u32,
}

#[test]
fn struct_literal_temporaries_overlap() {
    let s = Store::new();
    // Each field's guard is a temporary of the whole statement: the
    // first is still held while the second is taken.
    expect_inversion(
        "struct-literal temporaries",
        ranks::META_STATE,
        ranks::WAL_ACTIVE,
        || {
            let snap = Snapshot {
                logged: *s.log.read(),
                state: *s.state.lock(),
            };
            assert_eq!(snap.state + snap.logged, 3);
        },
    );
    let snap = Snapshot {
        state: *s.state.lock(),
        logged: *s.log.read(),
    };
    assert_eq!(snap.state + snap.logged, 3);
}

/// Two paths over the same two ranks in opposite orders: together they
/// can deadlock each other.
struct Pair {
    lo: OrderedMutex<u32>,
    hi: OrderedMutex<u32>,
}

impl Pair {
    fn climb(&self) -> u32 {
        let g = self.lo.lock();
        let h = self.hi.lock();
        *g + *h
    }

    fn descend(&self) -> u32 {
        let h = self.hi.lock();
        // The witness reads no comments: a lint waiver on this line
        // would leave the panic as it is.
        let g = self.lo.lock();
        *h + *g
    }
}

#[test]
fn the_inverted_path_of_a_waived_cycle_panics() {
    let pair = Pair {
        lo: OrderedMutex::new(ranks::ADMISSION_PROJECTS, 1),
        hi: OrderedMutex::new(ranks::ADMISSION_PROJECT_STATE, 2),
    };
    assert_eq!(pair.climb(), 3);
    let (lo, hi) = (ranks::ADMISSION_PROJECTS, ranks::ADMISSION_PROJECT_STATE);
    expect_inversion("waived cycle", lo, hi, || {
        pair.descend();
    });
}

/// The same cycle with its two paths in two modules, each legal-looking
/// on its own page.
mod up {
    use super::Pair;

    pub fn climb(pair: &Pair) -> u32 {
        let g = pair.lo.lock();
        let h = pair.hi.lock();
        *g + *h
    }
}

mod down {
    use super::Pair;

    pub fn descend(pair: &Pair) -> u32 {
        let h = pair.hi.lock();
        let g = pair.lo.lock();
        *h + *g
    }
}

#[test]
fn a_cycle_split_across_two_modules_panics_on_its_inverted_path() {
    let pair = Pair {
        lo: OrderedMutex::new(ranks::META_STATE, 1),
        hi: OrderedMutex::new(ranks::WAL_ACTIVE, 2),
    };
    assert_eq!(up::climb(&pair), 3);
    assert!(held_ranks().is_empty());
    expect_inversion(
        "cycle across modules",
        ranks::META_STATE,
        ranks::WAL_ACTIVE,
        || {
            down::descend(&pair);
        },
    );
}

#[test]
fn in_order_nesting_runs_clean() {
    let s = Store::new();
    let state = s.state.lock();
    let log = s.log.read();
    assert_eq!(*state + *log, 3);
    assert_eq!(held_ranks(), ["meta_state", "wal_active"]);
}

#[test]
fn descending_but_disjoint_guards_run_clean() {
    let s = Store::new();
    {
        let log = s.log.read();
        assert_eq!(*log, 2);
    }
    *s.state.lock() += 1;
    let log = s.log.write();
    drop(log);
    assert_eq!(*s.state.lock(), 2);
    assert!(held_ranks().is_empty());
}

#[test]
fn a_scrutinee_guard_dies_with_its_block() {
    fn get_or_reset(table: &OrderedRwLock<u32>) -> u32 {
        if let Some(v) = table.read().checked_add(1) {
            return v;
        }
        let mut t = table.write();
        *t = 0;
        *t
    }
    let table = OrderedRwLock::new(ranks::ADAL_MOUNTS, u32::MAX);
    assert_eq!(
        get_or_reset(&table),
        0,
        "overflow falls through to the write"
    );
    assert_eq!(get_or_reset(&table), 1);
}

/// `parking_lot` has no lock poisoning, and neither has the vendored
/// stub the workspace builds against: the `catch_unwind` tests above
/// rely on it.
#[test]
fn a_panic_under_ordered_guards_leaves_the_locks_usable() {
    let s = Store::new();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let mut state = s.state.lock();
        let mut log = s.log.write();
        *state = 10;
        *log = 20;
        panic!("a panic while both guards are held");
    }));
    assert!(unwound.is_err());
    assert!(
        held_ranks().is_empty(),
        "unwound guards left {:?}",
        held_ranks()
    );
    // Both locks re-acquire, and the writes made before the panic stand.
    assert_eq!(*s.state.lock(), 10);
    assert_eq!(*s.log.read(), 20);
    *s.log.write() += 1;
    assert_eq!(*s.log.read(), 21);
}
