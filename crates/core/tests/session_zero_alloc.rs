//! A warmed `ProjectSession::get` allocates nothing of its own: the
//! session holds its project opened in the ADAL (principal, grant,
//! mount) and its admission account, so a get checks three epochs,
//! takes one token and calls the backend. On an object-store mount that
//! is 0 allocations; on a DFS mount it is exactly 1, the digest cell
//! `Payload::new` makes around the bytes `DfsBackend::get` reads (the
//! read itself allocates nothing: `crates/dfs/tests/zero_alloc.rs`).
//!
//! This lives in its own test binary on purpose: the counting allocator
//! is process-global, so no other test may share the process. Counts
//! are per thread, so the harness's own threads cannot leak into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use bytes::Bytes;
use lsdf_core::{BackendChoice, Facility, ProjectSpec};
use lsdf_dfs::{ClusterTopology, DfsConfig};
use lsdf_metadata::zebrafish_schema;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the thread that
/// asks for it.
struct Counting;

fn count() {
    // A const-initialised `Cell` needs no destructor, so the access
    // neither allocates nor fails before thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter bump beside it
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const GETS: u64 = 100;

/// One tenant on an object store, one on the DFS (4 blocks a file).
fn facility() -> Facility {
    let mut on_dfs = zebrafish_schema();
    on_dfs.name = "zebrafish-dfs".into();
    let dfs = DfsConfig { block_size: 1024, replication: 2, ..DfsConfig::default() };
    Facility::builder()
        .tenant(ProjectSpec::new(zebrafish_schema(), BackendChoice::ObjectStore { capacity: u64::MAX }))
        .tenant(ProjectSpec::new(on_dfs, BackendChoice::Dfs))
        .cluster(ClusterTopology::new(2, 3), dfs)
        .workers(1)
        .build()
        .expect("facility builds")
}

/// Allocations per `ProjectSession::get` of one 4 KiB object, after the
/// session's first op opened the project and the per-mount metric
/// handles exist.
fn allocations_per_get(f: &Facility, project: &str) -> u64 {
    let session = f.session(project).expect("project exists");
    let data = Bytes::from((0..4096).map(|i| i as u8).collect::<Vec<u8>>());
    session.put("raw/k", data.clone()).expect("put");
    assert_eq!(session.get("raw/k").expect("warm-up get"), data);
    let before = allocations();
    for _ in 0..GETS {
        black_box(session.get("raw/k").expect("get"));
    }
    let made = allocations() - before;
    assert_eq!(made % GETS, 0, "{project}: {made} allocations over {GETS} gets");
    made / GETS
}

#[test]
fn a_warmed_session_get_allocates_only_what_its_backend_returns() {
    let f = facility();
    let object_store = allocations_per_get(&f, "zebrafish-htm");
    let dfs = allocations_per_get(&f, "zebrafish-dfs");
    eprintln!("session get allocations: object store {object_store}, dfs {dfs}");
    assert_eq!(object_store, 0, "object store");
    // The one allocation: `DfsBackend::get`'s `Payload::new` digest cell.
    assert_eq!(dfs, 1, "dfs");
}
