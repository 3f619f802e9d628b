//! A whole-file `Dfs::read` of a committed file allocates nothing: one
//! namespace lookup hands out the layout published at commit, each
//! block's try order is built on the stack under its stripe guard, and
//! the extents fold into one view of the written buffer.
//!
//! This lives in its own test binary on purpose: the counting allocator
//! is process-global, so no other test may share the process. Counts
//! are per thread, so the harness's own threads cannot leak into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lsdf_dfs::{ClusterTopology, Dfs, DfsConfig, DfsNodeId};
use lsdf_obs::TraceCtx;
use lsdf_storage::Payload;

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

#[test]
fn a_whole_file_read_allocates_nothing_after_warm_up() {
    const READS: usize = 100;
    // The paper's 60-node cluster, 3 replicas, a 4-block file.
    let fs = Dfs::new(
        ClusterTopology::lsdf(),
        DfsConfig { block_size: 1024, replication: 3, ..DfsConfig::default() },
    );
    let payload = Payload::from((0..4096).map(|i| i as u8).collect::<Vec<u8>>());
    fs.write_payload_traced("/f", &payload, Some(DfsNodeId(7)), &TraceCtx::disabled()).unwrap();
    let buf = payload.into_bytes();
    // Node-local, rack-local, remote and outside the cluster.
    let readers = [Some(DfsNodeId(7)), Some(DfsNodeId(8)), Some(DfsNodeId(40)), None];
    for reader in readers {
        fs.read("/f", reader).unwrap();
    }

    let before = allocations();
    for i in 0..READS {
        let got = fs.read("/f", readers[i % readers.len()]).unwrap();
        assert!(got.as_ptr() == buf.as_ptr() && got.len() == buf.len());
    }
    let made = allocations() - before;
    assert_eq!(made, 0, "{} allocations per read", made as f64 / READS as f64);
}
