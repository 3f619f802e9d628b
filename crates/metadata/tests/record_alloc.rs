//! What a catalog record costs the allocator. A record holds only what
//! it cannot derive: its checksum as 32 bytes, its location as a flag
//! when it is `lsdf://{project}/{name}`, and its name once (the name
//! map is keyed by the name's hash and reads the name through the
//! record). Four heap objects remain per record, and they are what a
//! crash frees and a recovery makes again:
//!
//! 1. the record's `Arc`,
//! 2. its name,
//! 3. its basic metadata's slots,
//! 4. the one string value among them (`detector`).
//!
//! A registration allocates three of them (the string value moves in
//! from the document) and its WAL frame; everything else is amortized
//! growth of the catalog's vectors and maps.
//!
//! This lives in its own test binary on purpose: the counting allocator
//! is process-global, so no other test may share the process. Counts
//! are per thread, so the harness's own threads cannot leak into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use lsdf_durability::{ComponentDurability, DurabilityConfig, DurableStore};
use lsdf_metadata::{Document, FieldType, NewDataset, ProjectStore, Schema, SchemaBuilder, Value};
use lsdf_obs::{names, Registry};
use lsdf_storage::sha256;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and each free on the
/// thread that asks for it.
struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // A const-initialised `Cell` needs no destructor, so the access
    // neither allocates nor fails before thread teardown.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter bump beside it
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, frees)` this thread made while `f` ran, and its result.
fn counted<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let read = || (ALLOCATIONS.with(Cell::get), FREES.with(Cell::get));
    let before = read();
    let out = f();
    let after = read();
    ((after.0 - before.0, after.1 - before.1), out)
}

const PROJECT: &str = "katrin-daq";
const BATCH: usize = 480;
/// Batches covered by the checkpoint, and the WAL suffix after it: a
/// restart installs 7 680 records and replays 1 920.
const CHECKPOINTED: usize = 16;
const SUFFIX: usize = 4;

/// The `daq_events` schema: a run number and a start time, both
/// indexed, an event count and a detector name.
fn daq_schema() -> Schema {
    SchemaBuilder::new(PROJECT)
        .required("run_id", FieldType::Int)
        .indexed()
        .required("t_start", FieldType::Time)
        .indexed()
        .required("n_events", FieldType::Int)
        .required("detector", FieldType::Str)
        .build()
        .unwrap()
}

/// Item `i` as ingest registers it: 24 sub-runs a run, at its derived
/// location, with the SHA-256 of its payload in lowercase hex.
fn daq_item(i: usize) -> NewDataset {
    let (run, sub) = (i / 24, i % 24);
    let name = format!("run{run:06}/sub{sub:02}");
    let basic: Document = [
        ("run_id".to_string(), Value::Int(run as i64)),
        ("t_start".to_string(), Value::Time(1_000 * i as i64)),
        ("n_events".to_string(), Value::Int(28)),
        ("detector".to_string(), Value::Str(format!("fpd-{}", i * 37 % 148))),
    ]
    .into_iter()
    .collect();
    NewDataset {
        location: format!("lsdf://{PROJECT}/{name}"),
        checksum_hex: sha256(name.as_bytes()).to_hex(),
        name,
        size_bytes: 512,
        basic,
    }
}

#[test]
fn a_record_is_four_heap_objects_from_insert_to_crash_to_recover() {
    let disk = DurableStore::new();
    let registry = Arc::new(Registry::new());
    let durability =
        ComponentDurability::open(&disk, &format!("meta-{PROJECT}"), &registry, &DurabilityConfig::default());
    let store = ProjectStore::with_durability(daq_schema(), Some(durability));
    let batches: Vec<Vec<NewDataset>> = (0..CHECKPOINTED + SUFFIX)
        .map(|b| (b * BATCH..(b + 1) * BATCH).map(daq_item).collect())
        .collect();
    let records = (batches.len() * BATCH) as f64;

    let mut inserted = 0;
    for (b, batch) in batches.into_iter().enumerate() {
        let (made, results) = counted(|| store.insert_batch(batch));
        assert!(results.iter().all(Result::is_ok));
        inserted += made.0;
        drop(results);
        if b + 1 == CHECKPOINTED {
            assert!(store.checkpoint().is_some());
        }
    }
    let labels = [("log", "meta-katrin-daq")];
    let frames = registry.histogram(names::WAL_APPEND_BYTES, &labels);
    let insert_record_bytes = frames.sum() as f64 / frames.count() as f64;
    let digest = store.catalog_digest();

    let ((_, freed), ()) = counted(|| store.crash(7));
    let ((recovered, _), stats) = counted(|| store.recover());
    assert!(stats.snapshot_loaded, "{stats:?}");
    assert_eq!(stats.replayed, (SUFFIX * BATCH) as u64);
    assert_eq!(store.catalog_digest(), digest);

    let per_insert = inserted as f64 / records;
    let per_crash = freed as f64 / records;
    let per_recover = recovered as f64 / records;
    eprintln!("record allocations: insert_batch {per_insert:.2} per item, crash frees {per_crash:.2} per record, recover {per_recover:.2} per record");
    eprintln!("daq WAL insert record: {insert_record_bytes:.1} bytes");
    // Arc + name + slots + WAL frame, and growth: the detector string
    // moves in from the document, the location and checksum text go.
    assert!(per_insert <= 3.4, "{per_insert:.2} allocations per inserted item");
    // Arc + name + slots + detector, and the catalog's own vectors.
    assert!(per_crash <= 4.25, "{per_crash:.2} frees per record at a crash");
    assert!(per_recover <= 4.25, "{per_recover:.2} allocations per recovered record");
}
