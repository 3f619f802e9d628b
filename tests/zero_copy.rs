//! Zero-copy + hash-once witness for the batched write path.
//!
//! The facility promise after the payload-handle refactor: an acked
//! payload is hashed **exactly once** (the memoized digest on the
//! shared [`Payload`] handle — catalog checksum, object-store metadata,
//! and replica verification all reuse the cell) and **deep-copied zero
//! times** on the success path, across every backend family and every
//! worker count; and a read hands back the very buffer that was
//! ingested — the object store's stored handle, the DFS file's buffer
//! that every block replica is a window of — with no copy and no hash.
//!
//! The batch carries a group of equal-length payloads besides the
//! random-length ones, so the hash pass's 16-lane path (where the CPU
//! has it) is held to the same contract as the one-at-a-time path.
//!
//! This lives in its own test binary on purpose: the witnesses are
//! process-global counters (`payload_digests_computed`,
//! `payload_deep_copies`), so no other test may share the process.

use std::sync::Arc;

use bytes::Bytes;

use lsdf_adal::ResilienceConfig;
use lsdf_core::{BackendChoice, Facility, IngestItem, IngestPolicy, ProjectSpec};
use lsdf_dfs::{ClusterTopology, DfsConfig};
use lsdf_metadata::{Document, FieldType, SchemaBuilder, Value};
use lsdf_obs::Registry;
use lsdf_sim::SimRng;
use lsdf_storage::{payload_deep_copies, payload_digests_computed};

const ITEMS_PER_PROJECT: u64 = 30;
/// Equal-length payloads added to the DFS tenant: one block layout, so
/// the batch's hash pass can take them sixteen at a time.
const GROUP: u64 = 20;
const GROUP_BYTES: usize = 1500;

fn schema(name: &str) -> lsdf_metadata::Schema {
    SchemaBuilder::new(name)
        .required("n", FieldType::Int)
        .build()
        .unwrap()
}

/// Three tenants covering the three mount families the write path
/// serves: a plain object store, the block-chunking DFS, and a
/// resilient mount whose puts fan out to a replica.
fn facility(reg: Arc<Registry>, workers: usize) -> Facility {
    Facility::builder()
        .tenant(ProjectSpec::new(
            schema("obj"),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .tenant(ProjectSpec::new(schema("spectro"), BackendChoice::Dfs))
        .tenant(
            ProjectSpec::new(
                schema("resilient"),
                BackendChoice::ObjectStore { capacity: u64::MAX },
            )
            .resilient(
                BackendChoice::ObjectStore { capacity: u64::MAX },
                ResilienceConfig::default(),
            ),
        )
        .cluster(
            ClusterTopology::new(2, 2),
            DfsConfig {
                block_size: 512,
                replication: 2,
                ..DfsConfig::default()
            },
        )
        .registry(reg)
        .workers(workers)
        .build()
        .unwrap()
}

fn batch(seed: u64) -> Vec<IngestItem> {
    let mut rng = SimRng::seed_from_u64(seed).stream("zero-copy");
    let mut items = Vec::new();
    for project in ["obj", "spectro", "resilient"] {
        for n in 0..ITEMS_PER_PROJECT {
            // Multi-block sizes on the DFS tenant so chunking happens.
            let len = rng.range_u64(1, 2048) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.range_u64(0, 256) as u8).collect();
            let mut doc = Document::new();
            doc.insert("n".to_string(), Value::Int(n as i64));
            items.push(IngestItem {
                project: project.to_string(),
                key: format!("k/{n:04}"),
                data: Bytes::from(payload),
                metadata: Some(doc),
            });
        }
    }
    for n in 0..GROUP {
        let payload: Vec<u8> = (0..GROUP_BYTES)
            .map(|_| rng.range_u64(0, 256) as u8)
            .collect();
        let mut doc = Document::new();
        doc.insert("n".to_string(), Value::Int(n as i64));
        items.push(IngestItem {
            project: "spectro".to_string(),
            key: format!("g/{n:04}"),
            data: Bytes::from(payload),
            metadata: Some(doc),
        });
    }
    items
}

#[test]
fn acked_payloads_hash_once_and_copy_zero_times_at_any_worker_count() {
    let total = 3 * ITEMS_PER_PROJECT + GROUP;
    let mut reports = Vec::new();
    let mut counters = Vec::new();
    for workers in [1usize, 4, 8] {
        let reg = Arc::new(Registry::new());
        reg.set_virtual_time_ns(1);
        let f = facility(reg.clone(), workers);
        let admin = f.admin().clone();
        let items = batch(0xbeef);
        // The ingested buffers themselves: a `Bytes` clone shares them.
        let expected: Vec<(String, Bytes)> = items
            .iter()
            .map(|i| (format!("lsdf://{}/{}", i.project, i.key), i.data.clone()))
            .collect();

        let digests_before = payload_digests_computed();
        let copies_before = payload_copies_success_path();
        let report = f.ingest_batch(&admin, items, IngestPolicy::default());
        let digests = payload_digests_computed() - digests_before;
        let copies = payload_copies_success_path() - copies_before;

        assert_eq!(report.registered, total, "workers={workers}: {report:?}");
        // Hash-once: one SHA-256 per acked payload — object-store
        // metadata, the catalog checksum, and the replica fan-out all
        // reuse the memoized cell on the shared handle.
        assert_eq!(
            digests, total,
            "workers={workers}: expected exactly one digest per acked payload"
        );
        // Zero-copy: no deep payload copy anywhere on the ack path.
        assert_eq!(
            copies, 0,
            "workers={workers}: payload bytes were deep-copied on the success path"
        );

        // Read-back is the ingested buffer for every tenant: the object
        // store verifies against the memoized cell without re-hashing,
        // and a multi-block DFS file reads as one view of the buffer its
        // blocks were cut from.
        let digests_before_reads = payload_digests_computed();
        let copies_before_reads = payload_deep_copies();
        for (location, ingested) in &expected {
            let got = f.adal().get(&admin, location).unwrap();
            assert_eq!(got.len(), ingested.len(), "{location}: length");
            assert_eq!(got.as_ptr(), ingested.as_ptr(), "{location}: not the ingested buffer");
        }
        assert_eq!(
            payload_digests_computed(),
            digests_before_reads,
            "workers={workers}: read-back verification re-hashed a payload"
        );
        assert_eq!(
            payload_deep_copies(),
            copies_before_reads,
            "workers={workers}: read-back deep-copied a payload"
        );
        reports.push(report);
        counters.push(reg.snapshot().counters);
    }
    // The zero-copy path is still observationally worker-invariant,
    // whichever chunk of the hash pass each payload fell in.
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[0], reports[2]);
    assert_eq!(counters[0], counters[1]);
    assert_eq!(counters[0], counters[2]);
}

/// Deep copies on the success path. `payload_deep_copies` counts the
/// legacy `From<&[u8]>` entry point; nothing in this test should hit
/// it at all.
fn payload_copies_success_path() -> u64 {
    payload_deep_copies()
}
