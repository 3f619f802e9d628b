//! Torn-tail property, proved exhaustively: a WAL image cut at EVERY
//! byte offset (and corrupted at every byte offset) replays without
//! panicking, yields exactly the committed frame prefix, and — after
//! the recovery-time tail repair — accepts new appends that survive
//! the next replay.

use std::sync::Arc;

use lsdf_durability::{parse_frames, DurableLog, DurableStore, WalConfig, FRAME_HEADER_LEN};
use lsdf_obs::Registry;

/// Patterned records of awkward sizes: empty, tiny, header-sized,
/// and multi-header payloads.
fn records() -> Vec<Vec<u8>> {
    [0usize, 1, 7, FRAME_HEADER_LEN, 32, 255, 9]
        .iter()
        .enumerate()
        .map(|(i, &len)| (0..len).map(|j| (i * 31 + j) as u8).collect())
        .collect()
}

/// How the image under test reached the device: one `append_commit`
/// per record, or every record in one `append_commit_batch`.
#[derive(Clone, Copy, Debug)]
enum Written {
    PerRecord,
    OneBatch,
}

const BOTH: [Written; 2] = [Written::PerRecord, Written::OneBatch];

/// Writes the records through a real log and returns the durable
/// segment image plus the cumulative frame-boundary offsets.
fn committed_image(how: Written) -> (Vec<u8>, Vec<usize>) {
    let store = DurableStore::new();
    let log = DurableLog::open(store.clone(), "t", &Arc::new(Registry::new()), WalConfig::default());
    let mut boundaries = vec![0usize];
    for r in records() {
        boundaries.push(boundaries.last().unwrap() + FRAME_HEADER_LEN + r.len());
    }
    match how {
        Written::PerRecord => records().iter().for_each(|r| log.append_commit(r)),
        Written::OneBatch => log.append_commit_batch(&records()),
    }
    let bytes = store.get("t-wal-00000000").expect("segment 0 exists").read();
    assert_eq!(bytes.len(), *boundaries.last().unwrap());
    (bytes, boundaries)
}

/// Frames wholly committed below `cut`.
fn expect_prefix(boundaries: &[usize], cut: usize) -> usize {
    boundaries.iter().filter(|&&b| b != 0 && b <= cut).count()
}

#[test]
fn truncation_at_every_byte_offset_replays_the_committed_prefix() {
    BOTH.into_iter().for_each(truncation_replays_the_committed_prefix);
}

fn truncation_replays_the_committed_prefix(how: Written) {
    let all = records();
    let (bytes, boundaries) = committed_image(how);
    for cut in 0..=bytes.len() {
        let want = expect_prefix(&boundaries, cut);
        // Pure parser: exact prefix, torn iff the cut split a frame.
        let (parsed, torn) = parse_frames(&bytes[..cut]);
        assert_eq!(parsed.len(), want, "{how:?} cut={cut}");
        assert_eq!(parsed, all[..want].to_vec(), "{how:?} cut={cut}");
        assert_eq!(torn, !boundaries.contains(&cut), "{how:?} cut={cut}");

        // Full log recovery over a device truncated at the same offset.
        let store = DurableStore::new();
        store.open("t-wal-00000000").set(bytes[..cut].to_vec());
        let log = DurableLog::open(
            store.clone(),
            "t",
            &Arc::new(Registry::new()),
            WalConfig::default(),
        );
        let r = log.replay_from(0);
        assert_eq!(r.records, all[..want].to_vec(), "{how:?} cut={cut}");
        assert_eq!(r.torn_tails, u64::from(torn), "{how:?} cut={cut}");
        // The repair leaves the log appendable: an ack'd write after
        // recovery survives the next replay at every cut point.
        log.append_commit(b"post-recovery");
        let r2 = log.replay_from(0);
        assert_eq!(r2.records.len(), want + 1, "{how:?} cut={cut}");
        assert_eq!(r2.records[want], b"post-recovery".to_vec(), "{how:?} cut={cut}");
        assert_eq!(r2.torn_tails, 0, "{how:?} cut={cut} tail not repaired");
    }
}

#[test]
fn corruption_at_every_byte_offset_never_panics_and_never_invents_records() {
    BOTH.into_iter().for_each(corruption_never_invents_records);
}

fn corruption_never_invents_records(how: Written) {
    let all = records();
    let (bytes, _) = committed_image(how);
    for pos in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0xFF;
        let (parsed, torn) = parse_frames(&corrupted);
        // A flipped byte can only shorten the committed prefix — replay
        // must never fabricate or reorder records past the damage.
        assert!(torn, "{how:?} pos={pos}: corruption must mark the tail torn");
        assert!(
            parsed.len() < all.len() && parsed == all[..parsed.len()].to_vec(),
            "{how:?} pos={pos}: parsed a non-prefix after corruption"
        );
    }
}

// --- Checkpoint crash points -----------------------------------------
//
// A save is three steps — new chunks down, manifest replaced, superseded
// chunks collected — between a WAL rotation and a WAL truncation. The
// tests below stop it after each step by composing the step's effect on
// the `DurableStore` directly, then re-open the component "from disk".

use lsdf_durability::{Chunk, ComponentDurability, DurabilityConfig};
use lsdf_obs::names;
use lsdf_storage::sha256;

/// A toy component: an ordered set of `u64`s, one WAL record per
/// insertion, checkpointed as chunks of four.
fn open(store: &DurableStore, name: &str) -> (ComponentDurability, Arc<Registry>) {
    let reg = Arc::new(Registry::new());
    let cfg = DurabilityConfig { checkpoint_every: 4, ..DurabilityConfig::default() };
    (ComponentDurability::open(store, name, &reg, &cfg), reg)
}

fn log(d: &ComponentDurability, items: std::ops::Range<u64>) {
    items.for_each(|i| d.log(&i.to_le_bytes()));
}

fn body(items: std::ops::Range<u64>) -> Vec<u8> {
    items.flat_map(u64::to_le_bytes).collect()
}

/// Chunks of four over `0..len`: a `Put` from `first_put` on, `Keep` below.
fn chunks(len: u64, first_put: u64) -> Vec<Chunk> {
    (0..len.div_ceil(4))
        .map(|c| match c >= first_put {
            true => Chunk::Put(body(c * 4..len.min(c * 4 + 4))),
            false => Chunk::Keep,
        })
        .collect()
}

/// What one `recover_with` pass handed the component.
struct Recovered {
    snapshot: Option<Vec<Vec<u8>>>,
    checkpoint_rejected: bool,
    records: Vec<Vec<u8>>,
}

fn recover(d: &ComponentDurability) -> Recovered {
    let (mut snapshot, mut records) = (None, Vec::new());
    let stats = d.recover_with(
        |chunks| {
            // Staged while the chunks verify, kept only if all did.
            let mut staged = Vec::new();
            let verified = chunks.try_for_each(|chunk| {
                staged.push(chunk.to_vec());
                true
            });
            snapshot = verified.then_some(staged);
            verified
        },
        |record| {
            records.push(record.to_vec());
            true
        },
    );
    assert_eq!(stats.snapshot_loaded, snapshot.is_some());
    Recovered { snapshot, checkpoint_rejected: stats.checkpoint_rejected, records }
}

/// The state a recovery yields: the checkpoint's items, then every
/// replayed insertion not already present (replay is idempotent).
fn state(recovered: &Recovered) -> Vec<u64> {
    let decode = |bytes: &[u8]| -> Vec<u64> {
        bytes.chunks_exact(8).map(|b| u64::from_le_bytes(b.try_into().unwrap())).collect()
    };
    let mut items: Vec<u64> = recovered.snapshot.iter().flatten().flat_map(|c| decode(c)).collect();
    for i in recovered.records.iter().flat_map(|r| decode(r)) {
        if !items.contains(&i) {
            items.push(i);
        }
    }
    items
}

fn chunk_device(name: &str, items: std::ops::Range<u64>) -> String {
    format!("{name}-ckpt-{}", sha256(&body(items)))
}

#[test]
fn crash_after_the_new_chunks_and_before_the_manifest_recovers_the_old_checkpoint() {
    let store = DurableStore::new();
    let (d, _) = open(&store, "t");
    log(&d, 0..6);
    assert_eq!(d.checkpoint_with(|_| chunks(6, 0)), Some(2));
    log(&d, 6..11);
    // The second checkpoint gets as far as rotating the log and writing
    // its two new chunks (the grown tail and a third).
    DurableLog::open(store.clone(), "t", &Arc::new(Registry::new()), WalConfig::default()).rotate();
    store.open(&chunk_device("t", 4..8)).set(body(4..8));
    store.open(&chunk_device("t", 8..11)).set(body(8..11));

    let (reopened, reg) = open(&store, "t");
    let recovered = recover(&reopened);
    assert!(!recovered.checkpoint_rejected);
    assert_eq!(recovered.snapshot, Some(vec![body(0..4), body(4..6)]), "the old checkpoint");
    assert_eq!(recovered.records.len(), 5, "its untruncated segment");
    assert_eq!(state(&recovered), (0..11).collect::<Vec<_>>());
    // The orphans go with the next checkpoint that lands, which writes
    // the same two chunks again and keeps the first.
    assert_eq!(reopened.checkpoint_with(|_| chunks(11, 1)), Some(2));
    assert_eq!(store.names_with_prefix("t-ckpt-").len(), 3);
    assert_eq!(reg.counter_value(names::CKPT_CHUNKS_REUSED_TOTAL, &[("log", "t")]), 1);
    assert_eq!(state(&recover(&open(&store, "t").0)), (0..11).collect::<Vec<_>>());
}

#[test]
fn crash_after_the_manifest_and_before_collection_recovers_the_new_checkpoint() {
    let store = DurableStore::new();
    let (d, _) = open(&store, "t");
    log(&d, 0..6);
    d.checkpoint_with(|_| chunks(6, 0));
    log(&d, 6..11);
    let old_tail = store.get(&chunk_device("t", 4..6)).expect("first checkpoint's tail").read();
    let old_segment = store.get("t-wal-00000001").expect("segment of 6..11").read();
    assert_eq!(d.checkpoint_with(|_| chunks(11, 1)), Some(2));
    // Neither the collection nor the truncation happened.
    store.open(&chunk_device("t", 4..6)).set(old_tail);
    store.open("t-wal-00000001").set(old_segment);

    let (reopened, _) = open(&store, "t");
    let recovered = recover(&reopened);
    assert_eq!(recovered.snapshot, Some(vec![body(0..4), body(4..8), body(8..11)]));
    assert!(recovered.records.is_empty(), "replay starts at the new manifest's epoch");
    assert_eq!(state(&recovered), (0..11).collect::<Vec<_>>());
    // A checkpoint with nothing to write still collects the orphan and
    // truncates the stale segment.
    assert_eq!(reopened.checkpoint_with(|_| chunks(11, 3)), Some(0));
    assert!(store.get(&chunk_device("t", 4..6)).is_none());
    assert!(store.get("t-wal-00000001").is_none());
}

#[test]
fn one_missing_or_corrupt_chunk_rejects_the_checkpoint_and_replays_from_epoch_zero() {
    for (damaged, remove) in [(0..4, true), (4..8, false), (8..11, true)] {
        let store = DurableStore::new();
        let (d, _) = open(&store, "t");
        log(&d, 0..11);
        assert_eq!(d.checkpoint_with(|_| chunks(11, 0)), Some(3));
        log(&d, 11..13);
        let dev = chunk_device("t", damaged.clone());
        if remove {
            assert!(store.remove(&dev));
        } else {
            store.open(&dev).set(b"bit rot".to_vec());
        }
        let (reopened, reg) = open(&store, "t");
        let recovered = recover(&reopened);
        assert!(recovered.checkpoint_rejected, "{damaged:?}");
        assert_eq!(recovered.snapshot, None, "no chunk of a rejected checkpoint is used");
        assert_eq!(reg.counter_value(names::CKPT_REJECTED_TOTAL, &[("log", "t")]), 1);
        // Segment 0 was truncated when the checkpoint landed: what
        // survives is what was logged since.
        assert_eq!(state(&recovered), vec![11, 12], "{damaged:?}");
    }
}

#[test]
fn a_checkpoint_collects_only_its_own_chunks() {
    // `t-ckpt-u` is a legal component name, and every device it owns
    // starts with `t`'s chunk prefix.
    let store = DurableStore::new();
    let (t, _) = open(&store, "t");
    let (u, _) = open(&store, "t-ckpt-u");
    for d in [&t, &u] {
        log(d, 0..10);
        assert_eq!(d.checkpoint_with(|_| chunks(10, 0)), Some(3));
        log(d, 10..15);
    }
    assert_eq!(t.checkpoint_with(|_| chunks(15, 2)), Some(2));
    u.crash_torn(7);
    let recovered = recover(&open(&store, "t-ckpt-u").0);
    assert!(recovered.snapshot.is_some() && !recovered.checkpoint_rejected);
    assert_eq!(state(&recovered), (0..15).collect::<Vec<_>>());
}

#[test]
fn a_manifest_written_with_another_chunk_size_is_rewritten_whole() {
    let store = DurableStore::new();
    let (d, _) = open(&store, "t");
    log(&d, 0..10);
    d.checkpoint_with(|_| chunks(10, 0));
    let reg = Arc::new(Registry::new());
    let cfg = DurabilityConfig { checkpoint_every: 5, ..DurabilityConfig::default() };
    let resized = ComponentDurability::open(&store, "t", &reg, &cfg);
    assert_eq!(state(&recover(&resized)), (0..10).collect::<Vec<_>>());
    // The component believes both of its chunks of five are clean; the
    // manifest on disk holds chunks of four, so nothing can be kept.
    let asked = std::cell::RefCell::new(Vec::new());
    let snapshot = |whole: bool| {
        asked.borrow_mut().push(whole);
        [0..5, 5..10].map(|r| if whole { Chunk::Put(body(r)) } else { Chunk::Keep }).into()
    };
    assert_eq!(resized.checkpoint_with(snapshot), Some(2));
    assert_eq!(*asked.borrow(), [false, true]);
    assert_eq!(reg.counter_value(names::CKPT_TAKEN_TOTAL, &[("log", "t")]), 1);
    assert_eq!(recover(&resized).snapshot, Some(vec![body(0..5), body(5..10)]));
    assert_eq!(store.names_with_prefix("t-ckpt-").len(), 2);
}

#[test]
fn a_refused_install_is_a_rejected_checkpoint_and_replays_from_epoch_zero() {
    let store = DurableStore::new();
    let (d, reg) = open(&store, "t");
    log(&d, 0..6);
    assert_eq!(d.checkpoint_with(|_| chunks(6, 0)), Some(2));
    log(&d, 6..9);
    // A stale segment below the manifest's epoch that was never
    // truncated: only a replay from epoch 0 reads it.
    let stale = DurableLog::open(store.clone(), "stale", &Arc::new(Registry::new()), WalConfig::default());
    stale.append_commit(&99u64.to_le_bytes());
    store.open("t-wal-00000000").set(store.open("stale-wal-00000000").read());
    let rejected = || reg.counter_value(names::CKPT_REJECTED_TOTAL, &[("log", "t")]);
    // Every chunk hashes to what the manifest says; the component
    // cannot use what they hold.
    let mut records = Vec::new();
    let stats = d.recover_with(
        |chunks| {
            assert!(chunks.try_for_each(|_| true));
            false
        },
        |record| {
            records.push(record.to_vec());
            true
        },
    );
    assert!(stats.checkpoint_rejected && !stats.snapshot_loaded, "{stats:?}");
    assert_eq!(rejected(), 1, "counted once, like a failed hash");
    assert_eq!(records, [body(99..100), body(6..7), body(7..8), body(8..9)]);
    // The same disk under a component that accepts the chunks.
    let recovered = recover(&d);
    assert!(!recovered.checkpoint_rejected);
    assert_eq!((state(&recovered), rejected()), ((0..9).collect(), 1));
}

#[test]
fn recover_with_counts_a_record_once_by_whether_it_took_effect() {
    let store = DurableStore::new();
    let (d, _) = open(&store, "t");
    d.log(&5u64.to_le_bytes());
    d.log(&5u64.to_le_bytes());
    d.log(b"odd");
    let (reopened, reg) = open(&store, "t");
    let mut items = Vec::new();
    // The toy component's idempotent apply: a record is one item, an
    // item already held or a record of another size changes nothing.
    let stats = reopened.recover_with(
        |_| unreachable!("no checkpoint was taken"),
        |record| match <[u8; 8]>::try_from(record).map(u64::from_le_bytes) {
            Ok(i) if !items.contains(&i) => {
                items.push(i);
                true
            }
            _ => false,
        },
    );
    assert_eq!(items, [5]);
    assert_eq!((stats.replayed, stats.skipped), (1, 2), "effect, no effect, undecodable");
    assert!(!stats.snapshot_loaded && !stats.checkpoint_rejected);
    let counter = |name| reg.counter_value(name, &[("log", "t")]);
    assert_eq!(counter(names::RECOVERY_RUNS_TOTAL), 1);
    assert_eq!(counter(names::RECOVERY_REPLAYED_RECORDS_TOTAL), stats.replayed);
    assert_eq!(counter(names::RECOVERY_SKIPPED_RECORDS_TOTAL), stats.skipped);
}
