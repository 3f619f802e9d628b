//! Property tests: index-assisted queries always agree with full scans,
//! WORM holds, and unified/federated organisations return identical hits.

use std::sync::Arc;

use lsdf_durability::{ComponentDurability, DurabilityConfig, DurableStore};
use lsdf_metadata::export::{json_string, record_to_json};
use lsdf_metadata::query::{contains, eq, ge, gt, has_tag, le, lt, ne};
use lsdf_metadata::{
    dataset, CrossQuery, DatasetId, Document, Federation, FieldType, MetadataError, NewDataset,
    Predicate, ProjectStore, SchemaBuilder, UnifiedCatalog, Value,
};
use lsdf_obs::{names, Registry};
use proptest::prelude::*;

fn schema(name: &str) -> lsdf_metadata::Schema {
    SchemaBuilder::new(name)
        .required("run", FieldType::Int)
        .indexed()
        .required("energy", FieldType::Float)
        .indexed()
        .required("detector", FieldType::Str)
        .build()
        .unwrap()
}

fn doc(run: i64, energy: f64, detector: &str) -> Document {
    [
        ("run".to_string(), Value::Int(run)),
        ("energy".to_string(), Value::Float(energy)),
        ("detector".to_string(), Value::from(detector)),
    ]
    .into_iter()
    .collect()
}

/// Energies, for rows and for query bounds alike: whole numbers either
/// side of zero and both zeros, equal as values and different as bits.
fn energy() -> impl Strategy<Value = f64> {
    (-60i32..1000).prop_map(|e| match e {
        ..-40 => -0.0,
        -40..-20 => 0.0,
        _ => f64::from(e),
    })
}

/// A durable store over its own fresh disk.
fn durable_store() -> (ProjectStore, DurableStore) {
    let (store, disk, _) = durable_store_every(DurabilityConfig::default().checkpoint_every);
    (store, disk)
}

/// A durable store over its own fresh disk, `checkpoint_every` records
/// to a checkpoint chunk, and the registry its logs count on.
fn durable_store_every(checkpoint_every: u64) -> (ProjectStore, DurableStore, Arc<Registry>) {
    let disk = DurableStore::new();
    let (store, registry) = open_store(&disk, checkpoint_every);
    (store, disk, registry)
}

/// Opens (recovering whatever it holds) the `meta-t` store on `disk`.
fn open_store(disk: &DurableStore, checkpoint_every: u64) -> (ProjectStore, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let cfg = DurabilityConfig { checkpoint_every, ..DurabilityConfig::default() };
    let durability = ComponentDurability::open(disk, "meta-t", &registry, &cfg);
    (ProjectStore::with_durability(schema("t"), Some(durability)), registry)
}

/// Values of all five types from small domains, so that pairs are often
/// equal, with the edges: both zeros, the integer extremes, and strings
/// holding NUL and bytes at or above 0x80.
fn any_value() -> impl Strategy<Value = Value> {
    let chars = prop::sample::select(vec!['\0', 'a', 'z', '\u{7f}', '\u{80}', 'é', '\u{10ffff}']);
    let ints = || prop_oneof![Just(i64::MIN), Just(i64::MAX), -2i64..3, any::<i64>()];
    prop_oneof![
        prop::collection::vec(chars, 0..4).prop_map(|cs| Value::Str(cs.into_iter().collect())),
        ints().prop_map(Value::Int),
        prop_oneof![Just(0.0), Just(-0.0), Just(f64::MIN), Just(f64::INFINITY), -2.0f64..2.0, any::<f64>()]
            .prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        ints().prop_map(Value::Time),
    ]
}

/// A checksum text of one of six forms, from `seed`: none, a SHA-256
/// as ingest writes it, the same uppercased, one digit short, one
/// over, and text that is not hex.
fn checksum_text(form: usize, seed: u64) -> String {
    let hex = lsdf_storage::sha256(&seed.to_le_bytes()).to_hex();
    match form {
        0 => String::new(),
        1 => hex,
        2 => hex.to_uppercase(),
        3 => hex[..63].to_string(),
        4 => format!("{hex}a"),
        _ => format!("md5:{}", &hex[..32]),
    }
}

/// A location of one of six forms for the dataset `name` of the store
/// `t`: the derived one, under another project's prefix, the prefix
/// alone, with the name a suffix under a longer prefix, the name as a
/// suffix of a shorter one, and none.
fn location_text(form: usize, name: &str) -> String {
    match form {
        0 => format!("lsdf://t/{name}"),
        1 => format!("lsdf://u/{name}"),
        2 => "lsdf://t/".to_string(),
        3 => format!("lsdf://t/raw/{name}"),
        4 => format!("lsdf://t{name}"),
        _ => String::new(),
    }
}

proptest! {
    /// Whatever text a registration carries as its checksum and its
    /// location, every read hands it back as registered: `get`,
    /// `get_by_name`, an indexed `query` and the JSON export, before a
    /// crash and after the recovery from checkpoint and log.
    #[test]
    fn checksums_and_locations_read_back_as_registered(
        regs in prop::collection::vec((0usize..6, 0usize..6, any::<u64>(), any::<bool>()), 1..24),
        checkpoint_after in 0usize..24,
        crash_seed in any::<u64>(),
    ) {
        let (store, _disk) = durable_store();
        let mut registered = Vec::new();
        for (i, &(location_form, checksum_form, seed, nested)) in regs.iter().enumerate() {
            let name = if nested { format!("run{i}/sub{}", seed % 24) } else { format!("r{i}") };
            let (location, checksum) = (location_text(location_form, &name), checksum_text(checksum_form, seed));
            let new = NewDataset {
                name: name.clone(),
                location: location.clone(),
                size_bytes: seed % 4096,
                checksum_hex: checksum.clone(),
                basic: doc(i as i64, 1.0, "main"),
            };
            prop_assert_eq!(store.insert(new), Ok(DatasetId(i as u64)));
            registered.push((name, location, checksum));
            if i == checkpoint_after {
                prop_assert!(store.checkpoint().is_some());
            }
        }
        let reads_back = |when: &str| -> proptest::test_runner::TestCaseResult {
            for (i, (name, location, checksum)) in registered.iter().enumerate() {
                let hits = store.query(&eq("run", i as i64));
                prop_assert_eq!(hits.len(), 1, "{}", when);
                let by_id = store.get(DatasetId(i as u64)).unwrap();
                let by_name = store.get_by_name(name).unwrap();
                for rec in [&by_id, &by_name, &hits[0]] {
                    prop_assert_eq!(&rec.name, name, "{}", when);
                    prop_assert_eq!(rec.location(), location.as_str(), "{}", when);
                    prop_assert_eq!(&rec.checksum_hex.to_string(), checksum, "{}", when);
                    prop_assert!(rec.checksum_hex == *checksum, "{}", when);
                    prop_assert!(*checksum == rec.checksum_hex, "{}", when);
                    prop_assert!(rec.checksum_hex == *checksum.as_str(), "{}", when);
                }
                let json = record_to_json(&by_id);
                prop_assert!(json.contains(&format!("\"location\":{},", json_string(location))), "{}: {}", when, json);
                prop_assert!(json.contains(&format!("\"checksum\":{},", json_string(checksum))), "{}: {}", when, json);
            }
            Ok(())
        };
        reads_back("before the crash")?;
        let digest = store.catalog_digest();
        store.crash(crash_seed);
        let stats = store.recover();
        prop_assert_eq!(stats.snapshot_loaded, checkpoint_after < regs.len());
        reads_back("after recovery")?;
        prop_assert_eq!(store.catalog_digest(), digest);
    }

    /// An order key orders and equals as its bytes do, whichever of its
    /// two forms (inline integers, heap bytes) each side is held in.
    #[test]
    fn order_keys_order_as_their_bytes(a in any_value(), b in any_value()) {
        let (ka, kb) = (a.order_key(), b.order_key());
        prop_assert_eq!(ka.cmp(&kb), (*ka).cmp(&*kb), "{:?} vs {:?}", a, b);
        prop_assert_eq!(ka == kb, *ka == *kb, "{:?} vs {:?}", a, b);
    }

    /// Incremental checkpoints are full ones. A durable store that
    /// checkpoints chunk by chunk and crashes at seeded points is, after
    /// every step, the same catalog as a twin that never checkpointed
    /// and never crashed; and after every checkpoint the chunks the
    /// manifest names, read back from a copy of their devices with no
    /// log record to help, are that catalog. A checkpoint writes no
    /// more chunks than were touched since the last one.
    #[test]
    fn incremental_checkpoints_equal_full_snapshots(
        ops in prop::collection::vec((0u32..7, any::<u32>(), 0usize..3), 10..80),
    ) {
        const N: usize = 4;
        let (durable, disk, registry) = durable_store_every(N as u64);
        let twin = ProjectStore::new(schema("t"));
        let both = [&durable, &twin];
        let tags = ["raw", "qa-passed", "archived"];
        let preds = [eq("run", 2i64), ge("energy", 500.0), has_tag("raw")];
        let written = || registry.counter_value(names::CKPT_CHUNKS_WRITTEN_TOTAL, &[("log", "meta-t")]);
        // Appends records `from..from + count` to both; the new length.
        let insert = |from: usize, count: usize| {
            let batch: Vec<NewDataset> = (from..from + count)
                .map(|i| dataset(&format!("r{i}"), 1, doc(i as i64 % 5, (i * 37 % 1000) as f64, "main")))
                .collect();
            for store in both {
                assert!(store.insert_batch(batch.clone()).iter().all(Result::is_ok));
            }
            from + count
        };
        // At least four chunks from the start.
        let mut len = insert(0, 3 * N + 1);
        // Chunks touched since the last checkpoint, by any attempt.
        let mut touched: std::collections::BTreeSet<usize> = (0..len.div_ceil(N)).collect();
        for (step, (kind, a, t)) in ops.into_iter().enumerate() {
            let id = DatasetId(u64::from(a) % len as u64);
            match kind {
                0 | 1 => {
                    let grown = insert(len, a as usize % 6 + 1);
                    touched.extend((len..grown).map(|i| i / N));
                    len = grown;
                }
                2 => both.iter().for_each(|s| s.tag(id, tags[t]).unwrap()),
                3 => both.iter().for_each(|s| s.untag(id, tags[t]).unwrap()),
                4 => both.iter().for_each(|s| {
                    s.append_processing(id, "seg", Document::new(), doc(1, 0.5, tags[t]), vec![]).unwrap();
                }),
                5 => {
                    let before = written();
                    prop_assert!(durable.checkpoint().is_some());
                    prop_assert!(
                        written() - before <= touched.len() as u64,
                        "step {}: {} chunks written, touched {:?}", step, written() - before, touched
                    );
                    touched.clear();
                    prop_assert_eq!(disk.names_with_prefix("meta-t-ckpt-").len(), len.div_ceil(N));
                    let copy = DurableStore::new();
                    for device in disk.names() {
                        copy.open(&device).set(disk.open(&device).read());
                    }
                    let (reopened, _) = open_store(&copy, N as u64);
                    let stats = reopened.recover();
                    prop_assert!(stats.snapshot_loaded && stats.replayed + stats.skipped == 0, "step {}: {:?}", step, stats);
                    prop_assert_eq!(reopened.catalog_digest(), twin.catalog_digest(), "step {}", step);
                    prop_assert_eq!(reopened.all(), twin.all(), "step {}", step);
                }
                _ => {
                    durable.crash(u64::from(a));
                    prop_assert!(durable.is_empty());
                    durable.recover();
                }
            }
            if (2..5).contains(&kind) {
                touched.insert(id.0 as usize / N);
            }
            prop_assert_eq!(durable.catalog_digest(), twin.catalog_digest(), "step {}", step);
            prop_assert_eq!(durable.all(), twin.all(), "step {}", step);
            for pred in &preds {
                prop_assert_eq!(durable.query(pred), twin.query(pred), "step {} pred {:?}", step, pred);
            }
        }
    }

    /// `insert_batch` is the sequence of `insert`s it replaces: the same
    /// list — holding a schema-invalid document mid-batch, a name the
    /// catalog already has and a name repeated within the batch, besides
    /// whatever collisions the small name range produces — gives the
    /// same per-item results and ids, the same catalog, the same WAL
    /// bytes and the same query answers, before and after a crash.
    #[test]
    fn insert_batch_equals_sequential_inserts(
        rows in prop::collection::vec((0u32..40, 0i64..20, 0u32..1000), 3..120),
        chunk in 1usize..64,
        crash_seed in any::<u64>(),
    ) {
        let mut items: Vec<NewDataset> = rows
            .iter()
            .map(|(name, run, e)| dataset(&format!("r{name}"), 1, doc(*run, *e as f64, "main")))
            .collect();
        let mid = items.len() / 2;
        items.insert(mid, dataset("invalid", 1, Document::new()));
        items.insert(mid, dataset("preloaded", 1, doc(1, 1.0, "veto")));
        items.insert(mid, dataset("twice", 1, doc(2, 2.0, "veto")));
        items.push(dataset("twice", 1, doc(3, 3.0, "monitor")));

        let (batched, batched_disk) = durable_store();
        let (serial, serial_disk) = durable_store();
        for store in [&batched, &serial] {
            store.insert(dataset("preloaded", 1, doc(0, 0.0, "main"))).unwrap();
        }
        let batch_results: Vec<_> = items
            .chunks(chunk)
            .flat_map(|c| batched.insert_batch(c.to_vec()))
            .collect();
        let serial_results: Vec<_> = items.iter().map(|d| serial.insert(d.clone())).collect();
        prop_assert_eq!(&batch_results, &serial_results);
        prop_assert!(matches!(batch_results[mid + 2], Err(MetadataError::Schema(_))));
        prop_assert_eq!(
            &batch_results[mid + 1],
            &Err(MetadataError::DuplicateName("preloaded".into()))
        );
        prop_assert!(batch_results[mid].is_ok());
        prop_assert_eq!(
            batch_results.last(),
            Some(&Err(MetadataError::DuplicateName("twice".into())))
        );

        let wal = |disk: &DurableStore| disk.get("meta-t-wal-00000000").map(|d| d.read());
        prop_assert_eq!(wal(&batched_disk), wal(&serial_disk));
        let preds = [eq("run", 2i64), ge("energy", 500.0), eq("detector", "veto")];
        let digest = serial.catalog_digest();
        for crashed in [false, true] {
            if crashed {
                for store in [&batched, &serial] {
                    store.crash(crash_seed);
                    store.recover();
                }
            }
            prop_assert_eq!(&batched.catalog_digest(), &digest, "crashed: {}", crashed);
            prop_assert_eq!(&serial.catalog_digest(), &digest, "crashed: {}", crashed);
            prop_assert_eq!(batched.all(), serial.all());
            for pred in &preds {
                prop_assert_eq!(batched.query(pred), serial.query(pred), "pred {:?}", pred);
            }
        }
    }

    /// For random data and random predicates, the index-assisted query path
    /// returns exactly the records the brute-force `matches()` scan does.
    #[test]
    fn indexed_query_equals_full_scan(
        rows in prop::collection::vec((0i64..20, energy(), 0usize..3), 1..200),
        q_run in 0i64..20,
        q_energy in energy(),
    ) {
        let store = ProjectStore::new(schema("t"));
        for (i, (run, e, d)) in rows.iter().enumerate() {
            let detector = ["main", "veto", "monitor"][*d];
            store
                .insert(dataset(&format!("r{i}"), 1, doc(*run, *e, detector)))
                .unwrap();
        }
        let preds: Vec<Predicate> = vec![
            eq("run", q_run),
            eq("energy", q_energy),
            eq("energy", 0.0),
            le("energy", -0.0),
            ge("energy", q_energy),
            lt("energy", q_energy),
            eq("run", q_run).and(ge("energy", q_energy)),
            eq("run", q_run).or(eq("detector", "veto")),
            eq("detector", "main").and(lt("energy", q_energy)),
            eq("run", q_run).not(),
        ];
        for pred in &preds {
            let via_engine: Vec<u64> = store.query(pred).iter().map(|r| r.id.0).collect();
            let via_scan: Vec<u64> = store
                .all()
                .iter()
                .filter(|r| pred.matches(r))
                .map(|r| r.id.0)
                .collect();
            prop_assert_eq!(&via_engine, &via_scan, "pred {:?}", pred);
        }
    }

    /// The planner answers only what its index holds exactly and
    /// re-checks the rest. Random nests of `And`, `Or` and `Not` over
    /// every leaf form, on indexed fields, on an unindexed copy and on
    /// tags, return exactly the records a scan with `matches()` does, in
    /// id order; and "this run, within this range" examines no more
    /// records than the run has, whichever side the range is written on
    /// and however much of the catalog it spans.
    #[test]
    fn planned_queries_equal_a_scan_and_examine_the_cheaper_side(
        rows in prop::collection::vec((0i64..12, energy(), 0usize..3, 0u8..4), 1..200),
        program in prop::collection::vec((0u8..16, 0i64..12, energy()), 1..24),
    ) {
        let schema = SchemaBuilder::new("t")
            .required("run", FieldType::Int)
            .indexed()
            .required("energy", FieldType::Float)
            .indexed()
            .required("energy_copy", FieldType::Float)
            .required("detector", FieldType::Str)
            .build()
            .unwrap();
        let store = ProjectStore::new(schema);
        let tags = ["raw", "qa-passed"];
        for (i, (run, e, d, tagged)) in rows.iter().enumerate() {
            let mut basic = doc(*run, *e, ["main", "veto", "monitor"][*d]);
            basic.insert("energy_copy".to_string(), Value::Float(*e));
            let id = store.insert(dataset(&format!("r{i}"), 1, basic)).unwrap();
            for (bit, tag) in tags.iter().enumerate() {
                if tagged >> bit & 1 == 1 {
                    store.tag(id, tag).unwrap();
                }
            }
        }
        // A postfix program: leaves push, combinators pop what is there.
        let range = |form: u8, field: &str, e: f64| [lt, le, gt, ge][usize::from(form % 4)](field, e);
        let mut stack: Vec<Predicate> = Vec::new();
        for &(op, run, e) in &program {
            let leaf = match op {
                0 => eq("run", run),
                1 => eq("energy", e),
                2 | 3 => range(run as u8, "energy", e),
                4 => range(run as u8, "energy_copy", e),
                // An int field against a float bound: never a match,
                // and an open range over keys of another type.
                5 => range(run as u8, "run", e),
                6 => has_tag(tags[run as usize % 2]),
                7 => contains("detector", ["ai", "o", "et"][run as usize % 3]),
                8 => eq("detector", "veto"),
                // Where an indexed equality must not be read as exact
                // or must find nothing: a NaN (no stored key is one),
                // a float on an int field, a field the schema lacks,
                // and the negation.
                9 if run % 2 == 0 => eq("energy", f64::NAN),
                9 => ge("energy", f64::NAN),
                10 => eq("run", 2.0),
                11 if run % 2 == 0 => eq("nope", run),
                11 => ne("run", run),
                _ => match (op, stack.pop(), stack.pop()) {
                    (12 | 13, Some(b), Some(a)) => a.and(b),
                    (14, Some(b), Some(a)) => a.or(b),
                    (_, Some(a), rest) => {
                        stack.extend(rest);
                        a.not()
                    }
                    _ => Predicate::All,
                },
            };
            stack.push(leaf);
        }
        let all = store.all();
        let scan = |pred: &Predicate| -> Vec<u64> {
            all.iter().filter(|r| pred.matches(r)).map(|r| r.id.0).collect()
        };
        while let Some(pred) = stack.pop() {
            let via_engine: Vec<u64> = store.query(&pred).iter().map(|r| r.id.0).collect();
            prop_assert_eq!(via_engine, scan(&pred), "pred {:?}", pred);
        }
        for &(form, run, e) in &program {
            let in_run = scan(&eq("run", run)).len() as u64;
            let within = range(form, "energy", e);
            for pred in [eq("run", run).and(within.clone()), within.clone().and(eq("run", run))] {
                let (_, before) = store.query_stats();
                let hits = store.query(&pred).len();
                let examined = store.query_stats().1 - before;
                prop_assert!(examined <= in_run, "{} of {} examined for {:?}", examined, in_run, pred);
                prop_assert_eq!(hits, scan(&pred).len(), "pred {:?}", pred);
            }
        }
    }

    /// Tag/untag sequences keep the tag index consistent with record state.
    #[test]
    fn tag_index_matches_records(ops in prop::collection::vec((0u64..30, 0usize..3, any::<bool>()), 1..150)) {
        let store = ProjectStore::new(schema("t"));
        for i in 0..30 {
            store.insert(dataset(&format!("r{i}"), 1, doc(i, 0.0, "main"))).unwrap();
        }
        let tags = ["raw", "qa-passed", "archived"];
        for (id, tag_i, add) in ops {
            let tag = tags[tag_i];
            if add {
                store.tag(lsdf_metadata::DatasetId(id), tag).unwrap();
            } else {
                store.untag(lsdf_metadata::DatasetId(id), tag).unwrap();
            }
        }
        for tag in tags {
            let via_index: std::collections::BTreeSet<u64> =
                store.ids_with_tag(tag).iter().map(|i| i.0).collect();
            let via_scan: std::collections::BTreeSet<u64> = store
                .all()
                .iter()
                .filter(|r| r.has_tag(tag))
                .map(|r| r.id.0)
                .collect();
            prop_assert_eq!(via_index, via_scan, "tag {}", tag);
        }
        // Tag queries agree too.
        for tag in tags {
            let q = store.query(&has_tag(tag)).len();
            prop_assert_eq!(q, store.ids_with_tag(tag).len());
        }
    }

    /// Unified catalog and federation return the same hit multiset for the
    /// same data, and the unified catalog never contacts more than one
    /// store.
    #[test]
    fn unified_equals_federation(
        per_project in prop::collection::vec(prop::collection::vec((0i64..10, 0u32..100), 0..30), 1..6),
        q_run in 0i64..10,
    ) {
        let schemas: Vec<_> = (0..per_project.len())
            .map(|i| schema(&format!("p{i}")))
            .collect();
        let unified = UnifiedCatalog::new(&schemas).unwrap();
        let mut fed = Federation::new();
        for (pi, rows) in per_project.iter().enumerate() {
            let store = Arc::new(ProjectStore::new(schemas[pi].clone()));
            for (ri, (run, e)) in rows.iter().enumerate() {
                let d = dataset(&format!("r{ri}"), 1, doc(*run, *e as f64, "main"));
                store.insert(d.clone()).unwrap();
                unified.insert(&format!("p{pi}"), d).unwrap();
            }
            fed.add(store);
        }
        let pred = eq("run", q_run);
        let u = unified.cross_query(&pred);
        let f = fed.cross_query(&pred);
        prop_assert_eq!(u.hits.len(), f.hits.len());
        let mut u_names: Vec<String> = u
            .hits
            .iter()
            .map(|(p, r)| format!("{p}/{}", r.name.rsplit('/').next().unwrap()))
            .collect();
        let mut f_names: Vec<String> = f
            .hits
            .iter()
            .map(|(p, r)| format!("{p}/{}", r.name))
            .collect();
        u_names.sort();
        f_names.sort();
        prop_assert_eq!(u_names, f_names);
        prop_assert_eq!(u.stores_contacted, 1);
        prop_assert_eq!(f.stores_contacted, per_project.len());
    }

    /// WORM: after insert, basic metadata can never be changed, regardless
    /// of what the caller supplies.
    #[test]
    fn worm_always_holds(run in 0i64..100, attempts in 1usize..5) {
        let store = ProjectStore::new(schema("t"));
        let id = store.insert(dataset("d", 1, doc(run, 1.0, "main"))).unwrap();
        let before = store.get(id).unwrap().basic.clone();
        for i in 0..attempts {
            let res = store.update_basic(id, doc(run + i as i64 + 1, 2.0, "veto"));
            prop_assert!(res.is_err());
        }
        prop_assert_eq!(store.get(id).unwrap().basic, before);
    }
}
