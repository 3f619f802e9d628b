//! Property tests: the object store against a map model, its byte
//! accounting, and the HSM "never loses an object" invariant.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use lsdf_obs::TraceCtx;
use lsdf_storage::{sha256, Hsm, MigrationPolicy, ObjectId, ObjectMeta, ObjectStore, StoreError, Tier};
use proptest::prelude::*;

proptest! {
    /// used() always equals the sum of live object sizes, across an
    /// arbitrary interleaving of puts and deletes.
    #[test]
    fn store_accounting_is_exact(ops in prop::collection::vec((0u8..2, 0usize..30, 1usize..200), 1..120)) {
        let store = ObjectStore::new("t", u64::MAX);
        let mut live: std::collections::HashMap<String, u64> = Default::default();
        for (op, keyi, size) in ops {
            let key = format!("k{keyi}");
            if op == 0 {
                let res = store.put(&key, Bytes::from(vec![1u8; size]));
                match live.entry(key.clone()) {
                    std::collections::hash_map::Entry::Occupied(_) => {
                        prop_assert!(res.is_err(), "WORM violated for {key}");
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        prop_assert!(res.is_ok());
                        v.insert(size as u64);
                    }
                }
            } else {
                let res = store.delete(&key);
                if live.remove(&key).is_some() {
                    prop_assert!(res.is_ok());
                } else {
                    prop_assert!(res.is_err());
                }
            }
        }
        prop_assert_eq!(store.used(), live.values().sum::<u64>());
        prop_assert_eq!(store.len(), live.len());
    }

    /// The object store answers every op as a plain ordered map of
    /// metadata and bytes would: puts of taken keys and puts past
    /// capacity are refused (a taken key first) and consume no id, ids
    /// are handed out in order, and `used()` is the live bytes.
    #[test]
    fn object_store_answers_like_a_map(
        capacity in prop_oneof![Just(u64::MAX), 0u64..600],
        ops in prop::collection::vec((0u8..5, 0usize..12, 0usize..150), 1..80),
    ) {
        let store = ObjectStore::new("t", capacity);
        let mut model: BTreeMap<String, (ObjectMeta, Bytes)> = BTreeMap::new();
        let mut next_id = 0;
        for (op, keyi, size) in ops {
            // Keys and prefixes that nest: "a/1" lies under "a", "a/"
            // and "a/1", "ab/1" under "a" only.
            let key = format!("{}/{}", ["a", "ab", "b"][keyi % 3], keyi / 3);
            let used = model.values().map(|(m, _)| m.size).sum::<u64>();
            match op {
                0 => {
                    let data = Bytes::from(vec![keyi as u8; size]);
                    let want = if model.contains_key(&key) {
                        Err(StoreError::AlreadyExists(key.clone()))
                    } else if size as u64 > capacity - used {
                        Err(StoreError::CapacityExceeded { requested: size as u64, free: capacity - used })
                    } else {
                        let meta = ObjectMeta { id: ObjectId(next_id), key: key.clone(), size: size as u64, digest: sha256(&data) };
                        next_id += 1;
                        model.insert(key.clone(), (meta.clone(), data.clone()));
                        Ok(meta)
                    };
                    prop_assert_eq!(store.put(&key, data), want);
                }
                1 => {
                    let want = model.get(&key).map(|(_, d)| d.clone()).ok_or(StoreError::NotFound(key.clone()));
                    prop_assert_eq!(store.get(&key).map(|p| p.into_bytes()), want);
                }
                2 => {
                    let want = model.get(&key).map(|(m, _)| m.clone()).ok_or(StoreError::NotFound(key.clone()));
                    prop_assert_eq!(store.stat(&key), want);
                }
                3 => {
                    let want = model.remove(&key).map(|(m, _)| m).ok_or(StoreError::NotFound(key.clone()));
                    prop_assert_eq!(store.delete(&key), want);
                }
                _ => {
                    for prefix in ["", "a", "a/", "ab/", "b/1", key.as_str()] {
                        let want: Vec<ObjectMeta> = model
                            .range(prefix.to_string()..)
                            .take_while(|(k, _)| k.starts_with(prefix))
                            .map(|(_, (m, _))| m.clone())
                            .collect();
                        prop_assert_eq!(store.list(prefix), want, "prefix {:?}", prefix);
                    }
                }
            }
            prop_assert_eq!(store.used(), model.values().map(|(m, _)| m.size).sum::<u64>());
            prop_assert_eq!(store.len(), model.len());
        }
    }

    /// After arbitrary put/read/migrate sequences, every ingested object is
    /// still readable with its original content, and tier states match the
    /// two stores' contents.
    #[test]
    fn hsm_never_loses_objects(
        sizes in prop::collection::vec(1usize..120, 1..40),
        reads in prop::collection::vec(0usize..40, 0..40),
        policy_idx in 0usize..3,
        migrate_every in 1usize..10,
    ) {
        let policy = [
            MigrationPolicy::OldestFirst,
            MigrationPolicy::LeastRecentlyUsed,
            MigrationPolicy::LargestFirst,
        ][policy_idx];
        let disk = Arc::new(ObjectStore::new("disk", 2_000));
        let tape = Arc::new(ObjectStore::new("tape", u64::MAX));
        let hsm = Hsm::new(disk.clone(), tape.clone(), 0.4, 0.7, policy);

        for (i, &sz) in sizes.iter().enumerate() {
            hsm.put(&format!("o{i}"), Bytes::from(vec![(i % 251) as u8; sz])).unwrap();
            if i % migrate_every == 0 {
                hsm.run_migration().unwrap();
            }
            if let Some(&r) = reads.get(i) {
                let key = format!("o{}", r % (i + 1));
                let data = hsm.get(&TraceCtx::disabled(), &key).unwrap();
                prop_assert_eq!(data.len(), sizes[r % (i + 1)]);
            }
        }
        hsm.run_migration().unwrap();
        // Full audit: content intact, tier bookkeeping consistent.
        for (i, &sz) in sizes.iter().enumerate() {
            let key = format!("o{i}");
            let tier = hsm.tier_of(&key).unwrap();
            match tier {
                Tier::Disk => prop_assert!(disk.contains(&key) && !tape.contains(&key)),
                Tier::Tape => prop_assert!(tape.contains(&key) && !disk.contains(&key)),
            }
            let data = hsm.get(&TraceCtx::disabled(), &key).unwrap();
            prop_assert_eq!(data, Bytes::from(vec![(i % 251) as u8; sz]));
        }
    }
}
