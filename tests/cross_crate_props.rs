//! Cross-crate property tests: invariants that only hold when several
//! subsystems compose correctly.

use lsdf_core::{BackendChoice, DataBrowser, Facility, IngestItem, IngestPolicy, ProjectSpec};
use lsdf_metadata::query::eq;
use lsdf_metadata::{zebrafish_schema, Value};
use lsdf_storage::sha256;
use lsdf_workloads::microscopy::{HtmGenerator, Image};
use proptest::prelude::*;

fn facility() -> Facility {
    Facility::builder()
        .tenant(ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .build()
        .expect("facility assembles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ingest → catalog → fetch preserves every byte and every checksum,
    /// for arbitrary mixes of fish and seeds.
    #[test]
    fn ingest_fetch_integrity(seed in any::<u64>(), n_fish in 1usize..4) {
        let f = facility();
        let admin = f.admin().clone();
        let mut gen = HtmGenerator::new(seed, 32);
        let mut originals = Vec::new();
        for _ in 0..n_fish {
            for (acq, img) in gen.next_fish() {
                let data = img.encode();
                originals.push((acq.key(), data.clone()));
                f.ingest(
                    &admin,
                    IngestItem {
                        project: "zebrafish-htm".into(),
                        key: acq.key(),
                        data,
                        metadata: Some(acq.document()),
                    },
                    IngestPolicy::default(),
                )
                .expect("ingest");
            }
        }
        let store = f.store("zebrafish-htm").expect("project");
        let browser = DataBrowser::new(&f, admin.clone());
        prop_assert_eq!(store.len(), originals.len());
        for (key, data) in &originals {
            let rec = store.get_by_name(key).expect("catalogued");
            prop_assert_eq!(rec.size_bytes, data.len() as u64);
            prop_assert_eq!(&rec.checksum_hex, &sha256(data).to_hex());
            let fetched = browser.fetch("zebrafish-htm", rec.id).expect("fetch");
            prop_assert_eq!(&fetched, data);
            // The payload still decodes as an image after the round trip.
            prop_assert!(Image::decode(&fetched).is_some());
        }
    }

    /// Catalog counts equal generator counts for every queryable
    /// dimension (fish, wavelength, focus) — metadata and payload agree.
    #[test]
    fn catalog_marginals_match_generator(seed in any::<u64>()) {
        let f = facility();
        let admin = f.admin().clone();
        let mut gen = HtmGenerator::new(seed, 32);
        for _ in 0..3 {
            for (acq, img) in gen.next_fish() {
                f.ingest(
                    &admin,
                    IngestItem {
                        project: "zebrafish-htm".into(),
                        key: acq.key(),
                        data: img.encode(),
                        metadata: Some(acq.document()),
                    },
                    IngestPolicy::default(),
                )
                .expect("ingest");
            }
        }
        let store = f.store("zebrafish-htm").expect("project");
        for fish in 0..3i64 {
            prop_assert_eq!(store.query(&eq("fish_id", fish)).len(), 24);
        }
        for wl in [405.0, 488.0, 561.0] {
            prop_assert_eq!(store.query(&eq("wavelength_nm", wl)).len(), 24);
        }
        for focus in 0..8 {
            prop_assert_eq!(
                store.query(&eq("focus_um", f64::from(focus) * 5.0)).len(),
                9
            );
        }
        prop_assert_eq!(store.total_bytes(), 72 * (16 + 32 * 32) as u128);
    }

    /// Processing results accumulate monotonically and never disturb the
    /// WORM basic metadata, whatever the append order.
    #[test]
    fn processing_appends_preserve_worm(order in prop::collection::vec(0usize..24, 1..40)) {
        let f = facility();
        let admin = f.admin().clone();
        let mut gen = HtmGenerator::new(1, 32);
        let mut ids = Vec::new();
        for (acq, img) in gen.next_fish() {
            let id = f
                .ingest(
                    &admin,
                    IngestItem {
                        project: "zebrafish-htm".into(),
                        key: acq.key(),
                        data: img.encode(),
                        metadata: Some(acq.document()),
                    },
                    IngestPolicy::default(),
                )
                .expect("ingest")
                .expect("registered");
            ids.push(id);
        }
        let store = f.store("zebrafish-htm").expect("project");
        let before: Vec<_> = ids.iter().map(|&id| store.get(id).unwrap().basic.clone()).collect();
        for (step_no, &which) in order.iter().enumerate() {
            store
                .append_processing(
                    ids[which],
                    "reproc",
                    Default::default(),
                    [("pass".to_string(), Value::Int(step_no as i64))]
                        .into_iter()
                        .collect(),
                    vec![],
                )
                .expect("append");
        }
        for (i, &id) in ids.iter().enumerate() {
            let rec = store.get(id).unwrap();
            prop_assert_eq!(&rec.basic, &before[i], "WORM violated");
            let expected = order.iter().filter(|&&w| w == i).count();
            prop_assert_eq!(rec.processing.len(), expected);
            // Sequence numbers are 1..=n in order.
            for (j, p) in rec.processing.iter().enumerate() {
                prop_assert_eq!(p.seq as usize, j + 1);
            }
        }
    }
}
