//! The DataBrowser: the end-user tool for "exploring and managing the
//! LSDF data" (paper, slide 9) — browse the namespace, query the metadata
//! repository, fetch payloads, tag datasets (which triggers workflows,
//! slide 12), and audit findability (experiment E14).

use std::sync::Arc;

use bytes::Bytes;

use lsdf_adal::Credential;
use lsdf_metadata::{DatasetId, DatasetRecord, Predicate};

use crate::error::FacilityError;
use crate::facility::Facility;

/// A browsing session bound to a credential.
pub struct DataBrowser<'a> {
    facility: &'a Facility,
    cred: Credential,
}

/// Findability audit result (experiment E14).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FindabilityReport {
    /// Objects present in storage.
    pub stored_objects: usize,
    /// Objects discoverable through metadata queries.
    pub findable: usize,
    /// Objects with bytes but no catalog entry — "lost data".
    pub invisible: usize,
}

impl<'a> DataBrowser<'a> {
    /// Opens a browser session.
    pub fn new(facility: &'a Facility, cred: Credential) -> Self {
        DataBrowser { facility, cred }
    }

    /// Lists storage keys under a prefix.
    pub fn list(&self, project: &str, prefix: &str) -> Result<Vec<String>, FacilityError> {
        let path = format!("lsdf://{project}/{prefix}");
        Ok(self
            .facility
            .adal()
            .list(&self.cred, &path)?
            .into_iter()
            .map(|m| m.key)
            .collect())
    }

    /// Runs a metadata query.
    pub fn query(
        &self,
        project: &str,
        pred: &Predicate,
    ) -> Result<Vec<Arc<DatasetRecord>>, FacilityError> {
        Ok(self.facility.store(project)?.query(pred))
    }

    /// Fetches a dataset's payload via its catalog location.
    pub fn fetch(&self, project: &str, id: DatasetId) -> Result<Bytes, FacilityError> {
        let rec = self.facility.store(project)?.get(id)?;
        Ok(self.facility.adal().get(&self.cred, &rec.location())?)
    }

    /// Tags a dataset (may trigger workflows via the project's
    /// [`lsdf_workflow::TriggerEngine`]).
    pub fn tag(&self, project: &str, id: DatasetId, tag: &str) -> Result<(), FacilityError> {
        self.facility.store(project)?.tag(id, tag)?;
        Ok(())
    }

    /// Tags every dataset matching a query; returns how many were tagged.
    /// This is the slide-12 gesture: select in the browser, tag, and let
    /// the trigger engine process the selection.
    pub fn tag_matching(
        &self,
        project: &str,
        pred: &Predicate,
        tag: &str,
    ) -> Result<usize, FacilityError> {
        let store = self.facility.store(project)?;
        let hits = store.query(pred);
        for rec in &hits {
            store.tag(rec.id, tag)?;
        }
        Ok(hits.len())
    }

    /// Exports query results as a JSON array — the interchange the
    /// DataBrowser's planned web GUI consumes (slide 9).
    pub fn export_json(
        &self,
        project: &str,
        pred: &Predicate,
    ) -> Result<String, FacilityError> {
        let hits = self.query(project, pred)?;
        Ok(lsdf_metadata::export::records_to_json(&hits))
    }

    /// Audits findability: compares storage contents against catalog
    /// entries. Data without metadata is invisible to every query — the
    /// paper's "lost data".
    pub fn findability(&self, project: &str) -> Result<FindabilityReport, FacilityError> {
        let stored = self.list(project, "")?;
        let store = self.facility.store(project)?;
        let findable = stored
            .iter()
            .filter(|k| store.get_by_name(k).is_some())
            .count();
        Ok(FindabilityReport {
            stored_objects: stored.len(),
            findable,
            invisible: stored.len() - findable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facility::{BackendChoice, ProjectSpec};
    use crate::ingest::{IngestItem, IngestPolicy};
    use lsdf_metadata::query::{eq, has_tag};
    use lsdf_metadata::zebrafish_schema;
    use lsdf_workloads::microscopy::HtmGenerator;

    fn facility_with_data(n_fish: usize) -> Facility {
        let f = Facility::builder()
            .tenant(ProjectSpec::new(
                zebrafish_schema(),
                BackendChoice::ObjectStore { capacity: u64::MAX },
            ))
            .build()
            .unwrap();
        let admin = f.admin().clone();
        let mut gen = HtmGenerator::new(2, 32);
        for _ in 0..n_fish {
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
                .unwrap();
            }
        }
        f
    }

    #[test]
    fn browse_query_fetch_roundtrip() {
        let f = facility_with_data(2);
        let b = DataBrowser::new(&f, f.admin().clone());
        let keys = b.list("zebrafish-htm", "raw/fish000000/").unwrap();
        assert_eq!(keys.len(), 24);
        let hits = b.query("zebrafish-htm", &eq("fish_id", 1i64)).unwrap();
        assert_eq!(hits.len(), 24);
        let payload = b.fetch("zebrafish-htm", hits[0].id).unwrap();
        assert!(payload.len() > 16);
    }

    #[test]
    fn tag_matching_selects_by_query() {
        let f = facility_with_data(3);
        let b = DataBrowser::new(&f, f.admin().clone());
        let held = b.query("zebrafish-htm", &eq("wavelength_nm", 488.0)).unwrap();
        let n = b
            .tag_matching(
                "zebrafish-htm",
                &eq("wavelength_nm", 488.0),
                "needs-segmentation",
            )
            .unwrap();
        assert_eq!(n, 24); // 3 fish x 8 images at 488nm
        let tagged = b
            .query("zebrafish-htm", &has_tag("needs-segmentation"))
            .unwrap();
        assert_eq!(tagged.len(), 24);
        // Every hit was tagged in the catalog, under the handles this
        // test and `tag_matching` itself held: those stay as they were read.
        assert!(tagged.iter().zip(&held).all(|(now, then)| now.id == then.id && !Arc::ptr_eq(now, then)));
        assert!(held.iter().all(|r| r.tags.is_empty()));
    }

    #[test]
    fn export_json_is_valid_shape() {
        let f = facility_with_data(1);
        let b = DataBrowser::new(&f, f.admin().clone());
        let json = b
            .export_json("zebrafish-htm", &eq("fish_id", 0i64))
            .unwrap();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches("\"checksum\"").count(), 24);
        assert!(json.contains("\"wavelength_nm\":488.0"));
        // Byte for byte what the owned-record export of PR 19 wrote.
        assert_eq!(
            (json.len(), lsdf_storage::sha256(json.as_bytes()).to_hex().as_str()),
            (8166, "949d6ad565e28f76bb84390e47fb727306ae40d32fc3a71751e81e6888bb7f2c")
        );
    }

    #[test]
    fn findability_flags_invisible_data() {
        let f = facility_with_data(1);
        let admin = f.admin().clone();
        // Sneak two objects in without metadata.
        for i in 0..2 {
            f.ingest(
                &admin,
                IngestItem {
                    project: "zebrafish-htm".into(),
                    key: format!("raw/orphan{i}"),
                    data: Bytes::from_static(b"???"),
                    metadata: None,
                },
                IngestPolicy {
                    enforce_metadata: false,
                },
            )
            .unwrap();
        }
        let b = DataBrowser::new(&f, admin);
        let report = b.findability("zebrafish-htm").unwrap();
        assert_eq!(report.stored_objects, 26);
        assert_eq!(report.findable, 24);
        assert_eq!(report.invisible, 2);
    }

    #[test]
    fn unauthorized_browser_cannot_fetch() {
        let f = facility_with_data(1);
        f.register_user("visitor", "eve");
        let b = DataBrowser::new(&f, Credential::Token("visitor".into()));
        // Metadata query works (store-level, no ACL on queries in-process)
        // but payload fetch is denied.
        let hits = b.query("zebrafish-htm", &eq("fish_id", 0i64)).unwrap();
        assert!(matches!(
            b.fetch("zebrafish-htm", hits[0].id),
            Err(FacilityError::Adal(_))
        ));
        assert!(matches!(b.list("zebrafish-htm", ""), Err(FacilityError::Adal(_))));
    }
}
