//! Dataset records: the paper's slide-8 data model.
//!
//! Each experiment dataset has **write-once basic metadata** plus any
//! number of appended **processing-result metadata sets** ("METADATA 1..N"
//! in the paper's diagram: basic metadata + processing X parameters +
//! results X). Tags drive the workflow-trigger mechanism of slide 12.

use std::collections::BTreeSet;


use crate::schema::{Document, Fields};

/// Identifies a dataset within one project store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(pub u64);

/// One processing run's metadata, appended to a dataset after a workflow
/// or analysis job completes.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingResult {
    /// Name of the processing step (e.g. `"segmentation-v2"`).
    pub step: String,
    /// Parameters the step ran with.
    pub params: Document,
    /// Result metadata produced by the step.
    pub results: Document,
    /// Storage keys of derived data products written by the step.
    pub derived_keys: Vec<String>,
    /// Monotone sequence number within the dataset (1-based).
    pub seq: u32,
}

/// A dataset record: WORM basic metadata + appended processing results.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetRecord {
    /// Record id within the project store.
    pub id: DatasetId,
    /// Unique dataset name (usually the primary storage key).
    pub name: String,
    /// Storage location (ADAL path) of the primary data object.
    pub location: String,
    /// Payload size in bytes.
    pub size_bytes: u64,
    /// Hex SHA-256 of the payload (empty when unknown).
    pub checksum_hex: String,
    /// Write-once experiment metadata, schema-validated at insert and
    /// held in the schema's shape.
    pub basic: Fields,
    /// Appended processing-result sets (the paper's METADATA 1..N).
    pub processing: Vec<ProcessingResult>,
    /// Free-form tags; drive workflow triggering.
    pub tags: BTreeSet<String>,
}

impl DatasetRecord {
    /// The latest processing result for a given step name, if any.
    pub fn latest_processing(&self, step: &str) -> Option<&ProcessingResult> {
        self.processing.iter().rev().find(|p| p.step == step)
    }

    /// True if the record carries the tag.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.contains(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::Value;

    fn record() -> DatasetRecord {
        DatasetRecord {
            id: DatasetId(1),
            name: "img-001".into(),
            location: "lsdf://zebrafish/raw/img-001".into(),
            size_bytes: 4_000_000,
            checksum_hex: String::new(),
            basic: SchemaBuilder::new("t").build().unwrap().shape(Document::new()).unwrap(),
            processing: vec![
                ProcessingResult {
                    step: "segmentation".into(),
                    params: Document::new(),
                    results: [("cells".to_string(), Value::Int(120))].into_iter().collect(),
                    derived_keys: vec![],
                    seq: 1,
                },
                ProcessingResult {
                    step: "segmentation".into(),
                    params: Document::new(),
                    results: [("cells".to_string(), Value::Int(131))].into_iter().collect(),
                    derived_keys: vec![],
                    seq: 2,
                },
            ],
            tags: ["raw".to_string()].into_iter().collect(),
        }
    }

    #[test]
    fn latest_processing_picks_highest_seq() {
        let r = record();
        let p = r.latest_processing("segmentation").unwrap();
        assert_eq!(p.seq, 2);
        assert_eq!(p.results.get("cells"), Some(&Value::Int(131)));
        assert!(r.latest_processing("missing").is_none());
    }

    #[test]
    fn tags_query() {
        let r = record();
        assert!(r.has_tag("raw"));
        assert!(!r.has_tag("processed"));
    }
}
