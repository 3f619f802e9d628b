//! Dataset records: the paper's slide-8 data model.
//!
//! Each experiment dataset has **write-once basic metadata** plus any
//! number of appended **processing-result metadata sets** ("METADATA 1..N"
//! in the paper's diagram: basic metadata + processing X parameters +
//! results X). Tags drive the workflow-trigger mechanism of slide 12.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use lsdf_storage::Digest;

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
    /// Storage location (ADAL path) of the primary data object; read it
    /// with [`DatasetRecord::location`].
    pub(crate) location: Location,
    /// Payload size in bytes.
    pub size_bytes: u64,
    /// Hex SHA-256 of the payload (empty when unknown), as registered.
    pub checksum_hex: Checksum,
    /// Write-once experiment metadata, schema-validated at insert and
    /// held in the schema's shape.
    pub basic: Fields,
    /// Appended processing-result sets (the paper's METADATA 1..N).
    pub processing: Vec<ProcessingResult>,
    /// Free-form tags; drive workflow triggering.
    pub tags: BTreeSet<String>,
}

impl DatasetRecord {
    /// Storage location (ADAL path) of the primary data object, as
    /// registered. A location the store derives from the name is
    /// spelled out here, the one read that allocates.
    pub fn location(&self) -> Cow<'_, str> {
        match self.location.parts(&self.name) {
            (whole, "") => Cow::Borrowed(whole),
            (prefix, name) => Cow::Owned([prefix, name].concat()),
        }
    }

    /// The latest processing result for a given step name, if any.
    pub fn latest_processing(&self, step: &str) -> Option<&ProcessingResult> {
        self.processing.iter().rev().find(|p| p.step == step)
    }

    /// True if the record carries the tag.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.contains(tag)
    }
}

/// Where a record's payload is. Everything the facility ingests is at
/// `lsdf://{project}/{name}`, so a record there holds only its store's
/// one shared prefix; any other location is held as given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Location {
    /// The store's prefix followed by the record's name.
    Derived(Arc<str>),
    /// Any other text, kept as registered.
    Given(String),
}

impl Location {
    /// The location `given` names for a record called `name` in a store
    /// whose records live under `prefix`: `Derived` exactly when it is
    /// that prefix followed by the name, so one location has one form.
    pub(crate) fn of(prefix: &Arc<str>, name: &str, given: String) -> Location {
        match given.strip_prefix(&**prefix) == Some(name) {
            true => Location::Derived(Arc::clone(prefix)),
            false => Location::Given(given),
        }
    }

    /// The location's text as two slices, its concatenation: a derived
    /// one is its prefix and `name`, a given one its text and `""`.
    pub(crate) fn parts<'a>(&'a self, name: &'a str) -> (&'a str, &'a str) {
        match self {
            Location::Derived(prefix) => (prefix, name),
            Location::Given(text) => (text, ""),
        }
    }
}

/// A payload's checksum as registered. What ingest registers, a
/// SHA-256 in the 64 lowercase hex digits [`Digest::to_hex`] writes, is
/// held as its 32 bytes; no checksum as nothing; any other text as
/// given. It reads back, [`fmt::Display`]s and compares as the text it
/// was registered as, so the three forms are one text each: 64
/// lowercase digits are always held as bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checksum(pub(crate) ChecksumRepr);

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) enum ChecksumRepr {
    /// Registered empty: the checksum is unknown.
    #[default]
    Absent,
    /// A SHA-256 registered as 64 lowercase hex digits.
    Sha256(Digest),
    /// Any other text, kept as registered.
    Text(String),
}

impl From<String> for Checksum {
    fn from(text: String) -> Checksum {
        Checksum(match Digest::from_hex(&text) {
            Some(d) => ChecksumRepr::Sha256(d),
            None if text.is_empty() => ChecksumRepr::Absent,
            None => ChecksumRepr::Text(text),
        })
    }
}

impl fmt::Display for Checksum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            ChecksumRepr::Absent => Ok(()),
            ChecksumRepr::Sha256(d) => f.write_str(std::str::from_utf8(&d.hex_digits()).map_err(|_| fmt::Error)?),
            ChecksumRepr::Text(text) => f.write_str(text),
        }
    }
}

impl PartialEq<str> for Checksum {
    fn eq(&self, text: &str) -> bool {
        match &self.0 {
            ChecksumRepr::Absent => text.is_empty(),
            // `from_hex` reads lowercase digits only, one text a digest.
            ChecksumRepr::Sha256(d) => Digest::from_hex(text) == Some(*d),
            ChecksumRepr::Text(given) => given == text,
        }
    }
}

impl PartialEq<String> for Checksum {
    fn eq(&self, text: &String) -> bool {
        *self == **text
    }
}

impl PartialEq<Checksum> for str {
    fn eq(&self, checksum: &Checksum) -> bool {
        checksum == self
    }
}

impl PartialEq<Checksum> for String {
    fn eq(&self, checksum: &Checksum) -> bool {
        checksum == self
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
            location: Location::Given("lsdf://zebrafish/raw/img-001".into()),
            size_bytes: 4_000_000,
            checksum_hex: Checksum::default(),
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
    fn a_checksum_is_held_as_bytes_only_when_it_is_what_to_hex_writes() {
        let hex = lsdf_storage::sha256(b"payload").to_hex();
        let held = |text: &str| Checksum::from(text.to_string()).0;
        assert_eq!(held(&hex), ChecksumRepr::Sha256(Digest::from_hex(&hex).unwrap()));
        assert_eq!(held(""), ChecksumRepr::Absent);
        for other in [hex.to_uppercase(), hex[..63].to_string(), format!("{hex}0"), "ab12".to_string()] {
            assert_eq!(held(&other), ChecksumRepr::Text(other.clone()));
            assert_eq!(Checksum::from(other.clone()).to_string(), other);
        }
        assert_eq!(Checksum::from(hex.clone()).to_string(), hex);
    }

    #[test]
    fn tags_query() {
        let r = record();
        assert!(r.has_tag("raw"));
        assert!(!r.has_tag("processed"));
    }
}
