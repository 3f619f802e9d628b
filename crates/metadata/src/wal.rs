//! Metadata-store WAL records and the canonical catalog snapshot codec.
//!
//! Every catalog mutation the store acks (dataset registration, tag,
//! untag, appended processing result) is first committed to its
//! [`lsdf_durability::DurableLog`]; checkpoints serialize the record
//! vector, in chunks of consecutive records, with the canonical
//! [`lsdf_durability::codec`] so that replaying WAL over the latest
//! checkpoint reconstructs a bit-identical catalog. Secondary structures (name map, field indexes, tag index)
//! are derived state and are rebuilt from the records on install.
//!
//! Replay is idempotent: an `Insert` whose name is already registered,
//! a `Tag`/`Untag` whose effect is present, or an `AppendProcessing`
//! whose sequence number the record already holds are all skipped, so a
//! crash at any point of the checkpoint sequence (segment rotation vs
//! snapshot capture) is safe. Dataset ids are dense insertion indexes,
//! so replaying inserts in log order reassigns the original ids.

use std::borrow::Borrow;
use std::collections::BTreeSet;

use crate::record::{DatasetId, DatasetRecord, ProcessingResult};
use crate::schema::Document;
use crate::store::NewDataset;
use crate::value::Value;
use lsdf_durability::{Dec, Enc};

const VALUE_STR: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_FLOAT: u8 = 2;
const VALUE_BOOL: u8 = 3;
const VALUE_TIME: u8 = 4;

fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Str(s) => {
            e.u8(VALUE_STR);
            e.str(s);
        }
        Value::Int(i) => {
            e.u8(VALUE_INT);
            e.i64(*i);
        }
        Value::Float(x) => {
            e.u8(VALUE_FLOAT);
            e.f64(*x);
        }
        Value::Bool(b) => {
            e.u8(VALUE_BOOL);
            e.u8(u8::from(*b));
        }
        Value::Time(t) => {
            e.u8(VALUE_TIME);
            e.i64(*t);
        }
    }
}

fn dec_value(d: &mut Dec<'_>) -> Option<Value> {
    Some(match d.u8()? {
        VALUE_STR => Value::Str(d.str()?),
        VALUE_INT => Value::Int(d.i64()?),
        VALUE_FLOAT => Value::Float(d.f64()?),
        VALUE_BOOL => Value::Bool(match d.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        }),
        VALUE_TIME => Value::Time(d.i64()?),
        _ => return None,
    })
}

/// Documents are `BTreeMap`s, so iteration (and therefore the encoding)
/// is already canonical: same document ⇒ same bytes.
fn enc_doc(e: &mut Enc, doc: &Document) {
    e.u32(doc.len() as u32);
    for (k, v) in doc {
        e.str(k);
        enc_value(e, v);
    }
}

fn dec_doc(d: &mut Dec<'_>) -> Option<Document> {
    let n = d.u32()? as usize;
    let mut doc = Document::new();
    for _ in 0..n {
        let k = d.str()?;
        let v = dec_value(d)?;
        doc.insert(k, v);
    }
    Some(doc)
}

fn enc_strs(e: &mut Enc, strs: &[String]) {
    e.u32(strs.len() as u32);
    for s in strs {
        e.str(s);
    }
}

fn dec_strs(d: &mut Dec<'_>) -> Option<Vec<String>> {
    let n = d.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(d.str()?);
    }
    Some(out)
}

const TAG_INSERT: u8 = 1;
const TAG_TAG: u8 = 2;
const TAG_UNTAG: u8 = 3;
const TAG_APPEND_PROCESSING: u8 = 4;

/// A logged catalog mutation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MetaWalRecord {
    /// A dataset registration. The id is not logged: ids are dense
    /// insertion indexes, so log order reassigns the original id.
    Insert(NewDataset),
    /// First addition of a tag to a dataset.
    Tag { id: DatasetId, tag: String },
    /// Removal of a present tag from a dataset.
    Untag { id: DatasetId, tag: String },
    /// An appended processing-result set with its sequence number.
    AppendProcessing {
        id: DatasetId,
        step: String,
        params: Document,
        results: Document,
        derived_keys: Vec<String>,
        seq: u32,
    },
}

/// An upper bound on an insert's encoded size, so its encoder is
/// allocated once: every string's bytes, plus an allowance per string
/// and per field that covers whatever length prefix, tag and
/// fixed-width value the format puts around them.
fn insert_size_hint(new: &NewDataset) -> usize {
    const ALLOWANCE: usize = 16;
    let fields = new.basic.iter().map(|(k, v)| match v {
        Value::Str(s) => ALLOWANCE + k.len() + s.len(),
        _ => ALLOWANCE + k.len(),
    });
    4 * ALLOWANCE
        + new.name.len()
        + new.location.len()
        + new.checksum_hex.len()
        + fields.sum::<usize>()
}

impl MetaWalRecord {
    /// Encodes an [`MetaWalRecord::Insert`] from the registration's
    /// borrowed fields: the store logs a dataset without first cloning
    /// it into a record.
    pub(crate) fn encode_insert(new: &NewDataset) -> Vec<u8> {
        let NewDataset { name, location, size_bytes, checksum_hex, basic } = new;
        let mut e = Enc::with_capacity(insert_size_hint(new));
        e.u8(TAG_INSERT);
        e.str(name);
        e.str(location);
        e.u64(*size_bytes);
        e.str(checksum_hex);
        enc_doc(&mut e, basic);
        e.finish()
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            MetaWalRecord::Insert(new) => return Self::encode_insert(new),
            MetaWalRecord::Tag { id, tag } => {
                e.u8(TAG_TAG);
                e.u64(id.0);
                e.str(tag);
            }
            MetaWalRecord::Untag { id, tag } => {
                e.u8(TAG_UNTAG);
                e.u64(id.0);
                e.str(tag);
            }
            MetaWalRecord::AppendProcessing { id, step, params, results, derived_keys, seq } => {
                e.u8(TAG_APPEND_PROCESSING);
                e.u64(id.0);
                e.str(step);
                enc_doc(&mut e, params);
                enc_doc(&mut e, results);
                enc_strs(&mut e, derived_keys);
                e.u32(*seq);
            }
        }
        e.finish()
    }

    /// Decodes a record; `None` on any malformed payload (recovery
    /// treats that as a skipped record, never a panic).
    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let rec = match d.u8()? {
            TAG_INSERT => MetaWalRecord::Insert(NewDataset {
                name: d.str()?,
                location: d.str()?,
                size_bytes: d.u64()?,
                checksum_hex: d.str()?,
                basic: dec_doc(&mut d)?,
            }),
            TAG_TAG => MetaWalRecord::Tag { id: DatasetId(d.u64()?), tag: d.str()? },
            TAG_UNTAG => MetaWalRecord::Untag { id: DatasetId(d.u64()?), tag: d.str()? },
            TAG_APPEND_PROCESSING => MetaWalRecord::AppendProcessing {
                id: DatasetId(d.u64()?),
                step: d.str()?,
                params: dec_doc(&mut d)?,
                results: dec_doc(&mut d)?,
                derived_keys: dec_strs(&mut d)?,
                seq: d.u32()?,
            },
            _ => return None,
        };
        d.at_end().then_some(rec)
    }
}

fn enc_record(e: &mut Enc, r: &DatasetRecord) {
    e.u64(r.id.0);
    e.str(&r.name);
    e.str(&r.location);
    e.u64(r.size_bytes);
    e.str(&r.checksum_hex);
    enc_doc(e, &r.basic);
    e.u32(r.processing.len() as u32);
    for p in &r.processing {
        e.str(&p.step);
        enc_doc(e, &p.params);
        enc_doc(e, &p.results);
        enc_strs(e, &p.derived_keys);
        e.u32(p.seq);
    }
    e.u32(r.tags.len() as u32);
    for t in &r.tags {
        e.str(t);
    }
}

fn dec_record(d: &mut Dec<'_>) -> Option<DatasetRecord> {
    let id = DatasetId(d.u64()?);
    let name = d.str()?;
    let location = d.str()?;
    let size_bytes = d.u64()?;
    let checksum_hex = d.str()?;
    let basic = dec_doc(d)?;
    let n_proc = d.u32()? as usize;
    let mut processing = Vec::with_capacity(n_proc.min(1024));
    for _ in 0..n_proc {
        processing.push(ProcessingResult {
            step: d.str()?,
            params: dec_doc(d)?,
            results: dec_doc(d)?,
            derived_keys: dec_strs(d)?,
            seq: d.u32()?,
        });
    }
    let n_tags = d.u32()? as usize;
    let mut tags = BTreeSet::new();
    for _ in 0..n_tags {
        tags.insert(d.str()?);
    }
    Some(DatasetRecord {
        id,
        name,
        location,
        size_bytes,
        checksum_hex,
        basic,
        processing,
        tags,
    })
}

/// Canonical catalog snapshot: `u64 count` followed by every record
/// in id order. Documents are `BTreeMap`s and tags are `BTreeSet`s, so
/// the bytes are fully canonical: same logical catalog ⇒ same bytes ⇒
/// same SHA-256. A checkpoint stores the same record bytes cut into
/// chunks of consecutive records, so the count followed by the chunks
/// in order is this snapshot, byte for byte.
pub(crate) struct MetaSnapshot;

impl MetaSnapshot {
    /// Encodes borrowed records (the store's shared handles or plain
    /// records alike), so the store can snapshot under its read guard
    /// without cloning the catalog first.
    pub(crate) fn encode(records: &[impl Borrow<DatasetRecord>]) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(records.len() as u64);
        Self::finish(e, records)
    }

    /// One checkpoint chunk: the records' bytes and nothing else.
    pub(crate) fn encode_chunk(records: &[impl Borrow<DatasetRecord>]) -> Vec<u8> {
        Self::finish(Enc::new(), records)
    }

    fn finish(mut e: Enc, records: &[impl Borrow<DatasetRecord>]) -> Vec<u8> {
        for r in records {
            enc_record(&mut e, r.borrow());
        }
        e.finish()
    }

    /// Appends a chunk's records to `out`; `None` on malformed bytes.
    pub(crate) fn decode_chunk(bytes: &[u8], out: &mut Vec<DatasetRecord>) -> Option<()> {
        let mut d = Dec::new(bytes);
        while !d.at_end() {
            out.push(dec_record(&mut d)?);
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        [
            ("fish_id".to_string(), Value::Int(7)),
            ("wavelength_nm".to_string(), Value::Float(488.0)),
            ("well".to_string(), Value::from("A1")),
            ("valid".to_string(), Value::Bool(true)),
            ("acquired_at".to_string(), Value::Time(1234)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn record_roundtrip() {
        let records = vec![
            MetaWalRecord::Insert(NewDataset {
                name: "img-001".into(),
                location: "lsdf://zebrafish/raw/img-001".into(),
                size_bytes: 4_000_000,
                checksum_hex: "ab12".into(),
                basic: doc(),
            }),
            MetaWalRecord::Tag { id: DatasetId(3), tag: "needs-processing".into() },
            MetaWalRecord::Untag { id: DatasetId(3), tag: "needs-processing".into() },
            MetaWalRecord::AppendProcessing {
                id: DatasetId(0),
                step: "segmentation".into(),
                params: doc(),
                results: [("cells".to_string(), Value::Int(120))].into_iter().collect(),
                derived_keys: vec!["seg/img-001".into()],
                seq: 2,
            },
        ];
        for r in records {
            if let MetaWalRecord::Insert(new) = &r {
                assert!(r.encode().len() <= insert_size_hint(new), "encoder never regrows");
            }
            assert_eq!(MetaWalRecord::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn snapshot_roundtrip_and_canonical_bytes() {
        let record = |id: u64| DatasetRecord {
            id: DatasetId(id),
            name: format!("a{id}"),
            location: format!("lsdf://p/a{id}"),
            size_bytes: 9,
            checksum_hex: String::new(),
            basic: doc(),
            processing: vec![ProcessingResult {
                step: "seg".into(),
                params: Document::new(),
                results: doc(),
                derived_keys: vec![],
                seq: 1,
            }],
            tags: ["raw".to_string()].into_iter().collect(),
        };
        let records: Vec<DatasetRecord> = (0..5).map(record).collect();
        let snapshot = MetaSnapshot::encode(&records);
        // The count, then the chunks in order, is the snapshot: one
        // encoder serves the digest and the checkpoint.
        let chunks: Vec<Vec<u8>> = records.chunks(2).map(MetaSnapshot::encode_chunk).collect();
        assert_eq!(snapshot, [5u64.to_le_bytes().to_vec(), chunks.concat()].concat());
        let mut decoded = Vec::new();
        for chunk in &chunks {
            assert_eq!(MetaSnapshot::decode_chunk(chunk, &mut decoded), Some(()));
        }
        assert_eq!(decoded, records);
        let cut = &chunks[0][..chunks[0].len() - 1];
        assert_eq!(MetaSnapshot::decode_chunk(cut, &mut decoded), None);
    }

    #[test]
    fn malformed_records_are_rejected_not_panicked() {
        assert_eq!(MetaWalRecord::decode(&[]), None);
        assert_eq!(MetaWalRecord::decode(&[77, 0, 1]), None);
        let mut good = MetaWalRecord::Tag { id: DatasetId(1), tag: "t".into() }.encode();
        good.push(9); // trailing garbage
        assert_eq!(MetaWalRecord::decode(&good), None);
        for cut in 0..good.len() - 1 {
            let _ = MetaWalRecord::decode(&good[..cut]);
        }
        // Bad bool payload and bad value tag inside a document.
        assert_eq!(dec_value(&mut Dec::new(&[VALUE_BOOL, 7])), None);
        assert_eq!(dec_value(&mut Dec::new(&[9])), None);
    }
}
