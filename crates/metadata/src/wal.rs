//! Metadata-store WAL records, checkpoint chunks and the canonical
//! catalog snapshot.
//!
//! Every catalog mutation the store acks (dataset registration, tag,
//! untag, appended processing result) is first committed to its
//! [`lsdf_durability::DurableLog`]; checkpoints serialize the record
//! vector, in chunks of consecutive records, so that replaying WAL over
//! the latest checkpoint reconstructs a bit-identical catalog.
//! Secondary structures (name map, field indexes, tag index) are
//! derived state and are rebuilt from the records on recovery.
//!
//! A record has two encodings, which differ in its location, checksum
//! and basic metadata. What is *stored* — the WAL insert record and the
//! checkpoint chunks — holds what the record holds: a location derived
//! from the name as one tag byte, a SHA-256 as a tag byte and its 32
//! bytes, and basic metadata in slot order: a presence bitmap over the
//! schema's fields, then the present values, no names. It is headed by
//! the schema's fingerprint and decodes under that schema alone, in the
//! store whose prefix a derived location is read with. The *canonical*
//! encoding, which only `catalog_digest` hashes and nothing reads back,
//! spells everything out: the location's and the checksum's text, and
//! each field's name before its value in name order, as a [`Document`]
//! would. The digest of a catalog depends neither on the order its
//! schema declares fields in nor on how a record holds what it holds.
//!
//! Replay is idempotent: an `Insert` whose name is already registered,
//! a `Tag`/`Untag` whose effect is present, or an `AppendProcessing`
//! whose sequence number the record already holds are all skipped, so a
//! crash at any point of the checkpoint sequence (segment rotation vs
//! snapshot capture) is safe. Dataset ids are dense insertion indexes,
//! so replaying inserts in log order reassigns the original ids.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::sync::Arc;

use crate::record::{Checksum, ChecksumRepr, DatasetId, DatasetRecord, Location, ProcessingResult};
use crate::schema::{Document, Fields, Schema};
use crate::value::{FieldType, Value};
use lsdf_durability::{Dec, Enc};
use lsdf_storage::Digest;

const VALUE_STR: u8 = FieldType::Str.tag();
const VALUE_INT: u8 = FieldType::Int.tag();
const VALUE_FLOAT: u8 = FieldType::Float.tag();
const VALUE_BOOL: u8 = FieldType::Bool.tag();
const VALUE_TIME: u8 = FieldType::Time.tag();

fn enc_value(e: &mut Enc, v: &Value) {
    e.u8(v.field_type().tag());
    match v {
        Value::Str(s) => e.str(s),
        Value::Int(i) | Value::Time(i) => e.i64(*i),
        Value::Float(x) => e.f64(*x),
        Value::Bool(b) => e.u8(u8::from(*b)),
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
    enc_named(e, doc.len(), doc.iter().map(|(k, v)| (k.as_str(), v)));
}

fn enc_named<'a>(e: &mut Enc, len: usize, entries: impl Iterator<Item = (&'a str, &'a Value)>) {
    e.u32(len as u32);
    for (k, v) in entries {
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

/// Basic metadata as the canonical encoding spells it: the document
/// the fields were shaped from.
fn enc_fields_named(e: &mut Enc, fields: &Fields) {
    enc_named(e, fields.iter().count(), fields.iter());
}

/// Basic metadata as it is stored: one presence bit per slot of the
/// schema (slot `i` is bit `i % 8` of byte `i / 8`), then the present
/// values in slot order.
fn enc_fields_slotted(e: &mut Enc, fields: &Fields) {
    for byte in fields.slots().chunks(8) {
        e.u8(byte.iter().rev().fold(0, |bits, slot| bits << 1 | u8::from(slot.is_some())));
    }
    for v in fields.slots().iter().flatten() {
        enc_value(e, v);
    }
}

/// Reads stored basic metadata under the schema it was written under;
/// `None` when a bit is set for a slot the schema does not have or a
/// value is not of its slot's type.
fn dec_fields_slotted(d: &mut Dec<'_>, schema: &Schema) -> Option<Fields> {
    let defs = schema.fields();
    let bitmap = d.take(defs.len().div_ceil(8))?;
    let mut slots = Vec::with_capacity(defs.len());
    for (i, def) in defs.iter().enumerate() {
        slots.push(match bitmap[i / 8] >> (i % 8) & 1 {
            0 => None,
            _ => Some(dec_value(d).filter(|v| v.field_type() == def.ty)?),
        });
    }
    let used = defs.len() % 8;
    if used != 0 && bitmap.last()? >> used != 0 {
        return None;
    }
    Some(schema.fields_from(slots.into_boxed_slice()))
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
    /// A dataset registration: the record as it enters the catalog, no
    /// processing results or tags yet. The id is not logged: ids are
    /// dense insertion indexes, so log order reassigns the original id.
    Insert(DatasetRecord),
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

/// A stored location's tag: the store's prefix and the record's name,
/// nothing following; or a length-prefixed text.
const LOCATION_DERIVED: u8 = 0;
const LOCATION_GIVEN: u8 = 1;

/// A stored checksum's tag: none; a SHA-256, its 32 bytes following;
/// or a length-prefixed text.
const CHECKSUM_ABSENT: u8 = 0;
const CHECKSUM_SHA256: u8 = 1;
const CHECKSUM_TEXT: u8 = 2;

/// Which of a record's two encodings to write (see the module docs).
#[derive(Clone, Copy)]
enum Form {
    Stored,
    Canonical,
}

/// An upper bound on an insert's encoded size, so its encoder is
/// allocated once: every string's bytes and a digest's 32, plus an
/// allowance per string and per slot that covers whatever length
/// prefix, tag, presence bit and fixed-width value the format puts
/// around them.
fn insert_size_hint(new: &DatasetRecord) -> usize {
    const ALLOWANCE: usize = 16;
    let slots = new.basic.slots().iter().map(|slot| match slot {
        Some(Value::Str(s)) => ALLOWANCE + s.len(),
        _ => ALLOWANCE,
    });
    let location = match &new.location {
        Location::Derived(_) => 0,
        Location::Given(text) => text.len(),
    };
    let checksum = match &new.checksum_hex.0 {
        ChecksumRepr::Text(text) => text.len(),
        _ => 32,
    };
    4 * ALLOWANCE + new.name.len() + location + checksum + slots.sum::<usize>()
}

/// What a registration fixes of a record, in `form`.
fn enc_registration(e: &mut Enc, r: &DatasetRecord, form: Form) {
    e.str(&r.name);
    match (form, &r.location) {
        (Form::Stored, Location::Derived(_)) => e.u8(LOCATION_DERIVED),
        (Form::Stored, Location::Given(text)) => {
            e.u8(LOCATION_GIVEN);
            e.str(text);
        }
        (Form::Canonical, location) => {
            // The text from its two slices, as one string would be.
            let (head, tail) = location.parts(&r.name);
            e.u32((head.len() + tail.len()) as u32);
            e.raw(head.as_bytes());
            e.raw(tail.as_bytes());
        }
    }
    e.u64(r.size_bytes);
    match (form, &r.checksum_hex.0) {
        (Form::Stored, ChecksumRepr::Absent) => e.u8(CHECKSUM_ABSENT),
        (Form::Stored, ChecksumRepr::Sha256(d)) => {
            e.u8(CHECKSUM_SHA256);
            e.raw(&d.0);
        }
        (Form::Stored, ChecksumRepr::Text(text)) => {
            e.u8(CHECKSUM_TEXT);
            e.str(text);
        }
        (Form::Canonical, ChecksumRepr::Absent) => e.str(""),
        (Form::Canonical, ChecksumRepr::Sha256(d)) => e.bytes(&d.hex_digits()),
        (Form::Canonical, ChecksumRepr::Text(text)) => e.str(text),
    }
    match form {
        Form::Stored => enc_fields_slotted(e, &r.basic),
        Form::Canonical => enc_fields_named(e, &r.basic),
    }
}

/// A stored registration as the record it enters the catalog as, id 0,
/// a derived location read under `prefix`. A location or checksum
/// stored as text is read through the same conversion a registration
/// takes, so a record decodes to the form registering it would give.
fn dec_registration(d: &mut Dec<'_>, schema: &Schema, prefix: &Arc<str>) -> Option<DatasetRecord> {
    let name = d.str()?;
    let location = match d.u8()? {
        LOCATION_DERIVED => Location::Derived(Arc::clone(prefix)),
        LOCATION_GIVEN => Location::of(prefix, &name, d.str()?),
        _ => return None,
    };
    let size_bytes = d.u64()?;
    let checksum_hex = match d.u8()? {
        CHECKSUM_ABSENT => Checksum::default(),
        CHECKSUM_SHA256 => Checksum(ChecksumRepr::Sha256(Digest(d.take(32)?.try_into().ok()?))),
        CHECKSUM_TEXT => Checksum::from(d.str()?),
        _ => return None,
    };
    Some(DatasetRecord {
        id: DatasetId(0),
        name,
        location,
        size_bytes,
        checksum_hex,
        basic: dec_fields_slotted(d, schema)?,
        processing: Vec::new(),
        tags: BTreeSet::new(),
    })
}

impl MetaWalRecord {
    /// Encodes an [`MetaWalRecord::Insert`] from the borrowed record the
    /// store is about to register, under the fingerprint of the schema
    /// that shaped it.
    pub(crate) fn encode_insert(schema: &Schema, new: &DatasetRecord) -> Vec<u8> {
        let mut e = Enc::with_capacity(insert_size_hint(new));
        e.u8(TAG_INSERT);
        e.u64(schema.fingerprint());
        enc_registration(&mut e, new, Form::Stored);
        e.finish()
    }

    pub(crate) fn encode(&self, schema: &Schema) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            MetaWalRecord::Insert(new) => return Self::encode_insert(schema, new),
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

    /// Decodes a record, a derived location under `prefix`; `None` on
    /// any malformed payload, and on an insert logged under another
    /// schema than `schema` (recovery treats that as a skipped record,
    /// never a panic).
    pub(crate) fn decode(bytes: &[u8], schema: &Schema, prefix: &Arc<str>) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let rec = match d.u8()? {
            TAG_INSERT if d.u64()? == schema.fingerprint() => {
                MetaWalRecord::Insert(dec_registration(&mut d, schema, prefix)?)
            }
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

fn enc_record(e: &mut Enc, r: &DatasetRecord, form: Form) {
    e.u64(r.id.0);
    enc_registration(e, r, form);
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

/// Reads a stored record, which must carry `id`: ids are dense
/// insertion indexes, so a record's id is its position.
fn dec_record(d: &mut Dec<'_>, schema: &Schema, prefix: &Arc<str>, id: DatasetId) -> Option<DatasetRecord> {
    if d.u64()? != id.0 {
        return None;
    }
    let mut rec = DatasetRecord { id, ..dec_registration(d, schema, prefix)? };
    let n_proc = d.u32()? as usize;
    rec.processing.reserve(n_proc.min(1024));
    for _ in 0..n_proc {
        rec.processing.push(ProcessingResult {
            step: d.str()?,
            params: dec_doc(d)?,
            results: dec_doc(d)?,
            derived_keys: dec_strs(d)?,
            seq: d.u32()?,
        });
    }
    for _ in 0..d.u32()? {
        rec.tags.insert(d.str()?);
    }
    Some(rec)
}

/// The catalog's records as bytes, in id order. Tags are `BTreeSet`s,
/// processing documents `BTreeMap`s and basic metadata is written in
/// name order or in slot order, so either encoding is a function of
/// the logical catalog: same catalog ⇒ same bytes ⇒ same SHA-256.
pub(crate) struct MetaSnapshot;

impl MetaSnapshot {
    /// The canonical snapshot `catalog_digest` hashes: `u64 count`
    /// followed by every record with its field names spelled out.
    /// Encodes borrowed records (the store's shared handles or plain
    /// records alike), so the store can snapshot under its read guard
    /// without cloning the catalog first.
    pub(crate) fn encode(records: &[impl Borrow<DatasetRecord>]) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(records.len() as u64);
        for r in records {
            enc_record(&mut e, r.borrow(), Form::Canonical);
        }
        e.finish()
    }

    /// One checkpoint chunk: the schema's fingerprint, then the records
    /// in stored form.
    pub(crate) fn encode_chunk(schema: &Schema, records: &[impl Borrow<DatasetRecord>]) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(schema.fingerprint());
        for r in records {
            enc_record(&mut e, r.borrow(), Form::Stored);
        }
        e.finish()
    }

    /// Appends a chunk's records to `out`, the catalog so far, derived
    /// locations under `prefix`: each must carry the id of the position
    /// it lands at. `None` on malformed bytes and on a chunk written
    /// under another schema.
    pub(crate) fn decode_chunk(
        bytes: &[u8],
        schema: &Schema,
        prefix: &Arc<str>,
        out: &mut Vec<Arc<DatasetRecord>>,
    ) -> Option<()> {
        let mut d = Dec::new(bytes);
        if d.u64()? != schema.fingerprint() {
            return None;
        }
        while !d.at_end() {
            let id = DatasetId(out.len() as u64);
            out.push(Arc::new(dec_record(&mut d, schema, prefix, id)?));
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{SchemaBuilder, SchemaError};
    use proptest::prelude::*;

    fn schema() -> Schema {
        SchemaBuilder::new("zebrafish")
            .required("fish_id", FieldType::Int)
            .required("wavelength_nm", FieldType::Float)
            .optional("compound", FieldType::Str)
            .required("well", FieldType::Str)
            .required("valid", FieldType::Bool)
            .required("acquired_at", FieldType::Time)
            .build()
            .unwrap()
    }

    /// The prefix the tests' store keeps its records under.
    fn prefix() -> Arc<str> {
        Arc::from("lsdf://zebrafish/raw/")
    }

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

    /// A freshly registered record: no processing results, no tags.
    /// Ids `3k` are registered as ingest registers, at a derived
    /// location with a SHA-256; the others elsewhere, with other text
    /// or none.
    fn registration(schema: &Schema, id: u64, basic: Document) -> DatasetRecord {
        let name = format!("img-{id:03}");
        let (location, checksum) = match id % 3 {
            0 => (format!("lsdf://zebrafish/raw/{name}"), lsdf_storage::sha256(name.as_bytes()).to_hex()),
            1 => (format!("lsdf://elsewhere/{name}"), "ab12".to_string()),
            _ => ("lsdf://zebrafish/raw/".to_string(), String::new()),
        };
        DatasetRecord {
            id: DatasetId(id),
            location: Location::of(&prefix(), &name, location),
            name,
            size_bytes: 4_000_000,
            checksum_hex: checksum.into(),
            basic: schema.shape(basic).unwrap(),
            processing: Vec::new(),
            tags: BTreeSet::new(),
        }
    }

    fn record(schema: &Schema, id: u64) -> DatasetRecord {
        let seg = ProcessingResult {
            step: "seg".into(),
            params: Document::new(),
            results: [("cells".to_string(), Value::Int(120))].into_iter().collect(),
            derived_keys: vec!["seg/out".into()],
            seq: 1,
        };
        let tags = ["raw".to_string()].into_iter().collect();
        DatasetRecord { processing: vec![seg], tags, ..registration(schema, id, doc()) }
    }

    #[test]
    fn record_roundtrip() {
        let schema = schema();
        let records = vec![
            MetaWalRecord::Insert(registration(&schema, 0, doc())),
            // Inserts log no id: log order assigns it.
            MetaWalRecord::Insert(DatasetRecord { id: DatasetId(0), ..registration(&schema, 1, doc()) }),
            MetaWalRecord::Insert(DatasetRecord { id: DatasetId(0), ..registration(&schema, 2, doc()) }),
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
        // The same fields declared in another order: other slots.
        let reordered = schema.fields().iter().rev().fold(SchemaBuilder::new("zebrafish"), |b, f| match f.required {
            true => b.required(&f.name, f.ty),
            false => b.optional(&f.name, f.ty),
        });
        let reordered = reordered.build().unwrap();
        for r in records {
            let bytes = r.encode(&schema);
            let logged_under_its_schema = match &r {
                MetaWalRecord::Insert(new) => {
                    assert!(bytes.len() <= insert_size_hint(new), "encoder never regrows");
                    None
                }
                _ => Some(r.clone()),
            };
            assert_eq!(MetaWalRecord::decode(&bytes, &reordered, &prefix()), logged_under_its_schema);
            assert_eq!(MetaWalRecord::decode(&bytes, &schema, &prefix()), Some(r));
        }
    }

    #[test]
    fn snapshot_roundtrip_and_canonical_bytes() {
        let schema = schema();
        let records: Vec<DatasetRecord> = (0..5).map(|id| record(&schema, id)).collect();
        let chunks: Vec<Vec<u8>> =
            records.chunks(2).map(|c| MetaSnapshot::encode_chunk(&schema, c)).collect();
        let mut decoded = Vec::new();
        for chunk in &chunks {
            assert_eq!(MetaSnapshot::decode_chunk(chunk, &schema, &prefix(), &mut decoded), Some(()));
        }
        assert!(decoded.iter().map(|r| &**r).eq(&records));
        let snapshot = MetaSnapshot::encode(&records);
        assert_eq!(MetaSnapshot::encode(&decoded), snapshot);
        // Names are in the snapshot and in no chunk.
        let holds = |bytes: &[u8], name: &str| bytes.windows(name.len()).any(|w| w == name.as_bytes());
        assert!(holds(&snapshot, "wavelength_nm") && !chunks.iter().any(|c| holds(c, "wavelength_nm")));
        // A chunk lands where its records' ids say, and nowhere else.
        assert_eq!(MetaSnapshot::decode_chunk(&chunks[1], &schema, &prefix(), &mut Vec::new()), None);
        let cut = &chunks[0][..chunks[0].len() - 1];
        assert_eq!(MetaSnapshot::decode_chunk(cut, &schema, &prefix(), &mut Vec::new()), None);
    }

    #[test]
    fn malformed_records_are_rejected_not_panicked() {
        let schema = schema();
        let decode = |bytes: &[u8]| MetaWalRecord::decode(bytes, &schema, &prefix());
        assert_eq!(decode(&[]), None);
        assert_eq!(decode(&[77, 0, 1]), None);
        let mut good = MetaWalRecord::Tag { id: DatasetId(1), tag: "t".into() }.encode(&schema);
        good.push(9); // trailing garbage
        assert_eq!(decode(&good), None);
        for cut in 0..good.len() - 1 {
            let _ = decode(&good[..cut]);
        }
        // Bad bool payload and bad value tag inside a document.
        assert_eq!(dec_value(&mut Dec::new(&[VALUE_BOOL, 7])), None);
        assert_eq!(dec_value(&mut Dec::new(&[9])), None);
    }

    #[test]
    fn stored_fields_that_do_not_fit_the_schema_fail_to_decode() {
        let schema = schema();
        let rec = registration(&schema, 0, doc());
        let insert = MetaWalRecord::encode_insert(&schema, &rec);
        let decode = |bytes: &[u8]| MetaWalRecord::decode(bytes, &schema, &prefix());
        assert_eq!(decode(&insert), Some(MetaWalRecord::Insert(rec.clone())));
        // tag, fingerprint, the length-prefixed name, the derived
        // location's tag, the size and the SHA-256's tag and 32 bytes:
        // then the bitmap, one byte for six slots, slot 2 absent.
        let bitmap = 1 + 8 + (4 + rec.name.len()) + 1 + 8 + (1 + 32);
        assert_eq!(insert[bitmap], 0b11_1011);
        let patched = |at: usize, byte: u8| {
            let mut bytes = insert.clone();
            bytes[at] = byte;
            bytes
        };
        assert_eq!(decode(&patched(bitmap, 0b0111_1011)), None, "a seventh slot of six");
        // Slot 0 is an Int: the same eight bytes tagged as a Time.
        assert_eq!(insert[bitmap + 1], VALUE_INT);
        assert_eq!(decode(&patched(bitmap + 1, VALUE_TIME)), None, "a value of another type");
        assert_eq!(decode(&patched(1, insert[1] ^ 1)), None, "another schema's fingerprint");
    }

    /// The encoders and the validation as they stood before records
    /// took their schema's shape, working from the document a record
    /// was inserted with: the reference the canonical snapshot and the
    /// one-pass shaping are held to.
    mod before {
        use super::*;

        fn enc_doc(e: &mut Enc, doc: &Document) {
            e.u32(doc.len() as u32);
            for (k, v) in doc {
                e.str(k);
                match v {
                    Value::Str(s) => {
                        e.u8(0);
                        e.str(s);
                    }
                    Value::Int(i) => {
                        e.u8(1);
                        e.i64(*i);
                    }
                    Value::Float(x) => {
                        e.u8(2);
                        e.f64(*x);
                    }
                    Value::Bool(b) => {
                        e.u8(3);
                        e.u8(u8::from(*b));
                    }
                    Value::Time(t) => {
                        e.u8(4);
                        e.i64(*t);
                    }
                }
            }
        }

        pub fn enc_record(e: &mut Enc, r: &DatasetRecord, basic: &Document) {
            e.u64(r.id.0);
            e.str(&r.name);
            e.str(&r.location());
            e.u64(r.size_bytes);
            e.str(&r.checksum_hex.to_string());
            enc_doc(e, basic);
            e.u32(r.processing.len() as u32);
            for p in &r.processing {
                e.str(&p.step);
                enc_doc(e, &p.params);
                enc_doc(e, &p.results);
                e.u32(p.derived_keys.len() as u32);
                for k in &p.derived_keys {
                    e.str(k);
                }
                e.u32(p.seq);
            }
            e.u32(r.tags.len() as u32);
            for t in &r.tags {
                e.str(t);
            }
        }

        pub fn validate(schema: &Schema, doc: &Document) -> Result<(), SchemaError> {
            for f in schema.fields() {
                match doc.get(&f.name) {
                    None if f.required => return Err(SchemaError::MissingField(f.name.clone())),
                    None => {}
                    Some(v) => {
                        if v.field_type() != f.ty {
                            return Err(SchemaError::TypeMismatch {
                                field: f.name.clone(),
                                expected: f.ty,
                                got: v.field_type(),
                            });
                        }
                        if let Value::Float(x) = v {
                            if x.is_nan() {
                                return Err(SchemaError::NanValue(f.name.clone()));
                            }
                        }
                    }
                }
            }
            for k in doc.keys() {
                if schema.field(k).is_none() {
                    return Err(SchemaError::UnknownField(k.clone()));
                }
            }
            Ok(())
        }
    }

    const TYPES: [FieldType; 5] =
        [FieldType::Str, FieldType::Int, FieldType::Float, FieldType::Bool, FieldType::Time];

    /// A value of type `ty` made from `seed`; floats are whole numbers
    /// and, one time in four each, either zero.
    fn value(ty: FieldType, seed: i64) -> Value {
        match ty {
            FieldType::Str => Value::Str(format!("s{seed}")),
            FieldType::Int => Value::Int(seed),
            FieldType::Float => Value::Float([0.0, -0.0, seed as f64, -(seed as f64)][seed as usize % 4]),
            FieldType::Bool => Value::Bool(seed % 2 == 0),
            FieldType::Time => Value::Time(seed),
        }
    }

    proptest! {
        /// The two shapes of basic metadata agree. Over random schemas
        /// (every type, required or optional, indexed or not, declared
        /// out of name order) and documents that leave fields out, put
        /// values of the wrong type or NaN in, or carry undeclared
        /// names: shaping accepts what validation accepted and refuses
        /// the rest with the error validation gave; the shaped fields
        /// read as the document; a logged insert and a checkpoint chunk
        /// decode to the records they encoded; and the canonical
        /// snapshot of those records is, byte for byte, what the old
        /// encoder wrote from the documents.
        #[test]
        fn shaped_fields_are_the_document_they_were_shaped_from(
            fields in prop::collection::vec((0usize..5, 0u8..4), 0..12),
            docs in prop::collection::vec((prop::collection::vec((0u8..10, 0i64..1000), 12), 0u8..6), 1..8),
        ) {
            let names = ["m", "c", "x", "a", "q", "run_id", "t_start", "b", "zeta", "k", "detector", "e"];
            let mut builder = SchemaBuilder::new("t");
            for (&name, &(ty, flags)) in names.iter().zip(&fields) {
                builder = if flags & 1 == 1 { builder.required(name, TYPES[ty]) } else { builder.optional(name, TYPES[ty]) };
                if flags & 2 == 2 {
                    builder = builder.indexed();
                }
            }
            let schema = builder.build().unwrap();
            let mut accepted: Vec<(DatasetRecord, Document)> = Vec::new();
            for (entries, extra) in docs {
                let mut doc = Document::new();
                for (f, &(how, seed)) in schema.fields().iter().zip(&entries) {
                    let v = match how {
                        0 => continue,
                        1 => value(TYPES[(f.ty.tag() as usize + 1) % 5], seed),
                        2 if f.ty == FieldType::Float => Value::Float(f64::NAN),
                        _ => value(f.ty, seed),
                    };
                    doc.insert(f.name.clone(), v);
                }
                // An undeclared name that sorts first, or last.
                if extra < 2 {
                    doc.insert(["0-undeclared", "zz-undeclared"][usize::from(extra)].to_string(), Value::Int(1));
                }
                let expected = before::validate(&schema, &doc);
                prop_assert_eq!(schema.validate(&doc), expected.clone(), "{:?}", doc);
                let shaped = schema.shape(doc.clone());
                prop_assert_eq!(shaped.as_ref().err(), expected.as_ref().err(), "{:?}", doc);
                let Ok(basic) = shaped else { continue };
                prop_assert_eq!(&basic.to_document(), &doc);
                prop_assert!(basic.iter().eq(doc.iter().map(|(k, v)| (k.as_str(), v))));
                for name in names.iter().chain(&["zz-undeclared"]) {
                    prop_assert_eq!(basic.get(name), doc.get(*name), "{}", name);
                }
                let id = accepted.len() as u64;
                let new = DatasetRecord { basic, ..registration(&SchemaBuilder::new("t").build().unwrap(), id, Document::new()) };
                let logged = MetaWalRecord::encode_insert(&schema, &new);
                let replayed = MetaWalRecord::Insert(DatasetRecord { id: DatasetId(0), ..new.clone() });
                prop_assert_eq!(replayed.encode(&schema), logged.clone(), "both zeros keep their sign");
                prop_assert_eq!(MetaWalRecord::decode(&logged, &schema, &prefix()), Some(replayed));
                let mut rec = new;
                if id % 2 == 1 {
                    rec.tags.insert("raw".to_string());
                    let (step, derived_keys) = ("seg".to_string(), vec![format!("seg/{id}")]);
                    rec.processing.push(ProcessingResult { step, params: doc.clone(), results: Document::new(), derived_keys, seq: 1 });
                }
                accepted.push((rec, doc));
            }
            let records: Vec<&DatasetRecord> = accepted.iter().map(|(rec, _)| rec).collect();
            let mut decoded = Vec::new();
            for chunk in records.chunks(3) {
                let bytes = MetaSnapshot::encode_chunk(&schema, chunk);
                prop_assert_eq!(MetaSnapshot::decode_chunk(&bytes, &schema, &prefix(), &mut decoded), Some(()));
            }
            prop_assert!(decoded.iter().map(|r| &**r).eq(records.iter().copied()));
            let mut e = Enc::new();
            e.u64(accepted.len() as u64);
            for (rec, doc) in &accepted {
                before::enc_record(&mut e, rec, doc);
            }
            prop_assert_eq!(MetaSnapshot::encode(&decoded), e.finish());
        }
    }
}
