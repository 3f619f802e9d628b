//! Project metadata schemas.
//!
//! "Metadata schema is highly project-dependent ⇒ we use a project metadata
//! DB" (paper, slide 8). A [`Schema`] declares each project's fields, which
//! are required at ingest, and which should be indexed for query speed.
//! It also fixes the *shape* of every record it admits: a validated
//! document is stored as [`Fields`], one slot per declared field, and
//! the field names live once, in the schema.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

use lsdf_storage::sha256;

use crate::value::{FieldType, Value};

/// A metadata document: field name → value.
pub type Document = BTreeMap<String, Value>;

/// Declaration of one schema field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Expected type.
    pub ty: FieldType,
    /// Must be present in every dataset's basic metadata.
    pub required: bool,
    /// Maintain a secondary index on this field.
    pub indexed: bool,
}

/// A project's metadata schema. Cloning shares the field list.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Schema (project) name.
    pub name: String,
    layout: Arc<Layout>,
}

/// What every record of one schema shares.
#[derive(Debug, PartialEq)]
struct Layout {
    /// Declaration order: a field's position here is its slot.
    fields: Vec<FieldDef>,
    /// The slots in field-name order, the order a [`Document`] iterates
    /// in and the canonical encoding renders.
    by_name: Vec<usize>,
    fingerprint: u64,
}

impl Layout {
    fn new(fields: Vec<FieldDef>) -> Self {
        let mut by_name: Vec<usize> = (0..fields.len()).collect();
        by_name.sort_unstable_by(|&a, &b| fields[a].name.cmp(&fields[b].name));
        // Everything a stored record is read by: each slot's name, type
        // and whether it may be absent. Not `indexed`: an index is
        // rebuilt from the records.
        let mut described = Vec::new();
        for f in &fields {
            described.extend_from_slice(&(f.name.len() as u64).to_le_bytes());
            described.extend_from_slice(f.name.as_bytes());
            described.extend_from_slice(&[f.ty.tag(), u8::from(f.required)]);
        }
        let fingerprint = sha256(&described).0.iter().take(8).fold(0, |acc, &b| acc << 8 | u64::from(b));
        Layout { fields, by_name, fingerprint }
    }

    fn slot(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// Basic metadata in its stored form: one slot per field of the
/// [`Schema`] that validated it, in declaration order, absent optional
/// fields empty. Reads like the [`Document`] it was shaped from.
#[derive(Clone)]
pub struct Fields {
    layout: Arc<Layout>,
    slots: Box<[Option<Value>]>,
}

impl Fields {
    /// The value of field `name`, if the record carries one.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.slot(self.slot_of(name)?)
    }

    /// The slot of field `name` in the schema that shaped these fields.
    pub(crate) fn slot_of(&self, name: &str) -> Option<usize> {
        self.layout.slot(name)
    }

    /// The fields the record carries, in name order (a [`Document`]'s).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        let named = |&slot: &usize| Some((self.layout.fields[slot].name.as_str(), self.slot(slot)?));
        self.layout.by_name.iter().filter_map(named)
    }

    /// The document these fields were shaped from.
    pub fn to_document(&self) -> Document {
        self.iter().map(|(name, value)| (name.to_string(), value.clone())).collect()
    }

    /// The value in slot `slot` of the schema.
    pub(crate) fn slot(&self, slot: usize) -> Option<&Value> {
        self.slots.get(slot)?.as_ref()
    }

    /// Every slot of the schema, in declaration order.
    pub(crate) fn slots(&self) -> &[Option<Value>] {
        &self.slots
    }
}

/// Equal as documents: the same names carrying equal values.
impl PartialEq for Fields {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Fields {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Schema-validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A required field is missing from the document.
    MissingField(String),
    /// A document value has the wrong type.
    TypeMismatch {
        /// Field name.
        field: String,
        /// Declared type.
        expected: FieldType,
        /// Actual value type.
        got: FieldType,
    },
    /// A document contains a field not declared in the schema.
    UnknownField(String),
    /// A float field contains NaN (unorderable, breaks indexes).
    NanValue(String),
    /// Two fields with the same name were declared.
    DuplicateField(String),
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::MissingField(n) => write!(f, "required field '{n}' missing"),
            SchemaError::TypeMismatch { field, expected, got } => {
                write!(f, "field '{field}': expected {expected:?}, got {got:?}")
            }
            SchemaError::UnknownField(n) => write!(f, "field '{n}' not in schema"),
            SchemaError::NanValue(n) => write!(f, "field '{n}' is NaN"),
            SchemaError::DuplicateField(n) => write!(f, "duplicate field '{n}'"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Builder for [`Schema`].
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    name: String,
    fields: Vec<FieldDef>,
}

impl SchemaBuilder {
    /// Starts a schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SchemaBuilder {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Adds a required field.
    pub fn required(mut self, name: &str, ty: FieldType) -> Self {
        self.fields.push(FieldDef {
            name: name.to_string(),
            ty,
            required: true,
            indexed: false,
        });
        self
    }

    /// Adds an optional field.
    pub fn optional(mut self, name: &str, ty: FieldType) -> Self {
        self.fields.push(FieldDef {
            name: name.to_string(),
            ty,
            required: false,
            indexed: false,
        });
        self
    }

    /// Marks the most recently added field as indexed.
    ///
    /// # Panics
    /// Panics if no field has been added yet.
    pub fn indexed(mut self) -> Self {
        self.fields
            .last_mut()
            // lint: allow(no_panic) -- documented builder-misuse panic (see `# Panics` above)
            .expect("indexed() requires a preceding field")
            .indexed = true;
        self
    }

    /// Finalizes the schema, checking for duplicate field names.
    pub fn build(self) -> Result<Schema, SchemaError> {
        let mut seen = std::collections::HashSet::new();
        for f in &self.fields {
            if !seen.insert(f.name.clone()) {
                return Err(SchemaError::DuplicateField(f.name.clone()));
            }
        }
        Ok(Schema {
            name: self.name,
            layout: Arc::new(Layout::new(self.fields)),
        })
    }
}

impl Schema {
    /// Declared fields in declaration order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.layout.fields
    }

    /// Looks up one field.
    pub fn field(&self, name: &str) -> Option<&FieldDef> {
        self.slot(name).map(|slot| &self.layout.fields[slot])
    }

    /// The position of field `name` in [`Schema::fields`], which is its
    /// slot in every [`Fields`] of this schema.
    pub(crate) fn slot(&self, name: &str) -> Option<usize> {
        self.layout.slot(name)
    }

    /// Names of all indexed fields.
    pub fn indexed_fields(&self) -> impl Iterator<Item = &str> {
        self.fields().iter().filter(|f| f.indexed).map(|f| f.name.as_str())
    }

    /// A digest of the field list that stored records are written
    /// under and refused without: two schemas with one fingerprint
    /// read each other's records.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.layout.fingerprint
    }

    /// Validates a *basic metadata* document: required fields present,
    /// all fields declared, types correct, floats finite.
    pub fn validate(&self, doc: &Document) -> Result<(), SchemaError> {
        self.walk(doc, |_, _| ())
    }

    /// Validates `doc` as [`Schema::validate`] does and, in the same
    /// pass, moves its values into the slots of the record's stored
    /// form.
    pub fn shape(&self, doc: Document) -> Result<Fields, SchemaError> {
        let mut slots: Box<[Option<Value>]> = self.fields().iter().map(|_| None).collect();
        self.walk(doc, |slot, value| slots[slot] = Some(value))?;
        Ok(self.fields_from(slots))
    }

    /// Stored-form fields over slots the caller has checked against
    /// [`Schema::fields`].
    pub(crate) fn fields_from(&self, slots: Box<[Option<Value>]>) -> Fields {
        debug_assert_eq!(slots.len(), self.fields().len());
        Fields { layout: Arc::clone(&self.layout), slots }
    }

    /// The one pass over a document's entries, which arrive in name
    /// order: a merge with the declared names in the same order finds
    /// every entry's slot, every absent field and every undeclared
    /// name. Each valid value is handed to `place` with its slot. The
    /// error is the first a walk of the declared fields in declaration
    /// order meets, or else the first undeclared name.
    fn walk<K: AsRef<str>, V: Borrow<Value>>(
        &self,
        doc: impl IntoIterator<Item = (K, V)>,
        mut place: impl FnMut(usize, V),
    ) -> Result<(), SchemaError> {
        let mut failed: Option<(usize, SchemaError)> = None;
        let mut fail = |slot: usize, err: SchemaError| {
            if failed.as_ref().is_none_or(|(at, _)| slot < *at) {
                failed = Some((slot, err));
            }
        };
        let mut undeclared = None;
        let fields = self.fields();
        let mut declared = self.layout.by_name.iter().map(|&slot| (slot, &fields[slot])).peekable();
        for (name, value) in doc {
            let name = name.as_ref();
            // Declared names that sort below this entry's are absent.
            let mut at = None;
            while let Some((slot, f)) = declared.next_if(|(_, f)| f.name.as_str() <= name) {
                if f.name == name {
                    at = Some((slot, f));
                    break;
                }
                if f.required {
                    fail(slot, SchemaError::MissingField(f.name.clone()));
                }
            }
            match (at, value.borrow()) {
                (None, _) => {
                    undeclared.get_or_insert_with(|| SchemaError::UnknownField(name.to_string()));
                }
                (Some((slot, f)), v) if v.field_type() != f.ty => {
                    let (field, expected, got) = (f.name.clone(), f.ty, v.field_type());
                    fail(slot, SchemaError::TypeMismatch { field, expected, got });
                }
                (Some((slot, f)), Value::Float(x)) if x.is_nan() => {
                    fail(slot, SchemaError::NanValue(f.name.clone()));
                }
                (Some((slot, _)), _) => place(slot, value),
            }
        }
        for (slot, f) in declared.filter(|(_, f)| f.required) {
            fail(slot, SchemaError::MissingField(f.name.clone()));
        }
        match failed.map(|(_, err)| err).or(undeclared) {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

/// The zebrafish high-throughput-microscopy schema used throughout the
/// examples and benches (fields from slides 4–5: focus point, wavelength,
/// per-fish image counts).
pub fn zebrafish_schema() -> Schema {
    SchemaBuilder::new("zebrafish-htm")
        .required("fish_id", FieldType::Int)
        .indexed()
        .required("image_index", FieldType::Int)
        .required("focus_um", FieldType::Float)
        .required("wavelength_nm", FieldType::Float)
        .indexed()
        .required("well", FieldType::Str)
        .required("acquired_at", FieldType::Time)
        .indexed()
        .optional("compound", FieldType::Str)
        .indexed()
        .optional("concentration_um", FieldType::Float)
        .build()
        // lint: allow(no_panic) -- constant field list with unique names; covered by tests
        .expect("static schema is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(pairs: &[(&str, Value)]) -> Document {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn valid_document_passes() {
        let s = zebrafish_schema();
        let d = doc(&[
            ("fish_id", Value::Int(7)),
            ("image_index", Value::Int(3)),
            ("focus_um", Value::Float(12.5)),
            ("wavelength_nm", Value::Float(488.0)),
            ("well", Value::from("A3")),
            ("acquired_at", Value::Time(1000)),
        ]);
        assert_eq!(s.validate(&d), Ok(()));
    }

    #[test]
    fn shaped_fields_read_as_the_document_they_were_shaped_from() {
        let s = zebrafish_schema();
        let d = doc(&[
            ("fish_id", Value::Int(7)),
            ("image_index", Value::Int(3)),
            ("focus_um", Value::Float(12.5)),
            ("wavelength_nm", Value::Float(488.0)),
            ("well", Value::from("A3")),
            ("acquired_at", Value::Time(1000)),
        ]);
        let fields = s.shape(d.clone()).unwrap();
        assert_eq!(fields.to_document(), d);
        assert_eq!(fields.get("well"), Some(&Value::from("A3")));
        assert_eq!((fields.get("compound"), fields.get("mystery")), (None, None));
        assert!(fields.iter().map(|(k, _)| k).eq(d.keys().map(String::as_str)), "name order");
        assert_eq!(format!("{fields:?}"), format!("{d:?}"));
        // The same fields declared backwards: other slots, another
        // fingerprint, and records that are equal as documents.
        let declare = |b: SchemaBuilder, f: &FieldDef| match f.required {
            true => b.required(&f.name, f.ty),
            false => b.optional(&f.name, f.ty),
        };
        let backwards = s.fields().iter().rev().fold(SchemaBuilder::new("b"), declare).build().unwrap();
        assert_eq!(backwards.shape(d.clone()).unwrap(), fields);
        assert_ne!(backwards.fingerprint(), s.fingerprint());
        assert_eq!(zebrafish_schema().fingerprint(), s.fingerprint());
        let mut other = d.clone();
        other.insert("compound".to_string(), Value::from("dmso"));
        assert_ne!(s.shape(other).unwrap(), fields);
        // What does not validate is not shaped.
        let short = doc(&[("fish_id", Value::Int(7))]);
        assert_eq!(s.shape(short).unwrap_err(), SchemaError::MissingField("image_index".into()));
    }

    #[test]
    fn missing_required_field_rejected() {
        let s = zebrafish_schema();
        let d = doc(&[("fish_id", Value::Int(7))]);
        assert_eq!(s.validate(&d), Err(SchemaError::MissingField("image_index".into())));
    }

    #[test]
    fn wrong_type_rejected() {
        let s = SchemaBuilder::new("t")
            .required("n", FieldType::Int)
            .build()
            .unwrap();
        let d = doc(&[("n", Value::from("five"))]);
        assert_eq!(
            s.validate(&d),
            Err(SchemaError::TypeMismatch {
                field: "n".into(),
                expected: FieldType::Int,
                got: FieldType::Str
            })
        );
    }

    #[test]
    fn unknown_field_rejected() {
        let s = SchemaBuilder::new("t")
            .required("a", FieldType::Int)
            .build()
            .unwrap();
        let d = doc(&[("a", Value::Int(1)), ("mystery", Value::Int(2))]);
        assert_eq!(s.validate(&d), Err(SchemaError::UnknownField("mystery".into())));
    }

    #[test]
    fn nan_rejected() {
        let s = SchemaBuilder::new("t")
            .required("x", FieldType::Float)
            .build()
            .unwrap();
        let d = doc(&[("x", Value::Float(f64::NAN))]);
        assert_eq!(s.validate(&d), Err(SchemaError::NanValue("x".into())));
    }

    #[test]
    fn optional_fields_may_be_absent() {
        let s = SchemaBuilder::new("t")
            .required("a", FieldType::Int)
            .optional("b", FieldType::Str)
            .build()
            .unwrap();
        assert_eq!(s.validate(&doc(&[("a", Value::Int(1))])), Ok(()));
    }

    #[test]
    fn duplicate_fields_rejected_at_build() {
        let r = SchemaBuilder::new("t")
            .required("a", FieldType::Int)
            .optional("a", FieldType::Str)
            .build();
        assert_eq!(r.unwrap_err(), SchemaError::DuplicateField("a".into()));
    }

    #[test]
    fn indexed_fields_enumerated() {
        let s = zebrafish_schema();
        let idx: Vec<&str> = s.indexed_fields().collect();
        assert_eq!(idx, vec!["fish_id", "wavelength_nm", "acquired_at", "compound"]);
    }

    #[test]
    #[should_panic(expected = "preceding field")]
    fn indexed_without_field_panics() {
        let _ = SchemaBuilder::new("t").indexed();
    }
}
