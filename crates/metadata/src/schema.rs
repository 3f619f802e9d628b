//! Project metadata schemas.
//!
//! "Metadata schema is highly project-dependent ⇒ we use a project metadata
//! DB" (paper, slide 8). A [`Schema`] declares each project's fields, which
//! are required at ingest, and which should be indexed for query speed.

use std::collections::BTreeMap;


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

/// A project's metadata schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Schema (project) name.
    pub name: String,
    fields: Vec<FieldDef>,
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
            fields: self.fields,
        })
    }
}

impl Schema {
    /// Declared fields in declaration order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Looks up one field.
    pub fn field(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Names of all indexed fields.
    pub fn indexed_fields(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().filter(|f| f.indexed).map(|f| f.name.as_str())
    }

    /// Validates a *basic metadata* document: required fields present,
    /// all fields declared, types correct, floats finite.
    pub fn validate(&self, doc: &Document) -> Result<(), SchemaError> {
        for f in &self.fields {
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
            if self.field(k).is_none() {
                return Err(SchemaError::UnknownField(k.clone()));
            }
        }
        Ok(())
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
