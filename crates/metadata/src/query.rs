//! The query language of the DataBrowser: typed field predicates over
//! basic metadata, tag membership, and boolean combinators.
//!
//! Construction is ergonomic through the free functions ([`eq`], [`lt`],
//! [`has_tag`], …) and the [`Predicate::and`]/[`Predicate::or`] methods.

use crate::record::DatasetRecord;
use crate::value::Value;

/// A query predicate over dataset records.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every record.
    All,
    /// Field equals value.
    Eq(String, Value),
    /// Field differs from value (missing fields do not match).
    Ne(String, Value),
    /// Field strictly less than value.
    Lt(String, Value),
    /// Field less than or equal to value.
    Le(String, Value),
    /// Field strictly greater than value.
    Gt(String, Value),
    /// Field greater than or equal to value.
    Ge(String, Value),
    /// String field contains the substring.
    Contains(String, String),
    /// Record carries the tag.
    HasTag(String),
    /// Both sub-predicates hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either sub-predicate holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// Sub-predicate does not hold.
    Not(Box<Predicate>),
}

/// `field == value`.
pub fn eq(field: &str, value: impl Into<Value>) -> Predicate {
    Predicate::Eq(field.to_string(), value.into())
}
/// `field != value`.
pub fn ne(field: &str, value: impl Into<Value>) -> Predicate {
    Predicate::Ne(field.to_string(), value.into())
}
/// `field < value`.
pub fn lt(field: &str, value: impl Into<Value>) -> Predicate {
    Predicate::Lt(field.to_string(), value.into())
}
/// `field <= value`.
pub fn le(field: &str, value: impl Into<Value>) -> Predicate {
    Predicate::Le(field.to_string(), value.into())
}
/// `field > value`.
pub fn gt(field: &str, value: impl Into<Value>) -> Predicate {
    Predicate::Gt(field.to_string(), value.into())
}
/// `field >= value`.
pub fn ge(field: &str, value: impl Into<Value>) -> Predicate {
    Predicate::Ge(field.to_string(), value.into())
}
/// String field contains substring.
pub fn contains(field: &str, needle: &str) -> Predicate {
    Predicate::Contains(field.to_string(), needle.to_string())
}
/// Record carries tag.
pub fn has_tag(tag: &str) -> Predicate {
    Predicate::HasTag(tag.to_string())
}

impl Predicate {
    /// Conjunction.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluates against one record (full-scan fallback path).
    pub fn matches(&self, rec: &DatasetRecord) -> bool {
        use std::cmp::Ordering::*;
        let cmp = |field: &str, value: &Value| -> Option<std::cmp::Ordering> {
            rec.basic.get(field).and_then(|v| v.partial_cmp_typed(value))
        };
        match self {
            Predicate::All => true,
            Predicate::Eq(f, v) => cmp(f, v) == Some(Equal),
            Predicate::Ne(f, v) => matches!(cmp(f, v), Some(Less) | Some(Greater)),
            Predicate::Lt(f, v) => cmp(f, v) == Some(Less),
            Predicate::Le(f, v) => matches!(cmp(f, v), Some(Less) | Some(Equal)),
            Predicate::Gt(f, v) => cmp(f, v) == Some(Greater),
            Predicate::Ge(f, v) => matches!(cmp(f, v), Some(Greater) | Some(Equal)),
            Predicate::Contains(f, needle) => matches!(
                rec.basic.get(f),
                Some(Value::Str(s)) if s.contains(needle.as_str())
            ),
            Predicate::HasTag(t) => rec.has_tag(t),
            Predicate::And(a, b) => a.matches(rec) && b.matches(rec),
            Predicate::Or(a, b) => a.matches(rec) || b.matches(rec),
            Predicate::Not(p) => !p.matches(rec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DatasetId;
    use crate::schema::{Document, SchemaBuilder};

    fn rec(pairs: &[(&str, Value)], tags: &[&str]) -> DatasetRecord {
        let declare = |b: SchemaBuilder, (k, v): &(&str, Value)| b.optional(k, v.field_type());
        let schema = pairs.iter().fold(SchemaBuilder::new("t"), declare).build().unwrap();
        let doc = pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect::<Document>();
        DatasetRecord {
            id: DatasetId(0),
            name: "r".into(),
            location: String::new(),
            size_bytes: 0,
            checksum_hex: String::new(),
            basic: schema.shape(doc).unwrap(),
            processing: vec![],
            tags: tags.iter().map(|t| t.to_string()).collect(),
        }
    }

    #[test]
    fn comparisons() {
        let r = rec(&[("x", Value::Int(5)), ("s", Value::from("hello"))], &[]);
        assert!(eq("x", 5i64).matches(&r));
        assert!(!eq("x", 6i64).matches(&r));
        assert!(ne("x", 6i64).matches(&r));
        assert!(lt("x", 6i64).matches(&r));
        assert!(le("x", 5i64).matches(&r));
        assert!(gt("x", 4i64).matches(&r));
        assert!(ge("x", 5i64).matches(&r));
        assert!(contains("s", "ell").matches(&r));
        assert!(!contains("s", "xyz").matches(&r));
    }

    #[test]
    fn missing_field_never_matches_even_negated_comparisons() {
        let r = rec(&[], &[]);
        assert!(!eq("x", 1i64).matches(&r));
        assert!(!ne("x", 1i64).matches(&r), "Ne on missing field is false");
        assert!(!lt("x", 1i64).matches(&r));
    }

    #[test]
    fn type_mismatch_never_matches() {
        let r = rec(&[("x", Value::from("five"))], &[]);
        assert!(!eq("x", 5i64).matches(&r));
        assert!(!ne("x", 5i64).matches(&r));
    }

    #[test]
    fn boolean_combinators() {
        let r = rec(&[("x", Value::Int(5))], &["raw"]);
        assert!(eq("x", 5i64).and(has_tag("raw")).matches(&r));
        assert!(!eq("x", 5i64).and(has_tag("cooked")).matches(&r));
        assert!(eq("x", 9i64).or(has_tag("raw")).matches(&r));
        assert!(has_tag("cooked").not().matches(&r));
        assert!(Predicate::All.matches(&r));
    }
}
