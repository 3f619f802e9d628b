//! The query language of the DataBrowser: typed field predicates over
//! basic metadata, tag membership, and boolean combinators.
//!
//! Construction is ergonomic through the free functions ([`eq`], [`lt`],
//! [`has_tag`], …) and the [`Predicate::and`]/[`Predicate::or`] methods.
//! A predicate is evaluated in one form, [`BoundPredicate`]: its field
//! names resolved to the slots of a schema once, then read by slot per
//! record.

use std::cmp::Ordering;

use crate::record::DatasetRecord;
use crate::schema::Schema;
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

    /// Evaluates against one record: binds against the record's own
    /// schema, then evaluates the bound form.
    pub fn matches(&self, rec: &DatasetRecord) -> bool {
        self.bind_with(&|name| rec.basic.slot_of(name)).matches(rec)
    }

    /// Resolves every field name against `schema`, once: the result
    /// evaluates records of that schema by slot.
    pub fn bind(&self, schema: &Schema) -> BoundPredicate {
        self.bind_with(&|name| schema.slot(name))
    }

    fn bind_with(&self, slot: &dyn Fn(&str) -> Option<usize>) -> BoundPredicate {
        use Ordering::{Equal, Greater, Less};
        let cmp = |f: &str, value: &Value, accept: &[Ordering]| Bound::Cmp {
            slot: slot(f),
            value: value.clone(),
            accept: accept.iter().fold(0, |mask, &o| mask | bit(o)),
        };
        let boxed = |p: &Predicate| Box::new(p.bind_with(slot).0);
        BoundPredicate(match self {
            Predicate::All => Bound::All,
            Predicate::Eq(f, v) => cmp(f, v, &[Equal]),
            Predicate::Ne(f, v) => cmp(f, v, &[Less, Greater]),
            Predicate::Lt(f, v) => cmp(f, v, &[Less]),
            Predicate::Le(f, v) => cmp(f, v, &[Less, Equal]),
            Predicate::Gt(f, v) => cmp(f, v, &[Greater]),
            Predicate::Ge(f, v) => cmp(f, v, &[Greater, Equal]),
            Predicate::Contains(f, needle) => Bound::Contains { slot: slot(f), needle: needle.clone() },
            Predicate::HasTag(t) => Bound::HasTag(t.clone()),
            Predicate::And(a, b) => Bound::And(boxed(a), boxed(b)),
            Predicate::Or(a, b) => Bound::Or(boxed(a), boxed(b)),
            Predicate::Not(p) => Bound::Not(boxed(p)),
        })
    }
}

/// A [`Predicate`] with its field names resolved to the slots of one
/// [`Schema`] ([`Predicate::bind`]): it reads a record's fields by
/// position, not by name, and is valid for records of that schema
/// only. This is the one evaluator: a query's re-check,
/// [`Predicate::matches`] and the policy rules all run it.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPredicate(Bound);

/// [`Predicate`]'s shape with a slot (`None`: a field the schema
/// lacks) for each field name.
#[derive(Debug, Clone, PartialEq)]
enum Bound {
    All,
    /// The field compares with `value` in an ordering whose [`bit`] is
    /// in `accept`. A missing field or a value of another type
    /// compares in none.
    Cmp { slot: Option<usize>, value: Value, accept: u8 },
    Contains { slot: Option<usize>, needle: String },
    HasTag(String),
    And(Box<Bound>, Box<Bound>),
    Or(Box<Bound>, Box<Bound>),
    Not(Box<Bound>),
}

/// An ordering's bit in [`Bound::Cmp`]'s `accept` mask.
fn bit(o: Ordering) -> u8 {
    1 << (o as i8 + 1)
}

impl BoundPredicate {
    /// Evaluates against one record of the schema this was bound to.
    pub fn matches(&self, rec: &DatasetRecord) -> bool {
        self.0.matches(rec)
    }
}

impl Bound {
    fn matches(&self, rec: &DatasetRecord) -> bool {
        let field = |slot: &Option<usize>| rec.basic.slot((*slot)?);
        match self {
            Bound::All => true,
            Bound::Cmp { slot, value, accept } => {
                field(slot).and_then(|v| v.partial_cmp_typed(value)).is_some_and(|o| accept & bit(o) != 0)
            }
            Bound::Contains { slot, needle } => {
                matches!(field(slot), Some(Value::Str(s)) if s.contains(needle.as_str()))
            }
            Bound::HasTag(t) => rec.has_tag(t),
            Bound::And(a, b) => a.matches(rec) && b.matches(rec),
            Bound::Or(a, b) => a.matches(rec) || b.matches(rec),
            Bound::Not(p) => !p.matches(rec),
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
