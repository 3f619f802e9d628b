//! Typed field values for project metadata documents.
//!
//! Metadata schemas are "highly project-dependent" (paper, slide 8), so
//! values are dynamically typed but schema-validated: a zebrafish record
//! carries wavelength and focus floats, a KATRIN record carries run numbers
//! and retarding potentials, and both live in the same repository engine.

use std::cmp::Ordering;
use std::fmt;


/// The type of a metadata field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// UTF-8 string.
    Str,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
    /// Timestamp: nanoseconds since facility epoch.
    Time,
}

impl FieldType {
    /// The type's byte in every stored encoding: before a value, and in
    /// what a schema's fingerprint hashes.
    pub(crate) const fn tag(self) -> u8 {
        match self {
            FieldType::Str => 0,
            FieldType::Int => 1,
            FieldType::Float => 2,
            FieldType::Bool => 3,
            FieldType::Time => 4,
        }
    }
}

/// A dynamically typed metadata value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// UTF-8 string.
    Str(String),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (NaN is rejected at validation).
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Timestamp: nanoseconds since facility epoch.
    Time(i64),
}

impl Value {
    /// The value's runtime type.
    pub fn field_type(&self) -> FieldType {
        match self {
            Value::Str(_) => FieldType::Str,
            Value::Int(_) => FieldType::Int,
            Value::Float(_) => FieldType::Float,
            Value::Bool(_) => FieldType::Bool,
            Value::Time(_) => FieldType::Time,
        }
    }

    /// Total order within one type; cross-type comparisons yield `None`.
    /// Used by range predicates and ordered indexes.
    pub fn partial_cmp_typed(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Time(a), Value::Time(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// An order-preserving byte key for ordered indexes. Values of
    /// different types never collide because the first byte is a type tag.
    pub fn order_key(&self) -> OrderKey {
        fn f64_key(x: f64) -> u64 {
            // IEEE-754 total order trick: flip sign bit for positives,
            // all bits for negatives. `-0.0 + 0.0` is `0.0`: the two
            // zeros compare `Equal`, so they share one key.
            let bits = (x + 0.0).to_bits();
            if bits >> 63 == 0 {
                bits ^ 0x8000_0000_0000_0000
            } else {
                !bits
            }
        }
        fn i64_key(x: i64) -> u64 {
            (x as u64) ^ 0x8000_0000_0000_0000
        }
        match self {
            Value::Str(s) => {
                let mut k = Vec::with_capacity(1 + s.len());
                k.push(0u8);
                k.extend_from_slice(s.as_bytes());
                OrderKey(KeyBytes::Heap(k))
            }
            Value::Int(i) => OrderKey::fixed(1, i64_key(*i)),
            Value::Float(x) => OrderKey::fixed(2, f64_key(*x)),
            Value::Bool(b) => OrderKey::fixed(3, u64::from(*b)),
            Value::Time(t) => OrderKey::fixed(4, i64_key(*t)),
        }
    }
}

/// The bytes of [`Value::order_key`]; dereferences to `[u8]` and
/// compares as those bytes. Every key but a string's is held inline:
/// an index probe for a numeric value allocates nothing, an ordered
/// index stores such keys in its own nodes, and two of them compare as
/// a pair of integers rather than through a byte compare.
#[derive(Debug)]
pub struct OrderKey(KeyBytes);

#[derive(Debug)]
enum KeyBytes {
    Inline([u8; 9]),
    Heap(Vec<u8>),
}

impl OrderKey {
    /// Type tag + eight big-endian bytes of an order-preserving `u64`.
    fn fixed(tag: u8, ordered: u64) -> Self {
        let mut bytes = [tag; 9];
        bytes[1..].copy_from_slice(&ordered.to_be_bytes());
        OrderKey(KeyBytes::Inline(bytes))
    }
}

impl std::ops::Deref for OrderKey {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            KeyBytes::Inline(bytes) => bytes,
            KeyBytes::Heap(k) => k,
        }
    }
}

/// An inline key as the integers its bytes spell: the tag, then the
/// big-endian `u64`. Comparing these pairs is comparing the bytes.
fn inline_pair(bytes: &[u8; 9]) -> (u8, u64) {
    let [tag, ordered @ ..] = *bytes;
    (tag, u64::from_be_bytes(ordered))
}

impl PartialEq for OrderKey {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (KeyBytes::Inline(a), KeyBytes::Inline(b)) => inline_pair(a) == inline_pair(b),
            _ => **self == **other,
        }
    }
}

impl Eq for OrderKey {}

impl PartialOrd for OrderKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (KeyBytes::Inline(a), KeyBytes::Inline(b)) => inline_pair(a).cmp(&inline_pair(b)),
            _ => (**self).cmp(&**other),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Time(t) => write!(f, "@{t}ns"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tags() {
        assert_eq!(Value::from("x").field_type(), FieldType::Str);
        assert_eq!(Value::from(1i64).field_type(), FieldType::Int);
        assert_eq!(Value::from(1.5).field_type(), FieldType::Float);
        assert_eq!(Value::from(true).field_type(), FieldType::Bool);
        assert_eq!(Value::Time(9).field_type(), FieldType::Time);
    }

    #[test]
    fn typed_comparisons() {
        assert_eq!(
            Value::from(1i64).partial_cmp_typed(&Value::from(2i64)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::from("b").partial_cmp_typed(&Value::from("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::from(1i64).partial_cmp_typed(&Value::from(1.0)), None);
    }

    #[test]
    fn order_key_preserves_int_order() {
        let xs = [-5i64, -1, 0, 1, 42, i64::MIN, i64::MAX];
        let mut sorted = xs.to_vec();
        sorted.sort_unstable();
        let mut keys: Vec<(OrderKey, i64)> =
            xs.iter().map(|&x| (Value::Int(x).order_key(), x)).collect();
        keys.sort();
        let by_key: Vec<i64> = keys.into_iter().map(|(_, x)| x).collect();
        assert_eq!(by_key, sorted);
    }

    #[test]
    fn order_key_preserves_float_order() {
        let xs = [-1e9f64, -1.5, -0.0, 0.0, 1e-9, 3.25, 7e8];
        let mut keys: Vec<(OrderKey, f64)> = xs
            .iter()
            .map(|&x| (Value::Float(x).order_key(), x))
            .collect();
        keys.sort_by(|a, b| a.0.cmp(&b.0));
        let by_key: Vec<f64> = keys.into_iter().map(|(_, x)| x).collect();
        for w in by_key.windows(2) {
            assert!(w[0] <= w[1], "{w:?}");
        }
    }

    #[test]
    fn order_keys_of_distinct_types_never_collide() {
        let vals = [
            Value::from("1"),
            Value::from(1i64),
            Value::from(1.0),
            Value::from(true),
            Value::Time(1),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                if i != j {
                    assert_ne!(a.order_key(), b.order_key());
                }
            }
        }
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Value::from("zebrafish").to_string(), "zebrafish");
        assert_eq!(Value::Time(5).to_string(), "@5ns");
    }
}
