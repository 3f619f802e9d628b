//! Secondary indexes over dataset basic-metadata fields.
//!
//! One ordered map per field, over order-preserving byte keys, answers
//! both equality and range lookups. It maps to posting lists of
//! [`DatasetId`]s and is maintained incrementally on insert.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use crate::record::DatasetId;
use crate::value::{OrderKey, Value};

/// An equality + range index over one field.
#[derive(Debug, Default)]
pub struct FieldIndex {
    /// order key → ids.
    postings: BTreeMap<OrderKey, Vec<DatasetId>>,
    entries: u64,
}

impl FieldIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one posting.
    pub fn insert(&mut self, value: &Value, id: DatasetId) {
        self.postings.entry(value.order_key()).or_default().push(id);
        self.entries += 1;
    }

    /// Ids with exactly this value.
    pub fn lookup_eq(&self, value: &Value) -> Vec<DatasetId> {
        self.postings
            .get(&value.order_key())
            .cloned()
            .unwrap_or_default()
    }

    /// Ids with values in the half-open range `[lo, hi)`; either bound may
    /// be `None` for unbounded. Both bounds must be of the same type as
    /// the indexed values for meaningful results (guaranteed by schema
    /// validation upstream).
    pub fn lookup_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<DatasetId> {
        let (lo, hi) = (lo.map(Value::order_key), hi.map(Value::order_key));
        let lo_b = lo.as_ref().map_or(Bound::Unbounded, Bound::Included);
        let hi_b = hi.as_ref().map_or(Bound::Unbounded, Bound::Excluded);
        let mut out = Vec::new();
        for ids in self.postings.range((lo_b, hi_b)).map(|(_, v)| v) {
            out.extend_from_slice(ids);
        }
        out
    }

    /// Total postings.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when the index holds no postings.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// Tag → ids posting lists.
#[derive(Debug, Default)]
pub struct TagIndex {
    postings: HashMap<String, Vec<DatasetId>>,
}

impl TagIndex {
    /// An empty tag index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `id` carries `tag`.
    pub fn insert(&mut self, tag: &str, id: DatasetId) {
        let ids = self.postings.entry(tag.to_string()).or_default();
        // Keep posting lists duplicate-free (re-tagging is idempotent).
        if ids.last() != Some(&id) && !ids.contains(&id) {
            ids.push(id);
        }
    }

    /// Removes a tag posting.
    pub fn remove(&mut self, tag: &str, id: DatasetId) {
        if let Some(ids) = self.postings.get_mut(tag) {
            ids.retain(|&x| x != id);
            if ids.is_empty() {
                self.postings.remove(tag);
            }
        }
    }

    /// Ids carrying the tag.
    pub fn lookup(&self, tag: &str) -> Vec<DatasetId> {
        self.postings.get(tag).cloned().unwrap_or_default()
    }

    /// All known tags.
    pub fn tags(&self) -> Vec<String> {
        let mut t: Vec<String> = self.postings.keys().cloned().collect();
        t.sort_unstable();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> DatasetId {
        DatasetId(n)
    }

    #[test]
    fn eq_lookup_finds_all_postings() {
        let mut idx = FieldIndex::new();
        idx.insert(&Value::Int(5), id(1));
        idx.insert(&Value::Int(5), id(2));
        idx.insert(&Value::Int(6), id(3));
        assert_eq!(idx.lookup_eq(&Value::Int(5)), vec![id(1), id(2)]);
        assert_eq!(idx.lookup_eq(&Value::Int(7)), Vec::<DatasetId>::new());
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn range_lookup_over_floats() {
        let mut idx = FieldIndex::new();
        for (i, x) in [-2.0, -0.5, 0.0, 1.5, 3.0, 10.0].iter().enumerate() {
            idx.insert(&Value::Float(*x), id(i as u64));
        }
        let got = idx.lookup_range(Some(&Value::Float(-1.0)), Some(&Value::Float(3.0)));
        assert_eq!(got, vec![id(1), id(2), id(3)]);
        // Unbounded below.
        let got = idx.lookup_range(None, Some(&Value::Float(0.0)));
        assert_eq!(got, vec![id(0), id(1)]);
        // Unbounded above includes hi values.
        let got = idx.lookup_range(Some(&Value::Float(3.0)), None);
        assert_eq!(got, vec![id(4), id(5)]);
    }

    #[test]
    fn range_lookup_over_strings() {
        let mut idx = FieldIndex::new();
        for (i, s) in ["apple", "banana", "cherry"].iter().enumerate() {
            idx.insert(&Value::from(*s), id(i as u64));
        }
        let got = idx.lookup_range(Some(&Value::from("b")), Some(&Value::from("c")));
        assert_eq!(got, vec![id(1)]);
    }

    #[test]
    fn tag_index_idempotent_insert_and_remove() {
        let mut t = TagIndex::new();
        t.insert("raw", id(1));
        t.insert("raw", id(1));
        t.insert("raw", id(2));
        assert_eq!(t.lookup("raw"), vec![id(1), id(2)]);
        t.remove("raw", id(1));
        assert_eq!(t.lookup("raw"), vec![id(2)]);
        t.remove("raw", id(2));
        assert!(t.lookup("raw").is_empty());
        assert!(t.tags().is_empty());
    }
}
