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

    /// Adds one posting. The store issues ids in ascending order and
    /// indexes each once, so every posting list stays ascending and
    /// duplicate-free without being sorted.
    pub fn insert(&mut self, value: &Value, id: DatasetId) {
        self.postings.entry(value.order_key()).or_default().push(id);
        self.entries += 1;
    }

    /// Ids with exactly this value, ascending, as stored.
    pub fn lookup_eq(&self, value: &Value) -> &[DatasetId] {
        self.postings.get(&value.order_key()).map_or(&[], Vec::as_slice)
    }

    /// The posting lists of the values between the bounds, in value
    /// order; `lo` must not lie above `hi` (`BTreeMap::range` panics).
    /// Bounds of another type than the indexed values select a superset
    /// (keys order by type first): callers re-check each id.
    fn range(
        &self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> impl Iterator<Item = &Vec<DatasetId>> {
        self.postings.range((lo.map(Value::order_key), hi.map(Value::order_key))).map(|(_, ids)| ids)
    }

    /// Ids with values between the bounds, ascending.
    pub fn lookup_range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<DatasetId> {
        let mut out: Vec<DatasetId> = self.range(lo, hi).flatten().copied().collect();
        out.sort_unstable();
        out
    }

    /// How many ids [`FieldIndex::lookup_range`] would return, counted
    /// list by list and abandoned once past `cap`: exact when at most
    /// `cap`, and never more than `cap + 1` lists walked.
    pub fn count_range(&self, lo: Bound<&Value>, hi: Bound<&Value>, cap: usize) -> usize {
        let mut n = 0;
        for ids in self.range(lo, hi) {
            n += ids.len();
            if n > cap {
                break;
            }
        }
        n
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

    /// Records that `id` carries `tag`. Tags arrive in any id order, so
    /// the posting goes in at its sorted place: every list stays
    /// ascending and duplicate-free (re-tagging is idempotent).
    pub fn insert(&mut self, tag: &str, id: DatasetId) {
        let ids = self.postings.entry(tag.to_string()).or_default();
        if let Err(at) = ids.binary_search(&id) {
            ids.insert(at, id);
        }
    }

    /// Removes a tag posting.
    pub fn remove(&mut self, tag: &str, id: DatasetId) {
        if let Some(ids) = self.postings.get_mut(tag) {
            if let Ok(at) = ids.binary_search(&id) {
                ids.remove(at);
            }
            if ids.is_empty() {
                self.postings.remove(tag);
            }
        }
    }

    /// Ids carrying the tag, ascending, as stored.
    pub fn lookup(&self, tag: &str) -> &[DatasetId] {
        self.postings.get(tag).map_or(&[], Vec::as_slice)
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
    use std::ops::Bound::{Excluded, Included, Unbounded};

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
        let got = idx.lookup_range(Included(&Value::Float(-1.0)), Excluded(&Value::Float(3.0)));
        assert_eq!(got, vec![id(1), id(2), id(3)]);
        // Unbounded below.
        let got = idx.lookup_range(Unbounded, Excluded(&Value::Float(0.0)));
        assert_eq!(got, vec![id(0), id(1)]);
        // Unbounded above includes hi values.
        let got = idx.lookup_range(Included(&Value::Float(3.0)), Unbounded);
        assert_eq!(got, vec![id(4), id(5)]);
    }

    #[test]
    fn range_results_ascend_by_id_and_a_count_stops_at_its_cap() {
        let mut idx = FieldIndex::new();
        // Values descend as ids ascend, two ids a value.
        for i in 0..1_000u64 {
            idx.insert(&Value::Int(-((i / 2) as i64)), id(i));
        }
        let all = idx.lookup_range(Unbounded, Unbounded);
        assert_eq!(all, (0..1_000).map(id).collect::<Vec<_>>());
        let some = idx.lookup_range(Excluded(&Value::Int(-3)), Included(&Value::Int(-1)));
        assert_eq!(some, [id(2), id(3), id(4), id(5)]);
        // Exact under the cap; past it, abandoned one list later.
        assert_eq!(idx.count_range(Included(&Value::Int(-2)), Unbounded, 64), 6);
        assert_eq!(idx.count_range(Unbounded, Unbounded, 64), 66);
        assert_eq!(idx.count_range(Unbounded, Unbounded, 0), 2);
        assert_eq!(idx.count_range(Unbounded, Unbounded, usize::MAX), 1_000);
    }

    #[test]
    fn range_lookup_over_strings() {
        let mut idx = FieldIndex::new();
        for (i, s) in ["apple", "banana", "cherry"].iter().enumerate() {
            idx.insert(&Value::from(*s), id(i as u64));
        }
        let got = idx.lookup_range(Included(&Value::from("b")), Excluded(&Value::from("c")));
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
        // Tagged in any order, looked up ascending.
        for n in [7, 3, 9, 3, 1] {
            t.insert("late", id(n));
        }
        assert_eq!(t.lookup("late"), [id(1), id(3), id(7), id(9)]);
        t.remove("late", id(3));
        t.insert("late", id(8));
        assert_eq!(t.lookup("late"), [id(1), id(7), id(8), id(9)]);
        t.remove("absent", id(1));
        assert_eq!(t.tags(), ["late"]);
    }
}
