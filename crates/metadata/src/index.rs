//! Secondary indexes over dataset basic-metadata fields.
//!
//! One ordered map per field, over order-preserving byte keys, answers
//! both equality and range lookups. It maps to posting lists of
//! [`DatasetId`]s and is maintained incrementally on insert, or built
//! in one pass from the whole catalog when a restart rebuilds it.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use crate::record::DatasetId;
use crate::value::{OrderKey, Value};

/// The ids under one key, ascending. A value only one dataset carries
/// (a timestamp) is most of an index: its id is held in the map's own
/// node, not in a vector of one.
#[derive(Debug)]
enum Posting {
    One(DatasetId),
    Many(Vec<DatasetId>),
}

impl Posting {
    fn ids(&self) -> &[DatasetId] {
        match self {
            Posting::One(id) => std::slice::from_ref(id),
            Posting::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: DatasetId) {
        match self {
            Posting::One(first) => *self = Posting::Many(vec![*first, id]),
            Posting::Many(ids) => ids.push(id),
        }
    }
}

impl PartialEq for Posting {
    fn eq(&self, other: &Self) -> bool {
        self.ids() == other.ids()
    }
}

/// An equality + range index over one field.
#[derive(Debug, Default, PartialEq)]
pub struct FieldIndex {
    /// order key → ids.
    postings: BTreeMap<OrderKey, Posting>,
    entries: u64,
}

/// Builds the index of a whole catalog at once: the postings are
/// sorted by value (for fields that grow with the id, a timestamp or a
/// run number, they already are), grouped, and the map is built
/// bottom-up from the sorted run, where inserting them one by one
/// descends the tree once per posting. Each key's run of ids is
/// measured before its list is made, so a list is allocated once at
/// its final size rather than grown by doubling. Equal to the index
/// those inserts build, in any input order.
impl<'a> FromIterator<(&'a Value, DatasetId)> for FieldIndex {
    fn from_iter<I: IntoIterator<Item = (&'a Value, DatasetId)>>(postings: I) -> Self {
        let mut run: Vec<(OrderKey, DatasetId)> =
            postings.into_iter().map(|(value, id)| (value.order_key(), id)).collect();
        run.sort_unstable();
        let entries = run.len() as u64;
        let mut grouped: Vec<(OrderKey, Posting)> = Vec::new();
        let mut rest = run.into_iter();
        while let Some((key, first)) = rest.next() {
            let more = rest.as_slice().iter().take_while(|(k, _)| *k == key).count();
            let posting = match more {
                0 => Posting::One(first),
                _ => {
                    let mut ids = Vec::with_capacity(1 + more);
                    ids.push(first);
                    ids.extend(rest.by_ref().take(more).map(|(_, id)| id));
                    Posting::Many(ids)
                }
            };
            grouped.push((key, posting));
        }
        FieldIndex { postings: grouped.into_iter().collect(), entries }
    }
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
        match self.postings.entry(value.order_key()) {
            Entry::Vacant(slot) => {
                slot.insert(Posting::One(id));
            }
            Entry::Occupied(mut slot) => slot.get_mut().push(id),
        }
        self.entries += 1;
    }

    /// Ids with exactly this value, ascending, as stored.
    pub fn lookup_eq(&self, value: &Value) -> &[DatasetId] {
        self.postings.get(&value.order_key()).map_or(&[], Posting::ids)
    }

    /// The posting lists of the values between the bounds, in value
    /// order; `lo` must not lie above `hi` (`BTreeMap::range` panics).
    /// Bounds of another type than the indexed values select a superset
    /// (keys order by type first): callers re-check each id.
    fn range(
        &self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> impl Iterator<Item = &[DatasetId]> {
        self.postings.range((lo.map(Value::order_key), hi.map(Value::order_key))).map(|(_, p)| p.ids())
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
    fn an_index_built_at_once_is_the_index_its_inserts_build() {
        let floats = [3.0, -0.0, 1.5, 0.0, 3.0, -2.0, 3.0, 1e9].map(Value::Float);
        let strings = ["veto", "main", "veto", "monitor", "main", "main"].map(Value::from);
        let ascending = [1, 1, 2, 3, 3, 3, 7].map(Value::Time);
        for values in [&floats[..], &strings[..], &ascending[..], &[]] {
            let mut inserted = FieldIndex::new();
            for (i, v) in values.iter().enumerate() {
                inserted.insert(v, id(i as u64));
            }
            let built: FieldIndex = values.iter().enumerate().map(|(i, v)| (v, id(i as u64))).collect();
            assert_eq!(built, inserted, "{values:?}");
            assert_eq!(built.len(), values.len() as u64);
            assert_eq!(built.lookup_range(Unbounded, Unbounded).len(), values.len());
        }
        let built: FieldIndex = floats.iter().enumerate().map(|(i, v)| (v, id(i as u64))).collect();
        // One id is lent from the map's node, two from a list that was
        // one id first; both zeros are one value.
        assert_eq!(built.lookup_eq(&Value::Float(1.5)), [id(2)]);
        assert_eq!(built.lookup_eq(&Value::Float(0.0)), [id(1), id(3)]);
        assert_eq!(built.lookup_eq(&Value::Float(3.0)), [id(0), id(4), id(6)]);
        assert_eq!(built.count_range(Included(&Value::Float(-0.0)), Excluded(&Value::Float(3.0)), 64), 3);
        assert_ne!(built, FieldIndex::from_iter([(&floats[0], id(0))]));
        // A 24-id list is allocated once at its size, not grown 2 → 32.
        let group = vec![Value::Int(5); 24];
        let built: FieldIndex = group.iter().enumerate().map(|(i, v)| (v, id(i as u64))).collect();
        let lists: Vec<usize> = built.postings.values().map(|p| match p {
            Posting::One(_) => 1,
            Posting::Many(ids) => ids.capacity(),
        }).collect();
        assert_eq!(lists, [24]);
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
