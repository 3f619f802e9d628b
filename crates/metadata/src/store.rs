//! The project metadata store: schema-validated inserts, WORM basic
//! metadata, appended processing results, tags, secondary indexes, and an
//! index-aware query executor with scan instrumentation.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use lsdf_sync::{ranks, OrderedRwLock};

use crate::events::{MetadataEvent, Subscriber};
use crate::index::{FieldIndex, TagIndex};
use crate::query::Predicate;
use crate::record::{DatasetId, DatasetRecord, ProcessingResult};
use crate::schema::{Document, Schema, SchemaError};
use crate::value::Value;
use crate::wal::{MetaSnapshot, MetaWalRecord};
use lsdf_durability::{Chunk, Chunks, ComponentDurability, RecoveryStats};
use lsdf_storage::sha256;

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MetadataError {
    /// Schema validation failed.
    Schema(SchemaError),
    /// Dataset id unknown.
    NotFound(DatasetId),
    /// A dataset with this name already exists.
    DuplicateName(String),
    /// Attempted to modify write-once basic metadata.
    WormViolation(DatasetId),
}

impl std::fmt::Display for MetadataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetadataError::Schema(e) => write!(f, "schema: {e}"),
            MetadataError::NotFound(id) => write!(f, "dataset {id:?} not found"),
            MetadataError::DuplicateName(n) => write!(f, "dataset name '{n}' already registered"),
            MetadataError::WormViolation(id) => {
                write!(f, "basic metadata of {id:?} is write-once (WORM)")
            }
        }
    }
}

impl std::error::Error for MetadataError {}

impl From<SchemaError> for MetadataError {
    fn from(e: SchemaError) -> Self {
        MetadataError::Schema(e)
    }
}

/// Parameters describing a new dataset at registration time.
#[derive(Debug, Clone, PartialEq)]
pub struct NewDataset {
    /// Unique name (usually the storage key).
    pub name: String,
    /// ADAL location of the payload.
    pub location: String,
    /// Payload size in bytes.
    pub size_bytes: u64,
    /// Hex SHA-256 of the payload (may be empty).
    pub checksum_hex: String,
    /// Basic (write-once) metadata; validated against the project schema.
    pub basic: Document,
}

struct StoreState {
    /// What shaped every record here, and reads stored ones back.
    schema: Schema,
    /// Shared with every reader that was handed one: a mutation goes
    /// through [`Arc::make_mut`], which copies the record first when a
    /// reader still holds it, so a handle is a snapshot as of its read.
    records: Vec<Arc<DatasetRecord>>,
    by_name: HashMap<String, DatasetId>,
    /// One index per indexed field, beside the field's slot. Empty
    /// while a recovery runs: [`StoreState::reindex`] ends it.
    field_indexes: Vec<(usize, FieldIndex)>,
    tag_index: TagIndex,
    subscribers: Vec<Subscriber>,
    /// Records per checkpoint chunk: chunk `i` is records
    /// `i * chunk_records ..`, ids being dense insertion indexes.
    chunk_records: usize,
    /// One flag per chunk, set when a record in it is added or changed
    /// and cleared by the checkpoint that writes the chunk. Atomic only
    /// so that the checkpoint can clear it under the read guard; every
    /// access is ordered by the catalog lock.
    dirty: Vec<AtomicBool>,
}

impl StoreState {
    /// Marks the chunk holding `id` as changed since the last checkpoint.
    fn touch(&mut self, id: DatasetId) {
        match self.dirty.get_mut(id.0 as usize / self.chunk_records) {
            Some(flag) => *flag.get_mut() = true,
            // Ids are dense, so a chunk past the last is the next one.
            None => self.dirty.push(AtomicBool::new(true)),
        }
    }

    /// The one routine that adds a dataset: the name map, the field
    /// and tag indexes and the record vector change together here, for
    /// a fresh insert and a replayed WAL record alike. The id is the
    /// next dense insertion index, whatever `rec` carried; a name
    /// already taken is refused and handed back.
    fn register(&mut self, mut rec: DatasetRecord) -> Result<DatasetId, String> {
        let id = DatasetId(self.records.len() as u64);
        match self.by_name.entry(rec.name.clone()) {
            Entry::Occupied(_) => return Err(rec.name),
            Entry::Vacant(slot) => slot.insert(id),
        };
        rec.id = id;
        for (slot, idx) in self.field_indexes.iter_mut() {
            if let Some(v) = rec.basic.slot(*slot) {
                idx.insert(v, id);
            }
        }
        for t in &rec.tags {
            self.tag_index.insert(t, id);
        }
        self.records.push(Arc::new(rec));
        self.touch(id);
        Ok(id)
    }

    /// Drops the catalog and everything derived from it; subscribers
    /// stay.
    fn wipe(&mut self) {
        self.records.clear();
        self.dirty.clear();
        self.by_name.clear();
        self.tag_index = TagIndex::new();
        self.reindex();
    }

    /// Builds every field index from the records, each in one pass
    /// over the catalog. Basic metadata is write-once, so the indexes
    /// are a function of the records alone: a recovery registers and
    /// replays with none and builds them once when it is done.
    fn reindex(&mut self) {
        let records = &self.records;
        let of = |slot| records.iter().filter_map(move |r| Some((r.basic.slot(slot)?, r.id)));
        let indexed = self.schema.fields().iter().enumerate().filter(|(_, f)| f.indexed);
        self.field_indexes = indexed.map(|(slot, _)| (slot, of(slot).collect())).collect();
    }

    /// The index over `field`, if the schema keeps one.
    fn index(&self, field: &str) -> Option<&FieldIndex> {
        let slot = self.schema.slot(field)?;
        self.field_indexes.iter().find(|(s, _)| *s == slot).map(|(_, idx)| idx)
    }

    /// Replaces the catalog with a checkpoint's records, the name map
    /// and tag index rebuilt from them (the caller, a recovery, ends
    /// with [`StoreState::reindex`]). `false`, with nothing changed,
    /// when a chunk fails its hash, was written under another schema,
    /// does not decode, or holds a record whose id is not its position
    /// or whose name an earlier record has: ids are positions and
    /// names are keys, and a catalog that renumbered or dropped records
    /// to make them so would not be the one that was checkpointed.
    fn install(&mut self, chunks: &Chunks<'_>) -> bool {
        // A crash leaves both empty with the capacity they had: decoded
        // into them, the catalog comes back without either regrowing.
        let (mut records, mut by_name) = match self.records.is_empty() {
            true => (std::mem::take(&mut self.records), std::mem::take(&mut self.by_name)),
            false => Default::default(),
        };
        let schema = &self.schema;
        if !chunks.try_for_each(|chunk| MetaSnapshot::decode_chunk(chunk, schema, &mut records).is_some()) {
            return false;
        }
        by_name.reserve(records.len());
        let mut tag_index = TagIndex::new();
        for rec in &records {
            if by_name.insert(rec.name.clone(), rec.id).is_some() {
                return false;
            }
            for t in &rec.tags {
                tag_index.insert(t, rec.id);
            }
        }
        // Clean: the records in memory are the ones the manifest names.
        let clean = 0..records.len().div_ceil(self.chunk_records);
        self.dirty = clean.map(|_| AtomicBool::new(false)).collect();
        (self.records, self.by_name, self.tag_index) = (records, by_name, tag_index);
        true
    }

    /// Index-assisted candidate ids for `pred`, ascending and
    /// duplicate-free, with the part of `pred` they leave unchecked
    /// (`None`: every candidate matches); `None` = full scan required.
    /// A single posting list is lent as stored; a range is gathered and
    /// sorted; a disjunction needs both sides; a conjunction walks only
    /// the side [`StoreState::estimate`] finds cheaper.
    ///
    /// The index answers an `Eq` on its field exactly, not only
    /// narrows it: order keys are injective within a type and carry it
    /// in their first byte, the two float zeros share one key and
    /// compare `Equal`, and `Schema::shape` refuses NaN, so no stored
    /// key is a NaN's. The ids under a value's key are then exactly the
    /// records whose field compares `Equal` with it. A tag's list is
    /// its records. Every other candidate list is a superset, re-checked.
    fn plan<'p>(&self, pred: &'p Predicate) -> Option<(Cow<'_, [DatasetId]>, Option<&'p Predicate>)> {
        Some(match pred {
            Predicate::Eq(f, v) => (Cow::Borrowed(self.index(f)?.lookup_eq(v)), None),
            Predicate::HasTag(t) => (Cow::Borrowed(self.tag_index.lookup(t)), None),
            Predicate::And(a, b) => {
                // The cap grows until one side's count is exact under
                // it, so estimating costs a constant times the cheaper
                // side however long the range behind the other is.
                let mut cap = 64;
                let (cheaper, other) = loop {
                    match (self.estimate(a, cap), self.estimate(b, cap)) {
                        (None, None) => return None,
                        (Some(_), None) => break (a, b),
                        (None, Some(_)) => break (b, a),
                        (Some(x), Some(y)) if x.min(y) <= cap => break if x <= y { (a, b) } else { (b, a) },
                        _ => cap = cap.saturating_mul(8),
                    }
                };
                let (ids, unchecked) = self.plan(cheaper)?;
                (ids, Some(if unchecked.is_none() { &**other } else { pred }))
            }
            Predicate::Or(a, b) => {
                let mut ids = self.plan(a)?.0.into_owned();
                ids.extend_from_slice(&self.plan(b)?.0);
                ids.sort_unstable();
                ids.dedup();
                (Cow::Owned(ids), Some(pred))
            }
            _ => {
                let (f, lo, hi) = range_of(pred)?;
                (Cow::Owned(self.index(f)?.lookup_range(lo, hi)), Some(pred))
            }
        })
    }

    /// How many ids [`StoreState::plan`] would return for `pred`:
    /// exact when at most `cap`, otherwise only known to be above it (a
    /// range stops counting there). `None` = no index narrows `pred`.
    fn estimate(&self, pred: &Predicate, cap: usize) -> Option<usize> {
        Some(match pred {
            Predicate::Eq(f, v) => self.index(f)?.lookup_eq(v).len(),
            Predicate::HasTag(t) => self.tag_index.lookup(t).len(),
            Predicate::And(a, b) => match (self.estimate(a, cap), self.estimate(b, cap)) {
                (Some(x), Some(y)) => x.min(y),
                (x, y) => x.or(y)?,
            },
            Predicate::Or(a, b) => self.estimate(a, cap)?.saturating_add(self.estimate(b, cap)?),
            _ => {
                let (f, lo, hi) = range_of(pred)?;
                self.index(f)?.count_range(lo, hi, cap)
            }
        })
    }

    /// Applies one WAL record, for the live call that is about to log
    /// it and for the replay that read it back alike; `false` when its
    /// effect is already present (idempotent skip).
    fn apply(&mut self, rec: MetaWalRecord) -> bool {
        match rec {
            MetaWalRecord::Insert(rec) => self.register(rec).is_ok(),
            MetaWalRecord::Tag { id, tag } => {
                let Some(rec) = self.records.get_mut(id.0 as usize) else {
                    return false;
                };
                let added = Arc::make_mut(rec).tags.insert(tag.clone());
                if added {
                    self.tag_index.insert(&tag, id);
                    self.touch(id);
                }
                added
            }
            MetaWalRecord::Untag { id, tag } => {
                let Some(rec) = self.records.get_mut(id.0 as usize) else {
                    return false;
                };
                let removed = Arc::make_mut(rec).tags.remove(&tag);
                if removed {
                    self.tag_index.remove(&tag, id);
                    self.touch(id);
                }
                removed
            }
            MetaWalRecord::AppendProcessing { id, step, params, results, derived_keys, seq } => {
                let Some(rec) = self.records.get_mut(id.0 as usize) else {
                    return false;
                };
                if rec.processing.len() as u32 >= seq {
                    return false;
                }
                let result = ProcessingResult { step, params, results, derived_keys, seq };
                Arc::make_mut(rec).processing.push(result);
                self.touch(id);
                true
            }
        }
    }
}

/// The field and index range a comparison narrows to; `None` for every
/// other predicate (`Ne`, `Contains`, `Not`, `All`: no index help).
fn range_of(pred: &Predicate) -> Option<(&str, Bound<&Value>, Bound<&Value>)> {
    use Bound::{Excluded, Included, Unbounded};
    Some(match pred {
        Predicate::Lt(f, v) => (f, Unbounded, Excluded(v)),
        Predicate::Le(f, v) => (f, Unbounded, Included(v)),
        Predicate::Gt(f, v) => (f, Excluded(v), Unbounded),
        Predicate::Ge(f, v) => (f, Included(v), Unbounded),
        _ => return None,
    })
}

impl NewDataset {
    /// The catalog record this registration becomes, its document
    /// validated against `schema` and moved into the schema's shape;
    /// the store assigns the id when it registers it.
    fn into_record(self, schema: &Schema) -> Result<DatasetRecord, SchemaError> {
        Ok(DatasetRecord {
            id: DatasetId(0),
            name: self.name,
            location: self.location,
            size_bytes: self.size_bytes,
            checksum_hex: self.checksum_hex,
            basic: schema.shape(self.basic)?,
            processing: Vec::new(),
            tags: Default::default(),
        })
    }
}

/// A single project's metadata repository.
pub struct ProjectStore {
    project: String,
    schema: Schema,
    state: OrderedRwLock<StoreState>,
    /// Records touched by query execution — the cost metric for E7/E8.
    scanned: AtomicU64,
    queries: AtomicU64,
    durability: Option<ComponentDurability>,
}

impl ProjectStore {
    /// Creates an empty store for `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::with_durability(schema, None)
    }

    /// Creates a store with an optional durability handle: when `Some`,
    /// every acked mutation is committed to the WAL before returning,
    /// and any existing state in the durable store (checkpoint + WAL
    /// segments from a previous incarnation) is recovered before this
    /// returns.
    pub fn with_durability(schema: Schema, durability: Option<ComponentDurability>) -> Self {
        // A store with no log to checkpoint is one chunk.
        let chunk_records = durability
            .as_ref()
            .and_then(|d| usize::try_from(d.chunk_records()).ok())
            .unwrap_or(usize::MAX);
        let mut state = StoreState {
            schema: schema.clone(),
            records: Vec::new(),
            by_name: HashMap::new(),
            field_indexes: Vec::new(),
            tag_index: TagIndex::new(),
            subscribers: Vec::new(),
            chunk_records,
            dirty: Vec::new(),
        };
        state.reindex();
        let store = ProjectStore {
            project: schema.name.clone(),
            state: OrderedRwLock::new(ranks::META_STATE, state),
            schema,
            scanned: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            durability,
        };
        store.recover();
        store
    }

    /// The project name (same as the schema name).
    pub fn project(&self) -> &str {
        &self.project
    }

    /// The project schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of datasets registered.
    pub fn len(&self) -> usize {
        self.state.read().records.len()
    }

    /// True when no datasets are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Subscribes to change events.
    pub fn subscribe(&self, sub: Subscriber) {
        self.state.write().subscribers.push(sub);
    }

    fn emit(&self, subs: &[Subscriber], event: &MetadataEvent) {
        for s in subs {
            s(event);
        }
    }

    /// Registers a dataset. Basic metadata is validated and becomes
    /// write-once. A batch of one: see [`ProjectStore::insert_batch`].
    pub fn insert(&self, new: NewDataset) -> Result<DatasetId, MetadataError> {
        // `insert_batch` answers every item it was given.
        self.insert_batch(vec![new]).swap_remove(0)
    }

    /// Registers a batch of datasets as one catalog commit: one
    /// acquisition of the catalog lock, one WAL group, one modelled
    /// fsync, whatever the batch size. `results[i]` answers `batch[i]`,
    /// and the catalog ends exactly as if the items had been inserted
    /// one by one in order — an invalid document or a taken name
    /// (in the catalog, or earlier in this batch) rejects that item
    /// only, and ids stay dense over the accepted ones.
    pub fn insert_batch(
        &self,
        batch: Vec<NewDataset>,
    ) -> Vec<Result<DatasetId, MetadataError>> {
        let mut logged = Vec::with_capacity(batch.len());
        let (results, subs) = {
            // The commit is one critical section that opens when the
            // batch arrives: each item goes document -> record -> WAL
            // bytes -> indexes under the lock, nothing is staged beside
            // it. Shaping or encoding ahead of the lock would shorten
            // the section but open it later by as long as that work
            // takes, and whether a reader working alongside meets the
            // commit or slips past it then turns on microseconds: its
            // query times get two modes (DESIGN §8, "Where the commit
            // window opens"). Move work out only with that measured.
            let mut st = self.state.write();
            let results: Vec<Result<DatasetId, MetadataError>> = batch
                .into_iter()
                .map(|new| {
                    let rec = new.into_record(&self.schema)?;
                    let payload = self
                        .durability
                        .as_ref()
                        .map(|_| MetaWalRecord::encode_insert(&self.schema, &rec));
                    let id = st.register(rec).map_err(MetadataError::DuplicateName)?;
                    logged.extend(payload);
                    Ok(id)
                })
                .collect();
            // Logged under the catalog lock so log order agrees with
            // id-assignment order (ids are dense insertion indexes).
            // Nothing registered above is visible, or acked, before
            // the guard drops — after the group is durable.
            if let Some(d) = &self.durability {
                d.log_batch(&logged);
            }
            (results, st.subscribers.clone())
        };
        if !subs.is_empty() {
            for id in results.iter().flatten() {
                let event = MetadataEvent::Inserted { project: self.project.clone(), id: *id };
                self.emit(&subs, &event);
            }
        }
        results
    }

    /// Fetches a record by id. Like every read here it hands out a
    /// shared handle, not a copy: the record as of this call, which
    /// later tags and processing results in the catalog do not touch.
    pub fn get(&self, id: DatasetId) -> Result<Arc<DatasetRecord>, MetadataError> {
        self.state
            .read()
            .records
            .get(id.0 as usize)
            .map(Arc::clone)
            .ok_or(MetadataError::NotFound(id))
    }

    /// Fetches a record by unique name.
    pub fn get_by_name(&self, name: &str) -> Option<Arc<DatasetRecord>> {
        let st = self.state.read();
        st.by_name.get(name).map(|&id| Arc::clone(&st.records[id.0 as usize]))
    }

    /// Basic metadata is write-once: this always fails, by design. The
    /// method exists so that callers porting from mutable catalogs get a
    /// typed error instead of silently diverging from the facility
    /// contract (paper slide 8: "BASIC METADATA — write once, read many").
    pub fn update_basic(&self, id: DatasetId, _doc: Document) -> Result<(), MetadataError> {
        let st = self.state.read();
        if st.records.get(id.0 as usize).is_none() {
            return Err(MetadataError::NotFound(id));
        }
        Err(MetadataError::WormViolation(id))
    }

    /// The one live write below [`ProjectStore::insert_batch`]: under
    /// the catalog lock, `build` sees the dataset and names the change
    /// as a WAL record, [`StoreState::apply`] — the routine replay runs —
    /// makes it, and it is logged if it took effect, so log order is
    /// catalog order and nothing is acked before it is durable. A
    /// change that took effect is then told to subscribers as `event`.
    fn commit(
        &self,
        id: DatasetId,
        build: impl FnOnce(&DatasetRecord) -> MetaWalRecord,
        event: impl FnOnce() -> MetadataEvent,
    ) -> Result<(), MetadataError> {
        let subs = {
            let mut st = self.state.write();
            let rec = build(st.records.get(id.0 as usize).ok_or(MetadataError::NotFound(id))?);
            let logged = self.durability.as_ref().map(|d| (d, rec.encode(&self.schema)));
            if !st.apply(rec) {
                return Ok(());
            }
            if let Some((d, payload)) = logged {
                d.log(&payload);
            }
            st.subscribers.clone()
        };
        self.emit(&subs, &event());
        Ok(())
    }

    /// Appends a processing-result set (the paper's METADATA N), returning
    /// its sequence number.
    pub fn append_processing(
        &self,
        id: DatasetId,
        step: &str,
        params: Document,
        results: Document,
        derived_keys: Vec<String>,
    ) -> Result<u32, MetadataError> {
        let next = Cell::new(0);
        self.commit(
            id,
            |rec| {
                let (step, seq) = (step.to_string(), rec.processing.len() as u32 + 1);
                next.set(seq);
                MetaWalRecord::AppendProcessing { id, step, params, results, derived_keys, seq }
            },
            || {
                let (project, step) = (self.project.clone(), step.to_string());
                MetadataEvent::ProcessingAdded { project, id, step, seq: next.get() }
            },
        )?;
        Ok(next.get())
    }

    /// Adds a tag; idempotent. Emits an event only on first addition.
    pub fn tag(&self, id: DatasetId, tag: &str) -> Result<(), MetadataError> {
        self.commit(
            id,
            |_| MetaWalRecord::Tag { id, tag: tag.to_string() },
            || MetadataEvent::Tagged { project: self.project.clone(), id, tag: tag.to_string() },
        )
    }

    /// Removes a tag; idempotent.
    pub fn untag(&self, id: DatasetId, tag: &str) -> Result<(), MetadataError> {
        self.commit(
            id,
            |_| MetaWalRecord::Untag { id, tag: tag.to_string() },
            || MetadataEvent::Untagged { project: self.project.clone(), id, tag: tag.to_string() },
        )
    }

    /// Executes a query, using secondary indexes where the predicate shape
    /// allows, and returns matching records in id order.
    pub fn query(&self, pred: &Predicate) -> Vec<Arc<DatasetRecord>> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let st = self.state.read();
        // What the index cannot answer is re-checked on every candidate,
        // so a bound the index reads loosely costs a candidate, never a
        // wrong hit. Names are bound to slots once, here.
        let bound = |unchecked: &Predicate| unchecked.bind(&self.schema);
        match st.plan(pred) {
            Some((ids, unchecked)) => {
                self.scanned.fetch_add(ids.len() as u64, Ordering::Relaxed);
                let hits = ids.iter().map(|id| &st.records[id.0 as usize]);
                match unchecked.map(bound) {
                    None => hits.map(Arc::clone).collect(),
                    Some(check) => hits.filter(|r| check.matches(r)).map(Arc::clone).collect(),
                }
            }
            None => {
                self.scanned.fetch_add(st.records.len() as u64, Ordering::Relaxed);
                let check = bound(pred);
                st.records.iter().filter(|r| check.matches(r)).map(Arc::clone).collect()
            }
        }
    }

    /// `(queries executed, records scanned)` counters.
    pub fn query_stats(&self) -> (u64, u64) {
        (
            self.queries.load(Ordering::Relaxed),
            self.scanned.load(Ordering::Relaxed),
        )
    }

    /// All records (snapshot), in insertion order.
    pub fn all(&self) -> Vec<Arc<DatasetRecord>> {
        self.state.read().records.to_vec()
    }

    /// All tags in use.
    pub fn tags(&self) -> Vec<String> {
        self.state.read().tag_index.tags()
    }

    /// Total bytes registered across datasets.
    pub fn total_bytes(&self) -> u128 {
        self.state
            .read()
            .records
            .iter()
            .map(|r| u128::from(r.size_bytes))
            .sum()
    }

    /// Convenience: ids of records matching a tag.
    pub fn ids_with_tag(&self, tag: &str) -> Vec<DatasetId> {
        self.state.read().tag_index.lookup(tag).to_vec()
    }

    /// Looks up a single basic-metadata value.
    pub fn field_of(&self, id: DatasetId, field: &str) -> Option<Value> {
        self.state
            .read()
            .records
            .get(id.0 as usize)
            .and_then(|r| r.basic.get(field).cloned())
    }

    // --- Durability: snapshot, crash, recovery ------------------------

    /// SHA-256 over the canonical catalog snapshot: two stores with the
    /// same logical catalog produce the same digest, bit for bit.
    pub fn catalog_digest(&self) -> String {
        sha256(&MetaSnapshot::encode(&self.state.read().records)).to_hex()
    }

    /// The catalog as checkpoint chunks. Only chunks changed since the
    /// last call are encoded, or every one when `whole`; the rest are
    /// `Keep`. Runs under the read guard and clears each flag it
    /// honours there: mutators hold the write guard, so a change after
    /// this encode finds the flag clear and sets it for next time.
    fn checkpoint_chunks(&self, whole: bool) -> Vec<Chunk> {
        let st = self.state.read();
        debug_assert_eq!(st.dirty.len(), st.records.len().div_ceil(st.chunk_records));
        st.records
            .chunks(st.chunk_records)
            .zip(&st.dirty)
            .map(|(records, dirty)| {
                if dirty.swap(false, Ordering::Relaxed) || whole {
                    Chunk::Put(MetaSnapshot::encode_chunk(&self.schema, records))
                } else {
                    Chunk::Keep
                }
            })
            .collect()
    }

    /// Takes a checkpoint now (rotate WAL → encode the chunks that
    /// changed → persist them and the manifest → truncate old
    /// segments). Returns how many chunks were written, or `None` on a
    /// non-durable store.
    pub fn checkpoint(&self) -> Option<u64> {
        let d = self.durability.as_ref()?;
        d.checkpoint_with(|whole| self.checkpoint_chunks(whole))
    }

    /// Checkpoints when enough WAL records have accumulated; returns
    /// whether a checkpoint was taken.
    pub fn maybe_checkpoint(&self) -> bool {
        let d = self.durability.as_ref();
        d.and_then(|d| d.checkpoint_if_due(|whole| self.checkpoint_chunks(whole))).is_some()
    }

    /// Simulates a store crash: the in-memory catalog (records, name
    /// map, every secondary index) is wiped and an in-flight, never-
    /// acked WAL frame is torn. Subscribers survive — they model the
    /// restarted process re-registering its triggers, not durable
    /// state. Call [`ProjectStore::recover`] to rebuild.
    pub fn crash(&self, seed: u64) {
        if let Some(d) = &self.durability {
            d.crash_torn(seed);
        }
        self.state.write().wipe();
    }

    /// Rebuilds the catalog from the durable store through the
    /// harness's recovery loop: the latest verified checkpoint is
    /// installed, then the committed WAL suffix replayed idempotently,
    /// then the field indexes built over the result. A checkpoint or a
    /// logged insert written under another schema than this store's is
    /// refused — reported as `checkpoint_rejected`, counted as skipped
    /// — never read as if it were this one's. A store without
    /// durability returns zeroed stats.
    pub fn recover(&self) -> RecoveryStats {
        let Some(d) = &self.durability else {
            return RecoveryStats::default();
        };
        // One lock for the whole pass, lent to both steps in turn.
        // Replay emits no events: the recovered catalog is a
        // reconstruction, not new activity.
        let mut st = self.state.write();
        // Clean exactly when the records in memory are the ones the
        // manifest names: an install says so, replay dirties what it
        // touches.
        st.dirty.iter_mut().for_each(|flag| *flag.get_mut() = true);
        st.field_indexes.clear();
        let st = RefCell::new(st);
        let decode = |payload: &[u8]| MetaWalRecord::decode(payload, &self.schema);
        let stats = d.recover_with(
            |chunks| st.borrow_mut().install(chunks),
            |payload| decode(payload).is_some_and(|rec| st.borrow_mut().apply(rec)),
        );
        st.into_inner().reindex();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{eq, ge, gt, has_tag, le, lt};
    use crate::schema::{zebrafish_schema, SchemaBuilder};
    use crate::value::FieldType;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn zf_doc(fish: i64, idx: i64, wl: f64) -> Document {
        [
            ("fish_id".to_string(), Value::Int(fish)),
            ("image_index".to_string(), Value::Int(idx)),
            ("focus_um".to_string(), Value::Float(10.0)),
            ("wavelength_nm".to_string(), Value::Float(wl)),
            ("well".to_string(), Value::from("A1")),
            ("acquired_at".to_string(), Value::Time(fish * 100 + idx)),
        ]
        .into_iter()
        .collect()
    }

    fn new_ds(name: &str, doc: Document) -> NewDataset {
        NewDataset {
            name: name.to_string(),
            location: format!("lsdf://zebrafish-htm/raw/{name}"),
            size_bytes: 4_000_000,
            checksum_hex: String::new(),
            basic: doc,
        }
    }

    fn store_with(n: usize) -> ProjectStore {
        let store = ProjectStore::new(zebrafish_schema());
        for i in 0..n {
            let wl = if i % 2 == 0 { 488.0 } else { 561.0 };
            store
                .insert(new_ds(&format!("img-{i:05}"), zf_doc((i / 24) as i64, (i % 24) as i64, wl)))
                .unwrap();
        }
        store
    }

    #[test]
    fn insert_validates_schema() {
        let store = ProjectStore::new(zebrafish_schema());
        let bad = NewDataset {
            name: "x".into(),
            location: String::new(),
            size_bytes: 0,
            checksum_hex: String::new(),
            basic: Document::new(),
        };
        assert!(matches!(store.insert(bad), Err(MetadataError::Schema(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let store = ProjectStore::new(zebrafish_schema());
        store.insert(new_ds("a", zf_doc(1, 1, 488.0))).unwrap();
        assert_eq!(
            store.insert(new_ds("a", zf_doc(1, 2, 488.0))),
            Err(MetadataError::DuplicateName("a".into()))
        );
    }

    #[test]
    fn basic_metadata_is_worm() {
        let store = ProjectStore::new(zebrafish_schema());
        let id = store.insert(new_ds("a", zf_doc(1, 1, 488.0))).unwrap();
        assert_eq!(
            store.update_basic(id, Document::new()),
            Err(MetadataError::WormViolation(id))
        );
        assert_eq!(
            store.update_basic(DatasetId(99), Document::new()),
            Err(MetadataError::NotFound(DatasetId(99)))
        );
    }

    #[test]
    fn processing_results_append_with_monotone_seq() {
        let store = ProjectStore::new(zebrafish_schema());
        let id = store.insert(new_ds("a", zf_doc(1, 1, 488.0))).unwrap();
        let s1 = store
            .append_processing(id, "segmentation", Document::new(), Document::new(), vec![])
            .unwrap();
        let s2 = store
            .append_processing(id, "segmentation", Document::new(), Document::new(), vec![])
            .unwrap();
        assert_eq!((s1, s2), (1, 2));
        let rec = store.get(id).unwrap();
        assert_eq!(rec.processing.len(), 2);
        assert_eq!(rec.latest_processing("segmentation").unwrap().seq, 2);
    }

    #[test]
    fn indexed_equality_query_scans_only_matches() {
        let store = store_with(480); // 20 fish * 24 images
        let hits = store.query(&eq("fish_id", 7i64));
        assert_eq!(hits.len(), 24);
        let (_q, scanned) = store.query_stats();
        assert_eq!(scanned, 24, "index should avoid a full scan");
    }

    #[test]
    fn range_query_uses_ordered_index() {
        let store = store_with(480);
        let hits = store.query(&ge("wavelength_nm", 500.0));
        assert_eq!(hits.len(), 240);
        let (_, scanned) = store.query_stats();
        assert_eq!(scanned, 240);
        // lt/le/gt variants also behave.
        assert_eq!(store.query(&lt("wavelength_nm", 500.0)).len(), 240);
        assert_eq!(store.query(&le("wavelength_nm", 488.0)).len(), 240);
        assert_eq!(store.query(&gt("wavelength_nm", 488.0)).len(), 240);
    }

    #[test]
    fn unindexed_query_full_scans_but_is_correct() {
        let store = store_with(48);
        let hits = store.query(&eq("well", "A1"));
        assert_eq!(hits.len(), 48);
        let (_, scanned) = store.query_stats();
        assert_eq!(scanned, 48);
    }

    #[test]
    fn conjunction_narrows_via_cheaper_index() {
        let store = store_with(480);
        let hits = store.query(&eq("fish_id", 3i64).and(eq("wavelength_nm", 488.0)));
        assert_eq!(hits.len(), 12);
        let (_, scanned) = store.query_stats();
        assert!(scanned <= 24, "scanned {scanned}, expected <= 24");
    }

    #[test]
    fn a_conjunction_walks_only_the_side_it_uses() {
        let store = store_with(480);
        // "This fish since T": 24 ids on one side, the tail of the
        // catalog on the other, written either way round.
        let since = ge("acquired_at", Value::Time(5 * 100 + 12));
        for pred in [eq("fish_id", 5i64).and(since.clone()), since.clone().and(eq("fish_id", 5i64))] {
            let (_, before) = store.query_stats();
            let ids: Vec<u64> = store.query(&pred).iter().map(|r| r.id.0).collect();
            assert_eq!(ids, (5 * 24 + 12..6 * 24).collect::<Vec<u64>>());
            assert_eq!(store.query_stats().1 - before, 24, "{pred:?}");
        }
        // The range is the cheaper side when it is the shorter one.
        let (_, before) = store.query_stats();
        let last = ge("acquired_at", Value::Time(19 * 100 + 21));
        assert_eq!(store.query(&eq("wavelength_nm", 561.0).and(last)).len(), 2);
        assert_eq!(store.query_stats().1 - before, 3);
        // A side with no index leaves the other; two such, a full scan.
        let (_, before) = store.query_stats();
        assert_eq!(store.query(&eq("well", "A1").and(eq("fish_id", 5i64))).len(), 24);
        assert_eq!(store.query(&eq("well", "A1").and(eq("well", "B2"))).len(), 0);
        assert_eq!(store.query_stats().1 - before, 24 + 480);
    }

    #[test]
    fn both_zeros_are_one_value_to_an_indexed_field() {
        let schema = SchemaBuilder::new("t")
            .required("x", FieldType::Float)
            .indexed()
            .required("y", FieldType::Float)
            .build()
            .unwrap();
        let store = ProjectStore::new(schema);
        for (i, v) in [-0.0, 0.0, 1.0].into_iter().enumerate() {
            let basic = [("x", v), ("y", v)].map(|(k, v)| (k.to_string(), Value::Float(v)));
            store.insert(new_ds(&format!("r{i}"), basic.into_iter().collect())).unwrap();
        }
        let ids = |pred: Predicate| store.query(&pred).iter().map(|r| r.id.0).collect::<Vec<_>>();
        let forms: [fn(&str, f64) -> Predicate; 6] = [eq, crate::query::ne, lt, le, gt, ge];
        for form in forms {
            for zero in [0.0, -0.0] {
                assert_eq!(ids(form("x", zero)), ids(form("y", zero)), "{:?}", form("x", zero));
            }
        }
        assert_eq!(ids(eq("x", 0.0)), [0, 1]);
        assert_eq!(ids(ge("x", 0.0)), [0, 1, 2]);
        assert_eq!(ids(le("x", -0.0)), [0, 1]);
    }

    #[test]
    fn an_exact_equality_plan_on_either_zero_holds_what_matches_finds() {
        let schema = SchemaBuilder::new("t")
            .required("x", FieldType::Float)
            .indexed()
            .required("y", FieldType::Float)
            .indexed()
            .build()
            .unwrap();
        let store = ProjectStore::new(schema);
        for (i, v) in [-0.0, 0.0, 1.0, -1.0, 0.0, -0.0].into_iter().enumerate() {
            let basic = [("x", v), ("y", i as f64)].map(|(k, v)| (k.to_string(), Value::Float(v)));
            store.insert(new_ds(&format!("r{i}"), basic.into_iter().collect())).unwrap();
        }
        let st = store.state.read();
        for zero in [0.0, -0.0] {
            let pred = eq("x", zero);
            let (ids, unchecked) = st.plan(&pred).expect("x is indexed");
            assert_eq!(unchecked, None, "nothing left to check");
            let scan: Vec<DatasetId> = st.records.iter().filter(|r| pred.matches(r)).map(|r| r.id).collect();
            assert_eq!((&*ids, scan.len()), (&scan[..], 4), "{zero:?}");
            // Beside a range, the exact side leaves only the range.
            let since = ge("y", 1.0);
            let both = since.clone().and(pred);
            let (ids, unchecked) = st.plan(&both).unwrap();
            assert_eq!((&*ids, unchecked), (&scan[..], Some(&since)));
        }
        // A cheaper side that is a range leaves the whole conjunction.
        let pred = ge("y", 5.0).and(eq("x", 0.0));
        assert_eq!(st.plan(&pred).map(|(ids, unchecked)| (ids.to_vec(), unchecked)), Some((vec![DatasetId(5)], Some(&pred))));
    }

    #[test]
    fn reads_hand_out_the_catalog_s_own_records() {
        let store = store_with(480);
        let first = store.query(&eq("fish_id", 7i64));
        assert_eq!(first.len(), 24);
        // One allocation per record, shared: the catalog's handle and ours.
        assert!(first.iter().all(|r| Arc::strong_count(r) == 2));
        let second = store.query(&eq("fish_id", 7i64));
        assert!(first.iter().zip(&second).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert!(first.iter().all(|r| Arc::strong_count(r) == 3));
        let by_name = store.get_by_name(&first[3].name).unwrap();
        assert!(Arc::ptr_eq(&by_name, &first[3]) && Arc::ptr_eq(&by_name, &store.get(by_name.id).unwrap()));
        drop(by_name);
        let watch: Vec<_> = first.iter().map(Arc::downgrade).collect();
        drop((first, second));
        assert!(watch.iter().all(|w| w.strong_count() == 1), "only the catalog's is left");
    }

    #[test]
    fn a_held_handle_is_a_snapshot_and_the_catalog_moves_on() {
        let disk = lsdf_durability::DurableStore::new();
        let store = durable_store(&disk, 4);
        let twin = store_with(0);
        for s in [&store, &twin] {
            insert_range(s, 0, 10);
        }
        assert_eq!(store.checkpoint(), Some(3));
        let id = DatasetId(5);
        let held = store.get(id).unwrap();
        let hits = store.query(&eq("fish_id", 5i64));
        for s in [&store, &twin] {
            s.tag(id, "needs-processing").unwrap();
            s.append_processing(id, "seg", Document::new(), Document::new(), vec![]).unwrap();
        }
        // What was handed out is the record as of its read...
        assert!(Arc::ptr_eq(&held, &hits[0]));
        assert!(held.tags.is_empty() && held.processing.is_empty());
        // ...and every later read sees the catalog's.
        let now = store.get(id).unwrap();
        assert!(now.has_tag("needs-processing") && now.processing.len() == 1);
        assert_eq!(now.basic, held.basic, "WORM: basic metadata never differs");
        assert_eq!(store.query(&has_tag("needs-processing")), [now]);
        // The catalog is the one of a twin that never handed out a
        // handle, and the copy dirtied its chunk like any change.
        assert_eq!(store.catalog_digest(), twin.catalog_digest());
        assert_eq!(store.checkpoint(), Some(1));
        store.untag(id, "needs-processing").unwrap();
        assert!(store.get(id).unwrap().tags.is_empty() && !held.has_tag("needs-processing"));
    }

    #[test]
    fn tags_query_and_events_fire() {
        let store = store_with(10);
        let tag_events = Arc::new(AtomicUsize::new(0));
        {
            let c = tag_events.clone();
            store.subscribe(Arc::new(move |ev| {
                if matches!(ev, MetadataEvent::Tagged { .. }) {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        store.tag(DatasetId(1), "needs-processing").unwrap();
        store.tag(DatasetId(1), "needs-processing").unwrap(); // idempotent
        store.tag(DatasetId(4), "needs-processing").unwrap();
        assert_eq!(tag_events.load(Ordering::Relaxed), 2);
        let hits = store.query(&has_tag("needs-processing"));
        assert_eq!(hits.len(), 2);
        store.untag(DatasetId(1), "needs-processing").unwrap();
        assert_eq!(store.ids_with_tag("needs-processing"), vec![DatasetId(4)]);
    }

    #[test]
    fn insert_event_fires() {
        let store = ProjectStore::new(zebrafish_schema());
        let events = Arc::new(AtomicUsize::new(0));
        {
            let c = events.clone();
            store.subscribe(Arc::new(move |ev| {
                if matches!(ev, MetadataEvent::Inserted { .. }) {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        store.insert(new_ds("a", zf_doc(1, 1, 488.0))).unwrap();
        store.insert(new_ds("b", zf_doc(1, 2, 488.0))).unwrap();
        assert_eq!(events.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn get_by_name_and_field_of() {
        let store = store_with(5);
        let rec = store.get_by_name("img-00003").unwrap();
        assert_eq!(rec.id, DatasetId(3));
        assert_eq!(store.field_of(rec.id, "fish_id"), Some(Value::Int(0)));
        assert!(store.get_by_name("nope").is_none());
    }

    #[test]
    fn total_bytes_sums_sizes() {
        let store = store_with(10);
        assert_eq!(store.total_bytes(), 40_000_000);
    }

    #[test]
    fn or_query_merges_indexes() {
        let store = store_with(480);
        let hits = store.query(&eq("fish_id", 1i64).or(eq("fish_id", 2i64)));
        assert_eq!(hits.len(), 48);
        let (_, scanned) = store.query_stats();
        assert_eq!(scanned, 48);
    }

    #[test]
    fn batch_events_fire_in_id_order_for_accepted_items_only() {
        let store = ProjectStore::new(zebrafish_schema());
        // (events seen, 1 + the last id seen)
        let seen = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        {
            let seen = seen.clone();
            store.subscribe(Arc::new(move |ev| {
                if let MetadataEvent::Inserted { id, .. } = ev {
                    seen.0.fetch_add(1, Ordering::Relaxed);
                    let after = seen.1.swap(id.0 + 1, Ordering::Relaxed);
                    assert!(after <= id.0, "{id:?} emitted after id {}", after - 1);
                }
            }));
        }
        let results = store.insert_batch(vec![
            new_ds("a", zf_doc(1, 1, 488.0)),
            new_ds("bad", Document::new()),
            new_ds("a", zf_doc(1, 2, 488.0)),
            new_ds("b", zf_doc(1, 3, 488.0)),
        ]);
        assert_eq!(results[0], Ok(DatasetId(0)));
        assert!(matches!(results[1], Err(MetadataError::Schema(_))));
        assert_eq!(results[2], Err(MetadataError::DuplicateName("a".into())));
        assert_eq!(results[3], Ok(DatasetId(1)), "ids stay dense over accepted items");
        assert_eq!((seen.0.load(Ordering::Relaxed), seen.1.load(Ordering::Relaxed)), (2, 2));
    }

    #[test]
    fn a_batch_of_any_size_is_one_group_commit() {
        let reg = Arc::new(lsdf_obs::Registry::new());
        let store = ProjectStore::with_durability(
            zebrafish_schema(),
            Some(lsdf_durability::ComponentDurability::open(
                &lsdf_durability::DurableStore::new(),
                "meta-zebrafish",
                &reg,
                &lsdf_durability::DurabilityConfig::default(),
            )),
        );
        let wal = |name| reg.counter_value(name, &[("log", "meta-zebrafish")]);
        use lsdf_obs::names::{WAL_APPENDS_TOTAL, WAL_FSYNCS_TOTAL};
        // One insert is a batch of one: one fsync per call, where the
        // per-record path charges one per `GROUP_COMMIT` (8) records.
        for i in 0..3 {
            store.insert(new_ds(&format!("one-{i}"), zf_doc(i, 0, 488.0))).unwrap();
        }
        assert_eq!((wal(WAL_APPENDS_TOTAL), wal(WAL_FSYNCS_TOTAL)), (3, 3));
        let batch = (0..10).map(|i| new_ds(&format!("many-{i}"), zf_doc(i, 1, 488.0))).collect();
        assert!(store.insert_batch(batch).iter().all(Result::is_ok));
        assert_eq!((wal(WAL_APPENDS_TOTAL), wal(WAL_FSYNCS_TOTAL)), (13, 4));
        // Nothing accepted, nothing logged, nothing synced.
        assert!(store.insert(new_ds("one-0", zf_doc(0, 0, 488.0))).is_err());
        assert_eq!((wal(WAL_APPENDS_TOTAL), wal(WAL_FSYNCS_TOTAL)), (13, 4));
    }

    fn durable_store(
        store: &lsdf_durability::DurableStore,
        checkpoint_every: u64,
    ) -> ProjectStore {
        durable_store_and_registry(store, checkpoint_every).0
    }

    fn durable_store_and_registry(
        store: &lsdf_durability::DurableStore,
        checkpoint_every: u64,
    ) -> (ProjectStore, Arc<lsdf_obs::Registry>) {
        open_under(zebrafish_schema(), store, checkpoint_every)
    }

    /// Opens the `meta-zebrafish` store on `disk` under `schema`,
    /// recovering whatever the disk holds.
    fn open_under(
        schema: Schema,
        disk: &lsdf_durability::DurableStore,
        checkpoint_every: u64,
    ) -> (ProjectStore, Arc<lsdf_obs::Registry>) {
        let reg = Arc::new(lsdf_obs::Registry::new());
        let cfg = lsdf_durability::DurabilityConfig {
            checkpoint_every,
            ..lsdf_durability::DurabilityConfig::default()
        };
        let durability =
            lsdf_durability::ComponentDurability::open(disk, "meta-zebrafish", &reg, &cfg);
        (ProjectStore::with_durability(schema, Some(durability)), reg)
    }

    /// Inserts `img-<from>` up to `img-<to - 1>` as one batch.
    fn insert_range(store: &ProjectStore, from: i64, to: i64) {
        let batch = (from..to).map(|i| new_ds(&format!("img-{i:05}"), zf_doc(i, 0, 488.0))).collect();
        assert!(store.insert_batch(batch).iter().all(Result::is_ok));
    }

    #[test]
    fn a_checkpoint_writes_the_chunks_that_changed_and_no_others() {
        use lsdf_obs::names::{CKPT_BYTES, CKPT_CHUNKS_REUSED_TOTAL, CKPT_CHUNKS_WRITTEN_TOTAL};
        let disk = lsdf_durability::DurableStore::new();
        let (store, reg) = durable_store_and_registry(&disk, 4);
        let labels = [("log", "meta-zebrafish")];
        let counts = || {
            (
                reg.counter_value(CKPT_CHUNKS_WRITTEN_TOTAL, &labels),
                reg.counter_value(CKPT_CHUNKS_REUSED_TOTAL, &labels),
            )
        };
        // Three sealed chunks of four and a tail of two.
        insert_range(&store, 0, 14);
        assert_eq!(store.checkpoint(), Some(4));
        assert_eq!(counts(), (4, 0));
        let whole = reg.histogram(CKPT_BYTES, &labels).sum();
        // A tag on the oldest record and one appended record: that
        // record's chunk and the tail, nothing between.
        store.tag(DatasetId(0), "needs-processing").unwrap();
        insert_range(&store, 14, 15);
        assert_eq!(store.checkpoint(), Some(2));
        assert_eq!(counts(), (6, 2));
        let delta = reg.histogram(CKPT_BYTES, &labels).sum() - whole;
        assert!(delta < whole * 2 / 3, "{delta} B written for 2 of 4 chunks of {whole} B");
        // One old record changed and the tail did not: exactly its chunk.
        store
            .append_processing(DatasetId(5), "seg", Document::new(), Document::new(), vec![])
            .unwrap();
        assert_eq!(store.checkpoint(), Some(1));
        assert_eq!(counts(), (7, 5));
        // An untag that removes nothing and a tag already present change
        // nothing, so nothing is written — and the log still rotates
        // and loses its old segments.
        store.untag(DatasetId(9), "absent").unwrap();
        store.tag(DatasetId(0), "needs-processing").unwrap();
        let segments = || disk.names_with_prefix("meta-zebrafish-wal-");
        assert_eq!(segments(), ["meta-zebrafish-wal-00000003"]);
        assert_eq!(store.checkpoint(), Some(0));
        assert_eq!(counts(), (7, 9));
        assert_eq!(segments(), ["meta-zebrafish-wal-00000004"]);
        // What is on disk is the catalog: a crash right now loses nothing.
        let (digest, all) = (store.catalog_digest(), store.all());
        store.crash(3);
        let stats = store.recover();
        assert!(stats.snapshot_loaded && stats.replayed == 0);
        assert_eq!((store.catalog_digest(), store.all()), (digest, all));
        // Recovery starts clean: the next checkpoint writes what was
        // touched since, not the catalog.
        store.untag(DatasetId(0), "needs-processing").unwrap();
        assert_eq!(store.checkpoint(), Some(1));
    }

    #[test]
    fn checkpoint_work_follows_the_delta_not_the_catalog() {
        const N: i64 = 8;
        let disk = lsdf_durability::DurableStore::new();
        let store = durable_store(&disk, N as u64);
        insert_range(&store, 0, 10 * N);
        assert_eq!(store.checkpoint(), Some(10));
        let mut len = 10 * N;
        for k in [1, N - 1, N, N + 1, 3 * N, 3 * N + 5] {
            insert_range(&store, len, len + k);
            len += k;
            let written = store.checkpoint().unwrap() as i64;
            assert!(written <= (k + N - 1) / N + 1, "{written} chunks for {k} appended records");
            assert!(written >= (k + N - 1) / N, "{written} chunks cannot hold {k} records");
        }
        let digest = store.catalog_digest();
        store.crash(1);
        store.recover();
        assert_eq!(store.catalog_digest(), digest);
        assert_eq!(store.len() as i64, len);
    }

    #[test]
    fn a_rejected_checkpoint_is_reported_and_recovery_keeps_the_surviving_log() {
        let disk = lsdf_durability::DurableStore::new();
        let (store, reg) = durable_store_and_registry(&disk, 2);
        insert_range(&store, 0, 6);
        assert_eq!(store.checkpoint(), Some(3));
        insert_range(&store, 6, 8);
        store.tag(DatasetId(7), "raw").unwrap();
        // Bit rot in one of the three chunks the manifest names.
        let chunks = disk.names_with_prefix("meta-zebrafish-ckpt-");
        assert_eq!(chunks.len(), 3);
        disk.open(&chunks[1]).set(b"not the chunk that was written".to_vec());
        store.crash(17);
        let stats = store.recover();
        assert!(stats.checkpoint_rejected && !stats.snapshot_loaded, "{stats:?}");
        let rejected = lsdf_obs::names::CKPT_REJECTED_TOTAL;
        assert_eq!(reg.counter_value(rejected, &[("log", "meta-zebrafish")]), 1);
        // The first segment went when the checkpoint landed. The two
        // inserts logged since replay (dense ids restart at 0); the tag
        // on id 7 finds no such record and is skipped.
        assert_eq!((stats.replayed, stats.skipped), (2, 1));
        let names: Vec<String> = store.all().into_iter().map(|r| r.name.clone()).collect();
        assert_eq!(names, ["img-00006", "img-00007"]);
        // Nothing of the rejected checkpoint is kept by reference: the
        // next one writes the catalog it has, and recovers from it.
        assert_eq!(store.checkpoint(), Some(1));
        let digest = store.catalog_digest();
        store.crash(18);
        let stats = store.recover();
        assert!(stats.snapshot_loaded && !stats.checkpoint_rejected);
        assert_eq!(store.catalog_digest(), digest);
    }

    #[test]
    fn a_store_reopened_under_another_schema_refuses_what_the_disk_holds() {
        let disk = lsdf_durability::DurableStore::new();
        let store = durable_store(&disk, 2);
        insert_range(&store, 0, 6);
        assert_eq!(store.checkpoint(), Some(3));
        insert_range(&store, 6, 8);
        let digest = store.catalog_digest();
        drop(store);
        // The same fields and one more: other slots, another fingerprint.
        let widened = zebrafish_schema().fields().iter().fold(
            SchemaBuilder::new("zebrafish-htm").optional("operator", FieldType::Str),
            |b, f| if f.required { b.required(&f.name, f.ty) } else { b.optional(&f.name, f.ty) },
        );
        let (reopened, reg) = open_under(widened.build().unwrap(), &disk, 2);
        let rejected = || reg.counter_value(lsdf_obs::names::CKPT_REJECTED_TOTAL, &[("log", "meta-zebrafish")]);
        assert!(reopened.is_empty(), "no record is read under a schema it was not written under");
        assert_eq!(rejected(), 1);
        let stats = reopened.recover();
        assert!(stats.checkpoint_rejected && !stats.snapshot_loaded, "{stats:?}");
        assert_eq!((stats.replayed, stats.skipped, rejected()), (0, 2, 2));
        drop(reopened);
        // Refused, not destroyed: the schema that wrote it reads it all.
        let (store, reg) = durable_store_and_registry(&disk, 2);
        assert_eq!((store.len(), store.catalog_digest()), (8, digest));
        assert_eq!(reg.counter_value(lsdf_obs::names::CKPT_REJECTED_TOTAL, &[("log", "meta-zebrafish")]), 0);
    }

    #[test]
    fn a_checkpoint_whose_records_do_not_fit_the_catalog_is_refused_whole() {
        let schema = SchemaBuilder::new("zebrafish-htm")
            .required("run", FieldType::Int)
            .indexed()
            .required("energy", FieldType::Float)
            .optional("detector", FieldType::Str)
            .build()
            .unwrap();
        let record = |id: u64, name: &str| DatasetRecord {
            id: DatasetId(id),
            name: name.to_string(),
            ..new_ds(name, [("run", Value::Int(7)), ("energy", Value::Float(0.5))].map(|(k, v)| (k.to_string(), v)).into())
                .into_record(&schema)
                .unwrap()
        };
        let chunk = |records: &[DatasetRecord]| MetaSnapshot::encode_chunk(&schema, records);
        let sound = [chunk(&[record(0, "a"), record(1, "b")]), chunk(&[record(2, "c"), record(3, "d")])];
        // fingerprint, id, three length-prefixed strings and the size:
        // then record 0's bitmap (three slots, the third absent) and its
        // first value's type tag.
        let bitmap = 8 + 8 + (4 + 1) + (4 + "lsdf://zebrafish-htm/raw/a".len()) + 8 + 4;
        assert_eq!(sound[0][bitmap..bitmap + 2], [0b011, FieldType::Int.tag()]);
        let patched = |at: usize, byte: u8| {
            let mut bytes = sound[0].clone();
            bytes[at] = byte;
            bytes
        };
        let unsound = [
            ("a name an earlier record has", vec![sound[0].clone(), chunk(&[record(2, "c"), record(3, "a")])]),
            ("an id that is not its position", vec![sound[0].clone(), chunk(&[record(3, "c"), record(4, "d")])]),
            ("chunks out of order", vec![sound[1].clone(), sound[0].clone()]),
            ("a slot the schema lacks", vec![patched(bitmap, 0b1011), sound[1].clone()]),
            ("a value of another type than its slot", vec![patched(bitmap + 1, FieldType::Time.tag()), sound[1].clone()]),
        ];
        let disk = lsdf_durability::DurableStore::new();
        let (store, reg) = open_under(schema.clone(), &disk, 2);
        // Every chunk below is hashed as it is saved: the manifest
        // names what is there, and what is there is wrong.
        let save = |chunks: &[Vec<u8>]| {
            let ckpts = lsdf_durability::CheckpointStore::open(disk.clone(), "meta-zebrafish", &reg);
            assert!(ckpts.save(chunks.iter().cloned().map(Chunk::Put).collect(), 2, 0).is_some());
        };
        let rejected = || reg.counter_value(lsdf_obs::names::CKPT_REJECTED_TOTAL, &[("log", "meta-zebrafish")]);
        for (n, (what, chunks)) in unsound.iter().enumerate() {
            save(chunks);
            let stats = store.recover();
            assert!(stats.checkpoint_rejected && !stats.snapshot_loaded, "{what}: {stats:?}");
            assert_eq!(rejected(), n as u64 + 1, "{what}");
            assert!(store.is_empty(), "{what}: nothing of it is kept, renumbered or not");
        }
        save(&sound);
        assert!(store.recover().snapshot_loaded);
        let names: Vec<(u64, String)> = store.all().iter().map(|r| (r.id.0, r.name.clone())).collect();
        assert_eq!(names, [(0, "a".into()), (1, "b".into()), (2, "c".into()), (3, "d".into())]);
        assert_eq!(store.query(&eq("run", 7i64)).len(), 4);
        // A live catalog a refused checkpoint leaves as it was.
        save(&unsound[0].1);
        assert!(store.recover().checkpoint_rejected);
        assert_eq!((store.len(), store.get_by_name("d").map(|r| r.id)), (4, Some(DatasetId(3))));
    }

    #[test]
    fn a_restart_answers_every_query_as_before_and_held_handles_still_read() {
        let disk = lsdf_durability::DurableStore::new();
        let store = durable_store(&disk, 4);
        // Wavelengths repeat, fall to either zero and are mostly out of
        // id order; timestamps rise with the id, one value each.
        let wavelengths = [561.0, 0.0, 488.0, -0.0, 405.0, 488.0, 640.0];
        let insert = |from: i64, to: i64| {
            let batch = (from..to).map(|i| new_ds(&format!("img-{i:05}"), zf_doc(i / 3, i % 3, wavelengths[i as usize % 7])));
            assert!(store.insert_batch(batch.collect()).iter().all(Result::is_ok));
        };
        insert(0, 22);
        for i in [0, 5, 9, 21] {
            store.tag(DatasetId(i), "raw").unwrap();
        }
        assert_eq!(store.checkpoint(), Some(6));
        // The suffix the checkpoint does not hold.
        insert(22, 31);
        store.tag(DatasetId(25), "raw").unwrap();
        store.untag(DatasetId(5), "raw").unwrap();
        let at = |i: i64| Value::Time(i / 3 * 100 + i % 3);
        let preds = [
            eq("fish_id", 3i64),
            eq("wavelength_nm", 0.0),
            eq("wavelength_nm", 488.0),
            le("wavelength_nm", -0.0),
            gt("wavelength_nm", 488.0),
            ge("acquired_at", at(20)).and(lt("acquired_at", at(27))),
            eq("acquired_at", at(13)),
            eq("fish_id", 7i64).and(ge("wavelength_nm", 488.0)),
            eq("fish_id", 1i64).or(eq("wavelength_nm", 640.0)),
            has_tag("raw"),
            has_tag("raw").and(lt("acquired_at", at(10))),
            eq("well", "A1").and(eq("fish_id", 9i64)),
        ];
        let answers = |store: &ProjectStore| -> Vec<(Vec<u64>, u64)> {
            let answer = |pred| {
                let (_, before) = store.query_stats();
                let ids = store.query(pred).iter().map(|r| r.id.0).collect();
                (ids, store.query_stats().1 - before)
            };
            preds.iter().map(answer).collect()
        };
        let before = answers(&store);
        assert_eq!(before[1].0, [1, 3, 8, 10, 15, 17, 22, 24, 29]);
        assert_eq!(before[6], (vec![13], 1));
        let held = store.get(DatasetId(13)).unwrap();
        store.crash(23);
        let stats = store.recover();
        assert!(stats.snapshot_loaded && stats.replayed == 11, "{stats:?}");
        // The same ids, found by examining the same number of records:
        // the indexes a restart builds at once narrow as the ones that
        // grew insert by insert did.
        assert_eq!(answers(&store), before);
        let now = store.get(DatasetId(13)).unwrap();
        assert!(!Arc::ptr_eq(&held, &now) && *held == *now);
        assert_eq!(held.basic.get("acquired_at"), Some(&at(13)));
        assert_eq!(held.basic.to_document(), zf_doc(4, 1, wavelengths[6]));
    }

    #[test]
    fn crash_recover_is_bit_identical() {
        let disk = lsdf_durability::DurableStore::new();
        let store = durable_store(&disk, 3);
        for i in 0..3 {
            store
                .insert(new_ds(&format!("img-{i:05}"), zf_doc(i, 0, 488.0)))
                .unwrap();
        }
        assert!(store.maybe_checkpoint(), "threshold reached");
        store.tag(DatasetId(0), "needs-processing").unwrap();
        store
            .append_processing(
                DatasetId(1),
                "segmentation",
                Document::new(),
                [("cells".to_string(), Value::Int(42))].into_iter().collect(),
                vec!["seg/img-00001".into()],
            )
            .unwrap();
        store.tag(DatasetId(2), "raw").unwrap();
        store.untag(DatasetId(2), "raw").unwrap();
        let digest = store.catalog_digest();
        // Pinned across hosts, kernels and PRs: a hash kernel that is
        // self-consistent but wrong, or a snapshot-encoding change,
        // moves this literal.
        assert_eq!(digest, "a9106ca617a2e198a1ffd29482a7cfaac8a8dff0a75ebfe4bf7693a020ed3c8b");
        let all_before = store.all();

        store.crash(99);
        assert!(store.is_empty(), "volatile catalog wiped");
        let stats = store.recover();
        assert!(stats.snapshot_loaded);
        assert!(stats.torn_tails >= 1, "crash tears an in-flight frame");
        assert_eq!(store.catalog_digest(), digest);
        assert_eq!(store.all(), all_before);
        // Derived structures are rebuilt, not just the records: the
        // name map, tag index, and field indexes all answer correctly.
        assert_eq!(store.get_by_name("img-00001").unwrap().id, DatasetId(1));
        assert_eq!(store.ids_with_tag("needs-processing"), vec![DatasetId(0)]);
        assert!(store.ids_with_tag("raw").is_empty());
        let hits = store.query(&eq("fish_id", 1i64));
        assert_eq!(hits.len(), 1);
        let (_, scanned) = store.query_stats();
        assert_eq!(scanned, 1, "field index answers after recovery");
    }

    #[test]
    fn replay_without_checkpoint_reassigns_dense_ids() {
        let disk = lsdf_durability::DurableStore::new();
        let store = durable_store(&disk, 1_000);
        let a = store.insert(new_ds("a", zf_doc(1, 0, 488.0))).unwrap();
        let b = store.insert(new_ds("b", zf_doc(2, 0, 561.0))).unwrap();
        store.crash(5);
        let stats = store.recover();
        assert!(!stats.snapshot_loaded);
        assert_eq!(stats.replayed, 2);
        assert_eq!(store.get_by_name("a").unwrap().id, a);
        assert_eq!(store.get_by_name("b").unwrap().id, b);
        // The next insert continues the dense id sequence.
        let c = store.insert(new_ds("c", zf_doc(3, 0, 488.0))).unwrap();
        assert_eq!(c, DatasetId(2));
    }

    #[test]
    fn a_replayed_record_counts_once_as_applied_or_as_skipped() {
        const N: u64 = 5;
        let disk = lsdf_durability::DurableStore::new();
        let (store, reg) = durable_store_and_registry(&disk, 1_000);
        insert_range(&store, 0, N as i64);
        let digest = store.catalog_digest();
        store.crash(21);
        let first = store.recover();
        assert_eq!((first.replayed, first.skipped), (N, 0));
        // Nothing crashed in between: every record's name is taken.
        let second = store.recover();
        assert_eq!((second.replayed, second.skipped), (0, N));
        assert_eq!(store.catalog_digest(), digest);
        // The harness's own series say what the returned stats say.
        let counted = |name| reg.counter_value(name, &[("log", "meta-zebrafish")]);
        assert_eq!(counted(lsdf_obs::names::RECOVERY_REPLAYED_RECORDS_TOTAL), N);
        assert_eq!(counted(lsdf_obs::names::RECOVERY_SKIPPED_RECORDS_TOTAL), N);
    }

    #[test]
    fn processing_seq_replay_is_idempotent_across_checkpoint_race() {
        let disk = lsdf_durability::DurableStore::new();
        let store = durable_store(&disk, 1_000);
        let id = store.insert(new_ds("a", zf_doc(1, 0, 488.0))).unwrap();
        store
            .append_processing(id, "seg", Document::new(), Document::new(), vec![])
            .unwrap();
        // Checkpoint captures the processing result; its WAL record is
        // gone (truncated), but a second result lands in the new segment.
        store.checkpoint().unwrap();
        store
            .append_processing(id, "seg", Document::new(), Document::new(), vec![])
            .unwrap();
        let digest = store.catalog_digest();
        store.crash(11);
        let stats = store.recover();
        assert!(stats.snapshot_loaded);
        assert_eq!(store.catalog_digest(), digest);
        assert_eq!(store.get(id).unwrap().processing.len(), 2);
        assert_eq!(store.get(id).unwrap().latest_processing("seg").unwrap().seq, 2);
    }

    #[test]
    fn non_durable_store_recovery_is_a_no_op() {
        let store = store_with(2);
        assert_eq!(store.checkpoint(), None);
        assert!(!store.maybe_checkpoint());
        assert_eq!(store.recover(), RecoveryStats::default());
        assert_eq!(store.len(), 2, "recover leaves a non-durable store alone");
    }

    #[test]
    fn unknown_schema_fields_still_queryable_against_missing() {
        // Query on a field no record carries: matches nothing, no panic.
        let schema = SchemaBuilder::new("t")
            .required("a", FieldType::Int)
            .build()
            .unwrap();
        let store = ProjectStore::new(schema);
        store
            .insert(NewDataset {
                name: "x".into(),
                location: String::new(),
                size_bytes: 1,
                checksum_hex: String::new(),
                basic: [("a".to_string(), Value::Int(1))].into_iter().collect(),
            })
            .unwrap();
        assert!(store.query(&eq("zzz", 1i64)).is_empty());
    }
}
