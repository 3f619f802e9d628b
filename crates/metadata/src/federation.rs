//! Unified catalog vs federated per-project stores — the substrate for the
//! paper's slide-3 claim that a "single big DB with scientific data is more
//! valuable than many small ones" (experiment E8).
//!
//! Both organisations implement [`CrossQuery`]; the unified catalog holds
//! every project's records in one indexed store (with a `project`
//! discriminator field), while the federation fans each query out to N
//! independent stores and merges. The instrumented costs (stores contacted,
//! records scanned, per-store fixed overhead) quantify the gap.

use std::sync::Arc;

use crate::query::Predicate;
use crate::record::DatasetRecord;
use crate::schema::{Document, Schema, SchemaBuilder};
use crate::store::{MetadataError, NewDataset, ProjectStore};
use crate::value::{FieldType, Value};

/// Result of a cross-project query, with cost accounting.
#[derive(Debug, Clone)]
pub struct CrossQueryResult {
    /// Matching records, annotated with their project.
    pub hits: Vec<(String, Arc<DatasetRecord>)>,
    /// Number of stores contacted to answer the query.
    pub stores_contacted: usize,
    /// Records scanned across all contacted stores.
    pub records_scanned: u64,
}

/// Anything that can answer a cross-project metadata query.
pub trait CrossQuery {
    /// Runs `pred` across all projects.
    fn cross_query(&self, pred: &Predicate) -> CrossQueryResult;
    /// Total datasets held.
    fn total_records(&self) -> usize;
}

/// One store holding every project's records, discriminated by an indexed
/// `project` field merged into each document.
pub struct UnifiedCatalog {
    store: ProjectStore,
}

impl UnifiedCatalog {
    /// Builds the unified schema: the union of the project schemas' fields
    /// (all demoted to optional, since different projects fill different
    /// fields) plus the indexed `project` discriminator.
    pub fn new(project_schemas: &[Schema]) -> Result<Self, MetadataError> {
        let mut b = SchemaBuilder::new("unified").required("project", FieldType::Str);
        b = b.indexed();
        let mut seen = std::collections::HashSet::new();
        seen.insert("project".to_string());
        for s in project_schemas {
            for f in s.fields() {
                if seen.insert(f.name.clone()) {
                    b = b.optional(&f.name, f.ty);
                    if f.indexed {
                        b = b.indexed();
                    }
                }
            }
        }
        Ok(UnifiedCatalog {
            store: ProjectStore::new(b.build()?),
        })
    }

    /// Inserts a dataset for `project`.
    pub fn insert(&self, project: &str, mut new: NewDataset) -> Result<(), MetadataError> {
        new.basic
            .insert("project".to_string(), Value::Str(project.to_string()));
        // Names must stay unique across projects: prefix them.
        new.name = format!("{project}/{}", new.name);
        self.store.insert(new)?;
        Ok(())
    }

    /// The underlying store (for tagging etc.).
    pub fn store(&self) -> &ProjectStore {
        &self.store
    }
}

impl CrossQuery for UnifiedCatalog {
    fn cross_query(&self, pred: &Predicate) -> CrossQueryResult {
        let (_, scanned_before) = self.store.query_stats();
        let hits = self.store.query(pred);
        let (_, scanned_after) = self.store.query_stats();
        let slot = self.store.schema().slot("project");
        CrossQueryResult {
            hits: hits
                .into_iter()
                .map(|r| {
                    let project = match slot.and_then(|s| r.basic.slot(s)) {
                        Some(Value::Str(p)) => p.clone(),
                        _ => String::new(),
                    };
                    (project, r)
                })
                .collect(),
            stores_contacted: 1,
            records_scanned: scanned_after - scanned_before,
        }
    }

    fn total_records(&self) -> usize {
        self.store.len()
    }
}

/// N independent project stores; cross-project queries fan out to all.
#[derive(Default)]
pub struct Federation {
    stores: Vec<Arc<ProjectStore>>,
}

impl Federation {
    /// An empty federation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a member store.
    pub fn add(&mut self, store: Arc<ProjectStore>) {
        self.stores.push(store);
    }

    /// Member stores.
    pub fn stores(&self) -> &[Arc<ProjectStore>] {
        &self.stores
    }
}

impl CrossQuery for Federation {
    fn cross_query(&self, pred: &Predicate) -> CrossQueryResult {
        let mut hits = Vec::new();
        let mut scanned = 0;
        for store in &self.stores {
            let (_, before) = store.query_stats();
            // A federated query cannot know in advance which member holds
            // matches: every store is contacted.
            for r in store.query(pred) {
                hits.push((store.project().to_string(), r));
            }
            let (_, after) = store.query_stats();
            scanned += after - before;
        }
        CrossQueryResult {
            hits,
            stores_contacted: self.stores.len(),
            records_scanned: scanned,
        }
    }

    fn total_records(&self) -> usize {
        self.stores.iter().map(|s| s.len()).sum()
    }
}

/// Convenience used by benches and tests: builds a `NewDataset` from a
/// name and document.
pub fn dataset(name: &str, size_bytes: u64, basic: Document) -> NewDataset {
    NewDataset {
        name: name.to_string(),
        location: format!("lsdf://{name}"),
        size_bytes,
        checksum_hex: String::new(),
        basic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{eq, has_tag};
    use crate::schema::SchemaBuilder;

    fn mini_schema(name: &str) -> Schema {
        SchemaBuilder::new(name)
            .required("sample", FieldType::Str)
            .indexed()
            .required("temperature_k", FieldType::Float)
            .build()
            .unwrap()
    }

    fn fill(store: &ProjectStore, n: usize, sample: &str) {
        for i in 0..n {
            store
                .insert(dataset(
                    &format!("d{i}"),
                    100,
                    [
                        ("sample".to_string(), Value::from(sample)),
                        ("temperature_k".to_string(), Value::Float(300.0 + i as f64)),
                    ]
                    .into_iter()
                    .collect(),
                ))
                .unwrap();
        }
    }

    #[test]
    fn unified_and_federated_agree_on_hits() {
        let schemas: Vec<Schema> = (0..4).map(|i| mini_schema(&format!("proj{i}"))).collect();
        let unified = UnifiedCatalog::new(&schemas).unwrap();
        let mut fed = Federation::new();
        for (i, s) in schemas.iter().enumerate() {
            let store = Arc::new(ProjectStore::new(s.clone()));
            let sample = if i == 2 { "zebrafish" } else { "control" };
            fill(&store, 50, sample);
            for rec in store.all() {
                unified
                    .insert(
                        s.name.as_str(),
                        dataset(&rec.name, rec.size_bytes, rec.basic.to_document()),
                    )
                    .unwrap();
            }
            fed.add(store);
        }
        let pred = eq("sample", "zebrafish");
        let u = unified.cross_query(&pred);
        let f = fed.cross_query(&pred);
        assert_eq!(u.hits.len(), 50);
        assert_eq!(f.hits.len(), 50);
        assert_eq!(unified.total_records(), 200);
        assert_eq!(fed.total_records(), 200);
        // All unified hits come from proj2.
        assert!(u.hits.iter().all(|(p, _)| p == "proj2"));
    }

    #[test]
    fn unified_contacts_one_store_and_scans_less() {
        let schemas: Vec<Schema> = (0..8).map(|i| mini_schema(&format!("proj{i}"))).collect();
        let unified = UnifiedCatalog::new(&schemas).unwrap();
        let mut fed = Federation::new();
        for (i, s) in schemas.iter().enumerate() {
            let store = Arc::new(ProjectStore::new(s.clone()));
            let sample = if i == 0 { "rare" } else { "common" };
            fill(&store, 100, sample);
            for rec in store.all() {
                unified
                    .insert(
                        s.name.as_str(),
                        dataset(&rec.name, rec.size_bytes, rec.basic.to_document()),
                    )
                    .unwrap();
            }
            fed.add(store);
        }
        let pred = eq("sample", "rare");
        let u = unified.cross_query(&pred);
        let f = fed.cross_query(&pred);
        assert_eq!(u.hits.len(), 100);
        assert_eq!(f.hits.len(), 100);
        assert_eq!(u.stores_contacted, 1);
        assert_eq!(f.stores_contacted, 8);
        // Unified uses its cross-project index: scans exactly the hits.
        assert_eq!(u.records_scanned, 100);
        // Federation scans the matching store's index hits too, but had to
        // contact every store; with 7 misses its scan count equals the
        // unified one only because each member is indexed. Contact count is
        // the structural cost.
        assert!(f.stores_contacted > u.stores_contacted);
    }

    #[test]
    fn unified_supports_cross_project_tag_queries() {
        let schemas: Vec<Schema> = (0..3).map(|i| mini_schema(&format!("proj{i}"))).collect();
        let unified = UnifiedCatalog::new(&schemas).unwrap();
        for (i, s) in schemas.iter().enumerate() {
            for j in 0..10 {
                unified
                    .insert(
                        s.name.as_str(),
                        dataset(
                            &format!("d{i}-{j}"),
                            1,
                            [
                                ("sample".to_string(), Value::from("x")),
                                ("temperature_k".to_string(), Value::Float(1.0)),
                            ]
                            .into_iter()
                            .collect(),
                        ),
                    )
                    .unwrap();
            }
        }
        // Tag one record from each project.
        for rec in unified.store().all().iter().step_by(10) {
            unified.store().tag(rec.id, "golden").unwrap();
        }
        let res = unified.cross_query(&has_tag("golden"));
        assert_eq!(res.hits.len(), 3);
        let projects: std::collections::HashSet<_> =
            res.hits.iter().map(|(p, _)| p.clone()).collect();
        assert_eq!(projects.len(), 3, "hits span all projects in one query");
    }

    #[test]
    fn schema_union_dedups_fields() {
        let s1 = mini_schema("a");
        let s2 = mini_schema("b");
        let unified = UnifiedCatalog::new(&[s1, s2]).unwrap();
        let fields: Vec<&str> = unified
            .store()
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(fields, vec!["project", "sample", "temperature_k"]);
    }
}
