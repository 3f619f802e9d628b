//! Declarative data-management policies — the paper's outlook item
//! "Data management system iRODS (ongoing)" (slide 14).
//!
//! iRODS's core idea is rules that fire on data-management events. We
//! implement the subset the LSDF workflows need: **auto-tag rules** that
//! run on every dataset registration and tag records matching a
//! predicate. Chained with the [`lsdf_workflow::TriggerEngine`], this
//! closes the loop with zero manual steps: *ingest → policy auto-tag →
//! trigger → workflow → results stored and re-tagged*.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lsdf_metadata::{BoundPredicate, MetadataEvent, Predicate, ProjectStore};

/// A rule applied to every newly registered dataset.
pub struct AutoTagRule {
    /// Rule name (diagnostics).
    pub name: String,
    /// Datasets matching this predicate...
    pub predicate: Predicate,
    /// ...receive this tag.
    pub tag: String,
}

/// The policy engine: evaluates rules on metadata events.
pub struct PolicyEngine {
    store: Arc<ProjectStore>,
    rules: Vec<AutoTagRule>,
    applied: Arc<AtomicU64>,
}

impl PolicyEngine {
    /// Attaches rules to a store. Rules run synchronously inside the
    /// insert call path (after the record is committed), so by the time
    /// `insert` returns the dataset already carries its policy tags.
    /// Each rule's field names are bound to the store's schema here,
    /// once, not per inserted record.
    pub fn attach(store: Arc<ProjectStore>, rules: Vec<AutoTagRule>) -> Arc<Self> {
        let bound: Vec<(BoundPredicate, String)> =
            rules.iter().map(|rule| (rule.predicate.bind(store.schema()), rule.tag.clone())).collect();
        let engine = Arc::new(PolicyEngine {
            store: store.clone(),
            rules,
            applied: Arc::new(AtomicU64::new(0)),
        });
        let store2 = store.clone();
        let applied = engine.applied.clone();
        store.subscribe(Arc::new(move |ev: &MetadataEvent| {
            if let MetadataEvent::Inserted { id, .. } = ev {
                let Ok(rec) = store2.get(*id) else { return };
                for (predicate, tag) in &bound {
                    if predicate.matches(&rec) {
                        // tag() re-enters the store; the event it emits
                        // (Tagged) does not recurse into this handler.
                        if store2.tag(*id, tag).is_ok() {
                            applied.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }));
        engine
    }

    /// Total tags applied by this engine.
    pub fn tags_applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Re-evaluates all rules over the existing catalog (for rules added
    /// after data already arrived). Returns tags newly applied.
    pub fn backfill(&self) -> u64 {
        let mut applied = 0;
        for rule in self.rules.iter() {
            for rec in self.store.query(&rule.predicate) {
                if !rec.has_tag(&rule.tag) && self.store.tag(rec.id, &rule.tag).is_ok() {
                    applied += 1;
                    self.applied.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facility::{BackendChoice, Facility, ProjectSpec};
    use crate::ingest::{IngestItem, IngestPolicy};
    use lsdf_metadata::query::{eq, has_tag};
    use lsdf_metadata::zebrafish_schema;
    use lsdf_workflow::{Collect, Director, Token, TriggerEngine, TriggerRule, VecSource, Workflow};
    use lsdf_workloads::microscopy::HtmGenerator;

    fn facility() -> Facility {
        Facility::builder()
            .tenant(ProjectSpec::new(
                zebrafish_schema(),
                BackendChoice::ObjectStore { capacity: u64::MAX },
            ))
            .build()
            .unwrap()
    }

    fn ingest_fish(f: &Facility, n: usize, seed: u64) {
        let admin = f.admin().clone();
        let mut gen = HtmGenerator::new(seed, 32);
        for _ in 0..n {
            for (acq, img) in gen.next_fish() {
                f.ingest(
                    &admin,
                    IngestItem {
                        project: "zebrafish-htm".into(),
                        key: acq.key(),
                        data: img.encode(),
                        metadata: Some(acq.document()),
                    },
                    IngestPolicy::default(),
                )
                .unwrap();
            }
        }
    }

    #[test]
    fn auto_tag_applies_on_ingest() {
        let f = facility();
        let store = f.store("zebrafish-htm").unwrap().clone();
        let engine = PolicyEngine::attach(
            store.clone(),
            vec![AutoTagRule {
                name: "in-focus-488".into(),
                predicate: eq("focus_um", 0.0).and(eq("wavelength_nm", 488.0)),
                tag: "analysis-queue".into(),
            }],
        );
        ingest_fish(&f, 3, 1);
        // 3 fish x 1 in-focus 488nm image each.
        assert_eq!(engine.tags_applied(), 3);
        assert_eq!(store.query(&has_tag("analysis-queue")).len(), 3);
    }

    #[test]
    fn multiple_rules_stack() {
        let f = facility();
        let store = f.store("zebrafish-htm").unwrap().clone();
        let engine = PolicyEngine::attach(
            store.clone(),
            vec![
                AutoTagRule {
                    name: "all-raw".into(),
                    predicate: Predicate::All,
                    tag: "raw".into(),
                },
                AutoTagRule {
                    name: "channel-405".into(),
                    predicate: eq("wavelength_nm", 405.0),
                    tag: "dapi-like".into(),
                },
            ],
        );
        ingest_fish(&f, 1, 2);
        assert_eq!(store.query(&has_tag("raw")).len(), 24);
        assert_eq!(store.query(&has_tag("dapi-like")).len(), 8);
        assert_eq!(engine.tags_applied(), 32);
    }

    #[test]
    fn backfill_covers_preexisting_data() {
        let f = facility();
        let store = f.store("zebrafish-htm").unwrap().clone();
        ingest_fish(&f, 2, 3); // data arrives before the rule exists
        let engine = PolicyEngine::attach(
            store.clone(),
            vec![AutoTagRule {
                name: "late-rule".into(),
                predicate: eq("fish_id", 1i64),
                tag: "cohort-b".into(),
            }],
        );
        assert_eq!(engine.tags_applied(), 0, "no new inserts yet");
        let applied = engine.backfill();
        assert_eq!(applied, 24);
        assert_eq!(store.query(&has_tag("cohort-b")).len(), 24);
        // Backfill is idempotent.
        assert_eq!(engine.backfill(), 0);
    }

    #[test]
    fn policy_plus_trigger_is_fully_automatic() {
        // The complete hands-off loop: ingest -> policy auto-tag ->
        // trigger -> workflow -> result metadata + done tag.
        let f = facility();
        let store = f.store("zebrafish-htm").unwrap().clone();
        let _policy = PolicyEngine::attach(
            store.clone(),
            vec![AutoTagRule {
                name: "queue-infocus".into(),
                predicate: eq("focus_um", 0.0),
                tag: "needs-qc".into(),
            }],
        );
        let trigger = TriggerEngine::new(
            store.clone(),
            vec![TriggerRule {
                step: "qc".into(),
                tag: "needs-qc".into(),
                done_tag: "qc-done".into(),
                remove_trigger_tag: true,
                build: Box::new(|_id, sink| {
                    let mut wf = Workflow::new();
                    let src = wf.add(VecSource::new(
                        "result",
                        vec![Token::str("ok"), Token::Value(lsdf_metadata::Value::Bool(true))],
                    ));
                    let out = wf.add(Collect::new("sink", sink));
                    wf.connect(src, 0, out, 0).unwrap();
                    wf
                }),
            }],
            Director::Sequential,
        );
        ingest_fish(&f, 2, 4);
        // The policy tagged during ingest; the trigger queue is primed.
        assert_eq!(trigger.pending(), 6); // 2 fish x 3 in-focus channels
        let outcomes = trigger.run_pending().unwrap();
        assert_eq!(outcomes.len(), 6);
        assert_eq!(store.query(&has_tag("qc-done")).len(), 6);
        // No human tagged anything.
        for rec in store.query(&has_tag("qc-done")) {
            assert_eq!(rec.processing.len(), 1);
        }
    }
}
