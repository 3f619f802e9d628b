//! Tag-triggered workflow execution — the paper's slide-12 automation:
//! "allow tagging data and triggering execution via DataBrowser; data from
//! finished workflows stored and tagged in DB".
//!
//! A [`TriggerRule`] binds `(project, tag)` to a workflow factory. The
//! [`TriggerEngine`] subscribes to a [`ProjectStore`]'s events; when a
//! dataset gains the tag, a run is enqueued. Draining the queue builds the
//! workflow, executes it, appends the outputs as a processing-result set
//! on the dataset, and applies a completion tag — closing the loop the
//! paper describes for zebrafish microscopy data.

use std::collections::VecDeque;
use std::sync::Arc;

use lsdf_obs::Registry;
use lsdf_sync::{ranks, OrderedMutex};
use parking_lot::Mutex;

use lsdf_metadata::{DatasetId, Document, MetadataEvent, ProjectStore, Value};

use crate::graph::{Director, Workflow, WorkflowError};
use crate::token::Token;
use lsdf_obs::names;

/// What a rule's workflow produced for one dataset.
#[derive(Debug, Clone)]
pub struct TriggerOutcome {
    /// The dataset processed.
    pub dataset: DatasetId,
    /// The rule (step) name.
    pub step: String,
    /// Result document appended to the dataset.
    pub results: Document,
    /// Sequence number of the appended processing-result set.
    pub seq: u32,
}

/// A workflow bound to a tag.
pub struct TriggerRule {
    /// Step name recorded on processing results.
    pub step: String,
    /// Tag that triggers the rule.
    pub tag: String,
    /// Tag applied to the dataset after a successful run.
    pub done_tag: String,
    /// Remove the triggering tag after the run (prevents re-triggering).
    pub remove_trigger_tag: bool,
    /// Builds the workflow for one dataset. The factory receives the
    /// dataset reference and a sink that the workflow must fill with
    /// `(key, value)` pairs — each pair two tokens, `Token::str(key)`
    /// then a value token — which become the processing-result document.
    #[allow(clippy::type_complexity)]
    pub build: Box<dyn Fn(DatasetId, Arc<Mutex<Vec<Token>>>) -> Workflow + Send + Sync>,
}

struct PendingRun {
    rule_idx: usize,
    dataset: DatasetId,
}

/// Subscribes to a project store and runs tag-triggered workflows.
pub struct TriggerEngine {
    store: Arc<ProjectStore>,
    rules: Vec<TriggerRule>,
    queue: Arc<OrderedMutex<VecDeque<PendingRun>>>,
    director: Director,
    completed: OrderedMutex<Vec<TriggerOutcome>>,
    registry: Option<Arc<Registry>>,
}

impl TriggerEngine {
    /// Creates an engine over `store` with the given rules and attaches
    /// the event subscription.
    pub fn new(store: Arc<ProjectStore>, rules: Vec<TriggerRule>, director: Director) -> Arc<Self> {
        Self::build(store, rules, director, None)
    }

    /// Like [`TriggerEngine::new`], but every triggered workflow publishes
    /// its firing/token metrics into `registry`, and the engine counts
    /// triggered runs per step as `workflow_trigger_runs_total{step}`.
    pub fn with_registry(
        store: Arc<ProjectStore>,
        rules: Vec<TriggerRule>,
        director: Director,
        registry: Arc<Registry>,
    ) -> Arc<Self> {
        Self::build(store, rules, director, Some(registry))
    }

    fn build(
        store: Arc<ProjectStore>,
        rules: Vec<TriggerRule>,
        director: Director,
        registry: Option<Arc<Registry>>,
    ) -> Arc<Self> {
        let queue = Arc::new(OrderedMutex::new(ranks::WORKFLOW_TRIGGER_QUEUE, VecDeque::new()));
        let engine = Arc::new(TriggerEngine {
            store: store.clone(),
            rules,
            queue: queue.clone(),
            director,
            completed: OrderedMutex::new(ranks::WORKFLOW_TRIGGER_COMPLETED, Vec::new()),
            registry,
        });
        let tag_to_rule: Vec<(String, usize)> = engine
            .rules
            .iter()
            .enumerate()
            .map(|(i, r)| (r.tag.clone(), i))
            .collect();
        store.subscribe(Arc::new(move |ev: &MetadataEvent| {
            if let MetadataEvent::Tagged { id, tag, .. } = ev {
                for (t, idx) in &tag_to_rule {
                    if t == tag {
                        queue.lock().push_back(PendingRun {
                            rule_idx: *idx,
                            dataset: *id,
                        });
                    }
                }
            }
        }));
        engine
    }

    /// Number of runs waiting.
    pub fn pending(&self) -> usize {
        self.queue.lock().len()
    }

    /// Drains the queue, executing every pending run (including runs
    /// enqueued by tags applied during execution). Returns outcomes in
    /// completion order.
    pub fn run_pending(&self) -> Result<Vec<TriggerOutcome>, WorkflowError> {
        let mut outcomes = Vec::new();
        loop {
            let Some(run) = self.queue.lock().pop_front() else {
                break;
            };
            let rule = &self.rules[run.rule_idx];
            // lint: allow(lock_order) -- the rule's `Collect` actor locks it per token, nothing else held
            let sink: Arc<Mutex<Vec<Token>>> = Arc::new(Mutex::new(Vec::new()));
            let mut wf = (rule.build)(run.dataset, sink.clone());
            if let Some(reg) = &self.registry {
                wf = wf.with_registry(reg);
                reg.counter(names::WORKFLOW_TRIGGER_RUNS_TOTAL, &[("step", &rule.step)])
                    .inc();
            }
            wf.run(self.director)?;
            // Interpret sink tokens as alternating key/value pairs.
            let tokens = sink.lock().clone();
            let mut results = Document::new();
            let mut iter = tokens.into_iter();
            while let (Some(k), Some(v)) = (iter.next(), iter.next()) {
                let key = k.as_str().unwrap_or("output").to_string();
                let value = match v {
                    Token::Value(val) => val,
                    Token::Data(bytes) => Value::Int(bytes.len() as i64),
                    Token::Dataset { id, .. } => Value::Int(id.0 as i64),
                    Token::Unit => Value::Bool(true),
                };
                results.insert(key, value);
            }
            let seq = self
                .store
                .append_processing(run.dataset, &rule.step, Document::new(), results.clone(), vec![])
                .map_err(|e| WorkflowError::Actor(crate::actor::ActorError {
                    actor: rule.step.clone(),
                    message: format!("metadata append failed: {e}"),
                }))?;
            if rule.remove_trigger_tag {
                let _ = self.store.untag(run.dataset, &rule.tag);
            }
            let _ = self.store.tag(run.dataset, &rule.done_tag);
            let outcome = TriggerOutcome {
                dataset: run.dataset,
                step: rule.step.clone(),
                results,
                seq,
            };
            self.completed.lock().push(outcome.clone());
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// All outcomes so far.
    pub fn completed(&self) -> Vec<TriggerOutcome> {
        self.completed.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Collect, MapActor, VecSource};
    use lsdf_metadata::{dataset, FieldType, SchemaBuilder};

    fn store() -> Arc<ProjectStore> {
        let schema = SchemaBuilder::new("zebrafish")
            .required("fish", FieldType::Int)
            .build()
            .unwrap();
        let s = Arc::new(ProjectStore::new(schema));
        for i in 0..5 {
            s.insert(dataset(
                &format!("img{i}"),
                4_000_000,
                [("fish".to_string(), Value::Int(i))].into_iter().collect(),
            ))
            .unwrap();
        }
        s
    }

    fn segmentation_rule() -> TriggerRule {
        TriggerRule {
            step: "segmentation".into(),
            tag: "needs-segmentation".into(),
            done_tag: "segmented".into(),
            remove_trigger_tag: true,
            build: Box::new(|dataset_id, sink| {
                let mut wf = Workflow::new();
                let src = wf.add(VecSource::new(
                    "dataset",
                    vec![Token::int(dataset_id.0 as i64)],
                ));
                // "Segmentation": compute a fake cell count from the id.
                let seg = wf.add(MapActor::new("segment", |t: Token| {
                    let id = t.as_int().ok_or("id")?;
                    Ok(vec![
                        Token::str("cells"),
                        Token::int(100 + id * 10),
                        Token::str("confidence"),
                        Token::float(0.9),
                    ])
                }));
                let out = wf.add(Collect::new("results", sink));
                wf.connect(src, 0, seg, 0).unwrap();
                wf.connect(seg, 0, out, 0).unwrap();
                wf
            }),
        }
    }

    #[test]
    fn tag_enqueues_and_run_appends_processing_metadata() {
        let s = store();
        let engine = TriggerEngine::new(s.clone(), vec![segmentation_rule()], Director::Sequential);
        assert_eq!(engine.pending(), 0);
        s.tag(DatasetId(2), "needs-segmentation").unwrap();
        assert_eq!(engine.pending(), 1);
        let outcomes = engine.run_pending().unwrap();
        assert_eq!(outcomes.len(), 1);
        let o = &outcomes[0];
        assert_eq!(o.dataset, DatasetId(2));
        assert_eq!(o.results.get("cells"), Some(&Value::Int(120)));
        // Metadata side effects: processing appended, tags flipped.
        let rec = s.get(DatasetId(2)).unwrap();
        assert_eq!(rec.processing.len(), 1);
        assert_eq!(rec.processing[0].step, "segmentation");
        assert_eq!(
            rec.processing[0].results.get("confidence"),
            Some(&Value::Float(0.9))
        );
        assert!(rec.has_tag("segmented"));
        assert!(!rec.has_tag("needs-segmentation"));
    }

    #[test]
    fn batch_tagging_processes_all() {
        let s = store();
        let engine = TriggerEngine::new(s.clone(), vec![segmentation_rule()], Director::Sequential);
        for i in 0..5 {
            s.tag(DatasetId(i), "needs-segmentation").unwrap();
        }
        let outcomes = engine.run_pending().unwrap();
        assert_eq!(outcomes.len(), 5);
        for i in 0..5 {
            assert!(s.get(DatasetId(i)).unwrap().has_tag("segmented"));
        }
        assert_eq!(engine.completed().len(), 5);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn chained_rules_cascade() {
        // Rule 2 triggers on rule 1's done tag: segmentation -> qa.
        let s = store();
        let qa_rule = TriggerRule {
            step: "qa".into(),
            tag: "segmented".into(),
            done_tag: "qa-passed".into(),
            remove_trigger_tag: false,
            build: Box::new(|_id, sink| {
                let mut wf = Workflow::new();
                let src = wf.add(VecSource::new(
                    "pulse",
                    vec![Token::str("qa_score"), Token::float(1.0)],
                ));
                let out = wf.add(Collect::new("results", sink));
                wf.connect(src, 0, out, 0).unwrap();
                wf
            }),
        };
        let engine = TriggerEngine::new(
            s.clone(),
            vec![segmentation_rule(), qa_rule],
            Director::Sequential,
        );
        s.tag(DatasetId(0), "needs-segmentation").unwrap();
        let outcomes = engine.run_pending().unwrap();
        // Segmentation ran, tagged "segmented", which triggered qa within
        // the same drain.
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].step, "segmentation");
        assert_eq!(outcomes[1].step, "qa");
        let rec = s.get(DatasetId(0)).unwrap();
        assert_eq!(rec.processing.len(), 2);
        assert!(rec.has_tag("qa-passed"));
    }

    #[test]
    fn registry_counts_triggered_runs() {
        let s = store();
        let reg = Arc::new(Registry::new());
        let engine = TriggerEngine::with_registry(
            s.clone(),
            vec![segmentation_rule()],
            Director::Sequential,
            reg.clone(),
        );
        s.tag(DatasetId(3), "needs-segmentation").unwrap();
        engine.run_pending().unwrap();
        assert_eq!(
            reg.counter_value(names::WORKFLOW_TRIGGER_RUNS_TOTAL, &[("step", "segmentation")]),
            1
        );
        assert!(reg.counter_value(names::WORKFLOW_FIRINGS_TOTAL, &[]) >= 3);
    }

    #[test]
    fn retagging_is_idempotent_no_double_runs() {
        let s = store();
        let engine = TriggerEngine::new(s.clone(), vec![segmentation_rule()], Director::Sequential);
        s.tag(DatasetId(1), "needs-segmentation").unwrap();
        s.tag(DatasetId(1), "needs-segmentation").unwrap(); // no event
        assert_eq!(engine.pending(), 1);
        engine.run_pending().unwrap();
        assert_eq!(s.get(DatasetId(1)).unwrap().processing.len(), 1);
    }
}
