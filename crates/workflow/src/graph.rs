//! Workflow graphs and directors.
//!
//! A [`Workflow`] is a DAG of actors connected port-to-port by token
//! channels. A director chooses the execution discipline, as in Kepler:
//! the [`Director::Sequential`] director fires one ready actor at a time;
//! the [`Director::Parallel`] director fires every ready actor of a round
//! concurrently on scoped threads.

use std::collections::VecDeque;
use std::sync::Arc;

use lsdf_obs::{Counter, Histogram, Registry};

use crate::actor::{Actor, ActorError};
use crate::token::Token;
use lsdf_obs::names;

/// Identifies an actor within a workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub usize);

/// Execution discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Director {
    /// Fire one ready actor at a time, in a deterministic order.
    Sequential,
    /// Fire all ready actors of each round concurrently.
    Parallel,
}

/// Workflow construction / validation / execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// Port index out of range for the actor.
    BadPort {
        /// The actor.
        actor: String,
        /// The offending port index.
        port: usize,
    },
    /// An input port is fed by two channels (ambiguous merge).
    PortAlreadyConnected {
        /// The actor.
        actor: String,
        /// The port.
        port: usize,
    },
    /// The graph has a cycle.
    Cycle,
    /// An input or output port is left dangling.
    Dangling {
        /// The actor.
        actor: String,
        /// `true` when the dangling port is an input.
        input: bool,
        /// The port index.
        port: usize,
    },
    /// An actor firing failed.
    Actor(ActorError),
    /// An internal scheduler invariant was violated (a bug, not a user
    /// error) — surfaced instead of panicking.
    Internal(&'static str),
    /// The run exceeded the firing budget (runaway workflow).
    FiringBudgetExceeded(u64),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::BadPort { actor, port } => {
                write!(f, "actor '{actor}' has no port {port}")
            }
            WorkflowError::PortAlreadyConnected { actor, port } => {
                write!(f, "input port {port} of '{actor}' already connected")
            }
            WorkflowError::Cycle => write!(f, "workflow graph has a cycle"),
            WorkflowError::Dangling { actor, input, port } => write!(
                f,
                "{} port {port} of '{actor}' is not connected",
                if *input { "input" } else { "output" }
            ),
            WorkflowError::Actor(e) => write!(f, "{e}"),
            WorkflowError::Internal(what) => write!(f, "internal invariant violated: {what}"),
            WorkflowError::FiringBudgetExceeded(n) => {
                write!(f, "workflow exceeded {n} firings")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

impl From<ActorError> for WorkflowError {
    fn from(e: ActorError) -> Self {
        WorkflowError::Actor(e)
    }
}

/// Per-run statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total actor firings.
    pub firings: u64,
    /// Parallel rounds executed (1 per firing for the sequential director).
    pub rounds: u64,
    /// Total tokens moved across channels.
    pub tokens_moved: u64,
}

struct Channel {
    from: (ActorId, usize),
    to: (ActorId, usize),
    queue: VecDeque<Token>,
}

/// Registry handles for workflow execution metrics.
struct WfObs {
    registry: Arc<Registry>,
    firings: Counter,
    tokens: Counter,
    runs: Counter,
    run_latency: Histogram,
}

impl WfObs {
    fn new(registry: &Arc<Registry>) -> Self {
        WfObs {
            firings: registry.counter(names::WORKFLOW_FIRINGS_TOTAL, &[]),
            tokens: registry.counter(names::WORKFLOW_TOKENS_MOVED_TOTAL, &[]),
            runs: registry.counter(names::WORKFLOW_RUNS_TOTAL, &[]),
            run_latency: registry.histogram(names::WORKFLOW_RUN_LATENCY_NS, &[]),
            registry: Arc::clone(registry),
        }
    }
}

/// A workflow: actors plus channels.
pub struct Workflow {
    actors: Vec<Box<dyn Actor>>,
    channels: Vec<Channel>,
    /// For each actor, channel index feeding each input port.
    in_ch: Vec<Vec<Option<usize>>>,
    /// For each actor, channel indices fed by each output port (fan-out of
    /// a port to several channels duplicates tokens).
    out_ch: Vec<Vec<Vec<usize>>>,
    /// Sources that still have firings left.
    source_live: Vec<bool>,
    firing_budget: u64,
    obs: Option<WfObs>,
}

impl Workflow {
    /// An empty workflow with the default firing budget (1M).
    pub fn new() -> Self {
        Workflow {
            actors: Vec::new(),
            channels: Vec::new(),
            in_ch: Vec::new(),
            out_ch: Vec::new(),
            source_live: Vec::new(),
            firing_budget: 1_000_000,
            obs: None,
        }
    }

    /// Sets the runaway-protection firing budget.
    pub fn with_firing_budget(mut self, budget: u64) -> Self {
        self.firing_budget = budget;
        self
    }

    /// Publishes execution metrics (`workflow_firings_total`,
    /// `workflow_tokens_moved_total`, `workflow_runs_total`,
    /// `workflow_run_latency_ns`) into `registry`. Firing and token
    /// counters advance as work happens, so partial progress before an
    /// actor error is still visible.
    pub fn with_registry(mut self, registry: &Arc<Registry>) -> Self {
        self.obs = Some(WfObs::new(registry));
        self
    }

    /// Adds an actor, returning its id.
    pub fn add(&mut self, actor: impl Actor + 'static) -> ActorId {
        let id = ActorId(self.actors.len());
        self.in_ch.push(vec![None; actor.inputs()]);
        self.out_ch.push(vec![Vec::new(); actor.outputs()]);
        self.source_live.push(actor.inputs() == 0);
        self.actors.push(Box::new(actor));
        id
    }

    /// Connects `(from, out_port)` to `(to, in_port)`.
    pub fn connect(
        &mut self,
        from: ActorId,
        out_port: usize,
        to: ActorId,
        in_port: usize,
    ) -> Result<(), WorkflowError> {
        if out_port >= self.out_ch[from.0].len() {
            return Err(WorkflowError::BadPort {
                actor: self.actors[from.0].name().to_string(),
                port: out_port,
            });
        }
        if in_port >= self.in_ch[to.0].len() {
            return Err(WorkflowError::BadPort {
                actor: self.actors[to.0].name().to_string(),
                port: in_port,
            });
        }
        if self.in_ch[to.0][in_port].is_some() {
            return Err(WorkflowError::PortAlreadyConnected {
                actor: self.actors[to.0].name().to_string(),
                port: in_port,
            });
        }
        let ch = self.channels.len();
        self.channels.push(Channel {
            from: (from, out_port),
            to: (to, in_port),
            queue: VecDeque::new(),
        });
        self.out_ch[from.0][out_port].push(ch);
        self.in_ch[to.0][in_port] = Some(ch);
        Ok(())
    }

    /// Validates the graph: all ports connected, no cycles.
    pub fn validate(&self) -> Result<(), WorkflowError> {
        for (a, ins) in self.in_ch.iter().enumerate() {
            for (p, ch) in ins.iter().enumerate() {
                if ch.is_none() {
                    return Err(WorkflowError::Dangling {
                        actor: self.actors[a].name().to_string(),
                        input: true,
                        port: p,
                    });
                }
            }
        }
        for (a, outs) in self.out_ch.iter().enumerate() {
            for (p, chs) in outs.iter().enumerate() {
                if chs.is_empty() {
                    return Err(WorkflowError::Dangling {
                        actor: self.actors[a].name().to_string(),
                        input: false,
                        port: p,
                    });
                }
            }
        }
        // Kahn's algorithm for cycle detection.
        let n = self.actors.len();
        let mut indeg = vec![0usize; n];
        for ch in &self.channels {
            indeg[ch.to.0 .0] += 1;
        }
        let mut q: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(u) = q.pop_front() {
            seen += 1;
            for ch in &self.channels {
                if ch.from.0 .0 == u {
                    indeg[ch.to.0 .0] -= 1;
                    if indeg[ch.to.0 .0] == 0 {
                        q.push_back(ch.to.0 .0);
                    }
                }
            }
        }
        if seen != n {
            return Err(WorkflowError::Cycle);
        }
        Ok(())
    }

    /// True when `actor` can fire now.
    fn ready(&self, a: usize) -> bool {
        if self.in_ch[a].is_empty() {
            return self.source_live[a];
        }
        self.in_ch[a].iter().all(|ch| {
            ch.map(|c| !self.channels[c].queue.is_empty())
                .unwrap_or(false)
        })
    }

    /// Pops one token per input port for `actor`.
    fn take_inputs(&mut self, a: usize) -> Result<Vec<Token>, WorkflowError> {
        let mut chs = Vec::with_capacity(self.in_ch[a].len());
        for ch in &self.in_ch[a] {
            chs.push(ch.ok_or(WorkflowError::Internal("fired actor has an unwired input port"))?);
        }
        let mut tokens = Vec::with_capacity(chs.len());
        for c in chs {
            tokens.push(
                self.channels[c]
                    .queue
                    .pop_front()
                    .ok_or(WorkflowError::Internal("ready() promised a token on every input"))?,
            );
        }
        Ok(tokens)
    }

    /// Pushes a firing's outputs onto downstream channels. Returns tokens
    /// moved.
    fn push_outputs(&mut self, a: usize, outputs: Vec<Vec<Token>>) -> u64 {
        let mut moved = 0;
        for (port, tokens) in outputs.into_iter().enumerate() {
            let targets = self.out_ch[a][port].clone();
            for t in tokens {
                // A port wired to several channels duplicates its tokens.
                for &ch in &targets {
                    self.channels[ch].queue.push_back(t.clone());
                    moved += 1;
                }
            }
        }
        moved
    }

    /// Runs the workflow to quiescence under the given director.
    pub fn run(&mut self, director: Director) -> Result<RunStats, WorkflowError> {
        self.validate()?;
        let span = self
            .obs
            .as_ref()
            .map(|o| o.registry.span(&o.run_latency));
        let mut stats = RunStats::default();
        loop {
            let ready: Vec<usize> = (0..self.actors.len()).filter(|&a| self.ready(a)).collect();
            if ready.is_empty() {
                if let Some(obs) = &self.obs {
                    obs.runs.inc();
                }
                if let Some(span) = span {
                    span.finish();
                }
                return Ok(stats);
            }
            stats.rounds += 1;
            match director {
                Director::Sequential => {
                    let a = ready[0];
                    let inputs = if self.in_ch[a].is_empty() {
                        Vec::new()
                    } else {
                        self.take_inputs(a)?
                    };
                    let firing = self.actors[a].fire(&inputs)?;
                    if self.in_ch[a].is_empty() && !firing.more {
                        self.source_live[a] = false;
                    }
                    stats.firings += 1;
                    if let Some(obs) = &self.obs {
                        obs.firings.inc();
                    }
                    if !firing.outputs.is_empty() {
                        let moved = self.push_outputs(a, firing.outputs);
                        stats.tokens_moved += moved;
                        if let Some(obs) = &self.obs {
                            obs.tokens.add(moved);
                        }
                    }
                }
                Director::Parallel => {
                    // Gather all inputs first, then fire concurrently.
                    let mut work: Vec<(usize, Vec<Token>)> = Vec::with_capacity(ready.len());
                    for &a in &ready {
                        let inputs = if self.in_ch[a].is_empty() {
                            Vec::new()
                        } else {
                            self.take_inputs(a)?
                        };
                        work.push((a, inputs));
                    }
                    // Split actors out so each thread gets exclusive &mut.
                    let mut slots: Vec<(usize, &mut Box<dyn Actor>, Vec<Token>)> = Vec::new();
                    {
                        // Safety-free approach: use split_at_mut-style via
                        // iter_mut and matching against the ready set.
                        let ready_set: std::collections::HashMap<usize, Vec<Token>> =
                            work.into_iter().collect();
                        for (i, actor) in self.actors.iter_mut().enumerate() {
                            if let Some(inputs) = ready_set.get(&i) {
                                slots.push((i, actor, inputs.clone()));
                            }
                        }
                    }
                    // `slots` is in actor order, so the joined firings are too.
                    let firings = std::thread::scope(|scope| {
                        let handles: Vec<_> = slots
                            .into_iter()
                            .map(|(i, actor, inputs)| (i, scope.spawn(move || actor.fire(&inputs))))
                            .collect();
                        // Join every handle before looking at any result:
                        // the scope panics on a panicked thread left unjoined.
                        let joined: Vec<_> =
                            handles.into_iter().map(|(i, h)| (i, h.join())).collect();
                        joined
                            .into_iter()
                            .map(|(i, r)| r.map(|firing| (i, firing)))
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .map_err(|_| WorkflowError::Internal("actor thread panicked"))?;
                    for (a, r) in firings {
                        let firing = r?;
                        if self.in_ch[a].is_empty() && !firing.more {
                            self.source_live[a] = false;
                        }
                        stats.firings += 1;
                        if let Some(obs) = &self.obs {
                            obs.firings.inc();
                        }
                        if !firing.outputs.is_empty() {
                            let moved = self.push_outputs(a, firing.outputs);
                            stats.tokens_moved += moved;
                            if let Some(obs) = &self.obs {
                                obs.tokens.add(moved);
                            }
                        }
                    }
                }
            }
            if stats.firings > self.firing_budget {
                return Err(WorkflowError::FiringBudgetExceeded(self.firing_budget));
            }
        }
    }
}

impl Default for Workflow {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Collect, FanOut, FilterActor, MapActor, VecSource, ZipWith};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn ints(v: &[i64]) -> Vec<Token> {
        v.iter().map(|&i| Token::int(i)).collect()
    }

    fn pipeline(director: Director) -> Vec<i64> {
        let mut wf = Workflow::new();
        let sink = Arc::new(Mutex::new(Vec::new()));
        let src = wf.add(VecSource::new("src", ints(&[1, 2, 3, 4, 5, 6])));
        let dbl = wf.add(MapActor::new("double", |t: Token| {
            Ok(vec![Token::int(t.as_int().ok_or("int")? * 2)])
        }));
        let evens = wf.add(FilterActor::new("gt4", |t: &Token| {
            t.as_int().is_some_and(|i| i > 4)
        }));
        let out = wf.add(Collect::new("sink", sink.clone()));
        wf.connect(src, 0, dbl, 0).unwrap();
        wf.connect(dbl, 0, evens, 0).unwrap();
        wf.connect(evens, 0, out, 0).unwrap();
        wf.run(director).unwrap();
        let collected = sink.lock().iter().map(|t| t.as_int().unwrap()).collect();
        collected
    }

    #[test]
    fn sequential_pipeline() {
        assert_eq!(pipeline(Director::Sequential), vec![6, 8, 10, 12]);
    }

    #[test]
    fn parallel_pipeline_same_result() {
        assert_eq!(pipeline(Director::Parallel), vec![6, 8, 10, 12]);
    }

    #[test]
    fn diamond_with_fanout_and_zip() {
        let mut wf = Workflow::new();
        let sink = Arc::new(Mutex::new(Vec::new()));
        let src = wf.add(VecSource::new("src", ints(&[1, 2, 3])));
        let dup = wf.add(FanOut::new("dup", 2));
        let sq = wf.add(MapActor::new("square", |t: Token| {
            let i = t.as_int().ok_or("int")?;
            Ok(vec![Token::int(i * i)])
        }));
        let neg = wf.add(MapActor::new("negate", |t: Token| {
            Ok(vec![Token::int(-t.as_int().ok_or("int")?)])
        }));
        let add = wf.add(ZipWith::new("add", |a: Token, b: Token| {
            Ok(Token::int(a.as_int().ok_or("a")? + b.as_int().ok_or("b")?))
        }));
        let out = wf.add(Collect::new("sink", sink.clone()));
        wf.connect(src, 0, dup, 0).unwrap();
        wf.connect(dup, 0, sq, 0).unwrap();
        wf.connect(dup, 1, neg, 0).unwrap();
        wf.connect(sq, 0, add, 0).unwrap();
        wf.connect(neg, 0, add, 1).unwrap();
        wf.connect(add, 0, out, 0).unwrap();
        let stats = wf.run(Director::Sequential).unwrap();
        let got: Vec<i64> = sink.lock().iter().map(|t| t.as_int().unwrap()).collect();
        assert_eq!(got, vec![0, 2, 6]); // i*i - i
        assert!(stats.firings >= 3 * 5);
    }

    #[test]
    fn two_actors_panicking_in_one_parallel_round_is_an_error_not_a_panic() {
        let mut wf = Workflow::new();
        let src = wf.add(VecSource::new("src", ints(&[1])));
        let dup = wf.add(FanOut::new("dup", 2));
        wf.connect(src, 0, dup, 0).unwrap();
        for port in 0..2 {
            let boom = wf.add(MapActor::new("boom", |_: Token| panic!("actor bug")));
            let out = wf.add(Collect::new("sink", Arc::new(Mutex::new(Vec::new()))));
            wf.connect(dup, port, boom, 0).unwrap();
            wf.connect(boom, 0, out, 0).unwrap();
        }
        assert!(matches!(
            wf.run(Director::Parallel),
            Err(WorkflowError::Internal(_))
        ));
    }

    #[test]
    fn registry_counts_firings_and_tokens() {
        let reg = Arc::new(Registry::new());
        let sink = Arc::new(Mutex::new(Vec::new()));
        let mut wf = Workflow::new().with_registry(&reg);
        let src = wf.add(VecSource::new("src", ints(&[1, 2, 3])));
        let out = wf.add(Collect::new("sink", sink));
        wf.connect(src, 0, out, 0).unwrap();
        let stats = wf.run(Director::Sequential).unwrap();
        assert_eq!(reg.counter_value(names::WORKFLOW_FIRINGS_TOTAL, &[]), stats.firings);
        assert_eq!(
            reg.counter_value(names::WORKFLOW_TOKENS_MOVED_TOTAL, &[]),
            stats.tokens_moved
        );
        assert_eq!(reg.counter_value(names::WORKFLOW_RUNS_TOTAL, &[]), 1);
        assert_eq!(reg.histogram(names::WORKFLOW_RUN_LATENCY_NS, &[]).count(), 1);
    }

    #[test]
    fn dangling_port_rejected() {
        let mut wf = Workflow::new();
        let _src = wf.add(VecSource::new("src", ints(&[1])));
        assert!(matches!(
            wf.run(Director::Sequential),
            Err(WorkflowError::Dangling { input: false, .. })
        ));
    }

    #[test]
    fn cycle_rejected() {
        let mut wf = Workflow::new();
        let a = wf.add(MapActor::new("a", |t: Token| Ok(vec![t])));
        let b = wf.add(MapActor::new("b", |t: Token| Ok(vec![t])));
        wf.connect(a, 0, b, 0).unwrap();
        wf.connect(b, 0, a, 0).unwrap();
        assert_eq!(wf.run(Director::Sequential), Err(WorkflowError::Cycle));
    }

    #[test]
    fn double_connection_rejected() {
        let mut wf = Workflow::new();
        let s1 = wf.add(VecSource::new("s1", ints(&[1])));
        let s2 = wf.add(VecSource::new("s2", ints(&[2])));
        let sink = Arc::new(Mutex::new(Vec::new()));
        let c = wf.add(Collect::new("c", sink));
        wf.connect(s1, 0, c, 0).unwrap();
        assert!(matches!(
            wf.connect(s2, 0, c, 0),
            Err(WorkflowError::PortAlreadyConnected { .. })
        ));
    }

    #[test]
    fn bad_port_rejected() {
        let mut wf = Workflow::new();
        let s = wf.add(VecSource::new("s", ints(&[1])));
        let sink = Arc::new(Mutex::new(Vec::new()));
        let c = wf.add(Collect::new("c", sink));
        assert!(matches!(
            wf.connect(s, 1, c, 0),
            Err(WorkflowError::BadPort { .. })
        ));
        assert!(matches!(
            wf.connect(s, 0, c, 5),
            Err(WorkflowError::BadPort { .. })
        ));
    }

    #[test]
    fn actor_error_propagates() {
        let mut wf = Workflow::new();
        let s = wf.add(VecSource::new("s", ints(&[1])));
        let bad = wf.add(MapActor::new("bad", |_t: Token| Err("boom".to_string())));
        let sink = Arc::new(Mutex::new(Vec::new()));
        let c = wf.add(Collect::new("c", sink));
        wf.connect(s, 0, bad, 0).unwrap();
        wf.connect(bad, 0, c, 0).unwrap();
        match wf.run(Director::Sequential) {
            Err(WorkflowError::Actor(e)) => assert_eq!(e.message, "boom"),
            other => panic!("expected actor error, got {other:?}"),
        }
    }

    #[test]
    fn firing_budget_stops_runaways() {
        // A source of 10 tokens with budget 5.
        let mut wf = Workflow::new().with_firing_budget(5);
        let s = wf.add(VecSource::new("s", ints(&[0; 10])));
        let sink = Arc::new(Mutex::new(Vec::new()));
        let c = wf.add(Collect::new("c", sink));
        wf.connect(s, 0, c, 0).unwrap();
        assert_eq!(
            wf.run(Director::Sequential),
            Err(WorkflowError::FiringBudgetExceeded(5))
        );
    }
}
