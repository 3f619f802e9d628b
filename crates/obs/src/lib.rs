//! `lsdf-obs` — the facility-wide observability substrate.
//!
//! The paper's LSDF is an *operated* facility: every number it reports
//! (ingest rates, ADAL overhead, HSM recall latency, VM deploy times) is
//! an operational measurement. This crate provides the measuring
//! instrument: a lock-cheap [`Registry`] of named [`Counter`]s,
//! [`Gauge`]s, and log-bucketed [`Histogram`]s (with p50/p95/p99
//! summaries), a lightweight [`Span`]/event API that can timestamp
//! against either the wall clock or `lsdf-sim` virtual time, and a
//! dependency-free JSON exporter for bench reports.
//!
//! Design rules:
//!
//! * **Hot paths touch only atomics.** Handles ([`Counter`],
//!   [`Gauge`], [`Histogram`]) are cheap `Arc` clones around atomic
//!   cells; callers look them up once and cache them. The registry's
//!   lock is taken only at get-or-create time.
//! * **Labels are first-class.** A metric identity is its name plus a
//!   sorted label set (`("project", "zebrafish")`, `("op", "put")`),
//!   so per-project / per-backend breakdowns fall out of the same API.
//! * **Minimal dependencies.** The crate depends only on `lsdf-sync`
//!   (whose rank-ordered locks every facility crate uses); JSON is
//!   rendered by hand so the bench report works in hermetic builds.

#![warn(missing_docs)]

mod clock;
mod console;
mod json;
mod metric;
pub mod names;
mod profile;
mod registry;
mod slo;
mod telemetry;
mod trace;

pub use clock::Clock;
pub use console::{facility_status, sparkline, ConsoleInputs};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use profile::{SpanProfile, SpanProfileRow};
pub use registry::{Event, MetricId, Registry, RegistrySnapshot, Span};
pub use slo::{FacilityHealth, ProjectAccount, RuleOutcome, SloMonitor, SloRule};
pub use telemetry::{TelemetryConfig, TelemetryStore};
pub use trace::{SampleMode, SpanRecord, TraceConfig, TraceCtx, TraceEvent, TraceId, TraceRecord, Tracer};
