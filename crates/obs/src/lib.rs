//! # dcp-obs — unified observability layer
//!
//! One structured event model for the whole workspace: the planner,
//! look-ahead dataloader, numerical executor and cluster simulator all
//! emit [`Event`]s into an [`ObsSink`], and the exporters turn the merged
//! stream into a multi-source Chrome trace or a JSONL log.
//!
//! On top of recording, the crate *attributes* streams (DESIGN.md §13):
//! [`critical_path`] reconstructs the causal chain that ends an
//! iteration and attributes the makespan to compute / exposed comm /
//! wait / straggle / recovery, and [`diff_attribution`] blames the
//! difference between two such attributions on devices and buckets.
//!
//! Design rules (see DESIGN.md §8):
//!
//! - **Near-zero disabled cost.** Instrumentation sites gate on
//!   [`ObsSink::enabled`]; with the [`NoopSink`] the per-site cost is a
//!   single branch — no clock read, no allocation.
//! - **Deterministic identity.** All library emission happens on serial,
//!   plan-ordered code paths (the planner's caller thread, the
//!   dataloader's consumer thread, the executor's round-robin interpreter
//!   loop, the simulator's sorted trace). The recorded stream — sequence
//!   numbers, names, dimensions, payloads — is therefore bitwise identical
//!   across `RAYON_NUM_THREADS`. Wall-clock lives only in `start_s`/
//!   `dur_s`, which [`Event::identity`] strips.
//!
//! ```
//! use dcp_obs::{Event, ObsSink, RecordingSink, Source, Span};
//!
//! let sink = RecordingSink::new();
//! {
//!     let mut span = Span::enter(&sink, Event::span(Source::Planner, "schedule"));
//!     span.update(|e| e.iter = Some(0));
//! }
//! sink.record(Event::counter(Source::Planner, "plan_cache_miss", 1.0));
//! let events = sink.events();
//! assert_eq!(events.len(), 2);
//! println!("{}", dcp_obs::to_chrome_trace(&events));
//! ```

mod analysis;
mod event;
mod export;
mod sink;

pub use analysis::{
    critical_path, diff_attribution, AnalysisScope, Attribution, AttributionDelta, Bucket,
    DeviceAttribution, DeviceDelta, DivisionAttribution, PathStep,
};
pub use event::{identities, Event, EventKind, Phase, Source};
pub use export::{chrome_trace_events, to_chrome_trace, to_jsonl};
pub use sink::{NoopSink, ObsHandle, ObsSink, RecordingSink, Span, NOOP};
