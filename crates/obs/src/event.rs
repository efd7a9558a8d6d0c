//! The structured event model shared by every layer.
//!
//! An [`Event`] is the single record type the planner, dataloader, executor
//! and simulator all emit. Identity (what the determinism tests pin) is
//! everything *except* the wall-clock payload: `start_s` and `dur_s` carry
//! measured or simulated time and are explicitly excluded from comparisons
//! via [`Event::identity`].

use serde::{Deserialize, Serialize};

/// Which layer emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Source {
    /// The per-batch planner (`dcp-core`).
    Planner,
    /// The look-ahead dataloader (`dcp-core`).
    Dataloader,
    /// The numerical executor (`dcp-exec`).
    Executor,
    /// The discrete-event cluster simulator (`dcp-sim`).
    Sim,
}

impl Source {
    /// Short display label, also the Chrome-trace process name.
    pub fn label(&self) -> &'static str {
        match self {
            Source::Planner => "planner",
            Source::Dataloader => "dataloader",
            Source::Executor => "executor",
            Source::Sim => "sim",
        }
    }

    /// Stable process id for the Chrome-trace exporter: one process row
    /// per source so simulated and real timelines sit side by side.
    pub fn pid(&self) -> u32 {
        match self {
            Source::Planner => 1,
            Source::Dataloader => 2,
            Source::Executor => 3,
            Source::Sim => 4,
        }
    }
}

/// Execution phase a device-side event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// Forward pass.
    Fwd,
    /// Backward pass.
    Bwd,
}

impl Phase {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Fwd => "fwd",
            Phase::Bwd => "bwd",
        }
    }
}

/// Event shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventKind {
    /// A timed interval (`start_s`/`dur_s` meaningful).
    Span,
    /// A point event (duration zero by construction).
    Instant,
    /// A monotonic count increment (`value` is the delta).
    Counter,
    /// A sampled level (`value` is the sample).
    Gauge,
}

/// One structured observability record.
///
/// All optional dimensions default to `None`; constructors fill `source`,
/// `kind` and `name`, builder methods add the rest. `seq` is assigned by
/// the recording sink in arrival order — because all library emission
/// happens on serial, plan-ordered code paths, `seq` is deterministic and
/// *is* part of event identity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Recording order, assigned by the sink (0 until recorded).
    pub seq: u64,
    /// Emitting layer.
    pub source: Source,
    /// Event shape.
    pub kind: EventKind,
    /// Event name, e.g. `"attn"`, `"coarsen"`, `"plan_cache_hit"`.
    pub name: String,
    /// Iteration / batch index, when known.
    pub iter: Option<u64>,
    /// Device id, for device-scoped events.
    pub device: Option<u32>,
    /// Forward/backward phase, for executor and sim events.
    pub phase: Option<Phase>,
    /// Division index within the phase, for executor events.
    pub division: Option<u32>,
    /// Free-form label: plan tier, failure class, transfer peer, ...
    pub label: Option<String>,
    /// Communication id linking a `comm_launch` span to the `comm_wait`
    /// that blocks on it (the plan's `CommId`). Optional so older JSONL
    /// streams without the field still deserialize.
    pub comm: Option<u32>,
    /// Bytes moved/reduced, when applicable.
    pub bytes: Option<u64>,
    /// Flops executed, when applicable.
    pub flops: Option<u64>,
    /// Counter delta or gauge sample.
    pub value: Option<f64>,
    /// Start time in seconds (wall clock for real layers, simulated time
    /// for the sim). NOT part of event identity.
    pub start_s: f64,
    /// Duration in seconds. NOT part of event identity.
    pub dur_s: f64,
}

impl Event {
    fn new(source: Source, kind: EventKind, name: impl Into<String>) -> Self {
        Event {
            seq: 0,
            source,
            kind,
            name: name.into(),
            iter: None,
            device: None,
            phase: None,
            division: None,
            label: None,
            comm: None,
            bytes: None,
            flops: None,
            value: None,
            start_s: 0.0,
            dur_s: 0.0,
        }
    }

    /// A timed span.
    pub fn span(source: Source, name: impl Into<String>) -> Self {
        Event::new(source, EventKind::Span, name)
    }

    /// A point event.
    pub fn instant(source: Source, name: impl Into<String>) -> Self {
        Event::new(source, EventKind::Instant, name)
    }

    /// A counter increment of `delta`.
    pub fn counter(source: Source, name: impl Into<String>, delta: f64) -> Self {
        Event::new(source, EventKind::Counter, name).with_value(delta)
    }

    /// A gauge sample of `value`.
    pub fn gauge(source: Source, name: impl Into<String>, value: f64) -> Self {
        Event::new(source, EventKind::Gauge, name).with_value(value)
    }

    /// Sets the iteration / batch index.
    pub fn with_iter(mut self, iter: u64) -> Self {
        self.iter = Some(iter);
        self
    }

    /// Sets the device id.
    pub fn with_device(mut self, device: u32) -> Self {
        self.device = Some(device);
        self
    }

    /// Sets the execution phase.
    pub fn with_phase(mut self, phase: Phase) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Sets the division index.
    pub fn with_division(mut self, division: u32) -> Self {
        self.division = Some(division);
        self
    }

    /// Sets the free-form label (tier, failure class, ...).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Sets the communication id (links launch/wait pairs).
    pub fn with_comm(mut self, comm: u32) -> Self {
        self.comm = Some(comm);
        self
    }

    /// Sets the bytes payload.
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.bytes = Some(bytes);
        self
    }

    /// Sets the flops payload.
    pub fn with_flops(mut self, flops: u64) -> Self {
        self.flops = Some(flops);
        self
    }

    /// Sets the counter/gauge value.
    pub fn with_value(mut self, value: f64) -> Self {
        self.value = Some(value);
        self
    }

    /// Sets the timing payload (seconds).
    pub fn with_time(mut self, start_s: f64, dur_s: f64) -> Self {
        self.start_s = start_s;
        self.dur_s = dur_s;
        self
    }

    /// A copy with the timing payload zeroed: the deterministic identity of
    /// the event. Two event streams are "the same" iff their identities are
    /// equal element-wise (see `tests/obs_determinism.rs`).
    pub fn identity(&self) -> Event {
        let mut e = self.clone();
        e.start_s = 0.0;
        e.dur_s = 0.0;
        e
    }

    /// Chrome-trace category for this event.
    pub(crate) fn chrome_cat(&self) -> &'static str {
        match self.kind {
            EventKind::Counter | EventKind::Gauge => "metric",
            _ => match self.name.as_str() {
                "comm_launch" | "comm_wait" | "recv" => "comm",
                "wait" => "wait",
                "straggle" | "delay" => "fault",
                _ if self.source == Source::Planner => "plan",
                _ if self.source == Source::Dataloader => "load",
                _ => "compute",
            },
        }
    }
}

/// Strips timing from a stream: the element-wise [`Event::identity`].
pub fn identities(events: &[Event]) -> Vec<Event> {
    events.iter().map(Event::identity).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_identity() {
        let e = Event::span(Source::Executor, "attn")
            .with_iter(3)
            .with_device(1)
            .with_phase(Phase::Fwd)
            .with_division(2)
            .with_flops(1000)
            .with_time(1.5, 0.25);
        assert_eq!(e.iter, Some(3));
        assert_eq!(e.dur_s, 0.25);
        let id = e.identity();
        assert_eq!(id.dur_s, 0.0);
        assert_eq!(id.start_s, 0.0);
        assert_eq!(id.flops, Some(1000));
        // Identity equality ignores timing.
        assert_eq!(id, e.clone().with_time(9.0, 9.0).identity());
    }

    #[test]
    fn serde_round_trip() {
        let e = Event::counter(Source::Planner, "plan_cache_hit", 1.0)
            .with_label("partitioned")
            .with_bytes(42);
        let s = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&s).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn chrome_categories() {
        assert_eq!(
            Event::span(Source::Executor, "comm_wait").chrome_cat(),
            "comm"
        );
        assert_eq!(
            Event::span(Source::Executor, "attn").chrome_cat(),
            "compute"
        );
        assert_eq!(Event::span(Source::Planner, "coarsen").chrome_cat(), "plan");
        assert_eq!(
            Event::gauge(Source::Executor, "peak_buffer_bytes", 1.0).chrome_cat(),
            "metric"
        );
    }
}
