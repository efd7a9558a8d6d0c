//! Sinks: where events go.
//!
//! [`ObsSink`] is the one trait instrumented code talks to. The
//! [`NoopSink`] reports `enabled() == false`, which instrumentation sites
//! use to skip event construction — and, where nothing else needs the
//! seconds, the clock reads too. The [`RecordingSink`] appends every
//! event to an in-memory log, assigning sequence numbers in arrival order;
//! because all library emission happens on serial, plan-ordered paths,
//! the recorded stream is bitwise deterministic across thread counts.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::Event;

/// Destination for observability events.
pub trait ObsSink {
    /// Whether events are actually recorded. Instrumentation sites gate
    /// clock reads and event construction on this.
    fn enabled(&self) -> bool;

    /// Records one event. The sink assigns `seq`.
    fn record(&self, event: Event);

    /// Records a batch of events in order.
    fn record_all(&self, events: Vec<Event>) {
        for e in events {
            self.record(e);
        }
    }
}

/// The disabled sink: drops everything, `enabled()` is `false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl ObsSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// A process-wide no-op sink to borrow when no sink was provided.
pub static NOOP: NoopSink = NoopSink;

/// In-memory recording sink. Thread-safe; `seq` is assigned under the lock
/// in arrival order.
#[derive(Debug, Default)]
pub struct RecordingSink {
    state: Mutex<RecState>,
}

#[derive(Debug, Default)]
struct RecState {
    next_seq: u64,
    events: Vec<Event>,
}

impl RecordingSink {
    /// An empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the recorded stream, in sequence order.
    pub fn events(&self) -> Vec<Event> {
        self.state.lock().unwrap().events.clone()
    }

    /// Takes the recorded stream, leaving the sink empty (sequence numbers
    /// keep increasing).
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut self.state.lock().unwrap().events)
    }
}

impl ObsSink for RecordingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, mut event: Event) {
        let mut st = self.state.lock().unwrap();
        event.seq = st.next_seq;
        st.next_seq += 1;
        st.events.push(event);
    }

    fn record_all(&self, events: Vec<Event>) {
        let mut st = self.state.lock().unwrap();
        for mut e in events {
            e.seq = st.next_seq;
            st.next_seq += 1;
            st.events.push(e);
        }
    }
}

/// Cloneable, `Debug`-able handle to a shared sink — the form structs like
/// the planner and dataloader store. Defaults to the no-op sink.
#[derive(Clone)]
pub struct ObsHandle {
    sink: Arc<dyn ObsSink + Send + Sync>,
}

impl ObsHandle {
    /// Wraps a shared sink.
    pub fn new(sink: Arc<dyn ObsSink + Send + Sync>) -> Self {
        ObsHandle { sink }
    }

    /// The disabled handle.
    pub fn noop() -> Self {
        ObsHandle {
            sink: Arc::new(NoopSink),
        }
    }

    /// Borrows the underlying sink.
    pub fn sink(&self) -> &dyn ObsSink {
        self.sink.as_ref()
    }

    /// Whether the underlying sink records.
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Records one event (no-op when disabled).
    pub fn record(&self, event: Event) {
        self.sink.record(event);
    }
}

impl Default for ObsHandle {
    fn default() -> Self {
        ObsHandle::noop()
    }
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle")
            .field("enabled", &self.sink.enabled())
            .finish()
    }
}

/// RAII span guard: reads the clock on entry and, when the sink is enabled,
/// records the prototype event with the measured timing on [`Span::finish`]
/// or drop. The clock is read whether or not the sink records, because
/// callers such as the planner report stage seconds either way; only event
/// recording is skipped when disabled.
///
/// ```
/// use dcp_obs::{Event, RecordingSink, Source, Span};
/// let sink = RecordingSink::new();
/// let secs = Span::enter(&sink, Event::span(Source::Planner, "schedule")).finish();
/// assert_eq!(sink.events()[0].name, "schedule");
/// assert_eq!(sink.events()[0].dur_s, secs);
/// ```
pub struct Span<'a> {
    sink: &'a dyn ObsSink,
    /// The pending event; `None` once recorded or when the sink is disabled.
    proto: Option<Event>,
    started: Instant,
    base: Option<Instant>,
}

impl<'a> Span<'a> {
    /// Opens a span starting now.
    pub fn enter(sink: &'a dyn ObsSink, proto: Event) -> Self {
        Span {
            sink,
            proto: sink.enabled().then_some(proto),
            started: Instant::now(),
            base: None,
        }
    }

    /// Like [`Span::enter`], but records `start_s` relative to `base` so all
    /// spans of one recording share a time origin.
    pub fn enter_at(sink: &'a dyn ObsSink, proto: Event, base: Instant) -> Self {
        let mut s = Span::enter(sink, proto);
        s.base = Some(base);
        s
    }

    /// Mutates the pending event (e.g. to add a payload discovered while
    /// the span is open). No-op when disabled.
    pub fn update(&mut self, f: impl FnOnce(&mut Event)) {
        if let Some(proto) = self.proto.as_mut() {
            f(proto);
        }
    }

    /// Closes the span, recording it now, and returns the measured seconds
    /// (also when the sink is disabled).
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let dur = self.started.elapsed().as_secs_f64();
        if let Some(proto) = self.proto.take() {
            let start = self
                .base
                .map_or(0.0, |base| (self.started - base).as_secs_f64());
            self.sink.record(proto.with_time(start, dur));
        }
        dur
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Source;

    #[test]
    fn noop_records_nothing_and_is_disabled() {
        let s = NoopSink;
        assert!(!s.enabled());
        s.record(Event::instant(Source::Planner, "x"));
        // A span on a disabled sink records nothing but still measures.
        let span = Span::enter(&s, Event::span(Source::Planner, "y"));
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(span.finish() >= 1e-3);
    }

    #[test]
    fn recording_sink_assigns_monotonic_seq() {
        let s = RecordingSink::new();
        s.record(Event::instant(Source::Planner, "a"));
        s.record_all(vec![
            Event::instant(Source::Sim, "b"),
            Event::instant(Source::Sim, "c"),
        ]);
        let evs = s.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(evs[2].name, "c");
        let drained = s.drain();
        assert_eq!(drained.len(), 3);
        assert!(s.is_empty());
        s.record(Event::instant(Source::Planner, "d"));
        assert_eq!(s.events()[0].seq, 3, "seq keeps increasing after drain");
    }

    #[test]
    fn span_records_on_drop_with_duration() {
        let s = RecordingSink::new();
        {
            let mut sp = Span::enter(&s, Event::span(Source::Executor, "attn"));
            sp.update(|e| e.flops = Some(7));
        }
        let base = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let secs = Span::enter_at(&s, Event::span(Source::Planner, "place"), base).finish();
        let evs = s.events();
        assert_eq!(
            evs.len(),
            2,
            "finish records once; the drop after it is inert"
        );
        assert_eq!(evs[0].flops, Some(7));
        assert!(evs[0].dur_s >= 0.0 && evs[0].start_s == 0.0);
        assert_eq!(evs[1].dur_s, secs);
        assert!(evs[1].start_s >= 1e-3, "start is relative to the base");
    }

    #[test]
    fn handle_defaults_to_noop() {
        let h = ObsHandle::default();
        assert!(!h.enabled());
        assert_eq!(format!("{h:?}"), "ObsHandle { enabled: false }");
        let rec = Arc::new(RecordingSink::new());
        let h = ObsHandle::new(rec.clone());
        assert!(h.enabled());
        h.record(Event::instant(Source::Dataloader, "z"));
        assert_eq!(rec.len(), 1);
    }
}
