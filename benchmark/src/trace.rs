//! The harness's own span recorder (choosing-metrics §4): a span at every
//! call into a layer, kept in memory, written out when the run ends.
//!
//! Spans are recorded from the benchmark's files only — around the public
//! calls of the chain, plus synthetic children built from the stage times a
//! call already returns (`PlanOutput::times`). A layer's *self* time is its
//! span minus what its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// No parent / no batch.
pub const NONE: u32 = u32::MAX;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the causing span, or [`NONE`].
    pub parent: u32,
    /// Batch id shared by every span of one batch's chain, or [`NONE`].
    pub batch: u32,
}

/// In-memory span recorder. Disabled, every call is one branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, batch: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let now = self.t0.elapsed().as_secs_f64();
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            batch,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(i) = self.stack.pop() {
            self.spans[i as usize].end = self.t0.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, batch: u32, f: impl FnOnce() -> T) -> T {
        self.enter(name, batch);
        let out = f();
        self.exit();
        out
    }

    /// Lays `stages` (name, seconds) end to end as children of the span that
    /// just closed, starting at its start — for calls that report their own
    /// stage times. Stages are clipped to the parent.
    pub fn children_of_last(&mut self, stages: &[(&'static str, f64)]) {
        if !self.enabled {
            return;
        }
        let Some(parent) = self.spans.len().checked_sub(1) else {
            return;
        };
        let (mut at, end, batch) = {
            let p = &self.spans[parent];
            (p.start, p.end, p.batch)
        };
        for &(name, dur) in stages {
            let stop = (at + dur.max(0.0)).min(end);
            self.spans.push(Span {
                name,
                start: at,
                end: stop,
                parent: parent as u32,
                batch,
            });
            at = stop;
        }
    }

    /// Self seconds per span: duration minus the part children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if s.parent != NONE {
                own[s.parent as usize] -= s.end - s.start;
            }
        }
        own.iter_mut().for_each(|x| *x = x.max(0.0));
        own
    }

    /// Total self seconds by span-name prefix (the text before the first
    /// `.`), i.e. by layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += own;
        }
        out
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// The trace as a JSON document: one object per span with its index as
    /// id, so `parent` can be followed.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_times();
        let mut s = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"s\",\"spans\":["
        );
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"self\":{:.9},\"parent\":{},\"batch\":{}}}",
                sp.name,
                sp.start,
                sp.end,
                own[i],
                opt(sp.parent),
                opt(sp.batch),
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

fn opt(v: u32) -> String {
    if v == NONE {
        "null".into()
    } else {
        v.to_string()
    }
}
