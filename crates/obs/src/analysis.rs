//! Causal trace analytics: critical-path reconstruction and makespan
//! attribution.
//!
//! The recorded event stream (executor or simulator spans) is an implicit
//! dependency DAG: compute segments on one device are ordered by the
//! device's instruction stream, a `wait`/`comm_wait` is released by the
//! last inbound transfer it blocks on, and that transfer was produced by
//! the sending device's stream. [`critical_path`] reconstructs the chain
//! of segments that *ends* the iteration by walking that DAG backwards
//! from the makespan, and attributes every second of it to one of five
//! buckets: compute, exposed comm, wait (idle / dependency stall),
//! straggle (injected or observed slowdown slices) and recovery
//! (delayed-start / restart gaps).
//!
//! The walk partitions `[0, makespan]` exactly — every hop attributes the
//! full interval it skips — so bucket components always sum to the
//! makespan (pinned by a proptest in `tests/trace_analysis.rs`). That
//! conservation law makes the attribution an audit: if the components stop
//! summing, the reconstruction is wrong, not the plan.
//!
//! [`diff_attribution`] is the differential mode: given a clean and a
//! regressed trace of the same workload it blames the makespan delta on
//! buckets and devices, naming a `prime_suspect` — *which* path segment
//! regressed rather than a bare percentage.

use serde::{Deserialize, Serialize};

use crate::event::{Event, EventKind, Phase, Source};

/// Attribution bucket for one critical-path hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bucket {
    /// Kernel / launch work on the device stream.
    Compute,
    /// Blocked on communication that an inbound transfer eventually
    /// released (the transfer interval itself).
    ExposedComm,
    /// Idle or dependency stall not covered by a visible transfer.
    Wait,
    /// Slowdown slice beyond a kernel's nominal duration.
    Straggle,
    /// Delayed start / restart gap (recovery cost).
    Recovery,
}

impl Bucket {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            Bucket::Compute => "compute",
            Bucket::ExposedComm => "exposed_comm",
            Bucket::Wait => "wait",
            Bucket::Straggle => "straggle",
            Bucket::Recovery => "recovery",
        }
    }
}

/// One hop of the reconstructed critical path: a half-open time interval
/// on one device, attributed to one bucket. Steps are reported in walk
/// order (makespan backwards to zero) and tile `[0, makespan]` exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathStep {
    /// Device the interval is charged to.
    pub device: u32,
    /// Attribution bucket.
    pub bucket: Bucket,
    /// Segment name (`attn`, `recv`, `wait`, ...; `idle` for gaps).
    pub name: String,
    /// Interval start, seconds.
    pub start_s: f64,
    /// Interval end, seconds.
    pub end_s: f64,
    /// Attention-division index active on the device at `start_s`
    /// (number of closed attn/attn_bwd kernels before it).
    pub division: u32,
}

impl PathStep {
    /// Interval length, seconds.
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Per-device share of the critical path.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceAttribution {
    /// Device id.
    pub device: u32,
    /// Seconds of on-path compute.
    pub compute: f64,
    /// Seconds of on-path exposed communication.
    pub exposed_comm: f64,
    /// Seconds of on-path wait/idle.
    pub wait: f64,
    /// Seconds of on-path straggle.
    pub straggle: f64,
    /// Seconds of on-path recovery gaps.
    pub recovery: f64,
}

impl DeviceAttribution {
    /// Total on-path seconds charged to this device.
    pub fn total(&self) -> f64 {
        self.compute + self.exposed_comm + self.wait + self.straggle + self.recovery
    }
}

/// Per-(device, division) share of the critical path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DivisionAttribution {
    /// Device id.
    pub device: u32,
    /// Attention-division index on that device.
    pub division: u32,
    /// On-path seconds.
    pub seconds: f64,
}

/// Critical-path makespan attribution for one trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Attribution {
    /// Trace makespan (latest device-track segment end), seconds.
    pub makespan: f64,
    /// On-path compute seconds.
    pub compute: f64,
    /// On-path exposed-communication seconds.
    pub exposed_comm: f64,
    /// On-path wait/idle seconds.
    pub wait: f64,
    /// On-path straggle seconds.
    pub straggle: f64,
    /// On-path recovery seconds.
    pub recovery: f64,
    /// Per-device breakdown, sorted by device id (on-path devices only).
    pub per_device: Vec<DeviceAttribution>,
    /// Per-(device, division) breakdown, sorted.
    pub per_division: Vec<DivisionAttribution>,
    /// The reconstructed path, makespan backwards to zero.
    pub steps: Vec<PathStep>,
}

impl Attribution {
    /// Sum of the five bucket components (should equal the makespan).
    pub fn components_total(&self) -> f64 {
        self.compute + self.exposed_comm + self.wait + self.straggle + self.recovery
    }

    /// Signed conservation error: `components_total() - makespan`.
    pub fn residual(&self) -> f64 {
        self.components_total() - self.makespan
    }

    /// True when components sum to the makespan within relative
    /// tolerance `rel_tol` (absolute floor `1e-15` for empty traces).
    pub fn sums_to_makespan(&self, rel_tol: f64) -> bool {
        self.residual().abs() <= rel_tol * self.makespan.abs().max(1e-15)
    }

    /// Bucket seconds charged to `device` across all buckets.
    pub(crate) fn device_total(&self, device: u32) -> f64 {
        self.per_device
            .iter()
            .find(|d| d.device == device)
            .map(DeviceAttribution::total)
            .unwrap_or(0.0)
    }
}

/// Per-device makespan-delta share in a differential comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceDelta {
    /// Device id.
    pub device: u32,
    /// Faulted on-path seconds minus clean on-path seconds.
    pub delta: f64,
}

/// Differential attribution: blames the makespan delta between two traces
/// of the same workload on buckets and devices.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttributionDelta {
    /// `faulted.makespan - clean.makespan`.
    pub makespan_delta: f64,
    /// Per-bucket deltas (faulted minus clean).
    pub compute_delta: f64,
    /// Exposed-comm delta.
    pub exposed_comm_delta: f64,
    /// Wait delta.
    pub wait_delta: f64,
    /// Straggle delta.
    pub straggle_delta: f64,
    /// Recovery delta.
    pub recovery_delta: f64,
    /// Per-device on-path deltas, sorted by device id.
    pub per_device: Vec<DeviceDelta>,
    /// Device with the largest positive on-path delta, if any.
    pub prime_suspect: Option<u32>,
    /// Suspect's share of the makespan delta (0 when the delta is
    /// non-positive).
    pub suspect_share: f64,
    /// Bucket with the largest positive delta, if any.
    pub dominant_bucket: Option<Bucket>,
}

/// Which slice of a mixed stream to analyze. `None` fields match
/// everything; the usual call sites pin at least `source` so executor and
/// simulator clocks never mix in one walk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnalysisScope {
    /// Restrict to one emitting layer.
    pub source: Option<Source>,
    /// Restrict to one phase.
    pub phase: Option<Phase>,
    /// Restrict to one iteration.
    pub iter: Option<u64>,
}

impl AnalysisScope {
    /// Scope over one simulated phase (the common case).
    pub fn sim(phase: Phase) -> Self {
        AnalysisScope {
            source: Some(Source::Sim),
            phase: Some(phase),
            iter: None,
        }
    }

    /// Scope over one simulated phase of one iteration.
    pub fn sim_iter(phase: Phase, iter: u64) -> Self {
        AnalysisScope {
            source: Some(Source::Sim),
            phase: Some(phase),
            iter: Some(iter),
        }
    }

    fn matches(&self, e: &Event) -> bool {
        self.source.is_none_or(|s| e.source == s)
            && self.phase.is_none_or(|p| e.phase == Some(p))
            && self.iter.is_none_or(|i| e.iter == Some(i))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SegKind {
    Compute,
    Wait,
    Straggle,
    Recovery,
}

#[derive(Debug, Clone)]
struct Seg {
    start: f64,
    end: f64,
    kind: SegKind,
    name_idx: usize,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Recv {
    start: f64,
    end: f64,
    from: Option<u32>,
}

/// Device-stream segment classification by span name. Returns `None` for
/// spans that are not part of the device timeline (planner stages, recv
/// transfers — those go on the net track).
fn classify(name: &str) -> Option<SegKind> {
    match name {
        "attn" | "attn_bwd" | "reduce" | "copy" | "comm_launch" => Some(SegKind::Compute),
        "wait" | "comm_wait" => Some(SegKind::Wait),
        "straggle" => Some(SegKind::Straggle),
        "delay" => Some(SegKind::Recovery),
        _ => None,
    }
}

/// Parses the `recv` span label `"from devN"` into the sender id.
fn sender_of(label: Option<&str>) -> Option<u32> {
    label?.strip_prefix("from dev")?.parse().ok()
}

struct Tracks {
    /// Device-stream segments per device, sorted by (start, seq).
    device: Vec<Vec<Seg>>,
    /// Inbound-transfer segments per receiving device, sorted by end.
    recv: Vec<Vec<Recv>>,
    /// Sorted ends of attn/attn_bwd kernels per device (division clock).
    attn_ends: Vec<Vec<f64>>,
    /// Interned segment names (indexes into `Seg::name_idx`).
    names: Vec<String>,
}

fn build_tracks(events: &[Event], scope: &AnalysisScope) -> Tracks {
    let mut device: Vec<Vec<Seg>> = Vec::new();
    let mut recv: Vec<Vec<Recv>> = Vec::new();
    let mut attn_ends: Vec<Vec<f64>> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut name_idx = std::collections::BTreeMap::<String, usize>::new();
    let ensure = |device: &mut Vec<Vec<Seg>>,
                  recv: &mut Vec<Vec<Recv>>,
                  attn_ends: &mut Vec<Vec<f64>>,
                  d: usize| {
        while device.len() <= d {
            device.push(Vec::new());
            recv.push(Vec::new());
            attn_ends.push(Vec::new());
        }
    };
    for e in events {
        if e.kind != EventKind::Span || !scope.matches(e) {
            continue;
        }
        let Some(d) = e.device else { continue };
        let d = d as usize;
        let (start, end) = (e.start_s, e.start_s + e.dur_s);
        if e.name == "recv" {
            ensure(&mut device, &mut recv, &mut attn_ends, d);
            recv[d].push(Recv {
                start,
                end,
                from: sender_of(e.label.as_deref()),
            });
            continue;
        }
        let Some(kind) = classify(&e.name) else {
            continue;
        };
        ensure(&mut device, &mut recv, &mut attn_ends, d);
        let idx = *name_idx.entry(e.name.clone()).or_insert_with(|| {
            names.push(e.name.clone());
            names.len() - 1
        });
        device[d].push(Seg {
            start,
            end,
            kind,
            name_idx: idx,
            seq: e.seq,
        });
        if e.name == "attn" || e.name == "attn_bwd" {
            attn_ends[d].push(end);
        }
    }
    for segs in &mut device {
        segs.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.seq.cmp(&b.seq)));
    }
    for recvs in &mut recv {
        recvs.sort_by(|a, b| a.end.total_cmp(&b.end));
    }
    for ends in &mut attn_ends {
        ends.sort_by(f64::total_cmp);
    }
    Tracks {
        device,
        recv,
        attn_ends,
        names,
    }
}

/// Number of attn/attn_bwd kernels closed on `dev` at time `t` — the
/// division index active there.
fn division_at(tracks: &Tracks, dev: usize, t: f64, eps: f64) -> u32 {
    tracks.attn_ends[dev].partition_point(|&e| e <= t + eps) as u32
}

/// Reconstructs the critical path of the scoped trace and attributes the
/// makespan. See the module docs for the walk rules; the returned
/// [`Attribution`] satisfies `components_total() == makespan` up to f64
/// association error.
pub fn critical_path(events: &[Event], scope: &AnalysisScope) -> Attribution {
    let tracks = build_tracks(events, scope);
    let mut attr = Attribution::default();
    // Makespan = latest device-track segment end; the finishing device
    // starts the backward walk (ties broken towards the lowest id so the
    // walk is deterministic).
    let mut dev = usize::MAX;
    let mut makespan = 0.0f64;
    for (d, segs) in tracks.device.iter().enumerate() {
        for s in segs {
            if s.end > makespan {
                makespan = s.end;
                dev = d;
            }
        }
    }
    if dev == usize::MAX {
        return attr;
    }
    attr.makespan = makespan;
    let eps = makespan.abs() * 1e-9 + 1e-15;
    let total_segs: usize = tracks.device.iter().map(Vec::len).sum::<usize>()
        + tracks.recv.iter().map(Vec::len).sum::<usize>();
    let max_steps = 4 * total_segs + 16;
    let mut t = makespan;
    let mut steps: Vec<PathStep> = Vec::new();
    let push =
        |steps: &mut Vec<PathStep>, dev: usize, bucket: Bucket, name: &str, lo: f64, hi: f64| {
            if hi - lo <= 0.0 {
                return;
            }
            steps.push(PathStep {
                device: dev as u32,
                bucket,
                name: name.to_string(),
                start_s: lo,
                end_s: hi,
                division: division_at(&tracks, dev, lo, eps),
            });
        };
    while t > eps {
        if steps.len() >= max_steps {
            // Defensive: never loop forever on a malformed trace; charge
            // the unexplained prefix to wait so conservation still holds.
            push(&mut steps, dev, Bucket::Wait, "idle", 0.0, t);
            t = 0.0;
            break;
        }
        // Latest segment on this device starting strictly before t.
        let segs = &tracks.device[dev];
        let i = segs.partition_point(|s| s.start < t - eps);
        if i == 0 {
            // Nothing earlier on this device: unexplained prefix.
            push(&mut steps, dev, Bucket::Wait, "idle", 0.0, t);
            t = 0.0;
            break;
        }
        let s = segs[i - 1].clone();
        if s.end < t - eps {
            // Gap between the segment's end and t: idle stall.
            push(&mut steps, dev, Bucket::Wait, "idle", s.end, t);
            t = s.end;
            continue;
        }
        match s.kind {
            SegKind::Compute => {
                push(
                    &mut steps,
                    dev,
                    Bucket::Compute,
                    &tracks.names[s.name_idx],
                    s.start,
                    t,
                );
                t = s.start;
            }
            SegKind::Straggle => {
                push(
                    &mut steps,
                    dev,
                    Bucket::Straggle,
                    &tracks.names[s.name_idx],
                    s.start,
                    t,
                );
                t = s.start;
            }
            SegKind::Recovery => {
                push(
                    &mut steps,
                    dev,
                    Bucket::Recovery,
                    &tracks.names[s.name_idx],
                    s.start,
                    t,
                );
                t = s.start;
            }
            SegKind::Wait => {
                // The wait was released by the last inbound transfer that
                // completed inside it; follow the edge to the sender.
                let released = tracks.recv[dev]
                    .iter()
                    .rev()
                    .find(|r| r.end <= t + eps && r.end > s.start + eps && r.start < t - eps);
                match released {
                    Some(r) => {
                        let r = r.clone();
                        let hand_off = r.end.min(t);
                        if hand_off < t - eps {
                            // Wait outlived the transfer (e.g. executor
                            // round-robin slack): the tail is plain wait.
                            push(
                                &mut steps,
                                dev,
                                Bucket::Wait,
                                &tracks.names[s.name_idx],
                                hand_off,
                                t,
                            );
                        }
                        push(
                            &mut steps,
                            dev,
                            Bucket::ExposedComm,
                            "recv",
                            r.start,
                            hand_off,
                        );
                        t = r.start;
                        if let Some(from) = r.from {
                            if (from as usize) < tracks.device.len() {
                                dev = from as usize;
                            }
                        }
                    }
                    None => {
                        // No visible transfer: a comm_wait with no recv
                        // track (executor streams) is exposed comm by
                        // definition; a bare wait is a dependency stall.
                        let bucket = if tracks.names[s.name_idx] == "comm_wait" {
                            Bucket::ExposedComm
                        } else {
                            Bucket::Wait
                        };
                        push(
                            &mut steps,
                            dev,
                            bucket,
                            &tracks.names[s.name_idx],
                            s.start,
                            t,
                        );
                        t = s.start;
                    }
                }
            }
        }
    }
    // Residual sliver below eps: fold into the last step (or a wait stub)
    // so the tiling of [0, makespan] is exact.
    if t > 0.0 {
        if let Some(last) = steps.last_mut() {
            last.start_s = 0.0;
        } else {
            push(&mut steps, dev, Bucket::Wait, "idle", 0.0, t);
        }
    }
    // Aggregate buckets in walk order (fixed summation order keeps the
    // result bitwise deterministic).
    let mut per_dev = std::collections::BTreeMap::<u32, DeviceAttribution>::new();
    let mut per_div = std::collections::BTreeMap::<(u32, u32), f64>::new();
    for st in &steps {
        let secs = st.seconds();
        match st.bucket {
            Bucket::Compute => attr.compute += secs,
            Bucket::ExposedComm => attr.exposed_comm += secs,
            Bucket::Wait => attr.wait += secs,
            Bucket::Straggle => attr.straggle += secs,
            Bucket::Recovery => attr.recovery += secs,
        }
        let d = per_dev
            .entry(st.device)
            .or_insert_with(|| DeviceAttribution {
                device: st.device,
                ..DeviceAttribution::default()
            });
        match st.bucket {
            Bucket::Compute => d.compute += secs,
            Bucket::ExposedComm => d.exposed_comm += secs,
            Bucket::Wait => d.wait += secs,
            Bucket::Straggle => d.straggle += secs,
            Bucket::Recovery => d.recovery += secs,
        }
        *per_div.entry((st.device, st.division)).or_insert(0.0) += secs;
    }
    attr.per_device = per_dev.into_values().collect();
    attr.per_division = per_div
        .into_iter()
        .map(|((device, division), seconds)| DivisionAttribution {
            device,
            division,
            seconds,
        })
        .collect();
    attr.steps = steps;
    attr
}

/// Differential mode: blames `faulted.makespan - clean.makespan` on
/// buckets and devices. Positive deltas mean the faulted trace spends
/// more on-path time there.
pub fn diff_attribution(clean: &Attribution, faulted: &Attribution) -> AttributionDelta {
    let mut delta = AttributionDelta {
        makespan_delta: faulted.makespan - clean.makespan,
        compute_delta: faulted.compute - clean.compute,
        exposed_comm_delta: faulted.exposed_comm - clean.exposed_comm,
        wait_delta: faulted.wait - clean.wait,
        straggle_delta: faulted.straggle - clean.straggle,
        recovery_delta: faulted.recovery - clean.recovery,
        ..AttributionDelta::default()
    };
    let mut devices = std::collections::BTreeSet::<u32>::new();
    for d in clean.per_device.iter().chain(&faulted.per_device) {
        devices.insert(d.device);
    }
    for d in devices {
        delta.per_device.push(DeviceDelta {
            device: d,
            delta: faulted.device_total(d) - clean.device_total(d),
        });
    }
    let suspect = delta
        .per_device
        .iter()
        .filter(|d| d.delta > 0.0)
        .max_by(|a, b| a.delta.total_cmp(&b.delta).then(b.device.cmp(&a.device)));
    if let Some(s) = suspect {
        delta.prime_suspect = Some(s.device);
        delta.suspect_share = if delta.makespan_delta > 0.0 {
            s.delta / delta.makespan_delta
        } else {
            0.0
        };
    }
    let buckets = [
        (Bucket::Compute, delta.compute_delta),
        (Bucket::ExposedComm, delta.exposed_comm_delta),
        (Bucket::Wait, delta.wait_delta),
        (Bucket::Straggle, delta.straggle_delta),
        (Bucket::Recovery, delta.recovery_delta),
    ];
    delta.dominant_bucket = buckets
        .iter()
        .filter(|(_, v)| *v > 0.0)
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(b, _)| *b);
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, dev: u32, start: f64, end: f64) -> Event {
        Event::span(Source::Sim, name)
            .with_device(dev)
            .with_phase(Phase::Fwd)
            .with_time(start, end - start)
    }

    #[test]
    fn empty_trace_is_zero() {
        let a = critical_path(&[], &AnalysisScope::default());
        assert_eq!(a.makespan, 0.0);
        assert!(a.steps.is_empty());
        assert!(a.sums_to_makespan(1e-9));
    }

    #[test]
    fn single_device_is_all_compute() {
        let events = vec![span("attn", 0, 0.0, 1.0), span("reduce", 0, 1.0, 1.5)];
        let a = critical_path(&events, &AnalysisScope::default());
        assert!((a.makespan - 1.5).abs() < 1e-12);
        assert!((a.compute - 1.5).abs() < 1e-12);
        assert_eq!(a.exposed_comm, 0.0);
        assert!(a.sums_to_makespan(1e-9));
        assert_eq!(a.steps.len(), 2);
        assert_eq!(a.steps[0].name, "reduce");
    }

    #[test]
    fn wait_follows_transfer_to_sender() {
        // dev0 computes [0,1], sends; dev1 waits [0,1.5] for a transfer
        // [0.5,1.5], then computes [1.5,2].
        let events = vec![
            span("attn", 0, 0.0, 1.0),
            span("wait", 1, 0.0, 1.5),
            span("recv", 1, 0.5, 1.5).with_label("from dev0"),
            span("attn", 1, 1.5, 2.0),
        ];
        let a = critical_path(&events, &AnalysisScope::default());
        assert!((a.makespan - 2.0).abs() < 1e-12);
        assert!((a.exposed_comm - 1.0).abs() < 1e-12, "{a:?}");
        assert!((a.compute - 1.0).abs() < 1e-12, "{a:?}");
        assert!(a.sums_to_makespan(1e-9));
        // Path visits dev1 then hops to dev0 through the transfer.
        let devs: Vec<u32> = a.steps.iter().map(|s| s.device).collect();
        assert_eq!(devs, vec![1, 1, 0]);
        assert_eq!(a.steps[1].bucket, Bucket::ExposedComm);
    }

    #[test]
    fn straggle_and_delay_buckets() {
        let events = vec![
            span("delay", 0, 0.0, 0.5),
            span("attn", 0, 0.5, 1.5),
            span("straggle", 0, 1.5, 3.5),
            span("attn", 1, 0.0, 1.0),
        ];
        let a = critical_path(&events, &AnalysisScope::default());
        assert!((a.makespan - 3.5).abs() < 1e-12);
        assert!((a.straggle - 2.0).abs() < 1e-12);
        assert!((a.recovery - 0.5).abs() < 1e-12);
        assert!((a.compute - 1.0).abs() < 1e-12);
        assert!(a.sums_to_makespan(1e-9));
    }

    #[test]
    fn comm_wait_without_recv_is_exposed() {
        let events = vec![
            Event::span(Source::Executor, "comm_wait")
                .with_device(0)
                .with_time(0.0, 1.0),
            Event::span(Source::Executor, "attn")
                .with_device(0)
                .with_time(1.0, 1.0),
        ];
        let a = critical_path(&events, &AnalysisScope::default());
        assert!((a.exposed_comm - 1.0).abs() < 1e-12);
        assert!((a.compute - 1.0).abs() < 1e-12);
        assert!(a.sums_to_makespan(1e-9));
    }

    #[test]
    fn scope_filters_sources() {
        let events = vec![
            span("attn", 0, 0.0, 1.0),
            Event::span(Source::Executor, "attn")
                .with_device(0)
                .with_time(0.0, 9.0),
        ];
        let a = critical_path(&events, &AnalysisScope::sim(Phase::Fwd));
        assert!((a.makespan - 1.0).abs() < 1e-12);
    }

    #[test]
    fn differential_blames_straggler_device() {
        let clean = critical_path(
            &[span("attn", 0, 0.0, 1.0), span("attn", 1, 0.0, 1.0)],
            &AnalysisScope::default(),
        );
        let faulted = critical_path(
            &[
                span("attn", 0, 0.0, 1.0),
                span("straggle", 0, 1.0, 4.0),
                span("attn", 1, 0.0, 1.0),
            ],
            &AnalysisScope::default(),
        );
        let d = diff_attribution(&clean, &faulted);
        assert!((d.makespan_delta - 3.0).abs() < 1e-12);
        assert_eq!(d.prime_suspect, Some(0));
        assert!(d.suspect_share >= 0.99, "{d:?}");
        assert_eq!(d.dominant_bucket, Some(Bucket::Straggle));
    }

    #[test]
    fn division_clock_counts_closed_attn() {
        let events = vec![
            span("attn", 0, 0.0, 1.0),
            span("reduce", 0, 1.0, 1.2),
            span("attn", 0, 1.2, 2.0),
        ];
        let a = critical_path(&events, &AnalysisScope::default());
        // Last attn starts in division 1 (one attn closed before it).
        assert_eq!(a.steps[0].division, 1);
        assert_eq!(a.steps[2].division, 0);
    }
}
