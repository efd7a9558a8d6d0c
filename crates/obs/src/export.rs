//! Exporters: unified Chrome trace, JSONL event log.
//!
//! The Chrome trace is the one exporter of every timeline, simulated ones
//! included (`dcp_sim::trace_to_obs` adapts them): each [`Source`] becomes a
//! Chrome *process* (named via `"M"` metadata events) and each device a
//! pair of *threads* (compute row + comm row), so planner, dataloader,
//! executor and sim timelines sit side by side in `chrome://tracing` or
//! Perfetto. Timestamps are normalised per source (each process starts at
//! its own first event) so wall-clock and simulated clocks are directly
//! comparable.

use serde_json::{json, Value};

use crate::event::{Event, EventKind, Source};

/// Chrome thread id for an event: `2*device` for compute/plan rows,
/// `2*device + 1` for comm rows, 0 for device-less events.
fn tid(e: &Event) -> u32 {
    match e.device {
        Some(d) => 2 * d + u32::from(e.chrome_cat() == "comm"),
        None => 0,
    }
}

/// Stable flow-event id binding a `comm_launch` arrow to its `comm_wait`:
/// unique per (source, iteration, phase, comm id).
fn flow_id(e: &Event, comm: u32) -> u64 {
    let phase = e.phase.map(|p| p as u64 + 1).unwrap_or(0);
    let iter = e.iter.unwrap_or(0);
    ((e.source.pid() as u64) << 56) | ((iter + 1) << 36) | (phase << 34) | comm as u64
}

fn args(e: &Event) -> Value {
    let mut m = serde_json::Map::new();
    m.insert("seq".into(), json!(e.seq));
    if let Some(i) = e.iter {
        m.insert("iter".into(), json!(i));
    }
    if let Some(c) = e.comm {
        m.insert("comm".into(), json!(c));
    }
    if let Some(d) = e.division {
        m.insert("division".into(), json!(d));
    }
    if let Some(l) = &e.label {
        m.insert("label".into(), json!(l));
    }
    if let Some(b) = e.bytes {
        m.insert("bytes".into(), json!(b));
    }
    if let Some(f) = e.flops {
        m.insert("flops".into(), json!(f));
    }
    if let Some(v) = e.value {
        m.insert("value".into(), json!(v));
    }
    Value::Object(m)
}

/// Builds the `traceEvents` array for a multi-source stream: `"M"`
/// process/thread metadata rows, `"X"` complete events for spans and
/// instants, `"C"` counter samples for counters and gauges.
pub fn chrome_trace_events(events: &[Event]) -> Vec<Value> {
    let mut out = Vec::new();
    // Per-source time origin so every process row starts at zero. Only
    // timed events (spans/instants) define the origin; counters and gauges
    // carry no meaningful timestamp.
    let mut origin: [f64; 4] = [f64::INFINITY; 4];
    for e in events {
        if matches!(e.kind, EventKind::Span | EventKind::Instant) {
            let s = e.source.pid() as usize - 1;
            origin[s] = origin[s].min(e.start_s);
        }
    }
    for o in &mut origin {
        if !o.is_finite() {
            *o = 0.0;
        }
    }
    // Metadata: process rows (one per source present), thread rows (one
    // per device track present), emitted in deterministic order.
    let mut tracks: Vec<(u32, u32)> = events.iter().map(|e| (e.source.pid(), tid(e))).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for src in [
        Source::Planner,
        Source::Dataloader,
        Source::Executor,
        Source::Sim,
    ] {
        if tracks.iter().any(|&(p, _)| p == src.pid()) {
            out.push(json!({
                "name": "process_name", "ph": "M", "pid": src.pid(), "tid": 0,
                "args": {"name": src.label()},
            }));
        }
    }
    for &(pid, t) in &tracks {
        let name = if t == 0 {
            "main".to_string()
        } else if t % 2 == 0 {
            format!("dev{}", t / 2)
        } else {
            format!("dev{} net", t / 2)
        };
        out.push(json!({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": t,
            "args": {"name": name},
        }));
    }
    for e in events {
        let s = e.source.pid() as usize - 1;
        let ts = (e.start_s - origin[s]) * 1e6;
        match e.kind {
            EventKind::Span | EventKind::Instant => {
                out.push(json!({
                    "name": e.name, "cat": e.chrome_cat(), "ph": "X",
                    "ts": ts, "dur": e.dur_s * 1e6,
                    "pid": e.source.pid(), "tid": tid(e),
                    "args": args(e),
                }));
                // Flow arrows: a launch starts a flow at its end, the
                // matching wait finishes it ("bp":"e" attaches the arrow
                // head to the enclosing slice's end). Perfetto then draws
                // launch→wait dependencies across device tracks.
                if let Some(c) = e.comm {
                    let end = ts + e.dur_s * 1e6;
                    match e.name.as_str() {
                        "comm_launch" => out.push(json!({
                            "name": "comm_flow", "cat": "comm", "ph": "s",
                            "id": flow_id(e, c), "ts": end,
                            "pid": e.source.pid(), "tid": tid(e),
                        })),
                        "comm_wait" => out.push(json!({
                            "name": "comm_flow", "cat": "comm", "ph": "f", "bp": "e",
                            "id": flow_id(e, c), "ts": end,
                            "pid": e.source.pid(), "tid": tid(e),
                        })),
                        _ => {}
                    }
                }
            }
            EventKind::Counter | EventKind::Gauge => out.push(json!({
                "name": e.name, "cat": "metric", "ph": "C",
                "ts": ts, "pid": e.source.pid(), "tid": tid(e),
                "args": {"value": e.value.unwrap_or(0.0)},
            })),
        }
    }
    out
}

/// Serialises a multi-source stream to a complete Chrome-trace JSON
/// document (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
pub fn to_chrome_trace(events: &[Event]) -> String {
    serde_json::to_string_pretty(&json!({
        "traceEvents": chrome_trace_events(events),
        "displayTimeUnit": "ms",
    }))
    .expect("trace serializes")
}

/// One JSON object per line, in sequence order — the raw structured log.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("event serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    fn sample() -> Vec<Event> {
        vec![
            Event::span(Source::Planner, "schedule")
                .with_iter(0)
                .with_time(10.0, 0.5),
            Event::span(Source::Executor, "attn")
                .with_device(1)
                .with_phase(Phase::Fwd)
                .with_division(0)
                .with_flops(100)
                .with_time(20.0, 0.1),
            Event::span(Source::Executor, "comm_wait")
                .with_device(1)
                .with_phase(Phase::Fwd)
                .with_bytes(4096)
                .with_time(20.1, 0.05),
            Event::gauge(Source::Executor, "peak_buffer_bytes", 2048.0).with_device(1),
            Event::span(Source::Sim, "attn")
                .with_device(0)
                .with_phase(Phase::Fwd)
                .with_time(0.0, 1e-3),
        ]
    }

    #[test]
    fn chrome_trace_has_process_rows_per_source() {
        let s = to_chrome_trace(&sample());
        let v: Value = serde_json::from_str(&s).unwrap();
        let evs = v["traceEvents"].as_array().unwrap();
        let procs: Vec<&str> = evs
            .iter()
            .filter(|e| e["name"] == "process_name")
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        assert_eq!(procs, vec!["planner", "executor", "sim"]);
        // Comm events land on the odd (net) row.
        let wait = evs.iter().find(|e| e["name"] == "comm_wait").unwrap();
        assert_eq!(wait["tid"], 3);
        assert_eq!(wait["args"]["bytes"], 4096);
        // Per-source normalisation: first executor event starts at ts 0.
        let attn = evs
            .iter()
            .find(|e| e["name"] == "attn" && e["pid"] == Source::Executor.pid())
            .unwrap();
        assert!((attn["ts"].as_f64().unwrap() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn gauges_become_counter_samples() {
        let s = to_chrome_trace(&sample());
        let v: Value = serde_json::from_str(&s).unwrap();
        let evs = v["traceEvents"].as_array().unwrap();
        let g = evs
            .iter()
            .find(|e| e["name"] == "peak_buffer_bytes")
            .unwrap();
        assert_eq!(g["ph"], "C");
        assert_eq!(g["args"]["value"], 2048.0);
    }

    #[test]
    fn comm_spans_emit_bound_flow_arrows() {
        let events = vec![
            Event::span(Source::Executor, "comm_launch")
                .with_device(0)
                .with_phase(Phase::Fwd)
                .with_iter(2)
                .with_comm(7)
                .with_time(0.0, 0.1),
            Event::span(Source::Executor, "comm_wait")
                .with_device(1)
                .with_phase(Phase::Fwd)
                .with_iter(2)
                .with_comm(7)
                .with_time(0.2, 0.3),
        ];
        let v: Value = serde_json::from_str(&to_chrome_trace(&events)).unwrap();
        let evs = v["traceEvents"].as_array().unwrap();
        let start = evs
            .iter()
            .find(|e| e["ph"] == "s" && e["name"] == "comm_flow")
            .expect("flow start");
        let finish = evs
            .iter()
            .find(|e| e["ph"] == "f" && e["name"] == "comm_flow")
            .expect("flow finish");
        // Same id binds the arrow; the head attaches to the wait's end.
        assert_eq!(start["id"], finish["id"]);
        assert_eq!(finish["bp"], "e");
        assert!((start["ts"].as_f64().unwrap() - 0.1e6).abs() < 1e-6);
        assert!((finish["ts"].as_f64().unwrap() - 0.5e6).abs() < 1e-6);
        // Arrow endpoints live on the comm rows of their devices.
        assert_eq!(start["tid"], 1);
        assert_eq!(finish["tid"], 3);
        // Spans without a comm id emit no flow events.
        let plain = to_chrome_trace(&[Event::span(Source::Executor, "comm_wait")
            .with_device(0)
            .with_time(0.0, 1.0)]);
        assert!(!plain.contains("comm_flow"));
    }

    #[test]
    fn jsonl_round_trips_line_by_line() {
        let events = sample();
        let text = to_jsonl(&events);
        let back: Vec<Event> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back, events);
    }
}
