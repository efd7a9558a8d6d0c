//! Execution traces: the adapter into `dcp-obs` and an ASCII Gantt renderer.
//!
//! [`crate::simulate`] records every compute segment, exposed wait and
//! transfer of a simulated phase in [`crate::SimRun::trace`]. This module turns that into:
//!
//! - [`trace_to_obs`]: `dcp-obs` events, which `dcp_obs::to_chrome_trace`
//!   writes as Chrome Trace Event JSON — open it at `chrome://tracing` (or
//!   Perfetto) to inspect a plan's timeline the way the paper inspects
//!   Nsight Systems traces (Fig. 22);
//! - [`ascii_gantt`]: a terminal rendering for quick looks and examples.

use serde::{Deserialize, Serialize};

/// What a trace segment represents.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Forward attention kernel.
    Attn,
    /// Backward attention kernel.
    AttnBwd,
    /// Blockwise reduction kernel.
    Reduce,
    /// On-device copy.
    Copy,
    /// Device blocked in `CommWait` (exposed communication).
    Wait,
    /// An incoming transfer (attributed to the receiver).
    Transfer {
        /// Sending device.
        from: u32,
    },
    /// Extra kernel time caused by an injected straggler fault (the slice
    /// beyond the kernel's nominal duration).
    Straggle,
    /// Idle time before a delayed device's first instruction (injected
    /// [`crate::Fault::DelayedStart`]).
    Delay,
}

impl TraceKind {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::Attn => "attn",
            TraceKind::AttnBwd => "attn_bwd",
            TraceKind::Reduce => "reduce",
            TraceKind::Copy => "copy",
            TraceKind::Wait => "wait",
            TraceKind::Transfer { .. } => "recv",
            TraceKind::Straggle => "straggle",
            TraceKind::Delay => "delay",
        }
    }

    /// One-character symbol for the ASCII Gantt.
    fn glyph(&self) -> char {
        match self {
            TraceKind::Attn => '#',
            TraceKind::AttnBwd => '%',
            TraceKind::Reduce => 'r',
            TraceKind::Copy => 'c',
            TraceKind::Wait => '.',
            TraceKind::Transfer { .. } => '~',
            TraceKind::Straggle => '!',
            TraceKind::Delay => '_',
        }
    }
}

/// One segment of simulated activity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Device the segment belongs to.
    pub device: u32,
    /// Activity kind.
    pub kind: TraceKind,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

/// Adapts simulated [`TraceEvent`]s into the unified observability stream
/// (`dcp-obs` [`dcp_obs::Event`]s, source [`dcp_obs::Source::Sim`]), so the
/// simulated timeline merges with planner/dataloader/executor spans in one
/// Chrome trace. Timestamps are *simulated* seconds; the multi-source
/// exporter keeps each source on its own process row, so the differing
/// clocks never mix on one track. Transfers become `recv` spans with the
/// sender recorded in the label.
///
/// Events are adapted in input order; [`crate::simulate`] emits its
/// trace deterministically, so the adapted stream is too.
pub fn trace_to_obs(
    events: &[TraceEvent],
    phase: dcp_obs::Phase,
    iter: Option<u64>,
) -> Vec<dcp_obs::Event> {
    events
        .iter()
        .map(|e| {
            let mut ev = dcp_obs::Event::span(dcp_obs::Source::Sim, e.kind.label())
                .with_device(e.device)
                .with_phase(phase)
                .with_time(e.start, e.end - e.start);
            if let TraceKind::Transfer { from } = e.kind {
                ev = ev.with_label(format!("from dev{from}"));
            }
            if let Some(i) = iter {
                ev = ev.with_iter(i);
            }
            ev
        })
        .collect()
}

/// Renders a fixed-width ASCII Gantt chart: one row per device (compute
/// track) with `#` attention, `%` backward, `r` reduce, `c` copy, `.`
/// exposed wait; a second `net` row per device with `~` for incoming
/// transfers. Later-starting segments overwrite earlier ones within a cell.
/// A segment takes at least one cell, so a zero-length one at the trace's
/// end lands in the last; `width` 0 renders as 1.
pub fn ascii_gantt(events: &[TraceEvent], width: usize) -> String {
    if events.is_empty() {
        return String::from("(empty trace)\n");
    }
    let width = width.max(1);
    let t_end = events.iter().map(|e| e.end).fold(0.0, f64::max);
    let n = events.iter().map(|e| e.device).max().unwrap_or(0) as usize + 1;
    let scale = width as f64 / t_end.max(1e-12);
    let mut comp = vec![vec![' '; width]; n];
    let mut net = vec![vec![' '; width]; n];
    for e in events {
        let row = match e.kind {
            TraceKind::Transfer { .. } => &mut net[e.device as usize],
            _ => &mut comp[e.device as usize],
        };
        let lo = ((e.start * scale) as usize).min(width - 1);
        let hi = ((e.end * scale) as usize).clamp(lo + 1, width);
        for cell in row.iter_mut().take(hi).skip(lo) {
            *cell = e.kind.glyph();
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "time: 0 .. {:.3} ms   (#=attn %=bwd r=reduce c=copy .=wait ~=recv !=straggle _=delay)\n",
        t_end * 1e3
    ));
    for d in 0..n {
        out.push_str(&format!(
            "dev{d:<3} |{}|\n",
            comp[d].iter().collect::<String>()
        ));
        if net[d].iter().any(|&c| c != ' ') {
            out.push_str(&format!("  net  |{}|\n", net[d].iter().collect::<String>()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                device: 0,
                kind: TraceKind::Attn,
                start: 0.0,
                end: 0.5e-3,
            },
            TraceEvent {
                device: 0,
                kind: TraceKind::Wait,
                start: 0.5e-3,
                end: 0.7e-3,
            },
            TraceEvent {
                device: 1,
                kind: TraceKind::Transfer { from: 0 },
                start: 0.1e-3,
                end: 0.4e-3,
            },
        ]
    }

    #[test]
    fn trace_adapts_into_obs_stream() {
        let obs = trace_to_obs(&sample(), dcp_obs::Phase::Fwd, Some(3));
        assert_eq!(obs.len(), 3);
        for e in &obs {
            assert_eq!(e.source, dcp_obs::Source::Sim);
            assert_eq!(e.phase, Some(dcp_obs::Phase::Fwd));
            assert_eq!(e.iter, Some(3));
        }
        assert_eq!(obs[0].name, "attn");
        assert!((obs[0].dur_s - 0.5e-3).abs() < 1e-12);
        let recv = &obs[2];
        assert_eq!(recv.name, "recv");
        assert_eq!(recv.label.as_deref(), Some("from dev0"));
        assert_eq!(recv.device, Some(1));
        // The unified exporter writes the adapted stream as complete "X"
        // events in microseconds, transfers on the device's odd track.
        let chrome = dcp_obs::to_chrome_trace(&obs);
        let v: serde_json::Value = serde_json::from_str(&chrome).unwrap();
        let evs: Vec<_> = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"] == "X")
            .collect();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0]["name"], "attn");
        assert!((evs[0]["dur"].as_f64().unwrap() - 500.0).abs() < 1e-9);
        let recv = evs.iter().find(|e| e["name"] == "recv").unwrap();
        assert_eq!(recv["tid"], 3, "device 1's comm track, 2 * 1 + 1");
    }

    #[test]
    fn gantt_renders_rows_and_glyphs() {
        let g = ascii_gantt(&sample(), 40);
        assert!(g.contains("dev0"));
        assert!(g.contains('#'));
        assert!(g.contains('.'));
        assert!(g.contains('~'));
        // Two devices: dev1 only has a net row.
        assert!(g.contains("dev1"));
        // A zero-length last segment takes the last cell; width 0 renders
        // one cell, the latest segment's.
        let ev = |kind, start, end| TraceEvent {
            device: 0,
            kind,
            start,
            end,
        };
        let (attn, copy) = (
            ev(TraceKind::Attn, 0.0, 1e-3),
            ev(TraceKind::Copy, 1e-3, 1e-3),
        );
        assert!(ascii_gantt(&[attn, copy], 10).contains("dev0   |#########c|"));
        assert!(ascii_gantt(&[attn, copy], 0).contains("dev0   |c|"));
    }

    #[test]
    fn gantt_empty() {
        assert_eq!(ascii_gantt(&[], 10), "(empty trace)\n");
    }

    #[test]
    fn end_to_end_trace_from_simulation() {
        use dcp_blocks::{BatchLayout, BlockConfig};
        use dcp_mask::MaskSpec;
        use dcp_sched::{build_plan, Placement, ScheduleConfig};
        use dcp_types::{AttnSpec, ClusterSpec};

        let layout = BatchLayout::build(
            AttnSpec::paper_micro(),
            BlockConfig {
                block_size: 512,
                head_blocks: 1,
            },
            &[(8192, MaskSpec::Causal)],
        )
        .unwrap();
        let n = 4u32;
        let token_to_dev: Vec<u32> = (0..layout.token_blocks.len() as u32)
            .map(|i| i % n)
            .collect();
        let comp_to_dev: Vec<u32> = layout
            .comp_blocks
            .iter()
            .map(|c| token_to_dev[c.q_block.0 as usize])
            .collect();
        let placement = Placement {
            num_devices: n,
            token_to_dev,
            comp_to_dev,
        };
        let plan = build_plan(&layout, &placement, &ScheduleConfig::default()).unwrap();
        let cluster = ClusterSpec::single_node(4);
        let crate::SimRun { sim, trace, .. } =
            crate::simulate(&cluster, &plan.fwd, &crate::FaultSpec::none()).unwrap();
        assert!(!trace.is_empty());
        // Every event lies within the makespan and trace compute time sums
        // to the timeline's accounting.
        let mut per_dev_attn = [0.0f64; 4];
        for e in &trace {
            assert!(e.end <= sim.makespan + 1e-9);
            assert!(e.start <= e.end);
            if matches!(e.kind, TraceKind::Attn) {
                per_dev_attn[e.device as usize] += e.end - e.start;
            }
        }
        for (d, attn_s) in per_dev_attn.iter().enumerate() {
            assert!((attn_s - sim.devices[d].attn).abs() < 1e-12);
        }
    }
}
