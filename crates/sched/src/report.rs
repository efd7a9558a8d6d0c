//! Plan inspection: per-device statistics and the communication matrix.
//!
//! [`PlanReport`] summarizes a [`crate::PhasePlan`] without executing it —
//! what each device computes, sends, receives and buffers — for harness
//! output, debugging and the memory-balance experiment.

use serde::{Deserialize, Serialize};

use crate::plan::{Instr, PhasePlan};

/// Per-device summary of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Bytes this device sends.
    pub sent_bytes: u64,
    /// Bytes this device receives.
    pub recv_bytes: u64,
    /// Attention FLOPs executed here.
    pub attn_flops: u64,
    /// Fused attention kernel invocations.
    pub attn_calls: u32,
    /// Bytes moved by reductions.
    pub reduce_bytes: u64,
    /// Bytes moved by copies.
    pub copy_bytes: u64,
    /// `CommWait` instructions (synchronization points).
    pub waits: u32,
    /// Peak buffer bytes (owned blocks + fetched slots).
    pub peak_buffer_bytes: u64,
}

/// Per-division summary on one device: how one slice of the
/// compute/communication pipeline is loaded. A division is closed by its
/// fused `Attn`/`AttnBwd` call; `CommLaunch`/`CommWait` issued before that
/// call (prefetching the *next* division's data) are attributed to the
/// division they run under, and trailing `Reduce`/`Copy` work lands on the
/// last division.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DivisionReport {
    /// Division index within the device's stream.
    pub division: u32,
    /// FLOPs of this division's fused attention call.
    pub attn_flops: u64,
    /// Computation blocks in the fused call.
    pub attn_items: u32,
    /// Bytes launched (sent) while this division was current.
    pub launch_bytes: u64,
    /// Bytes moved by reductions in this division.
    pub reduce_bytes: u64,
    /// Bytes moved by copies in this division.
    pub copy_bytes: u64,
    /// `CommWait` synchronization points in this division.
    pub waits: u32,
}

/// A full phase summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// One row per device rank.
    pub devices: Vec<DeviceReport>,
    /// `comm_matrix[from][to]`: bytes moved between each device pair.
    pub comm_matrix: Vec<Vec<u64>>,
    /// `divisions[device]`: the per-division breakdown of each device's
    /// stream, so imbalance can be inspected per division (the granularity
    /// the paper's §4.3 overlap objective operates at), not just per device.
    pub divisions: Vec<Vec<DivisionReport>>,
}

impl PlanReport {
    /// Builds the report from a phase.
    pub fn from_phase(phase: &PhasePlan) -> Self {
        let n = phase.devices.len();
        let mut devices = vec![DeviceReport::default(); n];
        let mut comm_matrix = vec![vec![0u64; n]; n];
        let mut divisions: Vec<Vec<DivisionReport>> = vec![Vec::new(); n];
        for op in &phase.comms {
            for tr in &op.transfers {
                if (tr.from as usize) < n && (tr.to as usize) < n {
                    comm_matrix[tr.from as usize][tr.to as usize] += tr.bytes;
                    devices[tr.from as usize].sent_bytes += tr.bytes;
                    devices[tr.to as usize].recv_bytes += tr.bytes;
                }
            }
        }
        for (d, stream) in phase.devices.iter().enumerate() {
            devices[d].peak_buffer_bytes = stream.buffer.peak_bytes();
            let mut cur = DivisionReport::default();
            let mut closed = false;
            for ins in &stream.instrs {
                match ins {
                    Instr::Attn { items, flops } | Instr::AttnBwd { items, flops } => {
                        devices[d].attn_flops += flops;
                        devices[d].attn_calls += 1;
                        // The fused attention call closes the division.
                        cur.attn_flops = *flops;
                        cur.attn_items = items.len() as u32;
                        divisions[d].push(cur);
                        cur = DivisionReport {
                            division: divisions[d].len() as u32,
                            ..Default::default()
                        };
                        closed = true;
                    }
                    Instr::Reduce { bytes, .. } => {
                        devices[d].reduce_bytes += bytes;
                        cur.reduce_bytes += bytes;
                    }
                    Instr::Copy { bytes } => {
                        devices[d].copy_bytes += bytes;
                        cur.copy_bytes += bytes;
                    }
                    Instr::CommWait(cid) => {
                        devices[d].waits += 1;
                        cur.waits += 1;
                        let _ = cid;
                    }
                    Instr::CommLaunch(cid) => {
                        cur.launch_bytes += phase.comms[cid.0 as usize].bytes();
                    }
                }
            }
            // Trailing work after the last fused call (final reductions,
            // copies, waits) belongs to the last division.
            if (cur.launch_bytes | cur.reduce_bytes | cur.copy_bytes) != 0 || cur.waits != 0 {
                match (closed, divisions[d].last_mut()) {
                    (true, Some(last)) => {
                        last.launch_bytes += cur.launch_bytes;
                        last.reduce_bytes += cur.reduce_bytes;
                        last.copy_bytes += cur.copy_bytes;
                        last.waits += cur.waits;
                    }
                    _ => divisions[d].push(cur),
                }
            }
        }
        PlanReport {
            devices,
            comm_matrix,
            divisions,
        }
    }

    /// Max-over-devices / mean ratio of a per-device metric (1.0 = perfectly
    /// balanced). Returns 1.0 when the metric is all-zero.
    pub fn imbalance(&self, metric: impl Fn(&DeviceReport) -> u64) -> f64 {
        let vals: Vec<u64> = self.devices.iter().map(metric).collect();
        let max = *vals.iter().max().unwrap_or(&0) as f64;
        let mean = vals.iter().sum::<u64>() as f64 / vals.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Renders a compact text summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("dev    attn_TFLOP  calls  sent_MiB  recv_MiB  buffer_MiB  waits\n");
        for (d, r) in self.devices.iter().enumerate() {
            out.push_str(&format!(
                "{d:<6} {:>10.3} {:>6} {:>9.1} {:>9.1} {:>11.1} {:>6}\n",
                r.attn_flops as f64 / 1e12,
                r.attn_calls,
                r.sent_bytes as f64 / (1 << 20) as f64,
                r.recv_bytes as f64 / (1 << 20) as f64,
                r.peak_buffer_bytes as f64 / (1 << 20) as f64,
                r.waits,
            ));
        }
        out.push_str(&format!(
            "imbalance: flops {:.2}, memory {:.2}, comm {:.2}\n",
            self.imbalance(|r| r.attn_flops),
            self.imbalance(|r| r.peak_buffer_bytes),
            self.imbalance(|r| r.sent_bytes + r.recv_bytes),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_blocks::{BatchLayout, BlockConfig};
    use dcp_mask::MaskSpec;
    use dcp_types::AttnSpec;

    fn sample_phase() -> (BatchLayout, crate::Placement, crate::ExecutionPlan) {
        let layout = BatchLayout::build(
            AttnSpec::paper_micro(),
            BlockConfig {
                block_size: 512,
                head_blocks: 1,
            },
            &[(4096, MaskSpec::Causal)],
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
        let placement = crate::Placement {
            num_devices: n,
            token_to_dev,
            comp_to_dev,
        };
        let plan =
            crate::build_plan(&layout, &placement, &crate::ScheduleConfig::default()).unwrap();
        (layout, placement, plan)
    }

    #[test]
    fn report_totals_match_phase_accounting() {
        let (layout, placement, plan) = sample_phase();
        let report = PlanReport::from_phase(&plan.fwd);
        let sent: u64 = report.devices.iter().map(|d| d.sent_bytes).sum();
        let recv: u64 = report.devices.iter().map(|d| d.recv_bytes).sum();
        assert_eq!(sent, plan.fwd.total_comm_bytes());
        assert_eq!(recv, plan.fwd.total_comm_bytes());
        let flops: u64 = report.devices.iter().map(|d| d.attn_flops).sum();
        assert_eq!(flops, layout.total_flops());
        let _ = placement;
        // Matrix row/col sums equal device send/recv.
        for d in 0..4usize {
            let row: u64 = report.comm_matrix[d].iter().sum();
            assert_eq!(row, report.devices[d].sent_bytes);
            let col: u64 = report.comm_matrix.iter().map(|r| r[d]).sum();
            assert_eq!(col, report.devices[d].recv_bytes);
        }
        // No self-communication.
        for d in 0..4usize {
            assert_eq!(report.comm_matrix[d][d], 0);
        }
    }

    #[test]
    fn divisions_reconcile_with_device_totals() {
        let (_, _, plan) = sample_phase();
        let report = PlanReport::from_phase(&plan.fwd);
        assert_eq!(report.divisions.len(), report.devices.len());
        for (d, dev) in report.devices.iter().enumerate() {
            let divs = &report.divisions[d];
            assert_eq!(divs.len() as u32, dev.attn_calls);
            // Division indices are dense and in order.
            for (i, r) in divs.iter().enumerate() {
                assert_eq!(r.division, i as u32);
            }
            // Per-division sums reconcile with the device aggregates.
            assert_eq!(
                divs.iter().map(|r| r.attn_flops).sum::<u64>(),
                dev.attn_flops
            );
            assert_eq!(
                divs.iter().map(|r| r.reduce_bytes).sum::<u64>(),
                dev.reduce_bytes
            );
            assert_eq!(
                divs.iter().map(|r| r.copy_bytes).sum::<u64>(),
                dev.copy_bytes
            );
            assert_eq!(divs.iter().map(|r| r.waits).sum::<u32>(), dev.waits);
        }
        // Launch bytes across all divisions cover every comm op once.
        let launched: u64 = report
            .divisions
            .iter()
            .flatten()
            .map(|r| r.launch_bytes)
            .sum();
        assert_eq!(launched, plan.fwd.total_comm_bytes());
    }

    #[test]
    fn render_format_is_unchanged_by_divisions() {
        let (_, _, plan) = sample_phase();
        let report = PlanReport::from_phase(&plan.fwd);
        let text = report.render();
        // Header + one row per device + the imbalance footer, exactly.
        assert_eq!(text.lines().count(), 2 + report.devices.len());
        assert!(text.starts_with("dev    attn_TFLOP"));
    }

    #[test]
    fn render_and_imbalance() {
        let (_, _, plan) = sample_phase();
        let report = PlanReport::from_phase(&plan.fwd);
        let text = report.render();
        assert!(text.contains("imbalance"));
        assert!(report.imbalance(|r| r.attn_flops) >= 1.0);
        // All-zero metric is defined as balanced.
        assert_eq!(report.imbalance(|_| 0), 1.0);
    }
}
