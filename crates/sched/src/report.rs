//! Plan inspection: per-device statistics.
//!
//! [`PlanReport`] summarizes a [`crate::PhasePlan`] without executing it —
//! what each device computes and buffers — for the memory-balance
//! experiment and the benchmark's balance rows. Per-(device, division)
//! time is `dcp_obs::critical_path(..).per_division`.

use serde::{Deserialize, Serialize};

use crate::plan::{Instr, PhasePlan};

/// Per-device summary of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Attention FLOPs executed here.
    pub attn_flops: u64,
    /// Peak buffer bytes (owned blocks + fetched slots).
    pub peak_buffer_bytes: u64,
}

/// A full phase summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// One row per device rank.
    pub devices: Vec<DeviceReport>,
}

impl PlanReport {
    /// Builds the report from a phase.
    pub fn from_phase(phase: &PhasePlan) -> Self {
        let devices = phase
            .devices
            .iter()
            .map(|stream| DeviceReport {
                attn_flops: stream
                    .instrs
                    .iter()
                    .map(|ins| match ins {
                        Instr::Attn { flops, .. } | Instr::AttnBwd { flops, .. } => *flops,
                        _ => 0,
                    })
                    .sum(),
                peak_buffer_bytes: stream.buffer.peak_bytes(),
            })
            .collect();
        PlanReport { devices }
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
        let (layout, _, plan) = sample_phase();
        let report = PlanReport::from_phase(&plan.fwd);
        assert_eq!(report.devices.len(), plan.fwd.devices.len());
        let flops: u64 = report.devices.iter().map(|d| d.attn_flops).sum();
        assert_eq!(flops, layout.total_flops());
        for (d, stream) in report.devices.iter().zip(&plan.fwd.devices) {
            assert_eq!(d.peak_buffer_bytes, stream.buffer.peak_bytes());
        }
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let (_, _, plan) = sample_phase();
        let report = PlanReport::from_phase(&plan.fwd);
        assert!(report.imbalance(|r| r.attn_flops) >= 1.0);
        // All-zero metric is defined as balanced.
        assert_eq!(report.imbalance(|_| 0), 1.0);
        let uneven = PlanReport {
            devices: [1, 1, 4]
                .map(|f| DeviceReport {
                    attn_flops: f,
                    peak_buffer_bytes: 0,
                })
                .to_vec(),
        };
        assert_eq!(uneven.imbalance(|r| r.attn_flops), 2.0);
    }
}
