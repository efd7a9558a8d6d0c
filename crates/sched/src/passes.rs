//! Dead-communication elimination: the one rewrite over rendered
//! instruction streams.
//!
//! [`PassManager`] removes transfers whose destination never waits for them
//! or never reads them, then drops the launches and waits that no longer
//! move anything for their device. The scheduler emits no such transfer, so
//! the rewrite saves nothing on any plan this workspace emits: it returns
//! every fresh plan exactly as it found it, and only hand-grafted dead
//! transfers (the tests') give it work. It stays because `benchmark/` names
//! [`PassManager`] and `PlannerConfig::passes` (ROADMAP item 1(c)).
//!
//! Comm ops are never renumbered: an emptied op stays in the table, so every
//! comm id of the streams stays valid. The rewrite preserves the verifier
//! contract (`crate::verify`) and the executor's merged outputs bitwise: it
//! only deletes data no instruction reads. An instruction naming an op
//! outside the table is left for the verifier to report.

use dcp_blocks::BatchLayout;
use serde::{Deserialize, Serialize};

use crate::placement::Placement;
use crate::plan::{ExecutionPlan, Instr, PhasePlan};
use crate::stream::{arrivals, incoming, is_input, reads, transfer_offsets};
use crate::table::PayloadTable;

/// Whether the rewrite runs. Off by default; [`PassConfig::optimize`] turns
/// it on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PassConfig {
    /// `false` leaves every stream untouched and reports nothing.
    pub enabled: bool,
}

impl PassConfig {
    /// The rewrite, enabled.
    pub fn optimize() -> Self {
        PassConfig { enabled: true }
    }
}

/// What the rewrite did to one phase. All counters are zero when it found
/// nothing to change.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PassOutcome {
    /// Rewrite name (`dead_comm`).
    pub pass: String,
    /// Phase label (`fwd`, `bwd`, or a caller-supplied label).
    pub phase: String,
    /// Total phase comm bytes before the rewrite.
    pub comm_bytes_before: u64,
    /// Total phase comm bytes after the rewrite.
    pub comm_bytes_after: u64,
    /// Transfers deleted.
    pub transfers_removed: u64,
    /// Launches and waits deleted.
    pub instrs_removed: u64,
}

impl PassOutcome {
    /// Comm bytes the rewrite removed from the phase.
    pub fn comm_bytes_saved(&self) -> u64 {
        self.comm_bytes_before.saturating_sub(self.comm_bytes_after)
    }

    /// Whether the rewrite changed anything.
    pub fn changed(&self) -> bool {
        self.transfers_removed + self.instrs_removed > 0
    }
}

/// Deletes the dead transfers of `phase` (see module docs).
fn dead_comm(layout: &BatchLayout, phase: &mut PhasePlan, label: &str) -> PassOutcome {
    let comm_bytes_before = phase.total_comm_bytes();
    // One flag per transfer, ops laid end to end: set when the destination
    // waits on the op and reads the payload. A transfer never waited for can
    // never arrive.
    let base = transfer_offsets(&phase.comms);
    let mut live = vec![false; base[phase.comms.len()]];
    let mut read = PayloadTable::new(layout.token_blocks.len());
    for stream in &phase.devices {
        let dev = stream.device;
        read.begin(arrivals(&phase.comms, dev, &stream.instrs).map(|(_, tr)| tr.payload));
        for ins in &stream.instrs {
            reads(layout, ins, |p| read.put(p, Some(0)));
        }
        for ins in &stream.instrs {
            let Instr::CommWait(cid) = ins else { continue };
            let Some(op) = phase.comms.get(cid.0 as usize) else {
                continue;
            };
            for (k, tr) in op.transfers.iter().enumerate() {
                if tr.to == dev && read.get(tr.payload).is_some() {
                    live[base[cid.0 as usize] + k] = true;
                }
            }
        }
    }
    let mut transfers_removed = 0u64;
    for (cid, op) in phase.comms.iter_mut().enumerate() {
        let n0 = op.transfers.len();
        let mut flags = live[base[cid]..].iter();
        op.transfers
            .retain(|_| *flags.next().expect("one flag per transfer"));
        transfers_removed += (n0 - op.transfers.len()) as u64;
    }
    // Drop launches/waits that no longer move anything for their device.
    let mut instrs_removed = 0u64;
    if transfers_removed > 0 {
        for stream in &mut phase.devices {
            let dev = stream.device;
            let n0 = stream.instrs.len();
            stream.instrs.retain(|ins| {
                let (Instr::CommLaunch(cid) | Instr::CommWait(cid)) = ins else {
                    return true;
                };
                let Some(op) = phase.comms.get(cid.0 as usize) else {
                    return true;
                };
                match ins {
                    // Keep the launch while the op still moves anything into
                    // or out of its device, or carries any partial at all:
                    // the frozen rewrite in `tests/schedule_oracle.rs` keeps
                    // it then, and outcomes must match it.
                    Instr::CommLaunch(_) => op
                        .transfers
                        .iter()
                        .any(|t| t.to == dev || t.from == dev || !is_input(t.payload.kind())),
                    _ => incoming(op, dev).next().is_some(),
                }
            });
            instrs_removed += (n0 - stream.instrs.len()) as u64;
        }
    }
    PassOutcome {
        pass: "dead_comm".to_string(),
        phase: label.to_string(),
        comm_bytes_before,
        comm_bytes_after: phase.total_comm_bytes(),
        transfers_removed,
        instrs_removed,
    }
}

/// Runs the rewrite over phases and plans when its configuration enables it.
pub struct PassManager {
    cfg: PassConfig,
}

impl PassManager {
    /// A manager for the given configuration.
    pub fn new(cfg: PassConfig) -> Self {
        PassManager { cfg }
    }

    /// Rewrites one phase; `label` tags the outcome. `None` when the
    /// configuration is disabled.
    fn run_phase(
        &self,
        layout: &BatchLayout,
        phase: &mut PhasePlan,
        label: &str,
    ) -> Option<PassOutcome> {
        self.cfg.enabled.then(|| dead_comm(layout, phase, label))
    }

    /// Rewrites both phases of a plan: one outcome per phase, none when the
    /// configuration is disabled. The per-stream buffer statistics stay as
    /// the scheduler computed them (a fresh plan is not changed, so they
    /// stay exact); `_placement` is unused and kept for `benchmark/`, which
    /// passes it.
    pub fn run_plan(
        &self,
        layout: &BatchLayout,
        _placement: &Placement,
        plan: &mut ExecutionPlan,
    ) -> Vec<PassOutcome> {
        [(&mut plan.fwd, "fwd"), (&mut plan.bwd, "bwd")]
            .into_iter()
            .filter_map(|(phase, label)| self.run_phase(layout, phase, label))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CommId, CommOp, Payload, Transfer};
    use crate::schedule::{build_plan, ScheduleConfig};
    use crate::verify::{verify_plan, verify_structure};
    use dcp_blocks::{BlockConfig, TokenBlockId};
    use dcp_mask::MaskSpec;
    use dcp_types::AttnSpec;

    /// A 4 096-token causal document in 512-token blocks, token blocks dealt
    /// round-robin to four devices, comp blocks with their Q owner.
    fn small_case() -> (BatchLayout, Placement, ExecutionPlan) {
        let l = BatchLayout::build(
            AttnSpec::paper_micro(),
            BlockConfig {
                block_size: 512,
                head_blocks: 1,
            },
            &[(4096, MaskSpec::Causal)],
        )
        .unwrap();
        let token_to_dev: Vec<u32> = (0..l.token_blocks.len() as u32).map(|i| i % 4).collect();
        let comp_to_dev: Vec<u32> = l
            .comp_blocks
            .iter()
            .map(|c| token_to_dev[c.q_block.0 as usize])
            .collect();
        let p = Placement {
            num_devices: 4,
            token_to_dev,
            comp_to_dev,
        };
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        (l, p, plan)
    }

    /// Grafts a 999-byte fetch into the forward phase on a brand-new op that
    /// only a launch references: no wait ever receives it. Returns the op
    /// and the receiving device.
    fn graft_unwaited_fetch(p: &Placement, plan: &mut ExecutionPlan) -> (CommId, u32) {
        let from = p.token_to_dev[0];
        let to = (from + 1) % p.num_devices;
        let cid = CommId(plan.fwd.comms.len() as u32);
        plan.fwd.comms.push(CommOp {
            transfers: vec![Transfer {
                from,
                to,
                payload: Payload::Q(TokenBlockId(0)),
                bytes: 999,
            }],
        });
        plan.fwd.devices[to as usize]
            .instrs
            .insert(0, Instr::CommLaunch(cid));
        (cid, to)
    }

    #[test]
    fn pipeline_preserves_verifier_validity() {
        let (l, p, mut plan) = small_case();
        let pm = PassManager::new(PassConfig::optimize());
        let outcomes = pm.run_plan(&l, &p, &mut plan);
        assert_eq!(outcomes.len(), 2);
        verify_plan(&l, &p, &plan).unwrap();
        verify_structure(&plan.fwd).unwrap();
        verify_structure(&plan.bwd).unwrap();
    }

    #[test]
    fn clean_streams_have_no_dead_comm() {
        // The scheduler deduplicates fetches and mirrors reductions exactly,
        // so dead-comm elimination must find nothing on a fresh plan.
        let (l, p, mut plan) = small_case();
        let orig = plan.clone();
        let pm = PassManager::new(PassConfig::optimize());
        let outs = pm.run_plan(&l, &p, &mut plan);
        assert_eq!(plan, orig);
        assert!(outs.iter().all(|o| !o.changed()), "{outs:?}");
    }

    #[test]
    fn dead_comm_removes_unwaited_transfer() {
        let (l, p, mut plan) = small_case();
        let (cid, _) = graft_unwaited_fetch(&p, &mut plan);
        let before = plan.fwd.total_comm_bytes();
        let pm = PassManager::new(PassConfig::optimize());
        let dead = pm.run_phase(&l, &mut plan.fwd, "fwd").unwrap();
        assert_eq!(plan.fwd.total_comm_bytes(), before - 999);
        assert_eq!(dead.comm_bytes_saved(), 999);
        assert_eq!(dead.transfers_removed, 1);
        assert_eq!(dead.instrs_removed, 1, "dangling launch must be dropped");
        // Ops are never renumbered: the table keeps the emptied slot.
        assert!(plan.fwd.comms[cid.0 as usize].transfers.is_empty());
    }

    #[test]
    fn disabled_pipeline_is_identity() {
        let (l, p, mut plan) = small_case();
        graft_unwaited_fetch(&p, &mut plan);
        let orig = plan.clone();
        let pm = PassManager::new(PassConfig::default());
        let outs = pm.run_plan(&l, &p, &mut plan);
        assert!(outs.is_empty());
        assert_eq!(plan, orig);
    }

    #[test]
    fn outcome_serializes() {
        let o = PassOutcome {
            pass: "dead_comm".into(),
            phase: "fwd".into(),
            comm_bytes_before: 10,
            comm_bytes_after: 4,
            transfers_removed: 2,
            ..PassOutcome::default()
        };
        let s = serde_json::to_string(&o).unwrap();
        let back: PassOutcome = serde_json::from_str(&s).unwrap();
        assert_eq!(o, back);
        assert_eq!(back.comm_bytes_saved(), 6);
        assert!(back.changed());
    }
}
