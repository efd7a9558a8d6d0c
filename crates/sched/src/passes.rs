//! Plan-IR optimizer: a compiler-style pass pipeline over rendered
//! instruction streams.
//!
//! Each [`Pass`] rewrites one [`PhasePlan`] in place and reports what it
//! changed as a serializable [`PassOutcome`]. The [`PassManager`] runs the
//! configured passes in a fixed order:
//!
//! 1. **dead-comm elimination** ([`DeadCommElim`]): removes transfers whose
//!    destination never waits for them or never reads them (e.g. the
//!    prefetch a recovery patch truncates past), then drops launches and
//!    waits that no longer move anything for their device. Comm ops are
//!    never renumbered — emptied ops stay in the table so external comm-id
//!    references (salvage contexts, spliced recovery streams) stay valid.
//! 2. **copy/reduction coalescing** ([`CoalesceCopyReduce`]): merges
//!    adjacent `Copy` instructions and folds `Reduce` instructions
//!    separated only by comm instructions into one fused reduction (item
//!    order preserved, so merged outputs stay bitwise identical).
//! 3. **launch fusion** ([`FuseCommLaunch`]): fuses small input-fetch ops
//!    with the same source route into the preceding fetch of the same
//!    device, trading pipelining of tiny messages for fewer per-op
//!    overheads.
//! 4. **wait sinking** ([`SinkCommWait`]): moves every `CommWait` to the
//!    latest position before its first reader, widening the window in which
//!    communication overlaps compute.
//!
//! All four passes preserve the verifier contract (`crate::verify`) and the
//! executor's merged outputs bitwise: they only delete provably-unread
//! data, reorder operations whose relative order the executor's semantics
//! do not observe, or re-batch transfers whose arrival order is already
//! unordered within a wait.

use std::collections::HashSet;

use dcp_blocks::BatchLayout;
use serde::{Deserialize, Serialize};

use crate::buffer::{owned_bytes, Accounting};
use crate::placement::Placement;
use crate::plan::{ExecutionPlan, Instr, PhasePlan};
use crate::stream::{arrivals, incoming, is_input, reads, transfer_offsets};
use crate::table::PayloadTable;

/// Configuration of the pass pipeline.
///
/// The planner's default keeps the pipeline **disabled**: downstream
/// consumers that splice streams (the recovery patcher) assume the
/// scheduler's canonical emission shape. Callers that only execute or
/// simulate plans opt in with [`PassConfig::optimize`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassConfig {
    /// Master switch; `false` skips the pipeline entirely.
    pub enabled: bool,
    /// Run dead-communication elimination.
    pub dead_comm: bool,
    /// Run copy/reduction coalescing.
    pub coalesce: bool,
    /// Run small-message launch fusion.
    pub fuse: bool,
    /// Run wait sinking.
    pub sink: bool,
    /// Launch fusion cap: two fetch ops fuse only while their combined
    /// bytes stay at or under this threshold — the bound is inclusive
    /// (fusing large fetches would serialize the division pipeline they
    /// were split for).
    pub fuse_threshold_bytes: u64,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig {
            enabled: false,
            dead_comm: true,
            coalesce: true,
            fuse: true,
            sink: true,
            fuse_threshold_bytes: 256 * 1024,
        }
    }
}

impl PassConfig {
    /// The full pipeline, enabled.
    pub fn optimize() -> Self {
        PassConfig {
            enabled: true,
            ..PassConfig::default()
        }
    }
}

/// What one pass did to one phase. All counters are zero when the pass
/// found nothing to change.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PassOutcome {
    /// Pass name (`dead_comm`, `coalesce`, `fuse_launch`, `sink_wait`).
    pub pass: String,
    /// Phase label (`fwd`, `bwd`, or a caller-supplied label).
    pub phase: String,
    /// Total phase comm bytes before the pass.
    pub comm_bytes_before: u64,
    /// Total phase comm bytes after the pass.
    pub comm_bytes_after: u64,
    /// Transfers deleted.
    pub transfers_removed: u64,
    /// Instructions deleted (launches/waits dropped, instrs merged away).
    pub instrs_removed: u64,
    /// Comm ops folded into an earlier op.
    pub ops_fused: u64,
    /// Reduce instructions merged into a later reduce.
    pub reduces_coalesced: u64,
    /// Copy instructions merged into a neighbor.
    pub copies_coalesced: u64,
    /// CommWait instructions whose position in their stream changed.
    pub waits_sunk: u64,
}

impl PassOutcome {
    /// Comm bytes this pass removed from the phase.
    pub fn comm_bytes_saved(&self) -> u64 {
        self.comm_bytes_before.saturating_sub(self.comm_bytes_after)
    }

    /// Whether the pass changed anything.
    pub fn changed(&self) -> bool {
        self.transfers_removed
            + self.instrs_removed
            + self.ops_fused
            + self.reduces_coalesced
            + self.copies_coalesced
            + self.waits_sunk
            > 0
    }
}

/// Context shared by every pass invocation on one phase.
pub struct PassCx<'a> {
    /// Block decomposition the streams reference.
    pub layout: &'a BatchLayout,
    /// Comm ids the passes must leave untouched (no deletion, fusion or
    /// reordering): a recovery patch's salvage ops, whose waits carry
    /// install-accumulator side effects the passes cannot see.
    pub protected: &'a HashSet<u32>,
    /// Byte cap for launch fusion.
    pub fuse_threshold_bytes: u64,
}

/// One rewrite over a phase's instruction streams.
pub trait Pass {
    /// Stable pass name used in reports and observability spans.
    fn name(&self) -> &'static str;
    /// Rewrites `phase` in place, returning what changed.
    fn run(&self, phase: &mut PhasePlan, cx: &PassCx<'_>) -> PassOutcome;
}

fn outcome(pass: &dyn Pass, phase_bytes_before: u64, phase: &PhasePlan) -> PassOutcome {
    PassOutcome {
        pass: pass.name().to_string(),
        comm_bytes_before: phase_bytes_before,
        comm_bytes_after: phase.total_comm_bytes(),
        ..PassOutcome::default()
    }
}

/// Dead-communication elimination (see module docs).
pub struct DeadCommElim;

impl Pass for DeadCommElim {
    fn name(&self) -> &'static str {
        "dead_comm"
    }

    fn run(&self, phase: &mut PhasePlan, cx: &PassCx<'_>) -> PassOutcome {
        let before = phase.total_comm_bytes();
        // One flag per transfer, ops laid end to end: set when the
        // destination waits on the op and reads the payload. A transfer
        // never waited for can never arrive.
        let base = transfer_offsets(&phase.comms);
        let mut live = vec![false; base[phase.comms.len()]];
        let mut read = PayloadTable::new(cx.layout.token_blocks.len());
        for stream in &phase.devices {
            let dev = stream.device;
            read.begin(arrivals(&phase.comms, dev, &stream.instrs).map(|(_, tr)| tr.payload));
            for ins in &stream.instrs {
                reads(cx.layout, ins, |p| read.put(p, Some(0)));
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
            if cx.protected.contains(&(cid as u32)) {
                continue;
            }
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
                stream.instrs.retain(|ins| match ins {
                    Instr::CommLaunch(cid) => {
                        // Keep the launch while the op still carries any
                        // partial: partials are producer-launched, and in a
                        // recovery patch the launcher can be a salvage
                        // stand-in whose transfers are still labelled with
                        // the original (failed) producer — `from`/`to`
                        // alone cannot prove the launch dead.
                        cx.protected.contains(&cid.0)
                            || phase.comms[cid.0 as usize].transfers.iter().any(|t| {
                                t.to == dev || t.from == dev || !is_input(t.payload.kind())
                            })
                    }
                    Instr::CommWait(cid) => {
                        cx.protected.contains(&cid.0)
                            || incoming(&phase.comms[cid.0 as usize], dev).next().is_some()
                    }
                    _ => true,
                });
                instrs_removed += (n0 - stream.instrs.len()) as u64;
            }
        }
        PassOutcome {
            transfers_removed,
            instrs_removed,
            ..outcome(self, before, phase)
        }
    }
}

/// Copy/reduction coalescing (see module docs).
pub struct CoalesceCopyReduce;

impl Pass for CoalesceCopyReduce {
    fn name(&self) -> &'static str {
        "coalesce"
    }

    fn run(&self, phase: &mut PhasePlan, _cx: &PassCx<'_>) -> PassOutcome {
        let before = phase.total_comm_bytes();
        let mut reduces_coalesced = 0u64;
        let mut copies_coalesced = 0u64;
        let mut instrs_removed = 0u64;
        for stream in &mut phase.devices {
            // Reduce carrying: a reduce slides past comm instructions and
            // copies (none of which read finalized outputs or accumulator
            // state) and merges into the next reduce it meets. Item order is
            // preserved — earlier items first — so merged reductions execute
            // the same per-target source order as before.
            let mut out: Vec<Instr> = Vec::with_capacity(stream.instrs.len());
            let mut carry: Option<(Vec<crate::plan::ReduceItem>, u64)> = None;
            for ins in stream.instrs.drain(..) {
                match ins {
                    Instr::Reduce { items, bytes } => {
                        carry = Some(match carry.take() {
                            None => (items, bytes),
                            Some((mut acc, b)) => {
                                reduces_coalesced += 1;
                                instrs_removed += 1;
                                acc.extend(items);
                                (acc, b + bytes)
                            }
                        });
                    }
                    Instr::CommWait(_) | Instr::CommLaunch(_) | Instr::Copy { .. } => {
                        out.push(ins);
                    }
                    Instr::Attn { .. } | Instr::AttnBwd { .. } => {
                        // Attention mutates accumulator state a pending
                        // reduce may read; flush before crossing it.
                        if let Some((items, bytes)) = carry.take() {
                            out.push(Instr::Reduce { items, bytes });
                        }
                        out.push(ins);
                    }
                }
            }
            if let Some((items, bytes)) = carry.take() {
                out.push(Instr::Reduce { items, bytes });
            }
            // Adjacent copies fold into one staging call.
            let mut merged: Vec<Instr> = Vec::with_capacity(out.len());
            for ins in out {
                if let (Some(Instr::Copy { bytes: b0 }), Instr::Copy { bytes }) =
                    (merged.last_mut(), &ins)
                {
                    *b0 += bytes;
                    copies_coalesced += 1;
                    instrs_removed += 1;
                    continue;
                }
                merged.push(ins);
            }
            stream.instrs = merged;
        }
        PassOutcome {
            reduces_coalesced,
            copies_coalesced,
            instrs_removed,
            ..outcome(self, before, phase)
        }
    }
}

/// Small-message launch fusion (see module docs).
pub struct FuseCommLaunch;

impl Pass for FuseCommLaunch {
    fn name(&self) -> &'static str {
        "fuse_launch"
    }

    fn run(&self, phase: &mut PhasePlan, cx: &PassCx<'_>) -> PassOutcome {
        let before = phase.total_comm_bytes();
        // Ops referenced by exactly one device (its receiver), input-only:
        // the scheduler's per-division fetch ops. Per op: how many devices'
        // streams name it, and the last of them (a stream's references are
        // visited together, so a count of one means one device).
        let mut refs = vec![(0u32, 0u32); phase.comms.len()];
        for stream in &phase.devices {
            for ins in &stream.instrs {
                if let Instr::CommLaunch(cid) | Instr::CommWait(cid) = ins {
                    match refs.get_mut(cid.0 as usize) {
                        Some(r) if r.0 == 0 || r.1 != stream.device => {
                            *r = (r.0 + 1, stream.device)
                        }
                        _ => {}
                    }
                }
            }
        }
        let fusible = |cid: u32, dev: u32, phase: &PhasePlan| -> bool {
            if cx.protected.contains(&cid) {
                return false;
            }
            let op = &phase.comms[cid as usize];
            !op.transfers.is_empty()
                && op
                    .transfers
                    .iter()
                    .all(|t| t.to == dev && is_input(t.payload.kind()))
                && refs[cid as usize] == (1, dev)
        };
        let route = |cid: u32, phase: &PhasePlan| -> Vec<u32> {
            let mut srcs: Vec<u32> = phase.comms[cid as usize]
                .transfers
                .iter()
                .map(|t| t.from)
                .collect();
            srcs.sort_unstable();
            srcs.dedup();
            srcs
        };
        let mut ops_fused = 0u64;
        let mut instrs_removed = 0u64;
        for d in 0..phase.devices.len() {
            let dev = phase.devices[d].device;
            // Launch order of this device's fusible fetch ops.
            let launch_order: Vec<u32> = phase.devices[d]
                .instrs
                .iter()
                .filter_map(|ins| match ins {
                    Instr::CommLaunch(cid) if fusible(cid.0, dev, phase) => Some(cid.0),
                    _ => None,
                })
                .collect();
            let mut head: Option<u32> = None;
            let mut drop_ids: HashSet<u32> = HashSet::new();
            for cid in launch_order {
                let Some(h) = head else {
                    head = Some(cid);
                    continue;
                };
                let combined = phase.comms[h as usize].bytes() + phase.comms[cid as usize].bytes();
                if combined <= cx.fuse_threshold_bytes && route(cid, phase) == route(h, phase) {
                    let moved = std::mem::take(&mut phase.comms[cid as usize].transfers);
                    phase.comms[h as usize].transfers.extend(moved);
                    drop_ids.insert(cid);
                    ops_fused += 1;
                } else {
                    head = Some(cid);
                }
            }
            if !drop_ids.is_empty() {
                let n0 = phase.devices[d].instrs.len();
                phase.devices[d].instrs.retain(|ins| match ins {
                    Instr::CommLaunch(cid) | Instr::CommWait(cid) => !drop_ids.contains(&cid.0),
                    _ => true,
                });
                instrs_removed += (n0 - phase.devices[d].instrs.len()) as u64;
            }
        }
        PassOutcome {
            ops_fused,
            instrs_removed,
            ..outcome(self, before, phase)
        }
    }
}

/// Wait sinking (see module docs).
pub struct SinkCommWait;

impl Pass for SinkCommWait {
    fn name(&self) -> &'static str {
        "sink_wait"
    }

    fn run(&self, phase: &mut PhasePlan, cx: &PassCx<'_>) -> PassOutcome {
        let before = phase.total_comm_bytes();
        let mut waits_sunk = 0u64;
        // First reader after the position the backward walk has reached, by
        // payload.
        let mut next_read = PayloadTable::new(cx.layout.token_blocks.len());
        let mut keys: Vec<usize> = Vec::new();
        for stream in &mut phase.devices {
            let dev = stream.device;
            let n = stream.instrs.len();
            // Sort key: non-waits keep their slot (2*i); a movable wait
            // whose first reader sits at j sinks to just before it
            // (2*j - 1). Stable sort preserves the relative order of waits
            // sharing a reader and of everything else.
            next_read.begin(arrivals(&phase.comms, dev, &stream.instrs).map(|(_, tr)| tr.payload));
            keys.clear();
            keys.resize(n, 0);
            for (i, ins) in stream.instrs.iter().enumerate().rev() {
                keys[i] = 2 * i;
                match ins {
                    Instr::CommWait(cid) if !cx.protected.contains(&cid.0) => {
                        let first = incoming(&phase.comms[cid.0 as usize], dev)
                            .filter_map(|tr| next_read.get(tr.payload))
                            .min();
                        if let Some(j) = first {
                            keys[i] = 2 * j as usize - 1;
                        }
                    }
                    _ => reads(cx.layout, ins, |p| next_read.put(p, Some(i as u32))),
                }
            }
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| keys[i]);
            if order.iter().enumerate().any(|(pos, &i)| pos != i) {
                let mut slot: Vec<Option<Instr>> = stream.instrs.drain(..).map(Some).collect();
                for (pos, &i) in order.iter().enumerate() {
                    let ins = slot[i].take().expect("each index used once");
                    waits_sunk += (pos != i && matches!(ins, Instr::CommWait(_))) as u64;
                    stream.instrs.push(ins);
                }
            }
        }
        PassOutcome {
            waits_sunk,
            ..outcome(self, before, phase)
        }
    }
}

/// Runs the configured passes in their fixed order over phases and plans.
pub struct PassManager {
    cfg: PassConfig,
}

impl PassManager {
    /// A manager for the given configuration.
    pub fn new(cfg: PassConfig) -> Self {
        PassManager { cfg }
    }

    /// The configured passes, in execution order.
    pub fn passes(&self) -> Vec<Box<dyn Pass>> {
        let mut out: Vec<Box<dyn Pass>> = Vec::new();
        if !self.cfg.enabled {
            return out;
        }
        if self.cfg.dead_comm {
            out.push(Box::new(DeadCommElim));
        }
        if self.cfg.coalesce {
            out.push(Box::new(CoalesceCopyReduce));
        }
        if self.cfg.fuse {
            out.push(Box::new(FuseCommLaunch));
        }
        if self.cfg.sink {
            out.push(Box::new(SinkCommWait));
        }
        out
    }

    /// Runs the pipeline over one phase. `label` tags the outcomes (`fwd`,
    /// `bwd`, `timing`); `protected` ops are left untouched.
    pub fn run_phase(
        &self,
        layout: &BatchLayout,
        phase: &mut PhasePlan,
        label: &str,
        protected: &HashSet<u32>,
    ) -> Vec<PassOutcome> {
        let cx = PassCx {
            layout,
            protected,
            fuse_threshold_bytes: self.cfg.fuse_threshold_bytes,
        };
        self.passes()
            .iter()
            .map(|p| {
                let mut o = p.run(phase, &cx);
                o.phase = label.to_string();
                o
            })
            .collect()
    }

    /// Runs the pipeline over both phases of a plan and refreshes the
    /// per-stream buffer statistics (the passes change arrival and release
    /// points, so the scheduler's accounting is stale afterwards).
    pub fn run_plan(
        &self,
        layout: &BatchLayout,
        placement: &Placement,
        plan: &mut ExecutionPlan,
    ) -> Vec<PassOutcome> {
        if !self.cfg.enabled {
            return Vec::new();
        }
        let none = HashSet::new();
        let mut out = self.run_phase(layout, &mut plan.fwd, "fwd", &none);
        out.extend(self.run_phase(layout, &mut plan.bwd, "bwd", &none));
        if out.iter().any(PassOutcome::changed) {
            let owned = owned_bytes(layout, placement);
            let mut accounting = Accounting::new(layout);
            for phase in [&mut plan.fwd, &mut plan.bwd] {
                for stream in &mut phase.devices {
                    let dev = stream.device;
                    let owned = owned.get(dev as usize).copied().unwrap_or(0);
                    stream.buffer = accounting.stats(&phase.comms, dev, &stream.instrs, owned);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferStats;
    use crate::plan::{CommId, CommOp, DeviceStream, Payload, Transfer};
    use crate::schedule::{build_plan, ScheduleConfig};
    use crate::verify::{verify_plan, verify_structure};
    use dcp_blocks::{BlockConfig, CompBlockId, TokenBlockId};
    use dcp_mask::MaskSpec;
    use dcp_types::AttnSpec;

    fn layout(seqs: &[(u32, MaskSpec)], bs: u32) -> BatchLayout {
        BatchLayout::build(
            AttnSpec::paper_micro(),
            BlockConfig {
                block_size: bs,
                head_blocks: 1,
            },
            seqs,
        )
        .unwrap()
    }

    fn ring_placement(l: &BatchLayout, n: u32) -> Placement {
        let token_to_dev: Vec<u32> = (0..l.token_blocks.len() as u32).map(|i| i % n).collect();
        let comp_to_dev: Vec<u32> = l
            .comp_blocks
            .iter()
            .map(|c| token_to_dev[c.q_block.0 as usize])
            .collect();
        Placement {
            num_devices: n,
            token_to_dev,
            comp_to_dev,
        }
    }

    fn small_case() -> (BatchLayout, Placement, ExecutionPlan) {
        let l = layout(&[(4096, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        (l, p, plan)
    }

    /// Comp blocks on their *kv* owner: forward partials and multi-item
    /// reduces exist.
    fn scatter_case() -> (BatchLayout, Placement, ExecutionPlan) {
        let l = layout(&[(4096, MaskSpec::Causal)], 512);
        let n = 4;
        let token_to_dev: Vec<u32> = (0..l.token_blocks.len() as u32).map(|i| i % n).collect();
        let comp_to_dev: Vec<u32> = l
            .comp_blocks
            .iter()
            .map(|c| token_to_dev[c.kv_block.0 as usize])
            .collect();
        let p = Placement {
            num_devices: n,
            token_to_dev,
            comp_to_dev,
        };
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        (l, p, plan)
    }

    /// Every comp block on device 0, every token block on device 1: all of
    /// device 0's division fetches share the single-source route `{1}`, so
    /// launch fusion always has adjacent same-route candidates.
    fn fan_in_case() -> (BatchLayout, Placement, ExecutionPlan) {
        let l = layout(&[(2048, MaskSpec::Causal)], 512);
        let p = Placement {
            num_devices: 2,
            token_to_dev: vec![1; l.token_blocks.len()],
            comp_to_dev: vec![0; l.comp_blocks.len()],
        };
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        (l, p, plan)
    }

    #[test]
    fn fuse_cap_is_inclusive_at_the_exact_boundary() {
        // The fusion guard is `combined <= fuse_threshold_bytes`: a pair
        // whose combined size equals the cap exactly must fuse, and one
        // byte less must not. Pin the default cap while at it.
        assert_eq!(PassConfig::default().fuse_threshold_bytes, 256 * 1024);
        let fuse_only = |threshold: u64| -> (ExecutionPlan, Vec<PassOutcome>) {
            let (l, p, mut plan) = fan_in_case();
            let pm = PassManager::new(PassConfig {
                enabled: true,
                dead_comm: false,
                coalesce: false,
                sink: false,
                fuse_threshold_bytes: threshold,
                ..PassConfig::default()
            });
            let none = HashSet::new();
            let outs = pm.run_phase(&l, &mut plan.fwd, "fwd", &none);
            verify_plan(&l, &p, &plan).unwrap();
            (plan, outs)
        };
        let (_, _, base) = fan_in_case();
        let orig: Vec<u64> = base.fwd.comms.iter().map(|c| c.bytes()).collect();
        // Unbounded dry run to locate the first fusion: `e` is the first op
        // emptied in pass scan order (first fused device, launch order), and
        // its head `h` is the op that now holds e's transfers. The first
        // merge into h happened while h still had its original size, so the
        // pair fused at exactly orig[h] + orig[e] combined bytes.
        let (maxed, outs) = fuse_only(u64::MAX);
        assert!(
            outs.iter().any(|o| o.ops_fused > 0),
            "fixture must fuse: {outs:?}"
        );
        let mut pair = None;
        'devices: for d in 0..base.fwd.devices.len() {
            for ins in &base.fwd.devices[d].instrs {
                let Instr::CommLaunch(cid) = ins else {
                    continue;
                };
                let e = cid.0 as usize;
                if maxed.fwd.comms[e].transfers.is_empty()
                    && !base.fwd.comms[e].transfers.is_empty()
                {
                    let moved = &base.fwd.comms[e].transfers[0];
                    let h = maxed
                        .fwd
                        .comms
                        .iter()
                        .position(|op| op.transfers.contains(moved))
                        .expect("some head holds the emptied op's transfers");
                    pair = Some((h, e));
                    break 'devices;
                }
            }
        }
        let (h, e) = pair.expect("a fused pair exists");
        let at_cap = orig[h] + orig[e];
        assert!(orig[h] > 0 && orig[e] > 0);

        // Threshold == combined size: the pair fuses, and the head stops
        // growing at exactly the cap (the next candidate would exceed it).
        let (fused, outs) = fuse_only(at_cap);
        assert!(outs.iter().any(|o| o.ops_fused > 0));
        assert!(
            fused.fwd.comms[e].transfers.is_empty(),
            "pair must fuse at exactly the cap"
        );
        assert_eq!(
            fused.fwd.comms[h].bytes(),
            at_cap,
            "head must stop growing at the cap"
        );

        // One byte under: that same pair must not fuse.
        let (unfused, _) = fuse_only(at_cap - 1);
        assert!(
            !unfused.fwd.comms[e].transfers.is_empty(),
            "pair must not fuse one byte under the cap"
        );
        assert_eq!(unfused.fwd.comms[h].bytes(), orig[h]);
    }

    #[test]
    fn pipeline_preserves_verifier_validity() {
        let (l, p, mut plan) = small_case();
        let pm = PassManager::new(PassConfig::optimize());
        let outcomes = pm.run_plan(&l, &p, &mut plan);
        assert!(!outcomes.is_empty());
        verify_plan(&l, &p, &plan).unwrap();
        verify_structure(&plan.fwd).unwrap();
        verify_structure(&plan.bwd).unwrap();
    }

    #[test]
    fn clean_streams_have_no_dead_comm() {
        // The scheduler deduplicates fetches and mirrors reductions exactly,
        // so dead-comm elimination must find nothing on a fresh plan.
        let (l, p, mut plan) = small_case();
        let before = plan.total_comm_bytes();
        let pm = PassManager::new(PassConfig {
            enabled: true,
            coalesce: false,
            fuse: false,
            sink: false,
            ..PassConfig::default()
        });
        let outs = pm.run_plan(&l, &p, &mut plan);
        assert_eq!(plan.total_comm_bytes(), before);
        assert!(outs.iter().all(|o| o.transfers_removed == 0), "{outs:?}");
    }

    #[test]
    fn dead_comm_removes_unwaited_transfer() {
        let (l, p, mut plan) = small_case();
        // Graft a transfer into device 0 on a brand-new op that only a
        // launch references — the wait was "truncated" (the recovery
        // prefetch shape).
        let tb = TokenBlockId(0);
        let from = p.token_to_dev[0];
        let to = (from + 1) % p.num_devices;
        let cid = CommId(plan.fwd.comms.len() as u32);
        plan.fwd.comms.push(CommOp {
            transfers: vec![Transfer {
                from,
                to,
                payload: Payload::Q(tb),
                bytes: 999,
            }],
        });
        plan.fwd.devices[to as usize]
            .instrs
            .insert(0, Instr::CommLaunch(cid));
        let before = plan.fwd.total_comm_bytes();
        let none = HashSet::new();
        let pm = PassManager::new(PassConfig::optimize());
        let outs = pm.run_phase(&l, &mut plan.fwd, "fwd", &none);
        assert_eq!(plan.fwd.total_comm_bytes(), before - 999);
        let dead: &PassOutcome = outs.iter().find(|o| o.pass == "dead_comm").unwrap();
        assert_eq!(dead.transfers_removed, 1);
        assert!(dead.instrs_removed >= 1, "dangling launch must be dropped");
        // Ops are never renumbered: the table keeps the emptied slot.
        assert!(plan.fwd.comms[cid.0 as usize].transfers.is_empty());
    }

    #[test]
    fn sink_moves_wait_to_latest_safe_point() {
        // A wait followed by instructions that do not read its payloads
        // (here a Copy) must sink to just before its first reader.
        let l = layout(&[(1024, MaskSpec::Causal)], 512);
        let c10 = l
            .comp_blocks
            .iter()
            .position(|c| c.q_block.0 == 1 && c.kv_block.0 == 0)
            .expect("causal layout has the (q1, kv0) comp block");
        let mut phase = PhasePlan {
            comms: vec![CommOp {
                transfers: vec![Transfer {
                    from: 0,
                    to: 1,
                    payload: Payload::Kv(TokenBlockId(0)),
                    bytes: 64,
                }],
            }],
            devices: vec![DeviceStream {
                device: 1,
                instrs: vec![
                    Instr::CommLaunch(CommId(0)),
                    Instr::CommWait(CommId(0)),
                    Instr::Copy { bytes: 1 },
                    Instr::Attn {
                        items: vec![CompBlockId(c10 as u32)],
                        flops: 1,
                    },
                ],
                buffer: BufferStats::default(),
            }],
        };
        let none = HashSet::new();
        let pm = PassManager::new(PassConfig {
            enabled: true,
            dead_comm: false,
            coalesce: false,
            fuse: false,
            ..PassConfig::default()
        });
        let outs = pm.run_phase(&l, &mut phase, "fwd", &none);
        let sunk: &PassOutcome = outs.iter().find(|o| o.pass == "sink_wait").unwrap();
        assert_eq!(sunk.waits_sunk, 1);
        assert!(
            matches!(
                phase.devices[0].instrs.as_slice(),
                [
                    Instr::CommLaunch(_),
                    Instr::Copy { .. },
                    Instr::CommWait(_),
                    Instr::Attn { .. },
                ]
            ),
            "{:?}",
            phase.devices[0].instrs
        );
    }

    #[test]
    fn waits_already_at_their_reader_are_not_counted_as_sunk() {
        // The output phase of every scheduled stream: waits directly before
        // the reduce that reads them. Each has a later reader, none can move.
        let l = layout(&[(1024, MaskSpec::Causal)], 512);
        let tb = TokenBlockId(0);
        let partial = |from| CommOp {
            transfers: vec![Transfer {
                from,
                to: 1,
                payload: Payload::PartialO(tb, from),
                bytes: 64,
            }],
        };
        let instrs = vec![
            Instr::CommWait(CommId(0)),
            Instr::CommWait(CommId(1)),
            Instr::Reduce {
                items: vec![crate::plan::ReduceItem {
                    target: tb,
                    sources: vec![0, 2],
                    kind: crate::plan::PayloadKind::PartialO,
                }],
                bytes: 1,
            },
        ];
        let mut phase = PhasePlan {
            comms: vec![partial(0), partial(2)],
            devices: vec![DeviceStream {
                device: 1,
                instrs: instrs.clone(),
                buffer: BufferStats::default(),
            }],
        };
        let outcome = SinkCommWait.run(
            &mut phase,
            &PassCx {
                layout: &l,
                protected: &HashSet::new(),
                fuse_threshold_bytes: 0,
            },
        );
        assert_eq!(outcome.waits_sunk, 0);
        assert!(!outcome.changed());
        assert_eq!(phase.devices[0].instrs, instrs);
    }

    #[test]
    fn sink_preserves_validity_on_real_plan() {
        let (l, p, mut plan) = scatter_case();
        let none = HashSet::new();
        let pm = PassManager::new(PassConfig {
            enabled: true,
            dead_comm: false,
            coalesce: false,
            fuse: false,
            ..PassConfig::default()
        });
        let outs = pm.run_phase(&l, &mut plan.fwd, "fwd", &none);
        let _ = pm.run_phase(&l, &mut plan.bwd, "bwd", &none);
        verify_plan(&l, &p, &plan).unwrap();
        let sunk: &PassOutcome = outs.iter().find(|o| o.pass == "sink_wait").unwrap();
        assert_eq!(sunk.comm_bytes_before, sunk.comm_bytes_after);
    }

    #[test]
    fn coalesce_merges_split_reduce() {
        let (l, p, mut plan) = scatter_case();
        // Split a fused reduce into two adjacent halves; the pass must glue
        // them back together with item order preserved.
        let mut split_dev = None;
        for (d, stream) in plan.fwd.devices.iter_mut().enumerate() {
            if let Some(i) = stream
                .instrs
                .iter()
                .position(|ins| matches!(ins, Instr::Reduce { items, .. } if items.len() >= 2))
            {
                let Instr::Reduce { items, bytes } = stream.instrs.remove(i) else {
                    unreachable!()
                };
                let mid = items.len() / 2;
                let (a, b) = (items[..mid].to_vec(), items[mid..].to_vec());
                stream.instrs.insert(
                    i,
                    Instr::Reduce {
                        items: b,
                        bytes: bytes / 2,
                    },
                );
                stream.instrs.insert(
                    i,
                    Instr::Reduce {
                        items: a,
                        bytes: bytes - bytes / 2,
                    },
                );
                split_dev = Some(d);
                break;
            }
        }
        let Some(d) = split_dev else {
            panic!("expected a multi-item reduce to split");
        };
        let expected_items = {
            let mut items = Vec::new();
            for ins in &plan.fwd.devices[d].instrs {
                if let Instr::Reduce { items: it, .. } = ins {
                    items.extend(it.clone());
                }
            }
            items
        };
        let none = HashSet::new();
        let pm = PassManager::new(PassConfig {
            enabled: true,
            dead_comm: false,
            fuse: false,
            sink: false,
            ..PassConfig::default()
        });
        let outs = pm.run_phase(&l, &mut plan.fwd, "fwd", &none);
        let co: &PassOutcome = outs.iter().find(|o| o.pass == "coalesce").unwrap();
        assert_eq!(co.reduces_coalesced, 1);
        let reduces: Vec<_> = plan.fwd.devices[d]
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Reduce { .. }))
            .collect();
        assert_eq!(reduces.len(), 1);
        if let Instr::Reduce { items, .. } = reduces[0] {
            assert_eq!(*items, expected_items, "item order must be preserved");
        }
        verify_plan(&l, &p, &plan).unwrap();
    }

    #[test]
    fn fuse_respects_threshold_and_route() {
        let (l, p, mut plan) = small_case();
        let none = HashSet::new();
        let pm = PassManager::new(PassConfig {
            enabled: true,
            dead_comm: false,
            coalesce: false,
            sink: false,
            fuse_threshold_bytes: u64::MAX,
            ..PassConfig::default()
        });
        let outs = pm.run_phase(&l, &mut plan.fwd, "fwd", &none);
        let fu: &PassOutcome = outs.iter().find(|o| o.pass == "fuse_launch").unwrap();
        // Whatever fused, the result must still verify and keep its bytes.
        assert_eq!(fu.comm_bytes_before, fu.comm_bytes_after);
        verify_plan(&l, &p, &plan).unwrap();

        // With a zero threshold nothing ever fuses.
        let (l2, _p2, mut plan2) = small_case();
        let pm0 = PassManager::new(PassConfig {
            enabled: true,
            dead_comm: false,
            coalesce: false,
            sink: false,
            fuse_threshold_bytes: 0,
            ..PassConfig::default()
        });
        let outs0 = pm0.run_phase(&l2, &mut plan2.fwd, "fwd", &none);
        assert!(outs0.iter().all(|o| o.ops_fused == 0));
    }

    #[test]
    fn disabled_pipeline_is_identity() {
        let (l, p, mut plan) = small_case();
        let orig = plan.clone();
        let pm = PassManager::new(PassConfig::default());
        let outs = pm.run_plan(&l, &p, &mut plan);
        assert!(outs.is_empty());
        assert_eq!(plan, orig);
    }

    #[test]
    fn protected_ops_are_untouched() {
        let (l, _p, mut plan) = small_case();
        // Protect every op: the pipeline must not delete or move any comm
        // instruction.
        let all: HashSet<u32> = (0..plan.fwd.comms.len() as u32).collect();
        let comm_idx = |phase: &PhasePlan| -> Vec<Vec<Instr>> {
            phase
                .devices
                .iter()
                .map(|s| {
                    s.instrs
                        .iter()
                        .filter(|i| matches!(i, Instr::CommLaunch(_) | Instr::CommWait(_)))
                        .cloned()
                        .collect()
                })
                .collect()
        };
        let before = comm_idx(&plan.fwd);
        let pm = PassManager::new(PassConfig::optimize());
        pm.run_phase(&l, &mut plan.fwd, "fwd", &all);
        assert_eq!(comm_idx(&plan.fwd), before);
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
