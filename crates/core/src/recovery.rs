//! Elastic mid-iteration recovery: shrink-and-reshard a live plan onto the
//! surviving devices after a device loss.
//!
//! The planner (Sec. 4) assumes the device set is fixed for the whole
//! iteration. This module relaxes that: given a [`PlanOutput`] already in
//! flight, a per-device execution frontier (how many fused attention
//! divisions each device completed) and a [`FailureEvent`] naming the lost
//! device, [`RecoveryPlanner::plan_recovery`] produces a [`RecoveryPatch`]
//! that completes the batch on the survivors **without recomputing anything
//! the failed device already finished**:
//!
//! - the failed device's *un-executed* computation blocks and its ownership
//!   duties are grouped into per-Q-block **residual units** and re-sharded
//!   over the survivors by the same hypergraph partitioner the planner uses,
//!   with each survivor's *remaining* capacity (its own unfinished divisions)
//!   as the per-part target weight (via
//!   [`dcp_hypergraph::PartitionConfig::with_part_targets`]);
//! - partial outputs the failed device already reduced are **salvaged**: its
//!   raw online-softmax accumulators ship to the replacement shards over
//!   dedicated salvage comm ops, so the shards fold the residual blocks into
//!   them exactly where the failed device left off — the merged batch output
//!   is bitwise identical to an unfaulted run (the salvage and stand-in
//!   rules are DESIGN.md "Stream semantics", carried by
//!   [`RecoveryPatch::ctx`]);
//! - survivor instruction streams are reused **verbatim**: shards deposit
//!   the failed device's outstanding partials under the original comm ids,
//!   so nothing downstream of the failure is regenerated. Only the failed
//!   device's stream (truncated at the frontier plus salvage launches) and
//!   the shard streams are new.
//!
//! The patch carries two phase plans: `fwd`, a *functional* plan over
//! `D + S` logical devices (shard `j` is logical device `D + j`) for the
//! numerical executor, and `timing`, the same work folded back onto the `D`
//! physical ranks (shard `j` on survivor `shard_hosts[j]`) for the cluster
//! simulator — the recovered-vs-clean makespan delta is the recovery cost
//! charged into the iteration breakdown.
//!
//! Recovery is **re-entrant**: a [`RecoveryPatch`] is itself a recoverable
//! plan. If a survivor dies while a patch is in flight —
//! including one hosting spliced shards — [`RecoveryPlanner::plan_recovery_onto`]
//! composes a second patch over the first. Every logical stream the new
//! failure kills (the rank's own stream plus any recovery shards it hosted)
//! is cut at its own frontier, and each dying stream's residual units are
//! re-sharded onto a fresh block of shard streams. Per-dying-stream shard
//! separation is what keeps the merged output bitwise identical at any
//! cascade depth: two dying streams may each hold a *distinct* accumulator
//! for the same token block (the owner's reduce state vs. another stream's
//! outstanding partial), and merging them would change the reduction tree.
//!
//! Failures during the **backward** phase do not throw the phase away:
//! [`RecoveryPlanner::plan_backward_recovery`] cuts the dead stream at its
//! reduction frontier, groups the surviving partial `dQ`/`dKV` accumulators
//! into connected components (an item contributes to one dQ and one dKV
//! accumulator, so co-contributing blocks must stay colocated), salvages
//! the raw running sums and water-fills the components over the survivors.
//! Gradient accumulators are plain sums, so the salvaged state folds in
//! bitwise exactly where the dead stream stopped.
//!
//! With [`RecoveryPlanner::with_fault_spec`] the re-shard targets are
//! scaled by estimated survivor health (straggler slowdowns shrink a
//! survivor's flop target, degraded links its byte target), closing the
//! detect → estimate → place loop inside recovery itself. A healthy or
//! absent spec leaves the targets byte-identical to the fault-blind path.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use dcp_blocks::{BatchLayout, CompBlockId, TokenBlockId};
use dcp_hypergraph::{partition, HypergraphBuilder, PartitionConfig, VertexWeight};
use dcp_obs::{Event, ObsHandle, Source as ObsSource};
use dcp_sched::{
    build_plan, verify_phase, verify_plan, verify_structure, BufferStats, CommId, CommOp,
    DeviceStream, ExecutionPlan, Instr, Payload, PayloadKind, PhasePlan, Placement, RecoveryCtx,
    ReduceItem, ScheduleConfig, Transfer,
};
use dcp_sim::{FaultSpec, MIN_CAPACITY_WEIGHT};
use dcp_types::{DcpError, DcpResult};
use serde::{Deserialize, Serialize};

use crate::planner::PlanOutput;

/// A device loss at a division boundary of the forward phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureEvent {
    /// The lost device rank.
    pub device: u32,
    /// Fused attention divisions the device completed before failing (its
    /// execution frontier). `0` means it failed before computing anything;
    /// a value equal to its division count means only its ownership duties
    /// (output reduction) remain.
    pub divisions_done: u32,
}

/// Tuning knobs for the recovery planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Imbalance tolerance for the residual re-shard (both weight
    /// dimensions). The residual subproblem is small, so this is looser
    /// than the planner's placement epsilon.
    pub epsilon: f64,
    /// Partitioner seed.
    pub seed: u64,
    /// Divisions for the re-planned backward phase (match the original
    /// [`crate::PlannerConfig::divisions`]).
    pub divisions: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            epsilon: 0.4,
            seed: 0x5eed,
            divisions: 4,
        }
    }
}

/// Accounting for one recovery patch.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Forward FLOPs the failed device was assigned in the original plan.
    pub failed_flops: u64,
    /// Forward FLOPs re-assigned to shards (the failed device's un-executed
    /// blocks). Everything it finished is salvaged, not redone.
    pub redone_flops: u64,
    /// Bytes of raw accumulators evacuated from the failed device.
    pub salvage_bytes: u64,
    /// Bytes of Q/KV inputs the shards re-fetch for residual blocks.
    pub refetch_bytes: u64,
    /// Residual units (Q-block groups) re-sharded over the survivors.
    pub residual_units: usize,
    /// Whether the hypergraph re-shard fell back to greedy waterfilling.
    pub greedy_fallback: bool,
    /// Wall time spent building this patch.
    pub plan_wall_s: f64,
    /// How many failures this patch composes over: `1` for a patch against
    /// a clean plan, `2` for a patch over a depth-1 patch, and so on.
    pub cascade_depth: u32,
}

/// The shrink-and-reshard patch for one [`FailureEvent`].
///
/// `fwd` is the functional plan: `D + shard_hosts.len()` logical devices,
/// verified and executed (`dcp_exec::execute_forward_recovery`) under
/// [`RecoveryPatch::ctx`]. `timing` folds the shard work onto the `D`
/// physical ranks for the simulator. The backward phase is re-planned:
/// `bwd_placement` assigns nothing to the failed device and `bwd` is its
/// freshly built plan.
#[derive(Debug, Clone)]
pub struct RecoveryPatch {
    /// The most recently failed device rank (this patch's event).
    pub failed: u32,
    /// Divisions the failed device completed (copied from the event).
    pub divisions_done: u32,
    /// Every physical rank lost so far, in failure order. The last entry is
    /// `failed`; earlier entries come from the prior patch when composing.
    pub failed_devices: Vec<u32>,
    /// Every dead *logical* stream: lost ranks plus any shard streams that
    /// were hosted on them when they died. Their truncated prefixes remain
    /// in `fwd` and may still read re-owned blocks locally.
    pub failed_streams: HashSet<u32>,
    /// Physical survivor hosting each shard: shard `j` (logical device
    /// `D + j`) runs on rank `shard_hosts[j]`. Cumulative across cascade
    /// depths — earlier patches' shards keep their slots.
    pub shard_hosts: Vec<u32>,
    /// Placement over the `D + S` logical devices of `fwd`.
    pub placement: Placement,
    /// Patched forward phase over `D + S` logical devices.
    pub fwd: PhasePlan,
    /// Comm ids in `fwd` carrying raw salvaged accumulators (cumulative).
    pub salvage_comms: HashSet<u32>,
    /// Shard (logical device id) that deposits each outstanding partial
    /// under the original comm ids, keyed by `(token block, original
    /// producer)` — two dead streams may owe partials for the same block.
    pub producer_of: HashMap<(TokenBlockId, u32), u32>,
    /// Token blocks whose ownership moved off a dead stream (cumulative).
    pub reowned: HashSet<TokenBlockId>,
    /// The patched forward phase folded onto the `D` physical ranks, for
    /// the cluster simulator.
    pub timing: PhasePlan,
    /// Backward placement over `D` devices with nothing on any failed rank.
    pub bwd_placement: Placement,
    /// Freshly built plan for `bwd_placement` (use its `bwd` phase).
    pub bwd: ExecutionPlan,
    /// Patch accounting (for this event; sets `cascade_depth`).
    pub stats: RecoveryStats,
}

impl RecoveryPatch {
    /// The recovery semantics of `fwd`: what the verifier, the executor and
    /// the host-fold read it under.
    pub fn ctx(&self) -> RecoveryCtx {
        RecoveryCtx {
            failed: self.failed_streams.clone(),
            salvage_comms: self.salvage_comms.clone(),
            producer_of: self.producer_of.clone(),
            reowned: self.reowned.clone(),
            ..RecoveryCtx::default()
        }
    }
}

/// A reduction-frontier salvage patch for a failure **during the backward
/// phase** (see [`RecoveryPlanner::plan_backward_recovery`]).
///
/// `bwd` is the functional patched backward phase over `D + S` logical
/// devices, verified and executed (`dcp_exec::execute_backward_recovery`)
/// under [`BwdRecoveryPatch::ctx`]. `timing` folds the shard work onto the
/// `D` physical ranks for the simulator.
#[derive(Debug, Clone)]
pub struct BwdRecoveryPatch {
    /// The failed device rank.
    pub failed: u32,
    /// Backward divisions the failed device completed before dying.
    pub divisions_done: u32,
    /// Physical survivor hosting each shard stream.
    pub shard_hosts: Vec<u32>,
    /// Placement over the `D + S` logical devices of `bwd`.
    pub placement: Placement,
    /// Patched backward phase over `D + S` logical devices.
    pub bwd: PhasePlan,
    /// Comm ids carrying raw salvaged `dQ`/`dKV` running sums.
    pub salvage_comms: HashSet<u32>,
    /// Shard that deposits each outstanding `dQ` partial, keyed by
    /// `(token block, original producer)`.
    pub producer_of_dq: HashMap<(TokenBlockId, u32), u32>,
    /// Shard that deposits each outstanding `dKV` partial.
    pub producer_of_dkv: HashMap<(TokenBlockId, u32), u32>,
    /// Token blocks whose gradient ownership moved to a shard.
    pub reowned: HashSet<TokenBlockId>,
    /// The patched backward phase folded onto the `D` physical ranks.
    pub timing: PhasePlan,
    /// Patch accounting.
    pub stats: RecoveryStats,
}

impl BwdRecoveryPatch {
    /// The recovery semantics of `bwd`: what the verifier, the executor and
    /// the host-fold read it under.
    pub fn ctx(&self) -> RecoveryCtx {
        RecoveryCtx {
            failed: HashSet::from([self.failed]),
            salvage_comms: self.salvage_comms.clone(),
            producer_of_dq: self.producer_of_dq.clone(),
            producer_of_dkv: self.producer_of_dkv.clone(),
            reowned: self.reowned.clone(),
            ..RecoveryCtx::default()
        }
    }
}

/// One residual unit: a Q block plus the failed device's un-executed
/// computation blocks targeting it, moved to a shard as a whole so the
/// salvaged accumulator, the residual folds and the ownership duties of the
/// block stay colocated.
#[derive(Debug)]
struct Unit {
    tb: TokenBlockId,
    items: Vec<CompBlockId>,
    flops: u64,
    owned: bool,
}

/// Builds [`RecoveryPatch`]es for failures against live [`PlanOutput`]s.
#[derive(Debug, Clone)]
pub struct RecoveryPlanner {
    cfg: RecoveryConfig,
    obs: ObsHandle,
    fault_spec: Option<FaultSpec>,
}

/// Per-dying-stream state derived from the execution frontier.
struct DyingView {
    /// The dying logical stream id.
    l: u32,
    /// Fused divisions this stream completed.
    k: u32,
    /// Instruction index of the frontier cut.
    cut: usize,
    /// Token blocks with a live output accumulator at the cut: Q blocks of
    /// executed items plus blocks installed by salvage waits in the prefix.
    executed_acc: HashSet<TokenBlockId>,
    /// Residual (un-executed) computation blocks, in stream order.
    residual: Vec<CompBlockId>,
    /// Comm ids waited *within* the kept prefix (these waits replay, so
    /// their incoming transfers must not be retargeted).
    kept_waits: HashSet<u32>,
    /// Comm ids waited in the dropped suffix, in stream order.
    tail_waits: Vec<u32>,
    /// Every reduce item of the dying stream, flattened in stream order.
    reduce_items: Vec<ReduceItem>,
    /// Suffix comm launches carrying partials this stream still owed.
    residual_out_cids: Vec<u32>,
    /// `(token block, original producer)` of each owed partial.
    outstanding: Vec<(TokenBlockId, u32)>,
}

impl RecoveryPlanner {
    /// A recovery planner with the given configuration and no observability.
    pub fn new(cfg: RecoveryConfig) -> Self {
        RecoveryPlanner {
            cfg,
            obs: ObsHandle::noop(),
            fault_spec: None,
        }
    }

    /// Attaches an observability sink: `plan_recovery` emits a
    /// `device_lost` instant, a `recovery_plan` span (whose value is the
    /// cascade depth) and salvage/redo counters under
    /// [`dcp_obs::Source::Planner`].
    #[must_use]
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a fault estimate (e.g. from
    /// [`crate::estimate_fault_spec`]): re-shard targets are scaled by each
    /// survivor's estimated health — straggler slowdowns shrink its flop
    /// target, degraded or flapping incident links its byte target. A
    /// healthy or empty spec leaves every target byte-identical to the
    /// fault-blind path.
    #[must_use]
    pub fn with_fault_spec(mut self, spec: FaultSpec) -> Self {
        self.fault_spec = Some(spec);
        self
    }

    /// Survivor capacity weights `[compute, bytes]` over `n` physical
    /// devices ([`FaultSpec::capacity_weights`]), `None` without a spec or
    /// when it changes nothing. Compute is floored like bytes: a crawling
    /// survivor keeps a sliver of capacity so its target stays positive.
    fn capacity(&self, n: u32) -> Option<Vec<[f64; 2]>> {
        let mut w = self.fault_spec.as_ref()?.capacity_weights(n as usize)?;
        for x in &mut w {
            x[0] = x[0].max(MIN_CAPACITY_WEIGHT);
        }
        Some(w)
    }

    /// Produces the shrink-and-reshard patch for `ev` against a clean
    /// `out` (cascade depth 1).
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::InvalidArgument`] if the failed device is out of
    /// range or there are no survivors;
    /// [`DcpError::InvalidFailureEvent`] (carrying the device and the
    /// offending frontier) if `divisions_done` exceeds the device's
    /// division count; [`DcpError::InvalidPlan`] if the plan's streams are
    /// internally inconsistent.
    pub fn plan_recovery(&self, out: &PlanOutput, ev: &FailureEvent) -> DcpResult<RecoveryPatch> {
        self.plan_patch(out, None, ev)
    }

    /// Composes a new patch **over a prior one**: `ev` kills a survivor of
    /// `prior` (possibly one hosting spliced recovery shards) and the
    /// result completes the batch on the remaining survivors, bitwise
    /// identical to the clean run.
    ///
    /// `ev.divisions_done` counts the fused divisions the dying rank
    /// completed across *all* the logical streams it was running, in splice
    /// order: its own truncated-or-original stream first, then each hosted
    /// shard stream in ascending logical id.
    ///
    /// # Errors
    ///
    /// As [`RecoveryPlanner::plan_recovery`]; additionally
    /// [`DcpError::InvalidArgument`] if `ev.device` already failed.
    pub fn plan_recovery_onto(
        &self,
        out: &PlanOutput,
        prior: &RecoveryPatch,
        ev: &FailureEvent,
    ) -> DcpResult<RecoveryPatch> {
        self.plan_patch(out, Some(prior), ev)
    }

    /// The shared re-entrant core behind [`RecoveryPlanner::plan_recovery`]
    /// and [`RecoveryPlanner::plan_recovery_onto`].
    fn plan_patch(
        &self,
        out: &PlanOutput,
        prior: Option<&RecoveryPatch>,
        ev: &FailureEvent,
    ) -> DcpResult<RecoveryPatch> {
        let t0 = Instant::now();
        let d_total = out.plan.num_devices;
        let failed = ev.device;
        let layout = &out.layout;
        // Views of the plan being patched: the clean plan at depth 1, the
        // prior patch's rendering when composing.
        let base_fwd: &PhasePlan = prior.map_or(&out.plan.fwd, |p| &p.fwd);
        let base_placement: &Placement = prior.map_or(&out.placement, |p| &p.placement);
        let base_hosts: &[u32] = prior.map_or(&[], |p| &p.shard_hosts);
        let prior_failed_devices: Vec<u32> =
            prior.map(|p| p.failed_devices.clone()).unwrap_or_default();
        let prior_failed_streams: HashSet<u32> =
            prior.map(|p| p.failed_streams.clone()).unwrap_or_default();
        let mut salvage_comms: HashSet<u32> =
            prior.map(|p| p.salvage_comms.clone()).unwrap_or_default();
        let mut producer_of: HashMap<(TokenBlockId, u32), u32> =
            prior.map(|p| p.producer_of.clone()).unwrap_or_default();
        let mut reowned: HashSet<TokenBlockId> =
            prior.map(|p| p.reowned.clone()).unwrap_or_default();
        let (bwd_token0, bwd_comp0) = match prior {
            Some(p) => (
                p.bwd_placement.token_to_dev.clone(),
                p.bwd_placement.comp_to_dev.clone(),
            ),
            None => (
                out.placement.token_to_dev.clone(),
                out.placement.comp_to_dev.clone(),
            ),
        };
        let cascade_depth = prior.map_or(0, |p| p.stats.cascade_depth) + 1;

        if failed >= d_total {
            return Err(DcpError::invalid_argument(format!(
                "failed device {failed} out of range for {d_total} devices"
            )));
        }
        if prior_failed_devices.contains(&failed) {
            return Err(DcpError::invalid_argument(format!(
                "device {failed} already failed in the prior patch"
            )));
        }
        let survivors: Vec<u32> = (0..d_total)
            .filter(|x| *x != failed && !prior_failed_devices.contains(x))
            .collect();
        if survivors.is_empty() {
            return Err(DcpError::invalid_argument(
                "cannot recover: no surviving devices",
            ));
        }
        let s_count = survivors.len();
        let l_total = base_fwd.devices.len() as u32;
        debug_assert_eq!(l_total, d_total + base_hosts.len() as u32);

        // --- 1. Dying logical streams, in splice order. ------------------
        // The rank's own stream first, then any live shard streams it was
        // hosting (ascending logical id). `ev.divisions_done` distributes
        // across them in that order.
        let dying: Vec<u32> = std::iter::once(failed)
            .chain((d_total..l_total).filter(|&l| {
                base_hosts[(l - d_total) as usize] == failed && !prior_failed_streams.contains(&l)
            }))
            .collect();
        let dying_set: HashSet<u32> = dying.iter().copied().collect();

        // --- 2. Frontier split per dying stream. -------------------------
        let mut budget = ev.divisions_done;
        let mut views: Vec<DyingView> = Vec::new();
        let mut failed_flops = 0u64;
        for &l in &dying {
            let instrs = &base_fwd.devices[l as usize].instrs;
            let na = instrs
                .iter()
                .filter(|i| matches!(i, Instr::Attn { .. } | Instr::AttnBwd { .. }))
                .count() as u32;
            let k = budget.min(na);
            budget -= k;
            let (cut, executed, residual, total) = split_frontier(instrs, k, failed)?;
            failed_flops += total;
            let mut executed_acc: HashSet<TokenBlockId> = executed
                .iter()
                .map(|&c| layout.comp_blocks[c.0 as usize].q_block)
                .collect();
            let mut kept_waits: HashSet<u32> = HashSet::new();
            for ins in &instrs[..cut] {
                if let Instr::CommWait(cid) = ins {
                    kept_waits.insert(cid.0);
                    if salvage_comms.contains(&cid.0) {
                        // A replayed salvage wait re-installs an inherited
                        // accumulator — live state this stream can re-ship.
                        for tr in &base_fwd.comms[cid.0 as usize].transfers {
                            if tr.to == l {
                                if let Payload::PartialO(tb, _) = tr.payload {
                                    executed_acc.insert(tb);
                                }
                            }
                        }
                    }
                }
            }
            let tail_waits: Vec<u32> = instrs[cut..]
                .iter()
                .filter_map(|ins| match ins {
                    Instr::CommWait(cid) if !salvage_comms.contains(&cid.0) => Some(cid.0),
                    _ => None,
                })
                .collect();
            let reduce_items: Vec<ReduceItem> = instrs
                .iter()
                .flat_map(|ins| match ins {
                    Instr::Reduce { items, .. } => items.clone(),
                    _ => Vec::new(),
                })
                .collect();
            views.push(DyingView {
                l,
                k,
                cut,
                executed_acc,
                residual,
                kept_waits,
                tail_waits,
                reduce_items,
                residual_out_cids: Vec::new(),
                outstanding: Vec::new(),
            });
        }
        if budget > 0 {
            return Err(DcpError::invalid_failure_event(failed, ev.divisions_done));
        }
        let redone_flops: u64 = views
            .iter()
            .flat_map(|v| v.residual.iter())
            .map(|&c| layout.comp_blocks[c.0 as usize].flops)
            .sum();

        // --- 3. Residual units per dying stream. -------------------------
        // Units from different dying streams must NOT merge: two dying
        // streams can each hold a distinct accumulator for the same token
        // block (owner reduce state vs. an inherited outstanding partial),
        // and merging them would change the reduction tree — breaking
        // bitwise equality with the clean run.
        let view_of_stream: HashMap<u32, usize> =
            dying.iter().enumerate().map(|(v, &l)| (l, v)).collect();
        let mut view_units: Vec<Vec<Unit>> = Vec::with_capacity(views.len());
        let mut unit_idx: HashMap<(u32, TokenBlockId), usize> = HashMap::new();
        for view in &views {
            let mut units: Vec<Unit> = Vec::new();
            for &c in &view.residual {
                let cb = layout.comp_blocks[c.0 as usize];
                let idx = *unit_idx.entry((view.l, cb.q_block)).or_insert_with(|| {
                    units.push(Unit {
                        tb: cb.q_block,
                        items: Vec::new(),
                        flops: 0,
                        owned: false,
                    });
                    units.len() - 1
                });
                units[idx].items.push(c);
                units[idx].flops += cb.flops;
            }
            view_units.push(units);
        }
        for (i, &owner) in base_placement.token_to_dev.iter().enumerate() {
            if let Some(&v) = view_of_stream.get(&owner) {
                let tb = TokenBlockId(i as u32);
                let units = &mut view_units[v];
                let idx = *unit_idx.entry((owner, tb)).or_insert_with(|| {
                    units.push(Unit {
                        tb,
                        items: Vec::new(),
                        flops: 0,
                        owned: false,
                    });
                    units.len() - 1
                });
                units[idx].owned = true;
            }
        }
        // Outstanding out-comms: partials launched after a dying stream's
        // frontier. A zero-item unit keeps an executed-but-unsent block's
        // salvaged accumulator attached to a shard that re-deposits it.
        for (v, view) in views.iter_mut().enumerate() {
            let instrs = &base_fwd.devices[view.l as usize].instrs;
            for ins in &instrs[view.cut..] {
                if let Instr::CommLaunch(cid) = ins {
                    let mut is_out = false;
                    for tr in &base_fwd.comms[cid.0 as usize].transfers {
                        if let Payload::PartialO(tb, p) = tr.payload {
                            let mine = p == view.l || producer_of.get(&(tb, p)) == Some(&view.l);
                            if mine {
                                is_out = true;
                                view.outstanding.push((tb, p));
                                let units = &mut view_units[v];
                                unit_idx.entry((view.l, tb)).or_insert_with(|| {
                                    units.push(Unit {
                                        tb,
                                        items: Vec::new(),
                                        flops: 0,
                                        owned: false,
                                    });
                                    units.len() - 1
                                });
                            }
                        }
                    }
                    if is_out {
                        view.residual_out_cids.push(cid.0);
                    }
                }
            }
        }

        // --- 4. Re-shard each dying stream onto survivor capacity. -------
        // Each dying stream with units gets its own block of fresh shard
        // streams (one per survivor). Targets water-fill the shortfall
        // between the post-recovery ideal and what each survivor already
        // has queued — scaled by estimated survivor health when a fault
        // spec is attached.
        let caps = self.capacity(d_total);
        let k_own = views[0].k;
        let mut queued: Vec<u64> = survivors
            .iter()
            .map(|&s| {
                let mut q = remaining_flops(&base_fwd.devices[s as usize].instrs, k_own);
                for l in d_total..l_total {
                    if base_hosts[(l - d_total) as usize] == s && !prior_failed_streams.contains(&l)
                    {
                        q += remaining_flops(&base_fwd.devices[l as usize].instrs, 0);
                    }
                }
                q
            })
            .collect();
        let unit_bytes = |u: &Unit| {
            let tb = &layout.token_blocks[u.tb.0 as usize];
            tb.o_bytes + if u.owned { tb.total_bytes() } else { 0 }
        };
        let mut shard_hosts: Vec<u32> = base_hosts.to_vec();
        let mut view_base: Vec<Option<u32>> = vec![None; views.len()];
        let mut part_of: Vec<Vec<u32>> = Vec::with_capacity(views.len());
        let mut greedy_fallback = false;
        for units in &view_units {
            if units.is_empty() {
                part_of.push(Vec::new());
                continue;
            }
            let v = part_of.len();
            view_base[v] = Some(d_total + shard_hosts.len() as u32);
            shard_hosts.extend(survivors.iter().copied());
            let residual_total: u64 = units.iter().map(|u| u.flops).sum();
            let bytes_total: u64 = units.iter().map(unit_bytes).sum();
            let targets = recovery_targets(
                &queued,
                &survivors,
                residual_total,
                bytes_total,
                caps.as_deref(),
            );
            let assignment: Vec<u32> = if s_count == 1 {
                vec![0; units.len()]
            } else {
                let mut b = HypergraphBuilder::new(units.len());
                for (i, u) in units.iter().enumerate() {
                    b.set_vertex_weight(i, [u.flops.max(1), unit_bytes(u)]);
                }
                // Units sharing a KV input want to land on the same shard
                // so the input is fetched once.
                let mut consumers: BTreeMap<TokenBlockId, Vec<u32>> = BTreeMap::new();
                for (i, u) in units.iter().enumerate() {
                    for &c in &u.items {
                        let kb = layout.comp_blocks[c.0 as usize].kv_block;
                        consumers.entry(kb).or_default().push(i as u32);
                    }
                }
                for (kb, pins) in consumers {
                    if pins.len() > 1 {
                        b.add_edge(layout.token_blocks[kb.0 as usize].kv_bytes, &pins);
                    }
                }
                let hg = b.build()?;
                let mut pc = PartitionConfig::new(s_count as u32)
                    .with_epsilon(self.cfg.epsilon)
                    .with_part_targets(targets.clone());
                pc.eps[1] = self.cfg.epsilon;
                pc.seed = self.cfg.seed;
                match partition(&hg, &pc) {
                    Ok(p) if p.balanced => p.assignment,
                    _ => {
                        greedy_fallback = true;
                        waterfill(units, &targets)
                    }
                }
            };
            for (i, u) in units.iter().enumerate() {
                queued[assignment[i] as usize] += u.flops;
            }
            part_of.push(assignment);
        }

        // --- 5. Patched placement over the grown logical device set. -----
        let mut token_to_dev = base_placement.token_to_dev.clone();
        let mut comp_to_dev = base_placement.comp_to_dev.clone();
        let mut unit_dev: HashMap<(u32, TokenBlockId), u32> = HashMap::new();
        for (v, units) in view_units.iter().enumerate() {
            let Some(base) = view_base[v] else { continue };
            for (i, u) in units.iter().enumerate() {
                let dev = base + part_of[v][i];
                unit_dev.insert((views[v].l, u.tb), dev);
                if u.owned {
                    token_to_dev[u.tb.0 as usize] = dev;
                    reowned.insert(u.tb);
                }
                for &c in &u.items {
                    comp_to_dev[c.0 as usize] = dev;
                }
            }
        }
        let placement = Placement {
            num_devices: d_total + shard_hosts.len() as u32,
            token_to_dev,
            comp_to_dev,
        };

        // --- 6. Patched comm ops. ----------------------------------------
        let mut comms: Vec<CommOp> = base_fwd.comms.clone();
        // Partials bound for a dying stream move with the block — unless
        // the receiving wait sits in the kept prefix, which replays it.
        // Non-salvage partials target the block's owner, so they follow
        // ownership; a prior patch's salvage evacuation follows the unit
        // that was going to consume it.
        for (cid, op) in comms.iter_mut().enumerate() {
            for tr in &mut op.transfers {
                if !dying_set.contains(&tr.to) {
                    continue;
                }
                if let Payload::PartialO(tb, _) = tr.payload {
                    let v = view_of_stream[&tr.to];
                    if views[v].kept_waits.contains(&(cid as u32)) {
                        continue;
                    }
                    if salvage_comms.contains(&(cid as u32)) {
                        tr.to = *unit_dev.get(&(tr.to, tb)).ok_or_else(|| {
                            DcpError::invalid_plan(format!(
                                "inherited salvage for {tb:?} targets dying stream {} \
                                 but the block has no residual unit",
                                tr.to
                            ))
                        })?;
                    } else {
                        let dev = placement.token_dev(tb);
                        debug_assert!(dev >= d_total, "partial retarget must land on a shard");
                        tr.to = dev;
                    }
                }
            }
        }
        // Outstanding partials now deposit from each unit's new shard.
        for (v, view) in views.iter().enumerate() {
            let _ = v;
            for &(tb, p) in &view.outstanding {
                producer_of.insert((tb, p), unit_dev[&(view.l, tb)]);
            }
        }
        // Salvage ops: live accumulators a dying stream built (or had
        // re-installed) before its frontier that a shard still needs —
        // residual folds, outstanding partials, or final assembly of a
        // re-owned block. One op per (dying stream, shard) pair.
        let mut salvage_bytes = 0u64;
        let mut view_salvage_cid: Vec<Vec<Option<CommId>>> = Vec::with_capacity(views.len());
        for (v, view) in views.iter().enumerate() {
            let mut cids: Vec<Option<CommId>> = vec![None; s_count];
            if let Some(base) = view_base[v] {
                #[allow(clippy::needless_range_loop)]
                for j in 0..s_count {
                    let transfers: Vec<Transfer> = view_units[v]
                        .iter()
                        .enumerate()
                        .filter(|&(i, u)| {
                            part_of[v][i] == j as u32 && view.executed_acc.contains(&u.tb)
                        })
                        .map(|(_, u)| {
                            let bytes = layout.token_blocks[u.tb.0 as usize].o_bytes;
                            salvage_bytes += bytes;
                            Transfer {
                                from: view.l,
                                to: base + j as u32,
                                payload: Payload::PartialO(u.tb, view.l),
                                bytes,
                            }
                        })
                        .collect();
                    if !transfers.is_empty() {
                        let cid = CommId(comms.len() as u32);
                        cids[j] = Some(cid);
                        salvage_comms.insert(cid.0);
                        comms.push(CommOp { transfers });
                    }
                }
            }
            view_salvage_cid.push(cids);
        }
        // Input re-fetch ops: Q/KV slices a shard's residual blocks read
        // that it does not own under the patched placement. `from` is the
        // original owner — the device physically holding the data (dead
        // devices keep serving resident blocks while draining, which the
        // verifier admits via the re-owned set).
        let mut refetch_bytes = 0u64;
        let mut view_fetch_cid: Vec<Vec<Option<CommId>>> = Vec::with_capacity(views.len());
        for (v, view) in views.iter().enumerate() {
            let _ = view;
            let mut cids: Vec<Option<CommId>> = vec![None; s_count];
            if let Some(base) = view_base[v] {
                #[allow(clippy::needless_range_loop)]
                for j in 0..s_count {
                    let dev = base + j as u32;
                    let mut seen: HashSet<Payload> = HashSet::new();
                    let mut transfers: Vec<Transfer> = Vec::new();
                    for (i, u) in view_units[v].iter().enumerate() {
                        if part_of[v][i] != j as u32 {
                            continue;
                        }
                        for &c in &u.items {
                            let cb = layout.comp_blocks[c.0 as usize];
                            let qb = &layout.token_blocks[cb.q_block.0 as usize];
                            let kb = &layout.token_blocks[cb.kv_block.0 as usize];
                            for (payload, bytes) in [
                                (Payload::Q(cb.q_block), qb.q_bytes),
                                (Payload::Kv(cb.kv_block), kb.kv_bytes),
                            ] {
                                let tb = payload.token_block();
                                if placement.token_dev(tb) == dev || !seen.insert(payload) {
                                    continue;
                                }
                                refetch_bytes += bytes;
                                transfers.push(Transfer {
                                    from: out.placement.token_dev(tb),
                                    to: dev,
                                    payload,
                                    bytes,
                                });
                            }
                        }
                    }
                    if !transfers.is_empty() {
                        let cid = CommId(comms.len() as u32);
                        cids[j] = Some(cid);
                        comms.push(CommOp { transfers });
                    }
                }
            }
            view_fetch_cid.push(cids);
        }

        // --- 7. Streams: truncate the dying streams, emit shards. --------
        let failed_devices: Vec<u32> = prior_failed_devices
            .iter()
            .copied()
            .chain(std::iter::once(failed))
            .collect();
        let mut failed_streams = prior_failed_streams;
        failed_streams.extend(dying.iter().copied());

        let mut devices: Vec<DeviceStream> = base_fwd.devices.clone();
        for (v, view) in views.iter().enumerate() {
            let orig = &base_fwd.devices[view.l as usize];
            let mut truncated: Vec<Instr> = orig.instrs[..view.cut].to_vec();
            for cid in view_salvage_cid[v].iter().flatten() {
                truncated.push(Instr::CommLaunch(*cid));
            }
            devices[view.l as usize] = DeviceStream {
                device: view.l,
                instrs: truncated,
                buffer: orig.buffer,
            };
        }
        // Old salvage evacuations whose receiving wait was truncated now
        // land on new shards; those shards must wait on them before any
        // residual fold touches the installed accumulator.
        let base_ncomms = base_fwd.comms.len();
        for (v, view) in views.iter().enumerate() {
            let Some(base) = view_base[v] else { continue };
            for j in 0..s_count {
                let dev = base + j as u32;
                let mut instrs: Vec<Instr> = Vec::new();
                if let Some(cid) = view_fetch_cid[v][j] {
                    instrs.push(Instr::CommLaunch(cid));
                }
                for cid in 0..base_ncomms as u32 {
                    if salvage_comms.contains(&cid)
                        && comms[cid as usize].transfers.iter().any(|tr| tr.to == dev)
                    {
                        instrs.push(Instr::CommWait(CommId(cid)));
                    }
                }
                if let Some(cid) = view_salvage_cid[v][j] {
                    instrs.push(Instr::CommWait(cid));
                }
                if let Some(cid) = view_fetch_cid[v][j] {
                    instrs.push(Instr::CommWait(cid));
                }
                let items: Vec<CompBlockId> = view
                    .residual
                    .iter()
                    .copied()
                    .filter(|&c| placement.comp_dev(c) == dev)
                    .collect();
                if !items.is_empty() {
                    let flops = items
                        .iter()
                        .map(|&c| layout.comp_blocks[c.0 as usize].flops)
                        .sum();
                    instrs.push(Instr::Attn { items, flops });
                }
                for &cid in &view.residual_out_cids {
                    let mine = comms[cid as usize].transfers.iter().any(|tr| {
                        matches!(tr.payload, Payload::PartialO(tb, p)
                            if producer_of.get(&(tb, p)) == Some(&dev))
                    });
                    if mine {
                        instrs.push(Instr::CommLaunch(CommId(cid)));
                    }
                }
                for &cid in &view.tail_waits {
                    if comms[cid as usize].transfers.iter().any(|tr| tr.to == dev) {
                        instrs.push(Instr::CommWait(CommId(cid)));
                    }
                }
                let ritems: Vec<ReduceItem> = view
                    .reduce_items
                    .iter()
                    .filter(|it| placement.token_dev(it.target) == dev)
                    .cloned()
                    .collect();
                if !ritems.is_empty() {
                    let bytes = reduce_bytes(layout, &ritems);
                    instrs.push(Instr::Reduce {
                        items: ritems,
                        bytes,
                    });
                }
                devices.push(DeviceStream {
                    device: dev,
                    instrs,
                    buffer: BufferStats::default(),
                });
            }
        }
        let patch_fwd = PhasePlan { comms, devices };

        // --- 8. Backward: re-plan from scratch on the survivors. ---------
        let mut bwd_token = bwd_token0;
        let mut bwd_comp = bwd_comp0;
        for (v, units) in view_units.iter().enumerate() {
            for (i, u) in units.iter().enumerate() {
                let s = survivors[part_of[v][i] as usize];
                if u.owned {
                    bwd_token[u.tb.0 as usize] = s;
                }
                for &c in &u.items {
                    bwd_comp[c.0 as usize] = s;
                }
            }
        }
        let mut load = vec![0u64; d_total as usize];
        for (c, &dev) in bwd_comp.iter().enumerate() {
            if dev != failed {
                load[dev as usize] += layout.comp_blocks[c].flops;
            }
        }
        // The dead rank's *executed* blocks still need a backward home;
        // waterfill them over the survivors by total flop load (effective
        // time when a fault spec scales survivor speed).
        for (c, dev) in bwd_comp.iter_mut().enumerate() {
            if *dev == failed {
                let s = pick_least_loaded(&survivors, &load, caps.as_deref());
                *dev = s;
                load[s as usize] += layout.comp_blocks[c].flops;
            }
        }
        // Defensive: any token still owned by the dead rank (cannot happen
        // when every owned block formed a unit, but cheap to guarantee).
        for t in bwd_token.iter_mut() {
            if *t == failed {
                *t = pick_least_loaded(&survivors, &load, caps.as_deref());
            }
        }
        let bwd_placement = Placement {
            num_devices: d_total,
            token_to_dev: bwd_token,
            comp_to_dev: bwd_comp,
        };
        let bwd = build_plan(
            layout,
            &bwd_placement,
            &ScheduleConfig {
                divisions: self.cfg.divisions,
                ..Default::default()
            },
        )?;

        // --- 9. Timing rendering, then verify everything that ships. -----
        // The functional forward phase under the patch's recovery rules, the
        // re-planned backward phase as an ordinary plan, and the host-folded
        // timing phase structurally (folding legitimately leaves some waits
        // with no incoming transfers, so the full check does not apply).
        let mut patch = RecoveryPatch {
            failed,
            divisions_done: ev.divisions_done,
            failed_devices,
            failed_streams,
            shard_hosts,
            placement,
            fwd: patch_fwd,
            salvage_comms,
            producer_of,
            reowned,
            timing: PhasePlan {
                comms: Vec::new(),
                devices: Vec::new(),
            },
            bwd_placement,
            bwd,
            stats: RecoveryStats {
                failed_flops,
                redone_flops,
                salvage_bytes,
                refetch_bytes,
                residual_units: view_units.iter().map(Vec::len).sum(),
                greedy_fallback,
                plan_wall_s: 0.0,
                cascade_depth,
            },
        };
        let ctx = patch.ctx();
        patch.timing = fold_onto_hosts(&patch.fwd, &ctx, &patch.shard_hosts);
        verify_phase(layout, &patch.placement, &patch.fwd, false, &ctx)
            .map_err(|d| DcpError::invalid_plan(format!("recovery fwd patch: {d}")))?;
        verify_plan(layout, &patch.bwd_placement, &patch.bwd)
            .map_err(|d| DcpError::invalid_plan(format!("recovery bwd plan: {d}")))?;
        verify_structure(&patch.timing)
            .map_err(|d| DcpError::invalid_plan(format!("recovery timing plan: {d}")))?;

        patch.stats.plan_wall_s = t0.elapsed().as_secs_f64();
        self.emit_obs(failed, ev.divisions_done, &patch.stats);
        Ok(patch)
    }

    /// Produces a reduction-frontier salvage patch for a failure **during
    /// the backward phase**.
    ///
    /// Instead of re-planning the whole backward from scratch, the dead
    /// stream is cut at its `ev.divisions_done`-th fused `AttnBwd` division
    /// and its partial `dQ`/`dKV` running sums are salvaged. Accumulators
    /// are grouped into connected components of the bipartite contribution
    /// graph (each residual item links its Q block's `dQ` accumulator to
    /// its KV block's `dKV` accumulator; a block the dead rank owned links
    /// its own pair), because a component's accumulators must stay
    /// colocated for residual folds to extend the salvaged sums in clean
    /// stream order. Components water-fill over the survivors by remaining
    /// backward capacity (fault-adjusted under
    /// [`RecoveryPlanner::with_fault_spec`]).
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::InvalidArgument`] if the failed device is out of
    /// range or there are no survivors;
    /// [`DcpError::InvalidFailureEvent`] if `divisions_done` exceeds the
    /// stream's backward division count; [`DcpError::InvalidPlan`] if a
    /// rendering fails verification.
    pub fn plan_backward_recovery(
        &self,
        out: &PlanOutput,
        ev: &FailureEvent,
    ) -> DcpResult<BwdRecoveryPatch> {
        let t0 = Instant::now();
        let d_total = out.plan.num_devices;
        let failed = ev.device;
        let layout = &out.layout;
        if failed >= d_total {
            return Err(DcpError::invalid_argument(format!(
                "failed device {failed} out of range for {d_total} devices"
            )));
        }
        if d_total < 2 {
            return Err(DcpError::invalid_argument(
                "cannot recover: no surviving devices",
            ));
        }
        let survivors: Vec<u32> = (0..d_total).filter(|&x| x != failed).collect();
        let s_count = survivors.len();
        let bwd = &out.plan.bwd;
        let bstream = &bwd.devices[failed as usize];

        // --- 1. Reduction frontier: split the dead backward stream. ------
        let (cut, executed, residual, failed_flops) =
            split_frontier(&bstream.instrs, ev.divisions_done, failed)?;
        let redone_flops: u64 = residual
            .iter()
            .map(|&c| layout.comp_blocks[c.0 as usize].flops)
            .sum();
        let executed_dq: HashSet<TokenBlockId> = executed
            .iter()
            .map(|&c| layout.comp_blocks[c.0 as usize].q_block)
            .collect();
        let executed_dkv: HashSet<TokenBlockId> = executed
            .iter()
            .map(|&c| layout.comp_blocks[c.0 as usize].kv_block)
            .collect();
        let kept_waits: HashSet<u32> = bstream.instrs[..cut]
            .iter()
            .filter_map(|ins| match ins {
                Instr::CommWait(cid) => Some(cid.0),
                _ => None,
            })
            .collect();

        // --- 2. Components of the accumulator contribution graph. --------
        // Node = one surviving accumulator (dQ or dKV of a token block).
        let mut nodes: Vec<(bool, TokenBlockId)> = Vec::new();
        let mut node_id: HashMap<(bool, TokenBlockId), usize> = HashMap::new();
        let mut parent: Vec<usize> = Vec::new();
        let mut node = |is_dkv: bool, tb: TokenBlockId, parent: &mut Vec<usize>| -> usize {
            *node_id.entry((is_dkv, tb)).or_insert_with(|| {
                nodes.push((is_dkv, tb));
                parent.push(parent.len());
                parent.len() - 1
            })
        };
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let union = |a: usize, b: usize, parent: &mut Vec<usize>| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                parent[rb.max(ra)] = ra.min(rb);
            }
        };
        for &c in &residual {
            let cb = layout.comp_blocks[c.0 as usize];
            let a = node(false, cb.q_block, &mut parent);
            let b = node(true, cb.kv_block, &mut parent);
            union(a, b, &mut parent);
        }
        let mut owned_tbs: Vec<TokenBlockId> = Vec::new();
        for (i, &owner) in out.placement.token_to_dev.iter().enumerate() {
            if owner == failed {
                let tb = TokenBlockId(i as u32);
                owned_tbs.push(tb);
                let a = node(false, tb, &mut parent);
                let b = node(true, tb, &mut parent);
                union(a, b, &mut parent);
            }
        }
        // Outstanding gradient partials launched after the frontier.
        let mut residual_out_cids: Vec<u32> = Vec::new();
        let mut outstanding: Vec<(bool, TokenBlockId)> = Vec::new();
        for ins in &bstream.instrs[cut..] {
            if let Instr::CommLaunch(cid) = ins {
                let mut is_out = false;
                for tr in &bwd.comms[cid.0 as usize].transfers {
                    match tr.payload {
                        Payload::PartialDq(tb, p) if p == failed => {
                            is_out = true;
                            outstanding.push((false, tb));
                            node(false, tb, &mut parent);
                        }
                        Payload::PartialDkv(tb, p) if p == failed => {
                            is_out = true;
                            outstanding.push((true, tb));
                            node(true, tb, &mut parent);
                        }
                        _ => {}
                    }
                }
                if is_out {
                    residual_out_cids.push(cid.0);
                }
            }
        }
        // Group nodes into components, in node insertion order.
        #[derive(Default)]
        struct BwdComponent {
            flops: u64,
            key: u32,
            items: Vec<CompBlockId>,
            dq: Vec<TokenBlockId>,
            dkv: Vec<TokenBlockId>,
        }
        let mut comp_of_root: HashMap<usize, usize> = HashMap::new();
        let mut comps: Vec<BwdComponent> = Vec::new();
        let mut comp_of_node = vec![0usize; nodes.len()];
        for i in 0..nodes.len() {
            let r = find(&mut parent, i);
            let ci = *comp_of_root.entry(r).or_insert_with(|| {
                comps.push(BwdComponent {
                    key: nodes[i].1 .0,
                    ..Default::default()
                });
                comps.len() - 1
            });
            comp_of_node[i] = ci;
            let (is_dkv, tb) = nodes[i];
            if is_dkv {
                comps[ci].dkv.push(tb);
            } else {
                comps[ci].dq.push(tb);
            }
        }
        for &c in &residual {
            let cb = layout.comp_blocks[c.0 as usize];
            let ci = comp_of_node[node_id[&(false, cb.q_block)]];
            comps[ci].items.push(c);
            comps[ci].flops += cb.flops;
        }

        // --- 3. Water-fill components over survivor backward capacity. ---
        let caps = self.capacity(d_total);
        let queued: Vec<u64> = survivors
            .iter()
            .map(|&s| remaining_flops(&bwd.devices[s as usize].instrs, ev.divisions_done))
            .collect();
        let residual_total: u64 = comps.iter().map(|c| c.flops).sum();
        let bytes_total: u64 = comps
            .iter()
            .flat_map(|c| c.dq.iter().chain(&c.dkv))
            .map(|&tb| layout.token_blocks[tb.0 as usize].o_bytes)
            .sum();
        let targets = recovery_targets(
            &queued,
            &survivors,
            residual_total,
            bytes_total,
            caps.as_deref(),
        );
        let keyed: Vec<(u64, u32)> = comps.iter().map(|c| (c.flops, c.key)).collect();
        let part_of = waterfill_by(&keyed, &targets);

        // --- 4. Placement over D + S logical devices. --------------------
        let shard_dev = |j: u32| d_total + j;
        let mut token_to_dev = out.placement.token_to_dev.clone();
        let mut comp_to_dev = out.placement.comp_to_dev.clone();
        let mut reowned: HashSet<TokenBlockId> = HashSet::new();
        for &tb in &owned_tbs {
            let ci = comp_of_node[node_id[&(false, tb)]];
            token_to_dev[tb.0 as usize] = shard_dev(part_of[ci]);
            reowned.insert(tb);
        }
        for (ci, comp) in comps.iter().enumerate() {
            for &c in &comp.items {
                comp_to_dev[c.0 as usize] = shard_dev(part_of[ci]);
            }
        }
        let placement = Placement {
            num_devices: d_total + s_count as u32,
            token_to_dev,
            comp_to_dev,
        };

        // --- 5. Patched comm ops. ----------------------------------------
        let mut comms: Vec<CommOp> = bwd.comms.clone();
        for (cid, op) in comms.iter_mut().enumerate() {
            for tr in &mut op.transfers {
                if tr.to != failed || kept_waits.contains(&(cid as u32)) {
                    continue;
                }
                if let Payload::PartialDq(tb, _) | Payload::PartialDkv(tb, _) = tr.payload {
                    let dev = placement.token_dev(tb);
                    debug_assert!(dev >= d_total, "gradient partial must follow ownership");
                    tr.to = dev;
                }
            }
        }
        let mut producer_of_dq: HashMap<(TokenBlockId, u32), u32> = HashMap::new();
        let mut producer_of_dkv: HashMap<(TokenBlockId, u32), u32> = HashMap::new();
        for &(is_dkv, tb) in &outstanding {
            let dev = shard_dev(part_of[comp_of_node[node_id[&(is_dkv, tb)]]]);
            if is_dkv {
                producer_of_dkv.insert((tb, failed), dev);
            } else {
                producer_of_dq.insert((tb, failed), dev);
            }
        }
        // Salvage ops: the dead stream's raw dQ/dKV running sums for
        // accumulators with executed contributions, shipped to the shard
        // hosting their component.
        let mut salvage_comms: HashSet<u32> = HashSet::new();
        let mut salvage_cid: Vec<Option<CommId>> = vec![None; s_count];
        let mut salvage_bytes = 0u64;
        #[allow(clippy::needless_range_loop)]
        for j in 0..s_count {
            let mut transfers: Vec<Transfer> = Vec::new();
            for (ci, comp) in comps.iter().enumerate() {
                if part_of[ci] != j as u32 {
                    continue;
                }
                for &tb in &comp.dq {
                    if executed_dq.contains(&tb) {
                        let bytes = layout.token_blocks[tb.0 as usize].q_bytes;
                        salvage_bytes += bytes;
                        transfers.push(Transfer {
                            from: failed,
                            to: shard_dev(j as u32),
                            payload: Payload::PartialDq(tb, failed),
                            bytes,
                        });
                    }
                }
                for &tb in &comp.dkv {
                    if executed_dkv.contains(&tb) {
                        let bytes = layout.token_blocks[tb.0 as usize].kv_bytes;
                        salvage_bytes += bytes;
                        transfers.push(Transfer {
                            from: failed,
                            to: shard_dev(j as u32),
                            payload: Payload::PartialDkv(tb, failed),
                            bytes,
                        });
                    }
                }
            }
            if !transfers.is_empty() {
                let cid = CommId(comms.len() as u32);
                salvage_cid[j] = Some(cid);
                salvage_comms.insert(cid.0);
                comms.push(CommOp { transfers });
            }
        }
        // Input re-fetch: Q/KV/dO slices the shard's residual items read.
        let mut fetch_cid: Vec<Option<CommId>> = vec![None; s_count];
        let mut refetch_bytes = 0u64;
        #[allow(clippy::needless_range_loop)]
        for j in 0..s_count {
            let dev = shard_dev(j as u32);
            let mut seen: HashSet<Payload> = HashSet::new();
            let mut transfers: Vec<Transfer> = Vec::new();
            for (ci, comp) in comps.iter().enumerate() {
                if part_of[ci] != j as u32 {
                    continue;
                }
                for &c in &comp.items {
                    let cb = layout.comp_blocks[c.0 as usize];
                    let qb = &layout.token_blocks[cb.q_block.0 as usize];
                    let kb = &layout.token_blocks[cb.kv_block.0 as usize];
                    for (payload, bytes) in [
                        (Payload::Q(cb.q_block), qb.q_bytes),
                        (Payload::Kv(cb.kv_block), kb.kv_bytes),
                        (Payload::DO(cb.q_block), qb.o_bytes),
                    ] {
                        let tb = payload.token_block();
                        if placement.token_dev(tb) == dev || !seen.insert(payload) {
                            continue;
                        }
                        refetch_bytes += bytes;
                        transfers.push(Transfer {
                            from: out.placement.token_dev(tb),
                            to: dev,
                            payload,
                            bytes,
                        });
                    }
                }
            }
            if !transfers.is_empty() {
                let cid = CommId(comms.len() as u32);
                fetch_cid[j] = Some(cid);
                comms.push(CommOp { transfers });
            }
        }

        // --- 6. Streams. --------------------------------------------------
        let mut truncated: Vec<Instr> = bstream.instrs[..cut].to_vec();
        for cid in salvage_cid.iter().flatten() {
            truncated.push(Instr::CommLaunch(*cid));
        }
        let tail_waits: Vec<u32> = bstream.instrs[cut..]
            .iter()
            .filter_map(|ins| match ins {
                Instr::CommWait(cid) => Some(cid.0),
                _ => None,
            })
            .collect();
        let failed_reduce: Vec<ReduceItem> = bstream
            .instrs
            .iter()
            .flat_map(|ins| match ins {
                Instr::Reduce { items, .. } => items.clone(),
                _ => Vec::new(),
            })
            .collect();
        let mut devices: Vec<DeviceStream> = bwd.devices.clone();
        devices[failed as usize] = DeviceStream {
            device: failed,
            instrs: truncated,
            buffer: bstream.buffer,
        };
        for j in 0..s_count {
            let dev = shard_dev(j as u32);
            let mut instrs: Vec<Instr> = Vec::new();
            if let Some(cid) = fetch_cid[j] {
                instrs.push(Instr::CommLaunch(cid));
            }
            if let Some(cid) = salvage_cid[j] {
                instrs.push(Instr::CommWait(cid));
            }
            if let Some(cid) = fetch_cid[j] {
                instrs.push(Instr::CommWait(cid));
            }
            let items: Vec<CompBlockId> = residual
                .iter()
                .copied()
                .filter(|&c| placement.comp_dev(c) == dev)
                .collect();
            if !items.is_empty() {
                let flops = items
                    .iter()
                    .map(|&c| layout.comp_blocks[c.0 as usize].flops)
                    .sum();
                instrs.push(Instr::AttnBwd { items, flops });
            }
            for &cid in &residual_out_cids {
                let mine = comms[cid as usize]
                    .transfers
                    .iter()
                    .any(|tr| match tr.payload {
                        Payload::PartialDq(tb, p) => producer_of_dq.get(&(tb, p)) == Some(&dev),
                        Payload::PartialDkv(tb, p) => producer_of_dkv.get(&(tb, p)) == Some(&dev),
                        _ => false,
                    });
                if mine {
                    instrs.push(Instr::CommLaunch(CommId(cid)));
                }
            }
            for &cid in &tail_waits {
                if comms[cid as usize].transfers.iter().any(|tr| tr.to == dev) {
                    instrs.push(Instr::CommWait(CommId(cid)));
                }
            }
            let ritems: Vec<ReduceItem> = failed_reduce
                .iter()
                .filter(|it| placement.token_dev(it.target) == dev)
                .cloned()
                .collect();
            if !ritems.is_empty() {
                let bytes = reduce_bytes(layout, &ritems);
                instrs.push(Instr::Reduce {
                    items: ritems,
                    bytes,
                });
            }
            devices.push(DeviceStream {
                device: dev,
                instrs,
                buffer: BufferStats::default(),
            });
        }
        let patch_bwd = PhasePlan { comms, devices };

        // --- 7. Timing rendering, then verify both. -----------------------
        let mut patch = BwdRecoveryPatch {
            failed,
            divisions_done: ev.divisions_done,
            shard_hosts: survivors,
            placement,
            bwd: patch_bwd,
            salvage_comms,
            producer_of_dq,
            producer_of_dkv,
            reowned,
            timing: PhasePlan {
                comms: Vec::new(),
                devices: Vec::new(),
            },
            stats: RecoveryStats {
                failed_flops,
                redone_flops,
                salvage_bytes,
                refetch_bytes,
                residual_units: comps.len(),
                greedy_fallback: false,
                plan_wall_s: 0.0,
                cascade_depth: 1,
            },
        };
        let ctx = patch.ctx();
        patch.timing = fold_onto_hosts(&patch.bwd, &ctx, &patch.shard_hosts);
        verify_phase(layout, &patch.placement, &patch.bwd, true, &ctx)
            .map_err(|d| DcpError::invalid_plan(format!("recovery bwd patch: {d}")))?;
        verify_structure(&patch.timing)
            .map_err(|d| DcpError::invalid_plan(format!("recovery bwd timing plan: {d}")))?;

        patch.stats.plan_wall_s = t0.elapsed().as_secs_f64();
        self.emit_obs(failed, ev.divisions_done, &patch.stats);
        Ok(patch)
    }

    /// Shared obs emission for forward and backward patches.
    fn emit_obs(&self, failed: u32, divisions_done: u32, stats: &RecoveryStats) {
        if !self.obs.enabled() {
            return;
        }
        self.obs.record(
            Event::instant(ObsSource::Planner, "device_lost")
                .with_device(failed)
                .with_division(divisions_done),
        );
        self.obs.record(
            Event::span(ObsSource::Planner, "recovery_plan")
                .with_device(failed)
                .with_time(0.0, stats.plan_wall_s)
                .with_value(stats.cascade_depth as f64),
        );
        self.obs.record(
            Event::counter(
                ObsSource::Planner,
                "recovery_redone_flops",
                stats.redone_flops as f64,
            )
            .with_flops(stats.redone_flops),
        );
        self.obs.record(
            Event::counter(
                ObsSource::Planner,
                "recovery_salvage_bytes",
                stats.salvage_bytes as f64,
            )
            .with_bytes(stats.salvage_bytes),
        );
        if stats.greedy_fallback {
            self.obs.record(Event::instant(
                ObsSource::Planner,
                "recovery_greedy_fallback",
            ));
        }
    }
}

/// Folds a patched logical phase — `D + S` streams, shard `j` being logical
/// device `D + j` hosted on rank `shard_hosts[j]` — onto its `D` physical
/// ranks, for the cluster simulator.
///
/// Transfers move to their endpoints' hosts and vanish when both share one.
/// A survivor runs its own stream with its live shards' work (ascending
/// logical id) slotted in after its own compute, before its trailing output
/// waits and reduce; a dead rank replays the truncated prefix of every
/// logical stream it was running, in the same splice order.
fn fold_onto_hosts(logical: &PhasePlan, ctx: &RecoveryCtx, shard_hosts: &[u32]) -> PhasePlan {
    let l_total = logical.devices.len() as u32;
    let d_total = l_total - shard_hosts.len() as u32;
    let host = |x: u32| match x.checked_sub(d_total) {
        Some(j) => shard_hosts[j as usize],
        None => x,
    };
    let comms = logical
        .comms
        .iter()
        .enumerate()
        .map(|(cid, op)| {
            // An outstanding partial is now produced by a shard, so its
            // flow must originate from the shard's host for the spliced
            // launch to start it. Salvage ops are genuine dead→shard
            // evacuations and keep their source.
            let owed = !ctx.salvage_comms.contains(&(cid as u32));
            let transfers = op.transfers.iter().filter_map(|tr| {
                let stand_in = (owed && ctx.failed.contains(&tr.from))
                    .then(|| ctx.stand_in(tr.payload))
                    .flatten();
                let (from, to) = (host(stand_in.unwrap_or(tr.from)), host(tr.to));
                (from != to).then_some(Transfer { from, to, ..*tr })
            });
            CommOp {
                transfers: transfers.collect(),
            }
        })
        .collect();
    let devices = (0..d_total)
        .map(|r| {
            let own = &logical.devices[r as usize];
            let dead = ctx.failed.contains(&r);
            let mut instrs = own.instrs.clone();
            let at = if dead {
                instrs.len()
            } else {
                let trailing = |i: &Instr| matches!(i, Instr::CommWait(_) | Instr::Reduce { .. });
                instrs
                    .iter()
                    .rposition(|i| !trailing(i))
                    .map_or(0, |i| i + 1)
            };
            let hosted = (d_total..l_total)
                .filter(|&l| host(l) == r && ctx.failed.contains(&l) == dead)
                .flat_map(|l| logical.devices[l as usize].instrs.iter().cloned());
            instrs.splice(at..at, hosted.collect::<Vec<_>>());
            DeviceStream {
                device: r,
                instrs,
                buffer: own.buffer,
            }
        })
        .collect();
    PhasePlan { comms, devices }
}

/// Splits a device stream at its execution frontier: the instruction just
/// past the `k`-th fused attention call (`Attn` in forward streams,
/// `AttnBwd` in backward streams), extended through the comm launches that
/// immediately follow it (the completed division's out-comm and any
/// already-issued prefetch). Returns the cut index, the executed and
/// residual computation blocks (in stream order) and the stream's total
/// attention flops.
///
/// `device` is the physical rank the stream belongs to, used only to build
/// the typed [`DcpError::InvalidFailureEvent`] when `k` exceeds the
/// stream's division count.
fn split_frontier(
    instrs: &[Instr],
    k: u32,
    device: u32,
) -> DcpResult<(usize, Vec<CompBlockId>, Vec<CompBlockId>, u64)> {
    let mut cut = 0usize;
    if k > 0 {
        let mut seen = 0u32;
        let mut found = false;
        for (i, ins) in instrs.iter().enumerate() {
            if matches!(ins, Instr::Attn { .. } | Instr::AttnBwd { .. }) {
                seen += 1;
                if seen == k {
                    cut = i + 1;
                    found = true;
                    break;
                }
            }
        }
        if !found {
            return Err(DcpError::invalid_failure_event(device, k));
        }
    }
    while cut < instrs.len() && matches!(instrs[cut], Instr::CommLaunch(_)) {
        cut += 1;
    }
    let mut executed = Vec::new();
    let mut residual = Vec::new();
    let mut total = 0u64;
    for (i, ins) in instrs.iter().enumerate() {
        if let Instr::Attn { items, flops } | Instr::AttnBwd { items, flops } = ins {
            total += flops;
            if i < cut {
                executed.extend_from_slice(items);
            } else {
                residual.extend_from_slice(items);
            }
        }
    }
    Ok((cut, executed, residual, total))
}

/// Attention flops a device has left after completing `k` fused divisions
/// (forward `Attn` or backward `AttnBwd`, whichever the stream carries).
fn remaining_flops(instrs: &[Instr], k: u32) -> u64 {
    instrs
        .iter()
        .filter_map(|ins| match ins {
            Instr::Attn { flops, .. } | Instr::AttnBwd { flops, .. } => Some(*flops),
            _ => None,
        })
        .skip(k as usize)
        .sum()
}

/// Per-shard `[flops, bytes]` targets for the residual re-shard.
///
/// Without a fault spec (`caps == None`) each survivor's flop target is its
/// shortfall against the water level — the clean planner's equal-finish
/// heuristic — and bytes split evenly. With a fault spec, shortfalls are
/// scaled by each survivor's effective compute rate (straggler-slowed ranks
/// absorb less residual work) and bytes follow the survivors' effective
/// link weights, mirroring [`Planner::plan`]'s fault-aware targets.
fn recovery_targets(
    queued: &[u64],
    survivors: &[u32],
    residual_total: u64,
    bytes_total: u64,
    caps: Option<&[[f64; 2]]>,
) -> Vec<VertexWeight> {
    let s_count = survivors.len();
    let total_queued: u64 = queued.iter().sum();
    let ideal = (total_queued + residual_total) as f64 / s_count as f64;
    match caps {
        None => queued
            .iter()
            .map(|&r| {
                [
                    (ideal - r as f64).max(1.0).round() as u64,
                    (bytes_total / s_count as u64).max(1),
                ]
            })
            .collect(),
        Some(caps) => {
            // Effective finish-together water level: each survivor should
            // end up with work proportional to its compute rate.
            let wsum: f64 = survivors.iter().map(|&s| caps[s as usize][0]).sum();
            let raw: Vec<f64> = survivors
                .iter()
                .zip(queued)
                .map(|(&s, &r)| {
                    let w = caps[s as usize][0];
                    ((total_queued + residual_total) as f64 * w / wsum - r as f64).max(0.0)
                })
                .collect();
            let rsum: f64 = raw.iter().sum();
            let flops: Vec<f64> = if rsum > 0.0 {
                raw.iter()
                    .map(|&x| x * residual_total as f64 / rsum)
                    .collect()
            } else {
                survivors
                    .iter()
                    .map(|&s| residual_total as f64 * caps[s as usize][0] / wsum)
                    .collect()
            };
            let nsum: f64 = survivors.iter().map(|&s| caps[s as usize][1]).sum();
            survivors
                .iter()
                .zip(&flops)
                .map(|(&s, &fl)| {
                    let net = caps[s as usize][1] / nsum;
                    [
                        fl.max(1.0).round() as u64,
                        (bytes_total as f64 * net).max(1.0).round() as u64,
                    ]
                })
                .collect()
        }
    }
}

/// Picks the survivor with the least effective load: raw flops when no
/// fault spec is active, flops divided by the survivor's compute rate when
/// one is (a straggler at half speed counts double). Ties break toward the
/// lowest rank for determinism.
fn pick_least_loaded(survivors: &[u32], load: &[u64], caps: Option<&[[f64; 2]]>) -> u32 {
    match caps {
        None => *survivors
            .iter()
            .min_by_key(|&&s| (load[s as usize], s))
            .expect("nonempty survivors"),
        Some(caps) => *survivors
            .iter()
            .min_by(|&&a, &&b| {
                let ta = load[a as usize] as f64 / caps[a as usize][0];
                let tb = load[b as usize] as f64 / caps[b as usize][0];
                ta.partial_cmp(&tb).unwrap().then(a.cmp(&b))
            })
            .expect("nonempty survivors"),
    }
}

/// Deterministic greedy fallback for the residual re-shard: heaviest unit
/// first into the shard with the most remaining flop capacity. `keyed` is
/// `(flops, tiebreak key)` per unit.
fn waterfill_by(keyed: &[(u64, u32)], targets: &[VertexWeight]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..keyed.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(keyed[i].0), keyed[i].1));
    let mut cap: Vec<i128> = targets.iter().map(|t| t[0] as i128).collect();
    let mut part = vec![0u32; keyed.len()];
    for i in order {
        let j = (0..cap.len())
            .max_by_key(|&j| (cap[j], std::cmp::Reverse(j)))
            .expect("nonempty targets");
        part[i] = j as u32;
        cap[j] -= keyed[i].0.max(1) as i128;
    }
    part
}

/// [`waterfill_by`] over residual re-shard units.
fn waterfill(units: &[Unit], targets: &[VertexWeight]) -> Vec<u32> {
    let keyed: Vec<(u64, u32)> = units.iter().map(|u| (u.flops, u.tb.0)).collect();
    waterfill_by(&keyed, targets)
}

/// The schedule's reduce byte model: read every partial plus the resident
/// accumulator, write the accumulator.
fn reduce_bytes(layout: &BatchLayout, items: &[ReduceItem]) -> u64 {
    items
        .iter()
        .map(|it| {
            let tb = &layout.token_blocks[it.target.0 as usize];
            let unit = match it.kind {
                PayloadKind::PartialO => tb.o_bytes,
                PayloadKind::PartialDq => tb.q_bytes,
                PayloadKind::PartialDkv => tb.kv_bytes,
                _ => 0,
            };
            unit * (it.sources.len() as u64 + 2)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Planner, PlannerConfig};
    use dcp_mask::MaskSpec;
    use dcp_types::{AttnSpec, ClusterSpec};

    fn plan_8dev() -> PlanOutput {
        let planner = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 2048,
                divisions: 4,
                ..Default::default()
            },
        );
        planner
            .plan(&[
                (32768, MaskSpec::Causal),
                (16384, MaskSpec::Causal),
                (8192, MaskSpec::Causal),
                (8192, MaskSpec::Causal),
            ])
            .unwrap()
    }

    /// The device with the most fused divisions, and that count.
    fn busiest_device(out: &PlanOutput) -> (u32, u32) {
        out.plan
            .fwd
            .devices
            .iter()
            .map(|s| {
                s.instrs
                    .iter()
                    .filter(|i| matches!(i, Instr::Attn { .. }))
                    .count() as u32
            })
            .enumerate()
            .max_by_key(|&(i, n)| (n, std::cmp::Reverse(i)))
            .map(|(i, n)| (i as u32, n))
            .unwrap()
    }

    #[test]
    fn patch_reassigns_only_unexecuted_blocks() {
        let out = plan_8dev();
        let (dev, nd) = busiest_device(&out);
        assert!(nd >= 2, "planner produced a single-division stream");
        let k = nd / 2;
        let ev = FailureEvent {
            device: dev,
            divisions_done: k,
        };
        let patch = RecoveryPlanner::new(RecoveryConfig::default())
            .plan_recovery(&out, &ev)
            .unwrap();
        assert!(patch.stats.redone_flops < patch.stats.failed_flops);
        // Every residual computation block moved to a shard; every executed
        // one stayed.
        let d = out.plan.num_devices;
        let (cut, executed, residual, _) =
            split_frontier(&out.plan.fwd.devices[dev as usize].instrs, k, dev).unwrap();
        assert!(cut > 0);
        for &c in &residual {
            assert!(patch.placement.comp_dev(c) >= d, "residual block on {c:?}");
        }
        for &c in &executed {
            assert_eq!(patch.placement.comp_dev(c), dev);
        }
        // Logical device count covers the shards.
        assert_eq!(
            patch.fwd.devices.len() as u32,
            d + patch.shard_hosts.len() as u32
        );
        assert_eq!(patch.shard_hosts.len(), 7);
    }

    #[test]
    fn ownership_and_production_move_to_shards() {
        let out = plan_8dev();
        let (dev, nd) = busiest_device(&out);
        assert!(nd >= 1);
        let ev = FailureEvent {
            device: dev,
            divisions_done: 1,
        };
        let patch = RecoveryPlanner::new(RecoveryConfig::default())
            .plan_recovery(&out, &ev)
            .unwrap();
        let d = out.plan.num_devices;
        for (i, &owner) in out.placement.token_to_dev.iter().enumerate() {
            let tb = TokenBlockId(i as u32);
            if owner == dev {
                assert!(patch.placement.token_dev(tb) >= d);
                assert!(patch.reowned.contains(&tb));
            } else {
                assert_eq!(patch.placement.token_dev(tb), owner);
            }
        }
        for (&(tb, _p), &shard) in &patch.producer_of {
            assert!(shard >= d);
            assert_ne!(out.placement.token_dev(tb), dev, "owner partials self-sent");
        }
        // No transfer in the patch still targets the failed owner with a
        // partial.
        for op in &patch.fwd.comms {
            for tr in &op.transfers {
                if matches!(tr.payload, Payload::PartialO(..)) {
                    assert_ne!(tr.to, dev, "partial still bound for the failed device");
                }
            }
        }
        // The timing plan stays on the physical ranks.
        assert_eq!(patch.timing.devices.len() as u32, d);
        for op in &patch.timing.comms {
            for tr in &op.transfers {
                assert!(tr.from < d && tr.to < d);
                assert_ne!(tr.from, tr.to);
            }
        }
        // Backward placement has nothing left on the failed rank.
        assert!(patch.bwd_placement.comp_to_dev.iter().all(|&x| x != dev));
        assert!(patch.bwd_placement.token_to_dev.iter().all(|&x| x != dev));
        assert_eq!(patch.bwd.num_devices, d);
    }

    #[test]
    fn failure_after_all_divisions_salvages_without_redo() {
        let out = plan_8dev();
        let (dev, nd) = busiest_device(&out);
        let patch = RecoveryPlanner::new(RecoveryConfig::default())
            .plan_recovery(
                &out,
                &FailureEvent {
                    device: dev,
                    divisions_done: nd,
                },
            )
            .unwrap();
        assert_eq!(patch.stats.redone_flops, 0);
        assert!(patch.stats.salvage_bytes > 0);
    }

    #[test]
    fn out_of_range_inputs_error() {
        let out = plan_8dev();
        let rp = RecoveryPlanner::new(RecoveryConfig::default());
        assert!(rp
            .plan_recovery(
                &out,
                &FailureEvent {
                    device: 99,
                    divisions_done: 0
                }
            )
            .is_err());
        assert!(rp
            .plan_recovery(
                &out,
                &FailureEvent {
                    device: 1,
                    divisions_done: 1000
                }
            )
            .is_err());
    }
}
