//! Elastic mid-iteration recovery: shrink-and-reshard a live plan onto the
//! surviving devices after a device loss.
//!
//! The planner (Sec. 4) assumes the device set is fixed for the whole
//! iteration. This module relaxes that: given a [`PlanOutput`] already in
//! flight, a [`FailureEvent`] naming the lost device and how many fused
//! attention divisions it completed (its execution frontier), a
//! [`RecoveryPlanner`] produces a [`RecoveryPatch`] that completes the phase
//! on the survivors **without recomputing anything the failed device already
//! finished**. One pipeline serves both phases (DESIGN.md "Recovery"):
//!
//! - every logical stream the failure kills is cut at its frontier, and its
//!   *un-executed* computation blocks, its ownership duties and the partials
//!   it still owed are grouped into **residual units** — accumulators that
//!   must stay colocated: one output accumulator per Q block going forward;
//!   connected components going backward, where an item folds into one `dQ`
//!   and one `dKV` running sum at once;
//! - units are re-sharded over the survivors against each survivor's
//!   *remaining* capacity (its own unfinished divisions): forward by the
//!   same hypergraph partitioner the planner uses (via
//!   [`dcp_hypergraph::PartitionConfig::with_part_targets`], greedy
//!   water-fill as the backstop), backward by water-fill alone;
//! - what the dead stream already reduced is **salvaged**: its raw
//!   accumulators ship to the replacement shards over dedicated salvage comm
//!   ops, so the shards fold the residual blocks into them exactly where the
//!   dead stream left off — online-softmax state forward, plain `dQ`/`dKV`
//!   sums backward — and the merged result is bitwise identical to an
//!   unfaulted run (the salvage and stand-in rules are DESIGN.md "Stream
//!   semantics", carried by [`RecoveryPatch::ctx`]);
//! - survivor instruction streams are reused **verbatim**: shards deposit
//!   the dead stream's outstanding partials under the original comm ids, so
//!   nothing downstream of the failure is regenerated. Only the dead
//!   stream (truncated at the frontier plus salvage launches) and the shard
//!   streams are new.
//!
//! The patch carries one rendering of the patched phase: `phase`, a plan
//! over `D + S` logical devices (shard `j` is logical device `D + j`, run by
//! survivor `ctx.shard_hosts[j]`) that the verifier, the numerical executor
//! and the cluster simulator all read under `ctx` — the simulator puts each
//! shard on its host's clock, and the recovered-vs-clean makespan delta is
//! the recovery cost charged into the iteration breakdown. A forward patch
//! also re-plans the backward phase on the survivors
//! ([`RecoveryPatch::bwd`]).
//!
//! Forward recovery is **re-entrant**: a [`RecoveryPatch`] is itself a
//! recoverable plan. If a survivor dies while a patch is in flight —
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
//! With [`RecoveryPlanner::with_fault_spec`] the re-shard targets are
//! scaled by estimated survivor health (straggler slowdowns shrink a
//! survivor's flop target, degraded links its byte target), closing the
//! detect → estimate → place loop inside recovery itself. A healthy or
//! absent spec leaves the targets byte-identical to the fault-blind path.

use std::collections::{BTreeMap, HashMap, HashSet};

use dcp_blocks::{BatchLayout, CompBlockId, TokenBlockId};
use dcp_hypergraph::{partition, HypergraphBuilder, PartitionConfig, VertexWeight};
use dcp_obs::{Event, ObsHandle, Source as ObsSource, Span};
use dcp_sched::stream::check_ids;
use dcp_sched::{
    build_plan, verify_phase, verify_plan, BufferStats, CommId, CommOp, DeviceStream,
    ExecutionPlan, Instr, Payload, PayloadKind, PhasePlan, Placement, RecoveryCtx, ReduceItem,
    ScheduleConfig, Transfer,
};
use dcp_sim::{FaultSpec, MIN_CAPACITY_WEIGHT};
use dcp_types::{DcpError, DcpResult};
use serde::{Deserialize, Serialize};

use crate::planner::PlanOutput;

/// A device loss at a division boundary of the phase in flight.
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
    /// Attention FLOPs the dying streams carried in the plan being patched.
    pub failed_flops: u64,
    /// FLOPs re-assigned to shards (the dying streams' un-executed blocks).
    /// Everything they finished is salvaged, not redone.
    pub redone_flops: u64,
    /// Bytes of raw accumulators evacuated from the dying streams.
    pub salvage_bytes: u64,
    /// Bytes of Q/KV (and dO, backward) inputs the shards re-fetch for
    /// residual blocks.
    pub refetch_bytes: u64,
    /// Residual units re-sharded over the survivors.
    pub residual_units: usize,
    /// Whether the hypergraph re-shard fell back to greedy waterfilling.
    pub greedy_fallback: bool,
    /// Wall time spent building this patch.
    pub plan_wall_s: f64,
    /// How many failures this patch composes over: `1` for a patch against
    /// a clean plan, `2` for a patch over a depth-1 patch, and so on.
    pub cascade_depth: u32,
}

/// The shrink-and-reshard patch for one [`FailureEvent`], in either phase.
///
/// `phase` is the patched plan: `D + ctx.shard_hosts.len()` logical devices,
/// verified, executed (`dcp_exec::execute_forward_recovery` /
/// `execute_backward_recovery`) and simulated (`dcp_sim::simulate_on`) under
/// `ctx`.
#[derive(Debug, Clone)]
pub struct RecoveryPatch {
    /// The most recently failed device rank (this patch's event).
    pub failed: u32,
    /// Divisions the failed device completed (copied from the event).
    pub divisions_done: u32,
    /// Whether `phase` is the backward phase
    /// ([`RecoveryPlanner::plan_backward_recovery`]).
    pub backward: bool,
    /// Every physical rank lost so far, in failure order. The last entry is
    /// `failed`; earlier entries come from the prior patch when composing.
    pub failed_devices: Vec<u32>,
    /// Placement over the `D + S` logical devices of `phase`.
    pub placement: Placement,
    /// The patched phase over `D + S` logical devices.
    pub phase: PhasePlan,
    /// The recovery semantics of `phase` — what the verifier, the executor
    /// and the simulator read it under, cumulative across cascade depths:
    /// every dead *logical* stream (lost ranks plus the shard streams they
    /// hosted; their truncated prefixes remain in `phase`), the salvage comm
    /// ids, the shard standing in for each owed partial, the token blocks
    /// whose ownership moved off a dead stream, and the physical survivor
    /// hosting each shard (earlier patches' shards keep their slots).
    pub ctx: RecoveryCtx,
    /// Forward patches only: the backward phase re-planned over the `D`
    /// ranks with nothing on any failed one — its placement and the freshly
    /// built plan (use the plan's `bwd` phase). `None` on a backward patch,
    /// whose own `phase` finishes the iteration.
    pub bwd: Option<(Placement, ExecutionPlan)>,
    /// Patch accounting (for this event; sets `cascade_depth`).
    pub stats: RecoveryStats,
}

/// One residual unit: accumulators of a dying stream that must move to one
/// shard together — with the un-executed computation blocks that fold into
/// them and the token blocks whose ownership follows — so the salvaged
/// state, the residual folds and the ownership duties stay colocated.
#[derive(Debug)]
struct Unit {
    /// The accumulators, each written as the partial its dying stream would
    /// ship (`dQ` before `dKV`, each in discovery order — the order salvage
    /// ops carry them in). Never empty.
    accs: Vec<Payload>,
    /// Residual computation blocks folding into them, in stream order.
    items: Vec<CompBlockId>,
    flops: u64,
    /// Token blocks the dying stream owned among them.
    owned: Vec<TokenBlockId>,
}

/// Builds [`RecoveryPatch`]es for failures against live [`PlanOutput`]s.
#[derive(Debug, Clone)]
pub struct RecoveryPlanner {
    cfg: RecoveryConfig,
    obs: ObsHandle,
    fault_spec: Option<FaultSpec>,
}

/// One dying logical stream: its state at the execution frontier, then its
/// residual units and where the re-shard put them.
struct DyingView {
    /// The dying logical stream id.
    l: u32,
    /// Fused divisions this stream completed.
    k: u32,
    /// Instruction index of the frontier cut.
    cut: usize,
    /// Accumulators live at the cut, as the partial this stream would ship:
    /// those of executed items plus those installed by salvage waits in the
    /// prefix.
    live: HashSet<Payload>,
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
    /// Each owed partial, as the payload its transfer names.
    outstanding: Vec<Payload>,
    /// What it leaves behind, grouped ([`residual_units`]).
    units: Vec<Unit>,
    /// Logical id of this stream's first shard (one per survivor follows);
    /// `None` when it got no shard block.
    shard0: Option<u32>,
    /// Survivor index each unit was assigned to.
    part: Vec<u32>,
}

impl DyingView {
    /// Each unit with the survivor index and the shard (logical device) it
    /// was assigned to.
    fn placed(&self) -> impl Iterator<Item = (&Unit, usize, u32)> {
        let shard0 = self.shard0.unwrap_or(0); // no shard block, no units
        let assigned = self.units.iter().zip(&self.part);
        assigned.map(move |(u, &j)| (u, j as usize, shard0 + j))
    }
}

/// The plan being patched: the clean phase at depth 1, the prior patch's
/// rendering when composing.
struct Base<'a> {
    layout: &'a BatchLayout,
    /// The clean placement: who physically holds each block's inputs.
    origin: &'a Placement,
    phase: &'a PhasePlan,
    placement: &'a Placement,
    /// Physical ranks `D`; logical streams from `D` up are shards.
    d_total: u32,
    backward: bool,
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

    /// Attaches an observability sink: a patch emits a `device_lost`
    /// instant, a `recovery_plan` span (whose value is the cascade depth)
    /// and salvage/redo counters under [`dcp_obs::Source::Planner`].
    #[must_use]
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a fault estimate: re-shard targets are scaled by each
    /// survivor's estimated health — straggler slowdowns shrink its flop
    /// target, degraded or flapping links its byte target. A
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

    /// Produces the shrink-and-reshard patch for a forward-phase `ev`
    /// against a clean `out` (cascade depth 1).
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::InvalidArgument`] if the failed device is out of
    /// range or there are no survivors;
    /// [`DcpError::InvalidFailureEvent`] (carrying the device and the
    /// offending frontier) if `divisions_done` exceeds the device's
    /// division count; [`DcpError::InvalidPlan`] if the plan names ids
    /// outside its own tables or the layout, its streams are internally
    /// inconsistent, or a rendering fails verification.
    pub fn plan_recovery(&self, out: &PlanOutput, ev: &FailureEvent) -> DcpResult<RecoveryPatch> {
        self.plan_patch(out, None, ev, false)
    }

    /// Composes a new forward patch **over a prior one**: `ev` kills a
    /// survivor of `prior` (possibly one hosting spliced recovery shards)
    /// and the result completes the batch on the remaining survivors,
    /// bitwise identical to the clean run.
    ///
    /// `ev.divisions_done` counts the fused divisions the dying rank
    /// completed across *all* the logical streams it was running, in splice
    /// order: its own truncated-or-original stream first, then each hosted
    /// shard stream in ascending logical id.
    ///
    /// # Errors
    ///
    /// As [`RecoveryPlanner::plan_recovery`] (`prior` is checked like
    /// `out`); additionally [`DcpError::InvalidArgument`] if `ev.device`
    /// already failed or `prior` is a backward patch.
    pub fn plan_recovery_onto(
        &self,
        out: &PlanOutput,
        prior: &RecoveryPatch,
        ev: &FailureEvent,
    ) -> DcpResult<RecoveryPatch> {
        self.plan_patch(out, Some(prior), ev, false)
    }

    /// Produces the patch for a failure **during the backward phase**.
    ///
    /// Instead of re-planning the whole backward from scratch, the dead
    /// stream is cut at its `ev.divisions_done`-th fused `AttnBwd` division
    /// — its reduction frontier — and its partial `dQ`/`dKV` running sums
    /// are salvaged. Gradient accumulators are plain sums, so the salvaged
    /// state folds in bitwise exactly where the dead stream stopped.
    ///
    /// # Errors
    ///
    /// As [`RecoveryPlanner::plan_recovery`].
    pub fn plan_backward_recovery(
        &self,
        out: &PlanOutput,
        ev: &FailureEvent,
    ) -> DcpResult<RecoveryPatch> {
        self.plan_patch(out, None, ev, true)
    }

    /// The one patch builder behind the three entry points: cut every dying
    /// stream at its frontier, group and assign its residual work (the only
    /// steps the direction shapes beyond payload kinds), then [`render`] and
    /// verify.
    fn plan_patch(
        &self,
        out: &PlanOutput,
        prior: Option<&RecoveryPatch>,
        ev: &FailureEvent,
        backward: bool,
    ) -> DcpResult<RecoveryPatch> {
        let failed = ev.device;
        let span = Span::enter(
            self.obs.sink(),
            Event::span(ObsSource::Planner, "recovery_plan").with_device(failed),
        );
        let d_total = out.plan.num_devices;
        let layout = &out.layout;
        if prior.is_some_and(|p| p.backward != backward) {
            return Err(DcpError::invalid_argument(
                "cannot compose a forward patch over a backward one",
            ));
        }
        let clean = if backward {
            &out.plan.bwd
        } else {
            &out.plan.fwd
        };
        let base = Base {
            layout,
            origin: &out.placement,
            phase: prior.map_or(clean, |p| &p.phase),
            placement: prior.map_or(&out.placement, |p| &p.placement),
            d_total,
            backward,
        };
        let base_hosts: &[u32] = prior.map_or(&[], |p| &p.ctx.shard_hosts);
        let prior_failed: &[u32] = prior.map_or(&[], |p| &p.failed_devices);
        let mut ctx = prior.map(|p| p.ctx.clone()).unwrap_or_default();

        // `PlanOutput` and patches deserialize: check every id and shape
        // the patcher indexes by, once, before it does.
        let l_total = base.phase.devices.len() as u32;
        let bwd_base = prior
            .and_then(|p| p.bwd.as_ref())
            .map(|(placement, _)| placement);
        let shape = |what: &str, got: u32, want: u32| match got == want {
            true => Ok(()),
            false => Err(DcpError::invalid_plan(format!(
                "the plan to patch has {got} {what}, expected {want}"
            ))),
        };
        shape("streams", l_total, d_total + base_hosts.len() as u32)?;
        shape(
            "devices in its placement",
            base.placement.num_devices,
            l_total,
        )?;
        shape(
            "devices in the clean placement",
            base.origin.num_devices,
            d_total,
        )?;
        let bwd_devices = bwd_base.map_or(d_total, |p| p.num_devices);
        shape("devices in its backward placement", bwd_devices, d_total)?;
        check_ids(base.phase, Some(layout))?;
        let placements = [Some(base.origin), prior.map(|p| &p.placement), bwd_base];
        for p in placements.into_iter().flatten() {
            p.validate(layout)
                .map_err(|e| DcpError::invalid_plan(e.to_string()))?;
        }

        if failed >= d_total {
            return Err(DcpError::invalid_argument(format!(
                "failed device {failed} out of range for {d_total} devices"
            )));
        }
        if prior_failed.contains(&failed) {
            return Err(DcpError::invalid_argument(format!(
                "device {failed} already failed in the prior patch"
            )));
        }
        let survivors: Vec<u32> = (0..d_total)
            .filter(|x| *x != failed && !prior_failed.contains(x))
            .collect();
        if survivors.is_empty() {
            return Err(DcpError::invalid_argument(
                "cannot recover: no surviving devices",
            ));
        }

        // --- 1. Dying logical streams, in splice order, each split at its
        // frontier. The rank's own stream first, then any live shard
        // streams it was hosting (ascending logical id);
        // `ev.divisions_done` distributes across them in that order.
        let hosted_live = |host: u32| {
            let ctx = &ctx;
            (d_total..l_total)
                .filter(move |&l| base_hosts[(l - d_total) as usize] == host)
                .filter(move |l| !ctx.failed.contains(l))
        };
        let mut budget = ev.divisions_done;
        let mut views: Vec<DyingView> = Vec::new();
        let mut failed_flops = 0u64;
        for l in std::iter::once(failed).chain(hosted_live(failed)) {
            let instrs = &base.phase.devices[l as usize].instrs;
            let is_attn = |i: &&Instr| matches!(i, Instr::Attn { .. } | Instr::AttnBwd { .. });
            let k = budget.min(instrs.iter().filter(is_attn).count() as u32);
            budget -= k;
            let (view, flops) = dying_view(&base, &ctx, l, k, failed)?;
            failed_flops += flops;
            views.push(view);
        }
        if budget > 0 {
            return Err(DcpError::invalid_failure_event(failed, ev.divisions_done));
        }

        // --- 2. Re-shard each dying stream onto survivor capacity. -------
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
                let flops = |l: u32, k| remaining_flops(&base.phase.devices[l as usize].instrs, k);
                flops(s, k_own) + hosted_live(s).map(|l| flops(l, 0)).sum::<u64>()
            })
            .collect();
        let mut greedy_fallback = false;
        for view in &mut views {
            // A forward stream that left nothing behind needs no shards; a
            // backward patch always carries its one block, so its shard
            // hosts are the survivors whatever the victim held.
            if view.units.is_empty() && !backward {
                continue;
            }
            view.shard0 = Some(d_total + ctx.shard_hosts.len() as u32);
            ctx.shard_hosts.extend(&survivors);
            let flops: u64 = view.units.iter().map(|u| u.flops).sum();
            let bytes: u64 = view.units.iter().map(|u| unit_bytes(layout, u)).sum();
            let targets = recovery_targets(&queued, &survivors, flops, bytes, caps.as_deref());
            // Backward units are whole dQ∼dKV components — few and coarse —
            // so they water-fill directly, as a lone survivor's must.
            view.part = if backward || survivors.len() == 1 {
                waterfill(&view.units, &targets)
            } else {
                match self.partition_units(layout, &view.units, &targets)? {
                    Some(assignment) => assignment,
                    None => {
                        greedy_fallback = true;
                        waterfill(&view.units, &targets)
                    }
                }
            };
            for (u, j, _) in view.placed() {
                queued[j] += u.flops;
            }
        }

        // --- 3. Render the patched phase, and for a forward failure the
        // backward phase re-planned on the survivors. ----------------------
        ctx.failed.extend(views.iter().map(|v| v.l));
        let n_shards = ctx.shard_hosts.len() as u32;
        let rendered = render(&base, &mut ctx, &views, survivors.len(), n_shards)?;
        let bwd = match backward {
            true => None,
            false => {
                let from = bwd_base.unwrap_or(base.origin);
                let caps = caps.as_deref();
                Some(self.replan_backward(layout, from, &views, &survivors, failed, caps)?)
            }
        };

        // --- 4. Verify everything that ships: the patched phase under the
        // patch's recovery rules, a re-planned backward phase as an
        // ordinary plan.
        let dir = if backward { "bwd" } else { "fwd" };
        verify_phase(layout, &rendered.placement, &rendered.phase, backward, &ctx)
            .map_err(|d| DcpError::invalid_plan(format!("recovery {dir} patch: {d}")))?;
        if let Some((placement, plan)) = &bwd {
            verify_plan(layout, placement, plan)
                .map_err(|d| DcpError::invalid_plan(format!("recovery bwd plan: {d}")))?;
        }

        let mut stats = RecoveryStats {
            failed_flops,
            redone_flops: views.iter().flat_map(|v| &v.units).map(|u| u.flops).sum(),
            salvage_bytes: rendered.salvage_bytes,
            refetch_bytes: rendered.refetch_bytes,
            residual_units: views.iter().map(|v| v.units.len()).sum(),
            greedy_fallback,
            plan_wall_s: 0.0,
            cascade_depth: prior.map_or(0, |p| p.stats.cascade_depth) + 1,
        };
        stats.plan_wall_s = self.emit_obs(ev, &stats, span);
        Ok(RecoveryPatch {
            failed,
            divisions_done: ev.divisions_done,
            backward,
            failed_devices: prior_failed.iter().copied().chain([failed]).collect(),
            placement: rendered.placement,
            phase: rendered.phase,
            ctx,
            bwd,
            stats,
        })
    }

    /// The forward re-shard: the planner's hypergraph partitioner over the
    /// units against per-survivor `targets`, `None` when it cannot balance
    /// them (the caller water-fills instead).
    fn partition_units(
        &self,
        layout: &BatchLayout,
        units: &[Unit],
        targets: &[VertexWeight],
    ) -> DcpResult<Option<Vec<u32>>> {
        let mut b = HypergraphBuilder::new(units.len());
        for (i, u) in units.iter().enumerate() {
            b.set_vertex_weight(i, [u.flops.max(1), unit_bytes(layout, u)]);
        }
        // Units sharing a KV input want to land on the same shard so the
        // input is fetched once.
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
        let mut pc = PartitionConfig::new(targets.len() as u32)
            .with_epsilon(self.cfg.epsilon)
            .with_part_targets(targets.to_vec());
        pc.eps[1] = self.cfg.epsilon;
        pc.seed = self.cfg.seed;
        Ok(partition(&hg, &pc)
            .ok()
            .filter(|p| p.balanced)
            .map(|p| p.assignment))
    }

    /// After a forward failure the backward phase is re-planned from
    /// scratch on the survivors: `from` (the clean placement, or the prior
    /// patch's backward one) with every unit moved to the physical host of
    /// its shard, and whatever else sat on the dead rank water-filled.
    fn replan_backward(
        &self,
        layout: &BatchLayout,
        from: &Placement,
        views: &[DyingView],
        survivors: &[u32],
        failed: u32,
        caps: Option<&[[f64; 2]]>,
    ) -> DcpResult<(Placement, ExecutionPlan)> {
        let mut placement = from.clone();
        for (u, j, _) in views.iter().flat_map(DyingView::placed) {
            for &tb in &u.owned {
                placement.token_to_dev[tb.0 as usize] = survivors[j];
            }
            for &c in &u.items {
                placement.comp_to_dev[c.0 as usize] = survivors[j];
            }
        }
        if placement.token_to_dev.contains(&failed) {
            return Err(DcpError::invalid_plan(format!(
                "backward placement leaves a token block on rank {failed}, \
                 which the patched forward phase does not"
            )));
        }
        let mut load = vec![0u64; from.num_devices as usize];
        for (c, &dev) in placement.comp_to_dev.iter().enumerate() {
            if dev != failed {
                load[dev as usize] += layout.comp_blocks[c].flops;
            }
        }
        // The dead rank's *executed* blocks still need a backward home;
        // waterfill them over the survivors by total flop load (effective
        // time when a fault spec scales survivor speed).
        for (c, dev) in placement.comp_to_dev.iter_mut().enumerate() {
            if *dev == failed {
                *dev = pick_least_loaded(survivors, &load, caps);
                load[*dev as usize] += layout.comp_blocks[c].flops;
            }
        }
        let cfg = ScheduleConfig {
            divisions: self.cfg.divisions,
            ..Default::default()
        };
        let plan = build_plan(layout, &placement, &cfg)?;
        Ok((placement, plan))
    }

    /// Closes the patch's span and emits its events — `device_lost`, the
    /// `recovery_plan` span (value = cascade depth), the redo and salvage
    /// counters — returning the measured wall seconds.
    fn emit_obs(&self, ev: &FailureEvent, stats: &RecoveryStats, mut span: Span<'_>) -> f64 {
        if !self.obs.enabled() {
            return span.finish();
        }
        self.obs.record(
            Event::instant(ObsSource::Planner, "device_lost")
                .with_device(ev.device)
                .with_division(ev.divisions_done),
        );
        span.update(|e| e.value = Some(stats.cascade_depth as f64));
        let wall = span.finish();
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
        wall
    }
}

/// The producer named by a partial payload; `None` for the inputs.
fn producer(p: Payload) -> Option<u32> {
    match p {
        Payload::PartialO(_, d) | Payload::PartialDq(_, d) | Payload::PartialDkv(_, d) => Some(d),
        Payload::Q(_) | Payload::Kv(_) | Payload::DO(_) => None,
    }
}

/// Partial `p` as stream `l` would produce it.
fn produced_by(p: Payload, l: u32) -> Payload {
    match p {
        Payload::PartialO(tb, _) => Payload::PartialO(tb, l),
        Payload::PartialDq(tb, _) => Payload::PartialDq(tb, l),
        Payload::PartialDkv(tb, _) => Payload::PartialDkv(tb, l),
        input => input,
    }
}

/// The accumulators stream `l` folds a `(q, kv)` block pair into, as the
/// partials it would ship: the output of the Q block going forward; `dQ` of
/// the Q block and, colocated with it, `dKV` of the KV block going
/// backward. Owning a token block is holding the pair for `q == kv`.
fn accumulators(
    q: TokenBlockId,
    kv: TokenBlockId,
    l: u32,
    backward: bool,
) -> (Payload, Option<Payload>) {
    match backward {
        false => (Payload::PartialO(q, l), None),
        true => (Payload::PartialDq(q, l), Some(Payload::PartialDkv(kv, l))),
    }
}

/// [`accumulators`] of computation block `c` run by stream `l`.
fn item_accumulators(base: &Base<'_>, c: CompBlockId, l: u32) -> (Payload, Option<Payload>) {
    let cb = &base.layout.comp_blocks[c.0 as usize];
    accumulators(cb.q_block, cb.kv_block, l, base.backward)
}

/// The inputs computation block `c` reads, with their sizes: Q and KV, plus
/// dO going backward.
fn inputs(layout: &BatchLayout, c: CompBlockId, backward: bool) -> Vec<(Payload, u64)> {
    let cb = &layout.comp_blocks[c.0 as usize];
    let (qb, kb) = (layout.q_block_of(c), layout.kv_block_of(c));
    let mut v = vec![
        (Payload::Q(cb.q_block), qb.q_bytes),
        (Payload::Kv(cb.kv_block), kb.kv_bytes),
    ];
    if backward {
        v.push((Payload::DO(cb.q_block), qb.o_bytes));
    }
    v
}

/// Bytes of `tb`'s partial of `kind` (the accumulator it ships).
fn partial_bytes(layout: &BatchLayout, tb: TokenBlockId, kind: PayloadKind) -> u64 {
    let tb = &layout.token_blocks[tb.0 as usize];
    match kind {
        PayloadKind::PartialO => tb.o_bytes,
        PayloadKind::PartialDq => tb.q_bytes,
        PayloadKind::PartialDkv => tb.kv_bytes,
        _ => 0,
    }
}

/// Bytes a unit brings to its shard: its accumulators plus the resident
/// data of the blocks re-owned with it.
fn unit_bytes(layout: &BatchLayout, u: &Unit) -> u64 {
    let accs = u
        .accs
        .iter()
        .map(|a| partial_bytes(layout, a.token_block(), a.kind()));
    let owned = u.owned.iter();
    accs.chain(owned.map(|tb| layout.token_blocks[tb.0 as usize].total_bytes()))
        .sum()
}

/// Cuts dying stream `l` of the plan being patched at its `k`-th division
/// and groups what it leaves behind into residual units. Also returns the
/// stream's total attention flops. `failed` is the physical rank, for the
/// typed frontier error.
fn dying_view(
    base: &Base<'_>,
    ctx: &RecoveryCtx,
    l: u32,
    k: u32,
    failed: u32,
) -> DcpResult<(DyingView, u64)> {
    let instrs = &base.phase.devices[l as usize].instrs;
    let (cut, executed, residual, total) = split_frontier(instrs, k, failed)?;
    let mut live: HashSet<Payload> = HashSet::new();
    for (a, b) in executed.iter().map(|&c| item_accumulators(base, c, l)) {
        live.extend(std::iter::once(a).chain(b));
    }
    let mut kept_waits: HashSet<u32> = HashSet::new();
    for ins in &instrs[..cut] {
        if let Instr::CommWait(cid) = ins {
            kept_waits.insert(cid.0);
            if ctx.salvage_comms.contains(&cid.0) {
                // A replayed salvage wait re-installs an inherited
                // accumulator — live state this stream can re-ship.
                let arriving = base.phase.comms[cid.0 as usize].transfers.iter();
                let installed = arriving.filter(|tr| tr.to == l && producer(tr.payload).is_some());
                live.extend(installed.map(|tr| produced_by(tr.payload, l)));
            }
        }
    }
    let tail_waits: Vec<u32> = instrs[cut..]
        .iter()
        .filter_map(|ins| match ins {
            Instr::CommWait(cid) if !ctx.salvage_comms.contains(&cid.0) => Some(cid.0),
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
    // Outstanding out-comms: partials launched after the frontier that this
    // stream produces, for itself or standing in for an earlier casualty.
    let mut residual_out_cids: Vec<u32> = Vec::new();
    let mut outstanding: Vec<Payload> = Vec::new();
    for ins in &instrs[cut..] {
        if let Instr::CommLaunch(cid) = ins {
            let before = outstanding.len();
            let sent = base.phase.comms[cid.0 as usize].transfers.iter();
            let owed = |p: &Payload| producer(*p) == Some(l) || ctx.stand_in.get(p) == Some(&l);
            outstanding.extend(sent.map(|tr| tr.payload).filter(owed));
            if outstanding.len() > before {
                residual_out_cids.push(cid.0);
            }
        }
    }

    let units = residual_units(base, l, &residual, &outstanding);
    let view = DyingView {
        l,
        k,
        cut,
        live,
        residual,
        kept_waits,
        tail_waits,
        reduce_items,
        residual_out_cids,
        outstanding,
        units,
        shard0: None,
        part: Vec::new(),
    };
    Ok((view, total))
}

/// Groups what dying stream `l` leaves behind — its `residual` items, the
/// token blocks it owns and the partials it still owes (`outstanding`) —
/// into residual units: the components of the graph whose nodes are the
/// stream's surviving accumulators and whose edges join the two that one
/// residual item, or one owned block, folds into together, so residual
/// folds extend the salvaged state in clean stream order. Forward there is
/// no second accumulator and a unit is one Q block's; backward an item
/// links its `dQ` to its `dKV`. An owed partial is a node too: a zero-item
/// unit keeps an executed-but-unsent block's salvaged accumulator attached
/// to a shard that re-deposits it.
///
/// Units of different dying streams never merge: two streams can each hold
/// a distinct accumulator for one token block (owner reduce state vs. an
/// inherited outstanding partial), and merging them would change the
/// reduction tree — breaking bitwise equality with the clean run.
fn residual_units(
    base: &Base<'_>,
    l: u32,
    residual: &[CompBlockId],
    outstanding: &[Payload],
) -> Vec<Unit> {
    let layout = base.layout;
    let mut nodes: Vec<Payload> = Vec::new();
    let mut node_id: HashMap<Payload, usize> = HashMap::new();
    let mut parent: Vec<usize> = Vec::new();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    // Joins the pair's nodes (created on first sight) and returns the first.
    let mut colocate = |(a, b): (Payload, Option<Payload>)| {
        let mut node = |acc: Payload| {
            *node_id.entry(acc).or_insert_with(|| {
                nodes.push(acc);
                parent.push(parent.len());
                parent.len() - 1
            })
        };
        let na = node(a);
        if let Some(nb) = b.map(&mut node) {
            let (ra, rb) = (find(&mut parent, na), find(&mut parent, nb));
            parent[ra.max(rb)] = ra.min(rb);
        }
        na
    };
    let owned: Vec<TokenBlockId> = (0..layout.token_blocks.len() as u32)
        .map(TokenBlockId)
        .filter(|&tb| base.placement.token_dev(tb) == l)
        .collect();
    let item_nodes: Vec<usize> = residual
        .iter()
        .map(|&c| colocate(item_accumulators(base, c, l)))
        .collect();
    let owned_nodes: Vec<usize> = owned
        .iter()
        .map(|&tb| colocate(accumulators(tb, tb, l, base.backward)))
        .collect();
    for &p in outstanding {
        colocate((produced_by(p, l), None));
    }
    // One unit per component, in node discovery order.
    let mut units: Vec<Unit> = Vec::new();
    let mut unit_of_root: HashMap<usize, usize> = HashMap::new();
    let mut unit_of_node: Vec<usize> = Vec::with_capacity(nodes.len());
    for (i, &acc) in nodes.iter().enumerate() {
        let u = *unit_of_root.entry(find(&mut parent, i)).or_insert_with(|| {
            units.push(Unit {
                accs: Vec::new(),
                items: Vec::new(),
                flops: 0,
                owned: Vec::new(),
            });
            units.len() - 1
        });
        units[u].accs.push(acc);
        unit_of_node.push(u);
    }
    for u in &mut units {
        u.accs.sort_by_key(Payload::kind);
    }
    for (&c, &n) in residual.iter().zip(&item_nodes) {
        let u = &mut units[unit_of_node[n]];
        u.items.push(c);
        u.flops += layout.comp_blocks[c.0 as usize].flops;
    }
    for (&tb, &n) in owned.iter().zip(&owned_nodes) {
        units[unit_of_node[n]].owned.push(tb);
    }
    units
}

/// What [`render`] produces besides extending the patch's [`RecoveryCtx`].
struct Rendered {
    placement: Placement,
    phase: PhasePlan,
    salvage_bytes: u64,
    refetch_bytes: u64,
}

/// Appends one op per (dying stream, shard) pair with something to carry,
/// ids in that order. Returns the op of view `v`'s `j`-th shard as
/// `cids[v][j]`, and the bytes carried in total.
fn push_ops(
    comms: &mut Vec<CommOp>,
    per_view: Vec<Vec<Vec<Transfer>>>,
) -> (Vec<Vec<Option<CommId>>>, u64) {
    let mut bytes = 0u64;
    let mut push = |transfers: Vec<Transfer>| {
        bytes += transfers.iter().map(|t| t.bytes).sum::<u64>();
        (!transfers.is_empty()).then(|| {
            comms.push(CommOp { transfers });
            CommId(comms.len() as u32 - 1)
        })
    };
    let cids = per_view
        .into_iter()
        .map(|per_shard| per_shard.into_iter().map(&mut push).collect())
        .collect();
    (cids, bytes)
}

/// Renders the patched phase over `D + n_shards` logical devices from the
/// plan being patched and the dying streams' assigned units — the one place
/// the subtle rules live, for both directions: what a kept-prefix wait
/// pins, who stands in for an owed partial, and that a shard waits for its
/// salvage before the first residual fold.
fn render(
    base: &Base<'_>,
    ctx: &mut RecoveryCtx,
    views: &[DyingView],
    s_count: usize,
    n_shards: u32,
) -> DcpResult<Rendered> {
    let layout = base.layout;

    // --- Patched placement over the grown logical device set. ------------
    let mut placement = Placement {
        num_devices: base.d_total + n_shards,
        ..base.placement.clone()
    };
    let mut acc_dev: HashMap<Payload, u32> = HashMap::new();
    for (u, _, dev) in views.iter().flat_map(DyingView::placed) {
        acc_dev.extend(u.accs.iter().map(|&a| (a, dev)));
        for &tb in &u.owned {
            placement.token_to_dev[tb.0 as usize] = dev;
            ctx.reowned.insert(tb);
        }
        for &c in &u.items {
            placement.comp_to_dev[c.0 as usize] = dev;
        }
    }
    let shard_of = |acc: Payload| {
        acc_dev.get(&acc).copied().ok_or_else(|| {
            DcpError::invalid_plan(format!(
                "{acc:?} belongs to a dying stream that has no residual unit for it"
            ))
        })
    };

    // --- Patched comm ops. -----------------------------------------------
    // Partials bound for a dying stream move with the block — unless the
    // receiving wait sits in the kept prefix, which replays it. Ordinary
    // partials target the block's owner, so they follow ownership; a prior
    // patch's salvage evacuation follows the unit that was going to
    // consume it.
    let mut comms: Vec<CommOp> = base.phase.comms.clone();
    for (cid, op) in comms.iter_mut().enumerate() {
        let cid = cid as u32;
        for tr in &mut op.transfers {
            let Some(view) = views.iter().find(|v| v.l == tr.to) else {
                continue;
            };
            if producer(tr.payload).is_none() || view.kept_waits.contains(&cid) {
                continue;
            }
            tr.to = match ctx.salvage_comms.contains(&cid) {
                true => shard_of(produced_by(tr.payload, tr.to))?,
                false => placement.token_dev(tr.payload.token_block()),
            };
        }
    }
    // Outstanding partials now deposit from each unit's new shard.
    for view in views {
        for &p in &view.outstanding {
            ctx.stand_in.insert(p, shard_of(produced_by(p, view.l))?);
        }
    }
    // Salvage ops: live accumulators a dying stream built (or had
    // re-installed) before its frontier that a shard still needs — residual
    // folds, outstanding partials, or final assembly of a re-owned block.
    let salvage = |view: &DyingView| {
        let mut per_shard: Vec<Vec<Transfer>> = vec![Vec::new(); s_count];
        for (u, j, dev) in view.placed() {
            let live = u.accs.iter().filter(|a| view.live.contains(a));
            per_shard[j].extend(live.map(|&payload| Transfer {
                from: view.l,
                to: dev,
                payload,
                bytes: partial_bytes(layout, payload.token_block(), payload.kind()),
            }));
        }
        per_shard
    };
    let (salvage_cid, salvage_bytes) = push_ops(&mut comms, views.iter().map(salvage).collect());
    let new_salvage = salvage_cid.iter().flatten().flatten();
    ctx.salvage_comms.extend(new_salvage.map(|cid| cid.0));
    // Input re-fetch ops: the slices a shard's residual blocks read that it
    // does not own under the patched placement. `from` is the original
    // owner — the device physically holding the data (dead devices keep
    // serving resident blocks while draining, which the verifier admits
    // via the re-owned set).
    let refetch = |view: &DyingView| {
        let mut per_shard: Vec<Vec<Transfer>> = vec![Vec::new(); s_count];
        let mut seen: HashSet<(u32, Payload)> = HashSet::new();
        for (u, j, dev) in view.placed() {
            for (payload, bytes) in u
                .items
                .iter()
                .flat_map(|&c| inputs(layout, c, base.backward))
            {
                let tb = payload.token_block();
                if placement.token_dev(tb) != dev && seen.insert((dev, payload)) {
                    per_shard[j].push(Transfer {
                        from: base.origin.token_dev(tb),
                        to: dev,
                        payload,
                        bytes,
                    });
                }
            }
        }
        per_shard
    };
    let (fetch_cid, refetch_bytes) = push_ops(&mut comms, views.iter().map(refetch).collect());

    // --- Streams: truncate the dying streams, emit shards. ---------------
    let mut devices: Vec<DeviceStream> = base.phase.devices.clone();
    for (view, cids) in views.iter().zip(&salvage_cid) {
        let instrs = &mut devices[view.l as usize].instrs;
        instrs.truncate(view.cut);
        instrs.extend(cids.iter().flatten().map(|&cid| Instr::CommLaunch(cid)));
    }
    let base_ncomms = base.phase.comms.len() as u32;
    for (v, view) in views.iter().enumerate() {
        let Some(shard0) = view.shard0 else { continue };
        for j in 0..s_count {
            let dev = shard0 + j as u32;
            let lands_here = |cid: &u32| comms[*cid as usize].transfers.iter().any(|t| t.to == dev);
            let wait = |cid: u32| Instr::CommWait(CommId(cid));
            let mut instrs: Vec<Instr> = Vec::new();
            instrs.extend(fetch_cid[v][j].map(Instr::CommLaunch));
            // Old salvage evacuations whose receiving wait was truncated
            // now land on new shards; those shards must wait on them — as
            // on their own salvage — before any residual fold touches the
            // installed accumulator.
            let inherited = (0..base_ncomms).filter(|cid| ctx.salvage_comms.contains(cid));
            instrs.extend(inherited.filter(lands_here).map(wait));
            instrs.extend(salvage_cid[v][j].map(Instr::CommWait));
            instrs.extend(fetch_cid[v][j].map(Instr::CommWait));
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
                instrs.push(match base.backward {
                    false => Instr::Attn { items, flops },
                    true => Instr::AttnBwd { items, flops },
                });
            }
            // The dying stream's owed partials leave from here under their
            // original comm ids; its tail waits and reduces follow the
            // blocks they were for.
            let stands_in = |cid: &u32| {
                let mut sent = comms[*cid as usize].transfers.iter();
                sent.any(|tr| ctx.stand_in.get(&tr.payload) == Some(&dev))
            };
            let owed = view.residual_out_cids.iter().copied().filter(stands_in);
            instrs.extend(owed.map(|cid| Instr::CommLaunch(CommId(cid))));
            let tail = view.tail_waits.iter().copied().filter(lands_here);
            instrs.extend(tail.map(wait));
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
    Ok(Rendered {
        placement,
        phase: PhasePlan { comms, devices },
        salvage_bytes,
        refetch_bytes,
    })
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
                ta.total_cmp(&tb).then(a.cmp(&b))
            })
            .expect("nonempty survivors"),
    }
}

/// Deterministic greedy re-shard — the backward solver and the forward
/// backstop: heaviest unit first (ties toward the lowest first token block)
/// into the shard with the most remaining flop capacity.
fn waterfill(units: &[Unit], targets: &[VertexWeight]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&i| {
        let u = &units[i];
        (std::cmp::Reverse(u.flops), u.accs[0].token_block().0)
    });
    let mut cap: Vec<i128> = targets.iter().map(|t| t[0] as i128).collect();
    let mut part = vec![0u32; units.len()];
    for i in order {
        let j = (0..cap.len())
            .max_by_key(|&j| (cap[j], std::cmp::Reverse(j)))
            .expect("nonempty targets");
        part[i] = j as u32;
        cap[j] -= units[i].flops.max(1) as i128;
    }
    part
}

/// The schedule's reduce byte model: read every partial plus the resident
/// accumulator, write the accumulator.
fn reduce_bytes(layout: &BatchLayout, items: &[ReduceItem]) -> u64 {
    items
        .iter()
        .map(|it| partial_bytes(layout, it.target, it.kind) * (it.sources.len() as u64 + 2))
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
            patch.phase.devices.len() as u32,
            d + patch.ctx.shard_hosts.len() as u32
        );
        assert_eq!(patch.ctx.shard_hosts.len(), 7);
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
                assert!(patch.ctx.reowned.contains(&tb));
            } else {
                assert_eq!(patch.placement.token_dev(tb), owner);
            }
        }
        for (p, &shard) in &patch.ctx.stand_in {
            assert!(shard >= d);
            let owner = out.placement.token_dev(p.token_block());
            assert_ne!(owner, dev, "owner partials self-sent");
        }
        // No transfer in the patch still targets the failed owner with a
        // partial.
        for op in &patch.phase.comms {
            for tr in &op.transfers {
                if matches!(tr.payload, Payload::PartialO(..)) {
                    assert_ne!(tr.to, dev, "partial still bound for the failed device");
                }
            }
        }
        // Every shard runs on a survivor.
        assert!(patch.ctx.shard_hosts.iter().all(|&h| h < d && h != dev));
        // Backward placement has nothing left on the failed rank.
        let (bwd_placement, bwd) = patch.bwd.as_ref().unwrap();
        assert!(bwd_placement.comp_to_dev.iter().all(|&x| x != dev));
        assert!(bwd_placement.token_to_dev.iter().all(|&x| x != dev));
        assert_eq!(bwd.num_devices, d);
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
