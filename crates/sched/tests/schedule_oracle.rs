//! The planner's tail against the code it replaced.
//!
//! [`oracle`] is an earlier `schedule_phase`, `compute_stats` (with its
//! `SlotPool`), `instr_reads` and dead-communication elimination, frozen:
//! per-device `HashMap`s and `HashSet`s keyed by `Payload`, a cloned
//! per-source map per block per middle division, an `incoming` scan over
//! every op per device. Kept verbatim except for `crate::` paths, which name
//! the public `dcp_sched` items instead, for the pass-pipeline plumbing
//! that carried `dead_comm` (a trait object and three `PassManager`
//! methods), folded into one `run_plan`, for the set of protected ops that
//! `dead_comm` skipped (always empty since the recovery patcher it served
//! was deleted), and for the branch that deferred every partial to the
//! last division (partials launch after their last contributing division).
//! Nothing in the library may call it.
//!
//! The frozen scheduler is the volume-cap greedy whose divisions the
//! crate's scheduler now re-cuts by cost, so it is no longer a bit-equality
//! oracle but the baseline of a pinned gain: on the same placements the
//! crate moves the same transfers, and its simulated makespans are at least
//! 5 % shorter in geometric mean. The frozen accounting and rewrite still
//! have to agree with the crate's on every plan the crate emits.

use dcp_blocks::{BatchLayout, BlockConfig};
use dcp_core::{Planner, PlannerConfig};
use dcp_mask::MaskSpec;
use dcp_sched::buffer::compute_stats;
use dcp_sched::{
    build_plan, verify_plan, ExecutionPlan, Instr, PassConfig, PassManager, Placement,
    ScheduleConfig,
};
use dcp_sim::simulate_plan;
use dcp_types::{AttnSpec, ClusterSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

#[allow(clippy::all)]
mod oracle {
    use std::collections::{HashMap, HashSet};

    use dcp_blocks::{BatchLayout, CompBlockId};
    use dcp_sched::buffer::BufferStats;
    use dcp_sched::stream::incoming;
    use dcp_sched::{
        CommId, CommOp, DeviceStream, ExecutionPlan, Instr, PassOutcome, Payload, PayloadKind,
        PhasePlan, Placement, ReduceItem, ScheduleConfig, Transfer,
    };

    const BWD_RATIO: (u64, u64) = (5, 2);

    fn is_input(kind: PayloadKind) -> bool {
        matches!(kind, PayloadKind::Q | PayloadKind::Kv | PayloadKind::DO)
    }

    pub fn build_plan(
        layout: &BatchLayout,
        placement: &Placement,
        cfg: &ScheduleConfig,
    ) -> ExecutionPlan {
        ExecutionPlan {
            num_devices: placement.num_devices,
            fwd: schedule_phase(layout, placement, cfg, false),
            bwd: schedule_phase(layout, placement, cfg, true),
        }
    }

    /// `PassManager::{run_phase, run_plan}` in one, enabled.
    pub fn run_plan(layout: &BatchLayout, plan: &mut ExecutionPlan) -> Vec<PassOutcome> {
        vec![
            dead_comm(&mut plan.fwd, layout, "fwd"),
            dead_comm(&mut plan.bwd, layout, "bwd"),
        ]
    }

    // ---- schedule.rs ----
    /// Remote input payloads of `comp` on its executing device.
    fn remote_inputs(
        layout: &BatchLayout,
        placement: &Placement,
        comp: CompBlockId,
        backward: bool,
    ) -> Vec<(Payload, u32, u64)> {
        let cb = &layout.comp_blocks[comp.0 as usize];
        let dev = placement.comp_dev(comp);
        let q_owner = placement.token_dev(cb.q_block);
        let kv_owner = placement.token_dev(cb.kv_block);
        let qb = &layout.token_blocks[cb.q_block.0 as usize];
        let kvb = &layout.token_blocks[cb.kv_block.0 as usize];
        let mut v = Vec::new();
        if q_owner != dev {
            v.push((Payload::Q(cb.q_block), q_owner, qb.q_bytes));
            if backward {
                v.push((Payload::DO(cb.q_block), q_owner, qb.o_bytes));
            }
        }
        if kv_owner != dev {
            v.push((Payload::Kv(cb.kv_block), kv_owner, kvb.kv_bytes));
        }
        v
    }

    pub fn schedule_phase(
        layout: &BatchLayout,
        placement: &Placement,
        cfg: &ScheduleConfig,
        backward: bool,
    ) -> PhasePlan {
        let n = placement.num_devices as usize;
        let t = cfg.divisions as usize;

        // Per-device computation blocks, in id order (deterministic).
        let mut dev_comps: Vec<Vec<CompBlockId>> = vec![Vec::new(); n];
        for i in 0..layout.comp_blocks.len() {
            let c = CompBlockId(i as u32);
            dev_comps[placement.comp_dev(c) as usize].push(c);
        }

        // Total deduplicated incoming volume per (device, source).
        let mut total_req: Vec<HashMap<u32, u64>> = vec![HashMap::new(); n];
        {
            let mut seen: Vec<HashSet<Payload>> = vec![HashSet::new(); n];
            for d in 0..n {
                for &c in &dev_comps[d] {
                    for (payload, src, bytes) in remote_inputs(layout, placement, c, backward) {
                        if seen[d].insert(payload) {
                            *total_req[d].entry(src).or_insert(0) += bytes;
                        }
                    }
                }
            }
        }
        let limit = |d: usize, src: u32| -> u64 {
            total_req[d].get(&src).map_or(0, |&b| b.div_ceil(t as u64))
        };

        // Division construction.
        // divisions[i][d] = (comp blocks, new transfers)
        let mut divisions: Vec<Vec<(Vec<CompBlockId>, Vec<Transfer>)>> =
            vec![vec![(Vec::new(), Vec::new()); n]; t];
        let mut remaining: Vec<Vec<CompBlockId>> = vec![Vec::new(); n];
        let mut fetched: Vec<HashSet<Payload>> = vec![HashSet::new(); n];
        let mut comp_load = vec![0u64; n];
        // Division index of every computation block (for early output launch).
        let mut div_of_comp = vec![0usize; layout.comp_blocks.len()];

        // Division 0: blocks with no remote inputs at all.
        for d in 0..n {
            for &c in &dev_comps[d] {
                if remote_inputs(layout, placement, c, backward).is_empty() {
                    divisions[0][d].0.push(c);
                    div_of_comp[c.0 as usize] = 0;
                    comp_load[d] += layout.comp_blocks[c.0 as usize].flops;
                } else {
                    remaining[d].push(c);
                }
            }
        }

        // Middle divisions 1..t-1, least-loaded device first. `i` indexes both
        // `divisions` and `div_of_comp`, so an iterator form would not be clearer.
        #[allow(clippy::needless_range_loop)]
        for i in 1..t.saturating_sub(1) {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&d| comp_load[d]);
            for &d in &order {
                let mut div_comm: HashMap<u32, u64> = HashMap::new();
                let mut kept = Vec::new();
                let blocks = std::mem::take(&mut remaining[d]);
                for c in blocks {
                    let new: Vec<(Payload, u32, u64)> =
                        remote_inputs(layout, placement, c, backward)
                            .into_iter()
                            .filter(|(p, _, _)| !fetched[d].contains(p))
                            .collect();
                    // Projected per-source volume must stay under the cap.
                    let mut projected: HashMap<u32, u64> = div_comm.clone();
                    for (_, src, bytes) in &new {
                        *projected.entry(*src).or_insert(0) += bytes;
                    }
                    let fits = projected.iter().all(|(&src, &b)| b <= limit(d, src));
                    if fits {
                        for (payload, src, bytes) in new {
                            fetched[d].insert(payload);
                            *div_comm.entry(src).or_insert(0) += bytes;
                            divisions[i][d].1.push(Transfer {
                                from: src,
                                to: d as u32,
                                payload,
                                bytes,
                            });
                        }
                        divisions[i][d].0.push(c);
                        div_of_comp[c.0 as usize] = i;
                        comp_load[d] += layout.comp_blocks[c.0 as usize].flops;
                    } else {
                        kept.push(c);
                    }
                }
                remaining[d] = kept;
            }
        }

        // Final division: everything left.
        let last = t - 1;
        for d in 0..n {
            for c in std::mem::take(&mut remaining[d]) {
                let new: Vec<(Payload, u32, u64)> = remote_inputs(layout, placement, c, backward)
                    .into_iter()
                    .filter(|(p, _, _)| !fetched[d].contains(p))
                    .collect();
                for (payload, src, bytes) in new {
                    fetched[d].insert(payload);
                    divisions[last][d].1.push(Transfer {
                        from: src,
                        to: d as u32,
                        payload,
                        bytes,
                    });
                }
                divisions[last][d].0.push(c);
                div_of_comp[c.0 as usize] = last;
            }
        }

        // Output transfers, grouped by (producing device, launch division).
        // For forward: PartialO(qb, producer) -> owner; for backward:
        // PartialDq(qb, producer) and PartialDkv(kb, producer). A partial
        // launches right after the last division on the producer that
        // contributes to it.
        let mut out_ops: Vec<Vec<Vec<Transfer>>> = vec![vec![Vec::new(); t]; n];
        let mut reduce_items: Vec<HashMap<(dcp_blocks::TokenBlockId, PayloadKind), Vec<u32>>> =
            vec![HashMap::new(); n];
        {
            // Last division on each device contributing to each output target.
            let mut last_div: HashMap<(u32, dcp_blocks::TokenBlockId, PayloadKind), usize> =
                HashMap::new();
            for (i, cb) in layout.comp_blocks.iter().enumerate() {
                let d = placement.comp_dev(CompBlockId(i as u32));
                let div = div_of_comp[i];
                let mut touch = |tb, kind| {
                    let e = last_div.entry((d, tb, kind)).or_insert(div);
                    *e = (*e).max(div);
                };
                if !backward {
                    touch(cb.q_block, PayloadKind::PartialO);
                } else {
                    touch(cb.q_block, PayloadKind::PartialDq);
                    touch(cb.kv_block, PayloadKind::PartialDkv);
                }
            }
            let mut emitted: HashSet<(u32, dcp_blocks::TokenBlockId, PayloadKind)> = HashSet::new();
            for (i, cb) in layout.comp_blocks.iter().enumerate() {
                let c = CompBlockId(i as u32);
                let d = placement.comp_dev(c);
                let q_owner = placement.token_dev(cb.q_block);
                let kv_owner = placement.token_dev(cb.kv_block);
                let qb = &layout.token_blocks[cb.q_block.0 as usize];
                let kvb = &layout.token_blocks[cb.kv_block.0 as usize];
                let mut emit = |tb, kind, to: u32, payload, bytes| {
                    if emitted.insert((d, tb, kind)) {
                        let div = last_div[&(d, tb, kind)];
                        out_ops[d as usize][div].push(Transfer {
                            from: d,
                            to,
                            payload,
                            bytes,
                        });
                        reduce_items[to as usize]
                            .entry((tb, kind))
                            .or_default()
                            .push(d);
                    }
                };
                if !backward {
                    if q_owner != d {
                        emit(
                            cb.q_block,
                            PayloadKind::PartialO,
                            q_owner,
                            Payload::PartialO(cb.q_block, d),
                            qb.o_bytes,
                        );
                    }
                } else {
                    if q_owner != d {
                        emit(
                            cb.q_block,
                            PayloadKind::PartialDq,
                            q_owner,
                            Payload::PartialDq(cb.q_block, d),
                            qb.q_bytes,
                        );
                    }
                    if kv_owner != d {
                        emit(
                            cb.kv_block,
                            PayloadKind::PartialDkv,
                            kv_owner,
                            Payload::PartialDkv(cb.kv_block, d),
                            kvb.kv_bytes,
                        );
                    }
                }
            }
        }

        // Assemble comm ops and instruction streams.
        let mut comms: Vec<CommOp> = Vec::new();
        // comm id of division i on device d (if any).
        let mut div_comm_id: Vec<Vec<Option<CommId>>> = vec![vec![None; n]; t];
        for (i, divs) in divisions.iter().enumerate() {
            for (d, (_, transfers)) in divs.iter().enumerate() {
                if !transfers.is_empty() {
                    div_comm_id[i][d] = Some(CommId(comms.len() as u32));
                    comms.push(CommOp {
                        transfers: transfers.clone(),
                    });
                }
            }
        }
        let mut out_comm_id: Vec<Vec<Option<CommId>>> = vec![vec![None; t]; n];
        for d in 0..n {
            for i in 0..t {
                if !out_ops[d][i].is_empty() {
                    out_comm_id[d][i] = Some(CommId(comms.len() as u32));
                    comms.push(CommOp {
                        transfers: out_ops[d][i].clone(),
                    });
                }
            }
        }

        let mut devices = Vec::with_capacity(n);
        for d in 0..n {
            let mut instrs: Vec<Instr> = Vec::new();
            for i in 0..t {
                if let Some(cid) = div_comm_id[i][d] {
                    // Division 0 normally has no communication; when it does
                    // (T == 1 collapses everything into one division), launch
                    // right before waiting.
                    if i == 0 {
                        instrs.push(Instr::CommLaunch(cid));
                    }
                    instrs.push(Instr::CommWait(cid));
                }
                if i + 1 < t {
                    if let Some(cid) = div_comm_id[i + 1][d] {
                        instrs.push(Instr::CommLaunch(cid));
                    }
                }
                let (blocks, _) = &divisions[i][d];
                if !blocks.is_empty() {
                    let flops: u64 = blocks
                        .iter()
                        .map(|&c| {
                            let f = layout.comp_blocks[c.0 as usize].flops;
                            if backward {
                                f * BWD_RATIO.0 / BWD_RATIO.1
                            } else {
                                f
                            }
                        })
                        .sum();
                    if backward {
                        instrs.push(Instr::AttnBwd {
                            items: blocks.clone(),
                            flops,
                        });
                    } else {
                        instrs.push(Instr::Attn {
                            items: blocks.clone(),
                            flops,
                        });
                    }
                }
                // Launch output partials completed by this division, so the
                // return path overlaps later divisions.
                if let Some(cid) = out_comm_id[d][i] {
                    instrs.push(Instr::CommLaunch(cid));
                }
            }
            // Output phase: wait for every op delivering partials to this
            // device (any producer, any division).
            let mut incoming: Vec<CommId> = Vec::new();
            for (s, per_div) in out_comm_id.iter().enumerate() {
                if s == d {
                    continue;
                }
                for cid in per_div.iter().flatten() {
                    if comms[cid.0 as usize]
                        .transfers
                        .iter()
                        .any(|tr| tr.to == d as u32)
                    {
                        incoming.push(*cid);
                    }
                }
            }
            for cid in incoming {
                instrs.push(Instr::CommWait(cid));
            }
            if !reduce_items[d].is_empty() {
                let mut items: Vec<ReduceItem> = reduce_items[d]
                    .iter()
                    .map(|(&(target, kind), sources)| {
                        let mut sources = sources.clone();
                        sources.sort_unstable();
                        ReduceItem {
                            target,
                            sources,
                            kind,
                        }
                    })
                    .collect();
                items.sort_by_key(|it| (it.target, it.kind));
                let bytes: u64 = items
                    .iter()
                    .map(|it| {
                        let tb = &layout.token_blocks[it.target.0 as usize];
                        let unit = match it.kind {
                            PayloadKind::PartialO => tb.o_bytes,
                            PayloadKind::PartialDq => tb.q_bytes,
                            PayloadKind::PartialDkv => tb.kv_bytes,
                            _ => 0,
                        };
                        // Read every partial plus the resident accumulator, write
                        // the accumulator.
                        unit * (it.sources.len() as u64 + 2)
                    })
                    .sum();
                instrs.push(Instr::Reduce { items, bytes });
            }

            let owned: Vec<u32> = (0..layout.token_blocks.len() as u32)
                .filter(|&tb| placement.token_to_dev[tb as usize] == d as u32)
                .collect();
            let buffer = compute_stats(layout, &comms, d as u32, &instrs, &owned);
            devices.push(DeviceStream {
                device: d as u32,
                instrs,
                buffer,
            });
        }

        PhasePlan { comms, devices }
    }

    // ---- buffer.rs ----
    /// A per-kind slot allocator with index reuse.
    #[derive(Debug, Default)]
    struct SlotPool {
        free: Vec<u32>,
        next: u32,
        peak: u32,
        live: HashMap<Payload, u32>,
    }

    impl SlotPool {
        fn alloc(&mut self, p: Payload) -> u32 {
            if let Some(&s) = self.live.get(&p) {
                return s; // Already resident (e.g. re-referenced payload).
            }
            let slot = self.free.pop().unwrap_or_else(|| {
                let s = self.next;
                self.next += 1;
                s
            });
            self.live.insert(p, slot);
            self.peak = self.peak.max(self.next);
            slot
        }

        fn release(&mut self, p: &Payload) {
            if let Some(s) = self.live.remove(p) {
                self.free.push(s);
            }
        }
    }

    /// Replays `instrs` for device `device`, computing [`BufferStats`].
    ///
    /// Fetched blocks become live at their `CommWait` and are released after the
    /// last instruction that consumes them (attention for Q/KV/DO fetches,
    /// reduction for partials). Owned blocks are counted as resident for the
    /// whole phase.
    pub fn compute_stats(
        layout: &BatchLayout,
        comms: &[CommOp],
        device: u32,
        instrs: &[Instr],
        owned_token_blocks: &[u32],
    ) -> BufferStats {
        // Last instruction index consuming each incoming payload.
        let mut last_use: HashMap<Payload, usize> = HashMap::new();
        // Incoming payloads by the CommWait instruction index that makes them
        // live.
        let mut arrivals: Vec<(usize, Payload)> = Vec::new();

        for (idx, ins) in instrs.iter().enumerate() {
            match ins {
                Instr::CommWait(cid) => {
                    for t in &comms[cid.0 as usize].transfers {
                        if t.to == device {
                            arrivals.push((idx, t.payload));
                        }
                    }
                }
                Instr::Attn { items, .. } | Instr::AttnBwd { items, .. } => {
                    for &c in items {
                        let cb = &layout.comp_blocks[c.0 as usize];
                        for payload in [
                            Payload::Q(cb.q_block),
                            Payload::Kv(cb.kv_block),
                            Payload::DO(cb.q_block),
                        ] {
                            last_use.insert(payload, idx);
                        }
                    }
                }
                Instr::Reduce { items, .. } => {
                    for item in items {
                        for &src in &item.sources {
                            let payload = match item.kind {
                                PayloadKind::PartialO => Payload::PartialO(item.target, src),
                                PayloadKind::PartialDq => Payload::PartialDq(item.target, src),
                                PayloadKind::PartialDkv => Payload::PartialDkv(item.target, src),
                                _ => continue,
                            };
                            last_use.insert(payload, idx);
                        }
                    }
                }
                _ => {}
            }
        }

        // Sweep: allocate at arrival, release after last use.
        let mut pools: HashMap<PayloadKind, SlotPool> = HashMap::new();
        let mut releases: HashMap<usize, Vec<Payload>> = HashMap::new();
        for (arrive_idx, payload) in &arrivals {
            let release_idx = last_use.get(payload).copied().unwrap_or(*arrive_idx);
            releases.entry(release_idx).or_default().push(*payload);
            // Allocation happens during the sweep below; remember arrival order.
            let _ = arrive_idx;
        }
        let mut arrivals_by_idx: HashMap<usize, Vec<Payload>> = HashMap::new();
        for (idx, p) in arrivals {
            arrivals_by_idx.entry(idx).or_default().push(p);
        }
        for idx in 0..instrs.len() {
            if let Some(ps) = arrivals_by_idx.get(&idx) {
                for &p in ps {
                    pools.entry(p.kind()).or_default().alloc(p);
                }
            }
            if let Some(ps) = releases.get(&idx) {
                for p in ps {
                    if let Some(pool) = pools.get_mut(&p.kind()) {
                        pool.release(p);
                    }
                }
            }
        }

        // Slot byte sizes: the maximum block size of the kind (uniform slots in
        // one contiguous buffer, as in the paper).
        let max_q = layout
            .token_blocks
            .iter()
            .map(|t| t.q_bytes)
            .max()
            .unwrap_or(0);
        let max_kv = layout
            .token_blocks
            .iter()
            .map(|t| t.kv_bytes)
            .max()
            .unwrap_or(0);
        let max_o = layout
            .token_blocks
            .iter()
            .map(|t| t.o_bytes)
            .max()
            .unwrap_or(0);

        let peak = |k: PayloadKind| pools.get(&k).map_or(0, |p| p.peak);
        let q_slots = peak(PayloadKind::Q);
        let kv_slots = peak(PayloadKind::Kv);
        let partial_slots = peak(PayloadKind::PartialO)
            + peak(PayloadKind::DO)
            + peak(PayloadKind::PartialDq)
            + peak(PayloadKind::PartialDkv);

        let owned_bytes: u64 = owned_token_blocks
            .iter()
            .map(|&t| layout.token_blocks[t as usize].total_bytes())
            .sum();
        let fetched_bytes = q_slots as u64 * max_q
            + kv_slots as u64 * max_kv
            + peak(PayloadKind::PartialO) as u64 * max_o
            + peak(PayloadKind::DO) as u64 * max_o
            + peak(PayloadKind::PartialDq) as u64 * max_q
            + peak(PayloadKind::PartialDkv) as u64 * max_kv;

        BufferStats {
            q_slots,
            kv_slots,
            partial_slots,
            owned_bytes,
            fetched_bytes,
        }
    }

    // ---- verify.rs ----
    /// What each instruction of one device's stream reads from arrived data.
    /// Shared by the verifier and the passes (dead-comm, wait sinking).
    fn instr_reads(layout: &BatchLayout, ins: &Instr, out: &mut HashSet<Payload>) {
        match ins {
            Instr::Attn { items, .. } => {
                for &c in items {
                    let cb = &layout.comp_blocks[c.0 as usize];
                    out.insert(Payload::Q(cb.q_block));
                    out.insert(Payload::Kv(cb.kv_block));
                }
            }
            Instr::AttnBwd { items, .. } => {
                for &c in items {
                    let cb = &layout.comp_blocks[c.0 as usize];
                    out.insert(Payload::Q(cb.q_block));
                    out.insert(Payload::Kv(cb.kv_block));
                    out.insert(Payload::DO(cb.q_block));
                }
            }
            Instr::Reduce { items, .. } => {
                for item in items {
                    out.extend(item.sources.iter().filter_map(|&s| item.source_payload(s)));
                }
            }
            _ => {}
        }
    }

    // ---- passes.rs ----
    /// Dead-communication elimination.
    fn dead_comm(phase: &mut PhasePlan, layout: &BatchLayout, label: &str) -> PassOutcome {
        let before = phase.total_comm_bytes();
        // Per device: which ops it waits on, and which payloads it reads.
        let mut reads: HashMap<u32, HashSet<Payload>> = HashMap::new();
        let mut waits_by_dev: HashMap<u32, HashSet<u32>> = HashMap::new();
        for stream in &phase.devices {
            let r = reads.entry(stream.device).or_default();
            let w = waits_by_dev.entry(stream.device).or_default();
            for ins in &stream.instrs {
                if let Instr::CommWait(cid) = ins {
                    w.insert(cid.0);
                }
                instr_reads(layout, ins, r);
            }
        }
        let empty_reads = HashSet::new();
        let empty_waits = HashSet::new();
        let mut transfers_removed = 0u64;
        for (cid, op) in phase.comms.iter_mut().enumerate() {
            let n0 = op.transfers.len();
            op.transfers.retain(|tr| {
                let dest_waits = waits_by_dev.get(&tr.to).unwrap_or(&empty_waits);
                if !dest_waits.contains(&(cid as u32)) {
                    return false; // never waited: the data can never arrive
                }
                let dest_reads = reads.get(&tr.to).unwrap_or(&empty_reads);
                dest_reads.contains(&tr.payload)
            });
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
                        // partial: partials are producer-launched.
                        phase.comms[cid.0 as usize]
                            .transfers
                            .iter()
                            .any(|t| t.to == dev || t.from == dev || !is_input(t.payload.kind()))
                    }
                    Instr::CommWait(cid) => {
                        incoming(&phase.comms[cid.0 as usize], dev).next().is_some()
                    }
                    _ => true,
                });
                instrs_removed += (n0 - stream.instrs.len()) as u64;
            }
        }
        PassOutcome {
            pass: "dead_comm".to_string(),
            phase: label.to_string(),
            comm_bytes_before: before,
            comm_bytes_after: phase.total_comm_bytes(),
            transfers_removed,
            instrs_removed,
        }
    }
}

const FAMILIES: u32 = 6;

/// Every mask family, with spans that start and end inside blocks.
fn mask(family: u32, len: u32, a: u32, b: u32) -> MaskSpec {
    match family % FAMILIES {
        0 => MaskSpec::Causal,
        1 => MaskSpec::Full,
        2 => MaskSpec::Lambda {
            sink: a % 9,
            window: 1 + b % 40,
        },
        3 => MaskSpec::CausalBlockwise {
            block: 1 + a % 12,
            window_blocks: 1 + b % 3,
            sink_blocks: 1,
        },
        4 => {
            let question_len = 1 + a % len;
            let first = b % (len - question_len + 1);
            MaskSpec::SharedQuestion {
                question_len,
                answer_lens: vec![first, len - question_len - first],
            }
        }
        _ => {
            let first = 1 + a % len;
            let second = b % (len - first + 1);
            MaskSpec::packed_documents(&[first, second, len - first - second])
        }
    }
}

/// The proptest's attention shapes. One-byte heads make volumes odd, so
/// the frozen greedy's 1/T cap rounds.
fn attn(tiny_heads: bool) -> AttnSpec {
    match tiny_heads {
        true => AttnSpec::new(4, 4, 1, 1),
        false => AttnSpec::new(8, 4, 16, 2),
    }
}

fn cluster(n: u32) -> ClusterSpec {
    match n {
        32 => ClusterSpec::p4de(4),
        n => ClusterSpec::single_node(n),
    }
}

/// The placement families: what the planner emits, the ring baseline's
/// shape, comp blocks with their KV owner (forward partials), everything
/// on one device, a scatter over all devices and one over a third of them
/// (devices with nothing to do).
fn placement(
    kind: u32,
    seqs: &[(u32, MaskSpec)],
    cfg: BlockConfig,
    attn: AttnSpec,
    n: u32,
    rng: &mut SmallRng,
) -> (BatchLayout, Placement) {
    let layout = BatchLayout::build(attn, cfg, seqs).unwrap();
    let ring: Vec<u32> = (0..layout.token_blocks.len() as u32)
        .map(|i| i % n)
        .collect();
    let with = |token_to_dev: Vec<u32>, comp_to_dev: Vec<u32>| Placement {
        num_devices: n,
        token_to_dev,
        comp_to_dev,
    };
    let owner_of = |owners: &[u32], kv: bool| -> Vec<u32> {
        let side = |c: &dcp_blocks::CompBlock| if kv { c.kv_block } else { c.q_block };
        let of = |c| owners[side(c).0 as usize];
        layout.comp_blocks.iter().map(of).collect()
    };
    let mut scatter = |devs: u32| -> Vec<u32> {
        let total = layout.token_blocks.len() + layout.comp_blocks.len();
        (0..total).map(|_| rng.gen_range(0..devs)).collect()
    };
    let placement = match kind % 6 {
        0 => {
            let planner_cfg = PlannerConfig {
                block_size: cfg.block_size,
                head_blocks: Some(cfg.head_blocks),
                ..Default::default()
            };
            let planned = Planner::new(cluster(n), attn, planner_cfg)
                .plan(seqs)
                .unwrap();
            planned.placement
        }
        1 => with(ring.clone(), owner_of(&ring, false)),
        2 => with(ring.clone(), owner_of(&ring, true)),
        3 => Placement::all_on_zero(&layout, n),
        k => {
            let mut all = scatter(if k % 6 == 4 { n } else { n.div_ceil(3) });
            let comps = all.split_off(layout.token_blocks.len());
            with(all, comps)
        }
    };
    (layout, placement)
}

/// Every transfer of both phases as `(from, to, payload, bytes)`, sorted:
/// what a plan moves, whatever its divisions.
fn transfers(plan: &ExecutionPlan) -> Vec<Vec<(u32, u32, dcp_sched::Payload, u64)>> {
    [&plan.fwd, &plan.bwd]
        .map(|phase| {
            let ops = phase.comms.iter().flat_map(|op| &op.transfers);
            let mut all: Vec<_> = ops.map(|t| (t.from, t.to, t.payload, t.bytes)).collect();
            all.sort_unstable();
            all
        })
        .into()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn scheduler_passes_and_accounting_match_the_frozen_ones(
        seqs in prop::collection::vec((1u32..260, 0u32..FAMILIES, any::<u32>(), any::<u32>()), 1..7),
        bs in prop_oneof![Just(5u32), Just(16u32), Just(24u32), Just(33u32), Just(64u32)],
        head_blocks in prop_oneof![Just(1u32), Just(2u32), Just(4u32)],
        n in prop_oneof![Just(1u32), Just(2u32), Just(7u32), Just(32u32)],
        divisions in prop_oneof![Just(1u32), Just(2u32), Just(4u32), Just(7u32)],
        tiny_heads in any::<bool>(),
        kind in 0u32..6,
        seed in any::<u64>(),
    ) {
        let seqs: Vec<(u32, MaskSpec)> =
            seqs.into_iter().map(|(len, f, a, b)| (len, mask(f, len, a, b))).collect();
        let attn = attn(tiny_heads);
        let cfg = BlockConfig { block_size: bs, head_blocks };
        let mut rng = SmallRng::seed_from_u64(seed);
        let (layout, placement) = placement(kind, &seqs, cfg, attn, n, &mut rng);
        let sched = ScheduleConfig { divisions, cost: cluster(n).cost() };

        // The same transfers as the frozen greedy, cut into at most T
        // divisions, and a legal plan.
        let mut new = build_plan(&layout, &placement, &sched).unwrap();
        let old = oracle::build_plan(&layout, &placement, &sched);
        prop_assert_eq!(transfers(&new), transfers(&old));
        prop_assert!(verify_plan(&layout, &placement, &new).is_ok());
        for stream in new.fwd.devices.iter().chain(&new.bwd.devices) {
            let attn = |i: &&Instr| matches!(i, Instr::Attn { .. } | Instr::AttnBwd { .. });
            prop_assert!(stream.instrs.iter().filter(attn).count() <= divisions as usize);
        }

        // The accounting, on the streams as emitted and on streams no
        // scheduler emits: instructions in a random order, so a payload can
        // arrive after its last reader, a wait repeated, so a payload
        // arrives while resident, and one instruction dropped.
        for (phase, stream) in [&new.fwd, &new.bwd].into_iter().flat_map(|p| p.devices.iter().map(move |s| (p, s))) {
            let owned: Vec<u32> = (0..layout.token_blocks.len() as u32)
                .filter(|&tb| placement.token_to_dev[tb as usize] == stream.device)
                .collect();
            prop_assert_eq!(
                stream.buffer,
                oracle::compute_stats(&layout, &phase.comms, stream.device, &stream.instrs, &owned)
            );
            let mut instrs = stream.instrs.clone();
            let waits: Vec<Instr> =
                instrs.iter().filter(|i| matches!(i, Instr::CommWait(_))).cloned().collect();
            instrs.extend(waits.choose(&mut rng).cloned());
            instrs.shuffle(&mut rng);
            instrs.pop(); // a reader may be gone: its payloads arrive unread
            prop_assert_eq!(
                compute_stats(&layout, &phase.comms, stream.device, &instrs, &[]),
                oracle::compute_stats(&layout, &phase.comms, stream.device, &instrs, &[])
            );
        }

        let mut frozen = new.clone();
        let new_outs =
            PassManager::new(PassConfig::optimize()).run_plan(&layout, &placement, &mut new);
        let old_outs = oracle::run_plan(&layout, &mut frozen);
        prop_assert_eq!(&new, &frozen);
        prop_assert_eq!(&new_outs, &old_outs);
        // A fresh plan has no dead transfer, whatever the placement.
        prop_assert!(new_outs.iter().all(|o| !o.changed()), "{:?}", new_outs);
    }
}

/// The pinned gain. Layouts drawn as the proptest above draws them, at the
/// planner's T = 4, and a small fixed corpus on two- and four-node
/// clusters with the planner's placements: every plan moves the frozen
/// greedy's transfers, and the geometric mean of the simulated iteration
/// (forward plus backward makespan) is at most 0.95 of the frozen one's.
#[test]
fn paced_divisions_beat_the_frozen_volume_cap() {
    let mut rng = SmallRng::seed_from_u64(26);
    let mut cases: Vec<(ClusterSpec, BatchLayout, Placement)> = Vec::new();
    for _ in 0..160 {
        let seqs: Vec<(u32, MaskSpec)> = (0..rng.gen_range(1..7))
            .map(|_| {
                let len = rng.gen_range(1u32..260);
                (
                    len,
                    mask(rng.gen_range(0..FAMILIES), len, rng.gen(), rng.gen()),
                )
            })
            .collect();
        let cfg = BlockConfig {
            block_size: *[5, 16, 24, 33, 64].choose(&mut rng).unwrap(),
            head_blocks: *[1, 2, 4].choose(&mut rng).unwrap(),
        };
        let n = *[1, 2, 7, 32].choose(&mut rng).unwrap();
        let attn = attn(rng.gen());
        let (kind, seed) = (rng.gen_range(0..6), rng.gen());
        let (layout, placement) = placement(
            kind,
            &seqs,
            cfg,
            attn,
            n,
            &mut SmallRng::seed_from_u64(seed),
        );
        cases.push((cluster(n), layout, placement));
    }
    let lambda = MaskSpec::Lambda {
        sink: 64,
        window: 4096,
    };
    let skewed: Vec<(u32, MaskSpec)> = [(24576, MaskSpec::Causal)]
        .into_iter()
        .chain((0..8).map(|i| (1024 + 512 * (i % 4), MaskSpec::Causal)))
        .collect();
    let corpus = [
        (2, 1024, skewed),
        (
            2,
            512,
            vec![
                (16384, lambda.clone()),
                (8192, MaskSpec::Causal),
                (4096, MaskSpec::Full),
            ],
        ),
        (
            4,
            2048,
            vec![
                (65536, MaskSpec::Causal),
                (32768, lambda),
                (16384, MaskSpec::Causal),
            ],
        ),
        (
            4,
            1024,
            vec![
                (32768, MaskSpec::paper_shared_question(32768)),
                (8192, MaskSpec::Causal),
            ],
        ),
    ];
    for (nodes, block_size, seqs) in corpus {
        let cluster = ClusterSpec::p4de(nodes);
        let cfg = PlannerConfig {
            block_size,
            ..PlannerConfig::default()
        };
        let out = Planner::new(cluster.clone(), AttnSpec::paper_micro(), cfg)
            .plan(&seqs)
            .unwrap();
        cases.push((cluster, out.layout, out.placement));
    }

    let mut log_ratio = 0.0;
    for (cluster, layout, placement) in &cases {
        let sched = ScheduleConfig {
            divisions: 4,
            cost: cluster.cost(),
        };
        let new = build_plan(layout, placement, &sched).unwrap();
        let old = oracle::build_plan(layout, placement, &sched);
        assert_eq!(transfers(&new), transfers(&old));
        let time = |plan: &ExecutionPlan| simulate_plan(cluster, plan).unwrap().total();
        log_ratio += (time(&new) / time(&old)).ln();
    }
    let mean = (log_ratio / cases.len() as f64).exp();
    eprintln!(
        "paced / frozen simulated iteration, geometric mean over {}: {mean:.4}",
        cases.len()
    );
    assert!(mean <= 0.95, "paced / frozen = {mean:.4}");
}

/// Streams no scheduler emits, so the rewrite has something to delete on
/// both sides: a fetch nobody waits for, a fetch waited for but never read,
/// a partial no reduce names, a copy of a live partial addressed to another
/// waiter of its op, and a fetch op that a second device's stream launches
/// too.
#[test]
fn passes_agree_with_the_frozen_ones_on_grafted_streams() {
    use dcp_blocks::TokenBlockId;
    use dcp_sched::{CommId, CommOp, Payload, Transfer};
    let attn = AttnSpec::new(8, 4, 16, 2);
    let cfg = BlockConfig {
        block_size: 16,
        head_blocks: 2,
    };
    let lambda = MaskSpec::Lambda {
        sink: 3,
        window: 20,
    };
    let seqs = [(200, MaskSpec::Causal), (90, lambda)];
    let mut rng = SmallRng::seed_from_u64(5);
    for (kind, n) in [(1, 7), (2, 7), (4, 7), (1, 2)] {
        let (layout, placement) = placement(kind, &seqs, cfg, attn, n, &mut rng);
        let mut new = build_plan(&layout, &placement, &ScheduleConfig::default()).unwrap();
        let mut grafted = 0;
        for phase in [&mut new.fwd, &mut new.bwd] {
            let unread = (0..layout.token_blocks.len() as u32)
                .map(TokenBlockId)
                .find(|&tb| {
                    let mut on_0 = layout.comp_blocks.iter().zip(&placement.comp_to_dev);
                    placement.token_dev(tb) != 0 && !on_0.any(|(cb, &d)| cb.q_block == tb && d == 0)
                })
                .expect("some block device 0 never reads");
            let from = placement.token_dev(unread);
            let graft = |payload| Transfer {
                from,
                to: 0,
                payload,
                bytes: 64,
            };
            let cid = CommId(phase.comms.len() as u32);
            phase.comms.push(CommOp {
                transfers: vec![graft(Payload::Q(unread))],
            });
            phase.comms.push(CommOp {
                transfers: vec![
                    graft(Payload::Q(unread)),
                    graft(Payload::PartialO(unread, from)),
                ],
            });
            grafted += 3;
            let head = &mut phase.devices[0].instrs;
            head.insert(0, Instr::CommLaunch(cid));
            head.insert(1, Instr::CommLaunch(CommId(cid.0 + 1)));
            head.insert(2, Instr::CommWait(CommId(cid.0 + 1)));
            // An op returning partials to two owners: address a copy of the
            // first owner's partial to the second.
            let two_owners = |op: &&mut CommOp| {
                let partial = !matches!(op.transfers[0].payload, Payload::Q(_) | Payload::Kv(_));
                partial && op.transfers.iter().any(|t| t.to != op.transfers[0].to)
            };
            let shared = phase.comms.iter_mut().filter(|op| !op.transfers.is_empty());
            if let Some(op) = shared.take(cid.0 as usize).find(two_owners) {
                let other = op.transfers.iter().find(|t| t.to != op.transfers[0].to);
                let to = other.expect("two owners").to;
                op.transfers.push(Transfer {
                    to,
                    ..op.transfers[0]
                });
                grafted += 1;
            }
            // Device 1's first fetch op, named by another stream as well.
            let fetch = phase.devices[1].instrs.iter().find_map(|i| match i {
                Instr::CommLaunch(cid) => Some(*cid),
                _ => None,
            });
            if let Some(cid) = fetch {
                phase.devices[2 % n as usize]
                    .instrs
                    .insert(0, Instr::CommLaunch(cid));
            }
        }
        let mut old = new.clone();
        let new_outs =
            PassManager::new(PassConfig::optimize()).run_plan(&layout, &placement, &mut new);
        let old_outs = oracle::run_plan(&layout, &mut old);
        assert_eq!(new, old);
        let removed: u64 = new_outs.iter().map(|o| o.transfers_removed).sum();
        assert_eq!(removed, grafted);
        assert_eq!(new_outs, old_outs);
    }
}
