//! The division scheduler (paper Sec. 4.3, Listing 3) and instruction
//! emission.
//!
//! Given a placement, the required communication is fully determined: a
//! remote input block is fetched **once per consuming device** (not once per
//! computation block), and a partial output is returned **once per producing
//! device** — exactly the `s_e * (lambda_e - 1)` accounting of the
//! hypergraph objective.
//!
//! The scheduler groups each device's computation blocks into `T` divisions:
//! division 0 holds the blocks needing no communication, divisions
//! `1..T-1` are filled greedily, in block order, subject to a per-division
//! cap of `1/T` of the device's total incoming volume per source, and the
//! final division takes everything left. The caps are the receiver's alone,
//! so one device's divisions depend on no other's, the order in which
//! devices are visited cannot change a plan, and they are taken in rank
//! order, each scheduled to the end on scratch tables the next one reuses.
//! Each division's communication is launched while the previous division
//! computes, which is what overlaps transfer and attention time.
//!
//! Timing assumption encoded in the emitted streams: *input* fetches (Q, KV,
//! dO) carry model input data that exists from the start of the phase, so
//! only the receiver's `CommLaunch` gates them; *output* partials
//! (O/dQ/dKV) are produced data, so the producer launches them after its
//! last division and the owner waits before its final reduction.

use dcp_blocks::{BatchLayout, CompBlockId, TokenBlockId};
use dcp_types::{DcpError, DcpResult};
use serde::{Deserialize, Serialize};

use crate::buffer::{owned_bytes, Accounting};
use crate::placement::Placement;
use crate::plan::{
    CommId, CommOp, DeviceStream, ExecutionPlan, Instr, Payload, PayloadKind, PhasePlan,
    ReduceItem, Transfer,
};
use crate::table::{PayloadTable, Stamped};
use crate::verify::verify_plan;

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleConfig {
    /// Number of divisions `T` (the paper fixes 4).
    pub divisions: u32,
    /// Launch each output-partial transfer right after the last division
    /// that contributes to it, overlapping the return path with later
    /// divisions. The paper's Listing 3 defers all output transfers to the
    /// end of the schedule; set `false` for that behavior (the
    /// `ablations` harness measures the difference).
    pub early_output: bool,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            divisions: 4,
            early_output: true,
        }
    }
}

/// Ratio of backward to forward FLOPs, as a (num, den) rational so FLOPs
/// stay integral (matches [`dcp_types::AttnSpec::BWD_FLOPS_RATIO`]).
const BWD_RATIO: (u64, u64) = (5, 2);

/// Builds the full execution plan (forward + backward) for `layout` under
/// `placement`.
///
/// # Errors
///
/// Returns an error if the placement does not match the layout or
/// `cfg.divisions == 0`.
pub fn build_plan(
    layout: &BatchLayout,
    placement: &Placement,
    cfg: &ScheduleConfig,
) -> DcpResult<ExecutionPlan> {
    placement.validate(layout)?;
    if cfg.divisions == 0 {
        return Err(DcpError::invalid_argument("divisions must be > 0"));
    }
    let fwd = schedule_phase(layout, placement, cfg, false);
    let bwd = schedule_phase(layout, placement, cfg, true);
    Ok(ExecutionPlan {
        num_devices: placement.num_devices,
        fwd,
        bwd,
    })
}

/// A remote input of a computation block: what, from whom, how many bytes.
type Fetch = (Payload, u32, u64);

/// Remote input payloads of `comp` on its executing device: `Q` (and `dO`
/// in the backward phase), then `KV`.
fn remote_inputs(
    layout: &BatchLayout,
    placement: &Placement,
    comp: CompBlockId,
    backward: bool,
) -> [Option<Fetch>; 3] {
    let cb = &layout.comp_blocks[comp.0 as usize];
    let dev = placement.comp_dev(comp);
    let q_owner = placement.token_dev(cb.q_block);
    let kv_owner = placement.token_dev(cb.kv_block);
    let qb = &layout.token_blocks[cb.q_block.0 as usize];
    let kvb = &layout.token_blocks[cb.kv_block.0 as usize];
    [
        (q_owner != dev).then_some((Payload::Q(cb.q_block), q_owner, qb.q_bytes)),
        (q_owner != dev && backward).then_some((Payload::DO(cb.q_block), q_owner, qb.o_bytes)),
        (kv_owner != dev).then_some((Payload::Kv(cb.kv_block), kv_owner, kvb.kv_bytes)),
    ]
}

/// What every device does in every division — `[d * t + i]` is device `d`,
/// division `i` — and every partial that travels back.
struct Divisions {
    /// Computation blocks, in id order.
    items: Vec<Vec<CompBlockId>>,
    /// Inputs first needed by the division, in the order its blocks need them.
    fetch: Vec<Vec<Transfer>>,
    /// Partials the division completes, in the order the device's blocks
    /// first touch them.
    out: Vec<Vec<Transfer>>,
    /// `(owner, block, kind, producer)` of every partial, sorted: an owner's
    /// reduce items are the runs of equal (block, kind), sources ascending.
    returned: Vec<(u32, TokenBlockId, PayloadKind, u32)>,
}

/// The division scheduler. Everything is indexed by what the layout already
/// numbers densely — devices, token blocks, computation blocks — on tables
/// that one device after another reuses: a device's divisions depend on no
/// other device's, so each is scheduled to the end before the next starts.
fn divide(
    layout: &BatchLayout,
    placement: &Placement,
    cfg: &ScheduleConfig,
    backward: bool,
) -> Divisions {
    let n = placement.num_devices as usize;
    let t = cfg.divisions as usize;
    let last = t - 1;
    let nt = layout.token_blocks.len();
    let mut out = Divisions {
        items: vec![Vec::new(); n * t],
        fetch: vec![Vec::new(); n * t],
        out: vec![Vec::new(); n * t],
        returned: Vec::new(),
    };

    // Per-device computation blocks, in id order (counting sort).
    let mut first = vec![0usize; n + 1];
    for &d in &placement.comp_to_dev {
        first[d as usize + 1] += 1;
    }
    for d in 0..n {
        first[d + 1] += first[d];
    }
    let mut dev_comps = vec![CompBlockId(0); layout.comp_blocks.len()];
    let mut next = first.clone();
    for (c, &d) in placement.comp_to_dev.iter().enumerate() {
        dev_comps[next[d as usize]] = CompBlockId(c as u32);
        next[d as usize] += 1;
    }

    // Scratch of the device being scheduled. Inputs it has counted, then
    // inputs it has fetched; bytes it needs from each source in total and in
    // the division being filled; the last division touching each partial it
    // produces (by Q block: O or dQ; by KV block: dKV) and those partials in
    // the order its blocks first touch them.
    let mut fetched = PayloadTable::new(nt);
    let mut total: Stamped<u64> = Stamped::new(n);
    let mut in_div: Stamped<u64> = Stamped::new(n);
    let mut last_div = [(); 2].map(|()| Stamped::<Option<usize>>::new(nt));
    let mut touched: Vec<(usize, TokenBlockId)> = Vec::new();
    let (mut remaining, mut kept) = (Vec::new(), Vec::new());
    let mut div_of_comp = vec![0usize; layout.comp_blocks.len()];

    for d in 0..n {
        let comps = &dev_comps[first[d]..first[d + 1]];
        // Division 0: blocks with no remote inputs at all. The others'
        // inputs, each counted once, are the device's total incoming volume
        // per source; a middle division takes at most 1/T of it.
        fetched.begin(std::iter::empty());
        total.reset();
        remaining.clear();
        for &c in comps {
            let inputs = remote_inputs(layout, placement, c, backward);
            if inputs.iter().all(Option::is_none) {
                out.items[d * t].push(c);
                div_of_comp[c.0 as usize] = 0;
                continue;
            }
            remaining.push(c);
            for (payload, src, bytes) in inputs.into_iter().flatten() {
                if fetched.get(payload).is_none() {
                    fetched.put(payload, Some(0));
                    total.set(src as usize, total.get(src as usize) + bytes);
                }
            }
        }
        fetched.clear();

        // Middle divisions 1..t-1 take, in id order, every block whose new
        // fetches keep the division's volume from each source under the
        // cap; the final division (division 0 itself when T == 1) takes
        // everything left.
        for i in (1..last).chain([last]) {
            in_div.reset();
            for c in remaining.drain(..) {
                let new = remote_inputs(layout, placement, c, backward)
                    .map(|f| f.filter(|&(payload, ..)| fetched.get(payload).is_none()));
                // Check, then commit or take back. Only the sources this
                // block adds to can newly exceed their cap.
                if i < last {
                    for &(_, src, bytes) in new.iter().flatten() {
                        in_div.set(src as usize, in_div.get(src as usize) + bytes);
                    }
                    let fits = new.iter().flatten().all(|&(_, src, _)| {
                        in_div.get(src as usize) <= total.get(src as usize).div_ceil(t as u64)
                    });
                    if !fits {
                        for &(_, src, bytes) in new.iter().flatten() {
                            in_div.set(src as usize, in_div.get(src as usize) - bytes);
                        }
                        kept.push(c);
                        continue;
                    }
                }
                for (payload, from, bytes) in new.into_iter().flatten() {
                    fetched.put(payload, Some(0));
                    out.fetch[d * t + i].push(Transfer {
                        from,
                        to: d as u32,
                        payload,
                        bytes,
                    });
                }
                out.items[d * t + i].push(c);
                div_of_comp[c.0 as usize] = i;
            }
            std::mem::swap(&mut remaining, &mut kept);
        }

        // Output transfers, grouped by launch division. Forward:
        // PartialO(qb, d) -> owner; backward: PartialDq(qb, d) and
        // PartialDkv(kb, d). With `early_output`, a partial launches right
        // after the last division on `d` that contributes to it; otherwise
        // everything launches after the final division (the paper's
        // Listing 3).
        last_div.iter_mut().for_each(Stamped::reset);
        touched.clear();
        for &c in comps {
            let cb = &layout.comp_blocks[c.0 as usize];
            let div = match cfg.early_output {
                true => div_of_comp[c.0 as usize],
                false => last,
            };
            for (side, tb) in [(0, cb.q_block), (1, cb.kv_block)] {
                if (side == 1 && !backward) || placement.token_dev(tb) == d as u32 {
                    continue;
                }
                let prev = last_div[side].get(tb.0 as usize);
                if prev.is_none() {
                    touched.push((side, tb));
                }
                last_div[side].set(tb.0 as usize, Some(prev.map_or(div, |p| p.max(div))));
            }
        }
        for &(side, tb) in &touched {
            let block = &layout.token_blocks[tb.0 as usize];
            let (payload, bytes) = match (side, backward) {
                (0, false) => (Payload::PartialO(tb, d as u32), block.o_bytes),
                (0, true) => (Payload::PartialDq(tb, d as u32), block.q_bytes),
                _ => (Payload::PartialDkv(tb, d as u32), block.kv_bytes),
            };
            let div = last_div[side].get(tb.0 as usize).expect("touched above");
            let to = placement.token_dev(tb);
            out.out[d * t + div].push(Transfer {
                from: d as u32,
                to,
                payload,
                bytes,
            });
            out.returned.push((to, tb, payload.kind(), d as u32));
        }
    }
    out.returned.sort_unstable();
    out
}

/// One phase: its divisions rendered as comm ops and instruction streams.
fn schedule_phase(
    layout: &BatchLayout,
    placement: &Placement,
    cfg: &ScheduleConfig,
    backward: bool,
) -> PhasePlan {
    let n = placement.num_devices as usize;
    let t = cfg.divisions as usize;
    let mut div = divide(layout, placement, cfg, backward);

    // Comm ops: fetches by (division, device), then returns by (device,
    // division); `waits` pairs every owner with the return ops it receives
    // from, ascending.
    let mut comms: Vec<CommOp> = Vec::new();
    let mut push_op = |transfers: &mut Vec<Transfer>| {
        (!transfers.is_empty()).then(|| {
            comms.push(CommOp {
                transfers: std::mem::take(transfers),
            });
            CommId(comms.len() as u32 - 1)
        })
    };
    let mut fetch_id = vec![None; n * t];
    for i in 0..t {
        for d in 0..n {
            fetch_id[d * t + i] = push_op(&mut div.fetch[d * t + i]);
        }
    }
    let out_id: Vec<Option<CommId>> = div.out.iter_mut().map(&mut push_op).collect();
    let mut waits: Vec<(u32, CommId)> = Vec::new();
    for cid in out_id.iter().flatten() {
        let op = &comms[cid.0 as usize];
        waits.extend(op.transfers.iter().map(|tr| (tr.to, *cid)));
    }
    waits.sort_unstable();
    waits.dedup();

    let owned = owned_bytes(layout, placement);
    let mut accounting = Accounting::new(layout);
    let mut devices = Vec::with_capacity(n);
    let (mut waits, mut returned) = (waits.as_slice(), div.returned.as_slice());
    for d in 0..n {
        let mut instrs: Vec<Instr> = Vec::new();
        for i in 0..t {
            if let Some(cid) = fetch_id[d * t + i] {
                // Division 0 normally has no communication; when it does
                // (T == 1 collapses everything into one division), launch
                // right before waiting.
                if i == 0 {
                    instrs.push(Instr::CommLaunch(cid));
                }
                instrs.push(Instr::CommWait(cid));
            }
            if i + 1 < t {
                if let Some(cid) = fetch_id[d * t + i + 1] {
                    instrs.push(Instr::CommLaunch(cid));
                }
            }
            let items = std::mem::take(&mut div.items[d * t + i]);
            if !items.is_empty() {
                let fwd_flops = |c: &CompBlockId| layout.comp_blocks[c.0 as usize].flops;
                instrs.push(if backward {
                    let flops = items
                        .iter()
                        .map(|c| fwd_flops(c) * BWD_RATIO.0 / BWD_RATIO.1)
                        .sum();
                    Instr::AttnBwd { items, flops }
                } else {
                    let flops = items.iter().map(fwd_flops).sum();
                    Instr::Attn { items, flops }
                });
            }
            // Launch output partials completed by this division, so the
            // return path overlaps later divisions.
            if let Some(cid) = out_id[d * t + i] {
                instrs.push(Instr::CommLaunch(cid));
            }
        }
        // Output phase: wait for every op delivering partials to this
        // device (any producer, any division), then reduce them.
        let mine = waits.partition_point(|w| w.0 == d as u32);
        instrs.extend(waits[..mine].iter().map(|w| Instr::CommWait(w.1)));
        waits = &waits[mine..];
        let mine = returned.partition_point(|r| r.0 == d as u32);
        if mine > 0 {
            let items: Vec<ReduceItem> = returned[..mine]
                .chunk_by(|a, b| (a.1, a.2) == (b.1, b.2))
                .map(|run| ReduceItem {
                    target: run[0].1,
                    sources: run.iter().map(|r| r.3).collect(),
                    kind: run[0].2,
                })
                .collect();
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
        returned = &returned[mine..];

        let buffer = accounting.stats(&comms, d as u32, &instrs, owned[d]);
        devices.push(DeviceStream {
            device: d as u32,
            instrs,
            buffer,
        });
    }

    PhasePlan { comms, devices }
}

/// Checks a plan against its layout and placement: [`verify_plan`] with the
/// diagnostic folded into the crate-wide error type.
///
/// # Errors
///
/// Returns [`DcpError::InvalidPlan`] describing the first violated rule.
pub fn validate_plan(
    layout: &BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
) -> DcpResult<()> {
    Ok(verify_plan(layout, placement, plan)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_blocks::BlockConfig;
    use dcp_mask::MaskSpec;
    use dcp_types::AttnSpec;
    use std::collections::{HashMap, HashSet};

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

    /// Ring-like placement: token block i of a single sequence to device
    /// i % n; comp with its q block.
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

    #[test]
    fn plan_validates_and_covers_all_blocks() {
        let l = layout(&[(4096, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        validate_plan(&l, &p, &plan).unwrap();
    }

    #[test]
    fn all_local_placement_has_no_comm() {
        let l = layout(&[(2048, MaskSpec::Causal)], 512);
        let p = Placement::all_on_zero(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        validate_plan(&l, &p, &plan).unwrap();
        assert_eq!(plan.total_comm_bytes(), 0);
        assert!(plan.fwd.comms.is_empty());
    }

    #[test]
    fn forward_comm_matches_connectivity_accounting() {
        // Each remote (block, consumer-device) pair is fetched exactly once,
        // and each remote partial returned once: total volume must equal the
        // sum over token blocks of
        //   q_bytes * |remote q-consumer devs| + o_bytes * (same)
        //   + kv_bytes * |remote kv-consumer devs|.
        let l = layout(&[(4096, MaskSpec::Causal), (1024, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let mut expect = 0u64;
        for (t, tb) in l.token_blocks.iter().enumerate() {
            let owner = p.token_to_dev[t];
            let q_devs: HashSet<u32> = l.q_consumers[t]
                .iter()
                .map(|&c| p.comp_dev(c))
                .filter(|&d| d != owner)
                .collect();
            let kv_devs: HashSet<u32> = l.kv_consumers[t]
                .iter()
                .map(|&c| p.comp_dev(c))
                .filter(|&d| d != owner)
                .collect();
            expect += (tb.q_bytes + tb.o_bytes) * q_devs.len() as u64
                + tb.kv_bytes * kv_devs.len() as u64;
        }
        assert_eq!(plan.fwd.total_comm_bytes(), expect);
    }

    #[test]
    fn division_zero_is_local() {
        let l = layout(&[(8192, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        for stream in &plan.fwd.devices {
            // The first attention instruction must come before any CommWait.
            let first_attn = stream
                .instrs
                .iter()
                .position(|i| matches!(i, Instr::Attn { .. }));
            let first_wait = stream
                .instrs
                .iter()
                .position(|i| matches!(i, Instr::CommWait(_)));
            if let (Some(a), Some(w)) = (first_attn, first_wait) {
                assert!(a < w, "division 0 should compute before any wait");
            }
        }
    }

    #[test]
    fn backward_has_gradient_returns() {
        let l = layout(&[(4096, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let has_dkv = plan
            .bwd
            .comms
            .iter()
            .flat_map(|c| c.transfers.iter())
            .any(|t| matches!(t.payload, Payload::PartialDkv(..)));
        assert!(has_dkv, "ring placement must return dKV partials");
        // Backward communicates at least as much as forward (extra dO and
        // gradient returns).
        assert!(plan.bwd.total_comm_bytes() >= plan.fwd.total_comm_bytes());
    }

    #[test]
    fn divisions_bound_comm_per_source() {
        // With T divisions, each middle division's per-source volume must be
        // within the cap (last division is exempt by construction).
        let l = layout(&[(16384, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 2);
        let t = 4u32;
        let plan = build_plan(
            &l,
            &p,
            &ScheduleConfig {
                divisions: t,
                ..Default::default()
            },
        )
        .unwrap();
        // Reconstruct per-op incoming volume; all input ops except possibly
        // one (the last division) must respect ceil(total/T) per source.
        for d in 0..2u32 {
            let mut totals: HashMap<u32, u64> = HashMap::new();
            let mut per_op: Vec<HashMap<u32, u64>> = Vec::new();
            for op in &plan.fwd.comms {
                let mut m: HashMap<u32, u64> = HashMap::new();
                for tr in &op.transfers {
                    if tr.to == d && matches!(tr.payload.kind(), PayloadKind::Q | PayloadKind::Kv) {
                        *m.entry(tr.from).or_insert(0) += tr.bytes;
                        *totals.entry(tr.from).or_insert(0) += tr.bytes;
                    }
                }
                if !m.is_empty() {
                    per_op.push(m);
                }
            }
            let violations = per_op
                .iter()
                .filter(|m| {
                    m.iter()
                        .any(|(&src, &b)| b > totals[&src].div_ceil(t as u64))
                })
                .count();
            assert!(
                violations <= 1,
                "device {d}: {violations} over-cap divisions"
            );
        }
    }

    #[test]
    fn t1_schedules_everything_in_one_division() {
        let l = layout(&[(4096, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(
            &l,
            &p,
            &ScheduleConfig {
                divisions: 1,
                ..Default::default()
            },
        )
        .unwrap();
        validate_plan(&l, &p, &plan).unwrap();
        for stream in &plan.fwd.devices {
            let attn_count = stream
                .instrs
                .iter()
                .filter(|i| matches!(i, Instr::Attn { .. }))
                .count();
            assert!(attn_count <= 1);
        }
    }

    #[test]
    fn sparse_mask_reduces_comm() {
        let lc = layout(&[(32768, MaskSpec::Causal)], 1024);
        let ll = layout(
            &[(
                32768,
                MaskSpec::Lambda {
                    sink: 64,
                    window: 2048,
                },
            )],
            1024,
        );
        let pc = ring_placement(&lc, 4);
        let pl = ring_placement(&ll, 4);
        let plan_c = build_plan(&lc, &pc, &ScheduleConfig::default()).unwrap();
        let plan_l = build_plan(&ll, &pl, &ScheduleConfig::default()).unwrap();
        assert!(
            plan_l.fwd.total_comm_bytes() < plan_c.fwd.total_comm_bytes(),
            "lambda mask should need fewer KV fetches even under the same placement"
        );
    }

    #[test]
    fn plan_json_roundtrip() {
        let l = layout(&[(2048, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 2);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let s = plan.to_json().unwrap();
        let back = ExecutionPlan::from_json(&s).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn rejects_bad_inputs() {
        let l = layout(&[(1024, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 2);
        assert!(build_plan(
            &l,
            &p,
            &ScheduleConfig {
                divisions: 0,
                ..Default::default()
            }
        )
        .is_err());
        let mut bad = p.clone();
        bad.comp_to_dev.pop();
        assert!(build_plan(&l, &bad, &ScheduleConfig::default()).is_err());
    }
}
