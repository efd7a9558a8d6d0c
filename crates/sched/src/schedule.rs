//! The division scheduler (paper Sec. 4.3, Listing 3) and instruction
//! emission.
//!
//! Given a placement, the required communication is fully determined: a
//! remote input block is fetched **once per consuming device** (not once per
//! computation block), and a partial output is returned **once per producing
//! device** — exactly the `s_e * (lambda_e - 1)` accounting of the
//! hypergraph objective.
//!
//! The scheduler groups each device's computation blocks into at most `T`
//! divisions. Division 0 holds the blocks needing no communication; the
//! device's other blocks go to divisions `1..T-1` in two steps:
//!
//! 1. *Order.* The paper's volume-cap greedy fills divisions `1..T-2` in
//!    block order, each with at most `1/T` of the device's incoming volume
//!    per source, and leaves the rest to the last. Its divisions, read one
//!    after another, are the order of the device's remote blocks; as each
//!    block joins the order its new input bytes, its flops and the partials
//!    it is the last contributor to are recorded there.
//! 2. *Cut.* Divisions `1..T-1` are consecutive slices of that order, cut
//!    where [`modelled_finish`] — the stream replayed under the simulator's
//!    charges ([`ScheduleConfig::cost`]) — says the device is done soonest.
//!    The candidate cuts are the flop octiles of the order and the greedy's
//!    own boundaries, so the greedy's divisions are always a candidate;
//!    the cost decides how many divisions are non-empty.
//!
//! A device's order and cuts read its own blocks, the placement and the
//! cost alone, so one device's divisions depend on no other's, the order in
//! which devices are visited cannot change a plan, and they are taken in
//! rank order, each scheduled to the end on scratch tables the next one
//! reuses. Each division's fetch is launched when the previous division
//! starts, which is what overlaps transfer and attention time.
//!
//! Timing assumption encoded in the emitted streams: *input* fetches (Q, KV,
//! dO) carry model input data that exists from the start of the phase, so
//! only the receiver's `CommLaunch` gates them; *output* partials
//! (O/dQ/dKV) are produced data, so the producer launches each right after
//! the last division contributing to it, and the owner waits before its
//! final reduction.

use dcp_blocks::{BatchLayout, CompBlockId, TokenBlockId};
use dcp_types::{CostModel, DcpError, DcpResult};
use serde::{Deserialize, Serialize};

use crate::buffer::{owned_bytes, Accounting};
use crate::placement::Placement;
use crate::plan::{
    CommId, CommOp, DeviceStream, ExecutionPlan, Instr, Payload, PayloadKind, PhasePlan,
    ReduceItem, Transfer,
};
use crate::table::{PayloadTable, Stamped};

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleConfig {
    /// Most divisions `T` a device's stream is cut into (the paper fixes 4).
    pub divisions: u32,
    /// What the cuts are priced with: the cluster the plan will run on
    /// ([`dcp_types::ClusterSpec::cost`]). Defaults to the paper's p4de.
    #[serde(default)]
    pub cost: CostModel,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            divisions: 4,
            cost: CostModel::default(),
        }
    }
}

/// One division of a device's stream, as [`modelled_finish`] prices it.
/// Byte pairs are indexed like [`CostModel::links`]: same node, then other
/// nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DivisionLoad {
    /// Bytes of the inputs the division waits for.
    pub fetch: [u64; 2],
    /// Flops of its attention kernel; `None` when it has no blocks.
    pub flops: Option<u64>,
    /// Bytes of the partials launched right after it.
    pub out: [u64; 2],
}

/// When a device is done with `divisions` under `cost`: the later of its
/// last kernel's end and its last partial's arrival. The stream is replayed
/// as the scheduler emits it — division `i + 1`'s fetch launches when
/// division `i` starts (division 0's, if any, at time 0), a division starts
/// when the previous one has ended and its own fetch has landed, and its
/// partials launch when its kernel ends. Bytes on one link queue behind each
/// other and land after the link's latency; nothing else contends.
pub fn modelled_finish(cost: &CostModel, divisions: &[DivisionLoad]) -> f64 {
    let priced: Vec<Priced> = divisions.iter().map(|d| d.price(cost)).collect();
    let start = Replay {
        arrived: priced.first().map_or(0.0, |d| d.fetch),
        ..Replay::default()
    };
    let next = |i: usize| priced.get(i + 1).map_or(0.0, |d| d.fetch);
    let run = priced.iter().enumerate();
    run.fold(start, |r, (i, div)| r.step(div, next(i))).finish
}

/// A division's charges: seconds from its fetch's launch to its landing
/// (a fetch never queues: the previous one has landed when it launches),
/// its kernel, and per link its partials' latency and wire time — a
/// latency of −∞ when the link carries none, so it never moves the link's
/// clock.
#[derive(Debug, Clone, Copy)]
struct Priced {
    fetch: f64,
    kernel: f64,
    out: [(f64, f64); 2],
}

impl DivisionLoad {
    fn price(&self, cost: &CostModel) -> Priced {
        let wire = |bytes: [u64; 2]| {
            [0, 1].map(|l| match cost.links[l] {
                _ if bytes[l] == 0 => (f64::NEG_INFINITY, 0.0),
                (latency, per_byte) => (latency, bytes[l] as f64 * per_byte),
            })
        };
        let fetch = wire(self.fetch).map(|(latency, wire)| latency + wire);
        Priced {
            fetch: fetch.into_iter().fold(0.0, f64::max),
            kernel: self.flops.map_or(0.0, |f| cost.kernel(f)),
            out: wire(self.out),
        }
    }
}

/// A device's stream replayed up to the start of a division.
#[derive(Debug, Clone, Copy, Default)]
struct Replay {
    /// When the previous division's kernel ended.
    end: f64,
    /// When this division's fetch lands.
    arrived: f64,
    /// When each outbound link is next idle (never later than `finish`).
    free: [f64; 2],
    finish: f64,
}

impl Replay {
    /// Runs division `div`, launching the next division's fetch (`next`
    /// seconds to land) when it starts.
    fn step(mut self, div: &Priced, next: f64) -> Replay {
        let start = self.end.max(self.arrived);
        self.arrived = start + next;
        self.end = start + div.kernel;
        self.finish = self.finish.max(self.end);
        for (free, (latency, wire)) in self.free.iter_mut().zip(div.out) {
            *free = free.max(self.end + latency) + wire;
            self.finish = self.finish.max(*free);
        }
        self
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

/// The link between ranks `a` and `b`, as [`CostModel::links`] indexes
/// them: 0 on one node, 1 across nodes.
fn link(cost: &CostModel, a: u32, b: u32) -> usize {
    let per_node = cost.devices_per_node.max(1);
    usize::from(a / per_node != b / per_node)
}

/// Flops of `comp`'s kernel in the phase.
pub(crate) fn kernel_flops(layout: &BatchLayout, comp: CompBlockId, backward: bool) -> u64 {
    let flops = layout.comp_blocks[comp.0 as usize].flops;
    match backward {
        true => flops * BWD_RATIO.0 / BWD_RATIO.1,
        false => flops,
    }
}

/// What every device does in every division — `[d * t + i]` is device `d`,
/// division `i` — and every partial that travels back.
struct Divisions {
    /// Computation blocks: division 0's local ones in id order, the others
    /// in their device's order.
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

/// A device's order up to one position, as running totals: `steps[p]`
/// covers the blocks before position `p`.
#[derive(Debug, Clone, Copy, Default)]
struct Step {
    /// New input bytes, by link.
    fetch: [u64; 2],
    /// Kernel flops.
    flops: u64,
    /// Bytes of the partials whose last contributor is among them, by link.
    out: [u64; 2],
    /// Their new inputs are the device's first this many transfers.
    transfers: usize,
}

/// The division holding positions `from..to` of a device's order.
fn load(steps: &[Step], from: usize, to: usize) -> DivisionLoad {
    let (a, b) = (&steps[from], &steps[to]);
    DivisionLoad {
        fetch: [0, 1].map(|l| b.fetch[l] - a.fetch[l]),
        flops: (to > from).then(|| b.flops - a.flops),
        out: [0, 1].map(|l| b.out[l] - a.out[l]),
    }
}

/// The cut search's scratch, reused by every device of a phase.
#[derive(Default)]
struct Cuts {
    /// Positions a cut may take, ascending.
    candidates: Vec<usize>,
    /// Every division the cuts can make, priced once: `priced[i * k + j]`
    /// is positions `candidates[i]..candidates[j]` (for `i <= j`).
    priced: Vec<Priced>,
    /// The cuts being tried and the best so far, as indices into
    /// `candidates`, nondecreasing: `at[i - 1]` ends division `i`.
    at: Vec<usize>,
    best: Vec<usize>,
    least: f64,
}

impl Cuts {
    /// Moves the free bounds of `bounds` — `bounds[2..t]`, where divisions
    /// `1..t-1` meet — to the candidates under which the device finishes
    /// soonest. `bounds` comes in as the greedy's divisions and is kept on
    /// a tie, so the choice is never worse under the model.
    fn choose(
        &mut self,
        cost: &CostModel,
        steps: &[Step],
        local: Option<u64>,
        bounds: &mut [usize],
    ) {
        let (t, m) = (bounds.len() - 1, steps.len() - 1);
        let total = u128::from(steps[m].flops);
        let octile = |q| steps.partition_point(|s| u128::from(s.flops) * 8 < total * q);
        self.candidates.clear();
        self.candidates.extend_from_slice(&bounds[2..t]);
        self.candidates.push(m);
        self.candidates.extend((0..8).map(octile));
        self.candidates.sort_unstable();
        self.candidates.dedup();
        let none = DivisionLoad::default().price(cost);
        self.priced.clear();
        for (i, &from) in self.candidates.iter().enumerate() {
            let row = self
                .candidates
                .iter()
                .enumerate()
                .map(|(j, &to)| match j < i {
                    true => none,
                    false => load(steps, from, to).price(cost),
                });
            self.priced.extend(row);
        }
        let local = DivisionLoad {
            flops: local,
            ..DivisionLoad::default()
        }
        .price(cost);

        let index = |b| {
            self.candidates
                .binary_search(&b)
                .expect("every bound is a candidate")
        };
        self.best.clear();
        self.best.extend(bounds[2..t].iter().map(|&b| index(b)));
        self.least = self.finish(&local, &self.best);
        self.at.clear();
        self.at.resize(t - 2, 0);
        self.search(1, &local, Replay::default());
        for (bound, &i) in bounds[2..t].iter_mut().zip(&self.best) {
            *bound = self.candidates[i];
        }
    }

    /// When the device finishes under `cuts`, replayed as
    /// [`Cuts::search`] replays them.
    fn finish(&self, local: &Priced, cuts: &[usize]) -> f64 {
        let k = self.candidates.len();
        let (mut replay, mut div, mut from) = (Replay::default(), *local, 0);
        for &to in cuts.iter().chain([k - 1].iter()) {
            let next = self.priced[from * k + to];
            replay = replay.step(&div, next.fetch);
            (div, from) = (next, to);
        }
        replay.step(&div, 0.0).finish
    }

    /// Tries every end of division `i` from where division `i - 1` ends,
    /// with the stream replayed up to the start of division `i - 1`
    /// (`before`, which is `prev`): depth first, so the divisions the cuts
    /// tried share are replayed once.
    fn search(&mut self, i: usize, prev: &Priced, before: Replay) {
        let k = self.candidates.len();
        let from = if i == 1 { 0 } else { self.at[i - 2] };
        for to in from..k {
            let div = self.priced[from * k + to];
            let at_i = before.step(prev, div.fetch);
            self.at[i - 1] = to;
            if i < self.at.len() {
                self.search(i + 1, &div, at_i);
                continue;
            }
            let last = &self.priced[to * k + k - 1];
            let finish = at_i.step(&div, last.fetch).step(last, 0.0).finish;
            if finish < self.least {
                self.least = finish;
                self.best.clone_from(&self.at);
            }
        }
    }
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
    let cost = &cfg.cost;
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
    // the greedy division being filled; the last position of its order
    // touching each partial it produces (by Q block: O or dQ; by KV block:
    // dKV) and those partials in the order its blocks first touch them; its
    // order, the new transfers in the order the greedy commits them, the
    // running totals and the division bounds.
    let mut fetched = PayloadTable::new(nt);
    let mut total: Stamped<u64> = Stamped::new(n);
    let mut in_div: Stamped<u64> = Stamped::new(n);
    let mut last_at = [(); 2].map(|()| Stamped::<Option<usize>>::new(nt));
    let mut touched: Vec<(usize, TokenBlockId)> = Vec::new();
    let (mut remaining, mut kept) = (Vec::new(), Vec::new());
    let (mut order, mut fetches) = (Vec::new(), Vec::new());
    let (mut steps, mut bounds) = (Vec::new(), Vec::new());
    let mut cuts = Cuts::default();

    for d in 0..n {
        let dev = d as u32;
        let comps = &dev_comps[first[d]..first[d + 1]];
        // Division 0: blocks with no remote inputs at all. The others'
        // inputs, each counted once, are the device's total incoming volume
        // per source; a greedy middle division takes at most 1/T of it.
        fetched.begin(std::iter::empty());
        total.reset();
        remaining.clear();
        let mut local = None;
        for &c in comps {
            let inputs = remote_inputs(layout, placement, c, backward);
            if inputs.iter().all(Option::is_none) {
                out.items[d * t].push(c);
                *local.get_or_insert(0) += kernel_flops(layout, c, backward);
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

        // Order: the greedy's middle divisions 1..t-1 take, in id order,
        // every block whose new fetches keep the division's volume from each
        // source under the cap; the final division (division 0 itself when
        // T == 1) takes everything left. Each block committed takes the next
        // position; `bounds[i]..bounds[i + 1]` is division i's share.
        last_at.iter_mut().for_each(Stamped::reset);
        touched.clear();
        order.clear();
        fetches.clear();
        steps.clear();
        steps.push(Step::default());
        bounds.clear();
        bounds.extend_from_slice(if t == 1 { &[0] } else { &[0, 0] });
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
                let mut step = steps[order.len()];
                for (payload, from, bytes) in new.into_iter().flatten() {
                    fetched.put(payload, Some(0));
                    fetches.push(Transfer {
                        from,
                        to: dev,
                        payload,
                        bytes,
                    });
                    step.fetch[link(cost, from, dev)] += bytes;
                }
                step.transfers = fetches.len();
                step.flops += kernel_flops(layout, c, backward);
                let cb = &layout.comp_blocks[c.0 as usize];
                for (side, tb) in [(0, cb.q_block), (1, cb.kv_block)] {
                    if (side == 1 && !backward) || placement.token_dev(tb) == dev {
                        continue;
                    }
                    if last_at[side].get(tb.0 as usize).is_none() {
                        touched.push((side, tb));
                    }
                    last_at[side].set(tb.0 as usize, Some(order.len()));
                }
                order.push(c);
                steps.push(step);
            }
            std::mem::swap(&mut remaining, &mut kept);
            bounds.push(order.len());
        }

        // The partials' bytes at their last contributor, as running totals.
        // Forward: PartialO(qb, d) -> owner; backward: PartialDq(qb, d) and
        // PartialDkv(kb, d).
        let partial = |side: usize, tb: TokenBlockId| {
            let block = &layout.token_blocks[tb.0 as usize];
            match (side, backward) {
                (0, false) => (Payload::PartialO(tb, dev), block.o_bytes),
                (0, true) => (Payload::PartialDq(tb, dev), block.q_bytes),
                _ => (Payload::PartialDkv(tb, dev), block.kv_bytes),
            }
        };
        for &(side, tb) in &touched {
            let at = last_at[side].get(tb.0 as usize).expect("touched above");
            let to = link(cost, dev, placement.token_dev(tb));
            steps[at + 1].out[to] += partial(side, tb).1;
        }
        for p in 1..steps.len() {
            let before = steps[p - 1].out;
            steps[p].out[0] += before[0];
            steps[p].out[1] += before[1];
        }

        // Cut: divisions 1..t-1 are slices of the order, sized by the cost.
        if t > 2 {
            cuts.choose(cost, &steps, local, &mut bounds);
        }
        for i in 0..t {
            let (from, to) = (bounds[i], bounds[i + 1]);
            out.items[d * t + i].extend_from_slice(&order[from..to]);
            let new = &fetches[steps[from].transfers..steps[to].transfers];
            out.fetch[d * t + i].extend_from_slice(new);
        }
        // A partial launches right after the division of its last
        // contributor.
        for &(side, tb) in &touched {
            let at = last_at[side].get(tb.0 as usize).expect("touched above");
            let div = bounds[1..t].partition_point(|&b| b <= at);
            let (payload, bytes) = partial(side, tb);
            let to = placement.token_dev(tb);
            out.out[d * t + div].push(Transfer {
                from: dev,
                to,
                payload,
                bytes,
            });
            out.returned.push((to, tb, payload.kind(), dev));
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
                let flops = items
                    .iter()
                    .map(|&c| kernel_flops(layout, c, backward))
                    .sum();
                instrs.push(match backward {
                    true => Instr::AttnBwd { items, flops },
                    false => Instr::Attn { items, flops },
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_plan;
    use dcp_blocks::BlockConfig;
    use dcp_mask::MaskSpec;
    use dcp_types::AttnSpec;
    use std::collections::HashSet;

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
        verify_plan(&l, &p, &plan).unwrap();
    }

    #[test]
    fn all_local_placement_has_no_comm() {
        let l = layout(&[(2048, MaskSpec::Causal)], 512);
        let p = Placement::all_on_zero(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        verify_plan(&l, &p, &plan).unwrap();
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
        // Per token block, the remote devices reading its Q and its KV.
        let mut devs = vec![[HashSet::new(), HashSet::new()]; l.token_blocks.len()];
        for (cb, &d) in l.comp_blocks.iter().zip(&p.comp_to_dev) {
            for (side, tb) in [cb.q_block, cb.kv_block].into_iter().enumerate() {
                if d != p.token_dev(tb) {
                    devs[tb.0 as usize][side].insert(d);
                }
            }
        }
        let mut expect = 0u64;
        for (tb, [q_devs, kv_devs]) in l.token_blocks.iter().zip(&devs) {
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
    fn modelled_finish_replays_the_stream() {
        // One second per byte on each link, latency 0.5 / 2, 1 s a kernel.
        let cost = CostModel {
            devices_per_node: 2,
            effective_flops: 1.0,
            kernel_overhead: 0.0,
            links: [(0.5, 1.0), (2.0, 1.0)],
        };
        let div = |fetch, flops, out| DivisionLoad { fetch, flops, out };
        let divs = [
            div([0, 0], Some(1), [0, 0]),
            div([3, 0], Some(1), [2, 0]),
            div([0, 1], Some(4), [0, 1]),
            div([0, 0], None, [0, 0]),
        ];
        // Fetch 1 lands at 3.5, division 1 runs 3.5..4.5 and launches
        // fetch 2 (lands at 6.5) at its start; its partials land at 7.
        // Division 2 runs 6.5..10.5, its partial lands at 13.5.
        assert_eq!(modelled_finish(&cost, &divs), 13.5);
        // A partial still on the link delays the next one on it.
        let queued = [div([0, 0], Some(1), [4, 0]), div([0, 0], Some(1), [1, 0])];
        assert_eq!(modelled_finish(&cost, &queued), 6.5);
        assert_eq!(modelled_finish(&cost, &[]), 0.0);
    }

    #[test]
    fn cuts_are_never_worse_than_the_bounds_they_start_from() {
        // Orders of random blocks, and random divisions to start from: the
        // search keeps them unless some candidate finishes strictly sooner.
        let cost = CostModel::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let finish = |steps: &[Step], local, bounds: &[usize]| {
            let zero = DivisionLoad {
                flops: local,
                ..DivisionLoad::default()
            };
            let rest = bounds[1..].windows(2).map(|w| load(steps, w[0], w[1]));
            let loads: Vec<DivisionLoad> = [zero].into_iter().chain(rest).collect();
            modelled_finish(&cost, &loads)
        };
        for case in 0..200 {
            let (m, t) = (draw(12) as usize, 3 + case % 3);
            let mut steps = vec![Step::default()];
            for _ in 0..m {
                let mut s = *steps.last().unwrap();
                s.fetch[draw(2) as usize] += draw(1 << 26);
                s.flops += draw(1 << 38);
                s.out[draw(2) as usize] += draw(1 << 24);
                steps.push(s);
            }
            let mut start: Vec<usize> = (0..t - 2).map(|_| draw(m as u64 + 1) as usize).collect();
            start.sort_unstable();
            let start: Vec<usize> = [0, 0].into_iter().chain(start).chain([m]).collect();
            let local = (case % 2 == 0).then(|| draw(1 << 36));
            let mut best = start.clone();
            Cuts::default().choose(&cost, &steps, local, &mut best);
            let (before, after) = (finish(&steps, local, &start), finish(&steps, local, &best));
            assert!(after <= before, "case {case}: {after} > {before}");
            assert!(best.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!((best[1], best[t]), (0, m));
            if after == before {
                assert_eq!(best, start, "case {case}: a tie moved the cuts");
            }
        }
    }

    #[test]
    fn the_cost_decides_how_many_divisions_are_non_empty() {
        let l = layout(&[(65536, MaskSpec::Causal)], 4096);
        let p = ring_placement(&l, 4);
        let kernels = |cost: CostModel| {
            let plan = build_plan(&l, &p, &ScheduleConfig { divisions: 4, cost }).unwrap();
            verify_plan(&l, &p, &plan).unwrap();
            let attn = |i: &&Instr| matches!(i, Instr::Attn { .. });
            let per_device = plan
                .fwd
                .devices
                .iter()
                .map(|s| s.instrs.iter().filter(attn).count());
            per_device.max().unwrap()
        };
        // Links a hundred times slower: transfers rival the kernels, and
        // fetching in steps hides them.
        let mut slow = CostModel::default();
        slow.links.iter_mut().for_each(|link| link.1 *= 100.0);
        assert_eq!(kernels(slow), 4);
        // A launch that costs a second is never worth a second kernel past
        // the one whose fetch division 0 hides.
        let dear = CostModel {
            kernel_overhead: 1.0,
            ..CostModel::default()
        };
        assert_eq!(kernels(dear), 2);
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
        verify_plan(&l, &p, &plan).unwrap();
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
