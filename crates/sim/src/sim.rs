//! The timing backend of the stream walker: what an instruction stream
//! *costs*.
//!
//! [`dcp_sched::stream::Stream::walk`] advances every device through its
//! stream — the order devices run in, what a `CommWait` blocks on, the
//! deadlock check and its diagnostic are the walker's, shared with the
//! executor and the verifier. This module supplies the clock: a launch's
//! transfers become flows on the max-min [`Network`], coalesced per (op,
//! src, dst); a kernel occupies its device until a timer is due; when no
//! device can move, time steps to the earlier of the next timer and the
//! next network event, and the flows that completed wake their receivers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dcp_blocks::TokenBlockId;
use dcp_sched::stream::{At, AttnItem, Backend, Stream, Wake};
use dcp_sched::{
    ExecutionPlan, Instr, Payload, PayloadKind, PhasePlan, RecoveryCtx, ReduceItem, Transfer,
};
use dcp_types::{ClusterSpec, CostModel, DcpError, DcpResult};
use serde::{Deserialize, Serialize};

use crate::fault::{jitter, FaultSpec};
use crate::network::{FlowId, Network};
use crate::trace::{TraceEvent, TraceKind};

/// Per-device timing breakdown of one simulated phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceTimeline {
    /// Seconds spent in attention kernels.
    pub attn: f64,
    /// Seconds spent in reduction kernels.
    pub reduce: f64,
    /// Seconds spent in copy kernels.
    pub copy: f64,
    /// Seconds blocked in `CommWait` (exposed, non-overlapped comm).
    pub exposed_wait: f64,
    /// Wall-clock seconds during which at least one flow touched this
    /// device.
    pub comm_active: f64,
    /// Portion of `comm_active` concurrent with this device's compute
    /// (communication successfully hidden).
    pub overlap: f64,
    /// Time this device finished its stream.
    pub finish: f64,
}

impl DeviceTimeline {
    /// Total compute seconds (attention + reduce + copy).
    pub fn compute(&self) -> f64 {
        self.attn + self.reduce + self.copy
    }
}

/// The result of simulating one phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSim {
    /// Completion time of the slowest device.
    pub makespan: f64,
    /// Per-device breakdowns.
    pub devices: Vec<DeviceTimeline>,
}

impl PhaseSim {
    /// Maximum exposed communication across devices.
    pub fn max_exposed(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.exposed_wait)
            .fold(0.0, f64::max)
    }
}

/// The result of simulating a full plan (forward, then backward).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSim {
    /// Forward phase result.
    pub fwd: PhaseSim,
    /// Backward phase result.
    pub bwd: PhaseSim,
}

impl PlanSim {
    /// Total attention-operator time: forward + backward makespans (the
    /// backward starts only after the loss, i.e. after the forward
    /// completes globally).
    pub fn total(&self) -> f64 {
        self.fwd.makespan + self.bwd.makespan
    }
}

/// Everything one simulated phase yields.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// Makespan and per-device breakdowns.
    pub sim: PhaseSim,
    /// Compute segments, exposed waits and transfers by start time, for
    /// [`crate::trace::trace_to_obs`] (then `dcp_obs::to_chrome_trace`) or
    /// [`crate::trace::ascii_gantt`].
    pub trace: Vec<TraceEvent>,
    /// Work counters (for throughput benchmarking).
    pub counters: SimCounters,
}

/// Event-loop and network-engine counters from one simulated phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounters {
    /// Discrete events the clock stepped through.
    pub events: u64,
    /// Flows carried by the network.
    pub flows: u64,
    /// Water-fill invocations in the network engine.
    pub recomputes: u64,
    /// Total flows visited across all water-fills.
    pub touched_flows: u64,
    /// Polls of a `CommWait`: one when a device reaches it, and one each
    /// time the device is woken there by a flow that finished into it.
    pub wait_checks: u64,
}

/// Simulates one phase of a plan on `cluster` under the faults of `spec`
/// ([`FaultSpec::none`] for a clean run); plan ranks are cluster ranks.
/// Stragglers stretch kernels (the extension shows up as
/// [`TraceKind::Straggle`] and in the device's compute buckets),
/// degraded/failed links cap flow rates, and delayed devices idle (as
/// [`TraceKind::Delay`]) before their first instruction; a run is
/// deterministic in `spec.seed`. The phase is walked by [`Stream::walk`],
/// launch/wait structure only, as [`dcp_sched::verify_structure`] walks it.
///
/// # Errors
///
/// [`DcpError::InvalidPlan`], carrying the walker's diagnostic, if the
/// streams deadlock (a wait on a transfer that is never launched) or
/// reference comm ops outside the op table or devices outside the phase,
/// and if the phase has more devices than the cluster.
pub fn simulate(cluster: &ClusterSpec, phase: &PhasePlan, spec: &FaultSpec) -> DcpResult<SimRun> {
    let ctx = RecoveryCtx::default();
    simulate_on(cluster, Network::new(cluster.clone()), phase, &ctx, spec)
}

/// [`simulate`] in full: `phase` read under `ctx` (a recovery patch's; the
/// default for a plan), on a caller-built network, which must be new and
/// over `cluster` — how the scratch reference engine
/// ([`Network::use_scratch_engine`]) stays reachable for the tests and
/// reports that hold the incremental one to it. The last
/// `ctx.shard_hosts.len()` streams are shards on their hosts' clocks
/// (DESIGN.md "What the timing backend adds"): results are per rank.
///
/// # Errors
///
/// As [`simulate`], for the ranks of the phase; also
/// [`DcpError::InvalidPlan`] if a shard's host is not one of them.
pub fn simulate_on(
    cluster: &ClusterSpec,
    mut net: Network,
    phase: &PhasePlan,
    ctx: &RecoveryCtx,
    spec: &FaultSpec,
) -> DcpResult<SimRun> {
    cluster.validate()?;
    let streams = phase.devices.len();
    let shard_hosts = ctx.shard_hosts.as_slice();
    // The streams that are not shards are the ranks (none, if there are
    // more shards than streams: then no host is one of them).
    let n = streams.saturating_sub(shard_hosts.len());
    if n as u32 > cluster.num_devices() {
        return Err(DcpError::invalid_plan(format!(
            "plan uses {n} devices, cluster has {}",
            cluster.num_devices()
        )));
    }
    if let Some(host) = shard_hosts.iter().find(|&&h| h as usize >= n) {
        return Err(DcpError::invalid_plan(format!(
            "a shard is hosted on rank {host}: {streams} streams less {} shards are {n} ranks",
            shard_hosts.len()
        )));
    }
    for (src, dst, factor) in spec.link_factors() {
        net.set_link_factor(src, dst, factor);
    }
    // A delayed rank idles until its injected start time.
    let ready = spec.delays(n);
    let delayed =
        |d: &u32| ready[*d as usize] > 0.0 && !phase.devices[*d as usize].instrs.is_empty();
    let mut timing = Timing {
        cluster,
        cost: cluster.cost(),
        seed: spec.seed,
        net,
        shard_hosts,
        slow: spec.slowdowns(n),
        now: 0.0,
        counters: SimCounters::default(),
        timers: (0..n as u32)
            .filter(|&d| ready[d as usize] > EPS)
            .map(|d| Reverse((ready[d as usize].to_bits(), d)))
            .collect(),
        trace: (0..n as u32)
            .filter(delayed)
            .map(|d| TraceEvent {
                device: d,
                kind: TraceKind::Delay,
                start: 0.0,
                end: ready[d as usize],
            })
            .collect(),
        ready,
        turned_away: vec![Vec::new(); n],
        rows: [(); 2].map(|()| vec![(0, 0); n]),
        launches: 1,
        op_pairs: vec![0; phase.comms.len()],
        pairs: Vec::new(),
        launched: 0,
        flows: Vec::new(),
        ended: Vec::new(),
        wait_start: vec![None; streams],
        tl: vec![DeviceTimeline::default(); n],
        busy: vec![Vec::new(); n],
    };
    Stream {
        phase,
        backward: false,
        ctx,
        logical: None,
    }
    .walk(&mut timing)?;
    Ok(timing.finish())
}

/// A device whose kernel ends within this of the current instant is free.
const EPS: f64 = 1e-15;

/// All transfers of one comm op between one pair of ranks, coalesced into
/// one flow so large fused operations (e.g. a ring step relaying hundreds
/// of KV blocks) cost one flow, not hundreds. Its index is what the walker
/// holds as a transfer's slot.
struct Pair {
    op: u32,
    from: u32,
    to: u32,
    /// Summed over the transfers of the launch that opened the pair: the
    /// first launch of a pair wins, later ones add nothing to it.
    bytes: u64,
    /// Set, with `active_at`, when that launch has been polled.
    flow: Option<FlowId>,
    active_at: f64,
    end: Option<f64>,
    /// 1 + the pair of the same op an earlier launch opened (0: none).
    prev: u32,
}

/// The flow of `pair` is done: its receiving rank's own stream, or a shard
/// on that rank (the streams from `ranks` up), may be blocked on its op.
fn landed_on(ranks: usize, shard_hosts: &[u32], pair: &Pair, wake: &mut Wake) {
    wake.landed(pair.op, pair.to);
    let shards = (ranks as u32..).zip(shard_hosts);
    for (shard, _) in shards.filter(|&(_, &host)| host == pair.to) {
        wake.landed(pair.op, shard);
    }
}

/// The timing backend of the stream walker: a slot is a flow on the max-min
/// network, a kernel is a timer, and the clock steps to whichever is due
/// first. The walker decides which stream runs next and what a wait blocks
/// on; everything here is about *when*, and a *when* belongs to a rank:
/// the streams past the ranks are shards on their hosts' clocks.
struct Timing<'a> {
    cluster: &'a ClusterSpec,
    /// What a kernel costs, as the division scheduler prices it.
    cost: CostModel,
    /// The fault spec's seed, for the straggler jitter.
    seed: u64,
    net: Network,
    /// The rank hosting each shard.
    shard_hosts: &'a [u32],
    now: f64,
    counters: SimCounters,
    /// Per rank: its straggler factor, when its kernel or start delay is
    /// over, and the streams it has turned away until then.
    slow: Vec<f64>,
    ready: Vec<f64>,
    turned_away: Vec<Vec<u32>>,
    /// `(time, rank)` of every rank in a kernel or a start delay, earliest
    /// first. Times are non-negative, so their bit patterns order as they
    /// do.
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    /// The pairs of the launch being walked by their far end: `rows[0]` by
    /// dst for those leaving the launcher's rank, `rows[1]` by src for those
    /// entering it, each entry `(launch, pair)` and current only while
    /// `launch == launches`.
    rows: [Vec<(u32, usize)>; 2],
    launches: u32,
    /// Per comm op: 1 + the last pair a finished launch of it opened (0:
    /// none); earlier ones chain through `Pair::prev`.
    op_pairs: Vec<u32>,
    pairs: Vec<Pair>,
    /// The pairs from here on were opened by the launch being walked.
    launched: usize,
    /// `flows[i]` is the pair of the flow the network numbered `i`.
    flows: Vec<usize>,
    /// Pairs whose flow completed since the last event: it ends at the next.
    ended: Vec<usize>,
    /// Per stream: when it first blocked on the wait it is at.
    wait_start: Vec<Option<f64>>,
    /// Per rank: its breakdown, and its compute busy intervals for overlap
    /// accounting.
    tl: Vec<DeviceTimeline>,
    busy: Vec<Vec<(f64, f64)>>,
    trace: Vec<TraceEvent>,
}

impl Timing<'_> {
    /// The rank whose clock stream `l` runs on: itself, or a shard's host.
    fn host(&self, l: u32) -> u32 {
        match (l as usize).checked_sub(self.tl.len()) {
            Some(shard) => self.shard_hosts[shard],
            None => l,
        }
    }

    /// Whether `rank` is in no kernel or start delay.
    fn idle(&self, rank: u32) -> bool {
        self.ready[rank as usize] <= self.now + EPS
    }

    /// The pair of `op` from rank `from` to rank `to`, if a launch opened
    /// it: the launch being walked (by `row`, `(side, far end)`, when one
    /// end is the launcher's rank) or an earlier one.
    fn pair(&self, op: u32, from: u32, to: u32, row: Option<(usize, u32)>) -> Option<usize> {
        let same = |p: &Pair| (p.op, p.from, p.to) == (op, from, to);
        let current = match row {
            Some((side, far)) => match self.rows[side][far as usize] {
                (launch, s) if launch == self.launches => Some(s),
                _ => None,
            },
            None => (self.launched..self.pairs.len()).find(|&s| same(&self.pairs[s])),
        };
        current.or_else(|| {
            let mut at = self.op_pairs[op as usize];
            while at != 0 {
                let s = at as usize - 1;
                if same(&self.pairs[s]) {
                    return Some(s);
                }
                at = self.pairs[s].prev;
            }
            None
        })
    }

    /// Takes the flows the network completed since the last call: each may
    /// wake its receivers now, and gets its end time at the next event.
    fn settle(&mut self, wake: &mut Wake) {
        for f in self.net.drain_completed() {
            let pair = &self.pairs[self.flows[f.0]];
            self.ended.push(self.flows[f.0]);
            landed_on(self.tl.len(), self.shard_hosts, pair, wake);
        }
    }

    /// Interval accounting and the transfer events, once every stream is
    /// done: per device, comm_active = |union of its flow intervals|,
    /// overlap = |union(flows) ∩ union(busy)|.
    fn finish(mut self) -> SimRun {
        let n = self.tl.len();
        let mut per_dev_flows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
        for p in self.flows.iter().map(|&s| &self.pairs[s]) {
            let end = p.end.unwrap_or(self.now).max(p.active_at);
            if end > p.active_at {
                per_dev_flows[p.from as usize].push((p.active_at, end));
                per_dev_flows[p.to as usize].push((p.active_at, end));
                // One transfer event per flow, on the receiving device.
                self.trace.push(TraceEvent {
                    device: p.to,
                    kind: TraceKind::Transfer { from: p.from },
                    start: p.active_at,
                    end,
                });
            }
        }
        for (d, flows) in per_dev_flows.iter_mut().enumerate() {
            let fu = union_intervals(flows);
            let bu = union_intervals(&mut self.busy[d]);
            self.tl[d].comm_active = total_len(&fu);
            self.tl[d].overlap = intersect_len(&fu, &bu);
        }
        self.trace
            .sort_by(|a, b| a.start.partial_cmp(&b.start).expect("no NaN"));
        let net_stats = self.net.stats();
        SimRun {
            sim: PhaseSim {
                makespan: self.tl.iter().map(|t| t.finish).fold(0.0, f64::max),
                devices: self.tl,
            },
            trace: self.trace,
            counters: SimCounters {
                flows: self.flows.len() as u64,
                recomputes: net_stats.recomputes,
                touched_flows: net_stats.touched_flows,
                ..self.counters
            },
        }
    }
}

impl Backend for Timing<'_> {
    /// Index in `pairs`; `None` between streams of one rank.
    type Slot = Option<usize>;

    // A structure-only walk resolves no compute and keeps no accumulators.
    fn accumulates(&self, _dev: u32, _kind: PayloadKind, _tb: TokenBlockId) -> bool {
        false
    }
    fn install(&mut self, _dev: u32, _payload: Payload, _slot: Self::Slot) {}
    fn attn(&mut self, _dev: u32, _backward: bool, _items: &[AttnItem<'_, Self::Slot>]) {}
    fn reduce(&mut self, _dev: u32, _item: &ReduceItem, _parts: &[&Self::Slot]) {}

    fn deposit(&mut self, dev: u32, op: u32, tr: &Transfer, _raw: bool) -> Self::Slot {
        // An input leaves its holder; a partial leaves whoever deposits it,
        // its producer or the shard standing in for a dead one.
        let kind = tr.payload.kind();
        let input = matches!(kind, PayloadKind::Q | PayloadKind::Kv | PayloadKind::DO);
        let sender = if input { tr.from } else { dev };
        let (from, to) = (self.host(sender), self.host(tr.to));
        // Two streams of one rank hand data over without a flow.
        if sender != tr.to && from == to {
            return None;
        }
        let rank = self.host(dev);
        let row = match (from == rank, to == rank) {
            (true, _) => Some((0, to)),
            (false, true) => Some((1, from)),
            (false, false) => None,
        };
        let slot = self.pair(op, from, to, row).unwrap_or_else(|| {
            self.pairs.push(Pair {
                op,
                from,
                to,
                bytes: 0,
                flow: None,
                active_at: 0.0,
                end: None,
                prev: 0,
            });
            self.pairs.len() - 1
        });
        if let Some((side, far)) = row {
            self.rows[side][far as usize] = (self.launches, slot);
        }
        if slot >= self.launched {
            self.pairs[slot].bytes += tr.bytes;
        }
        Some(slot)
    }

    fn landed(&self, slot: &Self::Slot) -> bool {
        slot.is_none_or(|s| self.pairs[s].flow.is_some_and(|f| self.net.is_done(f)))
    }

    fn free(&mut self, dev: u32) -> bool {
        let host = self.host(dev);
        let idle = self.idle(host);
        if !idle {
            self.turned_away[host as usize].push(dev);
        }
        idle
    }

    fn polled(&mut self, at: At, ins: &Instr, retired: bool, wake: &mut Wake) {
        let (rank, now) = (self.host(at.dev), self.now);
        let d = rank as usize;
        let (cluster, cost) = (self.cluster, &self.cost);
        let copy = |bytes: u64| bytes as f64 / cluster.mem_bw + cluster.kernel_overhead;
        let (base, kind) = match ins {
            Instr::CommLaunch(_) => {
                // The pairs this launch opened go on the wire by (src, dst).
                let mut opened: Vec<usize> = (self.launched..self.pairs.len()).collect();
                opened.sort_unstable_by_key(|&s| (self.pairs[s].from, self.pairs[s].to));
                for s in opened {
                    let pair = &mut self.pairs[s];
                    let (fid, active_at) = self.net.add_flow(now, pair.from, pair.to, pair.bytes);
                    debug_assert_eq!(fid.0, self.flows.len());
                    (pair.flow, pair.active_at) = (Some(fid), active_at);
                    self.flows.push(s);
                    // Only an empty flow is done on arrival.
                    if self.net.is_done(fid) {
                        pair.end = Some(active_at);
                        landed_on(self.tl.len(), self.shard_hosts, pair, wake);
                    }
                    // Adding a flow settles the network at `now`, which can
                    // complete flows a rounding error short of their end.
                    self.settle(wake);
                }
                for s in self.launched..self.pairs.len() {
                    let op = &mut self.op_pairs[self.pairs[s].op as usize];
                    self.pairs[s].prev = std::mem::replace(op, s as u32 + 1);
                }
                self.launched = self.pairs.len();
                self.launches += 1;
                return;
            }
            Instr::CommWait(_) => {
                // Exposed from the first blocked poll to the retiring one.
                self.counters.wait_checks += 1;
                let wait_start = &mut self.wait_start[at.dev as usize];
                if !retired {
                    wait_start.get_or_insert(now);
                } else if let Some(since) = wait_start.take() {
                    self.tl[d].exposed_wait += now - since;
                    if now > since {
                        self.trace.push(TraceEvent {
                            device: rank,
                            kind: TraceKind::Wait,
                            start: since,
                            end: now,
                        });
                    }
                    self.tl[d].finish = self.tl[d].finish.max(now);
                }
                return;
            }
            Instr::Attn { flops, .. } => (cost.kernel(*flops), TraceKind::Attn),
            Instr::AttnBwd { flops, .. } => (cost.kernel(*flops), TraceKind::AttnBwd),
            Instr::Reduce { bytes, .. } => (copy(*bytes), TraceKind::Reduce),
            Instr::Copy { bytes } => (copy(*bytes), TraceKind::Copy),
        };
        // A straggler fault stretches the kernel. The extension is traced
        // as its own `Straggle` segment (and counted in the compute
        // buckets) so un-faulted runs stay bitwise unchanged.
        let extra = if self.slow[d] > 1.0 {
            base * (self.slow[d] - 1.0) * jitter(self.seed, at.dev, at.idx)
        } else {
            0.0
        };
        let dur = base + extra;
        let tl = &mut self.tl[d];
        match kind {
            TraceKind::Attn | TraceKind::AttnBwd => tl.attn += dur,
            TraceKind::Reduce => tl.reduce += dur,
            _ => tl.copy += dur,
        }
        self.trace.push(TraceEvent {
            device: rank,
            kind,
            start: now,
            end: now + base,
        });
        if extra > 0.0 {
            self.trace.push(TraceEvent {
                device: rank,
                kind: TraceKind::Straggle,
                start: now + base,
                end: now + dur,
            });
        }
        self.busy[d].push((now, now + dur));
        self.ready[d] = now + dur;
        tl.finish = tl.finish.max(now + dur);
        if !self.idle(rank) {
            self.timers.push(Reverse((self.ready[d].to_bits(), rank)));
        }
    }

    /// Steps to the earlier of the next timer and the next network event;
    /// done when every stream is and its last kernel is over.
    fn advance(&mut self, streams_done: bool, wake: &mut Wake) -> bool {
        if streams_done && self.timers.is_empty() {
            return false;
        }
        let timer = self.timers.peek().map(|t| f64::from_bits(t.0 .0));
        let t = match (timer, self.net.next_event()) {
            (Some(timer), Some(event)) => timer.min(event),
            (Some(t), None) | (None, Some(t)) => t,
            // Blocked devices and nothing pending: the walker's deadlock.
            (None, None) => return false,
        };
        self.net.advance_to(t);
        self.now = t;
        self.counters.events += 1;
        self.settle(wake);
        for s in self.ended.drain(..) {
            self.pairs[s].end = Some(t.max(self.pairs[s].active_at));
        }
        while let Some(&Reverse((until, rank))) = self.timers.peek() {
            if f64::from_bits(until) > t + EPS {
                break;
            }
            self.timers.pop();
            for stream in self.turned_away[rank as usize].drain(..) {
                wake.device(stream);
            }
        }
        true
    }
}

fn union_intervals(v: &mut [(f64, f64)]) -> Vec<(f64, f64)> {
    v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN times"));
    let mut out: Vec<(f64, f64)> = Vec::new();
    for &(s, e) in v.iter() {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn total_len(v: &[(f64, f64)]) -> f64 {
    v.iter().map(|(s, e)| e - s).sum()
}

fn intersect_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j) = (0, 0);
    let mut total = 0.0;
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if e > s {
            total += e - s;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// [`simulate`] without faults, result and counters only. Kept as a name
/// because `benchmark/` calls it; ROADMAP item 1(c) retires it.
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_phase_counted(
    cluster: &ClusterSpec,
    phase: &PhasePlan,
) -> DcpResult<(PhaseSim, SimCounters)> {
    simulate(cluster, phase, &FaultSpec::none()).map(|run| (run.sim, run.counters))
}

/// [`simulate`] without faults on the forward then the backward phase of
/// `plan`.
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_plan(cluster: &ClusterSpec, plan: &ExecutionPlan) -> DcpResult<PlanSim> {
    simulate_plan_faulted(cluster, plan, &FaultSpec::none())
}

/// [`simulate`] on both phases of `plan`. The backward phase draws
/// straggler jitter from a salted seed so its perturbations are independent
/// of the forward phase's while remaining a pure function of `spec.seed`.
/// Kept as a name because `benchmark/` calls it; ROADMAP item 1(c) retires
/// it.
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_plan_faulted(
    cluster: &ClusterSpec,
    plan: &ExecutionPlan,
    spec: &FaultSpec,
) -> DcpResult<PlanSim> {
    let bwd_spec = FaultSpec {
        seed: spec.seed ^ 0xD1B5_4A32_D192_ED03,
        faults: spec.faults.clone(),
    };
    Ok(PlanSim {
        fwd: simulate(cluster, &plan.fwd, spec)?.sim,
        bwd: simulate(cluster, &plan.bwd, &bwd_spec)?.sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_blocks::{BatchLayout, BlockConfig};
    use dcp_mask::MaskSpec;
    use dcp_sched::{build_plan, modelled_finish, CommId, DivisionLoad, Placement, ScheduleConfig};
    use dcp_types::AttnSpec;

    fn layout(len: u32, bs: u32) -> BatchLayout {
        BatchLayout::build(
            AttnSpec::paper_micro(),
            BlockConfig {
                block_size: bs,
                head_blocks: 1,
            },
            &[(len, MaskSpec::Causal)],
        )
        .unwrap()
    }

    /// The un-faulted simulation of `phase`.
    fn clean(c: &ClusterSpec, phase: &PhasePlan) -> PhaseSim {
        simulate(c, phase, &FaultSpec::none()).unwrap().sim
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

    #[test]
    fn local_plan_time_is_pure_compute() {
        let l = layout(4096, 1024);
        let p = Placement::all_on_zero(&l, 1);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1);
        let sim = clean(&c, &plan.fwd);
        let flops: u64 = l.comp_blocks.iter().map(|b| b.flops).sum();
        let expect = flops as f64 / c.effective_flops() + c.kernel_overhead;
        assert!((sim.makespan - expect).abs() < 1e-12);
        assert_eq!(sim.devices[0].exposed_wait, 0.0);
        assert_eq!(sim.devices[0].comm_active, 0.0);
    }

    #[test]
    fn makespan_bounded_below_by_compute_and_comm() {
        let l = layout(16384, 1024);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1); // 4 devices used of 8
        let sim = clean(&c, &plan.fwd);
        let comp_lb = plan
            .fwd
            .comp_loads()
            .iter()
            .map(|&f| f as f64 / c.effective_flops())
            .fold(0.0, f64::max);
        assert!(sim.makespan >= comp_lb, "{} < {}", sim.makespan, comp_lb);
        // Communication happened and some of it overlapped.
        let any_comm: f64 = sim.devices.iter().map(|d| d.comm_active).sum();
        assert!(any_comm > 0.0);
    }

    #[test]
    fn more_divisions_improve_overlap() {
        let l = layout(65536, 1024);
        let p = ring_placement(&l, 8);
        let c = ClusterSpec::p4de(1);
        let t1 = {
            let plan = build_plan(
                &l,
                &p,
                &ScheduleConfig {
                    divisions: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            clean(&c, &plan.fwd).makespan
        };
        let t4 = {
            let plan = build_plan(
                &l,
                &p,
                &ScheduleConfig {
                    divisions: 4,
                    ..Default::default()
                },
            )
            .unwrap();
            clean(&c, &plan.fwd).makespan
        };
        // With one division nothing overlaps (all comm waits precede all
        // compute of remote blocks); four divisions must not be slower.
        assert!(t4 <= t1 * 1.001, "T=4 {t4} vs T=1 {t1}");
    }

    #[test]
    fn cross_node_placement_slower_than_single_node() {
        let l = layout(32768, 1024);
        // 8 devices within one node vs 8 devices spread across 4 nodes
        // (2 per node).
        let p_intra = ring_placement(&l, 8);
        let c_intra = ClusterSpec::p4de(1);
        let plan = build_plan(&l, &p_intra, &ScheduleConfig::default()).unwrap();
        let t_intra = clean(&c_intra, &plan.fwd).makespan;
        let mut c_spread = ClusterSpec::p4de(4);
        c_spread.devices_per_node = 2;
        let t_spread = clean(&c_spread, &plan.fwd).makespan;
        assert!(
            t_spread > t_intra,
            "cross-node {t_spread} should exceed intra {t_intra}"
        );
    }

    #[test]
    fn backward_slower_than_forward() {
        let l = layout(16384, 1024);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1);
        let sim = simulate_plan(&c, &plan).unwrap();
        assert!(sim.bwd.makespan > sim.fwd.makespan);
        assert!((sim.total() - (sim.fwd.makespan + sim.bwd.makespan)).abs() < 1e-15);
    }

    #[test]
    fn deadlock_is_detected() {
        // Device 0 waits on a partial op that nobody launches. The
        // rejection is the walker's, so it is the verifier's.
        let mut phase = late_sender(100);
        phase.devices[1].instrs.clear();
        let c = ClusterSpec::p4de(1);
        let err = simulate(&c, &phase, &FaultSpec::none()).unwrap_err();
        let stalled = dcp_sched::verify_structure(&phase).unwrap_err();
        assert_eq!(stalled.kind, dcp_sched::ViolationKind::Deadlock);
        assert_eq!((stalled.device, stalled.instr), (Some(0), Some(0)));
        assert_eq!(err, DcpError::from(stalled));
    }

    /// Device 1 runs a copy kernel, then sends `bytes` of partial output to
    /// device 0, which does nothing but wait for them.
    fn late_sender(bytes: u64) -> PhasePlan {
        use dcp_sched::{CommOp, DeviceStream, Payload, Transfer};
        PhasePlan {
            comms: vec![CommOp {
                transfers: vec![Transfer {
                    from: 1,
                    to: 0,
                    payload: Payload::PartialO(dcp_blocks::TokenBlockId(0), 1),
                    bytes,
                }],
            }],
            devices: vec![
                DeviceStream {
                    device: 0,
                    instrs: vec![Instr::CommWait(CommId(0))],
                    buffer: Default::default(),
                },
                DeviceStream {
                    device: 1,
                    instrs: vec![Instr::Copy { bytes: 1 << 30 }, Instr::CommLaunch(CommId(0))],
                    buffer: Default::default(),
                },
            ],
        }
    }

    #[test]
    fn a_wait_reached_before_the_launch_is_woken_by_the_flow() {
        let c = ClusterSpec::p4de(1);
        let bytes = 1_000_000_000u64;
        let SimRun { sim, counters, .. } =
            simulate(&c, &late_sender(bytes), &FaultSpec::none()).unwrap();
        let copy = (1u64 << 30) as f64 / c.mem_bw + c.kernel_overhead;
        let arrival = copy + c.intra_latency + bytes as f64 / c.intra_bw;
        assert_eq!(sim.devices[1].finish, copy);
        assert!((sim.devices[0].exposed_wait - arrival).abs() < 1e-9);
        assert_eq!(sim.devices[0].exposed_wait, sim.makespan);
        assert_eq!(counters.flows, 1);
        // Once at the wait (the flow did not exist), once when it finished.
        assert_eq!(counters.wait_checks, 2);
    }

    #[test]
    fn an_empty_transfer_wakes_its_receiver_at_the_launch() {
        let c = ClusterSpec::p4de(1);
        let SimRun { sim, counters, .. } =
            simulate(&c, &late_sender(0), &FaultSpec::none()).unwrap();
        let copy = (1u64 << 30) as f64 / c.mem_bw + c.kernel_overhead;
        // Nothing to carry: the flow is done when launched and never
        // becomes a network event, so only the launch can wake device 0.
        assert_eq!(sim.devices[0].exposed_wait, copy);
        assert_eq!(sim.makespan, copy);
        assert_eq!(sim.devices[0].comm_active, 0.0);
        assert_eq!((counters.flows, counters.wait_checks), (1, 2));
    }

    #[test]
    fn launches_of_one_op_share_their_pairs() {
        use dcp_sched::{CommOp, DeviceStream, Payload, Transfer};
        // Two inputs from dead device 1 into device 3. Device 2 stands in
        // for the sender, so its launch opens a pair neither end of which
        // is its own rank; device 3's launch deposits both again and must
        // find that pair rather than open a second flow.
        let tb = dcp_blocks::TokenBlockId(0);
        let input = |payload, bytes| Transfer {
            from: 1,
            to: 3,
            payload,
            bytes,
        };
        let stream = |device, instrs| DeviceStream {
            device,
            instrs,
            buffer: Default::default(),
        };
        let (q, kv) = (Payload::Q(tb), Payload::Kv(tb));
        let phase = PhasePlan {
            comms: vec![CommOp {
                transfers: vec![input(q, 3_000_000), input(kv, 5_000_000)],
            }],
            devices: vec![
                stream(0, vec![]),
                stream(1, vec![]),
                stream(2, vec![Instr::CommLaunch(CommId(0))]),
                stream(
                    3,
                    vec![Instr::CommLaunch(CommId(0)), Instr::CommWait(CommId(0))],
                ),
            ],
        };
        let ctx = RecoveryCtx {
            failed: [1].into(),
            stand_in: [(q, 2), (kv, 2)].into(),
            ..RecoveryCtx::default()
        };
        let c = ClusterSpec::p4de(1);
        let none = FaultSpec::none();
        let run = simulate_on(&c, Network::new(c.clone()), &phase, &ctx, &none).unwrap();
        assert_eq!(run.counters.flows, 1);
        let arrival = c.intra_latency + 8_000_000.0 / c.intra_bw;
        assert!((run.sim.devices[3].exposed_wait - arrival).abs() < 1e-12);
    }

    #[test]
    fn waits_cost_a_check_per_flow_not_per_event() {
        use crate::fault::Fault;
        let l = layout(32768, 1024);
        let p = ring_placement(&l, 8);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1);
        // x4 straggler and one link at a quarter: long waits, many events.
        let faulted = FaultSpec {
            seed: 7,
            faults: vec![
                Fault::Straggler {
                    device: 0,
                    slowdown: 4.0,
                },
                Fault::DegradedLink {
                    src: 1,
                    dst: 0,
                    factor: 0.25,
                },
            ],
        };
        for spec in [FaultSpec::none(), faulted] {
            for phase in [&plan.fwd, &plan.bwd] {
                let counters = simulate(&c, phase, &spec).unwrap().counters;
                let waits = phase
                    .devices
                    .iter()
                    .flat_map(|s| &s.instrs)
                    .filter(|i| matches!(i, Instr::CommWait(_)))
                    .count() as u64;
                assert!(counters.flows > 0);
                assert!(counters.wait_checks >= waits);
                assert!(
                    counters.wait_checks <= waits + counters.flows,
                    "{} checks for {waits} waits and {} flows",
                    counters.wait_checks,
                    counters.flows
                );
                assert!(counters.wait_checks <= 4 * counters.flows);
            }
        }
    }

    #[test]
    fn interval_helpers() {
        let mut v = vec![(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)];
        let u = union_intervals(&mut v);
        assert_eq!(u, vec![(0.0, 2.0), (3.0, 4.0)]);
        assert!((total_len(&u) - 3.0).abs() < 1e-12);
        let b = vec![(1.5, 3.5)];
        assert!((intersect_len(&u, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_fault_spec_is_bitwise_identical() {
        let l = layout(16384, 1024);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1);
        // A seed with nothing to perturb changes nothing.
        let seeded = FaultSpec {
            seed: 99,
            faults: Vec::new(),
        };
        let base = simulate(&c, &plan.fwd, &FaultSpec::none()).unwrap();
        assert_eq!(base, simulate(&c, &plan.fwd, &seeded).unwrap());
    }

    #[test]
    fn straggler_stretches_kernels_and_makespan() {
        use crate::fault::Fault;
        let l = layout(16384, 1024);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1);
        let base = clean(&c, &plan.fwd);
        let spec = FaultSpec {
            seed: 42,
            faults: vec![Fault::Straggler {
                device: 0,
                slowdown: 4.0,
            }],
        };
        let SimRun { sim, trace, .. } = simulate(&c, &plan.fwd, &spec).unwrap();
        // Device 0's compute roughly quadruples (x4 with +-10% jitter per
        // kernel), and the makespan grows.
        assert!(sim.devices[0].compute() > base.devices[0].compute() * 3.5);
        assert!(sim.makespan > base.makespan * 1.5);
        let straggles: Vec<_> = trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Straggle))
            .collect();
        assert!(!straggles.is_empty());
        assert!(straggles.iter().all(|e| e.device == 0));
    }

    #[test]
    fn degraded_link_costs_makespan() {
        use crate::fault::Fault;
        let l = layout(32768, 1024);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1);
        let base = clean(&c, &plan.fwd);
        // Every link into device 0 collapses to 1% bandwidth.
        let spec = FaultSpec {
            seed: 0,
            faults: (1..4)
                .map(|s| Fault::DegradedLink {
                    src: s,
                    dst: 0,
                    factor: 0.01,
                })
                .collect(),
        };
        let sim = simulate(&c, &plan.fwd, &spec).unwrap().sim;
        assert!(
            sim.makespan > base.makespan * 1.05,
            "degraded ingress should cost makespan: {} vs {}",
            sim.makespan,
            base.makespan
        );
    }

    #[test]
    fn delayed_start_shifts_the_device() {
        use crate::fault::Fault;
        let l = layout(16384, 1024);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1);
        let base = clean(&c, &plan.fwd);
        let delay = 0.25;
        let spec = FaultSpec {
            seed: 0,
            faults: vec![Fault::DelayedStart {
                device: 2,
                delay_s: delay,
            }],
        };
        let SimRun { sim, trace, .. } = simulate(&c, &plan.fwd, &spec).unwrap();
        assert!(sim.makespan >= base.makespan + delay * 0.9);
        let d = trace
            .iter()
            .find(|e| matches!(e.kind, TraceKind::Delay))
            .expect("delay event traced");
        assert_eq!(d.device, 2);
        assert_eq!(d.start, 0.0);
        assert_eq!(d.end, delay);
        // Device 2 executes nothing before the delay elapses.
        assert!(trace
            .iter()
            .filter(|e| e.device == 2 && !matches!(e.kind, TraceKind::Delay))
            .all(|e| e.start >= delay - 1e-12));
    }

    #[test]
    fn fault_injection_is_deterministic_in_the_seed() {
        use crate::fault::Fault;
        let l = layout(16384, 1024);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1);
        let spec = FaultSpec {
            seed: 1234,
            faults: vec![
                Fault::Straggler {
                    device: 1,
                    slowdown: 3.0,
                },
                Fault::FailedLink { src: 2, dst: 0 },
                Fault::DelayedStart {
                    device: 3,
                    delay_s: 0.01,
                },
            ],
        };
        let a = simulate_plan_faulted(&c, &plan, &spec).unwrap();
        let b = simulate_plan_faulted(&c, &plan, &spec).unwrap();
        assert_eq!(a, b);
        // A different seed perturbs the straggler jitter.
        let other = FaultSpec {
            seed: 99,
            faults: spec.faults.clone(),
        };
        let c2 = simulate_plan_faulted(&c, &plan, &other).unwrap();
        assert_ne!(a.fwd.makespan.to_bits(), c2.fwd.makespan.to_bits());
    }

    #[test]
    fn rejects_plan_larger_than_cluster() {
        let l = layout(4096, 512);
        let p = ring_placement(&l, 8);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let tiny = ClusterSpec::single_node(4);
        assert!(simulate(&tiny, &plan.fwd, &FaultSpec::none()).is_err());
    }

    #[test]
    fn rejects_degenerate_cluster() {
        let l = layout(4096, 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let mut c = ClusterSpec::p4de(1);
        c.inter_bw = 0.0;
        let err = simulate(&c, &plan.fwd, &FaultSpec::none()).unwrap_err();
        assert!(matches!(err, DcpError::InvalidArgument(_)), "{err:?}");
    }

    #[test]
    fn incremental_and_scratch_engines_agree_on_plans() {
        // The scratch engine breaks exact max-min ties in the iteration
        // order of fresh hash maps, and this symmetric ring has them: it is
        // held to rounding error, its event and flow counts exactly.
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * y.abs().max(1e-9);
        let l = layout(32768, 1024);
        let p = ring_placement(&l, 8);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        for cluster in [ClusterSpec::p4de(1), {
            let mut c = ClusterSpec::p4de(4);
            c.devices_per_node = 2;
            c
        }] {
            let none = FaultSpec::none();
            let mut scratch = Network::new(cluster.clone());
            scratch.use_scratch_engine(true);
            let (inc, ci) = simulate_phase_counted(&cluster, &plan.fwd).unwrap();
            let scr =
                simulate_on(&cluster, scratch, &plan.fwd, &RecoveryCtx::default(), &none).unwrap();
            assert!(close(inc.makespan, scr.sim.makespan));
            for (a, b) in inc.devices.iter().zip(&scr.sim.devices) {
                let fields = |t: &DeviceTimeline| {
                    [
                        t.attn,
                        t.reduce,
                        t.copy,
                        t.exposed_wait,
                        t.comm_active,
                        t.overlap,
                        t.finish,
                    ]
                };
                assert!(fields(a).iter().zip(fields(b)).all(|(&x, y)| close(x, y)));
            }
            assert_eq!(ci.events, scr.counters.events);
            assert_eq!(ci.flows, scr.counters.flows);
            assert!(ci.touched_flows <= scr.counters.touched_flows);
        }
    }

    /// Device `dev`'s divisions read back from its stream: one per attention
    /// kernel, with the inputs it waited for and the partials launched
    /// after it, behind an empty division 0 when its first kernel waits.
    fn loads_of(phase: &PhasePlan, dev: u32) -> Vec<DivisionLoad> {
        let bytes = |cid: &dcp_sched::CommId| {
            let op = &phase.comms[cid.0 as usize];
            [op.transfers.iter().map(|t| t.bytes).sum(), 0]
        };
        let mut loads = vec![DivisionLoad::default()];
        for ins in &phase.devices[dev as usize].instrs {
            let last = loads.last_mut().unwrap();
            match ins {
                Instr::CommWait(cid) => loads.push(DivisionLoad {
                    fetch: bytes(cid),
                    ..DivisionLoad::default()
                }),
                Instr::Attn { flops, .. } | Instr::AttnBwd { flops, .. } => match last.flops {
                    Some(_) => loads.push(DivisionLoad {
                        flops: Some(*flops),
                        ..DivisionLoad::default()
                    }),
                    None => last.flops = Some(*flops),
                },
                Instr::CommLaunch(cid) if phase.comms[cid.0 as usize].transfers[0].from == dev => {
                    last.out = bytes(cid)
                }
                _ => {}
            }
        }
        loads
    }

    #[test]
    fn the_schedulers_model_is_the_simulators_uncontended_timing() {
        // Device 0 computes every block of a sequence device 1 holds: the
        // fetches run 1 -> 0 and the partials 0 -> 1, each on links nothing
        // else uses, so the model's finish for device 0 — its last kernel,
        // or its last partial landing — is the simulated one: when device 1
        // can start reducing, or device 0's end if that is later.
        let l = layout(16384, 1024);
        let p = Placement {
            num_devices: 2,
            token_to_dev: vec![1; l.token_blocks.len()],
            comp_to_dev: vec![0; l.comp_blocks.len()],
        };
        // On links 50 times slower, a division's partials are still on
        // the wire when the next division's launch behind them.
        for slowdown in [1.0, 50.0] {
            let mut c = ClusterSpec::single_node(2);
            c.intra_bw /= slowdown;
            let cost = c.cost();
            let plan = build_plan(&l, &p, &ScheduleConfig { divisions: 4, cost }).unwrap();
            for phase in [&plan.fwd, &plan.bwd] {
                let loads = loads_of(phase, 0);
                let sending = loads.iter().filter(|d| d.out != [0, 0]).count();
                assert!(sending > 1, "{loads:?}");
                let SimRun { sim, trace, .. } = simulate(&c, phase, &FaultSpec::none()).unwrap();
                let reduce = trace
                    .iter()
                    .find(|e| e.device == 1 && matches!(e.kind, TraceKind::Reduce));
                let landed = reduce.expect("device 1 reduces").start;
                let simulated = landed.max(sim.devices[0].finish);
                let model = modelled_finish(&cost, &loads);
                let close = (model - simulated).abs() <= 1e-12 * simulated;
                assert!(close, "{model} vs {simulated}");
            }
        }
    }

    #[test]
    fn topology_aware_simulation_sees_oversubscription() {
        // The same cross-node-heavy plan is slower behind a 16x
        // oversubscribed spine than on the flat fabric.
        let l = layout(65536, 1024);
        // 8 devices, one per node, on an 8-node cluster: every ring hop is
        // cross-node and half of them cross the leaf boundary.
        let p = ring_placement(&l, 8);
        let mut flat = ClusterSpec::p4de(8);
        flat.devices_per_node = 1;
        let mut spine = ClusterSpec::p4de_spine(8, 4, 16.0);
        spine.devices_per_node = 1;
        let t_flat = clean(&flat, &plan_of(&l, &p).fwd).makespan;
        let t_spine = clean(&spine, &plan_of(&l, &p).fwd).makespan;
        assert!(
            t_spine > t_flat,
            "oversubscribed spine should cost makespan: {t_spine} vs {t_flat}"
        );
    }

    fn plan_of(l: &BatchLayout, p: &Placement) -> ExecutionPlan {
        build_plan(l, p, &ScheduleConfig::default()).unwrap()
    }
}
