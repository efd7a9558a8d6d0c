//! The discrete-event execution of plan instruction streams.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use dcp_sched::stream::{check_ids, depositor, incoming};
use dcp_sched::{CommId, ExecutionPlan, Instr, PhasePlan};
use dcp_types::{ClusterSpec, DcpError, DcpResult};
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

/// Simulates one phase of a plan on `cluster`. Plan ranks map to cluster
/// ranks identically.
///
/// # Errors
///
/// Returns [`DcpError::InvalidPlan`] if the streams deadlock (a wait on a
/// transfer that is never launched), reference comm ops outside the op
/// table, or reference devices outside the phase or the cluster.
pub fn simulate_phase(cluster: &ClusterSpec, phase: &PhasePlan) -> DcpResult<PhaseSim> {
    Ok(simulate_phase_traced(cluster, phase)?.0)
}

/// Like [`simulate_phase`], additionally returning the execution trace
/// (compute segments, exposed waits and transfers) for rendering with
/// [`crate::trace::to_chrome_trace`] or [`crate::trace::ascii_gantt`].
///
/// # Errors
///
/// Same failure modes as [`simulate_phase`].
pub fn simulate_phase_traced(
    cluster: &ClusterSpec,
    phase: &PhasePlan,
) -> DcpResult<(PhaseSim, Vec<TraceEvent>)> {
    simulate_phase_faulted(cluster, phase, &FaultSpec::none())
}

/// Like [`simulate_phase_traced`] with fault injection: stragglers stretch
/// kernels (the extension shows up as [`TraceKind::Straggle`] and in the
/// device's compute buckets), degraded/failed links cap flow rates, and
/// delayed devices idle (as [`TraceKind::Delay`]) before their first
/// instruction. An empty spec is bitwise identical to the un-faulted
/// simulation; a non-empty spec is deterministic in `spec.seed`.
///
/// # Errors
///
/// Same failure modes as [`simulate_phase`].
pub fn simulate_phase_faulted(
    cluster: &ClusterSpec,
    phase: &PhasePlan,
    spec: &FaultSpec,
) -> DcpResult<(PhaseSim, Vec<TraceEvent>)> {
    simulate_phase_opts(cluster, phase, spec, false).map(|(sim, trace, _)| (sim, trace))
}

/// Like [`simulate_phase`], additionally returning event-loop and network
/// engine counters (for throughput benchmarking).
///
/// # Errors
///
/// Same failure modes as [`simulate_phase`].
pub fn simulate_phase_counted(
    cluster: &ClusterSpec,
    phase: &PhasePlan,
) -> DcpResult<(PhaseSim, SimCounters)> {
    simulate_phase_opts(cluster, phase, &FaultSpec::none(), false)
        .map(|(sim, _, counters)| (sim, counters))
}

/// Like [`simulate_phase_counted`] but on the retained scratch reference
/// network engine (full water-fill rebuild per event) — the baseline the
/// incremental engine is benchmarked against.
///
/// # Errors
///
/// Same failure modes as [`simulate_phase`].
pub fn simulate_phase_scratch(
    cluster: &ClusterSpec,
    phase: &PhasePlan,
) -> DcpResult<(PhaseSim, SimCounters)> {
    simulate_phase_opts(cluster, phase, &FaultSpec::none(), true)
        .map(|(sim, _, counters)| (sim, counters))
}

/// Event-loop and network-engine counters from one simulated phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounters {
    /// Discrete events processed by the outer event loop.
    pub events: u64,
    /// Flows carried by the network.
    pub flows: u64,
    /// Water-fill invocations in the network engine.
    pub recomputes: u64,
    /// Total flows visited across all water-fills.
    pub touched_flows: u64,
    /// Times a device's wait was weighed: once when it reaches a
    /// `CommWait`, and once per flow that finishes into it while it is
    /// blocked there.
    pub wait_checks: u64,
}

/// Flow bookkeeping for waking and interval accounting. `metas[i]` is the
/// flow the network numbered `i`: every flow of a phase is added here.
struct FlowMeta {
    cid: u32,
    src: u32,
    dst: u32,
    active_at: f64,
    end: Option<f64>,
}

/// Which devices wait for what, and which can move at the current instant.
///
/// The devices that can move are run in sweeps of ascending device index,
/// repeated until none can: a device that becomes able to move while device
/// `d` runs is taken in the same sweep if its index is above `d`, in the
/// next one otherwise. Flow ids — and through them the order in which the
/// network freezes rates — follow from that order, so it is part of the
/// simulation's result.
struct Waits {
    /// The comm op each device is blocked on.
    blocked: Vec<Option<CommId>>,
    /// Flows of that op into the device that are not done yet.
    outstanding: Vec<u32>,
    /// `(sweep, device)` of every device that can move, next first.
    runnable: BinaryHeap<Reverse<(u32, u32)>>,
    /// The sweep in progress and the device running in it, if any.
    sweep: u32,
    running: Option<u32>,
    checks: u64,
}

impl Waits {
    /// `dev` can move: queue it behind the running device.
    fn wake(&mut self, dev: u32) {
        let sweep = match self.running {
            Some(d) if dev <= d => self.sweep + 1,
            _ => self.sweep,
        };
        self.runnable.push(Reverse((sweep, dev)));
    }

    /// A flow of op `cid` into `dst` is done. If `dst` is blocked on that
    /// op the flow is one it was still waiting for (a flow finishes once,
    /// and those done when it blocked were not counted).
    fn flow_done(&mut self, cid: u32, dst: u32) {
        if self.blocked[dst as usize] != Some(CommId(cid)) {
            return;
        }
        self.checks += 1;
        self.outstanding[dst as usize] -= 1;
        if self.outstanding[dst as usize] == 0 {
            self.wake(dst);
        }
    }

    /// Takes the flows the network completed since the last call: each may
    /// wake its receiver now, and gets its end time at the next event.
    fn settle(&mut self, net: &mut Network, metas: &[FlowMeta], ended: &mut Vec<usize>) {
        for f in net.drain_completed() {
            ended.push(f.0);
            self.flow_done(metas[f.0].cid, metas[f.0].dst);
        }
    }
}

fn simulate_phase_opts(
    cluster: &ClusterSpec,
    phase: &PhasePlan,
    spec: &FaultSpec,
    scratch_engine: bool,
) -> DcpResult<(PhaseSim, Vec<TraceEvent>, SimCounters)> {
    cluster.validate()?;
    check_ids(phase, None)?;
    let n = phase.devices.len();
    if n as u32 > cluster.num_devices() {
        return Err(DcpError::invalid_plan(format!(
            "plan uses {n} devices, cluster has {}",
            cluster.num_devices()
        )));
    }
    let mut net = Network::new(cluster.clone());
    net.use_scratch_engine(scratch_engine);
    for (src, dst, factor) in spec.link_factors() {
        net.set_link_factor(src, dst, factor);
    }
    for (src, dst, period_s, duty, factor) in spec.flapping_links() {
        net.set_link_flapping(src, dst, period_s, duty, factor);
    }
    let slow = spec.slowdowns(n);
    let delays = spec.delays(n);
    let eff = cluster.effective_flops();
    let eps = 1e-15;

    // Per (comm op, src, dst): the flow carrying all of that op's transfers
    // between the pair, coalesced so large fused operations (e.g. a ring
    // step relaying hundreds of KV blocks) cost one flow, not hundreds.
    let mut flows: HashMap<(u32, u32, u32), FlowId> = HashMap::new();
    let mut metas: Vec<FlowMeta> = Vec::new();
    // Flows completed since the last event: they end at the next one.
    let mut ended: Vec<usize> = Vec::new();

    let mut ip = vec![0usize; n];
    // A delayed device idles until its injected start time.
    let mut ready = delays.clone();
    // `(time, device)` of every device in a kernel or a start delay,
    // earliest first. Times are non-negative, so their bit patterns order
    // as they do.
    let mut timers: BinaryHeap<Reverse<(u64, u32)>> = (0..n)
        .map(|d| Reverse((ready[d].to_bits(), d as u32)))
        .collect();
    let mut waits = Waits {
        blocked: vec![None; n],
        outstanding: vec![0; n],
        runnable: BinaryHeap::new(),
        sweep: 0,
        running: None,
        checks: 0,
    };
    // Devices still blocked or with instructions left.
    let mut unfinished = phase
        .devices
        .iter()
        .filter(|s| !s.instrs.is_empty())
        .count();
    let mut wait_start = vec![0.0f64; n];
    let mut senders: Vec<u32> = Vec::new();
    let mut tl = vec![DeviceTimeline::default(); n];
    // Compute busy intervals per device for overlap accounting.
    let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    let mut trace: Vec<TraceEvent> = Vec::new();
    for (d, &delay) in delays.iter().enumerate() {
        if delay > 0.0 && !phase.devices[d].instrs.is_empty() {
            trace.push(TraceEvent {
                device: d as u32,
                kind: TraceKind::Delay,
                start: 0.0,
                end: delay,
            });
        }
    }

    let mut now = 0.0f64;
    let mut events: u64 = 0;
    loop {
        for mi in ended.drain(..) {
            metas[mi].end = Some(now.max(metas[mi].active_at));
        }
        // Devices whose kernel or start delay is over can move, next to
        // those a completed flow has just woken.
        while let Some(&Reverse((until, dev))) = timers.peek() {
            if f64::from_bits(until) > now + eps {
                break;
            }
            timers.pop();
            if ip[dev as usize] < phase.devices[dev as usize].instrs.len() {
                waits.wake(dev);
            }
        }
        // Fixpoint: run every device that can move until none can.
        while let Some(Reverse((sweep, dev))) = waits.runnable.pop() {
            waits.sweep = sweep;
            waits.running = Some(dev);
            let d = dev as usize;
            if waits.blocked[d].take().is_some() {
                tl[d].exposed_wait += now - wait_start[d];
                if now > wait_start[d] {
                    trace.push(TraceEvent {
                        device: dev,
                        kind: TraceKind::Wait,
                        start: wait_start[d],
                        end: now,
                    });
                }
                tl[d].finish = tl[d].finish.max(now);
            }
            while waits.blocked[d].is_none() && ready[d] <= now + eps {
                let Some(ins) = phase.devices[d].instrs.get(ip[d]) else {
                    break;
                };
                match ins {
                    Instr::CommLaunch(cid) => {
                        let op = &phase.comms[cid.0 as usize];
                        // Coalesce this device's transfers by (src, dst).
                        let mut pair_bytes: HashMap<(u32, u32), u64> = HashMap::new();
                        for tr in &op.transfers {
                            if depositor(tr) == dev && !flows.contains_key(&(cid.0, tr.from, tr.to))
                            {
                                *pair_bytes.entry((tr.from, tr.to)).or_insert(0) += tr.bytes;
                            }
                        }
                        let mut pairs: Vec<((u32, u32), u64)> = pair_bytes.into_iter().collect();
                        pairs.sort_unstable();
                        for ((from, to), bytes) in pairs {
                            let (fid, active_at) = net.add_flow(now, from, to, bytes);
                            debug_assert_eq!(fid.0, metas.len());
                            flows.insert((cid.0, from, to), fid);
                            // Only an empty flow is done on arrival.
                            let done = net.is_done(fid);
                            metas.push(FlowMeta {
                                cid: cid.0,
                                src: from,
                                dst: to,
                                active_at,
                                end: done.then_some(active_at),
                            });
                            if done {
                                waits.flow_done(cid.0, to);
                            }
                            // Adding a flow settles the network at `now`,
                            // which can complete flows a rounding error
                            // short of their end.
                            waits.settle(&mut net, &metas, &mut ended);
                        }
                        ip[d] += 1;
                    }
                    Instr::CommWait(cid) => {
                        ip[d] += 1;
                        waits.checks += 1;
                        // The op's flows into this device, one per sender.
                        senders.clear();
                        let op = &phase.comms[cid.0 as usize];
                        senders.extend(incoming(op, dev).map(|tr| tr.from));
                        senders.sort_unstable();
                        senders.dedup();
                        let pending = senders
                            .iter()
                            .filter(|&&from| {
                                !flows
                                    .get(&(cid.0, from, dev))
                                    .is_some_and(|f| net.is_done(*f))
                            })
                            .count();
                        if pending > 0 {
                            waits.blocked[d] = Some(*cid);
                            waits.outstanding[d] = pending as u32;
                            wait_start[d] = now;
                        }
                    }
                    Instr::Attn { .. }
                    | Instr::AttnBwd { .. }
                    | Instr::Reduce { .. }
                    | Instr::Copy { .. } => {
                        let (base, kind) = match ins {
                            Instr::Attn { flops, .. } => (
                                *flops as f64 / eff + cluster.kernel_overhead,
                                TraceKind::Attn,
                            ),
                            Instr::AttnBwd { flops, .. } => (
                                *flops as f64 / eff + cluster.kernel_overhead,
                                TraceKind::AttnBwd,
                            ),
                            Instr::Reduce { bytes, .. } => (
                                *bytes as f64 / cluster.mem_bw + cluster.kernel_overhead,
                                TraceKind::Reduce,
                            ),
                            Instr::Copy { bytes } => (
                                *bytes as f64 / cluster.mem_bw + cluster.kernel_overhead,
                                TraceKind::Copy,
                            ),
                            _ => unreachable!("compute arm"),
                        };
                        // A straggler fault stretches the kernel. The
                        // extension is traced as its own `Straggle`
                        // segment (and counted in the compute buckets)
                        // so un-faulted runs stay bitwise unchanged.
                        let extra = if slow[d] > 1.0 {
                            base * (slow[d] - 1.0) * jitter(spec.seed, dev, ip[d])
                        } else {
                            0.0
                        };
                        let dur = base + extra;
                        match kind {
                            TraceKind::Attn | TraceKind::AttnBwd => tl[d].attn += dur,
                            TraceKind::Reduce => tl[d].reduce += dur,
                            _ => tl[d].copy += dur,
                        }
                        trace.push(TraceEvent {
                            device: dev,
                            kind,
                            start: now,
                            end: now + base,
                        });
                        if extra > 0.0 {
                            trace.push(TraceEvent {
                                device: dev,
                                kind: TraceKind::Straggle,
                                start: now + base,
                                end: now + dur,
                            });
                        }
                        busy[d].push((now, now + dur));
                        ready[d] = now + dur;
                        tl[d].finish = tl[d].finish.max(now + dur);
                        ip[d] += 1;
                    }
                }
            }
            if waits.blocked[d].is_none() {
                if ready[d] > now + eps {
                    timers.push(Reverse((ready[d].to_bits(), dev)));
                }
                if ip[d] >= phase.devices[d].instrs.len() {
                    unfinished -= 1;
                }
            }
        }
        waits.sweep = 0;
        waits.running = None;

        // Done: every stream finished and its last kernel is over.
        if unfinished == 0 && timers.is_empty() {
            break;
        }

        // Next event: earliest device wake-up or network event.
        let mut next: Option<f64> = timers.peek().map(|t| f64::from_bits(t.0 .0));
        if let Some(t) = net.next_event() {
            next = Some(next.map_or(t, |x: f64| x.min(t)));
        }
        let Some(t) = next else {
            return Err(DcpError::invalid_plan(
                "simulation deadlock: blocked devices with no pending events",
            ));
        };
        net.advance_to(t);
        now = t;
        events += 1;
        waits.settle(&mut net, &metas, &mut ended);
    }

    // Interval accounting: per device, comm_active = |union of its flow
    // intervals|, overlap = |union(flows) ∩ union(busy)|.
    let mut per_dev_flows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    for m in &metas {
        let end = m.end.unwrap_or(now).max(m.active_at);
        if end > m.active_at {
            if (m.src as usize) < n {
                per_dev_flows[m.src as usize].push((m.active_at, end));
            }
            if (m.dst as usize) < n {
                per_dev_flows[m.dst as usize].push((m.active_at, end));
            }
        }
    }
    for d in 0..n {
        let fu = union_intervals(&mut per_dev_flows[d]);
        let bu = union_intervals(&mut busy[d]);
        tl[d].comm_active = total_len(&fu);
        tl[d].overlap = intersect_len(&fu, &bu);
    }

    // Transfer events (one per flow, attributed to the receiving device).
    for m in &metas {
        let end = m.end.unwrap_or(now).max(m.active_at);
        if end > m.active_at && (m.dst as usize) < n {
            trace.push(TraceEvent {
                device: m.dst,
                kind: TraceKind::Transfer { from: m.src },
                start: m.active_at,
                end,
            });
        }
    }
    trace.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("no NaN"));

    let makespan = tl.iter().map(|t| t.finish).fold(0.0, f64::max);
    let net_stats = net.stats();
    Ok((
        PhaseSim {
            makespan,
            devices: tl,
        },
        trace,
        SimCounters {
            events,
            flows: metas.len() as u64,
            recomputes: net_stats.recomputes,
            touched_flows: net_stats.touched_flows,
            wait_checks: waits.checks,
        },
    ))
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

/// Simulates the forward then the backward phase of `plan`.
///
/// # Errors
///
/// Propagates phase-simulation failures.
pub fn simulate_plan(cluster: &ClusterSpec, plan: &ExecutionPlan) -> DcpResult<PlanSim> {
    Ok(PlanSim {
        fwd: simulate_phase(cluster, &plan.fwd)?,
        bwd: simulate_phase(cluster, &plan.bwd)?,
    })
}

/// Like [`simulate_plan`] with fault injection in both phases. The
/// backward phase draws straggler jitter from a salted seed so its
/// perturbations are independent of the forward phase's while remaining a
/// pure function of `spec.seed`.
///
/// # Errors
///
/// Propagates phase-simulation failures.
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
        fwd: simulate_phase_faulted(cluster, &plan.fwd, spec)?.0,
        bwd: simulate_phase_faulted(cluster, &plan.bwd, &bwd_spec)?.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_blocks::{BatchLayout, BlockConfig};
    use dcp_mask::MaskSpec;
    use dcp_sched::{build_plan, Placement, ScheduleConfig};
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
        let sim = simulate_phase(&c, &plan.fwd).unwrap();
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
        let sim = simulate_phase(&c, &plan.fwd).unwrap();
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
            simulate_phase(&c, &plan.fwd).unwrap().makespan
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
            simulate_phase(&c, &plan.fwd).unwrap().makespan
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
        let t_intra = simulate_phase(&c_intra, &plan.fwd).unwrap().makespan;
        let mut c_spread = ClusterSpec::p4de(4);
        c_spread.devices_per_node = 2;
        let t_spread = simulate_phase(&c_spread, &plan.fwd).unwrap().makespan;
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
        // Handcraft a stream waiting on a partial op that nobody launches.
        use dcp_sched::{CommOp, DeviceStream, Payload, Transfer};
        let phase = PhasePlan {
            comms: vec![CommOp {
                transfers: vec![Transfer {
                    from: 1,
                    to: 0,
                    payload: Payload::PartialO(dcp_blocks::TokenBlockId(0), 1),
                    bytes: 100,
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
                    instrs: vec![],
                    buffer: Default::default(),
                },
            ],
        };
        let c = ClusterSpec::p4de(1);
        assert!(simulate_phase(&c, &phase).is_err());
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
        let (sim, counters) = simulate_phase_counted(&c, &late_sender(bytes)).unwrap();
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
        let (sim, counters) = simulate_phase_counted(&c, &late_sender(0)).unwrap();
        let copy = (1u64 << 30) as f64 / c.mem_bw + c.kernel_overhead;
        // Nothing to carry: the flow is done when launched and never
        // becomes a network event, so only the launch can wake device 0.
        assert_eq!(sim.devices[0].exposed_wait, copy);
        assert_eq!(sim.makespan, copy);
        assert_eq!(sim.devices[0].comm_active, 0.0);
        assert_eq!((counters.flows, counters.wait_checks), (1, 2));
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
                let (_, _, counters) = simulate_phase_opts(&c, phase, &spec, false).unwrap();
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
        let (base, base_trace) = simulate_phase_traced(&c, &plan.fwd).unwrap();
        let (faulted, faulted_trace) =
            simulate_phase_faulted(&c, &plan.fwd, &FaultSpec::none()).unwrap();
        assert_eq!(base, faulted);
        assert_eq!(base_trace, faulted_trace);
    }

    #[test]
    fn straggler_stretches_kernels_and_makespan() {
        use crate::fault::Fault;
        let l = layout(16384, 1024);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1);
        let base = simulate_phase(&c, &plan.fwd).unwrap();
        let spec = FaultSpec {
            seed: 42,
            faults: vec![Fault::Straggler {
                device: 0,
                slowdown: 4.0,
            }],
        };
        let (sim, trace) = simulate_phase_faulted(&c, &plan.fwd, &spec).unwrap();
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
        let base = simulate_phase(&c, &plan.fwd).unwrap();
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
        let (sim, _) = simulate_phase_faulted(&c, &plan.fwd, &spec).unwrap();
        assert!(
            sim.makespan > base.makespan * 1.05,
            "degraded ingress should cost makespan: {} vs {}",
            sim.makespan,
            base.makespan
        );
    }

    #[test]
    fn flapping_with_full_duty_matches_constant_degradation() {
        use crate::fault::Fault;
        let l = layout(32768, 1024);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1);
        let constant = FaultSpec {
            seed: 0,
            faults: vec![Fault::DegradedLink {
                src: 1,
                dst: 0,
                factor: 0.05,
            }],
        };
        let flapping = FaultSpec {
            seed: 0,
            faults: vec![Fault::FlappingLink {
                src: 1,
                dst: 0,
                period_s: 0.001,
                duty: 1.0,
                factor: 0.05,
            }],
        };
        let (a, _) = simulate_phase_faulted(&c, &plan.fwd, &constant).unwrap();
        let (b, _) = simulate_phase_faulted(&c, &plan.fwd, &flapping).unwrap();
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.devices, b.devices);
    }

    #[test]
    fn flapping_link_costs_makespan_less_than_constant() {
        use crate::fault::Fault;
        let l = layout(32768, 1024);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1);
        let base = simulate_phase(&c, &plan.fwd).unwrap();
        let mk = |fault: fn(u32) -> Fault| FaultSpec {
            seed: 0,
            faults: (1..4).map(fault).collect(),
        };
        // Degraded 99% of each cycle at 1000x slowdown: ~90x mean slowdown,
        // harsh enough to dominate compute overlap, yet the 1% healthy
        // windows still beat an always-degraded link.
        let flap = mk(|s| Fault::FlappingLink {
            src: s,
            dst: 0,
            period_s: 1e-4,
            duty: 0.99,
            factor: 0.001,
        });
        let constant = mk(|s| Fault::DegradedLink {
            src: s,
            dst: 0,
            factor: 0.001,
        });
        let (flapped, _) = simulate_phase_faulted(&c, &plan.fwd, &flap).unwrap();
        let (degraded, _) = simulate_phase_faulted(&c, &plan.fwd, &constant).unwrap();
        assert!(
            flapped.makespan > base.makespan,
            "flapping ingress should cost makespan: {} vs {}",
            flapped.makespan,
            base.makespan
        );
        assert!(
            flapped.makespan < degraded.makespan,
            "99% duty should hurt less than constant degradation: {} vs {}",
            flapped.makespan,
            degraded.makespan
        );
    }

    #[test]
    fn delayed_start_shifts_the_device() {
        use crate::fault::Fault;
        let l = layout(16384, 1024);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let c = ClusterSpec::p4de(1);
        let base = simulate_phase(&c, &plan.fwd).unwrap();
        let delay = 0.25;
        let spec = FaultSpec {
            seed: 0,
            faults: vec![Fault::DelayedStart {
                device: 2,
                delay_s: delay,
            }],
        };
        let (sim, trace) = simulate_phase_faulted(&c, &plan.fwd, &spec).unwrap();
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
        assert!(simulate_phase(&tiny, &plan.fwd).is_err());
    }

    #[test]
    fn rejects_degenerate_cluster() {
        let l = layout(4096, 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let mut c = ClusterSpec::p4de(1);
        c.inter_bw = 0.0;
        let err = simulate_phase(&c, &plan.fwd).unwrap_err();
        assert!(matches!(err, DcpError::InvalidArgument(_)), "{err:?}");
    }

    #[test]
    fn incremental_and_scratch_engines_agree_bitwise_on_plans() {
        let l = layout(32768, 1024);
        let p = ring_placement(&l, 8);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        for cluster in [ClusterSpec::p4de(1), {
            let mut c = ClusterSpec::p4de(4);
            c.devices_per_node = 2;
            c
        }] {
            let (inc, ci) = simulate_phase_counted(&cluster, &plan.fwd).unwrap();
            let (scr, cs) = simulate_phase_scratch(&cluster, &plan.fwd).unwrap();
            assert_eq!(inc.makespan.to_bits(), scr.makespan.to_bits());
            assert_eq!(inc.devices, scr.devices);
            assert_eq!(ci.events, cs.events);
            assert_eq!(ci.flows, cs.flows);
            assert!(ci.touched_flows <= cs.touched_flows);
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
        let t_flat = simulate_phase(&flat, &plan_of(&l, &p).fwd)
            .unwrap()
            .makespan;
        let t_spine = simulate_phase(&spine, &plan_of(&l, &p).fwd)
            .unwrap()
            .makespan;
        assert!(
            t_spine > t_flat,
            "oversubscribed spine should cost makespan: {t_spine} vs {t_flat}"
        );
    }

    fn plan_of(l: &BatchLayout, p: &Placement) -> ExecutionPlan {
        build_plan(l, p, &ScheduleConfig::default()).unwrap()
    }
}
