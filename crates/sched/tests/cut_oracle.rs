//! How far the cost-paced cuts are from the best cuts the simulator knows
//! of, and from a schedule whose communication is free.
//!
//! *Oracle.* On tiny plans (at most 8 remote blocks per device, T ≤ 4) one
//! device at a time is re-cut at every nondecreasing tuple of positions of
//! its own order — its remote blocks as the scheduler emitted them — while
//! every other device keeps the scheduler's cuts, and each variant is
//! simulated. The re-cut stream is rendered here as the scheduler renders
//! one: fetch `i + 1` launched when division `i` starts, a partial right
//! after its last contributing division, and the owners waiting on the
//! re-cut device's new partial ops instead of its old ones.
//!
//! *Bound.* [`free_comm_makespan`] simulates a phase on the same cluster
//! with links a million times faster than NVSwitch and no latency: what the
//! streams would take if no byte had to wait.

use dcp_blocks::{BatchLayout, BlockConfig, CompBlockId, TokenBlockId};
use dcp_core::{Planner, PlannerConfig};
use dcp_mask::MaskSpec;
use dcp_sched::{
    build_plan, CommId, CommOp, Instr, Payload, PayloadKind, PhasePlan, Placement, ScheduleConfig,
    Transfer,
};
use dcp_sim::{simulate, FaultSpec};
use dcp_types::{AttnSpec, ClusterSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `phase` simulated on `cluster` with communication that costs nothing:
/// links of 10^18 bytes/s (a 100 MB transfer takes 0.1 ns) and no latency.
fn free_comm_makespan(cluster: &ClusterSpec, phase: &PhasePlan) -> f64 {
    let free = ClusterSpec {
        intra_bw: 1e18,
        inter_bw: 1e18,
        intra_latency: 0.0,
        inter_latency: 0.0,
        topology: None,
        ..cluster.clone()
    };
    makespan(&free, phase)
}

fn makespan(cluster: &ClusterSpec, phase: &PhasePlan) -> f64 {
    simulate(cluster, phase, &FaultSpec::none())
        .unwrap()
        .sim
        .makespan
}

fn is_input(kind: PayloadKind) -> bool {
    matches!(kind, PayloadKind::Q | PayloadKind::Kv | PayloadKind::DO)
}

/// One device's remote blocks in the order the scheduler emitted them,
/// with what each brings: its new inputs (the next this many of `fetches`)
/// and its partials.
struct Order {
    dev: u32,
    backward: bool,
    local: Vec<CompBlockId>,
    blocks: Vec<CompBlockId>,
    /// `fetches[news[p]..news[p + 1]]` are the inputs block `p` needs first.
    fetches: Vec<Transfer>,
    news: Vec<usize>,
    /// Every partial the device returns, in first-touch order, with the
    /// position of its last contributor.
    partials: Vec<(Transfer, usize)>,
    /// The device's own ops: its fetches and its partials.
    old_fetch: Vec<CommId>,
    old_out: Vec<CommId>,
    /// The device's stream after its last division: output-phase waits and
    /// the reduction.
    tail: Vec<Instr>,
}

impl Order {
    fn read(layout: &BatchLayout, placement: &Placement, phase: &PhasePlan, dev: u32) -> Order {
        let backward = phase.devices[dev as usize]
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::AttnBwd { .. }));
        let instrs = &phase.devices[dev as usize].instrs;
        let last = instrs
            .iter()
            .rposition(|i| !matches!(i, Instr::CommWait(_) | Instr::Reduce { .. }))
            .map_or(0, |i| i + 1);
        let ops = |pick: fn(&Transfer, u32) -> bool| {
            let mut ids: Vec<CommId> = Vec::new();
            for ins in &instrs[..last] {
                if let Instr::CommLaunch(c) | Instr::CommWait(c) = ins {
                    let op = &phase.comms[c.0 as usize];
                    if !ids.contains(c) && op.transfers.iter().any(|t| pick(t, dev)) {
                        ids.push(*c);
                    }
                }
            }
            ids
        };
        let old_fetch = ops(|t, d| t.to == d && is_input(t.payload.kind()));
        let old_out = ops(|t, d| t.from == d && !is_input(t.payload.kind()));
        let fetches: Vec<Transfer> = old_fetch
            .iter()
            .flat_map(|c| phase.comms[c.0 as usize].transfers.iter().copied())
            .collect();
        let owner = |tb: TokenBlockId| placement.token_dev(tb);
        let (mut local, mut blocks) = (Vec::new(), Vec::new());
        for ins in &instrs[..last] {
            if let Instr::Attn { items, .. } | Instr::AttnBwd { items, .. } = ins {
                for &c in items {
                    let cb = &layout.comp_blocks[c.0 as usize];
                    match owner(cb.q_block) == dev && owner(cb.kv_block) == dev {
                        true => local.push(c),
                        false => blocks.push(c),
                    }
                }
            }
        }
        let (mut news, mut seen) = (vec![0], Vec::new());
        let mut partials: Vec<(Transfer, usize)> = Vec::new();
        for (p, &c) in blocks.iter().enumerate() {
            let cb = &layout.comp_blocks[c.0 as usize];
            let (qb, kvb) = (cb.q_block, cb.kv_block);
            let inputs = [
                (owner(qb) != dev).then_some(Payload::Q(qb)),
                (owner(qb) != dev && backward).then_some(Payload::DO(qb)),
                (owner(kvb) != dev).then_some(Payload::Kv(kvb)),
            ];
            let mut n = *news.last().unwrap();
            for payload in inputs.into_iter().flatten() {
                if !seen.contains(&payload) {
                    seen.push(payload);
                    assert_eq!(fetches[n].payload, payload, "fetches in commit order");
                    n += 1;
                }
            }
            news.push(n);
            let outs = [
                (owner(qb) != dev).then_some(match backward {
                    true => Payload::PartialDq(qb, dev),
                    false => Payload::PartialO(qb, dev),
                }),
                (owner(kvb) != dev && backward).then_some(Payload::PartialDkv(kvb, dev)),
            ];
            for payload in outs.into_iter().flatten() {
                match partials.iter_mut().find(|e| e.0.payload == payload) {
                    Some(e) => e.1 = p,
                    None => {
                        let sent = old_out
                            .iter()
                            .flat_map(|c| &phase.comms[c.0 as usize].transfers);
                        let tr = sent.copied().find(|t| t.payload == payload).unwrap();
                        partials.push((tr, p));
                    }
                }
            }
        }
        assert_eq!(*news.last().unwrap(), fetches.len());
        Order {
            dev,
            backward,
            local,
            blocks,
            fetches,
            news,
            partials,
            old_fetch,
            old_out,
            tail: instrs[last..].to_vec(),
        }
    }

    /// `phase` with this device re-cut: division `i` is positions
    /// `bounds[i]..bounds[i + 1]` of its order (`bounds[1] == 0`: division 0
    /// is its local blocks).
    fn recut(&self, layout: &BatchLayout, phase: &PhasePlan, bounds: &[usize]) -> PhasePlan {
        let t = bounds.len() - 1;
        let mut out = phase.clone();
        for c in self.old_fetch.iter().chain(&self.old_out) {
            out.comms[c.0 as usize].transfers.clear();
        }
        let mut push = |transfers: Vec<Transfer>| {
            (!transfers.is_empty()).then(|| {
                out.comms.push(CommOp { transfers });
                CommId(out.comms.len() as u32 - 1)
            })
        };
        let fetch: Vec<Option<CommId>> = (0..t)
            .map(|i| push(self.fetches[self.news[bounds[i]]..self.news[bounds[i + 1]]].to_vec()))
            .collect();
        let div_of = |p: usize| bounds[1..t].partition_point(|&b| b <= p);
        let outs: Vec<Option<CommId>> = (0..t)
            .map(|i| {
                let mine = self.partials.iter().filter(|e| div_of(e.1) == i);
                push(mine.map(|e| e.0).collect())
            })
            .collect();
        let flops = |items: &[CompBlockId]| -> u64 {
            let f = |c: &CompBlockId| layout.comp_blocks[c.0 as usize].flops;
            match self.backward {
                true => items.iter().map(|c| f(c) * 5 / 2).sum(),
                false => items.iter().map(f).sum(),
            }
        };
        let mut instrs = Vec::new();
        for i in 0..t {
            if let Some(c) = fetch[i] {
                instrs.push(Instr::CommWait(c));
            }
            if let Some(c) = fetch.get(i + 1).copied().flatten() {
                instrs.push(Instr::CommLaunch(c));
            }
            let items = match i {
                0 => self.local.clone(),
                _ => self.blocks[bounds[i]..bounds[i + 1]].to_vec(),
            };
            if !items.is_empty() {
                let flops = flops(&items);
                instrs.push(match self.backward {
                    true => Instr::AttnBwd { items, flops },
                    false => Instr::Attn { items, flops },
                });
            }
            if let Some(c) = outs[i] {
                instrs.push(Instr::CommLaunch(c));
            }
        }
        instrs.extend(self.tail.iter().cloned());
        out.devices[self.dev as usize].instrs = instrs;
        // The owners wait on the new partial ops instead of the old ones.
        for stream in out.devices.iter_mut().filter(|s| s.device != self.dev) {
            let old = |i: &Instr| matches!(i, Instr::CommWait(c) if self.old_out.contains(c));
            let Some(at) = stream.instrs.iter().position(old) else {
                continue;
            };
            stream.instrs.retain(|i| !old(i));
            let theirs = outs.iter().flatten().filter(|c| {
                let op = &out.comms[c.0 as usize];
                op.transfers.iter().any(|t| t.to == stream.device)
            });
            let waits: Vec<Instr> = theirs.map(|&c| Instr::CommWait(c)).collect();
            stream.instrs.splice(at..at, waits);
        }
        out
    }
}

/// Every nondecreasing tuple of `free` positions in `0..=m`, as the bounds
/// of a `free + 2`-division device.
fn tuples(m: usize, free: usize) -> Vec<Vec<usize>> {
    let mut all = vec![vec![0, 0]];
    for _ in 0..free {
        all = all
            .into_iter()
            .flat_map(|b| {
                let from = *b.last().unwrap();
                (from..=m).map(move |c| [b.clone(), vec![c]].concat())
            })
            .collect();
    }
    all.into_iter().map(|b| [b, vec![m]].concat()).collect()
}

/// Tiny batches: two to four devices on one node or two, one or two
/// sequences of 2–6 blocks, placements by ring, by the planner and at
/// random.
fn tiny_plans() -> Vec<(ClusterSpec, BatchLayout, Placement, u32)> {
    let mut rng = SmallRng::seed_from_u64(8);
    let attn = AttnSpec::paper_micro();
    let mut out = Vec::new();
    for case in 0..24u32 {
        let n = [2u32, 3, 4][case as usize % 3];
        let cluster = match case % 2 {
            0 => ClusterSpec::single_node(n),
            _ => ClusterSpec {
                nodes: n,
                devices_per_node: 1,
                ..ClusterSpec::p4de(n)
            },
        };
        let seqs: Vec<(u32, MaskSpec)> = (0..rng.gen_range(1..3))
            .map(|_| {
                let len: u32 = 1024 * rng.gen_range(2u32..7);
                let mask = match rng.gen_range(0..3) {
                    0 => MaskSpec::Causal,
                    1 => MaskSpec::Full,
                    _ => MaskSpec::Lambda {
                        sink: 256,
                        window: 2048,
                    },
                };
                (len, mask)
            })
            .collect();
        let cfg = BlockConfig::with_block_size(&attn, 1024);
        let layout = BatchLayout::build(attn, cfg, &seqs).unwrap();
        let nt = layout.token_blocks.len() as u32;
        let placement = match case % 4 {
            0 | 1 => {
                let token_to_dev: Vec<u32> = (0..nt).map(|i| i % n).collect();
                let comp_to_dev = layout
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
            2 => {
                let cfg = PlannerConfig {
                    block_size: 1024,
                    ..PlannerConfig::default()
                };
                Planner::new(cluster.clone(), attn, cfg)
                    .plan(&seqs)
                    .unwrap()
                    .placement
            }
            _ => Placement {
                num_devices: n,
                token_to_dev: (0..nt).map(|_| rng.gen_range(0..n)).collect(),
                comp_to_dev: layout
                    .comp_blocks
                    .iter()
                    .map(|_| rng.gen_range(0..n))
                    .collect(),
            },
        };
        out.push((cluster, layout, placement, 3 + case % 2));
    }
    out
}

/// The paced cuts' gap to the oracle and their distance from the bound,
/// pinned: the model ignores contention, so the oracle can do better on a
/// device whose links others share, but not by much, and not often.
#[test]
fn paced_cuts_against_the_brute_force_oracle_and_the_free_comm_bound() {
    let (mut gaps, mut bounds) = (Vec::new(), Vec::new());
    for (cluster, layout, placement, t) in tiny_plans() {
        let cfg = ScheduleConfig {
            divisions: t,
            cost: cluster.cost(),
        };
        let plan = build_plan(&layout, &placement, &cfg).unwrap();
        for phase in [&plan.fwd, &plan.bwd] {
            let paced = makespan(&cluster, phase);
            let free = free_comm_makespan(&cluster, phase);
            assert!(free <= paced, "free {free} > paced {paced}");
            bounds.push(paced / free);
            for dev in 0..placement.num_devices {
                let order = Order::read(&layout, &placement, phase, dev);
                let m = order.blocks.len();
                if m == 0 || m > 8 {
                    continue;
                }
                let best = tuples(m, t as usize - 2)
                    .iter()
                    .map(|b| makespan(&cluster, &order.recut(&layout, phase, b)))
                    .fold(f64::INFINITY, f64::min);
                // The scheduler's own cuts are among the tuples.
                assert!(
                    best <= paced * (1.0 + 1e-12),
                    "oracle {best} > paced {paced}"
                );
                gaps.push(paced / best);
            }
        }
    }
    let geomean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    let worst = |v: &[f64]| v.iter().copied().fold(1.0, f64::max);
    let (gap, bound) = (geomean(&gaps), geomean(&bounds));
    eprintln!(
        "paced / oracle over {} devices: geometric mean {gap:.4}, worst {:.4}; \
         paced / free-comm over {} phases: geometric mean {bound:.4}, worst {:.4}",
        gaps.len(),
        worst(&gaps),
        bounds.len(),
        worst(&bounds)
    );
    // Measured: 82 devices, gap 1.0068 in geometric mean and 1.161 at
    // worst; 48 phases, 1.195 over the free-comm bound (2.40 at worst).
    assert!(gaps.len() >= 64, "only {} devices re-cut", gaps.len());
    assert!(gap <= 1.0075, "paced / oracle {gap}");
    assert!(
        worst(&gaps) <= 1.17,
        "paced / oracle {} on one device",
        worst(&gaps)
    );
    assert!(bound <= 1.2, "paced / free-comm {bound}");
}
