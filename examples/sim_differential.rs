//! Differential dump for changes to the timing side of the stream walker:
//! its run queue (`dcp-sched::stream`), the simulator's timing backend
//! (`dcp-sim::sim`) or the network engine (`dcp-sim::network`). Device run
//! order at one instant fixes flow ids and the water-fill's freeze order, so
//! such a change has to keep every simulated f64 as it was. This prints one
//! line per case — an FNV-1a over the makespan, every `DeviceTimeline` field
//! and every trace event, plus the event-loop and network counters — for
//! 22 376 cases: 400 random scattered placements × 4 clusters (zero-latency
//! and leaf/spine among them) × forward/backward × {clean, random faults, a
//! third of the transfers empty, all empty under faults, 0–200-byte
//! transfers, a launch moved behind its receivers' waits, the same under
//! faults}, then planner plans on 8, 16, 32 and 256 devices.
//!
//! "Same simulation" is a mechanical diff: the line count and sha256 of the
//! output are committed as `results/SIM_DIGEST.txt`, and CI's `verify` job
//! regenerates and compares them (~2.5 min in release):
//!
//! ```sh
//! cargo run --release -q --example sim_differential > sim_differential.txt
//! echo "$(wc -l < sim_differential.txt) $(sha256sum < sim_differential.txt | cut -d' ' -f1)" \
//!     | diff -u results/SIM_DIGEST.txt -
//! ```
//!
//! The random-placement lines have not moved since PR 15's polling loop;
//! the planner plans' lines were re-recorded once, when the planner's
//! streams became the scheduler's own emission (PR 24). When the digest
//! does move, `diff` this output against the
//! same example's in a `git clone` of the parent to see which cases did. The
//! scratch network engine breaks exact max-min ties in hash-map order and is
//! not bit-stable from run to run, so its makespan is compared with the
//! incremental engine's to 1e-9 inside the case and only its counters are
//! printed.

use dcp::blocks::{BatchLayout, BlockConfig};
use dcp::core::{Planner, PlannerConfig};
use dcp::mask::MaskSpec;
use dcp::sched::{
    build_plan, ExecutionPlan, Instr, PassConfig, PayloadKind, PhasePlan, Placement, ScheduleConfig,
};
use dcp::sim::network::Network;
use dcp::sim::{simulate, simulate_on, Fault, FaultSpec, SimRun, TraceKind};
use dcp::types::{AttnSpec, ClusterSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A random batch on 2–8 devices, every block on a random device.
fn random_case(seed: u64, big: bool) -> (ExecutionPlan, u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let block_size = 8 * rng.gen_range(1..3u32);
    let scale = if big { 64 } else { 1 };
    let seqs: Vec<(u32, MaskSpec)> = (0..rng.gen_range(1..4))
        .map(|_| {
            let mask = match rng.gen_range(0..3) {
                0 => MaskSpec::Causal,
                1 => MaskSpec::Lambda { sink: 2, window: 9 },
                _ => MaskSpec::CausalBlockwise {
                    block: 8,
                    window_blocks: 2,
                    sink_blocks: 1,
                },
            };
            (8 * rng.gen_range(2..8u32) * scale, mask)
        })
        .collect();
    let config = BlockConfig {
        block_size: block_size * scale,
        head_blocks: rng.gen_range(1..3),
    };
    let layout = BatchLayout::build(AttnSpec::new(4, 2, 8, 2), config, &seqs).unwrap();
    let n = rng.gen_range(2..9);
    let placement = Placement {
        num_devices: n,
        token_to_dev: (0..layout.token_blocks.len())
            .map(|_| rng.gen_range(0..n))
            .collect(),
        comp_to_dev: (0..layout.comp_blocks.len())
            .map(|_| rng.gen_range(0..n))
            .collect(),
    };
    let cfg = ScheduleConfig {
        divisions: rng.gen_range(1..5),
        ..Default::default()
    };
    (build_plan(&layout, &placement, &cfg).unwrap(), n)
}

fn dump(tag: &str, cluster: &ClusterSpec, phase: &PhasePlan, spec: &FaultSpec) {
    let run = simulate(cluster, phase, spec);
    match &run {
        Ok(SimRun { sim, trace, .. }) => {
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            h.word(sim.makespan.to_bits());
            for d in &sim.devices {
                for x in [
                    d.attn,
                    d.reduce,
                    d.copy,
                    d.exposed_wait,
                    d.comm_active,
                    d.overlap,
                    d.finish,
                ] {
                    h.word(x.to_bits());
                }
            }
            for e in trace {
                h.word(e.device as u64);
                h.word(match e.kind {
                    TraceKind::Attn => 1,
                    TraceKind::AttnBwd => 2,
                    TraceKind::Reduce => 3,
                    TraceKind::Copy => 4,
                    TraceKind::Wait => 5,
                    TraceKind::Straggle => 6,
                    TraceKind::Delay => 7,
                    TraceKind::Transfer { from } => 100 + from as u64,
                });
                h.word(e.start.to_bits());
                h.word(e.end.to_bits());
            }
            print!("{tag} ok {:016x} trace={}", h.0, trace.len());
        }
        Err(e) => print!("{tag} err {e:?}"),
    }
    // The clean cases also print the counters, and those of the scratch
    // network engine under the same walk.
    if spec.faults.is_empty() {
        match &run {
            Ok(SimRun { sim, counters, .. }) => print!(
                " counted {:016x} ev={} fl={} rc={} tf={}",
                sim.makespan.to_bits(),
                counters.events,
                counters.flows,
                counters.recomputes,
                counters.touched_flows
            ),
            Err(_) => print!(" counted err"),
        }
        let mut scratch = Network::new(cluster.clone());
        scratch.use_scratch_engine(true);
        match (simulate_on(cluster, scratch, phase, spec), &run) {
            (Ok(scr), Ok(inc)) => {
                let (s, inc) = (scr.sim.makespan, inc.sim.makespan);
                let close = (s - inc).abs() <= 1e-9 * inc.max(1e-9);
                print!(
                    " scratch {} ev={} fl={}",
                    if close { "close" } else { "FAR" },
                    scr.counters.events,
                    scr.counters.flows
                );
            }
            _ => print!(" scratch err"),
        }
    }
    println!();
}

/// Moves one device's launch of a partial-result op (the sender deposits
/// those) four instructions later, so its receivers reach their `CommWait`
/// while the flow does not exist yet.
fn wait_before_launch(p: &mut PhasePlan) -> bool {
    for si in 0..p.devices.len() {
        for i in 0..p.devices[si].instrs.len() {
            let Instr::CommLaunch(cid) = p.devices[si].instrs[i] else {
                continue;
            };
            let input_only = p.comms[cid.0 as usize].transfers.iter().all(|t| {
                matches!(
                    t.payload.kind(),
                    PayloadKind::Q | PayloadKind::Kv | PayloadKind::DO
                )
            });
            if input_only {
                continue;
            }
            let instrs = &mut p.devices[si].instrs;
            let j = (i + 4).min(instrs.len() - 1);
            // Never past the launching device's own wait on the op.
            if instrs[i + 1..=j].contains(&Instr::CommWait(cid)) {
                continue;
            }
            let launch = instrs.remove(i);
            instrs.insert(j, launch);
            return true;
        }
    }
    false
}

fn faults(rng: &mut SmallRng, n: u32) -> FaultSpec {
    let mut faults = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        faults.push(match rng.gen_range(0..5) {
            0 => Fault::Straggler {
                device: a,
                slowdown: 1.0 + rng.gen_range(0..40) as f64 / 10.0,
            },
            1 => Fault::DegradedLink {
                src: a,
                dst: b,
                factor: 0.25,
            },
            2 => Fault::FailedLink { src: a, dst: b },
            3 => Fault::DegradedLink {
                src: a,
                dst: b,
                factor: 0.05 * rng.gen_range(1..20) as f64,
            },
            _ => Fault::DelayedStart {
                device: a,
                delay_s: 1e-6 * rng.gen_range(0..50) as f64,
            },
        });
    }
    FaultSpec {
        seed: rng.gen(),
        faults,
    }
}

fn random_placements() {
    let none = FaultSpec::none();
    let mut zero_latency = ClusterSpec::p4de(1);
    zero_latency.intra_latency = 0.0;
    let mut two_per_node = ClusterSpec::p4de(4);
    two_per_node.devices_per_node = 2;
    let mut spine = ClusterSpec::p4de_spine(8, 2, 4.0);
    spine.devices_per_node = 1;
    let clusters = [ClusterSpec::p4de(1), zero_latency, two_per_node, spine];

    for seed in 0..400u64 {
        let (plan, n) = random_case(seed, seed % 2 == 1);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabc);
        for (ci, c) in clusters.iter().enumerate() {
            for (pi, phase) in [&plan.fwd, &plan.bwd].into_iter().enumerate() {
                let tag = format!("rand{seed}.c{ci}.p{pi}");
                dump(&tag, c, phase, &none);
                let f = faults(&mut rng, n);
                dump(&format!("{tag}.fault"), c, phase, &f);

                let mut third_empty = phase.clone();
                let mut all_empty = phase.clone();
                let mut tiny = phase.clone();
                for tr in third_empty
                    .comms
                    .iter_mut()
                    .flat_map(|op| &mut op.transfers)
                {
                    if rng.gen_range(0..3) == 0 {
                        tr.bytes = 0;
                    }
                }
                dump(&format!("{tag}.zero"), c, &third_empty, &none);
                for tr in all_empty.comms.iter_mut().flat_map(|op| &mut op.transfers) {
                    tr.bytes = 0;
                }
                dump(&format!("{tag}.allzero"), c, &all_empty, &f);
                // Inside the network's completion slack.
                for tr in tiny.comms.iter_mut().flat_map(|op| &mut op.transfers) {
                    tr.bytes = rng.gen_range(0..200);
                }
                dump(&format!("{tag}.tiny"), c, &tiny, &none);

                let mut late = phase.clone();
                if wait_before_launch(&mut late) {
                    dump(&format!("{tag}.wbl"), c, &late, &none);
                    dump(&format!("{tag}.wbl.fault"), c, &late, &f);
                }
            }
        }
    }
}

fn planner_plans() {
    let none = FaultSpec::none();
    let batch = vec![
        (65536, MaskSpec::Causal),
        (16384, MaskSpec::Causal),
        (16384, MaskSpec::paper_lambda()),
        (8192, MaskSpec::Causal),
    ];
    for nodes in [1u32, 2, 4] {
        let cluster = ClusterSpec::p4de(nodes);
        let planner = Planner::new(
            cluster.clone(),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                passes: PassConfig::optimize(),
                ..Default::default()
            },
        );
        let out = planner.plan(&batch).unwrap();
        let mut rng = SmallRng::seed_from_u64(nodes as u64);
        for (pi, phase) in [&out.plan.fwd, &out.plan.bwd].into_iter().enumerate() {
            let tag = format!("golden.n{nodes}.p{pi}");
            dump(&tag, &cluster, phase, &none);
            for k in 0..3 {
                let f = faults(&mut rng, cluster.num_devices());
                dump(&format!("{tag}.f{k}"), &cluster, phase, &f);
            }
        }
    }

    let cluster = ClusterSpec::p4de_spine(32, 4, 4.0);
    let planner = Planner::new(
        cluster.clone(),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 2048,
            passes: PassConfig::optimize(),
            ..Default::default()
        },
    );
    let straggler_and_slow_link = FaultSpec {
        seed: 7,
        faults: vec![
            Fault::Straggler {
                device: 0,
                slowdown: 4.0,
            },
            Fault::DegradedLink {
                src: 8,
                dst: 0,
                factor: 0.25,
            },
        ],
    };
    for batch in [
        vec![(256 * 2048, MaskSpec::Causal)],
        vec![
            (200_000, MaskSpec::Causal),
            (200_000, MaskSpec::Causal),
            (124_288, MaskSpec::Causal),
        ],
    ] {
        let out = planner.plan(&batch).unwrap();
        for (pi, phase) in [&out.plan.fwd, &out.plan.bwd].into_iter().enumerate() {
            let tag = format!("spine.{}.p{pi}", batch.len());
            dump(&tag, &cluster, phase, &none);
            dump(
                &format!("{tag}.f"),
                &cluster,
                phase,
                &straggler_and_slow_link,
            );
        }
    }
}

fn main() {
    random_placements();
    planner_plans();
}
