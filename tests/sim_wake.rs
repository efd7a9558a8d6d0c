//! The simulator's event loop wakes a blocked device from the completion of
//! the flows it waits for instead of re-testing every blocked device on
//! every event. The order in which devices run at one instant decides flow
//! ids and, through them, the order in which the network freezes rates, so
//! the new loop has to reproduce the old one's results to the bit. The
//! goldens below — an FNV-1a over the makespan, every `DeviceTimeline` field
//! and every trace event, plus the event-loop and network counters — are
//! taken on a 256-device leaf/spine plan, clean, with empty transfers, with
//! a receiver reaching its wait before the sender's launch, and under
//! faults. They held from the polling loop on, and were re-recorded, loop
//! untouched, each time the plan under them changed: when it became the
//! scheduler's own emission, and when the scheduler began cutting
//! divisions by cost (the simulator, run on the plans of before, still
//! reproduced the earlier constants). Since then the plan is scheduled from
//! a fixed placement (`tests/fixtures/spine32_placement.json`), so a change
//! to the partitioner no longer moves it.
//! `examples/sim_differential.rs` prints the same digest for 22 376 more
//! cases, to be diffed against its output in a clone of an older commit.

use dcp::blocks::{BatchLayout, BlockConfig};
use dcp::core::{Planner, PlannerConfig};
use dcp::mask::MaskSpec;
use dcp::sched::{
    build_plan, Instr, PassConfig, PayloadKind, PhasePlan, Placement, ScheduleConfig,
};
use dcp::sim::network::Network;
use dcp::sim::{simulate, simulate_on, Fault, FaultSpec, SimCounters, SimRun, TraceKind};
use dcp::types::{AttnSpec, ClusterSpec};

/// Planner settings of the spine batches: 2048-token blocks.
fn spine_config() -> PlannerConfig {
    PlannerConfig {
        block_size: 2048,
        passes: PassConfig::optimize(),
        ..Default::default()
    }
}

/// A weak-scaled causal batch, 2048 tokens per device, for a leaf/spine
/// fabric of `nodes` p4de nodes (four to a leaf, 4× oversubscribed).
fn spine_batch(nodes: u32) -> (ClusterSpec, Vec<(u32, MaskSpec)>) {
    let cluster = ClusterSpec::p4de_spine(nodes, 4, 4.0);
    // Sixteenths of the batch: 6 + 4 + 4 + 4 + 4 + 4 + 3 + 3.
    let unit = nodes * 8 * 2048 / 32;
    let batch: Vec<(u32, MaskSpec)> = [6, 4, 4, 4, 4, 4, 3, 3]
        .into_iter()
        .map(|units| (units * unit, MaskSpec::Causal))
        .collect();
    assert_eq!(batch.iter().map(|b| b.0).sum::<u32>(), nodes * 8 * 2048);
    (cluster, batch)
}

/// Forward and backward phases of the spine batch on `nodes` nodes, planned
/// cold.
fn spine_phases(nodes: u32) -> (ClusterSpec, [PhasePlan; 2]) {
    let (cluster, batch) = spine_batch(nodes);
    let planner = Planner::new(cluster.clone(), AttnSpec::paper_micro(), spine_config());
    let plan = planner.plan(&batch).unwrap().plan;
    (cluster, [plan.fwd, plan.bwd])
}

/// The 32-node spine batch's phases, scheduled by the planner's own
/// schedule config from a placement the partitioner once chose for it
/// (`tests/fixtures/spine32_placement.json`). The goldens below pin the
/// simulator, so the plan under them is fixed here rather than left to
/// whatever the partitioner places today.
fn pinned_spine_phases() -> (ClusterSpec, [PhasePlan; 2]) {
    let (cluster, batch) = spine_batch(32);
    let cfg = spine_config();
    let attn = AttnSpec::paper_micro();
    let layout = BatchLayout::build(
        attn,
        BlockConfig {
            block_size: cfg.block_size,
            head_blocks: attn.kv_heads,
        },
        &batch,
    )
    .unwrap();
    let placement: Placement =
        serde_json::from_str(include_str!("fixtures/spine32_placement.json")).unwrap();
    let sched = ScheduleConfig {
        divisions: cfg.divisions,
        cost: cluster.cost(),
    };
    let plan = build_plan(&layout, &placement, &sched).unwrap();
    (cluster, [plan.fwd, plan.bwd])
}

/// FNV-1a over everything a simulated phase reports.
fn digest(cluster: &ClusterSpec, phase: &PhasePlan, spec: &FaultSpec) -> u64 {
    let SimRun { sim, trace, .. } = simulate(cluster, phase, spec).unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    word(sim.makespan.to_bits());
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
            word(x.to_bits());
        }
    }
    for e in &trace {
        word(e.device as u64);
        word(match e.kind {
            TraceKind::Attn => 1,
            TraceKind::AttnBwd => 2,
            TraceKind::Reduce => 3,
            TraceKind::Copy => 4,
            TraceKind::Wait => 5,
            TraceKind::Straggle => 6,
            TraceKind::Delay => 7,
            TraceKind::Transfer { from } => 100 + from as u64,
        });
        word(e.start.to_bits());
        word(e.end.to_bits());
    }
    h
}

/// `[events, flows, recomputes, touched_flows]`, the counters the parent
/// commit already had.
fn parent_counters(c: &SimCounters) -> [u64; 4] {
    [c.events, c.flows, c.recomputes, c.touched_flows]
}

/// A wait costs one check when it is reached and one per flow that ends
/// into it; the polling loop re-tested every blocked device on every event
/// (240 k – 340 k tests a phase on plans like this one).
fn assert_wait_checks_bounded(c: &SimCounters, what: &str) {
    assert!(
        c.wait_checks <= 4 * c.flows,
        "{what}: {} wait checks for {} flows",
        c.wait_checks,
        c.flows
    );
}

/// Every third transfer carries nothing: its flow is done when launched, so
/// the launch itself has to wake the receiver.
fn with_empty_transfers(phase: &PhasePlan) -> PhasePlan {
    let mut p = phase.clone();
    let mut i = 0usize;
    for op in &mut p.comms {
        for tr in &mut op.transfers {
            if i.is_multiple_of(3) {
                tr.bytes = 0;
            }
            i += 1;
        }
    }
    p
}

/// Every even device runs a long copy kernel just before its first launch
/// of a partial-result op (the sender deposits those): the odd devices among
/// its receivers reach their `CommWait` while the flow does not exist yet.
fn with_late_launches(phase: &PhasePlan) -> PhasePlan {
    let mut p = phase.clone();
    let mut delayed = 0;
    for stream in p.devices.iter_mut().step_by(2) {
        let first_partial = stream.instrs.iter().position(|ins| {
            let Instr::CommLaunch(cid) = ins else {
                return false;
            };
            p.comms[cid.0 as usize].transfers.iter().any(|t| {
                !matches!(
                    t.payload.kind(),
                    PayloadKind::Q | PayloadKind::Kv | PayloadKind::DO
                )
            })
        });
        if let Some(i) = first_partial {
            stream.instrs.insert(i, Instr::Copy { bytes: 1 << 28 });
            delayed += 1;
        }
    }
    assert!(delayed > 64, "only {delayed} launches delayed");
    p
}

fn straggler_and_slow_link() -> FaultSpec {
    FaultSpec {
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
    }
}

#[test]
fn wake_on_completion_reproduces_the_polling_loop() {
    // (digest, [events, flows, recomputes, touched_flows]) per phase.
    type Golden = [(u64, [u64; 4]); 2];
    const CLEAN: Golden = [
        (0x2c0fb0cca918b548, [2699, 3686, 1947, 85869]),
        (0x13b4d00e78c436b1, [4840, 6287, 3974, 122876]),
    ];
    const EMPTY_TRANSFERS: Golden = [
        (0x1ee42b94ba28fdb5, [2355, 3686, 1601, 52429]),
        (0x29b84230635b13aa, [4073, 6287, 3258, 67361]),
    ];
    const LATE_LAUNCHES: Golden = [
        (0x60a75245f4ab5de2, [2826, 3686, 1960, 85551]),
        (0x293c903a35feb85e, [5060, 6287, 4064, 118178]),
    ];
    const FAULTED: [u64; 2] = [0x8407c8f7e3ac7e96, 0xbbcc95e9c592d02a];

    let (cluster, phases) = pinned_spine_phases();
    let none = FaultSpec::none();
    let variants: [(&str, [PhasePlan; 2], Golden); 3] = [
        ("clean", phases.clone(), CLEAN),
        (
            "empty transfers",
            [
                with_empty_transfers(&phases[0]),
                with_empty_transfers(&phases[1]),
            ],
            EMPTY_TRANSFERS,
        ),
        (
            "late launches",
            [
                with_late_launches(&phases[0]),
                with_late_launches(&phases[1]),
            ],
            LATE_LAUNCHES,
        ),
    ];
    for (what, plans, golden) in &variants {
        for (p, phase) in plans.iter().enumerate() {
            let what = format!("{what}, phase {p}");
            let counters = simulate(&cluster, phase, &none).unwrap().counters;
            let got = (digest(&cluster, phase, &none), parent_counters(&counters));
            assert_eq!(
                got, golden[p],
                "{what}: drifted from the polling loop ({:#018x}, {:?})",
                got.0, got.1
            );
            assert_wait_checks_bounded(&counters, &what);
        }
    }

    // ×4 straggler on device 0 and one inter-node link at a quarter.
    let faults = straggler_and_slow_link();
    for (p, phase) in phases.iter().enumerate() {
        let got = digest(&cluster, phase, &faults);
        assert_eq!(
            got, FAULTED[p],
            "faulted, phase {p}: drifted from the polling loop ({got:#018x})"
        );
    }
}

/// The scratch network engine under the same loop, on a 64-device fabric of
/// the same shape (at 256 devices it takes 8–15 s a phase in a dev build).
/// It breaks exact max-min ties by the iteration order of fresh hash maps,
/// so beyond the loop's own counters it is held to rounding error, not to
/// the bit (`tests/scale.rs` does the same on the flat fabric).
#[test]
fn scratch_engine_agrees_under_the_new_loop() {
    let (cluster, phases) = spine_phases(8);
    for (p, phase) in phases.iter().enumerate() {
        for (what, phase) in [
            ("clean", phase.clone()),
            ("empty transfers", with_empty_transfers(phase)),
        ] {
            let what = format!("{what}, phase {p}");
            let none = FaultSpec::none();
            let mut scratch = Network::new(cluster.clone());
            scratch.use_scratch_engine(true);
            let SimRun { sim, counters, .. } = simulate(&cluster, &phase, &none).unwrap();
            let reference = simulate_on(&cluster, scratch, &phase, &none).unwrap();
            let (scr, scr_counters) = (reference.sim, reference.counters);
            assert_eq!(counters.events, scr_counters.events, "{what}");
            assert_eq!(counters.flows, scr_counters.flows, "{what}");
            assert_eq!(counters.wait_checks, scr_counters.wait_checks, "{what}");
            assert_wait_checks_bounded(&counters, &what);
            let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * y.abs().max(1e-9);
            assert!(close(sim.makespan, scr.makespan), "{what}: makespan");
            for (d, (a, b)) in sim.devices.iter().zip(&scr.devices).enumerate() {
                for (field, x, y) in [
                    ("attn", a.attn, b.attn),
                    ("reduce", a.reduce, b.reduce),
                    ("copy", a.copy, b.copy),
                    ("exposed_wait", a.exposed_wait, b.exposed_wait),
                    ("comm_active", a.comm_active, b.comm_active),
                    ("overlap", a.overlap, b.overlap),
                    ("finish", a.finish, b.finish),
                ] {
                    assert!(close(x, y), "{what}, device {d}: {field} {x} vs {y}");
                }
            }
        }
    }
}
