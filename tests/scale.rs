//! Scale-refactor regression pins.
//!
//! The multi-tier topology model and the incremental max-min network engine
//! both promise *bitwise* compatibility on the default flat topology: a
//! `ClusterSpec` without a `TopologySpec` must produce exactly the plans and
//! simulated makespans the pre-refactor engine produced. The constants below
//! were captured from the engine immediately before the topology/incremental
//! rewrite landed; any low-bit drift in the partitioner hierarchy, the
//! water-fill order, or the event loop shows up here as a hard failure. The
//! makespans were re-recorded once, placements and comm bytes unchanged,
//! when the division scheduler began cutting divisions by cost; every pin
//! was re-recorded once more when coarsening began contracting the
//! block-grid tiles of long documents, and again when the tile rule moved
//! to 4 x 4 tiles from 64 blocks and 2 x 2 from 32 (the golden batch's
//! 64-block document was tiled 2 x 2, then 4 x 4).
//! The CI thread matrix re-runs this at `RAYON_NUM_THREADS` 1/2/8, so the
//! pin doubles as the cross-thread-count determinism check.

use dcp::core::{IncrementalConfig, PlanOutput, Planner, PlannerConfig};
use dcp::mask::MaskSpec;
use dcp::sim::network::Network;
use dcp::sim::{simulate, simulate_on, simulate_plan, Fault, FaultSpec};
use dcp::types::{AttnSpec, ClusterSpec, PlanTier};

fn golden_batch() -> Vec<(u32, MaskSpec)> {
    vec![
        (65536, MaskSpec::Causal),
        (16384, MaskSpec::Causal),
        (16384, MaskSpec::paper_lambda()),
        (8192, MaskSpec::Causal),
    ]
}

/// FNV-1a over the concatenated token and comp assignments.
fn placement_fnv(p: &dcp::sched::Placement) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &d in p.token_to_dev.iter().chain(p.comp_to_dev.iter()) {
        h ^= d as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[test]
fn flat_topology_plans_and_makespans_are_bitwise_pinned() {
    // (nodes, placement fnv, fwd makespan bits, bwd makespan bits, bytes) —
    // captured from the pre-refactor engine.
    let goldens: [(u32, u64, u64, u64, u64); 3] = [
        (
            1,
            0xa1f5fc8696de6081,
            0x3f7fbfb43ecfac84,
            0x3f93b681a4c3589f,
            595165184,
        ),
        (
            2,
            0x9140d119ae6ca6fc,
            0x3f709621ae89e071,
            0x3f8482244192b0b7,
            1317830656,
        ),
        (
            4,
            0xdb225ced87052b7d,
            0x3f6751529ab50ed8,
            0x3f7d0518ebc1cdb9,
            1944092672,
        ),
    ];
    for (nodes, fnv, fwd_bits, bwd_bits, comm) in goldens {
        let cluster = ClusterSpec::p4de(nodes);
        let planner = Planner::new(
            cluster.clone(),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                ..Default::default()
            },
        );
        let out = planner.plan(&golden_batch()).unwrap();
        let sim = simulate_plan(&cluster, &out.plan).unwrap();
        assert_eq!(
            placement_fnv(&out.placement),
            fnv,
            "nodes={nodes}: placement drifted from the pre-refactor golden"
        );
        assert_eq!(
            sim.fwd.makespan.to_bits(),
            fwd_bits,
            "nodes={nodes}: fwd makespan drifted ({} vs golden)",
            sim.fwd.makespan
        );
        assert_eq!(
            sim.bwd.makespan.to_bits(),
            bwd_bits,
            "nodes={nodes}: bwd makespan drifted ({} vs golden)",
            sim.bwd.makespan
        );
        assert_eq!(out.plan.total_comm_bytes(), comm, "nodes={nodes}");
    }
}

#[test]
fn incremental_engine_matches_scratch_on_golden_plans() {
    // The incremental fill performs the same freeze arithmetic as the
    // global one, but the scratch reference breaks exact max-min ties in
    // the iteration order of fresh hash maps, so on plans with such ties
    // (these have them) event times wander by an ulp from run to run:
    // makespans, device finishes and the interval sums are held to
    // rounding error, the event count exactly.
    for nodes in [1u32, 2, 4] {
        let cluster = ClusterSpec::p4de(nodes);
        let planner = Planner::new(
            cluster.clone(),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                ..Default::default()
            },
        );
        let out = planner.plan(&golden_batch()).unwrap();
        for phase in [&out.plan.fwd, &out.plan.bwd] {
            let none = FaultSpec::none();
            let mut scratch = Network::new(cluster.clone());
            scratch.use_scratch_engine(true);
            let incremental = simulate(&cluster, phase, &none).unwrap();
            let reference = simulate_on(&cluster, scratch, phase, &none).unwrap();
            let (inc, inc_counters) = (incremental.sim, incremental.counters);
            let (scr, scr_counters) = (reference.sim, reference.counters);
            let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * y.abs().max(1e-9);
            assert!(
                close(inc.makespan, scr.makespan),
                "nodes={nodes}: makespans diverged ({} vs {})",
                inc.makespan,
                scr.makespan
            );
            for (d, (a, b)) in inc.devices.iter().zip(&scr.devices).enumerate() {
                for (what, x, y) in [
                    ("finish", a.finish, b.finish),
                    ("comm_active", a.comm_active, b.comm_active),
                    ("overlap", a.overlap, b.overlap),
                    ("exposed_wait", a.exposed_wait, b.exposed_wait),
                ] {
                    assert!(close(x, y), "nodes={nodes} device {d}: {what} {x} vs {y}");
                }
            }
            assert_eq!(inc_counters.events, scr_counters.events);
            assert!(
                inc_counters.touched_flows <= scr_counters.touched_flows,
                "nodes={nodes}: incremental touched {} flows, scratch {}",
                inc_counters.touched_flows,
                scr_counters.touched_flows
            );
        }
    }
}

/// `[placement fnv, fwd makespan bits, bwd makespan bits, comm bytes]` of a
/// finished plan: the pin the goldens in this file are written in.
fn plan_pin(cluster: &ClusterSpec, out: &PlanOutput) -> [u64; 4] {
    let sim = simulate_plan(cluster, &out.plan).unwrap();
    [
        placement_fnv(&out.placement),
        sim.fwd.makespan.to_bits(),
        sim.bwd.makespan.to_bits(),
        out.plan.total_comm_bytes(),
    ]
}

/// [`golden_batch`] with every length a few tokens short: the same block
/// counts and masks, so it near-hits the seed the golden batch left behind
/// but is not block-identical to it.
fn drifted_batch() -> Vec<(u32, MaskSpec)> {
    golden_batch()
        .into_iter()
        .map(|(len, mask)| (len - 5, mask))
        .collect()
}

fn warm_planner(cluster: &ClusterSpec) -> Planner {
    Planner::new(
        cluster.clone(),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 1024,
            plan_cache: 0,
            incremental: IncrementalConfig {
                enabled: true,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

fn one_straggler_one_slow_link() -> FaultSpec {
    FaultSpec {
        seed: 0,
        faults: vec![
            Fault::Straggler {
                device: 3,
                slowdown: 2.5,
            },
            Fault::DegradedLink {
                src: 9,
                dst: 1,
                factor: 0.25,
            },
        ],
    }
}

/// Pins captured at the commit before cold and warm placement and the two
/// caches were merged into one implementation each; (b) at the commit that
/// left fault specs to the simulator alone.
#[test]
fn warm_faulted_and_spine_plans_are_bitwise_pinned() {
    // (a) Warm drift re-plan through the two-level hierarchy.
    let flat = ClusterSpec::p4de(2);
    let p = warm_planner(&flat);
    p.plan(&golden_batch()).unwrap();
    let warm = p.plan(&drifted_batch()).unwrap();
    assert!(warm.stats.near_hit && warm.stats.schedule_s > 0.0);
    assert_eq!(
        plan_pin(&flat, &warm),
        [
            0x9140d119ae6ca6fc,
            0x3f7095559375ceb6,
            0x3f8481e56444a98c,
            1317804896
        ],
        "warm drift re-plan on p4de(2)"
    );

    // (b) The cold plan simulated around a straggler and a degraded link:
    // the planner places for a healthy cluster, the simulator prices the
    // faults.
    let cold = Planner::new(
        flat.clone(),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 1024,
            ..Default::default()
        },
    )
    .plan(&golden_batch())
    .unwrap();
    assert_eq!(cold.tier, PlanTier::Partitioned);
    let spec = one_straggler_one_slow_link();
    let mut pin = Vec::new();
    for phase in [&cold.plan.fwd, &cold.plan.bwd] {
        let clean = simulate(&flat, phase, &FaultSpec::none()).unwrap().sim;
        let faulted = simulate(&flat, phase, &spec).unwrap().sim;
        assert!(faulted.makespan > clean.makespan);
        pin.push(faulted.makespan.to_bits());
    }
    assert_eq!(
        pin,
        [0x3f856626e4413024, 0x3f98c65e70c4d21b],
        "cold plan on p4de(2) under a straggler and a slow link"
    );

    // (c) Three levels (leaves, nodes, devices), cold then warm.
    let spine = ClusterSpec::p4de_spine(4, 2, 4.0);
    let p = warm_planner(&spine);
    let cold = p.plan(&golden_batch()).unwrap();
    assert_eq!(
        plan_pin(&spine, &cold),
        [
            0x73bcd4a6cebfbb1d,
            0x3f68d191a8fe1d8f,
            0x3f7c2ad07d5941ff,
            1779793920
        ],
        "cold plan on the spine"
    );
    let warm = p.plan(&drifted_batch()).unwrap();
    assert!(warm.stats.near_hit && warm.stats.schedule_s > 0.0);
    assert_eq!(
        plan_pin(&spine, &warm),
        [
            0x9be970c45741be99,
            0x3f6985afe17d4c1c,
            0x3f7c1316149f2dbc,
            1807059168
        ],
        "warm drift re-plan on the spine"
    );
}
