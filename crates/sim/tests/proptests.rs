//! Property tests for the simulator: conservation, lower bounds, and
//! monotonicity (DESIGN.md Sec. 6).

use dcp_blocks::{BatchLayout, BlockConfig};
use dcp_mask::MaskSpec;
use dcp_sched::{build_plan, Placement, ScheduleConfig};
use dcp_sim::{simulate, FaultSpec};
use dcp_types::{AttnSpec, ClusterSpec};
use proptest::prelude::*;

prop_compose! {
    fn arb_case()(
        lens in prop::collection::vec(8u32..300, 1..4),
        bs in 4u32..64,
        n in 1u32..8,
        seed in 0u64..500,
    ) -> (Vec<u32>, u32, u32, u64) {
        (lens, bs, n, seed)
    }
}

fn build_case(
    lens: &[u32],
    bs: u32,
    n: u32,
    seed: u64,
) -> (BatchLayout, Placement, dcp_sched::ExecutionPlan) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let seqs: Vec<(u32, MaskSpec)> = lens.iter().map(|&l| (l, MaskSpec::Causal)).collect();
    let layout = BatchLayout::build(
        AttnSpec::new(2, 2, 4, 2),
        BlockConfig {
            block_size: bs,
            head_blocks: 1,
        },
        &seqs,
    )
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    let placement = Placement {
        num_devices: n,
        token_to_dev: (0..layout.token_blocks.len())
            .map(|_| rng.gen_range(0..n))
            .collect(),
        comp_to_dev: (0..layout.comp_blocks.len())
            .map(|_| rng.gen_range(0..n))
            .collect(),
    };
    let plan = build_plan(&layout, &placement, &ScheduleConfig::default()).unwrap();
    (layout, placement, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The makespan is bounded below by every device's pure compute time,
    /// and every phase completes (no deadlock) for arbitrary placements.
    #[test]
    fn makespan_lower_bound((lens, bs, n, seed) in arb_case()) {
        let cluster = ClusterSpec::single_node(8);
        let (_, _, plan) = build_case(&lens, bs, n, seed);
        let sim = simulate(&cluster, &plan.fwd, &FaultSpec::none()).unwrap().sim;
        let eff = cluster.effective_flops();
        for (d, load) in plan.fwd.comp_loads().iter().enumerate() {
            let lb = *load as f64 / eff;
            prop_assert!(
                sim.devices[d].finish + 1e-12 >= lb,
                "device {d}: finish {} < compute lb {}",
                sim.devices[d].finish,
                lb
            );
        }
        prop_assert!(sim.makespan >= 0.0);
    }

    /// Doubling every link bandwidth never slows the phase down.
    #[test]
    fn faster_network_never_hurts((lens, bs, n, seed) in arb_case()) {
        let slow = ClusterSpec::p4de(1);
        let mut fast = slow.clone();
        fast.intra_bw *= 2.0;
        fast.inter_bw *= 2.0;
        let (_, _, plan) = build_case(&lens, bs, n, seed);
        let t_slow = simulate(&slow, &plan.fwd, &FaultSpec::none()).unwrap().sim.makespan;
        let t_fast = simulate(&fast, &plan.fwd, &FaultSpec::none()).unwrap().sim.makespan;
        prop_assert!(t_fast <= t_slow * 1.0001, "fast {t_fast} > slow {t_slow}");
    }

    /// Simulation is deterministic.
    #[test]
    fn simulation_is_deterministic((lens, bs, n, seed) in arb_case()) {
        let cluster = ClusterSpec::p4de(1);
        let (_, _, plan) = build_case(&lens, bs, n, seed);
        let a = simulate(&cluster, &plan.fwd, &FaultSpec::none()).unwrap().sim;
        let b = simulate(&cluster, &plan.fwd, &FaultSpec::none()).unwrap().sim;
        prop_assert_eq!(a, b);
    }

    /// Overlap accounting is consistent: overlapped communication never
    /// exceeds either total comm activity or total compute on a device,
    /// and exposed waits are non-negative.
    #[test]
    fn overlap_accounting_consistent((lens, bs, n, seed) in arb_case()) {
        let cluster = ClusterSpec::p4de(1);
        let (_, _, plan) = build_case(&lens, bs, n, seed);
        let sim = simulate(&cluster, &plan.fwd, &FaultSpec::none()).unwrap().sim;
        for d in &sim.devices {
            prop_assert!(d.exposed_wait >= 0.0);
            prop_assert!(d.overlap <= d.comm_active + 1e-9);
            prop_assert!(d.overlap <= d.compute() + 1e-9);
            prop_assert!(d.finish <= sim.makespan + 1e-12);
        }
    }
}

/// Randomized flow arrivals (departures happen as flows drain), over one of
/// the fabric topologies. About half the gaps are zero, so flows arrive in
/// bursts at one instant; about one flow in six is empty; and up to 95
/// flows make runs long enough that the engine compacts its finished
/// entries many times.
fn arb_flows() -> impl Strategy<Value = (usize, Vec<(f64, u32, u32, u64)>)> {
    (
        0usize..4,
        prop::collection::vec(
            (
                (0u64..4_000).prop_map(|g| g.saturating_sub(2_000)),
                0u32..16,
                0u32..16,
                (0u64..4_800_000).prop_map(|b| b.saturating_sub(800_000)),
            ),
            1..96,
        ),
    )
        .prop_map(|(topo, raw)| {
            let mut t = 0.0f64;
            let flows = raw
                .into_iter()
                .filter(|(_, s, d, _)| s != d)
                .map(|(gap_us, s, d, b)| {
                    t += gap_us as f64 * 1e-6;
                    (t, s, d, b)
                })
                .collect();
            (topo, flows)
        })
}

/// Bursts of 1, 2 or 3 MB flows at three instants on the rail-optimized
/// fabric, where every device has a rail of its own: bottlenecks of exactly
/// equal share are the rule, so the water-fill's tie order shows in the
/// rates.
fn arb_tied_flows() -> impl Strategy<Value = Vec<(f64, u32, u32, u64)>> {
    prop::collection::vec((0u64..3, 0u32..16, 0u32..16, 1u64..4), 64..128).prop_map(|mut raw| {
        raw.sort_by_key(|f| f.0);
        raw.into_iter()
            .filter(|(_, s, d, _)| s != d)
            .map(|(t, s, d, mb)| (t as f64 * 1e-3, s, d, mb * 1_000_000))
            .collect()
    })
}

fn topology(idx: usize) -> ClusterSpec {
    match idx {
        0 => ClusterSpec::p4de(2),
        1 => ClusterSpec::p4de_rail(2),
        2 => ClusterSpec::p4de_spine(4, 2, 4.0),
        // No latency anywhere: `add_flow` activates every flow at once.
        _ => {
            let mut c = ClusterSpec::p4de_spine(4, 2, 4.0);
            (c.intra_latency, c.inter_latency) = (0.0, 0.0);
            for tier in c.topology.iter_mut().flat_map(|t| &mut t.tiers) {
                tier.latency = 0.0;
            }
            c
        }
    }
}

/// Drives one engine through the arrival sequence, stepping strictly through
/// `next_event`, and returns the event times plus the allocated rate of
/// every live flow observed after each arrival and each event.
fn drive(
    cluster: &ClusterSpec,
    flows: &[(f64, u32, u32, u64)],
    scratch: bool,
) -> (Vec<f64>, Vec<f64>) {
    use dcp_sim::network::{FlowId, Network};
    let mut net = Network::new(cluster.clone());
    net.use_scratch_engine(scratch);
    let mut events = Vec::new();
    let mut rates = Vec::new();
    let mut n_flows = 0usize;
    let observe = |net: &Network, n: usize, rates: &mut Vec<f64>| {
        for i in 0..n {
            rates.push(net.rate(FlowId(i)));
        }
    };
    for &(t, src, dst, bytes) in flows {
        while let Some(e) = net.next_event() {
            if e >= t {
                break;
            }
            net.advance_to(e);
            events.push(e);
            observe(&net, n_flows, &mut rates);
        }
        net.add_flow(t, src, dst, bytes);
        n_flows += 1;
        observe(&net, n_flows, &mut rates);
    }
    while let Some(e) = net.next_event() {
        net.advance_to(e);
        events.push(e);
        observe(&net, n_flows, &mut rates);
    }
    (events, rates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incremental dirty-component allocator reproduces the retained
    /// scratch water-fill reference on arbitrary arrival/departure
    /// sequences: same event count, same event times and same per-flow
    /// rates to fp tolerance (the two engines break exact max-min ties in
    /// different orders, which moves an ulp) — and the incremental
    /// engine itself is exactly deterministic run-to-run. The CI thread
    /// matrix re-runs this at `RAYON_NUM_THREADS` 1/2/8; the engine is
    /// single-threaded so the pin must hold bitwise across legs.
    #[test]
    fn incremental_allocator_matches_scratch_reference(
        (topo, flows) in arb_flows()
    ) {
        let cluster = topology(topo);
        let (inc_ev, inc_rates) = drive(&cluster, &flows, false);
        let (scr_ev, scr_rates) = drive(&cluster, &flows, true);
        prop_assert_eq!(inc_ev.len(), scr_ev.len(), "event counts diverged");
        for (i, (a, b)) in inc_ev.iter().zip(&scr_ev).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1e-9),
                "event {i}: incremental {a} vs scratch {b}"
            );
        }
        prop_assert_eq!(inc_rates.len(), scr_rates.len());
        for (i, (a, b)) in inc_rates.iter().zip(&scr_rates).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                "rate sample {i}: incremental {a} vs scratch {b}"
            );
        }
        let (again_ev, again_rates) = drive(&cluster, &flows, false);
        prop_assert_eq!(inc_ev, again_ev);
        prop_assert_eq!(inc_rates, again_rates);
    }

    /// The scratch engine is deterministic too: between bottlenecks of
    /// equal share it freezes the smaller resource first, never in hash-map
    /// order, so two runs of one flow program agree bit for bit.
    #[test]
    fn scratch_engine_is_deterministic(
        (topo, flows) in arb_flows(),
        tied in arb_tied_flows(),
    ) {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
        for (cluster, flows) in [(topology(topo), flows), (topology(1), tied)] {
            let (ev, rates) = drive(&cluster, &flows, true);
            let (again_ev, again_rates) = drive(&cluster, &flows, true);
            prop_assert_eq!(bits(ev), bits(again_ev));
            prop_assert_eq!(bits(rates), bits(again_rates));
        }
    }
}
