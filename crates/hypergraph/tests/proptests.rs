//! Property tests for the partitioner: refinement preserves feasibility,
//! determinism, and the FM gain cache's delta updates staying exact under
//! arbitrary move sequences. (V-cycles never worsening the cost is a unit
//! test in `partitioner.rs`: the V-cycle count is a crate-private knob.)

use dcp_hypergraph::refine::{refine, GainCache, RefineState};
use dcp_hypergraph::{partition, HypergraphBuilder, PartitionConfig, PartitionWork};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_hypergraph(n: usize, ne: usize, seed: u64) -> dcp_hypergraph::Hypergraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = HypergraphBuilder::new(n);
    for v in 0..n {
        b.set_vertex_weight(v, [rng.gen_range(0..8), rng.gen_range(0..8)]);
    }
    for _ in 0..ne {
        let deg = rng.gen_range(2..5.min(n + 1).max(3));
        let pins: Vec<u32> = (0..deg).map(|_| rng.gen_range(0..n) as u32).collect();
        b.add_edge(rng.gen_range(1..16), &pins);
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Starting from a cap-feasible assignment, FM refinement keeps it
    /// cap-feasible and never increases the cost.
    #[test]
    fn refine_preserves_feasibility(
        n in 4usize..80,
        ne in 1usize..120,
        k in 2u32..5,
        seed in 0u64..500,
    ) {
        let hg = random_hypergraph(n, ne, seed);
        // Round-robin start: compute generous caps from it so it is
        // feasible by construction.
        let mut assignment: Vec<u32> = (0..n as u32).map(|v| v % k).collect();
        let pw = hg.part_weights(&assignment, k);
        let caps = [
            pw.iter().map(|w| w[0]).max().unwrap().max(1),
            pw.iter().map(|w| w[1]).max().unwrap().max(1),
        ];
        let before = hg.connectivity_cost(&assignment, k);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xf00d);
        let after = refine(
            &hg,
            &mut assignment,
            k,
            caps,
            6,
            &mut rng,
            &mut PartitionWork::default(),
        );
        prop_assert!(after <= before, "refine worsened: {before} -> {after}");
        prop_assert_eq!(after, hg.connectivity_cost(&assignment, k));
        let pw = hg.part_weights(&assignment, k);
        for w in pw {
            prop_assert!(w[0] <= caps[0] && w[1] <= caps[1], "caps violated");
        }
    }

    /// After an arbitrary random move sequence applied through the gain
    /// cache's delta updates, every cached gain equals a from-scratch
    /// rebuild (`RefineState::new` + `GainCache::new`) — the invariant the
    /// incremental `lambda`-threshold updates must maintain.
    #[test]
    fn delta_gain_updates_match_scratch_rebuild(
        n in 4usize..48,
        ne in 1usize..80,
        k in 2u32..5,
        seed in 0u64..500,
        moves in 1usize..40,
    ) {
        let hg = random_hypergraph(n, ne, seed);
        let mut assignment: Vec<u32> = (0..n as u32).map(|v| v % k).collect();
        let mut state = RefineState::new(&hg, &assignment, k);
        let mut cache = GainCache::new(&hg, &state, &assignment);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xbeef);
        let mut touched = Vec::new();
        for _ in 0..moves {
            let v = rng.gen_range(0..n) as u32;
            let from = assignment[v as usize];
            let to = (from + rng.gen_range(1..k)) % k;
            cache.apply(&hg, &mut state, &mut assignment, v, to, &mut touched);
        }
        let fresh_state = RefineState::new(&hg, &assignment, k);
        let fresh = GainCache::new(&hg, &fresh_state, &assignment);
        for v in 0..n as u32 {
            let from = assignment[v as usize];
            for to in 0..k {
                if to == from {
                    continue;
                }
                prop_assert_eq!(
                    cache.gain(v, to),
                    fresh.gain(v, to),
                    "cached gain drifted for v={} to={}",
                    v,
                    to
                );
                prop_assert_eq!(
                    cache.gain(v, to),
                    fresh_state.gain(&hg, v, from, to),
                    "cache disagrees with direct recomputation for v={} to={}",
                    v,
                    to
                );
            }
        }
        prop_assert_eq!(state.cost, hg.connectivity_cost(&assignment, k));
    }

    /// Partitioning is deterministic for a fixed seed, including V-cycles.
    #[test]
    fn deterministic_with_vcycles(
        n in 8usize..60,
        ne in 4usize..100,
        seed in 0u64..300,
    ) {
        let hg = random_hypergraph(n, ne, seed);
        let cfg = PartitionConfig::new(3).with_seed(42);
        let a = partition(&hg, &cfg).unwrap();
        let b = partition(&hg, &cfg).unwrap();
        prop_assert_eq!(a.assignment, b.assignment);
    }
}
