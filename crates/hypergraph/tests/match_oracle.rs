//! `coarsen::match_level` against the matching it replaced.
//!
//! [`oracle`] is the previous `propose` + `match_level`, frozen: every
//! proposal re-scans every pin of every incident edge, rates into a dense
//! array and picks the best in a second pass over a touch list. Kept
//! verbatim except that the proposal fan-out (`par_chunks` over the vendored
//! rayon, whose chunking never reached the result) is a plain `chunks`, and
//! that it stops at the fine → coarse map instead of contracting. The
//! matching in the crate must produce the same map — and so the same coarse
//! hypergraph — and leave the RNG in the same state, on any input.

use dcp_hypergraph::coarsen::{contract, match_level};
use dcp_hypergraph::{Hypergraph, HypergraphBuilder, PartitionWork, VertexWeight};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod oracle {
    use dcp_hypergraph::{Hypergraph, VertexWeight};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;

    const MAX_RATED_EDGE: usize = 512;
    const MAX_MATCH_ROUNDS: usize = 8;

    struct RatingScratch {
        rating: Vec<f64>,
        touched: Vec<u32>,
    }

    impl RatingScratch {
        fn new(n: usize) -> Self {
            RatingScratch {
                rating: vec![0.0; n],
                touched: Vec::new(),
            }
        }
    }

    fn propose(
        hg: &Hypergraph,
        v: u32,
        max_cluster: VertexWeight,
        mate: &[u32],
        parts: Option<&[u32]>,
        scratch: &mut RatingScratch,
    ) -> Option<u32> {
        let vw = hg.vertex_weight(v);
        scratch.touched.clear();
        for &e in hg.incident_edges(v) {
            let pins = hg.pins(e);
            if pins.len() < 2 || pins.len() > MAX_RATED_EDGE {
                continue;
            }
            let score = hg.edge_weight(e) as f64 / (pins.len() - 1) as f64;
            for &u in pins {
                if u == v || mate[u as usize] != u32::MAX {
                    continue;
                }
                if let Some(parts) = parts {
                    if parts[u as usize] != parts[v as usize] {
                        continue;
                    }
                }
                if scratch.rating[u as usize] == 0.0 {
                    scratch.touched.push(u);
                }
                scratch.rating[u as usize] += score;
            }
        }
        let mut best: Option<(u32, f64)> = None;
        for &u in &scratch.touched {
            let r = scratch.rating[u as usize];
            scratch.rating[u as usize] = 0.0;
            let uw = hg.vertex_weight(u);
            let fits = vw[0] + uw[0] <= max_cluster[0] && vw[1] + uw[1] <= max_cluster[1];
            if !fits {
                continue;
            }
            let better = match best {
                None => true,
                Some((bu, br)) => r > br || (r == br && u < bu),
            };
            if better {
                best = Some((u, r));
            }
        }
        best.map(|(u, _)| u)
    }

    /// The fine → coarse map and coarse vertex count of one level, or
    /// `None` where the matching reduced the vertex count by under ~5 %.
    pub fn match_level(
        hg: &Hypergraph,
        max_cluster: VertexWeight,
        rng: &mut SmallRng,
        parts: Option<&[u32]>,
    ) -> Option<(Vec<u32>, u32)> {
        let n = hg.num_vertices();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);

        let mut mate = vec![u32::MAX; n];
        let wave_size = n.div_ceil(8).max(256);
        let mut queue: Vec<u32> = order;
        for _ in 0..MAX_MATCH_ROUNDS {
            let mut retry: Vec<u32> = Vec::new();
            let mut committed = 0usize;
            let nt = 1;
            for wave in queue.chunks(wave_size) {
                let chunk = wave.len().div_ceil(4 * nt).max(64);
                let proposals: Vec<Vec<(u32, u32)>> = wave
                    .chunks(chunk)
                    .map(|vs| {
                        let mut scratch = RatingScratch::new(n);
                        vs.iter()
                            .filter_map(|&v| {
                                if mate[v as usize] != u32::MAX {
                                    return None;
                                }
                                propose(hg, v, max_cluster, &mate, parts, &mut scratch)
                                    .map(|u| (v, u))
                            })
                            .collect()
                    })
                    .collect();
                for (v, u) in proposals.into_iter().flatten() {
                    if mate[v as usize] != u32::MAX {
                        continue;
                    }
                    if mate[u as usize] != u32::MAX {
                        retry.push(v);
                        continue;
                    }
                    mate[v as usize] = u;
                    mate[u as usize] = v;
                    committed += 1;
                }
            }
            if committed == 0 || retry.is_empty() {
                break;
            }
            queue = retry;
        }

        let mut fine_to_coarse = vec![u32::MAX; n];
        let mut nc = 0u32;
        for v in 0..n as u32 {
            if fine_to_coarse[v as usize] != u32::MAX {
                continue;
            }
            fine_to_coarse[v as usize] = nc;
            let m = mate[v as usize];
            if m != u32::MAX {
                fine_to_coarse[m as usize] = nc;
            }
            nc += 1;
        }
        if (nc as usize) as f64 > 0.95 * n as f64 {
            return None;
        }
        Some((fine_to_coarse, nc))
    }
}

/// A random hypergraph with the edge kinds the matching treats apart:
/// mostly small edges, some of weight zero (score 0: candidates that rate
/// exactly 0.0), and `big` edges over `MAX_RATED_EDGE` pins, which are never
/// rated. Returns it with the heaviest vertex weight per dimension.
fn random_hypergraph(n: usize, ne: usize, big: usize, seed: u64) -> (Hypergraph, VertexWeight) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = HypergraphBuilder::new(n);
    let mut heaviest = [0u64; 2];
    for v in 0..n {
        let w = [rng.gen_range(0..6), rng.gen_range(0..6)];
        heaviest = [heaviest[0].max(w[0]), heaviest[1].max(w[1])];
        b.set_vertex_weight(v, w);
    }
    for _ in 0..ne {
        let deg = match rng.gen_range(0..10) {
            0 => rng.gen_range(1..3),
            1 => rng.gen_range(20..60usize).min(n),
            _ => rng.gen_range(2..7),
        };
        let pins: Vec<u32> = (0..deg).map(|_| rng.gen_range(0..n) as u32).collect();
        let w = if rng.gen_range(0..5) == 0 {
            0
        } else {
            rng.gen_range(1..9)
        };
        b.add_edge(w, &pins);
    }
    for _ in 0..big {
        // 700 draws leave well over 512 distinct pins when n allows it,
        // and an edge at or under the limit otherwise.
        let pins: Vec<u32> = (0..700).map(|_| rng.gen_range(0..n) as u32).collect();
        b.add_edge(rng.gen_range(1..9), &pins);
    }
    (b.build().unwrap(), heaviest)
}

fn assert_same_graph(a: &Hypergraph, b: &Hypergraph) {
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_edges(), b.num_edges());
    for v in 0..a.num_vertices() as u32 {
        assert_eq!(a.vertex_weight(v), b.vertex_weight(v), "vertex {v}");
        assert_eq!(a.incident_edges(v), b.incident_edges(v), "vertex {v}");
    }
    for e in 0..a.num_edges() as u32 {
        assert_eq!(a.edge_weight(e), b.edge_weight(e), "edge {e}");
        assert_eq!(a.pins(e), b.pins(e), "edge {e}");
    }
}

/// One level through both matchings from the same RNG state; returns the
/// coarse hypergraph, if the matching had not converged, and the work count.
fn check_level(
    hg: &Hypergraph,
    max_cluster: VertexWeight,
    parts: Option<&[u32]>,
    seed: u64,
) -> (Option<Hypergraph>, PartitionWork) {
    let mut rng_new = SmallRng::seed_from_u64(seed);
    let mut rng_old = SmallRng::seed_from_u64(seed);
    let mut work = PartitionWork::default();
    let new = match_level(hg, max_cluster, &mut rng_new, parts, &mut work);
    let old = oracle::match_level(hg, max_cluster, &mut rng_old, parts);
    assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>(), "rng state");
    let coarse = match (new, old) {
        (None, None) => None,
        (Some(level), Some((fine_to_coarse, nc))) => {
            assert_eq!(level.fine_to_coarse, fine_to_coarse);
            assert_same_graph(&level.coarse, &contract(hg, &fine_to_coarse, nc));
            Some(level.coarse)
        }
        (new, old) => panic!(
            "converged differently: new {:?}, oracle {:?}",
            new.map(|l| l.coarse.num_vertices()),
            old.map(|(_, nc)| nc)
        ),
    };
    (coarse, work)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same map, same coarse graph, same RNG state: with and without
    /// `parts`, with a cluster cap anywhere from "forbids nearly every
    /// merge" to "never binds", and with `n` under the 256-vertex wave floor
    /// (one wave), between it and 2048 (several waves of 256) and above
    /// (eight waves of `n / 8`).
    #[test]
    fn match_level_equals_the_frozen_oracle(
        n in prop_oneof![2usize..256, 257usize..2048, 2049usize..3200],
        density in 1usize..4,
        big in 0usize..3,
        cap in 0u64..5,
        k in 0u32..4,
        seed in 0u64..1_000_000,
    ) {
        let (hg, heaviest) = random_hypergraph(n, n * density / 2 + 1, big, seed);
        // cap 0: only a pair of the lightest vertices fits; 4: any pair.
        let max_cluster = match cap {
            0 => [1, 1],
            1 => [heaviest[0], heaviest[1]],
            2 => [heaviest[0] + 2, heaviest[1] + 2],
            3 => [2 * heaviest[0], 1_000],
            _ => [1_000, 1_000],
        };
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9a27);
        let parts: Option<Vec<u32>> =
            (k > 0).then(|| (0..n).map(|_| rng.gen_range(0..k + 1)).collect());
        let (_, work) = check_level(&hg, max_cluster, parts.as_deref(), seed);
        prop_assert_eq!(work.match_levels, 1);
        prop_assert!(work.match_rounds >= 1 && work.match_rounds <= 8);
    }
}

/// The planner's shape: few large edges, every vertex in two of them.
#[test]
fn grid_of_row_and_column_edges() {
    for (rows, cols) in [(40usize, 40usize), (129, 40), (30, 600)] {
        let n = rows * cols;
        let mut b = HypergraphBuilder::new(n);
        for v in 0..n {
            b.set_vertex_weight(v, [1 + (v % 3) as u64, 1]);
        }
        for r in 0..rows {
            let pins: Vec<u32> = (0..cols).map(|c| (r * cols + c) as u32).collect();
            b.add_edge(1024 + r as u64, &pins);
        }
        for c in 0..cols {
            let pins: Vec<u32> = (0..rows).map(|r| (r * cols + c) as u32).collect();
            b.add_edge(2048, &pins);
        }
        let hg = b.build().unwrap();
        let cap = n as u64 / 16;
        // Level by level to the bottom, re-checking the oracle at each.
        let mut cur = hg;
        for step in 0..12 {
            let (Some(coarse), _) = check_level(&cur, [cap, cap], None, 7 + step) else {
                break;
            };
            cur = coarse;
        }
    }
}
