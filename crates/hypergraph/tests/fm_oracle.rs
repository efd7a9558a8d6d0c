//! Gain-cache FM against the FM it replaced.
//!
//! [`oracle`] is the original lazily-revalidated `BinaryHeap` refinement,
//! frozen: every popped vertex's best move is recomputed from the `lambda`
//! table (`O(deg · k)` per pop) and entries for locked and moved vertices
//! stay in the heap until popped. Kept verbatim except for `crate::` paths,
//! which name the public `dcp_hypergraph` items instead, for the balance
//! cap (one `VertexWeight` for every part, as the library takes it), and for
//! `RefineState::best_move` (now a function, reading `k` off `loads`), which
//! only this implementation used and which moved here with it, beside copies
//! of its two helpers and of the stall limit. Nothing in the library may
//! call it. The two are held to the same solution quality, not to the same
//! moves.

use dcp_hypergraph::refine::refine;
use dcp_hypergraph::{Hypergraph, HypergraphBuilder, PartitionWork};
use rand::rngs::SmallRng;
use rand::SeedableRng;

mod oracle {
    use std::collections::BinaryHeap;

    use rand::rngs::SmallRng;
    use rand::Rng;

    use dcp_hypergraph::refine::RefineState;
    use dcp_hypergraph::{Hypergraph, VertexWeight};

    const STALL_LIMIT: usize = 48;

    fn admissible(l: VertexWeight, w: VertexWeight, cap: VertexWeight) -> bool {
        (0..2).all(|d| w[d] == 0 || l[d] + w[d] <= cap[d])
    }

    fn norm_load(total: VertexWeight, w: VertexWeight) -> f64 {
        let a = if total[0] > 0 {
            w[0] as f64 / total[0] as f64
        } else {
            0.0
        };
        let b = if total[1] > 0 {
            w[1] as f64 / total[1] as f64
        } else {
            0.0
        };
        a.max(b)
    }

    /// Best feasible move for `v`: `(to, gain)` maximizing gain, tie-broken
    /// toward the lighter destination. `None` when no destination fits.
    fn best_move(
        state: &RefineState,
        hg: &Hypergraph,
        v: u32,
        from: u32,
        cap: VertexWeight,
        total: VertexWeight,
    ) -> Option<(u32, i64)> {
        let w = hg.vertex_weight(v);
        let mut best: Option<(u32, i64, f64)> = None;
        for to in 0..state.loads.len() as u32 {
            if to == from {
                continue;
            }
            let l = state.loads[to as usize];
            if !admissible(l, w, cap) {
                continue;
            }
            let g = state.gain(hg, v, from, to);
            let load_after = norm_load(total, [l[0] + w[0], l[1] + w[1]]);
            let better = match best {
                None => true,
                Some((_, bg, bl)) => g > bg || (g == bg && load_after < bl),
            };
            if better {
                best = Some((to, g, load_after));
            }
        }
        best.map(|(to, g, _)| (to, g))
    }

    /// A heap entry: cached best move of a vertex. Lazily revalidated on
    /// pop — entries for locked or already-moved vertices stay in the heap
    /// and are filtered out only when popped (the heap-churn bug class the
    /// gain cache eliminates).
    #[derive(PartialEq, Eq)]
    struct Entry {
        gain: i64,
        v: u32,
        to: u32,
        /// Random tiebreaker so equal-gain pops are not index-ordered.
        salt: u32,
    }

    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.gain, self.salt, self.v, self.to)
                .cmp(&(other.gain, other.salt, other.v, other.to))
        }
    }

    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    /// One FM pass. Returns `true` if the pass improved the cost.
    fn fm_pass(
        hg: &Hypergraph,
        assignment: &mut [u32],
        state: &mut RefineState,
        cap: VertexWeight,
        rng: &mut SmallRng,
    ) -> bool {
        let n = hg.num_vertices();
        let total = hg.total_weight();
        let mut locked = vec![false; n];
        let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
        for v in 0..n as u32 {
            if !state.is_boundary(hg, v) {
                continue;
            }
            if let Some((to, gain)) = best_move(state, hg, v, assignment[v as usize], cap, total) {
                heap.push(Entry {
                    gain,
                    v,
                    to,
                    salt: rng.gen(),
                });
            }
        }

        let start_cost = state.cost;
        let mut best_cost = state.cost;
        let mut moves: Vec<(u32, u32)> = Vec::new(); // (vertex, previous part)
        let mut best_len = 0usize;
        let mut stall = 0usize;

        while let Some(Entry { gain, v, to, .. }) = heap.pop() {
            if locked[v as usize] {
                continue;
            }
            let from = assignment[v as usize];
            // Revalidate lazily: the cached move may be stale.
            match best_move(state, hg, v, from, cap, total) {
                Some((to2, g2)) => {
                    if to2 != to || g2 != gain {
                        heap.push(Entry {
                            gain: g2,
                            v,
                            to: to2,
                            salt: rng.gen(),
                        });
                        continue;
                    }
                }
                None => continue,
            }
            state.apply(hg, v, from, to);
            assignment[v as usize] = to;
            locked[v as usize] = true;
            moves.push((v, from));
            if state.cost < best_cost {
                best_cost = state.cost;
                best_len = moves.len();
                stall = 0;
            } else {
                stall += 1;
                if stall > STALL_LIMIT {
                    break;
                }
            }
            // Refresh neighbors whose gains may have changed.
            for &e in hg.incident_edges(v) {
                for &u in hg.pins(e) {
                    if locked[u as usize] || u == v {
                        continue;
                    }
                    if let Some((uto, ug)) =
                        best_move(state, hg, u, assignment[u as usize], cap, total)
                    {
                        heap.push(Entry {
                            gain: ug,
                            v: u,
                            to: uto,
                            salt: rng.gen(),
                        });
                    }
                }
            }
        }

        // Roll back past the best prefix.
        while moves.len() > best_len {
            let (v, prev) = moves.pop().unwrap();
            let cur = assignment[v as usize];
            state.apply(hg, v, cur, prev);
            assignment[v as usize] = prev;
        }
        debug_assert_eq!(state.cost, best_cost);
        best_cost < start_cost
    }

    /// Runs up to `passes` FM passes over `assignment` in place, using the
    /// original lazy-heap implementation. Returns the resulting
    /// connectivity cost.
    pub fn refine(
        hg: &Hypergraph,
        assignment: &mut [u32],
        k: u32,
        cap: VertexWeight,
        passes: u32,
        rng: &mut SmallRng,
    ) -> u64 {
        let mut state = RefineState::new(hg, assignment, k);
        for _ in 0..passes {
            if !fm_pass(hg, assignment, &mut state, cap, rng) {
                break;
            }
        }
        state.cost
    }
}

/// Two 12-vertex clusters held together by weight-10 intra-cluster ring
/// edges, joined by two weight-1 bridges. Optimum: one cluster per part,
/// cost 2.
fn planted_two_clusters() -> Hypergraph {
    let mut b = HypergraphBuilder::new(24);
    for v in 0..24 {
        b.set_vertex_weight(v, [1, 1]);
    }
    for c in 0..2u32 {
        let base = c * 12;
        for i in 0..12u32 {
            b.add_edge(10, &[base + i, base + (i + 1) % 12]);
        }
    }
    b.add_edge(1, &[0, 12]);
    b.add_edge(1, &[6, 18]);
    b.build().unwrap()
}

#[test]
fn gain_cache_refine_matches_reference_quality() {
    // Refinement's job in the multilevel pipeline is local cleanup of a
    // projected coarse solution, not global repair — so the parity check
    // starts both implementations from a mildly perturbed optimum. (From
    // adversarial starts, e.g. fully alternating, flat FM of either flavor
    // gets stuck in zero-gain plateaus and the outcome is move-order luck.)
    // Both must restore the optimum: cluster per part, only the two bridges
    // cut, cost 2.
    for seed in [1u64, 7, 23] {
        let hg = planted_two_clusters();
        let mut base: Vec<u32> = (0..24).map(|v| (v / 12) as u32).collect();
        for v in [0usize, 1, 12, 13] {
            base[v] = 1 - base[v];
        }
        let mut a = base.clone();
        let mut b = base.clone();
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut rng_b = SmallRng::seed_from_u64(seed);
        let cap = [14, 14];
        let cost_new = refine(
            &hg,
            &mut a,
            2,
            cap,
            16,
            &mut rng_a,
            &mut PartitionWork::default(),
        );
        let cost_ref = oracle::refine(&hg, &mut b, 2, cap, 16, &mut rng_b);
        assert_eq!(cost_new, 2, "seed {seed}");
        assert_eq!(cost_ref, 2, "seed {seed}");
    }
}
