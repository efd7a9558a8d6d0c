//! Initial partitioning of the coarsest hypergraph.
//!
//! Runs a small portfolio of greedy strategies and keeps the best result by
//! (balance-feasibility, connectivity cost). Each strategy assigns vertices
//! one at a time to the part that minimizes the *connectivity delta* — the
//! increase of the connectivity−1 metric over already-assigned pins — among
//! parts with room under the balance caps.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::{Hypergraph, VertexWeight};

/// How a strategy orders vertices for greedy assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Heaviest (normalized) vertices first — packs well.
    WeightDescending,
    /// Random order.
    Random,
}

/// Greedily assigns all vertices of `hg` to `k` parts.
///
/// Returns the assignment. Vertices that fit nowhere under `cap` are placed
/// on the least-loaded part (the refinement stage repairs the balance).
fn greedy(
    hg: &Hypergraph,
    k: u32,
    cap: VertexWeight,
    order: Order,
    rng: &mut SmallRng,
) -> Vec<u32> {
    let n = hg.num_vertices();
    let total = hg.total_weight();
    let norm = |w: VertexWeight| -> f64 {
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
        a + b
    };

    let mut verts: Vec<u32> = (0..n as u32).collect();
    match order {
        Order::WeightDescending => {
            verts.sort_by(|&a, &b| {
                norm(hg.vertex_weight(b))
                    .partial_cmp(&norm(hg.vertex_weight(a)))
                    .unwrap()
            });
        }
        Order::Random => verts.shuffle(rng),
    }

    let mut assignment = vec![u32::MAX; n];
    let mut loads = vec![[0u64; 2]; k as usize];
    // lambda[e * k + p]: number of assigned pins of edge e in part p.
    let mut lambda = vec![0u32; hg.num_edges() * k as usize];
    // assigned_pins[e]: number of assigned pins of edge e.
    let mut assigned_pins = vec![0u32; hg.num_edges()];
    // Connectivity delta of putting the current vertex into part p, for all
    // p at once.
    let mut delta = vec![0u64; k as usize];

    for &v in &verts {
        let w = hg.vertex_weight(v);
        delta.fill(0);
        for &e in hg.incident_edges(v) {
            if assigned_pins[e as usize] == 0 {
                continue;
            }
            let we = hg.edge_weight(e);
            let base = e as usize * k as usize;
            for p in 0..k as usize {
                if lambda[base + p] == 0 {
                    delta[p] += we;
                }
            }
        }
        let mut best: Option<(u32, u64, f64)> = None; // (part, delta, load)
        for p in 0..k {
            let l = loads[p as usize];
            let fits = l[0] + w[0] <= cap[0] && l[1] + w[1] <= cap[1];
            if !fits {
                continue;
            }
            // The load breaks ties only: it is computed (two divisions)
            // where the delta does not decide.
            let d = delta[p as usize];
            let better = match best {
                None => true,
                Some((_, bd, bl)) => d < bd || (d == bd && norm(l) < bl),
            };
            if better {
                best = Some((p, d, norm(l)));
            }
        }
        let part = match best {
            Some((p, _, _)) => p,
            None => {
                // Nothing fits: least-loaded part (normalized), repaired later.
                (0..k)
                    .min_by(|&a, &b| {
                        norm(loads[a as usize])
                            .partial_cmp(&norm(loads[b as usize]))
                            .unwrap()
                    })
                    .unwrap()
            }
        };
        assignment[v as usize] = part;
        loads[part as usize][0] += w[0];
        loads[part as usize][1] += w[1];
        for &e in hg.incident_edges(v) {
            let base = e as usize * k as usize;
            lambda[base + part as usize] += 1;
            assigned_pins[e as usize] += 1;
        }
    }
    assignment
}

/// Greedy hypergraph growing (GHG): grows one part at a time from a random
/// seed, always absorbing the unassigned vertex most strongly connected to
/// the growing part, until the part reaches its share of the total weight.
/// Excellent on locally-connected structures (chains, rings, grids) where
/// per-vertex greedy assignment fragments.
fn grow(hg: &Hypergraph, k: u32, cap: VertexWeight, rng: &mut SmallRng) -> Vec<u32> {
    let n = hg.num_vertices();
    let mut assignment = vec![u32::MAX; n];
    let mut unassigned = n;
    // Connection strength of each unassigned vertex to the current part.
    let mut conn = vec![0.0f64; n];

    for p in 0..k {
        if unassigned == 0 {
            break;
        }
        let remaining_parts = (k - p) as u64;
        // Target: fair share of what's left, never above the cap.
        let mut placed = [0u64; 2];
        let mut left = [0u64; 2];
        for (v, &a) in assignment.iter().enumerate() {
            if a == u32::MAX {
                let w = hg.vertex_weight(v as u32);
                left[0] += w[0];
                left[1] += w[1];
            }
        }
        let target = [
            (left[0] / remaining_parts).min(cap[0]),
            (left[1] / remaining_parts).min(cap[1]),
        ];
        conn.iter_mut().for_each(|c| *c = 0.0);
        // Random seed vertex.
        let seed = {
            let start = rng.gen_range(0..n);
            (0..n)
                .map(|i| (start + i) % n)
                .find(|&v| assignment[v] == u32::MAX)
                .expect("an unassigned vertex exists")
        };
        let mut frontier: Vec<u32> = vec![seed as u32];
        loop {
            // Absorb the best frontier vertex (or the seed on iteration 0).
            let pick = frontier
                .iter()
                .copied()
                .filter(|&v| assignment[v as usize] == u32::MAX)
                .max_by(|&a, &b| conn[a as usize].partial_cmp(&conn[b as usize]).unwrap());
            let Some(v) = pick else { break };
            let w = hg.vertex_weight(v);
            assignment[v as usize] = p;
            unassigned -= 1;
            placed[0] += w[0];
            placed[1] += w[1];
            // Expand the frontier through v's edges.
            for &e in hg.incident_edges(v) {
                let pins = hg.pins(e);
                let score = hg.edge_weight(e) as f64 / (pins.len().max(2) - 1) as f64;
                for &u in pins {
                    if assignment[u as usize] == u32::MAX {
                        if conn[u as usize] == 0.0 {
                            frontier.push(u);
                        }
                        conn[u as usize] += score;
                    }
                }
            }
            frontier.retain(|&u| assignment[u as usize] == u32::MAX);
            if unassigned == 0 || (placed[0] >= target[0] && placed[1] >= target[1]) {
                break;
            }
            if frontier.is_empty() {
                // Disconnected: jump to another unassigned vertex.
                if let Some(u) = (0..n as u32).find(|&u| assignment[u as usize] == u32::MAX) {
                    frontier.push(u);
                } else {
                    break;
                }
            }
        }
    }
    // Anything left over goes to the least-loaded part.
    let mut loads = vec![[0u64; 2]; k as usize];
    for v in 0..n {
        if assignment[v] != u32::MAX {
            let w = hg.vertex_weight(v as u32);
            loads[assignment[v] as usize][0] += w[0];
            loads[assignment[v] as usize][1] += w[1];
        }
    }
    for (v, a) in assignment.iter_mut().enumerate() {
        if *a == u32::MAX {
            let w = hg.vertex_weight(v as u32);
            let p = (0..k)
                .min_by_key(|&p| loads[p as usize][0] + loads[p as usize][1])
                .unwrap();
            *a = p;
            loads[p as usize][0] += w[0];
            loads[p as usize][1] += w[1];
        }
    }
    assignment
}

/// Whether `assignment` keeps every part within `cap`.
pub(crate) fn is_balanced(hg: &Hypergraph, assignment: &[u32], k: u32, cap: VertexWeight) -> bool {
    within(&hg.part_weights(assignment, k), cap)
}

/// Whether every load is within `cap` in both dimensions.
pub(crate) fn within(loads: &[VertexWeight], cap: VertexWeight) -> bool {
    loads.iter().all(|w| w[0] <= cap[0] && w[1] <= cap[1])
}

/// Runs the portfolio and returns the best assignment found.
pub(crate) fn initial_partition(
    hg: &Hypergraph,
    k: u32,
    cap: VertexWeight,
    tries: u32,
    rng: &mut SmallRng,
) -> Vec<u32> {
    let mut best: Option<(bool, u64, Vec<u32>)> = None;
    for t in 0..tries.max(2) {
        let a = match t {
            0 => greedy(hg, k, cap, Order::WeightDescending, rng),
            t if t % 2 == 1 => grow(hg, k, cap, rng),
            _ => greedy(hg, k, cap, Order::Random, rng),
        };
        let feasible = is_balanced(hg, &a, k, cap);
        let cost = hg.connectivity_cost(&a, k);
        let better = match &best {
            None => true,
            Some((bf, bc, _)) => {
                (feasible, std::cmp::Reverse(cost)) > (*bf, std::cmp::Reverse(*bc))
            }
        };
        if better {
            best = Some((feasible, cost, a));
        }
        // A couple of extra random restarts cannot hurt; stop early if a
        // perfect (zero-cost, feasible) solution appears.
        if let Some((true, 0, _)) = &best {
            break;
        }
        let _ = rng.gen::<u32>();
    }
    best.expect("at least one try").2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HypergraphBuilder;
    use rand::SeedableRng;

    fn two_cliques() -> Hypergraph {
        let mut b = HypergraphBuilder::new(8);
        for v in 0..8 {
            b.set_vertex_weight(v, [1, 1]);
        }
        b.add_edge(50, &[0, 1, 2, 3]);
        b.add_edge(50, &[4, 5, 6, 7]);
        b.add_edge(1, &[3, 4]);
        b.build().unwrap()
    }

    #[test]
    fn finds_the_obvious_bisection() {
        let hg = two_cliques();
        let mut rng = SmallRng::seed_from_u64(11);
        let a = initial_partition(&hg, 2, [4, 4], 4, &mut rng);
        assert!(is_balanced(&hg, &a, 2, [4, 4]));
        assert_eq!(hg.connectivity_cost(&a, 2), 1);
    }

    #[test]
    fn all_vertices_assigned() {
        let hg = two_cliques();
        let mut rng = SmallRng::seed_from_u64(2);
        let a = initial_partition(&hg, 3, [3, 3], 3, &mut rng);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|&p| p < 3));
    }

    #[test]
    fn overflow_falls_back_to_least_loaded() {
        // Caps too tight for everything: greedy must still assign all.
        let hg = two_cliques();
        let mut rng = SmallRng::seed_from_u64(5);
        let a = initial_partition(&hg, 2, [2, 2], 2, &mut rng);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|&p| p < 2));
    }

    #[test]
    fn respects_two_dimensional_caps() {
        // Vertices heavy in different dims; caps force a split by dim.
        let mut b = HypergraphBuilder::new(4);
        b.set_vertex_weight(0, [10, 0]);
        b.set_vertex_weight(1, [10, 0]);
        b.set_vertex_weight(2, [0, 10]);
        b.set_vertex_weight(3, [0, 10]);
        b.add_edge(1, &[0, 1, 2, 3]);
        let hg = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let a = initial_partition(&hg, 2, [10, 10], 4, &mut rng);
        assert!(is_balanced(&hg, &a, 2, [10, 10]));
        // Each part must hold exactly one compute-heavy and one data-heavy.
        assert_ne!(a[0], a[1]);
        assert_ne!(a[2], a[3]);
    }
}
