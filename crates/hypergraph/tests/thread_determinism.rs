//! Thread-count determinism regression: the partitioner is required to
//! produce *bitwise identical* partitions at every `RAYON_NUM_THREADS`, and
//! the same partition every time it is run with one seed. The partitioner is
//! serial today (matching proposals are rated against an immutable snapshot
//! and committed in a fixed order, with no fan-out), so this guards the
//! contract for whoever re-introduces parallelism under ROADMAP 1(a): the
//! thread count must never leak into the result.
//!
//! Everything lives in a single `#[test]` in its own integration-test
//! binary because `RAYON_NUM_THREADS` is process-global state.

use dcp_hypergraph::{partition, HypergraphBuilder, PartitionConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A hypergraph large enough to force several coarsening levels (and thus
/// several matching waves per level): clustered 2-pin ring edges plus random
/// many-pin hyperedges, planner-like weights.
fn large_hypergraph(n: usize, seed: u64) -> dcp_hypergraph::Hypergraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = HypergraphBuilder::new(n);
    for v in 0..n {
        b.set_vertex_weight(v, [rng.gen_range(1..16), rng.gen_range(1..16)]);
    }
    for v in 0..n as u32 {
        b.add_edge(rng.gen_range(1..32), &[v, (v + 1) % n as u32]);
    }
    for _ in 0..n / 2 {
        let deg = rng.gen_range(3..12);
        let pins: Vec<u32> = (0..deg).map(|_| rng.gen_range(0..n) as u32).collect();
        b.add_edge(rng.gen_range(1..64), &pins);
    }
    b.build().unwrap()
}

/// A labelled row/column grid shaped like the planner's placement graph of
/// one causal document: `n` token vertices, a computation vertex per
/// `(q, kv <= q)` block pair labelled with its 4 x 4 tile, and one Q-row and
/// one KV-column edge per token, so the structural level contracts tiles.
fn labelled_grid(n: u32) -> dcp_hypergraph::Hypergraph {
    let cells: Vec<(u32, u32)> = (0..n).flat_map(|q| (0..=q).map(move |k| (q, k))).collect();
    let mut b = HypergraphBuilder::new(n as usize + cells.len());
    let mut rows: Vec<Vec<u32>> = (0..n).map(|q| vec![q]).collect();
    let mut cols = rows.clone();
    for (i, &(q, k)) in cells.iter().enumerate() {
        let v = n + i as u32;
        b.set_vertex_weight(v as usize, [if q == k { 2 } else { 4 }, 0]);
        b.set_label(v as usize, (q / 4) * n.div_ceil(4) + k / 4);
        rows[q as usize].push(v);
        cols[k as usize].push(v);
    }
    for t in 0..n as usize {
        b.set_vertex_weight(t, [0, 16]);
        b.add_edge(3, &rows[t]);
        b.add_edge(2, &cols[t]);
    }
    b.build().unwrap()
}

#[test]
fn partitioner_is_bitwise_deterministic_across_thread_counts() {
    let (large, grid) = (large_hypergraph(3000, 7), labelled_grid(96));
    for (hg, k) in [(&large, 2u32), (&large, 16), (&grid, 8)] {
        let cfg = PartitionConfig::new(k).with_seed(7);
        let mut runs = Vec::new();
        for threads in ["1", "2", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            runs.push((threads, partition(hg, &cfg).unwrap()));
        }
        std::env::remove_var("RAYON_NUM_THREADS");
        let (_, first) = &runs[0];
        for (threads, part) in &runs[1..] {
            assert_eq!(
                part.assignment, first.assignment,
                "k={k}: partition differs between 1 and {threads} threads"
            );
            assert_eq!(part.cost, first.cost, "k={k}: cost differs at {threads}");
        }
    }
}
