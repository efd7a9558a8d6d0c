//! Coarsening: a structural first level, heavy-edge matching and hypergraph
//! contraction.
//!
//! **The structural level.** A graph built with cluster labels
//! ([`crate::HypergraphBuilder::set_label`]) states clusters the matcher
//! would otherwise spend rounds finding: the planner labels each computation
//! block with a tile of its document's block grid. Before anything is
//! matched, every group of vertices that share a label — and, in a V-cycle,
//! a part — is contracted into one vertex. A group heavier than the
//! matcher's `max_cluster` in either dimension is left alone: its vertices
//! stay single for the matcher. The level is built only when it shrinks the
//! graph by at least 5 %, the matcher's own convergence test, and it draws
//! nothing from the RNG and counts no matching work, so a graph whose labels
//! are all distinct coarsens exactly as an unlabelled one. Contraction drops
//! the labels: every later level is matched.
//!
//! **Matching.** Each level matches pairs of vertices that share heavy
//! edges (rating `sum_e w_e / (|e| - 1)`, the classic heavy-edge rating for
//! hypergraphs) and contracts matched pairs into single coarse vertices.
//! Contraction dedups pins, drops edges that collapse below two pins, and
//! merges parallel edges (identical pin sets) by summing their weights.
//!
//! Matching runs in waves over a seed-shuffled vertex order: every
//! unmatched vertex of a wave rates its neighbors against the matching as
//! it stood when the wave began, then the wave's proposals are committed in
//! wave order; vertices whose proposal was claimed first re-propose in a
//! later round. A matched vertex never becomes unmatched, so each level
//! keeps, per edge, the list of pins not yet seen matched (`ActivePins`)
//! and a scan drops the matched ones for good: later proposals over the
//! same edge no longer visit them.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

use crate::graph::{Hypergraph, VertexWeight, UNLABELLED};
use crate::partitioner::PartitionWork;

/// One coarsening level: the coarse hypergraph plus the mapping from fine
/// vertices to coarse vertices.
#[derive(Debug)]
pub struct Level {
    /// The coarse hypergraph.
    pub coarse: Hypergraph,
    /// `fine_to_coarse[v]` is the coarse vertex containing fine vertex `v`.
    pub fine_to_coarse: Vec<u32>,
}

/// Skip edges larger than this during match rating: huge edges carry almost
/// no locality signal (`w/(|e|-1)` is tiny) and dominate the runtime.
const MAX_RATED_EDGE: usize = 512;

/// Upper bound on proposal/resolution rounds per matching level. One round
/// leaves vertices unmatched when their proposal was claimed first; later
/// rounds re-propose against the updated matching and recover them. The
/// rounds shrink geometrically, so the bound is rarely reached.
const MAX_MATCH_ROUNDS: usize = 8;

/// One vertex's matching record: its partner, and its rating as a
/// candidate so far in proposal number `turn` of the level (stale
/// otherwise) — a dense per-vertex accumulator that is never swept clean: a
/// vertex can receive hundreds of contributions through large edges, and
/// most vertices none. A scanned pin reads its mate and then its rating,
/// so the two share a record, and a record never straddles a cache line.
#[derive(Clone, Copy)]
#[repr(C, align(16))]
struct Record {
    rating: f64,
    turn: u32,
    /// The vertex's partner, `u32::MAX` while unmatched.
    mate: u32,
}

const UNMATCHED: Record = Record {
    rating: 0.0,
    turn: 0,
    mate: u32::MAX,
};

/// One level's rated edges: for each, its score `w / (|e| - 1)` and the
/// pins not yet seen matched, laid out like the hypergraph's pin array.
/// Edges outside `2..=MAX_RATED_EDGE` pins start with an empty list and are
/// thereby never rated.
///
/// Dropping a matched pin swaps the list's last pin into its place, so the
/// lists lose their order. That is free: a candidate's rating is a sum of
/// edge scores taken in the proposing vertex's incident-edge order, one
/// term per edge, and the best candidate is a maximum under a total order
/// (rating, then smaller vertex id) — neither depends on the order of pins
/// inside an edge.
struct ActivePins<'a> {
    offsets: &'a [u32],
    pins: Vec<u32>,
    len: Vec<u32>,
    score: Vec<f64>,
}

impl<'a> ActivePins<'a> {
    fn new(hg: &'a Hypergraph) -> Self {
        let (offsets, pins) = hg.pin_csr();
        let mut len = vec![0u32; hg.num_edges()];
        let mut score = vec![0.0f64; hg.num_edges()];
        for e in 0..hg.num_edges() {
            let size = (offsets[e + 1] - offsets[e]) as usize;
            if (2..=MAX_RATED_EDGE).contains(&size) {
                len[e] = size as u32;
                score[e] = hg.edge_weight(e as u32) as f64 / (size - 1) as f64;
            }
        }
        ActivePins {
            offsets,
            pins: pins.to_vec(),
            len,
            score,
        }
    }
}

/// One level's matching in progress.
struct Matching<'a> {
    hg: &'a Hypergraph,
    max_cluster: VertexWeight,
    parts: Option<&'a [u32]>,
    records: Vec<Record>,
    active: ActivePins<'a>,
    /// Proposals rated so far (the current one's number while it runs).
    turn: u32,
}

impl Matching<'_> {
    /// `v`'s partner, `u32::MAX` while unmatched.
    #[inline]
    fn mate(&self, v: u32) -> u32 {
        self.records[v as usize].mate
    }

    /// Matches `v` and `u` with each other.
    fn pair(&mut self, v: u32, u: u32) {
        self.records[v as usize].mate = u;
        self.records[u as usize].mate = v;
    }

    /// Best match candidate for `v` against the current `mate`: the
    /// unmatched, weight-compatible neighbor with the highest accumulated
    /// heavy-edge rating, ties broken toward the smaller vertex id.
    ///
    /// The best is tracked while ratings accumulate rather than in a second
    /// pass over the candidates: scores are non-negative, so a candidate's
    /// rating only grows, its final value is the largest it ever showed,
    /// and the maximum over everything shown is the maximum over the final
    /// values.
    fn propose(&mut self, v: u32, work: &mut PartitionWork) -> Option<u32> {
        let (hg, max_cluster) = (self.hg, self.max_cluster);
        work.match_proposals += 1;
        self.turn += 1;
        let turn = self.turn;
        let vw = hg.vertex_weight(v);
        let mut best: Option<(u32, f64)> = None;
        for &e in hg.incident_edges(v) {
            let lo = self.active.offsets[e as usize] as usize;
            let mut len = self.active.len[e as usize] as usize;
            let score = self.active.score[e as usize];
            let pins = &mut self.active.pins[lo..lo + len];
            work.match_pins_scanned += len as u64;
            let mut i = 0;
            while i < len {
                let u = pins[i];
                let slot = &mut self.records[u as usize];
                if slot.mate != u32::MAX {
                    len -= 1;
                    pins[i] = pins[len];
                    continue;
                }
                i += 1;
                if u == v {
                    continue;
                }
                if let Some(parts) = self.parts {
                    if parts[u as usize] != parts[v as usize] {
                        continue;
                    }
                }
                let r = if slot.turn == turn {
                    slot.rating + score
                } else {
                    score
                };
                slot.rating = r;
                slot.turn = turn;
                let better = match best {
                    None => true,
                    Some((bu, br)) => r > br || (r == br && u < bu),
                };
                if better {
                    let uw = hg.vertex_weight(u);
                    if vw[0] + uw[0] <= max_cluster[0] && vw[1] + uw[1] <= max_cluster[1] {
                        best = Some((u, r));
                    }
                }
            }
            self.active.len[e as usize] = len as u32;
        }
        best.map(|(u, _)| u)
    }
}

/// Computes one level of heavy-edge matching.
///
/// `max_cluster` caps the weight of a merged pair per dimension so the
/// coarsest graph stays partitionable. When `parts` is given, only vertices
/// in the same part may match (V-cycle coarsening that respects an existing
/// partition). Returns `None` when matching cannot reduce the vertex count
/// by at least ~5% (coarsening has converged).
pub fn match_level(
    hg: &Hypergraph,
    max_cluster: VertexWeight,
    rng: &mut SmallRng,
    parts: Option<&[u32]>,
    work: &mut PartitionWork,
) -> Option<Level> {
    work.match_levels += 1;
    let n = hg.num_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);

    let mut matching = Matching {
        hg,
        max_cluster,
        parts,
        records: vec![UNMATCHED; n],
        active: ActivePins::new(hg),
        turn: 0,
    };
    // Process the shuffled order in fixed-size waves: a wave's proposals
    // are all rated against the mate state left by earlier waves, then
    // committed in wave order. Seeing earlier waves' matches lets later
    // waves skip matched vertices instead of re-rating the whole graph.
    let wave_size = n.div_ceil(8).max(256);
    let mut queue: Vec<u32> = order;
    let mut proposals: Vec<(u32, u32)> = Vec::new();
    for _ in 0..MAX_MATCH_ROUNDS {
        work.match_rounds += 1;
        // Vertices whose proposal lost the race this round; they re-propose
        // against the updated matching next round. Vertices that proposed
        // nothing are dropped for good (the candidate pool only shrinks).
        let mut retry: Vec<u32> = Vec::new();
        let mut committed = 0usize;
        for wave in queue.chunks(wave_size) {
            proposals.clear();
            for &v in wave {
                if matching.mate(v) != u32::MAX {
                    continue;
                }
                if let Some(u) = matching.propose(v, work) {
                    proposals.push((v, u));
                }
            }
            for &(v, u) in &proposals {
                if matching.mate(v) != u32::MAX {
                    continue;
                }
                if matching.mate(u) != u32::MAX {
                    retry.push(v);
                    continue;
                }
                matching.pair(v, u);
                committed += 1;
            }
        }
        if committed == 0 || retry.is_empty() {
            break;
        }
        queue = retry;
    }
    // Assign coarse ids.
    let mut fine_to_coarse = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n as u32 {
        if fine_to_coarse[v as usize] != u32::MAX {
            continue;
        }
        fine_to_coarse[v as usize] = nc;
        let m = matching.mate(v);
        if m != u32::MAX {
            fine_to_coarse[m as usize] = nc;
        }
        nc += 1;
    }
    contracted(hg, fine_to_coarse, nc)
}

/// The level `fine_to_coarse` describes, or `None` when it would keep more
/// than 95 % of the vertices (coarsening has converged).
fn contracted(hg: &Hypergraph, fine_to_coarse: Vec<u32>, nc: u32) -> Option<Level> {
    if nc as f64 > 0.95 * hg.num_vertices() as f64 {
        return None;
    }
    Some(Level {
        coarse: contract(hg, &fine_to_coarse, nc),
        fine_to_coarse,
    })
}

/// The structural level (module doc): contracts each group of vertices
/// that share a label and, with `parts`, a part, unless the group outweighs
/// `max_cluster`. Coarse ids follow each group's smallest vertex, as
/// [`match_level`]'s follow each pair's. `None` when `hg` has no labels or
/// the level would not shrink it by 5 %.
fn label_level(hg: &Hypergraph, max_cluster: VertexWeight, parts: Option<&[u32]>) -> Option<Level> {
    let labels = hg.labels()?;
    let n = hg.num_vertices();
    // Labelled vertices by (label, part, id), each packed into one integer
    // of that order: each group is a run, led by its smallest vertex.
    let vertex = |x: u128| x as u32;
    let key = |x: u128| x >> 32;
    let mut order: Vec<u128> = (0..n as u32)
        .filter(|&v| labels[v as usize] != UNLABELLED)
        .map(|v| {
            let part = parts.map_or(0, |p| p[v as usize]);
            (u128::from(labels[v as usize]) << 64) | (u128::from(part) << 32) | u128::from(v)
        })
        .collect();
    order.sort_unstable();
    // `lead[v]`: the smallest vertex of `v`'s contracted group, else `v`.
    let mut lead: Vec<u32> = (0..n as u32).collect();
    for group in order.chunk_by(|&a, &b| key(a) == key(b)) {
        let w = group.iter().fold([0u64; 2], |w, &x| {
            let vw = hg.vertex_weight(vertex(x));
            [w[0] + vw[0], w[1] + vw[1]]
        });
        if w[0] <= max_cluster[0] && w[1] <= max_cluster[1] {
            for &x in group {
                lead[vertex(x) as usize] = vertex(group[0]);
            }
        }
    }
    let mut fine_to_coarse = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n {
        let l = lead[v] as usize;
        if l == v {
            fine_to_coarse[v] = nc;
            nc += 1;
        } else {
            fine_to_coarse[v] = fine_to_coarse[l];
        }
    }
    contracted(hg, fine_to_coarse, nc)
}

/// Contracts `hg` according to `fine_to_coarse` (values in `0..nc`). The
/// coarse graph carries no labels.
///
/// Edge merging works on flat pin spans (stage all mapped/deduped pin lists
/// into one array, sort edge indices lexicographically by span, fold equal
/// neighbors) instead of a `HashMap<Vec<u32>, u64>`, so a contraction does a
/// constant number of allocations rather than one per surviving edge. The
/// resulting edge order — pin lists ascending — is identical to the old
/// sorted-map order, keeping coarsening bitwise deterministic.
pub fn contract(hg: &Hypergraph, fine_to_coarse: &[u32], nc: u32) -> Hypergraph {
    let mut vwts = vec![[0u64; 2]; nc as usize];
    for (v, &c) in fine_to_coarse.iter().enumerate().take(hg.num_vertices()) {
        let w = hg.vertex_weight(v as u32);
        vwts[c as usize][0] += w[0];
        vwts[c as usize][1] += w[1];
    }
    // Stage: map pins, dedupe in place, drop degenerate edges.
    let mut pins_flat: Vec<u32> = Vec::with_capacity(hg.num_pins());
    let mut off: Vec<u32> = Vec::with_capacity(hg.num_edges() + 1);
    let mut wts: Vec<u64> = Vec::with_capacity(hg.num_edges());
    off.push(0);
    for e in 0..hg.num_edges() as u32 {
        let start = pins_flat.len();
        pins_flat.extend(hg.pins(e).iter().map(|&p| fine_to_coarse[p as usize]));
        pins_flat[start..].sort_unstable();
        let mut keep = start;
        for i in start..pins_flat.len() {
            let v = pins_flat[i];
            if keep == start || pins_flat[keep - 1] != v {
                pins_flat[keep] = v;
                keep += 1;
            }
        }
        if keep - start < 2 {
            pins_flat.truncate(start);
            continue;
        }
        pins_flat.truncate(keep);
        wts.push(hg.edge_weight(e));
        off.push(pins_flat.len() as u32);
    }
    // Merge parallel edges: sort by span content, fold equal neighbors.
    let span = |i: usize| &pins_flat[off[i] as usize..off[i + 1] as usize];
    let mut order: Vec<u32> = (0..wts.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| span(a as usize).cmp(span(b as usize)));
    let mut ewts: Vec<u64> = Vec::with_capacity(wts.len());
    let mut epin_off: Vec<u32> = Vec::with_capacity(wts.len() + 1);
    let mut epins: Vec<u32> = Vec::with_capacity(pins_flat.len());
    epin_off.push(0);
    for &i in &order {
        let s = span(i as usize);
        let same_as_last = !ewts.is_empty() && {
            let lo = epin_off[epin_off.len() - 2] as usize;
            &epins[lo..] == s
        };
        if same_as_last {
            *ewts.last_mut().expect("nonempty") += wts[i as usize];
        } else {
            epins.extend_from_slice(s);
            epin_off.push(epins.len() as u32);
            ewts.push(wts[i as usize]);
        }
    }
    Hypergraph::from_csr(vwts, ewts, epin_off, epins)
}

/// Coarsens until `target` vertices or convergence; returns the levels from
/// finest to coarsest. A labelled `hg` gets the structural level
/// (`label_level`) first; matching does the rest. With `parts`, only
/// vertices in the same part are merged (the V-cycle variant; the returned
/// levels then preserve the partition under projection).
pub(crate) fn coarsen_to(
    hg: &Hypergraph,
    target: usize,
    max_cluster: VertexWeight,
    rng: &mut SmallRng,
    parts: Option<&[u32]>,
    work: &mut PartitionWork,
) -> Vec<Level> {
    let mut levels: Vec<Level> = Vec::new();
    let mut steps = 0;
    // Project `parts` down level by level as we coarsen.
    let mut cur_parts: Option<Vec<u32>> = parts.map(<[u32]>::to_vec);
    loop {
        let current = levels.last().map_or(hg, |l| &l.coarse);
        if current.num_vertices() <= target || steps > 64 {
            break;
        }
        // Only `hg` itself can carry labels: a contracted graph has none.
        let parts = cur_parts.as_deref();
        let level = label_level(current, max_cluster, parts)
            .or_else(|| match_level(current, max_cluster, rng, parts, work));
        match level {
            Some(level) => {
                if let Some(p) = &cur_parts {
                    let mut coarse_parts = vec![0u32; level.coarse.num_vertices()];
                    for (v, &c) in level.fine_to_coarse.iter().enumerate() {
                        coarse_parts[c as usize] = p[v];
                    }
                    cur_parts = Some(coarse_parts);
                }
                levels.push(level);
            }
            None => break,
        }
        steps += 1;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HypergraphBuilder;
    use crate::partitioner::{partition_with_stats, PartitionConfig};
    use proptest::prelude::*;
    use rand::{Rng, RngCore, SeedableRng};

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new(n);
        for v in 0..n {
            b.set_vertex_weight(v, [1, 1]);
        }
        for v in 0..n - 1 {
            b.add_edge(1, &[v as u32, v as u32 + 1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn matching_halves_a_chain() {
        let hg = chain(64);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut work = PartitionWork::default();
        let level = match_level(&hg, [1000, 1000], &mut rng, None, &mut work).unwrap();
        let nc = level.coarse.num_vertices();
        assert!((32..61).contains(&nc), "nc = {nc}");
        // Weights conserved.
        assert_eq!(level.coarse.total_weight(), hg.total_weight());
        assert_eq!(work.match_levels, 1);
        assert!(work.match_rounds >= 1);
        assert!(work.match_proposals >= 32 && work.match_pins_scanned > 0);
    }

    #[test]
    fn contraction_merges_parallel_edges() {
        // Two vertices joined by two edges; contract the other pair.
        let mut b = HypergraphBuilder::new(4);
        for v in 0..4 {
            b.set_vertex_weight(v, [1, 0]);
        }
        b.add_edge(3, &[0, 1]);
        b.add_edge(5, &[0, 2, 3]); // after contracting 2,3 becomes {0, C}
        b.add_edge(7, &[0, 2]); // also becomes {0, C}
        let hg = b.build().unwrap();
        let coarse = contract(&hg, &[0, 1, 2, 2], 3);
        assert_eq!(coarse.num_vertices(), 3);
        // Edge {0,1} kept, the two {0, C} edges merged into one of weight 12.
        assert_eq!(coarse.num_edges(), 2);
        let total_w: u64 = (0..coarse.num_edges() as u32)
            .map(|e| coarse.edge_weight(e))
            .sum();
        assert_eq!(total_w, 15);
        let has_merged = (0..coarse.num_edges() as u32).any(|e| coarse.edge_weight(e) == 12);
        assert!(has_merged);
    }

    #[test]
    fn contraction_drops_collapsed_edges() {
        let hg = chain(3);
        // Contract all three into one vertex: every edge collapses.
        let coarse = contract(&hg, &[0, 0, 0], 1);
        assert_eq!(coarse.num_edges(), 0);
        assert_eq!(coarse.total_weight(), [3, 3]);
    }

    #[test]
    fn cluster_weight_cap_respected() {
        let hg = chain(16);
        let mut rng = SmallRng::seed_from_u64(7);
        let level = match_level(&hg, [1, 1], &mut rng, None, &mut PartitionWork::default());
        // Cap of 1 per dim forbids every merge (each vertex already weighs 1).
        assert!(level.is_none());
    }

    /// A causal block grid shaped like the planner's: `n` token vertices,
    /// then one computation vertex per `(q, kv <= q)` pair, each token's
    /// Q-row and KV-column edge, and every computation vertex labelled with
    /// its `t x t` tile.
    fn causal_grid(n: u32, t: u32) -> Hypergraph {
        let cells: Vec<(u32, u32)> = (0..n).flat_map(|q| (0..=q).map(move |k| (q, k))).collect();
        let mut b = HypergraphBuilder::new(n as usize + cells.len());
        let cols = n.div_ceil(t);
        for v in 0..n as usize {
            b.set_vertex_weight(v, [0, 8]);
        }
        for (i, &(q, k)) in cells.iter().enumerate() {
            b.set_vertex_weight(n as usize + i, [if q == k { 2 } else { 4 }, 0]);
            b.set_label(n as usize + i, (q / t) * cols + k / t);
        }
        for tb in 0..n {
            for row in [true, false] {
                let mut pins = vec![tb];
                let on = |&(q, k): &(u32, u32)| if row { q == tb } else { k == tb };
                let comp = cells.iter().enumerate().filter(|(_, c)| on(c));
                pins.extend(comp.map(|(i, _)| n + i as u32));
                b.add_edge(if row { 3 } else { 2 }, &pins);
            }
        }
        b.build().unwrap()
    }

    /// `hg` rebuilt from its pins and weights alone.
    fn unlabelled(hg: &Hypergraph) -> Hypergraph {
        let mut b = HypergraphBuilder::new(hg.num_vertices());
        for v in 0..hg.num_vertices() {
            b.set_vertex_weight(v, hg.vertex_weight(v as u32));
        }
        for e in 0..hg.num_edges() as u32 {
            b.add_edge(hg.edge_weight(e), hg.pins(e));
        }
        b.build().unwrap()
    }

    #[test]
    fn a_tiled_grid_contracts_its_tiles_before_matching() {
        let hg = causal_grid(16, 4);
        let mut work = PartitionWork::default();
        let mut rng = SmallRng::seed_from_u64(5);
        let levels = coarsen_to(&hg, 8, [1 << 20; 2], &mut rng, None, &mut work);
        // 16 tokens + 4 * 5 / 2 tiles, and no matching work for it.
        let first = &levels[0];
        assert_eq!(first.coarse.num_vertices(), 16 + 10);
        assert_eq!(first.coarse.labels(), None);
        assert_eq!(work.match_levels as usize, levels.len() - 1);
        // The V-cycle splits a tile by part.
        let parts: Vec<u32> = (0..hg.num_vertices() as u32).map(|v| v % 2).collect();
        let level = label_level(&hg, [1 << 20; 2], Some(&parts)).unwrap();
        assert_eq!(level.coarse.num_vertices(), 16 + 4 * 2 + 6 * 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The structural level conserves weight, contracts exactly the
        /// groups of one label and one part that fit `max_cluster`, and
        /// leaves every other vertex single.
        #[test]
        fn label_level_contracts_whole_groups_under_the_cap(
            n in 2usize..160,
            groups in 1u32..24,
            cap in 1u64..40,
            with_parts in any::<bool>(),
            seed in 0u64..1000,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut b = HypergraphBuilder::new(n);
            for v in 0..n {
                b.set_vertex_weight(v, [rng.gen_range(0..6), rng.gen_range(0..6)]);
                if rng.gen_range(0..4) != 0 {
                    b.set_label(v, rng.gen_range(0..groups));
                }
                if v > 0 {
                    b.add_edge(1, &[v as u32 - 1, v as u32]);
                }
            }
            let hg = b.build().unwrap();
            let Some(labels) = hg.labels() else { return Ok(()) };
            let parts: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            let parts = with_parts.then_some(&parts[..]);
            let part = |v: usize| parts.map_or(0, |p| p[v]);
            let Some(level) = label_level(&hg, [cap, cap], parts) else {
                return Ok(());
            };
            let f2c = &level.fine_to_coarse;
            prop_assert_eq!(level.coarse.total_weight(), hg.total_weight());
            let group_weight = |v: usize| {
                (0..n)
                    .filter(|&u| labels[u] == labels[v] && part(u) == part(v))
                    .fold([0u64; 2], |w, u| {
                        let uw = hg.vertex_weight(u as u32);
                        [w[0] + uw[0], w[1] + uw[1]]
                    })
            };
            for v in 0..n {
                let fits = |w: VertexWeight| w[0] <= cap && w[1] <= cap;
                let grouped = labels[v] != UNLABELLED && fits(group_weight(v));
                for u in 0..n {
                    let same = labels[u] == labels[v] && part(u) == part(v);
                    prop_assert_eq!(f2c[u] == f2c[v], u == v || (grouped && same));
                }
            }
        }
    }

    #[test]
    fn distinct_labels_coarsen_and_partition_as_unlabelled() {
        let labelled = {
            let grid = causal_grid(24, 1);
            assert!(grid.labels().is_some());
            grid
        };
        let bare = unlabelled(&labelled);
        let coarsen = |hg: &Hypergraph| {
            let mut rng = SmallRng::seed_from_u64(9);
            let mut work = PartitionWork::default();
            let levels = coarsen_to(hg, 16, [64, 64], &mut rng, None, &mut work);
            let maps: Vec<Vec<u32>> = levels.into_iter().map(|l| l.fine_to_coarse).collect();
            (maps, work, rng.next_u64())
        };
        assert_eq!(coarsen(&labelled), coarsen(&bare));
        for k in [2, 8] {
            let cfg = PartitionConfig::new(k);
            let (a, sa) = partition_with_stats(&labelled, &cfg).unwrap();
            let (b, sb) = partition_with_stats(&bare, &cfg).unwrap();
            assert_eq!(a.assignment, b.assignment, "k={k}");
            assert_eq!(a.cost, b.cost, "k={k}");
            assert_eq!(sa.work, sb.work, "k={k}");
            assert_eq!((sa.levels, sa.vcycles), (sb.levels, sb.vcycles), "k={k}");
        }
    }

    #[test]
    fn coarsen_to_target() {
        let hg = chain(256);
        let mut rng = SmallRng::seed_from_u64(3);
        let levels = coarsen_to(
            &hg,
            16,
            [64, 64],
            &mut rng,
            None,
            &mut PartitionWork::default(),
        );
        assert!(!levels.is_empty());
        let coarsest = &levels.last().unwrap().coarse;
        assert!(coarsest.num_vertices() <= 32, "{}", coarsest.num_vertices());
        assert_eq!(coarsest.total_weight(), hg.total_weight());
        // fine_to_coarse maps compose level by level.
        let mut assignment: Vec<u32> = (0..hg.num_vertices() as u32).collect();
        for level in &levels {
            assignment = assignment
                .iter()
                .map(|&v| level.fine_to_coarse[v as usize])
                .collect();
        }
        let max = *assignment.iter().max().unwrap() as usize;
        assert!(max < coarsest.num_vertices());
    }
}
