//! The multilevel partitioning driver.

use std::time::Instant;

use dcp_types::{DcpError, DcpResult};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::coarsen::{coarsen_to, Level};
use crate::graph::{Hypergraph, VertexWeight};
use crate::initial::{initial_partition, is_balanced, within};
use crate::refine::{rebalance, refine};

/// FM refinement passes per level.
const REFINE_PASSES: u32 = 8;

/// Initial-partitioning portfolio size.
const INITIAL_TRIES: u32 = 4;

/// V-cycles after the initial multilevel pass: each re-coarsens the
/// hypergraph *respecting* the current partition and refines on the way
/// back up, escaping local minima the single pass left behind.
const VCYCLES: u32 = 1;

/// Configuration of one partitioning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionConfig {
    /// Number of parts.
    pub k: u32,
    /// Imbalance tolerance per weight dimension: part weight may exceed the
    /// average by this fraction. The paper uses `[epsilon, ~0]` — a
    /// user-visible compute tolerance and data blocks kept "as balanced as
    /// possible" (we allow a small granularity slack on data).
    pub eps: [f64; 2],
    /// RNG seed (plans are deterministic given the seed).
    pub seed: u64,
    /// Disable refinement entirely (for ablation benchmarks).
    pub refine_enabled: bool,
}

impl PartitionConfig {
    /// A sensible default configuration for `k` parts: compute tolerance
    /// 10%, data tolerance 5%, multilevel with refinement.
    pub fn new(k: u32) -> Self {
        PartitionConfig {
            k,
            eps: [0.10, 0.05],
            seed: 0x5eed,
            refine_enabled: true,
        }
    }

    /// Sets the compute-imbalance tolerance (the paper's epsilon).
    pub fn with_epsilon(mut self, eps: f64) -> Self {
        self.eps[0] = eps;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The result of a partitioning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Partition {
    /// Part of each vertex, in `0..k`.
    pub assignment: Vec<u32>,
    /// Final connectivity−1 cost (total communication volume).
    pub cost: u64,
    /// Per-part total vertex weight.
    pub part_weights: Vec<VertexWeight>,
    /// Whether the balance caps were satisfied.
    pub balanced: bool,
    /// The caps that were enforced.
    pub caps: VertexWeight,
}

/// Deterministic work counters of one partitioning run: they depend only on
/// the input and the seed, so a speed-up shows here before it shows on a
/// clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionWork {
    /// Matching levels attempted, V-cycle re-coarsening included (each
    /// coarsening's last attempt may find it has converged and build none).
    #[serde(default)]
    pub match_levels: u64,
    /// Proposal/resolution rounds over those levels.
    #[serde(default)]
    pub match_rounds: u64,
    /// Vertices rated for a match partner (one proposal attempt each,
    /// whether or not a candidate was found).
    #[serde(default)]
    pub match_proposals: u64,
    /// Pins visited while rating them.
    #[serde(default)]
    pub match_pins_scanned: u64,
    /// FM moves applied while passes explored (kept or not).
    #[serde(default)]
    pub fm_moves_applied: u64,
    /// Of those, moves undone by roll-backs to a pass's best prefix.
    #[serde(default)]
    pub fm_moves_rolled_back: u64,
}

impl PartitionWork {
    /// Adds `other`'s counts to `self`'s.
    fn merge(&mut self, other: &PartitionWork) {
        self.match_levels += other.match_levels;
        self.match_rounds += other.match_rounds;
        self.match_proposals += other.match_proposals;
        self.match_pins_scanned += other.match_pins_scanned;
        self.fm_moves_applied += other.fm_moves_applied;
        self.fm_moves_rolled_back += other.fm_moves_rolled_back;
    }
}

/// One partitioning run by pipeline stage: wall-clock seconds, and the
/// run's work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PartitionStats {
    /// Seconds spent coarsening (including V-cycle re-coarsening).
    pub coarsen_s: f64,
    /// Seconds spent on initial partitioning of the coarsest level.
    pub initial_s: f64,
    /// Seconds spent in FM refinement and balance repair.
    pub refine_s: f64,
    /// Coarsening levels built by the first multilevel pass.
    pub levels: u32,
    /// V-cycles actually executed.
    pub vcycles: u32,
    /// Matching and FM work counts.
    #[serde(default)]
    pub work: PartitionWork,
}

impl PartitionStats {
    /// Accumulates `other` into `self` (summing times and counts) — used to
    /// aggregate the stats of hierarchical sub-partitions.
    pub fn merge(&mut self, other: &PartitionStats) {
        self.coarsen_s += other.coarsen_s;
        self.initial_s += other.initial_s;
        self.refine_s += other.refine_s;
        self.levels += other.levels;
        self.vcycles += other.vcycles;
        self.work.merge(&other.work);
    }
}

/// Computes the balance cap every part of `hg` is held to under `cfg`.
///
/// `cap[d] = max(ceil((1 + eps[d]) * avg), floor(avg) + max_vertex[d])` with
/// `avg = total[d] / k`. The second term grants one vertex of granularity
/// slack: without it, a tolerance smaller than a single block's share of a
/// part (e.g. the tight data tolerance with large block sizes) would make
/// the instance infeasible no matter how the blocks are placed.
pub(crate) fn balance_caps(hg: &Hypergraph, cfg: &PartitionConfig) -> VertexWeight {
    let total = hg.total_weight();
    let maxv = hg.max_vertex_weight();
    let mut caps = [0u64; 2];
    for d in 0..2 {
        let avg = total[d] as f64 / cfg.k as f64;
        caps[d] = (((1.0 + cfg.eps[d]) * avg).ceil() as u64).max(avg as u64 + maxv[d]);
    }
    caps
}

/// Partitions `hg` into `cfg.k` balanced parts minimizing the
/// connectivity−1 metric, using the multilevel scheme.
///
/// # Errors
///
/// Returns [`DcpError::InvalidArgument`] if `k == 0` or the hypergraph has no
/// vertices.
pub fn partition(hg: &Hypergraph, cfg: &PartitionConfig) -> DcpResult<Partition> {
    partition_with_stats(hg, cfg).map(|(p, _)| p)
}

/// The argument checks the cold and the warm entry point share.
fn check_args(hg: &Hypergraph, cfg: &PartitionConfig) -> DcpResult<()> {
    if cfg.k == 0 {
        return Err(DcpError::invalid_argument("k must be > 0"));
    }
    if hg.num_vertices() == 0 {
        return Err(DcpError::invalid_argument(
            "cannot partition an empty hypergraph",
        ));
    }
    Ok(())
}

/// One run's fixed inputs and what it counts, so the helpers below take the
/// assignment alone.
struct Run<'a> {
    hg: &'a Hypergraph,
    cfg: &'a PartitionConfig,
    cap: VertexWeight,
    rng: SmallRng,
    stats: PartitionStats,
}

impl<'a> Run<'a> {
    fn new(hg: &'a Hypergraph, cfg: &'a PartitionConfig) -> Self {
        Run {
            hg,
            cfg,
            cap: balance_caps(hg, cfg),
            rng: SmallRng::seed_from_u64(cfg.seed),
            stats: PartitionStats::default(),
        }
    }

    fn refine(&mut self, g: &Hypergraph, assignment: &mut [u32]) {
        if self.cfg.refine_enabled {
            refine(
                g,
                assignment,
                self.cfg.k,
                self.cap,
                REFINE_PASSES,
                &mut self.rng,
                &mut self.stats.work,
            );
        }
    }

    /// Refines `assignment` on the coarsest graph of `levels`, then projects
    /// it down through every level to `self.hg`, refining at each.
    fn uncoarsen(&mut self, levels: &[Level], mut assignment: Vec<u32>) -> Vec<u32> {
        self.refine(
            levels.last().map_or(self.hg, |l| &l.coarse),
            &mut assignment,
        );
        for i in (0..levels.len()).rev() {
            let fine = if i == 0 {
                self.hg
            } else {
                &levels[i - 1].coarse
            };
            assignment = levels[i]
                .fine_to_coarse
                .iter()
                .map(|&c| assignment[c as usize])
                .collect();
            self.refine(fine, &mut assignment);
        }
        assignment
    }

    /// Balance repair and a last polish at the finest level: the tail of the
    /// cold pipeline and the whole of the warm one.
    fn repair_and_polish(&mut self, assignment: &mut [u32]) {
        if !self.is_balanced(assignment) {
            rebalance(self.hg, assignment, self.cfg.k, self.cap);
        }
        self.refine(self.hg, assignment);
    }

    fn is_balanced(&self, assignment: &[u32]) -> bool {
        is_balanced(self.hg, assignment, self.cfg.k, self.cap)
    }

    /// The partition of `assignment`, and this run's stage times and work
    /// counts.
    fn finish(self, assignment: Vec<u32>) -> (Partition, PartitionStats) {
        let cost = self.hg.connectivity_cost(&assignment, self.cfg.k);
        let part_weights = self.hg.part_weights(&assignment, self.cfg.k);
        let partition = Partition {
            balanced: within(&part_weights, self.cap),
            assignment,
            cost,
            part_weights,
            caps: self.cap,
        };
        (partition, self.stats)
    }
}

/// Like [`partition`], but also returns the per-stage times and work counts.
///
/// # Errors
///
/// Returns [`DcpError::InvalidArgument`] if `k == 0` or the hypergraph has no
/// vertices.
pub fn partition_with_stats(
    hg: &Hypergraph,
    cfg: &PartitionConfig,
) -> DcpResult<(Partition, PartitionStats)> {
    partition_with_vcycles(hg, cfg, VCYCLES)
}

/// The cold pipeline with `vcycles` V-cycles after the first multilevel
/// pass (every caller but a test runs [`VCYCLES`]).
fn partition_with_vcycles(
    hg: &Hypergraph,
    cfg: &PartitionConfig,
    vcycles: u32,
) -> DcpResult<(Partition, PartitionStats)> {
    check_args(hg, cfg)?;
    let k = cfg.k;
    let mut run = Run::new(hg, cfg);

    if k == 1 {
        return Ok(run.finish(vec![0u32; hg.num_vertices()]));
    }

    // Coarsen down to `max(4k, 16)` vertices.
    let target = (4 * k as usize).max(16);
    let total = hg.total_weight();
    let max_cluster = [
        (total[0] / (k as u64 * 8)).max(1),
        (total[1] / (k as u64 * 8)).max(1),
    ];
    let t = Instant::now();
    let levels = coarsen_to(
        hg,
        target,
        max_cluster,
        &mut run.rng,
        None,
        &mut run.stats.work,
    );
    run.stats.coarsen_s += t.elapsed().as_secs_f64();
    run.stats.levels = levels.len() as u32;
    let coarsest = levels.last().map_or(hg, |l| &l.coarse);

    // Initial partition on the coarsest level.
    let t = Instant::now();
    let assignment = initial_partition(coarsest, k, run.cap, INITIAL_TRIES, &mut run.rng);
    run.stats.initial_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut assignment = run.uncoarsen(&levels, assignment);
    run.repair_and_polish(&mut assignment);
    run.stats.refine_s += t.elapsed().as_secs_f64();

    // V-cycles: re-coarsen respecting the partition, refine back up.
    for _ in 0..vcycles {
        if !cfg.refine_enabled {
            break;
        }
        let before = hg.connectivity_cost(&assignment, k);
        let t = Instant::now();
        let levels = coarsen_to(
            hg,
            target,
            max_cluster,
            &mut run.rng,
            Some(&assignment),
            &mut run.stats.work,
        );
        run.stats.coarsen_s += t.elapsed().as_secs_f64();
        if levels.is_empty() {
            break;
        }
        run.stats.vcycles += 1;
        // Project the assignment to the coarsest level (well defined:
        // matched vertices share a part by construction).
        let mut coarse = assignment.clone();
        for level in &levels {
            let mut next = vec![0u32; level.coarse.num_vertices()];
            for (v, &c) in level.fine_to_coarse.iter().enumerate() {
                next[c as usize] = coarse[v];
            }
            coarse = next;
        }
        let t = Instant::now();
        let a = run.uncoarsen(&levels, coarse);
        run.stats.refine_s += t.elapsed().as_secs_f64();
        let after = hg.connectivity_cost(&a, k);
        if after < before && run.is_balanced(&a) == run.is_balanced(&assignment) {
            assignment = a;
        } else if after >= before {
            break;
        }
    }
    Ok(run.finish(assignment))
}

/// Refines a caller-supplied seed assignment ("warm start") instead of
/// running the full multilevel pipeline: balance-repairs the seed against
/// the caps when needed, then FM-refines at the finest level only. Skipping
/// coarsening and initial partitioning is what makes incremental
/// re-planning sub-millisecond; the trade-off is that quality depends
/// entirely on the seed, so callers must bound the result against a cold
/// reference and fall back when it regresses (the planner's incremental
/// path does exactly that).
///
/// A seed that is already balanced and FM-converged under the same caps is
/// returned unchanged: `refine` only keeps strictly-improving move
/// prefixes, so the warm path is idempotent on its own output — and on the
/// finest-level output of the cold pipeline.
///
/// # Errors
///
/// Returns [`DcpError::InvalidArgument`] if `k == 0`, the hypergraph is
/// empty, or `seed` has the wrong length or contains parts `>= k`.
pub fn partition_warm_with_stats(
    hg: &Hypergraph,
    cfg: &PartitionConfig,
    seed: &[u32],
) -> DcpResult<(Partition, PartitionStats)> {
    check_args(hg, cfg)?;
    if seed.len() != hg.num_vertices() {
        return Err(DcpError::invalid_argument(format!(
            "warm seed has {} entries for {} vertices",
            seed.len(),
            hg.num_vertices()
        )));
    }
    if let Some(&p) = seed.iter().find(|&&p| p >= cfg.k) {
        return Err(DcpError::invalid_argument(format!(
            "warm seed part {p} out of range for k = {}",
            cfg.k
        )));
    }
    let mut run = Run::new(hg, cfg);
    let mut assignment = seed.to_vec();
    let t = Instant::now();
    run.repair_and_polish(&mut assignment);
    run.stats.refine_s = t.elapsed().as_secs_f64();
    Ok(run.finish(assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HypergraphBuilder;
    use proptest::prelude::*;
    use rand::Rng;

    /// A planted partition: `k` groups of `m` vertices with heavy intra-group
    /// edges and light random inter-group edges.
    fn planted(k: u32, m: usize, seed: u64) -> (Hypergraph, Vec<u32>) {
        let n = k as usize * m;
        let mut b = HypergraphBuilder::new(n);
        let mut truth = Vec::with_capacity(n);
        for g in 0..k {
            for i in 0..m {
                let v = g as usize * m + i;
                b.set_vertex_weight(v, [1 + (i as u64 % 3), 1]);
                truth.push(g);
                // Heavy edge to the next member of the same group.
                let u = g as usize * m + (i + 1) % m;
                b.add_edge(100, &[v as u32, u as u32]);
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..n / 4 {
            let a = rng.gen_range(0..n) as u32;
            let c = rng.gen_range(0..n) as u32;
            if a != c {
                b.add_edge(1, &[a, c]);
            }
        }
        (b.build().unwrap(), truth)
    }

    #[test]
    fn recovers_planted_bisection() {
        let (hg, truth) = planted(2, 32, 7);
        let part = partition(&hg, &PartitionConfig::new(2)).unwrap();
        assert!(part.balanced);
        // Cost should be at most the planted cut (only light edges cross).
        let planted_cost = hg.connectivity_cost(&truth, 2);
        assert!(
            part.cost <= planted_cost,
            "cost {} > planted {}",
            part.cost,
            planted_cost
        );
    }

    #[test]
    fn k_way_partition_is_balanced() {
        let (hg, _) = planted(8, 24, 3);
        let cfg = PartitionConfig::new(8).with_epsilon(0.1);
        let part = partition(&hg, &cfg).unwrap();
        assert!(part.balanced, "part weights: {:?}", part.part_weights);
        assert_eq!(part.part_weights.len(), 8);
        let used: std::collections::HashSet<u32> = part.assignment.iter().copied().collect();
        assert_eq!(used.len(), 8, "all parts used");
    }

    #[test]
    fn k1_is_free() {
        let (hg, _) = planted(2, 16, 1);
        let part = partition(&hg, &PartitionConfig::new(1)).unwrap();
        assert_eq!(part.cost, 0);
        assert!(part.assignment.iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let (hg, _) = planted(4, 20, 5);
        let cfg = PartitionConfig::new(4).with_seed(42);
        let a = partition(&hg, &cfg).unwrap();
        let b = partition(&hg, &cfg).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn refinement_not_worse_than_disabled() {
        let (hg, _) = planted(4, 32, 9);
        let on = partition(&hg, &PartitionConfig::new(4)).unwrap();
        let mut cfg_off = PartitionConfig::new(4);
        cfg_off.refine_enabled = false;
        let off = partition(&hg, &cfg_off).unwrap();
        assert!(
            on.cost <= off.cost,
            "refine {} > no-refine {}",
            on.cost,
            off.cost
        );
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let (hg, _) = planted(2, 4, 1);
        assert!(partition(&hg, &PartitionConfig::new(0)).is_err());
        let empty = HypergraphBuilder::new(0).build().unwrap();
        assert!(partition(&empty, &PartitionConfig::new(2)).is_err());
    }

    #[test]
    fn more_parts_than_vertices_spreads() {
        let mut b = HypergraphBuilder::new(3);
        for v in 0..3 {
            b.set_vertex_weight(v, [1, 1]);
        }
        b.add_edge(1, &[0, 1, 2]);
        let hg = b.build().unwrap();
        let part = partition(&hg, &PartitionConfig::new(5)).unwrap();
        assert_eq!(part.assignment.len(), 3);
        assert!(part.assignment.iter().all(|&p| p < 5));
    }

    #[test]
    fn loose_epsilon_never_increases_cost() {
        // Fig. 20's trade-off: larger epsilon -> no more communication.
        let (hg, _) = planted(4, 32, 13);
        let tight = partition(&hg, &PartitionConfig::new(4).with_epsilon(0.02)).unwrap();
        let loose = partition(&hg, &PartitionConfig::new(4).with_epsilon(0.8)).unwrap();
        assert!(
            loose.cost <= tight.cost,
            "loose {} > tight {}",
            loose.cost,
            tight.cost
        );
    }

    #[test]
    fn warm_start_from_converged_assignment_is_identity() {
        // The linchpin of incremental planning: re-running the warm path on
        // the cold pipeline's own (balanced, FM-converged) output must be a
        // no-op, bitwise.
        let (hg, _) = planted(4, 24, 11);
        let cfg = PartitionConfig::new(4).with_seed(42);
        let cold = partition(&hg, &cfg).unwrap();
        assert!(cold.balanced);
        let (warm, stats) = partition_warm_with_stats(&hg, &cfg, &cold.assignment).unwrap();
        assert_eq!(warm.assignment, cold.assignment);
        assert_eq!(warm.cost, cold.cost);
        assert_eq!(stats.levels, 0, "warm path never coarsens");
        assert_eq!(stats.coarsen_s, 0.0);
        assert_eq!(stats.initial_s, 0.0);
    }

    #[test]
    fn warm_start_from_perturbed_seed_recovers_balance_and_quality() {
        let (hg, truth) = planted(4, 24, 17);
        // Perturb the planted truth: move a handful of vertices to part 0.
        let mut seed: Vec<u32> = truth.clone();
        for v in (0..seed.len()).step_by(7) {
            seed[v] = 0;
        }
        let cfg = PartitionConfig::new(4).with_epsilon(0.1);
        let (warm, _) = partition_warm_with_stats(&hg, &cfg, &seed).unwrap();
        assert!(warm.balanced, "part weights: {:?}", warm.part_weights);
        assert_eq!(warm.cost, hg.connectivity_cost(&warm.assignment, 4));
        // Refinement from a near-truth seed must not be worse than the
        // perturbed seed it started from.
        assert!(warm.cost <= hg.connectivity_cost(&seed, 4));
    }

    #[test]
    fn warm_start_rejects_bad_seeds() {
        let (hg, truth) = planted(2, 8, 1);
        let cfg = PartitionConfig::new(2);
        // Wrong length.
        assert!(partition_warm_with_stats(&hg, &cfg, &truth[1..]).is_err());
        // Out-of-range part.
        let mut bad = truth.clone();
        bad[0] = 9;
        assert!(partition_warm_with_stats(&hg, &cfg, &bad).is_err());
    }

    /// `n` vertices of random weights below `w` and `ne` edges of 2 up to
    /// `deg - 1` random pins and random weights in `1..ew`.
    fn random_hypergraph(
        n: usize,
        ne: usize,
        seed: u64,
        (w, deg, ew): (u64, usize, u64),
    ) -> Hypergraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = HypergraphBuilder::new(n);
        for v in 0..n {
            b.set_vertex_weight(v, [rng.gen_range(0..w), rng.gen_range(0..w)]);
        }
        for _ in 0..ne {
            let deg = rng.gen_range(2..deg.min(n + 1).max(3));
            let pins: Vec<u32> = (0..deg).map(|_| rng.gen_range(0..n) as u32).collect();
            b.add_edge(rng.gen_range(1..ew), &pins);
        }
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Adding V-cycles never yields a worse partition than none.
        #[test]
        fn vcycles_never_worsen(
            n in 8usize..100,
            ne in 4usize..150,
            k in 2u32..5,
            seed in 0u64..500,
        ) {
            let hg = random_hypergraph(n, ne, seed, (8, 5, 16));
            let cfg = PartitionConfig::new(k).with_seed(seed);
            let (a, _) = partition_with_vcycles(&hg, &cfg, 0).unwrap();
            let (b, _) = partition_with_vcycles(&hg, &cfg, 2).unwrap();
            prop_assert!(
                b.cost <= a.cost,
                "vcycles worsened: {} -> {}",
                a.cost,
                b.cost
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Partition invariants on random hypergraphs: every vertex assigned
        /// to a valid part, cost matches recomputation, part weights match.
        #[test]
        fn partition_invariants(
            n in 2usize..120,
            ne in 1usize..200,
            k in 2u32..6,
            seed in 0u64..1000,
        ) {
            let hg = random_hypergraph(n, ne, seed, (10, 6, 20));
            let cfg = PartitionConfig::new(k).with_seed(seed);
            let part = partition(&hg, &cfg).unwrap();
            prop_assert_eq!(part.assignment.len(), n);
            prop_assert!(part.assignment.iter().all(|&p| p < k));
            prop_assert_eq!(part.cost, hg.connectivity_cost(&part.assignment, k));
            let pw = hg.part_weights(&part.assignment, k);
            prop_assert_eq!(pw, part.part_weights.clone());
            // Weight conservation.
            let sum: [u64; 2] = part.part_weights.iter().fold([0, 0], |a, w| {
                [a[0] + w[0], a[1] + w[1]]
            });
            prop_assert_eq!(sum, hg.total_weight());
        }
    }
}
