//! Criterion benchmark: the multilevel hypergraph partitioner on planner-
//! shaped hypergraphs of increasing size, the FM-refinement ablation, the
//! first placement level of a 131 072-token LongDataCollections batch, and
//! the gain-cache FM pass on a planted k-way instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcp_blocks::{BatchLayout, BlockConfig};
use dcp_core::{Planner, PlannerConfig};
use dcp_data::{sample_batches, DatasetKind, MaskSetting};
use dcp_hypergraph::{
    partition, partition_with_stats, refine, Hypergraph, HypergraphBuilder, PartitionConfig,
    PartitionWork,
};
use dcp_mask::MaskSpec;
use dcp_types::AttnSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn planner_hypergraph(len: u32, block: u32) -> dcp_hypergraph::Hypergraph {
    let layout = BatchLayout::build(
        AttnSpec::paper_micro(),
        BlockConfig {
            block_size: block,
            head_blocks: 2,
        },
        &[(len, MaskSpec::Causal)],
    )
    .expect("layout");
    Planner::build_hypergraph(&layout)
}

fn bench_partitioner(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_16way");
    group.sample_size(10);
    for len in [16384u32, 32768, 65536] {
        let hg = planner_hypergraph(len, 1024);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("L{len}_v{}", hg.num_vertices())),
            &hg,
            |b, hg| {
                let cfg = PartitionConfig::new(16);
                b.iter(|| partition(hg, &cfg).expect("partition"));
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("partition_refine_ablation");
    group.sample_size(10);
    let hg = planner_hypergraph(32768, 1024);
    for refine in [true, false] {
        group.bench_with_input(
            BenchmarkId::from_parameter(if refine { "fm_on" } else { "fm_off" }),
            &refine,
            |b, &refine| {
                let mut cfg = PartitionConfig::new(16);
                cfg.refine_enabled = refine;
                b.iter(|| partition(&hg, &cfg).expect("partition"));
            },
        );
    }
    group.finish();

    // The first placement level of the ledger's `plan_cold` batches: one
    // 131 072-token LongDataCollections batch at block 1024, cut 4 ways
    // (the four nodes of a 32-device cluster) and 8 ways, at the planner's
    // seed and inter-node tolerance.
    let mut group = c.benchmark_group("partition_ldc_131k_b1024");
    group.sample_size(10);
    let batch = sample_batches(
        DatasetKind::LongDataCollections,
        1,
        1.0,
        131_072,
        131_072,
        MaskSetting::Causal,
        dcp_bench::SEED,
    );
    let layout = BatchLayout::build(
        AttnSpec::paper_micro(),
        BlockConfig {
            block_size: 1024,
            head_blocks: AttnSpec::paper_micro().kv_heads,
        },
        &batch[0].seqs,
    )
    .expect("layout");
    let hg = Planner::build_hypergraph(&layout);
    for k in [4u32, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_v{}", hg.num_vertices())),
            &k,
            |b, &k| {
                let planner = PlannerConfig::default();
                let cfg = PartitionConfig::new(k)
                    .with_epsilon(planner.eps_inter)
                    .with_seed(planner.seed);
                b.iter(|| partition_with_stats(&hg, &cfg).expect("partition"));
            },
        );
    }
    group.finish();
}

/// A planted k-way instance shaped like the planner's hypergraphs: `k`
/// clusters of `size` unit-weight vertices, each a weight-10 ring, plus
/// many-pin "consumer" hyperedges inside each cluster (one per ring vertex,
/// spanning the next 16 vertices — the shape KV-broadcast edges take) and
/// weight-1 bridges between consecutive clusters. The returned start
/// assignment is the planted optimum with the first few vertices of each
/// adjacent cluster pair swapped — local damage of the kind multilevel
/// projection hands to FM. Many-pin edges make single-gain recomputation
/// expensive, which is exactly what the gain cache amortizes.
fn planted_kway(k: u32, size: usize) -> (Hypergraph, Vec<u32>, [u64; 2]) {
    let n = k as usize * size;
    let mut b = HypergraphBuilder::new(n);
    for v in 0..n {
        b.set_vertex_weight(v, [1, 1]);
    }
    for c in 0..k as usize {
        let base = c * size;
        for i in 0..size {
            b.add_edge(10, &[(base + i) as u32, (base + (i + 1) % size) as u32]);
        }
        for i in (0..size).step_by(4) {
            let pins: Vec<u32> = (0..16.min(size))
                .map(|j| (base + (i + j) % size) as u32)
                .collect();
            b.add_edge(3, &pins);
        }
        let next = ((c + 1) % k as usize) * size;
        b.add_edge(1, &[base as u32, next as u32]);
    }
    let hg = b.build().expect("planted instance");
    let mut assignment: Vec<u32> = (0..n).map(|v| (v / size) as u32).collect();
    let damage = (size / 16).clamp(2, 16);
    for c in 0..k as usize - 1 {
        for i in 0..damage {
            assignment.swap(c * size + i, (c + 1) * size + i);
        }
    }
    let caps = [(size + 2 * damage) as u64; 2];
    (hg, assignment, caps)
}

/// Gain-cache FM on a planted instance, fixed seed and pass budget.
fn bench_refinement(c: &mut Criterion) {
    let mut group = c.benchmark_group("fm_refinement_8way");
    group.sample_size(20);
    for size in [64usize, 256, 1024] {
        let (hg, start, caps) = planted_kway(8, size);
        group.bench_with_input(BenchmarkId::new("gain_cache", size), &size, |b, _| {
            b.iter(|| {
                let mut a = start.clone();
                let mut rng = SmallRng::seed_from_u64(7);
                refine::refine(
                    &hg,
                    &mut a,
                    8,
                    caps,
                    8,
                    &mut rng,
                    &mut PartitionWork::default(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partitioner, bench_refinement);
criterion_main!(benches);
