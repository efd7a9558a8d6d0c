//! Criterion benchmark: full planner throughput vs block size (the speed
//! side of the paper's Fig. 18) and vs mask sparsity, then the near-hit
//! tier: an identical batch replayed, and drifted batches warm-refined.
//! Every planner runs with the exact plan cache off, so each timed call
//! plans instead of returning a cached output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcp_core::{IncrementalConfig, Planner, PlannerConfig};
use dcp_data::{sample_batches, DatasetKind, MaskSetting};
use dcp_mask::MaskSpec;
use dcp_types::{AttnSpec, ClusterSpec};

fn bench_planner(c: &mut Criterion) {
    let cluster = dcp_core::cp_cluster(&ClusterSpec::p4de(8), 4);
    let kind = DatasetKind::LongAlign;
    let batch = sample_batches(kind, 1, 1.0, 65536, 65536, MaskSetting::Causal, 1)
        .remove(0)
        .seqs;
    let uncached = |block_size: u32| PlannerConfig {
        block_size,
        plan_cache: 0,
        ..Default::default()
    };

    let mut group = c.benchmark_group("planner_block_size");
    group.sample_size(10);
    for block in [1024u32, 2048, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(block), &block, |b, &block| {
            let planner = Planner::new(cluster.clone(), AttnSpec::paper_micro(), uncached(block));
            b.iter(|| planner.plan(&batch).expect("plan"));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("planner_masks");
    group.sample_size(10);
    for (name, mask) in [
        ("causal", MaskSpec::Causal),
        ("lambda", MaskSpec::paper_lambda()),
    ] {
        let masked: Vec<(u32, MaskSpec)> = batch.iter().map(|(l, _)| (*l, mask.clone())).collect();
        group.bench_function(name, |b| {
            let planner = Planner::new(cluster.clone(), AttnSpec::paper_micro(), uncached(2048));
            b.iter(|| planner.plan(&masked).expect("plan"));
        });
    }
    group.finish();

    let near = PlannerConfig {
        incremental: IncrementalConfig {
            enabled: true,
            ..Default::default()
        },
        ..uncached(2048)
    };
    // `batch` with every length one token up (or down), kept within its
    // block count: both variants share `batch`'s near-hit key and differ
    // from each other in every sequence.
    let bs = near.block_size;
    let drifted = |up: bool| -> Vec<(u32, MaskSpec)> {
        let len = |l: u32| {
            let shortest = (l - 1) / bs * bs + 1;
            match up {
                true => (l + 1).min(shortest + bs - 1),
                false => (l - 1).max(shortest),
            }
        };
        batch.iter().map(|(l, m)| (len(*l), m.clone())).collect()
    };
    let mut group = c.benchmark_group("planner_near");
    group.sample_size(10);
    group.bench_function("identical_replay", |b| {
        let planner = Planner::new(cluster.clone(), AttnSpec::paper_micro(), near.clone());
        planner.plan(&batch).expect("seed");
        b.iter(|| planner.plan(&batch).expect("replay"));
        let out = planner.plan(&batch).expect("replay");
        assert!(out.stats.near_hit && out.times.total() == 0.0, "a replay");
    });
    group.bench_function("warm_drift", |b| {
        let planner = Planner::new(cluster.clone(), AttnSpec::paper_micro(), near.clone());
        let variants = [drifted(false), drifted(true)];
        planner.plan(&variants[1]).expect("seed");
        // Alternating, each call refines from the other variant's output.
        let mut i = 0;
        b.iter(|| {
            let out = planner.plan(&variants[i]).expect("warm");
            i ^= 1;
            out
        });
        assert!(
            planner.near_cache_stats().0 > 0,
            "the drift must find a seed"
        );
    });
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
