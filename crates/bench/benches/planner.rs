//! Criterion benchmark: full planner throughput vs block size (the speed
//! side of the paper's Fig. 18) and vs mask sparsity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcp_core::{Planner, PlannerConfig};
use dcp_data::{sample_batches, DatasetKind, MaskSetting};
use dcp_mask::MaskSpec;
use dcp_types::{AttnSpec, ClusterSpec};

fn bench_planner(c: &mut Criterion) {
    let cluster = dcp_core::cp_cluster(&ClusterSpec::p4de(8), 4);
    let kind = DatasetKind::LongAlign;
    let batch = sample_batches(kind, 1, 1.0, 65536, 65536, MaskSetting::Causal, 1)
        .remove(0)
        .seqs;

    let mut group = c.benchmark_group("planner_block_size");
    group.sample_size(10);
    for block in [1024u32, 2048, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(block), &block, |b, &block| {
            let planner = Planner::new(
                cluster.clone(),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: block,
                    ..Default::default()
                },
            );
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
            let planner = Planner::new(
                cluster.clone(),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 2048,
                    ..Default::default()
                },
            );
            b.iter(|| planner.plan(&masked).expect("plan"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
