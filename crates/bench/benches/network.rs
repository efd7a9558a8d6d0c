//! Criterion benchmark: the max-min network engine, through `simulate_plan`
//! (forward and backward) on one plan shaped like the weak-scaled batch of
//! the ledger's `plan_cold` workload: 256 devices on a 4×-oversubscribed
//! leaf/spine fabric (`p4de_spine(32, 4, 4.0)`), 2048 tokens a device of
//! LongDataCollections, block 2048, the paper's micro model. The plan is
//! made once; only the simulation is timed.

use criterion::{criterion_group, criterion_main, Criterion};
use dcp_core::{Planner, PlannerConfig};
use dcp_data::{sample_batches, DatasetKind, MaskSetting};
use dcp_sim::simulate_plan;
use dcp_types::{AttnSpec, ClusterSpec};

fn bench_network(c: &mut Criterion) {
    let cluster = ClusterSpec::p4de_spine(32, 4, 4.0);
    let devices = cluster.num_devices() as u64;
    let batch = sample_batches(
        DatasetKind::LongDataCollections,
        1,
        1.0,
        131_072,
        devices * 2048,
        MaskSetting::Causal,
        dcp_bench::SEED,
    );
    let planner = Planner::new(
        cluster.clone(),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 2048,
            plan_cache: 0,
            ..Default::default()
        },
    );
    let plan = planner.plan(&batch[0].seqs).expect("plan").plan;
    let mut group = c.benchmark_group("simulate_spine256_b2048");
    group.sample_size(10);
    group.bench_function("ldc_524k", |b| {
        b.iter(|| simulate_plan(&cluster, &plan).expect("simulate"))
    });
    group.finish();
}

criterion_group!(benches, bench_network);
criterion_main!(benches);
