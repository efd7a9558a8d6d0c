//! The benchmark's contract: workloads, metric names, units, directions,
//! bounds and the run length. `ledger --contract` prints it as
//! `BENCHMARK.json`; `run.sh` refuses to run when the committed file differs,
//! so the file cannot drift from the code that measures.

use std::fmt::Write as _;

/// Seconds one run measures (`--seconds` default, `run_seconds`).
pub const RUN_SECONDS: u64 = 26;

pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
pub const PATHS: [&str; 1] = ["benchmark"];

/// `(name, why)` of each workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "exec_dense",
        "full dense 128x128 causal blocks at head dim 64: the f32 kernels are nearly the whole round, so kernel and executor-core changes show undiluted and planner or simulator changes show nothing",
    ),
    (
        "exec_sparse",
        "thousands of small partly masked 64x64 blocks at head dim 16: per-block fixed costs (kernel set-up, buffers, merges) rival the flops; catches a dense fast path that taxes the small masked case",
    ),
    (
        "plan_cold",
        "nothing executed: paper-scale cold planning on 32 devices plus weak-scaled 256-device batches, each plan verified and simulated twice, so planner, verifier and network engine all hold a real share",
    ),
    (
        "replan_stream",
        "repeats, identical layouts and drifted lengths through the look-ahead dataloader: exact LRU, near-hit replay and warm refinement do the work, cold partitioning almost none; the reverse of plan_cold",
    ),
];

/// An end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// The end-to-end metrics. Bounds are relative worsenings of the median.
///
/// The two wall-clock metrics are scaled to a reference host speed
/// (`calib`); their bounds stay the widest the contract allows because the
/// host the driver measures on was seen twice as noisy as the one the scaling
/// was tuned on. The two modelled metrics repeat exactly for one seed, and
/// their bounds come from how far re-ordering the same documents moves the
/// partitioner (README, "Bounds").
pub const END_TO_END: [EndToEnd; 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("tokens_per_s", "tokens/s", "higher", 0.25),
    ("sim_iter_ms", "ms", "lower", 0.06),
    ("comm_bytes_per_token", "B/token", "lower", 0.04),
    ("peak_rss_mb", "MiB", "lower", 0.12),
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// The per-layer metrics of the traced run, grouped by crate/module.
pub const PER_LAYER: [PerLayer; 83] = [
    // dcp-blocks
    ("blocks.layout_ms_p50", "ms", "lower"),
    ("blocks.comp_blocks_per_iter", "count", "lower"),
    ("blocks.token_blocks_per_iter", "count", "lower"),
    // dcp-hypergraph
    ("hypergraph.build_ms_p50", "ms", "lower"),
    ("hypergraph.partition_ms_p50", "ms", "lower"),
    ("hypergraph.warm_partition_ms_p50", "ms", "lower"),
    ("hypergraph.coarsen_ms", "ms", "lower"),
    ("hypergraph.initial_ms", "ms", "lower"),
    ("hypergraph.refine_ms", "ms", "lower"),
    ("hypergraph.levels", "count", "lower"),
    ("hypergraph.vcycles", "count", "lower"),
    ("hypergraph.cut_bytes", "B", "lower"),
    // dcp-core::planner
    ("planner.cold_ms_p50", "ms", "lower"),
    ("planner.cold_ms_p90", "ms", "lower"),
    ("planner.exact_hit_ms_p50", "ms", "lower"),
    ("planner.near_identical_ms_p50", "ms", "lower"),
    ("planner.warm_drift_ms_p50", "ms", "lower"),
    ("planner.exact_hit_rate", "ratio", "higher"),
    ("planner.near_hit_rate", "ratio", "higher"),
    ("planner.warm_fallback_rate", "ratio", "lower"),
    ("planner.fallback_plans", "count", "lower"),
    ("planner.block_gen_ms_p50", "ms", "lower"),
    ("planner.partition_ms_p50", "ms", "lower"),
    ("planner.schedule_ms_p50", "ms", "lower"),
    ("planner.self_ms_p50", "ms", "lower"),
    ("planner.headroom", "ratio", "higher"),
    ("planner.par_speedup_t2", "ratio", "higher"),
    // dcp-core::dataloader
    ("dataloader.wait_ms_p50", "ms", "lower"),
    ("dataloader.wait_ms_p90", "ms", "lower"),
    ("dataloader.replans", "count", "lower"),
    // dcp-sched
    ("sched.build_plan_ms_p50", "ms", "lower"),
    ("sched.instrs_per_iter", "count", "lower"),
    ("sched.transfers_per_iter", "count", "lower"),
    ("sched.compute_imbalance", "ratio", "lower"),
    ("sched.peak_buffer_mb", "MiB", "lower"),
    ("passes.run_ms_p50", "ms", "lower"),
    ("passes.instrs_removed", "count", "higher"),
    ("passes.comm_bytes_saved", "B", "higher"),
    ("verify.plan_ms_p50", "ms", "lower"),
    ("verify.instrs_per_s", "1/s", "higher"),
    // dcp-sim
    ("sim.plan_ms_p50", "ms", "lower"),
    ("sim.faulted_ms_p50", "ms", "lower"),
    ("sim.events_per_iter", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.touched_flows_per_event", "ratio", "lower"),
    ("sim.exposed_comm_frac", "ratio", "lower"),
    ("sim.overlap_efficiency", "ratio", "higher"),
    ("e2e.iter_ms", "ms", "lower"),
    // dcp-exec
    ("exec.fwd_ms_p50", "ms", "lower"),
    ("exec.bwd_ms_p50", "ms", "lower"),
    ("exec.blocks_per_s", "1/s", "higher"),
    ("exec.gflops", "GFLOP/s", "higher"),
    ("exec.kernel_share", "ratio", "higher"),
    ("exec.allocs_per_block", "ratio", "lower"),
    ("exec.alloc_mb_per_iter", "MiB", "lower"),
    ("exec.vs_dense_reference", "ratio", "lower"),
    ("exec.par_speedup_t2", "ratio", "higher"),
    ("kernels.fwd_gflops", "GFLOP/s", "higher"),
    ("kernels.bwd_gflops", "GFLOP/s", "higher"),
    // dcp-baselines
    ("baselines.comm_ratio_vs_zigzag", "ratio", "lower"),
    ("baselines.sim_speedup_vs_te", "ratio", "higher"),
    // dcp-obs
    ("obs.recording_overhead_frac", "ratio", "lower"),
    ("obs.events_per_iter", "count", "lower"),
    // whole chain and harness
    ("chain.iter_ms_p50", "ms", "lower"),
    ("chain.iter_ms_p90", "ms", "lower"),
    ("chain.iter_samples", "count", "higher"),
    ("chain.rounds", "count", "higher"),
    ("chain.unattributed_frac", "ratio", "lower"),
    ("share.blocks", "ratio", "lower"),
    ("share.hypergraph", "ratio", "lower"),
    ("share.planner_self", "ratio", "lower"),
    ("share.sched", "ratio", "lower"),
    ("share.verify", "ratio", "lower"),
    ("share.sim", "ratio", "lower"),
    ("share.exec", "ratio", "lower"),
    ("share.dataloader", "ratio", "lower"),
    ("setup.first_s", "s", "lower"),
    ("setup.plan_s", "s", "lower"),
    ("setup.data_s", "s", "lower"),
    ("host.round_spread", "ratio", "lower"),
    ("host.cpu_over_wall", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
];

/// The bound of end-to-end metric `name`.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END.iter().find(|m| m.0 == name).map(|m| m.3)
}

/// Renders `BENCHMARK.json`, byte for byte as committed.
pub fn render() -> String {
    let mut s = String::from("{\n");
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|x| format!("\"{x}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(s, "  \"command\": [{}],", list(&COMMAND));
    let _ = writeln!(s, "  \"paths\": [{}],", list(&PATHS));
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{comma}"
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}
