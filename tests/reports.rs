//! Cross-crate tests of the reporting surfaces: plan reports, execution
//! traces, and the paper's memory-balance property on planner output.

use dcp::baselines::Baseline;
use dcp::core::{Planner, PlannerConfig};
use dcp::mask::MaskSpec;
use dcp::obs::{to_chrome_trace, Phase};
use dcp::sched::PlanReport;
use dcp::sim::{ascii_gantt, simulate, trace_to_obs, FaultSpec, SimRun, TraceKind};
use dcp::types::{AttnSpec, ClusterSpec};

fn skewed_batch() -> Vec<(u32, MaskSpec)> {
    let mut seqs = vec![(24576u32, MaskSpec::Causal)];
    for i in 0..8u32 {
        seqs.push((1024 + 512 * (i % 4), MaskSpec::Causal));
    }
    seqs
}

#[test]
fn planner_balances_memory_and_flops_together() {
    // The paper's dual-weight constraint: both activation memory (bytes)
    // and computation (FLOPs) stay balanced, unlike pure DP (memory
    // balanced, compute skewed) or naive compute-only balancing.
    let cluster = ClusterSpec::p4de(2);
    let planner = Planner::new(
        cluster,
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 1024,
            ..Default::default()
        },
    );
    let out = planner.plan(&skewed_batch()).unwrap();
    let report = PlanReport::from_phase(&out.plan.fwd);
    // Memory: owned buffers within ~1 block of granularity slack per device.
    let mem_imb = report.imbalance(|d| d.peak_buffer_bytes);
    assert!(mem_imb < 1.6, "memory imbalance {mem_imb}");
    // Compute within the eps product plus scheduling noise.
    let flop_imb = report.imbalance(|d| d.attn_flops);
    assert!(flop_imb < 1.75, "flops imbalance {flop_imb}");
}

#[test]
fn traces_cover_plan_activity_for_dcp_and_baselines() {
    let cluster = ClusterSpec::p4de(1);
    let batch = skewed_batch();
    let planner = Planner::new(
        cluster.clone(),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 1024,
            ..Default::default()
        },
    );
    let dcp = planner.plan(&batch).unwrap();
    let te = Baseline::TransformerEngine { head_groups: 2 }
        .build(AttnSpec::paper_micro(), 8, 256, &batch)
        .unwrap();
    for plan in [&dcp.plan, &te.plan] {
        let SimRun { sim, trace, .. } = simulate(&cluster, &plan.fwd, &FaultSpec::none()).unwrap();
        assert!(!trace.is_empty());
        let attn_time: f64 = trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Attn))
            .map(|e| e.end - e.start)
            .sum();
        let timeline_attn: f64 = sim.devices.iter().map(|d| d.attn).sum();
        assert!((attn_time - timeline_attn).abs() < 1e-9);
        // Exports work.
        let json = to_chrome_trace(&trace_to_obs(&trace, Phase::Fwd, None));
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v["traceEvents"].as_array().unwrap().len() >= trace.len());
        let gantt = ascii_gantt(&trace, 80);
        assert!(gantt.contains("dev0"));
    }
}
