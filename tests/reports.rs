//! Cross-crate tests of the reporting surfaces: plan reports, execution
//! traces, the paper's memory-balance property on planner output, and the
//! orderings the paper's figures show, asserted on the tables the
//! `dcp_bench::experiments` sweeps return at one batch per configuration.

use dcp::baselines::Baseline;
use dcp::core::{Planner, PlannerConfig};
use dcp::mask::MaskSpec;
use dcp::obs::{to_chrome_trace, Phase};
use dcp::sched::PlanReport;
use dcp::sim::{ascii_gantt, simulate, trace_to_obs, FaultSpec, SimRun, TraceKind};
use dcp::types::{AttnSpec, ClusterSpec};
use dcp_bench::experiments;
use serde_json::Value;

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

/// The `column` cells of `dataset`'s rows of a sweep table, in sweep order.
fn column(table: &Value, dataset: &str, column: &str) -> Vec<f64> {
    let rows = table.as_array().expect("a table");
    rows.iter()
        .filter(|row| row["dataset"] == dataset)
        .map(|row| {
            row[column]
                .as_str()
                .expect("a cell")
                .parse()
                .expect("a number")
        })
        .collect()
}

fn non_decreasing(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] <= w[1])
}

#[test]
fn fig05_the_mixed_configuration_beats_pure_cp_and_pure_dp() {
    let table = experiments::fig05_motivating();
    let rows = table.as_array().expect("a table");
    let [cp, dp, mixed, planner] =
        ["(a) pure CP", "(b) pure DP", "(c) mixed", "planner"].map(|c| {
            let config = |row: &&Value| row["config"].as_str().is_some_and(|n| n.starts_with(c));
            rows.iter().find(config).expect("a configuration")
        });
    let num = |row: &Value, key: &str| row[key].as_f64().expect("a number");
    assert!(
        num(mixed, "comm_bytes") < num(cp, "comm_bytes"),
        "{table:?}"
    );
    assert!(num(mixed, "imbalance") < num(dp, "imbalance"), "{table:?}");
    assert!(num(planner, "sim_ms") <= num(cp, "sim_ms"), "{table:?}");
}

#[test]
fn fig07_dcp_sends_no_redundant_kv_block_and_ring_attention_does() {
    let table = experiments::fig07_redundant_comm();
    assert_eq!(table["dcp"]["redundant"].as_u64(), Some(0), "{table:?}");
    assert!(table["ring"]["redundant"].as_u64() >= Some(1), "{table:?}");
}

/// On LongDataCollections only: at one batch LongAlign's lambda plan at
/// window 16384 (attended fraction 0.991) moves more bytes than its causal
/// plan, so its column falls.
#[test]
fn fig19_comm_does_not_fall_as_the_lambda_window_grows() {
    let table = experiments::fig19_comm_vs_sparsity(1);
    let comm = column(&table, "LongDataCollections", "DCP_comm_MiB");
    assert_eq!(comm.len(), 7);
    assert!(non_decreasing(&comm), "{comm:?}");
}

#[test]
fn fig20_looser_epsilon_trades_balance_for_comm() {
    let table = experiments::fig20_comm_vs_epsilon(1);
    for dataset in ["LongAlign", "LongDataCollections"] {
        let mut comm = column(&table, dataset, "DCP_comm_MiB");
        let imbalance = column(&table, dataset, "comp_imbalance");
        assert_eq!(comm.len(), 5);
        comm.reverse();
        assert!(
            non_decreasing(&comm),
            "{dataset}: comm rises with ε: {comm:?}"
        );
        assert!(non_decreasing(&imbalance), "{dataset}: {imbalance:?}");
    }
}

#[test]
fn fig21_dcp_loss_curves_coincide_with_dense() {
    let curves = experiments::loss_curves();
    let diffs = curves.iter().flat_map(|(_, dense, planned)| {
        assert_eq!(dense.len(), planned.len());
        dense.iter().zip(planned).map(|(a, b)| (a - b).abs())
    });
    let worst = diffs.fold(0.0f32, f32::max);
    assert!(worst < 1e-2, "max |DCP - dense| loss {worst}");
}
