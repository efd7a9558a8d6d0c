//! End-to-end observability trace: runs a pinned workload through the
//! instrumented dataloader → planner → executor → simulator pipeline and
//! writes `results/TRACE_e2e.json` — a single Chrome Trace Event file
//! merging all four sources onto per-device rows, doubled as a
//! machine-readable report carrying the communication-overlap summary (the
//! fraction of transfer time hidden under compute, overall and per device,
//! from the simulator's timelines) and the attribution / blame table: on the pinned straggler
//! scenario of `tests/trace_analysis.rs`, where the critical path spends a
//! clean phase and which device and bucket the differential attribution
//! blames for the faulted one. The table is for reading; the tests judge.
//!
//! Open the trace at `chrome://tracing` or <https://ui.perfetto.dev>; the
//! planner, dataloader, executor and simulator each get their own process
//! row, devices their own thread rows (compute and `net` tracks).
//!
//! A JSONL event log (`results/TRACE_e2e.jsonl`) is written alongside from
//! the same event stream.

use std::path::Path;

use dcp_bench::{trace_doc, trace_workload, Table};
use dcp_core::{Planner, PlannerConfig};
use dcp_data::{pack_batches, sample_lengths, Batch, DatasetKind, MaskSetting};
use dcp_mask::MaskSpec;
use dcp_obs::{critical_path, diff_attribution, to_jsonl, AnalysisScope, Phase};
use dcp_sim::{simulate, trace_to_obs, Fault, FaultSpec};
use dcp_types::{AttnSpec, ClusterSpec};
use serde_json::json;

/// Fixed dataset seed (the report must be comparable across machines).
const SEED: u64 = 7;
/// Tokens per batch.
const BUDGET: u64 = 8192;
/// Maximum sequence length.
const MAX_LEN: u32 = 2048;
/// Planner block size.
const BLOCK_SIZE: u32 = 128;
/// Batches per mask setting.
const BATCHES: usize = 2;

/// One row per batch and phase of the pinned straggler scenario (p4de(1),
/// block 1024, device 0 at ×4): the clean run's critical path by bucket,
/// then the faulted makespan and whom the differential attribution blames.
fn blame_table() -> Table {
    let cluster = ClusterSpec::p4de(1);
    let cfg = PlannerConfig {
        block_size: 1024,
        ..Default::default()
    };
    let planner = Planner::new(cluster.clone(), AttnSpec::paper_micro(), cfg);
    let straggler = Fault::Straggler {
        device: 0,
        slowdown: 4.0,
    };
    let spec = FaultSpec {
        seed: SEED,
        faults: vec![straggler],
    };
    let mut table = Table::new(&[
        "batch",
        "phase",
        "clean_ms",
        "compute_ms",
        "exposed_comm_ms",
        "wait_ms",
        "faulted_ms",
        "suspect",
        "share",
        "bucket",
    ]);
    let ms = |s: f64| format!("{:.3}", s * 1e3);
    for bi in 0..BATCHES as u32 {
        let seqs = [
            (8192 + 1024 * bi, MaskSpec::Causal),
            (4096, MaskSpec::paper_lambda()),
        ];
        let out = planner.plan(&seqs).expect("pinned workload plans");
        for (phase, pp) in [(Phase::Fwd, &out.plan.fwd), (Phase::Bwd, &out.plan.bwd)] {
            let path = |spec: &FaultSpec| {
                let trace = simulate(&cluster, pp, spec).expect("simulate").trace;
                let events = trace_to_obs(&trace, phase, Some(bi as u64));
                critical_path(&events, &AnalysisScope::sim_iter(phase, bi as u64))
            };
            let (clean, faulted) = (path(&FaultSpec::none()), path(&spec));
            let delta = diff_attribution(&clean, &faulted);
            table.row(vec![
                bi.to_string(),
                phase.label().into(),
                ms(clean.makespan),
                ms(clean.compute),
                ms(clean.exposed_comm),
                ms(clean.wait),
                ms(faulted.makespan),
                delta
                    .prime_suspect
                    .map_or("-".into(), |d| format!("dev{d}")),
                format!("{:.2}", delta.suspect_share),
                delta.dominant_bucket.map_or("-", |b| b.label()).into(),
            ]);
        }
    }
    table
}

fn main() {
    let cluster = ClusterSpec::p4de(2);
    // Small operator so the f32 executor runs at a tractable scale.
    let attn = AttnSpec::new(4, 2, 16, 1);

    // Distinct masks give the trace recognizable per-iteration structure.
    let mut batches: Vec<Batch> = Vec::new();
    for mask in [MaskSetting::Causal, MaskSetting::Lambda] {
        let lengths = sample_lengths(
            DatasetKind::LongDataCollections,
            BATCHES * 64,
            1.0,
            MAX_LEN,
            SEED,
        );
        batches.extend(
            pack_batches(&lengths, BUDGET, |l| mask.mask_for(l))
                .into_iter()
                .take(BATCHES),
        );
    }
    let iters = batches.len();
    println!(
        "trace_report: p4de(2) / LongDataCollections / block {BLOCK_SIZE} / {iters} iteration(s)"
    );

    let cfg = PlannerConfig {
        block_size: BLOCK_SIZE,
        ..Default::default()
    };
    let outcome = trace_workload(&cluster, attn, &cfg, batches, true).expect("trace workload");

    let summary = outcome.overlap_summary();
    let mut table = Table::new(&["device", "comm_ms", "hidden_ms", "efficiency"]);
    for row in summary["per_device"].as_array().expect("per_device rows") {
        table.row(vec![
            row["device"].as_u64().unwrap_or(0).to_string(),
            format!("{:.3}", row["comm_s"].as_f64().unwrap_or(0.0) * 1e3),
            format!("{:.3}", row["hidden_s"].as_f64().unwrap_or(0.0) * 1e3),
            format!("{:.3}", row["efficiency"].as_f64().unwrap_or(1.0)),
        ]);
    }
    table.print();
    println!(
        "overall overlap efficiency: {:.3} ({} events captured)",
        summary["overall"].as_f64().unwrap_or(1.0),
        outcome.events.len(),
    );

    let blame = blame_table();
    println!("\nattribution and blame (p4de(1), device 0 straggling at x4):");
    blame.print();

    let doc = trace_doc(
        &outcome,
        blame.to_json(),
        json!({
            "cluster": "p4de(2)",
            "dataset": "LongDataCollections",
            "max_len": MAX_LEN,
            "budget_tokens": BUDGET,
            "block_size": BLOCK_SIZE,
            "attn": { "q_heads": 4, "kv_heads": 2, "head_dim": 16 },
            "seed": SEED,
            "iterations": iters as u64,
            "executed": true,
        }),
    );

    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("TRACE_e2e.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!(
        "[written {} — open in chrome://tracing or Perfetto]",
        path.display()
    );

    let jsonl = dir.join("TRACE_e2e.jsonl");
    std::fs::write(&jsonl, to_jsonl(&outcome.events))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", jsonl.display()));
    println!("[written {}]", jsonl.display());
}
