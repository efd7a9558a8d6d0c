//! `dcpctl` — command-line driver for the DCP stack.
//!
//! ```text
//! dcpctl gen-workload --dataset ldc --batches 2 --budget 131072 --mask lambda --out w.json
//! dcpctl plan      --workload w.json --nodes 2 [--block 1024] [--out plan.json]
//! dcpctl simulate  --workload w.json --nodes 2 [--trace trace.json] [--gantt]
//! dcpctl compare   --workload w.json --nodes 4
//! ```
//!
//! Workload files are JSON: `{ "attn": {...}, "batches": [[[len, mask], ...], ...] }`.

use std::collections::HashMap;
use std::process::ExitCode;

use dcp::baselines::Baseline;
use dcp::core::{Planner, PlannerConfig};
use dcp::data::{pack_batches, sample_lengths, DatasetKind, MaskSetting};
use dcp::mask::MaskSpec;
use dcp::obs::{to_chrome_trace, Phase};
use dcp::sim::{ascii_gantt, simulate, simulate_plan, trace_to_obs, FaultSpec};
use dcp::types::{AttnSpec, ClusterSpec};
use serde::{Deserialize, Serialize};

#[derive(Debug, Serialize, Deserialize)]
struct Workload {
    attn: AttnSpec,
    batches: Vec<Vec<(u32, MaskSpec)>>,
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                i += 1;
                args[i].clone()
            } else {
                String::from("true")
            };
            flags.insert(name.to_string(), value);
        }
        i += 1;
    }
    flags
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dcpctl <gen-workload|plan|simulate|compare> [flags]\n\
         \n\
         gen-workload  --dataset <longalign|ldc> --batches N --budget TOKENS\n\
         \u{20}             --mask <causal|lambda|causal_blockwise|shared_question>\n\
         \u{20}             [--scale F] [--seed N] --out FILE\n\
         plan          --workload FILE --nodes N [--block B] [--out FILE]\n\
         simulate      --workload FILE --nodes N [--block B] [--trace FILE] [--gantt]\n\
         compare       --workload FILE --nodes N [--block B]"
    );
    ExitCode::from(2)
}

fn load_workload(flags: &HashMap<String, String>) -> Result<Workload, String> {
    let path = flags.get("workload").ok_or("missing --workload")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn cluster_of(flags: &HashMap<String, String>) -> Result<ClusterSpec, String> {
    let nodes: u32 = flags
        .get("nodes")
        .ok_or("missing --nodes")?
        .parse()
        .map_err(|e| format!("--nodes: {e}"))?;
    Ok(ClusterSpec::p4de(nodes.max(1)))
}

fn planner_of(
    flags: &HashMap<String, String>,
    cluster: &ClusterSpec,
    attn: AttnSpec,
) -> Result<Planner, String> {
    let block: u32 = flags
        .get("block")
        .map(|b| b.parse())
        .transpose()
        .map_err(|e| format!("--block: {e}"))?
        .unwrap_or(1024);
    Ok(Planner::new(
        cluster.clone(),
        attn,
        PlannerConfig {
            block_size: block,
            ..Default::default()
        },
    ))
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), String> {
    let dataset = match flags.get("dataset").map(String::as_str) {
        Some("longalign") => DatasetKind::LongAlign,
        Some("ldc") | None => DatasetKind::LongDataCollections,
        Some(other) => return Err(format!("unknown dataset {other}")),
    };
    let mask = match flags.get("mask").map(String::as_str) {
        Some("causal") | None => MaskSetting::Causal,
        Some("lambda") => MaskSetting::Lambda,
        Some("causal_blockwise") => MaskSetting::CausalBlockwise,
        Some("shared_question") => MaskSetting::SharedQuestion,
        Some(other) => return Err(format!("unknown mask {other}")),
    };
    let n: usize = flags
        .get("batches")
        .map_or(Ok(1), |v| v.parse())
        .map_err(|e| format!("--batches: {e}"))?;
    let budget: u64 = flags
        .get("budget")
        .map_or(Ok(131_072), |v| v.parse())
        .map_err(|e| format!("--budget: {e}"))?;
    let scale: f64 = flags
        .get("scale")
        .map_or(Ok(1.0), |v| v.parse())
        .map_err(|e| format!("--scale: {e}"))?;
    let seed: u64 = flags
        .get("seed")
        .map_or(Ok(7), |v| v.parse())
        .map_err(|e| format!("--seed: {e}"))?;
    let out = flags.get("out").ok_or("missing --out")?;

    let lengths = sample_lengths(dataset, n * 64, scale, budget as u32, seed);
    let batches: Vec<Vec<(u32, MaskSpec)>> = pack_batches(&lengths, budget, |l| mask.mask_for(l))
        .into_iter()
        .take(n)
        .map(|b| b.seqs)
        .collect();
    let w = Workload {
        attn: AttnSpec::paper_micro(),
        batches,
    };
    std::fs::write(out, serde_json::to_string_pretty(&w).expect("serializable"))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} batches to {out}", w.batches.len());
    Ok(())
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), String> {
    let w = load_workload(flags)?;
    let cluster = cluster_of(flags)?;
    let planner = planner_of(flags, &cluster, w.attn)?;
    for (i, batch) in w.batches.iter().enumerate() {
        let out = planner.plan(batch).map_err(|e| e.to_string())?;
        println!(
            "batch {i}: {} seqs, {} tokens -> {} comp blocks, comm {:.1} MiB, planned in {:.1} ms",
            batch.len(),
            out.layout.total_tokens(),
            out.layout.comp_blocks.len(),
            out.plan.total_comm_bytes() as f64 / (1 << 20) as f64,
            out.times.total() * 1e3
        );
        if let Some(path) = flags.get("out") {
            let path = if w.batches.len() == 1 {
                path.clone()
            } else {
                format!("{path}.{i}")
            };
            std::fs::write(&path, out.plan.to_json().map_err(|e| e.to_string())?)
                .map_err(|e| format!("write {path}: {e}"))?;
            println!("  plan written to {path}");
        }
    }
    Ok(())
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let w = load_workload(flags)?;
    let cluster = cluster_of(flags)?;
    let planner = planner_of(flags, &cluster, w.attn)?;
    for (i, batch) in w.batches.iter().enumerate() {
        let out = planner.plan(batch).map_err(|e| e.to_string())?;
        let sim = simulate_plan(&cluster, &out.plan).map_err(|e| e.to_string())?;
        println!(
            "batch {i}: attention fwd {:.3} ms, bwd {:.3} ms (max exposed wait {:.3} ms)",
            sim.fwd.makespan * 1e3,
            sim.bwd.makespan * 1e3,
            (sim.fwd.max_exposed() + sim.bwd.max_exposed()) * 1e3
        );
        let fwd_trace = || {
            simulate(&cluster, &out.plan.fwd, &FaultSpec::none())
                .map(|run| run.trace)
                .map_err(|e| e.to_string())
        };
        if flags.contains_key("gantt") {
            print!("{}", ascii_gantt(&fwd_trace()?, 100));
        }
        if let Some(path) = flags.get("trace") {
            let trace = fwd_trace()?;
            let path = if w.batches.len() == 1 {
                path.clone()
            } else {
                format!("{path}.{i}")
            };
            std::fs::write(
                &path,
                to_chrome_trace(&trace_to_obs(&trace, Phase::Fwd, None)),
            )
            .map_err(|e| format!("write {path}: {e}"))?;
            println!("  chrome trace written to {path} (open in chrome://tracing)");
        }
    }
    Ok(())
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), String> {
    let w = load_workload(flags)?;
    let cluster = cluster_of(flags)?;
    let planner = planner_of(flags, &cluster, w.attn)?;
    println!(
        "{:<16} {:>10} {:>10} {:>12}",
        "system", "fwd_ms", "bwd_ms", "comm_MiB"
    );
    for (i, batch) in w.batches.iter().enumerate() {
        println!("--- batch {i} ({} seqs) ---", batch.len());
        let out = planner.plan(batch).map_err(|e| e.to_string())?;
        let sim = simulate_plan(&cluster, &out.plan).map_err(|e| e.to_string())?;
        println!(
            "{:<16} {:>10.3} {:>10.3} {:>12.1}",
            "dcp",
            sim.fwd.makespan * 1e3,
            sim.bwd.makespan * 1e3,
            out.plan.total_comm_bytes() as f64 / (1 << 20) as f64
        );
        let causal_only = batch.iter().all(|(_, m)| matches!(m, MaskSpec::Causal));
        let mut baselines = vec![
            Baseline::RfaRing,
            Baseline::RfaZigzag,
            Baseline::TransformerEngine { head_groups: 2 },
        ];
        if causal_only {
            baselines.push(Baseline::LoongTrain {
                head_groups: 2,
                inner_ring: 1,
            });
        }
        for b in baselines {
            match b.build(w.attn, cluster.num_devices(), 256, batch) {
                Ok(o) => {
                    let s = simulate_plan(&cluster, &o.plan).map_err(|e| e.to_string())?;
                    println!(
                        "{:<16} {:>10.3} {:>10.3} {:>12.1}",
                        b.name(),
                        s.fwd.makespan * 1e3,
                        s.bwd.makespan * 1e3,
                        o.plan.total_comm_bytes() as f64 / (1 << 20) as f64
                    );
                }
                Err(e) => println!("{:<16} unsupported: {e}", b.name()),
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let flags = parse_flags(&args[1..]);
    let result = match cmd.as_str() {
        "gen-workload" => cmd_gen(&flags),
        "plan" => cmd_plan(&flags),
        "simulate" => cmd_simulate(&flags),
        "compare" => cmd_compare(&flags),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dcpctl {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
