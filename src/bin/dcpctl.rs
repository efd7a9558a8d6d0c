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
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use dcp::baselines::Baseline;
use dcp::core::{Planner, PlannerConfig};
use dcp::data::{sample_batches, DatasetKind, MaskSetting};
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

/// Why a command stopped: a flag it cannot use (exit 2, as for a usage
/// error) or the work itself (exit 1).
enum Failure {
    Flag(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Run(e)
    }
}

/// `--name` parsed, or `default` when it is absent (`None`: required).
fn flag<T: FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: Option<T>,
) -> Result<T, Failure>
where
    T::Err: Display,
{
    match (flags.get(name), default) {
        (Some(v), _) => v
            .parse()
            .map_err(|e| Failure::Flag(format!("--{name} {v}: {e}"))),
        (None, Some(d)) => Ok(d),
        (None, None) => Err(Failure::Flag(format!("missing --{name}"))),
    }
}

/// The most batches `gen-workload` writes.
const MAX_BATCHES: usize = 100_000;
/// The most tokens `gen-workload` packs: it draws lengths until the last
/// batch closes, so its work and output grow with batches × budget.
const MAX_TOKENS: u64 = 1 << 34;

fn usage() -> ExitCode {
    eprintln!(
        "usage: dcpctl <gen-workload|plan|simulate|compare> [flags]\n\
         \n\
         gen-workload  --dataset <longalign|ldc> --batches N --budget TOKENS\n\
         \u{20}             --mask <causal|lambda|causal_blockwise|shared_question>\n\
         \u{20}             [--scale F] [--seed N] --out FILE\n\
         \u{20}             (N at most 100000, N × TOKENS at most 2^34)\n\
         plan          --workload FILE --nodes N [--block B] [--out FILE]\n\
         simulate      --workload FILE --nodes N [--block B] [--trace FILE] [--gantt]\n\
         compare       --workload FILE --nodes N [--block B]"
    );
    ExitCode::from(2)
}

fn load_workload(flags: &HashMap<String, String>) -> Result<Workload, Failure> {
    let path: String = flag(flags, "workload", None)?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    Ok(serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?)
}

/// The `--nodes` p4de cluster and the planner's block size, checked before
/// any work starts.
fn cluster_of(flags: &HashMap<String, String>) -> Result<(ClusterSpec, u32), Failure> {
    let nodes: u32 = flag(flags, "nodes", None)?;
    if nodes == 0 {
        return Err(Failure::Flag("--nodes 0: a cluster needs a node".into()));
    }
    Ok((ClusterSpec::p4de(nodes), flag(flags, "block", Some(1024))?))
}

fn planner_of(cluster: &ClusterSpec, block: u32, attn: AttnSpec) -> Planner {
    Planner::new(
        cluster.clone(),
        attn,
        PlannerConfig {
            block_size: block,
            ..Default::default()
        },
    )
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), Failure> {
    let dataset = match flags.get("dataset").map(String::as_str) {
        Some("longalign") => DatasetKind::LongAlign,
        Some("ldc") | None => DatasetKind::LongDataCollections,
        Some(other) => return Err(Failure::Flag(format!("--dataset: unknown dataset {other}"))),
    };
    let mask = match flags.get("mask").map(String::as_str) {
        Some("causal") | None => MaskSetting::Causal,
        Some("lambda") => MaskSetting::Lambda,
        Some("causal_blockwise") => MaskSetting::CausalBlockwise,
        Some("shared_question") => MaskSetting::SharedQuestion,
        Some(other) => return Err(Failure::Flag(format!("--mask: unknown mask {other}"))),
    };
    let n: usize = flag(flags, "batches", Some(1))?;
    let budget: u64 = flag(flags, "budget", Some(131_072))?;
    let scale: f64 = flag(flags, "scale", Some(1.0))?;
    let seed: u64 = flag(flags, "seed", Some(7))?;
    let out: String = flag(flags, "out", None)?;
    if !(1..=MAX_BATCHES).contains(&n) {
        return Err(Failure::Flag(format!(
            "--batches {n}: not between 1 and {MAX_BATCHES}"
        )));
    }
    // The sampler's shortest sequence is 32 tokens.
    if budget < 32 {
        return Err(Failure::Flag(format!(
            "--budget {budget}: under the 32-token shortest sequence"
        )));
    }
    if (n as u64).saturating_mul(budget) > MAX_TOKENS {
        return Err(Failure::Flag(format!(
            "--budget {budget}: {n} batches of it are over {MAX_TOKENS} tokens"
        )));
    }
    if !(scale.is_finite() && scale > 0.0) {
        return Err(Failure::Flag(format!(
            "--scale {scale}: not a positive finite factor"
        )));
    }

    // A sequence is at most the budget, and its length a u32.
    let cap = u32::try_from(budget).unwrap_or(u32::MAX);
    let batches = sample_batches(dataset, n, scale, cap, budget, mask, seed);
    let w = Workload {
        attn: AttnSpec::paper_micro(),
        batches: batches.into_iter().map(|b| b.seqs).collect(),
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&w).expect("serializable"),
    )
    .map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} batches to {out}", w.batches.len());
    Ok(())
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), Failure> {
    let (cluster, block) = cluster_of(flags)?;
    let w = load_workload(flags)?;
    let planner = planner_of(&cluster, block, w.attn);
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

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), Failure> {
    let (cluster, block) = cluster_of(flags)?;
    let w = load_workload(flags)?;
    let planner = planner_of(&cluster, block, w.attn);
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

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), Failure> {
    let (cluster, block) = cluster_of(flags)?;
    let w = load_workload(flags)?;
    let planner = planner_of(&cluster, block, w.attn);
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
    let (e, code) = match result {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Failure::Flag(e)) => (e, 2),
        Err(Failure::Run(e)) => (e, 1),
    };
    eprintln!("dcpctl {cmd}: {e}");
    ExitCode::from(code)
}
