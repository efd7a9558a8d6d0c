//! `ledger --selftest`: do two sets of runs of the same code agree within
//! the benchmark's own bounds? And `ledger --table`: the combined table of
//! the last plain and traced runs.
//!
//! The self-test runs set A and set B of every workload interleaved
//! (A₁B₁A₂B₂A₃B₃), each run a child process of this binary, and fails when
//! the per-set medians of any end-to-end metric differ by more than that
//! metric's bound, or when anything that must repeat exactly does not.

use std::process::Command;

use serde_json::Value;

use crate::contract::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::inputs::Kind;
use crate::stats::median;

/// Runs of each set per workload.
const REPS: usize = 3;

/// One child run: its result line and its detail line, parsed.
struct Run {
    result: Value,
    detail: Value,
}

fn child(kind: Kind, seed: u64) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parse = |line: Option<&str>, what: &str| {
        line.ok_or_else(|| format!("{}: run printed no {what}", kind.name()))
            .and_then(|l| serde_json::from_str::<Value>(l).map_err(|e| format!("{what}: {e}")))
    };
    let run = Run {
        result: parse(stdout.lines().last(), "result line")?,
        detail: parse(
            stdout
                .lines()
                .find_map(|l| l.strip_prefix("LEDGER_DETAIL ")),
            "detail line",
        )?,
    };
    if !out.status.success() || run.result["correct"].as_bool() != Some(true) {
        return Err(format!(
            "{}: run failed its checks: {}",
            kind.name(),
            text(&run.detail["failures"])
        ));
    }
    Ok(run)
}

fn text(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

fn metric(run: &Run, name: &str) -> f64 {
    run.result["metrics"][name]["value"]
        .as_f64()
        .unwrap_or(f64::NAN)
}

/// Runs the self-test; returns the process exit code.
pub fn run(seed: u64) -> i32 {
    let mut breaches: Vec<String> = Vec::new();
    for kind in Kind::ALL {
        let mut sets: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
        for rep in 0..REPS {
            for (set, runs) in sets.iter_mut().enumerate() {
                match child(kind, seed) {
                    Ok(r) => {
                        println!(
                            "{} {}{} tokens_per_s {:.1} (as timed {:.1}) setup_s {:.4} peak_rss_mb {:.1} host.round_spread {:.4} scaled {:.4}",
                            kind.name(),
                            ["A", "B"][set],
                            rep + 1,
                            metric(&r, "tokens_per_s"),
                            r.detail["tokens_per_s_as_timed"].as_f64().unwrap_or(f64::NAN),
                            metric(&r, "setup_s"),
                            metric(&r, "peak_rss_mb"),
                            r.detail["host.round_spread"].as_f64().unwrap_or(f64::NAN),
                            r.detail["scaled_round_spread"].as_f64().unwrap_or(f64::NAN),
                        );
                        runs.push(r);
                    }
                    Err(e) => {
                        println!("{e}");
                        breaches.push(e);
                    }
                }
            }
        }
        if sets.iter().any(|s| s.len() < REPS) {
            continue;
        }
        for (name, _, better, bound) in END_TO_END {
            let med =
                |runs: &[Run]| median(&runs.iter().map(|r| metric(r, name)).collect::<Vec<_>>());
            let (a, b) = (med(&sets[0]), med(&sets[1]));
            // Same code on both sides: neither may be worse than the other.
            let diff = (a - b).abs() / a.min(b);
            // NaN (a metric a run did not print) is a breach too.
            let agree = diff.is_finite() && diff <= bound;
            let verdict = if agree { "ok" } else { "BREACH" };
            println!(
                "{:<14} {:<22} A {:>16.6} B {:>16.6} differ {:.4} bound {:.2} ({better} is better) {verdict}",
                kind.name(),
                name,
                a,
                b,
                diff,
                bound
            );
            if !agree {
                breaches.push(format!(
                    "{}/{name}: sets differ by {diff:.4} > {bound}",
                    kind.name()
                ));
            }
        }
        let all: Vec<&Run> = sets.iter().flatten().collect();
        let exact = |what: &str, get: &dyn Fn(&Run) -> String| {
            let first = get(all[0]);
            all.iter()
                .any(|r| get(r) != first)
                .then(|| format!("{}/{what} did not repeat exactly", kind.name()))
        };
        breaches.extend(
            [
                exact("sim_iter_ms", &|r| {
                    metric(r, "sim_iter_ms").to_bits().to_string()
                }),
                exact("comm_bytes_per_token", &|r| {
                    metric(r, "comm_bytes_per_token").to_bits().to_string()
                }),
                exact("inputs_hash", &|r| text(&r.detail["inputs_hash"])),
                exact("plans_hash", &|r| text(&r.detail["plans_hash"])),
                exact("round_hash", &|r| text(&r.detail["round_hash"])),
                exact("counts", &|r| text(&r.detail["counts"])),
            ]
            .into_iter()
            .flatten(),
        );
    }
    if breaches.is_empty() {
        println!("selftest: two sets of runs of the same code agree within the bounds");
        0
    } else {
        for b in &breaches {
            println!("selftest breach: {b}");
        }
        1
    }
}

fn load(name: &str) -> Option<Value> {
    let text = std::fs::read_to_string(crate::out_dir().join(name)).ok()?;
    serde_json::from_str(&text).ok()
}

/// Prints every metric of the last plain and traced run of each workload,
/// one column per workload; returns the process exit code.
pub fn table() -> i32 {
    let names = Kind::ALL.map(Kind::name);
    println!(
        "{:<34} {:<9} {}",
        "metric",
        "unit",
        names.map(|n| format!("{n:>16}")).join(" ")
    );
    let mut missing = false;
    let mut rows = |suffix: &str, metrics: Vec<(&str, &str)>| {
        let docs: Vec<Option<Value>> = names
            .iter()
            .map(|n| load(&format!("{n}{suffix}.json")))
            .collect();
        missing |= docs.iter().any(Option::is_none);
        for (name, unit) in metrics {
            let cells: Vec<String> = docs
                .iter()
                .map(|d| {
                    d.as_ref()
                        .and_then(|d| d["result"]["metrics"][name]["value"].as_f64())
                        .map_or_else(|| format!("{:>16}", "-"), |v| format!("{v:>16.6}"))
                })
                .collect();
            println!("{name:<34} {unit:<9} {}", cells.join(" "));
        }
    };
    rows("", END_TO_END.iter().map(|m| (m.0, m.1)).collect());
    rows(".traced", PER_LAYER.iter().map(|m| (m.0, m.1)).collect());
    if missing {
        println!("(a '-' column has no run in benchmark/out yet)");
    }
    0
}
