//! Cluster-scaling evidence: plan latency, plan quality and simulator
//! throughput from 16 to 1024 devices across fabric topologies.
//!
//! For every `(devices, topology)` point — flat two-tier p4de, rail-optimized
//! NICs, and a 4x-oversubscribed leaf/spine fabric — the sweep plans a
//! workload whose token budget grows linearly with the cluster (fixed
//! per-device load, the standard weak-scaling regime) and reports:
//!
//! - **cold plan latency** (median over fresh planners with the plan cache
//!   disabled — no warm-start, no memoization),
//! - **plan quality vs. the flat-topology oracle**: the makespan of a plan
//!   produced by a topology-blind planner, simulated on the *true* fabric,
//!   divided by the topology-aware plan's makespan (>= 1 means awareness
//!   won),
//! - **simulated makespan** and **simulator event throughput**
//!   (events/second of wall time) for the forward phase.
//!
//! The `sim_engine` section re-simulates the sweep's largest plan under both
//! network engines — the incremental dirty-component allocator and the
//! retained per-event scratch water-fill — and records agreement and speedup.
//!
//! Two of the wall times taken here have no ledger row yet, so this binary
//! is their judge (DESIGN.md §5): it exits 1 when a 1024-device cold plan
//! takes [`COLD_PLAN_1024_MAX_S`] or longer, or the incremental engine is
//! under [`ENGINE_MIN_SPEEDUP`] times the scratch one or off its makespan by
//! [`ENGINE_MAX_REL_ERR`] or more.
//!
//! Writes `BENCH_scaling.json` (at the repo root, a CI artifact) and the
//! table to `results/scaling_report.json`.
//!
//! Usage: `scaling_report [--smoke]` — `--smoke` keeps the full 16→1024
//! device coverage but runs one planning rep per point instead of five.

use std::time::Instant;

use dcp_bench::{median, micro_attn, write_results, Table, SEED};
use dcp_core::{PlanOutput, Planner, PlannerConfig};
use dcp_data::{sample_batches, DatasetKind, MaskSetting};
use dcp_mask::MaskSpec;
use dcp_sim::network::Network;
use dcp_sim::{simulate, simulate_on, FaultSpec, SimRun};
use dcp_types::ClusterSpec;

/// Weak-scaling token budget per device.
const TOKENS_PER_DEVICE: u64 = 2048;
/// Longest single sequence in any sweep batch. Capped at 64k so the causal
/// comp-block count (quadratic in per-sequence blocks) stays planning-bound
/// rather than graph-construction-bound at 1024 devices.
const MAX_LEN: u32 = 65_536;
/// A 1024-device cold plan (median over the reps) takes less than this.
const COLD_PLAN_1024_MAX_S: f64 = 2.0;
/// The incremental network engine is at least this much faster than the
/// scratch water-fill on the sweep's largest plan…
const ENGINE_MIN_SPEEDUP: f64 = 5.0;
/// …and their makespans agree to within this relative error.
const ENGINE_MAX_REL_ERR: f64 = 1e-9;

/// One weak-scaled batch for a cluster of `devices` GPUs.
fn batch_for(devices: u32) -> Vec<(u32, MaskSpec)> {
    let budget = devices as u64 * TOKENS_PER_DEVICE;
    let max_len = MAX_LEN.min(budget as u32);
    let kind = DatasetKind::LongAlign;
    let mut batches = sample_batches(kind, 1, 1.0, max_len, budget, MaskSetting::Causal, SEED);
    batches.pop().expect("one batch").seqs
}

fn planner_cfg(devices: u32) -> PlannerConfig {
    PlannerConfig {
        // Coarser blocks at scale keep the hypergraph tractable — the same
        // knob the paper turns for its largest contexts.
        block_size: if devices >= 256 { 2048 } else { 1024 },
        plan_cache: 0,
        ..Default::default()
    }
}

/// Cold-plans `batch` on `cluster` `reps` times with fresh planners,
/// returning the per-rep wall seconds and the (deterministic) plan.
fn cold_plan(
    cluster: &ClusterSpec,
    batch: &[(u32, MaskSpec)],
    reps: usize,
) -> (Vec<f64>, PlanOutput) {
    let cfg = planner_cfg(cluster.num_devices());
    let mut walls = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let planner = Planner::new(cluster.clone(), micro_attn(), cfg.clone());
        let t = Instant::now();
        out = Some(planner.plan(batch).expect("plan"));
        walls.push(t.elapsed().as_secs_f64());
    }
    (walls, out.expect("reps >= 1"))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 5 };
    let attn_note = "paper_micro GQA 8Q/2KV d=128";

    let mut table = Table::new(&[
        "devices",
        "topology",
        "plan_ms",
        "oracle_ratio",
        "makespan_ms",
        "sim_events",
        "sim_kev_per_s",
    ]);
    let mut sweep = Vec::new();
    let mut violations = Vec::new();
    let mut largest: Option<(ClusterSpec, PlanOutput, String)> = None;

    for nodes in [2u32, 8, 32, 128] {
        let devices = nodes * 8;
        let batch = batch_for(devices);
        let nodes_per_leaf = if nodes >= 4 { 4 } else { 2 };
        let topologies: Vec<(&str, ClusterSpec)> = vec![
            ("flat", ClusterSpec::p4de(nodes)),
            ("rail", ClusterSpec::p4de_rail(nodes)),
            (
                "spine4x",
                ClusterSpec::p4de_spine(nodes, nodes_per_leaf, 4.0),
            ),
        ];
        // The flat plan doubles as every topology's blind oracle.
        let (flat_walls, flat_out) = cold_plan(&topologies[0].1, &batch, reps);
        for (name, cluster) in &topologies {
            let (walls, out) = if *name == "flat" {
                (flat_walls.clone(), flat_out.clone())
            } else {
                cold_plan(cluster, &batch, reps)
            };
            let plan_s = median(&walls);
            if devices == 1024 && plan_s >= COLD_PLAN_1024_MAX_S {
                violations.push(format!(
                    "1024-device/{name} cold plan median {plan_s:.2}s, not under \
                     {COLD_PLAN_1024_MAX_S}s"
                ));
            }

            let t = Instant::now();
            let SimRun { sim, counters, .. } =
                simulate(cluster, &out.plan.fwd, &FaultSpec::none()).expect("simulate");
            let sim_wall = t.elapsed().as_secs_f64();
            let events_per_s = counters.events as f64 / sim_wall.max(1e-12);

            // Oracle: the topology-blind plan, paid for on the true fabric.
            let oracle_ratio = if *name == "flat" {
                1.0
            } else {
                let oracle = simulate(cluster, &flat_out.plan.fwd, &FaultSpec::none());
                oracle.expect("oracle sim").sim.makespan / sim.makespan
            };

            table.row(vec![
                devices.to_string(),
                name.to_string(),
                format!("{:.1}", plan_s * 1e3),
                format!("{oracle_ratio:.3}"),
                format!("{:.2}", sim.makespan * 1e3),
                counters.events.to_string(),
                format!("{:.0}", events_per_s / 1e3),
            ]);
            sweep.push(serde_json::json!({
                "devices": devices,
                "nodes": nodes,
                "topology": name,
                "tiers": cluster.tiers().len() + 2,
                "batch_seqs": batch.len() as u64,
                "batch_tokens": batch.iter().map(|(l, _)| *l as u64).sum::<u64>(),
                "plan_wall_s": walls,
                "plan_wall_s_median": plan_s,
                "plan_tier": out.tier.label(),
                "oracle_makespan_ratio": oracle_ratio,
                "makespan_s": sim.makespan,
                "total_comm_bytes": out.plan.total_comm_bytes(),
                "comm_bytes_by_tier": out.plan.comm_bytes_by_tier(cluster),
                "sim_wall_s": sim_wall,
                "sim_events": counters.events,
                "sim_flows": counters.flows,
                "sim_events_per_s": events_per_s,
            }));
            if largest
                .as_ref()
                .is_none_or(|(c, _, _)| cluster.num_devices() >= c.num_devices())
            {
                largest = Some((cluster.clone(), out.clone(), name.to_string()));
            }
        }
    }

    // Engine A/B on the sweep's largest plan.
    let (cluster, out, topo) = largest.expect("non-empty sweep");
    let t = Instant::now();
    let none = FaultSpec::none();
    let inc = simulate(&cluster, &out.plan.fwd, &none).expect("incremental sim");
    let inc_wall = t.elapsed().as_secs_f64();
    let mut scratch = Network::new(cluster.clone());
    scratch.use_scratch_engine(true);
    let t = Instant::now();
    let scr = simulate_on(&cluster, scratch, &out.plan.fwd, &none).expect("scratch sim");
    let scr_wall = t.elapsed().as_secs_f64();
    let (inc_sim, inc_counters) = (inc.sim, inc.counters);
    let (scr_sim, scr_counters) = (scr.sim, scr.counters);
    let bitwise = inc_sim == scr_sim;
    // The scratch reference iterates fresh hash maps, so *its* tie-breaks at
    // this scale wander by an ulp run-to-run; exact bitwise agreement on the
    // flat default topology is pinned by `tests/scale.rs` instead. Here the
    // engines must agree to fp-noise tolerance.
    let rel_err = (inc_sim.makespan - scr_sim.makespan).abs() / scr_sim.makespan.max(1e-300);
    let speedup = scr_wall / inc_wall.max(1e-12);
    if rel_err >= ENGINE_MAX_REL_ERR {
        violations.push(format!(
            "engines diverged: incremental makespan {} vs scratch {} (rel err {rel_err:.3e})",
            inc_sim.makespan, scr_sim.makespan
        ));
    }
    if speedup < ENGINE_MIN_SPEEDUP {
        violations.push(format!(
            "incremental engine only {speedup:.1}x the scratch one, under {ENGINE_MIN_SPEEDUP}x"
        ));
    }
    println!(
        "Scaling sweep (weak scaling, {TOKENS_PER_DEVICE} tokens/device, {attn_note}, \
         reps={reps}{})",
        if smoke { ", smoke" } else { "" }
    );
    table.print();
    println!(
        "\nEngine A/B on the largest plan ({} devices, {topo}): incremental {:.2}s vs \
         scratch {:.2}s = {speedup:.1}x, makespan rel err {rel_err:.2e}",
        cluster.num_devices(),
        inc_wall,
        scr_wall
    );

    let doc = serde_json::json!({
        "config": {
            "smoke": smoke,
            "reps": reps as u64,
            "tokens_per_device": TOKENS_PER_DEVICE,
            "max_len": MAX_LEN,
            "attn": attn_note,
        },
        "sweep": sweep,
        "sim_engine": {
            "devices": cluster.num_devices(),
            "topology": topo,
            "incremental_wall_s": inc_wall,
            "scratch_wall_s": scr_wall,
            "speedup": speedup,
            "bitwise_identical": bitwise,
            "makespan_rel_err": rel_err,
            "events": inc_counters.events,
            "incremental_touched_flows": inc_counters.touched_flows,
            "scratch_touched_flows": scr_counters.touched_flows,
            "incremental_events_per_s": inc_counters.events as f64 / inc_wall.max(1e-12),
            "scratch_events_per_s": scr_counters.events as f64 / scr_wall.max(1e-12),
        },
    });
    std::fs::write(
        "BENCH_scaling.json",
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .expect("write BENCH_scaling.json");
    println!("\n[scaling report written to BENCH_scaling.json]");
    write_results("scaling_report", &doc["sweep"]);
    for v in &violations {
        eprintln!("scaling_report: FAIL: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
