//! Causal trace analytics over the pinned robustness workload.
//!
//! Runs the 8-device scenario of `tests/robustness.rs` — five batches,
//! block size 1024, a ×4 straggler on device 0 plus a degraded 1→0 link —
//! twice per batch and phase: once clean, once faulted. For every traced
//! phase it
//!
//! 1. reconstructs the critical path ([`dcp_obs::critical_path`]) and
//!    checks the conservation law (bucket components tile the simulated
//!    makespan exactly),
//! 2. runs the differential attribution ([`dcp_obs::diff_attribution`])
//!    blaming the faulted-vs-clean makespan delta on a device and bucket,
//! 3. feeds the kernel timings to the online detector bank
//!    ([`dcp_obs::DetectorBank`]) — the clean runs must stay silent, the
//!    faulted runs must flag the injected straggler,
//! 4. folds the confirmed incidents into an estimated
//!    [`dcp_sim::FaultSpec`] and re-plans fault-aware, pricing the
//!    makespan recovered by the closed detection loop, and
//! 5. exercises the flight recorder: a deliberately corrupted stream is
//!    pushed through the verifier, the diagnostic instant trips the
//!    recorder, and the postmortem bundles land in
//!    `results/POSTMORTEM_*.json`.
//!
//! Writes the schema-stamped `BENCH_trace.json` consumed by the
//! `plan_gate` trace leg. `--smoke` runs two batches instead of five (the
//! CI verify job's quick end-to-end check); the document shape is
//! identical.

use std::path::Path;

use dcp_bench::{Table, BENCH_SCHEMA_VERSION};
use dcp_core::{Planner, PlannerConfig};
use dcp_data::Batch;
use dcp_mask::MaskSpec;
use dcp_obs::{
    critical_path, diff_attribution, AnalysisScope, Attribution, AttributionDelta, DetectorBank,
    DetectorConfig, Event, FlightRecorder, IncidentKind, ObsSink, Phase, RecorderConfig, Registry,
    Source,
};
use dcp_sched::plan::{Instr, PhasePlan};
use dcp_sched::{verify_phase, RecoveryCtx};
use dcp_sim::{estimate_fault_spec, simulate, trace_to_obs, Fault, FaultSpec, SimRun};
use dcp_types::{AttnSpec, ClusterSpec};

/// The pinned fault scenario (`tests/robustness.rs` faults 1 and 3).
fn faults() -> FaultSpec {
    FaultSpec {
        seed: 7,
        faults: vec![
            Fault::Straggler {
                device: 0,
                slowdown: 4.0,
            },
            Fault::DegradedLink {
                src: 1,
                dst: 0,
                factor: 0.1,
            },
        ],
    }
}

fn batches(n: usize) -> Vec<Batch> {
    (0..n as u32)
        .map(|i| Batch {
            seqs: vec![
                (8192 + 1024 * i, MaskSpec::Causal),
                (4096, MaskSpec::paper_lambda()),
            ],
        })
        .collect()
}

fn planner_with(cluster: &ClusterSpec, fault_spec: Option<FaultSpec>) -> Planner {
    Planner::new(
        cluster.clone(),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 1024,
            fault_spec,
            ..Default::default()
        },
    )
}

fn attribution_json(a: &Attribution) -> serde_json::Value {
    serde_json::json!({
        "makespan_s": a.makespan,
        "compute_s": a.compute,
        "exposed_comm_s": a.exposed_comm,
        "wait_s": a.wait,
        "straggle_s": a.straggle,
        "recovery_s": a.recovery,
        "residual_s": a.residual(),
        "path_steps": a.steps.len(),
        "per_device": a.per_device.iter().map(|d| serde_json::json!({
            "device": d.device,
            "total_s": d.total(),
            "compute_s": d.compute,
            "exposed_comm_s": d.exposed_comm,
            "wait_s": d.wait,
            "straggle_s": d.straggle,
        })).collect::<Vec<_>>(),
    })
}

fn delta_json(d: &AttributionDelta) -> serde_json::Value {
    serde_json::json!({
        "makespan_delta_s": d.makespan_delta,
        "compute_delta_s": d.compute_delta,
        "exposed_comm_delta_s": d.exposed_comm_delta,
        "wait_delta_s": d.wait_delta,
        "straggle_delta_s": d.straggle_delta,
        "recovery_delta_s": d.recovery_delta,
        "prime_suspect": d.prime_suspect,
        "suspect_share": d.suspect_share,
        "dominant_bucket": d.dominant_bucket.map(|b| b.label()),
    })
}

/// Corrupts `phase` so the stream verifier must reject it: the first
/// `CommWait` found is deleted, leaving a later instruction reading data
/// that never arrives (or an unwaited launch).
fn corrupt_phase(phase: &PhasePlan) -> Option<PhasePlan> {
    let mut bad = phase.clone();
    for dev in &mut bad.devices {
        if let Some(pos) = dev
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::CommWait(_)))
        {
            dev.instrs.remove(pos);
            return Some(bad);
        }
    }
    None
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let num_batches = if smoke { 2 } else { 5 };
    let cluster = ClusterSpec::p4de(1);
    let spec = faults();
    let straggler_dev = 0u32;

    let planner = planner_with(&cluster, None);
    let bs = batches(num_batches);
    println!(
        "trace_analyze: {} batches on {} devices ({})",
        bs.len(),
        cluster.num_devices(),
        if smoke { "smoke" } else { "full" }
    );

    let mut clean_bank = DetectorBank::new(DetectorConfig::default());
    let mut fault_bank = DetectorBank::new(DetectorConfig::default());
    let recorder = FlightRecorder::new(RecorderConfig::default());
    let mut registry = Registry::new();

    let mut runs = Vec::new();
    let mut table = Table::new(&[
        "batch",
        "phase",
        "clean ms",
        "faulted ms",
        "delta ms",
        "suspect",
        "share",
    ]);
    let mut max_residual_rel: f64 = 0.0;
    let mut all_sum_ok = true;
    let mut suspect_share_min = f64::INFINITY;
    let mut suspect_hits = 0usize;
    let mut total_runs = 0usize;
    let mut naive_faulted_makespans = Vec::new();
    let mut plans = Vec::new();

    for (bi, batch) in bs.iter().enumerate() {
        let out = planner.plan(&batch.seqs).expect("pinned workload plans");
        for (phase, pp) in [(Phase::Fwd, &out.plan.fwd), (Phase::Bwd, &out.plan.bwd)] {
            let backward = phase == Phase::Bwd;
            let clean = simulate(&cluster, pp, &FaultSpec::none()).expect("clean sim");
            let faulted = simulate(&cluster, pp, &spec).expect("faulted sim");
            let (clean_sim, clean_trace) = (clean.sim, clean.trace);
            let (fault_sim, fault_trace) = (faulted.sim, faulted.trace);
            let clean_ev = trace_to_obs(&clean_trace, phase, Some(bi as u64));
            let fault_ev = trace_to_obs(&fault_trace, phase, Some(bi as u64));

            let scope = AnalysisScope::sim_iter(phase, bi as u64);
            let clean_attr = critical_path(&clean_ev, &scope);
            let fault_attr = critical_path(&fault_ev, &scope);
            for (attr, sim, what) in [
                (&clean_attr, &clean_sim, "clean"),
                (&fault_attr, &fault_sim, "faulted"),
            ] {
                let rel = attr.residual().abs() / sim.makespan.max(1e-15);
                max_residual_rel = max_residual_rel.max(rel);
                if !attr.sums_to_makespan(1e-6) || (attr.makespan - sim.makespan).abs() > 1e-9 {
                    all_sum_ok = false;
                    eprintln!(
                        "trace_analyze: conservation violated on batch {bi} {} {what}: \
                         components {:.9}s vs makespan {:.9}s (sim {:.9}s)",
                        phase.label(),
                        attr.components_total(),
                        attr.makespan,
                        sim.makespan,
                    );
                }
            }

            let delta = diff_attribution(&clean_attr, &fault_attr);
            total_runs += 1;
            if delta.prime_suspect == Some(straggler_dev) {
                suspect_hits += 1;
            }
            suspect_share_min = suspect_share_min.min(delta.suspect_share);

            clean_bank.ingest(&clean_ev);
            fault_bank.ingest(&fault_ev);
            registry.merge(&Registry::from_events(&fault_ev)).unwrap();
            recorder.record_all(fault_ev.clone());
            if backward {
                naive_faulted_makespans.push(fault_sim.makespan);
            }

            table.row(vec![
                format!("{bi}"),
                phase.label().into(),
                format!("{:.3}", clean_attr.makespan * 1e3),
                format!("{:.3}", fault_attr.makespan * 1e3),
                format!("{:.3}", delta.makespan_delta * 1e3),
                delta
                    .prime_suspect
                    .map_or("-".into(), |d| format!("dev{d}")),
                format!("{:.2}", delta.suspect_share),
            ]);
            runs.push(serde_json::json!({
                "batch": bi,
                "phase": phase.label(),
                "clean": attribution_json(&clean_attr),
                "faulted": attribution_json(&fault_attr),
                "delta": delta_json(&delta),
            }));
        }
        plans.push(out);
    }
    table.print();

    // Online detection: clean runs must stay silent; faulted runs must
    // flag the injected straggler.
    let clean_incidents = clean_bank.incidents();
    let fault_incidents = fault_bank.incidents();
    let straggler = fault_incidents.iter().find_map(|i| match &i.kind {
        IncidentKind::Straggler { device, slowdown } if *device == straggler_dev => {
            Some((*slowdown, i.at_s, i.samples, i.score))
        }
        _ => None,
    });
    println!(
        "trace_analyze: detector incidents — clean {}, faulted {} (straggler flagged: {})",
        clean_incidents.len(),
        fault_incidents.len(),
        straggler.is_some(),
    );
    for i in &fault_incidents {
        recorder.note_incident(i.clone());
    }

    // Closed loop: estimated FaultSpec -> fault-aware re-plan -> the same
    // faults sting less. Compared on the backward phase (the heavier one).
    let estimated = estimate_fault_spec(&fault_incidents, spec.seed);
    let aware = planner_with(&cluster, Some(estimated.clone()));
    let mut aware_faulted_makespans = Vec::new();
    for batch in &bs {
        let out = aware.plan(&batch.seqs).expect("fault-aware plan");
        let SimRun { sim, .. } = simulate(&cluster, &out.plan.bwd, &spec).expect("aware sim");
        aware_faulted_makespans.push(sim.makespan);
    }
    let naive_mean = dcp_bench::mean(&naive_faulted_makespans);
    let aware_mean = dcp_bench::mean(&aware_faulted_makespans);
    println!(
        "trace_analyze: faulted bwd makespan — fault-naive {:.3}ms, fault-aware {:.3}ms ({:+.1}%)",
        naive_mean * 1e3,
        aware_mean * 1e3,
        (aware_mean / naive_mean - 1.0) * 100.0,
    );

    // Flight recorder: corrupt batch 0's forward streams, push the wreck
    // through the verifier, and let the diagnostic instant trip a dump.
    let out0 = &plans[0];
    let diag = corrupt_phase(&out0.plan.fwd)
        .and_then(|bad| {
            verify_phase(
                &out0.layout,
                &out0.placement,
                &bad,
                false,
                &RecoveryCtx::default(),
            )
            .err()
        })
        .expect("corrupted stream must be rejected by the verifier");
    println!("trace_analyze: forced verifier diagnostic: {diag}");
    let mut ev = Event::instant(Source::Planner, "verify_diagnostic").with_label(diag.to_string());
    if let Some(d) = diag.device {
        ev = ev.with_device(d);
    }
    recorder.record(ev);

    let bundle_count = recorder.pending();
    let paths = recorder
        .write_all(Path::new("results"))
        .expect("postmortem bundles write");
    let mut bundle_files = Vec::new();
    let mut bundles_valid = bundle_count > 0;
    for p in &paths {
        let text = std::fs::read_to_string(p).expect("bundle readable");
        let bundle: dcp_obs::PostmortemBundle = serde_json::from_str(&text).expect("bundle parses");
        if let Err(e) = bundle.validate() {
            bundles_valid = false;
            eprintln!("trace_analyze: invalid bundle {}: {e}", p.display());
        }
        bundle_files.push(p.display().to_string());
        println!("trace_analyze: wrote {}", p.display());
    }

    // Duration histograms accumulated over every faulted phase.
    let mut histograms = serde_json::Map::new();
    for key in registry.histogram_keys().collect::<Vec<_>>() {
        let h = registry.histogram(key).unwrap();
        histograms.insert(
            key.to_string(),
            serde_json::json!({
                "count": h.count(),
                "sum_s": h.sum(),
                "p50_s": h.quantile(0.5),
                "p90_s": h.quantile(0.9),
                "p99_s": h.quantile(0.99),
            }),
        );
    }

    let report = serde_json::json!({
        "schema_version": BENCH_SCHEMA_VERSION,
        "workload": {
            "devices": cluster.num_devices(),
            "batches": bs.len(),
            "block_size": 1024,
            "smoke": smoke,
            "faults": {
                "straggler_device": straggler_dev,
                "straggler_slowdown": 4.0,
                "degraded_link": [1, 0, 0.1],
                "seed": spec.seed,
            },
        },
        "attribution": {
            "runs": runs,
            "sums_to_makespan": all_sum_ok,
            "max_residual_rel": max_residual_rel,
        },
        "differential": {
            "runs_total": total_runs,
            "prime_suspect_hits": suspect_hits,
            "suspect_share_min": suspect_share_min,
        },
        "detection": {
            "clean_incidents": clean_incidents.len(),
            "faulted_incidents": fault_incidents.len(),
            "straggler_flagged": straggler.is_some(),
            "straggler": straggler.map(|(slowdown, at_s, samples, score)| serde_json::json!({
                "estimated_slowdown": slowdown,
                "at_s": at_s,
                "samples": samples,
                "score": score,
            })),
            "estimated_fault_spec": serde_json::to_value(&estimated).unwrap(),
        },
        "replan": {
            "faulted_bwd_makespan_naive_s": naive_mean,
            "faulted_bwd_makespan_aware_s": aware_mean,
            "improvement": 1.0 - aware_mean / naive_mean,
        },
        "flight_recorder": {
            "trigger": "verify_diagnostic",
            "bundles": bundle_files,
            "valid": bundles_valid,
        },
        "histograms": histograms,
    });
    std::fs::write(
        "BENCH_trace.json",
        serde_json::to_string_pretty(&report).unwrap(),
    )
    .expect("BENCH_trace.json writes");
    println!("trace_analyze: wrote BENCH_trace.json");

    if !all_sum_ok {
        eprintln!("trace_analyze: FAIL: attribution components do not sum to the makespan");
        std::process::exit(1);
    }
}
