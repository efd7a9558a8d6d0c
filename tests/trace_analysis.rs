//! Acceptance pins for the causal trace analytics (critical-path
//! attribution, online detection, flight recorder) on the pinned 8-device
//! straggler scenario of `tests/robustness.rs`:
//!
//! 1. the streaming detector flags the injected ×4 straggler and raises
//!    zero false positives on the clean runs,
//! 2. the differential critical path attributes at least half of every
//!    faulted-vs-clean makespan delta to the straggling device,
//! 3. a forced verifier diagnostic trips the flight recorder and the
//!    resulting postmortem bundle validates and contains the triggering
//!    event, and
//! 4. (property) attribution components tile the simulated makespan
//!    exactly on randomized faulted plans.

use dcp::core::{Planner, PlannerConfig};
use dcp::data::Batch;
use dcp::mask::MaskSpec;
use dcp::obs::{
    critical_path, diff_attribution, AnalysisScope, DetectorBank, DetectorConfig, Event,
    FlightRecorder, IncidentKind, ObsSink, Phase, PostmortemBundle, RecorderConfig, Source,
};
use dcp::sched::plan::{Instr, PhasePlan};
use dcp::sched::{verify_phase, RecoveryCtx};
use dcp::sim::{estimate_fault_spec, simulate, trace_to_obs, Fault, FaultSpec, SimRun};
use dcp::types::{AttnSpec, ClusterSpec};
use proptest::prelude::*;

/// The `tests/robustness.rs` planner: 8 devices, paper-micro attention,
/// 1024-token blocks.
fn planner() -> Planner {
    Planner::new(
        ClusterSpec::p4de(1),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 1024,
            ..Default::default()
        },
    )
}

/// The `tests/robustness.rs` batches.
fn batches() -> Vec<Batch> {
    (0..5)
        .map(|i| Batch {
            seqs: vec![
                (8192 + 1024 * i, MaskSpec::Causal),
                (4096, MaskSpec::paper_lambda()),
            ],
        })
        .collect()
}

/// The injected straggler: device 0, ×4 (faults 1 of the robustness
/// scenario; the degraded link is exercised by the property test).
fn straggler_spec() -> FaultSpec {
    FaultSpec {
        seed: 7,
        faults: vec![Fault::Straggler {
            device: 0,
            slowdown: 4.0,
        }],
    }
}

/// Simulates one phase clean and faulted, returning both adapted event
/// streams.
fn traces(
    cluster: &ClusterSpec,
    pp: &PhasePlan,
    phase: Phase,
    iter: u64,
    spec: &FaultSpec,
) -> (Vec<Event>, Vec<Event>) {
    let clean = simulate(cluster, pp, &FaultSpec::none())
        .expect("clean sim")
        .trace;
    let faulted = simulate(cluster, pp, spec).expect("faulted sim").trace;
    (
        trace_to_obs(&clean, phase, Some(iter)),
        trace_to_obs(&faulted, phase, Some(iter)),
    )
}

#[test]
fn detector_flags_straggler_with_zero_clean_false_positives() {
    let cluster = ClusterSpec::p4de(1);
    let p = planner();
    let spec = straggler_spec();
    let mut clean_bank = DetectorBank::new(DetectorConfig::default());
    let mut fault_bank = DetectorBank::new(DetectorConfig::default());

    for (bi, batch) in batches().iter().enumerate() {
        let out = p.plan(&batch.seqs).expect("plan");
        for (phase, pp) in [(Phase::Fwd, &out.plan.fwd), (Phase::Bwd, &out.plan.bwd)] {
            let (clean_ev, fault_ev) = traces(&cluster, pp, phase, bi as u64, &spec);
            clean_bank.ingest(&clean_ev);
            fault_bank.ingest(&fault_ev);
        }
    }

    assert!(
        clean_bank.incidents().is_empty(),
        "false positives on the clean runs: {:?}",
        clean_bank.incidents()
    );
    let straggler = fault_bank
        .incidents()
        .iter()
        .find_map(|i| match i.kind {
            IncidentKind::Straggler { device, slowdown } => Some((device, slowdown)),
            _ => None,
        })
        .expect("the injected straggler must be flagged");
    assert_eq!(straggler.0, 0, "wrong device blamed");
    assert!(
        (2.5..=6.0).contains(&straggler.1),
        "estimated slowdown {} is far from the injected 4.0",
        straggler.1
    );

    // The estimated spec closes the loop: it names the injected fault.
    let est = estimate_fault_spec(&fault_bank.incidents(), 7);
    assert!(est.faults.iter().any(|f| matches!(
        f,
        Fault::Straggler { device: 0, slowdown } if (2.5..=6.0).contains(slowdown)
    )));
}

#[test]
fn differential_attributes_majority_of_delta_to_straggler() {
    let cluster = ClusterSpec::p4de(1);
    let p = planner();
    let spec = straggler_spec();
    let mut runs = 0usize;
    let mut prime_hits = 0usize;

    for (bi, batch) in batches().iter().enumerate() {
        let out = p.plan(&batch.seqs).expect("plan");
        for (phase, pp) in [(Phase::Fwd, &out.plan.fwd), (Phase::Bwd, &out.plan.bwd)] {
            let (clean_ev, fault_ev) = traces(&cluster, pp, phase, bi as u64, &spec);
            let scope = AnalysisScope::sim_iter(phase, bi as u64);
            let clean = critical_path(&clean_ev, &scope);
            let faulted = critical_path(&fault_ev, &scope);
            for attr in [&clean, &faulted] {
                assert!(
                    attr.sums_to_makespan(1e-6),
                    "components {} != makespan {} (batch {bi} {})",
                    attr.components_total(),
                    attr.makespan,
                    phase.label()
                );
            }
            let delta = diff_attribution(&clean, &faulted);
            assert!(
                delta.makespan_delta > 0.0,
                "a ×4 straggler must stretch the makespan (batch {bi} {})",
                phase.label()
            );
            // The acceptance criterion: at least half of the
            // faulted-vs-clean makespan delta lands on the straggling
            // device, every run.
            let dev0_delta = delta
                .per_device
                .iter()
                .find(|d| d.device == 0)
                .map_or(0.0, |d| d.delta);
            assert!(
                dev0_delta >= 0.5 * delta.makespan_delta,
                "batch {bi} {}: device 0 carries only {:.3}ms of a {:.3}ms delta ({:?})",
                phase.label(),
                dev0_delta * 1e3,
                delta.makespan_delta * 1e3,
                delta.per_device
            );
            runs += 1;
            if delta.prime_suspect == Some(0) {
                prime_hits += 1;
            }
        }
    }
    // Second-order shifts may occasionally crown a downstream device by a
    // hair, but the straggler must be the prime suspect on a clear
    // majority of runs.
    assert!(
        prime_hits * 2 > runs,
        "straggler was prime suspect on only {prime_hits}/{runs} runs"
    );
}

#[test]
fn forced_verifier_diagnostic_dumps_valid_postmortem() {
    let cluster = ClusterSpec::p4de(1);
    let p = planner();
    let out = p.plan(&batches()[0].seqs).expect("plan");

    // Context for the ring: the faulted forward timeline.
    let (_, fault_ev) = traces(&cluster, &out.plan.fwd, Phase::Fwd, 0, &straggler_spec());
    let recorder = FlightRecorder::new(RecorderConfig::default());
    recorder.record_all(fault_ev);

    // Corrupt the forward streams (drop the first CommWait) and push the
    // wreck through the verifier.
    let mut bad = out.plan.fwd.clone();
    let dev = bad
        .devices
        .iter_mut()
        .find(|d| d.instrs.iter().any(|i| matches!(i, Instr::CommWait(_))))
        .expect("the pinned plan communicates");
    let pos = dev
        .instrs
        .iter()
        .position(|i| matches!(i, Instr::CommWait(_)))
        .unwrap();
    dev.instrs.remove(pos);
    let diag = verify_phase(
        &out.layout,
        &out.placement,
        &bad,
        false,
        &RecoveryCtx::default(),
    )
    .expect_err("a dropped CommWait must be rejected");

    assert_eq!(recorder.pending(), 0);
    recorder
        .record(Event::instant(Source::Planner, "verify_diagnostic").with_label(diag.to_string()));
    assert_eq!(
        recorder.pending(),
        1,
        "the diagnostic instant must trigger a dump"
    );

    let dir = std::env::temp_dir().join(format!("dcp_trace_analysis_{}", std::process::id()));
    let paths = recorder.write_all(&dir).expect("bundles write");
    assert_eq!(paths.len(), 1);
    let text = std::fs::read_to_string(&paths[0]).expect("bundle readable");
    let bundle: PostmortemBundle = serde_json::from_str(&text).expect("bundle parses");
    bundle.validate().expect("bundle validates");
    assert_eq!(bundle.trigger, "verify_diagnostic");
    assert_eq!(bundle.trigger_event.name, "verify_diagnostic");
    assert_eq!(
        bundle.trigger_event.label.as_deref(),
        Some(diag.to_string()).as_deref()
    );
    assert!(
        bundle.events.iter().any(|e| e.name == "verify_diagnostic"),
        "the triggering event must be inside the ring snapshot"
    );
    // The ring context (sim spans) made it into the bundle too.
    assert!(bundle.events.iter().any(|e| e.source == Source::Sim));
    std::fs::remove_dir_all(&dir).ok();
}

/// Randomized batches and fault cocktails: the five attribution
/// components must tile the simulated makespan exactly, both phases.
fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        (0u32..8, 10u32..80).prop_map(|(device, tenths)| Fault::Straggler {
            device,
            slowdown: f64::from(tenths) / 10.0,
        }),
        (0u32..8, 1u32..8, 5u32..100).prop_map(|(src, off, pct)| Fault::DegradedLink {
            src,
            dst: (src + off) % 8,
            factor: f64::from(pct) / 100.0,
        }),
        (0u32..8, 1u32..8).prop_map(|(src, off)| Fault::FailedLink {
            src,
            dst: (src + off) % 8,
        }),
        (0u32..8, 1u32..50).prop_map(|(device, ticks)| Fault::DelayedStart {
            device,
            delay_s: f64::from(ticks) * 1e-5,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn attribution_components_sum_to_makespan_on_random_faulted_plans(
        long in 2048u32..10240,
        short in 512u32..4096,
        faults in proptest::collection::vec(arb_fault(), 0..4),
        seed in 0u64..1000,
    ) {
        let cluster = ClusterSpec::p4de(1);
        let p = planner();
        let out = p.plan(&[(long, MaskSpec::Causal), (short, MaskSpec::paper_lambda())])
            .expect("plan");
        let spec = FaultSpec { seed, faults };
        for (phase, pp) in [(Phase::Fwd, &out.plan.fwd), (Phase::Bwd, &out.plan.bwd)] {
            let SimRun { sim, trace, .. } = simulate(&cluster, pp, &spec).expect("sim");
            let ev = trace_to_obs(&trace, phase, None);
            let attr = critical_path(&ev, &AnalysisScope::sim(phase));
            prop_assert!((attr.makespan - sim.makespan).abs() <= 1e-9 * sim.makespan.max(1e-12),
                "analysis makespan {} != simulated {}", attr.makespan, sim.makespan);
            prop_assert!(attr.sums_to_makespan(1e-6),
                "components {} != makespan {} ({} steps, residual {})",
                attr.components_total(), attr.makespan, attr.steps.len(), attr.residual());
        }
    }
}
