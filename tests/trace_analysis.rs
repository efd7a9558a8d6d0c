//! Acceptance pins for the causal trace analytics (critical-path
//! attribution) on the pinned 8-device straggler scenario of
//! `tests/robustness.rs`:
//!
//! 1. the differential critical path attributes at least half of every
//!    faulted-vs-clean makespan delta to the straggling device, and
//! 2. (property) attribution components tile the simulated makespan
//!    exactly on randomized faulted plans.

use dcp::core::{Planner, PlannerConfig};
use dcp::data::Batch;
use dcp::mask::MaskSpec;
use dcp::obs::{critical_path, diff_attribution, AnalysisScope, Event, Phase};
use dcp::sched::plan::PhasePlan;
use dcp::sim::{simulate, trace_to_obs, Fault, FaultSpec, SimRun};
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
