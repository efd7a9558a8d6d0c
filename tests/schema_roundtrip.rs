//! Serde round-trip regression for every report struct that reaches a
//! machine-readable artifact (`BENCH_*.json`, `TRACE_e2e.json`, figure
//! JSON). The contract: serialize → deserialize must reproduce the value
//! exactly. Because the vendored serde derive treats *missing* fields as
//! errors for non-`Option` types, adding a field to any of these structs
//! breaks deserialization of old documents — which is exactly the loud
//! schema drift the versioned reports are designed to surface.

use std::fmt::Debug;

use dcp::core::{
    simulate_iteration_with_recovery, E2eConfig, FailureClass, PlanStats, Planner, PlannerConfig,
    PlanningTimes, ReplanEvent,
};
use dcp::mask::MaskSpec;
use dcp::obs::{Event, Phase, Source};
use dcp::sched::{DivisionReport, PlanReport};
use dcp::sim::{simulate_plan, Fault, FaultSpec, TraceEvent, TraceKind};
use dcp::types::{AttnSpec, ClusterSpec};
use serde::{Deserialize, Serialize};

/// Serialize → deserialize → compare, through both a JSON string and a
/// `serde_json::Value` (the path the report binaries use).
fn roundtrip<T>(val: &T)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let text = serde_json::to_string(val).expect("serialize");
    let back: T = serde_json::from_str(&text).expect("deserialize");
    assert_eq!(&back, val, "JSON string round-trip changed the value");
    let value = serde_json::to_value(val).expect("to_value");
    let back: T = serde_json::from_value(&value).expect("from_value");
    assert_eq!(&back, val, "Value round-trip changed the value");
}

/// One small planned workload shared by the structural tests.
fn plan_small() -> dcp::core::PlanOutput {
    let planner = Planner::new(
        ClusterSpec::p4de(1),
        AttnSpec::new(4, 2, 16, 1),
        PlannerConfig {
            block_size: 128,
            ..Default::default()
        },
    );
    planner
        .plan(&[(768, MaskSpec::Causal), (256, MaskSpec::Causal)])
        .expect("plan")
}

#[test]
fn plan_report_structs_roundtrip() {
    let out = plan_small();
    let report = PlanReport::from_phase(&out.plan.fwd);
    assert!(!report.devices.is_empty());
    assert!(report.divisions.iter().any(|d| !d.is_empty()));
    roundtrip(&report);
    roundtrip(&report.devices[0]);
    let div: &DivisionReport = report
        .divisions
        .iter()
        .flatten()
        .next()
        .expect("at least one division");
    roundtrip(div);
}

#[test]
fn planner_stats_roundtrip() {
    let out = plan_small();
    roundtrip(&out.stats);
    roundtrip(&out.times);
    // Defaults too: all-zero values must not serialize differently.
    roundtrip(&PlanStats::default());
    roundtrip(&PlanningTimes::default());
}

#[test]
fn dataloader_events_roundtrip() {
    for failure in [
        FailureClass::WorkerDied,
        FailureClass::Timeout,
        FailureClass::PlanError,
    ] {
        roundtrip(&failure);
        roundtrip(&ReplanEvent {
            batch_index: 3,
            failure,
            attempts: 2,
            recovered: failure != FailureClass::PlanError,
            recovery_wall_s: 0.125,
        });
    }
}

#[test]
fn e2e_breakdown_roundtrip() {
    let cfg = E2eConfig {
        model: dcp::types::ModelSpec::gpt_8b(),
        tp: 1,
        cluster: ClusterSpec::p4de(1),
    };
    let out = plan_small();
    let sim = simulate_plan(&cfg.cluster, &out.plan).expect("simulate");
    let max_tokens = *out.placement.token_loads(&out.layout).iter().max().unwrap();
    let it =
        simulate_iteration_with_recovery(&cfg, &sim, max_tokens, out.layout.total_tokens(), 0.25);
    assert_eq!(it.recovery, 0.25);
    roundtrip(&it);
}

#[test]
fn sim_structs_roundtrip() {
    let out = plan_small();
    let sim = simulate_plan(&ClusterSpec::p4de(1), &out.plan).expect("simulate");
    roundtrip(&sim);
    roundtrip(&sim.fwd);
    roundtrip(&sim.fwd.devices[0]);
    roundtrip(&TraceEvent {
        device: 2,
        kind: TraceKind::Transfer { from: 1 },
        start: 0.5e-3,
        end: 0.9e-3,
    });
    roundtrip(&FaultSpec {
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
            Fault::DelayedStart {
                device: 2,
                delay_s: 1e-3,
            },
        ],
    });
}

#[test]
fn pass_pipeline_structs_roundtrip() {
    use dcp::sched::{PassConfig, PassManager, PassOutcome};

    roundtrip(&PassConfig::default());
    roundtrip(&PassConfig::optimize());
    roundtrip(&PassOutcome::default());

    // Real outcomes from a planner run with passes enabled, and the
    // `PlanOutput.passes` field they land in.
    let planner = Planner::new(
        ClusterSpec::p4de(1),
        AttnSpec::new(4, 2, 16, 1),
        PlannerConfig {
            block_size: 128,
            passes: PassConfig::optimize(),
            ..Default::default()
        },
    );
    let out = planner
        .plan(&[(768, MaskSpec::Causal), (256, MaskSpec::Causal)])
        .expect("plan");
    for outcome in &out.passes {
        roundtrip(outcome);
    }

    // Outcomes from a direct PassManager run round-trip too.
    let mut opt = out.plan.clone();
    let outcomes =
        PassManager::new(PassConfig::optimize()).run_plan(&out.layout, &out.placement, &mut opt);
    assert_eq!(outcomes.len(), 2, "one rewrite over two phases");
    for outcome in &outcomes {
        roundtrip(outcome);
    }
}

#[test]
fn obs_events_roundtrip() {
    let span = Event::span(Source::Executor, "attn")
        .with_iter(4)
        .with_device(3)
        .with_phase(Phase::Bwd)
        .with_division(2)
        .with_label("tier partitioned")
        .with_bytes(4096)
        .with_flops(1 << 20)
        .with_time(0.25, 0.125);
    roundtrip(&span);
    roundtrip(&Event::counter(Source::Planner, "plan_cache_hit", 1.0));
    roundtrip(&Event::gauge(Source::Executor, "peak_buffer_bytes", 2048.0).with_device(1));
    roundtrip(&Event::span(Source::Executor, "comm_launch").with_comm(17));
    // Identity (timing-stripped) events serialize cleanly too.
    roundtrip(&span.identity());
}

#[test]
fn trace_analysis_structs_roundtrip() {
    use dcp::obs::{critical_path, AnalysisScope};
    use dcp::sim::{simulate, trace_to_obs};

    let out = plan_small();
    let cluster = ClusterSpec::p4de(1);
    let spec = FaultSpec {
        seed: 7,
        faults: vec![Fault::Straggler {
            device: 0,
            slowdown: 4.0,
        }],
    };
    let trace = simulate(&cluster, &out.plan.fwd, &spec).expect("sim").trace;
    let events = trace_to_obs(&trace, Phase::Fwd, Some(0));

    // Attribution (with its nested path steps and per-device rows).
    let attr = critical_path(&events, &AnalysisScope::sim(Phase::Fwd));
    assert!(attr.makespan > 0.0);
    roundtrip(&attr);
    roundtrip(&attr.per_device[0]);
    roundtrip(&attr.steps[0]);
}

/// A `PlanOutput` serialized while a mask was one `RangePair` per token
/// (`{"len", "ranges"}`; the fixture is PR 18's output for this batch, 8
/// devices, 16-token blocks) still deserializes: its masks are compressed
/// into the runs `instantiate` builds today, its layout and placement are
/// what the same batch gets today (its divisions are the scheduler's of
/// then, and still a legal plan), and written back it is the run form.
#[test]
fn plan_output_with_per_token_masks_still_deserializes() {
    let seqs = [
        (
            96,
            MaskSpec::Lambda {
                sink: 3,
                window: 20,
            },
        ),
        (40, MaskSpec::Causal),
    ];
    let text = include_str!("fixtures/plan_output_per_token_masks.json");
    assert!(text.contains(r#""ranges":[{"a":[0,1],"b":null}"#));
    let old: dcp::core::PlanOutput = serde_json::from_str(text).expect("old form deserializes");
    for ((len, spec), mask) in seqs.iter().zip(&old.layout.masks) {
        assert_eq!(mask, &spec.instantiate(*len).unwrap());
    }

    let planner = Planner::new(
        ClusterSpec::p4de(1),
        AttnSpec::new(4, 2, 16, 1),
        PlannerConfig {
            block_size: 16,
            ..Default::default()
        },
    );
    let new = planner.plan(&seqs).expect("plan");
    assert_eq!(new.layout.comp_blocks, old.layout.comp_blocks);
    assert_eq!(new.placement, old.placement);
    dcp::sched::verify_plan(&old.layout, &old.placement, &old.plan).expect("old plan verifies");

    let rewritten = serde_json::to_string(&old).unwrap();
    assert!(rewritten.contains(r#""runs":["#) && !rewritten.contains(r#""ranges""#));
    assert!(rewritten.len() < text.len());
    let back: dcp::core::PlanOutput = serde_json::from_str(&rewritten).unwrap();
    assert_eq!(back.layout.masks, old.layout.masks);
}

/// A retained plan is sized by its blocks, not its tokens: the paper's
/// lambda mask over one 131 072-token document at 1024-token blocks on 8
/// devices serialized to 4 290 532 bytes (4 290 563 inside a dataloader
/// snapshot) while the mask was a row per token — nineteen twentieths of it
/// rows; as runs it is 216 354.
#[test]
fn long_plan_serializes_to_under_a_tenth_of_the_per_token_form() {
    use dcp::core::DataloaderSnapshot;

    let planner = Planner::new(
        ClusterSpec::p4de(1),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 1024,
            ..Default::default()
        },
    );
    let out = planner
        .plan(&[(131_072, MaskSpec::paper_lambda())])
        .expect("plan");
    let text = serde_json::to_string(&out).unwrap();
    assert!(text.len() * 10 < 4_290_532, "plan: {} bytes", text.len());
    let back: dcp::core::PlanOutput = serde_json::from_str(&text).unwrap();
    assert_eq!(back.layout.masks, out.layout.masks);
    assert_eq!(back.plan, out.plan);

    let snapshot = DataloaderSnapshot {
        consumed: 0,
        planned: vec![(0, out)],
    };
    let json = snapshot.to_json().unwrap();
    assert!(
        json.len() * 10 < 4_290_563,
        "snapshot: {} bytes",
        json.len()
    );
    let back = DataloaderSnapshot::from_json(&json).unwrap();
    assert_eq!(
        back.planned[0].1.layout.masks,
        snapshot.planned[0].1.layout.masks
    );
}
