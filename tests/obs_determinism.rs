//! Observability determinism regression: the unified event stream must be
//! *identical up to span durations* at every `RAYON_NUM_THREADS`. Identity
//! covers everything else — `seq` (arrival order at the sink), source,
//! kind, name, iteration, device, phase, division, label, bytes, flops and
//! values — so this pins both what is emitted and the order it arrives in.
//!
//! The workload exercises every emitting layer: the planner (stage spans,
//! cache counters), the look-ahead dataloader (which replays worker-side
//! planner summaries serially on the consumer thread), the numeric
//! executor's instruction spans and buffer gauges, and the adapted
//! simulator timeline.
//!
//! Everything lives in a single `#[test]` because `RAYON_NUM_THREADS` is
//! process-global state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dcp::blocks::TokenBlockId;
use dcp::core::{DcpDataloader, IncrementalConfig, PlanFn, Planner, PlannerConfig, RetryConfig};
use dcp::data::Batch;
use dcp::exec::{execute_backward_obs, execute_forward_obs, BatchData, ExecObs};
use dcp::mask::MaskSpec;
use dcp::obs::{
    critical_path, identities, AnalysisScope, Attribution, Event, ObsHandle, ObsSink, Phase,
    RecordingSink,
};
use dcp::sim::{simulate, trace_to_obs, FaultSpec};
use dcp::types::{AttnSpec, ClusterSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The `determinism.rs` skewed batch (one long sequence, many short ones).
fn skewed_batch() -> Vec<(u32, MaskSpec)> {
    let mut seqs = vec![(768u32, MaskSpec::Causal)];
    for i in 0..12u32 {
        let len = 64 + 32 * (i % 5);
        seqs.push((
            len,
            MaskSpec::Lambda {
                sink: 4,
                window: 24,
            },
        ));
    }
    seqs
}

/// A second batch with a distinct signature, so loader runs never depend on
/// racy plan-cache hits between concurrent look-ahead workers.
fn plain_batch() -> Vec<(u32, MaskSpec)> {
    (0..8u32)
        .map(|i| (128 + 64 * (i % 3), MaskSpec::Causal))
        .collect()
}

fn planner_cfg() -> PlannerConfig {
    PlannerConfig {
        block_size: 128,
        ..Default::default()
    }
}

/// Runs the full instrumented pipeline once and returns the captured
/// stream: direct planner pass, look-ahead loader over two distinct
/// batches, executor forward + backward, simulated forward phase.
fn capture() -> Vec<Event> {
    let cluster = ClusterSpec::p4de(1);
    let attn = AttnSpec::new(4, 2, 16, 1);
    let sink = Arc::new(RecordingSink::new());
    let handle = ObsHandle::new(sink.clone());

    // 1. Planner, called directly on this thread.
    let planner = Planner::new(cluster.clone(), attn, planner_cfg()).with_obs(handle.clone());
    let out = planner
        .plan_for_iter(&skewed_batch(), Some(0))
        .expect("plan");

    // 2. Look-ahead dataloader: worker-side planner summaries are replayed
    //    serially on the consumer thread.
    let loader_planner = Planner::new(cluster.clone(), attn, planner_cfg());
    let batches = vec![
        Batch {
            seqs: skewed_batch(),
        },
        Batch {
            seqs: plain_batch(),
        },
    ];
    let loader = DcpDataloader::new(loader_planner, batches, 2).with_obs(handle.clone());
    for item in loader {
        item.expect("loader yields");
    }

    // 3. Executor: per-instruction spans from the serial interpreter loop,
    //    buffer gauges after each phase.
    let data = BatchData::random(&out.layout, 2024);
    let (qh, _) = BatchData::head_counts(&out.layout);
    let dim = out.layout.attn.head_dim as usize;
    let mut d_o = HashMap::new();
    let mut rng = SmallRng::seed_from_u64(99);
    for (i, tb) in out.layout.token_blocks.iter().enumerate() {
        let v: Vec<f32> = (0..tb.len as usize * qh * dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        d_o.insert(TokenBlockId(i as u32), v);
    }
    let eo = ExecObs::new(sink.as_ref()).with_iter(0);
    let fwd =
        execute_forward_obs(&out.layout, &out.placement, &out.plan, &data, &eo).expect("forward");
    execute_backward_obs(
        &out.layout,
        &out.placement,
        &out.plan,
        &data,
        &fwd,
        &d_o,
        &eo,
    )
    .expect("backward");

    // 4. Simulator timeline, adapted into the same stream.
    let trace = simulate(&cluster, &out.plan.fwd, &FaultSpec::none())
        .expect("simulate")
        .trace;
    sink.record_all(trace_to_obs(&trace, Phase::Fwd, Some(0)));

    sink.drain()
}

/// FNV-1a hash of [`executor_identity_hash`] on [`capture`]'s scenario,
/// computed at the commit before the executor moved onto the shared stream
/// walker (`dcp_sched::stream`), and again once the division scheduler cut
/// divisions by cost (the executor runs different divisions of the same
/// placement).
const EXECUTOR_IDENTITY_GOLDEN: u64 = 12_862_022_340_069_716_229;

/// FNV-1a over the identity of every executor event, in stream order: name,
/// device, phase, division, comm id, bytes, flops, value bits and `seq`.
fn executor_identity_hash(events: &[Event]) -> u64 {
    let executor = events
        .iter()
        .filter(|e| e.source == dcp::obs::Source::Executor);
    fnv1a(executor.map(|e| {
        format!(
            "{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}\n",
            e.name,
            e.kind,
            e.device,
            e.phase,
            e.division,
            e.comm,
            e.bytes,
            e.flops,
            e.value.map(f64::to_bits),
            e.seq
        )
    }))
}

/// FNV-1a over the bytes of `lines`, in order.
fn fnv1a(lines: impl Iterator<Item = String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.flat_map(String::into_bytes) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a of the `Debug` form of every event's identity in
/// [`planner_capture`]'s stream, computed at the commit before the planner's
/// stages moved onto `dcp_obs::Span`: same events, labels, `iter` stamps and
/// order. Re-pinned when the greedy/static fallback chain went, to the hash
/// the commit before that gave for the same capture without its
/// ε-infeasible plan. Re-pinned once more when the identical replay moved
/// ahead of block generation: the replay now emits its `near_hit` counter
/// alone, with no `block_gen` and no `warm_seed` span; every other event is
/// unchanged.
const PLANNER_IDENTITY_GOLDEN: u64 = 1_177_305_725_659_634_487;

/// Every way a `plan()` call can end, in a fixed order on one sink: cold
/// plan, exact hit, identical replay, warm drift accepted, and warm drift
/// rejected (so planned cold).
fn planner_capture() -> Vec<Event> {
    let sink = Arc::new(RecordingSink::new());
    let handle = ObsHandle::new(sink.clone());
    let mk = |cfg: PlannerConfig| {
        Planner::new(ClusterSpec::p4de(2), AttnSpec::new(4, 2, 16, 1), cfg).with_obs(handle.clone())
    };
    let warm_cfg = |max_regression: f64| PlannerConfig {
        plan_cache: 0,
        incremental: IncrementalConfig {
            enabled: true,
            max_regression,
        },
        ..planner_cfg()
    };
    let base = skewed_batch();
    // Same block counts and masks, different lengths: a near hit.
    let drifted: Vec<(u32, MaskSpec)> = base.iter().map(|(l, m)| (l - 3, m.clone())).collect();

    let cached = mk(planner_cfg());
    let cold = cached.plan_for_iter(&base, Some(0)).expect("cold");
    assert!(!cold.stats.cache_hit && !cold.stats.near_hit);
    let hit = cached.plan_for_iter(&base, Some(1)).expect("exact hit");
    assert!(hit.stats.cache_hit);

    let warm = mk(warm_cfg(1.25));
    warm.plan_for_iter(&base, Some(2)).expect("seed");
    let replay = warm.plan_for_iter(&base, Some(3)).expect("replay");
    assert!(replay.stats.near_hit && replay.stats.schedule_s == 0.0);
    let drift = warm.plan_for_iter(&drifted, Some(4)).expect("drift");
    assert!(drift.stats.near_hit && drift.stats.schedule_s > 0.0);

    let strict = mk(warm_cfg(1e-9));
    strict.plan_for_iter(&base, Some(5)).expect("seed");
    let rejected = strict.plan_for_iter(&drifted, Some(6)).expect("rejected");
    assert!(!rejected.stats.near_hit && strict.near_cache_stats().0 == 1);

    sink.drain()
}

/// FNV-1a of the `Debug` form of every event's identity in
/// [`loader_capture`]'s stream, computed before the dataloader's ready and
/// in-flight queues became one queue of slots: same events, labels, `iter`
/// stamps, values and order.
const LOADER_IDENTITY_GOLDEN: u64 = 11_735_128_561_842_565_593;

/// Every way the look-ahead loader hands out a batch, on one sink: planned
/// by a worker, drained into memory by a snapshot and served from a
/// restore, and re-planned on the consumer thread after its worker
/// panicked. Four distinct batches, so no plan depends on which worker
/// reached the shared plan cache first.
fn loader_capture() -> Vec<Event> {
    let sink = Arc::new(RecordingSink::new());
    let handle = ObsHandle::new(sink.clone());
    let planner = Planner::new(
        ClusterSpec::p4de(1),
        AttnSpec::new(4, 2, 16, 1),
        planner_cfg(),
    );
    let shifted = |seqs: Vec<(u32, MaskSpec)>| -> Vec<(u32, MaskSpec)> {
        seqs.into_iter().map(|(l, m)| (l + 32, m)).collect()
    };
    let doomed = shifted(plain_batch());
    let batches: Vec<Batch> = [
        skewed_batch(),
        plain_batch(),
        shifted(skewed_batch()),
        doomed.clone(),
    ]
    .into_iter()
    .map(|seqs| Batch { seqs })
    .collect();
    // The last batch's first plan panics: its worker dies and the loader
    // re-plans it on the consumer thread.
    let panicked = AtomicBool::new(false);
    let plan_fn: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| {
        if seqs == doomed.as_slice() && !panicked.swap(true, Ordering::SeqCst) {
            panic!("planned to fail once");
        }
        planner.plan(seqs)
    });
    let retry = RetryConfig {
        backoff: Duration::ZERO,
        ..RetryConfig::default()
    };
    let loader = |obs: &ObsHandle| {
        DcpDataloader::with_plan_fn(Arc::clone(&plan_fn), batches.clone(), 1, retry)
            .with_obs(obs.clone())
    };
    let mut first = loader(&handle);
    first.next().expect("a batch").expect("planned");
    let snap = first.snapshot();
    assert_eq!(snap.planned.len(), 1);
    drop(first);
    let mut resumed = loader(&handle).restore(&snap);
    for item in resumed.by_ref() {
        item.expect("loader yields");
    }
    assert_eq!(resumed.replans(), 1);
    sink.drain()
}

fn planner_identity_hash(events: &[Event]) -> u64 {
    fnv1a(identities(events).iter().map(|e| format!("{e:?}\n")))
}

#[test]
fn event_stream_is_identical_across_thread_counts() {
    let saved = std::env::var("RAYON_NUM_THREADS").ok();

    let mut streams = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        streams.push((threads, capture()));
        assert_eq!(
            planner_identity_hash(&planner_capture()),
            PLANNER_IDENTITY_GOLDEN,
            "the planner's event identity stream changed (RAYON_NUM_THREADS={threads})"
        );
        assert_eq!(
            planner_identity_hash(&loader_capture()),
            LOADER_IDENTITY_GOLDEN,
            "the dataloader's event identity stream changed (RAYON_NUM_THREADS={threads})"
        );
    }
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }

    let (_, base) = &streams[0];
    assert!(
        base.len() > 100,
        "expected a substantial stream, got {} events",
        base.len()
    );
    // All four sources present.
    for source in [
        dcp::obs::Source::Planner,
        dcp::obs::Source::Dataloader,
        dcp::obs::Source::Executor,
        dcp::obs::Source::Sim,
    ] {
        assert!(
            base.iter().any(|e| e.source == source),
            "no events from {source:?}"
        );
    }

    // The executor's slice of the stream is pinned across refactors, not
    // just across thread counts: same spans, same order, same payloads.
    assert_eq!(
        executor_identity_hash(base),
        EXECUTOR_IDENTITY_GOLDEN,
        "the executor's forward+backward event identity stream changed"
    );

    let base_ids = identities(base);
    for (threads, stream) in &streams[1..] {
        assert_eq!(
            stream.len(),
            base.len(),
            "event count differs at RAYON_NUM_THREADS={threads}"
        );
        let ids = identities(stream);
        for (i, (a, b)) in base_ids.iter().zip(ids.iter()).enumerate() {
            assert_eq!(
                a, b,
                "event {i} differs at RAYON_NUM_THREADS={threads} (seq/order/payload \
                 must not depend on thread count)"
            );
        }
    }

    // Critical-path analysis over the simulated slice must be *bitwise*
    // identical at every thread count: same makespan bits, same bucket
    // bits, same path. The sim timeline is bitwise deterministic and the
    // walk is serial, so any divergence here is an analysis-order bug.
    let attribute = |events: &[Event]| -> Attribution {
        critical_path(events, &AnalysisScope::sim(Phase::Fwd))
    };
    let base_attr = attribute(base);
    assert!(
        base_attr.makespan > 0.0 && !base_attr.steps.is_empty(),
        "the sim slice must yield a non-trivial critical path"
    );
    assert!(base_attr.sums_to_makespan(1e-6));
    let base_json = serde_json::to_string(&base_attr).expect("attribution serializes");
    for (threads, stream) in &streams[1..] {
        let attr = attribute(stream);
        assert_eq!(
            attr.makespan.to_bits(),
            base_attr.makespan.to_bits(),
            "makespan bits differ at RAYON_NUM_THREADS={threads}"
        );
        for (a, b, what) in [
            (attr.compute, base_attr.compute, "compute"),
            (attr.exposed_comm, base_attr.exposed_comm, "exposed_comm"),
            (attr.wait, base_attr.wait, "wait"),
            (attr.straggle, base_attr.straggle, "straggle"),
            (attr.recovery, base_attr.recovery, "recovery"),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what} bits differ at RAYON_NUM_THREADS={threads}"
            );
        }
        let json = serde_json::to_string(&attr).expect("attribution serializes");
        assert_eq!(
            json, base_json,
            "full attribution differs at RAYON_NUM_THREADS={threads}"
        );
    }

    // Sanity on the identity contract itself: durations are excluded.
    let with_time = Event::span(dcp::obs::Source::Executor, "attn").with_time(1.0, 2.0);
    assert_eq!(with_time.identity(), with_time.identity());
    assert_eq!(with_time.identity().start_s, 0.0);
    assert_eq!(with_time.identity().dur_s, 0.0);
}
