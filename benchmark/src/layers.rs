//! The traced run: the per-layer numbers.
//!
//! Three parts, all after the same set-up and warm-up as the plain run:
//!
//! 1. **Rounds**, alternating untraced and traced for half of `--seconds`.
//!    Traced rounds record a span around every public call of the chain;
//!    the untraced ones beside them price the tracing
//!    (`trace.overhead_frac`).
//! 2. **Stages**: the chain taken apart — `BatchLayout::build` →
//!    `Planner::build_hypergraph` → `partition_with_stats` → `build_plan` →
//!    `PassManager::run_plan` → `verify_plan` → `simulate_phase_counted` —
//!    batch by batch on the set-up's placements, each call in its own span.
//! 3. **Probes** that need a second implementation or a second
//!    configuration: kernels replayed without the executor, the counting
//!    allocator, recording sinks, the cache tiers, the baselines, and the
//!    unpinned two-thread diagnostics.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dcp_baselines::Baseline;
use dcp_blocks::{BatchLayout, BlockConfig, TokenBlockId};
use dcp_core::{
    simulate_iteration, E2eConfig, IncrementalConfig, PlanOutput, Planner, PlannerConfig,
};
use dcp_exec::kernels::{attn_block_bwd, attn_block_fwd, BlockAcc, BlockArgs, BlockBwdArgs};
use dcp_exec::{execute_backward, execute_forward, execute_forward_obs, BatchData, ExecObs};
use dcp_hypergraph::{partition_warm_with_stats, partition_with_stats, PartitionConfig};
use dcp_obs::{ObsHandle, RecordingSink};
use dcp_sched::{build_plan, verify_plan, Instr, PassManager, PlanReport, ScheduleConfig};
use dcp_sim::{simulate_phase_counted, simulate_plan, PlanSim};
use dcp_types::{ClusterSpec, ModelSpec, PlanTier};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::inputs::{drift, Class, Group, Kind, Seqs};
use crate::stats::{self, iqr_over_median, mean, median, p90_if_supported};
use crate::trace::{Tracer, NONE};
use crate::workloads::{self, FwdOut, OutGrads, Setup};
use crate::{checked_warmup, contract, num, prepare, AllocCounters, Metrics, Outcome, RunArgs};

/// Share of `--seconds` the alternating rounds get.
const ROUNDS_SHARE: f64 = 0.5;
/// Share of `--seconds` the stage-by-stage pass may take (it always covers
/// at least two batches).
const STAGES_SHARE: f64 = 0.15;

/// Quiet/recording pairs the sink-overhead probe takes the median of.
const OBS_PAIRS: usize = 6;

const MS: f64 = 1e3;
const MIB: f64 = 1024.0 * 1024.0;

/// What the planner reported about one plan of a traced round.
struct PlanSample {
    class: Option<Class>,
    total_s: f64,
    block_gen_s: f64,
    partition_s: f64,
    schedule_s: f64,
    coarsen_s: f64,
    initial_s: f64,
    refine_s: f64,
    cache_hit: bool,
    near_hit: bool,
    fallback: bool,
}

fn sample_of(s: &Setup, b: usize, p: &PlanOutput) -> PlanSample {
    // A cache hit returns the cached plan's `times` (what planning it once
    // cost); this call spent only `stats.total_s`, in no stage.
    let stage = |t: f64| if p.stats.cache_hit { 0.0 } else { t };
    PlanSample {
        class: s.inputs.stream.get(b).map(|i| i.class),
        total_s: p.stats.total_s,
        block_gen_s: stage(p.times.block_gen),
        partition_s: stage(p.times.partition),
        schedule_s: stage(p.times.schedule),
        coarsen_s: p.stats.coarsen_s,
        initial_s: p.stats.initial_s,
        refine_s: p.stats.refine_s,
        cache_hit: p.stats.cache_hit,
        near_hit: p.stats.near_hit,
        fallback: p.tier != PlanTier::Partitioned,
    }
}

fn ms_of(v: impl Iterator<Item = f64>) -> Vec<f64> {
    v.map(|s| s * MS).collect()
}

/// Durations of every span called `name`, milliseconds.
fn span_ms(tr: &Tracer, name: &str) -> Vec<f64> {
    ms_of(tr.durations(name).into_iter())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Seconds `f` takes.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The slowest device's exposed wait over the makespan, both phases
/// (Fig. 22), and the share of communication-active time hidden under
/// compute.
fn comm_exposure(sim: &PlanSim) -> (f64, f64) {
    let (mut exposed, mut active, mut overlap) = (0.0, 0.0, 0.0);
    for phase in [&sim.fwd, &sim.bwd] {
        if let Some(slow) = phase
            .devices
            .iter()
            .max_by(|a, b| a.finish.total_cmp(&b.finish))
        {
            exposed += slow.exposed_wait + (phase.makespan - slow.finish);
        }
        for d in &phase.devices {
            active += d.comm_active;
            overlap += d.overlap;
        }
    }
    (ratio(exposed, sim.total()), ratio(overlap, active))
}

/// The paper's 8B model at TP 4 around a context-parallel group of
/// `cp_ranks`: four GPUs of every p4de node's eight per two CP ranks.
fn e2e_config(cp_ranks: u32) -> E2eConfig {
    E2eConfig {
        model: ModelSpec::gpt_8b(),
        tp: 4,
        cluster: ClusterSpec::p4de((cp_ranks / 2).max(1)),
    }
}

fn e2e_iter_s(out: &PlanOutput, sim: &PlanSim) -> f64 {
    let hb = out.layout.config.head_blocks.max(1) as u64;
    let max_tokens = out
        .placement
        .token_loads(&out.layout)
        .into_iter()
        .max()
        .unwrap_or(0)
        / hb;
    simulate_iteration(
        &e2e_config(out.num_devices()),
        sim,
        max_tokens,
        out.layout.total_tokens(),
    )
    .total
}

/// Per-batch samples of the stage-by-stage pass.
#[derive(Default)]
struct Stages {
    layout_ms: Vec<f64>,
    build_ms: Vec<f64>,
    partition_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    build_plan_ms: Vec<f64>,
    passes_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    counted_sim_s: f64,
    levels: Vec<f64>,
    vcycles: Vec<f64>,
    cut_bytes: Vec<f64>,
    events: Vec<f64>,
    touched: f64,
    verify_instrs: f64,
    verify_s: f64,
    /// Batches whose re-assembled plan differs from the planner's.
    mismatches: usize,
}

fn instr_count(out: &dcp_sched::ExecutionPlan) -> u64 {
    [&out.fwd, &out.bwd]
        .iter()
        .map(|p| p.devices.iter().map(|d| d.instrs.len() as u64).sum::<u64>())
        .sum()
}

/// Takes one batch's chain apart on the set-up's placement, one span per
/// public call.
fn stage_batch(
    tr: &mut Tracer,
    st: &mut Stages,
    g: &Group,
    seqs: &Seqs,
    cold: &PlanOutput,
    b: u32,
) -> Result<(), String> {
    let cfg = &g.cfg;
    let n = g.cluster.num_devices();
    let block = BlockConfig {
        block_size: cfg.block_size,
        head_blocks: cfg.head_blocks.unwrap_or(g.attn.kv_heads),
    };
    let (layout, dt) = timed(|| {
        tr.span("stage.blocks.layout", b, || {
            BatchLayout::build(g.attn, block, seqs)
        })
    });
    let layout = layout.map_err(|e| e.to_string())?;
    st.layout_ms.push(dt * MS);
    let (hg, dt) = timed(|| {
        tr.span("stage.hypergraph.build", b, || {
            Planner::build_hypergraph(&layout)
        })
    });
    st.build_ms.push(dt * MS);
    let pc = PartitionConfig::new(n)
        .with_epsilon(cfg.eps_intra)
        .with_seed(cfg.seed);
    let (part, dt) = timed(|| {
        tr.span("stage.hypergraph.partition", b, || {
            partition_with_stats(&hg, &pc)
        })
    });
    let (_, pstats) = part.map_err(|e| e.to_string())?;
    st.partition_ms.push(dt * MS);
    st.levels.push(pstats.levels as f64);
    st.vcycles.push(pstats.vcycles as f64);
    // The planner's own placement as the warm seed: what a converged
    // incremental re-plan refines.
    let mut seed = cold.placement.token_to_dev.clone();
    seed.extend_from_slice(&cold.placement.comp_to_dev);
    let (warm, dt) = timed(|| {
        tr.span("stage.hypergraph.warm_partition", b, || {
            partition_warm_with_stats(&hg, &pc, &seed)
        })
    });
    warm.map_err(|e| e.to_string())?;
    st.warm_ms.push(dt * MS);
    st.cut_bytes.push(hg.connectivity_cost(&seed, n) as f64);
    let sched = ScheduleConfig {
        divisions: cfg.divisions,
        ..ScheduleConfig::default()
    };
    let (plan, dt) = timed(|| {
        tr.span("stage.sched.build_plan", b, || {
            build_plan(&layout, &cold.placement, &sched)
        })
    });
    let mut plan = plan.map_err(|e| e.to_string())?;
    st.build_plan_ms.push(dt * MS);
    let pm = PassManager::new(cfg.passes.clone());
    let (_, dt) = timed(|| {
        tr.span("stage.passes.run_plan", b, || {
            pm.run_plan(&layout, &cold.placement, &mut plan)
        })
    });
    st.passes_ms.push(dt * MS);
    let (legal, dt) = timed(|| {
        tr.span("stage.verify.plan", b, || {
            verify_plan(&layout, &cold.placement, &plan)
        })
    });
    legal.map_err(|d| format!("stage plan is illegal: {d}"))?;
    st.verify_ms.push(dt * MS);
    st.verify_s += dt;
    st.verify_instrs += instr_count(&plan) as f64;
    let mut events = 0u64;
    for phase in [&plan.fwd, &plan.bwd] {
        let (res, dt) = timed(|| {
            tr.span("stage.sim.phase_counted", b, || {
                simulate_phase_counted(&g.cluster, phase)
            })
        });
        let (_, c) = res.map_err(|e| e.to_string())?;
        st.counted_sim_s += dt;
        events += c.events;
        st.touched += c.touched_flows as f64;
    }
    st.events.push(events as f64);
    if plan != cold.plan {
        st.mismatches += 1;
    }
    Ok(())
}

/// Kernel-only replay of one batch's block list: the same
/// `attn_block_fwd` / `attn_block_bwd` calls the executor makes, without
/// streams, mailboxes or merges. Returns `(fwd_s, bwd_s)`.
fn kernel_replay(
    tr: &mut Tracer,
    out: &PlanOutput,
    data: &BatchData,
    d_o: &OutGrads,
    fwd: &FwdOut,
    b: u32,
) -> Option<(f64, f64)> {
    let l = &out.layout;
    let (qh, kvh) = BatchData::head_counts(l);
    let dim = l.attn.head_dim as usize;
    let scale = 1.0 / (dim as f32).sqrt();
    let args = |cb: &dcp_blocks::CompBlock| {
        let (qi, ki) = (cb.q_block.0 as usize, cb.kv_block.0 as usize);
        let (q, k) = (&l.token_blocks[qi], &l.token_blocks[ki]);
        BlockArgs {
            q: &data.q[qi],
            k: &data.k[ki],
            v: &data.v[ki],
            qh,
            kvh,
            dim,
            q_len: q.len as usize,
            kv_len: k.len as usize,
            q_start: q.start,
            kv_start: k.start,
            mask: &l.masks[cb.seq as usize],
            scale,
        }
    };
    let mut accs: Vec<BlockAcc> = l
        .token_blocks
        .iter()
        .map(|t| BlockAcc::new(t.len as usize, qh, dim))
        .collect();
    let (_, fwd_s) = timed(|| {
        tr.span("probe.kernels.fwd", b, || {
            for cb in &l.comp_blocks {
                attn_block_fwd(&mut accs[cb.q_block.0 as usize], args(cb));
            }
        })
    });
    let mut dq: Vec<Vec<f32>> = data.q.iter().map(|q| vec![0.0; q.len()]).collect();
    let mut dk: Vec<Vec<f32>> = data.k.iter().map(|k| vec![0.0; k.len()]).collect();
    let mut dv = dk.clone();
    // Every block's forward output and gradient must exist before timing.
    for i in 0..l.token_blocks.len() as u32 {
        fwd.get(&TokenBlockId(i))?;
        d_o.get(&TokenBlockId(i))?;
    }
    let (_, bwd_s) = timed(|| {
        tr.span("probe.kernels.bwd", b, || {
            for cb in &l.comp_blocks {
                let (qi, ki) = (cb.q_block.0 as usize, cb.kv_block.0 as usize);
                let o = &fwd[&cb.q_block];
                attn_block_bwd(
                    BlockBwdArgs {
                        fwd: args(cb),
                        o: &o.o,
                        lse: &o.lse,
                        d_o: &d_o[&cb.q_block],
                    },
                    &mut dq[qi],
                    &mut dk[ki],
                    &mut dv[ki],
                );
            }
        })
    });
    std::hint::black_box((&accs, &dq, &dk, &dv));
    Some((fwd_s, bwd_s))
}

fn attn_flops(out: &PlanOutput) -> (f64, f64) {
    let sum = |phase: &dcp_sched::PhasePlan| {
        phase
            .devices
            .iter()
            .flat_map(|d| &d.instrs)
            .map(|i| match i {
                Instr::Attn { flops, .. } | Instr::AttnBwd { flops, .. } => *flops as f64,
                _ => 0.0,
            })
            .sum::<f64>()
    };
    (sum(&out.plan.fwd), sum(&out.plan.bwd))
}

/// Runs `f` once with one and once with two rayon workers, unpinned, and
/// returns the speed-up of two over one. A diagnostic: the host has two
/// cores and other processes use them.
fn speedup_t2(affinity: Option<&stats::Affinity>, mut f: impl FnMut()) -> f64 {
    if let Some(a) = affinity {
        stats::unpin(a);
    }
    f(); // warm both code paths' allocations
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let ((), t1) = timed(&mut f);
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let ((), t2) = timed(&mut f);
    std::env::set_var("RAYON_NUM_THREADS", "1");
    if affinity.is_some() {
        stats::pin_to_one_cpu();
    }
    ratio(t1, t2)
}

/// Times the three cache tiers on `seqs`: exact LRU hit, near-hit replay of
/// an identical layout (exact cache off), and warm refinement of a drifted
/// copy. Milliseconds; a tier that did not engage reports nothing.
fn cache_tiers(g: &Group, seqs: &Seqs, rng: &mut SmallRng, out: &mut [Vec<f64>; 3]) {
    let on = PlannerConfig {
        incremental: IncrementalConfig {
            enabled: true,
            ..IncrementalConfig::default()
        },
        ..g.cfg.clone()
    };
    let cached = Planner::new(
        g.cluster.clone(),
        g.attn,
        PlannerConfig {
            plan_cache: PlannerConfig::default().plan_cache,
            ..on.clone()
        },
    );
    let uncached = Planner::new(
        g.cluster.clone(),
        g.attn,
        PlannerConfig {
            plan_cache: 0,
            ..on
        },
    );
    if cached.plan(seqs).is_err() || uncached.plan(seqs).is_err() {
        return;
    }
    if let Ok(p) = cached.plan(seqs) {
        if p.stats.cache_hit {
            out[0].push(p.stats.total_s * MS);
        }
    }
    if let Ok(p) = uncached.plan(seqs) {
        if p.stats.near_hit && p.stats.schedule_s == 0.0 {
            out[1].push(p.stats.total_s * MS);
        }
    }
    if let Some(d) = drift(seqs, g.cfg.block_size, rng) {
        if let Ok(p) = cached.plan(&d) {
            if p.stats.near_hit {
                out[2].push(p.stats.total_s * MS);
            }
        }
    }
}

/// DCP against the ring baselines on one batch: `(comm bytes ÷ RFA-zigzag
/// bytes, TransformerEngine makespan ÷ DCP makespan)`.
fn versus_baselines(g: &Group, seqs: &Seqs, cold: &PlanOutput) -> Option<(f64, f64)> {
    let n = g.cluster.num_devices();
    let zig = Baseline::RfaZigzag
        .build(g.attn, n, g.cfg.block_size, seqs)
        .ok()?;
    let te = Baseline::TransformerEngine {
        head_groups: g.attn.kv_heads,
    }
    .build(g.attn, n, g.cfg.block_size, seqs)
    .ok()?;
    let dcp = simulate_plan(&g.cluster, &cold.plan).ok()?.total();
    let te_t = simulate_plan(&g.cluster, &te.plan).ok()?.total();
    Some((
        ratio(
            cold.plan.total_comm_bytes() as f64,
            zig.plan.total_comm_bytes() as f64,
        ),
        ratio(te_t, dcp),
    ))
}

/// The traced run. `alloc` is the traced binary's allocation counters
/// (`None` in the plain binary, where the allocation metrics read 0).
pub fn run_traced(
    args: &RunArgs,
    alloc: Option<&'static AllocCounters>,
) -> Result<Outcome, String> {
    let mut tr = Tracer::new(true);
    let p = prepare(args, &mut tr, false)?;
    let s = &p.setup;
    let kind = s.inputs.kind;
    let mut m = Metrics::new();
    let mut notes: Vec<String> = Vec::new();
    m.insert("setup.first_s", p.first_setup.wall_s);
    m.insert("setup.plan_s", tr.durations("setup.plan").iter().sum());
    m.insert("setup.data_s", tr.durations("setup.data").iter().sum());

    tr.set_enabled(false);
    let checked = checked_warmup(s, &mut tr, false);
    let mut failures = checked.failures.clone();

    // ---- 1. rounds, untraced and traced alternately --------------------
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut samples: Vec<PlanSample> = Vec::new();
    let (mut attempted, mut failed, mut replans) = (0u64, 0u64, 0u64);
    let spans_before = tr.spans().len();
    let cpu0 = stats::process_cpu_s();
    let wall0 = Instant::now();
    let mut spent = 0.0;
    while traced_walls.len() < 2 || spent < args.seconds * ROUNDS_SHARE {
        for traced in [false, true] {
            tr.set_enabled(traced);
            // A traced round also copies the handful of numbers each plan
            // returns about itself; the copy is part of the tracing it prices.
            let (r, dt) = timed(|| {
                workloads::round(s, &mut tr, &p.meter, &mut |b, item| {
                    if let (true, Ok(it)) = (traced, &item) {
                        samples.push(sample_of(s, b, &it.plan));
                    }
                })
            });
            spent += dt;
            attempted += r.batches as u64;
            failed += r.failed as u64;
            replans += r.replans;
            if traced {
                traced_walls.push(r.timed.wall_s);
            } else {
                plain_walls.push(r.timed.wall_s);
            }
        }
    }
    tr.set_enabled(true);
    m.insert(
        "host.cpu_over_wall",
        ratio(stats::process_cpu_s() - cpu0, wall0.elapsed().as_secs_f64()),
    );
    let traced_total: f64 = traced_walls.iter().sum();
    let batches = s.inputs.round_batches() as f64;

    m.insert("chain.rounds", traced_walls.len() as f64);
    m.insert("host.round_spread", iqr_over_median(&plain_walls));
    // Each traced round against the untraced round just before it: the
    // pair shares a host phase, two medians over the window need not.
    let pairs: Vec<f64> = plain_walls
        .iter()
        .zip(&traced_walls)
        .map(|(u, t)| ratio(*u, *t))
        .collect();
    m.insert("trace.overhead_frac", 1.0 - median(&pairs));
    m.insert("trace.spans", (tr.spans().len() - spans_before) as f64);

    // Shares of the traced rounds' wall, by layer.
    let iter_name = if kind == Kind::ReplanStream {
        "dataloader.next"
    } else {
        "chain.iter"
    };
    let iters = span_ms(&tr, iter_name);
    m.insert("chain.iter_ms_p50", median(&iters));
    m.insert("chain.iter_ms_p90", p90_if_supported(&iters));
    m.insert("chain.iter_samples", iters.len() as f64);
    let own = tr.self_by_layer();
    let share = |layer: &str| ratio(own.get(layer).copied().unwrap_or(0.0), traced_total);
    if kind == Kind::ReplanStream {
        // The planner runs on the loader's worker thread; its time reaches
        // this thread only as the stage times each plan returns.
        let sum = |f: fn(&PlanSample) -> f64| ratio(samples.iter().map(f).sum(), traced_total);
        let planned = sum(|p| p.total_s);
        m.insert("share.blocks", sum(|p| p.block_gen_s));
        m.insert("share.hypergraph", sum(|p| p.partition_s));
        m.insert("share.sched", sum(|p| p.schedule_s));
        m.insert(
            "share.planner_self",
            sum(|p| (p.total_s - p.block_gen_s - p.partition_s - p.schedule_s).max(0.0)),
        );
        m.insert("share.dataloader", (1.0 - planned).max(0.0));
        m.insert("chain.unattributed_frac", share("round"));
        let cold_s: f64 = samples
            .iter()
            .filter(|p| !p.cache_hit && !p.near_hit)
            .map(|p| p.total_s)
            .sum();
        notes.push(format!(
            "cold partitioning is {:.4} of the stream rounds",
            ratio(cold_s, traced_total).abs()
        ));
    } else {
        m.insert("share.blocks", share("blocks"));
        m.insert("share.hypergraph", share("hypergraph"));
        m.insert("share.sched", share("sched"));
        m.insert("share.planner_self", share("planner"));
        m.insert("share.dataloader", 0.0);
        m.insert("chain.unattributed_frac", share("round") + share("chain"));
    }
    m.insert("share.verify", share("verify"));
    m.insert("share.sim", share("sim"));
    m.insert("share.exec", share("exec"));

    // dcp-core::planner, from what each plan call returned.
    let cold: Vec<&PlanSample> = samples
        .iter()
        .filter(|p| !p.cache_hit && !p.near_hit)
        .collect();
    // The stream plans nothing cold in its timed part: its cold numbers are
    // the set-up's plans of the base batches.
    let setup_cold: Vec<PlanSample> = if cold.is_empty() {
        s.cold.iter().map(|p| sample_of(s, usize::MAX, p)).collect()
    } else {
        Vec::new()
    };
    let cold: Vec<&PlanSample> = if cold.is_empty() {
        setup_cold.iter().collect()
    } else {
        cold
    };
    let of = |v: &[&PlanSample], f: fn(&PlanSample) -> f64| ms_of(v.iter().map(|p| f(p)));
    let cold_ms = of(&cold, |p| p.total_s);
    m.insert("planner.cold_ms_p50", median(&cold_ms));
    m.insert("planner.cold_ms_p90", p90_if_supported(&cold_ms));
    m.insert(
        "planner.block_gen_ms_p50",
        median(&of(&cold, |p| p.block_gen_s)),
    );
    m.insert(
        "planner.partition_ms_p50",
        median(&of(&cold, |p| p.partition_s)),
    );
    m.insert(
        "planner.schedule_ms_p50",
        median(&of(&cold, |p| p.schedule_s)),
    );
    m.insert(
        "planner.self_ms_p50",
        median(&of(&cold, |p| {
            (p.total_s - p.block_gen_s - p.partition_s - p.schedule_s).max(0.0)
        })),
    );
    let all: Vec<&PlanSample> = samples.iter().collect();
    m.insert("hypergraph.coarsen_ms", mean(&of(&all, |p| p.coarsen_s)));
    m.insert("hypergraph.initial_ms", mean(&of(&all, |p| p.initial_s)));
    m.insert("hypergraph.refine_ms", mean(&of(&all, |p| p.refine_s)));
    let n_samples = samples.len().max(1) as f64;
    let count = |f: fn(&PlanSample) -> bool| samples.iter().filter(|p| f(p)).count() as f64;
    m.insert("planner.exact_hit_rate", count(|p| p.cache_hit) / n_samples);
    m.insert("planner.near_hit_rate", count(|p| p.near_hit) / n_samples);
    m.insert(
        "planner.warm_fallback_rate",
        ratio(
            count(|p| p.class == Some(Class::Drift) && !p.cache_hit && !p.near_hit),
            count(|p| p.class == Some(Class::Drift)),
        ),
    );
    m.insert(
        "planner.fallback_plans",
        count(|p| p.fallback) / traced_walls.len().max(1) as f64,
    );
    m.insert("dataloader.replans", replans as f64);
    let waits = span_ms(&tr, "dataloader.next");
    m.insert("dataloader.wait_ms_p50", median(&waits));
    m.insert("dataloader.wait_ms_p90", p90_if_supported(&waits));

    // Counts per iteration, from the checked round's plans.
    let c = &checked.counts;
    let per_iter = |k: &str| c.get(k).copied().unwrap_or(0) as f64 / batches;
    m.insert("blocks.comp_blocks_per_iter", per_iter("comp_blocks"));
    m.insert("blocks.token_blocks_per_iter", per_iter("token_blocks"));
    m.insert("sched.instrs_per_iter", per_iter("instrs"));
    m.insert("sched.transfers_per_iter", per_iter("transfers"));
    m.insert("passes.instrs_removed", per_iter("passes_instrs_removed"));
    m.insert(
        "passes.comm_bytes_saved",
        per_iter("passes_comm_bytes_saved"),
    );

    // Spans of the chain's own calls (absent where the chain has none).
    for (metric, span) in [
        ("sim.plan_ms_p50", "sim.plan"),
        ("sim.faulted_ms_p50", "sim.faulted"),
        ("exec.fwd_ms_p50", "exec.fwd"),
        ("exec.bwd_ms_p50", "exec.bwd"),
    ] {
        m.insert(metric, median(&span_ms(&tr, span)));
    }

    // ---- 2. stages ------------------------------------------------------
    tr.enter("stages", NONE);
    let mut st = Stages::default();
    let stage_budget = args.seconds * STAGES_SHARE;
    let t_stage = Instant::now();
    let (mut imbalance, mut peak_buf, mut exposure, mut overlap, mut e2e_s, mut stage_sim_ms) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    for (b, ((g, seqs), cold)) in s.inputs.flat().zip(&s.cold).enumerate() {
        if b >= 2 && t_stage.elapsed().as_secs_f64() > stage_budget {
            notes.push(format!(
                "stage pass covered {b} of {} batches",
                s.cold.len()
            ));
            break;
        }
        if let Err(e) = stage_batch(&mut tr, &mut st, g, seqs, cold, b as u32) {
            failures.push(format!("stages, batch {b}: {e}"));
        }
        let report = PlanReport::from_phase(&cold.plan.fwd);
        imbalance.push(report.imbalance(|d| d.attn_flops));
        peak_buf.push(
            report
                .devices
                .iter()
                .map(|d| d.peak_buffer_bytes)
                .max()
                .unwrap_or(0) as f64
                / MIB,
        );
        let (sim, dt) = timed(|| {
            tr.span("stage.sim.plan", b as u32, || {
                simulate_plan(&g.cluster, &cold.plan)
            })
        });
        stage_sim_ms.push(dt * MS);
        match sim {
            Ok(sim) => {
                let (x, o) = comm_exposure(&sim);
                exposure.push(x);
                overlap.push(o);
                e2e_s.push(e2e_iter_s(cold, &sim));
            }
            Err(e) => failures.push(format!("stages, batch {b}: simulate: {e}")),
        }
    }
    tr.exit();
    if st.mismatches > 0 {
        notes.push(format!(
            "{} re-assembled plans differ from the planner's",
            st.mismatches
        ));
    }
    m.insert("blocks.layout_ms_p50", median(&st.layout_ms));
    m.insert("hypergraph.build_ms_p50", median(&st.build_ms));
    m.insert("hypergraph.partition_ms_p50", median(&st.partition_ms));
    m.insert("hypergraph.warm_partition_ms_p50", median(&st.warm_ms));
    m.insert("hypergraph.levels", mean(&st.levels));
    m.insert("hypergraph.vcycles", mean(&st.vcycles));
    m.insert("hypergraph.cut_bytes", mean(&st.cut_bytes));
    m.insert("sched.build_plan_ms_p50", median(&st.build_plan_ms));
    m.insert("passes.run_ms_p50", median(&st.passes_ms));
    let chain_verify = span_ms(&tr, "verify.plan");
    m.insert(
        "verify.plan_ms_p50",
        median(if chain_verify.is_empty() {
            &st.verify_ms
        } else {
            &chain_verify
        }),
    );
    m.insert("verify.instrs_per_s", ratio(st.verify_instrs, st.verify_s));
    if tr.durations("sim.plan").is_empty() {
        m.insert("sim.plan_ms_p50", median(&stage_sim_ms));
    }
    let events: f64 = st.events.iter().sum();
    m.insert("sim.events_per_iter", mean(&st.events));
    m.insert("sim.events_per_s", ratio(events, st.counted_sim_s));
    m.insert("sim.touched_flows_per_event", ratio(st.touched, events));
    m.insert("sched.compute_imbalance", mean(&imbalance));
    m.insert("sched.peak_buffer_mb", mean(&peak_buf));
    m.insert("sim.exposed_comm_frac", mean(&exposure));
    m.insert("sim.overlap_efficiency", mean(&overlap));
    m.insert("e2e.iter_ms", mean(&e2e_s) * MS);
    // Fig. 18's overlap condition as a number: how many cold plans fit
    // under one modelled training iteration.
    m.insert(
        "planner.headroom",
        ratio(mean(&e2e_s), median(&cold_ms) / MS),
    );

    // ---- 3. probes ------------------------------------------------------
    tr.enter("probes", NONE);
    let g0 = &s.inputs.groups[0];
    let seqs0 = &g0.batches[0];
    let mut rng = SmallRng::seed_from_u64(stats::mix(args.seed, 0x7133));

    // Cache tiers: from the stream itself, or timed on the first batches.
    let mut tiers: [Vec<f64>; 3] = Default::default();
    if kind == Kind::ReplanStream {
        for p in &samples {
            let replay = p.near_hit && p.schedule_s == 0.0;
            let slot = match (p.cache_hit, p.near_hit, replay) {
                (true, _, _) => 0,
                (_, true, true) => 1,
                (_, true, false) => 2,
                _ => continue,
            };
            tiers[slot].push(p.total_s * MS);
        }
    } else {
        for seqs in g0.batches.iter().take(4) {
            cache_tiers(g0, seqs, &mut rng, &mut tiers);
        }
    }
    m.insert("planner.exact_hit_ms_p50", median(&tiers[0]));
    m.insert("planner.near_identical_ms_p50", median(&tiers[1]));
    m.insert("planner.warm_drift_ms_p50", median(&tiers[2]));

    // Recording-sink overhead, on the layer the workload spends its time in.
    let no_cache = PlannerConfig {
        plan_cache: 0,
        incremental: IncrementalConfig::default(),
        ..g0.cfg.clone()
    };
    let sink = Arc::new(RecordingSink::new());
    let mut overheads = Vec::new();
    let mut events = 0;
    if kind.executes() {
        let (c0, d0) = (&s.cold[0], &s.data[0]);
        let run = |obs: &ExecObs<'_>| {
            timed(|| execute_forward_obs(&c0.layout, &c0.placement, &c0.plan, d0, obs).is_ok()).1
        };
        for pair in 0..OBS_PAIRS {
            // Alternate which side runs first: the second call of a pair
            // finds warmer caches.
            let mut quiet = 0.0;
            let mut loud = 0.0;
            for loud_turn in [pair % 2 == 0, pair % 2 != 0] {
                if loud_turn {
                    sink.drain();
                    loud = run(&ExecObs::new(sink.as_ref()));
                    events = sink.len();
                } else {
                    quiet = run(&ExecObs::disabled());
                }
            }
            overheads.push(ratio(loud, quiet) - 1.0);
        }
    } else {
        let quiet = Planner::new(g0.cluster.clone(), g0.attn, no_cache.clone());
        let loud = Planner::new(g0.cluster.clone(), g0.attn, no_cache.clone())
            .with_obs(ObsHandle::new(sink.clone()));
        let _ = quiet.plan(seqs0); // both arenas filled before either is timed
        let _ = loud.plan(seqs0);
        for pair in 0..OBS_PAIRS {
            let (mut quiet_s, mut loud_s) = (0.0, 0.0);
            for loud_turn in [pair % 2 == 0, pair % 2 != 0] {
                if loud_turn {
                    sink.drain();
                    loud_s = timed(|| loud.plan(seqs0).is_ok()).1;
                    events = sink.len();
                } else {
                    quiet_s = timed(|| quiet.plan(seqs0).is_ok()).1;
                }
            }
            overheads.push(ratio(loud_s, quiet_s) - 1.0);
        }
    }
    m.insert("obs.recording_overhead_frac", median(&overheads));
    m.insert("obs.events_per_iter", events as f64);

    // Baselines, on the 32-device paper-scale batches (one per mask).
    let (mut zig, mut te) = (Vec::new(), Vec::new());
    if !kind.executes() {
        for (seqs, cold) in g0.batches.iter().zip(&s.cold).take(4) {
            if let Some((z, t)) = versus_baselines(g0, seqs, cold) {
                zig.push(z);
                te.push(t);
            }
        }
    }
    m.insert("baselines.comm_ratio_vs_zigzag", mean(&zig));
    m.insert("baselines.sim_speedup_vs_te", mean(&te));

    // Executor probes, after the same checks a plain run makes.
    let (exec_failures, reference) =
        workloads::check_executor(s, &checked.kept, crate::REFERENCE_BATCHES);
    failures.extend(exec_failures);
    if kind.executes() {
        let (mut k_fwd, mut k_bwd, mut flops_f, mut flops_b, mut blocks) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut calls, mut bytes) = (0u64, 0u64);
        for (b, it) in &checked.kept {
            let b = *b;
            let Some(fwd) = &it.fwd else { continue };
            match kernel_replay(&mut tr, &it.plan, &s.data[b], &s.d_o[b], fwd, b as u32) {
                Some((f, w)) => {
                    k_fwd += f;
                    k_bwd += w;
                }
                None => failures.push(format!("kernel replay, batch {b}: missing blocks")),
            }
            let (ff, fb) = attn_flops(&it.plan);
            flops_f += ff;
            flops_b += fb;
            blocks += it.plan.layout.comp_blocks.len() as f64;
            if let Some(a) = alloc {
                let p = &it.plan;
                let (ok, c, by) = a.during(|| {
                    execute_forward(&p.layout, &p.placement, &p.plan, &s.data[b])
                        .and_then(|f| {
                            execute_backward(
                                &p.layout,
                                &p.placement,
                                &p.plan,
                                &s.data[b],
                                &f,
                                &s.d_o[b],
                            )
                        })
                        .is_ok()
                });
                if !ok {
                    failures.push(format!("allocation probe, batch {b}: executor failed"));
                }
                calls += c;
                bytes += by;
            }
        }
        // Executor seconds per traced round.
        let rounds = traced_walls.len().max(1) as f64;
        let fwd_s: f64 = tr.durations("exec.fwd").iter().sum::<f64>() / rounds;
        let bwd_s: f64 = tr.durations("exec.bwd").iter().sum::<f64>() / rounds;
        let exec_s = fwd_s + bwd_s;
        m.insert("exec.blocks_per_s", ratio(2.0 * blocks, exec_s));
        m.insert("exec.gflops", ratio(flops_f + flops_b, exec_s) / 1e9);
        m.insert("exec.kernel_share", ratio(k_fwd + k_bwd, exec_s));
        m.insert("kernels.fwd_gflops", ratio(flops_f, k_fwd) / 1e9);
        m.insert("kernels.bwd_gflops", ratio(flops_b, k_bwd) / 1e9);
        m.insert("exec.allocs_per_block", ratio(calls as f64, 2.0 * blocks));
        m.insert("exec.alloc_mb_per_iter", bytes as f64 / MIB / batches);
        // Against the plain single-worker baseline, on the batches the
        // reference check covered.
        let per_batch: HashMap<u32, f64> = {
            let mut t: HashMap<u32, f64> = HashMap::new();
            for sp in tr.spans() {
                if sp.name == "exec.fwd" || sp.name == "exec.bwd" {
                    *t.entry(sp.batch).or_insert(0.0) += (sp.end - sp.start) / rounds;
                }
            }
            t
        };
        let covered: f64 = checked
            .kept
            .iter()
            .take(reference.batches)
            .map(|(b, _)| per_batch.get(&(*b as u32)).copied().unwrap_or(0.0))
            .sum();
        m.insert(
            "exec.vs_dense_reference",
            ratio(covered, reference.fwd_s + reference.bwd_s),
        );
        let (c0, d0, g0d) = (&s.cold[0], &s.data[0], &s.d_o[0]);
        m.insert(
            "exec.par_speedup_t2",
            speedup_t2(p.affinity.as_ref(), || {
                let f = execute_forward(&c0.layout, &c0.placement, &c0.plan, d0);
                if let Ok(f) = f {
                    let _ = execute_backward(&c0.layout, &c0.placement, &c0.plan, d0, &f, g0d);
                }
            }),
        );
    }
    let scaling = Planner::new(g0.cluster.clone(), g0.attn, no_cache);
    m.insert(
        "planner.par_speedup_t2",
        speedup_t2(p.affinity.as_ref(), || {
            for seqs in g0.batches.iter().take(4) {
                let _ = scaling.plan(seqs);
            }
        }),
    );
    tr.exit();

    failed = (failed + failures.len() as u64).min(attempted);
    let trace_name = format!("{}.trace.json", kind.name());
    crate::write_out(&trace_name, &tr.to_json(kind.name(), args.seed));

    let metrics = contract::PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, *unit, m.get(name).copied().unwrap_or(0.0)))
        .collect();
    let list = |v: &[f64]| v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ");
    let detail = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"traced\": true, \"pinned\": {}, \"inputs_hash\": \"{:016x}\", \"plans_hash\": \"{:016x}\", \"counting_allocator\": {}, \"untraced_round_walls_s\": [{}], \"traced_round_walls_s\": [{}], \"plan_samples\": {}, \"cold_plan_samples\": {}, \"tier_samples\": [{}, {}, {}], \"stage_batches\": {}, \"trace_file\": \"{}\", \"notes\": [{}], \"failures\": [{}]",
        kind.name(),
        args.seed,
        p.affinity.is_some(),
        p.inputs_hash,
        p.plans_hash,
        alloc.is_some(),
        list(&plain_walls),
        list(&traced_walls),
        samples.len(),
        cold_ms.len(),
        tiers[0].len(),
        tiers[1].len(),
        tiers[2].len(),
        st.layout_ms.len(),
        trace_name,
        notes.iter().map(|n| format!("{n:?}")).collect::<Vec<_>>().join(", "),
        failures.iter().map(|f| format!("{f:?}")).collect::<Vec<_>>().join(", "),
    );
    Ok(Outcome {
        correct: failures.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    })
}
