//! The four workloads: one `setup`, one `round` and the correctness checks,
//! all over the crates' public functions.
//!
//! Only [`round`]'s timed section and [`setup`] are ever timed; everything in
//! the second half of this file (checks, hashing, the modelled metrics)
//! runs outside both.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dcp_blocks::TokenBlockId;
use dcp_core::dataloader::PlanFn;
use dcp_core::{DcpDataloader, PlanOutput, Planner, RetryConfig};
use dcp_data::Batch;
use dcp_exec::reference;
use dcp_exec::{
    execute_backward, execute_forward, forward_outputs_identical, grads_identical,
    random_output_grads, BatchData, BlockGrads, BlockOut,
};
use dcp_mask::MaskSpec;
use dcp_sched::verify_plan;
use dcp_sim::{simulate_plan, simulate_plan_faulted, FaultSpec, PlanSim};
use dcp_types::PlanTier;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::calib::{Meter, Metered, Scale};
use crate::inputs::{generate, shuffle, Class, Group, Inputs, Kind, Seqs};
use crate::stats::{self, geomean, mix, Fnv};
use crate::trace::{Tracer, NONE};

pub type FwdOut = HashMap<TokenBlockId, BlockOut>;
pub type BwdOut = HashMap<TokenBlockId, BlockGrads>;
pub type OutGrads = HashMap<TokenBlockId, Vec<f32>>;

/// Everything the rounds need, built from nothing by [`setup`].
pub struct Setup {
    pub inputs: Inputs,
    /// One planner per group. `plan_cold` plans its rounds on these (its
    /// plan cache is off, so there is nothing to reset); the other workloads
    /// build fresh planners every round so no cache survives a round.
    pub planners: Vec<Planner>,
    /// Cold plan of every batch, in flat batch order.
    pub cold: Vec<PlanOutput>,
    /// Executor workloads: input tensors and output gradients per batch.
    pub data: Vec<BatchData>,
    pub d_o: Vec<OutGrads>,
}

fn new_planner(g: &Group) -> Planner {
    Planner::new(g.cluster.clone(), g.attn, g.cfg.clone())
}

/// Builds everything the rounds of `kind` need from `seed`: lengths, masks,
/// clusters, planners, the cold plan of every batch and, for the executor
/// workloads, input tensors and output gradients. The caller opens `meter`
/// before and takes its sums after: every batch is one segment.
///
/// # Errors
///
/// Returns the planner's message if a batch cannot be planned.
pub fn setup(kind: Kind, seed: u64, tr: &mut Tracer, meter: &mut Meter) -> Result<Setup, String> {
    tr.enter("setup.plan", NONE);
    let inputs = generate(kind, seed);
    let planners: Vec<Planner> = inputs.groups.iter().map(new_planner).collect();
    let mut cold = Vec::with_capacity(inputs.num_batches());
    for (g, planner) in inputs.groups.iter().zip(&planners) {
        for seqs in &g.batches {
            cold.push(planner.plan(seqs).map_err(|e| e.to_string())?);
            meter.lap(Scale::Planning);
        }
    }
    tr.exit();
    tr.enter("setup.data", NONE);
    let (mut data, mut d_o) = (Vec::new(), Vec::new());
    if kind.executes() {
        for (i, out) in cold.iter().enumerate() {
            data.push(BatchData::random(&out.layout, inputs.data_seed(i)));
            d_o.push(random_output_grads(&out.layout, inputs.data_seed(i) + 1));
        }
        meter.lap(Scale::Planning);
    }
    tr.exit();
    Ok(Setup {
        inputs,
        planners,
        cold,
        data,
        d_o,
    })
}

/// What one batch's chain produced.
pub struct Item {
    pub plan: PlanOutput,
    pub sim: Option<PlanSim>,
    pub faulted: Option<PlanSim>,
    pub fwd: Option<FwdOut>,
    pub bwd: Option<BwdOut>,
}

/// What a round hands over for each batch as soon as its chain ends, still
/// inside the timed section: timed rounds drop it there, as a training loop
/// drops one iteration's outputs before the next; the checked round checks
/// and keeps what it needs.
pub type Sink<'a> = &'a mut dyn FnMut(usize, Result<Item, String>);

/// One pass over the workload's batch list.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// The timed section, as timed and on the reference host (the
    /// calibrator's readings between its segments are in neither).
    pub timed: Metered,
    /// Batches attempted.
    pub batches: usize,
    /// Batches whose chain returned an error.
    pub failed: usize,
    /// Synchronous re-plans the dataloader had to make (`replan_stream`).
    pub replans: u64,
}

/// One batch's chain: cold plan → verify → simulate, then the workload's
/// own tail — a second simulation under `fault` (`plan_cold`) or forward and
/// backward execution on `tensors` (`exec_*`). The executor workloads lap
/// `meter` between the two executions (planning is a few percent of their
/// batch and rides with the forward one); the caller laps it after the batch.
#[allow(clippy::too_many_arguments)]
fn chain(
    tr: &mut Tracer,
    meter: &mut Meter,
    planner: &Planner,
    g: &Group,
    seqs: &Seqs,
    fault: Option<&FaultSpec>,
    tensors: Option<(&BatchData, &OutGrads)>,
    b: u32,
) -> Result<Item, String> {
    let plan = tr
        .span("planner.plan", b, || planner.plan(seqs))
        .map_err(|e| format!("plan: {e}"))?;
    // The planner's own stage times, as children of the span just closed.
    tr.children_of_last(&[
        ("blocks.layout", plan.times.block_gen),
        ("hypergraph.place", plan.times.partition),
        ("sched.schedule", plan.times.schedule),
    ]);
    tr.span("verify.plan", b, || {
        verify_plan(&plan.layout, &plan.placement, &plan.plan)
    })
    .map_err(|d| format!("verify: {d}"))?;
    let sim = tr
        .span("sim.plan", b, || simulate_plan(&g.cluster, &plan.plan))
        .map_err(|e| format!("simulate: {e}"))?;
    let faulted = match fault {
        Some(fault) => Some(
            tr.span("sim.faulted", b, || {
                simulate_plan_faulted(&g.cluster, &plan.plan, fault)
            })
            .map_err(|e| format!("simulate faulted: {e}"))?,
        ),
        None => None,
    };
    let (mut fwd, mut bwd) = (None, None);
    if let Some((data, d_o)) = tensors {
        let f = tr
            .span("exec.fwd", b, || {
                execute_forward(&plan.layout, &plan.placement, &plan.plan, data)
            })
            .map_err(|e| format!("forward: {e}"))?;
        meter.lap(Scale::Compute);
        let g = tr
            .span("exec.bwd", b, || {
                execute_backward(&plan.layout, &plan.placement, &plan.plan, data, &f, d_o)
            })
            .map_err(|e| format!("backward: {e}"))?;
        (fwd, bwd) = (Some(f), Some(g));
    }
    Ok(Item {
        plan,
        sim: Some(sim),
        faulted,
        fwd,
        bwd,
    })
}

/// The meter a round scales its segments with; the stream laps it from the
/// dataloader's worker thread.
pub type SharedMeter = Arc<Mutex<Meter>>;

/// Plan calls of the stream per segment (about 0.1 s).
const STREAM_SEGMENT: usize = 24;

/// Waits, untimed, until at most `n` holders of the stream's plan function
/// are left. A dataloader's worker threads each hold it — and through it both
/// planners with their caches — until they next run and find their channel
/// closed; a round that went on without waiting had the previous round's
/// planners freed somewhere inside it (`peak_rss_mb` was bimodal, 280 or
/// 317 MiB, and a fixed 5 ms sleep only cured it on an idle host).
fn wait_for_holders(f: &Arc<PlanFn>, n: usize) {
    let t0 = Instant::now();
    while Arc::strong_count(f) > n && t0.elapsed().as_secs_f64() < 5.0 {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// `replan_stream`: two fresh planners primed cold (untimed), then the
/// stream through a one-worker look-ahead dataloader (timed).
fn stream_round(s: &Setup, tr: &mut Tracer, meter: &SharedMeter, sink: Sink<'_>) -> Round {
    let g = &s.inputs.groups[0];
    let cached = new_planner(g);
    let uncached = Planner::new(
        g.cluster.clone(),
        g.attn,
        s.inputs
            .cfg_no_exact_cache
            .clone()
            .expect("replan_stream carries its second planner config"),
    );
    for seqs in &g.batches {
        // Priming failures resurface as failed stream batches.
        let _ = cached.plan(seqs);
        let _ = uncached.plan(seqs);
    }
    // The single worker plans stream batches in order, so the call count is
    // the stream index. The worker does all the work of the stream (the
    // consumer only waits for it), so it is the worker that laps the meter:
    // the first call opens it, every `STREAM_SEGMENT`-th call ends a segment.
    let classes: Vec<Class> = s.inputs.stream.iter().map(|i| i.class).collect();
    let next = AtomicUsize::new(0);
    let pace = Arc::clone(meter);
    let route: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| {
        let i = next.fetch_add(1, Ordering::SeqCst);
        if i.is_multiple_of(STREAM_SEGMENT) {
            let mut m = pace.lock().expect("meter lock");
            if i == 0 {
                m.open();
            } else {
                m.lap(Scale::Planning);
            }
        }
        match classes.get(i) {
            Some(Class::Identical) => uncached.plan(seqs),
            _ => cached.plan(seqs),
        }
    });
    let batches: Vec<Batch> = s
        .inputs
        .stream
        .iter()
        .map(|i| Batch {
            seqs: i.seqs.clone(),
        })
        .collect();
    let n = batches.len();
    let mut loader =
        DcpDataloader::with_plan_fn(Arc::clone(&route), batches, 4, RetryConfig::default())
            .with_workers(1);
    // `with_workers` displaces the constructor's four-thread pool. Left: this
    // function, the loader and its one worker.
    wait_for_holders(&route, 3);
    // The worker inherited this thread's CPU. The consumer takes the other
    // one for the round: sharing one, how many finished plans pile up in the
    // look-ahead queue before the consumer next runs is the scheduler's
    // choice, and `peak_rss_mb` moved by 30 MiB with it.
    stats::pin_to_other_cpu();
    let mut failed = 0;
    tr.enter("round", NONE);
    for b in 0..n {
        let got = tr.span("dataloader.next", b as u32, || loader.next());
        let item = match got {
            Some(Ok((_, plan))) => Ok(Item {
                plan,
                sim: None,
                faulted: None,
                fwd: None,
                bwd: None,
            }),
            Some(Err(e)) => Err(format!("dataloader: {e}")),
            None => Err("dataloader ended early".into()),
        };
        failed += item.is_err() as usize;
        sink(b, item);
    }
    let timed = {
        let mut m = meter.lock().expect("meter lock");
        m.lap(Scale::Planning);
        m.take()
    };
    tr.exit();
    let replans = loader.replans();
    drop(loader);
    stats::pin_to_one_cpu();
    wait_for_holders(&route, 1);
    Round {
        timed,
        batches: n,
        failed,
        replans,
    }
}

/// Runs one round of the workload, handing each batch's outcome to `sink`.
/// Only what `meter` times is timed: every batch from the start of its chain
/// to the return of `sink`, in one or two segments.
pub fn round(s: &Setup, tr: &mut Tracer, meter: &SharedMeter, sink: Sink<'_>) -> Round {
    let kind = s.inputs.kind;
    if kind == Kind::ReplanStream {
        return stream_round(s, tr, meter, sink);
    }
    // Executor workloads plan on the default plan cache: a fresh planner per
    // round keeps every plan cold.
    let fresh: Vec<Planner> = if kind.executes() {
        s.inputs.groups.iter().map(new_planner).collect()
    } else {
        Vec::new()
    };
    let planners = if kind.executes() { &fresh } else { &s.planners };
    let tail = if kind.executes() {
        Scale::Compute
    } else {
        Scale::Planning
    };
    let mut m = meter.lock().expect("meter lock");
    let mut failed = 0;
    tr.enter("round", NONE);
    m.open();
    let mut b = 0usize;
    for (g, planner) in s.inputs.groups.iter().zip(planners) {
        for seqs in &g.batches {
            tr.enter("chain.iter", b as u32);
            let tensors = kind.executes().then(|| (&s.data[b], &s.d_o[b]));
            let item = chain(
                tr,
                &mut m,
                planner,
                g,
                seqs,
                s.inputs.fault.as_ref(),
                tensors,
                b as u32,
            );
            failed += item.is_err() as usize;
            sink(b, item);
            tr.exit();
            m.lap(tail);
            b += 1;
        }
    }
    let timed = m.take();
    tr.exit();
    Round {
        timed,
        batches: b,
        failed,
        replans: 0,
    }
}

/// The sink of a timed round: outputs are dropped as they arrive.
pub fn discard(_: usize, item: Result<Item, String>) {
    drop(item);
}

// ---------------------------------------------------------------------------
// Outside every timing: hashes, checks, modelled metrics.
// ---------------------------------------------------------------------------

fn hash_plan(h: &mut Fnv, out: &PlanOutput) {
    h.bytes(
        serde_json::to_string(&(&out.placement, &out.plan))
            .expect("plans serialize")
            .as_bytes(),
    );
}

/// Hash of the set-up's cold plans (placements and instruction streams).
pub fn plans_hash(s: &Setup) -> u64 {
    let mut h = Fnv::default();
    s.cold.iter().for_each(|p| hash_plan(&mut h, p));
    h.0
}

fn same_plan(a: &PlanOutput, b: &PlanOutput) -> bool {
    a.placement == b.placement && a.plan == b.plan
}

fn sim_ok(sim: &PlanSim) -> bool {
    sim.total().is_finite() && sim.fwd.makespan > 0.0 && sim.bwd.makespan > 0.0
}

/// Plans the modelled metrics average over, at least: the round's own plus
/// cold plans of re-ordered copies of its batches. The partitioner is a
/// randomized heuristic — re-ordering one paper-scale batch moves its
/// simulated makespan by up to ±15 % — so a handful of plans says little
/// about plan quality; this many say it to about ±2 %.
pub const PANEL_PLANS: usize = 64;

/// The modelled end-to-end metrics. Exact: a function of the inputs and the
/// planner only.
#[derive(Debug, Clone, Copy, Default)]
pub struct Modelled {
    /// Geometric mean over the panel's plans of the simulated forward +
    /// backward attention makespan, milliseconds.
    pub sim_iter_ms: f64,
    /// Forward + backward plan communication bytes over tokens.
    pub comm_bytes_per_token: f64,
}

/// The sink of the checked round (the untimed warm-up): checks every batch
/// against the set-up as it arrives, folds the modelled metrics, counts and
/// hashes, and keeps only executor outputs — a stream round would otherwise
/// hold hundreds of plans at once.
pub struct Checker<'a> {
    s: &'a Setup,
    /// One message per failed batch.
    pub failures: Vec<String>,
    sim_ms: Vec<f64>,
    comm_bytes: u64,
    tokens: u64,
    /// Exact counts over the round's plans.
    pub counts: BTreeMap<&'static str, u64>,
    hash: Fnv,
    /// Executor workloads: each batch's plan and outputs, for the reference
    /// comparison and the bitwise re-execution after the window.
    pub kept: Vec<(usize, Item)>,
}

impl<'a> Checker<'a> {
    pub fn new(s: &'a Setup) -> Self {
        Checker {
            s,
            failures: Vec::new(),
            sim_ms: Vec::new(),
            comm_bytes: 0,
            tokens: 0,
            counts: BTreeMap::new(),
            hash: Fnv::default(),
            kept: Vec::new(),
        }
    }

    fn count(&mut self, p: &PlanOutput) {
        let mut add = |k: &'static str, v: u64| *self.counts.entry(k).or_insert(0) += v;
        add("comp_blocks", p.layout.comp_blocks.len() as u64);
        add("token_blocks", p.layout.token_blocks.len() as u64);
        for phase in [&p.plan.fwd, &p.plan.bwd] {
            add(
                "instrs",
                phase.devices.iter().map(|d| d.instrs.len() as u64).sum(),
            );
            add(
                "transfers",
                phase.comms.iter().map(|o| o.transfers.len() as u64).sum(),
            );
        }
        add("comm_bytes", p.plan.total_comm_bytes());
        add(
            "passes_instrs_removed",
            p.passes.iter().map(|o| o.instrs_removed).sum(),
        );
        add(
            "passes_comm_bytes_saved",
            p.passes.iter().map(|o| o.comm_bytes_saved()).sum(),
        );
        add("exact_hits", p.stats.cache_hit as u64);
        add("near_hits", p.stats.near_hit as u64);
        add("fallback_plans", (p.tier != PlanTier::Partitioned) as u64);
    }

    fn model(&mut self, p: &PlanOutput, total_s: f64) {
        self.sim_ms.push(total_s * 1e3);
        self.comm_bytes += p.plan.total_comm_bytes();
        self.tokens += p.layout.total_tokens();
    }

    /// Checks batch `b` of the round: its chain succeeded, its plan is
    /// verifier-legal and equals the set-up's cold plan (or, in the stream,
    /// relates to its base plan as its class demands), and both simulations
    /// completed.
    pub fn take(&mut self, b: usize, item: Result<Item, String>) {
        let s = self.s;
        let it = match item {
            Ok(it) => it,
            Err(e) => {
                self.hash.bytes(e.as_bytes());
                self.failures.push(format!("batch {b}: {e}"));
                return;
            }
        };
        hash_plan(&mut self.hash, &it.plan);
        self.count(&it.plan);
        let mut fail = |msg: String| self.failures.push(format!("batch {b}: {msg}"));
        if s.inputs.kind == Kind::ReplanStream {
            let (item, st) = (&s.inputs.stream[b], &it.plan.stats);
            let base = &s.cold[item.base];
            match item.class {
                Class::Exact if !st.cache_hit => fail("exact repeat missed the plan cache".into()),
                Class::Identical if !st.near_hit || st.schedule_s != 0.0 => {
                    fail("identical layout was not replayed by the near-hit tier".into())
                }
                Class::Exact | Class::Identical if !same_plan(&it.plan, base) => {
                    fail("replayed plan differs from the cold plan".into())
                }
                _ => {}
            }
            if let Err(d) = verify_plan(&it.plan.layout, &it.plan.placement, &it.plan.plan) {
                fail(format!("verifier: {d}"));
            }
            match simulate_plan(&s.inputs.groups[0].cluster, &it.plan.plan) {
                Ok(sim) if sim_ok(&sim) => self.model(&it.plan, sim.total()),
                Ok(_) => fail("simulation did not complete".into()),
                Err(e) => fail(format!("simulate: {e}")),
            }
            return;
        }
        if it.plan.stats.cache_hit || it.plan.stats.near_hit {
            fail("plan was served from a cache, not planned cold".into());
        }
        if !s.cold.get(b).is_some_and(|c| same_plan(&it.plan, c)) {
            fail("round plan differs from the set-up plan".into());
        }
        if s.inputs.kind == Kind::PlanCold && !it.faulted.as_ref().is_some_and(sim_ok) {
            fail("faulted simulation did not complete".into());
        }
        match &it.sim {
            Some(sim) if sim_ok(sim) => self.model(&it.plan, sim.total()),
            _ => fail("simulation did not complete".into()),
        }
        if s.inputs.kind.executes() {
            self.kept.push((b, it));
        }
    }

    /// Extends the modelled metrics to [`PANEL_PLANS`] plans with cold plans
    /// of re-ordered copies of the first group's batches (the order is drawn
    /// from the run's seed). The stream's metrics stay its own plans': they
    /// measure what the warm path ships.
    pub fn panel(&mut self) {
        let s = self.s;
        if s.inputs.kind == Kind::ReplanStream {
            return;
        }
        let g = &s.inputs.groups[0];
        let planner = Planner::new(
            g.cluster.clone(),
            g.attn,
            dcp_core::PlannerConfig {
                plan_cache: 0,
                ..g.cfg.clone()
            },
        );
        let mut rng = SmallRng::seed_from_u64(mix(s.inputs.seed, 0x9a7e1));
        let copies = PANEL_PLANS
            .saturating_sub(s.inputs.num_batches())
            .div_ceil(g.batches.len());
        for copy in 0..copies {
            for (b, seqs) in g.batches.iter().enumerate() {
                let mut seqs = seqs.clone();
                shuffle(&mut seqs, &mut rng);
                let planned = planner
                    .plan(&seqs)
                    .map_err(|e| e.to_string())
                    .and_then(|p| {
                        let sim = simulate_plan(&g.cluster, &p.plan).map_err(|e| e.to_string())?;
                        Ok((p, sim))
                    });
                match planned {
                    Ok((p, sim)) if sim_ok(&sim) => self.model(&p, sim.total()),
                    Ok(_) => self.failures.push(format!(
                        "panel copy {copy} of batch {b}: simulation did not complete"
                    )),
                    Err(e) => self
                        .failures
                        .push(format!("panel copy {copy} of batch {b}: {e}")),
                }
            }
        }
    }

    /// Plans the modelled metrics cover.
    pub fn panel_size(&self) -> usize {
        self.sim_ms.len()
    }

    pub fn round_hash(&self) -> u64 {
        self.hash.0
    }

    pub fn modelled(&self) -> Modelled {
        Modelled {
            sim_iter_ms: geomean(&self.sim_ms),
            comm_bytes_per_token: self.comm_bytes as f64 / self.tokens.max(1) as f64,
        }
    }
}

/// Forward tolerance against the dense reference (as `tests/numerics.rs`).
const TOL_FWD: f32 = 2e-4;
/// Gradient tolerance against the dense reference.
const TOL_BWD: f32 = 2e-3;

/// Seconds the dense reference took for the batches compared.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReferenceTime {
    pub fwd_s: f64,
    pub bwd_s: f64,
    /// Batches compared.
    pub batches: usize,
}

/// Compares the executor's outputs and gradients for one batch with
/// `reference::attention` / `attention_bwd`, sequence by sequence.
fn matches_reference(
    out: &PlanOutput,
    data: &BatchData,
    d_o: &OutGrads,
    fwd: &FwdOut,
    bwd: &BwdOut,
    timing: &mut ReferenceTime,
) -> Result<(), String> {
    let l = &out.layout;
    let (qh, kvh) = BatchData::head_counts(l);
    let dim = l.attn.head_dim as usize;
    let hb = l.config.head_blocks as usize;
    let (tq, tkv) = (qh * hb, kvh * hb);
    for seq in 0..l.num_seqs() as u32 {
        let (q, k, v) = data.assemble_sequence(l, seq);
        let len = l.seq_lens[seq as usize] as usize;
        let mask = &l.masks[seq as usize];
        let mut full_do = vec![0.0f32; len * tq * dim];
        let blocks: Vec<usize> = (0..l.token_blocks.len())
            .filter(|&i| l.token_blocks[i].seq == seq)
            .collect();
        for &i in &blocks {
            let tb = &l.token_blocks[i];
            let h0 = tb.head_block as usize * qh;
            let blk = d_o
                .get(&TokenBlockId(i as u32))
                .ok_or("missing output gradient")?;
            for t in 0..tb.len as usize {
                let row = ((tb.start as usize + t) * tq + h0) * dim;
                full_do[row..row + qh * dim]
                    .copy_from_slice(&blk[t * qh * dim..(t + 1) * qh * dim]);
            }
        }
        let t0 = Instant::now();
        let (ro, rlse) = reference::attention(&q, &k, &v, len, tq, tkv, dim, mask);
        timing.fwd_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (rdq, rdk, rdv) =
            reference::attention_bwd(&q, &k, &v, &ro, &rlse, &full_do, len, tq, tkv, dim, mask);
        timing.bwd_s += t0.elapsed().as_secs_f64();
        let close = |got: &[f32], want: &[f32], tol: f32| {
            got.iter().zip(want).all(|(a, b)| (a - b).abs() < tol)
        };
        for &i in &blocks {
            let id = TokenBlockId(i as u32);
            let tb = &l.token_blocks[i];
            let o = fwd.get(&id).ok_or("missing forward block")?;
            let g = bwd.get(&id).ok_or("missing gradient block")?;
            let (h0q, h0kv) = (tb.head_block as usize * qh, tb.head_block as usize * kvh);
            for t in 0..tb.len as usize {
                let abs = tb.start as usize + t;
                let (rq, rkv) = ((abs * tq + h0q) * dim, (abs * tkv + h0kv) * dim);
                let (bq, bkv) = (t * qh * dim, t * kvh * dim);
                if !close(&o.o[bq..bq + qh * dim], &ro[rq..rq + qh * dim], TOL_FWD) {
                    return Err(format!(
                        "O differs from the reference (seq {seq}, block {i})"
                    ));
                }
                if !close(&g.dq[bq..bq + qh * dim], &rdq[rq..rq + qh * dim], TOL_BWD)
                    || !close(
                        &g.dk[bkv..bkv + kvh * dim],
                        &rdk[rkv..rkv + kvh * dim],
                        TOL_BWD,
                    )
                    || !close(
                        &g.dv[bkv..bkv + kvh * dim],
                        &rdv[rkv..rkv + kvh * dim],
                        TOL_BWD,
                    )
                {
                    return Err(format!(
                        "gradients differ from the reference (seq {seq}, block {i})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The executor checks that run after the window, on the outputs the checked
/// round kept: the first `reference_batches` batches against the dense
/// reference, and every batch re-executed for bitwise-identical outputs and
/// gradients. Returns one message per failed batch and the reference's time.
pub fn check_executor(
    s: &Setup,
    kept: &[(usize, Item)],
    reference_batches: usize,
) -> (Vec<String>, ReferenceTime) {
    let mut failures = Vec::new();
    let mut timing = ReferenceTime::default();
    for (b, it) in kept {
        let (b, p) = (*b, &it.plan);
        let (Some(fwd), Some(bwd)) = (&it.fwd, &it.bwd) else {
            failures.push(format!("batch {b}: executor outputs missing"));
            continue;
        };
        if timing.batches < reference_batches {
            timing.batches += 1;
            if let Err(e) = matches_reference(p, &s.data[b], &s.d_o[b], fwd, bwd, &mut timing) {
                failures.push(format!("batch {b}: {e}"));
            }
        }
        let again = execute_forward(&p.layout, &p.placement, &p.plan, &s.data[b]).and_then(|f| {
            let g = execute_backward(&p.layout, &p.placement, &p.plan, &s.data[b], &f, &s.d_o[b])?;
            Ok((f, g))
        });
        match again {
            Ok((f, g)) if forward_outputs_identical(&f, fwd) && grads_identical(&g, bwd) => {}
            Ok(_) => failures.push(format!("batch {b}: re-execution is not bitwise identical")),
            Err(e) => failures.push(format!("batch {b}: re-execution failed: {e}")),
        }
    }
    (failures, timing)
}
