//! The numeric backend of the stream walker.
//!
//! [`dcp_sched::stream`] owns what an instruction stream means — the
//! order devices run in, who deposits what at `CommLaunch`, what a `CommWait`
//! blocks on, which blocks a device may read — and rejects illegal streams
//! with the verifier's typed diagnostics. This module supplies the data:
//! a deposited slot is an f32 tensor, `Attn`/`AttnBwd` run the blockwise
//! kernels on the rayon pool and `Reduce` merges partials, always in plan
//! order, so results are bitwise identical at every thread count.
//!
//! A device can only read block data it **owns** or that **arrived** through
//! a waited operation — the walker resolves every input — so a plan that
//! forgets a transfer fails with [`DcpError::InvalidPlan`] rather than
//! silently producing correct-looking results: executing a plan is itself a
//! verification.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use dcp_blocks::{BatchLayout, TokenBlockId};
use dcp_obs::{Event, ObsSink, Phase as ObsPhase, Source as ObsSource, NOOP};
use dcp_sched::stream::{At, AttnItem, Backend, Stream, Wake};
use dcp_sched::{
    ExecutionPlan, Instr, Payload, PayloadKind, PhasePlan, Placement, ReduceItem, Transfer,
};
use dcp_types::{DcpError, DcpResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::kernels::{
    attn_block_bwd, attn_block_fwd, merge_into, BlockAcc, BlockArgs, BlockBwdArgs,
};

/// Per-token-block input tensors of one batch.
///
/// Block `t` holds `q: [len, qh, dim]`, `k`/`v`: `[len, kvh, dim]` where
/// `qh`/`kvh` are the per-head-group head counts of the layout.
#[derive(Debug, Clone)]
pub struct BatchData {
    /// Q slices, indexed by token block.
    pub q: Vec<Vec<f32>>,
    /// K slices.
    pub k: Vec<Vec<f32>>,
    /// V slices.
    pub v: Vec<Vec<f32>>,
}

impl BatchData {
    /// Per-head-group (query, kv) head counts of `layout`.
    pub fn head_counts(layout: &BatchLayout) -> (usize, usize) {
        (
            (layout.attn.q_heads / layout.config.head_blocks) as usize,
            (layout.attn.kv_heads / layout.config.head_blocks) as usize,
        )
    }

    /// Random input data for every token block (token blocks tile the batch
    /// disjointly, so independent blocks form a coherent batch).
    pub fn random(layout: &BatchLayout, seed: u64) -> Self {
        let (qh, kvh) = Self::head_counts(layout);
        let dim = layout.attn.head_dim as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut gen = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let mut q = Vec::new();
        let mut k = Vec::new();
        let mut v = Vec::new();
        for tb in &layout.token_blocks {
            let len = tb.len as usize;
            q.push(gen(len * qh * dim));
            k.push(gen(len * kvh * dim));
            v.push(gen(len * kvh * dim));
        }
        BatchData { q, k, v }
    }

    /// Assembles the full `[len, heads, dim]` tensors of sequence `seq`
    /// from its blocks (all head groups), for comparison against the dense
    /// reference. Returns `(q, k, v)`.
    pub fn assemble_sequence(
        &self,
        layout: &BatchLayout,
        seq: u32,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (qh, kvh) = Self::head_counts(layout);
        let dim = layout.attn.head_dim as usize;
        let hb = layout.config.head_blocks as usize;
        let len = layout.seq_lens[seq as usize] as usize;
        let total_qh = qh * hb;
        let total_kvh = kvh * hb;
        let mut q = vec![0.0f32; len * total_qh * dim];
        let mut k = vec![0.0f32; len * total_kvh * dim];
        let mut v = vec![0.0f32; len * total_kvh * dim];
        for (i, tb) in layout.token_blocks.iter().enumerate() {
            if tb.seq != seq {
                continue;
            }
            let h0q = tb.head_block as usize * qh;
            let h0kv = tb.head_block as usize * kvh;
            for t in 0..tb.len as usize {
                let abs = tb.start as usize + t;
                for h in 0..qh {
                    for d in 0..dim {
                        q[(abs * total_qh + h0q + h) * dim + d] = self.q[i][(t * qh + h) * dim + d];
                    }
                }
                for h in 0..kvh {
                    for d in 0..dim {
                        k[(abs * total_kvh + h0kv + h) * dim + d] =
                            self.k[i][(t * kvh + h) * dim + d];
                        v[(abs * total_kvh + h0kv + h) * dim + d] =
                            self.v[i][(t * kvh + h) * dim + d];
                    }
                }
            }
        }
        (q, k, v)
    }
}

/// Final attention output of one token block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockOut {
    /// Normalized output, `[len, qh, dim]`.
    pub o: Vec<f32>,
    /// Log-sum-exp, `[len * qh]`.
    pub lse: Vec<f32>,
}

/// Gradients of one token block's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockGrads {
    /// `[len, qh, dim]`.
    pub dq: Vec<f32>,
    /// `[len, kvh, dim]`.
    pub dk: Vec<f32>,
    /// `[len, kvh, dim]`.
    pub dv: Vec<f32>,
}

/// What a transfer carries while in flight and once arrived. Inputs borrow
/// the batch; partials own what the producer computed.
enum Data<'a> {
    Q(&'a [f32]),
    Kv(&'a [f32], &'a [f32]),
    /// dO plus the forward O and lse of the same rows (the paper's backward
    /// kernels need O and the softmax statistics alongside dO).
    OutGrad {
        d_o: &'a [f32],
        o: &'a [f32],
        lse: &'a [f32],
    },
    PartialO {
        o: Vec<f32>,
        lse: Vec<f32>,
    },
    PartialDq(Vec<f32>),
    PartialDkv(Vec<f32>, Vec<f32>),
}

/// The walker hands back each slot under the payload it was deposited for.
const SLOT_KIND: &str = "a slot's variant follows its payload's kind";

/// Observability context for an executor call: the sink plus the iteration
/// index stamped onto every emitted event. [`ExecObs::disabled`] is the
/// zero-overhead default used by the plain entry points.
pub struct ExecObs<'a> {
    /// Destination sink.
    pub sink: &'a dyn ObsSink,
    /// Iteration / batch index, when known.
    pub iter: Option<u64>,
}

impl<'a> ExecObs<'a> {
    /// Wraps a sink with no iteration index.
    pub fn new(sink: &'a dyn ObsSink) -> Self {
        ExecObs { sink, iter: None }
    }

    /// Stamps `iter` onto every event (builder style).
    pub fn with_iter(mut self, iter: u64) -> Self {
        self.iter = Some(iter);
        self
    }

    fn stamp(&self, e: Event) -> Event {
        match self.iter {
            Some(i) => e.with_iter(i),
            None => e,
        }
    }
}

impl ExecObs<'static> {
    /// The no-op context: a single disabled-branch per instruction.
    pub fn disabled() -> Self {
        ExecObs {
            sink: &NOOP,
            iter: None,
        }
    }
}

/// dK and dV running sums of one token block.
type KvGrad = (Vec<f32>, Vec<f32>);

/// What a backward phase reads besides the batch: `(fwd_out, d_o)`.
type GradsIn<'a> = (
    &'a HashMap<TokenBlockId, BlockOut>,
    &'a HashMap<TokenBlockId, Vec<f32>>,
);

/// `n` zeros in `v`'s buffer: `vec![0.0; n]` without an allocation once the
/// buffer has grown.
fn zeroed(mut v: Vec<f32>, n: usize) -> Vec<f32> {
    v.clear();
    v.resize(n, 0.0);
    v
}

fn add_into(acc: &mut [f32], part: &[f32]) {
    for (a, b) in acc.iter_mut().zip(part) {
        *a += b;
    }
}

/// Checks every tensor of a call against the shape `layout` gives its block:
/// the kernels slice them without looking, so a batch built for another
/// layout, or a `d_o` / `fwd_out` block of the wrong length, would otherwise
/// panic on an index somewhere inside one.
fn check_shapes(
    layout: &BatchLayout,
    data: &BatchData,
    grads_in: Option<GradsIn<'_>>,
) -> DcpResult<()> {
    let blocks = layout.token_blocks.len();
    for (name, tensors) in [("q", &data.q), ("k", &data.k), ("v", &data.v)] {
        if tensors.len() != blocks {
            return Err(DcpError::invalid_argument(format!(
                "the batch data holds {} {name} blocks, the layout {blocks} token blocks",
                tensors.len()
            )));
        }
    }
    let (qh, kvh) = BatchData::head_counts(layout);
    let dim = layout.attn.head_dim as usize;
    for (i, block) in layout.token_blocks.iter().enumerate() {
        let (tb, len) = (TokenBlockId(i as u32), block.len as usize);
        let expect = |name: &str, got: usize, want: usize| {
            if got == want {
                return Ok(());
            }
            Err(DcpError::invalid_argument(format!(
                "{name} of {tb:?} holds {got} elements, its {len} tokens need {want}"
            )))
        };
        expect("q", data.q[i].len(), len * qh * dim)?;
        expect("k", data.k[i].len(), len * kvh * dim)?;
        expect("v", data.v[i].len(), len * kvh * dim)?;
        let Some((fwd_out, d_o)) = grads_in else {
            continue;
        };
        let (Some(out), Some(d_o)) = (fwd_out.get(&tb), d_o.get(&tb)) else {
            return Err(DcpError::invalid_argument(format!(
                "missing forward output or dO for {tb:?}"
            )));
        };
        expect("dO", d_o.len(), len * qh * dim)?;
        expect("the forward output", out.o.len(), len * qh * dim)?;
        expect("the forward lse", out.lse.len(), len * qh)?;
    }
    Ok(())
}

/// The numeric backend: batch data in, per-device accumulators, and the
/// executor's span stream.
struct Numeric<'a> {
    layout: &'a BatchLayout,
    phase: &'a PhasePlan,
    data: &'a BatchData,
    /// Backward only: the forward outputs and the output gradients.
    grads_in: Option<GradsIn<'a>>,
    qh: usize,
    kvh: usize,
    dim: usize,
    scale: f32,
    /// Per device: forward online-softmax accumulators by Q block.
    acc_o: Vec<HashMap<TokenBlockId, BlockAcc>>,
    /// Per device: backward dQ / dKV running sums.
    acc_dq: Vec<HashMap<TokenBlockId, Vec<f32>>>,
    acc_dkv: Vec<HashMap<TokenBlockId, KvGrad>>,
    /// Blocks finalized by a forward `Reduce`.
    finals: HashMap<TokenBlockId, BlockOut>,
    /// Per-block partials already folded, kept for the next `Attn` /
    /// `AttnBwd` to reset and reuse instead of allocating its own.
    spare_accs: Vec<BlockAcc>,
    /// Folded `dQ` partials, then folded `dK` / `dV` ones: apart, so that a
    /// partial that becomes an accumulator has its block's size.
    spare_grads: [Vec<Vec<f32>>; 2],
    obs: &'a ExecObs<'a>,
    obs_phase: ObsPhase,
    enabled: bool,
    /// Time origin shared by every span of this phase.
    t0: Instant,
    /// End of the previous poll. Polls are serial, so it is also the start
    /// of the current one.
    mark: Instant,
    /// Per device: divisions completed so far (an `Attn`/`AttnBwd`
    /// instruction closes a division).
    division: Vec<u32>,
    /// Per device: when the device first blocked on its pending `CommWait`,
    /// so the eventual `comm_wait` span covers the whole blocked interval.
    wait_since: Vec<Option<Instant>>,
}

impl<'a> Numeric<'a> {
    fn new(
        layout: &'a BatchLayout,
        phase: &'a PhasePlan,
        data: &'a BatchData,
        obs: &'a ExecObs<'a>,
        obs_phase: ObsPhase,
    ) -> Self {
        let n = phase.devices.len();
        let (qh, kvh) = BatchData::head_counts(layout);
        let dim = layout.attn.head_dim as usize;
        let t0 = Instant::now();
        Numeric {
            layout,
            phase,
            data,
            grads_in: None,
            qh,
            kvh,
            dim,
            scale: 1.0 / (dim as f32).sqrt(),
            acc_o: vec![HashMap::new(); n],
            acc_dq: vec![HashMap::new(); n],
            acc_dkv: vec![HashMap::new(); n],
            finals: HashMap::new(),
            spare_accs: Vec::new(),
            spare_grads: [Vec::new(), Vec::new()],
            obs,
            obs_phase,
            enabled: obs.sink.enabled(),
            t0,
            mark: t0,
            division: vec![0; n],
            wait_since: vec![None; n],
        }
    }

    /// Kernel arguments of one resolved item (`None` inputs read the
    /// device's own blocks).
    fn block_args(&self, item: &AttnItem<'_, Data<'a>>) -> BlockArgs<'a> {
        let (layout, data) = (self.layout, self.data);
        let (qi, ki) = (item.q_block.0 as usize, item.kv_block.0 as usize);
        let q = match item.q {
            None => &data.q[qi][..],
            Some(Data::Q(q)) => q,
            Some(_) => unreachable!("{SLOT_KIND}"),
        };
        let (k, v) = match item.kv {
            None => (&data.k[ki][..], &data.v[ki][..]),
            Some(Data::Kv(k, v)) => (*k, *v),
            Some(_) => unreachable!("{SLOT_KIND}"),
        };
        let (qtb, ktb) = (layout.token_blocks[qi], layout.token_blocks[ki]);
        BlockArgs {
            q,
            k,
            v,
            qh: self.qh,
            kvh: self.kvh,
            dim: self.dim,
            q_len: qtb.len as usize,
            kv_len: ktb.len as usize,
            q_start: qtb.start,
            kv_start: ktb.start,
            mask: &layout.masks[qtb.seq as usize],
            scale: self.scale,
        }
    }

    /// Per-device peak planned buffer gauges for this phase.
    fn emit_buffer_gauges(&self) {
        if !self.enabled {
            return;
        }
        for ds in &self.phase.devices {
            self.obs.sink.record(
                self.obs.stamp(
                    Event::gauge(
                        ObsSource::Executor,
                        "peak_buffer_bytes",
                        ds.buffer.peak_bytes() as f64,
                    )
                    .with_device(ds.device)
                    .with_phase(self.obs_phase),
                ),
            );
        }
    }
}

impl<'a> Backend for Numeric<'a> {
    type Slot = Data<'a>;

    fn accumulates(&self, dev: u32, kind: PayloadKind, tb: TokenBlockId) -> bool {
        let d = dev as usize;
        match kind {
            PayloadKind::PartialO => self.acc_o[d].contains_key(&tb),
            PayloadKind::PartialDq => self.acc_dq[d].contains_key(&tb),
            PayloadKind::PartialDkv => self.acc_dkv[d].contains_key(&tb),
            _ => false,
        }
    }

    fn deposit(&mut self, dev: u32, _op: u32, tr: &Transfer) -> Data<'a> {
        const HELD: &str = "the walker checked the device accumulates this block";
        let (d, data) = (dev as usize, self.data);
        match tr.payload {
            Payload::Q(tb) => Data::Q(&data.q[tb.0 as usize]),
            Payload::Kv(tb) => Data::Kv(&data.k[tb.0 as usize], &data.v[tb.0 as usize]),
            Payload::DO(tb) => {
                let (fwd_out, d_o) = self.grads_in.expect("dO is legal only in backward");
                let out = &fwd_out[&tb];
                Data::OutGrad {
                    d_o: &d_o[&tb],
                    o: &out.o,
                    lse: &out.lse,
                }
            }
            Payload::PartialO(tb, _) => {
                let (o, lse) = self.acc_o[d].get(&tb).expect(HELD).finalize();
                Data::PartialO { o, lse }
            }
            Payload::PartialDq(tb, _) => {
                Data::PartialDq(self.acc_dq[d].get(&tb).expect(HELD).clone())
            }
            Payload::PartialDkv(tb, _) => {
                let (gk, gv) = self.acc_dkv[d].get(&tb).expect(HELD);
                Data::PartialDkv(gk.clone(), gv.clone())
            }
        }
    }

    /// Hot path: compute each computation block's partial on the rayon
    /// pool, then fold the partials into the device's accumulators in item
    /// order. The fold order is fixed by the plan, never by the scheduler,
    /// so results are bitwise identical at every thread count
    /// (RAYON_NUM_THREADS=1 degenerates to a serial loop).
    fn attn(&mut self, dev: u32, backward: bool, items: &[AttnItem<'_, Data<'a>>]) {
        let d = dev as usize;
        if !backward {
            let work: Vec<(TokenBlockId, BlockArgs<'_>, Option<BlockAcc>)> = items
                .iter()
                .map(|item| (item.q_block, self.block_args(item), self.spare_accs.pop()))
                .collect();
            let parts: Vec<(TokenBlockId, BlockAcc)> = work
                .into_par_iter()
                .map(|(qb, args, spare)| {
                    let mut acc = spare.unwrap_or_else(|| BlockAcc::new(0, 0, 0));
                    acc.reset(args.q_len, args.qh, args.dim);
                    attn_block_fwd(&mut acc, args);
                    (qb, acc)
                })
                .collect();
            for (qb, part) in parts {
                match self.acc_o[d].entry(qb) {
                    Entry::Occupied(e) => {
                        e.into_mut().merge(&part);
                        self.spare_accs.push(part);
                    }
                    Entry::Vacant(e) => {
                        e.insert(part);
                    }
                }
            }
            return;
        }
        let (fwd_out, d_o) = self.grads_in.expect("AttnBwd is legal only in backward");
        let work: Vec<(TokenBlockId, TokenBlockId, BlockBwdArgs<'_>, [Vec<f32>; 3])> = items
            .iter()
            .map(|item| {
                let qb = item.q_block;
                let (d_o, o, lse): (&[f32], &[f32], &[f32]) = match item.d_o {
                    None => {
                        let out = &fwd_out[&qb];
                        (&d_o[&qb], &out.o, &out.lse)
                    }
                    Some(Data::OutGrad { d_o, o, lse }) => (d_o, o, lse),
                    Some(_) => unreachable!("{SLOT_KIND}"),
                };
                let fwd = self.block_args(item);
                let spares = [0, 1, 1].map(|i| self.spare_grads[i].pop().unwrap_or_default());
                (qb, item.kv_block, BlockBwdArgs { fwd, o, lse, d_o }, spares)
            })
            .collect();
        type GradPart = (TokenBlockId, TokenBlockId, [Vec<f32>; 3]);
        let parts: Vec<GradPart> = work
            .into_par_iter()
            .map(|(qb, kb, args, [dq, dk, dv])| {
                let a = args.fwd;
                let kv_elems = a.kv_len * a.kvh * a.dim;
                let mut pdq = zeroed(dq, a.q_len * a.qh * a.dim);
                let (mut pdk, mut pdv) = (zeroed(dk, kv_elems), zeroed(dv, kv_elems));
                attn_block_bwd(args, &mut pdq, &mut pdk, &mut pdv);
                (qb, kb, [pdq, pdk, pdv])
            })
            .collect();
        // A block's first partial becomes its accumulator, as `acc_o`'s does
        // above: a partial sum that starts at `+0.0` is never `-0.0`, so
        // adding it to zeros would copy its bits.
        for (qb, kb, [pdq, pdk, pdv]) in parts {
            match self.acc_dq[d].entry(qb) {
                Entry::Occupied(e) => {
                    add_into(e.into_mut(), &pdq);
                    self.spare_grads[0].push(pdq);
                }
                Entry::Vacant(e) => {
                    e.insert(pdq);
                }
            }
            match self.acc_dkv[d].entry(kb) {
                Entry::Occupied(e) => {
                    let (dk, dv) = e.into_mut();
                    add_into(dk, &pdk);
                    add_into(dv, &pdv);
                    self.spare_grads[1].extend([pdk, pdv]);
                }
                Entry::Vacant(e) => {
                    e.insert((pdk, pdv));
                }
            }
        }
    }

    fn reduce(&mut self, dev: u32, item: &ReduceItem, parts: &[&Data<'a>]) {
        let (d, tb) = (dev as usize, item.target);
        let len = self.layout.token_blocks[tb.0 as usize].len as usize;
        match item.kind {
            PayloadKind::PartialO => {
                // Start from the device's own partial (if it computed
                // locally for this block).
                let mut merged = self.acc_o[d].get(&tb).map(BlockAcc::finalize);
                for part in parts {
                    let Data::PartialO { o, lse } = part else {
                        unreachable!("{SLOT_KIND}")
                    };
                    match &mut merged {
                        // The first partial's copy is the block's output.
                        None => merged = Some((o.clone(), lse.clone())),
                        Some((mo, mlse)) => merge_into(mo, mlse, o, lse, self.dim),
                    }
                }
                let (o, lse) = merged.expect("the walker requires a source or a local accumulator");
                self.finals.insert(tb, BlockOut { o, lse });
            }
            // With no partial of its own, the device starts from a copy of
            // the first one it received, as `attn`'s fold does: a partial
            // is a sum begun at `+0.0`, never `-0.0`, so adding it to zeros
            // would copy its bits.
            PayloadKind::PartialDq => {
                let mut grads = parts.iter().map(|part| {
                    let Data::PartialDq(g) = part else {
                        unreachable!("{SLOT_KIND}")
                    };
                    g
                });
                let acc = match self.acc_dq[d].entry(tb) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => e.insert(
                        grads
                            .next()
                            .map_or_else(|| vec![0.0; len * self.qh * self.dim], Vec::clone),
                    ),
                };
                grads.for_each(|g| add_into(acc, g));
            }
            PayloadKind::PartialDkv => {
                let n = len * self.kvh * self.dim;
                let mut grads = parts.iter().map(|part| {
                    let Data::PartialDkv(gk, gv) = part else {
                        unreachable!("{SLOT_KIND}")
                    };
                    (gk, gv)
                });
                let (dk, dv) = match self.acc_dkv[d].entry(tb) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => e.insert(grads.next().map_or_else(
                        || (vec![0.0; n], vec![0.0; n]),
                        |(gk, gv)| (gk.clone(), gv.clone()),
                    )),
                };
                for (gk, gv) in grads {
                    add_into(dk, gk);
                    add_into(dv, gv);
                }
            }
            _ => unreachable!("the walker reduces partial kinds only"),
        }
    }

    /// Emits the span of a retired instruction: per-instruction-class name,
    /// per-division index, and the bytes/flops payload. The walker's order
    /// depends only on plan structure — rayon parallelism stays inside an
    /// instruction — so the stream is deterministic across thread counts.
    fn polled(&mut self, at: At, ins: &Instr, retired: bool, _wake: &mut Wake) {
        if !self.enabled {
            return;
        }
        let (dev, d) = (at.dev, at.dev as usize);
        let (polled_at, now) = (self.mark, Instant::now());
        self.mark = now;
        if !retired {
            self.wait_since[d].get_or_insert(polled_at);
            return;
        }
        let span = |name: &str| {
            Event::span(ObsSource::Executor, name)
                .with_device(dev)
                .with_phase(self.obs_phase)
        };
        let mut started = polled_at;
        let ev = match ins {
            Instr::CommLaunch(cid) => span("comm_launch")
                .with_division(self.division[d])
                .with_comm(cid.0)
                .with_bytes(self.phase.comms[cid.0 as usize].bytes()),
            Instr::CommWait(cid) => {
                // The span covers the whole blocked interval, not just the
                // final successful poll.
                started = self.wait_since[d].take().unwrap_or(polled_at);
                span("comm_wait")
                    .with_division(self.division[d])
                    .with_comm(cid.0)
                    .with_bytes(self.phase.comms[cid.0 as usize].bytes_into(dev))
            }
            Instr::Attn { items, flops } | Instr::AttnBwd { items, flops } => {
                let div = self.division[d];
                self.division[d] += 1;
                let name = match ins {
                    Instr::Attn { .. } => "attn",
                    _ => "attn_bwd",
                };
                span(name)
                    .with_division(div)
                    .with_flops(*flops)
                    .with_value(items.len() as f64)
            }
            Instr::Reduce { items, bytes } => span("reduce")
                .with_division(self.division[d].saturating_sub(1))
                .with_bytes(*bytes)
                .with_value(items.len() as f64),
            Instr::Copy { bytes } => span("copy")
                .with_division(self.division[d].saturating_sub(1))
                .with_bytes(*bytes),
        };
        let ev = ev.with_time(
            (started - self.t0).as_secs_f64(),
            (now - started).as_secs_f64(),
        );
        self.obs.sink.record(self.obs.stamp(ev));
    }
}

/// Executes the forward phase of `plan`, returning the final `(O, lse)` of
/// every token block (keyed by id).
///
/// # Errors
///
/// Returns [`DcpError::InvalidPlan`], carrying the walker's diagnostic, if
/// the plan reads data that was never communicated, deadlocks, or
/// references unknown blocks, devices or comm ops, and
/// [`DcpError::InvalidArgument`], naming the block, if `data` does not have
/// the shapes of `layout`.
pub fn execute_forward(
    layout: &BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
    data: &BatchData,
) -> DcpResult<HashMap<TokenBlockId, BlockOut>> {
    execute_forward_obs(layout, placement, plan, data, &ExecObs::disabled())
}

/// [`execute_forward`] with observability: emits one span per retired
/// instruction (`attn` / `reduce` / `copy` / `comm_launch` / `comm_wait`,
/// with per-division indices and bytes/flops payloads) plus per-device
/// `peak_buffer_bytes` gauges. With [`ExecObs::disabled`] the overhead is a
/// single branch per instruction.
///
/// # Errors
///
/// As [`execute_forward`].
pub fn execute_forward_obs(
    layout: &BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
    data: &BatchData,
    obs: &ExecObs<'_>,
) -> DcpResult<HashMap<TokenBlockId, BlockOut>> {
    check_shapes(layout, data, None)?;
    let phase = &plan.fwd;
    let mut num = Numeric::new(layout, phase, data, obs, ObsPhase::Fwd);
    Stream {
        phase,
        backward: false,
        logical: Some((layout, placement)),
    }
    .walk(&mut num)?;
    num.emit_buffer_gauges();

    // Owned blocks whose outputs were computed entirely locally.
    let mut finals = num.finals;
    for (i, block) in layout.token_blocks.iter().enumerate() {
        let tb = TokenBlockId(i as u32);
        finals.entry(tb).or_insert_with(|| {
            match num.acc_o[placement.token_dev(tb) as usize].get(&tb) {
                Some(acc) => {
                    let (o, lse) = acc.finalize();
                    BlockOut { o, lse }
                }
                // No computation targets this block (possible only when the
                // mask has no pairs in its rows).
                None => {
                    let len = block.len as usize;
                    BlockOut {
                        o: vec![0.0; len * num.qh * num.dim],
                        lse: vec![f32::NEG_INFINITY; len * num.qh],
                    }
                }
            }
        });
    }
    Ok(finals)
}

/// Executes the backward phase of `plan`, returning the gradients of every
/// token block. `fwd_out` is the forward result (from [`execute_forward`])
/// and `d_o` the per-block output gradients.
///
/// # Errors
///
/// Returns [`DcpError::InvalidPlan`] as [`execute_forward`] does, and
/// [`DcpError::InvalidArgument`], naming the block, if `data`, `d_o` or
/// `fwd_out` is missing a block or holds one of another shape.
pub fn execute_backward(
    layout: &BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
    data: &BatchData,
    fwd_out: &HashMap<TokenBlockId, BlockOut>,
    d_o: &HashMap<TokenBlockId, Vec<f32>>,
) -> DcpResult<HashMap<TokenBlockId, BlockGrads>> {
    execute_backward_obs(
        layout,
        placement,
        plan,
        data,
        fwd_out,
        d_o,
        &ExecObs::disabled(),
    )
}

/// [`execute_backward`] with observability — the backward mirror of
/// [`execute_forward_obs`], spans included (`attn_bwd` instead of `attn`).
///
/// # Errors
///
/// As [`execute_backward`].
pub fn execute_backward_obs(
    layout: &BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
    data: &BatchData,
    fwd_out: &HashMap<TokenBlockId, BlockOut>,
    d_o: &HashMap<TokenBlockId, Vec<f32>>,
    obs: &ExecObs<'_>,
) -> DcpResult<HashMap<TokenBlockId, BlockGrads>> {
    check_shapes(layout, data, Some((fwd_out, d_o)))?;
    let phase = &plan.bwd;
    let mut num = Numeric::new(layout, phase, data, obs, ObsPhase::Bwd);
    num.grads_in = Some((fwd_out, d_o));
    Stream {
        phase,
        backward: true,
        logical: Some((layout, placement)),
    }
    .walk(&mut num)?;
    num.emit_buffer_gauges();

    // Assemble owned gradients.
    let mut grads = HashMap::new();
    for (i, tb) in layout.token_blocks.iter().enumerate() {
        let id = TokenBlockId(i as u32);
        let owner = placement.token_dev(id) as usize;
        let len = tb.len as usize;
        let dq = num.acc_dq[owner]
            .remove(&id)
            .unwrap_or_else(|| vec![0.0; len * num.qh * num.dim]);
        let (dk, dv) = num.acc_dkv[owner].remove(&id).unwrap_or_else(|| {
            let n = len * num.kvh * num.dim;
            (vec![0.0; n], vec![0.0; n])
        });
        grads.insert(id, BlockGrads { dq, dk, dv });
    }
    Ok(grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use dcp_blocks::BlockConfig;
    use dcp_mask::MaskSpec;
    use dcp_sched::{build_plan, ScheduleConfig};
    use dcp_types::AttnSpec;

    fn small_attn() -> AttnSpec {
        AttnSpec::new(4, 2, 8, 2)
    }

    fn build(seqs: &[(u32, MaskSpec)], bs: u32, hb: u32) -> BatchLayout {
        BatchLayout::build(
            small_attn(),
            BlockConfig {
                block_size: bs,
                head_blocks: hb,
            },
            seqs,
        )
        .unwrap()
    }

    fn ring_placement(l: &BatchLayout, n: u32) -> Placement {
        let token_to_dev: Vec<u32> = (0..l.token_blocks.len() as u32).map(|i| i % n).collect();
        let comp_to_dev: Vec<u32> = l
            .comp_blocks
            .iter()
            .map(|c| token_to_dev[c.q_block.0 as usize])
            .collect();
        Placement {
            num_devices: n,
            token_to_dev,
            comp_to_dev,
        }
    }

    /// Compares a plan execution against the dense reference for all
    /// sequences in the layout. Panics with context on mismatch.
    pub(crate) fn check_against_reference(
        l: &BatchLayout,
        p: &Placement,
        tol_fwd: f32,
        tol_bwd: f32,
    ) {
        let plan = build_plan(l, p, &ScheduleConfig::default()).unwrap();
        dcp_sched::verify_plan(l, p, &plan).unwrap();
        let data = BatchData::random(l, 77);
        let out = execute_forward(l, p, &plan, &data).unwrap();

        let (qh, kvh) = BatchData::head_counts(l);
        let dim = l.attn.head_dim as usize;
        let hb = l.config.head_blocks as usize;

        // dO: random but deterministic.
        let mut d_o = HashMap::new();
        {
            let mut rng = SmallRng::seed_from_u64(123);
            for (i, tb) in l.token_blocks.iter().enumerate() {
                let v: Vec<f32> = (0..tb.len as usize * qh * dim)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                d_o.insert(TokenBlockId(i as u32), v);
            }
        }
        let grads = execute_backward(l, p, &plan, &data, &out, &d_o).unwrap();

        for seq in 0..l.num_seqs() as u32 {
            let (q, k, v) = data.assemble_sequence(l, seq);
            let len = l.seq_lens[seq as usize] as usize;
            let total_qh = qh * hb;
            let total_kvh = kvh * hb;
            let mask = &l.masks[seq as usize];
            let (ro, rlse) = reference::attention(&q, &k, &v, len, total_qh, total_kvh, dim, mask);
            // Assemble dO for the full sequence.
            let mut full_do = vec![0.0f32; len * total_qh * dim];
            for (i, tb) in l.token_blocks.iter().enumerate() {
                if tb.seq != seq {
                    continue;
                }
                let h0 = tb.head_block as usize * qh;
                let blk = &d_o[&TokenBlockId(i as u32)];
                for t in 0..tb.len as usize {
                    for h in 0..qh {
                        for d in 0..dim {
                            full_do[((tb.start as usize + t) * total_qh + h0 + h) * dim + d] =
                                blk[(t * qh + h) * dim + d];
                        }
                    }
                }
            }
            let (rdq, rdk, rdv) = reference::attention_bwd(
                &q, &k, &v, &ro, &rlse, &full_do, len, total_qh, total_kvh, dim, mask,
            );
            // Compare every block slice.
            for (i, tb) in l.token_blocks.iter().enumerate() {
                if tb.seq != seq {
                    continue;
                }
                let id = TokenBlockId(i as u32);
                let got = &out[&id];
                let g = &grads[&id];
                let h0q = tb.head_block as usize * qh;
                let h0kv = tb.head_block as usize * kvh;
                for t in 0..tb.len as usize {
                    let abs = tb.start as usize + t;
                    for h in 0..qh {
                        let rr = (abs * total_qh + h0q + h) * dim;
                        let br = (t * qh + h) * dim;
                        for d in 0..dim {
                            let diff = (got.o[br + d] - ro[rr + d]).abs();
                            assert!(
                                diff < tol_fwd,
                                "seq {seq} block {i} O mismatch {diff} at t={t},h={h},d={d}"
                            );
                            let gdiff = (g.dq[br + d] - rdq[rr + d]).abs();
                            assert!(gdiff < tol_bwd, "seq {seq} block {i} dQ mismatch {gdiff}");
                        }
                        let lse_ref = rlse[abs * total_qh + h0q + h];
                        let lse_got = got.lse[t * qh + h];
                        if lse_ref == f32::NEG_INFINITY {
                            assert_eq!(lse_got, f32::NEG_INFINITY);
                        } else {
                            assert!((lse_got - lse_ref).abs() < tol_fwd);
                        }
                    }
                    for h in 0..kvh {
                        let rr = (abs * total_kvh + h0kv + h) * dim;
                        let br = (t * kvh + h) * dim;
                        for d in 0..dim {
                            assert!(
                                (g.dk[br + d] - rdk[rr + d]).abs() < tol_bwd,
                                "seq {seq} block {i} dK mismatch"
                            );
                            assert!(
                                (g.dv[br + d] - rdv[rr + d]).abs() < tol_bwd,
                                "seq {seq} block {i} dV mismatch"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ring_plan_matches_reference_causal() {
        let l = build(&[(64, MaskSpec::Causal), (32, MaskSpec::Causal)], 16, 1);
        let p = ring_placement(&l, 3);
        check_against_reference(&l, &p, 1e-4, 1e-3);
    }

    #[test]
    fn ring_plan_matches_reference_masks() {
        for spec in [
            MaskSpec::Lambda { sink: 3, window: 9 },
            MaskSpec::SharedQuestion {
                question_len: 20,
                answer_lens: vec![20, 24],
            },
            MaskSpec::CausalBlockwise {
                block: 8,
                window_blocks: 2,
                sink_blocks: 1,
            },
        ] {
            let l = build(&[(64, spec)], 16, 2);
            let p = ring_placement(&l, 4);
            check_against_reference(&l, &p, 1e-4, 1e-3);
        }
    }

    #[test]
    fn single_device_matches_reference() {
        let l = build(&[(48, MaskSpec::Causal)], 16, 1);
        let p = Placement::all_on_zero(&l, 1);
        check_against_reference(&l, &p, 1e-4, 1e-3);
    }

    #[test]
    fn random_placements_match_reference() {
        let mut rng = SmallRng::seed_from_u64(5);
        for trial in 0..5 {
            let l = build(
                &[
                    (40, MaskSpec::Causal),
                    (24, MaskSpec::Lambda { sink: 2, window: 8 }),
                ],
                8,
                1,
            );
            let n = 3u32;
            let token_to_dev: Vec<u32> = (0..l.token_blocks.len())
                .map(|_| rng.gen_range(0..n))
                .collect();
            let comp_to_dev: Vec<u32> = (0..l.comp_blocks.len())
                .map(|_| rng.gen_range(0..n))
                .collect();
            let p = Placement {
                num_devices: n,
                token_to_dev,
                comp_to_dev,
            };
            check_against_reference(&l, &p, 1e-4, 1e-3);
            let _ = trial;
        }
    }

    #[test]
    fn tampered_plan_is_rejected() {
        // Removing a transfer makes the executor fail loudly.
        let l = build(&[(64, MaskSpec::Causal)], 16, 1);
        let p = ring_placement(&l, 2);
        let mut plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        let data = BatchData::random(&l, 7);
        // Drop all transfers of the first forward comm op.
        if let Some(op) = plan.fwd.comms.first_mut() {
            op.transfers.clear();
        }
        let res = execute_forward(&l, &p, &plan, &data);
        assert!(res.is_err(), "under-communicating plan must fail");
    }
}
