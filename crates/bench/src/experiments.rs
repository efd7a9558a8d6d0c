//! Every sweep of the paper's evaluation (DESIGN.md §4), one function each.
//!
//! A sweep averages over `batches` batches per configuration (the paper
//! averages 200; `figures` defaults to 8) and returns what
//! `results/<name>.json` holds. It prints nothing, checks nothing and reads
//! no environment: `figures` prints and writes the tables, and
//! `tests/reports.rs` asserts the paper's orderings on them.

use dcp_baselines::Baseline;
use dcp_blocks::{BatchLayout, BlockConfig};
use dcp_core::{simulate_iteration, E2eConfig, IterationBreakdown, Planner, PlannerConfig};
use dcp_data::{log_histogram, sample_batches, sample_lengths, DatasetKind, MaskSetting};
use dcp_exec::train::{train, AttnBackend, TrainConfig};
use dcp_mask::MaskSpec;
use dcp_sched::{
    build_plan, ExecutionPlan, Instr, Payload, PhasePlan, Placement, PlanReport, ScheduleConfig,
};
use dcp_sim::{simulate_plan, PlanSim};
use dcp_types::{AttnSpec, ClusterSpec, DeviceId};
use serde_json::{json, Value};

use crate::{
    e2e_cp_cluster, mean, micro_attn, micro_cluster, run_baseline, run_dcp, run_dcp_best,
    run_loongtrain_best, Table, BASELINE_BLOCK, SEED,
};

/// The paper's static-CP baseline: Megatron-LM on TransformerEngine's CP.
const TE: Baseline = Baseline::TransformerEngine { head_groups: 2 };
const MIB: f64 = (1u64 << 20) as f64;
/// Token budget of the micro-benchmark batches, and the longest sequence of
/// the end-to-end sweeps that fix one.
const BUDGET: u32 = 131_072;

/// The default planner at one block size.
fn at_block(block_size: u32) -> PlannerConfig {
    PlannerConfig {
        block_size,
        ..Default::default()
    }
}

/// `n` batches of `kind` under `mask`, each a `max_len` budget of sequences
/// no longer than that.
fn batches_of(
    kind: DatasetKind,
    max_len: u32,
    mask: MaskSetting,
    n: usize,
) -> Vec<Vec<(u32, MaskSpec)>> {
    let batches = sample_batches(kind, n, 1.0, max_len, max_len.into(), mask, SEED);
    batches.into_iter().map(|b| b.seqs).collect()
}

/// Bytes both phases of `plan` move between nodes of `cluster`.
fn inter_node_bytes(cluster: &ClusterSpec, plan: &ExecutionPlan) -> u64 {
    let cross = |a, b| cluster.node_of(DeviceId(a)) != cluster.node_of(DeviceId(b));
    plan.fwd.comm_bytes_where(cross) + plan.bwd.comm_bytes_where(cross)
}

/// The busiest device's traffic, both phases.
fn max_device_bytes(plan: &ExecutionPlan) -> u64 {
    plan.fwd.max_device_comm_bytes() + plan.bwd.max_device_comm_bytes()
}

/// Max over mean of the devices' attention flops.
fn comp_imbalance(placement: &Placement, layout: &BatchLayout) -> f64 {
    let loads = placement.comp_loads(layout);
    *loads.iter().max().unwrap() as f64 / (loads.iter().sum::<u64>() as f64 / loads.len() as f64)
}

/// The end-to-end iteration around one simulated attention plan.
fn iteration(
    cfg: &E2eConfig,
    sim: &PlanSim,
    placement: &Placement,
    layout: &BatchLayout,
) -> IterationBreakdown {
    let max_tokens = *placement.token_loads(layout).iter().max().unwrap();
    simulate_iteration(cfg, sim, max_tokens, layout.total_tokens())
}

/// Figure 1: context-parallel communication overhead when training the 8B
/// GPT with TP=4 / CP=16 on LongAlign, as a function of the maximum
/// sequence length — with and without computation/communication overlap.
/// Static CP (the MLM/TE zigzag baseline) pays a communication cost that
/// grows with context length, and a large fraction of iteration time even
/// with overlap.
pub fn fig01_comm_overhead(batches: usize) -> Value {
    /// Rewrites a phase so every `CommLaunch` sits directly before its
    /// `CommWait`: communication is fully serialized with computation (the
    /// paper's "w/o overlap" bars).
    fn serialize_comm(phase: &PhasePlan) -> PhasePlan {
        let mut out = phase.clone();
        for dev in &mut out.devices {
            let mut instrs = Vec::with_capacity(dev.instrs.len());
            let mut pending: Vec<Instr> = Vec::new();
            for ins in &dev.instrs {
                match ins {
                    Instr::CommLaunch(cid) => pending.push(Instr::CommLaunch(*cid)),
                    Instr::CommWait(cid) => {
                        if let Some(p) = pending
                            .iter()
                            .position(|i| matches!(i, Instr::CommLaunch(c) if c == cid))
                        {
                            instrs.push(pending.remove(p));
                        }
                        instrs.push(ins.clone());
                    }
                    other => instrs.push(other.clone()),
                }
            }
            instrs.extend(pending);
            dev.instrs = instrs;
        }
        out
    }

    let cp = e2e_cp_cluster();
    let cfg = E2eConfig::paper();
    let mut table = Table::new(&[
        "max_len",
        "iter_s",
        "comm_overlap_s",
        "frac_overlap",
        "iter_serial_s",
        "comm_serial_s",
        "frac_serial",
    ]);
    for max_len in [32768u32, 65536, 131072, 262144] {
        let mut iter_t = Vec::new();
        let mut comm_ov = Vec::new();
        let mut iter_serial = Vec::new();
        let mut comm_serial = Vec::new();
        let sampled = batches_of(
            DatasetKind::LongAlign,
            max_len,
            MaskSetting::Causal,
            batches,
        );
        for batch in &sampled {
            let te = TE
                .build(micro_attn(), cp.num_devices(), BASELINE_BLOCK, batch)
                .expect("te builds");
            let sim = simulate_plan(&cp, &te.plan).expect("sim");
            let it = iteration(&cfg, &sim, &te.placement, &te.layout);
            iter_t.push(it.total);
            comm_ov.push(it.exposed_comm);

            let mut plan = te.plan.clone();
            plan.fwd = serialize_comm(&plan.fwd);
            plan.bwd = serialize_comm(&plan.bwd);
            let sim_s = simulate_plan(&cp, &plan).expect("sim serial");
            let it_s = iteration(&cfg, &sim_s, &te.placement, &te.layout);
            iter_serial.push(it_s.total);
            comm_serial.push(it_s.exposed_comm);
        }
        let (it, co, its, cs) = (
            mean(&iter_t),
            mean(&comm_ov),
            mean(&iter_serial),
            mean(&comm_serial),
        );
        table.row(vec![
            max_len.to_string(),
            format!("{it:.3}"),
            format!("{co:.3}"),
            format!("{:.1}%", 100.0 * co / it),
            format!("{its:.3}"),
            format!("{cs:.3}"),
            format!("{:.1}%", 100.0 * cs / its),
        ]);
    }
    table.to_json()
}

/// Figure 2: sequence-length distributions of the (synthetic) LongAlign and
/// LongDataCollections datasets, capped at 131072 tokens: the fraction of
/// 20 000 samples per logarithmic bin.
pub fn fig02_seqlen_dist() -> Value {
    const N: usize = 20_000;
    const BINS: usize = 14;

    let la = sample_lengths(DatasetKind::LongAlign, N, 1.0, BUDGET, SEED);
    let ldc = sample_lengths(DatasetKind::LongDataCollections, N, 1.0, BUDGET, SEED);
    let (edges, la_counts) = log_histogram(&la, BINS, BUDGET);
    let (_, ldc_counts) = log_histogram(&ldc, BINS, BUDGET);

    let mut table = Table::new(&["len_upto", "LongAlign_frac", "LDC_frac", "LongAlign", "LDC"]);
    for i in 0..BINS {
        table.row(vec![
            edges[i].to_string(),
            format!("{:.4}", la_counts[i] as f64 / N as f64),
            format!("{:.4}", ldc_counts[i] as f64 / N as f64),
            "#".repeat(la_counts[i] * 60 / N),
            "#".repeat(ldc_counts[i] * 60 / N),
        ]);
    }
    table.to_json()
}

/// Figure 5: the motivating example — two short sequences and one long
/// sequence on two devices, under three parallelization configurations:
///
/// (a) pure CP (every sequence split across both devices): balanced but
///     maximal communication;
/// (b) pure DP (long sequence on device 0, short ones on device 1):
///     zero communication but imbalanced computation;
/// (c) the mixed configuration DCP finds (CP for the long sequence, DP for
///     the short ones): balanced *and* half the communication;
///
/// and then what the planner itself picks.
pub fn fig05_motivating() -> Value {
    // Two short sequences of 4 blocks, one long of 8 blocks (the figure's
    // blue sequence has blocks twice the size; here twice as many).
    let b = 1024u32;
    let seqs = vec![
        (4 * b, MaskSpec::Causal),
        (4 * b, MaskSpec::Causal),
        (8 * b, MaskSpec::Causal),
    ];
    let attn = AttnSpec::paper_micro();
    let cluster = ClusterSpec::single_node(2);
    let block_cfg = BlockConfig {
        block_size: b,
        head_blocks: 1,
    };
    let layout = BatchLayout::build(attn, block_cfg, &seqs).expect("layout");

    // Computation follows its Q block.
    let eval = |name: &str, token_to_dev: Vec<u32>| {
        let comp_to_dev = layout
            .comp_blocks
            .iter()
            .map(|c| token_to_dev[c.q_block.0 as usize])
            .collect();
        let placement = Placement {
            num_devices: 2,
            token_to_dev,
            comp_to_dev,
        };
        let plan = build_plan(&layout, &placement, &ScheduleConfig::default()).expect("plan");
        let sim = simulate_plan(&cluster, &plan).expect("sim");
        json!({
            "config": name,
            "comm_bytes": plan.total_comm_bytes(),
            "imbalance": comp_imbalance(&placement, &layout),
            "sim_ms": sim.total() * 1e3,
        })
    };
    // Block `i` of an `n_blocks` sequence under zigzag halves.
    let zigzag = |n_blocks: u32, i: u32| -> u32 {
        let half = n_blocks / 2;
        if i < half {
            i % 2
        } else {
            1 - (i - half) % 2
        }
    };
    let place = |dev_of: &dyn Fn(u32, u32, u32) -> u32| -> Vec<u32> {
        let blocks = layout.token_blocks.iter();
        blocks
            .map(|tb| dev_of(tb.seq, seqs[tb.seq as usize].0 / b, tb.start / b))
            .collect()
    };

    let pure_cp = eval(
        "(a) pure CP (zigzag)",
        place(&|_, n_blocks, i| zigzag(n_blocks, i)),
    );
    let pure_dp = eval("(b) pure DP", place(&|seq, _, _| u32::from(seq != 2)));
    let mixed = eval(
        "(c) mixed CP+DP (DCP-style)",
        place(&|seq, n_blocks, i| if seq < 2 { seq } else { zigzag(n_blocks, i) }),
    );

    let cfg = PlannerConfig {
        head_blocks: Some(1),
        ..at_block(b)
    };
    let out = Planner::new(cluster.clone(), attn, cfg)
        .plan(&seqs)
        .expect("plan");
    let sim = simulate_plan(&cluster, &out.plan).expect("sim");
    json!([pure_cp, pure_dp, mixed, {
        "config": "planner",
        "comm_bytes": out.plan.total_comm_bytes(),
        "sim_ms": sim.total() * 1e3,
    }])
}

/// Figure 7: redundant KV communication of ring attention under a
/// shared-question mask. A KV block transfer is *redundant* when the
/// receiving device has no computation block consuming it — ring attention
/// relays everything anyway; DCP transfers only what is consumed.
pub fn fig07_redundant_comm() -> Value {
    /// Counts (used, redundant) KV-block transfers of the forward phase.
    fn classify(plan: &ExecutionPlan, placement: &Placement, layout: &BatchLayout) -> (u64, u64) {
        let (mut used, mut redundant) = (0u64, 0u64);
        for tr in plan.fwd.comms.iter().flat_map(|op| &op.transfers) {
            if let Payload::Kv(tb) = tr.payload {
                let consumed = layout.kv_consumers[tb.0 as usize]
                    .iter()
                    .any(|&c| placement.comp_dev(c) == tr.to);
                if consumed {
                    used += 1;
                } else {
                    redundant += 1;
                }
            }
        }
        (used, redundant)
    }

    // One sequence of 8 mask blocks on 4 devices, shared-question mask with
    // one question and two answers (mirroring the paper's Fig. 7 example).
    let b = 1024u32;
    let len = 8 * b;
    let mask = MaskSpec::SharedQuestion {
        question_len: 2 * b,
        answer_lens: vec![3 * b, 3 * b],
    };
    let attn = AttnSpec::paper_micro();

    let ring = Baseline::RfaRing
        .build(attn, 4, b, &[(len, mask.clone())])
        .expect("ring");
    let (ru, rr) = classify(&ring.plan, &ring.placement, &ring.layout);
    let planner = Planner::new(ClusterSpec::single_node(4), attn, at_block(b));
    let dcp = planner.plan(&[(len, mask)]).expect("plan");
    let (du, dr) = classify(&dcp.plan, &dcp.placement, &dcp.layout);
    json!({
        "ring": {"transfers": ru + rr, "redundant": rr},
        "dcp": {"transfers": du + dr, "redundant": dr},
    })
}

/// Forward and backward makespans of one system over a sweep's batches.
#[derive(Default)]
struct PhaseTimes([Vec<f64>; 2]);

impl PhaseTimes {
    fn push(&mut self, sim: &PlanSim) {
        self.0[0].push(sim.fwd.makespan);
        self.0[1].push(sim.bwd.makespan);
    }

    /// Mean milliseconds of phase `pi` (0 forward, 1 backward).
    fn ms(&self, pi: usize) -> f64 {
        mean(&self.0[pi]) * 1e3
    }
}

/// Figure 13: attention micro-benchmark under the causal mask — forward and
/// backward time of DCP vs RingFlashAttention (Ring, ZigZag), LoongTrain
/// (best inner ring) and TransformerEngine, across sequence-length scales
/// {0.5, 1, 2, 4} of LongDataCollections with a 131072-token batch budget
/// on 32 GPUs (4 p4de nodes).
pub fn fig13_micro_causal(batches: usize) -> Value {
    let cluster = micro_cluster();
    let attn = micro_attn();
    let mut table = Table::new(&[
        "scale",
        "phase",
        "DCP_ms",
        "RFA-Ring_ms",
        "RFA-ZigZag_ms",
        "LT_ms",
        "TE_ms",
        "speedup_vs_best",
    ]);
    let (kind, causal) = (DatasetKind::LongDataCollections, MaskSetting::Causal);
    for scale in [0.5f64, 1.0, 2.0, 4.0] {
        let sampled = sample_batches(kind, batches, scale, BUDGET, BUDGET.into(), causal, SEED);
        let mut acc: [PhaseTimes; 5] = Default::default();
        for batch in sampled.iter().map(|b| &b.seqs) {
            let (sim, _) = run_dcp_best(&cluster, attn, &at_block(1024), batch).expect("dcp");
            acc[0].push(&sim);
            for (i, b) in [(1, Baseline::RfaRing), (2, Baseline::RfaZigzag), (4, TE)] {
                let (s, _) = run_baseline(&cluster, attn, b, BASELINE_BLOCK, batch).expect("ring");
                acc[i].push(&s);
            }
            let (s, _) = run_loongtrain_best(&cluster, attn, 2, BASELINE_BLOCK, batch).expect("lt");
            acc[3].push(&s);
        }
        for (pi, phase) in ["fwd", "bwd"].iter().enumerate() {
            let ms: Vec<f64> = acc.iter().map(|a| a.ms(pi)).collect();
            let best_baseline = ms[1..].iter().cloned().fold(f64::INFINITY, f64::min);
            let mut row = vec![format!("{scale}"), phase.to_string()];
            row.extend(ms.iter().map(|m| format!("{m:.2}")));
            row.push(format!("{:.2}x", best_baseline / ms[0]));
            table.row(row);
        }
    }
    table.to_json()
}

/// Figure 14: attention micro-benchmark under the four attention masks —
/// DCP vs the (mask-extended) TransformerEngine baseline, 32 GPUs,
/// LongDataCollections at scale 1, 131072-token batches.
pub fn fig14_micro_masks(batches: usize) -> Value {
    let cluster = micro_cluster();
    let attn = micro_attn();
    let mut table = Table::new(&["mask", "phase", "DCP_ms", "TE_ms", "speedup"]);
    for mask in MaskSetting::ALL {
        let (mut dcp_t, mut te_t) = (PhaseTimes::default(), PhaseTimes::default());
        for batch in &batches_of(DatasetKind::LongDataCollections, BUDGET, mask, batches) {
            let (sim, _) = run_dcp_best(&cluster, attn, &at_block(1024), batch).expect("dcp");
            dcp_t.push(&sim);
            let (s, _) = run_baseline(&cluster, attn, TE, BASELINE_BLOCK, batch).expect("te");
            te_t.push(&s);
        }
        for (pi, phase) in ["fwd", "bwd"].iter().enumerate() {
            let (d, t) = (dcp_t.ms(pi), te_t.ms(pi));
            table.row(vec![
                mask.name().to_string(),
                phase.to_string(),
                format!("{d:.2}"),
                format!("{t:.2}"),
                format!("{:.2}x", t / d),
            ]);
        }
    }
    table.to_json()
}

/// Figures 15 and 16: end-to-end per-iteration training time on `kind` — 8B
/// GPT, 64 GPUs (TP = 4, CP = 16), DCP vs Megatron-LM with the
/// mask-extended TransformerEngine CP backend, for every maximum sequence
/// length and mask setting.
pub fn e2e(kind: DatasetKind, batches: usize) -> Value {
    let cp = e2e_cp_cluster();
    let cfg = E2eConfig::paper();
    let attn = micro_attn();
    let mut table = Table::new(&["max_len", "mask", "DCP_iter_s", "MLM_iter_s", "speedup"]);
    for max_len in [32768u32, 65536, 131072, 262144] {
        for mask in MaskSetting::ALL {
            let block = if max_len >= 131072 { 2048 } else { 1024 };
            let mut dcp_t = Vec::new();
            let mut mlm_t = Vec::new();
            for batch in &batches_of(kind, max_len, mask, batches) {
                let (sim, out) = run_dcp_best(&cp, attn, &at_block(block), batch).expect("dcp");
                dcp_t.push(iteration(&cfg, &sim, &out.placement, &out.layout).total);
                let (sim, out) = run_baseline(&cp, attn, TE, BASELINE_BLOCK, batch).expect("te");
                mlm_t.push(iteration(&cfg, &sim, &out.placement, &out.layout).total);
            }
            let (d, m) = (mean(&dcp_t), mean(&mlm_t));
            table.row(vec![
                max_len.to_string(),
                mask.name().to_string(),
                format!("{d:.3}"),
                format!("{m:.3}"),
                format!("{:.2}x", m / d),
            ]);
        }
    }
    table.to_json()
}

/// Figure 17: total inter-node communication volume (and max per-device
/// volume) vs DCP block size, on both datasets, against the static MLM(TE)
/// baseline — communication grows slightly with block size because larger
/// blocks give the placement less flexibility.
pub fn fig17_comm_vs_blocksize(batches: usize) -> Value {
    let cp = e2e_cp_cluster();
    let attn = micro_attn();
    let mut table = Table::new(&[
        "dataset",
        "block",
        "DCP_inter_MiB",
        "DCP_maxdev_MiB",
        "MLM_inter_MiB",
        "MLM_maxdev_MiB",
    ]);
    // Mean inter-node and busiest-device MiB over one system's plans.
    let volumes = |plans: &[ExecutionPlan]| {
        let inter: Vec<f64> = plans
            .iter()
            .map(|p| inter_node_bytes(&cp, p) as f64)
            .collect();
        let maxdev: Vec<f64> = plans.iter().map(|p| max_device_bytes(p) as f64).collect();
        [mean(&inter) / MIB, mean(&maxdev) / MIB].map(|v| format!("{v:.1}"))
    };
    for kind in [DatasetKind::LongAlign, DatasetKind::LongDataCollections] {
        let sampled = batches_of(kind, BUDGET, MaskSetting::Causal, batches);
        // The baseline's volume does not depend on DCP's block size.
        let mlm: Vec<ExecutionPlan> = sampled
            .iter()
            .map(|batch| run_baseline(&cp, attn, TE, BASELINE_BLOCK, batch).expect("te"))
            .map(|(_, out)| out.plan)
            .collect();
        for block in [512u32, 1024, 2048, 4096] {
            let dcp: Vec<ExecutionPlan> = sampled
                .iter()
                .map(|batch| run_dcp(&cp, attn, &at_block(block), batch).expect("dcp"))
                .map(|(_, out)| out.plan)
                .collect();
            let mut row = vec![kind.name().to_string(), block.to_string()];
            row.extend(volumes(&dcp));
            row.extend(volumes(&mlm));
            table.row(row);
        }
    }
    table.to_json()
}

/// Figure 18: planning time vs block size — block generation, hypergraph
/// partitioning and scheduling, per batch, for causal and sparse masks.
/// Planning time falls rapidly with block size (fewer blocks), and sparse
/// masks plan faster (fewer computation blocks). Wall clock: the only
/// table that differs from run to run.
pub fn fig18_planning_time(batches: usize) -> Value {
    let cp = e2e_cp_cluster();
    let mut table = Table::new(&[
        "mask",
        "block",
        "blockgen_ms",
        "partition_ms",
        "schedule_ms",
        "total_ms",
    ]);
    for mask in [MaskSetting::Causal, MaskSetting::Lambda] {
        let sampled = batches_of(DatasetKind::LongAlign, BUDGET, mask, batches);
        for block in [512u32, 1024, 2048, 4096] {
            let planner = Planner::new(cp.clone(), micro_attn(), at_block(block));
            let mut bg = Vec::new();
            let mut pt = Vec::new();
            let mut st = Vec::new();
            for batch in &sampled {
                let out = planner.plan(batch).expect("plan");
                bg.push(out.times.block_gen * 1e3);
                pt.push(out.times.partition * 1e3);
                st.push(out.times.schedule * 1e3);
            }
            table.row(vec![
                mask.name().to_string(),
                block.to_string(),
                format!("{:.1}", mean(&bg)),
                format!("{:.1}", mean(&pt)),
                format!("{:.1}", mean(&st)),
                format!("{:.1}", mean(&bg) + mean(&pt) + mean(&st)),
            ]);
        }
    }
    table.to_json()
}

/// Figure 19: DCP communication volume vs mask sparsity. Sparsity is the
/// mask's FLOPs relative to the causal mask (the paper's definition); the
/// sweep varies the lambda-mask window. DCP's communication should grow
/// roughly linearly with sparsity — it exploits every masked-out block — so
/// `comm_per_sparsity` should stay roughly constant.
pub fn fig19_comm_vs_sparsity(batches: usize) -> Value {
    let cp = e2e_cp_cluster();
    let mut table = Table::new(&[
        "dataset",
        "window",
        "sparsity",
        "DCP_comm_MiB",
        "comm_per_sparsity",
    ]);
    for kind in [DatasetKind::LongAlign, DatasetKind::LongDataCollections] {
        // Base batches: lengths only; masks substituted per window below.
        let base = batches_of(kind, BUDGET, MaskSetting::Causal, batches);
        for window in [2048u32, 4096, 8192, 16384, 32768, 65536, 131072] {
            let mut comm = Vec::new();
            let mut sparsity = Vec::new();
            for batch in &base {
                let masked: Vec<(u32, MaskSpec)> = batch
                    .iter()
                    .map(|(l, _)| (*l, MaskSpec::Lambda { sink: 64, window }))
                    .collect();
                let (_, out) = run_dcp(&cp, micro_attn(), &at_block(1024), &masked).expect("dcp");
                comm.push(out.plan.total_comm_bytes() as f64);
                // Batch sparsity: masked pairs / causal pairs, token-weighted.
                let mut pairs = 0f64;
                let mut causal = 0f64;
                for m in &out.layout.masks {
                    pairs += m.total_pairs() as f64;
                    let l = m.len() as f64;
                    causal += l * (l + 1.0) / 2.0;
                }
                sparsity.push(pairs / causal);
            }
            let c = mean(&comm) / MIB;
            let s = mean(&sparsity);
            table.row(vec![
                kind.name().to_string(),
                window.to_string(),
                format!("{s:.3}"),
                format!("{c:.1}"),
                format!("{:.1}", c / s),
            ]);
        }
    }
    table.to_json()
}

/// Figure 20: DCP communication volume vs the computation-imbalance
/// tolerance epsilon — the trade-off between balance and communication.
/// Larger epsilon lets the partitioner keep more blocks local, reducing
/// communication at the cost of compute imbalance.
pub fn fig20_comm_vs_epsilon(batches: usize) -> Value {
    let cp = e2e_cp_cluster();
    let mut table = Table::new(&["dataset", "epsilon", "DCP_comm_MiB", "comp_imbalance"]);
    for kind in [DatasetKind::LongAlign, DatasetKind::LongDataCollections] {
        let sampled = batches_of(kind, BUDGET, MaskSetting::Causal, batches);
        for eps in [0.0f64, 0.1, 0.2, 0.4, 0.8] {
            let cfg = PlannerConfig {
                eps_inter: eps.max(0.4),
                eps_intra: eps,
                ..at_block(1024)
            };
            let mut comm = Vec::new();
            let mut imb = Vec::new();
            for batch in &sampled {
                let (_, out) = run_dcp(&cp, micro_attn(), &cfg, batch).expect("dcp");
                comm.push(out.plan.total_comm_bytes() as f64);
                imb.push(comp_imbalance(&out.placement, &out.layout));
            }
            table.row(vec![
                kind.name().to_string(),
                format!("{eps}"),
                format!("{:.1}", mean(&comm) / MIB),
                format!("{:.3}", mean(&imb)),
            ]);
        }
    }
    table.to_json()
}

/// Steps of each Fig. 21 training run.
const LOSS_STEPS: usize = 60;

/// The training runs behind Figure 21: per mask, its name and the loss at
/// every step of a tiny transformer trained with dense single-device
/// attention and with DCP-planned attention on 4 devices.
pub fn loss_curves() -> Vec<(&'static str, Vec<f32>, Vec<f32>)> {
    let cfg = TrainConfig {
        seq_len: 96,
        lr: 0.2,
    };
    let planned_backend = AttnBackend::Planned {
        num_devices: 4,
        block_size: 8,
    };
    let shared_question = MaskSpec::SharedQuestion {
        question_len: 24,
        answer_lens: vec![24, 24, 24],
    };
    [
        ("causal", MaskSpec::Causal),
        ("shared_question", shared_question),
    ]
    .into_iter()
    .map(|(name, mask)| {
        let dense = train(cfg, AttnBackend::Dense, &mask, LOSS_STEPS).expect("dense train");
        let planned = train(cfg, planned_backend, &mask, LOSS_STEPS).expect("planned train");
        (name, dense, planned)
    })
    .collect()
}

/// Figure 21: training loss curves — DCP-planned distributed attention vs
/// the dense single-device baseline ([`loss_curves`]), every 10th step and
/// the last. The curves must coincide up to kernel-order floating-point
/// noise.
pub fn fig21_loss_curves() -> Value {
    let mut table = Table::new(&["step", "MLM_baseline_loss", "DCP_loss", "abs_diff"]);
    for (mask_name, dense, planned) in loss_curves() {
        for (i, (a, b)) in dense.iter().zip(&planned).enumerate() {
            if i % 10 == 0 || i + 1 == LOSS_STEPS {
                table.row(vec![
                    format!("{mask_name}:{i}"),
                    format!("{a:.6}"),
                    format!("{b:.6}"),
                    format!("{:.2e}", (a - b).abs()),
                ]);
            }
        }
    }
    table.to_json()
}

/// Figure 22: decomposition of end-to-end iteration time (LongAlign,
/// max sequence length 131072) into attention computation, exposed
/// (non-overlapped) CP communication, overlapped communication, and
/// everything else (context-independent ops, gradient sync, optimizer) —
/// for DCP and the MLM(TE) baseline under all four masks.
pub fn fig22_decomposition(batches: usize) -> Value {
    let cp = e2e_cp_cluster();
    let cfg = E2eConfig::paper();
    let attn = micro_attn();
    let mut table = Table::new(&[
        "mask",
        "system",
        "attn_s",
        "exposed_comm_s",
        "overlap_comm_s",
        "other_s",
        "total_s",
    ]);
    for mask in MaskSetting::ALL {
        let sampled = batches_of(DatasetKind::LongAlign, BUDGET, mask, batches);
        for system in ["DCP", "MLM"] {
            let its: Vec<IterationBreakdown> = sampled
                .iter()
                .map(|batch| {
                    if system == "DCP" {
                        let (sim, out) = run_dcp(&cp, attn, &at_block(2048), batch).expect("dcp");
                        iteration(&cfg, &sim, &out.placement, &out.layout)
                    } else {
                        let (sim, out) =
                            run_baseline(&cp, attn, TE, BASELINE_BLOCK, batch).expect("te");
                        iteration(&cfg, &sim, &out.placement, &out.layout)
                    }
                })
                .collect();
            let col = |f: &dyn Fn(&IterationBreakdown) -> f64| {
                format!("{:.3}", mean(&its.iter().map(f).collect::<Vec<f64>>()))
            };
            table.row(vec![
                mask.name().to_string(),
                system.to_string(),
                col(&|it| it.attn_compute),
                col(&|it| it.exposed_comm),
                col(&|it| it.overlap_comm),
                col(&|it| it.ctx_independent + it.grad_sync + it.other),
                col(&|it| it.total),
            ]);
        }
    }
    table.to_json()
}

/// Quality ablations of DCP's design choices (DESIGN.md Sec. 5): the effect
/// of hierarchical placement, FM refinement, and the number of divisions on
/// communication volume and simulated attention time. `plan_ms` is wall
/// clock.
pub fn ablations(batches: usize) -> Value {
    let cluster = micro_cluster();
    let sampled = batches_of(
        DatasetKind::LongDataCollections,
        BUDGET,
        MaskSetting::Causal,
        batches,
    );
    let mut table = Table::new(&[
        "variant",
        "total_comm_MiB",
        "inter_node_MiB",
        "sim_ms",
        "plan_ms",
    ]);
    let base = at_block(1024);
    let divisions = |divisions| PlannerConfig {
        divisions,
        ..base.clone()
    };
    let variants: Vec<(&str, PlannerConfig)> = vec![
        ("default (hier, FM, T=4)", base.clone()),
        (
            "flat placement",
            PlannerConfig {
                hierarchical: false,
                ..base.clone()
            },
        ),
        (
            "no FM refinement",
            PlannerConfig {
                refine: false,
                ..base.clone()
            },
        ),
        ("T=1 (no overlap)", divisions(1)),
        ("T=2", divisions(2)),
        ("T=8", divisions(8)),
    ];
    for (name, cfg) in variants {
        let mut comm = Vec::new();
        let mut inter = Vec::new();
        let mut sim_t = Vec::new();
        let mut plan_t = Vec::new();
        for batch in &sampled {
            let (sim, out) = run_dcp(&cluster, micro_attn(), &cfg, batch).expect("dcp");
            comm.push(out.plan.total_comm_bytes() as f64);
            inter.push(inter_node_bytes(&cluster, &out.plan) as f64);
            sim_t.push(sim.total() * 1e3);
            plan_t.push(out.times.total() * 1e3);
        }
        table.row(vec![
            name.to_string(),
            format!("{:.1}", mean(&comm) / MIB),
            format!("{:.1}", mean(&inter) / MIB),
            format!("{:.2}", mean(&sim_t)),
            format!("{:.1}", mean(&plan_t)),
        ]);
    }
    table.to_json()
}

/// Memory-balance report: per-device peak block-buffer bytes under DCP vs
/// the baselines (forward phase). The paper's placement constraint balances
/// *data* blocks precisely so that activation memory (which is linear in
/// resident tokens, Sec. 2.3) stays even while computation (quadratic) is
/// balanced separately — DCP balances peak buffers alongside FLOPs, and
/// LoongTrain's padding inflates every device's footprint.
pub fn memory_report(batches: usize) -> Value {
    let (cluster, attn) = (&micro_cluster(), micro_attn());
    let sampled = batches_of(
        DatasetKind::LongDataCollections,
        BUDGET,
        MaskSetting::Causal,
        batches,
    );
    let mut table = Table::new(&[
        "system",
        "peak_buf_MiB_mean",
        "peak_buf_MiB_max",
        "mem_imbalance",
        "flops_imbalance",
    ]);
    // A row from one system's plan of each batch (forward phase).
    type PlanOf<'a> = &'a dyn Fn(&[(u32, MaskSpec)]) -> ExecutionPlan;
    let mut add = |name: &str, plan_of: PlanOf| {
        let reports: Vec<PlanReport> = sampled
            .iter()
            .map(|batch| PlanReport::from_phase(&plan_of(batch).fwd))
            .collect();
        let over_batches =
            |f: &dyn Fn(&PlanReport) -> f64| mean(&reports.iter().map(f).collect::<Vec<f64>>());
        let peaks = |r: &PlanReport| -> Vec<f64> {
            r.devices
                .iter()
                .map(|d| d.peak_buffer_bytes as f64)
                .collect()
        };
        table.row(vec![
            name.to_string(),
            format!(
                "{:.1}",
                over_batches(&|r| peaks(r).iter().sum::<f64>() / r.devices.len() as f64) / MIB
            ),
            format!(
                "{:.1}",
                over_batches(&|r| peaks(r).into_iter().fold(0.0, f64::max)) / MIB
            ),
            format!(
                "{:.2}",
                over_batches(&|r| r.imbalance(|d| d.peak_buffer_bytes))
            ),
            format!("{:.2}", over_batches(&|r| r.imbalance(|d| d.attn_flops))),
        ]);
    };
    let baseline = |b: Baseline| {
        move |batch: &[(u32, MaskSpec)]| {
            let (_, out) = run_baseline(cluster, attn, b, BASELINE_BLOCK, batch).expect("baseline");
            out.plan
        }
    };
    add("DCP", &|batch| {
        let (_, out) = run_dcp_best(cluster, attn, &at_block(1024), batch).expect("dcp");
        out.plan
    });
    add("TE", &baseline(TE));
    add("RFA-ZigZag", &baseline(Baseline::RfaZigzag));
    add("LoongTrain (padded)", &|batch| {
        let (_, out) = run_loongtrain_best(cluster, attn, 2, BASELINE_BLOCK, batch).expect("lt");
        out.plan
    });
    table.to_json()
}
