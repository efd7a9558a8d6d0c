//! Three-way agreement on what a stream means: the verifier, the numeric
//! executor and the simulator, over seeded random layouts × masks ×
//! placements, each plan taken clean, through the eight `stream_verify`
//! mutation classes and through the malformed-plan cases that used to panic
//! a consumer (ids past the op table or the layout, a layout whose own ids
//! point outside it, a forward reduce of nothing, a stream table that
//! disagrees with the placement) — and each clean plan executed on tensors
//! of the wrong shape, which used to panic inside a kernel.
//!
//! The contract, checked for every variant:
//!
//! - (a) nothing panics — untrusted plans return typed errors;
//! - (b) verifier-accepted ⇒ forward + backward execute to the dense
//!   reference and the simulation completes;
//! - (c) executor error ⇒ verifier error, and the simulator — a backend of
//!   the same walker, walking launch/wait structure only — rejects a phase
//!   exactly when `verify_structure` does, with that diagnostic.
//!
//! Recovery patches get the same treatment under their `RecoveryCtx`: seeded
//! kill sequences (forward to depth 2, backward to depth 1) are accepted by
//! all three — the simulator with shards on their hosts' clocks — and a patch
//! that lost one stand-in launch is a typed error from all three.
//!
//! All three are backends of `dcp::sched::stream::Stream::walk`, whose run
//! queue replaced a round-robin over every device; the round-robin is kept
//! below as an oracle for the order instructions retire in.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dcp::blocks::{BatchLayout, BlockConfig, CompBlockId, TokenBlockId};
use dcp::core::recovery::{FailureEvent, RecoveryPatch, RecoveryPlanner};
use dcp::core::{PlanOutput, Planner, PlannerConfig};
use dcp::exec::executor::BlockGrads;
use dcp::exec::executor::{execute_backward_recovery, execute_forward_recovery, ExecObs};
use dcp::exec::{execute_backward, execute_forward, reference, BatchData, BlockOut};
use dcp::mask::MaskSpec;
use dcp::sched::stream::{At, AttnItem, Backend, Stream, Wake};
use dcp::sched::{
    build_plan, verify_phase, verify_plan, verify_structure, CommId, ExecutionPlan, Instr, Payload,
    PayloadKind, PhasePlan, Placement, RecoveryCtx, ReduceItem, ScheduleConfig, Transfer,
    ViolationKind,
};
use dcp::sim::network::Network;
use dcp::sim::{simulate, simulate_on, simulate_plan, FaultSpec};
use dcp::types::{AttnSpec, ClusterSpec, DcpError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 16;

/// A small random batch, an arbitrary (scattered) placement of its token and
/// computation blocks, and the schedule built for them.
fn random_case(seed: u64) -> (BatchLayout, Placement, ExecutionPlan) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let block_size = 8 * rng.gen_range(1..3u32);
    let seqs: Vec<(u32, MaskSpec)> = (0..rng.gen_range(1..4))
        .map(|_| {
            let mask = match rng.gen_range(0..4) {
                0 => MaskSpec::Causal,
                1 => MaskSpec::Lambda { sink: 2, window: 9 },
                2 => MaskSpec::CausalBlockwise {
                    block: 8,
                    window_blocks: 2,
                    sink_blocks: 1,
                },
                _ => MaskSpec::SharedQuestion {
                    question_len: 16,
                    answer_lens: vec![8, 16],
                },
            };
            let len = match mask {
                MaskSpec::SharedQuestion { .. } => 40,
                _ => 8 * rng.gen_range(2..8u32),
            };
            (len, mask)
        })
        .collect();
    let config = BlockConfig {
        block_size,
        head_blocks: rng.gen_range(1..3),
    };
    let layout = BatchLayout::build(AttnSpec::new(4, 2, 8, 2), config, &seqs).unwrap();
    let n = rng.gen_range(2..5);
    let placement = Placement {
        num_devices: n,
        token_to_dev: (0..layout.token_blocks.len())
            .map(|_| rng.gen_range(0..n))
            .collect(),
        comp_to_dev: (0..layout.comp_blocks.len())
            .map(|_| rng.gen_range(0..n))
            .collect(),
    };
    let cfg = ScheduleConfig {
        divisions: rng.gen_range(1..5),
        ..Default::default()
    };
    let plan = build_plan(&layout, &placement, &cfg).unwrap();
    (layout, placement, plan)
}

/// Position of the first forward instruction satisfying `pred`.
fn find_instr(plan: &ExecutionPlan, pred: impl Fn(&Instr) -> bool) -> Option<(usize, usize)> {
    plan.fwd.devices.iter().enumerate().find_map(|(d, s)| {
        let i = s.instrs.iter().position(&pred)?;
        Some((d, i))
    })
}

type Mutation = (&'static str, fn(&mut ExecutionPlan) -> bool);

/// The eight `stream_verify` mutation classes, then the malformed-plan
/// cases. Each returns whether it applied to this plan.
const MUTATIONS: &[Mutation] = &[
    ("wait-before-launch", |plan| {
        for stream in &mut plan.fwd.devices {
            for i in 0..stream.instrs.len() {
                let Instr::CommLaunch(cid) = stream.instrs[i] else {
                    continue;
                };
                let input_only = plan.fwd.comms[cid.0 as usize]
                    .transfers
                    .iter()
                    .all(|t| matches!(t.payload.kind(), PayloadKind::Q | PayloadKind::Kv));
                let wait = stream.instrs[i + 1..]
                    .iter()
                    .position(|x| *x == Instr::CommWait(cid));
                if let (true, Some(j)) = (input_only, wait) {
                    let wait = stream.instrs.remove(i + 1 + j);
                    stream.instrs.insert(i, wait);
                    return true;
                }
            }
        }
        false
    }),
    ("duplicate-compute", |plan| {
        let Some((d, i)) = find_instr(plan, |ins| matches!(ins, Instr::Attn { .. })) else {
            return false;
        };
        let Instr::Attn { items, .. } = &mut plan.fwd.devices[d].instrs[i] else {
            unreachable!()
        };
        items.push(items[0]);
        true
    }),
    ("dropped-input-transfer", |plan| {
        for op in &mut plan.fwd.comms {
            let input =
                |t: &dcp::sched::Transfer| matches!(t.payload, Payload::Q(_) | Payload::Kv(_));
            if let Some(pos) = op.transfers.iter().position(input) {
                op.transfers.remove(pos);
                return true;
            }
        }
        false
    }),
    ("out-of-range-comm-id", |plan| {
        let bogus = CommId(plan.fwd.comms.len() as u32 + 7);
        plan.fwd.devices[0].instrs.insert(0, Instr::CommWait(bogus));
        true
    }),
    ("self-transfer", |plan| {
        for tr in plan.fwd.comms.iter_mut().flat_map(|op| &mut op.transfers) {
            if matches!(tr.payload, Payload::Q(_) | Payload::Kv(_)) {
                tr.from = tr.to;
                return true;
            }
        }
        false
    }),
    ("dropped-attn", |plan| {
        let Some((d, i)) = find_instr(plan, |ins| matches!(ins, Instr::Attn { .. })) else {
            return false;
        };
        plan.fwd.devices[d].instrs.remove(i);
        true
    }),
    ("phantom-reduce-source", |plan| {
        let nd = plan.num_devices;
        for stream in &mut plan.fwd.devices {
            let dev = stream.device;
            for ins in &mut stream.instrs {
                let Instr::Reduce { items, .. } = ins else {
                    continue;
                };
                for item in items {
                    let free = (0..nd).find(|d| !item.sources.contains(d) && *d != dev);
                    if let Some(phantom) = free {
                        item.sources.push(phantom);
                        return true;
                    }
                }
            }
        }
        false
    }),
    ("misdirected-partial", |plan| {
        let nd = plan.num_devices;
        for tr in plan.fwd.comms.iter_mut().flat_map(|op| &mut op.transfers) {
            // With two devices there is nowhere else to send it.
            if matches!(tr.payload, Payload::PartialO(..)) && nd > 2 {
                tr.to = (tr.to + 1) % nd;
                if tr.to == tr.from {
                    tr.to = (tr.to + 1) % nd;
                }
                return true;
            }
        }
        false
    }),
    // --- Malformed plans: each used to panic at least one consumer. -------
    ("out-of-range-launch", |plan| {
        let bogus = CommId(plan.bwd.comms.len() as u32);
        plan.bwd.devices[0].instrs.push(Instr::CommLaunch(bogus));
        true
    }),
    ("out-of-range-comp-block", |plan| {
        let Some((d, i)) = find_instr(plan, |ins| matches!(ins, Instr::Attn { .. })) else {
            return false;
        };
        let Instr::Attn { items, .. } = &mut plan.fwd.devices[d].instrs[i] else {
            unreachable!()
        };
        items.push(CompBlockId(u32::MAX));
        true
    }),
    ("out-of-range-token-block", |plan| {
        for tr in plan.fwd.comms.iter_mut().flat_map(|op| &mut op.transfers) {
            if let Payload::Kv(tb) = &mut tr.payload {
                tb.0 = u32::MAX - 1;
                return true;
            }
        }
        false
    }),
    ("out-of-range-reduce-target", |plan| {
        let item = ReduceItem {
            target: TokenBlockId(1 << 30),
            sources: vec![0],
            kind: PayloadKind::PartialO,
        };
        let (items, bytes) = (vec![item], 0);
        plan.fwd.devices[0]
            .instrs
            .push(Instr::Reduce { items, bytes });
        true
    }),
    ("reduce-of-nothing", |plan| {
        // A forward reduce with no sources, placed first so the device has
        // no local accumulator for the block either.
        let item = ReduceItem {
            target: TokenBlockId(0),
            sources: Vec::new(),
            kind: PayloadKind::PartialO,
        };
        let (items, bytes) = (vec![item], 0);
        plan.fwd.devices[0]
            .instrs
            .insert(0, Instr::Reduce { items, bytes });
        true
    }),
    ("missing-stream", |plan| plan.fwd.devices.pop().is_some()),
    ("extra-stream", |plan| {
        let mut extra = plan.bwd.devices[0].clone();
        extra.device = plan.bwd.devices.len() as u32;
        extra.instrs.clear();
        plan.bwd.devices.push(extra);
        true
    }),
    ("mislabelled-stream", |plan| {
        plan.fwd.devices[0].device += 1;
        true
    }),
];

/// Seeded inputs and output gradients for `layout`.
fn random_tensors(layout: &BatchLayout) -> (BatchData, HashMap<TokenBlockId, Vec<f32>>) {
    let (qh, _) = BatchData::head_counts(layout);
    let dim = layout.attn.head_dim as usize;
    let mut rng = SmallRng::seed_from_u64(99);
    let d_o = (0..layout.token_blocks.len())
        .map(|i| {
            let n = layout.token_blocks[i].len as usize * qh * dim;
            let v = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            (TokenBlockId(i as u32), v)
        })
        .collect();
    (BatchData::random(layout, 2024), d_o)
}

/// Executes forward + backward and returns the largest deviation from the
/// dense reference over O, dQ, dK and dV.
fn execute_vs_reference(
    layout: &BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
) -> Result<f32, DcpError> {
    let (data, d_o) = random_tensors(layout);
    let (qh, kvh) = BatchData::head_counts(layout);
    let dim = layout.attn.head_dim as usize;
    let hb = layout.config.head_blocks as usize;
    let (tq, tkv) = (qh * hb, kvh * hb);
    let out = execute_forward(layout, placement, plan, &data)?;
    let grads = execute_backward(layout, placement, plan, &data, &out, &d_o)?;

    let mut worst = 0.0f32;
    for seq in 0..layout.num_seqs() as u32 {
        let (q, k, v) = data.assemble_sequence(layout, seq);
        let len = layout.seq_lens[seq as usize] as usize;
        let mask = &layout.masks[seq as usize];
        let blocks = || {
            let of_seq = move |(_, tb): &(usize, &dcp::blocks::TokenBlock)| tb.seq == seq;
            layout.token_blocks.iter().enumerate().filter(of_seq)
        };
        // Row of token `t`, head `h` of block `tb` in the full-sequence and
        // in the per-block tensors (`heads` per block, `total` per sequence).
        let rows = |tb: &dcp::blocks::TokenBlock, heads: usize, total: usize| {
            let (start, h0) = (tb.start as usize, tb.head_block as usize * heads);
            (0..tb.len as usize * heads).map(move |r| {
                let (t, h) = (r / heads, r % heads);
                (((start + t) * total + h0 + h) * dim, r * dim)
            })
        };
        let mut full_do = vec![0.0f32; len * tq * dim];
        for (i, tb) in blocks() {
            for (full, blk) in rows(tb, qh, tq) {
                full_do[full..full + dim]
                    .copy_from_slice(&d_o[&TokenBlockId(i as u32)][blk..blk + dim]);
            }
        }
        let (ro, rlse) = reference::attention(&q, &k, &v, len, tq, tkv, dim, mask);
        let (rdq, rdk, rdv) =
            reference::attention_bwd(&q, &k, &v, &ro, &rlse, &full_do, len, tq, tkv, dim, mask);
        let mut compare = |got: &[f32], want: &[f32], full: usize, blk: usize| {
            for d in 0..dim {
                worst = worst.max((got[blk + d] - want[full + d]).abs());
            }
        };
        for (i, tb) in blocks() {
            let id = TokenBlockId(i as u32);
            for (full, blk) in rows(tb, qh, tq) {
                compare(&out[&id].o, &ro, full, blk);
                compare(&grads[&id].dq, &rdq, full, blk);
            }
            for (full, blk) in rows(tb, kvh, tkv) {
                compare(&grads[&id].dk, &rdk, full, blk);
                compare(&grads[&id].dv, &rdv, full, blk);
            }
        }
    }
    Ok(worst)
}

/// Runs all three consumers on one plan variant and checks the contract.
fn check_agreement(what: &str, layout: &BatchLayout, placement: &Placement, plan: &ExecutionPlan) {
    let cluster = ClusterSpec::single_node(8);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        (
            verify_plan(layout, placement, plan),
            simulate_plan(&cluster, plan),
            execute_vs_reference(layout, placement, plan),
        )
    }));
    let Ok((verified, simulated, executed)) = outcome else {
        panic!("{what}: a consumer panicked on an untrusted plan");
    };
    if verified.is_ok() {
        let sim = simulated
            .as_ref()
            .unwrap_or_else(|e| panic!("{what}: verified but sim failed: {e}"));
        assert!(sim.total() > 0.0, "{what}: empty simulation");
        let worst = *executed
            .as_ref()
            .unwrap_or_else(|e| panic!("{what}: verified but exec failed: {e}"));
        assert!(worst < 2e-3, "{what}: off the dense reference by {worst}");
    }
    if let Err(e) = executed {
        assert!(
            verified.is_err(),
            "{what}: the executor rejects ({e}), the verifier accepts"
        );
    }
    // One walker, one rejection: whatever the structure-only walk says of a
    // phase is what the simulator says, to the message.
    let none = FaultSpec::none();
    for phase in [&plan.fwd, &plan.bwd] {
        let structural = verify_structure(phase).err().map(DcpError::from);
        let timed = simulate(&cluster, phase, &none).err();
        assert_eq!(timed, structural, "{what}: simulator vs verify_structure");
    }
    assert_eq!(
        simulated.is_ok(),
        verify_structure(&plan.fwd).is_ok() && verify_structure(&plan.bwd).is_ok(),
        "{what}: simulate_plan"
    );
}

#[test]
fn verifier_executor_and_simulator_agree() {
    let mut applied = vec![0u32; MUTATIONS.len()];
    for seed in 0..SEEDS {
        let (layout, placement, plan) = random_case(seed);
        verify_plan(&layout, &placement, &plan)
            .unwrap_or_else(|d| panic!("seed {seed}: clean schedule rejected: {d}"));
        check_agreement(&format!("seed {seed} clean"), &layout, &placement, &plan);
        for (m, (name, mutate)) in MUTATIONS.iter().enumerate() {
            let mut mutated = plan.clone();
            if !mutate(&mut mutated) {
                continue;
            }
            applied[m] += 1;
            let what = format!("seed {seed} {name}");
            assert!(
                verify_plan(&layout, &placement, &mutated).is_err(),
                "{what}: verifier accepted an illegal stream"
            );
            check_agreement(&what, &layout, &placement, &mutated);
        }
    }
    for ((name, _), n) in MUTATIONS.iter().zip(applied) {
        assert!(n > 0, "mutation {name} applied to no generated plan");
    }
}

type LayoutMutation = (&'static str, fn(&mut BatchLayout));

/// Ids of a deserialized layout itself, wrong: each used to pass the verifier
/// and panic the executor, or panic both.
const CORRUPT_LAYOUTS: &[LayoutMutation] = &[
    ("token-block-of-no-sequence", |l| {
        l.token_blocks[0].seq = l.masks.len() as u32;
    }),
    ("token-block-past-its-mask", |l| {
        let tb = &mut l.token_blocks[0];
        tb.start = l.masks[tb.seq as usize].len();
    }),
    ("kv-block-of-no-token-block", |l| {
        l.comp_blocks[0].kv_block = TokenBlockId(l.token_blocks.len() as u32);
    }),
];

#[test]
fn corrupted_layout_ids_are_typed_errors_not_panics() {
    let config = BlockConfig {
        block_size: 64,
        head_blocks: 1,
    };
    let seqs = [(256, MaskSpec::Causal)];
    let layout = BatchLayout::build(AttnSpec::new(4, 2, 8, 2), config, &seqs).unwrap();
    let placement = Placement {
        num_devices: 2,
        token_to_dev: (0..layout.token_blocks.len() as u32)
            .map(|t| t % 2)
            .collect(),
        comp_to_dev: layout.comp_blocks.iter().map(|c| c.q_block.0 % 2).collect(),
    };
    let plan = build_plan(&layout, &placement, &ScheduleConfig::default()).unwrap();
    let (data, _) = random_tensors(&layout);
    for (name, corrupt) in CORRUPT_LAYOUTS {
        let mut bad = layout.clone();
        corrupt(&mut bad);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            (
                verify_plan(&bad, &placement, &plan),
                execute_forward(&bad, &placement, &plan, &data).map(drop),
            )
        }));
        let Ok((verified, executed)) = outcome else {
            panic!("{name}: a consumer panicked on a corrupted layout");
        };
        let diagnostic = verified.expect_err(name);
        assert!(
            matches!(
                diagnostic.kind,
                ViolationKind::BlockIdOutOfRange | ViolationKind::ShapeMismatch
            ),
            "{name}: {diagnostic}"
        );
        assert_eq!(
            executed.unwrap_err(),
            DcpError::from(diagnostic),
            "{name}: executor"
        );
    }
}

/// A device that waits on its own input op before launching it can never be
/// served: the simulator used to call that a deadlock, the verifier and the
/// executor `wait-without-launch`. Now it is one diagnostic from all three.
#[test]
fn a_wait_on_an_unlaunched_input_is_one_diagnostic_for_all_three() {
    let (_, wait_before_launch) = MUTATIONS[0];
    let cluster = ClusterSpec::single_node(8);
    let mut applied = 0;
    for seed in 0..SEEDS {
        let (layout, placement, mut plan) = random_case(seed);
        if !wait_before_launch(&mut plan) {
            continue;
        }
        applied += 1;
        let diagnostic = verify_plan(&layout, &placement, &plan).unwrap_err();
        assert_eq!(diagnostic.kind, ViolationKind::WaitWithoutLaunch);
        assert_eq!(verify_structure(&plan.fwd).unwrap_err(), diagnostic);
        let expected = DcpError::from(diagnostic);
        let (data, _) = random_tensors(&layout);
        let executed = execute_forward(&layout, &placement, &plan, &data).map(drop);
        assert_eq!(executed.unwrap_err(), expected, "seed {seed}: executor");
        let simulated = simulate(&cluster, &plan.fwd, &FaultSpec::none()).map(drop);
        assert_eq!(simulated.unwrap_err(), expected, "seed {seed}: simulator");
    }
    assert!(applied > 0);
}

/// `values` of every token block of a result, in block order, as bits.
fn bits_of<T>(blocks: &HashMap<TokenBlockId, T>, values: impl Fn(&T) -> Vec<f32>) -> Vec<u32> {
    let mut ids: Vec<TokenBlockId> = blocks.keys().copied().collect();
    ids.sort_by_key(|tb| tb.0);
    let bits = |tb| values(&blocks[tb]).into_iter().map(f32::to_bits);
    ids.iter().flat_map(bits).collect()
}

fn grads_of(g: &BlockGrads) -> Vec<f32> {
    [&g.dq[..], &g.dk, &g.dv].concat()
}

/// What each consumer says of `patch`'s phase, read under `patch.ctx`: the
/// verifier, the executor (the phase's outputs or gradients on success, as
/// bits) and the simulator (its timeline rows).
#[allow(clippy::type_complexity)]
fn consume_patch(
    cluster: &ClusterSpec,
    out: &PlanOutput,
    patch: &RecoveryPatch,
    t: &Tensors,
) -> (
    Result<(), DcpError>,
    Result<Vec<u32>, DcpError>,
    Result<usize, DcpError>,
) {
    let (layout, placement, phase, ctx) = (&out.layout, &patch.placement, &patch.phase, &patch.ctx);
    let obs = ExecObs::disabled();
    let executed = match patch.backward {
        false => execute_forward_recovery(layout, placement, phase, &t.data, ctx, &obs)
            .map(|out| bits_of(&out, |b| b.o.clone())),
        true => {
            execute_backward_recovery(layout, placement, phase, &t.data, &t.out, &t.d_o, ctx, &obs)
                .map(|grads| bits_of(&grads, grads_of))
        }
    };
    let net = Network::new(cluster.clone());
    let simulated = simulate_on(cluster, net, phase, ctx, &FaultSpec::none());
    (
        verify_phase(layout, placement, phase, patch.backward, ctx).map_err(DcpError::from),
        executed,
        simulated.map(|run| run.sim.devices.len()),
    )
}

/// Removes the first launch with which a shard stands in for a dead stream's
/// owed partial, so that partial is never deposited.
fn drop_a_stand_in_launch(patch: &mut RecoveryPatch) -> bool {
    let (phase, ctx) = (&mut patch.phase, &patch.ctx);
    for stream in &mut phase.devices {
        let shard = stream.device;
        let stands_in = |ins: &Instr| match ins {
            Instr::CommLaunch(cid) if !ctx.salvage_comms.contains(&cid.0) => {
                let mut sent = phase.comms[cid.0 as usize].transfers.iter();
                sent.any(|tr| ctx.stand_in.get(&tr.payload) == Some(&shard))
            }
            _ => false,
        };
        if let Some(i) = stream.instrs.iter().position(stands_in) {
            stream.instrs.remove(i);
            return true;
        }
    }
    false
}

/// The recovery half of the contract: every patch of a seeded kill sequence
/// — depth 1 and depth 2 in the forward phase, depth 1 in the backward — is
/// accepted by the verifier, the executor (to the clean run's bits) and the
/// simulator (one timeline row per physical rank), each reading the patched
/// phase under the patch's `RecoveryCtx`; with one stand-in launch removed,
/// the owed partial never arrives and all three return a typed error.
#[test]
fn patches_under_their_ctx_mean_the_same_to_all_three() {
    let divisions = |phase: &PhasePlan, l: u32| {
        let attn = |ins: &&Instr| matches!(ins, Instr::Attn { .. } | Instr::AttnBwd { .. });
        phase.devices[l as usize].instrs.iter().filter(attn).count() as u32
    };
    let (mut depth2, mut broken) = (0, 0);
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA11);
        let n = rng.gen_range(3..8u32);
        let cluster = ClusterSpec::single_node(n);
        let config = PlannerConfig {
            block_size: 16,
            ..Default::default()
        };
        let seqs: Vec<(u32, MaskSpec)> = (0..rng.gen_range(2..5))
            .map(|_| match rng.gen_range(0..3) {
                0 => (
                    rng.gen_range(64..200),
                    MaskSpec::Lambda {
                        sink: 4,
                        window: 24,
                    },
                ),
                _ => (rng.gen_range(48..200), MaskSpec::Causal),
            })
            .collect();
        let out = Planner::new(cluster.clone(), AttnSpec::new(4, 2, 8, 2), config)
            .plan(&seqs)
            .unwrap();
        let (data, d_o) = random_tensors(&out.layout);
        let fwd_out = execute_forward(&out.layout, &out.placement, &out.plan, &data).unwrap();
        let grads = execute_backward(
            &out.layout,
            &out.placement,
            &out.plan,
            &data,
            &fwd_out,
            &d_o,
        )
        .unwrap();
        let tensors = Tensors {
            data,
            out: fwd_out,
            d_o,
        };

        // The kill sequence: a rank mid-forward, then a survivor somewhere in
        // its own stream and the shards it hosts; and a rank mid-backward.
        let rp = RecoveryPlanner::new();
        let mut kill = |phase: &PhasePlan, streams: &[u32]| {
            let done = streams.iter().map(|&l| divisions(phase, l)).sum::<u32>();
            rng.gen_range(0..=done)
        };
        let dev1 = seed as u32 % n;
        let ev1 = FailureEvent {
            device: dev1,
            divisions_done: kill(&out.plan.fwd, &[dev1]),
        };
        let patch1 = rp.plan_recovery(&out, &ev1).unwrap();
        let dev2 = (dev1 + 1 + seed as u32 / n % (n - 1)) % n;
        let hosted = (n..).zip(&patch1.ctx.shard_hosts);
        let running: Vec<u32> = std::iter::once(dev2)
            .chain(hosted.filter(|&(_, &h)| h == dev2).map(|(l, _)| l))
            .collect();
        let ev2 = FailureEvent {
            device: dev2,
            divisions_done: kill(&patch1.phase, &running),
        };
        let patch2 = rp.plan_recovery_onto(&out, &patch1, &ev2).unwrap();
        depth2 += (patch2.phase.devices.len() > patch1.phase.devices.len()) as u32;
        let bdev = (seed as u32 / 2) % n;
        let bev = FailureEvent {
            device: bdev,
            divisions_done: kill(&out.plan.bwd, &[bdev]),
        };
        let bpatch = rp.plan_backward_recovery(&out, &bev).unwrap();

        let clean_o = bits_of(&tensors.out, |b| b.o.clone());
        let clean_grads = bits_of(&grads, grads_of);
        for (name, patch) in [
            ("depth 1", patch1),
            ("depth 2", patch2),
            ("backward", bpatch),
        ] {
            let what = format!("seed {seed} {name}");
            let (verified, executed, simulated) = consume_patch(&cluster, &out, &patch, &tensors);
            assert_eq!(verified, Ok(()), "{what}: verifier");
            let clean = if patch.backward {
                &clean_grads
            } else {
                &clean_o
            };
            assert_eq!(executed.as_ref(), Ok(clean), "{what}: executor");
            assert_eq!(simulated, Ok(n as usize), "{what}: simulator");

            let mut lossy = patch;
            if !drop_a_stand_in_launch(&mut lossy) {
                continue;
            }
            broken += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                consume_patch(&cluster, &out, &lossy, &tensors)
            }));
            let Ok((verified, executed, simulated)) = outcome else {
                panic!("{what}: a consumer panicked on a patch without a stand-in launch");
            };
            let rejections = [verified.err(), executed.err(), simulated.err()];
            for (who, e) in ["verifier", "executor", "simulator"].iter().zip(rejections) {
                let e = e.unwrap_or_else(|| panic!("{what}: the {who} accepted the lossy patch"));
                assert!(matches!(e, DcpError::InvalidPlan(_)), "{what}: {who}: {e}");
            }
        }
    }
    assert!(depth2 >= 8 && broken >= 16, "{depth2} {broken}");
}

/// A position in the streams, and why the walk stopped there.
type Stall = (ViolationKind, u32, usize);

/// Whether `tr` carries a model input (the receiver deposits those) rather
/// than a partial result (the sender does).
fn is_input(tr: &Transfer) -> bool {
    let kind = tr.payload.kind();
    matches!(kind, PayloadKind::Q | PayloadKind::Kv | PayloadKind::DO)
}

/// The round-robin `Stream::walk` ran before it had a run queue, structure
/// only: every device in index order, each until it blocks; a launch marks
/// the transfers its depositor owns (the receiver for inputs, the sender for
/// partials), a wait blocks on an unmarked incoming transfer — an input
/// among them can never come — and everything else retires. Returns the
/// `(device, index)` of every retired instruction, in order, and where it
/// stalled if it did.
fn round_robin(phase: &PhasePlan) -> (Vec<(u32, usize)>, Option<Stall>) {
    let mut sent: Vec<Vec<bool>> = phase
        .comms
        .iter()
        .map(|op| vec![false; op.transfers.len()])
        .collect();
    let mut ip = vec![0usize; phase.devices.len()];
    let mut retired = Vec::new();
    loop {
        let mut progressed = false;
        for (d, stream) in phase.devices.iter().enumerate() {
            let dev = d as u32;
            while let Some(ins) = stream.instrs.get(ip[d]) {
                match ins {
                    Instr::CommLaunch(cid) => {
                        let op = &phase.comms[cid.0 as usize];
                        for (tr, sent) in op.transfers.iter().zip(&mut sent[cid.0 as usize]) {
                            let depositor = if is_input(tr) { tr.to } else { tr.from };
                            *sent |= depositor == dev;
                        }
                    }
                    Instr::CommWait(cid) => {
                        let op = &phase.comms[cid.0 as usize];
                        let sent = &sent[cid.0 as usize];
                        let missing = |(i, tr): &(usize, &Transfer)| tr.to == dev && !sent[*i];
                        match op.transfers.iter().enumerate().find(missing) {
                            Some((_, tr)) if is_input(tr) => {
                                let stall = (ViolationKind::WaitWithoutLaunch, dev, ip[d]);
                                return (retired, Some(stall));
                            }
                            Some(_) => break,
                            None => {}
                        }
                    }
                    _ => {}
                }
                retired.push((dev, ip[d]));
                ip[d] += 1;
                progressed = true;
            }
        }
        if !progressed {
            let stalled = (0..ip.len()).find(|&d| ip[d] < phase.devices[d].instrs.len());
            let stall = stalled.map(|d| (ViolationKind::Deadlock, d as u32, ip[d]));
            return (retired, stall);
        }
    }
}

/// A backend with no data and no clock that records what retires.
#[derive(Default)]
struct Recording {
    retired: Vec<(u32, usize)>,
}

impl Backend for Recording {
    type Slot = ();
    fn accumulates(&self, _: u32, _: PayloadKind, _: TokenBlockId) -> bool {
        false
    }
    fn deposit(&mut self, _: u32, _: u32, _: &Transfer, _: bool) {}
    fn install(&mut self, _: u32, _: Payload, _: ()) {}
    fn attn(&mut self, _: u32, _: bool, _: &[AttnItem<'_, ()>]) {}
    fn reduce(&mut self, _: u32, _: &ReduceItem, _: &[&()]) {}
    fn polled(&mut self, at: At, _: &Instr, retired: bool, _: &mut Wake) {
        if retired {
            self.retired.push((at.dev, at.idx));
        }
    }
}

/// Moves one device's launch of a partial-result op (the sender deposits
/// those) four instructions later, so its receivers reach their `CommWait`
/// first and have to be woken by the deposit.
fn launch_behind_the_waits(phase: &mut PhasePlan) -> bool {
    for si in 0..phase.devices.len() {
        for i in 0..phase.devices[si].instrs.len() {
            let Instr::CommLaunch(cid) = phase.devices[si].instrs[i] else {
                continue;
            };
            // (A malformed variant may name an op outside the table.)
            let op = phase.comms.get(cid.0 as usize);
            if op.is_none_or(|op| op.transfers.iter().all(is_input)) {
                continue;
            }
            let instrs = &mut phase.devices[si].instrs;
            let j = (i + 4).min(instrs.len() - 1);
            // Never past the launching device's own wait on the op.
            if instrs[i + 1..=j].contains(&Instr::CommWait(cid)) {
                continue;
            }
            let launch = instrs.remove(i);
            instrs.insert(j, launch);
            return true;
        }
    }
    false
}

/// The order argument, as an oracle: the run queue is round-robin minus the
/// polls that would find a device still blocked, so a backend sees the same
/// instructions retire in the same order and the walk stalls at the same
/// place — which is why numeric outputs, `ExecObs` span order and verifier
/// verdicts could not move when the queue replaced the loop.
#[test]
fn the_run_queue_retires_what_round_robin_retires() {
    let (mut walked, mut stalled, mut late) = (0, 0, 0);
    let mut check = |what: &str, phase: &PhasePlan| {
        let mut recording = Recording::default();
        let outcome = Stream {
            phase,
            backward: false,
            ctx: &RecoveryCtx::default(),
            logical: None,
        }
        .walk(&mut recording);
        let stall = match outcome {
            Ok(()) => None,
            Err(d) => match (d.device, d.instr) {
                (Some(dev), Some(idx)) if d.kind != ViolationKind::CommIdOutOfRange => {
                    Some((d.kind, dev, idx))
                }
                // Ids or shape rejected before the first instruction: the
                // oracle would index out of bounds.
                _ => {
                    assert!(recording.retired.is_empty(), "{what}: {d}");
                    return;
                }
            },
        };
        let (retired, oracle_stall) = round_robin(phase);
        assert_eq!(stall, oracle_stall, "{what}: where the walk stops");
        assert_eq!(recording.retired, retired, "{what}: retire order");
        walked += 1;
        stalled += stall.is_some() as u32;
    };
    for seed in 0..4 * SEEDS {
        let (_, _, plan) = random_case(seed);
        let variants = MUTATIONS.iter().filter_map(|(name, mutate)| {
            let mut mutated = plan.clone();
            mutate(&mut mutated).then_some((*name, mutated))
        });
        for (name, plan) in std::iter::once(("clean", plan.clone())).chain(variants) {
            for (p, phase) in [&plan.fwd, &plan.bwd].into_iter().enumerate() {
                check(&format!("seed {seed} {name} phase {p}"), phase);
                let mut moved = phase.clone();
                if launch_behind_the_waits(&mut moved) {
                    late += 1;
                    check(
                        &format!("seed {seed} {name} phase {p}, late launch"),
                        &moved,
                    );
                }
            }
        }
    }
    assert!(
        walked > 1000 && stalled > 50 && late > 200,
        "{walked} {stalled} {late}"
    );
}

/// Everything an execution reads besides the plan.
#[derive(Clone)]
struct Tensors {
    data: BatchData,
    out: HashMap<TokenBlockId, BlockOut>,
    d_o: HashMap<TokenBlockId, Vec<f32>>,
}

/// Token block 0 of every generated layout: the one the cases below break.
const BROKEN: TokenBlockId = TokenBlockId(0);

type Malformation = (&'static str, bool, fn(&mut Tensors));

/// `(name, reaches the forward pass, what to break)`: tensors that do not
/// have the shapes the layout gives them. Each used to panic on a slice index
/// inside a kernel or on a block lookup — but for the block that is too long,
/// which went unnoticed.
const MALFORMED_TENSORS: &[Malformation] = &[
    ("data-of-a-shorter-layout", true, |t| {
        for tensors in [&mut t.data.q, &mut t.data.k, &mut t.data.v] {
            tensors.pop();
        }
    }),
    ("short-q-block", true, |t| {
        t.data.q[0].pop();
    }),
    ("k-block-of-half-the-tokens", true, |t| {
        let half = t.data.k[0].len() / 2;
        t.data.k[0].truncate(half);
    }),
    ("short-v-block", true, |t| {
        t.data.v[0].pop();
    }),
    ("short-dO-block", false, |t| {
        t.d_o.get_mut(&BROKEN).unwrap().pop();
    }),
    ("long-dO-block", false, |t| {
        t.d_o.get_mut(&BROKEN).unwrap().push(0.0);
    }),
    ("short-forward-output", false, |t| {
        t.out.get_mut(&BROKEN).unwrap().o.pop();
    }),
    ("short-forward-lse", false, |t| {
        t.out.get_mut(&BROKEN).unwrap().lse.pop();
    }),
];

#[test]
fn malformed_tensors_are_typed_errors_not_panics() {
    for seed in 0..SEEDS {
        let (layout, placement, plan) = random_case(seed);
        let (data, d_o) = random_tensors(&layout);
        let out = execute_forward(&layout, &placement, &plan, &data).unwrap();
        let clean = Tensors { data, out, d_o };
        for (name, in_forward, malform) in MALFORMED_TENSORS {
            let what = format!("seed {seed} {name}");
            let mut t = clean.clone();
            malform(&mut t);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                (
                    execute_forward(&layout, &placement, &plan, &t.data).map(drop),
                    execute_backward(&layout, &placement, &plan, &t.data, &t.out, &t.d_o).map(drop),
                )
            }));
            let Ok((forward, backward)) = outcome else {
                panic!("{what}: the executor panicked on malformed tensors");
            };
            assert_eq!(forward.is_err(), *in_forward, "{what}: forward {forward:?}");
            assert!(backward.is_err(), "{what}: the backward accepted them");
            for e in [forward.err(), backward.err()].into_iter().flatten() {
                assert!(matches!(e, DcpError::InvalidArgument(_)), "{what}: {e}");
                // A count mismatch has no block to name; every other case does.
                let named = e.to_string().contains(&format!("{BROKEN:?}"));
                assert!(named || name.contains("layout"), "{what}: {e}");
            }
        }
    }
}
