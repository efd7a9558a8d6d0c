//! Property tests for dead-communication elimination and the stream
//! verifier (DESIGN.md Sec. 10).
//!
//! Two families of properties:
//!
//! 1. *One emission shape*: any plan the scheduler renders for a random
//!    (layout, placement) pair passes the verifier, and the rewrite leaves
//!    it exactly as it found it — the scheduler emits no transfer nobody
//!    reads. With a dead fetch grafted in, so that the rewrite has
//!    something to delete, the plan executes to bitwise-identical merged
//!    outputs and gradients before and after. (Recovery patches, where dead
//!    transfers really occur, have `tests/recovery.rs`.)
//! 2. *Illegal streams are rejected with a typed diagnostic*: random
//!    mutations of a legal stream (wait-before-launch, out-of-range comm
//!    id, duplicated compute item, self-transfer, out-of-range comm ids
//!    beside a dead transfer, a forward reduce from a device outside the
//!    phase) must each produce a [`dcp::sched::Diagnostic`] that names the
//!    offending instruction index, before and after the rewrite has run
//!    over them, never a pass and never a panic — for the last one from the
//!    executor too, and the simulator must not panic on it.

use dcp::blocks::{BatchLayout, BlockConfig, TokenBlockId};
use dcp::exec::{execute_forward, plans_equivalent, BatchData};
use dcp::mask::MaskSpec;
use dcp::sched::{
    build_plan, verify_plan, CommId, CommOp, ExecutionPlan, Instr, PassConfig, PassManager,
    Payload, PayloadKind, Placement, ReduceItem, ScheduleConfig, Transfer, ViolationKind,
};
use dcp::sim::{simulate, FaultSpec};
use dcp::types::{AttnSpec, ClusterSpec, DcpError};
use proptest::prelude::*;

fn arb_mask() -> impl Strategy<Value = MaskSpec> {
    prop_oneof![
        Just(MaskSpec::Causal),
        Just(MaskSpec::Full),
        (0u32..4, 1u32..32).prop_map(|(sink, window)| MaskSpec::Lambda { sink, window }),
    ]
}

prop_compose! {
    fn arb_case()(
        lens in prop::collection::vec(1u32..150, 1..4),
        masks in prop::collection::vec(arb_mask(), 4),
        bs in 8u32..64,
        n in 2u32..6,
        t in 1u32..5,
        seed in 0u64..1000,
    ) -> (Vec<(u32, MaskSpec)>, u32, u32, u32, u64) {
        let seqs: Vec<(u32, MaskSpec)> = lens
            .iter()
            .zip(masks.iter().cycle())
            .map(|(&l, m)| (l, m.clone()))
            .collect();
        (seqs, bs, n, t, seed)
    }
}

fn random_placement(layout: &BatchLayout, n: u32, seed: u64) -> Placement {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    Placement {
        num_devices: n,
        token_to_dev: (0..layout.token_blocks.len())
            .map(|_| rng.gen_range(0..n))
            .collect(),
        comp_to_dev: (0..layout.comp_blocks.len())
            .map(|_| rng.gen_range(0..n))
            .collect(),
    }
}

fn case_plan(
    seqs: &[(u32, MaskSpec)],
    bs: u32,
    n: u32,
    t: u32,
    seed: u64,
) -> (BatchLayout, Placement, ExecutionPlan) {
    let layout = BatchLayout::build(
        AttnSpec::new(2, 2, 4, 2),
        BlockConfig {
            block_size: bs,
            head_blocks: 1,
        },
        seqs,
    )
    .unwrap();
    let placement = random_placement(&layout, n, seed);
    let plan = build_plan(
        &layout,
        &placement,
        &ScheduleConfig {
            divisions: t,
            ..Default::default()
        },
    )
    .unwrap();
    (layout, placement, plan)
}

/// Grafts a 999-byte fetch of token block 0 into the forward phase, on a
/// brand-new op that its receiver launches and nobody waits for (the shape a
/// recovery patch's truncation leaves behind). Legal, and dead.
fn graft_unwaited_fetch(placement: &Placement, plan: &mut ExecutionPlan) -> CommId {
    let from = placement.token_to_dev[0];
    let to = (from + 1) % placement.num_devices;
    let cid = CommId(plan.fwd.comms.len() as u32);
    plan.fwd.comms.push(CommOp {
        transfers: vec![Transfer {
            from,
            to,
            payload: Payload::Q(TokenBlockId(0)),
            bytes: 999,
        }],
    });
    plan.fwd.devices[to as usize]
        .instrs
        .insert(0, Instr::CommLaunch(cid));
    cid
}

/// The seeded illegal rewrites. Each returns `true` when it found a place
/// to apply itself (small plans may e.g. have no remote transfer to turn
/// into a self-transfer).
fn mutate(which: u8, placement: &Placement, plan: &mut ExecutionPlan) -> bool {
    match which % 6 {
        // Move a wait on an input-only op in front of its launch.
        0 => {
            for stream in &mut plan.fwd.devices {
                for i in 0..stream.instrs.len() {
                    if let Instr::CommLaunch(cid) = stream.instrs[i] {
                        let op = &plan.fwd.comms[cid.0 as usize];
                        let input_only = !op.transfers.is_empty()
                            && op.transfers.iter().all(|t| {
                                matches!(t.payload.kind(), PayloadKind::Q | PayloadKind::Kv)
                            });
                        if !input_only {
                            continue;
                        }
                        if let Some(j) = stream.instrs[i + 1..]
                            .iter()
                            .position(|x| *x == Instr::CommWait(cid))
                        {
                            let wait = stream.instrs.remove(i + 1 + j);
                            stream.instrs.insert(i, wait);
                            return true;
                        }
                    }
                }
            }
            false
        }
        // Wait on a comm id outside the op table.
        1 => {
            let bogus = CommId(plan.fwd.comms.len() as u32 + 3);
            plan.fwd.devices[0].instrs.insert(0, Instr::CommWait(bogus));
            true
        }
        // Schedule one computation block twice.
        2 => {
            for stream in &mut plan.fwd.devices {
                for ins in &mut stream.instrs {
                    if let Instr::Attn { items, .. } = ins {
                        if let Some(&c) = items.first() {
                            items.push(c);
                            return true;
                        }
                    }
                }
            }
            false
        }
        // Point a transfer back at its sender.
        3 => {
            for op in &mut plan.fwd.comms {
                for tr in &mut op.transfers {
                    if matches!(tr.payload, Payload::Q(_) | Payload::Kv(_)) {
                        tr.from = tr.to;
                        return true;
                    }
                }
            }
            false
        }
        // A fetch nobody waits for — so the rewrite has a transfer to
        // delete and goes on to sweep launches and waits — next to a launch
        // and a wait on comm ids outside the op table.
        4 => {
            let dead = graft_unwaited_fetch(placement, plan);
            let bogus = CommId(dead.0 + 3);
            let head = [Instr::CommLaunch(bogus), Instr::CommWait(bogus)];
            plan.fwd.devices[0].instrs.splice(0..0, head);
            true
        }
        // A forward reduce of a partial from a device outside the phase:
        // the id bounds cover reduce targets, not sources, so this reaches
        // the tables of what arrived where.
        _ => {
            plan.fwd.devices[0].instrs.push(Instr::Reduce {
                items: vec![ReduceItem {
                    target: TokenBlockId(0),
                    sources: vec![placement.num_devices],
                    kind: PayloadKind::PartialO,
                }],
                bytes: 0,
            });
            true
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scheduler output is always verifier-legal and has no dead transfer:
    /// the rewrite returns it bit-equal.
    #[test]
    fn passes_preserve_verifier_validity((seqs, bs, n, t, seed) in arb_case()) {
        let (layout, placement, plan) = case_plan(&seqs, bs, n, t, seed);
        verify_plan(&layout, &placement, &plan)
            .map_err(|d| TestCaseError::fail(format!("raw plan illegal: {d}")))?;
        let mut opt = plan.clone();
        let pm = PassManager::new(PassConfig::optimize());
        let outcomes = pm.run_plan(&layout, &placement, &mut opt);
        prop_assert!(
            outcomes.len() == 2 && outcomes.iter().all(|o| !o.changed()) && opt == plan,
            "the scheduler emitted a transfer nobody reads: {outcomes:?}"
        );
    }

    /// Where the rewrite deletes something — a grafted dead fetch and its
    /// launch — merged outputs and gradients stay bitwise-identical, checked
    /// by executing both plans.
    #[test]
    fn passes_preserve_outputs_bitwise((seqs, bs, n, t, seed) in arb_case()) {
        let (layout, placement, mut plan) = case_plan(&seqs, bs, n, t, seed);
        graft_unwaited_fetch(&placement, &mut plan);
        let mut opt = plan.clone();
        let pm = PassManager::new(PassConfig::optimize());
        let outcomes = pm.run_plan(&layout, &placement, &mut opt);
        prop_assert_eq!(outcomes[0].transfers_removed, 1);
        prop_assert_eq!(outcomes[0].instrs_removed, 1);
        prop_assert!(
            plans_equivalent(&layout, &placement, &plan, &placement, &opt, seed).unwrap(),
            "optimized plan diverged bitwise"
        );
    }

    /// Every seeded illegal mutation is rejected with a typed diagnostic
    /// that names the offending instruction index — as mutated, and again
    /// after the rewrite has run over the mutated plan (which it must
    /// survive, and must not repair into something the verifier accepts).
    #[test]
    fn mutated_streams_are_rejected((seqs, bs, n, t, seed) in arb_case(), which in 0u8..6) {
        let (layout, placement, plan) = case_plan(&seqs, bs, n, t, seed);
        let mut bad = plan.clone();
        if !mutate(which, &placement, &mut bad) {
            // Nothing to mutate in this plan shape (e.g. fully local):
            // vacuously true.
            return Ok(());
        }
        let mut rewritten = bad.clone();
        PassManager::new(PassConfig::optimize()).run_plan(&layout, &placement, &mut rewritten);
        for (what, plan) in [("mutated", &bad), ("mutated, then rewritten", &rewritten)] {
            let diag = verify_plan(&layout, &placement, plan)
                .expect_err("verifier accepted a seeded-illegal stream");
            prop_assert!(
                diag.instr.is_some(),
                "{what}: diagnostic must name the offending instruction: {diag}"
            );
            prop_assert!(
                matches!(
                    diag.kind,
                    ViolationKind::WaitWithoutLaunch
                        | ViolationKind::CommIdOutOfRange
                        | ViolationKind::DuplicateCompute
                        | ViolationKind::SelfTransfer
                        | ViolationKind::MissingInput
                        | ViolationKind::WaitReceivesNothing
                        | ViolationKind::MissingPartial
                        | ViolationKind::Deadlock
                ),
                "{what}: unexpected diagnostic kind for mutation {which}: {diag}"
            );
            match which {
                4 => prop_assert_eq!(diag.kind, ViolationKind::CommIdOutOfRange, "{}", what),
                5 => {
                    prop_assert_eq!(diag.kind, ViolationKind::MissingPartial, "{}", what);
                    let data = BatchData::random(&layout, seed);
                    let executed = execute_forward(&layout, &placement, plan, &data);
                    prop_assert_eq!(executed.unwrap_err(), DcpError::from(diag));
                    // The simulator walks structure only and never resolves
                    // a source; it must not panic on one.
                    let cluster = ClusterSpec::single_node(n);
                    simulate(&cluster, &plan.fwd, &FaultSpec::none())
                        .map_err(|e| TestCaseError::fail(format!("{what}: simulate: {e}")))?;
                }
                _ => {}
            }
        }
    }
}
