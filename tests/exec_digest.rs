//! The executor's bits, end to end. `kernel_oracle` pins one block at a time;
//! this pins how the executor composes them: a fixed four-device plan over a
//! batch with a sequence of every mask family, executed forward and backward,
//! and an FNV-1a digest of every bit of every `O`, `lse`, `dQ`, `dK` and `dV`
//! compared with a constant. A kernel or executor change that moves any bit —
//! a summation order, a fold order, a merge — moves a digest.
//!
//! The placement is fixed by rule (token blocks round-robin, computation
//! blocks alternately on their Q and their KV block's device), not by the
//! partitioner, so partial outputs and gradients cross devices both ways and
//! a planner change does not move the digests; only a scheduler change that
//! reorders a device's reductions could. A second rule also runs every third
//! computation block on a device owning neither of its token blocks, so an
//! owner receives partials of blocks it computed nothing of and its
//! reduction starts from a received partial. A third case takes the
//! placement and plan from the planner, so the partitioner's own placements,
//! where owners receive gradient partials of blocks they computed nothing
//! of, are under the pin too; a partitioner or planner change that moves
//! that placement moves its digests.

use dcp::blocks::{BatchLayout, BlockConfig, TokenBlockId};
use dcp::core::{Planner, PlannerConfig};
use dcp::exec::{execute_backward, execute_forward, random_output_grads, BatchData};
use dcp::mask::MaskSpec;
use dcp::sched::{build_plan, ExecutionPlan, Placement, ScheduleConfig};
use dcp::types::{AttnSpec, ClusterSpec};

const DEVICES: u32 = 4;

/// Every mask family, at lengths that leave ragged last blocks.
fn sequences() -> Vec<(u32, MaskSpec)> {
    vec![
        (200, MaskSpec::Causal),
        (150, MaskSpec::Full),
        (
            230,
            MaskSpec::Lambda {
                sink: 5,
                window: 40,
            },
        ),
        (
            250,
            MaskSpec::CausalBlockwise {
                block: 48,
                window_blocks: 1,
                sink_blocks: 1,
            },
        ),
        (
            221,
            MaskSpec::SharedQuestion {
                question_len: 60,
                answer_lens: vec![50, 70, 41],
            },
        ),
        (197, MaskSpec::packed_documents(&[70, 37, 90])),
    ]
}

/// 64-bit FNV-1a over the little-endian bytes of each float's bits.
fn fnv1a<'a>(tensors: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in tensors.into_iter().flatten() {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Where the placement rules run computation block `i`.
#[derive(Clone, Copy)]
enum Rule {
    /// Alternately on its KV and its Q block's device.
    Owners,
    /// As `Owners`, but every third block on the next device owning
    /// neither its Q nor its KV block.
    Foreign,
}

/// The digest of one forward and backward run of the plan `rule` places.
fn digest(q_heads: u32, kv_heads: u32, dim: u32, rule: Rule) -> u64 {
    let (layout, placement, plan) = ruled_plan(q_heads, kv_heads, dim, rule);
    run_digest(&layout, &placement, &plan)
}

/// The layout of [`sequences`] and the plan of the placement `rule` makes.
fn ruled_plan(
    q_heads: u32,
    kv_heads: u32,
    dim: u32,
    rule: Rule,
) -> (BatchLayout, Placement, ExecutionPlan) {
    let layout = BatchLayout::build(
        AttnSpec::new(q_heads, kv_heads, dim, 2),
        BlockConfig {
            block_size: 64,
            head_blocks: 1,
        },
        &sequences(),
    )
    .unwrap();
    let token_to_dev: Vec<u32> = (0..layout.token_blocks.len() as u32)
        .map(|i| i % DEVICES)
        .collect();
    let comp_to_dev = layout.comp_blocks.iter().enumerate().map(|(i, c)| {
        let dev = |tb: TokenBlockId| token_to_dev[tb.0 as usize];
        let (q, kv) = (dev(c.q_block), dev(c.kv_block));
        match rule {
            Rule::Foreign if i % 3 == 2 => (1..DEVICES)
                .map(|step| (q + step) % DEVICES)
                .find(|&d| d != kv)
                .expect("four devices"),
            _ if i % 2 == 0 => kv,
            _ => q,
        }
    });
    let placement = Placement {
        num_devices: DEVICES,
        comp_to_dev: comp_to_dev.collect(),
        token_to_dev,
    };
    let plan = build_plan(&layout, &placement, &ScheduleConfig::default()).unwrap();
    (layout, placement, plan)
}

/// The layout, placement and plan the planner makes of [`sequences`] on
/// one eight-device node at block 16.
fn planned(q_heads: u32, kv_heads: u32, dim: u32) -> (BatchLayout, Placement, ExecutionPlan) {
    let planner = Planner::new(
        ClusterSpec::single_node(8),
        AttnSpec::new(q_heads, kv_heads, dim, 2),
        PlannerConfig {
            block_size: 16,
            ..Default::default()
        },
    );
    let out = planner.plan(&sequences()).unwrap();
    (out.layout, out.placement, out.plan)
}

/// How many token blocks' `dQ` or `dK`/`dV` their owner computes none of
/// (each side counted once): the owner's reduction of that gradient starts
/// from a received partial.
fn foreign_gradients(layout: &BatchLayout, placement: &Placement) -> usize {
    let mut local = vec![[false; 2]; layout.token_blocks.len()];
    for (c, &dev) in layout.comp_blocks.iter().zip(&placement.comp_to_dev) {
        for (side, tb) in [c.q_block, c.kv_block].into_iter().enumerate() {
            if placement.token_to_dev[tb.0 as usize] == dev {
                local[tb.0 as usize][side] = true;
            }
        }
    }
    local.iter().flatten().filter(|&&l| !l).count()
}

/// The digest of one forward and backward run of `plan`.
fn run_digest(layout: &BatchLayout, placement: &Placement, plan: &ExecutionPlan) -> u64 {
    let data = BatchData::random(layout, 7);
    let out = execute_forward(layout, placement, plan, &data).unwrap();
    let d_o = random_output_grads(layout, 8);
    let grads = execute_backward(layout, placement, plan, &data, &out, &d_o).unwrap();
    let ids = (0..layout.token_blocks.len() as u32).map(TokenBlockId);
    fnv1a(ids.flat_map(|tb| {
        let (o, g) = (&out[&tb], &grads[&tb]);
        [&o.o, &o.lse, &g.dq, &g.dk, &g.dv].map(Vec::as_slice)
    }))
}

#[test]
fn executor_bits_are_pinned() {
    // (query heads, kv heads, head dim) → digest. GQA groups 1, 2 and 3 (a
    // head left over from a pair), at the two head dims the benchmark runs.
    let cases = [
        ((2, 2, 16), 0xf27a_3953_47ea_7537),
        ((4, 2, 16), 0xaf76_0783_3fa9_296d),
        ((3, 1, 16), 0x943f_d358_e4f0_9f45),
        ((2, 2, 64), 0xd34e_c3f3_c4a3_7ee8),
        ((4, 2, 64), 0xe525_f2e3_b64a_0496),
        ((3, 1, 64), 0xfb32_1a87_a44b_cb5c),
    ];
    for ((qh, kvh, dim), want) in cases {
        let got = digest(qh, kvh, dim, Rule::Owners);
        assert_eq!(got, want, "heads {qh}/{kvh} dim {dim}: {got:#018x}");
    }
}

#[test]
fn executor_bits_are_pinned_where_owners_compute_nothing_of_a_block() {
    // Owners whose reduction starts from a received `O`, `dQ` or `dK`/`dV`
    // partial: `Numeric::reduce`'s first-partial arms.
    let cases = [
        ((4, 2, 16), 0x7eb5_da34_0684_d3d9),
        ((3, 1, 64), 0x507e_a78f_c2d1_49ba),
    ];
    for ((qh, kvh, dim), want) in cases {
        let got = digest(qh, kvh, dim, Rule::Foreign);
        assert_eq!(got, want, "heads {qh}/{kvh} dim {dim}: {got:#018x}");
    }
}

#[test]
fn executor_bits_are_pinned_on_a_planned_placement() {
    // The partitioner's placement: some owners receive `dQ` or `dK`/`dV`
    // partials of token blocks they computed nothing of.
    let cases = [
        ((3, 1, 16), 0xd22b_b733_d523_d589),
        ((4, 2, 64), 0xb4b2_8e50_8237_204a),
    ];
    for ((qh, kvh, dim), want) in cases {
        let (layout, placement, plan) = planned(qh, kvh, dim);
        let foreign = foreign_gradients(&layout, &placement);
        assert!(
            foreign > 0,
            "heads {qh}/{kvh} dim {dim}: no gradient starts from a partial"
        );
        let got = run_digest(&layout, &placement, &plan);
        assert_eq!(
            got, want,
            "heads {qh}/{kvh} dim {dim}: {got:#018x} ({foreign} foreign)"
        );
    }
}
