//! Bitwise equivalence oracles between execution plans.
//!
//! Dead-communication elimination (`dcp_sched::passes`) promises to
//! preserve merged outputs *bitwise* — not merely within tolerance. These
//! helpers execute two plans over the same deterministic random batch and
//! compare every final output and gradient for exact equality: a black-box
//! oracle that does not trust the rewrite's own reasoning.

use std::collections::HashMap;

use dcp_blocks::{BatchLayout, TokenBlockId};
use dcp_sched::{ExecutionPlan, Placement};
use dcp_types::DcpResult;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::executor::{execute_backward, execute_forward, BatchData, BlockGrads, BlockOut};

/// Exact equality of two forward result maps: the same blocks, and the same
/// `O` and `lse` bit patterns.
pub fn forward_outputs_identical(
    a: &HashMap<TokenBlockId, BlockOut>,
    b: &HashMap<TokenBlockId, BlockOut>,
) -> bool {
    a.len() == b.len()
        && a.iter().all(|(tb, x)| {
            b.get(tb)
                .is_some_and(|y| same_bits(&x.o, &y.o) && same_bits(&x.lse, &y.lse))
        })
}

/// Exact equality of two gradient maps: the same blocks, and the same `dQ`,
/// `dK` and `dV` bit patterns.
pub fn grads_identical(
    a: &HashMap<TokenBlockId, BlockGrads>,
    b: &HashMap<TokenBlockId, BlockGrads>,
) -> bool {
    a.len() == b.len()
        && a.iter().all(|(tb, x)| {
            b.get(tb).is_some_and(|y| {
                same_bits(&x.dq, &y.dq) && same_bits(&x.dk, &y.dk) && same_bits(&x.dv, &y.dv)
            })
        })
}

/// Whether `a` and `b` hold the same bit patterns: `-0.0` is not `+0.0`, and
/// a NaN is a NaN of the same bits, where `==` says the opposite of both.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Deterministic per-block output gradients for backward runs (the same
/// shape contract as the numerics tests).
pub fn random_output_grads(layout: &BatchLayout, seed: u64) -> HashMap<TokenBlockId, Vec<f32>> {
    let (qh, _) = BatchData::head_counts(layout);
    let dim = layout.attn.head_dim as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    layout
        .token_blocks
        .iter()
        .enumerate()
        .map(|(i, tb)| {
            let v: Vec<f32> = (0..tb.len as usize * qh * dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            (TokenBlockId(i as u32), v)
        })
        .collect()
}

/// Executes both plans (forward and backward) over the same seeded batch and
/// reports whether every merged output and gradient is bitwise identical.
///
/// The two plans may use different placements (e.g. an optimized rewrite vs.
/// the original, or two fallback tiers): only the final per-token-block
/// values are compared. Note that different placements generally reduce
/// partials in different orders and will *not* match bitwise — this oracle's
/// contract is for rewrites of the *same* placement, where the passes
/// preserve reduction order.
///
/// # Errors
///
/// Propagates any executor failure (illegal stream, deadlock) from either
/// plan.
pub fn plans_equivalent(
    layout: &BatchLayout,
    placement_a: &Placement,
    plan_a: &ExecutionPlan,
    placement_b: &Placement,
    plan_b: &ExecutionPlan,
    seed: u64,
) -> DcpResult<bool> {
    let data = BatchData::random(layout, seed);
    let out_a = execute_forward(layout, placement_a, plan_a, &data)?;
    let out_b = execute_forward(layout, placement_b, plan_b, &data)?;
    if !forward_outputs_identical(&out_a, &out_b) {
        return Ok(false);
    }
    let d_o = random_output_grads(layout, seed.wrapping_add(1));
    let g_a = execute_backward(layout, placement_a, plan_a, &data, &out_a, &d_o)?;
    let g_b = execute_backward(layout, placement_b, plan_b, &data, &out_b, &d_o)?;
    Ok(grads_identical(&g_a, &g_b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_blocks::BlockConfig;
    use dcp_mask::MaskSpec;
    use dcp_sched::{
        build_plan, CommId, CommOp, Instr, PassConfig, PassManager, Payload, ScheduleConfig,
        Transfer,
    };
    use dcp_types::AttnSpec;

    /// A causal sequence of six 64-token blocks on `n` devices, each
    /// computation block on its KV block's device.
    fn case_on(n: u32) -> (BatchLayout, Placement, ExecutionPlan) {
        let l = BatchLayout::build(
            AttnSpec::new(2, 1, 16, 2),
            BlockConfig {
                block_size: 64,
                head_blocks: 1,
            },
            &[(384, MaskSpec::Causal)],
        )
        .unwrap();
        let token_to_dev: Vec<u32> = (0..l.token_blocks.len() as u32).map(|i| i % n).collect();
        let comp_to_dev: Vec<u32> = l
            .comp_blocks
            .iter()
            .map(|c| token_to_dev[c.kv_block.0 as usize])
            .collect();
        let p = Placement {
            num_devices: n,
            token_to_dev,
            comp_to_dev,
        };
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        (l, p, plan)
    }

    #[test]
    fn plan_is_equivalent_to_itself() {
        let (l, p, plan) = case_on(4);
        assert!(plans_equivalent(&l, &p, &plan, &p, &plan, 7).unwrap());
    }

    #[test]
    fn optimized_plan_is_bitwise_equivalent() {
        // A fetch nobody waits for, grafted in: the rewrite has a transfer
        // and its launch to delete.
        let (l, p, mut plan) = case_on(2);
        let (from, to) = (p.token_to_dev[0], 1 - p.token_to_dev[0]);
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
        let mut opt = plan.clone();
        let pm = PassManager::new(PassConfig::optimize());
        let outcomes = pm.run_plan(&l, &p, &mut opt);
        assert!(
            outcomes.iter().any(|o| o.changed()),
            "fixture must give the rewrite something to delete"
        );
        assert_ne!(plan, opt);
        assert!(plans_equivalent(&l, &p, &plan, &p, &opt, 7).unwrap());
    }

    #[test]
    fn different_data_is_detected() {
        let (l, p, plan) = case_on(4);
        let data_a = BatchData::random(&l, 1);
        let data_b = BatchData::random(&l, 2);
        let out_a = execute_forward(&l, &p, &plan, &data_a).unwrap();
        let out_b = execute_forward(&l, &p, &plan, &data_b).unwrap();
        assert!(!forward_outputs_identical(&out_a, &out_b));
    }

    /// One block of one row: `O` and `lse` (or `dQ`, `dK`, `dV`) set to `x`.
    fn one(
        x: f32,
    ) -> (
        HashMap<TokenBlockId, BlockOut>,
        HashMap<TokenBlockId, BlockGrads>,
    ) {
        let out = BlockOut {
            o: vec![x],
            lse: vec![x],
        };
        let grads = BlockGrads {
            dq: vec![x],
            dk: vec![x],
            dv: vec![x],
        };
        let id = TokenBlockId(0);
        (HashMap::from([(id, out)]), HashMap::from([(id, grads)]))
    }

    #[test]
    fn zeros_of_opposite_sign_differ() {
        let ((o_pos, g_pos), (o_neg, g_neg)) = (one(0.0), one(-0.0));
        assert!(!forward_outputs_identical(&o_pos, &o_neg));
        assert!(!grads_identical(&g_pos, &g_neg));
        assert!(forward_outputs_identical(&o_neg, &o_neg));
        assert!(grads_identical(&g_neg, &g_neg));
    }

    #[test]
    fn a_nan_is_identical_to_itself() {
        let (o, g) = one(f32::NAN);
        assert!(forward_outputs_identical(&o, &o.clone()));
        assert!(grads_identical(&g, &g.clone()));
        let (o_other, g_other) = one(-f32::NAN);
        assert!(!forward_outputs_identical(&o, &o_other));
        assert!(!grads_identical(&g, &g_other));
    }
}
