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

/// Exact equality of two forward result maps (same blocks, same `O` and
/// `lse` bit patterns).
pub fn forward_outputs_identical(
    a: &HashMap<TokenBlockId, BlockOut>,
    b: &HashMap<TokenBlockId, BlockOut>,
) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|(tb, out)| b.get(tb).is_some_and(|o| o.o == out.o && o.lse == out.lse))
}

/// Exact equality of two gradient maps.
pub fn grads_identical(
    a: &HashMap<TokenBlockId, BlockGrads>,
    b: &HashMap<TokenBlockId, BlockGrads>,
) -> bool {
    a.len() == b.len() && a.iter().all(|(tb, g)| b.get(tb) == Some(g))
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

    fn case_on(n: u32) -> (BatchLayout, Placement, ExecutionPlan) {
        let l = BatchLayout::build(
            AttnSpec::paper_micro(),
            BlockConfig {
                block_size: 256,
                head_blocks: 1,
            },
            &[(2048, MaskSpec::Causal)],
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
}
