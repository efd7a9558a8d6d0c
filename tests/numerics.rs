//! Cross-crate numerical correctness: any plan the DCP planner emits — and
//! the ring baselines' forward plans — must compute exactly the same
//! attention as the dense reference.

use std::collections::HashMap;

use dcp::baselines::Baseline;
use dcp::blocks::TokenBlockId;
use dcp::core::{Planner, PlannerConfig};
use dcp::exec::executor::{execute_backward, execute_forward, BatchData};
use dcp::exec::reference;
use dcp::mask::MaskSpec;
use dcp::sched::{ExecutionPlan, Placement};
use dcp::types::{AttnSpec, ClusterSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Compares plan execution (fwd + bwd) against the dense reference.
fn check_numerics(
    layout: &dcp::blocks::BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
    check_backward: bool,
) {
    let data = BatchData::random(layout, 2024);
    let out = execute_forward(layout, placement, plan, &data).unwrap();

    let (qh, kvh) = BatchData::head_counts(layout);
    let dim = layout.attn.head_dim as usize;
    let hb = layout.config.head_blocks as usize;

    let mut d_o = HashMap::new();
    let mut rng = SmallRng::seed_from_u64(99);
    for (i, tb) in layout.token_blocks.iter().enumerate() {
        let v: Vec<f32> = (0..tb.len as usize * qh * dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        d_o.insert(TokenBlockId(i as u32), v);
    }
    let grads = if check_backward {
        Some(execute_backward(layout, placement, plan, &data, &out, &d_o).unwrap())
    } else {
        None
    };

    for seq in 0..layout.num_seqs() as u32 {
        let (q, k, v) = data.assemble_sequence(layout, seq);
        let len = layout.seq_lens[seq as usize] as usize;
        let (tq, tkv) = (qh * hb, kvh * hb);
        let mask = &layout.masks[seq as usize];
        let (ro, rlse) = reference::attention(&q, &k, &v, len, tq, tkv, dim, mask);
        let mut full_do = vec![0.0f32; len * tq * dim];
        for (i, tb) in layout.token_blocks.iter().enumerate() {
            if tb.seq != seq {
                continue;
            }
            let h0 = tb.head_block as usize * qh;
            let blk = &d_o[&TokenBlockId(i as u32)];
            for t in 0..tb.len as usize {
                for h in 0..qh {
                    for d in 0..dim {
                        full_do[((tb.start as usize + t) * tq + h0 + h) * dim + d] =
                            blk[(t * qh + h) * dim + d];
                    }
                }
            }
        }
        let ref_grads = check_backward.then(|| {
            reference::attention_bwd(&q, &k, &v, &ro, &rlse, &full_do, len, tq, tkv, dim, mask)
        });

        for (i, tb) in layout.token_blocks.iter().enumerate() {
            if tb.seq != seq {
                continue;
            }
            let id = TokenBlockId(i as u32);
            let got = &out[&id];
            let h0q = tb.head_block as usize * qh;
            for t in 0..tb.len as usize {
                let abs = tb.start as usize + t;
                for h in 0..qh {
                    for d in 0..dim {
                        let diff = (got.o[(t * qh + h) * dim + d]
                            - ro[(abs * tq + h0q + h) * dim + d])
                            .abs();
                        assert!(diff < 2e-4, "O mismatch {diff} (seq {seq}, block {i})");
                    }
                }
            }
            if let (Some(grads), Some((rdq, rdk, rdv))) = (&grads, &ref_grads) {
                let g = &grads[&id];
                let h0kv = tb.head_block as usize * kvh;
                for t in 0..tb.len as usize {
                    let abs = tb.start as usize + t;
                    for h in 0..qh {
                        for d in 0..dim {
                            let diff = (g.dq[(t * qh + h) * dim + d]
                                - rdq[(abs * tq + h0q + h) * dim + d])
                                .abs();
                            assert!(diff < 2e-3, "dQ mismatch {diff}");
                        }
                    }
                    for h in 0..kvh {
                        for d in 0..dim {
                            let dk = (g.dk[(t * kvh + h) * dim + d]
                                - rdk[(abs * tkv + h0kv + h) * dim + d])
                                .abs();
                            let dv = (g.dv[(t * kvh + h) * dim + d]
                                - rdv[(abs * tkv + h0kv + h) * dim + d])
                                .abs();
                            assert!(dk < 2e-3 && dv < 2e-3, "dK/dV mismatch {dk}/{dv}");
                        }
                    }
                }
            }
        }
    }
}

fn small_planner(devices: u32, block_size: u32) -> Planner {
    Planner::new(
        ClusterSpec::single_node(devices),
        AttnSpec::new(4, 2, 8, 2),
        PlannerConfig {
            block_size,
            ..Default::default()
        },
    )
}

#[test]
fn dcp_plans_match_reference_all_masks() {
    for (i, mask) in [
        MaskSpec::Causal,
        MaskSpec::Lambda {
            sink: 4,
            window: 24,
        },
        MaskSpec::CausalBlockwise {
            block: 16,
            window_blocks: 2,
            sink_blocks: 1,
        },
        MaskSpec::SharedQuestion {
            question_len: 24,
            answer_lens: vec![24, 24, 24, 24],
        },
    ]
    .into_iter()
    .enumerate()
    {
        let planner = small_planner(4, 16);
        let seqs = vec![(120, mask), (48, MaskSpec::Causal)];
        let out = planner.plan(&seqs).unwrap();
        dcp::sched::verify_plan(&out.layout, &out.placement, &out.plan).unwrap();
        check_numerics(&out.layout, &out.placement, &out.plan, true);
        let _ = i;
    }
}

#[test]
fn dcp_plan_matches_reference_on_skewed_batch() {
    let planner = small_planner(8, 16);
    let seqs: Vec<(u32, MaskSpec)> = vec![
        (200, MaskSpec::Causal),
        (40, MaskSpec::Causal),
        (33, MaskSpec::Causal),
        (64, MaskSpec::Causal),
        (17, MaskSpec::Causal),
    ];
    let out = planner.plan(&seqs).unwrap();
    check_numerics(&out.layout, &out.placement, &out.plan, true);
}

#[test]
fn packed_documents_plan_matches_reference() {
    // Block-diagonal masking (packed pretraining documents): DCP places
    // whole documents like a DP dimension, and the numerics must still be
    // exact.
    let planner = small_planner(4, 16);
    let seqs = vec![(160, MaskSpec::packed_documents(&[50, 30, 48, 32]))];
    let out = planner.plan(&seqs).unwrap();
    dcp::sched::verify_plan(&out.layout, &out.placement, &out.plan).unwrap();
    check_numerics(&out.layout, &out.placement, &out.plan, true);
    // Documents never attend across boundaries, so with enough devices the
    // plan needs no KV transfers across documents' owners beyond block
    // granularity effects; at minimum it must not exceed the causal plan.
    let causal = planner.plan(&[(160, MaskSpec::Causal)]).unwrap();
    assert!(out.plan.total_comm_bytes() <= causal.plan.total_comm_bytes());
}

#[test]
fn ring_baseline_forward_matches_reference() {
    for b in [Baseline::RfaRing, Baseline::RfaZigzag] {
        let out = b
            .build(
                AttnSpec::new(4, 2, 8, 2),
                4,
                8,
                &[(96, MaskSpec::Causal), (64, MaskSpec::Causal)],
            )
            .unwrap();
        check_numerics(&out.layout, &out.placement, &out.plan, false);
    }
}

#[test]
fn te_baseline_forward_matches_reference_with_masks() {
    let out = Baseline::TransformerEngine { head_groups: 2 }
        .build(
            AttnSpec::new(4, 2, 8, 2),
            4,
            8,
            &[(
                96,
                MaskSpec::SharedQuestion {
                    question_len: 32,
                    answer_lens: vec![32, 32],
                },
            )],
        )
        .unwrap();
    check_numerics(&out.layout, &out.placement, &out.plan, false);
}
