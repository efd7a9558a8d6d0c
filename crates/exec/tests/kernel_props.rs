//! Property tests for the numerical kernels: the online-softmax algebra
//! must be exact under arbitrary splits, orders and masks.

use dcp_exec::kernels::{
    attn_block_bwd, attn_block_fwd, merge_outputs, BlockAcc, BlockArgs, BlockBwdArgs,
};
use dcp_exec::reference;
use dcp_mask::MaskSpec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn randv(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn arb_mask() -> impl Strategy<Value = MaskSpec> {
    prop_oneof![
        Just(MaskSpec::Causal),
        Just(MaskSpec::Full),
        (0u32..3, 1u32..12).prop_map(|(sink, window)| MaskSpec::Lambda { sink, window }),
        (1u32..6, 1u32..3, 0u32..2).prop_map(|(block, window_blocks, sink_blocks)| {
            MaskSpec::CausalBlockwise {
                block,
                window_blocks,
                sink_blocks,
            }
        }),
    ]
}

/// Consecutive `[start, end)` chunks covering `[0, len)`, cut after each of
/// `splits` tokens (the tail is one chunk).
fn kv_chunks(len: usize, splits: &[usize]) -> Vec<(usize, usize)> {
    let mut bounds = vec![0usize];
    for s in splits {
        let next = (bounds[bounds.len() - 1] + s).min(len);
        if next > bounds[bounds.len() - 1] {
            bounds.push(next);
        }
    }
    if bounds[bounds.len() - 1] != len {
        bounds.push(len);
    }
    bounds.windows(2).map(|w| (w[0], w[1])).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Accumulating KV splits in any order equals the dense reference.
    #[test]
    fn split_order_invariance(
        len in 2usize..24,
        splits in prop::collection::vec(1usize..6, 1..5),
        mask in arb_mask(),
        seed in 0u64..1000,
        reverse in any::<bool>(),
    ) {
        let (qh, kvh, dim) = (2usize, 1usize, 4usize);
        let q = randv(len * qh * dim, seed);
        let k = randv(len * kvh * dim, seed ^ 1);
        let v = randv(len * kvh * dim, seed ^ 2);
        let mask = mask.instantiate(len as u32).unwrap();
        let scale = 1.0 / (dim as f32).sqrt();

        let mut chunks = kv_chunks(len, &splits);
        if reverse {
            chunks.reverse();
        }

        let mut acc = BlockAcc::new(len, qh, dim);
        for (s, e) in chunks {
            attn_block_fwd(
                &mut acc,
                BlockArgs {
                    q: &q,
                    k: &k[s * kvh * dim..e * kvh * dim],
                    v: &v[s * kvh * dim..e * kvh * dim],
                    qh,
                    kvh,
                    dim,
                    q_len: len,
                    kv_len: e - s,
                    q_start: 0,
                    kv_start: s as u32,
                    mask: &mask,
                    scale,
                },
            );
        }
        let (o, lse) = acc.finalize();
        let (ro, rlse) =
            reference::attention(&q, &k, &v, len, qh, kvh, dim, &mask);
        for (a, b) in o.iter().zip(&ro) {
            prop_assert!((a - b).abs() < 1e-4, "O {a} vs {b}");
        }
        for (a, b) in lse.iter().zip(&rlse) {
            if *b == f32::NEG_INFINITY {
                prop_assert_eq!(*a, f32::NEG_INFINITY);
            } else {
                prop_assert!((a - b).abs() < 1e-4, "lse {a} vs {b}");
            }
        }
    }

    /// The backward over KV chunks adds up to the backward over the whole KV
    /// range — bitwise when the chunks run in key order, since every
    /// gradient element then meets its terms in the same order — and both
    /// agree with the dense reference.
    #[test]
    fn bwd_kv_split_additivity(
        len in 2usize..40,
        splits in prop::collection::vec(1usize..20, 1..5),
        mask in arb_mask(),
        seed in 0u64..1000,
        reverse in any::<bool>(),
        (qh, kvh) in prop_oneof![Just((2usize, 1usize)), Just((2, 2)), Just((3, 1)), Just((4, 2))],
    ) {
        let dim = 4usize;
        let q = randv(len * qh * dim, seed);
        let k = randv(len * kvh * dim, seed ^ 1);
        let v = randv(len * kvh * dim, seed ^ 2);
        let d_o = randv(len * qh * dim, seed ^ 3);
        let mask = mask.instantiate(len as u32).unwrap();
        let (o, lse) = reference::attention(&q, &k, &v, len, qh, kvh, dim, &mask);
        let run = |chunks: &[(usize, usize)]| {
            let mut dq = vec![0.0f32; q.len()];
            let (mut dk, mut dv) = (vec![0.0f32; k.len()], vec![0.0f32; v.len()]);
            for &(s, e) in chunks {
                let kv = s * kvh * dim..e * kvh * dim;
                let fwd = BlockArgs {
                    q: &q,
                    k: &k[kv.clone()],
                    v: &v[kv.clone()],
                    qh,
                    kvh,
                    dim,
                    q_len: len,
                    kv_len: e - s,
                    q_start: 0,
                    kv_start: s as u32,
                    mask: &mask,
                    scale: 1.0 / (dim as f32).sqrt(),
                };
                let args = BlockBwdArgs { fwd, o: &o, lse: &lse, d_o: &d_o };
                attn_block_bwd(args, &mut dq, &mut dk[kv.clone()], &mut dv[kv]);
            }
            [dq, dk, dv]
        };
        let whole = run(&[(0, len)]);
        let mut chunks = kv_chunks(len, &splits);
        if reverse {
            chunks.reverse();
        }
        let split = run(&chunks);
        let (rq, rk, rv) =
            reference::attention_bwd(&q, &k, &v, &o, &lse, &d_o, len, qh, kvh, dim, &mask);
        for ((w, s), r) in whole.iter().zip(&split).zip([rq, rk, rv]) {
            if reverse {
                for (a, b) in w.iter().zip(s) {
                    prop_assert!((a - b).abs() < 1e-4, "split {b} vs whole {a}");
                }
            } else {
                prop_assert_eq!(w, s);
            }
            for (a, b) in w.iter().zip(&r) {
                prop_assert!((a - b).abs() < 1e-3, "kernel {a} vs reference {b}");
            }
        }
    }

    /// merge(x, y) == merge(y, x): partial-output reduction commutes,
    /// so the owner may reduce partials in arrival order.
    #[test]
    fn merge_commutes(
        rows in 1usize..12,
        seed in 0u64..1000,
    ) {
        let dim = 4usize;
        let o1 = randv(rows * dim, seed);
        let o2 = randv(rows * dim, seed ^ 7);
        let mut rng = SmallRng::seed_from_u64(seed ^ 9);
        let l1: Vec<f32> = (0..rows).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let l2: Vec<f32> = (0..rows).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let (oa, la) = merge_outputs(&o1, &l1, &o2, &l2, dim);
        let (ob, lb) = merge_outputs(&o2, &l2, &o1, &l1, dim);
        for (a, b) in oa.iter().zip(&ob) {
            prop_assert!((a - b).abs() < 1e-5);
        }
        for (a, b) in la.iter().zip(&lb) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// merge is associative up to float noise: (x+y)+z == x+(y+z).
    #[test]
    fn merge_associates(
        rows in 1usize..10,
        seed in 0u64..1000,
    ) {
        let dim = 3usize;
        let parts: Vec<(Vec<f32>, Vec<f32>)> = (0..3u64)
            .map(|i| {
                let o = randv(rows * dim, seed ^ i);
                let mut rng = SmallRng::seed_from_u64(seed ^ (i + 10));
                let l: Vec<f32> = (0..rows).map(|_| rng.gen_range(-2.0..2.0)).collect();
                (o, l)
            })
            .collect();
        let (oxy, lxy) = merge_outputs(&parts[0].0, &parts[0].1, &parts[1].0, &parts[1].1, dim);
        let (left_o, left_l) = merge_outputs(&oxy, &lxy, &parts[2].0, &parts[2].1, dim);
        let (oyz, lyz) = merge_outputs(&parts[1].0, &parts[1].1, &parts[2].0, &parts[2].1, dim);
        let (right_o, right_l) = merge_outputs(&parts[0].0, &parts[0].1, &oyz, &lyz, dim);
        for (a, b) in left_o.iter().zip(&right_o) {
            prop_assert!((a - b).abs() < 1e-4);
        }
        for (a, b) in left_l.iter().zip(&right_l) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }
}
