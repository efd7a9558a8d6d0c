//! The kernel bit contract: `attn_block_fwd` / `attn_block_bwd` must produce
//! exactly the bits of the scalar kernels they replaced.
//!
//! [`oracle`] holds those kernels as they stood before the vector-shaped
//! rewrite (strict left-to-right dots, a per-key mask test, fresh row
//! buffers per call). They are frozen: nothing in the library may call them,
//! and they change only if the summation-order contract (DESIGN.md §7)
//! changes. The sweep below drives both implementations over head dims with
//! and without a compiled fast path, ragged tiles, GQA groups, every mask
//! family, and block offsets that produce empty rows, two-span rows and
//! fully masked blocks, and compares every output with `to_bits()`.

use dcp::exec::kernels::{attn_block_bwd, attn_block_fwd, BlockAcc, BlockArgs, BlockBwdArgs};
use dcp::mask::{Mask, MaskSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The scalar kernels, verbatim from `crates/exec/src/kernels.rs` at the
/// commit before the rewrite.
mod oracle {
    use super::{BlockAcc, BlockArgs, BlockBwdArgs};

    #[inline]
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    pub fn attn_block_fwd(acc: &mut BlockAcc, a: BlockArgs<'_>) {
        debug_assert_eq!(acc.len, a.q_len);
        debug_assert_eq!(acc.qh, a.qh);
        let group = a.qh / a.kvh;
        let mut scores = vec![0.0f32; a.kv_len];
        let mut allowed = vec![false; a.kv_len];
        for t in 0..a.q_len {
            let abs_q = a.q_start + t as u32;
            let ranges = a.mask.allowed(abs_q);
            let mut any = false;
            for (j, al) in allowed.iter_mut().enumerate() {
                *al = ranges.contains(a.kv_start + j as u32);
                any |= *al;
            }
            if !any {
                continue;
            }
            for h in 0..a.qh {
                let kvh_idx = h / group;
                let r = t * a.qh + h;
                let qbase = r * a.dim;
                let qrow = &a.q[qbase..qbase + a.dim];
                // Scores for allowed keys.
                let mut row_max = f32::NEG_INFINITY;
                for j in 0..a.kv_len {
                    if !allowed[j] {
                        continue;
                    }
                    let kbase = (j * a.kvh + kvh_idx) * a.dim;
                    let s = dot(qrow, &a.k[kbase..kbase + a.dim]) * a.scale;
                    scores[j] = s;
                    row_max = row_max.max(s);
                }
                if row_max == f32::NEG_INFINITY {
                    continue;
                }
                // Online-softmax rescale, fused over the hoisted output row.
                let new_m = acc.m[r].max(row_max);
                let correction = if acc.m[r] == f32::NEG_INFINITY {
                    0.0
                } else {
                    (acc.m[r] - new_m).exp()
                };
                let orow = &mut acc.o[qbase..qbase + a.dim];
                for o in orow.iter_mut() {
                    *o *= correction;
                }
                acc.m[r] = new_m;
                let mut l_add = 0.0f32;
                for j in 0..a.kv_len {
                    if !allowed[j] {
                        continue;
                    }
                    let p = (scores[j] - new_m).exp();
                    l_add += p;
                    let vbase = (j * a.kvh + kvh_idx) * a.dim;
                    for (o, &vv) in orow.iter_mut().zip(&a.v[vbase..vbase + a.dim]) {
                        *o += p * vv;
                    }
                }
                acc.l[r] = acc.l[r] * correction + l_add;
            }
        }
    }

    pub fn attn_block_bwd(args: BlockBwdArgs<'_>, dq: &mut [f32], dk: &mut [f32], dv: &mut [f32]) {
        let a = args.fwd;
        let group = a.qh / a.kvh;
        for t in 0..a.q_len {
            let abs_q = a.q_start + t as u32;
            let ranges = a.mask.allowed(abs_q);
            for h in 0..a.qh {
                let r = t * a.qh + h;
                if args.lse[r] == f32::NEG_INFINITY {
                    continue;
                }
                let kvh_idx = h / group;
                let rbase = r * a.dim;
                let qrow = &a.q[rbase..rbase + a.dim];
                let dorow = &args.d_o[rbase..rbase + a.dim];
                let dqrow = &mut dq[rbase..rbase + a.dim];
                let lse_r = args.lse[r];
                // delta = rowsum(dO * O).
                let delta = dot(dorow, &args.o[rbase..rbase + a.dim]);
                for j in 0..a.kv_len {
                    if !ranges.contains(a.kv_start + j as u32) {
                        continue;
                    }
                    let kbase = (j * a.kvh + kvh_idx) * a.dim;
                    let krow = &a.k[kbase..kbase + a.dim];
                    let vrow = &a.v[kbase..kbase + a.dim];
                    let s = dot(qrow, krow) * a.scale;
                    let p = (s - lse_r).exp();
                    // dV += p * dO; dP = dO . V ; dS = p * (dP - delta).
                    for (g, &go) in dv[kbase..kbase + a.dim].iter_mut().zip(dorow) {
                        *g += p * go;
                    }
                    let ds = p * (dot(dorow, vrow) - delta) * a.scale;
                    let dkrow = &mut dk[kbase..kbase + a.dim];
                    for d in 0..a.dim {
                        dqrow[d] += ds * krow[d];
                        dkrow[d] += ds * qrow[d];
                    }
                }
            }
        }
    }
}

/// Tokens in every test sequence: room for two 128-token blocks anywhere.
const SEQ: u32 = 384;
const DIMS: [usize; 6] = [4, 8, 16, 24, 64, 128];
const LENS: [usize; 5] = [1, 7, 33, 64, 128];
/// `(query heads, kv heads)`: GQA groups 1, 2 and 4, one with two KV heads.
const HEADS: [(usize, usize); 4] = [(1, 1), (2, 1), (4, 1), (4, 2)];

fn masks() -> Vec<Mask> {
    [
        MaskSpec::Causal,
        MaskSpec::Full,
        MaskSpec::Lambda {
            sink: 5,
            window: 40,
        },
        MaskSpec::CausalBlockwise {
            block: 48,
            window_blocks: 1,
            sink_blocks: 1,
        },
        MaskSpec::SharedQuestion {
            question_len: 90,
            answer_lens: vec![70, 100, 60, 64],
        },
        MaskSpec::packed_documents(&[100, 37, 150, 97]),
    ]
    .iter()
    .map(|spec| spec.instantiate(SEQ).unwrap())
    .collect()
}

fn randv(n: usize, rng: &mut SmallRng) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|f| f.to_bits()).collect()
}

/// What the sweep met, so the test can assert it met everything it claims.
#[derive(Default)]
struct Seen {
    cases: usize,
    empty_rows: usize,
    two_span_rows: usize,
    masked_blocks: usize,
    softmaxless_rows: usize,
}

/// One (Q-block, two KV-blocks) case: forward into a fresh accumulator, then
/// a second KV block into the same (non-fresh) one, then the backward of the
/// first block into non-zero gradient buffers.
#[allow(clippy::too_many_arguments)]
fn check_case(
    seen: &mut Seen,
    rng: &mut SmallRng,
    mask: &Mask,
    dim: usize,
    (q_len, kv_len): (usize, usize),
    (qh, kvh): (usize, usize),
    q_start: u32,
    kv_starts: [u32; 2],
) {
    let what = format!(
        "dim {dim} q {q_start}+{q_len} kv {kv_starts:?}+{kv_len} heads {qh}/{kvh} mask #{}",
        seen.cases
    );
    let q = randv(q_len * qh * dim, rng);
    let d_o = randv(q_len * qh * dim, rng);
    let kv: Vec<(Vec<f32>, Vec<f32>)> = (0..2)
        .map(|_| {
            (
                randv(kv_len * kvh * dim, rng),
                randv(kv_len * kvh * dim, rng),
            )
        })
        .collect();
    let args = |i: usize| BlockArgs {
        q: &q,
        k: &kv[i].0,
        v: &kv[i].1,
        qh,
        kvh,
        dim,
        q_len,
        kv_len,
        q_start,
        kv_start: kv_starts[i],
        mask,
        scale: 1.0 / (dim as f32).sqrt(),
    };

    let mut want = BlockAcc::new(q_len, qh, dim);
    let mut got = BlockAcc::new(q_len, qh, dim);
    for i in 0..2 {
        oracle::attn_block_fwd(&mut want, args(i));
        attn_block_fwd(&mut got, args(i));
        assert_eq!(bits(&got.m), bits(&want.m), "m after block {i}: {what}");
        assert_eq!(bits(&got.l), bits(&want.l), "l after block {i}: {what}");
        assert_eq!(bits(&got.o), bits(&want.o), "o after block {i}: {what}");
    }

    let (o, lse) = want.finalize();
    let grads = [q.len(), kv[0].0.len(), kv[0].0.len()].map(|n| randv(n, rng));
    let bwd = BlockBwdArgs {
        fwd: args(0),
        o: &o,
        lse: &lse,
        d_o: &d_o,
    };
    let [mut dq, mut dk, mut dv] = grads.clone();
    oracle::attn_block_bwd(bwd, &mut dq, &mut dk, &mut dv);
    let [mut dq2, mut dk2, mut dv2] = grads;
    attn_block_bwd(bwd, &mut dq2, &mut dk2, &mut dv2);
    assert_eq!(bits(&dq2), bits(&dq), "dq: {what}");
    assert_eq!(bits(&dk2), bits(&dk), "dk: {what}");
    assert_eq!(bits(&dv2), bits(&dv), "dv: {what}");

    seen.cases += 1;
    seen.softmaxless_rows += lse.iter().filter(|&&x| x == f32::NEG_INFINITY).count();
    for kv_start in kv_starts {
        let kv_end = kv_start + kv_len as u32;
        let spans = (q_start..q_start + q_len as u32).map(|t| {
            mask.allowed(t)
                .spans_in(kv_start, kv_end)
                .map(|(lo, hi)| hi - lo)
        });
        let rows: Vec<[u32; 2]> = spans.collect();
        let empty = rows.iter().filter(|r| r == &&[0, 0]).count();
        seen.empty_rows += empty;
        seen.masked_blocks += usize::from(empty == rows.len());
        seen.two_span_rows += rows.iter().filter(|r| r[0] > 0 && r[1] > 0).count();
    }
}

/// Block offsets worth meeting for a Q block of `q_len` and KV blocks of
/// `kv_len`: the diagonal, wholly before, wholly after (masked under
/// causality), straddling, at both ends of the sequence, and one at random.
fn kv_start_menu(rng: &mut SmallRng, q_start: u32, q_len: usize, kv_len: usize) -> Vec<u32> {
    let (q_len, kv_len) = (q_len as u32, kv_len as u32);
    let last = SEQ - kv_len;
    vec![
        q_start.min(last),
        q_start.saturating_sub(kv_len),
        (q_start + q_len).min(last),
        (q_start + q_len / 2).saturating_sub(kv_len / 2).min(last),
        0,
        last,
        rng.gen_range(0..last + 1),
    ]
}

/// The sweep for one head dim: every (q_len, kv_len) pair under the masks,
/// with heads and block offsets drawn from the seeded generator so each
/// pairing shows up without the full cross product.
fn sweep(dim: usize) -> Seen {
    let mut rng = SmallRng::seed_from_u64(0xD0C5 + dim as u64);
    let masks = masks();
    let mut seen = Seen::default();
    for q_len in LENS {
        for kv_len in LENS {
            // Full-size blocks at the widest head dims are the whole cost of
            // the sweep (the oracle runs unoptimized): they get the narrowest
            // head layout and two of the masks.
            let work = q_len * kv_len * dim;
            let heavy = work > 128 * 128 * 32;
            let keep: usize = rng.gen_range(0..3);
            for (mi, mask) in masks.iter().enumerate() {
                if heavy && mi % 3 != keep {
                    continue;
                }
                let layouts = match work {
                    _ if heavy => 1,
                    w if w > 64 * 64 * 32 => 2,
                    _ => HEADS.len(),
                };
                let heads = HEADS[rng.gen_range(0..layouts)];
                let last_q = SEQ - q_len as u32;
                let q_start = match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..last_q + 1),
                    1 => last_q,
                    // Near the start, sink / question and window share a block.
                    2 => 64.min(last_q),
                    _ => 0,
                };
                let menu = kv_start_menu(&mut rng, q_start, q_len, kv_len);
                let kv_starts = [0; 2].map(|_| menu[rng.gen_range(0..menu.len())]);
                check_case(
                    &mut seen,
                    &mut rng,
                    mask,
                    dim,
                    (q_len, kv_len),
                    heads,
                    q_start,
                    kv_starts,
                );
            }
        }
    }
    seen
}

fn assert_covered(seen: &Seen) {
    assert!(seen.cases > LENS.len() * LENS.len() * 4, "sweep too thin");
    assert!(seen.empty_rows > 0, "no empty row met");
    assert!(seen.two_span_rows > 0, "no two-span row met");
    assert!(seen.masked_blocks > 0, "no fully masked block met");
    assert!(seen.softmaxless_rows > 0, "no row without a softmax met");
}

macro_rules! oracle_sweeps {
    ($($name:ident: $dim:expr,)*) => {$(
        #[test]
        fn $name() {
            assert!(DIMS.contains(&$dim));
            assert_covered(&sweep($dim));
        }
    )*};
}

// One test per head dim, so the harness runs them side by side. 16, 64 and
// 128 have a compiled body of their own; 4, 8 and 24 take the generic one.
oracle_sweeps! {
    bit_equal_dim_4: 4,
    bit_equal_dim_8: 8,
    bit_equal_dim_16: 16,
    bit_equal_dim_24: 24,
    bit_equal_dim_64: 64,
    bit_equal_dim_128: 128,
}
