//! The kernel bit contract: `attn_block_fwd` / `attn_block_bwd` must produce
//! exactly the bits of the scalar kernels they replaced, at every vector
//! width they are compiled for.
//!
//! [`oracle`] holds those kernels as they stood before the vector-shaped
//! rewrite (strict left-to-right dots, a per-key mask test, fresh row
//! buffers per call). They are frozen: nothing in the library may call them,
//! and they change only if the summation-order contract (DESIGN.md §7)
//! changes — their exponential is the library's [`exp`], whose own contract
//! (an error bound, not bits) the tests at the end of this file hold. The
//! sweep below drives the oracle, the instantiation this host's CPU selects
//! and the baseline one over head dims with and without a compiled fast
//! path, ragged tiles, GQA groups, every mask family, block offsets that
//! produce empty rows, two-span rows and fully masked blocks, and scores
//! spread wide enough to underflow the exponential, and compares every
//! output with `to_bits()`.

use dcp::exec::kernels::{
    attn_block_bwd, attn_block_fwd, baseline, exp, exp_in_place, BlockAcc, BlockArgs, BlockBwdArgs,
};
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
                    super::exp(acc.m[r] - new_m)
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
                    let p = super::exp(scores[j] - new_m);
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
                    let p = super::exp(s - lse_r);
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
/// `(query heads, kv heads)`: GQA groups 1, 2, 4 and 3 (a head left over
/// from a pair), one with two KV heads.
const HEADS: [(usize, usize); 5] = [(1, 1), (2, 1), (4, 1), (4, 2), (3, 1)];
/// GQA groups of 16, 24 and 32: 24 and 32 are wider than the backward's
/// pass of 16 rows for one token. Met on small blocks only, after the main
/// sweep: the oracle runs every head unoptimized.
const WIDE_HEADS: [(usize, usize); 3] = [(16, 1), (24, 1), (32, 1)];

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

fn randv(n: usize, gain: f32, rng: &mut SmallRng) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0) * gain).collect()
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|f| f.to_bits()).collect()
}

type Fwd = fn(&mut BlockAcc, BlockArgs<'_>);
type Bwd = fn(BlockBwdArgs<'_>, &mut [f32], &mut [f32], &mut [f32]);

/// The implementations compared: the oracle, then the instantiation this
/// host's CPU selects and the baseline one (the same code where the CPU has
/// nothing wider).
const KERNELS: [(&str, Fwd, Bwd); 3] = [
    ("oracle", oracle::attn_block_fwd, oracle::attn_block_bwd),
    ("detected", attn_block_fwd, attn_block_bwd),
    (
        "baseline",
        baseline::attn_block_fwd,
        baseline::attn_block_bwd,
    ),
];

/// `q`'s magnitude in a stressed case. A stressed case draws `q` uniform in
/// `±LOUD` and KV block `i`'s `k` in `±k_gain[i]` — with a gain of 20 there
/// too, the scores of a row lie hundreds apart, where unit inputs keep them
/// within a few units — and shows the backward `lse = -inf` on every third
/// row, keys or no keys.
const LOUD: f32 = 20.0;

/// What the sweep met, so the test can assert it met everything it claims.
#[derive(Default)]
struct Seen {
    cases: usize,
    empty_rows: usize,
    two_span_rows: usize,
    masked_blocks: usize,
    softmaxless_rows: usize,
    /// Rows with a key more than 87 below the row's own maximum: `P = +0`.
    underflowed_rows: usize,
    /// Rows of a second KV block that lies wholly more than 87 below the
    /// running maximum: every `P` is `+0` and the rescale is by exactly 1.
    swamped_rows: usize,
    /// Rows whose running maximum a second KV block raises by more than 87:
    /// the accumulated state is rescaled by `+0`.
    zeroed_rows: usize,
    /// Backward rows with keys in the block and `lse = -inf`.
    dead_lse_rows: usize,
    /// Cases whose GQA group is wider than the backward's pass.
    wide_groups: usize,
    /// Cases whose GQA group is odd and wider than one head.
    odd_groups: usize,
    /// Runs of two or more consecutive tokens with equal spans: rows the
    /// kernels score and gather together.
    token_groups: usize,
    /// Tokens left without a partner: the odd tail of a run, or a token whose
    /// neighbours' spans differ from its own (a diagonal block's).
    lone_tokens: usize,
    /// Backward runs in which, on one KV head, one row has a softmax and
    /// another has none.
    mixed_groups: usize,
}

/// The scores of query row `(t, h)` against its allowed keys of the KV
/// block, as every kernel computes them.
fn scores(a: &BlockArgs<'_>, t: usize, h: usize) -> Vec<f32> {
    let allowed = a.mask.allowed(a.q_start + t as u32);
    let q = &a.q[(t * a.qh + h) * a.dim..][..a.dim];
    let keys = (0..a.kv_len).filter(|&j| allowed.contains(a.kv_start + j as u32));
    keys.map(|j| {
        let k = &a.k[(j * a.kvh + h / (a.qh / a.kvh)) * a.dim..][..a.dim];
        q.iter().zip(k).map(|(x, y)| x * y).sum::<f32>() * a.scale
    })
    .collect()
}

/// One (Q-block, two KV-blocks) case: forward into a fresh accumulator, then
/// a second KV block into the same (non-fresh) one, then the backward of the
/// first block into non-zero gradient buffers. `stress` holds the key gains
/// of a stressed case ([`LOUD`]).
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
    stress: Option<[f32; 2]>,
) {
    let what = format!(
        "dim {dim} q {q_start}+{q_len} kv {kv_starts:?}+{kv_len} heads {qh}/{kvh} mask #{}",
        seen.cases
    );
    let (q_gain, k_gain) = stress.map_or((1.0, [1.0; 2]), |k_gain| (LOUD, k_gain));
    let q = randv(q_len * qh * dim, q_gain, rng);
    let d_o = randv(q_len * qh * dim, 1.0, rng);
    let kv = k_gain.map(|gain| {
        (
            randv(kv_len * kvh * dim, gain, rng),
            randv(kv_len * kvh * dim, 1.0, rng),
        )
    });
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

    let mut accs = KERNELS.map(|_| BlockAcc::new(q_len, qh, dim));
    for i in 0..2 {
        let m_before = accs[0].m.clone();
        for ((_, fwd, _), acc) in KERNELS.iter().zip(&mut accs) {
            fwd(acc, args(i));
        }
        let [want, others @ ..] = &accs;
        for ((name, ..), got) in KERNELS[1..].iter().zip(others) {
            assert_eq!(bits(&got.m), bits(&want.m), "{name} m, block {i}: {what}");
            assert_eq!(bits(&got.l), bits(&want.l), "{name} l, block {i}: {what}");
            assert_eq!(bits(&got.o), bits(&want.o), "{name} o, block {i}: {what}");
        }
        if stress.is_none() {
            // Scores a few units apart: nothing below underflows.
            continue;
        }
        for (r, (&before, &after)) in m_before.iter().zip(&want.m).enumerate() {
            let scores = scores(&args(i), r / qh, r % qh);
            let Some(top) = scores.iter().copied().reduce(f32::max) else {
                continue;
            };
            let running = before != f32::NEG_INFINITY;
            seen.underflowed_rows +=
                usize::from(top - scores.iter().fold(top, |m, &s| m.min(s)) > 87.0);
            seen.swamped_rows += usize::from(running && before - top > 87.0);
            seen.zeroed_rows += usize::from(running && after - before > 87.0);
        }
    }

    let [want, ..] = &accs;
    let (o, mut lse) = want.finalize();
    seen.softmaxless_rows += lse.iter().filter(|&&x| x == f32::NEG_INFINITY).count();
    if stress.is_some() {
        for (r, lse) in lse.iter_mut().enumerate().step_by(3) {
            seen.dead_lse_rows += usize::from(!scores(&args(0), r / qh, r % qh).is_empty());
            *lse = f32::NEG_INFINITY;
        }
    }
    let grads = [q.len(), kv[0].0.len(), kv[0].0.len()].map(|n| randv(n, 1.0, rng));
    let bwd_args = BlockBwdArgs {
        fwd: args(0),
        o: &o,
        lse: &lse,
        d_o: &d_o,
    };
    let [want, others @ ..] = KERNELS.map(|(_, _, bwd)| {
        let [mut dq, mut dk, mut dv] = grads.clone();
        bwd(bwd_args, &mut dq, &mut dk, &mut dv);
        [dq, dk, dv].map(|g| bits(&g))
    });
    for ((name, ..), got) in KERNELS[1..].iter().zip(others) {
        for (grad, (got, want)) in ["dq", "dk", "dv"].iter().zip(got.iter().zip(&want)) {
            assert_eq!(got, want, "{name} {grad}: {what}");
        }
    }

    seen.cases += 1;
    let group = qh / kvh;
    seen.wide_groups += usize::from(group > 16);
    seen.odd_groups += usize::from(group > 1 && group % 2 == 1);
    for (i, kv_start) in kv_starts.into_iter().enumerate() {
        let kv_end = kv_start + kv_len as u32;
        let spans =
            (q_start..q_start + q_len as u32).map(|t| mask.allowed(t).spans_in(kv_start, kv_end));
        let spans: Vec<[(u32, u32); 2]> = spans.collect();
        let rows: Vec<[u32; 2]> = spans.iter().map(|s| s.map(|(lo, hi)| hi - lo)).collect();
        let empty = rows.iter().filter(|r| r == &&[0, 0]).count();
        seen.empty_rows += empty;
        seen.masked_blocks += usize::from(empty == rows.len());
        seen.two_span_rows += rows.iter().filter(|r| r[0] > 0 && r[1] > 0).count();
        let mut t = 0;
        while t < spans.len() {
            let n = spans[t..].iter().take_while(|&&s| s == spans[t]).count();
            if rows[t] != [0, 0] {
                seen.token_groups += usize::from(n >= 2);
                seen.lone_tokens += n % 2;
                // The backward runs on the first KV block.
                for g in (0..kvh).filter(|_| i == 0) {
                    let heads = g * group..(g + 1) * group;
                    let run = (t..t + n).flat_map(|t| heads.clone().map(move |h| t * qh + h));
                    let dead = run.clone().filter(|&r| lse[r] == f32::NEG_INFINITY).count();
                    seen.mixed_groups += usize::from(dead > 0 && dead < run.count());
                }
            }
            t += n;
        }
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
                    None,
                );
            }
        }
    }
    // Scores hundreds apart, which the exponential underflows on: inside one
    // row, across the two KV blocks in either order (the quiet block is
    // swamped by the running maximum, or the loud one zeroes what the quiet
    // one accumulated), and a backward that must skip rows that have keys.
    for k_gain in [[LOUD, 0.01], [0.01, LOUD]] {
        for mask in &masks {
            let (lens, heads) = ((33, 64), HEADS[3]);
            let kv_starts = [128, 192];
            check_case(
                &mut seen,
                &mut rng,
                mask,
                dim,
                lens,
                heads,
                256,
                kv_starts,
                Some(k_gain),
            );
        }
    }
    // Groups wider than a pass, on a block that straddles the diagonal so
    // every token of a pass ends its keys somewhere else.
    for heads in WIDE_HEADS {
        for mask in &masks {
            let menu = kv_start_menu(&mut rng, 64, 7, 33);
            let kv_starts = [48, menu[rng.gen_range(0..menu.len())]];
            check_case(
                &mut seen,
                &mut rng,
                mask,
                dim,
                (7, 33),
                heads,
                64,
                kv_starts,
                None,
            );
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
    assert!(seen.underflowed_rows > 0, "no underflow inside a row met");
    assert!(seen.swamped_rows > 0, "no swamped second block met");
    assert!(seen.zeroed_rows > 0, "no rescale by zero met");
    assert!(
        seen.dead_lse_rows > 0,
        "no backward row with keys but no lse"
    );
    assert!(seen.wide_groups > 0, "no GQA group wider than a pass met");
    assert!(seen.odd_groups > 0, "no odd GQA group met");
    assert!(
        seen.token_groups > 0,
        "no run of tokens with equal spans met"
    );
    assert!(seen.lone_tokens > 0, "no token without a partner met");
    assert!(
        seen.mixed_groups > 0,
        "no run with rows with and without a softmax met"
    );
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

/// Every `step`-th float from `from` towards `to` (both of one sign, `to` the
/// larger in magnitude): [`exp`] is within `EXP_MAX_ULPS` of the f64 `exp`
/// rounded to f32, never moves against its argument, and the library's loops
/// over it, at the detected and the baseline width, give its very bits.
fn check_exp_between(from: f32, to: f32, step: usize) {
    let mut prev = exp(from);
    let mut xs = (from.to_bits()..=to.to_bits())
        .step_by(step)
        .map(f32::from_bits)
        .peekable();
    while xs.peek().is_some() {
        let chunk: Vec<f32> = xs.by_ref().take(1 << 12).collect();
        let (mut detected, mut narrow) = (chunk.clone(), chunk.clone());
        exp_in_place(&mut detected);
        baseline::exp_in_place(&mut narrow);
        for (i, &x) in chunk.iter().enumerate() {
            let (got, want) = (exp(x), (x as f64).exp() as f32);
            let ulps = got.to_bits().abs_diff(want.to_bits());
            assert!(
                ulps <= EXP_MAX_ULPS,
                "exp({x:e}) = {got:e}, {ulps} ULP from {want:e}"
            );
            let ordered = if to < from { got <= prev } else { got >= prev };
            assert!(
                ordered,
                "exp is not monotone at {x:e}: {prev:e} then {got:e}"
            );
            prev = got;
            let in_loops = [detected[i], narrow[i]].map(f32::to_bits);
            assert_eq!(in_loops, [got.to_bits(); 2], "exp({x:e}) in a loop");
        }
    }
}

/// The bound DESIGN.md §7 states for [`exp`], against the correctly rounded
/// value, over `[EXP_CUT_OFF, EXP_OVERFLOW]`.
const EXP_MAX_ULPS: u32 = 1;
/// Below this [`exp`] is `+0.0`: the true values are about to go subnormal.
const EXP_CUT_OFF: f32 = -87.0;
/// The largest input with a finite `e^x` in f32.
const EXP_OVERFLOW: f32 = 88.722_83;

#[test]
fn exp_holds_its_bound_on_a_strided_sample() {
    check_exp_between(-0.0, EXP_CUT_OFF, 1021);
    check_exp_between(0.0, EXP_OVERFLOW, 1021);
    let next_towards_zero = |x: f32| f32::from_bits(x.to_bits() - 1);
    let next_away_from_zero = |x: f32| f32::from_bits(x.to_bits() + 1);
    // An unchanged running maximum must rescale by exactly 1.
    for zero in [0.0f32, -0.0] {
        assert_eq!(exp(zero).to_bits(), 1.0f32.to_bits());
    }
    assert_eq!(exp(1e-8).to_bits(), 1.0f32.to_bits());
    // Both sides of the cut-off, and far below it: `+0.0`, never `-0.0`, a
    // subnormal or a wrapped exponent.
    check_exp_between(EXP_CUT_OFF, EXP_CUT_OFF, 1);
    check_exp_between(next_towards_zero(EXP_CUT_OFF), EXP_CUT_OFF, 1);
    for below in [
        next_away_from_zero(EXP_CUT_OFF),
        -88.0,
        -104.0,
        -1e30,
        f32::NEG_INFINITY,
    ] {
        assert_eq!(exp(below).to_bits(), 0.0f32.to_bits(), "exp({below:e})");
    }
    check_exp_between(EXP_OVERFLOW, EXP_OVERFLOW, 1);
    for above in [next_away_from_zero(EXP_OVERFLOW), 89.0, 1e30, f32::INFINITY] {
        assert_eq!(exp(above), f32::INFINITY, "exp({above:e})");
    }
    assert!(exp(f32::NAN).is_nan());
    assert!(exp(-f32::NAN).is_nan());
}

/// All 1 118 699 521 floats of the interval the kernels evaluate [`exp`] on
/// (a score minus a maximum of the scores): about 50 s in release, so CI runs
/// it there (`-- --include-ignored`) and tier-1 runs the strided sample.
#[test]
#[ignore = "exhaustive: ~50 s in release, minutes unoptimized"]
fn exp_holds_its_bound_on_every_float_of_the_kernels_range() {
    check_exp_between(-0.0, EXP_CUT_OFF, 1);
}
