//! Blockwise attention kernels: online-softmax forward, partial-output
//! merging, and the exact backward for one (Q-block, KV-block) pair.
//!
//! Data layout: all tensors are row-major `[tokens, heads, dim]`, i.e.
//! element `(t, h, d)` lives at `(t * heads + h) * dim + d`. GQA is handled
//! by mapping query head `h` to KV head `h / (q_heads / kv_heads)`.
//!
//! The kernels are laid out for the vector units without changing what is
//! summed in which order (DESIGN.md §7, "Kernel summation order"):
//!
//! - every product against a key (`q·k`, `dO·v`) runs over a tile-major
//!   copy of the KV block, `TILE` keys at a time with `d` as the outer
//!   loop, so each lane still adds `d = 0, 1, …` in order while the lanes
//!   are independent, and a tile is loaded once for the `PAIR` query heads
//!   that share its KV head;
//! - every update of a query-side row (`PV`, `dQ`) holds a piece of the row
//!   in registers while it walks the keys in ascending order, and every
//!   update of a KV-side row (`dV`, `dK`) loads and stores the row once per
//!   head pair;
//! - a query row's allowed keys are its mask's two spans clipped to the KV
//!   block, never a per-key test;
//! - the hot bodies are compiled once per usual head dim and once generic;
//! - all buffers come from one thread-local `Scratch`;
//! - every exponential is the crate's own [`exp`]: f32 multiplies, adds and
//!   integer operations that vectorize with the loop around them.
//!
//! That one source is compiled at two vector widths (DESIGN.md §7, "One
//! source, two widths"): the baseline every target has, and on `x86_64` an
//! AVX2 copy that `run` takes, per call, when the CPU has it. A wider
//! vector only holds more of the independent lanes above, and no fused
//! multiply-add is ever written or enabled, so every lane is the same
//! sequence of the same roundings at either width: the outputs are
//! bit-equal, and [`baseline`] exists so a test on an AVX2 host can say so.

use std::cell::RefCell;

use dcp_mask::Mask;

/// Keys per score tile: four SSE vectors of accumulators per query row, or
/// two AVX ones.
const TILE: usize = 16;

/// Query heads of one GQA group scored against a key tile together.
const PAIR: usize = 2;

/// Allowed keys of one query row, as block-local `[lo, hi)` spans in
/// ascending key order.
type Spans = [(usize, usize); 2];

/// Per-thread buffers, grown on first use and kept: a kernel call allocates
/// nothing once its thread has seen the largest block.
#[derive(Default)]
struct Scratch {
    /// The KV block's K, tile-major: `[kv_head][key / TILE][d][key % TILE]`,
    /// the last tile zero-padded.
    kt: Vec<f32>,
    /// The KV block's V in the same layout (backward only).
    vt: Vec<f32>,
    /// The KV block's V as `[kv_head][key][d]`, so the rows one head's `PV`
    /// walks are contiguous (forward only).
    v_rows: Vec<f32>,
    /// The query-side rows of one head pair, `[d][row]`.
    x: Vec<f32>,
    /// Per row of the head pair, by key: scores, then probabilities.
    p: Vec<f32>,
    /// Per row of the head pair, by key: `dP`, then `dS` (backward only).
    ds: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// `e^x` in f32 multiplies, adds and integer operations only, so it gives the
/// same bits on every host and at every vector width, and a loop over it
/// vectorizes. Within 1 ULP of the correctly rounded value and monotone over
/// every float of `[-87, 88.72283]` (`tests/kernel_oracle.rs` checks every
/// float of the half the kernels use, `[-87, -0]`, and a strided sample of
/// the other); `exp(±0)` is exactly 1, inputs below -87 give `+0.0` — the
/// results there would be about to go subnormal — inputs above 88.72283 give
/// `+inf`, NaN gives NaN.
///
/// `x = n·ln 2 + r` with `n` the nearest integer: adding 1.5·2²³ rounds
/// `x·log₂e` to an integer in the low mantissa bits of `t` (no `floor`, no
/// float→int conversion), `ln 2` is split Cody–Waite style into a 9-bit head,
/// whose product with `n` is exact, and a tail, `e^r` on `|r| ≤ ½ ln 2` is a
/// degree-6 minimax polynomial with its first two coefficients pinned to 1
/// (3.8e-9 relative, 0.06 ULP, before any rounding), and `2ⁿ` is `n` shifted
/// into the exponent field and added to the polynomial's bits.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    const ROUND: f32 = 12_582_912.0; // 1.5 · 2²³
    const LN2_HEAD: f32 = 355.0 / 512.0;
    const LN2_TAIL: f32 = -2.121_944_4e-4; // ln 2 − LN2_HEAD
    const C: [f32; 5] = [
        0.499_999_94,
        0.166_665_21,
        0.041_668_39,
        0.008_368_719,
        0.001_381_459_4,
    ];
    let t = x * std::f32::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let r = (x - n * LN2_HEAD) - n * LN2_TAIL;
    let q = (((C[4] * r + C[3]) * r + C[2]) * r + C[1]) * r + C[0];
    let e_r = 1.0 + (r + r * r * q);
    let y = f32::from_bits(e_r.to_bits().wrapping_add(t.to_bits() << 23));
    // Selects, not branches: NaN fails both comparisons and comes back NaN.
    if x < -87.0 {
        0.0
    } else if x <= 88.722_83 {
        y
    } else {
        x + f32::INFINITY
    }
}

/// Dot product of two equal-length rows, summed left to right.
#[inline(always)]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Writes `src` (`[key][kv_head][d]`) into `dst` tile by tile as
/// `[kv_head][key / TILE][d][key % TILE]`, the last tile zero-padded.
#[inline(always)]
fn pack_tiles(dst: &mut Vec<f32>, src: &[f32], kvh: usize, dim: usize) {
    let kv_len = src.len() / (kvh * dim);
    let kp = kv_len.next_multiple_of(TILE);
    dst.resize(kvh * dim * kp, 0.0);
    if kp != kv_len {
        // The lanes past the last key still hold an earlier block's values.
        for head in dst.chunks_exact_mut(dim * kp) {
            head[dim * (kp - TILE)..].fill(0.0);
        }
    }
    for (j, token) in src.chunks_exact(kvh * dim).enumerate() {
        for (head, row) in token.chunks_exact(dim).enumerate() {
            let tile = &mut dst[(head * kp + j - j % TILE) * dim..][..dim * TILE];
            for (lanes, &x) in tile.chunks_exact_mut(TILE).zip(row) {
                lanes[j % TILE] = x;
            }
        }
    }
}

/// Writes `src` (`[key][kv_head][d]`) into `dst` as `[kv_head][key][d]`.
#[inline(always)]
fn pack_rows(dst: &mut Vec<f32>, src: &[f32], kvh: usize, dim: usize) {
    let kv_len = src.len() / (kvh * dim);
    dst.resize(src.len(), 0.0);
    for (j, token) in src.chunks_exact(kvh * dim).enumerate() {
        for (head, row) in token.chunks_exact(dim).enumerate() {
            dst[(head * kv_len + j) * dim..][..dim].copy_from_slice(row);
        }
    }
}

/// `out[r][j] = dot(x_r, y_j) * scale` for `R` rows `x` (`[d][row]`) and
/// every key of the tiles that cover `spans`, where `yt` is one KV head's
/// tile pack and `out` holds [`PAIR`] rows of keys. Each lane adds its
/// products in `d` order starting from the `-0.0` that `Iterator::sum`
/// starts from, so a lane holds exactly [`dot`]'s bits.
#[inline(always)]
fn tile_dots<const R: usize>(x: &[f32], yt: &[f32], spans: Spans, scale: f32, out: &mut [f32]) {
    let (dim, kp) = (x.len() / R, out.len() / PAIR);
    let mut done = 0;
    for (lo, hi) in spans {
        // The spans may end and start inside one tile: compute it once.
        let first = (lo - lo % TILE).max(done);
        done = hi.next_multiple_of(TILE).max(first);
        let tiles = yt[first * dim..done * dim].chunks_exact(TILE * dim);
        for (tile, j0) in tiles.zip((first..).step_by(TILE)) {
            let mut acc = [[-0.0f32; TILE]; R];
            for (y, xd) in tile.chunks_exact(TILE).zip(x.chunks_exact(R)) {
                for (acc, &xr) in acc.iter_mut().zip(xd) {
                    for (a, &yc) in acc.iter_mut().zip(y) {
                        *a += xr * yc;
                    }
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                for (o, &a) in out[r * kp + j0..][..TILE].iter_mut().zip(acc) {
                    *o = a * scale;
                }
            }
        }
    }
}

/// [`tile_dots`] of `rows`: one `dim`-long row or a [`PAIR`] of consecutive
/// ones, which `x` is the buffer to interleave into.
#[inline(always)]
fn head_dots(
    x: &mut Vec<f32>,
    rows: &[f32],
    dim: usize,
    yt: &[f32],
    spans: Spans,
    scale: f32,
    out: &mut [f32],
) {
    if rows.len() == dim {
        return tile_dots::<1>(rows, yt, spans, scale, out);
    }
    x.resize(PAIR * dim, 0.0);
    for (r, row) in rows.chunks_exact(dim).enumerate() {
        for (lanes, &v) in x.chunks_exact_mut(PAIR).zip(row) {
            lanes[r] = v;
        }
    }
    tile_dots::<PAIR>(x, yt, spans, scale, out);
}

/// `out[c] += w[j] * rows[j * stride + c]` for the keys of `spans` in
/// ascending order, `out` (exactly `C` long) held in registers throughout.
/// Returns `Σ_j w[j]`, added in the same order.
#[inline(always)]
fn gather_chunk<const C: usize>(
    out: &mut [f32],
    w: &[f32],
    rows: &[f32],
    stride: usize,
    spans: Spans,
) -> f32 {
    let out: &mut [f32; C] = out.try_into().expect("a C-long slice");
    let (mut r, mut sum) = (*out, 0.0f32);
    for (lo, hi) in spans {
        for (&wj, row) in w[lo..hi].iter().zip(rows[lo * stride..].chunks(stride)) {
            sum += wj;
            for (a, &x) in r.iter_mut().zip(&row[..C]) {
                *a += wj * x;
            }
        }
    }
    *out = r;
    sum
}

/// `out += Σ_j w[j] * row_j` over the keys of `spans` in ascending order per
/// element (`PV` and `dQ`), `stride` separating consecutive rows. The output
/// row is taken in register-sized chunks, widest first, so every head dim
/// goes through the same code. Returns `Σ_j w[j]` in key order: the sum rides
/// along a chunk's walk, where its add chain hides behind the multiplies
/// instead of stalling a loop of its own.
#[inline(always)]
fn gather_rows(out: &mut [f32], w: &[f32], rows: &[f32], stride: usize, spans: Spans) -> f32 {
    let (mut off, mut sum) = (0, 0.0);
    macro_rules! pass {
        ($c:literal) => {
            while out.len() - off >= $c {
                let chunk = &mut out[off..off + $c];
                // Every chunk walks the same keys: any one's sum is the sum.
                sum = gather_chunk::<$c>(chunk, w, &rows[off..], stride, spans);
                off += $c;
            }
        };
    }
    pass!(32);
    pass!(16);
    pass!(4);
    pass!(1);
    sum
}

/// `row_j += Σ_n w[n][j] * x[n]` for the keys of `spans`, the `N` terms added
/// in order, where `row_j` is the first `x[n].len()` elements of
/// `rows[j * stride..]` (`dV` and `dK`). A row is updated piece by piece in a
/// local copy: it is loaded and stored once for all `N` terms, and the
/// compiler need not prove `rows` and `x` disjoint before it vectorizes.
#[inline(always)]
fn scatter_rows<const N: usize>(
    rows: &mut [f32],
    stride: usize,
    w: [&[f32]; N],
    x: [&[f32]; N],
    spans: Spans,
) {
    const PIECE: usize = 8;
    let dim = x[0].len();
    for (lo, hi) in spans {
        for (j, row) in (lo..hi).zip(rows[lo * stride..].chunks_mut(stride)) {
            let wj = w.map(|w| w[j]);
            let mut pieces = row[..dim].chunks_exact_mut(PIECE);
            for (piece, off) in (&mut pieces).zip((0..).step_by(PIECE)) {
                let mut r = [0.0f32; PIECE];
                r.copy_from_slice(piece);
                for (wj, x) in wj.iter().zip(x) {
                    for (a, &x) in r.iter_mut().zip(&x[off..off + PIECE]) {
                        *a += wj * x;
                    }
                }
                piece.copy_from_slice(&r);
            }
            let off = dim - dim % PIECE;
            for (o, c) in pieces.into_remainder().iter_mut().zip(off..) {
                for (wj, x) in wj.iter().zip(x) {
                    *o += wj * x[c];
                }
            }
        }
    }
}

/// The largest of `xs` over the keys of `spans` (`-inf` when there is none,
/// NaNs ignored), as a left-to-right `f32::max` fold gives it.
#[inline(always)]
fn max_in_key_order(xs: &[f32], spans: Spans) -> f32 {
    // One `maxps` per vector where `f32::max` is five instructions; the two
    // agree on everything but which zero wins a tie.
    let greater = |m: f32, x: f32| if x > m { x } else { m };
    let mut lanes = [f32::NEG_INFINITY; TILE];
    let mut m = f32::NEG_INFINITY;
    for (lo, hi) in spans {
        let mut chunks = xs[lo..hi].chunks_exact(TILE);
        for c in &mut chunks {
            for (l, &x) in lanes.iter_mut().zip(c) {
                *l = greater(*l, x);
            }
        }
        m = chunks.remainder().iter().fold(m, |m, &x| greater(m, x));
    }
    m = lanes.iter().fold(m, |m, &x| greater(m, x));
    if m != 0.0 {
        return m;
    }
    // `f32::max` may return either of two zeros of opposite sign, so which
    // one wins depends on the fold order: re-derive a zero maximum in key
    // order to keep its sign bit where the scalar fold puts it.
    let keys = spans.iter().flat_map(|&(lo, hi)| &xs[lo..hi]);
    keys.fold(f32::NEG_INFINITY, |m, &x| m.max(x))
}

/// Each query row's allowed keys inside the KV block, block-local, in row
/// order: the mask's runs under the Q block are walked once, not searched
/// per row.
#[inline(always)]
fn row_spans<'a>(a: &BlockArgs<'a>) -> impl Iterator<Item = Spans> + 'a {
    let (kv_start, kv_end) = (a.kv_start, a.kv_start + a.kv_len as u32);
    let q_end = a.q_start + a.q_len as u32;
    // As loud as indexing a row past the mask was.
    assert!(q_end <= a.mask.len(), "Q block ends past its mask");
    let rows = a.mask.runs_in(a.q_start, q_end);
    rows.flatten().map(move |row| {
        row.spans_in(kv_start, kv_end)
            .map(|(lo, hi)| ((lo - kv_start) as usize, (hi - kv_start) as usize))
    })
}

#[inline(always)]
fn is_empty(spans: Spans) -> bool {
    spans.iter().all(|(lo, hi)| lo == hi)
}

/// The query heads in ascending order as `(first head, count)` runs of up to
/// [`PAIR`] heads that share a KV head.
#[inline(always)]
fn head_pairs(qh: usize, group: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..qh / group).flat_map(move |g| {
        (0..group)
            .step_by(PAIR)
            .map(move |i| (g * group + i, PAIR.min(group - i)))
    })
}

/// Runs `$body::<D>` with the head dim as a constant for the usual sizes,
/// and with `D = 0` ("read it from the arguments") for every other.
macro_rules! with_head_dim {
    ($dim:expr, $body:ident($($arg:expr),*)) => {
        match $dim {
            16 => $body::<16>($($arg),*),
            32 => $body::<32>($($arg),*),
            64 => $body::<64>($($arg),*),
            128 => $body::<128>($($arg),*),
            _ => $body::<0>($($arg),*),
        }
    };
}

/// The running state of one output block's online softmax: the unnormalized
/// accumulator plus per-(token, head) running max and sum-of-exponentials.
#[derive(Debug, Clone)]
pub struct BlockAcc {
    /// Q-block token count.
    pub len: usize,
    /// Query heads in this head group.
    pub qh: usize,
    /// Head dimension.
    pub dim: usize,
    /// Running row maxima, `[len * qh]`, `-inf` when untouched.
    pub m: Vec<f32>,
    /// Running sum of exponentials, `[len * qh]`.
    pub l: Vec<f32>,
    /// Unnormalized output accumulator, `[len * qh * dim]`.
    pub o: Vec<f32>,
}

impl BlockAcc {
    /// A fresh (empty) accumulator.
    pub fn new(len: usize, qh: usize, dim: usize) -> Self {
        BlockAcc {
            len,
            qh,
            dim,
            m: vec![f32::NEG_INFINITY; len * qh],
            l: vec![0.0; len * qh],
            o: vec![0.0; len * qh * dim],
        }
    }

    /// Folds another accumulator over the *same rows* into this one with the
    /// online-softmax state merge: rescale both sides to the joint maximum,
    /// then add. Merging a partial into a fresh accumulator reproduces the
    /// partial exactly, so a fold over per-block partials in a fixed order
    /// is deterministic regardless of how the partials were scheduled.
    pub fn merge(&mut self, other: &BlockAcc) {
        debug_assert_eq!(self.len, other.len);
        debug_assert_eq!(self.qh, other.qh);
        debug_assert_eq!(self.dim, other.dim);
        for r in 0..self.len * self.qh {
            let om = other.m[r];
            if om == f32::NEG_INFINITY {
                continue;
            }
            let new_m = self.m[r].max(om);
            let c_self = if self.m[r] == f32::NEG_INFINITY {
                0.0
            } else {
                exp(self.m[r] - new_m)
            };
            let c_other = exp(om - new_m);
            self.l[r] = self.l[r] * c_self + other.l[r] * c_other;
            let base = r * self.dim;
            let dst = &mut self.o[base..base + self.dim];
            let src = &other.o[base..base + self.dim];
            for (a, &b) in dst.iter_mut().zip(src) {
                *a = *a * c_self + b * c_other;
            }
            self.m[r] = new_m;
        }
    }

    /// Normalizes the accumulator into `(O, lse)`. Rows that attended to
    /// nothing produce zero output and `lse = -inf`.
    pub fn finalize(&self) -> (Vec<f32>, Vec<f32>) {
        let mut out = vec![0.0f32; self.len * self.qh * self.dim];
        let mut lse = vec![f32::NEG_INFINITY; self.len * self.qh];
        for (r, dst_lse) in lse.iter_mut().enumerate() {
            if self.l[r] > 0.0 {
                *dst_lse = self.m[r] + self.l[r].ln();
                let inv = 1.0 / self.l[r];
                let base = r * self.dim;
                for (dst, &src) in out[base..base + self.dim]
                    .iter_mut()
                    .zip(&self.o[base..base + self.dim])
                {
                    *dst = src * inv;
                }
            }
        }
        (out, lse)
    }
}

/// Arguments describing one computation block for the forward kernel.
#[derive(Debug, Clone, Copy)]
pub struct BlockArgs<'a> {
    /// Q slice of the query block, `[q_len, qh, dim]`.
    pub q: &'a [f32],
    /// K slice of the KV block, `[kv_len, kvh, dim]`.
    pub k: &'a [f32],
    /// V slice of the KV block, `[kv_len, kvh, dim]`.
    pub v: &'a [f32],
    /// Query heads in the group.
    pub qh: usize,
    /// KV heads in the group.
    pub kvh: usize,
    /// Head dimension.
    pub dim: usize,
    /// Tokens in the query block.
    pub q_len: usize,
    /// Tokens in the KV block.
    pub kv_len: usize,
    /// Absolute token index of the query block's first token.
    pub q_start: u32,
    /// Absolute token index of the KV block's first token.
    pub kv_start: u32,
    /// The sequence's mask.
    pub mask: &'a Mask,
    /// Softmax scale (`1/sqrt(dim)`).
    pub scale: f32,
}

/// Computes the masked attention of one (Q-block, KV-block) pair,
/// accumulating into `acc` with the online-softmax rescale (Listing 1 line 5
/// of the paper; the fused rescale of the paper's Blockwise Attention
/// instruction).
pub fn attn_block_fwd(acc: &mut BlockAcc, a: BlockArgs<'_>) {
    run(Call::Fwd(acc, a), true);
}

#[inline(always)]
fn fwd_body<const D: usize>(acc: &mut BlockAcc, a: BlockArgs<'_>, s: &mut Scratch) {
    debug_assert_eq!(acc.len, a.q_len);
    debug_assert_eq!(acc.qh, a.qh);
    let dim = if D == 0 { a.dim } else { D };
    let group = a.qh / a.kvh;
    let kp = a.kv_len.next_multiple_of(TILE);
    let kv_elems = a.kv_len * a.kvh * dim;
    pack_tiles(&mut s.kt, &a.k[..kv_elems], a.kvh, dim);
    pack_rows(&mut s.v_rows, &a.v[..kv_elems], a.kvh, dim);
    s.p.resize(PAIR * kp, 0.0);
    for (t, spans) in row_spans(&a).enumerate() {
        if is_empty(spans) {
            continue;
        }
        for (h, n) in head_pairs(a.qh, group) {
            let kv_head = h / group;
            let r0 = t * a.qh + h;
            let kt = &s.kt[kv_head * dim * kp..][..dim * kp];
            let q = &a.q[r0 * dim..][..n * dim];
            head_dots(&mut s.x, q, dim, kt, spans, a.scale, &mut s.p);
            for (r, p) in (r0..r0 + n).zip(s.p.chunks_exact_mut(kp)) {
                let row_max = max_in_key_order(p, spans);
                if row_max == f32::NEG_INFINITY {
                    continue;
                }
                // Online-softmax rescale, fused over the hoisted output row.
                let new_m = acc.m[r].max(row_max);
                let correction = if acc.m[r] == f32::NEG_INFINITY {
                    0.0
                } else {
                    exp(acc.m[r] - new_m)
                };
                acc.m[r] = new_m;
                for (lo, hi) in spans {
                    for x in &mut p[lo..hi] {
                        *x = exp(*x - new_m);
                    }
                }
                let orow = &mut acc.o[r * dim..][..dim];
                for o in orow.iter_mut() {
                    *o *= correction;
                }
                let v = &s.v_rows[kv_head * a.kv_len * dim..];
                let l_add = gather_rows(orow, p, v, dim, spans);
                acc.l[r] = acc.l[r] * correction + l_add;
            }
        }
    }
}

/// Merges the *normalized* partial output `(o2, lse2)` into `(o, lse)` of
/// the same rows, in place (the paper's Blockwise Reduction). Rows absent
/// from one side (`lse = -inf`) pass through from the other.
pub(crate) fn merge_into(o: &mut [f32], lse: &mut [f32], o2: &[f32], lse2: &[f32], dim: usize) {
    debug_assert_eq!(o.len(), o2.len());
    debug_assert_eq!(lse.len(), lse2.len());
    let rows = o.chunks_exact_mut(dim).zip(lse.iter_mut());
    for ((orow, lse), (o2row, &b)) in rows.zip(o2.chunks_exact(dim).zip(lse2)) {
        let a = *lse;
        if a == f32::NEG_INFINITY && b == f32::NEG_INFINITY {
            orow.fill(0.0);
            continue;
        }
        let m = a.max(b);
        let ea = if a == f32::NEG_INFINITY {
            0.0
        } else {
            exp(a - m)
        };
        let eb = if b == f32::NEG_INFINITY {
            0.0
        } else {
            exp(b - m)
        };
        let sum = ea + eb;
        *lse = m + sum.ln();
        let (wa, wb) = (ea / sum, eb / sum);
        for (x, &y) in orow.iter_mut().zip(o2row) {
            *x = wa * *x + wb * y;
        }
    }
}

/// `merge_into` on copies: merges two normalized partial outputs of the
/// same rows into a new one.
pub fn merge_outputs(
    o1: &[f32],
    lse1: &[f32],
    o2: &[f32],
    lse2: &[f32],
    dim: usize,
) -> (Vec<f32>, Vec<f32>) {
    let (mut o, mut lse) = (o1.to_vec(), lse1.to_vec());
    merge_into(&mut o, &mut lse, o2, lse2, dim);
    (o, lse)
}

/// Backward-pass arguments for one computation block.
#[derive(Debug, Clone, Copy)]
pub struct BlockBwdArgs<'a> {
    /// Forward arguments (Q, K, V, mask, geometry).
    pub fwd: BlockArgs<'a>,
    /// Final normalized output of the query block, `[q_len, qh, dim]`.
    pub o: &'a [f32],
    /// Final log-sum-exp of the query block, `[q_len * qh]`.
    pub lse: &'a [f32],
    /// Output gradient of the query block, `[q_len, qh, dim]`.
    pub d_o: &'a [f32],
}

/// Computes the exact gradients of one (Q-block, KV-block) pair, adding into
/// `dq` (`[q_len, qh, dim]`), `dk` and `dv` (`[kv_len, kvh, dim]`).
///
/// Uses the FlashAttention backward identities: with
/// `P = exp(S - lse_row)` (the exact softmax restricted to this block),
/// `dV += P^T dO`, `dP = dO V^T`, `delta = rowsum(dO * O)`,
/// `dS = P * (dP - delta)`, `dQ += dS K * scale`, `dK += dS^T Q * scale`.
pub fn attn_block_bwd(args: BlockBwdArgs<'_>, dq: &mut [f32], dk: &mut [f32], dv: &mut [f32]) {
    run(Call::Bwd(args, dq, dk, dv), true);
}

#[inline(always)]
fn bwd_body<const D: usize>(
    args: BlockBwdArgs<'_>,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
    s: &mut Scratch,
) {
    let a = args.fwd;
    let dim = if D == 0 { a.dim } else { D };
    let group = a.qh / a.kvh;
    let kp = a.kv_len.next_multiple_of(TILE);
    let (kv_row, kv_elems) = (a.kvh * dim, a.kv_len * a.kvh * dim);
    pack_tiles(&mut s.kt, &a.k[..kv_elems], a.kvh, dim);
    pack_tiles(&mut s.vt, &a.v[..kv_elems], a.kvh, dim);
    s.p.resize(PAIR * kp, 0.0);
    s.ds.resize(PAIR * kp, 0.0);
    for (t, spans) in row_spans(&a).enumerate() {
        if is_empty(spans) {
            continue;
        }
        for (h, n) in head_pairs(a.qh, group) {
            let kv_head = h / group;
            let r0 = t * a.qh + h;
            let head_pack = kv_head * dim * kp..(kv_head + 1) * dim * kp;
            let (kt, vt) = (&s.kt[head_pack.clone()], &s.vt[head_pack]);
            let rows = r0 * dim..(r0 + n) * dim;
            let (q, d_o) = (&a.q[rows.clone()], &args.d_o[rows]);
            head_dots(&mut s.x, q, dim, kt, spans, a.scale, &mut s.p);
            head_dots(&mut s.x, d_o, dim, vt, spans, 1.0, &mut s.ds);
            // P and dS of the rows that have a softmax at all.
            let mut live = [(0, &[][..], &[][..]); PAIR];
            let mut n_live = 0;
            let rows = s.p.chunks_exact_mut(kp).zip(s.ds.chunks_exact_mut(kp));
            for (r, (p, ds)) in (r0..r0 + n).zip(rows) {
                let lse_r = args.lse[r];
                if lse_r == f32::NEG_INFINITY {
                    continue;
                }
                // delta = rowsum(dO * O).
                let delta = dot(&args.d_o[r * dim..][..dim], &args.o[r * dim..][..dim]);
                for (lo, hi) in spans {
                    for (p, ds) in p[lo..hi].iter_mut().zip(&mut ds[lo..hi]) {
                        // P = exp(S - lse); dS = P * (dP - delta) * scale.
                        *p = exp(*p - lse_r);
                        *ds = *p * (*ds - delta) * a.scale;
                    }
                }
                live[n_live] = (r, &*p, &*ds);
                n_live += 1;
            }
            // dV += P^T dO, then dK += dS^T Q: one array at a time, so a
            // store to one never sits in front of a load from the other.
            let (pw, dw) = (live.map(|(_, p, _)| p), live.map(|(_, _, ds)| ds));
            let dos = live.map(|(r, _, _)| &args.d_o[r * dim..][..dim]);
            let qs = live.map(|(r, _, _)| &a.q[r * dim..][..dim]);
            let head = kv_head * dim;
            match n_live {
                2 => {
                    scatter_rows::<2>(&mut dv[head..], kv_row, pw, dos, spans);
                    scatter_rows::<2>(&mut dk[head..], kv_row, dw, qs, spans);
                }
                1 => {
                    scatter_rows::<1>(&mut dv[head..], kv_row, [pw[0]], [dos[0]], spans);
                    scatter_rows::<1>(&mut dk[head..], kv_row, [dw[0]], [qs[0]], spans);
                }
                _ => {}
            }
            // dQ += dS K.
            for &(r, _, ds) in &live[..n_live] {
                gather_rows(&mut dq[r * dim..][..dim], ds, &a.k[head..], kv_row, spans);
            }
        }
    }
}

/// One kernel call, so that the fork between the two instantiations is
/// written once, in [`run`], for every entry point.
enum Call<'a, 'b> {
    Fwd(&'b mut BlockAcc, BlockArgs<'a>),
    Bwd(
        BlockBwdArgs<'a>,
        &'b mut [f32],
        &'b mut [f32],
        &'b mut [f32],
    ),
    Exp(&'b mut [f32]),
}

/// Compiles the kernel source — [`fwd_body`], [`bwd_body`] and everything
/// they inline — into module `$isa` under the attributes given: those
/// attributes are all that separates two instantiations.
macro_rules! instantiate {
    ($(#[$width:meta])* mod $isa:ident) => {
        mod $isa {
            use super::*;

            // One function per head dim, never merged into `run`: the
            // optimizer knows that `dq`, `dk`, `dv` and the scratch do not
            // overlap only while they are reference parameters (the backward
            // ran at half its speed as one function over a `Call`'s fields).
            $(#[$width])*
            #[inline(never)]
            fn fwd<const D: usize>(acc: &mut BlockAcc, a: BlockArgs<'_>, s: &mut Scratch) {
                fwd_body::<D>(acc, a, s)
            }

            $(#[$width])*
            #[inline(never)]
            fn bwd<const D: usize>(
                args: BlockBwdArgs<'_>,
                dq: &mut [f32],
                dk: &mut [f32],
                dv: &mut [f32],
                s: &mut Scratch,
            ) {
                bwd_body::<D>(args, dq, dk, dv, s)
            }

            $(#[$width])*
            pub(super) fn run(call: Call<'_, '_>, s: &mut Scratch) {
                match call {
                    Call::Fwd(acc, a) => with_head_dim!(a.dim, fwd(acc, a, s)),
                    Call::Bwd(args, dq, dk, dv) => {
                        with_head_dim!(args.fwd.dim, bwd(args, dq, dk, dv, s))
                    }
                    Call::Exp(xs) => xs.iter_mut().for_each(|x| *x = exp(*x)),
                }
            }
        }
    };
}

instantiate!(mod narrow);

// 256-bit vectors, and not `fma`: every product and every sum is rounded on
// its own (no fused multiply-add is written, and without the feature nothing
// can fuse one behind the source's back), because fusing where the CPU can
// and not where it cannot would make the bits depend on the host.
#[cfg(target_arch = "x86_64")]
instantiate!(
    #[target_feature(enable = "avx2")]
    mod avx2
);

/// Whether this CPU takes the wide instantiation.
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Runs `call` on this thread's scratch: at the widest instantiation the CPU
/// has when `wide`, at the baseline otherwise.
fn run(call: Call<'_, '_>, wide: bool) {
    SCRATCH.with_borrow_mut(|s| {
        #[cfg(target_arch = "x86_64")]
        if wide && has_avx2() {
            // SAFETY: `avx2::run` enables `avx2` and nothing else, and
            // `has_avx2` has just seen that feature on the running CPU.
            return unsafe { avx2::run(call, s) };
        }
        let _ = wide;
        narrow::run(call, s)
    })
}

/// The instantiation [`attn_block_fwd`] and [`attn_block_bwd`] take on this
/// host: `"avx2"` or `"baseline"` (for benchmark reports).
#[doc(hidden)]
pub fn isa() -> &'static str {
    if has_avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

/// `x = exp(x)` for every element, at the width the kernels run at: the
/// kernels' exponential loop on its own, for tests and micro-benchmarks.
#[doc(hidden)]
pub fn exp_in_place(xs: &mut [f32]) {
    run(Call::Exp(xs), true);
}

/// The kernels at the baseline width whatever the CPU has. No configuration
/// reaches this module: it is here so that tests and benchmarks on an AVX2
/// host can compare the two instantiations.
#[doc(hidden)]
pub mod baseline {
    use super::{run, BlockAcc, BlockArgs, BlockBwdArgs, Call};

    /// [`super::attn_block_fwd`], baseline instantiation.
    pub fn attn_block_fwd(acc: &mut BlockAcc, a: BlockArgs<'_>) {
        run(Call::Fwd(acc, a), false);
    }

    /// [`super::attn_block_bwd`], baseline instantiation.
    pub fn attn_block_bwd(args: BlockBwdArgs<'_>, dq: &mut [f32], dk: &mut [f32], dv: &mut [f32]) {
        run(Call::Bwd(args, dq, dk, dv), false);
    }

    /// [`super::exp_in_place`], baseline instantiation.
    pub fn exp_in_place(xs: &mut [f32]) {
        run(Call::Exp(xs), false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_mask::MaskSpec;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn randv(n: usize, rng: &mut SmallRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Single block covering the whole sequence must equal a direct softmax.
    #[test]
    fn single_block_matches_direct_softmax() {
        let (len, qh, kvh, dim) = (6usize, 2usize, 1usize, 4usize);
        let mut rng = SmallRng::seed_from_u64(1);
        let q = randv(len * qh * dim, &mut rng);
        let k = randv(len * kvh * dim, &mut rng);
        let v = randv(len * kvh * dim, &mut rng);
        let mask = MaskSpec::Causal.instantiate(len as u32).unwrap();
        let scale = 1.0 / (dim as f32).sqrt();
        let mut acc = BlockAcc::new(len, qh, dim);
        attn_block_fwd(
            &mut acc,
            BlockArgs {
                q: &q,
                k: &k,
                v: &v,
                qh,
                kvh,
                dim,
                q_len: len,
                kv_len: len,
                q_start: 0,
                kv_start: 0,
                mask: &mask,
                scale,
            },
        );
        let (o, lse) = acc.finalize();
        // Direct computation for one (t, h).
        for t in 0..len {
            for h in 0..qh {
                let mut scores = Vec::new();
                for j in 0..=t {
                    let mut s = 0.0f32;
                    for d in 0..dim {
                        s += q[(t * qh + h) * dim + d] * k[(j * kvh) * dim + d];
                    }
                    scores.push(s * scale);
                }
                let m = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let l: f32 = scores.iter().map(|s| (s - m).exp()).sum();
                let expect_lse = m + l.ln();
                assert!((lse[t * qh + h] - expect_lse).abs() < 1e-5);
                for d in 0..dim {
                    let mut val = 0.0f32;
                    for (j, s) in scores.iter().enumerate() {
                        val += (s - m).exp() / l * v[(j * kvh) * dim + d];
                    }
                    assert!((o[(t * qh + h) * dim + d] - val).abs() < 1e-5);
                }
            }
        }
    }

    /// Splitting KV into two blocks and accumulating must equal one block.
    #[test]
    fn kv_split_accumulation_is_exact() {
        let (len, qh, kvh, dim) = (8usize, 4usize, 2usize, 8usize);
        let mut rng = SmallRng::seed_from_u64(2);
        let q = randv(len * qh * dim, &mut rng);
        let k = randv(len * kvh * dim, &mut rng);
        let v = randv(len * kvh * dim, &mut rng);
        let mask = MaskSpec::Causal.instantiate(len as u32).unwrap();
        let scale = 1.0 / (dim as f32).sqrt();
        let run = |splits: &[(usize, usize)]| -> (Vec<f32>, Vec<f32>) {
            let mut acc = BlockAcc::new(len, qh, dim);
            for &(s, e) in splits {
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
            acc.finalize()
        };
        let (o1, l1) = run(&[(0, len)]);
        let (o2, l2) = run(&[(0, 3), (3, len)]);
        for (a, b) in o1.iter().zip(&o2) {
            assert!((a - b).abs() < 1e-5);
        }
        for (a, b) in l1.iter().zip(&l2) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    /// Merging partials from disjoint KV halves equals the full result.
    #[test]
    fn merge_equals_joint_accumulation() {
        let (len, qh, kvh, dim) = (5usize, 2usize, 2usize, 4usize);
        let mut rng = SmallRng::seed_from_u64(3);
        let q = randv(len * qh * dim, &mut rng);
        let k = randv(len * kvh * dim, &mut rng);
        let v = randv(len * kvh * dim, &mut rng);
        let mask = MaskSpec::Full.instantiate(len as u32).unwrap();
        let scale = 1.0 / (dim as f32).sqrt();
        let part = |s: usize, e: usize| -> (Vec<f32>, Vec<f32>) {
            let mut acc = BlockAcc::new(len, qh, dim);
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
            acc.finalize()
        };
        let (oa, la) = part(0, 2);
        let (ob, lb) = part(2, len);
        let (om, lm) = merge_outputs(&oa, &la, &ob, &lb, dim);
        let (of, lf) = part(0, len);
        for (a, b) in om.iter().zip(&of) {
            assert!((a - b).abs() < 1e-5);
        }
        for (a, b) in lm.iter().zip(&lf) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    /// Folding per-KV-block partial accumulators with [`BlockAcc::merge`]
    /// must match accumulating the blocks sequentially into one state, and
    /// merging into a fresh accumulator must reproduce the partial exactly.
    #[test]
    fn acc_merge_equals_sequential_accumulation() {
        let (len, qh, kvh, dim) = (6usize, 2usize, 1usize, 4usize);
        let mut rng = SmallRng::seed_from_u64(4);
        let q = randv(len * qh * dim, &mut rng);
        let k = randv(len * kvh * dim, &mut rng);
        let v = randv(len * kvh * dim, &mut rng);
        let mask = MaskSpec::Causal.instantiate(len as u32).unwrap();
        let scale = 1.0 / (dim as f32).sqrt();
        let part = |s: usize, e: usize| -> BlockAcc {
            let mut acc = BlockAcc::new(len, qh, dim);
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
            acc
        };
        let (pa, pb) = (part(0, 2), part(2, len));
        // Fresh + merge reproduces the partial bitwise.
        let mut fresh = BlockAcc::new(len, qh, dim);
        fresh.merge(&pa);
        assert_eq!(fresh.finalize(), pa.finalize());
        // Merging both partials equals sequential accumulation.
        fresh.merge(&pb);
        let (om, lm) = fresh.finalize();
        let mut joint = part(0, 2);
        attn_block_fwd(
            &mut joint,
            BlockArgs {
                q: &q,
                k: &k[2 * kvh * dim..],
                v: &v[2 * kvh * dim..],
                qh,
                kvh,
                dim,
                q_len: len,
                kv_len: len - 2,
                q_start: 0,
                kv_start: 2,
                mask: &mask,
                scale,
            },
        );
        let (oj, lj) = joint.finalize();
        for (a, b) in om.iter().zip(&oj) {
            assert!((a - b).abs() < 1e-5);
        }
        for (a, b) in lm.iter().zip(&lj) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    /// Fully masked rows produce zero output and -inf lse, and merging with
    /// an empty partial is the identity.
    #[test]
    fn empty_rows_and_identity_merge() {
        let (len, qh, kvh, dim) = (3usize, 1usize, 1usize, 2usize);
        let acc = BlockAcc::new(len, qh, dim);
        let (o, lse) = acc.finalize();
        assert!(o.iter().all(|&x| x == 0.0));
        assert!(lse.iter().all(|&x| x == f32::NEG_INFINITY));
        let o2 = vec![1.0f32; len * qh * dim];
        let l2 = vec![0.5f32; len * qh];
        let (om, lm) = merge_outputs(&o, &lse, &o2, &l2, dim);
        assert_eq!(om, o2);
        assert_eq!(lm, l2);
        let _ = kvh;
    }
}
