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
//! - query rows that read the same K and V rows — one KV head's rows of
//!   consecutive tokens with equal spans — go together, in tiles of up to 4
//!   rows (2 at the baseline width);
//! - every product against a key (`q·k`, `dO·v`) runs over a tile-major
//!   copy of the KV block, `TILE` keys at a time with `d` as the outer
//!   loop, so each lane still adds `d = 0, 1, …` in order while the lanes
//!   are independent, and a key tile is loaded once for a tile of rows;
//! - every update of a query-side row (`PV`, `dQ`) holds pieces of a tile's
//!   rows in registers while they walk the keys in ascending order, each
//!   piece of a key's row loaded once for all of them;
//! - the backward takes one KV head's rows in passes of up to 8 tokens and
//!   16 rows, computes their `P` and `dS`, then updates `dV` and `dK`
//!   key-major: on each stretch of keys between two of the pass's span
//!   ends, a KV-side row is loaded and stored once for the terms of all the
//!   pass's rows that reach it, added in `(t, h)` order (never a zero-weight
//!   term for a row that does not);
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
//! vector only holds more of the independent lanes above (and a tile more
//! rows), and no fused multiply-add is ever written or enabled, so every
//! lane is the same sequence of the same roundings at either width: the
//! outputs are bit-equal, and [`baseline`] exists so a test on an AVX2 host
//! can say so.

use std::cell::RefCell;
use std::ops::Range;

use dcp_mask::Mask;

/// Keys per score tile: four SSE vectors of accumulators per query row, or
/// two AVX ones.
const TILE: usize = 16;

/// The most query rows a tile takes (at 8 lanes; 2 at 4).
const TILE_ROWS: usize = 4;

/// Query tokens one backward pass takes before it updates dK and dV.
const PASS_TOKENS: usize = 8;

/// Query rows (token, head) whose P and dS one backward pass holds.
const PASS_ROWS: usize = 16;

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
    /// The query-side rows of one tile, `[d][row]`.
    x: Vec<f32>,
    /// Per row of the tile (the forward) or of the pass (the backward), by
    /// key: scores, then probabilities.
    p: Vec<f32>,
    /// Per row of the pass, by key: `dP`, then `dS` (backward only).
    ds: Vec<f32>,
    /// Each query token's allowed keys.
    spans: Vec<Spans>,
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

/// Defines `$name(x, yt, spans, scale, out)`: `out[r][j] = dot(x_r, y_j) *
/// scale` for the rows `x` (`[d][row]`) and every key of the tiles that
/// cover `spans`, where `yt` is one KV head's tile pack and `out` holds as
/// many rows of keys. Each K tile loaded serves every row. Each lane adds
/// its products in `d` order starting from the `-0.0` that `Iterator::sum`
/// starts from, so a lane holds exactly [`dot`]'s bits.
///
/// This macro and `gather_chunk!` define one function per row count, the
/// rows written out: as a loop over rows, a four-row tile's accumulators
/// ended up in memory, at a third of the speed or less.
macro_rules! tile_dots {
    ($name:ident, $r:literal, $($acc:ident $x:ident $i:literal),+) => {
        #[inline(always)]
        fn $name(x: &[f32], yt: &[f32], spans: Spans, scale: f32, out: &mut [f32]) {
            let (dim, kp) = (x.len() / $r, out.len() / $r);
            let mut done = 0;
            for (lo, hi) in spans {
                // The spans may end and start inside one tile: compute it once.
                let first = (lo - lo % TILE).max(done);
                done = hi.next_multiple_of(TILE).max(first);
                let tiles = yt[first * dim..done * dim].chunks_exact(TILE * dim);
                for (tile, j0) in tiles.zip((first..).step_by(TILE)) {
                    $(let mut $acc = [-0.0f32; TILE];)+
                    for (y, xd) in tile.chunks_exact(TILE).zip(x.chunks_exact($r)) {
                        $(let $x = xd[$i];)+
                        for (c, &y) in y.iter().enumerate() {
                            $($acc[c] += $x * y;)+
                        }
                    }
                    $(
                        for (o, &a) in out[$i * kp + j0..][..TILE].iter_mut().zip(&$acc) {
                            *o = a * scale;
                        }
                    )+
                }
            }
        }
    };
}

tile_dots!(tile_dots_1, 1, a0 x0 0);
tile_dots!(tile_dots_2, 2, a0 x0 0, a1 x1 1);
tile_dots!(tile_dots_4, 4, a0 x0 0, a1 x1 1, a2 x2 2, a3 x3 3);

/// Splits `n` rows into tiles of 4 (at 8 lanes), then 2, then 1, and runs
/// `$body::<R>(first row, ..)` on each: a tile of `R` rows against 16 keys
/// holds `16 R / LANES` vectors of accumulators, at most 8 of the 16
/// registers either width has.
macro_rules! by_tiles {
    ($n:expr, $body:ident($($arg:expr),*)) => {{
        let (n, mut i) = ($n, 0);
        while i < n {
            i += match n - i {
                TILE_ROWS.. if LANES >= 8 => $body::<TILE_ROWS>(i, $($arg),*),
                2.. => $body::<2>(i, $($arg),*),
                _ => $body::<1>(i, $($arg),*),
            };
        }
    }};
}

/// The scores (`tile_dots!`) of the `dim`-long rows of `src` at `offs`,
/// which share `spans`, in tiles interleaved into `x`; `out` holds as many
/// rows of keys as `offs` has rows.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_dots<const LANES: usize>(
    x: &mut Vec<f32>,
    src: &[f32],
    offs: &[usize],
    dim: usize,
    yt: &[f32],
    spans: Spans,
    scale: f32,
    out: &mut [f32],
) {
    let kp = out.len() / offs.len();
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn tile<const R: usize>(
        i: usize,
        x: &mut Vec<f32>,
        src: &[f32],
        offs: &[usize],
        dim: usize,
        (yt, spans, scale): (&[f32], Spans, f32),
        out: &mut [f32],
        kp: usize,
    ) -> usize {
        let out = &mut out[i * kp..(i + R) * kp];
        x.resize(R * dim, 0.0);
        for (r, &o) in offs[i..i + R].iter().enumerate() {
            for (lanes, &v) in x.chunks_exact_mut(R).zip(&src[o..][..dim]) {
                lanes[r] = v;
            }
        }
        match R {
            1 => tile_dots_1(x, yt, spans, scale, out),
            2 => tile_dots_2(x, yt, spans, scale, out),
            _ => tile_dots_4(x, yt, spans, scale, out),
        }
        R
    }
    by_tiles!(
        offs.len(),
        tile(x, src, offs, dim, (yt, spans, scale), out, kp)
    );
}

/// Defines `$name::<C>(out, wo, w, (rows, stride), spans, sums)`:
/// `out[o_r..][..C] += w[w_r + j] * rows[j * stride..][..C]` for the rows
/// `(w_r, o_r)` of `wo` and the keys of `spans` in ascending order, the
/// pieces held in registers throughout, so each piece of a key's row loaded
/// serves every row; each row's `Σ_j w[w_r + j]`, added in the same order,
/// goes to `sums`. One function per row count, as for `tile_dots!`.
macro_rules! gather_chunk {
    ($name:ident, $r:literal, $($acc:ident $w:ident $i:literal),+) => {
        #[inline(always)]
        fn $name<const C: usize>(
            out: &mut [f32],
            wo: &[(usize, usize)],
            w: &[f32],
            (rows, stride): (&[f32], usize),
            spans: Spans,
            sums: &mut [f32],
        ) {
            $(let mut $acc: [f32; C] = out[wo[$i].1..][..C].try_into().expect("C elements");)+
            let mut sum = [0.0f32; $r];
            for (lo, hi) in spans {
                $(let $w = &w[wo[$i].0 + lo..][..hi - lo];)+
                for k in 0..hi - lo {
                    let x: &[f32; C] = rows[(lo + k) * stride..][..C].try_into().expect("C elements");
                    $(
                        sum[$i] += $w[k];
                        for (a, &x) in $acc.iter_mut().zip(x) {
                            *a += $w[k] * x;
                        }
                    )+
                }
            }
            $(out[wo[$i].1..][..C].copy_from_slice(&$acc);)+
            sums[..$r].copy_from_slice(&sum);
        }
    };
}

gather_chunk!(gather_chunk_1, 1, a0 w0 0);
gather_chunk!(gather_chunk_2, 2, a0 w0 0, a1 w1 1);
gather_chunk!(gather_chunk_4, 4, a0 w0 0, a1 w1 1, a2 w2 2, a3 w3 3);

/// `out_r += Σ_j w[w_r + j] * row_j` over the keys of `spans` in ascending
/// order per element (`PV` and `dQ`) for the rows `(w_r, o_r)` of `wo`, whose
/// output rows are the `dim` elements of `out` from `o_r` on, `stride`
/// separating consecutive key rows. The rows go in tiles, each output row
/// in register-sized chunks, widest first, so every head dim goes through
/// the same code. Writes each row's `Σ_j w[w_r + j]` in key order to `sums`:
/// the sum rides along a chunk's walk, where its add chain hides behind the
/// multiplies instead of stalling a loop of its own.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gather_rows<const LANES: usize>(
    out: &mut [f32],
    wo: &[(usize, usize)],
    w: &[f32],
    rows: &[f32],
    stride: usize,
    dim: usize,
    spans: Spans,
    sums: &mut [f32],
) {
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn tile<const R: usize>(
        i: usize,
        out: &mut [f32],
        wo: &[(usize, usize)],
        w: &[f32],
        (rows, stride, dim, lanes): (&[f32], usize, usize, usize),
        spans: Spans,
        sums: &mut [f32],
    ) -> usize {
        let wo: [(usize, usize); R] = wo[i..i + R].try_into().expect("R rows");
        let mut off = 0;
        macro_rules! pass {
            ($c:literal) => {
                while dim - off >= $c {
                    // Every chunk walks the same keys: any one's sums are
                    // the sums.
                    let wo = wo.map(|(w, o)| (w, o + off));
                    let (at, sums) = ((&rows[off..], stride), &mut sums[i..i + R]);
                    match R {
                        1 => gather_chunk_1::<$c>(out, &wo, w, at, spans, sums),
                        2 => gather_chunk_2::<$c>(out, &wo, w, at, spans, sums),
                        _ => gather_chunk_4::<$c>(out, &wo, w, at, spans, sums),
                    }
                    off += $c;
                }
            };
        }
        // At most 8 vectors of accumulators, as in a score tile.
        if 4 * R <= lanes {
            pass!(32);
        }
        pass!(16);
        pass!(4);
        pass!(1);
        R
    }
    let keys = (rows, stride, dim, LANES);
    by_tiles!(wo.len(), tile(out, wo, w, keys, spans, sums));
}

/// `row_j[off..][..C] += Σ_n w[wo_n + j] * x[xo_n + off..][..C]` for the `K`
/// keys from `j` on, where `row_j` starts at `rows[j * stride..]` and the
/// `(wo_n, xo_n)` of `terms` are added in their order: `K` pieces of rows
/// held in registers throughout, so `K × C / lanes` sums advance side by
/// side, each product of a query-side piece shared by the `K` keys.
#[inline(always)]
fn scatter_tile<const K: usize, const C: usize>(
    rows: &mut [f32],
    stride: usize,
    (j, off): (usize, usize),
    (w, x): (&[f32], &[f32]),
    terms: &[(usize, usize)],
) {
    let mut r = [[0.0f32; C]; K];
    for (k, r) in r.iter_mut().enumerate() {
        r.copy_from_slice(&rows[(j + k) * stride + off..][..C]);
    }
    for &(wo, xo) in terms {
        let wk: &[f32; K] = w[wo + j..][..K].try_into().expect("K weights");
        let xc: &[f32; C] = x[xo + off..][..C].try_into().expect("a C-long piece");
        for (r, &wk) in r.iter_mut().zip(wk) {
            for (a, &xc) in r.iter_mut().zip(xc) {
                *a += wk * xc;
            }
        }
    }
    for (k, r) in r.iter().enumerate() {
        rows[(j + k) * stride + off..][..C].copy_from_slice(r);
    }
}

/// `row_j += Σ_n w[wo_n + j] * x[xo_n..][..dim]` for every key `j` of
/// `lo..hi`, the terms added in the order of `terms`, where `row_j` is the
/// first `dim` elements of `rows[j * stride..]` (`dV` and `dK`). Every
/// element is loaded and stored once for all the terms: the rows are taken
/// in register-sized pieces, widest first, a few keys at a time.
#[inline(always)]
fn scatter_keys(
    rows: &mut [f32],
    stride: usize,
    dim: usize,
    wx: (&[f32], &[f32]),
    terms: &[(usize, usize)],
    (lo, hi): (usize, usize),
) {
    let mut off = 0;
    macro_rules! pass {
        ($c:literal, $k:literal) => {
            while dim - off >= $c {
                let mut j = lo;
                while hi - j >= $k {
                    scatter_tile::<$k, $c>(rows, stride, (j, off), wx, terms);
                    j += $k;
                }
                for j in j..hi {
                    scatter_tile::<1, $c>(rows, stride, (j, off), wx, terms);
                }
                off += $c;
            }
        };
    }
    pass!(16, 4);
    pass!(4, 4);
    pass!(1, 4);
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

/// The runs of consecutive tokens that share one non-empty `Spans`, in
/// token order: the rows of a run's tokens on one KV head share every K and
/// V row they read.
#[inline(always)]
fn runs(spans: &[Spans]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut t = 0;
    std::iter::from_fn(move || {
        t += spans[t..].iter().take_while(|&&s| is_empty(s)).count();
        let first = *spans.get(t)?;
        let run = t..t + spans[t..].iter().take_while(|&&s| s == first).count();
        t = run.end;
        Some(run)
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

    /// Makes this accumulator equal to `BlockAcc::new(len, qh, dim)`, in the
    /// buffers it already has.
    pub(crate) fn reset(&mut self, len: usize, qh: usize, dim: usize) {
        (self.len, self.qh, self.dim) = (len, qh, dim);
        for (v, n, x) in [
            (&mut self.m, len * qh, f32::NEG_INFINITY),
            (&mut self.l, len * qh, 0.0),
            (&mut self.o, len * qh * dim, 0.0),
        ] {
            v.clear();
            v.resize(n, x);
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
fn fwd_body<const D: usize, const LANES: usize>(
    acc: &mut BlockAcc,
    a: BlockArgs<'_>,
    s: &mut Scratch,
) {
    debug_assert_eq!(acc.len, a.q_len);
    debug_assert_eq!(acc.qh, a.qh);
    let dim = if D == 0 { a.dim } else { D };
    let group = a.qh / a.kvh;
    let kp = a.kv_len.next_multiple_of(TILE);
    let kv_elems = a.kv_len * a.kvh * dim;
    let Scratch {
        kt,
        v_rows,
        x,
        p,
        spans,
        ..
    } = s;
    pack_tiles(kt, &a.k[..kv_elems], a.kvh, dim);
    pack_rows(v_rows, &a.v[..kv_elems], a.kvh, dim);
    p.resize(TILE_ROWS * kp, 0.0);
    spans.clear();
    spans.extend(row_spans(&a));
    for run in runs(spans) {
        let token_spans = spans[run.start];
        for kv_head in 0..a.kvh {
            let kt = &kt[kv_head * dim * kp..][..dim * kp];
            let v = &v_rows[kv_head * a.kv_len * dim..][..a.kv_len * dim];
            let heads = kv_head * group..(kv_head + 1) * group;
            let mut rows = run
                .clone()
                .flat_map(|t| heads.clone().map(move |h| (t * a.qh + h) * dim));
            loop {
                // The next tile's rows: this KV head's, sharing their keys.
                let mut offs = [0; TILE_ROWS];
                let n = offs.iter_mut().zip(&mut rows).map(|(o, r)| *o = r).count();
                if n == 0 {
                    break;
                }
                let p = &mut p[..n * kp];
                row_dots::<LANES>(x, a.q, &offs[..n], dim, kt, token_spans, a.scale, p);
                // The rows with a softmax, as (offset of its P, offset of the
                // row), and each one's correction.
                let mut live = [(0, 0); TILE_ROWS];
                let mut corrections = [0.0; TILE_ROWS];
                let mut n_live = 0;
                for (i, (&off, p)) in offs.iter().zip(p.chunks_exact_mut(kp)).enumerate() {
                    let r = off / dim;
                    let row_max = max_in_key_order(p, token_spans);
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
                    for (lo, hi) in token_spans {
                        for x in &mut p[lo..hi] {
                            *x = exp(*x - new_m);
                        }
                    }
                    for o in &mut acc.o[off..][..dim] {
                        *o *= correction;
                    }
                    (live[n_live], corrections[n_live]) = ((i * kp, off), correction);
                    n_live += 1;
                }
                let mut l_add = [0.0; TILE_ROWS];
                let (live, l_add) = (&live[..n_live], &mut l_add[..n_live]);
                gather_rows::<LANES>(&mut acc.o, live, p, v, dim, dim, token_spans, l_add);
                for ((&(_, off), &c), &l_add) in live.iter().zip(&corrections).zip(&*l_add) {
                    let r = off / dim;
                    acc.l[r] = acc.l[r] * c + l_add;
                }
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
fn bwd_body<const D: usize, const LANES: usize>(
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
    let Scratch {
        kt,
        vt,
        x,
        p,
        ds,
        spans,
        ..
    } = s;
    pack_tiles(kt, &a.k[..kv_elems], a.kvh, dim);
    pack_tiles(vt, &a.v[..kv_elems], a.kvh, dim);
    p.resize(PASS_ROWS * kp, 0.0);
    ds.resize(PASS_ROWS * kp, 0.0);
    spans.clear();
    spans.extend(row_spans(&a));
    // A pass takes whole tokens while their rows fit, else one token's heads
    // in consecutive runs: either way its rows follow on in `(t, h)` order.
    let heads = group.min(PASS_ROWS);
    let tokens = (PASS_ROWS / group).clamp(1, PASS_TOKENS);
    let passes = (0..a.kvh).flat_map(|g| {
        let firsts = move |t0| {
            (g * group..(g + 1) * group)
                .step_by(heads)
                .map(move |h0| (g, t0, h0))
        };
        (0..a.q_len).step_by(tokens).flat_map(firsts)
    });
    for (kv_head, t0, h0) in passes {
        let head_pack = kv_head * dim * kp..(kv_head + 1) * dim * kp;
        let (kt, vt) = (&kt[head_pack.clone()], &vt[head_pack]);
        let head = kv_head * dim;
        let h1 = h0 + heads.min((kv_head + 1) * group - h0);
        // The pass's rows that have a softmax, in `(t, h)` order, as (offset
        // of its P and dS, offset of the row, token), and the key-axis cuts
        // at their tokens' span ends.
        let mut live = [(0, 0, 0); PASS_ROWS];
        let mut n_live = 0;
        let mut cuts = [0; 4 * PASS_TOKENS];
        let mut n_cuts = 0;
        let mut slot = 0;
        let pass_tokens = t0..(t0 + tokens).min(a.q_len);
        for run in runs(&spans[pass_tokens.clone()]) {
            let run = run.start + t0..run.end + t0;
            let token_spans = spans[run.start];
            // The run's rows in `(t, h)` order: they share K, V and keys.
            let mut offs = [0; PASS_ROWS];
            let rows = run
                .clone()
                .flat_map(|t| (h0..h1).map(move |h| (t * a.qh + h) * dim));
            let n = offs.iter_mut().zip(rows).map(|(o, r)| *o = r).count();
            let offs = &offs[..n];
            let out = slot * kp..(slot + n) * kp;
            let (p, ds) = (&mut p[out.clone()], &mut ds[out]);
            row_dots::<LANES>(x, a.q, offs, dim, kt, token_spans, a.scale, p);
            row_dots::<LANES>(x, args.d_o, offs, dim, vt, token_spans, 1.0, ds);
            let live_before = n_live;
            let pd = p.chunks_exact_mut(kp).zip(ds.chunks_exact_mut(kp));
            for (&off, (p, ds)) in offs.iter().zip(pd) {
                slot += 1;
                let r = off / dim;
                let lse_r = args.lse[r];
                if lse_r == f32::NEG_INFINITY {
                    continue;
                }
                // delta = rowsum(dO * O).
                let delta = dot(&args.d_o[off..][..dim], &args.o[off..][..dim]);
                for (lo, hi) in token_spans {
                    for (p, ds) in p[lo..hi].iter_mut().zip(&mut ds[lo..hi]) {
                        // P = exp(S - lse); dS = P * (dP - delta) * scale.
                        *p = exp(*p - lse_r);
                        *ds = *p * (*ds - delta) * a.scale;
                    }
                }
                live[n_live] = ((slot - 1) * kp, off, r / a.qh);
                n_live += 1;
            }
            if n_live > live_before {
                for (lo, hi) in token_spans.into_iter().filter(|(lo, hi)| lo < hi) {
                    cuts[n_cuts..n_cuts + 2].copy_from_slice(&[lo, hi]);
                    n_cuts += 2;
                }
            }
        }
        let live = &live[..n_live];
        // dV += P^T dO and dK += dS^T Q key-major: between two cuts the same
        // rows reach every key, and each key's rows are loaded and stored
        // once for all of their terms.
        let cuts = &mut cuts[..n_cuts];
        cuts.sort_unstable();
        for seg in cuts
            .windows(2)
            .map(|c| (c[0], c[1]))
            .filter(|(lo, hi)| lo < hi)
        {
            let mut terms = [(0, 0); PASS_ROWS];
            let mut n_terms = 0;
            for &(wo, oo, t) in live {
                if spans[t].iter().any(|&(lo, hi)| lo <= seg.0 && seg.0 < hi) {
                    terms[n_terms] = (wo, oo);
                    n_terms += 1;
                }
            }
            let terms = &terms[..n_terms];
            scatter_keys(&mut dv[head..], kv_row, dim, (p, args.d_o), terms, seg);
            scatter_keys(&mut dk[head..], kv_row, dim, (ds, a.q), terms, seg);
        }
        // dQ += dS K, the live rows that share their keys together, each
        // row held in registers while they walk their keys in ascending order.
        let k = &a.k[head..];
        let mut rest = live;
        while let Some(&(_, _, t)) = rest.first() {
            let n = rest
                .iter()
                .take_while(|&&(_, _, u)| spans[u] == spans[t])
                .count();
            let mut wo = [(0, 0); PASS_ROWS];
            for (wo, &(w, o, _)) in wo.iter_mut().zip(&rest[..n]) {
                *wo = (w, o);
            }
            let mut sums = [0.0; PASS_ROWS];
            gather_rows::<LANES>(dq, &wo[..n], ds, k, kv_row, dim, spans[t], &mut sums[..n]);
            rest = &rest[n..];
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
/// they inline — into module `$isa` under the attributes given, for vectors
/// of `$lanes` f32: those attributes and the lanes, which size the row
/// tiles to the registers, are all that separates two instantiations.
macro_rules! instantiate {
    ($(#[$width:meta])* mod $isa:ident, lanes = $lanes:literal) => {
        mod $isa {
            use super::*;

            // One function per head dim, never merged into `run`: the
            // optimizer knows that `dq`, `dk`, `dv` and the scratch do not
            // overlap only while they are reference parameters (the backward
            // ran at half its speed as one function over a `Call`'s fields).
            $(#[$width])*
            #[inline(never)]
            fn fwd<const D: usize>(acc: &mut BlockAcc, a: BlockArgs<'_>, s: &mut Scratch) {
                fwd_body::<D, $lanes>(acc, a, s)
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
                bwd_body::<D, $lanes>(args, dq, dk, dv, s)
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

instantiate!(mod narrow, lanes = 4);

// 256-bit vectors, and not `fma`: every product and every sum is rounded on
// its own (no fused multiply-add is written, and without the feature nothing
// can fuse one behind the source's back), because fusing where the CPU can
// and not where it cannot would make the bits depend on the host.
#[cfg(target_arch = "x86_64")]
instantiate!(
    #[target_feature(enable = "avx2")]
    mod avx2,
    lanes = 8
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
