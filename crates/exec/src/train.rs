//! A tiny, really-trainable transformer with handwritten backprop.
//!
//! This exists to reproduce the paper's precision experiment (Sec. 7.4,
//! Fig. 21): training with DCP-planned distributed attention must produce
//! the same loss curve as training with dense single-device attention, up to
//! kernel-order floating-point noise. The model is deliberately small —
//! embedding, a few attention+MLP blocks with residuals, and a linear head
//! trained with cross-entropy next-token prediction on a synthetic Markov
//! sequence.
//!
//! The attention inside the model is pluggable ([`AttnBackend`]): either the
//! dense reference or a full plan round-trip (block partitioning → placement
//! → schedule → multi-device executor).

use std::collections::HashMap;

use dcp_blocks::{BatchLayout, BlockConfig, TokenBlockId};
use dcp_mask::MaskSpec;
use dcp_sched::{build_plan, ExecutionPlan, Placement, ScheduleConfig};
use dcp_types::{AttnSpec, DcpResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::executor::{execute_backward, execute_forward, BatchData, BlockOut};
use crate::reference;

/// Which attention implementation the model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttnBackend {
    /// Dense single-device reference attention.
    Dense,
    /// DCP plan round-trip on `num_devices` simulated devices with the given
    /// block size.
    Planned {
        /// Simulated device count.
        num_devices: u32,
        /// Sequence-dimension block size.
        block_size: u32,
    },
}

/// Model and training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Query heads.
    pub q_heads: usize,
    /// KV heads (GQA groups).
    pub kv_heads: usize,
    /// Head dimension. Model width is `q_heads * head_dim`.
    pub head_dim: usize,
    /// MLP hidden width.
    pub ffn: usize,
    /// Training sequence length.
    pub seq_len: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Seed for init and data.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            vocab: 64,
            layers: 2,
            q_heads: 4,
            kv_heads: 2,
            head_dim: 8,
            ffn: 64,
            seq_len: 64,
            lr: 0.05,
            seed: 42,
        }
    }
}

/// Output rows per parallel matmul task. Fixed (not derived from the thread
/// count); since every output row's arithmetic is independent and identical
/// to the serial loop, results are bitwise thread-count independent anyway —
/// the chunking only amortizes task overhead.
const MM_ROW_CHUNK: usize = 16;

/// Runs `row_block(i0, i1, out_block)` over `[0, m)` split into fixed row
/// chunks on the rayon pool and concatenates the `[i1-i0, n]` blocks.
fn par_rows<F>(m: usize, n: usize, row_block: F) -> Vec<f32>
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    let nchunks = m.div_ceil(MM_ROW_CHUNK).max(1);
    let blocks: Vec<Vec<f32>> = (0..nchunks)
        .into_par_iter()
        .map(|c| {
            let i0 = c * MM_ROW_CHUNK;
            let i1 = (i0 + MM_ROW_CHUNK).min(m);
            let mut out = vec![0.0f32; (i1 - i0) * n];
            row_block(i0, i1, &mut out);
            out
        })
        .collect();
    let mut out = Vec::with_capacity(m * n);
    for b in blocks {
        out.extend_from_slice(&b);
    }
    out
}

/// Row-major matmul: `a [m,k] * b [k,n] -> [m,n]`, parallel over row blocks.
fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    par_rows(m, n, |i0, i1, out| {
        for i in i0..i1 {
            let orow = &mut out[(i - i0) * n..(i - i0 + 1) * n];
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    })
}

/// `a^T [k,m]^T * b [k? ...]`: computes `a^T b` with `a [k,m]`, `b [k,n]`,
/// parallel over output-row blocks (the reduction over `k` stays in
/// ascending order per element, matching the serial loop bitwise).
fn matmul_at(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
    par_rows(m, n, |i0, i1, out| {
        for p in 0..k {
            let brow = &b[p * n..(p + 1) * n];
            for i in i0..i1 {
                let av = a[p * m + i];
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[(i - i0) * n..(i - i0 + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    })
}

/// `a [m,n] * b^T` with `b [k,n]`: returns `[m,k]`, parallel over row blocks.
fn matmul_bt(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
    par_rows(m, k, |i0, i1, out| {
        for i in i0..i1 {
            let arow = &a[i * n..(i + 1) * n];
            for j in 0..k {
                let brow = &b[j * n..(j + 1) * n];
                out[(i - i0) * k + j] = arow.iter().zip(brow).map(|(x, y)| x * y).sum::<f32>();
            }
        }
    })
}

struct Layer {
    wq: Vec<f32>,
    wk: Vec<f32>,
    wv: Vec<f32>,
    wo: Vec<f32>,
    w1: Vec<f32>,
    w2: Vec<f32>,
}

/// The model: embedding, `layers` blocks, output head.
pub struct TinyTransformer {
    cfg: TrainConfig,
    emb: Vec<f32>,
    layers: Vec<Layer>,
    wout: Vec<f32>,
}

/// Saved activations of one forward pass (for backprop).
struct Tape {
    x0: Vec<f32>,
    per_layer: Vec<LayerTape>,
    logits: Vec<f32>,
}

struct LayerTape {
    x_in: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    attn_o: Vec<f32>,
    lse: Vec<f32>,
    x_mid: Vec<f32>,
    h_pre: Vec<f32>,
    h_post: Vec<f32>,
}

/// The pluggable attention context: a mask bound to the training length
/// plus, for the planned backend, the prebuilt layout/placement/plan.
pub struct AttnCtx {
    backend: AttnBackend,
    mask: dcp_mask::Mask,
    /// Plan machinery for the `Planned` backend, built once.
    planned: Option<(BatchLayout, Placement, ExecutionPlan)>,
}

impl AttnCtx {
    /// Builds the context (and, for the planned backend, the plan).
    ///
    /// # Errors
    ///
    /// Propagates mask/layout/plan construction failures.
    pub fn new(cfg: &TrainConfig, backend: AttnBackend, mask_spec: &MaskSpec) -> DcpResult<Self> {
        let mask = mask_spec.instantiate(cfg.seq_len as u32)?;
        let planned = if let AttnBackend::Planned {
            num_devices,
            block_size,
        } = backend
        {
            let attn = AttnSpec::new(
                cfg.q_heads as u32,
                cfg.kv_heads as u32,
                cfg.head_dim as u32,
                2,
            );
            let layout = BatchLayout::build(
                attn,
                BlockConfig {
                    block_size,
                    head_blocks: 1,
                },
                &[(cfg.seq_len as u32, mask_spec.clone())],
            )?;
            // Zig-zag-ish round robin placement; computation follows Q.
            let token_to_dev: Vec<u32> = (0..layout.token_blocks.len() as u32)
                .map(|i| i % num_devices)
                .collect();
            let comp_to_dev: Vec<u32> = layout
                .comp_blocks
                .iter()
                .map(|c| token_to_dev[c.q_block.0 as usize])
                .collect();
            let placement = Placement {
                num_devices,
                token_to_dev,
                comp_to_dev,
            };
            let plan = build_plan(&layout, &placement, &ScheduleConfig::default())?;
            Some((layout, placement, plan))
        } else {
            None
        };
        Ok(AttnCtx {
            backend,
            mask,
            planned,
        })
    }

    fn split_blocks(layout: &BatchLayout, x: &[f32], heads: usize, dim: usize) -> Vec<Vec<f32>> {
        // Single sequence, head_blocks == 1: blocks are token ranges.
        layout
            .token_blocks
            .iter()
            .map(|tb| x[tb.start as usize * heads * dim..tb.end() as usize * heads * dim].to_vec())
            .collect()
    }

    fn join_blocks(
        layout: &BatchLayout,
        blocks: &HashMap<TokenBlockId, Vec<f32>>,
        len: usize,
        heads: usize,
        dim: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; len * heads * dim];
        for (i, tb) in layout.token_blocks.iter().enumerate() {
            let blk = &blocks[&TokenBlockId(i as u32)];
            out[tb.start as usize * heads * dim..tb.end() as usize * heads * dim]
                .copy_from_slice(blk);
        }
        out
    }

    fn forward(
        &self,
        cfg: &TrainConfig,
        q: &[f32],
        k: &[f32],
        v: &[f32],
    ) -> DcpResult<(Vec<f32>, Vec<f32>)> {
        match self.backend {
            AttnBackend::Dense => Ok(reference::attention(
                q,
                k,
                v,
                cfg.seq_len,
                cfg.q_heads,
                cfg.kv_heads,
                cfg.head_dim,
                &self.mask,
            )),
            AttnBackend::Planned { .. } => {
                let (layout, placement, plan) = self.planned.as_ref().expect("built in new");
                let data = BatchData {
                    q: Self::split_blocks(layout, q, cfg.q_heads, cfg.head_dim),
                    k: Self::split_blocks(layout, k, cfg.kv_heads, cfg.head_dim),
                    v: Self::split_blocks(layout, v, cfg.kv_heads, cfg.head_dim),
                };
                let out = execute_forward(layout, placement, plan, &data)?;
                let o_blocks: HashMap<TokenBlockId, Vec<f32>> =
                    out.iter().map(|(&t, b)| (t, b.o.clone())).collect();
                let lse_blocks: HashMap<TokenBlockId, Vec<f32>> =
                    out.iter().map(|(&t, b)| (t, b.lse.clone())).collect();
                let o =
                    Self::join_blocks(layout, &o_blocks, cfg.seq_len, cfg.q_heads, cfg.head_dim);
                let lse = Self::join_blocks(layout, &lse_blocks, cfg.seq_len, cfg.q_heads, 1);
                Ok((o, lse))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn backward(
        &self,
        cfg: &TrainConfig,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        o: &[f32],
        lse: &[f32],
        d_o: &[f32],
    ) -> DcpResult<(Vec<f32>, Vec<f32>, Vec<f32>)> {
        match self.backend {
            AttnBackend::Dense => Ok(reference::attention_bwd(
                q,
                k,
                v,
                o,
                lse,
                d_o,
                cfg.seq_len,
                cfg.q_heads,
                cfg.kv_heads,
                cfg.head_dim,
                &self.mask,
            )),
            AttnBackend::Planned { .. } => {
                let (layout, placement, plan) = self.planned.as_ref().expect("built in new");
                let data = BatchData {
                    q: Self::split_blocks(layout, q, cfg.q_heads, cfg.head_dim),
                    k: Self::split_blocks(layout, k, cfg.kv_heads, cfg.head_dim),
                    v: Self::split_blocks(layout, v, cfg.kv_heads, cfg.head_dim),
                };
                let o_blocks = Self::split_blocks(layout, o, cfg.q_heads, cfg.head_dim);
                let lse_blocks = Self::split_blocks(layout, lse, cfg.q_heads, 1);
                let do_blocks = Self::split_blocks(layout, d_o, cfg.q_heads, cfg.head_dim);
                let mut fwd_out = HashMap::new();
                let mut d_o_map = HashMap::new();
                for i in 0..layout.token_blocks.len() {
                    fwd_out.insert(
                        TokenBlockId(i as u32),
                        BlockOut {
                            o: o_blocks[i].clone(),
                            lse: lse_blocks[i].clone(),
                        },
                    );
                    d_o_map.insert(TokenBlockId(i as u32), do_blocks[i].clone());
                }
                let grads = execute_backward(layout, placement, plan, &data, &fwd_out, &d_o_map)?;
                let dq_map: HashMap<_, _> = grads.iter().map(|(&t, g)| (t, g.dq.clone())).collect();
                let dk_map: HashMap<_, _> = grads.iter().map(|(&t, g)| (t, g.dk.clone())).collect();
                let dv_map: HashMap<_, _> = grads.iter().map(|(&t, g)| (t, g.dv.clone())).collect();
                Ok((
                    Self::join_blocks(layout, &dq_map, cfg.seq_len, cfg.q_heads, cfg.head_dim),
                    Self::join_blocks(layout, &dk_map, cfg.seq_len, cfg.kv_heads, cfg.head_dim),
                    Self::join_blocks(layout, &dv_map, cfg.seq_len, cfg.kv_heads, cfg.head_dim),
                ))
            }
        }
    }
}

impl TinyTransformer {
    /// Deterministically initializes the model from `cfg.seed`.
    pub fn new(cfg: TrainConfig) -> Self {
        let h = cfg.q_heads * cfg.head_dim;
        let kvh = cfg.kv_heads * cfg.head_dim;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut init = |n: usize, fan_in: usize| -> Vec<f32> {
            let s = (1.0 / fan_in as f32).sqrt();
            (0..n).map(|_| rng.gen_range(-s..s)).collect()
        };
        let emb = init(cfg.vocab * h, h);
        let layers = (0..cfg.layers)
            .map(|_| Layer {
                wq: init(h * h, h),
                wk: init(h * kvh, h),
                wv: init(h * kvh, h),
                wo: init(h * h, h),
                w1: init(h * cfg.ffn, h),
                w2: init(cfg.ffn * h, cfg.ffn),
            })
            .collect();
        let wout = init(h * cfg.vocab, h);
        TinyTransformer {
            cfg,
            emb,
            layers,
            wout,
        }
    }

    fn forward(&self, tokens: &[usize], attn: &AttnCtx) -> DcpResult<(f32, Tape)> {
        let cfg = &self.cfg;
        let h = cfg.q_heads * cfg.head_dim;
        let kvh = cfg.kv_heads * cfg.head_dim;
        let l = cfg.seq_len;
        let mut x: Vec<f32> = Vec::with_capacity(l * h);
        for &t in &tokens[..l] {
            x.extend_from_slice(&self.emb[t * h..(t + 1) * h]);
        }
        let x0 = x.clone();
        let mut per_layer = Vec::new();
        for layer in &self.layers {
            let x_in = x.clone();
            let q = matmul(&x, &layer.wq, l, h, h);
            let k = matmul(&x, &layer.wk, l, h, kvh);
            let v = matmul(&x, &layer.wv, l, h, kvh);
            let (attn_o, lse) = attn.forward(cfg, &q, &k, &v)?;
            let proj = matmul(&attn_o, &layer.wo, l, h, h);
            let x_mid: Vec<f32> = x.iter().zip(&proj).map(|(a, b)| a + b).collect();
            let h_pre = matmul(&x_mid, &layer.w1, l, h, cfg.ffn);
            let h_post: Vec<f32> = h_pre.iter().map(|&z| z.max(0.0)).collect();
            let mlp = matmul(&h_post, &layer.w2, l, cfg.ffn, h);
            x = x_mid.iter().zip(&mlp).map(|(a, b)| a + b).collect();
            per_layer.push(LayerTape {
                x_in,
                q,
                k,
                v,
                attn_o,
                lse,
                x_mid,
                h_pre,
                h_post,
            });
        }
        let logits = matmul(&x, &self.wout, l, h, cfg.vocab);
        // Next-token cross entropy (predict tokens[t+1] from position t).
        let mut loss = 0.0f64;
        let preds = l - 1;
        for t in 0..preds {
            let row = &logits[t * cfg.vocab..(t + 1) * cfg.vocab];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let z: f32 = row.iter().map(|&r| (r - m).exp()).sum();
            let target = tokens[t + 1];
            loss += -((row[target] - m) as f64 - (z as f64).ln());
        }
        let tape = Tape {
            x0,
            per_layer,
            logits,
        };
        Ok(((loss / preds as f64) as f32, tape))
    }

    /// One SGD step; returns the loss before the update.
    pub fn train_step(&mut self, tokens: &[usize], attn: &AttnCtx) -> DcpResult<f32> {
        let cfg = self.cfg;
        let h = cfg.q_heads * cfg.head_dim;
        let kvh = cfg.kv_heads * cfg.head_dim;
        let l = cfg.seq_len;
        let (loss, tape) = self.forward(tokens, attn)?;

        // dLogits.
        let preds = l - 1;
        let mut dlogits = vec![0.0f32; l * cfg.vocab];
        for t in 0..preds {
            let row = &tape.logits[t * cfg.vocab..(t + 1) * cfg.vocab];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let z: f32 = row.iter().map(|&r| (r - m).exp()).sum();
            for c in 0..cfg.vocab {
                let p = (row[c] - m).exp() / z;
                dlogits[t * cfg.vocab + c] = p / preds as f32;
            }
            dlogits[t * cfg.vocab + tokens[t + 1]] -= 1.0 / preds as f32;
        }
        // x_final = input to wout: recompute from tape (x after last layer).
        let x_final: Vec<f32> = {
            // Rebuild: x_mid + mlp of the last layer.
            let lt = tape.per_layer.last().expect("at least one layer");
            let mlp = matmul(&lt.h_post, &self.layers.last().unwrap().w2, l, cfg.ffn, h);
            lt.x_mid.iter().zip(&mlp).map(|(a, b)| a + b).collect()
        };
        let dwout = matmul_at(&x_final, &dlogits, l, h, cfg.vocab);
        let mut dx = matmul_bt(&dlogits, &self.wout, l, cfg.vocab, h);

        struct LayerGrads {
            dwq: Vec<f32>,
            dwk: Vec<f32>,
            dwv: Vec<f32>,
            dwo: Vec<f32>,
            dw1: Vec<f32>,
            dw2: Vec<f32>,
        }
        let mut lgrads: Vec<LayerGrads> = Vec::new();
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let lt = &tape.per_layer[li];
            // MLP backward: x = x_mid + relu(x_mid W1) W2.
            let dw2 = matmul_at(&lt.h_post, &dx, l, cfg.ffn, h);
            let mut dh = matmul_bt(&dx, &layer.w2, l, h, cfg.ffn);
            for (g, &pre) in dh.iter_mut().zip(&lt.h_pre) {
                if pre <= 0.0 {
                    *g = 0.0;
                }
            }
            let dw1 = matmul_at(&lt.x_mid, &dh, l, h, cfg.ffn);
            let mut dx_mid = matmul_bt(&dh, &layer.w1, l, cfg.ffn, h);
            for (a, b) in dx_mid.iter_mut().zip(&dx) {
                *a += b; // residual
            }
            // Attention backward: x_mid = x_in + (attn_o Wo).
            let d_attn_o = matmul_bt(&dx_mid, &layer.wo, l, h, h);
            let dwo = matmul_at(&lt.attn_o, &dx_mid, l, h, h);
            let (dq, dk, dv) =
                attn.backward(&cfg, &lt.q, &lt.k, &lt.v, &lt.attn_o, &lt.lse, &d_attn_o)?;
            let dwq = matmul_at(&lt.x_in, &dq, l, h, h);
            let dwk = matmul_at(&lt.x_in, &dk, l, h, kvh);
            let dwv = matmul_at(&lt.x_in, &dv, l, h, kvh);
            let mut dx_in = matmul_bt(&dq, &layer.wq, l, h, h);
            let dxk = matmul_bt(&dk, &layer.wk, l, kvh, h);
            let dxv = matmul_bt(&dv, &layer.wv, l, kvh, h);
            for i in 0..l * h {
                dx_in[i] += dxk[i] + dxv[i] + dx_mid[i]; // residual
            }
            dx = dx_in;
            lgrads.push(LayerGrads {
                dwq,
                dwk,
                dwv,
                dwo,
                dw1,
                dw2,
            });
        }
        lgrads.reverse();

        // Embedding gradient.
        let mut demb = vec![0.0f32; cfg.vocab * h];
        for (t, &tok) in tokens[..l].iter().enumerate() {
            for d in 0..h {
                demb[tok * h + d] += dx[t * h + d];
            }
        }
        let _ = &tape.x0;

        // SGD update.
        let lr = cfg.lr;
        let upd = |w: &mut [f32], g: &[f32]| {
            for (a, b) in w.iter_mut().zip(g) {
                *a -= lr * b;
            }
        };
        upd(&mut self.emb, &demb);
        upd(&mut self.wout, &dwout);
        for (layer, g) in self.layers.iter_mut().zip(&lgrads) {
            upd(&mut layer.wq, &g.dwq);
            upd(&mut layer.wk, &g.dwk);
            upd(&mut layer.wv, &g.dwv);
            upd(&mut layer.wo, &g.dwo);
            upd(&mut layer.w1, &g.dw1);
            upd(&mut layer.w2, &g.dw2);
        }
        Ok(loss)
    }
}

/// Generates a deterministic synthetic token stream (an order-1 Markov chain
/// with a few strong transitions, so there is structure to learn).
pub(crate) fn synthetic_tokens(vocab: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tokens = Vec::with_capacity(len);
    let mut cur = 0usize;
    for _ in 0..len {
        tokens.push(cur);
        cur = if rng.gen_bool(0.8) {
            (cur * 7 + 3) % vocab
        } else {
            rng.gen_range(0..vocab)
        };
    }
    tokens
}

/// Trains a fresh model for `steps` steps with the given backend and mask,
/// returning the loss curve.
///
/// # Errors
///
/// Propagates plan-construction or execution errors from the planned
/// backend.
pub fn train(
    cfg: TrainConfig,
    backend: AttnBackend,
    mask: &MaskSpec,
    steps: usize,
) -> DcpResult<Vec<f32>> {
    let mut model = TinyTransformer::new(cfg);
    let attn = AttnCtx::new(&cfg, backend, mask)?;
    let tokens = synthetic_tokens(cfg.vocab, cfg.seq_len, cfg.seed ^ 0xda7a);
    let mut losses = Vec::with_capacity(steps);
    for _ in 0..steps {
        losses.push(model.train_step(&tokens, &attn)?);
    }
    Ok(losses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_training_reduces_loss() {
        let cfg = TrainConfig {
            seq_len: 32,
            lr: 0.3,
            ..Default::default()
        };
        let losses = train(cfg, AttnBackend::Dense, &MaskSpec::Causal, 80).unwrap();
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "loss should drop: {:?} -> {:?}",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    fn planned_matches_dense_loss_curve() {
        // The Fig. 21 claim: DCP's loss curve matches the baseline's.
        let cfg = TrainConfig {
            seq_len: 32,
            ..Default::default()
        };
        let dense = train(cfg, AttnBackend::Dense, &MaskSpec::Causal, 15).unwrap();
        let planned = train(
            cfg,
            AttnBackend::Planned {
                num_devices: 3,
                block_size: 8,
            },
            &MaskSpec::Causal,
            15,
        )
        .unwrap();
        for (i, (a, b)) in dense.iter().zip(&planned).enumerate() {
            assert!(
                (a - b).abs() < 5e-3 * (1.0 + a.abs()),
                "step {i}: dense {a} vs planned {b}"
            );
        }
    }

    #[test]
    fn planned_matches_dense_with_shared_question_mask() {
        let cfg = TrainConfig {
            seq_len: 40,
            ..Default::default()
        };
        let mask = MaskSpec::SharedQuestion {
            question_len: 10,
            answer_lens: vec![10, 10, 10],
        };
        let dense = train(cfg, AttnBackend::Dense, &mask, 8).unwrap();
        let planned = train(
            cfg,
            AttnBackend::Planned {
                num_devices: 2,
                block_size: 8,
            },
            &mask,
            8,
        )
        .unwrap();
        for (a, b) in dense.iter().zip(&planned) {
            assert!((a - b).abs() < 5e-3 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn synthetic_tokens_deterministic() {
        let a = synthetic_tokens(64, 100, 1);
        let b = synthetic_tokens(64, 100, 1);
        assert_eq!(a, b);
        let c = synthetic_tokens(64, 100, 2);
        assert_ne!(a, c);
        assert!(a.iter().all(|&t| t < 64));
    }
}
