//! Attention operator and transformer model shapes.

use serde::{Deserialize, Serialize};

use crate::units::{Bytes, Flops};

/// The shape of one attention operator, GQA-aware.
///
/// `q_heads` query heads share `kv_heads` key/value heads (`q_heads` must be
/// a multiple of `kv_heads`). When combined with tensor parallelism, these
/// are the *per-TP-rank* head counts (the paper divides the head dimension by
/// the TP degree, Sec. 6.2).
///
/// # Examples
///
/// ```
/// use dcp_types::AttnSpec;
///
/// // The paper's micro-benchmark operator: 8 Q heads, 2 KV groups, d=128,
/// // bf16 (a 32-head/8-group op under 4-way tensor parallelism).
/// let spec = AttnSpec::paper_micro();
/// assert_eq!(spec.q_heads_per_group(), 4);
/// assert_eq!(spec.q_block_bytes(512), 512 * 4 * 128 * 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttnSpec {
    /// Number of query heads.
    pub q_heads: u32,
    /// Number of key/value heads (GQA groups).
    pub kv_heads: u32,
    /// Head dimension.
    pub head_dim: u32,
    /// Bytes per element of the activation dtype (2 for bf16/fp16).
    pub dtype_bytes: u32,
}

impl AttnSpec {
    /// Creates a new spec, validating the GQA grouping.
    ///
    /// # Panics
    ///
    /// Panics if `q_heads` is not a positive multiple of `kv_heads` or if any
    /// dimension is zero.
    pub fn new(q_heads: u32, kv_heads: u32, head_dim: u32, dtype_bytes: u32) -> Self {
        assert!(q_heads > 0 && kv_heads > 0 && head_dim > 0 && dtype_bytes > 0);
        assert!(
            q_heads.is_multiple_of(kv_heads),
            "q_heads ({q_heads}) must be a multiple of kv_heads ({kv_heads})"
        );
        AttnSpec {
            q_heads,
            kv_heads,
            head_dim,
            dtype_bytes,
        }
    }

    /// The attention operator used in the paper's micro-benchmarks: GQA with
    /// 8 query heads, 2 KV groups, head dimension 128, bf16.
    pub fn paper_micro() -> Self {
        AttnSpec::new(8, 2, 128, 2)
    }

    /// Query heads per KV group.
    pub fn q_heads_per_group(&self) -> u32 {
        self.q_heads / self.kv_heads
    }

    /// Bytes of the Q slice of one head *group* for `tokens` tokens (all Q
    /// heads of the group).
    pub fn q_block_bytes(&self, tokens: u64) -> Bytes {
        tokens * self.q_heads_per_group() as u64 * self.head_dim as u64 * self.dtype_bytes as u64
    }

    /// Forward FLOPs of attention between `pairs` unmasked (query, key) token
    /// pairs within one head group: two matmuls (`QK^T` and `PV`) of
    /// `2 * head_dim` FLOPs each, for every Q head in the group.
    pub fn pair_flops(&self, pairs: u64) -> Flops {
        pairs * 4 * self.head_dim as u64 * self.q_heads_per_group() as u64
    }

    /// Ratio of backward to forward attention FLOPs. FlashAttention's
    /// backward recomputes the forward products and computes dQ/dK/dV, about
    /// 2.5x the forward work.
    pub const BWD_FLOPS_RATIO: f64 = 2.5;
}

/// The shape of a full transformer used by the end-to-end iteration model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Number of transformer layers.
    pub layers: u32,
    /// Hidden size.
    pub hidden: u32,
    /// Total number of query heads (before tensor parallel split).
    pub q_heads: u32,
    /// Total number of KV heads.
    pub kv_heads: u32,
    /// Head dimension.
    pub head_dim: u32,
    /// FFN hidden size (SwiGLU-style, as in Llama 3).
    pub ffn_hidden: u32,
    /// Vocabulary size.
    pub vocab: u32,
    /// Bytes per parameter/activation element.
    pub dtype_bytes: u32,
}

impl ModelSpec {
    /// The 8B GPT model used in the paper's end-to-end evaluation
    /// (Llama3-8B shape): 32 layers, hidden 4096, 32 heads, 8 KV groups,
    /// head dim 128, FFN hidden 14336.
    pub fn gpt_8b() -> Self {
        ModelSpec {
            layers: 32,
            hidden: 4096,
            q_heads: 32,
            kv_heads: 8,
            head_dim: 128,
            ffn_hidden: 14336,
            vocab: 128_256,
            dtype_bytes: 2,
        }
    }

    /// The attention spec of one layer after applying `tp`-way tensor
    /// parallelism on the head dimension.
    ///
    /// # Panics
    ///
    /// Panics if the head counts are not divisible by `tp`.
    pub fn attn_spec(&self, tp: u32) -> AttnSpec {
        assert!(
            self.q_heads.is_multiple_of(tp) && self.kv_heads.is_multiple_of(tp),
            "TP degree {tp} must divide head counts ({}, {})",
            self.q_heads,
            self.kv_heads
        );
        AttnSpec::new(
            self.q_heads / tp,
            self.kv_heads / tp,
            self.head_dim,
            self.dtype_bytes,
        )
    }

    /// Total parameter count (dense, untied embeddings).
    pub fn param_count(&self) -> u64 {
        let h = self.hidden as u64;
        let f = self.ffn_hidden as u64;
        let d = self.head_dim as u64;
        let qh = self.q_heads as u64;
        let kvh = self.kv_heads as u64;
        // Attention: Wq (h x qh*d), Wk, Wv (h x kvh*d each), Wo (qh*d x h).
        let attn = h * qh * d * 2 + h * kvh * d * 2;
        // SwiGLU FFN: gate + up (h x f each) + down (f x h).
        let ffn = 3 * h * f;
        // Norms: 2 per layer + final.
        let norms = 2 * h;
        let per_layer = attn + ffn + norms;
        self.layers as u64 * per_layer + 2 * h * self.vocab as u64 + h
    }

    /// Forward FLOPs of all context-independent (non-attention) ops for
    /// `tokens` tokens: the dense matmuls of every layer plus the LM head.
    pub fn ctx_independent_fwd_flops(&self, tokens: u64) -> Flops {
        let h = self.hidden as u64;
        let f = self.ffn_hidden as u64;
        let d = self.head_dim as u64;
        let qh = self.q_heads as u64;
        let kvh = self.kv_heads as u64;
        let attn_proj = 2 * tokens * (h * qh * d * 2 + h * kvh * d * 2);
        let ffn = 2 * tokens * 3 * h * f;
        self.layers as u64 * (attn_proj + ffn) + 2 * tokens * h * self.vocab as u64
    }

    /// Gradient bytes exchanged per data-parallel rank in one all-reduce
    /// (ring all-reduce moves `2 * (R-1)/R * bytes`; the caller applies the
    /// ring factor).
    pub fn grad_bytes(&self, tp: u32) -> Bytes {
        self.param_count() / tp as u64 * self.dtype_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gqa_grouping() {
        let s = AttnSpec::paper_micro();
        assert_eq!(s.q_heads, 8);
        assert_eq!(s.kv_heads, 2);
        assert_eq!(s.q_heads_per_group(), 4);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_bad_grouping() {
        let _ = AttnSpec::new(8, 3, 128, 2);
    }

    #[test]
    fn block_byte_accounting() {
        let s = AttnSpec::paper_micro();
        // Q: tokens * 4 heads * 128 dim * 2 bytes.
        assert_eq!(s.q_block_bytes(1024), 1024 * 4 * 128 * 2);
    }

    #[test]
    fn pair_flops_counts_two_matmuls() {
        let s = AttnSpec::paper_micro();
        // 4 heads * 4 * 128 per pair.
        assert_eq!(s.pair_flops(1), 4 * 128 * 4);
    }

    #[test]
    fn model_8b_params_near_8b() {
        let m = ModelSpec::gpt_8b();
        let p = m.param_count();
        // Llama3-8B has ~8.0B params; our dense accounting should land close.
        assert!(p > 7_000_000_000 && p < 9_000_000_000, "params = {p}");
    }

    #[test]
    fn attn_spec_from_model_with_tp() {
        let m = ModelSpec::gpt_8b();
        let s = m.attn_spec(4);
        assert_eq!(s.q_heads, 8);
        assert_eq!(s.kv_heads, 2);
        assert_eq!(s, AttnSpec::paper_micro());
    }

    #[test]
    fn ctx_independent_flops_scale_linearly_in_tokens() {
        let m = ModelSpec::gpt_8b();
        let f1 = m.ctx_independent_fwd_flops(1000);
        let f2 = m.ctx_independent_fwd_flops(2000);
        assert_eq!(f2, 2 * f1);
    }
}
