//! Attention mask specifications and blockwise sparsity queries.
//!
//! DCP supports attention patterns beyond the causal mask (paper Sec. 2.4 and
//! Fig. 6): the lambda mask (attention sink + sliding window), the causal
//! blockwise mask used for in-context learning, and the shared-question mask
//! used in RLHF/DPO-style post-training. Following the paper's executor
//! (Sec. 5), a mask is represented *per query token* as at most **two**
//! half-open index ranges of keys the token attends to.
//!
//! The two key consumers are:
//!
//! - the block generator ([`dcp-blocks`](../dcp_blocks)), which asks whether a
//!   (Q-block, KV-block) pair contains any unmasked entries and how many
//!   (for FLOPs accounting), and
//! - the numerical executor, which needs the exact allowed key set of each
//!   query token.
//!
//! [`MaskSpec`] is the serializable description; [`Mask`] is a spec bound to
//! a concrete sequence length. It holds no per-token table: every family is
//! a few stretches of tokens ([`Run`]s) whose ranges follow one rule, so a
//! token's ranges are looked up and a block's pairs counted in closed form.

pub mod instance;
pub mod spec;

pub use instance::{Mask, RangePair, Run};
pub use spec::MaskSpec;
