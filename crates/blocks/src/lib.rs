//! Fine-grained data and computation block generation (paper Sec. 4.1).
//!
//! For every sequence in a training batch, DCP partitions the attention
//! inputs (Q, K, V) and output (O) along the *head* and *sequence-length*
//! dimensions into **data blocks**, and decomposes the attention computation
//! into **computation blocks** — one per (Q-block, KV-block) pair whose
//! corresponding attention-mask region is not entirely masked out. Masked
//! pairs simply generate no computation block, which is how DCP skips work
//! under sparse masks.
//!
//! The paper constrains the Q, KV and O blocks covering the *same tokens* to
//! live on the same device (the input batch is partitioned across devices at
//! token granularity). This crate therefore exposes a single placement unit,
//! the [`TokenBlock`]: the Q + K + V + O slices of one token range for one
//! head group. A [`CompBlock`] references the token block providing its
//! queries (and receiving its output) and the token block providing its
//! keys/values.
//!
//! [`BatchLayout`] is the complete block decomposition of a batch and is the
//! input to the hypergraph placement (`dcp-hypergraph` via `dcp-core`) and
//! the scheduler (`dcp-sched`).

use dcp_mask::{Mask, MaskSpec};
use dcp_types::{AttnSpec, Bytes, DcpError, DcpResult, Flops};
use serde::{Deserialize, Serialize};

/// Index of a [`TokenBlock`] within a [`BatchLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TokenBlockId(pub u32);

/// Index of a [`CompBlock`] within a [`BatchLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CompBlockId(pub u32);

/// Block-partitioning hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockConfig {
    /// Tokens per block along the sequence dimension (the paper's `B`;
    /// swept over {512, 1024, 2048, 4096} in the evaluation).
    pub block_size: u32,
    /// Number of head groups the head dimension is split into. Each group
    /// holds `q_heads / head_blocks` query heads and `kv_heads / head_blocks`
    /// KV heads. Defaults to the number of KV heads (one KV head per group).
    pub head_blocks: u32,
}

impl BlockConfig {
    /// Config with the given block size and one head group per KV head.
    pub fn with_block_size(attn: &AttnSpec, block_size: u32) -> Self {
        BlockConfig {
            block_size,
            head_blocks: attn.kv_heads,
        }
    }
}

/// The placement unit: Q + K + V + O data blocks of one token range of one
/// sequence, for one head group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenBlock {
    /// Sequence index within the batch.
    pub seq: u32,
    /// Head-group index, `0..head_blocks`.
    pub head_block: u32,
    /// First token of the range, relative to the sequence start.
    pub start: u32,
    /// Number of tokens in the range.
    pub len: u32,
    /// Bytes of the Q slice.
    pub q_bytes: Bytes,
    /// Bytes of the K + V slices.
    pub kv_bytes: Bytes,
    /// Bytes of the O slice (including per-token softmax statistics).
    pub o_bytes: Bytes,
}

impl TokenBlock {
    /// End of the token range (exclusive), relative to the sequence start.
    pub fn end(&self) -> u32 {
        self.start + self.len
    }

    /// Total bytes of all data blocks in this placement unit.
    pub fn total_bytes(&self) -> Bytes {
        self.q_bytes + self.kv_bytes + self.o_bytes
    }
}

/// One unit of attention computation: queries from `q_block` against the
/// keys/values of `kv_block`, contributing to the output block colocated
/// with `q_block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompBlock {
    /// Sequence index within the batch.
    pub seq: u32,
    /// Head-group index.
    pub head_block: u32,
    /// Token block providing Q (and receiving O).
    pub q_block: TokenBlockId,
    /// Token block providing K and V.
    pub kv_block: TokenBlockId,
    /// Number of unmasked (query, key) token pairs in this block pair.
    pub pairs: u64,
    /// Forward FLOPs of this block.
    pub flops: Flops,
}

/// The complete block decomposition of one training batch.
///
/// # Examples
///
/// ```
/// use dcp_blocks::{BatchLayout, BlockConfig};
/// use dcp_mask::MaskSpec;
/// use dcp_types::AttnSpec;
///
/// let attn = AttnSpec::paper_micro();
/// let cfg = BlockConfig { block_size: 1024, head_blocks: 2 };
/// let layout = BatchLayout::build(
///     attn,
///     cfg,
///     &[(4096, MaskSpec::Causal), (2048, MaskSpec::Causal)],
/// )
/// .unwrap();
/// // 4 + 2 token blocks per head group, 2 head groups.
/// assert_eq!(layout.token_blocks.len(), 12);
/// // Causal: 4*5/2 + 2*3/2 = 13 block pairs per head group.
/// assert_eq!(layout.comp_blocks.len(), 26);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchLayout {
    /// The attention operator shape.
    pub attn: AttnSpec,
    /// The partitioning configuration used.
    pub config: BlockConfig,
    /// Per-sequence lengths.
    pub seq_lens: Vec<u32>,
    /// Per-sequence materialized masks.
    pub masks: Vec<Mask>,
    /// All token blocks, ordered by (sequence, head group, start).
    pub token_blocks: Vec<TokenBlock>,
    /// All computation blocks, ordered by (sequence, head group, q, kv).
    pub comp_blocks: Vec<CompBlock>,
    /// For each token block, the computation blocks consuming its Q slice
    /// (equivalently, producing into its O slice).
    pub q_consumers: Vec<Vec<CompBlockId>>,
    /// For each token block, the computation blocks consuming its KV slice.
    pub kv_consumers: Vec<Vec<CompBlockId>>,
}

/// The nonzero `(q block, kv block, unmasked pairs)` entries of `mask` cut
/// into `bs`-token blocks, ordered by (q, kv), into `out`.
///
/// Counted per run, never per token: the queries of a Q block that attend by
/// one rule ([`Mask::runs_in`]) reach two spans of keys, and for every KV
/// block under those spans the pair count is a closed form
/// ([`dcp_mask::Run::pairs_in`]). The cost follows the block grid — exactly
/// equal to `mask.pair_count_block` per pair (the property test below), with
/// one visit per (run, computation block).
fn block_pairs(mask: &Mask, bs: u32, out: &mut Vec<(u32, u32, u64)>) {
    out.clear();
    let len = mask.len();
    for (qi, q_lo) in (0..len).step_by(bs as usize).enumerate() {
        let first = out.len();
        for run in mask.runs_in(q_lo, q_lo.saturating_add(bs).min(len)) {
            // The spans ascend and may meet inside one block: count it once.
            let mut next = 0;
            for (s, e) in run.keys() {
                if s == e {
                    continue;
                }
                for ki in (s / bs).max(next)..=(e - 1) / bs {
                    let k_lo = ki * bs;
                    let pairs = run.pairs_in(k_lo, k_lo.saturating_add(bs).min(len));
                    out.push((qi as u32, ki, pairs));
                }
                next = (e - 1) / bs + 1;
            }
        }
        out[first..].sort_unstable_by_key(|&(_, ki, _)| ki);
    }
    // Two runs of one Q block that reach the same KV block: one entry.
    out.dedup_by(|later, kept| {
        let same = (later.0, later.1) == (kept.0, kept.1);
        if same {
            kept.2 += later.2;
        }
        same
    });
}

impl BatchLayout {
    /// Generates the block decomposition of a batch.
    ///
    /// Each `(len, mask)` entry describes one sequence. Sequence lengths need
    /// not be multiples of the block size (the last block of a sequence is
    /// short), and sequences shorter than one block produce a single block.
    ///
    /// # Errors
    ///
    /// Returns an error if the attention spec is degenerate (a zero head
    /// count, head dim or dtype size, or `q_heads` not a multiple of
    /// `kv_heads`: a deserialized spec never passed [`AttnSpec::new`]'s
    /// checks), the config is degenerate (zero block size, head grouping
    /// that does not divide the head counts) or a mask fails to instantiate.
    pub fn build(attn: AttnSpec, config: BlockConfig, seqs: &[(u32, MaskSpec)]) -> DcpResult<Self> {
        let AttnSpec {
            q_heads,
            kv_heads,
            head_dim,
            dtype_bytes,
        } = attn;
        if [q_heads, kv_heads, head_dim, dtype_bytes].contains(&0)
            || !q_heads.is_multiple_of(kv_heads)
        {
            return Err(DcpError::invalid_argument(format!(
                "degenerate attention spec {attn:?}: every dimension must be \
                 > 0 and q_heads a multiple of kv_heads"
            )));
        }
        if config.block_size == 0 {
            return Err(DcpError::invalid_argument("block size must be > 0"));
        }
        if config.head_blocks == 0
            || !attn.q_heads.is_multiple_of(config.head_blocks)
            || !attn.kv_heads.is_multiple_of(config.head_blocks)
        {
            return Err(DcpError::invalid_argument(format!(
                "head_blocks ({}) must divide q_heads ({}) and kv_heads ({})",
                config.head_blocks, attn.q_heads, attn.kv_heads
            )));
        }
        let q_heads_per_block = (attn.q_heads / config.head_blocks) as u64;
        let kv_heads_per_block = (attn.kv_heads / config.head_blocks) as u64;
        let d = attn.head_dim as u64;
        let eb = attn.dtype_bytes as u64;

        let mut masks = Vec::with_capacity(seqs.len());
        for (len, spec) in seqs {
            masks.push(spec.instantiate(*len)?);
        }

        let mut token_blocks = Vec::new();
        let mut comp_blocks = Vec::new();
        // The head groups of a sequence share its mask, so the mask is
        // scanned once per sequence and the nonzero (q, kv, pairs) list is
        // replicated into every group under that group's first block id.
        let mut pairs: Vec<(u32, u32, u64)> = Vec::new();
        for (seq_idx, (len, _)) in seqs.iter().enumerate() {
            let n_seq_blocks = len.div_ceil(config.block_size);
            block_pairs(&masks[seq_idx], config.block_size, &mut pairs);
            for hb in 0..config.head_blocks {
                let first_id = token_blocks.len() as u32;
                for bi in 0..n_seq_blocks {
                    let start = bi * config.block_size;
                    let blen = (config.block_size).min(len - start);
                    let t = blen as u64;
                    token_blocks.push(TokenBlock {
                        seq: seq_idx as u32,
                        head_block: hb,
                        start,
                        len: blen,
                        q_bytes: t * q_heads_per_block * d * eb,
                        kv_bytes: 2 * t * kv_heads_per_block * d * eb,
                        o_bytes: t * q_heads_per_block * d * eb + t * q_heads_per_block * 4,
                    });
                }
                comp_blocks.extend(pairs.iter().map(|&(qi, ki, pairs)| CompBlock {
                    seq: seq_idx as u32,
                    head_block: hb,
                    q_block: TokenBlockId(first_id + qi),
                    kv_block: TokenBlockId(first_id + ki),
                    pairs,
                    flops: pairs * 4 * d * q_heads_per_block,
                }));
            }
        }

        // Sized by a counting pass: two exact allocations per token block.
        let mut fan = vec![(0usize, 0usize); token_blocks.len()];
        for c in &comp_blocks {
            fan[c.q_block.0 as usize].0 += 1;
            fan[c.kv_block.0 as usize].1 += 1;
        }
        let mut q_consumers: Vec<_> = fan.iter().map(|f| Vec::with_capacity(f.0)).collect();
        let mut kv_consumers: Vec<_> = fan.iter().map(|f| Vec::with_capacity(f.1)).collect();
        for (i, c) in comp_blocks.iter().enumerate() {
            q_consumers[c.q_block.0 as usize].push(CompBlockId(i as u32));
            kv_consumers[c.kv_block.0 as usize].push(CompBlockId(i as u32));
        }

        Ok(BatchLayout {
            attn,
            config,
            seq_lens: seqs.iter().map(|(l, _)| *l).collect(),
            masks,
            token_blocks,
            comp_blocks,
            q_consumers,
            kv_consumers,
        })
    }

    /// Number of sequences in the batch.
    pub fn num_seqs(&self) -> usize {
        self.seq_lens.len()
    }

    /// Total tokens in the batch.
    pub fn total_tokens(&self) -> u64 {
        self.seq_lens.iter().map(|&l| l as u64).sum()
    }

    /// Total forward FLOPs of all computation blocks.
    pub fn total_flops(&self) -> Flops {
        self.comp_blocks.iter().map(|c| c.flops).sum()
    }

    /// Total bytes of all data blocks (Q + KV + O over all head groups).
    pub fn total_bytes(&self) -> Bytes {
        self.token_blocks.iter().map(TokenBlock::total_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_mask::RangePair;
    use proptest::prelude::*;

    fn micro() -> AttnSpec {
        AttnSpec::paper_micro()
    }

    #[test]
    fn causal_block_counts() {
        let cfg = BlockConfig {
            block_size: 1024,
            head_blocks: 1,
        };
        let layout = BatchLayout::build(micro(), cfg, &[(4096, MaskSpec::Causal)]).unwrap();
        assert_eq!(layout.token_blocks.len(), 4);
        // Lower triangle of a 4x4 block grid.
        assert_eq!(layout.comp_blocks.len(), 10);
        // Diagonal blocks have B*(B+1)/2 pairs, off-diagonal B*B.
        let diag = layout
            .comp_blocks
            .iter()
            .find(|c| c.q_block == c.kv_block)
            .unwrap();
        assert_eq!(diag.pairs, 1024 * 1025 / 2);
        let off = layout
            .comp_blocks
            .iter()
            .find(|c| c.q_block != c.kv_block)
            .unwrap();
        assert_eq!(off.pairs, 1024 * 1024);
    }

    #[test]
    fn head_blocks_replicate_structure() {
        let cfg1 = BlockConfig {
            block_size: 512,
            head_blocks: 1,
        };
        let cfg2 = BlockConfig {
            block_size: 512,
            head_blocks: 2,
        };
        let seqs = [(2048, MaskSpec::Causal), (1024, MaskSpec::paper_lambda())];
        let l1 = BatchLayout::build(micro(), cfg1, &seqs).unwrap();
        let l2 = BatchLayout::build(micro(), cfg2, &seqs).unwrap();
        assert_eq!(l2.token_blocks.len(), 2 * l1.token_blocks.len());
        assert_eq!(l2.comp_blocks.len(), 2 * l1.comp_blocks.len());
        // Total FLOPs and bytes are independent of head grouping.
        assert_eq!(l1.total_flops(), l2.total_flops());
        assert_eq!(l1.total_bytes(), l2.total_bytes());
    }

    #[test]
    fn flops_match_mask_pair_total() {
        let cfg = BlockConfig {
            block_size: 256,
            head_blocks: 2,
        };
        let spec = MaskSpec::paper_shared_question(4000);
        let layout = BatchLayout::build(micro(), cfg, &[(4000, spec.clone())]).unwrap();
        let mask = spec.instantiate(4000).unwrap();
        let expected = mask.total_pairs() * 4 * 128 * 8; // all 8 q heads
        assert_eq!(layout.total_flops(), expected);
        let pair_total: u64 = layout.comp_blocks.iter().map(|c| c.pairs).sum();
        // Pairs are counted once per head group.
        assert_eq!(pair_total, mask.total_pairs() * 2);
    }

    #[test]
    fn sparse_mask_skips_blocks() {
        let cfg = BlockConfig {
            block_size: 512,
            head_blocks: 1,
        };
        let causal = BatchLayout::build(micro(), cfg, &[(16384, MaskSpec::Causal)]).unwrap();
        let lambda = BatchLayout::build(
            micro(),
            cfg,
            &[(
                16384,
                MaskSpec::Lambda {
                    sink: 64,
                    window: 1024,
                },
            )],
        )
        .unwrap();
        assert!(
            lambda.comp_blocks.len() < causal.comp_blocks.len() / 2,
            "lambda {} vs causal {}",
            lambda.comp_blocks.len(),
            causal.comp_blocks.len()
        );
    }

    #[test]
    fn ragged_last_block() {
        let cfg = BlockConfig {
            block_size: 1000,
            head_blocks: 1,
        };
        let layout = BatchLayout::build(micro(), cfg, &[(2500, MaskSpec::Causal)]).unwrap();
        assert_eq!(layout.token_blocks.len(), 3);
        assert_eq!(layout.token_blocks[2].len, 500);
        assert_eq!(layout.token_blocks[2].start, 2000);
        // Byte sizes scale with the short length.
        assert_eq!(
            layout.token_blocks[2].q_bytes * 2,
            layout.token_blocks[0].q_bytes
        );
    }

    #[test]
    fn consumer_indexes_are_consistent() {
        let cfg = BlockConfig {
            block_size: 512,
            head_blocks: 2,
        };
        let layout = BatchLayout::build(
            micro(),
            cfg,
            &[(3000, MaskSpec::Causal), (1500, MaskSpec::paper_lambda())],
        )
        .unwrap();
        for (tb, consumers) in layout.q_consumers.iter().enumerate() {
            for &c in consumers {
                assert_eq!(
                    layout.comp_blocks[c.0 as usize].q_block,
                    TokenBlockId(tb as u32)
                );
            }
        }
        for (tb, consumers) in layout.kv_consumers.iter().enumerate() {
            for &c in consumers {
                assert_eq!(
                    layout.comp_blocks[c.0 as usize].kv_block,
                    TokenBlockId(tb as u32)
                );
            }
        }
        // Every comp block appears exactly once in each index.
        let nq: usize = layout.q_consumers.iter().map(Vec::len).sum();
        let nkv: usize = layout.kv_consumers.iter().map(Vec::len).sum();
        assert_eq!(nq, layout.comp_blocks.len());
        assert_eq!(nkv, layout.comp_blocks.len());
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(BatchLayout::build(
            micro(),
            BlockConfig {
                block_size: 0,
                head_blocks: 1
            },
            &[(100, MaskSpec::Causal)]
        )
        .is_err());
        assert!(BatchLayout::build(
            micro(),
            BlockConfig {
                block_size: 512,
                head_blocks: 3
            },
            &[(100, MaskSpec::Causal)]
        )
        .is_err());
    }

    #[test]
    fn rejects_degenerate_attn_specs() {
        // A deserialized spec never passes `AttnSpec::new`'s asserts.
        let config = BlockConfig {
            block_size: 64,
            head_blocks: 1,
        };
        let ok = micro();
        for bad in [
            AttnSpec { q_heads: 0, ..ok },
            AttnSpec { kv_heads: 0, ..ok },
            AttnSpec { head_dim: 0, ..ok },
            AttnSpec {
                dtype_bytes: 0,
                ..ok
            },
            AttnSpec { kv_heads: 3, ..ok },
        ] {
            let err = BatchLayout::build(bad, config, &[(100, MaskSpec::Causal)]);
            assert!(
                matches!(err, Err(DcpError::InvalidArgument(_))),
                "{bad:?} built"
            );
        }
        assert!(BatchLayout::build(ok, config, &[(100, MaskSpec::Causal)]).is_ok());
    }

    #[test]
    fn blocks_never_cross_sequences() {
        let cfg = BlockConfig {
            block_size: 512,
            head_blocks: 1,
        };
        let layout = BatchLayout::build(
            micro(),
            cfg,
            &[(700, MaskSpec::Causal), (900, MaskSpec::Causal)],
        )
        .unwrap();
        for c in &layout.comp_blocks {
            let q = &layout.token_blocks[c.q_block.0 as usize];
            let kv = &layout.token_blocks[c.kv_block.0 as usize];
            assert_eq!(q.seq, kv.seq);
            assert_eq!(q.head_block, kv.head_block);
        }
    }

    proptest! {
        /// Computation blocks cover exactly the nonzero block pairs of the
        /// mask — no missing work, no wasted blocks (DESIGN.md invariant) —
        /// with the pair count a token-by-token scan of `Mask::allowed`
        /// gives, and every head group repeats group 0 under its own block
        /// ids, in the same order.
        #[test]
        fn comp_blocks_cover_exactly_mask_support(
            bs in prop_oneof![1u32..130, Just(96u32), Just(1000u32), Just(1024u32)],
            head_blocks in prop_oneof![Just(1u32), Just(2u32), Just(4u32)],
            // Per sequence: length in blocks/6 (so some are shorter than one
            // block), mask family and its two parameters.
            seqs in proptest::collection::vec((any::<u32>(), 0u32..7, any::<u32>(), any::<u32>()), 1..3),
        ) {
            // Spans that start and end mid-block: a sink and a window that
            // are not multiples of the block size; a question, a mask block
            // and documents likewise.
            let seqs: Vec<(u32, MaskSpec)> = seqs
                .into_iter()
                .map(|(l, family, a, b)| {
                    let len = 1 + l % (6 * bs);
                    let split = |total: u32| {
                        let first = b % (total + 1);
                        [first, total - first]
                    };
                    let spec = match family {
                        0 => MaskSpec::Causal,
                        1 => MaskSpec::Lambda { sink: a % (bs + 3), window: 1 + b % (2 * bs + 1) },
                        2 => {
                            let question_len = 1 + a % len;
                            let answer_lens = split(len - question_len).to_vec();
                            MaskSpec::SharedQuestion { question_len, answer_lens }
                        }
                        3 => MaskSpec::CausalBlockwise {
                            block: 1 + a % (2 * bs + 1),
                            window_blocks: 1 + b % 3,
                            sink_blocks: (b >> 8) % 3,
                        },
                        4 => MaskSpec::Full,
                        5 => {
                            let [first, rest] = split(len);
                            let [second, third] = split(rest);
                            MaskSpec::packed_documents(&[first, second, third])
                        }
                        _ => {
                            // Arbitrary rows in stretches of 1..=2·bs tokens:
                            // one row repeated, or rows ending at their token.
                            let mut x = (a as u64) << 32 | b as u64 | 1;
                            let mut word = |bound: u32| {
                                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                                ((x >> 33) % bound as u64) as u32
                            };
                            let mut rows = Vec::with_capacity(len as usize);
                            while rows.len() < len as usize {
                                let stretch = 1 + word(2 * bs);
                                let (causal, s1, e1, s2, e2) =
                                    (word(2) == 0, word(len), word(len + 1), word(len), word(len + 1));
                                for _ in 0..stretch.min(len - rows.len() as u32) {
                                    let t = rows.len() as u32;
                                    rows.push(if causal {
                                        RangePair::merged(0, s1.min(t), s2.min(t), t + 1)
                                    } else {
                                        RangePair::merged(s1, e1, s2, e2)
                                    });
                                }
                            }
                            MaskSpec::Custom(rows)
                        }
                    };
                    (len, spec)
                })
                .collect();
            let scan = |mask: &Mask, (q_lo, q_hi): (u32, u32), (k_lo, k_hi): (u32, u32)| -> u64 {
                (q_lo..q_hi).map(|t| mask.allowed(t).count_in(k_lo, k_hi)).sum()
            };
            let attn = AttnSpec::new(8, 4, 16, 2);
            let cfg = BlockConfig { block_size: bs, head_blocks };
            let layout = BatchLayout::build(attn, cfg, &seqs).unwrap();
            let mut covered = std::collections::HashSet::new();
            for c in &layout.comp_blocks {
                prop_assert!(c.pairs > 0);
                let q = &layout.token_blocks[c.q_block.0 as usize];
                let kv = &layout.token_blocks[c.kv_block.0 as usize];
                prop_assert_eq!((q.seq, q.head_block), (c.seq, c.head_block));
                prop_assert_eq!((kv.seq, kv.head_block), (c.seq, c.head_block));
                let mask = &layout.masks[c.seq as usize];
                prop_assert_eq!(c.pairs, scan(mask, (q.start, q.end()), (kv.start, kv.end())));
                prop_assert_eq!(c.pairs, mask.pair_count_block(q.start, q.end(), kv.start, kv.end()));
                covered.insert((c.seq, c.head_block, q.start / bs, kv.start / bs));
            }
            for (seq, &(len, _)) in seqs.iter().enumerate() {
                let mask = &layout.masks[seq];
                let nb = len.div_ceil(bs);
                for qi in 0..nb {
                    for ki in 0..nb {
                        let q_lo = qi * bs;
                        let q_hi = (q_lo + bs).min(len);
                        let k_lo = ki * bs;
                        let k_hi = (k_lo + bs).min(len);
                        let nonzero = scan(mask, (q_lo, q_hi), (k_lo, k_hi)) > 0;
                        for hb in 0..head_blocks {
                            prop_assert_eq!(covered.contains(&(seq as u32, hb, qi, ki)), nonzero);
                        }
                    }
                }
            }
            // A head group is the one before it, one group of token blocks
            // further on — so group h is group 0 shifted by h groups, which
            // is group h's first token-block id minus group 0's.
            let per_group = |seq: u32| {
                let of = |c: &&CompBlock| c.seq == seq && c.head_block == 0;
                layout.comp_blocks.iter().filter(of).count()
            };
            for (i, c) in layout.comp_blocks.iter().enumerate() {
                if c.head_block > 0 {
                    let twin = layout.comp_blocks[i - per_group(c.seq)];
                    let shift = seqs[c.seq as usize].0.div_ceil(bs);
                    prop_assert_eq!(*c, CompBlock {
                        head_block: twin.head_block + 1,
                        q_block: TokenBlockId(twin.q_block.0 + shift),
                        kv_block: TokenBlockId(twin.kv_block.0 + shift),
                        ..twin
                    });
                }
            }
        }

        /// Token blocks tile each sequence exactly.
        #[test]
        fn token_blocks_tile_sequences(
            l1 in 1u32..500,
            l2 in 1u32..500,
            bs in 1u32..100,
        ) {
            let cfg = BlockConfig { block_size: bs, head_blocks: 2 };
            let layout = BatchLayout::build(
                micro(), cfg, &[(l1, MaskSpec::Causal), (l2, MaskSpec::Causal)],
            ).unwrap();
            for (seq, len) in [(0u32, l1), (1u32, l2)] {
                for hb in 0..2u32 {
                    let mut blocks: Vec<_> = layout
                        .token_blocks
                        .iter()
                        .filter(|b| b.seq == seq && b.head_block == hb)
                        .collect();
                    blocks.sort_by_key(|b| b.start);
                    let mut cursor = 0;
                    for b in &blocks {
                        prop_assert_eq!(b.start, cursor);
                        cursor = b.end();
                    }
                    prop_assert_eq!(cursor, len);
                }
            }
        }
    }
}
