//! Serializable attention mask specifications.

use dcp_types::{DcpError, DcpResult};
use serde::{Deserialize, Serialize};

use crate::instance::{Mask, RangePair, Rule};

/// A description of an attention mask, independent of sequence length.
///
/// Instantiating a spec against a concrete sequence length (via
/// [`MaskSpec::instantiate`]) produces a [`Mask`] with per-token attend
/// ranges. All masks here are sub-causal except [`MaskSpec::Full`].
///
/// # Examples
///
/// ```
/// use dcp_mask::MaskSpec;
///
/// let mask = MaskSpec::Causal.instantiate(8).unwrap();
/// assert_eq!(mask.total_pairs(), 8 * 9 / 2);
///
/// // Lambda mask: 2 sink tokens + window of 3.
/// let mask = MaskSpec::Lambda { sink: 2, window: 3 }.instantiate(16).unwrap();
/// assert!(mask.is_allowed(10, 0)); // sink
/// assert!(mask.is_allowed(10, 9)); // window
/// assert!(!mask.is_allowed(10, 5)); // masked out
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaskSpec {
    /// Every token attends to every token (encoder-style).
    Full,
    /// Standard causal mask: token `t` attends to `0..=t`.
    Causal,
    /// Lambda mask (paper Fig. 6b): every token attends to the first `sink`
    /// tokens plus a sliding window of the last `window` tokens (inclusive of
    /// itself). Used by StreamingLLM / LM-Infinite.
    Lambda {
        /// Number of attention-sink tokens at the start of the sequence.
        sink: u32,
        /// Sliding-window size (the token itself counts).
        window: u32,
    },
    /// Causal blockwise mask (paper Fig. 6c): the sequence is divided into
    /// blocks of `block` tokens; each block attends to the first
    /// `sink_blocks` blocks and a sliding window of the previous
    /// `window_blocks` blocks (inclusive of its own), and the final block
    /// (the test example) attends to everything before it.
    CausalBlockwise {
        /// Tokens per mask block.
        block: u32,
        /// Window size in blocks, counting the querying block itself.
        window_blocks: u32,
        /// Number of sink blocks at the start of the sequence.
        sink_blocks: u32,
    },
    /// Shared-question mask (paper Fig. 6d): the sequence is a question of
    /// `question_len` tokens followed by consecutive answers with lengths
    /// `answer_lens`. The question is causal; each answer attends to the full
    /// question and causally within itself (but not to other answers).
    SharedQuestion {
        /// Length of the shared question prefix.
        question_len: u32,
        /// Lengths of the answers, in order. Must sum (with the question) to
        /// the instantiated sequence length.
        answer_lens: Vec<u32>,
    },
    /// Arbitrary per-token ranges. Index `t` holds token `t`'s attend ranges.
    Custom(Vec<RangePair>),
}

impl MaskSpec {
    /// The paper's lambda-mask configuration: 64 sink tokens, window 4096.
    pub fn paper_lambda() -> Self {
        MaskSpec::Lambda {
            sink: 64,
            window: 4096,
        }
    }

    /// The paper's causal blockwise configuration: mask block 256, window of
    /// 2 blocks, a single sink block (the final block is always the test
    /// sample attending to all previous tokens).
    pub fn paper_causal_blockwise() -> Self {
        MaskSpec::CausalBlockwise {
            block: 256,
            window_blocks: 2,
            sink_blocks: 1,
        }
    }

    /// The paper's shared-question configuration for a sequence of length
    /// `len`: one shared question with 4 answers, each answer taking 20% of
    /// the sequence (the question takes the remaining 20%).
    pub fn paper_shared_question(len: u32) -> Self {
        let answer = len / 5;
        let question = len - 4 * answer;
        MaskSpec::SharedQuestion {
            question_len: question,
            answer_lens: vec![answer; 4],
        }
    }

    /// A block-diagonal "packed documents" mask: the sequence is a
    /// concatenation of documents of the given lengths, each causal within
    /// itself and blind to the others. This is the masking used when
    /// packing pre-training corpora (the setting WLB-LLM and the paper's
    /// related-work discussion assume); it is exactly a shared-question
    /// mask with an empty question, and is built as one: one entry per
    /// document, never per token.
    ///
    /// The instantiated length must equal the sum of `doc_lens`.
    pub fn packed_documents(doc_lens: &[u32]) -> Self {
        MaskSpec::SharedQuestion {
            question_len: 0,
            answer_lens: doc_lens.to_vec(),
        }
    }

    /// A short, stable name for reports and benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            MaskSpec::Full => "full",
            MaskSpec::Causal => "causal",
            MaskSpec::Lambda { .. } => "lambda",
            MaskSpec::CausalBlockwise { .. } => "causal_blockwise",
            MaskSpec::SharedQuestion { .. } => "shared_question",
            MaskSpec::Custom(_) => "custom",
        }
    }

    /// Binds this spec to a sequence of `len` tokens, as the mask's runs:
    /// the cost is the number of runs, never the number of tokens (but for
    /// [`MaskSpec::Custom`], whose description is per token).
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::InvalidMask`] if the spec cannot cover `len`
    /// tokens (e.g. shared-question lengths that do not sum to `len`, zero
    /// window, or custom ranges of the wrong arity, reversed or past the
    /// sequence end).
    pub fn instantiate(&self, len: u32) -> DcpResult<Mask> {
        if len == 0 {
            return Err(DcpError::InvalidMask("sequence length must be > 0".into()));
        }
        let causal = Rule::Since { sink: 0, start: 0 };
        match self {
            MaskSpec::Full => Mask::from_runs(len, [(len, Rule::Fixed(RangePair::single(0, len)))]),
            MaskSpec::Causal => Mask::from_runs(len, [(len, causal)]),
            MaskSpec::Lambda { sink, window } => {
                if *window == 0 {
                    return Err(DcpError::InvalidMask("lambda window must be > 0".into()));
                }
                // The window reaches back into the sink until this token.
                let slides = (*sink as u64 + *window as u64).min(len as u64) as u32;
                let window = Rule::Window {
                    sink: *sink,
                    window: *window,
                };
                Mask::from_runs(len, [(slides, causal), (len, window)])
            }
            MaskSpec::CausalBlockwise {
                block,
                window_blocks,
                sink_blocks,
            } => {
                if *block == 0 || *window_blocks == 0 {
                    return Err(DcpError::InvalidMask(
                        "causal blockwise block and window must be > 0".into(),
                    ));
                }
                let Some(sink) = sink_blocks.checked_mul(*block) else {
                    return Err(DcpError::InvalidMask(format!(
                        "{sink_blocks} sink blocks of {block} tokens overflow"
                    )));
                };
                let num_blocks = len.div_ceil(*block);
                Mask::from_runs(
                    len,
                    (0..num_blocks).map(|bi| {
                        let lo = bi * *block;
                        let hi = lo.saturating_add(*block).min(len);
                        if bi + 1 == num_blocks {
                            // Final (test) block attends to everything.
                            return (hi, causal);
                        }
                        // A multiple of `block` no greater than `lo`.
                        let start = bi.saturating_sub(*window_blocks - 1) * *block;
                        (hi, Rule::Since { sink, start })
                    }),
                )
            }
            MaskSpec::SharedQuestion {
                question_len,
                answer_lens,
            } => {
                let total: u64 =
                    *question_len as u64 + answer_lens.iter().map(|&a| a as u64).sum::<u64>();
                if total != len as u64 {
                    return Err(DcpError::InvalidMask(format!(
                        "shared-question segments sum to {total}, sequence length is {len}"
                    )));
                }
                let sink = *question_len;
                let mut start = sink;
                let answers = answer_lens.iter().map(|&alen| {
                    let rule = Rule::Since { sink, start };
                    start += alen;
                    (start, rule)
                });
                Mask::from_runs(len, std::iter::once((sink, causal)).chain(answers))
            }
            MaskSpec::Custom(ranges) => Mask::from_ranges(len, ranges),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_ranges() {
        let m = MaskSpec::Causal.instantiate(4).unwrap();
        for t in 0..4u32 {
            assert_eq!(m.allowed(t).count_total(), (t + 1) as u64);
            assert!(m.is_allowed(t, t));
            assert!(!m.is_allowed(t, t + 1) || t + 1 >= 4);
        }
    }

    #[test]
    fn full_mask_attends_everywhere() {
        let m = MaskSpec::Full.instantiate(5).unwrap();
        assert_eq!(m.total_pairs(), 25);
    }

    #[test]
    fn lambda_merges_overlapping_sink_and_window() {
        // Early tokens: sink and window overlap entirely -> single range.
        let m = MaskSpec::Lambda { sink: 4, window: 8 }
            .instantiate(32)
            .unwrap();
        let r = m.allowed(5);
        assert_eq!(r.count_total(), 6); // pure causal this early
        let r = m.allowed(20);
        // Sink 0..4 plus window 13..=20.
        assert_eq!(r.count_total(), 4 + 8);
        assert!(m.is_allowed(20, 2));
        assert!(!m.is_allowed(20, 10));
        assert!(m.is_allowed(20, 13));
    }

    #[test]
    fn lambda_is_subcausal() {
        let m = MaskSpec::paper_lambda().instantiate(8192).unwrap();
        for t in [0u32, 63, 64, 100, 4095, 4096, 8000] {
            assert!(m.is_allowed(t, t));
            if t + 1 < 8192 {
                assert!(!m.is_allowed(t, t + 1));
            }
        }
    }

    #[test]
    fn causal_blockwise_final_block_attends_all() {
        let m = MaskSpec::CausalBlockwise {
            block: 4,
            window_blocks: 2,
            sink_blocks: 1,
        }
        .instantiate(16)
        .unwrap();
        // Token 14 lives in the final block (12..16) -> fully causal.
        assert_eq!(m.allowed(14).count_total(), 15);
        // Token 9 (block 2): sink block 0..4, window blocks 1..=2 -> 4..=9.
        assert!(m.is_allowed(9, 0));
        assert!(m.is_allowed(9, 4));
        assert!(m.is_allowed(9, 9));
        // Out-of-window and not sink: block boundary check.
        let m2 = MaskSpec::CausalBlockwise {
            block: 2,
            window_blocks: 1,
            sink_blocks: 1,
        }
        .instantiate(10)
        .unwrap();
        assert!(!m2.is_allowed(5, 2)); // block 1 is neither sink nor in window of block 2
    }

    #[test]
    fn shared_question_answers_do_not_see_each_other() {
        let spec = MaskSpec::SharedQuestion {
            question_len: 4,
            answer_lens: vec![3, 3],
        };
        let m = spec.instantiate(10).unwrap();
        // Question is causal.
        assert!(m.is_allowed(2, 1));
        assert!(!m.is_allowed(2, 3));
        // Answer 1 (tokens 4..7) sees the question and itself.
        assert!(m.is_allowed(5, 0));
        assert!(m.is_allowed(5, 4));
        assert!(m.is_allowed(5, 5));
        assert!(!m.is_allowed(5, 6));
        // Answer 2 (tokens 7..10) does not see answer 1.
        assert!(m.is_allowed(8, 3));
        assert!(!m.is_allowed(8, 5));
        assert!(m.is_allowed(8, 7));
    }

    #[test]
    fn shared_question_rejects_bad_lengths() {
        let spec = MaskSpec::SharedQuestion {
            question_len: 4,
            answer_lens: vec![3, 3],
        };
        assert!(spec.instantiate(11).is_err());
    }

    #[test]
    fn paper_shared_question_splits_20_percent() {
        let spec = MaskSpec::paper_shared_question(1000);
        match &spec {
            MaskSpec::SharedQuestion {
                question_len,
                answer_lens,
            } => {
                assert_eq!(*question_len, 200);
                assert_eq!(answer_lens, &vec![200; 4]);
            }
            _ => unreachable!(),
        }
        spec.instantiate(1000).unwrap();
    }

    #[test]
    fn custom_mask_validates_bounds() {
        let spec = MaskSpec::Custom(vec![RangePair::single(0, 3); 2]);
        assert!(spec.instantiate(2).is_err()); // attends past end
        let spec = MaskSpec::Custom(vec![RangePair::single(0, 2); 2]);
        assert!(spec.instantiate(2).is_ok());
        let spec = MaskSpec::Custom(vec![RangePair::single(0, 1); 3]);
        assert!(spec.instantiate(2).is_err()); // wrong arity
    }

    #[test]
    fn packed_documents_are_block_diagonal() {
        let spec = MaskSpec::packed_documents(&[3, 4, 2]);
        let m = spec.instantiate(9).unwrap();
        // Causal within each document.
        assert!(m.is_allowed(1, 0));
        assert!(!m.is_allowed(1, 2));
        assert!(m.is_allowed(5, 3));
        // Blind across documents.
        assert!(!m.is_allowed(3, 2));
        assert!(!m.is_allowed(8, 0));
        assert!(m.is_allowed(8, 7));
        // Pair count: sum of per-document causal counts.
        let causal = |n: u64| n * (n + 1) / 2;
        assert_eq!(m.total_pairs(), causal(3) + causal(4) + causal(2));
        // Wrong length is rejected.
        assert!(spec.instantiate(10).is_err());
    }

    #[test]
    fn zero_length_rejected() {
        assert!(MaskSpec::Causal.instantiate(0).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let spec = MaskSpec::paper_causal_blockwise();
        let s = serde_json::to_string(&spec).unwrap();
        let back: MaskSpec = serde_json::from_str(&s).unwrap();
        assert_eq!(spec, back);
    }
}
