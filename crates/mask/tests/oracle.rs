//! The run-length [`Mask`] against the per-token table it replaced.
//!
//! `per_token` is the builder `MaskSpec::instantiate` used while a mask was
//! one `RangePair` per token, verbatim; nothing in the library calls it. The
//! properties: every query (`allowed`, `total_pairs`, `pair_count_block`,
//! `block_nonempty`) answers as a scan of that table would, for every family,
//! ragged lengths and sequences shorter than a block; both serialized forms
//! read back to a mask that answers the same, in no more runs than the
//! description has segments. The root package runs this file too
//! (`tests/mask_oracle.rs`), so the tier-1 command sees it.

use dcp_mask::{Mask, MaskSpec, RangePair};
use proptest::prelude::*;

/// One `RangePair` per token, as masks were built before the run form.
fn per_token(spec: &MaskSpec, len: u32) -> Vec<RangePair> {
    match spec {
        MaskSpec::Full => (0..len).map(|_| RangePair::single(0, len)).collect(),
        MaskSpec::Causal => (0..len).map(|t| RangePair::single(0, t + 1)).collect(),
        MaskSpec::Lambda { sink, window } => (0..len)
            .map(|t| {
                let w_start = (t + 1).saturating_sub(*window);
                RangePair::merged(0, (*sink).min(t + 1), w_start, t + 1)
            })
            .collect(),
        MaskSpec::CausalBlockwise {
            block,
            window_blocks,
            sink_blocks,
        } => {
            let num_blocks = len.div_ceil(*block);
            (0..len)
                .map(|t| {
                    let bi = t / *block;
                    if bi + 1 == num_blocks {
                        // Final (test) block attends to everything.
                        return RangePair::single(0, t + 1);
                    }
                    let sink_end = (sink_blocks * block).min(t + 1);
                    let w_start = bi.saturating_sub(*window_blocks - 1) * *block;
                    RangePair::merged(0, sink_end, w_start, t + 1)
                })
                .collect()
        }
        MaskSpec::SharedQuestion {
            question_len,
            answer_lens,
        } => {
            let mut ranges = Vec::with_capacity(len as usize);
            for t in 0..*question_len {
                ranges.push(RangePair::single(0, t + 1));
            }
            let mut start = *question_len;
            for &alen in answer_lens {
                for t in start..start + alen {
                    ranges.push(RangePair::merged(0, *question_len, start, t + 1));
                }
                start += alen;
            }
            ranges
        }
        MaskSpec::Custom(ranges) => ranges.iter().map(|r| r.normalized()).collect(),
    }
}

/// A mask of family `family` for `len` tokens out of three arbitrary words.
/// Parameters land inside, at and beyond the sequence, segments may be
/// empty, and nothing is a multiple of anything else unless by chance.
fn spec_of(family: u32, len: u32, a: u32, b: u32, c: u32) -> MaskSpec {
    // Three consecutive segments summing to `total`, any of them empty.
    let split3 = |total: u32| {
        let first = a % (total + 1);
        let second = b % (total - first + 1);
        [first, second, total - first - second]
    };
    match family {
        0 => MaskSpec::Full,
        1 => MaskSpec::Causal,
        2 => MaskSpec::Lambda {
            sink: a % (len + 3),
            window: 1 + b % (len + 2),
        },
        3 => MaskSpec::CausalBlockwise {
            block: 1 + a % (len / 2 + 2),
            window_blocks: 1 + b % 4,
            sink_blocks: c % 3,
        },
        4 => {
            let question_len = c % (len + 1);
            MaskSpec::SharedQuestion {
                question_len,
                answer_lens: split3(len - question_len).to_vec(),
            }
        }
        5 => MaskSpec::packed_documents(&split3(len)),
        _ => {
            // Arbitrary rows, not sub-causal: stretches of one repeated row,
            // of rows ending at their token, of unrelated rows, empty rows.
            let mut x = (a as u64) << 32 | b as u64 | 1;
            let mut word = |bound: u32| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(c as u64 | 1);
                ((x >> 33) % bound as u64) as u32
            };
            let mut rows = Vec::with_capacity(len as usize);
            while rows.len() < len as usize {
                let stretch = 1 + word(6);
                let kind = word(3);
                let (s1, l1, s2, l2) = (word(len), word(len), word(len), word(len));
                for _ in 0..stretch.min(len - rows.len() as u32) {
                    let t = rows.len() as u32;
                    rows.push(match kind {
                        0 => RangePair::merged(s1, (s1 + l1).min(len), s2, (s2 + l2).min(len)),
                        1 => RangePair::merged(0, s1.min(t), s2.min(t), t + 1),
                        _ => RangePair::merged(word(len), len, 0, word(len + 1)),
                    });
                }
            }
            MaskSpec::Custom(rows)
        }
    }
}

/// Every query of `mask` against a scan of `rows`, on the `bs`-token grid.
fn check_against_table(mask: &Mask, rows: &[RangePair], bs: u32) -> Result<(), TestCaseError> {
    let len = rows.len() as u32;
    prop_assert_eq!(mask.len(), len);
    for (t, row) in rows.iter().enumerate() {
        prop_assert_eq!(mask.allowed(t as u32), *row, "token {}", t);
    }
    let total: u64 = rows.iter().map(RangePair::count_total).sum();
    prop_assert_eq!(mask.total_pairs(), total);
    for q_lo in (0..len).step_by(bs as usize) {
        let q_hi = q_lo.saturating_add(bs).min(len);
        for k_lo in (0..len).step_by(bs as usize) {
            let k_hi = k_lo.saturating_add(bs).min(len);
            let scan: u64 = rows[q_lo as usize..q_hi as usize]
                .iter()
                .map(|r| r.count_in(k_lo, k_hi))
                .sum();
            let at = (q_lo, q_hi, k_lo, k_hi);
            prop_assert_eq!(
                mask.pair_count_block(q_lo, q_hi, k_lo, k_hi),
                scan,
                "{:?}",
                at
            );
            prop_assert_eq!(
                mask.block_nonempty(q_lo, q_hi, k_lo, k_hi),
                scan > 0,
                "{:?}",
                at
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn run_length_mask_answers_as_the_per_token_table(
        len in prop_oneof![1u32..12, 1u32..300],
        family in 0u32..7,
        (a, b, c) in (any::<u32>(), any::<u32>(), any::<u32>()),
        bs in prop_oneof![1u32..40, Just(64u32), Just(1000u32)],
    ) {
        let spec = spec_of(family, len, a, b, c);
        let rows = per_token(&spec, len);
        let mask = spec.instantiate(len).unwrap();
        check_against_table(&mask, &rows, bs)?;
        // A query window that is not on the grid, keys likewise.
        let (q_lo, k_lo) = (a % len, b % len);
        let (q_hi, k_hi) = (q_lo + c % (len - q_lo + 1), k_lo + (c >> 16) % (len - k_lo + 1));
        let scan: u64 = rows[q_lo as usize..q_hi as usize].iter().map(|r| r.count_in(k_lo, k_hi)).sum();
        prop_assert_eq!(mask.pair_count_block(q_lo, q_hi, k_lo, k_hi), scan);

        // The serialized runs read back as they were. The per-token form
        // older plans hold compresses to the same mask in no more runs (a
        // token between two causal runs may fit either, so the split can
        // differ): one run per segment of the description at most.
        let json = serde_json::to_string(&mask).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Mask>(&json).unwrap(), &mask);
        let old = format!(r#"{{"len":{len},"ranges":{}}}"#, serde_json::to_string(&rows).unwrap());
        let compressed: Mask = serde_json::from_str(&old).unwrap();
        prop_assert_eq!(&compressed, &Mask::from_ranges(len, &rows).unwrap());
        check_against_table(&compressed, &rows, bs)?;
        let runs = |m: &Mask| m.runs_in(0, len).count() as u32;
        let most = match &spec {
            MaskSpec::Full | MaskSpec::Causal => 1,
            MaskSpec::Lambda { .. } => 2,
            MaskSpec::CausalBlockwise { block, .. } => len.div_ceil(*block),
            MaskSpec::SharedQuestion { question_len, answer_lens } => {
                u32::from(*question_len > 0) + answer_lens.len() as u32
            }
            MaskSpec::Custom(_) => len,
        };
        prop_assert!(runs(&compressed) <= runs(&mask), "{:?} in {:?}", compressed, mask);
        prop_assert!(runs(&mask) <= most, "{:?} for {:?}", mask, spec);
    }
}

/// The per-token rows `MaskSpec::packed_documents` returned before it was
/// a shared-question mask with an empty question.
fn packed_rows(docs: &[u32]) -> Vec<RangePair> {
    let mut ranges = Vec::new();
    let mut start = 0u32;
    for &len in docs {
        for t in start..start + len {
            ranges.push(RangePair::single(start, t + 1));
        }
        start += len;
    }
    ranges
}

proptest! {
    /// Packed documents attend as their per-token rows did, token by
    /// token, zero-length and one-token documents included: only the run
    /// description may differ.
    #[test]
    fn packed_documents_attend_as_their_per_token_rows(
        docs in prop::collection::vec(prop_oneof![0u32..3, 0u32..200], 1..8),
    ) {
        let rows = packed_rows(&docs);
        let len = rows.len() as u32;
        if len == 0 {
            return Ok(());
        }
        let spec = MaskSpec::packed_documents(&docs);
        prop_assert!(matches!(spec, MaskSpec::SharedQuestion { question_len: 0, .. }));
        let (new, old) = (spec.instantiate(len).unwrap(), MaskSpec::Custom(rows).instantiate(len).unwrap());
        for t in 0..len {
            prop_assert_eq!(new.allowed(t), old.allowed(t), "token {} of {:?}", t, docs);
        }
    }
}

/// The paper's configurations at a length where a wrapped product or a
/// 32-bit sum would show (release builds do not check overflow), ragged
/// against the block size.
#[test]
fn paper_masks_at_length_match_the_table() {
    let len = 70_001;
    for spec in [
        MaskSpec::Full,
        MaskSpec::Causal,
        MaskSpec::paper_lambda(),
        MaskSpec::paper_causal_blockwise(),
        MaskSpec::paper_shared_question(len),
        MaskSpec::packed_documents(&[30_000, 1, 40_000]),
    ] {
        let rows = per_token(&spec, len);
        let mask = spec.instantiate(len).unwrap();
        check_against_table(&mask, &rows, 4096).unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
    }
}

// Malformed masks are typed errors where they enter, not panics or wrapped
// sums later. Each of the four below got through before the run form.

fn assert_invalid_mask(spec: MaskSpec, len: u32) {
    match spec.instantiate(len) {
        Err(dcp_types::DcpError::InvalidMask(_)) => {}
        other => panic!("{}: {other:?}", spec.name()),
    }
}

/// Passed `instantiate`; `total_pairs()` then overflowed `1 - 2`: a panic
/// in debug builds, 4 294 967 299 pairs in release.
#[test]
fn custom_range_that_ends_before_it_starts_is_an_invalid_mask() {
    let reversed = RangePair { a: (2, 1), b: None };
    let rows = vec![RangePair::single(0, 1), reversed, RangePair::single(0, 3)];
    assert_invalid_mask(MaskSpec::Custom(rows), 3);
    // As the second range it was silently dropped as empty.
    let second = RangePair {
        a: (0, 1),
        b: Some((3, 2)),
    };
    assert_invalid_mask(MaskSpec::Custom(vec![second; 3]), 3);
}

/// `sink_blocks * block` overflowed: a panic in debug builds, in release a
/// mask whose sink was the product's low 32 bits.
#[test]
fn causal_blockwise_sink_that_overflows_is_an_invalid_mask() {
    let spec = MaskSpec::CausalBlockwise {
        block: 4,
        window_blocks: 1,
        sink_blocks: u32::MAX,
    };
    assert_invalid_mask(spec, 64);
}

/// Was `Ok`, and `allowed(0)` then indexed an empty table.
#[test]
fn serialized_mask_with_fewer_rows_than_tokens_is_a_serde_error() {
    assert!(serde_json::from_str::<Mask>(r#"{"len":5,"ranges":[]}"#).is_err());
    let short = r#"{"len":2,"ranges":[{"a":[0,1],"b":null}]}"#;
    assert!(serde_json::from_str::<Mask>(short).is_err());
}

/// Was accepted: a row that attends past the sequence sends the kernels
/// and the block counts past the last key.
#[test]
fn serialized_range_past_the_sequence_end_is_a_serde_error() {
    let past = r#"{"len":2,"ranges":[{"a":[0,1],"b":null},{"a":[0,3],"b":null}]}"#;
    assert!(serde_json::from_str::<Mask>(past).is_err());
    let second = r#"{"len":2,"ranges":[{"a":[0,1],"b":null},{"a":[0,1],"b":[2,5]}]}"#;
    assert!(serde_json::from_str::<Mask>(second).is_err());
}
