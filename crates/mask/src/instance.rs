//! Materialized masks: per-token attend ranges and blockwise queries.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// At most two normalized half-open ranges of key indices a query token
/// attends to.
///
/// Invariants (maintained by the constructors):
/// - the first range is non-empty,
/// - if the second range is present it is non-empty and starts strictly after
///   the first ends (no overlap, no adjacency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangePair {
    /// First range `[a.0, a.1)`.
    pub a: (u32, u32),
    /// Optional second range, strictly after `a`.
    pub b: Option<(u32, u32)>,
}

impl RangePair {
    /// A single range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn single(start: u32, end: u32) -> Self {
        assert!(start < end, "empty range [{start}, {end})");
        RangePair {
            a: (start, end),
            b: None,
        }
    }

    /// Two ranges `[s1, e1)` and `[s2, e2)`, merged/normalized. Either range
    /// may be empty (it is dropped); if both are empty the result is a
    /// zero-width range at 0 — callers treat that as "attends to nothing",
    /// which does not occur for sub-causal masks (a token always attends to
    /// itself).
    pub fn merged(s1: u32, e1: u32, s2: u32, e2: u32) -> Self {
        let r1 = (s1 < e1).then_some((s1, e1));
        let r2 = (s2 < e2).then_some((s2, e2));
        match (r1, r2) {
            (None, None) => RangePair { a: (0, 0), b: None },
            (Some(r), None) | (None, Some(r)) => RangePair { a: r, b: None },
            (Some(mut x), Some(mut y)) => {
                if y.0 < x.0 {
                    std::mem::swap(&mut x, &mut y);
                }
                if y.0 <= x.1 {
                    // Overlapping or adjacent: merge.
                    RangePair {
                        a: (x.0, x.1.max(y.1)),
                        b: None,
                    }
                } else {
                    RangePair { a: x, b: Some(y) }
                }
            }
        }
    }

    /// Re-normalizes a possibly denormalized pair (used when deserializing
    /// custom masks).
    pub fn normalized(&self) -> Self {
        match self.b {
            None => *self,
            Some(b) => RangePair::merged(self.a.0, self.a.1, b.0, b.1),
        }
    }

    /// Total number of keys covered.
    pub fn count_total(&self) -> u64 {
        let (a0, a1) = self.a;
        let base = (a1 - a0) as u64;
        base + self.b.map_or(0, |(b0, b1)| (b1 - b0) as u64)
    }

    /// Whether key `k` is covered.
    pub fn contains(&self, k: u32) -> bool {
        (self.a.0 <= k && k < self.a.1) || self.b.is_some_and(|(b0, b1)| b0 <= k && k < b1)
    }

    /// The largest covered index + 1 (0 if empty).
    pub fn end(&self) -> u32 {
        self.b.map_or(self.a.1, |(_, b1)| b1)
    }

    /// Number of covered keys inside `[lo, hi)`.
    pub fn count_in(&self, lo: u32, hi: u32) -> u64 {
        let overlap = |(s, e): (u32, u32)| -> u64 {
            let s = s.max(lo);
            let e = e.min(hi);
            if s < e {
                (e - s) as u64
            } else {
                0
            }
        };
        overlap(self.a) + self.b.map_or(0, overlap)
    }

    /// Whether any covered key lies inside `[lo, hi)`.
    pub fn intersects(&self, lo: u32, hi: u32) -> bool {
        let hit = |(s, e): (u32, u32)| s.max(lo) < e.min(hi);
        hit(self.a) || self.b.is_some_and(hit)
    }

    /// The covered keys inside `[lo, hi)` as two half-open spans in ascending
    /// key order: walking the first and then the second visits exactly the
    /// keys [`RangePair::contains`] accepts, each once. A span that covers
    /// nothing is `(lo, lo)`.
    pub fn spans_in(&self, lo: u32, hi: u32) -> [(u32, u32); 2] {
        let clip = |(s, e): (u32, u32)| {
            let (s, e) = (s.max(lo), e.min(hi));
            if s < e {
                (s, e)
            } else {
                (lo, lo)
            }
        };
        // Fields are public and masks deserialize: re-normalizing makes the
        // spans disjoint and ordered whatever the pair held.
        let n = self.normalized();
        [clip(n.a), n.b.map_or((lo, lo), clip)]
    }
}

/// A mask bound to a concrete sequence length, with one [`RangePair`] per
/// query token.
///
/// # Examples
///
/// ```
/// use dcp_mask::MaskSpec;
///
/// let mask = MaskSpec::Causal.instantiate(16).unwrap();
/// // (Q-block [0,4), KV-block [8,12)) is fully masked under causality:
/// assert_eq!(mask.pair_count_block(0, 4, 8, 12), 0);
/// assert!(!mask.block_nonempty(0, 4, 8, 12));
/// // The diagonal block is half full:
/// assert_eq!(mask.pair_count_block(4, 8, 4, 8), 4 + 3 + 2 + 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    len: u32,
    /// Immutable once built, so clones (a cached plan handed out again, a
    /// layout kept as a warm-start seed) share the table instead of copying
    /// 20 bytes per token.
    ranges: Arc<[RangePair]>,
}

// By hand because the vendored serde has no `Arc`; the form is the derived
// one (`{"len": .., "ranges": [..]}`).
impl Serialize for Mask {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("len".into(), self.len.to_value());
        m.insert("ranges".into(), self.ranges.to_value());
        serde::Value::Object(m)
    }
}

impl Deserialize for Mask {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        // Anything but an object reads as missing fields.
        Ok(Mask {
            len: u32::from_value(&v["len"])?,
            ranges: Vec::from_value(&v["ranges"])?.into(),
        })
    }
}

impl Mask {
    /// Builds a mask from explicit per-token ranges (already normalized).
    ///
    /// # Panics
    ///
    /// Panics if `ranges.len() != len`.
    pub fn from_ranges(len: u32, ranges: impl Into<Arc<[RangePair]>>) -> Self {
        let ranges = ranges.into();
        assert_eq!(ranges.len(), len as usize);
        Mask { len, ranges }
    }

    /// Sequence length this mask is bound to.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the sequence is empty (never true for instantiated masks).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The attend ranges of query token `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len`.
    pub fn allowed(&self, t: u32) -> RangePair {
        self.ranges[t as usize]
    }

    /// Whether query `q` attends to key `k`.
    pub fn is_allowed(&self, q: u32, k: u32) -> bool {
        self.ranges[q as usize].contains(k)
    }

    /// Total number of unmasked (query, key) pairs.
    pub fn total_pairs(&self) -> u64 {
        self.ranges.iter().map(RangePair::count_total).sum()
    }

    /// Ratio of unmasked pairs to the causal mask's pair count. The paper's
    /// "mask sparsity" metric (Fig. 19) is FLOPs relative to causal, which is
    /// exactly this ratio.
    pub fn sparsity_vs_causal(&self) -> f64 {
        let causal = self.len as u64 * (self.len as u64 + 1) / 2;
        self.total_pairs() as f64 / causal as f64
    }

    /// Number of unmasked pairs with query in `[q_lo, q_hi)` and key in
    /// `[k_lo, k_hi)`.
    pub fn pair_count_block(&self, q_lo: u32, q_hi: u32, k_lo: u32, k_hi: u32) -> u64 {
        debug_assert!(q_hi <= self.len);
        self.ranges[q_lo as usize..q_hi as usize]
            .iter()
            .map(|r| r.count_in(k_lo, k_hi))
            .sum()
    }

    /// Whether the block pair contains any unmasked entry.
    pub fn block_nonempty(&self, q_lo: u32, q_hi: u32, k_lo: u32, k_hi: u32) -> bool {
        self.ranges[q_lo as usize..q_hi as usize]
            .iter()
            .any(|r| r.intersects(k_lo, k_hi))
    }

    /// Iterator over the per-token ranges (token order).
    pub fn ranges(&self) -> &[RangePair] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MaskSpec;
    use proptest::prelude::*;

    #[test]
    fn range_pair_merging() {
        // Overlap merges.
        let r = RangePair::merged(0, 5, 3, 8);
        assert_eq!(r, RangePair::single(0, 8));
        // Adjacency merges.
        let r = RangePair::merged(0, 5, 5, 8);
        assert_eq!(r, RangePair::single(0, 8));
        // Disjoint stays split.
        let r = RangePair::merged(0, 4, 6, 8);
        assert_eq!(r.a, (0, 4));
        assert_eq!(r.b, Some((6, 8)));
        // Out of order inputs are sorted.
        let r = RangePair::merged(6, 8, 0, 4);
        assert_eq!(r.a, (0, 4));
        // Empty halves are dropped.
        let r = RangePair::merged(3, 3, 1, 2);
        assert_eq!(r, RangePair::single(1, 2));
    }

    #[test]
    fn mask_serializes_as_the_derived_struct_and_clones_share_the_table() {
        let m = MaskSpec::Lambda { sink: 1, window: 1 }
            .instantiate(3)
            .unwrap();
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(
            json,
            r#"{"len":3,"ranges":[{"a":[0,1],"b":null},{"a":[0,2],"b":null},{"a":[0,1],"b":[2,3]}]}"#
        );
        assert_eq!(serde_json::from_str::<Mask>(&json).unwrap(), m);
        assert!(serde_json::from_str::<Mask>("[3]").is_err());
        assert!(Arc::ptr_eq(&m.ranges, &m.clone().ranges));
    }

    #[test]
    fn count_in_clamps() {
        let r = RangePair::merged(0, 4, 8, 12);
        assert_eq!(r.count_in(2, 10), 2 + 2);
        assert_eq!(r.count_in(4, 8), 0);
        assert_eq!(r.count_in(0, 100), 8);
        assert!(r.intersects(3, 5));
        assert!(!r.intersects(4, 8));
    }

    #[test]
    fn block_counts_match_dense_enumeration() {
        let specs = [
            MaskSpec::Causal,
            MaskSpec::Full,
            MaskSpec::Lambda { sink: 3, window: 7 },
            MaskSpec::CausalBlockwise {
                block: 4,
                window_blocks: 2,
                sink_blocks: 1,
            },
            MaskSpec::SharedQuestion {
                question_len: 10,
                answer_lens: vec![8, 8, 6],
            },
        ];
        let len = 32u32;
        for spec in specs {
            let m = spec.instantiate(len).unwrap();
            for q_lo in (0..len).step_by(8) {
                for k_lo in (0..len).step_by(8) {
                    let mut dense = 0u64;
                    for q in q_lo..q_lo + 8 {
                        for k in k_lo..k_lo + 8 {
                            if m.is_allowed(q, k) {
                                dense += 1;
                            }
                        }
                    }
                    assert_eq!(
                        m.pair_count_block(q_lo, q_lo + 8, k_lo, k_lo + 8),
                        dense,
                        "{} block ({q_lo},{k_lo})",
                        spec.name()
                    );
                    assert_eq!(m.block_nonempty(q_lo, q_lo + 8, k_lo, k_lo + 8), dense > 0);
                }
            }
        }
    }

    #[test]
    fn sparsity_ordering_matches_paper() {
        // Lambda and causal-blockwise are sparser than shared-question,
        // which is sparser than causal (Sec. 7.1 observations).
        let len = 32768;
        let causal = MaskSpec::Causal
            .instantiate(len)
            .unwrap()
            .sparsity_vs_causal();
        let lambda = MaskSpec::paper_lambda()
            .instantiate(len)
            .unwrap()
            .sparsity_vs_causal();
        let cbw = MaskSpec::paper_causal_blockwise()
            .instantiate(len)
            .unwrap()
            .sparsity_vs_causal();
        let sq = MaskSpec::paper_shared_question(len)
            .instantiate(len)
            .unwrap()
            .sparsity_vs_causal();
        assert!((causal - 1.0).abs() < 1e-12);
        assert!(
            lambda < sq && cbw < sq && sq < causal,
            "lambda={lambda} cbw={cbw} sq={sq}"
        );
    }

    proptest! {
        #[test]
        fn subcausal_masks_always_attend_self(
            len in 1u32..300,
            sink in 0u32..8,
            window in 1u32..16,
        ) {
            let m = MaskSpec::Lambda { sink, window }.instantiate(len).unwrap();
            for t in 0..len {
                prop_assert!(m.is_allowed(t, t));
                prop_assert!(m.allowed(t).end() <= t + 1);
            }
        }

        #[test]
        fn total_pairs_equals_sum_of_disjoint_blocks(
            len in 8u32..200,
            bs in 1u32..16,
        ) {
            let m = MaskSpec::Causal.instantiate(len).unwrap();
            let mut total = 0u64;
            let mut q = 0;
            while q < len {
                let qh = (q + bs).min(len);
                let mut k = 0;
                while k < len {
                    let kh = (k + bs).min(len);
                    total += m.pair_count_block(q, qh, k, kh);
                    k = kh;
                }
                q = qh;
            }
            prop_assert_eq!(total, m.total_pairs());
        }

        #[test]
        fn merged_equals_set_union(
            s1 in 0u32..20, l1 in 0u32..10,
            s2 in 0u32..20, l2 in 0u32..10,
        ) {
            let r = RangePair::merged(s1, s1 + l1, s2, s2 + l2);
            for k in 0..40u32 {
                let expect = (s1 <= k && k < s1 + l1) || (s2 <= k && k < s2 + l2);
                prop_assert_eq!(r.contains(k), expect, "k={}", k);
            }
        }

        /// Walking the clipped spans visits exactly the keys `contains`
        /// accepts inside the window, ascending and once each — for raw
        /// (overlapping, reversed, empty) field values too.
        #[test]
        fn spans_in_walk_equals_contains(
            s1 in 0u32..20, l1 in 0u32..10,
            s2 in 0u32..20, l2 in 0u32..10,
            raw in any::<bool>(),
            lo in 0u32..30, wlen in 0u32..20,
        ) {
            let r = if raw {
                RangePair { a: (s1, s1 + l1), b: Some((s2, s2 + l2)) }
            } else {
                RangePair::merged(s1, s1 + l1, s2, s2 + l2)
            };
            let hi = lo + wlen;
            let spans = r.spans_in(lo, hi);
            let walked: Vec<u32> = spans.iter().flat_map(|&(s, e)| s..e).collect();
            let expect: Vec<u32> = (lo..hi).filter(|&k| r.contains(k)).collect();
            prop_assert_eq!(walked, expect);
            for (s, e) in spans {
                prop_assert!(lo <= s && s <= e && e <= hi.max(lo));
                prop_assert!(s < e || (s, e) == (lo, lo), "empty spans are (lo, lo)");
            }
        }

        #[test]
        fn shared_question_partition_of_pairs(
            qlen in 1u32..20,
            a1 in 1u32..20,
            a2 in 1u32..20,
        ) {
            let len = qlen + a1 + a2;
            let m = MaskSpec::SharedQuestion {
                question_len: qlen,
                answer_lens: vec![a1, a2],
            }
            .instantiate(len)
            .unwrap();
            // Expected: causal(question) + per-answer (causal(answer) + qlen * answer).
            let causal = |n: u64| n * (n + 1) / 2;
            let expect = causal(qlen as u64)
                + causal(a1 as u64) + qlen as u64 * a1 as u64
                + causal(a2 as u64) + qlen as u64 * a2 as u64;
            prop_assert_eq!(m.total_pairs(), expect);
        }
    }
}
