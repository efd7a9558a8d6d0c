//! Materialized masks: runs of tokens under one attend rule, per-token and
//! blockwise queries in closed form.

use dcp_types::{DcpError, DcpResult};
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

    /// The normalized pair, for ranges from outside the program.
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::InvalidMask`] if a range is reversed or ends past
    /// `len`. An empty range is dropped, as in [`RangePair::merged`].
    pub(crate) fn checked(&self, len: u32) -> DcpResult<Self> {
        let (a, b) = (self.a, self.b.unwrap_or((0, 0)));
        if [a, b].iter().any(|&(s, e)| s > e || e > len) {
            return Err(DcpError::InvalidMask(format!(
                "{self:?} is reversed or ends past the sequence ({len} tokens)"
            )));
        }
        Ok(RangePair::merged(a.0, a.1, b.0, b.1))
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

/// What the query tokens of one [`Run`] attend to. The two causal rules are
/// how every built-in family (and a packed document) moves from one token to
/// the next: the range ends at the token itself and starts either at a fixed
/// key or a fixed distance back, after an optional sink `[0, sink)`.
///
/// Canonical form (what [`Mask`] stores): `Since` has `sink == 0` or
/// `sink < start`, and `start` no later than the run's first token; `Window`
/// has `window >= 1` and a tail that starts at or after `sink` on the run's
/// first token. So the sink and the tail never overlap, and a rule that
/// holds for two or more tokens is the only one that does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Rule {
    /// The same keys for every token.
    Fixed(RangePair),
    /// Token `t` attends to `[0, sink) ∪ [start, t + 1)`.
    Since { sink: u32, start: u32 },
    /// Token `t` attends to `[0, sink) ∪ [t + 1 - window, t + 1)`.
    Window { sink: u32, window: u32 },
}

impl Rule {
    /// The attend ranges of token `t`.
    #[inline]
    fn at(self, t: u32) -> RangePair {
        // Canonical: the tail starts at or after the sink's end.
        let (sink, start) = match self {
            Rule::Fixed(r) => return r,
            Rule::Since { sink, start } => (sink, start),
            Rule::Window { sink, window } => (sink, t + 1 - window),
        };
        if sink == 0 || sink == start {
            let from = if sink == 0 { start } else { 0 };
            RangePair {
                a: (from, t + 1),
                b: None,
            }
        } else {
            RangePair {
                a: (0, sink),
                b: Some((start, t + 1)),
            }
        }
    }

    /// `Some((sink, start))` if `row` is what `Since { sink, start }` gives
    /// token `t`.
    fn since_of(row: RangePair, t: u32) -> Option<(u32, u32)> {
        match row.b {
            _ if row.end() != t + 1 => None,
            None => Some((0, row.a.0)),
            Some((start, _)) if row.a.0 == 0 => Some((row.a.1, start)),
            Some(_) => None,
        }
    }

    /// The canonical rule for tokens `[lo, hi)` of a `len`-token sequence.
    /// A single token is `Since` whenever its row has that shape, so one
    /// token has one name.
    fn canonical(self, lo: u32, hi: u32, len: u32) -> DcpResult<Rule> {
        let bad = |what: &str| {
            Err(DcpError::InvalidMask(format!(
                "tokens [{lo}, {hi}): {what}"
            )))
        };
        match self {
            Rule::Fixed(r) => {
                let r = r.checked(len)?;
                match Rule::since_of(r, lo) {
                    Some((sink, start)) if hi - lo == 1 => Ok(Rule::Since { sink, start }),
                    _ => Ok(Rule::Fixed(r)),
                }
            }
            Rule::Since { start, .. } if start > lo => bad("the tail starts after its query"),
            // The sink reaches the tail: plain causal.
            Rule::Since { sink, start } if sink >= start => Ok(Rule::Since { sink: 0, start: 0 }),
            Rule::Since { .. } => Ok(self),
            Rule::Window { window: 0, .. } => bad("empty window"),
            Rule::Window { sink, window } if sink as u64 + window as u64 > lo as u64 + 1 => {
                bad("the window reaches back past the end of the sink")
            }
            Rule::Window { sink, window } if hi - lo == 1 => {
                let start = lo + 1 - window;
                Rule::Since { sink, start }.canonical(lo, hi, len)
            }
            Rule::Window { .. } => Ok(self),
        }
    }
}

/// `Σ clamp(x, k_lo, k_hi)` over `x` in `[x0, x1)`: a constant head, an
/// arithmetic series, a constant tail.
fn clamped_sum(x0: u64, x1: u64, k_lo: u64, k_hi: u64) -> u64 {
    let u = k_lo.clamp(x0, x1);
    let v = k_hi.clamp(u, x1);
    (u - x0) * k_lo + (v - u) * (u + v).saturating_sub(1) / 2 + (x1 - v) * k_hi
}

/// Query tokens `[lo, hi)` that attend by one rule: a maximal such stretch
/// inside a [`Mask`], or its part inside a query window
/// ([`Mask::runs_in`]). Iterating a run yields its queries' attend ranges in
/// token order — the kernels' row cursor, one rule evaluation per row where
/// [`Mask::allowed`] also searches the runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Run {
    lo: u32,
    hi: u32,
    rule: Rule,
}

impl Iterator for Run {
    type Item = RangePair;

    #[inline]
    fn next(&mut self) -> Option<RangePair> {
        (self.lo < self.hi).then(|| {
            self.lo += 1;
            self.rule.at(self.lo - 1)
        })
    }
}

impl Run {
    /// The keys any of the run's queries attends to, as two disjoint spans
    /// in ascending order (an empty span is `(x, x)`). Every key inside
    /// them is attended by at least one query.
    pub fn keys(&self) -> [(u32, u32); 2] {
        match self.rule {
            Rule::Fixed(r) => [r.a, r.b.unwrap_or((r.a.1, r.a.1))],
            Rule::Since { sink, start } => [(0, sink), (start, self.hi)],
            Rule::Window { sink, window } => [(0, sink), (self.lo + 1 - window, self.hi)],
        }
    }

    /// Number of unmasked (query, key) pairs with the key in `[k_lo, k_hi)`,
    /// in closed form: per query the covered keys are
    /// `clamp(end) - clamp(start)` for each range, clamping to the window,
    /// and both ends are constant or move one key per query.
    pub fn pairs_in(&self, k_lo: u32, k_hi: u32) -> u64 {
        let n = (self.hi - self.lo) as u64;
        let (lo, hi) = (k_lo as u64, k_hi.max(k_lo) as u64);
        let clamp = |x: u32| (x as u64).clamp(lo, hi);
        // Σ clamp(t + 1 - back) over the run's queries t.
        let ends = |back: u32| {
            let x0 = (self.lo + 1 - back) as u64;
            clamped_sum(x0, x0 + n, lo, hi)
        };
        match self.rule {
            Rule::Fixed(r) => n * r.count_in(k_lo, k_hi),
            Rule::Since { sink, start } => n * (clamp(sink) - lo) + ends(0) - n * clamp(start),
            Rule::Window { sink, window } => n * (clamp(sink) - lo) + ends(0) - ends(window),
        }
    }

    /// One run for `self` followed by `next`, if a single canonical rule
    /// gives every token of both its row. Tried in the order that extends
    /// `self` as far as possible; a window shows only in the second of two
    /// tokens, which is why the pair is refitted.
    fn joined(&self, next: &Run, len: u32) -> Option<Run> {
        let single = |r: &Run| r.hi - r.lo == 1;
        let refit = match next.rule {
            Rule::Since { sink, start } if single(self) && single(next) => Some(Rule::Window {
                sink,
                window: next.hi - start,
            }),
            _ => None,
        };
        [Some(self.rule), Some(next.rule), refit]
            .into_iter()
            .flatten()
            .find_map(|rule| {
                let rule = rule.canonical(self.lo, next.hi, len).ok()?;
                let gives =
                    |r: &Run| rule == r.rule || (single(r) && rule.at(r.lo) == r.rule.at(r.lo));
                (gives(self) && gives(next)).then_some(Run {
                    lo: self.lo,
                    hi: next.hi,
                    rule,
                })
            })
    }
}

/// A mask bound to a concrete sequence length: the sorted maximal [`Run`]s
/// of query tokens that attend by one rule — one run for a causal mask, two
/// for a lambda mask (growing, then sliding), one per mask block or segment
/// for the blockwise and shared-question masks, and at worst one per token
/// for arbitrary ranges. No rule describes two neighbouring runs; where a
/// token between two causal runs fits either, it stays where its
/// description put it, so `==` compares descriptions: equal runs are equal
/// masks, not the other way round.
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Mask {
    len: u32,
    runs: Vec<Run>,
}

/// Reads `{"len", "runs"}` and the per-token form older plans hold,
/// `{"len", "ranges"}`; either way the runs are rebuilt and checked, so a
/// deserialized mask upholds what an instantiated one does.
impl Deserialize for Mask {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let len = u32::from_value(&v["len"])?;
        let mask = if v["runs"].is_null() {
            Mask::from_ranges(len, &Vec::from_value(&v["ranges"])?)
        } else {
            // Field by field: a `Run` exists only inside a checked mask.
            let mut runs = Vec::new();
            for r in Vec::<serde::Value>::from_value(&v["runs"])? {
                let lo = u32::from_value(&r["lo"])?;
                if runs.last().map_or(0, |&(hi, _)| hi) != lo {
                    return Err(serde::Error::custom(format!(
                        "mask run starts at token {lo}, not where the last one ends"
                    )));
                }
                runs.push((u32::from_value(&r["hi"])?, Rule::from_value(&r["rule"])?));
            }
            Mask::from_runs(len, runs)
        };
        mask.map_err(serde::Error::custom)
    }
}

impl Mask {
    /// Builds the mask whose consecutive runs end at the given tokens
    /// (`(hi, rule)`, the first starting at token 0; an entry that ends
    /// where it starts is skipped). Rules are made canonical and
    /// neighbours one rule describes are joined.
    pub(crate) fn from_runs(
        len: u32,
        runs: impl IntoIterator<Item = (u32, Rule)>,
    ) -> DcpResult<Self> {
        let mut out: Vec<Run> = Vec::new();
        let mut lo = 0;
        for (hi, rule) in runs {
            if hi == lo {
                continue;
            }
            if hi < lo || hi > len {
                return Err(DcpError::InvalidMask(format!(
                    "run [{lo}, {hi}) of a {len}-token sequence"
                )));
            }
            let rule = rule.canonical(lo, hi, len)?;
            let next = Run { lo, hi, rule };
            lo = hi;
            match out.last_mut() {
                Some(open) => match open.joined(&next, len) {
                    Some(both) => *open = both,
                    None => out.push(next),
                },
                None => out.push(next),
            }
        }
        if lo != len {
            return Err(DcpError::InvalidMask(format!(
                "runs cover {lo} tokens, sequence length is {len}"
            )));
        }
        Ok(Mask { len, runs: out })
    }

    /// Builds a mask from explicit per-token ranges, compressed into runs.
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::InvalidMask`] if there is not one entry per
    /// token, or a range is reversed or ends past the sequence.
    pub fn from_ranges(len: u32, ranges: &[RangePair]) -> DcpResult<Self> {
        if ranges.len() != len as usize {
            return Err(DcpError::InvalidMask(format!(
                "{} per-token entries, sequence length is {len}",
                ranges.len()
            )));
        }
        Mask::from_runs(len, (1..=len).zip(ranges.iter().map(|&r| Rule::Fixed(r))))
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
        let run = &self.runs[self.runs.partition_point(|r| r.hi <= t)];
        run.rule.at(t)
    }

    /// Whether query `q` attends to key `k`.
    pub fn is_allowed(&self, q: u32, k: u32) -> bool {
        self.allowed(q).contains(k)
    }

    /// The runs of queries `[q_lo, q_hi)`, each cut to that window, in
    /// token order.
    pub fn runs_in(&self, q_lo: u32, q_hi: u32) -> impl Iterator<Item = Run> + '_ {
        let first = self.runs.partition_point(|r| r.hi <= q_lo);
        let q_hi = q_hi.max(q_lo);
        self.runs[first..]
            .iter()
            .take_while(move |r| r.lo < q_hi)
            .map(move |r| Run {
                lo: r.lo.max(q_lo),
                hi: r.hi.min(q_hi),
                rule: r.rule,
            })
    }

    /// Total number of unmasked (query, key) pairs.
    pub fn total_pairs(&self) -> u64 {
        self.runs.iter().map(|r| r.pairs_in(0, self.len)).sum()
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
        self.runs_in(q_lo, q_hi)
            .map(|r| r.pairs_in(k_lo, k_hi))
            .sum()
    }

    /// Whether the block pair contains any unmasked entry.
    pub fn block_nonempty(&self, q_lo: u32, q_hi: u32, k_lo: u32, k_hi: u32) -> bool {
        self.runs_in(q_lo, q_hi).any(|r| r.pairs_in(k_lo, k_hi) > 0)
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
    fn mask_serializes_its_runs_and_reads_the_per_token_form_too() {
        let m = MaskSpec::Lambda { sink: 1, window: 1 }
            .instantiate(4)
            .unwrap();
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(
            json,
            concat!(
                r#"{"len":4,"runs":[{"hi":2,"lo":0,"rule":{"Since":{"sink":0,"start":0}}},"#,
                r#"{"hi":4,"lo":2,"rule":{"Window":{"sink":1,"window":1}}}]}"#
            )
        );
        assert_eq!(serde_json::from_str::<Mask>(&json).unwrap(), m);
        // What plans written before the run form hold: one entry per token.
        let old = concat!(
            r#"{"len":4,"ranges":[{"a":[0,1],"b":null},{"a":[0,2],"b":null},"#,
            r#"{"a":[0,1],"b":[2,3]},{"a":[0,1],"b":[3,4]}]}"#
        );
        assert_eq!(serde_json::from_str::<Mask>(old).unwrap(), m);
        assert!(serde_json::from_str::<Mask>("[3]").is_err());
    }

    /// Serialized runs are checked like built ones: tokens left uncovered,
    /// a gap, a tail that starts after its query, a window that reaches
    /// before token 0 or into the sink, keys past the end — each is an
    /// error, not a later panic.
    #[test]
    fn malformed_serialized_runs_are_errors() {
        for bad in [
            r#"{"len":5,"runs":[]}"#,
            r#"{"len":4,"runs":[{"lo":0,"hi":2,"rule":{"Since":{"sink":0,"start":0}}}]}"#,
            r#"{"len":4,"runs":[{"lo":1,"hi":4,"rule":{"Since":{"sink":0,"start":0}}}]}"#,
            r#"{"len":4,"runs":[{"lo":0,"hi":4,"rule":{"Since":{"sink":0,"start":2}}}]}"#,
            r#"{"len":4,"runs":[{"lo":0,"hi":4,"rule":{"Window":{"sink":0,"window":3}}}]}"#,
            r#"{"len":4,"runs":[{"lo":0,"hi":4,"rule":{"Window":{"sink":0,"window":0}}}]}"#,
            r#"{"len":8,"runs":[{"lo":0,"hi":4,"rule":{"Since":{"sink":0,"start":0}}},{"lo":4,"hi":8,"rule":{"Window":{"sink":3,"window":3}}}]}"#,
            r#"{"len":4,"runs":[{"lo":0,"hi":4,"rule":{"Fixed":{"a":[0,5],"b":null}}}]}"#,
            r#"{"len":4,"runs":[{"lo":0,"hi":9,"rule":{"Since":{"sink":0,"start":0}}}]}"#,
        ] {
            assert!(serde_json::from_str::<Mask>(bad).is_err(), "{bad}");
        }
        let m: Mask = serde_json::from_str(r#"{"len":0,"ranges":[]}"#).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn count_in_clamps() {
        let r = RangePair::merged(0, 4, 8, 12);
        assert_eq!(r.count_in(2, 10), 2 + 2);
        assert_eq!(r.count_in(4, 8), 0);
        assert_eq!(r.count_in(0, 100), 8);
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
