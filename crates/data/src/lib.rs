//! Synthetic long-context datasets and token-budget batching.
//!
//! The paper evaluates on LongAlign and LongDataCollections, whose defining
//! property (Fig. 2) is a *heavily skewed, long-tailed* sequence-length
//! distribution: short sequences vastly outnumber long ones, with LongAlign
//! shifted toward longer averages and fewer short sequences than
//! LongDataCollections. We reproduce the distribution *shape* with
//! log-normal samplers fit to those qualitative properties — the planner and
//! baselines only ever consume `(length, mask)` pairs, so the shape is what
//! drives every experiment.
//!
//! Batching follows the paper's setup: a global batch is filled with whole
//! sequences up to a token budget (131072 tokens in the micro-benchmarks),
//! with lengths capped at the maximum sequence length. The paper's
//! sequence-length *scale* variants (x0.5, x1, x2, x4) multiply every length
//! before capping.

use dcp_mask::MaskSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// Which dataset's length distribution to sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Long-context alignment data: longer average, fewer short sequences.
    LongAlign,
    /// A compilation of long-input understanding datasets: many short
    /// sequences, long tail.
    LongDataCollections,
}

impl DatasetKind {
    /// The log-normal parameters `(mu, sigma)` of the length distribution.
    fn params(&self) -> (f64, f64) {
        match self {
            // Median ~12k, moderate spread.
            DatasetKind::LongAlign => (9.4, 1.0),
            // Median ~3k, heavy tail.
            DatasetKind::LongDataCollections => (8.0, 1.5),
        }
    }

    /// Display name used by the harnesses.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::LongAlign => "LongAlign",
            DatasetKind::LongDataCollections => "LongDataCollections",
        }
    }
}

/// The endless stream of sequence lengths from `kind`'s distribution,
/// multiplied by `scale` and clamped to `[32, cap]`. Deterministic for a
/// given seed.
fn lengths(kind: DatasetKind, scale: f64, cap: u32, seed: u64) -> impl Iterator<Item = u32> {
    assert!(scale > 0.0 && cap >= 32, "degenerate sampler parameters");
    let (mu, sigma) = kind.params();
    let dist = LogNormal::new(mu, sigma).expect("valid lognormal parameters");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    std::iter::repeat_with(move || ((dist.sample(&mut rng) * scale) as u32).clamp(32, cap))
}

/// The first `n` sequence lengths of `kind`'s distribution, multiplied by
/// `scale` and clamped to `[32, cap]`.
///
/// Deterministic for a given seed.
pub fn sample_lengths(kind: DatasetKind, n: usize, scale: f64, cap: u32, seed: u64) -> Vec<u32> {
    lengths(kind, scale, cap, seed).take(n).collect()
}

/// The first `n` batches of at most `budget` tokens packed (as by
/// [`pack_batches`]) from the length stream [`sample_lengths`] draws from,
/// every one closed: the sequence after it did not fit. Lengths are drawn
/// lazily, only until the `n`-th batch closes.
pub fn sample_batches(
    kind: DatasetKind,
    n: usize,
    scale: f64,
    cap: u32,
    budget: u64,
    mask: MaskSetting,
    seed: u64,
) -> Vec<Batch> {
    let lengths = lengths(kind, scale, cap, seed);
    packed(lengths, budget, |l| mask.mask_for(l))
        .take(n)
        .collect()
}

/// One training batch: whole sequences with their masks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Batch {
    /// `(length, mask)` of every sequence in the batch.
    pub seqs: Vec<(u32, MaskSpec)>,
}

impl Batch {
    /// Total tokens in the batch.
    pub fn tokens(&self) -> u64 {
        self.seqs.iter().map(|(l, _)| *l as u64).sum()
    }
}

/// Packs `lengths` (in order) into batches of at most `budget` tokens,
/// assigning each sequence the mask produced by `mask_fn(len)` — the
/// paper's user-defined mask function (Listing 2).
///
/// A sequence longer than the budget is truncated to the budget. Batches
/// always contain at least one sequence.
pub fn pack_batches(
    lengths: &[u32],
    budget: u64,
    mask_fn: impl FnMut(u32) -> MaskSpec,
) -> Vec<Batch> {
    packed(lengths.iter().copied(), budget, mask_fn).collect()
}

/// [`pack_batches`] as a lazy iterator: a batch is yielded once the next
/// length does not fit, or the lengths end.
fn packed(
    lengths: impl Iterator<Item = u32>,
    budget: u64,
    mut mask_fn: impl FnMut(u32) -> MaskSpec,
) -> impl Iterator<Item = Batch> {
    assert!(budget >= 32, "budget too small");
    // The shorter of the two fits a u32.
    let mut lengths = lengths
        .map(move |len| u64::from(len).min(budget) as u32)
        .peekable();
    std::iter::from_fn(move || {
        let mut seqs = Vec::new();
        let mut tokens = 0u64;
        while let Some(len) =
            lengths.next_if(|&len| seqs.is_empty() || tokens + u64::from(len) <= budget)
        {
            seqs.push((len, mask_fn(len)));
            tokens += u64::from(len);
        }
        (!seqs.is_empty()).then_some(Batch { seqs })
    })
}

/// The paper's four mask settings as mask functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaskSetting {
    /// Standard causal mask.
    Causal,
    /// Lambda mask: 64 sink tokens, window 4096.
    Lambda,
    /// Causal blockwise: mask block 256, window 2, one sink block.
    CausalBlockwise,
    /// Shared question: one question and 4 answers of 20% each.
    SharedQuestion,
}

impl MaskSetting {
    /// All four settings, in the paper's plotting order.
    pub const ALL: [MaskSetting; 4] = [
        MaskSetting::Causal,
        MaskSetting::Lambda,
        MaskSetting::CausalBlockwise,
        MaskSetting::SharedQuestion,
    ];

    /// The mask for a sequence of `len` tokens.
    pub fn mask_for(&self, len: u32) -> MaskSpec {
        match self {
            MaskSetting::Causal => MaskSpec::Causal,
            MaskSetting::Lambda => MaskSpec::paper_lambda(),
            MaskSetting::CausalBlockwise => MaskSpec::paper_causal_blockwise(),
            MaskSetting::SharedQuestion => MaskSpec::paper_shared_question(len),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MaskSetting::Causal => "causal",
            MaskSetting::Lambda => "lambda",
            MaskSetting::CausalBlockwise => "causal_blockwise",
            MaskSetting::SharedQuestion => "shared_question",
        }
    }
}

/// A histogram of sequence lengths over logarithmic bins (Fig. 2).
///
/// Returns `(bin_upper_bounds, counts)`.
pub fn log_histogram(lengths: &[u32], bins: usize, cap: u32) -> (Vec<u32>, Vec<usize>) {
    assert!(bins >= 2);
    let lo = 32f64;
    let hi = cap as f64;
    let edges: Vec<u32> = (1..=bins)
        .map(|i| (lo * (hi / lo).powf(i as f64 / bins as f64)).round() as u32)
        .collect();
    let mut counts = vec![0usize; bins];
    for &l in lengths {
        let idx = edges.iter().position(|&e| l <= e).unwrap_or(bins - 1);
        counts[idx] += 1;
    }
    (edges, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let a = sample_lengths(DatasetKind::LongAlign, 500, 1.0, 131072, 7);
        let b = sample_lengths(DatasetKind::LongAlign, 500, 1.0, 131072, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&l| (32..=131072).contains(&l)));
        // Fewer draws are a prefix of the same stream.
        assert_eq!(
            a[..100],
            sample_lengths(DatasetKind::LongAlign, 100, 1.0, 131072, 7)
        );
    }

    #[test]
    fn sampled_batches_are_the_closed_batches_of_the_stream() {
        for (kind, n, budget) in [
            (DatasetKind::LongAlign, 3, 32768u64),
            (DatasetKind::LongDataCollections, 5, 131072),
        ] {
            let lengths = sample_lengths(kind, n * 64, 1.0, budget as u32, 7);
            let packed = pack_batches(&lengths, budget, |l| MaskSetting::Lambda.mask_for(l));
            assert!(packed.len() > n, "the draw closes {n} batches");
            let lazy = sample_batches(kind, n, 1.0, budget as u32, budget, MaskSetting::Lambda, 7);
            assert_eq!(lazy, packed[..n]);
        }
    }

    #[test]
    fn distributions_are_skewed_and_ordered() {
        let la = sample_lengths(DatasetKind::LongAlign, 4000, 1.0, 131072, 1);
        let ldc = sample_lengths(DatasetKind::LongDataCollections, 4000, 1.0, 131072, 1);
        let mean = |v: &[u32]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        let median = |v: &[u32]| {
            let mut s = v.to_vec();
            s.sort_unstable();
            s[s.len() / 2]
        };
        // LongAlign has longer average sequences than LDC (paper Sec. 7.2).
        assert!(mean(&la) > mean(&ldc));
        // Skew: mean well above median for both (long tail).
        assert!(mean(&ldc) > 1.5 * median(&ldc) as f64);
        // LDC has more short sequences (paper: higher causal-mask speedup
        // on LDC because of this).
        let short = |v: &[u32]| v.iter().filter(|&&l| l < 4096).count();
        assert!(short(&ldc) > 2 * short(&la));
    }

    #[test]
    fn scale_multiplies_lengths() {
        let x1 = sample_lengths(DatasetKind::LongDataCollections, 1000, 1.0, u32::MAX, 3);
        let x2 = sample_lengths(DatasetKind::LongDataCollections, 1000, 2.0, u32::MAX, 3);
        for (a, b) in x1.iter().zip(&x2) {
            if *a > 32 && *b < u32::MAX {
                let ratio = *b as f64 / *a as f64;
                assert!((ratio - 2.0).abs() < 0.1, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn packing_respects_budget() {
        let lengths = sample_lengths(DatasetKind::LongDataCollections, 300, 1.0, 131072, 11);
        let budget = 131072u64;
        let batches = pack_batches(&lengths, budget, |_| MaskSpec::Causal);
        assert!(!batches.is_empty());
        let mut total = 0u64;
        for b in &batches {
            assert!(b.tokens() <= budget, "batch over budget: {}", b.tokens());
            assert!(!b.seqs.is_empty());
            total += b.tokens();
        }
        // No sequence lost (all were <= budget already).
        let expect: u64 = lengths.iter().map(|&l| l as u64).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn oversized_sequence_truncated() {
        let batches = pack_batches(&[100, 999_999, 50], 1000, |_| MaskSpec::Causal);
        // The truncated sequence exactly fills a batch of its own.
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].seqs, vec![(100, MaskSpec::Causal)]);
        assert_eq!(batches[1].seqs, vec![(1000, MaskSpec::Causal)]);
        assert_eq!(batches[2].seqs, vec![(50, MaskSpec::Causal)]);
    }

    #[test]
    fn mask_settings_instantiate() {
        for s in MaskSetting::ALL {
            let m = s.mask_for(65536);
            m.instantiate(65536).unwrap();
        }
        // Shared question adapts to the length.
        let m = MaskSetting::SharedQuestion.mask_for(1000);
        assert_eq!(m.instantiate(1000).unwrap().len(), 1000);
    }

    #[test]
    fn histogram_covers_everything() {
        let lengths = sample_lengths(DatasetKind::LongAlign, 2000, 1.0, 131072, 5);
        let (edges, counts) = log_histogram(&lengths, 16, 131072);
        assert_eq!(edges.len(), 16);
        assert_eq!(counts.iter().sum::<usize>(), 2000);
        assert_eq!(*edges.last().unwrap(), 131072);
    }
}
