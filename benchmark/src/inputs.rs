//! The input generator: everything a run feeds the program under test, made
//! from `--seed`.
//!
//! The *corpus* of each workload is fixed — a slice of one
//! `dcp_data::sample_lengths` draw at [`CORPUS_SEED`], dealt into batches
//! largest-first onto the least-loaded batch — so every run of a workload
//! has the same documents in the same batches, the same tokens and the same
//! attention work. `--seed` is the epoch seed on top of that corpus: the
//! order of documents inside each batch (except the stream's base batches),
//! the order of the batches, every tensor value, and the length drift and
//! order of the re-planning stream. The planner numbers blocks in batch
//! order, so a new seed is a new planning problem of equal size (see README,
//! "Seeds").

use dcp_core::{IncrementalConfig, PlannerConfig};
use dcp_data::{sample_lengths, DatasetKind, MaskSetting};
use dcp_mask::MaskSpec;
use dcp_sched::PassConfig;
use dcp_sim::{Fault, FaultSpec};
use dcp_types::{AttnSpec, ClusterSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::{mix, Fnv};

/// Seed of the fixed corpus draw (never `--seed`).
const CORPUS_SEED: u64 = 2025;
/// Documents drawn per corpus; pools are consecutive slices of it.
const CORPUS_DOCS: usize = 8192;
/// Share of the token budget a dealt batch is filled to.
const FILL: f64 = 0.97;

/// One batch: `(length, mask)` per sequence.
pub type Seqs = Vec<(u32, MaskSpec)>;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ExecDense,
    ExecSparse,
    PlanCold,
    ReplanStream,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ExecDense,
        Kind::ExecSparse,
        Kind::PlanCold,
        Kind::ReplanStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ExecDense => "exec_dense",
            Kind::ExecSparse => "exec_sparse",
            Kind::PlanCold => "plan_cold",
            Kind::ReplanStream => "replan_stream",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether the chain executes plans numerically.
    pub fn executes(self) -> bool {
        matches!(self, Kind::ExecDense | Kind::ExecSparse)
    }
}

/// Batches that share a cluster, an attention shape and a planner config.
#[derive(Debug, Clone)]
pub struct Group {
    pub cluster: ClusterSpec,
    pub attn: AttnSpec,
    pub cfg: PlannerConfig,
    pub batches: Vec<Seqs>,
}

/// How a stream batch relates to its base batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The base batch again: served by the exact LRU.
    Exact,
    /// The base batch again on the planner whose exact cache is off: the
    /// near-hit tier replays the stored plan (block-identical layout).
    Identical,
    /// Same per-sequence block counts, shifted lengths: warm delta refinement.
    Drift,
}

/// One batch of the re-planning stream.
#[derive(Debug, Clone)]
pub struct StreamItem {
    pub class: Class,
    /// Index of the base batch it derives from.
    pub base: usize,
    pub seqs: Seqs,
}

/// Everything generated from the seed for one workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pub groups: Vec<Group>,
    /// `replan_stream` only: the timed stream over group 0's base batches,
    /// and the config of the second planner (exact cache off).
    pub stream: Vec<StreamItem>,
    pub cfg_no_exact_cache: Option<PlannerConfig>,
    /// `plan_cold` only: the fault set of the second simulation.
    pub fault: Option<FaultSpec>,
}

impl Inputs {
    /// Number of batches over all groups.
    pub fn num_batches(&self) -> usize {
        self.groups.iter().map(|g| g.batches.len()).sum()
    }

    /// `(group, batch)` pairs in flat batch order.
    pub fn flat(&self) -> impl Iterator<Item = (&Group, &Seqs)> {
        self.groups
            .iter()
            .flat_map(|g| g.batches.iter().map(move |b| (g, b)))
    }

    /// Tokens one round pushes through the chain.
    pub fn round_tokens(&self) -> u64 {
        let tokens = |s: &Seqs| s.iter().map(|(l, _)| *l as u64).sum::<u64>();
        if self.kind == Kind::ReplanStream {
            self.stream.iter().map(|i| tokens(&i.seqs)).sum()
        } else {
            self.flat().map(|(_, b)| tokens(b)).sum()
        }
    }

    /// Batches one round attempts.
    pub fn round_batches(&self) -> usize {
        if self.kind == Kind::ReplanStream {
            self.stream.len()
        } else {
            self.num_batches()
        }
    }

    /// Seed of batch `i`'s Q/K/V tensors (`+ 1` for its output gradients).
    pub fn data_seed(&self, i: usize) -> u64 {
        mix(self.seed, 0xda7a_0000 + 2 * i as u64)
    }

    /// FNV-1a over everything the program under test receives.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        let seqs = |h: &mut Fnv, s: &Seqs| {
            h.bytes(
                serde_json::to_string(s)
                    .expect("sequences serialize")
                    .as_bytes(),
            )
        };
        for g in &self.groups {
            h.bytes(
                serde_json::to_string(&(&g.cluster, &g.attn, &g.cfg))
                    .expect("group serializes")
                    .as_bytes(),
            );
            g.batches.iter().for_each(|b| seqs(&mut h, b));
        }
        for it in &self.stream {
            h.u64(it.base as u64 * 4 + it.class as u64);
            seqs(&mut h, &it.seqs);
        }
        if self.kind.executes() {
            (0..self.num_batches()).for_each(|i| h.u64(self.data_seed(i)));
        }
        if let Some(f) = &self.fault {
            h.bytes(
                serde_json::to_string(f)
                    .expect("fault spec serializes")
                    .as_bytes(),
            );
        }
        h.0
    }
}

pub(crate) fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Consecutive pools cut from one fixed corpus.
struct Corpus {
    lengths: Vec<u32>,
    at: usize,
}

impl Corpus {
    fn new(kind: DatasetKind, scale: f64, cap: u32) -> Self {
        Corpus {
            lengths: sample_lengths(kind, CORPUS_DOCS, scale, cap, CORPUS_SEED),
            at: 0,
        }
    }

    /// The next documents summing to exactly `total` tokens (the last one
    /// trimmed), dealt into `batches` batches, largest document first onto
    /// the batch with the fewest tokens.
    fn deal(&mut self, batches: usize, budget: u64) -> Vec<Vec<u32>> {
        let total = (batches as f64 * budget as f64 * FILL) as u64;
        let mut docs = Vec::new();
        let mut sum = 0u64;
        while sum < total {
            let len = self.lengths[self.at % self.lengths.len()] as u64;
            self.at += 1;
            let len = len.min(total - sum);
            if len >= 32 {
                docs.push(len as u32);
            }
            sum += len;
        }
        docs.sort_unstable_by(|a, b| b.cmp(a));
        let mut bins = vec![Vec::new(); batches];
        let mut load = vec![0u64; batches];
        for d in docs {
            let k = (0..batches).min_by_key(|&k| load[k]).expect("batches > 0");
            load[k] += d as u64;
            bins[k].push(d);
        }
        bins
    }
}

/// Applies the epoch seed to dealt batches: shuffles documents inside each
/// batch, attaches masks, then shuffles the batches.
fn epoch(
    bins: Vec<Vec<u32>>,
    mut mask_of: impl FnMut(usize, u32) -> MaskSpec,
    rng: &mut SmallRng,
) -> Vec<Seqs> {
    let mut out: Vec<Seqs> = bins
        .into_iter()
        .enumerate()
        .map(|(b, mut docs)| {
            shuffle(&mut docs, rng);
            docs.into_iter().map(|l| (l, mask_of(b, l))).collect()
        })
        .collect();
    shuffle(&mut out, rng);
    out
}

fn planner_cfg(block_size: u32) -> PlannerConfig {
    PlannerConfig {
        block_size,
        passes: PassConfig::optimize(),
        ..PlannerConfig::default()
    }
}

/// The paper's mask parameters divided down to the executor workloads'
/// 4096-token batches, plus a three-document packed mask: windows and mask
/// blocks that do not align with the 64-token planner blocks, so blocks are
/// partly masked.
fn small_mask(which: usize, len: u32) -> MaskSpec {
    match which % 4 {
        0 => MaskSpec::Lambda {
            sink: 24,
            window: 500,
        },
        1 => MaskSpec::CausalBlockwise {
            block: 96,
            window_blocks: 2,
            sink_blocks: 1,
        },
        2 => MaskSpec::paper_shared_question(len),
        _ => {
            let a = len / 2;
            let b = len / 3;
            MaskSpec::packed_documents(&[a, b, len - a - b])
        }
    }
}

/// A drifted copy of `seqs`: every length moves by up to ±64 tokens inside
/// its own block bucket, so the bucketed histogram (the near-hit key) is
/// unchanged. `None` for batches whose mask spec embeds the length
/// (shared-question): a shifted length is then a different mask, which the
/// near-hit tier can never match.
pub(crate) fn drift(seqs: &Seqs, block: u32, rng: &mut SmallRng) -> Option<Seqs> {
    if seqs
        .iter()
        .any(|(_, m)| matches!(m, MaskSpec::SharedQuestion { .. } | MaskSpec::Custom(_)))
    {
        return None;
    }
    Some(
        seqs.iter()
            .map(|(len, m)| {
                let nb = len.div_ceil(block);
                let lo = ((nb - 1) * block + 1).max(32);
                let hi = nb * block;
                let moved = (*len as i64 + rng.gen_range(-64i64..65)).clamp(lo as i64, hi as i64);
                (moved as u32, m.clone())
            })
            .collect(),
    )
}

/// Repetitions of (exact, identical, drifted) per base batch in the stream.
const STREAM_REPS: usize = 16;

/// Generates the inputs of `kind` from `seed`.
pub fn generate(kind: Kind, seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(mix(seed, kind as u64));
    let mut inputs = Inputs {
        kind,
        seed,
        groups: Vec::new(),
        stream: Vec::new(),
        cfg_no_exact_cache: None,
        fault: None,
    };
    match kind {
        Kind::ExecDense => {
            let mut corpus = Corpus::new(DatasetKind::LongAlign, 1.0 / 32.0, 768);
            inputs.groups.push(Group {
                cluster: ClusterSpec::p4de(2),
                attn: AttnSpec::new(4, 2, 64, 1),
                cfg: planner_cfg(128),
                batches: epoch(corpus.deal(6, 1024), |_, _| MaskSpec::Causal, &mut rng),
            });
        }
        Kind::ExecSparse => {
            let mut corpus = Corpus::new(DatasetKind::LongDataCollections, 0.25, 4096);
            inputs.groups.push(Group {
                cluster: ClusterSpec::p4de(2),
                attn: AttnSpec::new(4, 2, 16, 1),
                cfg: planner_cfg(64),
                batches: epoch(corpus.deal(4, 4096), small_mask, &mut rng),
            });
        }
        Kind::PlanCold => {
            let mut corpus = Corpus::new(DatasetKind::LongDataCollections, 1.0, 131_072);
            let cold = |block| PlannerConfig {
                plan_cache: 0,
                ..planner_cfg(block)
            };
            inputs.groups.push(Group {
                cluster: ClusterSpec::p4de(4),
                attn: AttnSpec::paper_micro(),
                cfg: cold(1024),
                batches: epoch(
                    corpus.deal(8, 131_072),
                    |b, l| MaskSetting::ALL[b % 4].mask_for(l),
                    &mut rng,
                ),
            });
            // Weak scaling: 2048 tokens per device on a 256-device
            // leaf/spine fabric.
            inputs.groups.push(Group {
                cluster: ClusterSpec::p4de_spine(32, 4, 4.0),
                attn: AttnSpec::paper_micro(),
                cfg: cold(2048),
                batches: epoch(
                    corpus.deal(2, 256 * 2048),
                    |_, _| MaskSpec::Causal,
                    &mut rng,
                ),
            });
            inputs.fault = Some(FaultSpec {
                seed: 7,
                faults: vec![
                    Fault::Straggler {
                        device: 0,
                        slowdown: 4.0,
                    },
                    Fault::DegradedLink {
                        src: 8,
                        dst: 0,
                        factor: 0.25,
                    },
                ],
            });
        }
        Kind::ReplanStream => {
            let mut corpus = Corpus::new(DatasetKind::LongDataCollections, 1.0, 131_072);
            let cfg = PlannerConfig {
                incremental: IncrementalConfig {
                    enabled: true,
                    ..IncrementalConfig::default()
                },
                ..planner_cfg(1024)
            };
            // The base batches are part of the corpus, whatever the seed: the
            // seed is what changes from one epoch to the next, the drift and
            // the order of the stream. (Four base plans are too few to
            // average the partitioner's order sensitivity out of the modelled
            // metrics; see README, "Bounds".)
            let base = epoch(
                corpus.deal(4, 131_072),
                |b, l| MaskSetting::ALL[b % 4].mask_for(l),
                &mut SmallRng::seed_from_u64(mix(CORPUS_SEED, kind as u64)),
            );
            for _ in 0..STREAM_REPS {
                for (b, seqs) in base.iter().enumerate() {
                    let mut push = |class, seqs| {
                        inputs.stream.push(StreamItem {
                            class,
                            base: b,
                            seqs,
                        })
                    };
                    push(Class::Exact, seqs.clone());
                    push(Class::Identical, seqs.clone());
                    match drift(seqs, cfg.block_size, &mut rng) {
                        Some(d) => push(Class::Drift, d),
                        // A batch that cannot drift repeats exactly.
                        None => push(Class::Exact, seqs.clone()),
                    }
                }
            }
            shuffle(&mut inputs.stream, &mut rng);
            inputs.cfg_no_exact_cache = Some(PlannerConfig {
                plan_cache: 0,
                ..cfg.clone()
            });
            inputs.groups.push(Group {
                cluster: ClusterSpec::p4de(4),
                attn: AttnSpec::paper_micro(),
                cfg,
                batches: base,
            });
        }
    }
    inputs
}
