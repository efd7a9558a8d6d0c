//! The per-batch DCP planner: block generation, hierarchical hypergraph
//! placement, and division scheduling (paper Sec. 4).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use dcp_blocks::{BatchLayout, BlockConfig, CompBlock, TokenBlock, TokenBlockId};
use dcp_hypergraph::{
    partition_warm_with_stats, partition_with_stats, Hypergraph, HypergraphBuilder,
    PartitionConfig, PartitionStats, PartitionWork,
};
use dcp_mask::MaskSpec;
use dcp_obs::{Event, ObsHandle, Source as ObsSource, Span};
use dcp_sched::{
    build_plan, verify_plan, ExecutionPlan, PassConfig, PassManager, PassOutcome, Placement,
    ScheduleConfig,
};
use dcp_types::{AttnSpec, ClusterSpec, DcpError, DcpResult, PlanTier};
use serde::{Deserialize, Serialize};

/// Planner hyper-parameters (the paper's defaults from Sec. 7.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Sequence-dimension block size (the paper searches {512, 1024, 2048,
    /// 4096}).
    pub block_size: u32,
    /// Head groups; `None` uses one group per KV head.
    pub head_blocks: Option<u32>,
    /// Number of divisions for computation/communication overlap.
    pub divisions: u32,
    /// Inter-node computation imbalance tolerance (paper: 0.4).
    pub eps_inter: f64,
    /// Intra-node computation imbalance tolerance (paper: 0.1).
    pub eps_intra: f64,
    /// Partitioner seed (plans are deterministic given the seed).
    pub seed: u64,
    /// Hierarchical (machines → devices) placement; `false` partitions
    /// directly over all devices (ablation).
    pub hierarchical: bool,
    /// Enable FM refinement in the partitioner (ablation).
    pub refine: bool,
    /// Capacity of the signature-keyed plan cache (LRU entries). Long-context
    /// corpora repeat batch shapes constantly, so identical (lengths, masks,
    /// cluster, config) batches reuse the finished plan instead of
    /// re-partitioning. `0` disables caching.
    #[serde(default = "default_plan_cache")]
    pub plan_cache: usize,
    /// Dead-communication elimination over the rendered instruction
    /// streams (`dcp_sched::passes`), off by default. The scheduler emits
    /// no dead transfer, so the plan is the same either way; enabled
    /// ([`PassConfig::optimize`]), the run is timed and reported in
    /// [`PlanOutput::passes`].
    #[serde(default)]
    pub passes: PassConfig,
    /// Incremental re-planning: warm-start the partitioner from a similar
    /// previous batch's placement instead of re-coarsening from scratch.
    /// Disabled by default (cold planning everywhere).
    #[serde(default)]
    pub incremental: IncrementalConfig,
}

fn default_plan_cache() -> usize {
    64
}

/// Configuration of the incremental (warm-start) planning path.
///
/// On an exact-cache miss, a similarity-keyed *near hit* (same bucketed
/// length histogram, mask multiset, cluster and semantic config) supplies
/// the previous batch's placement as a warm-start seed: blocks are mapped to
/// their old parts by identity, the FM refiner polishes only the delta, and
/// coarsening plus initial partitioning are skipped entirely. The result is
/// accepted only when balanced and within [`Self::max_regression`] of the
/// seeding plan's volume-scaled communication cost — otherwise the planner
/// falls back to cold planning, so the warm path can never ship a bad plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalConfig {
    /// Master switch; `false` (the default) plans every batch cold. When
    /// set, the near-hit tier keeps the 8 most recently used seeds.
    #[serde(default)]
    pub enabled: bool,
    /// Accept a warm-started placement only while its communication bytes
    /// stay within this factor of the seeding plan's cost, scaled by the
    /// ratio of total hyperedge weight between the two batches (a bigger
    /// batch is allowed proportionally more volume).
    #[serde(default = "default_incremental_regression")]
    pub max_regression: f64,
}

fn default_incremental_regression() -> f64 {
    1.25
}

/// Capacity of the near-hit seed cache (LRU entries).
const NEAR_CACHE: usize = 8;

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            enabled: false,
            max_regression: default_incremental_regression(),
        }
    }
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            block_size: 1024,
            head_blocks: None,
            divisions: 4,
            eps_inter: 0.4,
            eps_intra: 0.1,
            seed: 0xdc9,
            hierarchical: true,
            refine: true,
            plan_cache: default_plan_cache(),
            passes: PassConfig::default(),
            incremental: IncrementalConfig::default(),
        }
    }
}

/// Wall-clock time spent in each planning stage (the paper's Fig. 18).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlanningTimes {
    /// Block generation seconds.
    pub block_gen: f64,
    /// Hypergraph construction + partitioning seconds.
    pub partition: f64,
    /// Division scheduling + instruction emission seconds.
    pub schedule: f64,
}

impl PlanningTimes {
    /// Total planning seconds.
    pub fn total(&self) -> f64 {
        self.block_gen + self.partition + self.schedule
    }
}

/// Per-call planning performance counters: cache outcome plus a per-stage
/// breakdown of where partitioning time went. Stage times are summed over
/// every sub-partition of the hierarchy (CPU seconds, not wall-clock, when
/// sub-problems run in parallel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Whether this output was served from the plan cache. On a hit the
    /// stage times below are zero and `total_s` is the lookup time.
    pub cache_hit: bool,
    /// Whether this plan was produced by the incremental path: a near-hit
    /// seed warm-started the partitioner and the result passed the quality
    /// bound. Exact cache hits and cold plans leave this `false`.
    #[serde(default)]
    pub near_hit: bool,
    /// Partitioner coarsening seconds (including V-cycle re-coarsening).
    pub coarsen_s: f64,
    /// Initial-partitioning seconds at the coarsest levels.
    pub initial_s: f64,
    /// FM refinement and balance-repair seconds.
    pub refine_s: f64,
    /// Division scheduling + instruction emission seconds.
    pub schedule_s: f64,
    /// End-to-end seconds for this `plan()` call.
    pub total_s: f64,
    /// The partitioner's deterministic work counters, summed over every
    /// sub-partition (matching levels, rounds, proposals, pins scanned; FM
    /// moves applied and rolled back).
    #[serde(default)]
    pub work: PartitionWork,
}

/// Everything the planner produces for one batch. Serializable so planned
/// batches survive a dataloader snapshot/restore cycle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanOutput {
    /// The block decomposition.
    pub layout: BatchLayout,
    /// The device placement chosen by hypergraph partitioning.
    pub placement: Placement,
    /// The scheduled instruction streams.
    pub plan: ExecutionPlan,
    /// Stage timings.
    pub times: PlanningTimes,
    /// Which placement produced this plan: always
    /// [`PlanTier::Partitioned`], the planner's one placement.
    pub tier: PlanTier,
    /// Cache outcome and per-stage timing for this call.
    pub stats: PlanStats,
    /// What dead-communication elimination changed in each phase (empty
    /// when [`PlannerConfig::passes`] is disabled, and when deserialized
    /// from a plan that predates the field).
    #[serde(default)]
    pub passes: Vec<PassOutcome>,
}

impl PlanOutput {
    /// Number of devices the plan targets.
    pub fn num_devices(&self) -> u32 {
        self.plan.num_devices
    }
}

/// A near-hit tier entry: a planned batch and its finished output, the same
/// allocation the exact cache holds. The output is both the replay of the
/// batch itself and the warm-start seed of a batch of its shape.
#[derive(Debug)]
struct NearEntry {
    /// The batch's ordered `(length, mask)` list. Only the same batch again
    /// replays `out`: block keys alone do not pin a layout (two masks can
    /// make the same block pairs with other pair counts).
    seqs: Vec<(u32, MaskSpec)>,
    out: Arc<PlanOutput>,
}

/// A block's identity across batches.
type BlockKey = (u32, u32, u32, u32);

/// `(seq, head_block, start, len)`.
fn token_key(tb: &TokenBlock) -> BlockKey {
    (tb.seq, tb.head_block, tb.start, tb.len)
}

/// `(seq, head_block, q_start, kv_start)`.
fn comp_key(layout: &BatchLayout, cb: &CompBlock) -> BlockKey {
    let start = |tb: TokenBlockId| layout.token_blocks[tb.0 as usize].start;
    (cb.seq, cb.head_block, start(cb.q_block), start(cb.kv_block))
}

/// The old part of each of `new`'s keys, `None` where `old` has no such key.
/// Both must ascend strictly, which makes this one merge: layouts emit their
/// blocks in key order.
fn merge_parts(
    new: impl Iterator<Item = BlockKey>,
    old: impl Iterator<Item = (BlockKey, u32)>,
) -> impl Iterator<Item = Option<u32>> {
    let mut old = old.peekable();
    new.map(move |key| {
        while old.next_if(|&(k, _)| k < key).is_some() {}
        old.next_if(|&(k, _)| k == key).map(|(_, p)| p)
    })
}

/// Per token block, the computation blocks reading it through `side`
/// (`q_block` or `kv_block`), by one stable counting sort of `comp_blocks`:
/// token block `i`'s are `ids[off[i]..off[i + 1]]`, ascending, as `(off,
/// ids)`.
fn readers(layout: &BatchLayout, side: fn(&CompBlock) -> TokenBlockId) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; layout.token_blocks.len() + 1];
    for cb in &layout.comp_blocks {
        off[side(cb).0 as usize + 1] += 1;
    }
    for i in 1..off.len() {
        off[i] += off[i - 1];
    }
    let (mut next, mut ids) = (off.clone(), vec![0u32; layout.comp_blocks.len()]);
    for (c, cb) in layout.comp_blocks.iter().enumerate() {
        let at = &mut next[side(cb).0 as usize];
        ids[*at as usize] = c as u32;
        *at += 1;
    }
    (off, ids)
}

/// A string-keyed LRU map with lookup counters, shared (behind
/// `Arc<Mutex<_>>`) across clones of a [`Planner`] so dataloader workers
/// planning on separate threads reuse each other's work. Values are shared
/// too: a lookup hands out an `Arc`, and whoever needs an owned copy clones
/// it after releasing the lock.
#[derive(Debug)]
struct Lru<V> {
    /// Maximum number of entries; `0` stores nothing.
    cap: usize,
    /// Monotonic access counter used as the recency stamp.
    stamp: u64,
    hits: u64,
    misses: u64,
    entries: HashMap<String, (u64, Arc<V>)>,
}

impl<V> Lru<V> {
    fn new(cap: usize) -> Self {
        Lru {
            cap,
            stamp: 0,
            hits: 0,
            misses: 0,
            entries: HashMap::new(),
        }
    }

    /// Locks a shared cache, recovering from a poisoned mutex: a plan that
    /// panicked while holding the lock (the dataloader catches such panics
    /// and retries) must not brick every subsequent `plan()` on all clones.
    /// The contents may be mid-mutation at poison time, so recovery clears
    /// them — losing cached plans, never correctness. The poison flag is
    /// cleared too, so recovery happens once, not on every subsequent lock.
    fn lock(shared: &Mutex<Self>) -> MutexGuard<'_, Self> {
        shared.lock().unwrap_or_else(|poison| {
            shared.clear_poison();
            let mut g = poison.into_inner();
            *g = Lru::new(g.cap);
            g
        })
    }

    fn get(&mut self, key: &str) -> Option<Arc<V>> {
        self.stamp += 1;
        match self.entries.get_mut(key) {
            Some((t, v)) => {
                *t = self.stamp;
                self.hits += 1;
                Some(Arc::clone(v))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `value` under `key`, evicting the least-recently-used entry
    /// when a *new* key would exceed the capacity.
    fn insert(&mut self, key: String, value: Arc<V>) {
        if self.cap == 0 {
            return;
        }
        self.stamp += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.cap {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                self.entries.remove(&k);
            }
        }
        self.entries.insert(key, (self.stamp, value));
    }
}

/// Tile rows every document keeps, at least, in the placement hypergraph's
/// structural coarsening level: a tile never spans more than 1/16 of its
/// document's block rows.
const TILE_ROWS: u32 = 16;

/// The largest tile side: at most 16 computation blocks a tile. It keeps a
/// 128-block document at `t = 4`; at `t = 8` it planned slower and moved
/// more data (DESIGN.md §11).
const MAX_TILE: u32 = 4;

/// The side `t` of the `t × t` tiles of a document of `nb` blocks: the
/// largest power of two at most `nb / TILE_ROWS`, capped at [`MAX_TILE`]:
/// 1 under 32 blocks (one block per tile, which coarsening leaves to the
/// matcher), 2 for 32–63 and 4 from 64 up.
fn tile_side(nb: u32) -> u32 {
    let rows = (nb / TILE_ROWS).max(1);
    (1 << rows.ilog2()).min(MAX_TILE)
}

/// The DCP planner, bound to a cluster and an attention operator shape.
#[derive(Debug, Clone)]
pub struct Planner {
    cluster: ClusterSpec,
    attn: AttnSpec,
    cfg: PlannerConfig,
    /// The cluster-and-config part of both cache keys, serialized once: the
    /// whole [`PlannerConfig`] with the plan-cache capacity zeroed, so
    /// every knob that can change a plan keys it and retuning the capacity
    /// alone forces no cold miss.
    sig_tail: String,
    /// Finished plans by exact batch signature.
    exact: Arc<Mutex<Lru<PlanOutput>>>,
    /// Replays and warm-start seeds by similarity key.
    near: Arc<Mutex<Lru<NearEntry>>>,
    obs: ObsHandle,
}

/// A placement with its by-products: whether every level met its balance
/// caps, the merged stage stats, and the connectivity cost
/// (== forward comm bytes, pinned by
/// `hypergraph_cost_matches_plan_forward_comm`).
type Placed = (Placement, bool, PartitionStats, u64);

impl Planner {
    /// Creates a planner for `cluster` and `attn` under `cfg`.
    pub fn new(cluster: ClusterSpec, attn: AttnSpec, cfg: PlannerConfig) -> Self {
        let mut keyed = cfg.clone();
        keyed.plan_cache = 0;
        let sig_tail = serde_json::to_string(&(&cluster, &keyed))
            .expect("planner signature serialization cannot fail");
        Planner {
            exact: Arc::new(Mutex::new(Lru::new(cfg.plan_cache))),
            near: Arc::new(Mutex::new(Lru::new(NEAR_CACHE))),
            cluster,
            attn,
            cfg,
            sig_tail,
            obs: ObsHandle::noop(),
        }
    }

    /// Attaches an observability sink: every subsequent `plan()` call emits
    /// stage spans (block_gen / place / schedule plus the partitioner's
    /// coarsen / initial / refine breakdown), cache hit/miss counters and
    /// warm-path events. All emission happens on the calling thread, in plan
    /// order, so the stream is deterministic.
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Lifetime near-hit-tier hit / miss counts (shared across clones).
    /// Counts lookups only — a near hit whose warm plan fails the quality
    /// bound still counts as a hit here (the seed was found and tried).
    pub fn near_cache_stats(&self) -> (u64, u64) {
        let c = Lru::lock(&self.near);
        (c.hits, c.misses)
    }

    /// The canonical batch signature: the *ordered* `(length, mask)` list as
    /// JSON, then the cluster-and-config tail. Order matters — block and
    /// vertex numbering follow batch order, so permuted batches legitimately
    /// produce different plans.
    fn signature(&self, seqs: &[(u32, MaskSpec)]) -> String {
        serde_json::to_string(&seqs).expect("planner signature serialization cannot fail")
            + &self.sig_tail
    }

    /// The similarity key of the near-hit tier: the *bucketed* batch shape —
    /// per-sequence block counts as a sorted histogram plus the multiset of
    /// masks — then the cluster-and-config tail. Batches with the same
    /// block-count histogram and mask mix share a key even when raw lengths
    /// differ within a block, which is exactly when the previous placement
    /// transfers well as a warm-start seed.
    fn near_signature(&self, seqs: &[(u32, MaskSpec)]) -> String {
        let bs = self.cfg.block_size.max(1);
        let mut lens: Vec<u32> = seqs.iter().map(|(len, _)| len.div_ceil(bs)).collect();
        lens.sort_unstable();
        let mut masks: Vec<String> = seqs
            .iter()
            .map(|(_, m)| serde_json::to_string(m).expect("mask serialization cannot fail"))
            .collect();
        masks.sort_unstable();
        serde_json::to_string(&(lens, masks))
            .expect("planner near-signature serialization cannot fail")
            + &self.sig_tail
    }

    /// The planner's configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// The cluster this planner targets.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Plans one batch: generates blocks, places them, schedules divisions.
    ///
    /// Placement is the hierarchical hypergraph partition. A partition over
    /// its balance caps ships as it is: it is a legal plan, and the best one
    /// the partitioner found.
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::InvalidArgument`] for degenerate inputs (empty
    /// batch, zero devices, `divisions == 0`); otherwise propagates layout,
    /// placement and scheduling failures.
    pub fn plan(&self, seqs: &[(u32, MaskSpec)]) -> DcpResult<PlanOutput> {
        self.plan_for_iter(seqs, None)
    }

    /// [`Planner::plan`] with an explicit iteration/batch index stamped onto
    /// every emitted observability event (the planner itself has no notion
    /// of iterations; callers that do — the dataloader, the trace harness —
    /// pass it here so planner spans correlate with executor/sim spans).
    ///
    /// The stages, in order: exact-cache lookup, the replay of a near hit on
    /// the same batch (`Call::replay`), block layout, the incremental path
    /// when a near-hit seed exists (`Call::try_warm`), else cold placement
    /// (`Call::cold`), then passes, verification and caching
    /// (`Call::finish`).
    pub fn plan_for_iter(
        &self,
        seqs: &[(u32, MaskSpec)],
        iter: Option<u64>,
    ) -> DcpResult<PlanOutput> {
        if seqs.is_empty() {
            return Err(DcpError::invalid_argument("empty batch"));
        }
        self.cluster.validate()?;
        if self.cfg.divisions == 0 {
            return Err(DcpError::invalid_argument("divisions must be > 0"));
        }
        let mut call = Call {
            p: self,
            origin: Instant::now(),
            iter,
            seqs,
            key: (self.cfg.plan_cache > 0).then(|| self.signature(seqs)),
            near_key: None,
            times: PlanningTimes::default(),
            pstats: PartitionStats::default(),
        };
        if let Some(hit) = call.lookup() {
            return Ok(hit);
        }
        // Near-hit tier: on an exact miss, a batch with the same bucketed
        // shape may have left its output to replay or to warm-start from.
        // The lookup is independent of the exact cache so incremental
        // planning works even with exact caching disabled.
        call.near_key = self
            .cfg
            .incremental
            .enabled
            .then(|| self.near_signature(seqs));
        let seed = call
            .near_key
            .as_deref()
            .and_then(|k| Lru::lock(&self.near).get(k));
        if let Some(entry) = seed.as_deref().filter(|e| e.seqs == seqs) {
            if let Some(out) = call.replay(&entry.out) {
                call.remember(false, || Arc::clone(&entry.out));
                return Ok(out);
            }
        }
        let span = call.span(Event::span(ObsSource::Planner, "block_gen"));
        let layout = BatchLayout::build(
            self.attn,
            BlockConfig {
                block_size: self.cfg.block_size,
                head_blocks: self.cfg.head_blocks.unwrap_or(self.attn.kv_heads),
            },
            seqs,
        );
        call.times.block_gen = span.finish();
        let layout = layout?;
        match seed.and_then(|e| call.try_warm(&layout, &e.out)) {
            Some((placement, plan)) => call.finish(layout, placement, plan, true),
            None => {
                let (placement, plan) = call.cold(&layout)?;
                call.finish(layout, placement, plan, false)
            }
        }
    }

    /// Schedules `placement` into instruction streams under the configured
    /// division count, cut for the planner's cluster.
    fn schedule(&self, layout: &BatchLayout, placement: &Placement) -> DcpResult<ExecutionPlan> {
        let sched = ScheduleConfig {
            divisions: self.cfg.divisions,
            cost: self.cluster.cost(),
        };
        build_plan(layout, placement, &sched)
    }

    /// Builds the placement hypergraph of `layout`: one vertex per token
    /// block (weight `[0, bytes]`) and per computation block (weight
    /// `[flops, 0]`); per token block one hyperedge for Q+O (weight
    /// `q_bytes + o_bytes` — identical pin sets, so they are merged) and one
    /// for KV (weight `kv_bytes`), each connecting the token vertex to the
    /// consuming computation blocks. Each computation block is labelled with
    /// its tile of the block grid (`tile_side`), which the partitioner's
    /// coarsening contracts before it matches anything.
    pub fn build_hypergraph(layout: &BatchLayout) -> Hypergraph {
        let nt = layout.token_blocks.len();
        let mut b = HypergraphBuilder::new(nt + layout.comp_blocks.len());
        for (i, tb) in layout.token_blocks.iter().enumerate() {
            b.set_vertex_weight(i, [0, tb.total_bytes()]);
        }
        for (i, cb) in layout.comp_blocks.iter().enumerate() {
            b.set_vertex_weight(nt + i, [cb.flops, 0]);
        }
        // Tiles are numbered per (sequence, head group) in layout order,
        // each group's `cols × cols` grid row by row. Per sequence: the tile
        // side, the tiles per row, and its first head group's first label.
        // Token blocks stay unlabelled.
        let bs = layout.config.block_size;
        let mut next = 0u32;
        let grids: Vec<(u32, u32, u32)> = layout
            .seq_lens
            .iter()
            .map(|&len| {
                let nb = len.div_ceil(bs);
                let (t, first) = (tile_side(nb), next);
                let cols = nb.div_ceil(t);
                next += layout.config.head_blocks * cols * cols;
                (t, cols, first)
            })
            .collect();
        for (i, cb) in layout.comp_blocks.iter().enumerate() {
            let (t, cols, first) = grids[cb.seq as usize];
            let tile = |tb: TokenBlockId| layout.token_blocks[tb.0 as usize].start / bs / t;
            let base = first + cb.head_block * cols * cols;
            b.set_label(nt + i, base + tile(cb.q_block) * cols + tile(cb.kv_block));
        }
        let mut pins: Vec<u32> = Vec::new();
        Self::for_each_edge(layout, |weight, i, readers| {
            pins.clear();
            pins.push(i as u32);
            pins.extend(readers.iter().map(|&c| nt as u32 + c));
            b.add_edge(weight, &pins);
        });
        b.build().expect("pins are in range by construction")
    }

    /// The placement hypergraph's hyperedges in edge order, each passed to
    /// `edge(weight, i, readers)`: per token block `i`, Q+O and then KV,
    /// with the computation blocks reading that slice ([`readers`]). An
    /// edge nobody reads has one pin, never costs, and is skipped.
    fn for_each_edge(layout: &BatchLayout, mut edge: impl FnMut(u64, usize, &[u32])) {
        let sides = [
            readers(layout, |c| c.q_block),
            readers(layout, |c| c.kv_block),
        ];
        for (i, tb) in layout.token_blocks.iter().enumerate() {
            let weights = [tb.q_bytes + tb.o_bytes, tb.kv_bytes];
            for (weight, (off, ids)) in weights.into_iter().zip(&sides) {
                let read = &ids[off[i] as usize..off[i + 1] as usize];
                if !read.is_empty() {
                    edge(weight, i, read);
                }
            }
        }
    }

    /// Total hyperedge weight of `layout`'s placement hypergraph, without
    /// building it: what a warm-start seed's cost bound is scaled by.
    fn total_edge_weight(layout: &BatchLayout) -> u64 {
        let mut total = 0;
        Self::for_each_edge(layout, |weight, _, _| total += weight);
        total
    }

    /// Maps `layout`'s blocks onto the parts `at` gave the seeding layout
    /// `old`, by block identity ([`token_key`], [`comp_key`]): one merge per
    /// block kind ([`merge_parts`]). Unmatched token blocks inherit the last
    /// matched part in block order (deterministic carry-forward keeps new
    /// blocks near their sequence neighbors); unmatched comp blocks
    /// colocate with their Q block.
    fn warm_seed(layout: &BatchLayout, old: &BatchLayout, at: &Placement) -> Vec<u32> {
        let tokens = merge_parts(
            layout.token_blocks.iter().map(token_key),
            old.token_blocks
                .iter()
                .map(token_key)
                .zip(at.token_to_dev.iter().copied()),
        );
        let mut last = 0;
        let mut seed: Vec<u32> = tokens
            .map(|p| {
                last = p.unwrap_or(last);
                last
            })
            .collect();
        let comps = merge_parts(
            layout.comp_blocks.iter().map(|cb| comp_key(layout, cb)),
            old.comp_blocks
                .iter()
                .map(|cb| comp_key(old, cb))
                .zip(at.comp_to_dev.iter().copied()),
        );
        for (cb, p) in layout.comp_blocks.iter().zip(comps) {
            let part = p.unwrap_or(seed[cb.q_block.0 as usize]);
            seed.push(part);
        }
        seed
    }

    /// The vertex → device `assignment` of a placement hypergraph (token
    /// blocks first, then comp blocks) as a [`Placement`].
    fn split_placement(&self, layout: &BatchLayout, assignment: &[u32]) -> Placement {
        let (tokens, comps) = assignment.split_at(layout.token_blocks.len());
        Placement {
            num_devices: self.cluster.num_devices(),
            token_to_dev: tokens.to_vec(),
            comp_to_dev: comps.to_vec(),
        }
    }

    /// The placement of `layout` through the level hierarchy
    /// ([`Planner::place_levels`]): cold, or refined from `warm`, a full
    /// vertex → device seed, skipping coarsening and initial partitioning at
    /// every level.
    fn place(&self, layout: &BatchLayout, warm: Option<&[u32]>) -> DcpResult<Placed> {
        let hg = Self::build_hypergraph(layout);
        let levels = self.placement_levels();
        let (assignment, balanced, stats) = self.place_levels(&hg, &levels, self.cfg.seed, warm)?;
        let cost = hg.connectivity_cost(&assignment, self.cluster.num_devices());
        let placement = self.split_placement(layout, &assignment);
        Ok((placement, balanced, stats, cost))
    }

    /// The partition hierarchy as `(parts, epsilon)` refinement levels,
    /// outermost first, mirroring the cluster's fabric tiers
    /// ([`ClusterSpec::hierarchy`]): spine groups, then leaves, then nodes,
    /// then devices — the flat model yields the classic machine/device
    /// split. The device level uses `eps_intra`, every switch level
    /// `eps_inter`; degenerate one-way levels are dropped. A non-hierarchical
    /// config collapses to a single flat level over all devices.
    fn placement_levels(&self) -> Vec<(u32, f64)> {
        let n = self.cluster.num_devices();
        if !self.cfg.hierarchical {
            return vec![(n, self.cfg.eps_intra)];
        }
        let h = self.cluster.hierarchy();
        let mut levels: Vec<(u32, f64)> = Vec::new();
        for (i, &k) in h.iter().enumerate() {
            if k == 1 {
                continue;
            }
            let eps = if i + 1 == h.len() {
                self.cfg.eps_intra
            } else {
                self.cfg.eps_inter
            };
            levels.push((k, eps));
        }
        if levels.is_empty() {
            levels.push((1, self.cfg.eps_intra));
        }
        levels
    }

    /// Placement through the level hierarchy: partition this level's graph
    /// `parts` ways (minimizing the traffic that would cross this fabric
    /// boundary), then recurse per part on the induced subgraph with a
    /// per-part derived seed. With `warm` — a seeded device per vertex —
    /// every level refines the seed divided down to its granularity instead
    /// of partitioning from scratch; subgraphs, epsilons and per-part seeds
    /// are the same either way, so a converged seed reproduces the cold
    /// placement exactly. The per-part subproblems are independent — solved
    /// on the rayon pool (the paper parallelizes planning across CPU cores,
    /// Sec. 6.1) and merged in part order, so the result is
    /// thread-count-independent.
    fn place_levels(
        &self,
        hg: &Hypergraph,
        levels: &[(u32, f64)],
        seed: u64,
        warm: Option<&[u32]>,
    ) -> DcpResult<(Vec<u32>, bool, PartitionStats)> {
        type LocalPartition = (Vec<u32>, Vec<u32>, bool, PartitionStats);
        let (parts, eps) = levels[0];
        let stride: u32 = levels[1..].iter().map(|l| l.0).product();
        let mut pc = PartitionConfig::new(parts)
            .with_epsilon(eps)
            .with_seed(seed);
        pc.refine_enabled = self.cfg.refine;
        let (part, mut stats) = match warm {
            // A seeded device's part at this level is `device / stride`.
            Some(devs) => {
                let level_seed: Vec<u32> = devs.iter().map(|&d| d / stride).collect();
                partition_warm_with_stats(hg, &pc, &level_seed)?
            }
            None => partition_with_stats(hg, &pc)?,
        };
        if levels.len() == 1 {
            return Ok((part.assignment, part.balanced, stats));
        }
        let mut balanced = part.balanced;
        // Each part's vertices, ascending, bucketed in one pass.
        let mut members = vec![Vec::new(); parts as usize];
        for (v, &p) in (0u32..).zip(&part.assignment) {
            members[p as usize].push(v);
        }
        use rayon::prelude::*;
        let locals: Vec<DcpResult<LocalPartition>> = (0..parts)
            .into_par_iter()
            .map(|p| {
                let verts = &members[p as usize];
                if verts.is_empty() {
                    return Ok((Vec::new(), Vec::new(), true, PartitionStats::default()));
                }
                let (sub, map) = hg.induced_subgraph(verts);
                // Seeded sub-level index within the part; still valid when
                // this level's refinement moved the vertex to another part.
                let local_seed: Option<Vec<u32>> = warm.map(|devs| {
                    map.iter()
                        .map(|&orig| devs[orig as usize] % stride)
                        .collect()
                });
                let (local, lb, ls) = self.place_levels(
                    &sub,
                    &levels[1..],
                    seed.wrapping_add(p as u64 + 1),
                    local_seed.as_deref(),
                )?;
                Ok((map, local, lb, ls))
            })
            .collect();
        let mut assignment = vec![0u32; hg.num_vertices()];
        for (p, res) in locals.into_iter().enumerate() {
            let (map, local, local_balanced, ls) = res?;
            balanced &= local_balanced;
            stats.merge(&ls);
            for (i, &orig) in map.iter().enumerate() {
                assignment[orig as usize] = p as u32 * stride + local[i];
            }
        }
        Ok((assignment, balanced, stats))
    }
}

/// One `plan()` call in flight: the time origin and `iter` stamp every
/// stage's events share, and what the stages accumulate for the output.
/// All emission is on the calling thread, in plan order.
struct Call<'a> {
    p: &'a Planner,
    origin: Instant,
    iter: Option<u64>,
    /// The batch being planned.
    seqs: &'a [(u32, MaskSpec)],
    /// This batch's exact-cache key (`None`: exact caching is off) and,
    /// once the exact lookup missed, its near-hit key (`None`: incremental
    /// planning is off).
    key: Option<String>,
    near_key: Option<String>,
    times: PlanningTimes,
    pstats: PartitionStats,
}

impl<'a> Call<'a> {
    fn stamp(&self, e: Event) -> Event {
        match self.iter {
            Some(i) => e.with_iter(i),
            None => e,
        }
    }

    /// Records the event `make` builds, if anyone is listening.
    fn emit(&self, make: impl FnOnce() -> Event) {
        if self.p.obs.enabled() {
            self.p.obs.record(self.stamp(make()));
        }
    }

    /// Opens a stage span; `finish()` on it records the stage and returns
    /// its seconds, which the output needs whether or not a sink listens.
    fn span(&self, proto: Event) -> Span<'a> {
        Span::enter_at(self.p.obs.sink(), self.stamp(proto), self.origin)
    }

    /// Exact-cache lookup. A hit is the stored output with this call's
    /// (lookup-only) timing: the stage times are zero.
    fn lookup(&self) -> Option<PlanOutput> {
        let key = self.key.as_deref()?;
        let stored = Lru::lock(&self.p.exact).get(key);
        let Some(stored) = stored else {
            self.emit(|| Event::counter(ObsSource::Planner, "plan_cache_miss", 1.0));
            return None;
        };
        let mut out = PlanOutput::clone(&stored);
        out.times = PlanningTimes::default();
        out.stats = PlanStats {
            cache_hit: true,
            total_s: self.origin.elapsed().as_secs_f64(),
            ..PlanStats::default()
        };
        self.emit(|| {
            Event::counter(ObsSource::Planner, "plan_cache_hit", 1.0).with_label(out.tier.label())
        });
        Some(out)
    }

    /// Division scheduling of `placement`, timed as a `schedule` span.
    fn schedule(
        &mut self,
        layout: &BatchLayout,
        placement: &Placement,
        label: &str,
    ) -> DcpResult<ExecutionPlan> {
        let span = self.span(Event::span(ObsSource::Planner, "schedule").with_label(label));
        let built = self.p.schedule(layout, placement);
        self.times.schedule += span.finish();
        built
    }

    /// The seeding batch again: its stored output is exactly what the
    /// pipeline would rebuild (batch, cluster and config all identical), so
    /// block generation, partitioning, scheduling and the passes are all
    /// skipped and the stored plan, re-verified, is the answer: an unchanged
    /// batch re-plans bit for bit at lookup cost. `None`: it no longer
    /// verifies, and the batch is planned again.
    fn replay(&self, stored: &PlanOutput) -> Option<PlanOutput> {
        verify_plan(&stored.layout, &stored.placement, &stored.plan).ok()?;
        self.emit(|| Event::counter(ObsSource::Planner, "near_hit", 1.0));
        let (layout, placement) = (stored.layout.clone(), stored.placement.clone());
        Some(self.output(layout, placement, stored.plan.clone(), true))
    }

    /// Incremental path: delta refinement warm-started from `prev`, the
    /// near-hit seed's output. `None` means the warm plan was rejected and
    /// the batch must be planned cold.
    fn try_warm(
        &mut self,
        layout: &BatchLayout,
        prev: &PlanOutput,
    ) -> Option<(Placement, ExecutionPlan)> {
        let span = self.span(Event::span(ObsSource::Planner, "warm_seed"));
        let seed = Planner::warm_seed(layout, &prev.layout, &prev.placement);
        self.times.partition += span.finish();
        let span = self.span(Event::span(ObsSource::Planner, "delta_refine"));
        let placed = self.p.place(layout, Some(&seed));
        let edge_ratio = Planner::total_edge_weight(layout) as f64
            / Planner::total_edge_weight(&prev.layout).max(1) as f64;
        self.times.partition += span.finish();
        // Quality bound: balanced, and comm bytes within the configured
        // factor of the seeding plan's cost (its forward comm bytes, i.e.
        // its connectivity−1 cost), scaled to this batch's hyperedge volume.
        // A zero-cost seed must stay zero-cost.
        let prev_cost = prev.plan.fwd.total_comm_bytes();
        let max_regression = self.p.cfg.incremental.max_regression;
        let within = |cost: u64| match prev_cost {
            0 => cost == 0,
            _ => cost as f64 <= max_regression * (prev_cost as f64 * edge_ratio),
        };
        let refined = placed
            .ok()
            .filter(|&(_, balanced, _, cost)| balanced && within(cost))
            .and_then(|(placement, _, stats, _)| {
                let plan = self.schedule(layout, &placement, "warm").ok()?;
                self.pstats.merge(&stats);
                Some((placement, plan))
            });
        match refined {
            Some(_) => self.emit(|| Event::counter(ObsSource::Planner, "near_hit", 1.0)),
            None => self.emit(|| {
                Event::instant(ObsSource::Planner, "warm_fallback")
                    .with_time(self.origin.elapsed().as_secs_f64(), 0.0)
            }),
        }
        refined
    }

    /// Cold placement: the hierarchical partition, timed as a `place`
    /// span, then division scheduling.
    fn cold(&mut self, layout: &BatchLayout) -> DcpResult<(Placement, ExecutionPlan)> {
        let label = PlanTier::Partitioned.label();
        let span = self.span(Event::span(ObsSource::Planner, "place").with_label(label));
        let placed = self.p.place(layout, None);
        self.times.partition += span.finish();
        let (placement, _, stats, _) = placed?;
        self.pstats.merge(&stats);
        let plan = self.schedule(layout, &placement, label)?;
        Ok((placement, plan))
    }

    /// The output of this call, from what the stages accumulated.
    fn output(
        &self,
        layout: BatchLayout,
        placement: Placement,
        plan: ExecutionPlan,
        near_hit: bool,
    ) -> PlanOutput {
        PlanOutput {
            layout,
            placement,
            plan,
            times: self.times,
            tier: PlanTier::Partitioned,
            stats: PlanStats {
                cache_hit: false,
                near_hit,
                coarsen_s: self.pstats.coarsen_s,
                initial_s: self.pstats.initial_s,
                refine_s: self.pstats.refine_s,
                schedule_s: self.times.schedule,
                total_s: self.origin.elapsed().as_secs_f64(),
                work: self.pstats.work,
            },
            passes: Vec::new(),
        }
    }

    /// Caches this batch's output in the exact cache and, when `seeds`, as
    /// the near-hit entry of its shape. `stored` makes the one allocation
    /// both tiers share, only when either is on, before any lock is taken.
    fn remember(self, seeds: bool, stored: impl FnOnce() -> Arc<PlanOutput>) {
        let near_key = self.near_key.filter(|_| seeds);
        if self.key.is_none() && near_key.is_none() {
            return;
        }
        let stored = stored();
        if let Some(near_key) = near_key {
            let entry = NearEntry {
                seqs: self.seqs.to_vec(),
                out: Arc::clone(&stored),
            };
            Lru::lock(&self.p.near).insert(near_key, Arc::new(entry));
        }
        if let Some(key) = self.key {
            Lru::lock(&self.p.exact).insert(key, stored);
        }
    }

    /// Everything after scheduling: dead-communication elimination (when
    /// enabled), then the stream verifier on the freshly produced plan, the
    /// partitioner's stage breakdown, and both caches. Cache hits and
    /// replays skip the first three: those plans already passed.
    fn finish(
        mut self,
        layout: BatchLayout,
        placement: Placement,
        mut plan: ExecutionPlan,
        near_hit: bool,
    ) -> DcpResult<PlanOutput> {
        let p = self.p;
        let mut passes: Vec<PassOutcome> = Vec::new();
        if p.cfg.passes.enabled {
            let span = self.span(Event::span(ObsSource::Planner, "pass").with_label("dead_comm"));
            passes =
                PassManager::new(p.cfg.passes.clone()).run_plan(&layout, &placement, &mut plan);
            self.times.schedule += span.finish();
            self.emit(|| {
                let saved: u64 = passes.iter().map(PassOutcome::comm_bytes_saved).sum();
                Event::counter(ObsSource::Planner, "pass_comm_bytes_saved", saved as f64)
            });
        }
        if let Err(diag) = verify_plan(&layout, &placement, &plan) {
            // On the trace at the device it names, after the events that
            // led up to the illegal stream.
            self.emit(|| {
                let ev = Event::instant(ObsSource::Planner, "verify_diagnostic")
                    .with_label(diag.to_string());
                match diag.device {
                    Some(d) => ev.with_device(d),
                    None => ev,
                }
            });
            return Err(DcpError::invalid_plan(format!(
                "planner produced an illegal stream: {diag}"
            )));
        }
        // Partitioner stage breakdown (CPU seconds summed over the
        // hierarchy, rendered as consecutive segments of one row).
        let mut at = self.times.block_gen;
        for (name, dur) in [
            ("coarsen", self.pstats.coarsen_s),
            ("initial", self.pstats.initial_s),
            ("refine", self.pstats.refine_s),
        ] {
            self.emit(|| {
                Event::span(ObsSource::Planner, name)
                    .with_label(PlanTier::Partitioned.label())
                    .with_time(at, dur)
            });
            at += dur;
        }
        let mut out = self.output(layout, placement, plan, near_hit);
        out.passes = passes;
        // Warm-accepted plans seed too, so the seed chain follows
        // distribution drift.
        self.remember(true, || Arc::new(out.clone()));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner(nodes: u32) -> Planner {
        Planner::new(
            ClusterSpec::p4de(nodes),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                ..Default::default()
            },
        )
    }

    #[test]
    fn tile_side_steps_at_32_and_64_blocks_and_stops_at_4() {
        for (nb, t) in [
            (1, 1),
            (31, 1),
            (32, 2),
            (63, 2),
            (64, 4),
            (127, 4),
            (128, 4),
            (256, 4),
            (1024, 4),
        ] {
            assert_eq!(tile_side(nb), t, "{nb} blocks");
        }
    }

    #[test]
    fn plan_is_valid_and_deterministic() {
        let p = planner(1);
        let seqs = vec![
            (16384, MaskSpec::Causal),
            (4096, MaskSpec::Causal),
            (2048, MaskSpec::paper_lambda()),
        ];
        let a = p.plan(&seqs).unwrap();
        verify_plan(&a.layout, &a.placement, &a.plan).unwrap();
        let b = p.plan(&seqs).unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn compute_is_balanced_within_tolerance() {
        let p = planner(1);
        let seqs = vec![(32768, MaskSpec::Causal), (32768, MaskSpec::Causal)];
        let out = p.plan(&seqs).unwrap();
        let loads = out.placement.comp_loads(&out.layout);
        let total: u64 = loads.iter().sum();
        let avg = total as f64 / loads.len() as f64;
        let max = *loads.iter().max().unwrap() as f64;
        // eps_intra = 0.1 plus a block of granularity slack.
        let max_block = out
            .layout
            .comp_blocks
            .iter()
            .map(|c| c.flops)
            .max()
            .unwrap() as f64;
        assert!(
            max <= avg * 1.1 + max_block,
            "max {max} vs avg {avg} (+block {max_block})"
        );
    }

    #[test]
    fn short_sequences_avoid_communication() {
        // A batch of only short sequences (each smaller than a block)
        // should be placeable with zero communication (pure DP).
        let p = planner(1);
        let seqs: Vec<(u32, MaskSpec)> = (0..16).map(|_| (1024, MaskSpec::Causal)).collect();
        let out = p.plan(&seqs).unwrap();
        assert_eq!(
            out.plan.total_comm_bytes(),
            0,
            "every sequence fits on one device"
        );
    }

    #[test]
    fn hierarchical_reduces_inter_node_volume() {
        let seqs = vec![
            (65536, MaskSpec::Causal),
            (16384, MaskSpec::Causal),
            (16384, MaskSpec::Causal),
            (8192, MaskSpec::Causal),
        ];
        let cluster = ClusterSpec::p4de(2);
        let mk = |hier: bool| {
            Planner::new(
                cluster.clone(),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    hierarchical: hier,
                    ..Default::default()
                },
            )
        };
        let inter_bytes = |out: &PlanOutput| {
            let c = &cluster;
            out.plan.fwd.comm_bytes_where(|a, b| {
                c.node_of(dcp_types::DeviceId(a)) != c.node_of(dcp_types::DeviceId(b))
            })
        };
        let hier = mk(true).plan(&seqs).unwrap();
        let flat = mk(false).plan(&seqs).unwrap();
        assert!(
            inter_bytes(&hier) <= inter_bytes(&flat),
            "hier {} > flat {}",
            inter_bytes(&hier),
            inter_bytes(&flat)
        );
    }

    #[test]
    fn spine_topology_adds_a_leaf_level_and_cuts_cross_leaf_volume() {
        // 4 nodes, 2 per leaf: the planner should mirror the 3-tier fabric
        // with a [leaves, nodes, devices] refinement hierarchy and push
        // traffic off the oversubscribed spine.
        let seqs = vec![
            (65536, MaskSpec::Causal),
            (16384, MaskSpec::Causal),
            (16384, MaskSpec::Causal),
            (8192, MaskSpec::Causal),
        ];
        let spine = ClusterSpec::p4de_spine(4, 2, 4.0);
        let mk = |cluster: ClusterSpec| {
            Planner::new(
                cluster,
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    ..Default::default()
                },
            )
        };
        let aware = mk(spine.clone());
        assert_eq!(
            aware.placement_levels(),
            vec![
                (2, aware.cfg.eps_inter),
                (2, aware.cfg.eps_inter),
                (8, aware.cfg.eps_intra)
            ]
        );
        let aware_out = aware.plan(&seqs).unwrap();
        verify_plan(&aware_out.layout, &aware_out.placement, &aware_out.plan).unwrap();
        let blind_out = mk(ClusterSpec::p4de(4)).plan(&seqs).unwrap();
        let cross_leaf = |out: &PlanOutput| out.plan.fwd.comm_bytes_by_tier(&spine)[2];
        assert!(
            cross_leaf(&aware_out) <= cross_leaf(&blind_out),
            "aware {} > blind {}",
            cross_leaf(&aware_out),
            cross_leaf(&blind_out)
        );
    }

    #[test]
    fn looser_epsilon_no_more_comm() {
        let seqs = vec![(32768, MaskSpec::Causal), (8192, MaskSpec::Causal)];
        let comm = |eps: f64| {
            let p = Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    eps_intra: eps,
                    ..Default::default()
                },
            );
            p.plan(&seqs).unwrap().plan.fwd.total_comm_bytes()
        };
        let tight = comm(0.02);
        let loose = comm(0.8);
        assert!(loose <= tight, "loose {loose} > tight {tight}");
    }

    #[test]
    fn sparse_masks_cut_comm_vs_causal() {
        let p = planner(2);
        let causal = p.plan(&[(131072, MaskSpec::Causal)]).unwrap();
        let lambda = p.plan(&[(131072, MaskSpec::paper_lambda())]).unwrap();
        assert!(
            lambda.plan.total_comm_bytes() < causal.plan.total_comm_bytes() / 2,
            "lambda {} vs causal {}",
            lambda.plan.total_comm_bytes(),
            causal.plan.total_comm_bytes()
        );
    }

    #[test]
    fn empty_batch_rejected() {
        assert!(planner(1).plan(&[]).is_err());
    }

    #[test]
    fn zero_devices_is_an_error_not_a_panic() {
        let p = Planner::new(
            ClusterSpec::single_node(0),
            AttnSpec::paper_micro(),
            PlannerConfig::default(),
        );
        let err = p.plan(&[(4096, MaskSpec::Causal)]).unwrap_err();
        assert!(matches!(err, DcpError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn zero_divisions_is_an_error_not_a_panic() {
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                divisions: 0,
                ..Default::default()
            },
        );
        let err = p.plan(&[(4096, MaskSpec::Causal)]).unwrap_err();
        assert!(matches!(err, DcpError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn zero_block_size_is_an_error_not_a_panic() {
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 0,
                ..Default::default()
            },
        );
        assert!(p.plan(&[(4096, MaskSpec::Causal)]).is_err());
    }

    #[test]
    fn default_plans_use_the_partitioned_tier() {
        let p = planner(1);
        let out = p.plan(&[(16384, MaskSpec::Causal)]).unwrap();
        assert_eq!(out.tier, PlanTier::Partitioned);
    }

    #[test]
    fn plan_output_roundtrips_through_json() {
        let p = planner(1);
        let out = p.plan(&[(8192, MaskSpec::Causal)]).unwrap();
        let j = serde_json::to_string(&out).unwrap();
        let back: PlanOutput = serde_json::from_str(&j).unwrap();
        assert_eq!(back.placement, out.placement);
        assert_eq!(back.plan, out.plan);
        assert_eq!(back.tier, out.tier);
    }

    #[test]
    fn cache_hit_is_bitwise_equal_to_fresh_plan() {
        let p = planner(2);
        let seqs = vec![
            (16384, MaskSpec::Causal),
            (4096, MaskSpec::paper_lambda()),
            (2048, MaskSpec::Causal),
        ];
        let cold = p.plan(&seqs).unwrap();
        assert!(!cold.stats.cache_hit && cold.times.total() > 0.0);
        let warm = p.plan(&seqs).unwrap();
        assert!(warm.stats.cache_hit);
        // A hit ran no stage: it must not echo the cold plan's stage seconds.
        assert_eq!(warm.times.total(), 0.0);
        // A fresh planner (empty cache) must produce the identical plan.
        let fresh = planner(2).plan(&seqs).unwrap();
        for out in [&warm, &fresh] {
            assert_eq!(out.placement, cold.placement);
            assert_eq!(out.plan, cold.plan);
            assert_eq!(out.tier, cold.tier);
        }
        assert!(!fresh.stats.cache_hit);
    }

    #[test]
    fn differing_masks_or_configs_never_collide() {
        // Same lengths, different mask: must be a miss, not a false hit.
        let p = planner(1);
        let a = p.plan(&[(16384, MaskSpec::Causal)]).unwrap();
        let b = p.plan(&[(16384, MaskSpec::paper_lambda())]).unwrap();
        assert!(!a.stats.cache_hit && !b.stats.cache_hit);
        // Same batch, different config: separate planners share nothing,
        // but even the signature must differ.
        let mk = |seed: u64| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    seed,
                    ..Default::default()
                },
            )
        };
        let seqs = [(8192, MaskSpec::Causal)];
        assert_ne!(mk(1).signature(&seqs), mk(2).signature(&seqs));
        // Batch order is part of the signature (plans are order-sensitive).
        let fwd = [(16384, MaskSpec::Causal), (4096, MaskSpec::Causal)];
        let rev = [(4096, MaskSpec::Causal), (16384, MaskSpec::Causal)];
        assert_ne!(mk(1).signature(&fwd), mk(1).signature(&rev));
    }

    #[test]
    fn caches_are_shared_across_clones_and_sized_by_the_config() {
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                plan_cache: 2,
                ..Default::default()
            },
        );
        let s1 = [(8192, MaskSpec::Causal)];
        p.plan(&s1).unwrap();
        // A clone sees the entry (shared cache).
        assert!(p.clone().plan(&s1).unwrap().stats.cache_hit);
        // Eviction itself is `lru_evicts_the_least_recently_used_key`.
        assert_eq!(Lru::lock(&p.exact).cap, 2);
        assert_eq!(Lru::lock(&p.near).cap, NEAR_CACHE);
        assert_eq!(Lru::lock(&p.clone().near).cap, NEAR_CACHE);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_key() {
        // (capacity, operations, keys present afterwards): `+k` stores the
        // operation's index under k, `?k` looks k up.
        let cases: [(usize, &str, &[&str]); 5] = [
            (0, "+a +b", &[]),
            (1, "+a +b", &["b"]),
            (2, "+a +b +c", &["b", "c"]),
            // A lookup refreshes recency: `a` outlives the older-touched `b`.
            (2, "+a +b ?a +c", &["a", "c"]),
            // Re-inserting a present key replaces it and evicts nothing.
            (2, "+a +b +a +c", &["a", "c"]),
        ];
        for (cap, ops, want) in cases {
            let mut lru: Lru<usize> = Lru::new(cap);
            for (i, op) in ops.split(' ').enumerate() {
                match op.split_at(1) {
                    ("+", key) => lru.insert(key.to_string(), Arc::new(i)),
                    (_, key) => assert!(lru.get(key).is_some(), "cap {cap}: {ops}"),
                }
            }
            let mut have: Vec<&str> = lru.entries.keys().map(String::as_str).collect();
            have.sort_unstable();
            assert_eq!(have, want, "cap {cap}: {ops}");
        }
        // The value stored last is the one served; lookups are counted.
        let mut lru: Lru<usize> = Lru::new(1);
        lru.insert("a".into(), Arc::new(1));
        lru.insert("a".into(), Arc::new(2));
        assert_eq!(lru.get("a").as_deref(), Some(&2));
        assert_eq!(lru.get("b"), None);
        assert_eq!((lru.hits, lru.misses), (1, 1));
    }

    #[test]
    fn plan_cache_zero_disables_caching() {
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                plan_cache: 0,
                ..Default::default()
            },
        );
        let seqs = [(8192, MaskSpec::Causal)];
        for _ in 0..3 {
            assert!(!p.plan(&seqs).unwrap().stats.cache_hit);
        }
    }

    #[test]
    fn stats_record_stage_times_on_miss() {
        let p = planner(2);
        let out = p.plan(&[(32768, MaskSpec::Causal)]).unwrap();
        let s = out.stats;
        assert!(!s.cache_hit);
        assert!(s.coarsen_s > 0.0, "coarsening must be timed: {s:?}");
        assert!(s.refine_s > 0.0, "refinement must be timed: {s:?}");
        assert!(s.total_s >= s.schedule_s, "{s:?}");
    }

    #[test]
    fn hypergraph_cost_matches_plan_forward_comm() {
        // The connectivity−1 objective is exactly the forward communication
        // volume the schedule realizes.
        let p = planner(1);
        let seqs = vec![(16384, MaskSpec::Causal), (4096, MaskSpec::paper_lambda())];
        let out = p.plan(&seqs).unwrap();
        let hg = Planner::build_hypergraph(&out.layout);
        let mut assignment = out.placement.token_to_dev.clone();
        assignment.extend_from_slice(&out.placement.comp_to_dev);
        let cost = hg.connectivity_cost(&assignment, out.placement.num_devices);
        assert_eq!(cost, out.plan.fwd.total_comm_bytes());
    }

    #[test]
    fn poisoned_cache_lock_recovers_and_planner_still_works() {
        let p = planner(1);
        let seqs = vec![(16384, MaskSpec::Causal), (4096, MaskSpec::Causal)];
        p.plan(&seqs).unwrap();
        // Poison the shared cache mutex: a clone's thread panics while
        // holding the guard (what a panicking plan under catch_unwind does).
        let p2 = p.clone();
        std::thread::spawn(move || {
            let _guard = p2.exact.lock().unwrap();
            panic!("poisoned on purpose");
        })
        .join()
        .unwrap_err();
        // The planner must recover — clearing the cache, not deadlocking or
        // propagating the poison to every future plan() call.
        let out = p.plan(&seqs).unwrap();
        assert!(
            !out.stats.cache_hit,
            "recovery clears the cache, so this is a miss"
        );
        verify_plan(&out.layout, &out.placement, &out.plan).unwrap();
        // And caching works again after recovery.
        assert!(p.plan(&seqs).unwrap().stats.cache_hit);
    }

    #[test]
    fn cache_capacity_is_not_part_of_signature() {
        // Changing only the cache capacity must not change either
        // signature: a restarted planner with a retuned cache still
        // warm-hits on plans persisted under the old config.
        let mk = |cap: usize| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    plan_cache: cap,
                    ..Default::default()
                },
            )
        };
        let seqs = [(8192, MaskSpec::Causal), (4096, MaskSpec::paper_lambda())];
        assert_eq!(mk(16).signature(&seqs), mk(64).signature(&seqs));
        assert_eq!(mk(16).near_signature(&seqs), mk(0).near_signature(&seqs));
        // Semantic incremental knobs DO key: the regression bound changes
        // which plans are acceptable, so it must split the cache space.
        let mk_bound = |max_regression: f64| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    incremental: IncrementalConfig {
                        enabled: true,
                        max_regression,
                    },
                    ..Default::default()
                },
            )
        };
        assert_ne!(
            mk_bound(1.25).signature(&seqs),
            mk_bound(2.0).signature(&seqs)
        );
    }

    fn incremental_planner(nodes: u32) -> Planner {
        Planner::new(
            ClusterSpec::p4de(nodes),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                // Exact cache off so the second plan() exercises the warm
                // path instead of returning the memoized output.
                plan_cache: 0,
                incremental: IncrementalConfig {
                    enabled: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn near_hit_on_identical_batch_is_bitwise_equal_to_cold() {
        // Re-planning the identical batch replays its stored output, so
        // the near-hit path must reproduce the cold plan bit for bit.
        for nodes in [1, 2] {
            let p = incremental_planner(nodes);
            let seqs = vec![
                (16384, MaskSpec::Causal),
                (4096, MaskSpec::paper_lambda()),
                (2048, MaskSpec::Causal),
            ];
            let cold = p.plan(&seqs).unwrap();
            assert!(!cold.stats.near_hit);
            let warm = p.plan(&seqs).unwrap();
            assert!(warm.stats.near_hit, "nodes={nodes}: expected a near hit");
            assert!(!warm.stats.cache_hit);
            assert_eq!(warm.placement, cold.placement, "nodes={nodes}");
            assert_eq!(warm.plan, cold.plan, "nodes={nodes}");
            assert_eq!(warm.tier, PlanTier::Partitioned);
            assert_eq!(p.near_cache_stats(), (1, 1));
        }
    }

    #[test]
    fn near_cache_evicts_past_its_capacity() {
        // NEAR_CACHE + 1 shapes: the first one's seed is evicted, the last
        // one's is still there.
        let p = incremental_planner(1);
        let shape = |i: usize| vec![(1024 * (i as u32 + 1), MaskSpec::Causal)];
        for i in 0..=NEAR_CACHE {
            assert!(!p.plan(&shape(i)).unwrap().stats.near_hit);
        }
        assert!(!p.plan(&shape(0)).unwrap().stats.near_hit, "evicted");
        assert!(p.plan(&shape(NEAR_CACHE)).unwrap().stats.near_hit);
        assert_eq!(p.near_cache_stats(), (1, NEAR_CACHE as u64 + 2));
    }

    #[test]
    fn near_hit_on_similar_batch_yields_valid_verified_plan() {
        // Lengths off by a few tokens bucket to the same block counts, so
        // the second batch near-hits the first one's seed. The warm plan
        // must be a legal, verified plan regardless of whether the quality
        // bound accepted the warm placement.
        let p = incremental_planner(2);
        let a = vec![(16384, MaskSpec::Causal), (4096, MaskSpec::Causal)];
        let b = vec![(16380, MaskSpec::Causal), (4090, MaskSpec::Causal)];
        assert_eq!(p.near_signature(&a), p.near_signature(&b));
        p.plan(&a).unwrap();
        let out = p.plan(&b).unwrap();
        assert_eq!(p.near_cache_stats().0, 1, "seed lookup must hit");
        verify_plan(&out.layout, &out.placement, &out.plan).unwrap();
    }

    /// A layout's token-block and comp-block keys, in layout order.
    fn keys(l: &BatchLayout) -> (Vec<BlockKey>, Vec<BlockKey>) {
        let comps = l.comp_blocks.iter().map(|cb| comp_key(l, cb));
        (
            l.token_blocks.iter().map(token_key).collect(),
            comps.collect(),
        )
    }

    /// `warm_seed` by a `HashMap` lookup per block key, which its merge
    /// stands in for.
    fn warm_seed_by_key(layout: &BatchLayout, old: &BatchLayout, at: &Placement) -> Vec<u32> {
        let (tokens, comps) = keys(old);
        let tokens: HashMap<_, _> = tokens.into_iter().zip(at.token_to_dev.clone()).collect();
        let comps: HashMap<_, _> = comps.into_iter().zip(at.comp_to_dev.clone()).collect();
        let mut last = 0;
        let mut seed = Vec::new();
        for tb in &layout.token_blocks {
            last = tokens.get(&token_key(tb)).copied().unwrap_or(last);
            seed.push(last);
        }
        for cb in &layout.comp_blocks {
            let part = comps.get(&comp_key(layout, cb)).copied();
            seed.push(part.unwrap_or(seed[cb.q_block.0 as usize]));
        }
        seed
    }

    proptest::proptest! {
        /// A drifted batch's warm seed, one merge per block kind, is the
        /// by-key lookup: under lengths shifted within and across blocks,
        /// sequences added and dropped and masks swapped. The merge rests on
        /// both layouts' keys ascending strictly, which is checked too.
        #[test]
        fn warm_seed_merge_is_the_by_key_lookup(
            base in proptest::collection::vec((1u32..600, 0u32..3), 1..5),
            // Per base sequence: a length shift, and 0 drop / 1 swap the
            // mask / else keep it.
            drift in proptest::collection::vec((0u32..261, 0u32..6), 5),
            added in proptest::collection::vec((1u32..600, 0u32..3), 0..3),
            salt in 0u32..1000,
        ) {
            let mask = |m: u32| match m % 3 {
                0 => MaskSpec::Causal,
                1 => MaskSpec::Full,
                _ => MaskSpec::Lambda { sink: 8, window: 48 },
            };
            let old_seqs: Vec<(u32, MaskSpec)> =
                base.iter().map(|&(l, m)| (l, mask(m))).collect();
            let mut new_seqs = Vec::new();
            for (&(l, m), &(shift, op)) in base.iter().zip(&drift) {
                let len = (l + shift).saturating_sub(130).max(1);
                match op {
                    0 => {}
                    1 => new_seqs.push((len, mask(m + 1))),
                    _ => new_seqs.push((len, mask(m))),
                }
            }
            new_seqs.extend(added.iter().map(|&(l, m)| (l, mask(m))));
            if new_seqs.is_empty() {
                // Every sequence dropped and none added: a batch of one new.
                new_seqs.push((1 + salt % 600, mask(salt)));
            }
            let build = |seqs: &[(u32, MaskSpec)]| {
                let cfg = BlockConfig { block_size: 64, head_blocks: 2 };
                BatchLayout::build(AttnSpec::new(4, 2, 16, 1), cfg, seqs).unwrap()
            };
            let (old, layout) = (build(&old_seqs), build(&new_seqs));
            for (tokens, comps) in [keys(&old), keys(&layout)] {
                let ascend = |k: &[BlockKey]| k.windows(2).all(|w| w[0] < w[1]);
                proptest::prop_assert!(ascend(&tokens) && ascend(&comps));
            }
            // An arbitrary placement of the old layout: 8 devices.
            let dev = |i: usize| (i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) % 8;
            let nt = old.token_blocks.len();
            let at = Placement {
                num_devices: 8,
                token_to_dev: (0..nt).map(dev).collect(),
                comp_to_dev: (nt..nt + old.comp_blocks.len()).map(dev).collect(),
            };
            proptest::prop_assert_eq!(
                Planner::warm_seed(&layout, &old, &at),
                warm_seed_by_key(&layout, &old, &at)
            );
        }
    }

    #[test]
    fn near_hit_respects_incremental_disabled() {
        // Default config: incremental off — repeated batches with the exact
        // cache disabled must plan cold every time.
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                plan_cache: 0,
                ..Default::default()
            },
        );
        let seqs = vec![(8192, MaskSpec::Causal)];
        p.plan(&seqs).unwrap();
        let out = p.plan(&seqs).unwrap();
        assert!(!out.stats.near_hit);
        assert_eq!(p.near_cache_stats(), (0, 0));
    }
}
