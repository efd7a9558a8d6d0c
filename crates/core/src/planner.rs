//! The per-batch DCP planner: block generation, hierarchical hypergraph
//! placement, and division scheduling (paper Sec. 4).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use dcp_blocks::{BatchLayout, BlockConfig, CompBlock, CompBlockId, TokenBlock, TokenBlockId};
use dcp_hypergraph::{
    partition_warm_with_stats, partition_with_stats, HgArena, Hypergraph, HypergraphBuilder,
    PartitionConfig, PartitionStats, PartitionWork, VertexWeight,
};
use dcp_mask::MaskSpec;
use dcp_obs::{Event, ObsHandle, Source as ObsSource, Span};
use dcp_sched::{
    build_plan, verify_plan, ExecutionPlan, PassConfig, PassManager, PassOutcome, Placement,
    ScheduleConfig,
};
use dcp_sim::{simulate_plan, FaultSpec};
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
    /// Fall back to greedy and then static placement when hypergraph
    /// partitioning errors or is ε-infeasible (default `true`). When
    /// `false`, the first failure surfaces as an error (strict mode).
    pub fallback: bool,
    /// Enforce the user ε exactly on the achieved device-level compute
    /// balance — no block-granularity slack. A partition violating it counts
    /// as ε-infeasible and triggers the fallback chain. Default `false`
    /// (the partitioner's caps, which grant one block of slack, decide).
    pub strict_epsilon: bool,
    /// Start the fallback chain at this tier, skipping earlier ones
    /// (ablations, tests, or pinning a degraded mode). `None` starts at
    /// [`PlanTier::Partitioned`].
    pub force_tier: Option<PlanTier>,
    /// Capacity of the signature-keyed plan cache (LRU entries). Long-context
    /// corpora repeat batch shapes constantly, so identical (lengths, masks,
    /// cluster, config) batches reuse the finished plan instead of
    /// re-partitioning. `0` disables caching.
    #[serde(default = "default_plan_cache")]
    pub plan_cache: usize,
    /// Quality gate on the fallback chain: a greedy or static plan whose
    /// simulated makespan exceeds this factor times the partitioned tier's
    /// estimate is rejected ([`DcpError::FallbackRejected`]) instead of
    /// silently shipped. The reference is the partitioned placement that
    /// failed the balance check — degraded, but still the best available
    /// estimate. `force_tier` skips the gate (there is no reference).
    #[serde(default = "default_max_fallback_regression")]
    pub max_fallback_regression: f64,
    /// Known cluster degradations the placement should plan *around*:
    /// straggler devices get proportionally less compute, devices behind
    /// degraded or flapping links get proportionally fewer token blocks.
    /// `None` (the default) places for a healthy cluster.
    #[serde(default)]
    pub fault_spec: Option<FaultSpec>,
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

fn default_max_fallback_regression() -> f64 {
    2.0
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
    /// Master switch; `false` (the default) plans every batch cold.
    #[serde(default)]
    pub enabled: bool,
    /// Accept a warm-started placement only while its communication bytes
    /// stay within this factor of the seeding plan's cost, scaled by the
    /// ratio of total hyperedge weight between the two batches (a bigger
    /// batch is allowed proportionally more volume).
    #[serde(default = "default_incremental_regression")]
    pub max_regression: f64,
    /// Capacity of the near-hit seed cache (LRU entries). `0` disables the
    /// near-hit tier even when `enabled` is set.
    #[serde(default = "default_near_cache")]
    pub near_cache: usize,
}

fn default_incremental_regression() -> f64 {
    1.25
}

fn default_near_cache() -> usize {
    8
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            enabled: false,
            max_regression: default_incremental_regression(),
            near_cache: default_near_cache(),
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
            fallback: true,
            strict_epsilon: false,
            force_tier: None,
            plan_cache: default_plan_cache(),
            max_fallback_regression: default_max_fallback_regression(),
            fault_spec: None,
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
    /// Which tier of the fallback chain produced this plan.
    pub tier: PlanTier,
    /// Why earlier tiers were skipped, when `tier` is not
    /// [`PlanTier::Partitioned`] (one entry per skipped tier).
    pub fallback_reason: Option<String>,
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

/// A warm-start seed retained from a previously planned batch: the part of
/// every block, keyed by block identity so surviving blocks of a similar
/// batch map back to their old parts, plus the cost context the quality
/// bound scales against.
#[derive(Debug)]
struct NearEntry {
    /// Device count the seeding placement targeted.
    num_devices: u32,
    /// Token-block part by [`token_key`].
    token_parts: Parts,
    /// Comp-block part by [`comp_key`].
    comp_parts: Parts,
    /// Forward communication bytes of the seeding plan, i.e. its
    /// connectivity−1 cost.
    cost: u64,
    /// Total multi-pin hyperedge weight of the seeding batch, used to scale
    /// `cost` to the new batch's volume.
    edge_total: u64,
    /// The seeding plan itself (verified). When a layout is
    /// block-identical to the seeding batch the schedule is a deterministic
    /// replay, so the stored plan is returned directly instead of being
    /// rebuilt — this is what makes the identical-re-plan path
    /// sub-millisecond.
    plan: ExecutionPlan,
}

/// A block's identity across batches.
type BlockKey = (u32, u32, u32, u32);

/// Block parts by identity, sorted by key. A layout's blocks come in key
/// order, so looking them up in turn finds each key where the previous one
/// left off, and only a block that is new or gone costs a binary search.
#[derive(Debug)]
struct Parts(Vec<(BlockKey, u32)>);

impl Parts {
    fn new(mut parts: Vec<(BlockKey, u32)>) -> Self {
        parts.sort_unstable_by_key(|e| e.0);
        Parts(parts)
    }

    /// The part of `key`, looked for at `*next` first; a hit moves `*next`
    /// past it.
    fn get(&self, key: BlockKey, next: &mut usize) -> Option<u32> {
        let at = match self.0.get(*next) {
            Some(e) if e.0 == key => *next,
            _ => self.0.binary_search_by_key(&key, |e| e.0).ok()?,
        };
        *next = at + 1;
        Some(self.0[at].1)
    }
}

/// `(seq, head_block, start, len)`.
fn token_key(tb: &TokenBlock) -> BlockKey {
    (tb.seq, tb.head_block, tb.start, tb.len)
}

/// `(seq, head_block, q_start, kv_start)`.
fn comp_key(layout: &BatchLayout, cb: &CompBlock) -> BlockKey {
    let start = |tb: TokenBlockId| layout.token_blocks[tb.0 as usize].start;
    (cb.seq, cb.head_block, start(cb.q_block), start(cb.kv_block))
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
/// structural coarsening level: a tile never spans more than 1/32 of its
/// document's block rows. DESIGN.md §11 records what a lower floor measured.
const TILE_ROWS: u32 = 32;

/// The largest tile side: at most 64 computation blocks a tile.
const MAX_TILE: u32 = 8;

/// The side `t` of the `t × t` tiles of a document of `nb` blocks: the
/// largest power of two at most `nb / TILE_ROWS`, capped at [`MAX_TILE`].
/// Documents under `2 × TILE_ROWS` blocks get `t = 1`: one block per tile,
/// which coarsening leaves to the matcher.
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
    /// whole [`PlannerConfig`] with the two cache capacities zeroed, so
    /// every knob that can change a plan keys it and retuning a capacity
    /// alone forces no cold miss.
    sig_tail: String,
    /// `cfg.fault_spec` as per-device `[compute, bytes]` capacity weights
    /// ([`FaultSpec::capacity_weights`]); `None` plans for a healthy cluster.
    capacity: Option<Vec<[f64; 2]>>,
    /// Finished plans by exact batch signature.
    exact: Arc<Mutex<Lru<PlanOutput>>>,
    /// Warm-start seeds by similarity key.
    near: Arc<Mutex<Lru<NearEntry>>>,
    /// Reusable hypergraph build buffers, shared across clones.
    arena: Arc<Mutex<HgArena>>,
    obs: ObsHandle,
}

/// A placement with the partitioned tier's by-products: whether every level
/// met its balance caps, the merged stage stats, and the connectivity cost
/// (== forward comm bytes, pinned by
/// `hypergraph_cost_matches_plan_forward_comm`).
type Placed = (Placement, bool, PartitionStats, u64);

impl Planner {
    /// Creates a planner for `cluster` and `attn` under `cfg`.
    pub fn new(cluster: ClusterSpec, attn: AttnSpec, cfg: PlannerConfig) -> Self {
        let mut keyed = cfg.clone();
        keyed.plan_cache = 0;
        keyed.incremental.near_cache = 0;
        let sig_tail = serde_json::to_string(&(&cluster, &keyed))
            .expect("planner signature serialization cannot fail");
        let capacity = cfg
            .fault_spec
            .as_ref()
            .and_then(|s| s.capacity_weights(cluster.num_devices() as usize));
        Planner {
            exact: Arc::new(Mutex::new(Lru::new(cfg.plan_cache))),
            near: Arc::new(Mutex::new(Lru::new(cfg.incremental.near_cache))),
            cluster,
            attn,
            cfg,
            sig_tail,
            capacity,
            arena: Arc::new(Mutex::new(HgArena::default())),
            obs: ObsHandle::noop(),
        }
    }

    /// Attaches an observability sink: every subsequent `plan()` call emits
    /// stage spans (block_gen / place / schedule plus the partitioner's
    /// coarsen / initial / refine breakdown), cache hit/miss counters and
    /// fallback-tier transition events. All emission happens on the calling
    /// thread, in plan order, so the stream is deterministic.
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Lifetime cache hit / miss counts of this planner (shared across
    /// clones). A degenerate batch rejected before lookup counts as neither.
    pub fn cache_stats(&self) -> (u64, u64) {
        let c = Lru::lock(&self.exact);
        (c.hits, c.misses)
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
    /// Placement walks the fallback chain (paper planner → greedy LPT →
    /// static zigzag) when `cfg.fallback` is on: a partitioner error or an
    /// ε-infeasible partition degrades the tier instead of failing the
    /// batch, and the tier that produced the plan is recorded in
    /// [`PlanOutput::tier`].
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::InvalidArgument`] for degenerate inputs (empty
    /// batch, zero devices, `divisions == 0`); otherwise propagates layout
    /// failures, and placement/scheduling failures only once every enabled
    /// tier has been exhausted.
    pub fn plan(&self, seqs: &[(u32, MaskSpec)]) -> DcpResult<PlanOutput> {
        self.plan_for_iter(seqs, None)
    }

    /// [`Planner::plan`] with an explicit iteration/batch index stamped onto
    /// every emitted observability event (the planner itself has no notion
    /// of iterations; callers that do — the dataloader, the trace harness —
    /// pass it here so planner spans correlate with executor/sim spans).
    ///
    /// The stages, in order: exact-cache lookup, block layout, the
    /// incremental path when a near-hit seed exists (`Call::try_warm`),
    /// else the fallback chain (`Call::walk_tiers`), then passes,
    /// verification and caching (`Call::finish`).
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
            key: (self.cfg.plan_cache > 0).then(|| self.signature(seqs)),
            near_key: None,
            times: PlanningTimes::default(),
            pstats: PartitionStats::default(),
            reasons: Vec::new(),
        };
        if let Some(hit) = call.lookup() {
            return Ok(hit);
        }
        // Near-hit tier: on an exact miss, a batch with the same bucketed
        // shape may have left a placement to warm-start from. The lookup is
        // independent of the exact cache so incremental planning works even
        // with exact caching disabled.
        let incremental_on = self.cfg.incremental.enabled && self.cfg.incremental.near_cache > 0;
        call.near_key = incremental_on.then(|| self.near_signature(seqs));
        let seed = call
            .near_key
            .as_deref()
            .and_then(|k| Lru::lock(&self.near).get(k));
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
        // Pinned tiers and fault-aware placements always plan cold (a forced
        // tier is an explicit user decision; fault targets change the caps
        // the seed was balanced under).
        let warm = seed
            .filter(|e| {
                self.cfg.force_tier.is_none()
                    && e.num_devices == self.cluster.num_devices()
                    && self.capacity.is_none()
            })
            .and_then(|e| call.try_warm(&layout, &e));
        match warm {
            Some(Warm::Replay(placement, plan)) => {
                let out = call.output(layout, placement, plan, PlanTier::Partitioned, true);
                call.remember(&out, false);
                Ok(out)
            }
            Some(Warm::Refined(placement, plan)) => {
                call.finish(layout, placement, plan, PlanTier::Partitioned, true)
            }
            None => {
                let (placement, plan, tier) = call.walk_tiers(&layout)?;
                call.finish(layout, placement, plan, tier, false)
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

    /// Computes the placement for one tier of the fallback chain,
    /// accumulating partitioner stage timings into `pstats` (the greedy and
    /// static tiers do not partition and leave it untouched). A partitioned
    /// placement that fails the balance check is left in `reference`.
    fn placement_for_tier(
        &self,
        layout: &BatchLayout,
        tier: PlanTier,
        pstats: &mut PartitionStats,
        reference: &mut Option<Placement>,
    ) -> DcpResult<Placement> {
        let n = self.cluster.num_devices();
        match tier {
            PlanTier::Partitioned => {
                let (placement, balanced, stats, _) = self.place(layout, None)?;
                pstats.merge(&stats);
                if !balanced {
                    *reference = Some(placement);
                    return Err(DcpError::Infeasible(
                        "partition exceeded the balance caps (ε-infeasible)".into(),
                    ));
                }
                if self.cfg.strict_epsilon {
                    let loads = placement.comp_loads(layout);
                    let total: u64 = loads.iter().sum();
                    let avg = total as f64 / loads.len().max(1) as f64;
                    let max = loads.iter().copied().max().unwrap_or(0) as f64;
                    if max > (1.0 + self.cfg.eps_intra) * avg {
                        *reference = Some(placement);
                        return Err(DcpError::Infeasible(format!(
                            "strict ε violated: max load {max:.0} > (1 + {}) * avg {avg:.0}",
                            self.cfg.eps_intra
                        )));
                    }
                }
                Ok(placement)
            }
            PlanTier::Greedy => Placement::greedy(layout, n),
            PlanTier::Static => dcp_baselines::static_placement(layout, n, true),
        }
    }

    /// Makespan ratio of a fallback candidate to the partitioned reference
    /// placement, both simulated on the planner's cluster. `None` (gate
    /// skipped) when the reference cannot be scheduled or either simulation
    /// fails — the gate only ever vetoes with positive evidence.
    fn fallback_regression(
        &self,
        layout: &BatchLayout,
        reference: &Placement,
        candidate: &ExecutionPlan,
    ) -> Option<f64> {
        let ref_plan = self.schedule(layout, reference).ok()?;
        let ref_t = simulate_plan(&self.cluster, &ref_plan).ok()?.total();
        let cand_t = simulate_plan(&self.cluster, candidate).ok()?.total();
        if !ref_t.is_finite() || ref_t <= 0.0 || !cand_t.is_finite() {
            return None;
        }
        Some(cand_t / ref_t)
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
        let nc = layout.comp_blocks.len();
        Self::fill_builder(HypergraphBuilder::new(nt + nc), layout)
    }

    /// The placement hypergraph's hyperedges in edge order: per token block
    /// `i`, `(weight, i, consumers)` for Q+O and then for KV. An edge nobody
    /// consumes has one pin, never costs, and is skipped.
    fn edges(layout: &BatchLayout) -> impl Iterator<Item = (u64, usize, &[CompBlockId])> {
        let per_token = |(i, tb): (usize, &TokenBlock)| {
            [
                (tb.q_bytes + tb.o_bytes, i, &layout.q_consumers[i][..]),
                (tb.kv_bytes, i, &layout.kv_consumers[i][..]),
            ]
        };
        layout
            .token_blocks
            .iter()
            .enumerate()
            .flat_map(per_token)
            .filter(|(_, _, consumers)| !consumers.is_empty())
    }

    fn fill_builder(mut b: HypergraphBuilder, layout: &BatchLayout) -> Hypergraph {
        let nt = layout.token_blocks.len();
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
        for (weight, i, consumers) in Self::edges(layout) {
            pins.clear();
            pins.push(i as u32);
            pins.extend(consumers.iter().map(|c| nt as u32 + c.0));
            b.add_edge(weight, &pins);
        }
        b.build().expect("pins are in range by construction")
    }

    /// Total hyperedge weight of `layout`'s placement hypergraph, without
    /// building it: what a warm-start seed's cost bound is scaled by.
    fn total_edge_weight(layout: &BatchLayout) -> u64 {
        Self::edges(layout).map(|(weight, ..)| weight).sum()
    }

    /// Maps `layout`'s blocks onto the seeding placement's parts by block
    /// identity ([`token_key`], [`comp_key`]). Unmatched token
    /// blocks inherit the last matched part in block order (deterministic
    /// carry-forward keeps new blocks near their sequence neighbors);
    /// unmatched comp blocks colocate with their Q block. The returned flag
    /// is `true` when the mapping is a perfect bijection — every block
    /// matched and the entry has no leftover blocks — i.e. the blocked
    /// layouts are identical.
    fn warm_seed(layout: &BatchLayout, entry: &NearEntry) -> (Vec<u32>, bool) {
        let nt = layout.token_blocks.len();
        let mut seed = vec![0u32; nt + layout.comp_blocks.len()];
        let mut exact =
            nt == entry.token_parts.0.len() && layout.comp_blocks.len() == entry.comp_parts.0.len();
        let (mut last, mut next) = (0u32, 0);
        for (i, tb) in layout.token_blocks.iter().enumerate() {
            match entry.token_parts.get(token_key(tb), &mut next) {
                Some(p) => last = p,
                None => exact = false,
            }
            seed[i] = last;
        }
        next = 0;
        for (i, cb) in layout.comp_blocks.iter().enumerate() {
            match entry.comp_parts.get(comp_key(layout, cb), &mut next) {
                Some(p) => seed[nt + i] = p,
                None => {
                    exact = false;
                    seed[nt + i] = seed[cb.q_block.0 as usize];
                }
            }
        }
        (seed, exact)
    }

    /// The warm-start seed entry describing a finished plan.
    fn near_entry_of(
        layout: &BatchLayout,
        placement: &Placement,
        plan: &ExecutionPlan,
    ) -> NearEntry {
        let token_parts = layout
            .token_blocks
            .iter()
            .zip(&placement.token_to_dev)
            .map(|(tb, &d)| (token_key(tb), d));
        let comp_parts = layout
            .comp_blocks
            .iter()
            .zip(&placement.comp_to_dev)
            .map(|(cb, &d)| (comp_key(layout, cb), d));
        NearEntry {
            num_devices: placement.num_devices,
            token_parts: Parts::new(token_parts.collect()),
            comp_parts: Parts::new(comp_parts.collect()),
            cost: plan.fwd.total_comm_bytes(),
            edge_total: Self::total_edge_weight(layout),
            plan: plan.clone(),
        }
    }

    /// Splits `totals` across parts proportionally to `weights` (per
    /// dimension, floored at 1 so downstream caps stay positive).
    fn targets_from_weights(totals: VertexWeight, weights: &[[f64; 2]]) -> Vec<VertexWeight> {
        let mut t = vec![[0u64; 2]; weights.len()];
        for dim in 0..2 {
            let sum: f64 = weights.iter().map(|w| w[dim]).sum();
            for (ti, w) in t.iter_mut().zip(weights) {
                ti[dim] = ((totals[dim] as f64 * w[dim] / sum).round() as u64).max(1);
            }
        }
        t
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

    /// The partitioned tier's placement of `layout` through the level
    /// hierarchy ([`Planner::place_levels`]): cold, or refined from `warm`,
    /// a full vertex → device seed, skipping coarsening and initial
    /// partitioning at every level.
    fn place(&self, layout: &BatchLayout, warm: Option<&[u32]>) -> DcpResult<Placed> {
        // Build in the shared arena's recycled buffers (a fresh build per
        // batch churns the allocator) and hand them back afterwards.
        let arena = || self.arena.lock().unwrap_or_else(|p| p.into_inner());
        let vertices = layout.token_blocks.len() + layout.comp_blocks.len();
        let builder = arena().builder(vertices);
        let hg = Self::fill_builder(builder, layout);
        let levels = self.placement_levels();
        let weights = self.capacity.as_deref();
        let placed = self
            .place_levels(&hg, &levels, self.cfg.seed, weights, 0, warm)
            .map(|(assignment, balanced, stats)| {
                let cost = hg.connectivity_cost(&assignment, self.cluster.num_devices());
                let placement = self.split_placement(layout, &assignment);
                (placement, balanced, stats, cost)
            });
        arena().recycle(hg);
        placed
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
    /// per-part derived seed. `weights` are per-device fault capacities over
    /// the *global* device space; `base` is this subproblem's first global
    /// device. With `warm` — a seeded device per vertex — every level
    /// refines the seed divided down to its granularity instead of
    /// partitioning from scratch; subgraphs, epsilons and per-part seeds are
    /// the same either way, so a converged seed reproduces the cold
    /// placement exactly. The per-part subproblems are independent — solved
    /// on the rayon pool (the paper parallelizes planning across CPU cores,
    /// Sec. 6.1) and merged in part order, so the result is
    /// thread-count-independent.
    fn place_levels(
        &self,
        hg: &Hypergraph,
        levels: &[(u32, f64)],
        seed: u64,
        weights: Option<&[[f64; 2]]>,
        base: usize,
        warm: Option<&[u32]>,
    ) -> DcpResult<(Vec<u32>, bool, PartitionStats)> {
        type LocalPartition = (Vec<u32>, Vec<u32>, bool, PartitionStats);
        let (parts, eps) = levels[0];
        let stride: u32 = levels[1..].iter().map(|l| l.0).product();
        let mut pc = PartitionConfig::new(parts)
            .with_epsilon(eps)
            .with_seed(seed);
        pc.refine_enabled = self.cfg.refine;
        if let Some(w) = weights {
            // A part's capacity is the sum of its member devices', re-scaled
            // to the load actually present in this subgraph.
            let totals = hg.part_weights(&vec![0u32; hg.num_vertices()], 1)[0];
            let span = stride as usize;
            let pw: Vec<[f64; 2]> = (0..parts as usize)
                .map(|p| {
                    let mut s = [0.0f64; 2];
                    for j in 0..span {
                        s[0] += w[base + p * span + j][0];
                        s[1] += w[base + p * span + j][1];
                    }
                    s
                })
                .collect();
            pc = pc.with_part_targets(Self::targets_from_weights(totals, &pw));
        }
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
                    weights,
                    base + p as usize * stride as usize,
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

/// What the incremental path produced from a near-hit seed.
enum Warm {
    /// The layout is block-identical to the seeding batch: the seeding
    /// placement and its stored plan, re-verified, are the answer.
    Replay(Placement, ExecutionPlan),
    /// A warm-refined placement that passed the quality bound, scheduled.
    Refined(Placement, ExecutionPlan),
}

/// One `plan()` call in flight: the time origin and `iter` stamp every
/// stage's events share, and what the stages accumulate for the output.
/// All emission is on the calling thread, in plan order.
struct Call<'a> {
    p: &'a Planner,
    origin: Instant,
    iter: Option<u64>,
    /// This batch's exact-cache key (`None`: exact caching is off) and,
    /// once the exact lookup missed, its near-hit key (`None`: incremental
    /// planning is off).
    key: Option<String>,
    near_key: Option<String>,
    times: PlanningTimes,
    pstats: PartitionStats,
    /// Why each tier that was tried and rejected was rejected.
    reasons: Vec<String>,
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

    /// Records a point event at the current offset from the origin.
    fn instant(&self, name: &str, label: Option<&str>) {
        self.emit(|| {
            let e = Event::instant(ObsSource::Planner, name)
                .with_time(self.origin.elapsed().as_secs_f64(), 0.0);
            match label {
                Some(l) => e.with_label(l),
                None => e,
            }
        });
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

    /// Incremental path: warm-start from a near-hit seed. `None` means the
    /// warm plan was rejected and the batch must be planned cold.
    fn try_warm(&mut self, layout: &BatchLayout, entry: &NearEntry) -> Option<Warm> {
        let span = self.span(Event::span(ObsSource::Planner, "warm_seed"));
        let (seed, exact) = Planner::warm_seed(layout, entry);
        let edge_total = Planner::total_edge_weight(layout);
        self.times.partition += span.finish();
        let near_hit = || Event::counter(ObsSource::Planner, "near_hit", 1.0);
        // Block-identical layout: the seed IS the seeding placement, and
        // the retained plan is exactly what the pipeline would rebuild for
        // it (layout, placement and config all identical) — so
        // partitioning, scheduling and the pass pipeline are all skipped
        // and the stored plan is replayed through the verifier.
        // Re-planning an unchanged batch reproduces the prior plan bit for
        // bit at near-lookup cost. Anything else — including a stored plan
        // that no longer verifies — goes through warm-started delta
        // refinement.
        if exact && entry.edge_total == edge_total {
            let placement = self.p.split_placement(layout, &seed);
            if verify_plan(layout, &placement, &entry.plan).is_ok() {
                self.emit(near_hit);
                return Some(Warm::Replay(placement, entry.plan.clone()));
            }
        }
        let span = self.span(Event::span(ObsSource::Planner, "delta_refine"));
        let placed = self.p.place(layout, Some(&seed));
        self.times.partition += span.finish();
        // Quality bound: balanced, and comm bytes within the configured
        // factor of the seeding plan's cost, scaled to this batch's
        // hyperedge volume. A zero-cost seed must stay zero-cost.
        let scaled = entry.cost as f64 * (edge_total as f64 / entry.edge_total.max(1) as f64);
        let max_regression = self.p.cfg.incremental.max_regression;
        let within = |cost: u64| match entry.cost {
            0 => cost == 0,
            _ => cost as f64 <= max_regression * scaled,
        };
        let refined = placed
            .ok()
            .filter(|&(_, balanced, _, cost)| balanced && within(cost))
            .and_then(|(placement, _, stats, _)| {
                let plan = self.schedule(layout, &placement, "warm").ok()?;
                self.pstats.merge(&stats);
                Some(Warm::Refined(placement, plan))
            });
        match refined {
            Some(_) => self.emit(near_hit),
            None => self.instant("warm_fallback", None),
        }
        refined
    }

    /// Walks the fallback chain from the configured starting tier until one
    /// tier yields a scheduled plan that passes the quality gate. A tier
    /// that fails is recorded (event, reason) and, with `cfg.fallback` on,
    /// the next one is tried; the last failure is the error.
    fn walk_tiers(
        &mut self,
        layout: &BatchLayout,
    ) -> DcpResult<(Placement, ExecutionPlan, PlanTier)> {
        let start = self.p.cfg.force_tier.unwrap_or(PlanTier::Partitioned);
        // The partitioned placement that failed the balance check, kept as
        // the makespan reference the fallback quality gate compares against.
        let mut reference: Option<Placement> = None;
        let mut last_err: Option<DcpError> = None;
        for tier in PlanTier::all().into_iter().filter(|&t| t >= start) {
            match self.try_tier(layout, tier, &mut reference) {
                Ok((placement, plan)) => return Ok((placement, plan, tier)),
                Err((event, e)) => {
                    self.instant(event, Some(tier.label()));
                    self.reasons.push(format!("{}: {e}", tier.label()));
                    last_err = Some(e);
                    if !self.p.cfg.fallback {
                        break;
                    }
                }
            }
        }
        Err(last_err.unwrap_or_else(|| DcpError::invalid_plan("no fallback tier produced a plan")))
    }

    /// Places and schedules one tier. An error carries the name of the
    /// event that reports it: `tier_fallback` when the tier could not
    /// produce a plan, `fallback_rejected` when the quality gate vetoed it.
    fn try_tier(
        &mut self,
        layout: &BatchLayout,
        tier: PlanTier,
        reference: &mut Option<Placement>,
    ) -> Result<(Placement, ExecutionPlan), (&'static str, DcpError)> {
        let p = self.p;
        let span = self.span(Event::span(ObsSource::Planner, "place").with_label(tier.label()));
        let placed = p.placement_for_tier(layout, tier, &mut self.pstats, reference);
        self.times.partition += span.finish();
        let placement = placed.map_err(|e| ("tier_fallback", e))?;
        let plan = self
            .schedule(layout, &placement, tier.label())
            .map_err(|e| ("tier_fallback", e))?;
        // Fallback quality gate: a degraded-tier plan must not regress the
        // simulated makespan past the configured factor of what the
        // (unbalanced) partitioned placement would have achieved.
        // `force_tier` has no reference to compare against and is exempt.
        if tier != PlanTier::Partitioned && p.cfg.force_tier.is_none() {
            let limit = p.cfg.max_fallback_regression;
            let factor = reference
                .as_ref()
                .and_then(|r| p.fallback_regression(layout, r, &plan));
            if let Some(factor) = factor.filter(|&f| f > limit) {
                let e = DcpError::fallback_rejected(tier, factor, limit);
                return Err(("fallback_rejected", e));
            }
        }
        Ok((placement, plan))
    }

    /// The output of this call, from what the stages accumulated.
    fn output(
        &self,
        layout: BatchLayout,
        placement: Placement,
        plan: ExecutionPlan,
        tier: PlanTier,
        near_hit: bool,
    ) -> PlanOutput {
        PlanOutput {
            layout,
            placement,
            plan,
            times: self.times,
            tier,
            fallback_reason: (!self.reasons.is_empty()).then(|| self.reasons.join("; ")),
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

    /// Caches the finished `out`: in the exact cache and, when `seeds`, as
    /// a warm-start seed for similar batches. Copies are made before the
    /// shared lock is taken.
    fn remember(self, out: &PlanOutput, seeds: bool) {
        if let Some(near_key) = self.near_key.filter(|_| seeds) {
            let entry = Planner::near_entry_of(&out.layout, &out.placement, &out.plan);
            Lru::lock(&self.p.near).insert(near_key, Arc::new(entry));
        }
        if let Some(key) = self.key {
            let stored = Arc::new(out.clone());
            Lru::lock(&self.p.exact).insert(key, stored);
        }
    }

    /// Everything after a tier was chosen: dead-communication elimination
    /// (when enabled), then the stream verifier on the freshly produced
    /// plan, the partitioner's stage breakdown, and both caches. Cache hits
    /// and replays skip the first three: those plans already passed.
    fn finish(
        mut self,
        layout: BatchLayout,
        placement: Placement,
        mut plan: ExecutionPlan,
        tier: PlanTier,
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
                "planner produced an illegal stream ({} tier): {diag}",
                tier.label()
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
                    .with_label(tier.label())
                    .with_time(at, dur)
            });
            at += dur;
        }
        let mut out = self.output(layout, placement, plan, tier, near_hit);
        out.passes = passes;
        // Warm-accepted plans seed too, so the seed chain follows
        // distribution drift. Only the partitioned tier seeds: greedy and
        // static placements are not worth warm-starting from.
        self.remember(&out, tier == PlanTier::Partitioned);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_sched::schedule::validate_plan;

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
    fn plan_is_valid_and_deterministic() {
        let p = planner(1);
        let seqs = vec![
            (16384, MaskSpec::Causal),
            (4096, MaskSpec::Causal),
            (2048, MaskSpec::paper_lambda()),
        ];
        let a = p.plan(&seqs).unwrap();
        validate_plan(&a.layout, &a.placement, &a.plan).unwrap();
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
        validate_plan(&aware_out.layout, &aware_out.placement, &aware_out.plan).unwrap();
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
        assert!(out.fallback_reason.is_none());
    }

    #[test]
    fn forced_greedy_and_static_tiers_produce_valid_plans() {
        let seqs = vec![(16384, MaskSpec::Causal), (4096, MaskSpec::Causal)];
        for tier in [PlanTier::Greedy, PlanTier::Static] {
            let p = Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    force_tier: Some(tier),
                    ..Default::default()
                },
            );
            let out = p.plan(&seqs).unwrap();
            assert_eq!(out.tier, tier);
            validate_plan(&out.layout, &out.placement, &out.plan).unwrap();
            assert_eq!(out.num_devices(), 8);
        }
    }

    #[test]
    fn infeasible_epsilon_falls_back_instead_of_erroring() {
        // strict ε = 0 with coarse blocks cannot be met exactly (block
        // granularity), so the partitioned tier is ε-infeasible; with
        // fallback enabled the plan must still come back valid, from a
        // degraded tier, with the reason recorded.
        let seqs = vec![(16384, MaskSpec::Causal), (2048, MaskSpec::Causal)];
        let mk = |fallback: bool| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 4096,
                    eps_intra: 0.0,
                    strict_epsilon: true,
                    fallback,
                    ..Default::default()
                },
            )
        };
        let out = mk(true).plan(&seqs).unwrap();
        assert_ne!(out.tier, PlanTier::Partitioned, "ε = 0 must be infeasible");
        validate_plan(&out.layout, &out.placement, &out.plan).unwrap();
        let reason = out.fallback_reason.expect("reason recorded");
        assert!(reason.contains("partitioned"), "{reason}");
        // Strict mode surfaces the infeasibility instead.
        let err = mk(false).plan(&seqs).unwrap_err();
        assert!(matches!(err, DcpError::Infeasible(_)), "{err}");
    }

    #[test]
    fn tiny_regression_limit_rejects_every_fallback_tier() {
        // Same ε-infeasible setup as `infeasible_epsilon_falls_back...`, but
        // with an absurdly tight quality gate: every fallback candidate
        // regresses past it, the chain exhausts, and the typed rejection
        // surfaces instead of a silently degraded plan.
        let seqs = vec![(16384, MaskSpec::Causal), (2048, MaskSpec::Causal)];
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 4096,
                eps_intra: 0.0,
                strict_epsilon: true,
                max_fallback_regression: 1e-6,
                ..Default::default()
            },
        );
        let err = p.plan(&seqs).unwrap_err();
        assert!(matches!(err, DcpError::FallbackRejected { .. }), "{err}");
    }

    #[test]
    fn force_tier_skips_the_fallback_gate() {
        // Pinning a tier is an explicit user decision; there is no
        // partitioned reference to compare against, so the gate must not
        // veto it even at an impossible limit.
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                force_tier: Some(PlanTier::Static),
                max_fallback_regression: 1e-6,
                ..Default::default()
            },
        );
        let out = p.plan(&[(16384, MaskSpec::Causal)]).unwrap();
        assert_eq!(out.tier, PlanTier::Static);
    }

    #[test]
    fn fault_aware_placement_shifts_load_off_straggler() {
        use dcp_sim::Fault;
        let seqs = vec![(32768, MaskSpec::Causal), (32768, MaskSpec::Causal)];
        let mk = |spec: Option<FaultSpec>| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    fault_spec: spec,
                    ..Default::default()
                },
            )
        };
        let healthy = mk(None).plan(&seqs).unwrap();
        let spec = FaultSpec {
            seed: 0,
            faults: vec![Fault::Straggler {
                device: 0,
                slowdown: 4.0,
            }],
        };
        let aware = mk(Some(spec)).plan(&seqs).unwrap();
        assert_eq!(
            aware.tier,
            PlanTier::Partitioned,
            "{:?}",
            aware.fallback_reason
        );
        let hl = healthy.placement.comp_loads(&healthy.layout);
        let al = aware.placement.comp_loads(&aware.layout);
        assert!(
            (al[0] as f64) < 0.6 * hl[0] as f64,
            "straggler kept its load: {} vs healthy {}",
            al[0],
            hl[0]
        );
    }

    #[test]
    fn empty_fault_spec_places_identically_to_none() {
        let seqs = vec![(16384, MaskSpec::Causal), (4096, MaskSpec::Causal)];
        let mk = |spec: Option<FaultSpec>| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    fault_spec: spec,
                    ..Default::default()
                },
            )
        };
        let a = mk(None).plan(&seqs).unwrap();
        let b = mk(Some(FaultSpec {
            seed: 0,
            faults: Vec::new(),
        }))
        .plan(&seqs)
        .unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.plan, b.plan);
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
    fn greedy_fallback_balances_compute() {
        let p = Planner::new(
            ClusterSpec::p4de(1),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 1024,
                force_tier: Some(PlanTier::Greedy),
                ..Default::default()
            },
        );
        let out = p.plan(&[(32768, MaskSpec::Causal)]).unwrap();
        let loads = out.placement.comp_loads(&out.layout);
        let avg = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        let max_block = out
            .layout
            .comp_blocks
            .iter()
            .map(|c| c.flops)
            .max()
            .unwrap();
        let max = *loads.iter().max().unwrap();
        assert!(
            (max as f64) <= avg + max_block as f64,
            "greedy LPT bound violated: max {max} avg {avg}"
        );
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
        assert_eq!(p.cache_stats(), (1, 1));
    }

    #[test]
    fn differing_masks_or_configs_never_collide() {
        // Same lengths, different mask: must be a miss, not a false hit.
        let p = planner(1);
        let a = p.plan(&[(16384, MaskSpec::Causal)]).unwrap();
        let b = p.plan(&[(16384, MaskSpec::paper_lambda())]).unwrap();
        assert!(!a.stats.cache_hit && !b.stats.cache_hit);
        assert_eq!(p.cache_stats(), (0, 2));
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
                incremental: IncrementalConfig {
                    near_cache: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let s1 = [(8192, MaskSpec::Causal)];
        p.plan(&s1).unwrap();
        // A clone sees the entry (shared cache).
        assert!(p.clone().plan(&s1).unwrap().stats.cache_hit);
        // Eviction itself is `lru_evicts_the_least_recently_used_key`.
        assert_eq!(Lru::lock(&p.exact).cap, 2);
        assert_eq!(Lru::lock(&p.near).cap, 1);
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
        assert!(!p.plan(&seqs).unwrap().stats.cache_hit);
        assert!(!p.plan(&seqs).unwrap().stats.cache_hit);
        assert_eq!(p.cache_stats(), (0, 0));
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
        let nt = out.layout.token_blocks.len();
        let mut assignment = out.placement.token_to_dev.clone();
        assignment.extend_from_slice(&out.placement.comp_to_dev);
        let cost = hg.connectivity_cost(&assignment, out.placement.num_devices);
        assert_eq!(cost, out.plan.fwd.total_comm_bytes());
        let _ = nt;
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
        validate_plan(&out.layout, &out.placement, &out.plan).unwrap();
        // And caching works again after recovery.
        assert!(p.plan(&seqs).unwrap().stats.cache_hit);
    }

    #[test]
    fn cache_capacity_is_not_part_of_signature() {
        // Changing only cache capacities must not change the signature: a
        // restarted planner with a retuned cache still warm-hits on plans
        // persisted under the old config.
        let mk = |cap: usize, near: usize| {
            Planner::new(
                ClusterSpec::p4de(1),
                AttnSpec::paper_micro(),
                PlannerConfig {
                    block_size: 1024,
                    plan_cache: cap,
                    incremental: IncrementalConfig {
                        near_cache: near,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
        };
        let seqs = [(8192, MaskSpec::Causal), (4096, MaskSpec::paper_lambda())];
        assert_eq!(mk(16, 8).signature(&seqs), mk(64, 2).signature(&seqs));
        assert_eq!(
            mk(16, 8).near_signature(&seqs),
            mk(64, 2).near_signature(&seqs)
        );
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
                        ..Default::default()
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
        // Warm-starting FM from its own converged placement is a fixed
        // point, so re-planning the identical batch through the near-hit
        // path must reproduce the cold plan bit for bit.
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
        validate_plan(&out.layout, &out.placement, &out.plan).unwrap();
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
