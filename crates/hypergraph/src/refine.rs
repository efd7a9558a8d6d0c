//! FM refinement and balance repair.
//!
//! Refinement maintains, for every hyperedge, the number of its pins in each
//! part (`lambda` table). The gain of moving vertex `v` from part `a` to
//! part `b` under the connectivity−1 objective is
//!
//! ```text
//!   gain = sum_{e ∋ v} w_e * ( [Lambda(e,a) == 1] - [Lambda(e,b) == 0] )
//! ```
//!
//! i.e. edges that would stop spanning `a` minus edges that would start
//! spanning `b`.
//!
//! [`refine`] runs Fiduccia–Mattheyses passes: each pass greedily applies the
//! best available move (including negative-gain moves, which lets it climb
//! out of local minima), locks the moved vertex, and finally rolls back to
//! the best prefix of the move sequence.
//!
//! Moves are drawn from a [`GainCache`] — per-vertex removal benefits and
//! per-(vertex, part) insertion penalties that are **updated incrementally**
//! on every move (delta-gain updates over the `lambda` table) — through an
//! addressable max-priority queue (`MoveHeap`) whose keys are adjusted in
//! place instead of re-pushed. This replaces the original lazily-revalidated
//! `BinaryHeap`, which recomputed every popped vertex's best move from
//! scratch (`O(deg · k)` per pop) and accumulated stale entries for locked
//! and moved vertices. The original implementation is frozen in
//! `tests/fm_oracle.rs`, which compares solution quality.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::graph::{Hypergraph, VertexWeight};
use crate::initial::within;
use crate::partitioner::PartitionWork;

/// Incremental state for k-way refinement.
pub struct RefineState {
    k: u32,
    /// `lambda[e * k + p]`: pins of edge `e` in part `p`.
    lambda: Vec<u32>,
    /// Per-part total weight.
    pub loads: Vec<VertexWeight>,
    /// Current connectivity−1 cost.
    pub cost: u64,
}

impl RefineState {
    /// Builds the lambda table and loads for `assignment`; the cost is read
    /// off each edge's lambda row as it is filled.
    pub fn new(hg: &Hypergraph, assignment: &[u32], k: u32) -> Self {
        let ku = k as usize;
        let mut lambda = vec![0u32; hg.num_edges() * ku];
        let mut cost = 0u64;
        for (e, row) in (0u32..).zip(lambda.chunks_exact_mut(ku)) {
            for &p in hg.pins(e) {
                row[assignment[p as usize] as usize] += 1;
            }
            let spans = row.iter().filter(|&&c| c > 0).count() as u64;
            cost += hg.edge_weight(e) * spans.saturating_sub(1);
        }
        RefineState {
            k,
            lambda,
            loads: hg.part_weights(assignment, k),
            cost,
        }
    }

    #[inline]
    fn lam(&self, e: u32, p: u32) -> u32 {
        self.lambda[e as usize * self.k as usize + p as usize]
    }

    /// Connectivity gain of moving `v` from `from` to `to` (positive is an
    /// improvement).
    pub fn gain(&self, hg: &Hypergraph, v: u32, from: u32, to: u32) -> i64 {
        let mut g = 0i64;
        for &e in hg.incident_edges(v) {
            let w = hg.edge_weight(e) as i64;
            if self.lam(e, from) == 1 {
                g += w;
            }
            if self.lam(e, to) == 0 {
                g -= w;
            }
        }
        g
    }

    /// Applies the move, updating lambda, loads and cost.
    pub fn apply(&mut self, hg: &Hypergraph, v: u32, from: u32, to: u32) {
        debug_assert_ne!(from, to);
        let g = self.gain(hg, v, from, to);
        for &e in hg.incident_edges(v) {
            let base = e as usize * self.k as usize;
            self.lambda[base + from as usize] -= 1;
            self.lambda[base + to as usize] += 1;
        }
        let w = hg.vertex_weight(v);
        self.loads[from as usize][0] -= w[0];
        self.loads[from as usize][1] -= w[1];
        self.loads[to as usize][0] += w[0];
        self.loads[to as usize][1] += w[1];
        self.cost = (self.cost as i64 - g) as u64;
    }

    /// Whether `v` touches an edge spanning more than one part.
    pub fn is_boundary(&self, hg: &Hypergraph, v: u32) -> bool {
        hg.incident_edges(v).iter().any(|&e| {
            let pins = hg.pins(e).len() as u32;
            // Edge spans > 1 part iff no part holds all its pins.
            (0..self.k).all(|p| self.lam(e, p) < pins)
        })
    }
}

/// Whether moving a vertex of weight `w` into a part with load `l` is
/// admissible under the destination's cap: each dimension the move actually
/// increases must stay under its cap. Dimensions the move leaves unchanged
/// may already be over cap (otherwise a part over its *data* cap could never
/// accept the *compute*-only vertices needed to repair a compute imbalance
/// elsewhere).
#[inline]
fn admissible(l: VertexWeight, w: VertexWeight, cap: VertexWeight) -> bool {
    (0..2).all(|d| w[d] == 0 || l[d] + w[d] <= cap[d])
}

fn norm_load(total: VertexWeight, w: VertexWeight) -> f64 {
    let a = if total[0] > 0 {
        w[0] as f64 / total[0] as f64
    } else {
        0.0
    };
    let b = if total[1] > 0 {
        w[1] as f64 / total[1] as f64
    } else {
        0.0
    };
    a.max(b)
}

/// Per-vertex incremental gain cache.
///
/// Decomposes the connectivity gain of moving `v` from its current part to
/// `to` into
///
/// ```text
///   gain(v, to) = benefit(v) − penalty(v, to)
///   benefit(v)     = Σ_{e ∋ v} w_e [Lambda(e, part(v)) == 1]
///   penalty(v, to) = Σ_{e ∋ v} w_e [Lambda(e, to) == 0]
/// ```
///
/// Both tables are maintained incrementally: a move only changes cache
/// entries of pins on edges whose `lambda` counters cross the `0 ↔ 1` or
/// `1 ↔ 2` thresholds, so [`GainCache::apply`] costs `O(deg(v))` plus the
/// pins of those threshold edges — instead of the `O(deg · k)` from-scratch
/// recomputation the lazy heap needed per pop.
pub struct GainCache {
    k: u32,
    /// `benefit[v]`: total weight of edges `v` would un-span by leaving its
    /// part (it is their last pin there).
    benefit: Vec<i64>,
    /// `penalty[v * k + p]`: total weight of edges `v` would newly span by
    /// moving into part `p`.
    penalty: Vec<i64>,
}

impl GainCache {
    /// Builds the cache from scratch for `state`'s lambda table.
    ///
    /// Every penalty row starts at the vertex's total edge weight, and each
    /// edge then takes its weight off the rows of its pins at the parts it
    /// already spans: `O(n·k + pins·λ)`, where testing every part of every
    /// pin's edges would be `O(pins·k)`. The sums are of integers, so their
    /// order is free.
    pub fn new(hg: &Hypergraph, state: &RefineState, assignment: &[u32]) -> Self {
        let n = hg.num_vertices();
        let k = state.k as usize;
        let mut benefit = vec![0i64; n];
        let mut penalty = Vec::with_capacity(n * k);
        for v in 0..n as u32 {
            let edges = hg.incident_edges(v).iter();
            let all: i64 = edges.map(|&e| hg.edge_weight(e) as i64).sum();
            penalty.resize(penalty.len() + k, all);
        }
        let mut spanned: Vec<usize> = Vec::with_capacity(k);
        for (e, row) in (0u32..).zip(state.lambda.chunks_exact(k)) {
            let w = hg.edge_weight(e) as i64;
            spanned.clear();
            spanned.extend((0..k).filter(|&p| row[p] > 0));
            for &u in hg.pins(e) {
                if row[assignment[u as usize] as usize] == 1 {
                    benefit[u as usize] += w;
                }
                for &p in &spanned {
                    penalty[u as usize * k + p] -= w;
                }
            }
        }
        GainCache {
            k: state.k,
            benefit,
            penalty,
        }
    }

    /// Cached connectivity gain of moving `v` to `to` (`to` must differ from
    /// `v`'s current part).
    #[inline]
    pub fn gain(&self, v: u32, to: u32) -> i64 {
        self.benefit[v as usize] - self.penalty[v as usize * self.k as usize + to as usize]
    }

    /// Applies the move `v → to`, updating `state` (lambda, loads, cost),
    /// `assignment`, and the cache via delta-gain updates. Vertices whose
    /// cached gains changed are appended to `touched` (duplicates possible).
    pub fn apply(
        &mut self,
        hg: &Hypergraph,
        state: &mut RefineState,
        assignment: &mut [u32],
        v: u32,
        to: u32,
        touched: &mut Vec<u32>,
    ) {
        let from = assignment[v as usize];
        debug_assert_ne!(from, to);
        let k = self.k as usize;
        let g = self.gain(v, to);
        for &e in hg.incident_edges(v) {
            let w = hg.edge_weight(e) as i64;
            let base = e as usize * k;
            let la = state.lambda[base + from as usize];
            let lb = state.lambda[base + to as usize];
            // v's own benefit contribution from e: [la == 1] before the
            // move, [lb + 1 == 1] after it.
            self.benefit[v as usize] += w * (i64::from(lb == 0) - i64::from(la == 1));
            if la == 1 {
                // `from` loses its last pin of e: moving into `from` now
                // spans e anew, for every pin.
                for &u in hg.pins(e) {
                    self.penalty[u as usize * k + from as usize] += w;
                    touched.push(u);
                }
            } else if la == 2 {
                // Exactly one pin remains in `from`: e becomes removable
                // for it.
                for &u in hg.pins(e) {
                    if u != v && assignment[u as usize] == from {
                        self.benefit[u as usize] += w;
                        touched.push(u);
                    }
                }
            }
            if lb == 0 {
                // `to` gains its first pin of e: moving into `to` no longer
                // spans e, for every pin.
                for &u in hg.pins(e) {
                    self.penalty[u as usize * k + to as usize] -= w;
                    touched.push(u);
                }
            } else if lb == 1 {
                // The pin that was alone in `to` can no longer un-span e by
                // leaving.
                for &u in hg.pins(e) {
                    if u != v && assignment[u as usize] == to {
                        self.benefit[u as usize] -= w;
                        touched.push(u);
                    }
                }
            }
            state.lambda[base + from as usize] -= 1;
            state.lambda[base + to as usize] += 1;
        }
        let w = hg.vertex_weight(v);
        state.loads[from as usize][0] -= w[0];
        state.loads[from as usize][1] -= w[1];
        state.loads[to as usize][0] += w[0];
        state.loads[to as usize][1] += w[1];
        state.cost = (state.cost as i64 - g) as u64;
        assignment[v as usize] = to;
        touched.push(v);
    }

    /// Best feasible move for `v` using cached gains: `(to, gain)`
    /// maximizing gain, tie-broken toward the lighter destination, at `O(k)`
    /// where recomputing every gain from the `lambda` table is `O(deg · k)`.
    fn best_move(
        &self,
        hg: &Hypergraph,
        state: &RefineState,
        v: u32,
        from: u32,
        cap: VertexWeight,
        total: VertexWeight,
    ) -> Option<(u32, i64)> {
        let w = hg.vertex_weight(v);
        let mut best: Option<(u32, i64, f64)> = None;
        for to in 0..self.k {
            if to == from {
                continue;
            }
            let l = state.loads[to as usize];
            if !admissible(l, w, cap) {
                continue;
            }
            let g = self.gain(v, to);
            let load_after = norm_load(total, [l[0] + w[0], l[1] + w[1]]);
            let better = match best {
                None => true,
                Some((_, bg, bl)) => g > bg || (g == bg && load_after < bl),
            };
            if better {
                best = Some((to, g, load_after));
            }
        }
        best.map(|(to, g, _)| (to, g))
    }

    /// The gain of [`GainCache::best_move`] alone: the largest gain over the
    /// admissible destinations, `None` exactly when none is admissible. The
    /// tie-break only chooses among destinations of that gain, so leaving
    /// it out (and its two divisions per destination) cannot change the
    /// gain. FM keys a vertex by this; only a vertex it moves needs the
    /// destination.
    fn best_gain(
        &self,
        hg: &Hypergraph,
        state: &RefineState,
        v: u32,
        from: u32,
        cap: VertexWeight,
    ) -> Option<i64> {
        let w = hg.vertex_weight(v);
        let k = self.k as usize;
        let row = &self.penalty[v as usize * k..][..k];
        let fits = |&to: &usize| to != from as usize && admissible(state.loads[to], w, cap);
        let least = (0..k).filter(fits).map(|to| row[to]).min()?;
        Some(self.benefit[v as usize] - least)
    }
}

/// An addressable max-priority queue over vertices, keyed by
/// `(gain, salt, vertex)`. Unlike a `BinaryHeap` of move entries, keys are
/// updated **in place** (sift up/down from the vertex's tracked position),
/// so the queue never holds stale entries for moved or locked vertices.
///
/// The key is kept inline, packed into one `u128` whose unsigned order is
/// the key's order, so a sift compares entries without looking anything
/// up. The key is a strict total order (the vertex is part of it), so every
/// correct max-heap over the same entries pops the same sequence: the
/// shape the heap happens to have, built one push at a time or by
/// [`MoveHeap::seed`]'s bottom-up heapify, never shows.
struct MoveHeap {
    /// Packed keys (`MoveHeap::pack`), a binary max-heap.
    heap: Vec<u128>,
    /// `pos[v]`: index of `v`'s entry in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl MoveHeap {
    fn new(n: usize) -> Self {
        MoveHeap {
            heap: Vec::with_capacity(n),
            pos: vec![ABSENT; n],
        }
    }

    /// `(gain, salt, v)` as one integer of the same order: the gain's sign
    /// bit flipped makes its two's complement order unsigned.
    #[inline]
    fn pack(gain: i64, salt: u32, v: u32) -> u128 {
        let g = (gain as u64) ^ (1 << 63);
        (u128::from(g) << 64) | (u128::from(salt) << 32) | u128::from(v)
    }

    #[inline]
    fn vertex(key: u128) -> u32 {
        key as u32
    }

    #[inline]
    fn gain(key: u128) -> i64 {
        (((key >> 64) as u64) ^ (1 << 63)) as i64
    }

    /// Replaces the contents with `entries` (`(v, gain, salt)`, each vertex
    /// at most once), heapified bottom-up in `O(len)`.
    fn seed(&mut self, entries: impl IntoIterator<Item = (u32, i64, u32)>) {
        self.clear();
        for (v, gain, salt) in entries {
            debug_assert_eq!(self.pos[v as usize], ABSENT, "vertex {v} seeded twice");
            self.pos[v as usize] = self.heap.len() as u32;
            self.heap.push(Self::pack(gain, salt, v));
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Empties the queue.
    fn clear(&mut self) {
        for &key in &self.heap {
            self.pos[Self::vertex(key) as usize] = ABSENT;
        }
        self.heap.clear();
    }

    /// Inserts `v` keyed by `(gain, salt)`, or re-keys it if present.
    fn push_or_update(&mut self, v: u32, gain: i64, salt: u32) {
        let key = Self::pack(gain, salt, v);
        let i = self.pos[v as usize];
        if i == ABSENT {
            self.heap.push(key);
            self.sift_up(self.heap.len() - 1);
        } else {
            self.replace(i as usize, key);
        }
    }

    /// Removes `v` if present.
    fn remove(&mut self, v: u32) {
        let i = self.pos[v as usize];
        if i == ABSENT {
            return;
        }
        self.pos[v as usize] = ABSENT;
        let last = self.heap.pop().expect("nonempty");
        if (i as usize) < self.heap.len() {
            self.replace(i as usize, last);
        }
    }

    /// Pops the maximum-key vertex and its gain.
    fn pop(&mut self) -> Option<(u32, i64)> {
        let top = *self.heap.first()?;
        self.remove(Self::vertex(top));
        Some((Self::vertex(top), Self::gain(top)))
    }

    /// Puts `key` at index `i` in place of the entry there, and restores
    /// the heap order around it.
    fn replace(&mut self, i: usize, key: u128) {
        let old = std::mem::replace(&mut self.heap[i], key);
        if key > old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Moves the entry at `i` up to its place, shifting the parents it
    /// passes down one level each.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.heap[parent];
            if key < above {
                break;
            }
            self.put(i, above);
            i = parent;
        }
        self.put(i, key);
    }

    /// Moves the entry at `i` down to its place, shifting the larger child
    /// up one level at each step.
    fn sift_down(&mut self, mut i: usize) {
        let key = self.heap[i];
        let len = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let c = if l + 1 < len && self.heap[l + 1] > self.heap[l] {
                l + 1
            } else {
                l
            };
            let below = self.heap[c];
            if below < key {
                break;
            }
            self.put(i, below);
            i = c;
        }
        self.put(i, key);
    }

    #[inline]
    fn put(&mut self, i: usize, key: u128) {
        self.heap[i] = key;
        self.pos[Self::vertex(key) as usize] = i as u32;
    }
}

/// How many consecutive non-improving moves an FM pass tolerates before
/// giving up on the current trajectory.
const STALL_LIMIT: usize = 48;

/// One [`refine`] call: the graph's lambda table and gain cache, which
/// every pass keeps exact, and the buffers the passes reset and reuse.
struct Refiner<'a> {
    hg: &'a Hypergraph,
    state: RefineState,
    cache: GainCache,
    /// The balance cap every destination is held to.
    cap: VertexWeight,
    /// The graph's total weight, which the tie-break normalizes loads by.
    total: VertexWeight,
    locked: Vec<bool>,
    /// Each vertex's current salt: equal-gain pops are salt-ordered.
    salts: Vec<u32>,
    boundary: Vec<bool>,
    heap: MoveHeap,
    /// `(vertex, previous part)` of every move of the pass, in order.
    moves: Vec<(u32, u32)>,
    touched: Vec<u32>,
    /// Dedup stamp for `touched`: `stamp[v] == move_ctr` means already
    /// re-keyed after this move. The counter runs on across passes, so the
    /// stamps never need clearing.
    stamp: Vec<u64>,
    move_ctr: u64,
}

impl<'a> Refiner<'a> {
    fn new(hg: &'a Hypergraph, assignment: &[u32], k: u32, cap: VertexWeight) -> Self {
        let n = hg.num_vertices();
        let state = RefineState::new(hg, assignment, k);
        Refiner {
            hg,
            cache: GainCache::new(hg, &state, assignment),
            state,
            cap,
            total: hg.total_weight(),
            locked: vec![false; n],
            salts: vec![0; n],
            boundary: vec![false; n],
            heap: MoveHeap::new(n),
            moves: Vec::new(),
            touched: Vec::new(),
            stamp: vec![u64::MAX; n],
            move_ctr: 0,
        }
    }

    /// One FM pass over the gain cache. Returns `true` if the pass improved
    /// the cost.
    fn pass(
        &mut self,
        assignment: &mut [u32],
        rng: &mut SmallRng,
        work: &mut PartitionWork,
    ) -> bool {
        let Refiner {
            hg,
            ref mut state,
            ref mut cache,
            cap,
            total,
            ..
        } = *self;
        self.locked.fill(false);
        // Equal-gain pops are salt-ordered, and a vertex draws a fresh salt
        // every time it is (re-)keyed — matching the lazy heap, where every
        // push carried a fresh salt. Re-salting on every re-key is
        // load-bearing for quality: it keeps plateau walks (chains of
        // zero-gain moves) from locking into a fixed direction and
        // stalling. Draws happen in the serial move loop only, so the
        // stream is identical at every thread count.
        for salt in &mut self.salts {
            *salt = rng.gen();
        }

        // Seed the queue with boundary vertices. Boundary flags come from
        // one sweep over the edges (an edge spans > 1 part iff its first
        // pin's part holds fewer than all its pins, and then marks all of
        // them) instead of a per-vertex `O(deg · k)` test.
        self.boundary.fill(false);
        for e in 0..hg.num_edges() as u32 {
            let pins = hg.pins(e);
            let Some(&first) = pins.first() else {
                continue;
            };
            if (state.lam(e, assignment[first as usize]) as usize) < pins.len() {
                for &u in pins {
                    self.boundary[u as usize] = true;
                }
            }
        }
        let (boundary, salts) = (&self.boundary, &self.salts);
        self.heap
            .seed((0..hg.num_vertices() as u32).filter_map(|v| {
                if !boundary[v as usize] {
                    return None;
                }
                let g = cache.best_gain(hg, state, v, assignment[v as usize], cap)?;
                Some((v, g, salts[v as usize]))
            }));

        let start_cost = state.cost;
        let mut best_cost = state.cost;
        self.moves.clear();
        let mut best_len = 0usize;
        let mut stall = 0usize;

        while let Some((v, key_gain)) = self.heap.pop() {
            debug_assert!(!self.locked[v as usize], "locked vertices leave the queue");
            let from = assignment[v as usize];
            // The key may lag the loads (admissibility drifts as parts
            // fill); recheck against the cache before committing.
            let Some(g) = cache.best_gain(hg, state, v, from, cap) else {
                continue;
            };
            if g != key_gain {
                self.salts[v as usize] = rng.gen();
                self.heap.push_or_update(v, g, self.salts[v as usize]);
                continue;
            }
            let (to, _) = cache
                .best_move(hg, state, v, from, cap, total)
                .expect("a vertex with a best gain has a destination");
            // The popped gain must agree with a from-scratch recomputation
            // — this is the regression guard for the delta-update rules.
            debug_assert_eq!(
                g,
                state.gain(hg, v, from, to),
                "gain cache out of sync for v={v} {from}->{to}"
            );
            self.touched.clear();
            cache.apply(hg, state, assignment, v, to, &mut self.touched);
            self.locked[v as usize] = true;
            self.moves.push((v, from));
            if state.cost < best_cost {
                best_cost = state.cost;
                best_len = self.moves.len();
                stall = 0;
            } else {
                stall += 1;
                if stall > STALL_LIMIT {
                    break;
                }
            }
            // Re-key the vertices whose cached gains the move changed.
            self.move_ctr += 1;
            for &u in &self.touched {
                if self.locked[u as usize] || self.stamp[u as usize] == self.move_ctr {
                    continue;
                }
                self.stamp[u as usize] = self.move_ctr;
                self.salts[u as usize] = rng.gen();
                match cache.best_gain(hg, state, u, assignment[u as usize], cap) {
                    Some(ug) => self.heap.push_or_update(u, ug, self.salts[u as usize]),
                    None => self.heap.remove(u),
                }
            }
        }

        work.fm_moves_applied += self.moves.len() as u64;
        work.fm_moves_rolled_back += (self.moves.len() - best_len) as u64;
        // Roll back past the best prefix (through the cache, so it stays
        // exact).
        while self.moves.len() > best_len {
            let (v, prev) = self.moves.pop().unwrap();
            self.touched.clear();
            cache.apply(hg, state, assignment, v, prev, &mut self.touched);
        }
        debug_assert_eq!(state.cost, best_cost);
        best_cost < start_cost
    }
}

/// Runs up to `passes` FM passes over `assignment` in place, adding their
/// move counts to `work`. Returns the resulting connectivity cost.
pub fn refine(
    hg: &Hypergraph,
    assignment: &mut [u32],
    k: u32,
    cap: VertexWeight,
    passes: u32,
    rng: &mut SmallRng,
    work: &mut PartitionWork,
) -> u64 {
    let mut fm = Refiner::new(hg, assignment, k, cap);
    for _ in 0..passes {
        if !fm.pass(assignment, rng, work) {
            break;
        }
    }
    fm.state.cost
}

/// Moves vertices out of parts exceeding `cap` until the assignment is
/// balanced or no improving move exists. Chooses, at each step, the move that
/// minimizes the connectivity cost increase per unit of overload relieved:
/// per vertex of the overloaded part, its admissible destination of largest
/// cached gain (the score is monotone in the gain), then the vertex of least
/// score, first on ties. Returns whether the final assignment satisfies the
/// caps.
pub(crate) fn rebalance(
    hg: &Hypergraph,
    assignment: &mut [u32],
    k: u32,
    cap: VertexWeight,
) -> bool {
    let mut state = RefineState::new(hg, assignment, k);
    let mut cache = GainCache::new(hg, &state, assignment);
    let mut touched = Vec::new();
    // Bounded number of moves to guarantee termination.
    let max_moves = hg.num_vertices() * 2;
    for _ in 0..max_moves {
        // Find the most overloaded (part, dim), comparing overloads as a
        // fraction of the dimension's cap (FLOPs and bytes are not
        // commensurable in absolute terms).
        let mut worst: Option<(u32, usize, f64)> = None;
        for p in 0..k {
            for (d, &c) in cap.iter().enumerate() {
                let over = state.loads[p as usize][d].saturating_sub(c);
                if over == 0 {
                    continue;
                }
                let frac = over as f64 / c.max(1) as f64;
                if worst.is_none_or(|(_, _, o)| frac > o) {
                    worst = Some((p, d, frac));
                }
            }
        }
        let Some((from, dim, _)) = worst else {
            return true;
        };
        // Best (vertex, destination): minimal cost increase per unit of the
        // overloaded dimension relieved; destination must fit.
        let mut best: Option<(u32, u32, f64)> = None;
        for v in 0..hg.num_vertices() as u32 {
            if assignment[v as usize] != from {
                continue;
            }
            let w = hg.vertex_weight(v);
            if w[dim] == 0 {
                continue;
            }
            let mut dest: Option<(u32, i64)> = None;
            for to in 0..k {
                if to == from || !admissible(state.loads[to as usize], w, cap) {
                    continue;
                }
                let g = cache.gain(v, to);
                if dest.is_none_or(|(_, bg)| g > bg) {
                    dest = Some((to, g));
                }
            }
            let Some((to, g)) = dest else {
                continue;
            };
            let score = (-g) as f64 / w[dim] as f64;
            if best.is_none_or(|(_, _, s)| score < s) {
                best = Some((v, to, score));
            }
        }
        let Some((v, to, _)) = best else {
            return false;
        };
        touched.clear();
        cache.apply(hg, &mut state, assignment, v, to, &mut touched);
    }
    within(&state.loads, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HypergraphBuilder;
    use rand::SeedableRng;

    fn ring(n: usize, w: u64) -> Hypergraph {
        let mut b = HypergraphBuilder::new(n);
        for v in 0..n {
            b.set_vertex_weight(v, [1, 1]);
        }
        for v in 0..n {
            b.add_edge(w, &[v as u32, ((v + 1) % n) as u32]);
        }
        b.build().unwrap()
    }

    #[test]
    fn gain_matches_recomputation() {
        let hg = ring(8, 3);
        let assignment = vec![0, 0, 1, 1, 0, 1, 0, 1];
        let state = RefineState::new(&hg, &assignment, 2);
        for v in 0..8u32 {
            let from = assignment[v as usize];
            let to = 1 - from;
            let g = state.gain(&hg, v, from, to);
            let mut after = assignment.clone();
            after[v as usize] = to;
            let recomputed = hg.connectivity_cost(&assignment, 2) as i64
                - hg.connectivity_cost(&after, 2) as i64;
            assert_eq!(g, recomputed, "v={v}");
        }
    }

    #[test]
    fn apply_keeps_cost_in_sync() {
        let hg = ring(8, 2);
        let mut assignment = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let mut state = RefineState::new(&hg, &assignment, 2);
        for v in [1u32, 3, 5] {
            let from = assignment[v as usize];
            state.apply(&hg, v, from, 1 - from);
            assignment[v as usize] = 1 - from;
            assert_eq!(state.cost, hg.connectivity_cost(&assignment, 2));
        }
    }

    #[test]
    fn gain_cache_matches_state_gain() {
        let hg = ring(10, 3);
        let assignment: Vec<u32> = (0..10).map(|v| (v / 5) as u32).collect();
        let state = RefineState::new(&hg, &assignment, 2);
        let cache = GainCache::new(&hg, &state, &assignment);
        for v in 0..10u32 {
            let from = assignment[v as usize];
            assert_eq!(
                cache.gain(v, 1 - from),
                state.gain(&hg, v, from, 1 - from),
                "v={v}"
            );
        }
    }

    #[test]
    fn gain_cache_delta_updates_stay_exact() {
        let hg = ring(12, 2);
        let mut assignment: Vec<u32> = (0..12).map(|v| (v % 3) as u32).collect();
        let mut state = RefineState::new(&hg, &assignment, 3);
        let mut cache = GainCache::new(&hg, &state, &assignment);
        let mut touched = Vec::new();
        // Apply a fixed move sequence; after each, the cache must agree with
        // a from-scratch rebuild for every (vertex, target).
        for (v, to) in [(0u32, 1u32), (4, 2), (7, 0), (0, 2), (11, 1)] {
            if assignment[v as usize] == to {
                continue;
            }
            touched.clear();
            cache.apply(&hg, &mut state, &mut assignment, v, to, &mut touched);
            assert_eq!(state.cost, hg.connectivity_cost(&assignment, 3));
            let fresh_state = RefineState::new(&hg, &assignment, 3);
            let fresh = GainCache::new(&hg, &fresh_state, &assignment);
            for u in 0..12u32 {
                for p in 0..3u32 {
                    if p == assignment[u as usize] {
                        continue;
                    }
                    assert_eq!(
                        cache.gain(u, p),
                        fresh.gain(u, p),
                        "stale gain for u={u} -> {p} after moving {v} -> {to}"
                    );
                }
            }
        }
    }

    #[test]
    fn move_heap_updates_in_place() {
        let mut heap = MoveHeap::new(4);
        heap.push_or_update(0, 5, 0);
        heap.push_or_update(1, 9, 0);
        heap.push_or_update(2, 1, 0);
        // Re-key vertex 2 above everything; vertex 1 below.
        heap.push_or_update(2, 20, 0);
        heap.push_or_update(1, 0, 0);
        assert_eq!(heap.pop(), Some((2, 20)));
        assert_eq!(heap.pop(), Some((0, 5)));
        heap.remove(1);
        assert!(heap.pop().is_none());
        // Removing an absent vertex is a no-op.
        heap.remove(3);
    }

    #[test]
    fn refine_untangles_alternating_ring() {
        let hg = ring(16, 5);
        // Worst-case alternating assignment: every edge cut.
        let mut assignment: Vec<u32> = (0..16).map(|v| (v % 2) as u32).collect();
        let before = hg.connectivity_cost(&assignment, 2);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut work = PartitionWork::default();
        let after = refine(&hg, &mut assignment, 2, [10, 10], 16, &mut rng, &mut work);
        // FM with negative-gain moves should reach the optimum: two arcs,
        // two cut edges.
        assert_eq!(after, hg.connectivity_cost(&assignment, 2));
        assert!(after <= 4 * 5, "{after} vs before {before}");
        // Every edge starts cut, so the passes did move vertices, and the
        // kept moves are the applied ones minus the rolled-back tail.
        assert!(work.fm_moves_applied > work.fm_moves_rolled_back);
        // Balance maintained.
        let pw = hg.part_weights(&assignment, 2);
        assert!(pw.iter().all(|w| w[0] <= 10));
    }

    #[test]
    fn refine_respects_caps() {
        let hg = ring(8, 1);
        let mut assignment = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let mut rng = SmallRng::seed_from_u64(8);
        refine(
            &hg,
            &mut assignment,
            2,
            [4, 4],
            8,
            &mut rng,
            &mut PartitionWork::default(),
        );
        let pw = hg.part_weights(&assignment, 2);
        assert!(pw.iter().all(|w| w[0] <= 4 && w[1] <= 4));
    }

    #[test]
    fn refine_never_worsens() {
        let mut rng = SmallRng::seed_from_u64(99);
        for n in [6usize, 12, 30] {
            let hg = ring(n, 2);
            let mut assignment: Vec<u32> = (0..n).map(|v| (v as u32 * 3) % 3).collect();
            let before = hg.connectivity_cost(&assignment, 3);
            let after = refine(
                &hg,
                &mut assignment,
                3,
                [n as u64, n as u64],
                8,
                &mut rng,
                &mut PartitionWork::default(),
            );
            assert!(after <= before);
        }
    }

    #[test]
    fn rebalance_fixes_overload() {
        let hg = ring(8, 1);
        // Everything on part 0.
        let mut assignment = vec![0u32; 8];
        let ok = rebalance(&hg, &mut assignment, 2, [5, 5]);
        assert!(ok);
        let pw = hg.part_weights(&assignment, 2);
        assert!(pw.iter().all(|w| w[0] <= 5 && w[1] <= 5));
    }

    /// `rebalance` as it was before it read the gain cache: every vertex of
    /// the overloaded part against every destination, each gain recomputed
    /// from the `lambda` table. Frozen; the oracle for `rebalance`.
    fn rebalance_reference(
        hg: &Hypergraph,
        assignment: &mut [u32],
        k: u32,
        cap: VertexWeight,
    ) -> bool {
        let mut state = RefineState::new(hg, assignment, k);
        let max_moves = hg.num_vertices() * 2;
        for _ in 0..max_moves {
            let mut worst: Option<(u32, usize, f64)> = None;
            for p in 0..k {
                for (d, &c) in cap.iter().enumerate() {
                    let over = state.loads[p as usize][d].saturating_sub(c);
                    if over == 0 {
                        continue;
                    }
                    let frac = over as f64 / c.max(1) as f64;
                    if worst.is_none_or(|(_, _, o)| frac > o) {
                        worst = Some((p, d, frac));
                    }
                }
            }
            let Some((from, dim, _)) = worst else {
                return true;
            };
            let mut best: Option<(u32, u32, f64)> = None;
            for v in 0..hg.num_vertices() as u32 {
                if assignment[v as usize] != from {
                    continue;
                }
                let w = hg.vertex_weight(v);
                if w[dim] == 0 {
                    continue;
                }
                for to in 0..k {
                    if to == from {
                        continue;
                    }
                    let l = state.loads[to as usize];
                    if !admissible(l, w, cap) {
                        continue;
                    }
                    let g = state.gain(hg, v, from, to);
                    let score = (-g) as f64 / w[dim] as f64;
                    if best.is_none_or(|(_, _, s)| score < s) {
                        best = Some((v, to, score));
                    }
                }
            }
            let Some((v, to, _)) = best else {
                return false;
            };
            state.apply(hg, v, from, to);
            assignment[v as usize] = to;
        }
        within(&state.loads, cap)
    }

    /// A random hypergraph shaped like the planner's: data vertices weigh
    /// bytes only, compute vertices flops only, a few weigh both; small
    /// integer weights so equal gains and equal scores are common.
    fn random_graph(rng: &mut SmallRng) -> Hypergraph {
        let n = rng.gen_range(8..60);
        let mut b = HypergraphBuilder::new(n);
        for v in 0..n {
            let (f, d) = (rng.gen_range(1..5u64), rng.gen_range(1..5u64));
            let w = match rng.gen_range(0..5) {
                0 | 1 => [0, d],
                2 | 3 => [f, 0],
                _ => [f, d],
            };
            b.set_vertex_weight(v, w);
        }
        for _ in 0..rng.gen_range(n / 2..2 * n) {
            let mut pins: Vec<u32> = (0..rng.gen_range(2..6))
                .map(|_| rng.gen_range(0..n as u32))
                .collect();
            pins.sort_unstable();
            pins.dedup();
            if pins.len() > 1 {
                b.add_edge(rng.gen_range(1..4), &pins);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn rebalance_matches_the_frozen_scan() {
        let mut rng = SmallRng::seed_from_u64(33);
        let (mut moved, mut failed) = (0, 0);
        for case in 0..600 {
            let hg = random_graph(&mut rng);
            let k = [2u32, 4, 8][case % 3];
            // Overloaded: most vertices start on one part.
            let heavy = rng.gen_range(0..k);
            let start: Vec<u32> = (0..hg.num_vertices())
                .map(|_| {
                    if rng.gen_bool(0.6) {
                        heavy
                    } else {
                        rng.gen_range(0..k)
                    }
                })
                .collect();
            let total = hg.total_weight();
            let slack: f64 = rng.gen_range(1.0..1.4);
            let cap = total.map(|t| (t as f64 / k as f64 * slack).ceil() as u64);
            let (mut got, mut want) = (start.clone(), start.clone());
            let ok = rebalance(&hg, &mut got, k, cap);
            let ok_ref = rebalance_reference(&hg, &mut want, k, cap);
            assert_eq!((ok, &got), (ok_ref, &want), "case {case}, k = {k}");
            moved += usize::from(got != start);
            failed += usize::from(!ok);
        }
        // The cases exercise both outcomes, and most of them move.
        assert!(moved > 400 && failed > 0, "{moved} moved, {failed} failed");
    }

    #[test]
    fn rebalance_reports_impossible() {
        // One giant vertex cannot be split.
        let mut b = HypergraphBuilder::new(2);
        b.set_vertex_weight(0, [100, 0]);
        b.set_vertex_weight(1, [1, 0]);
        b.add_edge(1, &[0, 1]);
        let hg = b.build().unwrap();
        let mut assignment = vec![0, 0];
        assert!(!rebalance(&hg, &mut assignment, 2, [50, 50]));
    }

    #[test]
    fn best_gain_is_the_gain_of_best_move() {
        let mut rng = SmallRng::seed_from_u64(45);
        let (mut some, mut none) = (0, 0);
        for case in 0..400 {
            let hg = random_graph(&mut rng);
            let k = [2u32, 3, 4, 8][case % 4];
            let assignment: Vec<u32> = (0..hg.num_vertices())
                .map(|_| rng.gen_range(0..k))
                .collect();
            let mut state = RefineState::new(&hg, &assignment, k);
            let cache = GainCache::new(&hg, &state, &assignment);
            let total = hg.total_weight();
            // Loads off the assignment, or drawn at random; caps from tight
            // (few destinations admissible) to loose.
            if rng.gen_bool(0.5) {
                for l in &mut state.loads {
                    *l = total.map(|t| rng.gen_range(0..=t));
                }
            }
            let slack: f64 = rng.gen_range(0.3..1.6);
            let cap = total.map(|t| (t as f64 / k as f64 * slack) as u64);
            for v in 0..hg.num_vertices() as u32 {
                let from = assignment[v as usize];
                let full = cache.best_move(&hg, &state, v, from, cap, total);
                let gain = cache.best_gain(&hg, &state, v, from, cap);
                assert_eq!(gain, full.map(|(_, g)| g), "case {case}, v = {v}");
                some += usize::from(gain.is_some());
                none += usize::from(gain.is_none());
            }
        }
        assert!(
            some > 1000 && none > 1000,
            "{some} with a move, {none} without"
        );
    }

    #[test]
    fn move_heap_pops_what_an_ordered_set_pops() {
        use std::collections::BTreeSet;
        let mut rng = SmallRng::seed_from_u64(46);
        for case in 0..300 {
            let n = rng.gen_range(1..40u32);
            let mut heap = MoveHeap::new(n as usize);
            let mut set: BTreeSet<(i64, u32, u32)> = BTreeSet::new();
            let mut key: Vec<Option<(i64, u32)>> = vec![None; n as usize];
            // Narrow gain and salt ranges, so ties fall through to the salt
            // and to the vertex; gains of either sign and at the extremes.
            let draw = |rng: &mut SmallRng| {
                let g = match rng.gen_range(0..8) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => rng.gen_range(-3..4),
                };
                (g, rng.gen_range(0..3u32))
            };
            for step in 0..rng.gen_range(1..200) {
                let v = rng.gen_range(0..n);
                match rng.gen_range(0..10) {
                    0..=3 => {
                        let (g, salt) = draw(&mut rng);
                        heap.push_or_update(v, g, salt);
                        if let Some((og, os)) = key[v as usize].replace((g, salt)) {
                            set.remove(&(og, os, v));
                        }
                        set.insert((g, salt, v));
                    }
                    4 | 5 => {
                        heap.remove(v);
                        if let Some((g, salt)) = key[v as usize].take() {
                            set.remove(&(g, salt, v));
                        }
                    }
                    6..=8 => {
                        let want = set.pop_last().map(|(g, _, u)| (u, g));
                        if let Some((u, _)) = want {
                            key[u as usize] = None;
                        }
                        assert_eq!(heap.pop(), want, "case {case}, step {step}");
                    }
                    _ => {
                        let mut entries = Vec::new();
                        set.clear();
                        key.fill(None);
                        for u in 0..n {
                            if rng.gen_bool(0.6) {
                                let (g, salt) = draw(&mut rng);
                                entries.push((u, g, salt));
                                key[u as usize] = Some((g, salt));
                                set.insert((g, salt, u));
                            }
                        }
                        heap.seed(entries);
                    }
                }
            }
            while let Some((g, _, u)) = set.pop_last() {
                assert_eq!(heap.pop(), Some((u, g)), "case {case}, draining");
            }
            assert_eq!(heap.pop(), None, "case {case}");
        }
    }
}
