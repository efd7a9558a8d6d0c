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
use crate::initial::Caps;
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
    /// Builds the lambda table and loads for `assignment`.
    pub fn new(hg: &Hypergraph, assignment: &[u32], k: u32) -> Self {
        let mut lambda = vec![0u32; hg.num_edges() * k as usize];
        for e in 0..hg.num_edges() as u32 {
            for &p in hg.pins(e) {
                lambda[e as usize * k as usize + assignment[p as usize] as usize] += 1;
            }
        }
        RefineState {
            k,
            lambda,
            loads: hg.part_weights(assignment, k),
            cost: hg.connectivity_cost(assignment, k),
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
    pub fn new(hg: &Hypergraph, state: &RefineState, assignment: &[u32]) -> Self {
        let n = hg.num_vertices();
        let k = state.k;
        let mut benefit = vec![0i64; n];
        let mut penalty = vec![0i64; n * k as usize];
        for v in 0..n as u32 {
            let from = assignment[v as usize];
            let base = v as usize * k as usize;
            for &e in hg.incident_edges(v) {
                let w = hg.edge_weight(e) as i64;
                if state.lam(e, from) == 1 {
                    benefit[v as usize] += w;
                }
                for p in 0..k {
                    if state.lam(e, p) == 0 {
                        penalty[base + p as usize] += w;
                    }
                }
            }
        }
        GainCache {
            k,
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
        caps: &Caps,
        total: VertexWeight,
    ) -> Option<(u32, i64)> {
        let w = hg.vertex_weight(v);
        let mut best: Option<(u32, i64, f64)> = None;
        for to in 0..self.k {
            if to == from {
                continue;
            }
            let l = state.loads[to as usize];
            if !admissible(l, w, caps.at(to)) {
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
}

/// An addressable max-priority queue over vertices, keyed by
/// `(gain, salt, vertex)`. Unlike a `BinaryHeap` of move entries, keys are
/// updated **in place** (sift up/down from the vertex's tracked position),
/// so the queue never holds stale entries for moved or locked vertices.
struct MoveHeap {
    /// Heap of vertex ids, ordered by `key`.
    heap: Vec<u32>,
    /// `pos[v]`: index of `v` in `heap`, or `ABSENT`.
    pos: Vec<usize>,
    /// `key[v]`: `(gain, salt)` for vertices currently in the heap.
    key: Vec<(i64, u32)>,
}

const ABSENT: usize = usize::MAX;

impl MoveHeap {
    fn new(n: usize) -> Self {
        MoveHeap {
            heap: Vec::with_capacity(n),
            pos: vec![ABSENT; n],
            key: vec![(0, 0); n],
        }
    }

    #[inline]
    fn ord(&self, v: u32) -> (i64, u32, u32) {
        let (g, s) = self.key[v as usize];
        (g, s, v)
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts `v` with `key`, or adjusts its key if already present.
    fn push_or_update(&mut self, v: u32, key: (i64, u32)) {
        let i = self.pos[v as usize];
        self.key[v as usize] = key;
        if i == ABSENT {
            self.pos[v as usize] = self.heap.len();
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1);
        } else {
            self.sift_up(i);
            self.sift_down(self.pos[v as usize]);
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
        if i < self.heap.len() {
            self.heap[i] = last;
            self.pos[last as usize] = i;
            self.sift_up(i);
            self.sift_down(self.pos[last as usize]);
        }
    }

    /// Pops the maximum-key vertex.
    fn pop(&mut self) -> Option<(u32, i64)> {
        let top = *self.heap.first()?;
        self.remove(top);
        Some((top, self.key[top as usize].0))
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.ord(self.heap[i]) <= self.ord(self.heap[parent]) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if l < self.heap.len() && self.ord(self.heap[l]) > self.ord(self.heap[m]) {
                m = l;
            }
            if r < self.heap.len() && self.ord(self.heap[r]) > self.ord(self.heap[m]) {
                m = r;
            }
            if m == i {
                break;
            }
            self.swap(i, m);
            i = m;
        }
    }

    #[inline]
    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i;
        self.pos[self.heap[j] as usize] = j;
    }
}

/// How many consecutive non-improving moves an FM pass tolerates before
/// giving up on the current trajectory.
const STALL_LIMIT: usize = 48;

/// One FM pass over the gain cache. Returns `true` if the pass improved the
/// cost.
fn fm_pass(
    hg: &Hypergraph,
    assignment: &mut [u32],
    state: &mut RefineState,
    cache: &mut GainCache,
    caps: &Caps,
    rng: &mut SmallRng,
    work: &mut PartitionWork,
) -> bool {
    let n = hg.num_vertices();
    let k = state.k;
    let total = hg.total_weight();
    let mut locked = vec![false; n];
    // Equal-gain pops are salt-ordered, and a vertex draws a fresh salt
    // every time it is (re-)keyed — matching the lazy heap, where every
    // push carried a fresh salt. Re-salting on every re-key is load-bearing
    // for quality: it keeps plateau walks (chains of zero-gain moves) from
    // locking into a fixed direction and stalling. Draws happen in the
    // serial move loop only, so the stream is identical at every thread
    // count.
    let mut salts: Vec<u32> = (0..n).map(|_| rng.gen()).collect();

    // Seed the queue with boundary vertices. Boundary flags come from one
    // sweep over the edges (an edge spanning > 1 part marks all its pins)
    // instead of a per-vertex `O(deg · k)` test.
    let mut heap = MoveHeap::new(n);
    let mut boundary = vec![false; n];
    for e in 0..hg.num_edges() as u32 {
        let spans = (0..k).filter(|&p| state.lam(e, p) > 0).count();
        if spans > 1 {
            for &u in hg.pins(e) {
                boundary[u as usize] = true;
            }
        }
    }
    for v in 0..n as u32 {
        if !boundary[v as usize] {
            continue;
        }
        if let Some((_, g)) = cache.best_move(hg, state, v, assignment[v as usize], caps, total) {
            heap.push_or_update(v, (g, salts[v as usize]));
        }
    }

    let start_cost = state.cost;
    let mut best_cost = state.cost;
    let mut moves: Vec<(u32, u32)> = Vec::new(); // (vertex, previous part)
    let mut best_len = 0usize;
    let mut stall = 0usize;
    let mut touched: Vec<u32> = Vec::new();
    // Dedup stamp for `touched` (stamp[v] == move counter => already seen).
    let mut stamp = vec![u64::MAX; n];
    let mut move_ctr = 0u64;

    while !heap.is_empty() {
        let Some((v, key_gain)) = heap.pop() else {
            break;
        };
        debug_assert!(!locked[v as usize], "locked vertices leave the queue");
        let from = assignment[v as usize];
        // The key may lag the loads (admissibility and tie-breaks drift as
        // parts fill); recheck against the cache before committing.
        let Some((to, g)) = cache.best_move(hg, state, v, from, caps, total) else {
            continue;
        };
        if g != key_gain {
            salts[v as usize] = rng.gen();
            heap.push_or_update(v, (g, salts[v as usize]));
            continue;
        }
        // The popped gain must agree with a from-scratch recomputation —
        // this is the regression guard for the delta-update rules.
        debug_assert_eq!(
            g,
            state.gain(hg, v, from, to),
            "gain cache out of sync for v={v} {from}->{to}"
        );
        touched.clear();
        cache.apply(hg, state, assignment, v, to, &mut touched);
        locked[v as usize] = true;
        heap.remove(v);
        moves.push((v, from));
        if state.cost < best_cost {
            best_cost = state.cost;
            best_len = moves.len();
            stall = 0;
        } else {
            stall += 1;
            if stall > STALL_LIMIT {
                break;
            }
        }
        // Re-key the vertices whose cached gains the move changed.
        move_ctr += 1;
        for &u in &touched {
            if locked[u as usize] || stamp[u as usize] == move_ctr {
                continue;
            }
            stamp[u as usize] = move_ctr;
            salts[u as usize] = rng.gen();
            match cache.best_move(hg, state, u, assignment[u as usize], caps, total) {
                Some((_, ug)) => heap.push_or_update(u, (ug, salts[u as usize])),
                None => heap.remove(u),
            }
        }
    }

    work.fm_moves_applied += moves.len() as u64;
    work.fm_moves_rolled_back += (moves.len() - best_len) as u64;
    // Roll back past the best prefix (through the cache, so it stays exact).
    while moves.len() > best_len {
        let (v, prev) = moves.pop().unwrap();
        touched.clear();
        cache.apply(hg, state, assignment, v, prev, &mut touched);
    }
    debug_assert_eq!(state.cost, best_cost);
    best_cost < start_cost
}

/// Runs up to `passes` FM passes over `assignment` in place, adding their
/// move counts to `work`. Returns the resulting connectivity cost.
pub fn refine(
    hg: &Hypergraph,
    assignment: &mut [u32],
    k: u32,
    caps: &Caps,
    passes: u32,
    rng: &mut SmallRng,
    work: &mut PartitionWork,
) -> u64 {
    let mut state = RefineState::new(hg, assignment, k);
    let mut cache = GainCache::new(hg, &state, assignment);
    for _ in 0..passes {
        if !fm_pass(hg, assignment, &mut state, &mut cache, caps, rng, work) {
            break;
        }
    }
    state.cost
}

/// Moves vertices out of parts exceeding `caps` until the assignment is
/// balanced or no improving move exists. Chooses, at each step, the move that
/// minimizes the connectivity cost increase per unit of overload relieved.
/// Returns whether the final assignment satisfies the caps.
pub(crate) fn rebalance(hg: &Hypergraph, assignment: &mut [u32], k: u32, caps: &Caps) -> bool {
    let mut state = RefineState::new(hg, assignment, k);
    // Bounded number of moves to guarantee termination.
    let max_moves = hg.num_vertices() * 2;
    for _ in 0..max_moves {
        // Find the most overloaded (part, dim), comparing overloads as a
        // fraction of the dimension's cap (FLOPs and bytes are not
        // commensurable in absolute terms).
        let mut worst: Option<(u32, usize, f64)> = None;
        for p in 0..k {
            for (d, &cap) in caps.at(p).iter().enumerate() {
                let over = state.loads[p as usize][d].saturating_sub(cap);
                if over == 0 {
                    continue;
                }
                let frac = over as f64 / cap.max(1) as f64;
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
            for to in 0..k {
                if to == from {
                    continue;
                }
                let l = state.loads[to as usize];
                if !admissible(l, w, caps.at(to)) {
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
    state.loads.iter().enumerate().all(|(p, l)| {
        let cap = caps.at(p as u32);
        l[0] <= cap[0] && l[1] <= cap[1]
    })
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
        heap.push_or_update(0, (5, 0));
        heap.push_or_update(1, (9, 0));
        heap.push_or_update(2, (1, 0));
        // Re-key vertex 2 above everything; vertex 1 below.
        heap.push_or_update(2, (20, 0));
        heap.push_or_update(1, (0, 0));
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
        let after = refine(
            &hg,
            &mut assignment,
            2,
            &Caps::uniform([10, 10]),
            16,
            &mut rng,
            &mut work,
        );
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
            &Caps::uniform([4, 4]),
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
            let caps = Caps::uniform([n as u64, n as u64]);
            let after = refine(
                &hg,
                &mut assignment,
                3,
                &caps,
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
        let ok = rebalance(&hg, &mut assignment, 2, &Caps::uniform([5, 5]));
        assert!(ok);
        let pw = hg.part_weights(&assignment, 2);
        assert!(pw.iter().all(|w| w[0] <= 5 && w[1] <= 5));
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
        assert!(!rebalance(
            &hg,
            &mut assignment,
            2,
            &Caps::uniform([50, 50])
        ));
    }
}
