//! The hypergraph data structure: CSR pin lists in both directions.

use dcp_types::{DcpError, DcpResult};
use serde::{Deserialize, Serialize};

/// A 2-dimensional vertex weight: `[computation, data]` (FLOPs, bytes in the
/// DCP use case). Either dimension may be zero.
pub type VertexWeight = [u64; 2];

/// The cluster label of a vertex no one labelled: it joins no group.
pub(crate) const UNLABELLED: u32 = u32::MAX;

/// Reusable scratch buffers for repeated hypergraph builds.
///
/// The planner rebuilds a similarly-sized hypergraph every batch; routing
/// each build through one long-lived arena turns the per-batch allocation
/// traffic (vertex weights, edge weights, both CSR directions) into plain
/// buffer reuse. [`HgArena::builder`] hands the buffers to a
/// [`HypergraphBuilder`]; [`HgArena::recycle`] takes them back from a
/// finished [`Hypergraph`] once the caller is done with it.
#[derive(Debug, Default)]
pub struct HgArena {
    vwts: Vec<VertexWeight>,
    ewts: Vec<u64>,
    epin_off: Vec<u32>,
    epins: Vec<u32>,
    vedge_off: Vec<u32>,
    vedges: Vec<u32>,
    labels: Vec<u32>,
}

impl HgArena {
    /// A builder for a hypergraph with `n` vertices (weights default to
    /// `[0, 0]`), reusing this arena's buffer capacity. The arena is left
    /// empty until the resulting hypergraph is [`recycled`](Self::recycle).
    pub fn builder(&mut self, n: usize) -> HypergraphBuilder {
        let mut b = HypergraphBuilder {
            vwts: std::mem::take(&mut self.vwts),
            ewts: std::mem::take(&mut self.ewts),
            epin_off: std::mem::take(&mut self.epin_off),
            epins: std::mem::take(&mut self.epins),
            vedge_off: std::mem::take(&mut self.vedge_off),
            vedges: std::mem::take(&mut self.vedges),
            labels: std::mem::take(&mut self.labels),
        };
        b.vwts.clear();
        b.vwts.resize(n, [0, 0]);
        b.ewts.clear();
        b.epins.clear();
        b.epin_off.clear();
        b.epin_off.push(0);
        b.vedge_off.clear();
        b.vedges.clear();
        b.labels.clear();
        b
    }

    /// Reclaims the buffers of a hypergraph this arena built (or any other —
    /// buffers are buffers) for the next [`builder`](Self::builder) call.
    pub fn recycle(&mut self, hg: Hypergraph) {
        self.vwts = hg.vwts;
        self.ewts = hg.ewts;
        self.epin_off = hg.epin_off;
        self.epins = hg.epins;
        self.vedge_off = hg.vedge_off;
        self.vedges = hg.vedges;
        self.labels = hg.labels;
    }
}

/// Incrementally builds a [`Hypergraph`].
///
/// Storage is struct-of-arrays CSR from the start: `add_edge` appends pins
/// to one flat array and sorts/dedups the tail slice in place, so a build
/// performs no per-edge allocation. Pair with [`HgArena`] to also reuse the
/// backing buffers across builds.
#[derive(Debug, Clone, Default)]
pub struct HypergraphBuilder {
    vwts: Vec<VertexWeight>,
    ewts: Vec<u64>,
    epin_off: Vec<u32>,
    epins: Vec<u32>,
    vedge_off: Vec<u32>,
    vedges: Vec<u32>,
    labels: Vec<u32>,
}

impl HypergraphBuilder {
    /// A builder for a hypergraph with `n` vertices (weights default to
    /// `[0, 0]`).
    pub fn new(n: usize) -> Self {
        HgArena::default().builder(n)
    }

    /// Sets the weight of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_vertex_weight(&mut self, v: usize, w: VertexWeight) {
        self.vwts[v] = w;
    }

    /// Gives vertex `v` the cluster label `label`: coarsening contracts the
    /// vertices that share one into a single vertex before it matches
    /// anything ([`crate::coarsen`]). Vertices never labelled
    /// stay single, and a graph with no label at all coarsens by matching
    /// alone.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `label` is `u32::MAX`.
    pub fn set_label(&mut self, v: usize, label: u32) {
        assert_ne!(label, UNLABELLED, "u32::MAX is the unlabelled vertex");
        if self.labels.is_empty() {
            self.labels.resize(self.vwts.len(), UNLABELLED);
        }
        self.labels[v] = label;
    }

    /// Adds a hyperedge with weight `w` over `pins`. Duplicate pins are
    /// deduplicated; edges with fewer than two distinct pins are kept (they
    /// never contribute to the objective but preserve indexing expectations
    /// of callers that track edges).
    pub fn add_edge(&mut self, w: u64, pins: &[u32]) {
        let start = self.epins.len();
        self.epins.extend_from_slice(pins);
        self.epins[start..].sort_unstable();
        // In-place dedup of the tail slice.
        let mut keep = start;
        for i in start..self.epins.len() {
            let v = self.epins[i];
            if keep == start || self.epins[keep - 1] != v {
                self.epins[keep] = v;
                keep += 1;
            }
        }
        self.epins.truncate(keep);
        self.ewts.push(w);
        self.epin_off.push(self.epins.len() as u32);
    }

    /// Finalizes the builder into a [`Hypergraph`].
    ///
    /// # Errors
    ///
    /// Returns an error if any pin references a vertex out of range.
    pub fn build(self) -> DcpResult<Hypergraph> {
        let n = self.vwts.len();
        if let Some(&p) = self.epins.iter().find(|&&p| p as usize >= n) {
            return Err(DcpError::invalid_argument(format!(
                "edge pin {p} out of range for {n} vertices"
            )));
        }
        let mut hg = Hypergraph::from_csr(
            self.vwts,
            self.ewts,
            self.epin_off,
            self.epins,
            self.vedge_off,
            self.vedges,
        );
        hg.labels = self.labels;
        Ok(hg)
    }
}

/// An immutable hypergraph with vertex weights and weighted hyperedges,
/// stored as CSR pin lists in both directions (edge -> pins, vertex ->
/// incident edges), and optionally a cluster label per vertex
/// ([`HypergraphBuilder::set_label`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hypergraph {
    vwts: Vec<VertexWeight>,
    ewts: Vec<u64>,
    epin_off: Vec<u32>,
    epins: Vec<u32>,
    vedge_off: Vec<u32>,
    vedges: Vec<u32>,
    /// Per-vertex cluster label, `UNLABELLED` where none was set; empty
    /// when the graph has no labels.
    #[serde(default)]
    labels: Vec<u32>,
}

impl Hypergraph {
    /// Builds an unlabelled graph from the forward (edge → pin) CSR arrays,
    /// deriving the reverse (vertex → incident edge) CSR by counting sort
    /// into the supplied scratch buffers (their capacity is reused, contents
    /// ignored). Pins must be deduplicated per edge and in range.
    pub(crate) fn from_csr(
        vwts: Vec<VertexWeight>,
        ewts: Vec<u64>,
        epin_off: Vec<u32>,
        epins: Vec<u32>,
        mut vedge_off: Vec<u32>,
        mut vedges: Vec<u32>,
    ) -> Self {
        let n = vwts.len();
        vedge_off.clear();
        vedge_off.resize(n + 1, 0);
        for &p in &epins {
            vedge_off[p as usize + 1] += 1;
        }
        for v in 0..n {
            vedge_off[v + 1] += vedge_off[v];
        }
        vedges.clear();
        vedges.resize(epins.len(), 0);
        // Place edges, advancing each vertex's offset as its cursor, then
        // shift the offsets back down one slot.
        for e in 0..ewts.len() {
            let lo = epin_off[e] as usize;
            let hi = epin_off[e + 1] as usize;
            for &p in &epins[lo..hi] {
                vedges[vedge_off[p as usize] as usize] = e as u32;
                vedge_off[p as usize] += 1;
            }
        }
        for v in (1..=n).rev() {
            vedge_off[v] = vedge_off[v - 1];
        }
        if n > 0 {
            vedge_off[0] = 0;
        }
        Hypergraph {
            vwts,
            ewts,
            epin_off,
            epins,
            vedge_off,
            vedges,
            labels: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vwts.len()
    }

    /// Number of hyperedges.
    pub fn num_edges(&self) -> usize {
        self.ewts.len()
    }

    /// Total number of pins (sum of edge degrees).
    pub fn num_pins(&self) -> usize {
        self.epins.len()
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: u32) -> VertexWeight {
        self.vwts[v as usize]
    }

    /// Weight of edge `e`.
    #[inline]
    pub fn edge_weight(&self, e: u32) -> u64 {
        self.ewts[e as usize]
    }

    /// The pins (vertices) of edge `e`.
    #[inline]
    pub fn pins(&self, e: u32) -> &[u32] {
        let lo = self.epin_off[e as usize] as usize;
        let hi = self.epin_off[e as usize + 1] as usize;
        &self.epins[lo..hi]
    }

    /// The forward CSR itself: `pins[offsets[e]..offsets[e + 1]]` are the
    /// pins of edge `e`. For code that keeps its own per-edge state laid out
    /// like the pin array (the matching's active pin lists).
    #[inline]
    pub(crate) fn pin_csr(&self) -> (&[u32], &[u32]) {
        (&self.epin_off, &self.epins)
    }

    /// The cluster label of every vertex (`u32::MAX`: none), or `None` when
    /// the graph carries no labels.
    pub fn labels(&self) -> Option<&[u32]> {
        (!self.labels.is_empty()).then_some(&self.labels[..])
    }

    /// The edges incident to vertex `v`.
    #[inline]
    pub fn incident_edges(&self, v: u32) -> &[u32] {
        let lo = self.vedge_off[v as usize] as usize;
        let hi = self.vedge_off[v as usize + 1] as usize;
        &self.vedges[lo..hi]
    }

    /// Sum of all vertex weights.
    pub fn total_weight(&self) -> VertexWeight {
        let mut t = [0u64; 2];
        for w in &self.vwts {
            t[0] += w[0];
            t[1] += w[1];
        }
        t
    }

    /// The maximum vertex weight, per dimension.
    pub fn max_vertex_weight(&self) -> VertexWeight {
        let mut m = [0u64; 2];
        for w in &self.vwts {
            m[0] = m[0].max(w[0]);
            m[1] = m[1].max(w[1]);
        }
        m
    }

    /// The connectivity-minus-one cost of `assignment` (values in `0..k`):
    /// `sum_e w_e * (lambda_e - 1)` where `lambda_e` is the number of
    /// distinct parts edge `e` spans.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_vertices()`.
    pub fn connectivity_cost(&self, assignment: &[u32], k: u32) -> u64 {
        assert_eq!(assignment.len(), self.num_vertices());
        let mut seen = vec![u32::MAX; k as usize];
        let mut cost = 0u64;
        for e in 0..self.num_edges() as u32 {
            let mut lambda = 0u64;
            for &p in self.pins(e) {
                let part = assignment[p as usize] as usize;
                if seen[part] != e {
                    seen[part] = e;
                    lambda += 1;
                }
            }
            if lambda > 1 {
                cost += self.edge_weight(e) * (lambda - 1);
            }
        }
        cost
    }

    /// Per-part total vertex weight under `assignment`.
    pub fn part_weights(&self, assignment: &[u32], k: u32) -> Vec<VertexWeight> {
        let mut pw = vec![[0u64; 2]; k as usize];
        for (v, &p) in assignment.iter().enumerate() {
            let w = self.vwts[v];
            pw[p as usize][0] += w[0];
            pw[p as usize][1] += w[1];
        }
        pw
    }

    /// The sub-hypergraph induced by `vertices` (given as a sorted, deduped
    /// list of vertex ids). Edges are restricted to pins inside the subset;
    /// restricted edges with fewer than two pins are dropped (they cannot
    /// contribute to connectivity within the subset). Vertices keep their
    /// labels. Returns the subgraph and the mapping from subgraph vertex
    /// index to original vertex id.
    pub fn induced_subgraph(&self, vertices: &[u32]) -> (Hypergraph, Vec<u32>) {
        let mut index = vec![u32::MAX; self.num_vertices()];
        for (i, &v) in vertices.iter().enumerate() {
            index[v as usize] = i as u32;
        }
        let vwts: Vec<VertexWeight> = vertices.iter().map(|&v| self.vwts[v as usize]).collect();
        let mut ewts = Vec::new();
        let (mut epin_off, mut epins) = (vec![0u32], Vec::new());
        for e in 0..self.num_edges() as u32 {
            let start = epins.len();
            let inside = self.pins(e).iter().map(|&p| index[p as usize]);
            epins.extend(inside.filter(|&i| i != u32::MAX));
            if epins.len() - start >= 2 {
                ewts.push(self.edge_weight(e));
                epin_off.push(epins.len() as u32);
            } else {
                epins.truncate(start);
            }
        }
        let mut sub = Hypergraph::from_csr(vwts, ewts, epin_off, epins, Vec::new(), Vec::new());
        if !self.labels.is_empty() {
            sub.labels = vertices.iter().map(|&v| self.labels[v as usize]).collect();
        }
        (sub, vertices.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.set_vertex_weight(0, [10, 0]);
        b.set_vertex_weight(1, [0, 5]);
        b.set_vertex_weight(2, [3, 3]);
        b.set_vertex_weight(3, [1, 1]);
        b.add_edge(7, &[0, 1, 2]);
        b.add_edge(2, &[2, 3]);
        b.add_edge(9, &[0, 3]);
        b.build().unwrap()
    }

    #[test]
    fn csr_structure() {
        let hg = sample();
        assert_eq!(hg.num_vertices(), 4);
        assert_eq!(hg.num_edges(), 3);
        assert_eq!(hg.num_pins(), 7);
        assert_eq!(hg.pins(0), &[0, 1, 2]);
        assert_eq!(hg.incident_edges(2), &[0, 1]);
        assert_eq!(hg.incident_edges(0), &[0, 2]);
        assert_eq!(hg.total_weight(), [14, 9]);
        assert_eq!(hg.max_vertex_weight(), [10, 5]);
    }

    #[test]
    fn builder_dedups_pins_and_validates() {
        let mut b = HypergraphBuilder::new(3);
        b.add_edge(1, &[0, 0, 1]);
        let hg = b.build().unwrap();
        assert_eq!(hg.pins(0), &[0, 1]);

        let mut b = HypergraphBuilder::new(2);
        b.add_edge(1, &[0, 5]);
        assert!(b.build().is_err());
    }

    #[test]
    fn connectivity_cost_counts_spans() {
        let hg = sample();
        // Everything in one part: zero cost.
        assert_eq!(hg.connectivity_cost(&[0, 0, 0, 0], 2), 0);
        // Split {0,1} | {2,3}: edge0 spans 2 parts (+7), edge1 inside (+0),
        // edge2 spans (+9).
        assert_eq!(hg.connectivity_cost(&[0, 0, 1, 1], 2), 16);
        // Three parts: edge0 spans {0,1,2} -> lambda 3 -> 2*7; edge1 spans
        // {2,0} -> +2; edge2 {0,0} is internal.
        assert_eq!(hg.connectivity_cost(&[0, 1, 2, 0], 3), 14 + 2);
    }

    #[test]
    fn part_weights_accumulate_both_dims() {
        let hg = sample();
        let pw = hg.part_weights(&[0, 1, 0, 1], 2);
        assert_eq!(pw[0], [13, 3]);
        assert_eq!(pw[1], [1, 6]);
    }

    #[test]
    fn induced_subgraph_restricts_edges() {
        let hg = sample();
        let (sub, map) = hg.induced_subgraph(&[0, 2, 3]);
        assert_eq!(map, vec![0, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        // Edge0 restricted to {0,2} (2 pins, kept), edge1 {2,3} kept, edge2
        // {0,3} kept.
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(sub.vertex_weight(1), [3, 3]);
        // A subset killing all edges.
        let (sub, _) = hg.induced_subgraph(&[1]);
        assert_eq!(sub.num_edges(), 0);
    }

    #[test]
    fn arena_reuse_builds_identical_graphs() {
        let mut arena = HgArena::default();
        let build = |arena: &mut HgArena| {
            let mut b = arena.builder(4);
            b.set_vertex_weight(0, [10, 0]);
            b.set_vertex_weight(2, [3, 3]);
            b.add_edge(7, &[2, 0, 1, 2]);
            b.add_edge(2, &[3, 2]);
            b.build().unwrap()
        };
        let first = build(&mut arena);
        let reference = sample();
        assert_eq!(first.pins(0), &[0, 1, 2]);
        assert_eq!(first.pins(1), &[2, 3]);
        assert_eq!(first.incident_edges(2), &[0, 1]);
        let _ = reference;
        arena.recycle(first);
        // Second build through the recycled buffers must be identical.
        let second = build(&mut arena);
        assert_eq!(second.pins(0), &[0, 1, 2]);
        assert_eq!(second.pins(1), &[2, 3]);
        assert_eq!(second.vertex_weight(0), [10, 0]);
        assert_eq!(second.num_pins(), 5);
        // Edge {0,1,2} spans both parts (+7); edge {2,3} stays internal.
        assert_eq!(second.connectivity_cost(&[0, 0, 1, 1], 2), 7);
    }

    #[test]
    fn labels_reach_subgraphs_and_survive_serde() {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge(7, &[0, 1, 2]);
        b.add_edge(2, &[2, 3]);
        b.set_label(1, 5);
        b.set_label(3, 5);
        let hg = b.build().unwrap();
        assert_eq!(hg.labels(), Some(&[UNLABELLED, 5, UNLABELLED, 5][..]));
        let (sub, _) = hg.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.labels(), Some(&[5, UNLABELLED, 5][..]));
        let back: Hypergraph = serde_json::from_str(&serde_json::to_string(&hg).unwrap()).unwrap();
        assert_eq!(back.labels(), hg.labels());
        assert_eq!(back.pins(0), hg.pins(0));
        assert_eq!(sample().induced_subgraph(&[0, 1]).0.labels(), None);
    }

    #[test]
    fn a_recycled_builder_carries_no_labels() {
        let mut arena = HgArena::default();
        let mut b = arena.builder(2);
        b.set_label(0, 1);
        arena.recycle(b.build().unwrap());
        assert_eq!(arena.builder(2).build().unwrap().labels(), None);
    }

    #[test]
    fn arena_builder_validates_pins_like_fresh_builder() {
        let mut arena = HgArena::default();
        let mut b = arena.builder(2);
        b.add_edge(1, &[0, 5]);
        assert!(b.build().is_err());
    }

    #[test]
    fn single_pin_edges_never_cost() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge(100, &[0]);
        b.add_edge(1, &[0, 1]);
        let hg = b.build().unwrap();
        assert_eq!(hg.connectivity_cost(&[0, 1], 2), 1);
    }
}
