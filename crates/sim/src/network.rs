//! A fluid-flow network with max-min fair bandwidth sharing.
//!
//! Flows are point-to-point transfers. Each flow consumes one unit of
//! capacity on every *resource* along its path:
//!
//! - intra-node (`src` and `dst` on the same node): the per-device NVSwitch
//!   egress of `src` and ingress of `dst`;
//! - inter-node: the NIC egress of the source and NIC ingress of the
//!   destination — one shared port per node, or one dedicated rail per
//!   device on rail-optimized fabrics ([`dcp_types::TopologySpec`]);
//! - additionally, for every switch tier the path crosses, the uplink
//!   egress of the source's group and uplink ingress of the destination's
//!   group at that tier.
//!
//! Rates are allocated by progressive filling (water-filling): repeatedly
//! find the resource with the smallest fair share and freeze its flows at
//! that rate. This is the classic max-min fair allocation; it captures the
//! NIC-contention effects that motivate LoongTrain's double-ring and DCP's
//! hierarchical placement.
//!
//! # Incremental engine
//!
//! The default engine recomputes rates *incrementally*: each flow's
//! resource path is interned once, at insertion, into one flat array, each
//! resource keeps a persistent member list, and an event (activation or
//! completion) only re-runs the water-fill over the connected component of
//! the flow/resource bipartite graph that the event touched. Rates outside
//! the dirty component are already the max-min fixpoint of their own
//! component and cannot change, so the restriction is exact, and the
//! component-local fill performs the same freeze steps in the same share
//! order with the same arithmetic as a global fill would.
//!
//! The per-event state lives in dense arrays: activated flows' remaining
//! bytes and rates in activation order (a finished flow stays behind as an
//! inert entry, remaining `∞` and rate 0, until a compaction), and the
//! flows not yet active in their own list, ascending by id. The sweep of
//! [`Network::advance_to`] is one branch-free pass over the first two, and
//! [`Network::next_event`] one minimum of `remaining / rate`. Three rules
//! keep it bit-equal to a per-flow scan: `now + x` rounds monotonically, so
//! adding `now` once to the least `x` is the least `now + x`; completions
//! and activations are handled in ascending flow id, as a scan in id order
//! meets them; and an inert entry neither drains, finishes nor bounds the
//! next event.
//!
//! The retained scratch engine ([`Network::use_scratch_engine`]) rebuilds
//! the allocation from fresh hash maps on every event and serves as the
//! semantic reference for tests and the scaling benchmark. It is
//! deterministic, but not bitwise the incremental engine: between
//! bottlenecks of exactly equal share it freezes the smaller resource first
//! (the derived order on ports), where the incremental engine takes the one
//! its component met first. So on large plans the two differ by an ulp (the
//! scaling benchmark's makespan relative error reads about 1e-15), while
//! two runs of the scratch engine agree bit for bit.

use std::collections::HashMap;

use dcp_types::{ClusterSpec, DeviceId};

/// Identifies a capacity-constrained port. The order breaks the scratch
/// engine's ties between equal shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Resource {
    DevEgress(u32),
    DevIngress(u32),
    /// Keyed by node id, or by device id on rail-optimized fabrics.
    NicEgress(u32),
    NicIngress(u32),
    /// Uplink of tier-`.0` group `.1` into the tier above.
    TierEgress(u8, u32),
    TierIngress(u8, u32),
}

/// A flow that has not started moving data yet.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Time the flow starts moving data (creation + link latency).
    at: f64,
    flow: u32,
    bytes: f64,
}

/// `slot` of a flow that has not been activated.
const NO_SLOT: u32 = u32::MAX;

/// Opaque flow handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(pub usize);

/// Engine counters (instrumentation for the scaling benchmark).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    /// Number of water-fill invocations.
    pub recomputes: u64,
    /// Total flows visited across all water-fills (component sizes summed;
    /// the scratch engine counts every live flow on every recompute).
    pub touched_flows: u64,
}

/// The fluid network simulator.
///
/// Time only moves forward: callers alternate [`Network::advance_to`] with
/// flow insertion/completion queries.
#[derive(Debug)]
pub struct Network {
    cluster: ClusterSpec,
    /// Fault-injected bandwidth multipliers per directed device pair.
    link_factors: HashMap<(u32, u32), f64>,
    now: f64,
    /// Resource interner: every distinct port gets a dense id.
    res_ids: HashMap<Resource, u32>,
    /// Nominal capacity per resource id.
    res_cap: Vec<f64>,
    /// Member flows per resource id: flows that joined at activation and
    /// have not been compacted away after completing. Kept in activation
    /// order; stale (done) entries are skipped and pruned lazily.
    members: Vec<Vec<u32>>,
    /// Live (activated, not done) member count per resource id.
    nlive: Vec<u32>,
    // Per flow, by id.
    /// Endpoints (the scratch engine recollects paths from them).
    ends: Vec<(u32, u32)>,
    /// Fault multiplier on the flow's achievable rate (degraded link).
    factor: Vec<f64>,
    /// Flow `f`'s interned resources are `path[path_at[f]..path_at[f + 1]]`.
    path_at: Vec<u32>,
    path: Vec<u32>,
    /// Delivered every byte (a zero-byte flow is done when added).
    done: Vec<bool>,
    /// Index into the activated arrays, or [`NO_SLOT`].
    slot: Vec<u32>,
    // Activated flows, in activation order.
    /// The flow of each entry.
    act: Vec<u32>,
    /// Bytes left; `∞` for an inert (done) entry.
    remaining: Vec<f64>,
    /// Current rate; 0 for an inert entry.
    rate: Vec<f64>,
    /// Inert entries in the activated arrays.
    inert: usize,
    /// Flows not yet active, ascending by id.
    pending: Vec<Pending>,
    /// The pending flows one sweep activates (reused buffer).
    due: Vec<Pending>,
    /// The ports of the flow being added (reused buffer).
    ports: Vec<Resource>,
    /// Use the retained scratch reference engine instead of the
    /// incremental one.
    scratch: bool,
    stats: NetStats,
    /// Epoch-stamped scratch state for the incremental water-fill, reused
    /// across recomputes so the steady state allocates nothing.
    epoch: u64,
    res_mark: Vec<u64>,
    flow_mark: Vec<u64>,
    frozen_mark: Vec<u64>,
    frozen_rate: Vec<f64>,
    wcap: Vec<f64>,
    wcount: Vec<u32>,
    comp_res: Vec<u32>,
    comp_flows: Vec<u32>,
    /// Flows whose state changed since the last recompute (seeds the dirty
    /// component), ascending by id.
    dirty: Vec<u32>,
    /// Flows that delivered their last byte since
    /// [`Network::drain_completed`] was last called, in completion order.
    completed: Vec<u32>,
    /// No rate has changed since the last sweep of [`Network::advance_to`],
    /// which found nothing to complete or activate at `now`: sweeping again
    /// at the same instant would find the same.
    settled: bool,
}

impl Network {
    /// An empty network over `cluster`.
    pub fn new(cluster: ClusterSpec) -> Self {
        Network {
            cluster,
            link_factors: HashMap::new(),
            now: 0.0,
            res_ids: HashMap::new(),
            res_cap: Vec::new(),
            members: Vec::new(),
            nlive: Vec::new(),
            ends: Vec::new(),
            factor: Vec::new(),
            path_at: vec![0],
            path: Vec::new(),
            done: Vec::new(),
            slot: Vec::new(),
            act: Vec::new(),
            remaining: Vec::new(),
            rate: Vec::new(),
            inert: 0,
            pending: Vec::new(),
            due: Vec::new(),
            ports: Vec::new(),
            scratch: false,
            stats: NetStats::default(),
            epoch: 0,
            res_mark: Vec::new(),
            flow_mark: Vec::new(),
            frozen_mark: Vec::new(),
            frozen_rate: Vec::new(),
            wcap: Vec::new(),
            wcount: Vec::new(),
            comp_res: Vec::new(),
            comp_flows: Vec::new(),
            dirty: Vec::new(),
            completed: Vec::new(),
            settled: false,
        }
    }

    /// Switches to the scratch reference engine: every event rebuilds the
    /// full allocation from fresh hash maps and recollected resource lists,
    /// like the pre-incremental simulator. Call before adding flows.
    pub fn use_scratch_engine(&mut self, on: bool) {
        debug_assert!(self.done.is_empty(), "switch engines on an empty network");
        self.scratch = on;
    }

    /// Engine counters accumulated so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Degrades the directed link `src -> dst`: flows over it achieve only
    /// `factor` of their max-min fair share. Used by fault injection; a
    /// degraded flow still occupies its full share of port capacity (the
    /// bottleneck is the faulty link, not a lighter demand).
    pub(crate) fn set_link_factor(&mut self, src: u32, dst: u32, factor: f64) {
        self.link_factors
            .insert((src, dst), factor.clamp(1e-9, 1.0));
    }

    /// Current simulation time of the network.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Adds a flow of `bytes` from `src` to `dst` at time `t` (must be
    /// `>= now`). The flow begins moving data after the link latency.
    /// Returns its id and the time it becomes active.
    pub fn add_flow(&mut self, t: f64, src: u32, dst: u32, bytes: u64) -> (FlowId, f64) {
        self.advance_to(t);
        let lat = self.cluster.latency(DeviceId(src), DeviceId(dst));
        let active_at = t + lat;
        let fi = self.done.len();
        let mut ports = std::mem::take(&mut self.ports);
        ports.clear();
        ports.extend(Self::path_of(&self.cluster, src, dst));
        for &r in &ports {
            let id = self.intern(r);
            self.path.push(id);
        }
        self.ports = ports;
        self.path_at.push(self.path.len() as u32);
        self.ends.push((src, dst));
        let factor = self.link_factors.get(&(src, dst)).copied().unwrap_or(1.0);
        self.factor.push(factor);
        self.done.push(bytes == 0);
        self.slot.push(NO_SLOT);
        self.frozen_mark.push(0);
        self.frozen_rate.push(0.0);
        self.flow_mark.push(0);
        let bytes = bytes as f64;
        if bytes > 0.0 && active_at <= self.now {
            // Only possible with zero link latency; normally activation
            // happens inside a later `advance_to`.
            self.activate(fi, bytes);
            if !self.scratch {
                self.dirty.clear();
                self.dirty.push(fi as u32);
                self.recompute_component();
            }
        } else if bytes > 0.0 {
            self.pending.push(Pending {
                at: active_at,
                flow: fi as u32,
                bytes,
            });
        }
        if self.scratch {
            // The reference engine recomputes on every insertion, like the
            // pre-incremental simulator (a pending flow leaves rates
            // unchanged, but the full rebuild cost is the point).
            self.recompute_scratch();
        }
        (FlowId(fi), active_at)
    }

    /// Whether the flow has delivered all its bytes.
    pub(crate) fn is_done(&self, f: FlowId) -> bool {
        self.done[f.0]
    }

    /// The flows that completed since the last call, so a caller can react
    /// to completions without polling [`Network::is_done`] over its flows.
    /// Flows complete inside [`Network::advance_to`] — and so inside
    /// [`Network::add_flow`], which advances to its `t` first. A zero-byte
    /// flow is done when added and is not reported.
    pub(crate) fn drain_completed(&mut self) -> impl Iterator<Item = FlowId> + '_ {
        self.completed.drain(..).map(|fi| FlowId(fi as usize))
    }

    /// Advances network time to `t`, draining active flows at their current
    /// rates. Callers must not skip past completion or activation events
    /// (use [`Network::next_event`]).
    pub fn advance_to(&mut self, t: f64) {
        debug_assert!(
            t + 1e-12 >= self.now,
            "time went backwards: {t} < {}",
            self.now
        );
        let dt = (t - self.now).max(0.0);
        // Sweep even when `dt == 0`: a flow whose completion time is below
        // the floating-point resolution of `now` must still be completed,
        // or the event loop would spin at a frozen clock. "Done" therefore
        // means: would finish within a nanosecond at the current rate. Only
        // a sweep that repeats the last one exactly — same instant, no rate
        // recomputed since — is skipped: a burst of launches at one instant
        // would otherwise sweep every live flow once per flow added.
        if t == self.now && self.settled {
            return;
        }
        self.dirty.clear();
        if drain(&mut self.remaining, &self.rate, dt) {
            for (i, (rem, rate)) in self.remaining.iter_mut().zip(&mut self.rate).enumerate() {
                if finished(*rem, *rate) {
                    (*rem, *rate) = (f64::INFINITY, 0.0);
                    let fi = self.act[i];
                    self.done[fi as usize] = true;
                    self.dirty.push(fi);
                }
            }
            self.inert += self.dirty.len();
            self.dirty.sort_unstable();
            self.completed.extend_from_slice(&self.dirty);
        }
        let completions = self.dirty.len();
        let due = &mut self.due;
        due.clear();
        self.pending.retain(|p| {
            let ready = p.at <= t;
            if ready {
                due.push(*p);
            }
            !ready
        });
        if !self.due.is_empty() {
            self.dirty.extend(self.due.iter().map(|p| p.flow));
            if completions > 0 {
                self.dirty.sort_unstable();
            }
        }
        self.now = t;
        if self.dirty.is_empty() {
            self.settled = true;
            return;
        }
        // Membership updates before the recompute, in id order: completed
        // flows leave, newly activated flows join (the ascending `due` is
        // the not-done subsequence of `dirty`).
        let mut next_due = 0;
        for idx in 0..self.dirty.len() {
            let fi = self.dirty[idx] as usize;
            if self.done[fi] {
                self.leave(fi);
            } else {
                self.activate(fi, self.due[next_due].bytes);
                next_due += 1;
            }
        }
        if completions > 0 && 2 * self.inert > self.act.len() {
            self.compact();
        }
        if self.scratch {
            self.recompute_scratch();
        } else {
            self.recompute_component();
        }
    }

    /// The earliest future event (flow activation or completion), if any.
    pub fn next_event(&self) -> Option<f64> {
        let mut best = self.now + min_ratio(&self.remaining, &self.rate);
        for p in &self.pending {
            if p.at < best {
                best = p.at;
            }
        }
        (best < f64::INFINITY).then_some(best)
    }

    /// Interns a resource, assigning a dense id and its nominal capacity.
    fn intern(&mut self, r: Resource) -> u32 {
        if let Some(&id) = self.res_ids.get(&r) {
            return id;
        }
        let id = self.res_cap.len() as u32;
        self.res_ids.insert(r, id);
        self.res_cap.push(Self::capacity_of(&self.cluster, r));
        self.members.push(Vec::new());
        self.nlive.push(0);
        self.res_mark.push(0);
        self.wcap.push(0.0);
        self.wcount.push(0);
        id
    }

    /// The interned resources on flow `fi`'s path.
    fn path_of_flow(&self, fi: usize) -> std::ops::Range<usize> {
        self.path_at[fi] as usize..self.path_at[fi + 1] as usize
    }

    /// Activates a flow: it takes an entry in the activated arrays and
    /// joins the member lists of its resources.
    fn activate(&mut self, fi: usize, bytes: f64) {
        self.slot[fi] = self.act.len() as u32;
        self.act.push(fi as u32);
        self.remaining.push(bytes);
        self.rate.push(0.0);
        for k in self.path_of_flow(fi) {
            let r = self.path[k] as usize;
            self.members[r].push(fi as u32);
            self.nlive[r] += 1;
        }
    }

    /// Removes a completed flow from its resources' live counts. The
    /// member vectors are pruned lazily once mostly stale, preserving
    /// activation order.
    fn leave(&mut self, fi: usize) {
        for k in self.path_of_flow(fi) {
            let r = self.path[k] as usize;
            self.nlive[r] -= 1;
            let members = &mut self.members[r];
            if members.len() >= 8 && members.len() as u32 >= 2 * self.nlive[r] + 4 {
                let done = &self.done;
                members.retain(|&f| !done[f as usize]);
            }
        }
    }

    /// Drops the inert entries from the activated arrays, keeping the
    /// activation order of the rest.
    fn compact(&mut self) {
        let mut kept = 0;
        for i in 0..self.act.len() {
            let fi = self.act[i];
            if self.done[fi as usize] {
                continue;
            }
            self.act[kept] = fi;
            self.remaining[kept] = self.remaining[i];
            self.rate[kept] = self.rate[i];
            self.slot[fi as usize] = kept as u32;
            kept += 1;
        }
        self.act.truncate(kept);
        self.remaining.truncate(kept);
        self.rate.truncate(kept);
        self.inert = 0;
    }

    /// Recomputes max-min fair rates over the connected component(s) of the
    /// flow/resource graph touched by the flows in `self.dirty`.
    ///
    /// Exactness: the previous allocation is the max-min fixpoint of every
    /// component. An event only alters demand inside the components of the
    /// dirty flows, so all other rates are unchanged; within the dirty
    /// component the fill below performs the same freeze steps, in the same
    /// least-share-first order, with the same `cap - share` arithmetic as a
    /// global fill restricted to that component.
    fn recompute_component(&mut self) {
        self.settled = false;
        self.stats.recomputes += 1;
        self.epoch += 1;
        let epoch = self.epoch;
        let Network {
            members,
            path_at,
            path,
            done,
            res_mark,
            flow_mark,
            comp_res,
            comp_flows,
            ..
        } = self;
        let path_of = |fi: usize| &path[path_at[fi] as usize..path_at[fi + 1] as usize];
        comp_res.clear();
        comp_flows.clear();
        // Seed with the dirty flows' resources (a completed flow no longer
        // counts toward demand but its ports still need new shares).
        for &fi in &self.dirty {
            for &r in path_of(fi as usize) {
                if res_mark[r as usize] != epoch {
                    res_mark[r as usize] = epoch;
                    comp_res.push(r);
                }
            }
        }
        // BFS across the bipartite graph: resources reach their live member
        // flows, flows reach all their resources.
        let mut qi = 0;
        while qi < comp_res.len() {
            let r = comp_res[qi] as usize;
            qi += 1;
            for &fi in &members[r] {
                let fi = fi as usize;
                if done[fi] || flow_mark[fi] == epoch {
                    continue;
                }
                flow_mark[fi] = epoch;
                comp_flows.push(fi as u32);
                for &r2 in path_of(fi) {
                    if res_mark[r2 as usize] != epoch {
                        res_mark[r2 as usize] = epoch;
                        comp_res.push(r2);
                    }
                }
            }
        }
        self.stats.touched_flows += comp_flows.len() as u64;
        // Progressive filling restricted to the component.
        let Network {
            res_cap,
            nlive,
            wcap,
            wcount,
            frozen_mark,
            frozen_rate,
            ..
        } = self;
        for &r in comp_res.iter() {
            wcap[r as usize] = res_cap[r as usize];
            wcount[r as usize] = nlive[r as usize];
        }
        let mut unfrozen = comp_flows.len();
        while unfrozen > 0 {
            // Resource with the smallest fair share.
            let mut best_r = usize::MAX;
            let mut best_s = f64::INFINITY;
            for &r in comp_res.iter() {
                let r = r as usize;
                if wcount[r] == 0 {
                    continue;
                }
                let share = wcap[r] / wcount[r] as f64;
                if share < best_s {
                    best_s = share;
                    best_r = r;
                }
            }
            if best_r == usize::MAX {
                break;
            }
            // Freeze every unfrozen live flow on the bottleneck at `share`.
            for &fi in &members[best_r] {
                let fi = fi as usize;
                if done[fi] || frozen_mark[fi] == epoch {
                    continue;
                }
                frozen_mark[fi] = epoch;
                frozen_rate[fi] = best_s;
                unfrozen -= 1;
                for &r2 in path_of(fi) {
                    wcap[r2 as usize] -= best_s;
                    wcount[r2 as usize] -= 1;
                }
            }
            wcount[best_r] = 0;
        }
        for &fi in comp_flows.iter() {
            let fi = fi as usize;
            self.rate[self.slot[fi] as usize] = if frozen_mark[fi] == epoch {
                frozen_rate[fi] * self.factor[fi]
            } else {
                0.0
            };
        }
    }

    /// The retained reference engine: rebuilds the full max-min allocation
    /// from scratch — fresh hash maps, resource lists recollected per flow —
    /// exactly like the pre-incremental simulator. Kept for the equivalence
    /// proptest and as the baseline of the scaling benchmark.
    fn recompute_scratch(&mut self) {
        self.settled = false;
        self.stats.recomputes += 1;
        let mut cap: HashMap<Resource, f64> = HashMap::new();
        let mut members: HashMap<Resource, Vec<usize>> = HashMap::new();
        let mut unfrozen: Vec<usize> = Vec::new();
        let resources: Vec<Vec<Resource>> = self
            .ends
            .iter()
            .map(|&(src, dst)| Self::path_of(&self.cluster, src, dst).collect())
            .collect();
        for (i, path) in resources.iter().enumerate() {
            // Done flows and pending ones move no data.
            if self.done[i] || self.slot[i] == NO_SLOT {
                continue;
            }
            unfrozen.push(i);
            for &r in path {
                cap.entry(r)
                    .or_insert_with(|| Self::capacity_of(&self.cluster, r));
                members.entry(r).or_default().push(i);
            }
        }
        self.stats.touched_flows += unfrozen.len() as u64;
        let mut frozen: HashMap<usize, f64> = HashMap::new();
        let mut active_count: HashMap<Resource, usize> =
            members.iter().map(|(r, m)| (*r, m.len())).collect();
        while frozen.len() < unfrozen.len() {
            // Resource with the smallest fair share, the smaller resource
            // among equal ones: the map's order never decides.
            let mut best: Option<(Resource, f64)> = None;
            for (&r, &count) in &active_count {
                if count == 0 {
                    continue;
                }
                let share = cap[&r] / count as f64;
                if best.is_none_or(|(b, s)| share < s || (share == s && r < b)) {
                    best = Some((r, share));
                }
            }
            let Some((r, share)) = best else { break };
            // Freeze every unfrozen flow on r at `share`.
            let to_freeze: Vec<usize> = members[&r]
                .iter()
                .copied()
                .filter(|i| !frozen.contains_key(i))
                .collect();
            for i in to_freeze {
                frozen.insert(i, share);
                for &r2 in &resources[i] {
                    *cap.get_mut(&r2).expect("resource present") -= share;
                    *active_count.get_mut(&r2).expect("resource present") -= 1;
                }
            }
            active_count.insert(r, 0);
        }
        for (&i, &rate) in &frozen {
            self.rate[self.slot[i] as usize] = rate * self.factor[i];
        }
    }

    /// The capacity-constrained ports on the path from `src` to `dst`.
    fn path_of(cluster: &ClusterSpec, src: u32, dst: u32) -> impl Iterator<Item = Resource> + '_ {
        let ns = cluster.node_of(DeviceId(src)).0;
        let nd = cluster.node_of(DeviceId(dst)).0;
        let (ends, tiers) = if ns == nd {
            ([Resource::DevEgress(src), Resource::DevIngress(dst)], 0)
        } else if cluster.rail_optimized() {
            let nic = [Resource::NicEgress(src), Resource::NicIngress(dst)];
            (nic, cluster.tiers().len())
        } else {
            let nic = [Resource::NicEgress(ns), Resource::NicIngress(nd)];
            (nic, cluster.tiers().len())
        };
        let uplinks = (0..tiers).flat_map(move |i| {
            let gs = cluster.tier_group(i, dcp_types::NodeId(ns));
            let gd = cluster.tier_group(i, dcp_types::NodeId(nd));
            let up = [
                Resource::TierEgress(i as u8, gs),
                Resource::TierIngress(i as u8, gd),
            ];
            up.into_iter().filter(move |_| gs != gd)
        });
        ends.into_iter().chain(uplinks)
    }

    /// Nominal capacity of a resource.
    fn capacity_of(cluster: &ClusterSpec, r: Resource) -> f64 {
        match r {
            Resource::DevEgress(_) | Resource::DevIngress(_) => cluster.intra_bw,
            Resource::NicEgress(_) | Resource::NicIngress(_) => {
                if cluster.rail_optimized() {
                    cluster.inter_bw / cluster.devices_per_node as f64
                } else {
                    cluster.inter_bw
                }
            }
            Resource::TierEgress(i, _) | Resource::TierIngress(i, _) => {
                cluster.tiers()[i as usize].uplink_bw
            }
        }
    }

    /// Current rate of a flow (testing / instrumentation).
    pub fn rate(&self, f: FlowId) -> f64 {
        match self.slot[f.0] {
            _ if self.done[f.0] => 0.0,
            NO_SLOT => 0.0,
            slot => self.rate[slot as usize],
        }
    }
}

/// Whether an activated flow with `remaining` bytes left at `rate` is done:
/// it would finish within a nanosecond (or a micro-byte). Never true of an
/// inert entry.
#[inline]
fn finished(remaining: f64, rate: f64) -> bool {
    remaining <= rate * 1e-9 + 1e-6
}

/// Drains every activated entry for `dt` seconds at its rate; whether one
/// finished. One pass without branches, so it vectorizes; an inert entry
/// stays at `∞ - 0`.
fn drain(remaining: &mut [f64], rate: &[f64], dt: f64) -> bool {
    let mut any = false;
    for (rem, &rate) in remaining.iter_mut().zip(rate) {
        *rem -= rate * dt;
        any |= finished(*rem, rate);
    }
    any
}

/// The least `remaining / rate` over the activated entries (`∞` when there
/// is none): an inert entry gives `∞ / 0 = ∞`, a flow at rate 0 `x / 0 = ∞`.
/// The minimum is exact, so it is taken over independent lanes.
fn min_ratio(remaining: &[f64], rate: &[f64]) -> f64 {
    const LANES: usize = 4;
    let mut least = [f64::INFINITY; LANES];
    let (rems, rates) = (remaining.chunks_exact(LANES), rate.chunks_exact(LANES));
    let tail = rems.remainder().iter().zip(rates.remainder());
    for (rem, rate) in rems.zip(rates) {
        for k in 0..LANES {
            let x = rem[k] / rate[k];
            least[k] = if x < least[k] { x } else { least[k] };
        }
    }
    tail.map(|(rem, rate)| rem / rate)
        .chain(least)
        .fold(f64::INFINITY, |a, x| if x < a { x } else { a })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_done(net: &mut Network) -> f64 {
        while let Some(t) = net.next_event() {
            net.advance_to(t);
        }
        net.now()
    }

    #[test]
    fn single_intra_node_flow_runs_at_link_rate() {
        let c = ClusterSpec::p4de(1);
        let bw = c.intra_bw;
        let lat = c.intra_latency;
        let mut net = Network::new(c);
        let bytes = 3_000_000_000u64;
        let (f, _) = net.add_flow(0.0, 0, 1, bytes);
        let t = run_until_done(&mut net);
        assert!(net.is_done(f));
        let expect = lat + bytes as f64 / bw;
        assert!((t - expect).abs() < 1e-9, "{t} vs {expect}");
    }

    #[test]
    fn two_flows_sharing_egress_halve() {
        let c = ClusterSpec::p4de(1);
        let mut net = Network::new(c.clone());
        let (f1, a1) = net.add_flow(0.0, 0, 1, 1_000_000);
        let (f2, _) = net.add_flow(0.0, 0, 2, 1_000_000);
        net.advance_to(a1);
        // Both share device 0's egress.
        assert!((net.rate(f1) - c.intra_bw / 2.0).abs() < 1.0);
        assert!((net.rate(f2) - c.intra_bw / 2.0).abs() < 1.0);
    }

    #[test]
    fn disjoint_flows_get_full_rate() {
        let c = ClusterSpec::p4de(1);
        let mut net = Network::new(c.clone());
        let (f1, a) = net.add_flow(0.0, 0, 1, 1_000_000);
        let (f2, _) = net.add_flow(0.0, 2, 3, 1_000_000);
        net.advance_to(a);
        assert!((net.rate(f1) - c.intra_bw).abs() < 1.0);
        assert!((net.rate(f2) - c.intra_bw).abs() < 1.0);
    }

    #[test]
    fn cross_node_flows_share_nic() {
        let c = ClusterSpec::p4de(2);
        let mut net = Network::new(c.clone());
        // Four flows from node 0 to node 1, different device pairs: all
        // share the node NIC.
        let mut ids = Vec::new();
        for i in 0..4u32 {
            let (f, a) = net.add_flow(0.0, i, 8 + i, 1_000_000_000);
            ids.push((f, a));
        }
        net.advance_to(ids[0].1);
        for (f, _) in &ids {
            assert!((net.rate(*f) - c.inter_bw / 4.0).abs() < 1.0);
        }
    }

    #[test]
    fn intra_beats_inter_for_same_bytes() {
        let c = ClusterSpec::p4de(2);
        let bytes = 1_000_000_000u64;
        let mut n1 = Network::new(c.clone());
        n1.add_flow(0.0, 0, 1, bytes);
        let t_intra = run_until_done(&mut n1);
        let mut n2 = Network::new(c);
        n2.add_flow(0.0, 0, 8, bytes);
        let t_inter = run_until_done(&mut n2);
        assert!(t_intra < t_inter / 3.0, "intra {t_intra} inter {t_inter}");
    }

    #[test]
    fn conservation_all_flows_complete() {
        let c = ClusterSpec::p4de(2);
        let mut net = Network::new(c);
        let mut ids = Vec::new();
        for i in 0..16u32 {
            // Non-decreasing start times (the network is forward-only).
            let (f, _) = net.add_flow((i / 6) as f64 * 1e-4, i % 16, (i * 7 + 3) % 16, 10_000_000);
            ids.push(f);
        }
        run_until_done(&mut net);
        for f in ids {
            assert!(net.is_done(f));
        }
        assert!(net.next_event().is_none());
    }

    #[test]
    fn rates_never_exceed_capacity() {
        let c = ClusterSpec::p4de(2);
        let mut net = Network::new(c.clone());
        let mut ids = Vec::new();
        for i in 0..12u32 {
            let (f, a) = net.add_flow(0.0, i % 8, 8 + (i % 8), 500_000_000);
            ids.push((f, a));
        }
        net.advance_to(ids[0].1);
        let total: f64 = ids.iter().map(|(f, _)| net.rate(*f)).sum();
        assert!(total <= c.inter_bw * 1.0001, "NIC egress exceeded: {total}");
    }

    #[test]
    fn degraded_link_scales_rate_and_completion() {
        let c = ClusterSpec::p4de(1);
        let bw = c.intra_bw;
        let lat = c.intra_latency;
        let mut net = Network::new(c);
        net.set_link_factor(0, 1, 0.25);
        let bytes = 1_000_000_000u64;
        let (f, a) = net.add_flow(0.0, 0, 1, bytes);
        net.advance_to(a);
        assert!((net.rate(f) - bw * 0.25).abs() < 1.0);
        let t = run_until_done(&mut net);
        let expect = lat + bytes as f64 / (bw * 0.25);
        assert!((t - expect).abs() < 1e-9, "{t} vs {expect}");
        // The reverse direction is unaffected.
        let mut rev = Network::new(ClusterSpec::p4de(1));
        rev.set_link_factor(0, 1, 0.25);
        let (g, b) = rev.add_flow(0.0, 1, 0, bytes);
        rev.advance_to(b);
        assert!((rev.rate(g) - bw).abs() < 1.0);
    }

    #[test]
    fn zero_byte_flow_is_immediately_done() {
        let c = ClusterSpec::p4de(1);
        let mut net = Network::new(c);
        let (f, _) = net.add_flow(0.0, 0, 1, 0);
        assert!(net.is_done(f));
    }

    /// Drives the same adversarial flow schedule through both engines and
    /// requires bitwise-identical rates at every event and an identical
    /// completion time.
    #[test]
    fn incremental_engine_matches_scratch_bitwise() {
        for cluster in [
            ClusterSpec::p4de(2),
            ClusterSpec::p4de_rail(2),
            ClusterSpec::p4de_spine(4, 2, 4.0),
        ] {
            let mut inc = Network::new(cluster.clone());
            let mut scr = Network::new(cluster.clone());
            scr.use_scratch_engine(true);
            inc.set_link_factor(0, 9, 0.5);
            scr.set_link_factor(0, 9, 0.5);
            let n = cluster.num_devices();
            let mut ids = Vec::new();
            for i in 0..40u32 {
                let t = (i / 5) as f64 * 3e-5;
                let (src, dst) = (i % n, (i * 7 + 3) % n);
                let bytes = 1_000_000 + 97_000 * i as u64 % 5_000_000;
                let (fa, aa) = inc.add_flow(t, src, dst, bytes);
                let (fb, ab) = scr.add_flow(t, src, dst, bytes);
                assert_eq!(fa, fb);
                assert_eq!(aa.to_bits(), ab.to_bits());
                ids.push(fa);
            }
            loop {
                let (ea, eb) = (inc.next_event(), scr.next_event());
                assert_eq!(
                    ea.map(f64::to_bits),
                    eb.map(f64::to_bits),
                    "event divergence at t={}",
                    inc.now()
                );
                let Some(t) = ea else { break };
                inc.advance_to(t);
                scr.advance_to(t);
                for &f in &ids {
                    assert_eq!(
                        inc.rate(f).to_bits(),
                        scr.rate(f).to_bits(),
                        "rate divergence for {f:?} at t={t}"
                    );
                    assert_eq!(inc.is_done(f), scr.is_done(f));
                }
            }
            assert_eq!(inc.now().to_bits(), scr.now().to_bits());
            // The incremental engine must have touched fewer flows in total.
            assert!(inc.stats().touched_flows <= scr.stats().touched_flows);
        }
    }

    #[test]
    fn rail_optimized_removes_nic_contention() {
        let flat = ClusterSpec::p4de(2);
        let rail = ClusterSpec::p4de_rail(2);
        // Two cross-node flows from different local ranks: on the flat
        // fabric they halve the shared NIC; on rails each owns inter_bw/8.
        let mut nf = Network::new(flat.clone());
        let (f1, a) = nf.add_flow(0.0, 0, 8, 1_000_000_000);
        let (_f2, _) = nf.add_flow(0.0, 1, 9, 1_000_000_000);
        nf.advance_to(a);
        assert!((nf.rate(f1) - flat.inter_bw / 2.0).abs() < 1.0);
        let mut nr = Network::new(rail.clone());
        let (r1, a) = nr.add_flow(0.0, 0, 8, 1_000_000_000);
        let (r2, _) = nr.add_flow(0.0, 1, 9, 1_000_000_000);
        nr.advance_to(a);
        assert!((nr.rate(r1) - rail.inter_bw / 8.0).abs() < 1.0);
        assert!((nr.rate(r2) - rail.inter_bw / 8.0).abs() < 1.0);
    }

    #[test]
    fn oversubscribed_spine_throttles_cross_leaf_traffic() {
        // 8 nodes, 4 per leaf, 4x oversubscribed: the leaf uplink equals a
        // single node NIC, so four cross-leaf senders in one leaf get a
        // quarter NIC each while four same-leaf senders get a full NIC.
        let c = ClusterSpec::p4de_spine(8, 4, 4.0);
        let mut cross = Network::new(c.clone());
        let mut ids = Vec::new();
        for i in 0..4u32 {
            // Node i (leaf 0) to node 4+i (leaf 1): distinct NIC pairs.
            let (f, a) = cross.add_flow(0.0, i * 8, (4 + i) * 8, 1_000_000_000);
            ids.push((f, a));
        }
        cross.advance_to(ids[0].1);
        for (f, _) in &ids {
            assert!(
                (cross.rate(*f) - c.inter_bw / 4.0).abs() < 1.0,
                "cross-leaf rate {}",
                cross.rate(*f)
            );
        }
        let mut intra = Network::new(c.clone());
        let mut ids = Vec::new();
        for i in 0..2u32 {
            // Node i to node 2+i, all under leaf 0: no uplink involved.
            let (f, a) = intra.add_flow(0.0, i * 8, (2 + i) * 8, 1_000_000_000);
            ids.push((f, a));
        }
        intra.advance_to(ids[0].1);
        for (f, _) in &ids {
            assert!((intra.rate(*f) - c.inter_bw).abs() < 1.0);
        }
        // Latency also reflects the extra hop.
        let mut n = Network::new(c.clone());
        let (_, a_same_leaf) = n.add_flow(0.0, 0, 8, 1);
        let (_, a_cross_leaf) = n.add_flow(0.0, 16, 4 * 8, 1);
        assert!(a_cross_leaf > a_same_leaf);
    }

    #[test]
    fn stale_members_are_compacted() {
        // Many short flows over the same ports: member lists must not grow
        // without bound.
        let c = ClusterSpec::p4de(1);
        let mut net = Network::new(c);
        for i in 0..200 {
            net.add_flow(i as f64 * 1e-3, 0, 1, 1_000);
            run_until_done(&mut net);
        }
        let max_members = net.members.iter().map(Vec::len).max().unwrap_or(0);
        assert!(max_members < 32, "stale members retained: {max_members}");
        // Each flow finished alone, so each completion compacted the
        // activated arrays down to nothing.
        assert_eq!((net.act.len(), net.inert), (0, 0));
    }

    #[test]
    fn zero_latency_flows_activate_on_insertion() {
        let mut c = ClusterSpec::p4de(1);
        c.intra_latency = 0.0;
        let bw = c.intra_bw;
        let mut net = Network::new(c);
        let (f1, a1) = net.add_flow(0.0, 0, 1, 1_000_000);
        assert_eq!(a1, 0.0);
        assert_eq!(net.rate(f1), bw);
        // A burst at the same instant shares the port at once.
        let (f2, _) = net.add_flow(0.0, 0, 2, 3_000_000);
        assert_eq!((net.rate(f1), net.rate(f2)), (bw / 2.0, bw / 2.0));
        let (f3, _) = net.add_flow(0.0, 0, 3, 0);
        assert!(net.is_done(f3) && net.rate(f3) == 0.0);
        let t = run_until_done(&mut net);
        let done: Vec<FlowId> = net.drain_completed().collect();
        assert_eq!(done, [f1, f2], "the empty flow is not reported");
        assert!((t - 4_000_000.0 / bw).abs() < 1e-12, "{t}");
    }
}
