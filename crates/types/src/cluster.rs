//! Cluster topology description.
//!
//! A [`ClusterSpec`] describes the machines the planner places work onto and
//! the simulator models: a set of nodes, each with a fixed number of devices,
//! intra-node links (NVSwitch-style, per-device), and an inter-node NIC whose
//! bandwidth is shared by all devices on the node.

use serde::{Deserialize, Serialize};

use crate::error::{DcpError, DcpResult};
use crate::units::{gbit_to_bytes_per_sec, gbps_to_bytes_per_sec, tflops_to_flops_per_sec};

/// Identifies one device (GPU) in the cluster by its global rank.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct DeviceId(pub u32);

/// Identifies one node (machine) in the cluster.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The hardware topology of a training cluster.
///
/// Bandwidths are stored in bytes/second, throughput in FLOP/s, and latencies
/// in seconds, so the simulator can consume them directly.
///
/// # Examples
///
/// ```
/// use dcp_types::ClusterSpec;
///
/// let cluster = ClusterSpec::p4de(4);
/// assert_eq!(cluster.num_devices(), 32);
/// assert_eq!(cluster.node_of(dcp_types::DeviceId(9)).0, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of nodes (machines).
    pub nodes: u32,
    /// Number of devices (GPUs) per node.
    pub devices_per_node: u32,
    /// Per-device intra-node link bandwidth, each direction, bytes/s.
    pub intra_bw: f64,
    /// Per-node inter-node NIC bandwidth, each direction, bytes/s (shared by
    /// all devices on the node).
    pub inter_bw: f64,
    /// Fixed latency added to every intra-node transfer, seconds.
    pub intra_latency: f64,
    /// Fixed latency added to every inter-node transfer, seconds.
    pub inter_latency: f64,
    /// Peak dense compute throughput per device, FLOP/s.
    pub device_flops: f64,
    /// Fraction of peak the attention kernels achieve (model flops
    /// utilization of the kernel, not of the whole model).
    pub kernel_efficiency: f64,
    /// Fixed overhead charged per fused kernel launch, seconds.
    pub kernel_overhead: f64,
    /// Device memory bandwidth, bytes/s (used for on-device copy/reduction).
    pub mem_bw: f64,
    /// Optional multi-tier switch fabric above the node NICs. `None` is the
    /// flat two-tier (node/device) model and reproduces historical plans and
    /// simulations bitwise.
    #[serde(default)]
    pub topology: Option<TopologySpec>,
}

/// One switch tier above the node NICs, ordered innermost first (leaf, then
/// spine, then core, ...).
///
/// Tier `i` groups `group` units of the tier below it (tier 0 groups nodes
/// into leaves, tier 1 groups leaves into pods, ...). A transfer whose
/// endpoints fall in different tier-`i` groups consumes the uplink of each
/// endpoint's group into the tier above, in the respective direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierSpec {
    /// How many units of the tier below are grouped under one switch at this
    /// tier (nodes per leaf for tier 0, leaves per pod for tier 1, ...).
    pub group: u32,
    /// Aggregate uplink bandwidth of one group into this tier, each
    /// direction, bytes/s. An oversubscribed tier has
    /// `uplink_bw < group * downlink_bw`.
    pub uplink_bw: f64,
    /// Extra latency added to every transfer that crosses this tier, seconds.
    pub latency: f64,
}

/// Multi-tier network fabric: zero or more switch tiers above the node NICs,
/// plus an optional rail-optimized NIC layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TopologySpec {
    /// Switch tiers above the node, innermost first. Empty means all nodes
    /// hang off one non-blocking switch (the flat model).
    #[serde(default)]
    pub tiers: Vec<TierSpec>,
    /// When true, each device owns a dedicated NIC rail of
    /// `inter_bw / devices_per_node` bytes/s instead of contending for one
    /// shared node NIC of `inter_bw`. Aggregate node bandwidth is unchanged.
    #[serde(default)]
    pub rail_optimized: bool,
}

impl TopologySpec {
    /// A rail-optimized fabric with no extra switch tiers: same aggregate
    /// bandwidth as the flat model, but cross-node flows from different local
    /// ranks never contend for the same NIC.
    pub(crate) fn rail_optimized() -> Self {
        TopologySpec {
            tiers: Vec::new(),
            rail_optimized: true,
        }
    }

    /// A two-level leaf/spine fabric where each leaf switch serves
    /// `nodes_per_leaf` nodes and its uplink into the spine is oversubscribed
    /// by `oversub` (uplink = nodes_per_leaf * node_nic_bw / oversub).
    pub(crate) fn oversubscribed_spine(
        nodes_per_leaf: u32,
        node_nic_bw: f64,
        oversub: f64,
        leaf_latency: f64,
    ) -> Self {
        TopologySpec {
            tiers: vec![TierSpec {
                group: nodes_per_leaf,
                uplink_bw: node_nic_bw * nodes_per_leaf as f64 / oversub,
                latency: leaf_latency,
            }],
            rail_optimized: false,
        }
    }

    /// Validate against a cluster with `nodes` nodes. Every tier must have a
    /// group fanout of at least one that divides the unit count of the tier
    /// below, positive finite uplink bandwidth, and non-negative latency.
    pub(crate) fn validate(&self, nodes: u32) -> DcpResult<()> {
        let mut units = nodes;
        for (i, t) in self.tiers.iter().enumerate() {
            if t.group == 0 {
                return Err(DcpError::invalid_argument(format!(
                    "topology tier {i} has zero group fanout"
                )));
            }
            if !units.is_multiple_of(t.group) {
                return Err(DcpError::invalid_argument(format!(
                    "topology tier {i} group {} does not divide the {units} units below it",
                    t.group
                )));
            }
            if t.uplink_bw <= 0.0 || !t.uplink_bw.is_finite() {
                return Err(DcpError::invalid_argument(format!(
                    "topology tier {i} uplink_bw must be positive and finite, got {}",
                    t.uplink_bw
                )));
            }
            if t.latency < 0.0 || !t.latency.is_finite() {
                return Err(DcpError::invalid_argument(format!(
                    "topology tier {i} latency must be non-negative and finite, got {}",
                    t.latency
                )));
            }
            units /= t.group;
        }
        Ok(())
    }
}

impl ClusterSpec {
    /// A cluster of `nodes` Amazon EC2 `p4de.24xlarge` instances, matching the
    /// paper's testbed: 8x A100-80GB per node, NVSwitch with 600 GB/s
    /// bidirectional bandwidth per GPU (300 GB/s each direction), and 4x100
    /// Gbps EFA NICs per node (50 GB/s each direction).
    pub fn p4de(nodes: u32) -> Self {
        ClusterSpec {
            nodes,
            devices_per_node: 8,
            intra_bw: gbps_to_bytes_per_sec(300),
            inter_bw: gbit_to_bytes_per_sec(400),
            intra_latency: 10e-6,
            inter_latency: 30e-6,
            // A100 BF16 tensor core peak.
            device_flops: tflops_to_flops_per_sec(312),
            kernel_efficiency: 0.55,
            kernel_overhead: 25e-6,
            mem_bw: gbps_to_bytes_per_sec(1600),
            topology: None,
        }
    }

    /// A single-node cluster with `devices` devices, NVSwitch only.
    pub fn single_node(devices: u32) -> Self {
        let mut c = Self::p4de(1);
        c.devices_per_node = devices;
        c
    }

    /// A p4de fleet with rail-optimized NICs: one dedicated
    /// `inter_bw / devices_per_node` rail per device instead of a shared node
    /// NIC.
    pub fn p4de_rail(nodes: u32) -> Self {
        Self::p4de(nodes).with_topology(TopologySpec::rail_optimized())
    }

    /// A p4de fleet behind a leaf/spine fabric: `nodes_per_leaf` nodes per
    /// leaf switch, with the leaf uplink into the spine oversubscribed by
    /// `oversub`.
    pub fn p4de_spine(nodes: u32, nodes_per_leaf: u32, oversub: f64) -> Self {
        let base = Self::p4de(nodes);
        let topo = TopologySpec::oversubscribed_spine(
            nodes_per_leaf,
            base.inter_bw,
            oversub,
            // One extra switch hop for cross-leaf traffic.
            10e-6,
        );
        base.with_topology(topo)
    }

    /// Attach a fabric description to this cluster.
    pub(crate) fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Validate the spec: a zero-sized cluster or a non-positive/non-finite
    /// bandwidth, throughput, or efficiency would otherwise surface as NaN or
    /// div-by-zero deep in the planner or simulator.
    pub fn validate(&self) -> DcpResult<()> {
        if self.nodes == 0 {
            return Err(DcpError::invalid_argument("cluster has zero nodes"));
        }
        if self.devices_per_node == 0 {
            return Err(DcpError::invalid_argument(
                "cluster has zero devices per node",
            ));
        }
        for (name, v) in [
            ("intra_bw", self.intra_bw),
            ("inter_bw", self.inter_bw),
            ("device_flops", self.device_flops),
            ("mem_bw", self.mem_bw),
        ] {
            if v <= 0.0 || !v.is_finite() {
                return Err(DcpError::invalid_argument(format!(
                    "cluster {name} must be positive and finite, got {v}"
                )));
            }
        }
        if self.kernel_efficiency.is_nan()
            || self.kernel_efficiency <= 0.0
            || self.kernel_efficiency > 1.0
        {
            return Err(DcpError::invalid_argument(format!(
                "cluster kernel_efficiency must be in (0, 1], got {}",
                self.kernel_efficiency
            )));
        }
        for (name, v) in [
            ("intra_latency", self.intra_latency),
            ("inter_latency", self.inter_latency),
            ("kernel_overhead", self.kernel_overhead),
        ] {
            if v < 0.0 || !v.is_finite() {
                return Err(DcpError::invalid_argument(format!(
                    "cluster {name} must be non-negative and finite, got {v}"
                )));
            }
        }
        if let Some(t) = &self.topology {
            t.validate(self.nodes)?;
        }
        Ok(())
    }

    /// Switch tiers above the node, innermost first (empty for the flat
    /// model).
    pub fn tiers(&self) -> &[TierSpec] {
        self.topology.as_ref().map_or(&[], |t| t.tiers.as_slice())
    }

    /// Whether cross-node NIC bandwidth is provisioned as one rail per device.
    pub fn rail_optimized(&self) -> bool {
        self.topology.as_ref().is_some_and(|t| t.rail_optimized)
    }

    /// The tier-`i` group containing `node` (tier 0 groups are leaves).
    pub fn tier_group(&self, tier: usize, node: NodeId) -> u32 {
        let mut span = 1u32;
        for t in &self.tiers()[..=tier] {
            span *= t.group;
        }
        node.0 / span
    }

    /// How far apart two devices are in the fabric: 0 for the same node, 1
    /// for different nodes under the same innermost switch, and +1 for every
    /// additional tier the path crosses. The flat model only ever yields 0
    /// or 1.
    pub fn tier_distance(&self, a: DeviceId, b: DeviceId) -> u32 {
        let (na, nb) = (self.node_of(a), self.node_of(b));
        if na == nb {
            return 0;
        }
        let mut d = 1;
        for i in 0..self.tiers().len() {
            if self.tier_group(i, na) != self.tier_group(i, nb) {
                d += 1;
            }
        }
        d
    }

    /// Number of distinct tier-distance values transfers can have
    /// (`max tier_distance + 1`).
    pub fn num_tier_distances(&self) -> usize {
        self.tiers().len() + 2
    }

    /// Placement hierarchy levels, outermost first, ending at the device
    /// level. The product of all levels is `num_devices()`. The flat model
    /// yields `[nodes, devices_per_node]`; a leaf tier of `g` nodes yields
    /// `[nodes / g, g, devices_per_node]`, and so on.
    pub fn hierarchy(&self) -> Vec<u32> {
        let mut levels = vec![self.devices_per_node];
        let mut units = self.nodes;
        for t in self.tiers() {
            levels.push(t.group);
            units /= t.group;
        }
        levels.push(units);
        levels.reverse();
        levels
    }

    /// Total number of devices in the cluster.
    pub fn num_devices(&self) -> u32 {
        self.nodes * self.devices_per_node
    }

    /// The node hosting device `dev`.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is out of range for this cluster.
    pub fn node_of(&self, dev: DeviceId) -> NodeId {
        assert!(
            dev.0 < self.num_devices(),
            "device {dev} out of range for cluster with {} devices",
            self.num_devices()
        );
        NodeId(dev.0 / self.devices_per_node)
    }

    /// All device ids, in rank order.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.num_devices()).map(DeviceId)
    }

    /// Point-to-point latency between two devices: intra- or inter-node base
    /// latency plus the latency of every switch tier the path crosses.
    pub fn latency(&self, a: DeviceId, b: DeviceId) -> f64 {
        let (na, nb) = (self.node_of(a), self.node_of(b));
        if na == nb {
            return self.intra_latency;
        }
        let mut l = self.inter_latency;
        for (i, t) in self.tiers().iter().enumerate() {
            if self.tier_group(i, na) != self.tier_group(i, nb) {
                l += t.latency;
            }
        }
        l
    }

    /// Effective attention-kernel throughput per device, FLOP/s.
    pub fn effective_flops(&self) -> f64 {
        self.device_flops * self.kernel_efficiency
    }

    /// What the simulator charges one device for a kernel and a transfer.
    pub fn cost(&self) -> CostModel {
        CostModel {
            devices_per_node: self.devices_per_node,
            effective_flops: self.effective_flops(),
            kernel_overhead: self.kernel_overhead,
            links: [
                (self.intra_latency, 1.0 / self.intra_bw),
                (
                    self.inter_latency,
                    self.devices_per_node.max(1) as f64 / self.inter_bw,
                ),
            ],
        }
    }
}

/// The simulator's charges as one device sees them, uncontended: a kernel
/// of `f` flops takes `f / effective_flops + kernel_overhead`, and bytes to
/// or from a device of the same node cross its NVSwitch link, bytes to or
/// from another node its share of the node's NIC, each after that link's
/// latency. Built by [`ClusterSpec::cost`]; the default is the paper's p4de
/// testbed. The division scheduler prices its cuts with it, and the
/// simulator charges kernels with [`CostModel::kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Devices per node: which ranks share a node.
    pub devices_per_node: u32,
    /// Attention-kernel throughput, FLOP/s.
    pub effective_flops: f64,
    /// Fixed charge per kernel launch, seconds.
    pub kernel_overhead: f64,
    /// `(latency, seconds per byte)` of a device's same-node link, then of
    /// its share of the node's NIC.
    pub links: [(f64, f64); 2],
}

impl Default for CostModel {
    fn default() -> Self {
        ClusterSpec::p4de(1).cost()
    }
}

impl CostModel {
    /// Seconds a kernel of `flops` occupies its device.
    pub fn kernel(&self, flops: u64) -> f64 {
        flops as f64 / self.effective_flops + self.kernel_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p4de_topology() {
        let c = ClusterSpec::p4de(4);
        assert_eq!(c.num_devices(), 32);
        assert_eq!(c.node_of(DeviceId(0)), NodeId(0));
        assert_eq!(c.node_of(DeviceId(7)), NodeId(0));
        assert_eq!(c.node_of(DeviceId(8)), NodeId(1));
        assert_eq!(c.node_of(DeviceId(31)), NodeId(3));
    }

    #[test]
    fn same_node_and_latency() {
        let c = ClusterSpec::p4de(2);
        assert!(c.latency(DeviceId(0), DeviceId(1)) < c.latency(DeviceId(0), DeviceId(9)));
    }

    #[test]
    fn devices_iterates_in_rank_order() {
        let c = ClusterSpec::single_node(4);
        let ids: Vec<u32> = c.devices().map(|d| d.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_of_rejects_out_of_range() {
        let c = ClusterSpec::single_node(2);
        let _ = c.node_of(DeviceId(2));
    }

    #[test]
    fn serde_roundtrip() {
        let c = ClusterSpec::p4de(8);
        let s = serde_json::to_string(&c).unwrap();
        let back: ClusterSpec = serde_json::from_str(&s).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn topology_defaults_on_legacy_json() {
        // A serialized spec from before the topology field existed must still
        // deserialize, to the flat model.
        let s = serde_json::to_string(&ClusterSpec::p4de(2)).unwrap();
        let legacy = s.replace(",\"topology\":null", "");
        assert_ne!(s, legacy, "expected a topology key to strip");
        let back: ClusterSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, ClusterSpec::p4de(2));
        assert!(back.topology.is_none());
        assert_eq!(back.hierarchy(), vec![2, 8]);
    }

    #[test]
    fn spine_hierarchy_and_tier_distance() {
        let c = ClusterSpec::p4de_spine(8, 4, 4.0);
        assert_eq!(c.hierarchy(), vec![2, 4, 8]);
        assert_eq!(c.num_tier_distances(), 3);
        // Same node.
        assert_eq!(c.tier_distance(DeviceId(0), DeviceId(7)), 0);
        // Different node, same leaf (nodes 0 and 3 are both under leaf 0).
        assert_eq!(c.tier_distance(DeviceId(0), DeviceId(3 * 8)), 1);
        // Different leaf (node 0 under leaf 0, node 4 under leaf 1).
        assert_eq!(c.tier_distance(DeviceId(0), DeviceId(4 * 8)), 2);
        // Cross-leaf latency includes the leaf hop.
        assert!(c.latency(DeviceId(0), DeviceId(4 * 8)) > c.latency(DeviceId(0), DeviceId(3 * 8)));
        // Leaf uplink is oversubscribed 4x: 4 nodes share one node's worth.
        let t = &c.tiers()[0];
        assert!((t.uplink_bw - c.inter_bw).abs() < 1.0);
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        assert!(ClusterSpec::p4de(2).validate().is_ok());
        assert!(ClusterSpec::p4de_rail(2).validate().is_ok());
        assert!(ClusterSpec::p4de_spine(8, 4, 4.0).validate().is_ok());

        let mut c = ClusterSpec::p4de(2);
        c.nodes = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterSpec::p4de(2);
        c.devices_per_node = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterSpec::p4de(2);
        c.inter_bw = 0.0;
        assert!(c.validate().is_err());

        let mut c = ClusterSpec::p4de(2);
        c.device_flops = f64::NAN;
        assert!(c.validate().is_err());

        let mut c = ClusterSpec::p4de(2);
        c.kernel_efficiency = 0.0;
        assert!(c.validate().is_err());

        // Tier group must divide the node count.
        let c = ClusterSpec::p4de_spine(6, 4, 4.0);
        assert!(c.validate().is_err());

        // Zero fanout and non-positive uplink are rejected.
        let mut c = ClusterSpec::p4de_spine(8, 4, 4.0);
        c.topology.as_mut().unwrap().tiers[0].group = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterSpec::p4de_spine(8, 4, 4.0);
        c.topology.as_mut().unwrap().tiers[0].uplink_bw = -1.0;
        assert!(c.validate().is_err());
    }
}
