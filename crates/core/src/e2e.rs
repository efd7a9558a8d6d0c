//! End-to-end iteration time model for the paper's 8B-GPT experiments.
//!
//! An iteration is decomposed exactly as the paper's Fig. 22:
//!
//! - **attention**: the simulated makespan of the context-parallel
//!   attention plan, once per layer (forward + backward) — this is the only
//!   part that differs between DCP and the baselines;
//! - **context-independent operators**: the dense matmuls of every layer
//!   plus the LM head, charged for the *most loaded* device (token balance
//!   matters) and divided across tensor-parallel ranks;
//! - **gradient synchronization**: a ring all-reduce of the tensor-parallel
//!   gradient shard across the context/data-parallel ranks;
//! - **other**: the optimizer update (Adam-style state read/write through
//!   device memory bandwidth).
//!
//! The identical treatment of the non-attention parts for every system is
//! deliberate and mirrors the paper's argument for why end-to-end speedups
//! (0.94x–1.46x) are smaller than attention micro-benchmark speedups
//! (1.19x–3.77x).

use dcp_sim::PlanSim;
use dcp_types::{ClusterSpec, ModelSpec};
use serde::{Deserialize, Serialize};

/// End-to-end model configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E2eConfig {
    /// The transformer being trained.
    pub model: ModelSpec,
    /// Tensor-parallel degree (within a node).
    pub tp: u32,
    /// The full physical cluster (TP ranks included).
    pub cluster: ClusterSpec,
}

impl E2eConfig {
    /// The paper's end-to-end setup: 8 p4de nodes (64 GPUs), 8B GPT,
    /// TP = 4, leaving 16-way context parallelism.
    pub fn paper() -> Self {
        E2eConfig {
            model: ModelSpec::gpt_8b(),
            tp: 4,
            cluster: ClusterSpec::p4de(8),
        }
    }

    /// Number of context-parallel ranks (`devices / tp`).
    pub fn cp_ranks(&self) -> u32 {
        self.cluster.num_devices() / self.tp
    }
}

/// The cluster as seen by the context-parallel ranks after `tp`-way tensor
/// parallelism claims adjacent ranks inside each node: same per-link
/// bandwidths, but only `devices_per_node / tp` CP ranks per node sharing
/// the node NIC.
///
/// # Panics
///
/// Panics if `tp` does not divide the node size.
pub fn cp_cluster(cluster: &ClusterSpec, tp: u32) -> ClusterSpec {
    assert!(
        tp > 0 && cluster.devices_per_node.is_multiple_of(tp),
        "tp must divide devices per node"
    );
    let mut c = cluster.clone();
    c.devices_per_node = cluster.devices_per_node / tp;
    c
}

/// One iteration's time decomposition (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IterationBreakdown {
    /// Attention kernel time across all layers (compute only).
    pub attn_compute: f64,
    /// Communication exposed on the critical path (not overlapped).
    pub exposed_comm: f64,
    /// Communication successfully overlapped with attention compute.
    pub overlap_comm: f64,
    /// Context-independent operator time (fwd + bwd, most-loaded device).
    pub ctx_independent: f64,
    /// Gradient all-reduce time.
    pub grad_sync: f64,
    /// Optimizer and miscellaneous per-iteration time.
    pub other: f64,
    /// End-to-end iteration seconds.
    pub total: f64,
}

/// Computes the iteration breakdown from a simulated attention plan.
///
/// `attn_sim` must be the simulation of **one layer's** attention plan on
/// the CP cluster; `max_device_tokens` is the token count of the most
/// loaded CP rank (for context-independent work); `total_tokens` is the
/// batch's token count.
pub fn simulate_iteration(
    cfg: &E2eConfig,
    attn_sim: &PlanSim,
    max_device_tokens: u64,
    total_tokens: u64,
) -> IterationBreakdown {
    let m = &cfg.model;
    let layers = m.layers as f64;
    let eff = cfg.cluster.effective_flops();

    // Attention: one plan per layer, forward + backward. Split the
    // simulated makespan into compute and exposed-comm using the slowest
    // device's breakdown.
    let slowest = |p: &dcp_sim::PhaseSim| {
        p.devices
            .iter()
            .cloned()
            .max_by(|a, b| a.finish.partial_cmp(&b.finish).expect("no NaN"))
            .unwrap_or_default()
    };
    let f = slowest(&attn_sim.fwd);
    let b = slowest(&attn_sim.bwd);
    let attn_compute = layers * (f.compute() + b.compute());
    let exposed_comm = layers * (f.exposed_wait + b.exposed_wait)
        + layers * ((attn_sim.fwd.makespan - f.finish) + (attn_sim.bwd.makespan - b.finish));
    let overlap_comm = layers * (f.overlap + b.overlap);

    // Context-independent: whole-model dense flops for the busiest rank's
    // tokens, divided across TP, forward (1x) + backward (2x).
    let ctx_flops = m.ctx_independent_fwd_flops(max_device_tokens) as f64 / cfg.tp as f64;
    let ctx_independent = 3.0 * ctx_flops / eff;

    // Gradient all-reduce across CP ranks (weights are replicated there).
    let r = cfg.cp_ranks() as f64;
    let grad_bytes = m.grad_bytes(cfg.tp) as f64;
    let grad_sync = if cfg.cluster.nodes > 1 {
        let x = cfg.cluster.nodes as f64;
        // Each node's NIC carries the ring segments of its resident ranks.
        2.0 * (x - 1.0) / x * grad_bytes / cfg.cluster.inter_bw
    } else {
        2.0 * (r - 1.0) / r * grad_bytes / cfg.cluster.intra_bw
    };

    // Optimizer: Adam reads/writes ~16 bytes of state per parameter shard.
    let other = (m.param_count() / cfg.tp as u64) as f64 * 16.0 / cfg.cluster.mem_bw;

    let total = layers * attn_sim.total() + ctx_independent + grad_sync + other;
    let _ = total_tokens;
    IterationBreakdown {
        attn_compute,
        exposed_comm,
        overlap_comm,
        ctx_independent,
        grad_sync,
        other,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Planner, PlannerConfig};
    use dcp_mask::MaskSpec;
    use dcp_sim::simulate_plan;
    use dcp_types::AttnSpec;

    #[test]
    fn cp_cluster_divides_node() {
        let c = ClusterSpec::p4de(8);
        let cp = cp_cluster(&c, 4);
        assert_eq!(cp.devices_per_node, 2);
        assert_eq!(cp.num_devices(), 16);
        assert_eq!(cp.inter_bw, c.inter_bw);
    }

    #[test]
    #[should_panic(expected = "tp must divide")]
    fn cp_cluster_rejects_bad_tp() {
        let _ = cp_cluster(&ClusterSpec::p4de(1), 3);
    }

    #[test]
    fn breakdown_sums_plausibly() {
        let cfg = E2eConfig::paper();
        let cp = cp_cluster(&cfg.cluster, cfg.tp);
        let planner = Planner::new(
            cp.clone(),
            cfg.model.attn_spec(cfg.tp),
            PlannerConfig::default(),
        );
        let out = planner
            .plan(&[(65536, MaskSpec::Causal), (32768, MaskSpec::Causal)])
            .unwrap();
        let sim = simulate_plan(&cp, &out.plan).unwrap();
        let max_tokens = *out.placement.token_loads(&out.layout).iter().max().unwrap();
        let it = simulate_iteration(&cfg, &sim, max_tokens, out.layout.total_tokens());
        assert!(it.total > 0.0);
        // Attention + exposed should not exceed the total.
        assert!(it.attn_compute + it.exposed_comm <= it.total * 1.01);
        // The non-attention parts are nonzero.
        assert!(it.ctx_independent > 0.0);
        assert!(it.grad_sync > 0.0);
        assert!(it.other > 0.0);
        // An 8B model at 128k tokens: iteration should land in a sane range
        // (hundreds of ms to tens of seconds).
        assert!(it.total > 0.05 && it.total < 60.0, "total = {}", it.total);
    }

    #[test]
    fn paper_config_shape() {
        let cfg = E2eConfig::paper();
        assert_eq!(cfg.cp_ranks(), 16);
        assert_eq!(cfg.model.attn_spec(cfg.tp), AttnSpec::paper_micro());
    }
}
