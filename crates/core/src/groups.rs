//! Scaling DCP to larger batches with data-parallel groups (paper Sec. 8).
//!
//! The paper's discussion proposes handling batch-size scaling by "grouping
//! nodes, applying DCP within groups and traditional DP across groups".
//! This module implements that: sequences are split across `g` node groups
//! balanced by attention FLOPs (longest-processing-time greedy — quadratic
//! cost makes token-balancing wrong, Sec. 2.3), and each group plans its
//! own sub-batch independently on its slice of the cluster. Gradient
//! synchronization across groups is ordinary data parallelism and is
//! accounted by the end-to-end model.

use dcp_mask::MaskSpec;
use dcp_types::{AttnSpec, ClusterSpec, DcpError, DcpResult};

use crate::planner::{PlanOutput, Planner, PlannerConfig};

/// The result of grouped planning: per group, the sequences (by index into
/// the original batch) and the group's plan.
#[derive(Debug)]
pub struct GroupedPlan {
    /// For each group: indices of the batch's sequences assigned to it.
    pub groups: Vec<Vec<usize>>,
    /// Per-group plan outputs (same order).
    pub plans: Vec<PlanOutput>,
}

impl GroupedPlan {
    /// Per-group total attention FLOPs.
    pub(crate) fn group_flops(&self) -> Vec<u64> {
        self.plans.iter().map(|p| p.layout.total_flops()).collect()
    }

    /// Max/mean FLOPs imbalance across groups.
    pub fn imbalance(&self) -> f64 {
        let f = self.group_flops();
        let max = *f.iter().max().unwrap_or(&0) as f64;
        let mean = f.iter().sum::<u64>() as f64 / f.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Splits `seqs` across `groups` node groups (each `cluster.nodes / groups`
/// nodes) and runs the DCP planner inside each group.
///
/// Sequences are assigned by LPT greedy on their *attention FLOPs* (which
/// grow quadratically with length under causal masks — token-count
/// balancing would misbalance compute, the paper's Sec. 2.3 observation).
///
/// # Errors
///
/// Returns [`DcpError::InvalidArgument`] if `groups` does not divide the
/// node count or there are fewer sequences than groups.
pub fn plan_grouped(
    cluster: &ClusterSpec,
    attn: AttnSpec,
    cfg: &PlannerConfig,
    groups: u32,
    seqs: &[(u32, MaskSpec)],
) -> DcpResult<GroupedPlan> {
    if groups == 0 || !cluster.nodes.is_multiple_of(groups) {
        return Err(DcpError::invalid_argument(format!(
            "groups ({groups}) must divide the node count ({})",
            cluster.nodes
        )));
    }
    if seqs.len() < groups as usize {
        return Err(DcpError::invalid_argument(format!(
            "batch has {} sequences, fewer than {groups} groups",
            seqs.len()
        )));
    }

    // Attention FLOPs per sequence (mask-aware).
    let mut weighted: Vec<(usize, u64)> = Vec::with_capacity(seqs.len());
    for (i, (len, mask)) in seqs.iter().enumerate() {
        let m = mask.instantiate(*len)?;
        weighted.push((i, attn.pair_flops(m.total_pairs())));
    }
    weighted.sort_by_key(|&(_, f)| std::cmp::Reverse(f));

    // LPT greedy.
    let mut group_seqs: Vec<Vec<usize>> = vec![Vec::new(); groups as usize];
    let mut loads = vec![0u64; groups as usize];
    for (i, f) in weighted {
        let g = (0..groups as usize)
            .min_by_key(|&g| loads[g])
            .expect("groups > 0");
        group_seqs[g].push(i);
        loads[g] += f;
    }
    for g in &mut group_seqs {
        g.sort_unstable();
    }

    // Plan each group on its slice of the cluster.
    let sub_cluster = ClusterSpec {
        nodes: cluster.nodes / groups,
        ..cluster.clone()
    };
    let planner = Planner::new(sub_cluster, attn, cfg.clone());
    let mut plans = Vec::with_capacity(groups as usize);
    for g in &group_seqs {
        let sub: Vec<(u32, MaskSpec)> = g.iter().map(|&i| seqs[i].clone()).collect();
        plans.push(planner.plan(&sub)?);
    }
    Ok(GroupedPlan {
        groups: group_seqs,
        plans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(lens: &[u32]) -> Vec<(u32, MaskSpec)> {
        lens.iter().map(|&l| (l, MaskSpec::Causal)).collect()
    }

    #[test]
    fn partitions_every_sequence_exactly_once() {
        let cluster = ClusterSpec::p4de(4);
        let batch = seqs(&[30000, 4000, 8000, 12000, 2000, 6000, 1000, 900]);
        let gp = plan_grouped(
            &cluster,
            AttnSpec::paper_micro(),
            &PlannerConfig {
                block_size: 1024,
                ..Default::default()
            },
            2,
            &batch,
        )
        .unwrap();
        let mut all: Vec<usize> = gp.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..batch.len()).collect::<Vec<_>>());
        assert_eq!(gp.plans.len(), 2);
        // Each group plans on half the cluster.
        for p in &gp.plans {
            assert_eq!(p.num_devices(), 16);
        }
    }

    #[test]
    fn flops_balanced_better_than_token_balance_would_be() {
        // One quadratic monster plus many short sequences: LPT on FLOPs
        // puts the monster alone-ish.
        let cluster = ClusterSpec::p4de(2);
        let batch = seqs(&[65536, 4000, 4000, 4000, 4000, 4000, 4000, 4000]);
        let gp = plan_grouped(
            &cluster,
            AttnSpec::paper_micro(),
            &PlannerConfig {
                block_size: 1024,
                ..Default::default()
            },
            2,
            &batch,
        )
        .unwrap();
        // The monster's group contains only the monster.
        let monster_group = gp
            .groups
            .iter()
            .position(|g| g.contains(&0))
            .expect("assigned");
        assert_eq!(gp.groups[monster_group], vec![0]);
        // Imbalance is bounded by the monster's dominance, not worsened.
        assert!(gp.imbalance() < 2.0, "imbalance {}", gp.imbalance());
    }

    #[test]
    fn rejects_bad_configs() {
        let cluster = ClusterSpec::p4de(4);
        let batch = seqs(&[1000, 2000]);
        let cfg = PlannerConfig::default();
        let attn = AttnSpec::paper_micro();
        assert!(plan_grouped(&cluster, attn, &cfg, 3, &batch).is_err()); // 3 !| 4
        assert!(plan_grouped(&cluster, attn, &cfg, 4, &batch).is_err()); // 2 seqs < 4
        assert!(plan_grouped(&cluster, attn, &cfg, 0, &batch).is_err());
    }

    #[test]
    fn grouped_plans_are_individually_valid() {
        let cluster = ClusterSpec::p4de(2);
        let batch = seqs(&[16000, 9000, 5000, 3000]);
        let gp = plan_grouped(
            &cluster,
            AttnSpec::paper_micro(),
            &PlannerConfig {
                block_size: 1024,
                ..Default::default()
            },
            2,
            &batch,
        )
        .unwrap();
        for (g, p) in gp.groups.iter().zip(&gp.plans) {
            dcp_sched::verify_plan(&p.layout, &p.placement, &p.plan).unwrap();
            let tokens: u64 = g.iter().map(|&i| batch[i].0 as u64).sum();
            assert_eq!(p.layout.total_tokens(), tokens);
        }
    }
}
