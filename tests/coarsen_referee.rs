//! The structural coarsening level's quality referee: on a small fixed
//! corpus of long documents (32 blocks and up, so every batch is tiled),
//! partitioning the planner's labelled placement hypergraph must cost no
//! more communication, and schedule into no slower a plan, than
//! partitioning the same graph rebuilt without labels — within 1 % in
//! geometric mean. Single batches move both ways by more than that
//! (re-ordering alone moves a plan's makespan by ±15 %), so they are printed
//! (`-- --nocapture`), not judged.

use dcp::blocks::{BatchLayout, BlockConfig};
use dcp::core::Planner;
use dcp::hypergraph::{partition, Hypergraph, HypergraphBuilder, PartitionConfig};
use dcp::mask::MaskSpec;
use dcp::sched::{build_plan, Placement, ScheduleConfig};
use dcp::sim::simulate_plan;
use dcp::types::{AttnSpec, ClusterSpec};

const BLOCK: u32 = 1024;

/// `hg` rebuilt from its pins and weights alone: no labels.
fn unlabelled(hg: &Hypergraph) -> Hypergraph {
    let mut b = HypergraphBuilder::new(hg.num_vertices());
    for v in 0..hg.num_vertices() {
        b.set_vertex_weight(v, hg.vertex_weight(v as u32));
    }
    for e in 0..hg.num_edges() as u32 {
        b.add_edge(hg.edge_weight(e), hg.pins(e));
    }
    b.build().unwrap()
}

/// `(connectivity cost, simulated makespan)` of partitioning `hg` over the
/// devices of `cluster` and scheduling the placement.
fn score(layout: &BatchLayout, hg: &Hypergraph, cluster: &ClusterSpec) -> (u64, f64) {
    let k = cluster.num_devices();
    let part = partition(hg, &PartitionConfig::new(k)).unwrap();
    let (tokens, comps) = part.assignment.split_at(layout.token_blocks.len());
    let placement = Placement {
        num_devices: k,
        token_to_dev: tokens.to_vec(),
        comp_to_dev: comps.to_vec(),
    };
    let sched = ScheduleConfig {
        divisions: 4,
        cost: cluster.cost(),
    };
    let plan = build_plan(layout, &placement, &sched).unwrap();
    (part.cost, simulate_plan(cluster, &plan).unwrap().total())
}

#[test]
fn tiles_cost_no_more_than_matching_in_geometric_mean() {
    let causal = |blocks: u32| (blocks * BLOCK, MaskSpec::Causal);
    let corpus: Vec<(u32, Vec<(u32, MaskSpec)>)> = vec![
        (1, vec![causal(32)]),
        (2, vec![causal(48)]),
        (4, vec![causal(48), causal(40), causal(8)]),
        (1, vec![causal(64)]),
        (2, vec![causal(96)]),
        (4, vec![causal(128)]),
        (2, vec![causal(128), causal(16), causal(8)]),
        (1, vec![causal(160)]),
        (4, vec![causal(256)]),
        (2, vec![(128 * BLOCK, MaskSpec::paper_lambda())]),
        (
            2,
            vec![(128 * BLOCK, MaskSpec::paper_shared_question(128 * BLOCK))],
        ),
    ];
    let attn = AttnSpec::paper_micro();
    let (mut log_cost, mut log_time) = (0.0f64, 0.0f64);
    for (nodes, seqs) in &corpus {
        let cluster = ClusterSpec::p4de(*nodes);
        let layout =
            BatchLayout::build(attn, BlockConfig::with_block_size(&attn, BLOCK), seqs).unwrap();
        let hg = Planner::build_hypergraph(&layout);
        let (cost, time) = score(&layout, &hg, &cluster);
        let (bare_cost, bare_time) = score(&layout, &unlabelled(&hg), &cluster);
        let blocks: Vec<u32> = seqs.iter().map(|(len, _)| len / BLOCK).collect();
        println!(
            "{} devices, {blocks:?} blocks, {:?}: cost {bare_cost} -> {cost} ({:.3}x), \
             makespan {:.4} -> {:.4} ms ({:.3}x)",
            cluster.num_devices(),
            seqs[0].1,
            cost as f64 / bare_cost as f64,
            bare_time * 1e3,
            time * 1e3,
            time / bare_time
        );
        log_cost += (cost as f64 / bare_cost as f64).ln();
        log_time += (time / bare_time).ln();
    }
    let n = corpus.len() as f64;
    let (cost, time) = ((log_cost / n).exp(), (log_time / n).exp());
    println!("geometric mean: cost {cost:.4}x, makespan {time:.4}x");
    assert!(cost <= 1.01, "labelled cost {cost:.4}x the unlabelled");
    assert!(time <= 1.01, "labelled makespan {time:.4}x the unlabelled");
}
