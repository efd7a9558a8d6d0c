//! Deterministic work budgets: counts that depend only on the input and the
//! seed, so a change in them is a change in the algorithm, never in the host.

use dcp::core::{Planner, PlannerConfig};
use dcp::hypergraph::{partition_with_stats, Hypergraph, HypergraphBuilder, PartitionConfig};
use dcp::mask::MaskSpec;
use dcp::types::{AttnSpec, ClusterSpec};

fn planner() -> Planner {
    Planner::new(
        ClusterSpec::p4de(4),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 1024,
            ..Default::default()
        },
    )
}

/// The batch DCP exists for: one 131 072-token causal document, 16 512
/// computation blocks, planned cold for 32 devices. Heavy-edge matching
/// alone took 362 472 proposals in 415 rounds over 77 levels to coarsen it,
/// and visited 46 398 604 pins (73 401 653 before per-edge active pin
/// lists): every pin of a Q-row or KV-column edge rates the same, so the
/// rounds keep re-proposing. The structural level contracts the document's
/// 4 x 4 block-grid tiles first, and matching runs on what is left.
#[test]
fn long_document_matching_stays_inside_its_pin_budget() {
    const PROPOSALS: u64 = 19_962;
    const ROUNDS: u64 = 172;
    const LEVELS: u64 = 41;
    const MAX_PINS_SCANNED: u64 = 2_000_000;

    let out = planner().plan(&[(131_072, MaskSpec::Causal)]).unwrap();
    assert_eq!(out.layout.comp_blocks.len(), 16_512);
    let work = out.stats.work;
    assert_eq!(work.match_proposals, PROPOSALS);
    assert_eq!(work.match_rounds, ROUNDS);
    assert_eq!(work.match_levels, LEVELS);
    assert!(
        work.match_pins_scanned <= MAX_PINS_SCANNED,
        "{} pins scanned, budget {MAX_PINS_SCANNED}",
        work.match_pins_scanned
    );
    // What refinement explored covers what it took back.
    assert!(work.fm_moves_applied >= work.fm_moves_rolled_back);
    assert!(work.fm_moves_applied > 0);
}

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

/// The tile rule's edge: a document of 31 blocks keeps tiles of one block,
/// so every label is distinct, the structural level cannot shrink the graph
/// and the partition — placement and every work count — is the unlabelled
/// graph's. One block more and the tiles are 2 x 2.
#[test]
fn a_31_block_document_partitions_as_if_unlabelled() {
    for (blocks, distinct) in [(31u32, true), (32, false)] {
        let out = planner()
            .plan(&[(blocks * 1024, MaskSpec::Causal)])
            .unwrap();
        let hg = Planner::build_hypergraph(&out.layout);
        let nt = out.layout.token_blocks.len();
        let mut labels = hg.labels().expect("computation blocks are labelled")[nt..].to_vec();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(
            labels.len() == out.layout.comp_blocks.len(),
            distinct,
            "{blocks} blocks"
        );
        if !distinct {
            continue;
        }
        let bare = unlabelled(&hg);
        for k in [4, 32] {
            let cfg = PartitionConfig::new(k);
            let (labelled, lstats) = partition_with_stats(&hg, &cfg).unwrap();
            let (plain, pstats) = partition_with_stats(&bare, &cfg).unwrap();
            assert_eq!(labelled.assignment, plain.assignment, "k={k}");
            assert_eq!(lstats.work, pstats.work, "k={k}");
            assert_eq!(lstats.levels, pstats.levels, "k={k}");
        }
    }
}
