//! Deterministic work budgets: counts that depend only on the input and the
//! seed, so a change in them is a change in the algorithm, never in the host.

use dcp::core::{Planner, PlannerConfig};
use dcp::mask::MaskSpec;
use dcp::types::{AttnSpec, ClusterSpec};

/// The batch DCP exists for: one 131 072-token causal document, 16 512
/// computation blocks, planned cold for 32 devices. At the parent commit
/// every proposal of the heavy-edge matching re-scanned every pin of every
/// incident edge: 73 401 653 pin visits for 362 472 proposals in 415 rounds
/// over 77 levels. Per-edge active pin lists drop a pin for good once it is
/// seen matched; the proposals, rounds and levels — and the plan — are the
/// same, the pins visited at most 0.65 of the parent's.
#[test]
fn long_document_matching_stays_inside_its_pin_budget() {
    const PARENT_PINS_SCANNED: u64 = 73_401_653;
    const PARENT_PROPOSALS: u64 = 362_472;
    const PARENT_ROUNDS: u64 = 415;
    const PARENT_LEVELS: u64 = 77;

    let planner = Planner::new(
        ClusterSpec::p4de(4),
        AttnSpec::paper_micro(),
        PlannerConfig {
            block_size: 1024,
            ..Default::default()
        },
    );
    let out = planner.plan(&[(131_072, MaskSpec::Causal)]).unwrap();
    assert_eq!(out.layout.comp_blocks.len(), 16_512);
    let work = out.stats.work;
    assert_eq!(work.match_proposals, PARENT_PROPOSALS);
    assert_eq!(work.match_rounds, PARENT_ROUNDS);
    assert_eq!(work.match_levels, PARENT_LEVELS);
    assert!(
        work.match_pins_scanned * 100 <= PARENT_PINS_SCANNED * 65,
        "{} pins scanned, budget {}",
        work.match_pins_scanned,
        PARENT_PINS_SCANNED * 65 / 100
    );
    // What refinement explored covers what it took back.
    assert!(work.fm_moves_applied >= work.fm_moves_rolled_back);
    assert!(work.fm_moves_applied > 0);
}
