//! The partitioner's bits, end to end. `tests/scale.rs` pins the plans of a
//! few batches and `work_budget` the work of one; this pins every
//! assignment, cost and `PartitionWork` count of `partition_with_stats` at
//! k ∈ {2, 4, 8, 16} and of `partition_warm_with_stats` from a perturbed
//! seed, on the planner's own hypergraphs of several layouts, in one FNV-1a
//! digest per layout. A change to FM, matching or balance repair that moves
//! any RNG draw or any comparison outcome moves a digest.

use dcp::blocks::{BatchLayout, BlockConfig};
use dcp::core::Planner;
use dcp::hypergraph::{
    partition_warm_with_stats, partition_with_stats, Hypergraph, PartitionConfig, PartitionWork,
};
use dcp::mask::MaskSpec;
use dcp::types::AttnSpec;

/// Every mask family, one sequence each, at lengths that leave ragged last
/// blocks.
fn mask_families() -> Vec<(u32, MaskSpec)> {
    vec![
        (5900, MaskSpec::Causal),
        (3000, MaskSpec::Full),
        (
            6600,
            MaskSpec::Lambda {
                sink: 256,
                window: 1024,
            },
        ),
        (
            6200,
            MaskSpec::CausalBlockwise {
                block: 512,
                window_blocks: 2,
                sink_blocks: 1,
            },
        ),
        (
            5400,
            MaskSpec::SharedQuestion {
                question_len: 1400,
                answer_lens: vec![1200, 1800, 1000],
            },
        ),
    ]
}

/// One packed multi-document sequence next to a plain causal one.
fn packed() -> Vec<(u32, MaskSpec)> {
    vec![
        (
            12000,
            MaskSpec::packed_documents(&[3600, 1400, 4200, 800, 2000]),
        ),
        (4300, MaskSpec::Causal),
    ]
}

/// A long-document batch at the benchmark's block size.
fn long_documents() -> Vec<(u32, MaskSpec)> {
    vec![(49152, MaskSpec::Causal), (17000, MaskSpec::Causal)]
}

fn hypergraph(block_size: u32, seqs: &[(u32, MaskSpec)]) -> Hypergraph {
    let layout = BatchLayout::build(
        AttnSpec::paper_micro(),
        BlockConfig {
            block_size,
            head_blocks: 2,
        },
        seqs,
    )
    .unwrap();
    Planner::build_hypergraph(&layout)
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn run(&mut self, assignment: &[u32], cost: u64, work: &PartitionWork) {
        for &p in assignment {
            self.word(u64::from(p));
        }
        self.word(cost);
        let w = work;
        for x in [
            w.match_levels,
            w.match_rounds,
            w.match_proposals,
            w.match_pins_scanned,
            w.fm_moves_applied,
            w.fm_moves_rolled_back,
        ] {
            self.word(x);
        }
    }
}

/// The digest of a cold run at every k, each followed by a warm run from
/// the cold assignment with every fifth vertex moved to the next part.
fn digest(hg: &Hypergraph) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for k in [2, 4, 8, 16] {
        let cfg = PartitionConfig::new(k);
        let (cold, stats) = partition_with_stats(hg, &cfg).unwrap();
        h.run(&cold.assignment, cold.cost, &stats.work);
        let seed: Vec<u32> = cold
            .assignment
            .iter()
            .enumerate()
            .map(|(v, &p)| if v % 5 == 0 { (p + 1) % k } else { p })
            .collect();
        let (warm, stats) = partition_warm_with_stats(hg, &cfg, &seed).unwrap();
        h.run(&warm.assignment, warm.cost, &stats.work);
    }
    h.0
}

#[test]
fn partitioner_bits_are_pinned() {
    let graphs = [
        hypergraph(256, &mask_families()),
        hypergraph(256, &packed()),
        hypergraph(1024, &long_documents()),
    ];
    // Mask families and packed documents at block 256, long documents at
    // block 1024.
    let want = [
        0x4f68_49f4_c591_465e,
        0xf888_0476_217d_1079,
        0x6a7a_7f95_e0eb_7ae2,
    ];
    let got = graphs.each_ref().map(digest);
    let sizes = graphs.each_ref().map(Hypergraph::num_vertices);
    assert_eq!(got, want, "{got:#018x?} over {sizes:?} vertices");
}
