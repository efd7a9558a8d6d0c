//! The placement hypergraph's edges are the consumer relation of the
//! layout's computation blocks. The layout keeps only its blocks, so
//! `Planner::build_hypergraph` derives who reads each token block's slices;
//! this checks the result edge by edge against a direct transposition of
//! `comp_blocks`, over random layouts of every mask family, one and two
//! head groups and ragged last blocks.

use dcp_blocks::{BatchLayout, BlockConfig};
use dcp_core::Planner;
use dcp_mask::{MaskSpec, RangePair};
use dcp_types::AttnSpec;
use proptest::prelude::*;

/// A mask of family `family` for `len` tokens out of one arbitrary word.
fn spec_of(family: u32, len: u32, a: u32) -> MaskSpec {
    match family {
        0 => MaskSpec::Full,
        1 => MaskSpec::Causal,
        2 => MaskSpec::Lambda {
            sink: a % 8,
            window: 1 + a % 90,
        },
        3 => MaskSpec::CausalBlockwise {
            block: 1 + a % 50,
            window_blocks: 1 + a % 3,
            sink_blocks: a % 2,
        },
        4 => MaskSpec::paper_shared_question(len),
        5 => MaskSpec::packed_documents(&[len / 3, len - len / 3]),
        // Rows that reach past their token.
        _ => MaskSpec::Custom(
            (0..len)
                .map(|t| RangePair::single(t.wrapping_mul(a) % len, len))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per token block, its Q+O edge and then its KV edge, each the token
    /// vertex plus exactly the computation blocks reading that slice,
    /// ascending; a slice nobody reads has no edge.
    #[test]
    fn hypergraph_edges_are_the_consumer_relation(
        lens in prop::collection::vec(1u32..600, 1..4),
        families in prop::collection::vec(0u32..7, 3),
        a in any::<u32>(),
        bs in prop_oneof![Just(64u32), 16u32..200],
        head_blocks in 1u32..=2,
    ) {
        let seqs: Vec<(u32, MaskSpec)> = lens
            .iter()
            .zip(&families)
            .map(|(&len, &f)| (len, spec_of(f, len, a)))
            .collect();
        let cfg = BlockConfig { block_size: bs, head_blocks };
        let layout = BatchLayout::build(AttnSpec::new(8, 4, 16, 2), cfg, &seqs).unwrap();
        let hg = Planner::build_hypergraph(&layout);

        let nt = layout.token_blocks.len();
        let mut read = vec![[Vec::new(), Vec::new()]; nt];
        for (c, cb) in layout.comp_blocks.iter().enumerate() {
            read[cb.q_block.0 as usize][0].push((nt + c) as u32);
            read[cb.kv_block.0 as usize][1].push((nt + c) as u32);
        }
        let mut e = 0;
        for (i, (tb, [q, kv])) in layout.token_blocks.iter().zip(&read).enumerate() {
            for (weight, readers) in [(tb.q_bytes + tb.o_bytes, q), (tb.kv_bytes, kv)] {
                if readers.is_empty() {
                    continue;
                }
                let pins: Vec<u32> = std::iter::once(i as u32).chain(readers.iter().copied()).collect();
                prop_assert!(e < hg.num_edges(), "edge {} missing", e);
                prop_assert_eq!(hg.pins(e as u32), &pins[..], "edge {}", e);
                prop_assert_eq!(hg.edge_weight(e as u32), weight, "edge {}", e);
                e += 1;
            }
        }
        prop_assert_eq!(e, hg.num_edges());
    }
}
