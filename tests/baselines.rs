//! The baselines through their one entry point, `Baseline::build`: the
//! plans of the four named systems, pinned to the instruction, and a typed
//! error for every configuration the ring builder cannot serve.

use dcp::baselines::Baseline;
use dcp::mask::MaskSpec;
use dcp::types::{AttnSpec, DcpError};

/// One fixed two-sequence causal batch on 16 devices (ring size 8 at two
/// head groups, so LoongTrain's inner rings 1, 2 and 4 all divide it and
/// each routes the ring differently).
fn batch() -> Vec<(u32, MaskSpec)> {
    vec![(6144, MaskSpec::Causal), (2048, MaskSpec::Causal)]
}

const DEVICES: u32 = 16;
const BLOCK: u32 = 256;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a of the serialized layout, placement and plan (both phases) of
/// each system on [`batch`], computed before the ring builder lost its
/// second public entry point; re-pinned once when the layout lost its
/// consumer lists, to the hash of the same text without those two fields.
#[test]
fn baseline_plans_are_pinned() {
    let lt = |inner_ring| Baseline::LoongTrain {
        head_groups: 2,
        inner_ring,
    };
    let cases = [
        (Baseline::RfaRing, 0xfcef_3ad7_9dec_dafdu64),
        (Baseline::RfaZigzag, 0xf0de_c162_23d8_619b),
        (
            Baseline::TransformerEngine { head_groups: 2 },
            0xc7c5_7cae_7819_3029,
        ),
        (lt(1), 0x3b81_cbd0_bcbe_8be6),
        (lt(2), 0x448c_6099_ef29_5726),
        (lt(4), 0xf4d6_2d78_bfa5_892e),
    ];
    let mut got = Vec::new();
    for (b, want) in cases {
        let out = b
            .build(AttnSpec::paper_micro(), DEVICES, BLOCK, &batch())
            .unwrap();
        assert_eq!(out.name, b.name());
        let text = [
            serde_json::to_string(&out.layout).unwrap(),
            serde_json::to_string(&out.placement).unwrap(),
            serde_json::to_string(&out.plan).unwrap(),
        ]
        .join("\n");
        got.push((b.name(), fnv1a(text.as_bytes()), want));
    }
    for (name, hash, want) in &got {
        assert_eq!(hash, want, "{name}: plan moved (all: {got:x?})");
    }
}

#[test]
fn degenerate_configurations_are_typed_errors() {
    let attn = AttnSpec::paper_micro(); // 8 query heads, 2 KV heads
    let lt = |head_groups, inner_ring| Baseline::LoongTrain {
        head_groups,
        inner_ring,
    };
    let te = |head_groups| Baseline::TransformerEngine { head_groups };
    let cases = [
        ("zero devices, RFA", Baseline::RfaRing, 0),
        ("zero devices, TE", te(2), 0),
        ("zero devices, LoongTrain", lt(2, 1), 0),
        ("head_groups 0, TE", te(0), DEVICES),
        ("head_groups 0, LoongTrain", lt(0, 1), DEVICES),
        ("head_groups 3 on 16 devices, TE", te(3), DEVICES),
        ("head_groups 3 on 16 devices, LoongTrain", lt(3, 1), DEVICES),
        ("head_groups 4 over 2 KV heads, TE", te(4), DEVICES),
        (
            "head_groups 4 over 2 KV heads, LoongTrain",
            lt(4, 1),
            DEVICES,
        ),
        ("inner_ring 0", lt(2, 0), DEVICES),
        ("inner_ring 3 on a ring of 8", lt(2, 3), DEVICES),
        ("inner_ring 16 on a ring of 8", lt(2, 16), DEVICES),
    ];
    for (what, b, devices) in cases {
        match b.build(attn, devices, BLOCK, &batch()).map(|o| o.name) {
            Err(DcpError::InvalidArgument(_)) => {}
            other => panic!("{what}: expected InvalidArgument, got {other:?}"),
        }
    }
}
