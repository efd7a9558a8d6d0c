//! The generic ring-attention plan builder behind all three baselines.

use dcp_blocks::{BatchLayout, BlockConfig, CompBlockId, TokenBlockId};
use dcp_mask::MaskSpec;
use dcp_sched::{
    CommId, CommOp, DeviceStream, ExecutionPlan, Instr, Payload, PhasePlan, Placement, Transfer,
};
use dcp_types::{AttnSpec, DcpError, DcpResult};

/// Configuration of a ring baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Total devices `n = head_groups * ring_size`.
    pub devices: u32,
    /// Head-parallel degree (must divide both head counts and `devices`).
    pub head_groups: u32,
    /// ZigZag placement (2 chunks per ring position) vs contiguous Ring.
    pub zigzag: bool,
    /// Double-ring inner size `w` (1 = plain ring). Every `w`-th hop is an
    /// outer (typically inter-node) hop; the rest stay within the inner
    /// ring.
    pub inner_ring: u32,
    /// Pad every sequence to the longest in the batch (LoongTrain).
    pub pad_to_max: bool,
    /// Sequence-dimension block size used for the underlying layout.
    pub block_size: u32,
    /// Emit the head/sequence-layout reorder copy at phase start (TE/LT).
    pub reorder_copy: bool,
}

/// A baseline's layout, placement and plan.
#[derive(Debug, Clone)]
pub struct BaselineOutput {
    /// Display name (e.g. `rfa-zigzag`).
    pub name: String,
    /// The block layout the plan refers to. For LoongTrain this includes
    /// padding (longer sequences than the real workload).
    pub layout: BatchLayout,
    /// Token/computation placement.
    pub placement: Placement,
    /// Forward + backward instruction streams.
    pub plan: ExecutionPlan,
}

/// Builds a ring-attention baseline plan.
///
/// # Errors
///
/// Returns [`DcpError::InvalidArgument`] if `head_groups` does not divide
/// the device count or the attention head counts.
pub(crate) fn build_ring_baseline(
    name: &str,
    attn: AttnSpec,
    cfg: &RingConfig,
    seqs: &[(u32, MaskSpec)],
) -> DcpResult<BaselineOutput> {
    if cfg.devices == 0 || cfg.head_groups == 0 || !cfg.devices.is_multiple_of(cfg.head_groups) {
        return Err(DcpError::invalid_argument(format!(
            "head_groups {} must divide devices {}",
            cfg.head_groups, cfg.devices
        )));
    }
    if !attn.q_heads.is_multiple_of(cfg.head_groups)
        || !attn.kv_heads.is_multiple_of(cfg.head_groups)
    {
        return Err(DcpError::invalid_argument(
            "head_groups must divide the attention head counts",
        ));
    }
    let rp = cfg.devices / cfg.head_groups;
    if cfg.inner_ring == 0 || (cfg.inner_ring > 1 && !rp.is_multiple_of(cfg.inner_ring)) {
        return Err(DcpError::invalid_argument(
            "inner_ring must divide the ring size",
        ));
    }

    let layout = build_ring_layout(attn, cfg, seqs)?;
    build_ring_baseline_with_layout(name, cfg, layout)
}

/// Builds the (possibly padded) block layout a ring baseline runs on.
/// Useful to share one layout across LoongTrain's inner-ring sweep.
///
/// # Errors
///
/// Propagates layout-construction failures.
pub fn build_ring_layout(
    attn: AttnSpec,
    cfg: &RingConfig,
    seqs: &[(u32, MaskSpec)],
) -> DcpResult<BatchLayout> {
    // Padded workload for LoongTrain.
    let max_len = seqs.iter().map(|(l, _)| *l).max().unwrap_or(0);
    let effective: Vec<(u32, MaskSpec)> = if cfg.pad_to_max {
        seqs.iter().map(|(_, m)| (max_len, m.clone())).collect()
    } else {
        seqs.to_vec()
    };
    BatchLayout::build(
        attn,
        BlockConfig {
            block_size: cfg.block_size,
            head_blocks: cfg.head_groups,
        },
        &effective,
    )
}

/// Like `build_ring_baseline` but reusing a prebuilt layout (which must
/// come from [`build_ring_layout`] with an equivalent config).
///
/// # Errors
///
/// Never fails today; kept fallible for symmetry and future validation.
pub fn build_ring_baseline_with_layout(
    name: &str,
    cfg: &RingConfig,
    layout: BatchLayout,
) -> DcpResult<BaselineOutput> {
    let rp = cfg.devices / cfg.head_groups;
    // Ring position of every token block.
    let nchunks = if cfg.zigzag { 2 * rp } else { rp };
    let pos_of = |tb: &dcp_blocks::TokenBlock| -> u32 {
        let len = layout.seq_lens[tb.seq as usize];
        // Chunk length rounded up to a block multiple so blocks never
        // straddle chunks.
        let chunk_len = len.div_ceil(nchunks).div_ceil(cfg.block_size).max(1) * cfg.block_size;
        let c = (tb.start / chunk_len).min(nchunks - 1);
        if cfg.zigzag {
            if c < rp {
                c
            } else {
                2 * rp - 1 - c
            }
        } else {
            c
        }
    };
    // Rank layout: head groups are adjacent ranks, ring positions stride by
    // `head_groups` (so head-parallel partners share a node and the ring
    // spans the cluster, as in LoongTrain/TE).
    let rank_of = |pos: u32, h: u32| -> u32 { pos * cfg.head_groups + h };

    let token_to_dev: Vec<u32> = layout
        .token_blocks
        .iter()
        .map(|tb| rank_of(pos_of(tb), tb.head_block))
        .collect();
    let comp_to_dev: Vec<u32> = layout
        .comp_blocks
        .iter()
        .map(|c| token_to_dev[c.q_block.0 as usize])
        .collect();
    let placement = Placement {
        num_devices: cfg.devices,
        token_to_dev,
        comp_to_dev,
    };

    // Per (head group, ring pos): owned token blocks; per device: comp
    // blocks grouped by the ring position owning their KV.
    let n = cfg.devices as usize;
    let mut owned: Vec<Vec<TokenBlockId>> = vec![Vec::new(); n];
    for (i, _) in layout.token_blocks.iter().enumerate() {
        owned[placement.token_to_dev[i] as usize].push(TokenBlockId(i as u32));
    }
    // comp_by_step[dev][kv_pos] -> comp block ids.
    let mut comp_by_kvpos: Vec<Vec<Vec<CompBlockId>>> = vec![vec![Vec::new(); rp as usize]; n];
    for (i, cb) in layout.comp_blocks.iter().enumerate() {
        let dev = placement.comp_to_dev[i] as usize;
        let kv_pos = pos_of(&layout.token_blocks[cb.kv_block.0 as usize]);
        comp_by_kvpos[dev][kv_pos as usize].push(CompBlockId(i as u32));
    }

    let fwd = build_phase(&layout, cfg, rp, &owned, &comp_by_kvpos, false);
    let bwd = build_phase(&layout, cfg, rp, &owned, &comp_by_kvpos, true);

    Ok(BaselineOutput {
        name: name.to_string(),
        layout,
        placement,
        plan: ExecutionPlan {
            num_devices: cfg.devices,
            fwd,
            bwd,
        },
    })
}

/// A static zigzag/ring placement of an ordinary DCP [`BatchLayout`], for
/// use as the planner's last-resort fallback tier: each sequence is split
/// into `devices` (ring) or `2 * devices` (zigzag) contiguous chunks and
/// chunks map to devices exactly like RingFlashAttention input placement;
/// computation blocks run where their Q lives. Unlike
/// `build_ring_baseline`, no relay plan is emitted — the DCP scheduler
/// turns this placement into owner-based transfers — so it composes with
/// `dcp_sched::build_plan` and is always feasible for any non-empty layout.
///
/// # Errors
///
/// Returns [`DcpError::InvalidArgument`] if `devices == 0`.
pub fn static_placement(layout: &BatchLayout, devices: u32, zigzag: bool) -> DcpResult<Placement> {
    if devices == 0 {
        return Err(DcpError::invalid_argument(
            "static placement needs at least one device",
        ));
    }
    let block_size = layout.config.block_size.max(1);
    let nchunks = if zigzag { 2 * devices } else { devices };
    let token_to_dev: Vec<u32> = layout
        .token_blocks
        .iter()
        .map(|tb| {
            let len = layout.seq_lens[tb.seq as usize];
            let chunk_len = len.div_ceil(nchunks).div_ceil(block_size).max(1) * block_size;
            let c = (tb.start / chunk_len).min(nchunks - 1);
            if zigzag && c >= devices {
                2 * devices - 1 - c
            } else {
                c
            }
        })
        .collect();
    let comp_to_dev: Vec<u32> = layout
        .comp_blocks
        .iter()
        .map(|c| token_to_dev[c.q_block.0 as usize])
        .collect();
    Ok(Placement {
        num_devices: devices,
        token_to_dev,
        comp_to_dev,
    })
}

/// The physical sender's ring position for the hop delivering step `s`'s
/// chunk to position `r`: the inner neighbor normally, the outer neighbor
/// (`w` positions back) on every `w`-th step.
fn sender_pos(r: u32, s: u32, rp: u32, w: u32) -> u32 {
    if w <= 1 || !s.is_multiple_of(w) {
        (r + rp - 1) % rp
    } else {
        (r + rp - w) % rp
    }
}

#[allow(clippy::too_many_arguments)]
fn build_phase(
    layout: &BatchLayout,
    cfg: &RingConfig,
    rp: u32,
    owned: &[Vec<TokenBlockId>],
    comp_by_kvpos: &[Vec<Vec<CompBlockId>>],
    backward: bool,
) -> PhasePlan {
    let n = cfg.devices as usize;
    let hp = cfg.head_groups;
    let mut comms: Vec<CommOp> = Vec::new();
    let mut devices: Vec<DeviceStream> = Vec::new();

    // Ring backward sends k, v, dk, dv each step: twice the bytes.
    let comm_scale: u64 = if backward { 2 } else { 1 };
    let flops_scale = |f: u64| if backward { f * 5 / 2 } else { f };

    for dev in 0..n as u32 {
        let h = dev % hp;
        let r = dev / hp;
        let mut instrs: Vec<Instr> = Vec::new();

        if cfg.reorder_copy {
            let bytes: u64 = owned[dev as usize]
                .iter()
                .map(|&t| layout.token_blocks[t.0 as usize].total_bytes())
                .sum();
            if bytes > 0 {
                instrs.push(Instr::Copy { bytes });
            }
        }

        // Per step: the comm op receiving the *next* step's chunk, plus the
        // attention over the current chunk.
        let mut step_ops: Vec<Option<CommId>> = vec![None; rp as usize];
        for s in 1..rp {
            let src_pos = sender_pos(r, s, rp, cfg.inner_ring);
            let from = src_pos * hp + h;
            // The chunk arriving at step s is the one owned by pos (r - s).
            let chunk_pos = (r + rp - s) % rp;
            let chunk_owner = chunk_pos * hp + h;
            let transfers: Vec<Transfer> = owned[chunk_owner as usize]
                .iter()
                .map(|&tb| Transfer {
                    from,
                    to: dev,
                    payload: Payload::Kv(tb),
                    bytes: layout.token_blocks[tb.0 as usize].kv_bytes * comm_scale,
                })
                .filter(|t| t.bytes > 0)
                .collect();
            if !transfers.is_empty() {
                step_ops[s as usize] = Some(CommId(comms.len() as u32));
                comms.push(CommOp { transfers });
            }
        }

        for s in 0..rp {
            if let Some(cid) = step_ops[s as usize] {
                instrs.push(Instr::CommWait(cid));
            }
            if s + 1 < rp {
                if let Some(cid) = step_ops[s as usize + 1] {
                    instrs.push(Instr::CommLaunch(cid));
                }
            }
            let chunk_pos = (r + rp - s) % rp;
            let items = &comp_by_kvpos[dev as usize][chunk_pos as usize];
            if !items.is_empty() {
                let flops: u64 = items
                    .iter()
                    .map(|&c| flops_scale(layout.comp_blocks[c.0 as usize].flops))
                    .sum();
                if backward {
                    instrs.push(Instr::AttnBwd {
                        items: items.clone(),
                        flops,
                    });
                } else {
                    instrs.push(Instr::Attn {
                        items: items.clone(),
                        flops,
                    });
                }
            }
        }

        // Backward: fold the circulated dKV into the local gradients.
        if backward {
            let bytes: u64 = owned[dev as usize]
                .iter()
                .map(|&t| layout.token_blocks[t.0 as usize].kv_bytes * 2)
                .sum();
            if bytes > 0 {
                instrs.push(Instr::Reduce {
                    items: vec![],
                    bytes,
                });
            }
        }

        // Fix up launch ordering: waits reference ops launched by this
        // device one step earlier; step 1's op must be launched during step
        // 0. The loop above already interleaves launches, but step 1's
        // launch happens at s = 0 — verify the first wait has a prior
        // launch, else insert one at the stream head.
        let mut launched = std::collections::HashSet::new();
        let mut fixed: Vec<Instr> = Vec::new();
        for ins in instrs {
            if let Instr::CommWait(cid) = ins {
                if !launched.contains(&cid) {
                    launched.insert(cid);
                    fixed.push(Instr::CommLaunch(cid));
                }
            }
            if let Instr::CommLaunch(cid) = ins {
                launched.insert(cid);
            }
            fixed.push(ins);
        }

        let owned_u32: Vec<u32> = owned[dev as usize].iter().map(|t| t.0).collect();
        let buffer = dcp_sched::buffer::compute_stats(layout, &comms, dev, &fixed, &owned_u32);
        devices.push(DeviceStream {
            device: dev,
            instrs: fixed,
            buffer,
        });
    }

    PhasePlan { comms, devices }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Baseline;
    use dcp_sched::PayloadKind;

    fn micro() -> AttnSpec {
        AttnSpec::paper_micro()
    }

    #[test]
    fn ring_comm_volume_matches_closed_form() {
        // One sequence of 8192 tokens, 4 devices, plain ring: every device
        // receives (rp - 1) chunks of kv bytes.
        let out = Baseline::RfaRing
            .build(micro(), 4, 512, &[(8192, MaskSpec::Causal)])
            .unwrap();
        let kv_total: u64 = out.layout.token_blocks.iter().map(|t| t.kv_bytes).sum();
        // Each of the 4 chunks is relayed to 3 other devices.
        let expect = kv_total * 3;
        assert_eq!(out.plan.fwd.total_comm_bytes(), expect);
        // Backward doubles it (kv + dkv).
        assert_eq!(out.plan.bwd.total_comm_bytes(), expect * 2);
    }

    #[test]
    fn ring_comm_is_mask_independent() {
        let causal = Baseline::RfaZigzag
            .build(micro(), 4, 512, &[(16384, MaskSpec::Causal)])
            .unwrap();
        let lambda = Baseline::RfaZigzag
            .build(micro(), 4, 512, &[(16384, MaskSpec::paper_lambda())])
            .unwrap();
        assert_eq!(
            causal.plan.fwd.total_comm_bytes(),
            lambda.plan.fwd.total_comm_bytes(),
            "ring relays regardless of the mask"
        );
        // But computation does drop.
        let fc: Vec<u64> = causal.plan.fwd.comp_loads();
        let fl: Vec<u64> = lambda.plan.fwd.comp_loads();
        assert!(fl.iter().sum::<u64>() < fc.iter().sum::<u64>());
    }

    #[test]
    fn zigzag_balances_causal_compute() {
        let ring = Baseline::RfaRing
            .build(micro(), 4, 512, &[(32768, MaskSpec::Causal)])
            .unwrap();
        let zz = Baseline::RfaZigzag
            .build(micro(), 4, 512, &[(32768, MaskSpec::Causal)])
            .unwrap();
        let imbalance = |loads: &[u64]| {
            let max = *loads.iter().max().unwrap() as f64;
            let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
            max / mean
        };
        let ring_im = imbalance(&ring.plan.fwd.comp_loads());
        let zz_im = imbalance(&zz.plan.fwd.comp_loads());
        assert!(
            zz_im < ring_im,
            "zigzag {zz_im:.3} should be more balanced than ring {ring_im:.3}"
        );
        assert!(zz_im < 1.1, "zigzag nearly balanced: {zz_im:.3}");
    }

    #[test]
    fn loongtrain_pads_and_computes_padding() {
        let seqs = [(8192, MaskSpec::Causal), (1024, MaskSpec::Causal)];
        let lt = Baseline::LoongTrain {
            head_groups: 2,
            inner_ring: 2,
        }
        .build(micro(), 8, 512, &seqs)
        .unwrap();
        let te = Baseline::TransformerEngine { head_groups: 2 }
            .build(micro(), 8, 512, &seqs)
            .unwrap();
        // LT pads the short sequence to 8192: more tokens, more flops.
        assert_eq!(lt.layout.total_tokens(), 2 * 8192);
        assert_eq!(te.layout.total_tokens(), 8192 + 1024);
        assert!(lt.layout.total_flops() > te.layout.total_flops());
    }

    #[test]
    fn loongtrain_rejects_sparse_masks() {
        let r = Baseline::LoongTrain {
            head_groups: 2,
            inner_ring: 1,
        }
        .build(micro(), 8, 512, &[(4096, MaskSpec::paper_lambda())]);
        assert!(r.is_err());
    }

    #[test]
    fn head_parallel_reduces_kv_relay_volume() {
        // TE (hp=2, rp=2) vs RFA-zigzag (hp=1, rp=4) on the same 4 devices:
        // head parallelism halves the ring length and each ring carries
        // half the KV heads.
        let seqs = [(16384, MaskSpec::Causal)];
        let rfa = Baseline::RfaZigzag.build(micro(), 4, 512, &seqs).unwrap();
        let te = Baseline::TransformerEngine { head_groups: 2 }
            .build(micro(), 4, 512, &seqs)
            .unwrap();
        assert!(
            te.plan.fwd.total_comm_bytes() < rfa.plan.fwd.total_comm_bytes(),
            "te {} < rfa {}",
            te.plan.fwd.total_comm_bytes(),
            rfa.plan.fwd.total_comm_bytes()
        );
    }

    #[test]
    fn double_ring_changes_senders_not_volume() {
        let seqs = [(32768, MaskSpec::Causal)];
        let w1 = Baseline::LoongTrain {
            head_groups: 2,
            inner_ring: 1,
        }
        .build(micro(), 16, 512, &seqs)
        .unwrap();
        let w4 = Baseline::LoongTrain {
            head_groups: 2,
            inner_ring: 4,
        }
        .build(micro(), 16, 512, &seqs)
        .unwrap();
        assert_eq!(
            w1.plan.fwd.total_comm_bytes(),
            w4.plan.fwd.total_comm_bytes()
        );
        // Sender sets differ.
        let senders = |o: &BaselineOutput| -> Vec<(u32, u32)> {
            o.plan
                .fwd
                .comms
                .iter()
                .flat_map(|c| c.transfers.iter().map(|t| (t.from, t.to)))
                .collect()
        };
        assert_ne!(senders(&w1), senders(&w4));
    }

    #[test]
    fn every_comp_block_scheduled_exactly_once() {
        for b in [
            Baseline::RfaRing,
            Baseline::RfaZigzag,
            Baseline::TransformerEngine { head_groups: 2 },
        ] {
            let out = b
                .build(
                    micro(),
                    8,
                    512,
                    &[(4096, MaskSpec::Causal), (9000, MaskSpec::Causal)],
                )
                .unwrap();
            let mut seen = vec![0u32; out.layout.comp_blocks.len()];
            for stream in &out.plan.fwd.devices {
                for ins in &stream.instrs {
                    if let Instr::Attn { items, .. } = ins {
                        for c in items {
                            seen[c.0 as usize] += 1;
                            assert_eq!(
                                out.placement.comp_dev(*c),
                                stream.device,
                                "comp on wrong device"
                            );
                        }
                    }
                }
            }
            assert!(
                seen.iter().all(|&s| s == 1),
                "{}: every comp block exactly once",
                b.name()
            );
        }
    }

    #[test]
    fn waits_are_launched_or_first_fixed() {
        let out = Baseline::RfaZigzag
            .build(micro(), 4, 512, &[(8192, MaskSpec::Causal)])
            .unwrap();
        for phase in [&out.plan.fwd, &out.plan.bwd] {
            for stream in &phase.devices {
                let mut launched = std::collections::HashSet::new();
                for ins in &stream.instrs {
                    match ins {
                        Instr::CommLaunch(c) => {
                            launched.insert(*c);
                        }
                        Instr::CommWait(c) => {
                            assert!(launched.contains(c), "wait before launch");
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn payloads_are_kv_only() {
        let out = Baseline::RfaRing
            .build(micro(), 4, 512, &[(4096, MaskSpec::Causal)])
            .unwrap();
        for op in out.plan.fwd.comms.iter().chain(out.plan.bwd.comms.iter()) {
            for t in &op.transfers {
                assert_eq!(t.payload.kind(), PayloadKind::Kv);
            }
        }
    }

    #[test]
    fn static_placement_is_valid_and_covers_devices() {
        let layout = BatchLayout::build(
            micro(),
            BlockConfig {
                block_size: 512,
                head_blocks: 1,
            },
            &[(16384, MaskSpec::Causal), (4096, MaskSpec::Causal)],
        )
        .unwrap();
        for zigzag in [false, true] {
            let p = static_placement(&layout, 4, zigzag).unwrap();
            p.validate(&layout).unwrap();
            // Every computation block runs where its Q lives (no Q motion).
            for (i, cb) in layout.comp_blocks.iter().enumerate() {
                assert_eq!(
                    p.comp_to_dev[i], p.token_to_dev[cb.q_block.0 as usize],
                    "comp block {i} strays from its Q owner"
                );
            }
            // The long sequence touches every device.
            let used: std::collections::HashSet<u32> = p.token_to_dev.iter().copied().collect();
            assert_eq!(used.len(), 4, "zigzag={zigzag}: {used:?}");
        }
        assert!(static_placement(&layout, 0, true).is_err());
        // It schedules: the DCP scheduler accepts the placement directly.
        let p = static_placement(&layout, 4, true).unwrap();
        let plan =
            dcp_sched::build_plan(&layout, &p, &dcp_sched::ScheduleConfig::default()).unwrap();
        assert_eq!(plan.num_devices, 4);
    }

    #[test]
    fn short_sequences_still_fully_communicated() {
        // The motivating observation (Sec. 2.3): a sequence much shorter
        // than the ring still pays ring communication.
        let out = Baseline::RfaZigzag
            .build(micro(), 8, 128, &[(1024, MaskSpec::Causal)])
            .unwrap();
        assert!(out.plan.fwd.total_comm_bytes() > 0);
        // Its KV travels to 7 other devices even though one device could
        // have held it whole.
        let kv_total: u64 = out.layout.token_blocks.iter().map(|t| t.kv_bytes).sum();
        assert_eq!(out.plan.fwd.total_comm_bytes(), kv_total * 7);
    }
}
