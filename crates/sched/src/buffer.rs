//! Block-buffer accounting with slot reuse (paper Sec. 5).
//!
//! The paper's executor keeps one contiguous GPU buffer per block type and
//! addresses blocks by (type, index), reusing indices whose blocks are no
//! longer needed. This module replays a device's instruction stream and
//! computes the peak number of live slots per type — an index freed by an
//! earlier division is reused by a later fetch, so the peak is the largest
//! number of blocks of the type resident at once — plus the resulting peak
//! bytes.

use dcp_blocks::BatchLayout;
use serde::{Deserialize, Serialize};

use crate::placement::Placement;
use crate::plan::{CommOp, Instr, Payload, PayloadKind};
use crate::stream::{arrivals, reads};
use crate::table::PayloadTable;

/// Peak buffer usage of one device stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BufferStats {
    /// Peak live remote-Q slots.
    pub q_slots: u32,
    /// Peak live remote-KV slots.
    pub kv_slots: u32,
    /// Peak live partial/gradient slots (PartialO/DO/PartialDq/PartialDkv).
    pub partial_slots: u32,
    /// Bytes of locally owned blocks resident for the whole phase.
    pub owned_bytes: u64,
    /// Peak bytes of fetched/partial slots (slot size x peak slots).
    pub fetched_bytes: u64,
}

impl BufferStats {
    /// Total peak bytes of the stream's buffers.
    pub fn peak_bytes(&self) -> u64 {
        self.owned_bytes + self.fetched_bytes
    }
}

/// Bytes of the token blocks each device owns.
pub(crate) fn owned_bytes(layout: &BatchLayout, placement: &Placement) -> Vec<u64> {
    let mut owned = vec![0u64; placement.num_devices as usize];
    for (tb, &d) in layout.token_blocks.iter().zip(&placement.token_to_dev) {
        owned[d as usize] += tb.total_bytes();
    }
    owned
}

/// The accounting of one layout's streams, device after device on one set
/// of tables.
///
/// A slot pool with a free list creates a new slot only while every slot it
/// has is live, so a kind's peak slot count is the largest number of its
/// payloads resident at once; which index a payload gets never matters.
pub(crate) struct Accounting<'a> {
    layout: &'a BatchLayout,
    /// Slot size by [`PayloadKind`]: the largest block of the kind (uniform
    /// slots in one contiguous buffer per kind, as in the paper).
    slot_bytes: [u64; 6],
    /// Last reader of each arriving payload, then whether it is resident.
    table: PayloadTable,
    /// `(instruction, is a release, payload)`.
    events: Vec<(u32, bool, Payload)>,
}

impl<'a> Accounting<'a> {
    pub(crate) fn new(layout: &'a BatchLayout) -> Self {
        let max = |bytes: fn(&dcp_blocks::TokenBlock) -> u64| {
            layout.token_blocks.iter().map(bytes).max().unwrap_or(0)
        };
        let (q, kv, o) = (max(|t| t.q_bytes), max(|t| t.kv_bytes), max(|t| t.o_bytes));
        Accounting {
            layout,
            // Q, Kv, PartialO, DO, PartialDq, PartialDkv.
            slot_bytes: [q, kv, o, o, q, kv],
            table: PayloadTable::new(layout.token_blocks.len()),
            events: Vec::new(),
        }
    }

    /// Replays `instrs` for device `device`.
    ///
    /// Fetched blocks become live at their `CommWait` and are released
    /// after the last instruction that reads them (attention for Q/KV/dO
    /// fetches, reduction for partials; at once when nothing does). A
    /// payload that arrives again while resident takes no second slot.
    pub(crate) fn stats(
        &mut self,
        comms: &[CommOp],
        device: u32,
        instrs: &[Instr],
        owned_bytes: u64,
    ) -> BufferStats {
        let table = &mut self.table;
        table.begin(arrivals(comms, device, instrs).map(|(_, tr)| tr.payload));
        for (idx, ins) in instrs.iter().enumerate() {
            reads(self.layout, ins, |p| table.put(p, Some(idx as u32)));
        }
        self.events.clear();
        for (idx, tr) in arrivals(comms, device, instrs) {
            let release = table.get(tr.payload).unwrap_or(idx as u32);
            self.events.push((idx as u32, false, tr.payload));
            self.events.push((release, true, tr.payload));
        }
        // At one instruction, arrivals come before releases; the order
        // inside either group cannot change a count.
        self.events
            .sort_unstable_by_key(|&(idx, release, _)| (idx, release));
        table.clear();
        let (mut live, mut peak) = ([0u32; 6], [0u32; 6]);
        for &(_, release, p) in &self.events {
            let k = p.kind() as usize;
            match (release, table.get(p).is_some()) {
                (false, false) => {
                    table.put(p, Some(0));
                    live[k] += 1;
                    peak[k] = peak[k].max(live[k]);
                }
                (true, true) => {
                    table.put(p, None);
                    live[k] -= 1;
                }
                // Already resident, or released before it (re-)arrived.
                _ => {}
            }
        }
        let q_slots = peak[PayloadKind::Q as usize];
        let kv_slots = peak[PayloadKind::Kv as usize];
        BufferStats {
            q_slots,
            kv_slots,
            partial_slots: peak.iter().sum::<u32>() - q_slots - kv_slots,
            owned_bytes,
            fetched_bytes: peak
                .iter()
                .zip(self.slot_bytes)
                .map(|(&slots, bytes)| slots as u64 * bytes)
                .sum(),
        }
    }
}

/// Replays `instrs` for device `device`, computing [`BufferStats`] (see
/// `Accounting::stats`). Owned blocks are counted as resident for the whole
/// phase.
pub fn compute_stats(
    layout: &BatchLayout,
    comms: &[CommOp],
    device: u32,
    instrs: &[Instr],
    owned_token_blocks: &[u32],
) -> BufferStats {
    let owned = owned_token_blocks
        .iter()
        .map(|&t| layout.token_blocks[t as usize].total_bytes())
        .sum();
    Accounting::new(layout).stats(comms, device, instrs, owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CommId, Transfer};
    use dcp_blocks::{BlockConfig, CompBlockId, TokenBlockId};
    use dcp_mask::MaskSpec;
    use dcp_types::AttnSpec;

    fn layout() -> BatchLayout {
        BatchLayout::build(
            AttnSpec::paper_micro(),
            BlockConfig {
                block_size: 512,
                head_blocks: 1,
            },
            &[(2048, MaskSpec::Causal)],
        )
        .unwrap()
    }

    #[test]
    fn sequential_fetch_use_release_keeps_peak_low() {
        let l = layout();
        // Device 1 fetches KV(0), uses it, then fetches KV(2), uses it.
        // Comp block ids: find comp with kv_block 0 and q_block 1 etc. For
        // simplicity use comp blocks 1 (q1,kv0) and 5 (q2... ) — look up.
        let find = |q: u32, kv: u32| {
            CompBlockId(
                l.comp_blocks
                    .iter()
                    .position(|c| c.q_block == TokenBlockId(q) && c.kv_block == TokenBlockId(kv))
                    .unwrap() as u32,
            )
        };
        let c10 = find(1, 0);
        let c21 = find(2, 1);
        let comms = vec![
            CommOp {
                transfers: vec![Transfer {
                    from: 0,
                    to: 1,
                    payload: Payload::Kv(TokenBlockId(0)),
                    bytes: 10,
                }],
            },
            CommOp {
                transfers: vec![Transfer {
                    from: 0,
                    to: 1,
                    payload: Payload::Kv(TokenBlockId(1)),
                    bytes: 10,
                }],
            },
        ];
        let instrs = vec![
            Instr::CommWait(CommId(0)),
            Instr::Attn {
                items: vec![c10],
                flops: 1,
            },
            Instr::CommWait(CommId(1)),
            Instr::Attn {
                items: vec![c21],
                flops: 1,
            },
        ];
        let stats = compute_stats(&l, &comms, 1, &instrs, &[4 % l.token_blocks.len() as u32]);
        // KV(0) is released after instruction 1, before KV(1) arrives:
        // peak 1 slot... but note arrival at idx 2 comes after release at
        // idx 1, so the pool holds at most 1 live slot — yet peak counts
        // allocations high-water: expect 1.
        assert_eq!(stats.kv_slots, 1);
        assert_eq!(stats.q_slots, 0);
    }

    #[test]
    fn overlapping_fetches_need_two_slots() {
        let l = layout();
        let comms = vec![CommOp {
            transfers: vec![
                Transfer {
                    from: 0,
                    to: 1,
                    payload: Payload::Kv(TokenBlockId(0)),
                    bytes: 10,
                },
                Transfer {
                    from: 0,
                    to: 1,
                    payload: Payload::Kv(TokenBlockId(1)),
                    bytes: 10,
                },
            ],
        }];
        let c10 = CompBlockId(
            l.comp_blocks
                .iter()
                .position(|c| c.q_block == TokenBlockId(1) && c.kv_block == TokenBlockId(0))
                .unwrap() as u32,
        );
        let instrs = vec![
            Instr::CommWait(CommId(0)),
            Instr::Attn {
                items: vec![c10],
                flops: 1,
            },
        ];
        let stats = compute_stats(&l, &comms, 1, &instrs, &[]);
        assert_eq!(stats.kv_slots, 2);
        assert_eq!(stats.owned_bytes, 0);
        assert!(stats.fetched_bytes > 0);
    }

    #[test]
    fn resident_payloads_take_one_slot_and_unread_ones_leave_at_once() {
        let l = layout();
        let kv = |tb| CommOp {
            transfers: vec![Transfer {
                from: 0,
                to: 1,
                payload: Payload::Kv(TokenBlockId(tb)),
                bytes: 10,
            }],
        };
        let comms = vec![kv(0), kv(2), kv(3)];
        let c10 = l
            .comp_blocks
            .iter()
            .position(|c| c.q_block == TokenBlockId(1) && c.kv_block == TokenBlockId(0))
            .unwrap() as u32;
        // KV(0) arrives twice before its reader: one slot. KV(2) and KV(3)
        // are read by nothing: each is gone before the next wait.
        let instrs = vec![
            Instr::CommWait(CommId(0)),
            Instr::CommWait(CommId(0)),
            Instr::CommWait(CommId(1)),
            Instr::CommWait(CommId(2)),
            Instr::Attn {
                items: vec![CompBlockId(c10)],
                flops: 1,
            },
        ];
        let stats = compute_stats(&l, &comms, 1, &instrs, &[]);
        assert_eq!(stats.kv_slots, 2);
    }

    #[test]
    fn owned_bytes_counted() {
        let l = layout();
        let stats = compute_stats(&l, &[], 0, &[], &[0, 1]);
        let expect = l.token_blocks[0].total_bytes() + l.token_blocks[1].total_bytes();
        assert_eq!(stats.owned_bytes, expect);
        assert_eq!(stats.peak_bytes(), expect);
    }
}
