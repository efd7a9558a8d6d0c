//! Static context-parallel baselines, expressed in the DCP plan IR.
//!
//! The paper compares DCP against three systems (Sec. 7.1):
//!
//! - **RingFlashAttention (RFA)** — sequence-dimension-only parallelism with
//!   `Ring` or `ZigZag` input placement. KV *relays* around the ring: every
//!   device forwards every chunk at every step, so communication volume is
//!   independent of masks and of sequence length skew — exactly the
//!   redundancy DCP removes.
//! - **LoongTrain (LT)** — head × sequence parallelism with a *double ring*
//!   (inner rings stay intra-node to improve NIC utilization) and **no
//!   variable-length support**: every sequence is padded to the longest in
//!   the batch, and the padding is computed.
//! - **TransformerEngine (TE)** — head × zigzag-sequence parallelism,
//!   extended (as the paper does) with variable-length support and masked
//!   local attention steps. Masked-out steps skip computation but the
//!   KV relay still runs in full.
//!
//! All builders emit ordinary [`dcp_sched::ExecutionPlan`]s: ring steps
//! become divisions whose `CommLaunch` overlaps the previous step's
//! compute, so the simulator and (for the forward pass) the numerical
//! executor run baselines and DCP through identical machinery.
//!
//! Modelling notes, for honesty about fidelity:
//!
//! - Ring relays are carried by `Kv` payload transfers whose `from` is the
//!   relaying neighbor (not the block's owner); plan-level ownership
//!   validation does not apply to baseline plans.
//! - Ring backward carries KV and the circulating dKV together, modelled as
//!   `Kv` transfers of twice the bytes (as ring-flash-attention sends
//!   k/v/dk/dv each step), plus a final local reduction.
//! - The head-parallel tensor reorder of TE/LT (all-to-all between the head
//!   and sequence layouts) is modelled as an on-device `Copy` of the local
//!   blocks at the start of each phase.

pub mod ring;

pub use ring::{
    build_ring_baseline_with_layout, build_ring_layout, static_placement, BaselineOutput,
    RingConfig,
};

use dcp_mask::MaskSpec;
use dcp_types::{AttnSpec, DcpResult};

/// Which baseline to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// RingFlashAttention with contiguous `Ring` placement.
    RfaRing,
    /// RingFlashAttention with `ZigZag` placement.
    RfaZigzag,
    /// LoongTrain with the given head-parallel degree and inner-ring size.
    LoongTrain {
        /// Head-parallel degree (the paper uses the number of KV groups).
        head_groups: u32,
        /// Double-ring inner size (the paper searches {1, 2, 4, 8}).
        inner_ring: u32,
    },
    /// TransformerEngine-style head x zigzag with varlen and mask support.
    TransformerEngine {
        /// Head-parallel degree.
        head_groups: u32,
    },
}

impl Baseline {
    /// Short display name.
    pub fn name(&self) -> String {
        match self {
            Baseline::RfaRing => "rfa-ring".into(),
            Baseline::RfaZigzag => "rfa-zigzag".into(),
            Baseline::LoongTrain { inner_ring, .. } => format!("loongtrain-w{inner_ring}"),
            Baseline::TransformerEngine { .. } => "te".into(),
        }
    }

    /// Builds the baseline's plan for `seqs` on `devices` devices.
    ///
    /// # Errors
    ///
    /// Returns an error for unsupported combinations (LoongTrain with
    /// non-causal masks) or degenerate configurations.
    pub fn build(
        &self,
        attn: AttnSpec,
        devices: u32,
        block_size: u32,
        seqs: &[(u32, MaskSpec)],
    ) -> DcpResult<BaselineOutput> {
        let cfg = match *self {
            Baseline::RfaRing => RingConfig {
                devices,
                head_groups: 1,
                zigzag: false,
                inner_ring: 1,
                pad_to_max: false,
                block_size,
                reorder_copy: false,
            },
            Baseline::RfaZigzag => RingConfig {
                devices,
                head_groups: 1,
                zigzag: true,
                inner_ring: 1,
                pad_to_max: false,
                block_size,
                reorder_copy: false,
            },
            Baseline::LoongTrain {
                head_groups,
                inner_ring,
            } => {
                if seqs.iter().any(|(_, m)| !matches!(m, MaskSpec::Causal)) {
                    return Err(dcp_types::DcpError::invalid_argument(
                        "LoongTrain supports only the causal mask",
                    ));
                }
                RingConfig {
                    devices,
                    head_groups,
                    zigzag: true,
                    inner_ring,
                    pad_to_max: true,
                    block_size,
                    reorder_copy: true,
                }
            }
            Baseline::TransformerEngine { head_groups } => RingConfig {
                devices,
                head_groups,
                zigzag: true,
                inner_ring: 1,
                pad_to_max: false,
                block_size,
                reorder_copy: true,
            },
        };
        ring::build_ring_baseline(&self.name(), attn, &cfg, seqs)
    }
}
