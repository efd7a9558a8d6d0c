//! Stream verifier: the symbolic backend of the stream walker.
//!
//! [`crate::stream`] owns what a stream means and which streams are legal;
//! this module runs that walker over a backend that carries no data — a
//! deposited slot is `()`, an accumulator is a set membership — so it runs
//! in microseconds per plan and can gate every planner output. A
//! rejection is a typed [`Diagnostic`] naming
//! the violated rule, the offending device and the instruction index; the
//! numeric executor, driving the same walker, rejects exactly the same
//! streams with the same diagnostics.
//!
//! Two entry points:
//!
//! - [`verify_plan`]: both phases of an [`ExecutionPlan`] against its layout
//!   and placement (normal planner outputs).
//! - [`verify_structure`]: launch/wait/deposit structure only, with no
//!   layout and no placement — the walk the simulator times.

use std::fmt;

use dcp_blocks::{BatchLayout, TokenBlockId};
use dcp_types::DcpError;
use serde::{Deserialize, Serialize};

use crate::placement::Placement;
use crate::plan::{ExecutionPlan, Instr, Payload, PayloadKind, PhasePlan, ReduceItem, Transfer};
use crate::schedule::kernel_flops;
use crate::stream::{incoming, At, AttnItem, Backend, Stream};

/// Which legality rule a stream violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// A `CommLaunch`/`CommWait` references a comm id outside the op table.
    CommIdOutOfRange,
    /// An input-only op is waited by a device that never launched it
    /// (input fetches are receiver-launched).
    WaitWithoutLaunch,
    /// A device waits on an op that sends it nothing.
    WaitReceivesNothing,
    /// An attention instruction reads a Q/KV/dO block that is neither local
    /// nor arrived.
    MissingInput,
    /// A reduction reads a partial that never arrived.
    MissingPartial,
    /// A device launches a partial it has not computed yet.
    MissingProducerState,
    /// An instruction's direction or payload kind contradicts the phase.
    WrongPhase,
    /// A computation block executes on a device other than its placement.
    WrongDevice,
    /// A computation block is scheduled more than once.
    DuplicateCompute,
    /// A computation block is never scheduled.
    MissingCompute,
    /// A transfer's endpoints contradict ownership/producer records.
    BadRoute,
    /// A transfer sends a device data it already holds.
    SelfTransfer,
    /// No device can make progress (circular or absent dependencies).
    Deadlock,
    /// A computation or token block id lies outside the layout.
    BlockIdOutOfRange,
    /// The stream table, the placement and the layout disagree in shape
    /// (stream count vs. device count, stream order, placement lengths).
    ShapeMismatch,
    /// An attention instruction's `flops` differ from what its computation
    /// blocks weigh in the phase.
    WrongFlops,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::CommIdOutOfRange => "comm-id-out-of-range",
            ViolationKind::WaitWithoutLaunch => "wait-without-launch",
            ViolationKind::WaitReceivesNothing => "wait-receives-nothing",
            ViolationKind::MissingInput => "missing-input",
            ViolationKind::MissingPartial => "missing-partial",
            ViolationKind::MissingProducerState => "missing-producer-state",
            ViolationKind::WrongPhase => "wrong-phase",
            ViolationKind::WrongDevice => "wrong-device",
            ViolationKind::DuplicateCompute => "duplicate-compute",
            ViolationKind::MissingCompute => "missing-compute",
            ViolationKind::BadRoute => "bad-route",
            ViolationKind::SelfTransfer => "self-transfer",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::BlockIdOutOfRange => "block-id-out-of-range",
            ViolationKind::ShapeMismatch => "shape-mismatch",
            ViolationKind::WrongFlops => "wrong-flops",
        };
        f.write_str(s)
    }
}

/// A typed verifier rejection: the violated rule, where it anchors in the
/// streams (device rank and instruction index, when the violation has a
/// stream position), and a human-readable message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// The violated rule.
    pub kind: ViolationKind,
    /// Device whose stream violates the rule, if anchored.
    pub device: Option<u32>,
    /// Index of the offending instruction in that device's stream, if
    /// anchored.
    pub instr: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn at(
        kind: ViolationKind,
        device: u32,
        instr: usize,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            kind,
            device: Some(device),
            instr: Some(instr),
            message: message.into(),
        }
    }

    pub(crate) fn phase_level(kind: ViolationKind, message: impl Into<String>) -> Self {
        Diagnostic {
            kind,
            device: None,
            instr: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.kind)?;
        if let (Some(d), Some(i)) = (self.device, self.instr) {
            write!(f, "device {d} instr {i}: ")?;
        } else if let Some(d) = self.device {
            write!(f, "device {d}: ")?;
        }
        f.write_str(&self.message)
    }
}

/// Result alias for verifier entry points.
pub type VerifyResult = Result<(), Diagnostic>;

/// An untrusted plan surfaces from the executor as a typed error carrying
/// the verifier's diagnostic.
impl From<Diagnostic> for DcpError {
    fn from(d: Diagnostic) -> Self {
        DcpError::invalid_plan(d.to_string())
    }
}

/// Verifies both phases of a plan against its layout and placement.
///
/// # Errors
///
/// Returns the first [`Diagnostic`] encountered; blocked progress surfaces
/// as [`ViolationKind::Deadlock`] anchored at the first stalled device.
pub fn verify_plan(
    layout: &BatchLayout,
    placement: &Placement,
    plan: &ExecutionPlan,
) -> VerifyResult {
    verify_phase(layout, placement, &plan.fwd, false)?;
    verify_phase(layout, placement, &plan.bwd, true)
}

/// Verifies one phase (the backward one when `backward`): the walker's
/// executability rules plus the placement conventions of `Placed`.
fn verify_phase(
    layout: &BatchLayout,
    placement: &Placement,
    phase: &PhasePlan,
    backward: bool,
) -> VerifyResult {
    let mut sym = Symbolic {
        blocks: layout.token_blocks.len(),
        acc: vec![0; phase.devices.len() * layout.token_blocks.len()],
        placed: Some(Placed {
            phase,
            placement,
            routed: vec![false; phase.comms.len()],
            seen: vec![false; layout.comp_blocks.len()],
        }),
    };
    Stream {
        phase,
        backward,
        logical: Some((layout, placement)),
    }
    .walk(&mut sym)?;
    // Coverage: every computation block executed exactly once, on its
    // assigned device (duplicates and wrong devices are caught in-stream).
    if let Some(missing) = sym.placed.and_then(|p| p.seen.iter().position(|&s| !s)) {
        return Err(Diagnostic::phase_level(
            ViolationKind::MissingCompute,
            format!("comp block {missing} never scheduled in this phase"),
        ));
    }
    // Prices last, so a structural violation keeps its own diagnostic: a
    // kernel claims the flops its blocks weigh in this layout (the
    // simulator times whatever it claims).
    for (dev, stream) in phase.devices.iter().enumerate() {
        for (idx, ins) in stream.instrs.iter().enumerate() {
            if let Instr::Attn { items, flops } | Instr::AttnBwd { items, flops } = ins {
                let weigh: u64 = items
                    .iter()
                    .map(|&c| kernel_flops(layout, c, backward))
                    .sum();
                if *flops != weigh {
                    return Err(Diagnostic::at(
                        ViolationKind::WrongFlops,
                        dev as u32,
                        idx,
                        format!("claims {flops} flops; its blocks weigh {weigh}"),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Structural verification of an ordinary plan's phase with no layout and
/// no placement — what the simulator rejects a phase for, to the message:
/// ids in range, every wait's incoming transfers deposited by some launch
/// (receiver-launched for inputs, sender-launched for partials), and
/// progress without deadlock. The placement conventions are not imposed,
/// so a wait that receives nothing is legal here.
///
/// # Errors
///
/// Returns the first [`Diagnostic`] encountered.
pub fn verify_structure(phase: &PhasePlan) -> VerifyResult {
    let mut sym = Symbolic {
        blocks: 0,
        acc: Vec::new(),
        placed: None,
    };
    Stream {
        phase,
        backward: false,
        logical: None,
    }
    .walk(&mut sym)
}

/// The symbolic backend: no data, only which accumulators exist — per
/// device and token block, the partial kinds it currently accumulates
/// (forward O/lse, backward dQ, backward dKV), one bit each.
struct Symbolic<'a> {
    /// Token blocks in the layout (none in a structure-only walk, which
    /// keeps no accumulators).
    blocks: usize,
    /// Per (device, token block): [`Symbolic::bit`]s of the kinds held.
    acc: Vec<u8>,
    /// The placement a planner output is held to; `None` for a
    /// structure-only walk, which has none.
    placed: Option<Placed<'a>>,
}

impl Symbolic<'_> {
    fn bit(kind: PayloadKind) -> u8 {
        1 << kind as u8
    }

    fn hold(&mut self, dev: u32, kind: PayloadKind, tb: TokenBlockId) {
        if let Some(held) = self.acc.get_mut(dev as usize * self.blocks + tb.0 as usize) {
            *held |= Self::bit(kind);
        }
    }
}

/// The verifier's conventions on top of executability: a stream that breaks
/// one may still execute, but it is not what its placement says.
struct Placed<'a> {
    phase: &'a PhasePlan,
    placement: &'a Placement,
    /// Ops whose routes were checked (at their first launch, the first
    /// stream position that references the op).
    routed: Vec<bool>,
    /// Computation blocks executed so far.
    seen: Vec<bool>,
}

impl Placed<'_> {
    fn admit(&mut self, at: At, ins: &Instr) -> Result<(), Diagnostic> {
        match ins {
            Instr::CommLaunch(cid) => {
                if std::mem::replace(&mut self.routed[cid.0 as usize], true) {
                    return Ok(());
                }
                for tr in &self.phase.comms[cid.0 as usize].transfers {
                    self.check_route(at, cid.0, tr)?;
                }
            }
            Instr::CommWait(cid) => {
                let op = &self.phase.comms[cid.0 as usize];
                if incoming(op, at.dev).next().is_none() {
                    return Err(at.err(
                        ViolationKind::WaitReceivesNothing,
                        format!("waits on op {} that sends it nothing", cid.0),
                    ));
                }
            }
            Instr::Attn { items, .. } | Instr::AttnBwd { items, .. } => {
                for &c in items {
                    let owner = self.placement.comp_dev(c);
                    if owner != at.dev {
                        return Err(at.err(
                            ViolationKind::WrongDevice,
                            format!("comp block {c:?} belongs to device {owner}"),
                        ));
                    }
                    if std::mem::replace(&mut self.seen[c.0 as usize], true) {
                        return Err(at.err(
                            ViolationKind::DuplicateCompute,
                            format!("comp block {c:?} scheduled twice"),
                        ));
                    }
                }
            }
            Instr::Reduce { .. } | Instr::Copy { .. } => {}
        }
        Ok(())
    }

    /// Inputs leave a device that holds the block; partials leave their
    /// producer for the block's owner.
    fn check_route(&self, at: At, cid: u32, tr: &Transfer) -> Result<(), Diagnostic> {
        if tr.from == tr.to {
            return Err(at.err(
                ViolationKind::SelfTransfer,
                format!(
                    "op {cid} transfer {:?} sends a device its own data",
                    tr.payload
                ),
            ));
        }
        let tb = tr.payload.token_block();
        let ok = match tr.payload {
            Payload::Q(_) | Payload::Kv(_) | Payload::DO(_) => {
                tr.from == self.placement.token_dev(tb)
            }
            Payload::PartialO(_, p) | Payload::PartialDq(_, p) | Payload::PartialDkv(_, p) => {
                tr.from == p && tr.to == self.placement.token_dev(tb)
            }
        };
        if !ok {
            return Err(at.err(
                ViolationKind::BadRoute,
                format!("op {cid} transfer {tr:?} inconsistent with ownership"),
            ));
        }
        Ok(())
    }
}

impl Backend for Symbolic<'_> {
    type Slot = ();

    fn admit(&mut self, at: At, ins: &Instr) -> Result<(), Diagnostic> {
        self.placed.as_mut().map_or(Ok(()), |p| p.admit(at, ins))
    }

    fn accumulates(&self, dev: u32, kind: PayloadKind, tb: TokenBlockId) -> bool {
        let cell = self.acc.get(dev as usize * self.blocks + tb.0 as usize);
        cell.is_some_and(|&held| held & Self::bit(kind) != 0)
    }

    fn deposit(&mut self, _dev: u32, _op: u32, _tr: &Transfer) {}

    fn attn(&mut self, dev: u32, backward: bool, items: &[AttnItem<'_, ()>]) {
        for item in items {
            if backward {
                self.hold(dev, PayloadKind::PartialDq, item.q_block);
                self.hold(dev, PayloadKind::PartialDkv, item.kv_block);
            } else {
                self.hold(dev, PayloadKind::PartialO, item.q_block);
            }
        }
    }

    fn reduce(&mut self, _dev: u32, _item: &ReduceItem, _parts: &[&()]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CommId, CommOp, Transfer};
    use crate::schedule::{build_plan, ScheduleConfig};
    use dcp_blocks::BlockConfig;
    use dcp_mask::MaskSpec;
    use dcp_types::AttnSpec;

    fn layout(seqs: &[(u32, MaskSpec)], bs: u32) -> BatchLayout {
        BatchLayout::build(
            AttnSpec::paper_micro(),
            BlockConfig {
                block_size: bs,
                head_blocks: 1,
            },
            seqs,
        )
        .unwrap()
    }

    fn ring_placement(l: &BatchLayout, n: u32) -> Placement {
        let token_to_dev: Vec<u32> = (0..l.token_blocks.len() as u32).map(|i| i % n).collect();
        let comp_to_dev: Vec<u32> = l
            .comp_blocks
            .iter()
            .map(|c| token_to_dev[c.q_block.0 as usize])
            .collect();
        Placement {
            num_devices: n,
            token_to_dev,
            comp_to_dev,
        }
    }

    fn small_case() -> (BatchLayout, Placement, ExecutionPlan) {
        let l = layout(&[(4096, MaskSpec::Causal)], 512);
        let p = ring_placement(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        (l, p, plan)
    }

    /// Like [`small_case`] but with comp blocks on their *kv* owner, so
    /// forward partials (and reduces at the q owners) exist.
    fn scatter_case() -> (BatchLayout, Placement, ExecutionPlan) {
        let l = layout(&[(4096, MaskSpec::Causal)], 512);
        let n = 4;
        let token_to_dev: Vec<u32> = (0..l.token_blocks.len() as u32).map(|i| i % n).collect();
        let comp_to_dev: Vec<u32> = l
            .comp_blocks
            .iter()
            .map(|c| token_to_dev[c.kv_block.0 as usize])
            .collect();
        let p = Placement {
            num_devices: n,
            token_to_dev,
            comp_to_dev,
        };
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        (l, p, plan)
    }

    #[test]
    fn accepts_scatter_plan_with_partials() {
        let (l, p, plan) = scatter_case();
        assert!(
            plan.fwd
                .comms
                .iter()
                .flat_map(|op| &op.transfers)
                .any(|t| matches!(t.payload, Payload::PartialO(..))),
            "fixture must exercise the partial/reduce path"
        );
        verify_plan(&l, &p, &plan).unwrap();
        verify_structure(&plan.fwd).unwrap();
        verify_structure(&plan.bwd).unwrap();
    }

    #[test]
    fn accepts_schedule_output() {
        let (l, p, plan) = small_case();
        verify_plan(&l, &p, &plan).unwrap();
        verify_structure(&plan.fwd).unwrap();
        verify_structure(&plan.bwd).unwrap();
    }

    #[test]
    fn accepts_all_local_plan() {
        let l = layout(&[(2048, MaskSpec::Causal)], 512);
        let p = Placement::all_on_zero(&l, 4);
        let plan = build_plan(&l, &p, &ScheduleConfig::default()).unwrap();
        verify_plan(&l, &p, &plan).unwrap();
    }

    #[test]
    fn rejects_wait_before_launch_with_instr_index() {
        let (l, p, mut plan) = small_case();
        // Find a stream with a launch followed later by its wait, and swap
        // the wait to the front.
        let mut mutated = false;
        'outer: for stream in &mut plan.fwd.devices {
            for i in 0..stream.instrs.len() {
                if let Instr::CommLaunch(cid) = stream.instrs[i] {
                    let input_only = plan.fwd.comms[cid.0 as usize]
                        .transfers
                        .iter()
                        .all(|t| matches!(t.payload.kind(), PayloadKind::Q | PayloadKind::Kv));
                    if !input_only {
                        continue;
                    }
                    if let Some(j) = stream.instrs[i + 1..]
                        .iter()
                        .position(|x| *x == Instr::CommWait(cid))
                    {
                        let wait = stream.instrs.remove(i + 1 + j);
                        stream.instrs.insert(i, wait);
                        mutated = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(mutated, "expected an input launch/wait pair to mutate");
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::WaitWithoutLaunch);
        assert!(err.instr.is_some(), "diagnostic must name the instruction");
    }

    #[test]
    fn rejects_duplicate_and_misplaced_compute() {
        let (l, p, mut plan) = small_case();
        let (d, i) = plan
            .fwd
            .devices
            .iter()
            .enumerate()
            .find_map(|(d, s)| {
                s.instrs
                    .iter()
                    .position(|ins| matches!(ins, Instr::Attn { .. }))
                    .map(|i| (d, i))
            })
            .unwrap();
        if let Instr::Attn { items, .. } = &mut plan.fwd.devices[d].instrs[i] {
            let c = items[0];
            items.push(c);
        }
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::DuplicateCompute);
        assert_eq!(err.device, Some(d as u32));
        assert_eq!(err.instr, Some(i));
    }

    #[test]
    fn rejects_missing_transfer_as_missing_input() {
        let (l, p, mut plan) = small_case();
        // Remove one input transfer: the consuming Attn must be flagged.
        let mut removed = false;
        for op in &mut plan.fwd.comms {
            if let Some(pos) = op
                .transfers
                .iter()
                .position(|t| matches!(t.payload, Payload::Q(_) | Payload::Kv(_)))
            {
                op.transfers.remove(pos);
                removed = true;
                break;
            }
        }
        assert!(removed);
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert!(
            matches!(
                err.kind,
                ViolationKind::MissingInput | ViolationKind::WaitReceivesNothing
            ),
            "{err}"
        );
        assert!(err.instr.is_some());
    }

    #[test]
    fn a_launch_deposits_in_op_order() {
        // A device that computes nothing launches its first batch of
        // partials: the diagnostic names the first of them in op order,
        // the order the walk deposits in.
        let (l, p, mut plan) = scatter_case();
        let phase = &mut plan.fwd;
        let (d, op) = (0..phase.devices.len())
            .find_map(|d| {
                let first = phase.devices[d].instrs.iter().find_map(|ins| match ins {
                    Instr::CommLaunch(cid) => {
                        let op = &phase.comms[cid.0 as usize];
                        let partial = matches!(op.transfers[0].payload, Payload::PartialO(..));
                        partial.then_some(cid.0 as usize)
                    }
                    _ => None,
                })?;
                (phase.comms[first].transfers.len() > 1).then_some((d, first))
            })
            .expect("a device returning several partials in one op");
        phase.devices[d]
            .instrs
            .retain(|ins| !matches!(ins, Instr::Attn { .. }));
        let first = phase.comms[op].transfers[0].payload.token_block();
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::MissingProducerState);
        assert_eq!(err.device, Some(d as u32));
        assert!(err.message.contains(&format!("{first:?} ")), "{err}");
    }

    #[test]
    fn rejects_out_of_range_comm_id() {
        let (l, p, mut plan) = small_case();
        let bogus = CommId(plan.fwd.comms.len() as u32 + 7);
        plan.fwd.devices[0].instrs.insert(0, Instr::CommWait(bogus));
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::CommIdOutOfRange);
        assert_eq!(err.instr, Some(0));
    }

    #[test]
    fn rejects_bad_route_and_self_transfer() {
        let (l, p, mut plan) = small_case();
        let mut flipped = false;
        'outer: for op in &mut plan.fwd.comms {
            for tr in &mut op.transfers {
                if matches!(tr.payload, Payload::Q(_) | Payload::Kv(_)) {
                    tr.from = tr.to; // now a self transfer
                    flipped = true;
                    break 'outer;
                }
            }
        }
        assert!(flipped);
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::SelfTransfer);
    }

    /// Removes the first forward instruction `pick` matches; returns its
    /// device.
    fn drop_first_fwd(plan: &mut ExecutionPlan, pick: impl Fn(&Instr) -> bool) -> usize {
        let (d, i) = (plan.fwd.devices.iter().enumerate())
            .find_map(|(d, s)| s.instrs.iter().position(&pick).map(|i| (d, i)))
            .expect("the ring placement has one");
        plan.fwd.devices[d].instrs.remove(i);
        d
    }

    #[test]
    fn rejects_dropped_attn_as_missing_state() {
        let (l, p, mut plan) = small_case();
        drop_first_fwd(&mut plan, |ins| matches!(ins, Instr::Attn { .. }));
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert!(
            matches!(
                err.kind,
                ViolationKind::MissingProducerState
                    | ViolationKind::MissingCompute
                    | ViolationKind::MissingPartial
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_dropped_comm_wait() {
        let (l, p, mut plan) = small_case();
        let d = drop_first_fwd(&mut plan, |ins| matches!(ins, Instr::CommWait(_)));
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::MissingInput, "{err}");
        assert_eq!(err.device, Some(d as u32), "{err}");
    }

    #[test]
    fn structural_catches_unlaunched_wait() {
        let phase = PhasePlan {
            comms: vec![CommOp {
                transfers: vec![Transfer {
                    from: 1,
                    to: 0,
                    payload: Payload::Q(TokenBlockId(0)),
                    bytes: 8,
                }],
            }],
            devices: vec![
                DeviceStreamBuilder::new(0).wait(0).build(),
                DeviceStreamBuilder::new(1).build(),
            ],
        };
        let err = verify_structure(&phase).unwrap_err();
        assert_eq!(err.kind, ViolationKind::WaitWithoutLaunch);
        assert_eq!(err.device, Some(0));
        assert_eq!(err.instr, Some(0));
    }

    #[test]
    fn diagnostic_serializes_and_displays() {
        let d = Diagnostic::at(ViolationKind::MissingInput, 3, 7, "no Q");
        let s = serde_json::to_string(&d).unwrap();
        let back: Diagnostic = serde_json::from_str(&s).unwrap();
        assert_eq!(d, back);
        let shown = d.to_string();
        assert!(shown.contains("missing-input"), "{shown}");
        assert!(shown.contains("device 3"), "{shown}");
        assert!(shown.contains("instr 7"), "{shown}");
    }

    /// Minimal stream builder for structural tests.
    struct DeviceStreamBuilder {
        device: u32,
        instrs: Vec<Instr>,
    }

    impl DeviceStreamBuilder {
        fn new(device: u32) -> Self {
            DeviceStreamBuilder {
                device,
                instrs: Vec::new(),
            }
        }
        fn wait(mut self, cid: u32) -> Self {
            self.instrs.push(Instr::CommWait(CommId(cid)));
            self
        }
        fn build(self) -> crate::plan::DeviceStream {
            crate::plan::DeviceStream {
                device: self.device,
                instrs: self.instrs,
                buffer: crate::buffer::BufferStats::default(),
            }
        }
    }

    #[test]
    fn reduce_missing_partial_is_typed() {
        let (l, p, mut plan) = scatter_case();
        // Drop a source's partial transfer from an out op while keeping the
        // reduce item: the owner's reduce must be flagged.
        let mut dropped = false;
        'outer: for op in &mut plan.fwd.comms {
            for pos in 0..op.transfers.len() {
                if matches!(op.transfers[pos].payload, Payload::PartialO(..)) {
                    op.transfers.remove(pos);
                    dropped = true;
                    break 'outer;
                }
            }
        }
        assert!(dropped, "expected a partial transfer in the forward phase");
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert!(
            matches!(
                err.kind,
                ViolationKind::MissingPartial | ViolationKind::WaitReceivesNothing
            ),
            "{err}"
        );
    }

    #[test]
    fn reduce_items_are_checked_against_arrivals() {
        let (l, p, mut plan) = scatter_case();
        // Add a phantom source to a reduce: no transfer carries it.
        let mut added = false;
        'outer: for stream in &mut plan.fwd.devices {
            let dev = stream.device;
            for ins in &mut stream.instrs {
                if let Instr::Reduce { items, .. } = ins {
                    for item in items.iter_mut() {
                        if let Some(phantom) =
                            (0..p.num_devices).find(|d| !item.sources.contains(d) && *d != dev)
                        {
                            item.sources.push(phantom);
                            added = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(added, "expected a reduce item with a free phantom source");
        let err = verify_plan(&l, &p, &plan).unwrap_err();
        assert_eq!(err.kind, ViolationKind::MissingPartial);
    }

    #[test]
    fn rejects_a_kernel_claiming_other_flops() {
        for backward in [false, true] {
            let (l, p, mut plan) = small_case();
            let phase = if backward {
                &mut plan.bwd
            } else {
                &mut plan.fwd
            };
            let (d, i) = phase
                .devices
                .iter()
                .enumerate()
                .find_map(|(d, s)| {
                    s.instrs
                        .iter()
                        .position(|ins| matches!(ins, Instr::Attn { .. } | Instr::AttnBwd { .. }))
                        .map(|i| (d, i))
                })
                .unwrap();
            if let Instr::Attn { flops, .. } | Instr::AttnBwd { flops, .. } =
                &mut phase.devices[d].instrs[i]
            {
                *flops += 1;
            }
            let err = verify_plan(&l, &p, &plan).unwrap_err();
            assert_eq!(err.kind, ViolationKind::WrongFlops, "{err}");
            assert_eq!((err.device, err.instr), (Some(d as u32), Some(i)));
        }
    }
}
