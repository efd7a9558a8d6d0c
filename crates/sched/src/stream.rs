//! The one stream walker: what a rendered instruction stream *means*.
//!
//! A [`PhasePlan`] is immutable IR; [`Stream::walk`] is the only driver that
//! gives it meaning, and the only code that advances a device through one.
//! The walker owns everything every consumer must agree on — the run queue
//! and deadlock detection, shape and id bounds, the deposit rule at
//! `CommLaunch`, the arrival rule at `CommWait`, the locality predicate
//! and per-item input resolution — and is generic over a small [`Backend`]
//! that says what a deposited slot *is*, what `Attn`/`AttnBwd`/`Reduce`
//! *do* with resolved inputs and, if it has a clock, *when* a slot has
//! landed and a device is free: numeric in
//! `dcp-exec` (f32 tensors), symbolic in `crate::verify` (no data at all),
//! timing in `dcp-sim` (flows on a max-min network, kernels as timers).
//! DESIGN.md "Stream semantics" states each rule once; this module is that
//! section in code. The passes and the buffer accounting take [`incoming`],
//! `arrivals` and `reads` from here.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dcp_blocks::{BatchLayout, CompBlockId, TokenBlockId};

use crate::placement::Placement;
use crate::plan::{CommOp, Instr, Payload, PayloadKind, PhasePlan, ReduceItem, Transfer};
use crate::verify::{Diagnostic, ViolationKind};

/// Whether `kind` is a model *input* (Q, KV, dO) rather than a partial
/// result. Inputs exist from the start of the phase, so the **receiver**
/// deposits them; partials exist once computed, so the **sender** does.
pub(crate) fn is_input(kind: PayloadKind) -> bool {
    matches!(kind, PayloadKind::Q | PayloadKind::Kv | PayloadKind::DO)
}

/// The device whose `CommLaunch` puts `tr` in flight.
fn depositor(tr: &Transfer) -> u32 {
    if is_input(tr.payload.kind()) {
        tr.to
    } else {
        tr.from
    }
}

/// The transfers of `op` that a `CommWait` on `dev` blocks on.
pub fn incoming(op: &CommOp, dev: u32) -> impl Iterator<Item = &Transfer> {
    op.transfers.iter().filter(move |t| t.to == dev)
}

/// The index of each op's first transfer when the op table is laid end to
/// end, then the number of transfers: one flat array can hold a value per
/// transfer.
pub(crate) fn transfer_offsets(comms: &[CommOp]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(comms.len() + 1);
    offsets.push(0);
    for op in comms {
        offsets.push(offsets[offsets.len() - 1] + op.transfers.len());
    }
    offsets
}

/// Everything the `CommWait`s of `dev`'s stream deliver to it, in stream
/// order, each transfer with the index of its wait.
pub(crate) fn arrivals<'a>(
    comms: &'a [CommOp],
    dev: u32,
    instrs: &'a [Instr],
) -> impl Iterator<Item = (usize, &'a Transfer)> {
    instrs.iter().enumerate().flat_map(move |(idx, ins)| {
        let op = match ins {
            Instr::CommWait(cid) => comms.get(cid.0 as usize),
            _ => None,
        };
        op.into_iter()
            .flat_map(move |op| incoming(op, dev))
            .map(move |tr| (idx, tr))
    })
}

/// Calls `read` with every payload `ins` reads from arrived data (a local
/// block is named too; only its remote consumers ever see it arrive). The
/// one statement of what an instruction reads: buffer accounting,
/// dead-comm elimination and wait sinking all go through it.
pub(crate) fn reads(layout: &BatchLayout, ins: &Instr, mut read: impl FnMut(Payload)) {
    match ins {
        Instr::Attn { items, .. } | Instr::AttnBwd { items, .. } => {
            let backward = matches!(ins, Instr::AttnBwd { .. });
            for &c in items {
                let cb = &layout.comp_blocks[c.0 as usize];
                read(Payload::Q(cb.q_block));
                read(Payload::Kv(cb.kv_block));
                if backward {
                    read(Payload::DO(cb.q_block));
                }
            }
        }
        Instr::Reduce { items, .. } => {
            for item in items {
                item.sources
                    .iter()
                    .filter_map(|&s| item.source_payload(s))
                    .for_each(&mut read);
            }
        }
        _ => {}
    }
}

/// A stream position, for anchoring diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct At {
    /// Device rank (index of the stream in the phase).
    pub dev: u32,
    /// Instruction index in that device's stream.
    pub idx: usize,
}

impl At {
    /// A diagnostic of `kind` anchored here.
    pub(crate) fn err(self, kind: ViolationKind, message: impl Into<String>) -> Diagnostic {
        Diagnostic::at(kind, self.dev, self.idx, message)
    }
}

/// One computation block of an `Attn`/`AttnBwd` with its inputs resolved:
/// `None` is a local read of the block's own data, `Some` the arrived slot.
pub struct AttnItem<'s, S> {
    /// Its Q token block.
    pub q_block: TokenBlockId,
    /// Its KV token block.
    pub kv_block: TokenBlockId,
    /// Q input.
    pub q: Option<&'s S>,
    /// KV input.
    pub kv: Option<&'s S>,
    /// dO input (always `None` in the forward phase).
    pub d_o: Option<&'s S>,
}

/// What a consumer supplies to [`Stream::walk`]: what a slot is, which
/// accumulators a device holds, and what the compute instructions do. The
/// walker has applied every rule a stream needs to be *executable* by the
/// time it calls in, so those methods cannot fail.
pub trait Backend {
    /// What a deposited transfer is while in flight and once arrived.
    type Slot;

    /// Conventions beyond executability that this consumer imposes on
    /// `ins`, checked on every poll before the walker executes it. The
    /// verifier holds planner output to its placement here (routes follow
    /// ownership, blocks run once on their assigned device); the executor
    /// imposes none, so it also runs relayed-ring baselines.
    ///
    /// # Errors
    ///
    /// The violated convention.
    fn admit(&mut self, _at: At, _ins: &Instr) -> Result<(), Diagnostic> {
        Ok(())
    }

    /// Whether `dev` holds an accumulator of partial `kind` for block `tb`
    /// (forward O/lse, backward dQ or dKV running sums).
    fn accumulates(&self, dev: u32, kind: PayloadKind, tb: TokenBlockId) -> bool;

    /// `dev`'s launch of op `op` puts `tr` in flight: materialise an input,
    /// or ship a partial's accumulator.
    fn deposit(&mut self, dev: u32, op: u32, tr: &Transfer) -> Self::Slot;

    /// Fused blockwise attention (backward when `backward`) over resolved
    /// items, in plan order.
    fn attn(&mut self, dev: u32, backward: bool, items: &[AttnItem<'_, Self::Slot>]);

    /// Merges the arrived partials of `item`'s sources, in source order,
    /// into `dev`'s accumulator for `item.target`.
    fn reduce(&mut self, dev: u32, item: &ReduceItem, parts: &[&Self::Slot]);

    /// Called after every poll of the instruction at `at`; `retired` is
    /// false when the device stays blocked on it. Polls are serial and
    /// plan-ordered. A backend with a clock charges the instruction here.
    fn polled(&mut self, _at: At, _ins: &Instr, _retired: bool, _wake: &mut Wake) {}

    /// Whether a deposited slot has reached its receiver. A data backend has
    /// no clock: what is sent is there.
    fn landed(&self, _slot: &Self::Slot) -> bool {
        true
    }

    /// Whether `dev` can take its next instruction now. A backend that
    /// says no wakes the device from [`Backend::advance`] once it can.
    fn free(&mut self, _dev: u32) -> bool {
        true
    }

    /// No device can move: steps the clock to its next event and tells
    /// `wake` what landed and which devices became free. `false` when there
    /// is nothing to wait for, which makes an unfinished stream a deadlock.
    fn advance(&mut self, _streams_done: bool, _wake: &mut Wake) -> bool {
        false
    }
}

/// The walker's run queue, and the one rule that puts a blocked device back
/// on it. Devices that can move run in sweeps of ascending index: one that
/// becomes able to move while device `d` runs is taken in the same sweep if
/// its index is above `d`, in the next one otherwise — round-robin over all
/// devices minus the polls that would find a device still blocked. For the
/// timing backend the order also fixes flow ids, so it is part of a result.
pub struct Wake {
    /// The comm op each blocked device waits on (none once it is queued).
    blocked: Vec<Option<u32>>,
    /// `(sweep, device)` of every device that can move, next first.
    queue: BinaryHeap<Reverse<(u32, u32)>>,
    /// The sweep in progress and the device running in it, if any.
    sweep: u32,
    running: Option<u32>,
}

impl Wake {
    /// `dev`, which was busy, can move: queue it behind the running device.
    pub fn device(&mut self, dev: u32) {
        let behind = self.running.is_some_and(|d| dev <= d);
        self.queue.push(Reverse((self.sweep + behind as u32, dev)));
    }

    /// A transfer of op `op` into `dev` landed: if `dev` is blocked on that
    /// op it polls its wait again.
    pub fn landed(&mut self, op: u32, dev: u32) {
        if self.blocked[dev as usize] == Some(op) {
            self.blocked[dev as usize] = None;
            self.device(dev);
        }
    }
}

/// Shape and id bounds of an untrusted phase, checked once before anything
/// indexes by them: streams are one per device in rank order, comm ids are
/// inside the op table, transfer endpoints are devices of the phase and —
/// given a layout — computation and token block ids are inside it. The
/// layout's own ids are checked too, for it may be deserialized as well:
/// each computation block reads token blocks of the layout, and each token
/// block lies inside the mask of a sequence of it.
///
/// # Errors
///
/// [`ViolationKind::ShapeMismatch`], [`ViolationKind::CommIdOutOfRange`],
/// [`ViolationKind::BadRoute`] or [`ViolationKind::BlockIdOutOfRange`].
pub(crate) fn check_ids(phase: &PhasePlan, layout: Option<&BatchLayout>) -> Result<(), Diagnostic> {
    if let Some(layout) = layout {
        check_layout_ids(layout)?;
    }
    let n = phase.devices.len() as u32;
    let tb_ok = |tb: TokenBlockId| layout.is_none_or(|l| (tb.0 as usize) < l.token_blocks.len());
    for (cid, op) in phase.comms.iter().enumerate() {
        for tr in &op.transfers {
            if tr.from >= n || tr.to >= n {
                return Err(Diagnostic::phase_level(
                    ViolationKind::BadRoute,
                    format!("op {cid} transfer {tr:?} leaves the phase's {n} devices"),
                ));
            }
            if !tb_ok(tr.payload.token_block()) {
                return Err(Diagnostic::phase_level(
                    ViolationKind::BlockIdOutOfRange,
                    format!("op {cid} transfer {tr:?} names a block outside the layout"),
                ));
            }
        }
    }
    for (d, stream) in phase.devices.iter().enumerate() {
        if stream.device != d as u32 {
            return Err(Diagnostic::phase_level(
                ViolationKind::ShapeMismatch,
                format!("stream {d} is labelled device {}", stream.device),
            ));
        }
        for (idx, ins) in stream.instrs.iter().enumerate() {
            let at = At { dev: d as u32, idx };
            match ins {
                Instr::CommLaunch(cid) | Instr::CommWait(cid) => {
                    if cid.0 as usize >= phase.comms.len() {
                        let verb = match ins {
                            Instr::CommLaunch(_) => "launch of",
                            _ => "wait on",
                        };
                        return Err(at.err(
                            ViolationKind::CommIdOutOfRange,
                            format!("{verb} comm id {} outside op table", cid.0),
                        ));
                    }
                }
                Instr::Attn { items, .. } | Instr::AttnBwd { items, .. } => {
                    let bound = layout.map_or(usize::MAX, |l| l.comp_blocks.len());
                    if let Some(c) = items.iter().find(|c| c.0 as usize >= bound) {
                        return Err(at.err(
                            ViolationKind::BlockIdOutOfRange,
                            format!("comp block {c:?} outside the layout"),
                        ));
                    }
                }
                Instr::Reduce { items, .. } => {
                    if let Some(item) = items.iter().find(|item| !tb_ok(item.target)) {
                        return Err(at.err(
                            ViolationKind::BlockIdOutOfRange,
                            format!("reduce target {:?} outside the layout", item.target),
                        ));
                    }
                }
                Instr::Copy { .. } => {}
            }
        }
    }
    Ok(())
}

/// The layout half of [`check_ids`]: its computation blocks name its token
/// blocks, and its token blocks name its masks and end inside them.
fn check_layout_ids(layout: &BatchLayout) -> Result<(), Diagnostic> {
    let blocks = layout.token_blocks.len();
    let outside = |tb: TokenBlockId| tb.0 as usize >= blocks;
    let mut comps = layout.comp_blocks.iter().enumerate();
    if let Some((c, cb)) = comps.find(|(_, cb)| outside(cb.q_block) || outside(cb.kv_block)) {
        let (q, kv) = (cb.q_block, cb.kv_block);
        let msg = format!("layout comp block {c} reads {q:?} and {kv:?} of {blocks} token blocks");
        return Err(Diagnostic::phase_level(
            ViolationKind::BlockIdOutOfRange,
            msg,
        ));
    }
    for (t, tb) in layout.token_blocks.iter().enumerate() {
        let (kind, msg) = match layout.masks.get(tb.seq as usize) {
            None => (
                ViolationKind::BlockIdOutOfRange,
                format!(
                    "layout token block {t} names sequence {} of {}",
                    tb.seq,
                    layout.masks.len()
                ),
            ),
            Some(m) if u64::from(tb.start) + u64::from(tb.len) > u64::from(m.len()) => (
                ViolationKind::ShapeMismatch,
                format!(
                    "layout token block {t} covers tokens {}..+{} of a {}-token mask",
                    tb.start,
                    tb.len,
                    m.len()
                ),
            ),
            Some(_) => continue,
        };
        return Err(Diagnostic::phase_level(kind, msg));
    }
    Ok(())
}

/// Kinds of payload legal in each phase direction.
fn kind_in_phase(kind: PayloadKind, backward: bool) -> bool {
    match kind {
        PayloadKind::Q | PayloadKind::Kv => true,
        PayloadKind::PartialO => !backward,
        PayloadKind::DO | PayloadKind::PartialDq | PayloadKind::PartialDkv => backward,
    }
}

/// One phase to walk, and how to read it.
pub struct Stream<'a> {
    /// The instruction streams and their op table.
    pub phase: &'a PhasePlan,
    /// Whether this is the backward phase.
    pub backward: bool,
    /// The layout and placement the streams are interpreted against. `None`
    /// walks launch/wait structure only, as the simulator does: compute is
    /// not resolved, no accumulator state exists, no arrived slot is kept.
    pub logical: Option<(&'a BatchLayout, &'a Placement)>,
}

/// Where one transfer of the op table is.
enum Flight<S> {
    /// Not deposited yet.
    Pending,
    /// Deposited by a launch, not yet taken by a wait (once it has landed).
    Sent(S),
    /// Moved to the receiver by a wait. It stays arrived, so a repeated
    /// wait on the same op stays satisfied.
    Arrived,
}

/// The walker's own state: everything in flight or arrived.
struct State<S> {
    /// One entry per transfer, ops laid end to end.
    flights: Vec<Flight<S>>,
    /// Per op: the index of its first transfer in `flights`
    /// ([`transfer_offsets`]).
    base: Vec<usize>,
    /// Who waits for and who deposits each transfer.
    routes: Routes,
    /// What has arrived where (nothing in a structure-only walk).
    arrived: Arrived<S>,
}

/// Per op, its transfers by the device whose wait receives them and by the
/// device whose launch deposits them, built once per walk: a launch or a
/// wait visits its own device's transfers only, in op order — the order a
/// scan of the whole op would visit them in, which for the timing backend
/// fixes flow ids.
struct Routes {
    /// `(receiver, index in its op)`, one per transfer, ops laid end to end
    /// as in `State::flights`, each op's run sorted.
    to: Vec<(u32, u32)>,
    /// `(depositor, index in its op)`, laid out as `to`.
    by: Vec<(u32, u32)>,
}

impl Routes {
    fn new(comms: &[CommOp], transfers: usize) -> Self {
        let mut routes = Routes {
            to: Vec::with_capacity(transfers),
            by: Vec::with_capacity(transfers),
        };
        for op in comms {
            let start = routes.to.len();
            for (i, tr) in (0u32..).zip(&op.transfers) {
                routes.to.push((tr.to, i));
                routes.by.push((depositor(tr), i));
            }
            // Indices are unique within an op, so this is each device's
            // transfers in op order.
            routes.to[start..].sort_unstable();
            routes.by[start..].sort_unstable();
        }
        routes
    }
}

/// The indices, in op order, of `dev`'s transfers in one op's sorted run.
fn own(run: &[(u32, u32)], dev: u32) -> impl Iterator<Item = usize> + '_ {
    let first = run.partition_point(|e| e.0 < dev);
    run[first..]
        .iter()
        .take_while(move |e| e.0 == dev)
        .map(|e| e.1 as usize)
}

/// The slots that arrived on each device, flat by (device, token block):
/// every payload concerning one block on one device — its inputs, and the
/// partials its producers sent — is a short chain from the latest arrival.
struct Arrived<S> {
    /// Token blocks in the layout.
    blocks: usize,
    /// Per (device, token block): 1 + the index in `slots` of the latest
    /// arrival; 0 when none.
    latest: Vec<u32>,
    /// Every arrival: payload, slot, and 1 + the index of the previous
    /// arrival for the same (device, token block).
    slots: Vec<(Payload, S, u32)>,
}

impl<S> Arrived<S> {
    /// An empty table for `devices` × `blocks`, sized for `arrivals`.
    fn new(devices: usize, blocks: usize, arrivals: usize) -> Self {
        Arrived {
            blocks,
            latest: vec![0; devices * blocks],
            slots: Vec::with_capacity(arrivals),
        }
    }

    fn cell(&self, dev: u32, p: Payload) -> usize {
        dev as usize * self.blocks + p.token_block().0 as usize
    }

    /// `slot` arrived on `dev` as `p`; it shadows an earlier arrival of `p`.
    fn put(&mut self, dev: u32, p: Payload, slot: S) {
        let cell = self.cell(dev, p);
        self.slots.push((p, slot, self.latest[cell]));
        self.latest[cell] = self.slots.len() as u32;
    }

    /// The latest arrival of `p` on `dev`.
    fn get(&self, dev: u32, p: Payload) -> Option<&S> {
        let mut at = self.latest[self.cell(dev, p)];
        while at != 0 {
            let (q, slot, prev) = &self.slots[at as usize - 1];
            if *q == p {
                return Some(slot);
            }
            at = *prev;
        }
        None
    }
}

impl Stream<'_> {
    /// Walks the phase to completion: every device that can move runs, in
    /// [`Wake`]'s order, until it blocks on a `CommWait` whose data is not
    /// yet deposited (or landed) or the backend says it is busy; when none
    /// can, the backend's clock advances. For a backend without a clock the
    /// order depends only on plan structure and mailbox state, so it is
    /// identical for every such backend and thread count.
    ///
    /// # Errors
    ///
    /// The first [`Diagnostic`]: an id or shape violation found up front, a
    /// rule violated in-stream, or [`ViolationKind::Deadlock`] anchored at
    /// the first stalled device.
    pub fn walk<B: Backend>(&self, backend: &mut B) -> Result<(), Diagnostic> {
        let phase = self.phase;
        let n = phase.devices.len();
        if let Some((layout, placement)) = self.logical {
            let shape = |m: String| Diagnostic::phase_level(ViolationKind::ShapeMismatch, m);
            placement
                .validate(layout)
                .map_err(|e| shape(e.to_string()))?;
            if n != placement.num_devices as usize {
                return Err(shape(format!(
                    "phase has {n} streams, placement has {} devices",
                    placement.num_devices
                )));
            }
        }
        check_ids(phase, self.logical.map(|(layout, _)| layout))?;
        if self.logical.is_some() {
            let stray = |tr: &&Transfer| !kind_in_phase(tr.payload.kind(), self.backward);
            if let Some(tr) = phase.comms.iter().flat_map(|op| &op.transfers).find(stray) {
                let dir = if self.backward { "backward" } else { "forward" };
                return Err(Diagnostic::phase_level(
                    ViolationKind::WrongPhase,
                    format!("transfer {tr:?} in the {dir} phase"),
                ));
            }
        }
        let base = transfer_offsets(&phase.comms);
        let transfers = base[phase.comms.len()];
        let (blocks, arrivals) = match self.logical {
            Some((layout, _)) => (layout.token_blocks.len(), transfers),
            None => (0, 0),
        };
        let mut st = State {
            flights: (0..transfers).map(|_| Flight::Pending).collect(),
            routes: Routes::new(&phase.comms, transfers),
            base,
            arrived: Arrived::new(n, blocks, arrivals),
        };
        // Every device starts in the first sweep.
        let mut wake = Wake {
            blocked: vec![None; n],
            queue: (0..n as u32).map(|d| Reverse((0, d))).collect(),
            sweep: 0,
            running: None,
        };
        let mut ip = vec![0usize; n];
        loop {
            while let Some(Reverse((sweep, dev))) = wake.queue.pop() {
                let d = dev as usize;
                (wake.sweep, wake.running) = (sweep, Some(dev));
                let instrs = &phase.devices[d].instrs;
                while backend.free(dev) {
                    let Some(ins) = instrs.get(ip[d]) else {
                        break;
                    };
                    let at = At { dev, idx: ip[d] };
                    backend.admit(at, ins)?;
                    let retired = self.step(at, ins, backend, &mut st, &mut wake)?;
                    backend.polled(at, ins, retired, &mut wake);
                    if !retired {
                        break;
                    }
                    ip[d] += 1;
                }
            }
            (wake.sweep, wake.running) = (0, None);
            let stalled = (0..n).find(|&d| ip[d] < phase.devices[d].instrs.len());
            if backend.advance(stalled.is_none(), &mut wake) {
                continue;
            }
            let Some(d) = stalled else {
                return Ok(());
            };
            return Err(Diagnostic::at(
                ViolationKind::Deadlock,
                d as u32,
                ip[d],
                "no device can make progress (missing launch or circular wait)",
            ));
        }
    }

    /// Executes one instruction; `Ok(false)` means blocked on a wait.
    fn step<B: Backend>(
        &self,
        at: At,
        ins: &Instr,
        backend: &mut B,
        st: &mut State<B::Slot>,
        wake: &mut Wake,
    ) -> Result<bool, Diagnostic> {
        let (dev, d) = (at.dev, at.dev as usize);
        match ins {
            Instr::CommLaunch(cid) => {
                let c = cid.0 as usize;
                let op = &self.phase.comms[c];
                let flights = &mut st.flights[st.base[c]..][..op.transfers.len()];
                for i in own(&st.routes.by[st.base[c]..st.base[c + 1]], dev) {
                    let tr = &op.transfers[i];
                    let (kind, tb) = (tr.payload.kind(), tr.payload.token_block());
                    if !is_input(kind)
                        && self.logical.is_some()
                        && !backend.accumulates(dev, kind, tb)
                    {
                        return Err(at.err(
                            ViolationKind::MissingProducerState,
                            format!("sends {kind:?} for {tb:?} it never computed"),
                        ));
                    }
                    let slot = backend.deposit(dev, cid.0, tr);
                    if backend.landed(&slot) {
                        wake.landed(cid.0, tr.to);
                    }
                    flights[i] = Flight::Sent(slot);
                }
                Ok(true)
            }
            Instr::CommWait(cid) => {
                let c = cid.0 as usize;
                let op = &self.phase.comms[c];
                let flights = &mut st.flights[st.base[c]..][..op.transfers.len()];
                let run = &st.routes.to[st.base[c]..st.base[c + 1]];
                let arriving = || own(run, dev).map(|i| (i, &op.transfers[i]));
                // The first transfer that is not here decides.
                for (i, tr) in arriving() {
                    match &flights[i] {
                        // Only this device deposits its own inputs, so a
                        // missing one can never arrive; a missing partial
                        // still may.
                        Flight::Pending if is_input(tr.payload.kind()) => {
                            return Err(at.err(
                                ViolationKind::WaitWithoutLaunch,
                                format!("waits on input op {} before launching it", cid.0),
                            ));
                        }
                        Flight::Sent(slot) if backend.landed(slot) => {}
                        Flight::Arrived => {}
                        Flight::Pending | Flight::Sent(_) => {
                            wake.blocked[d] = Some(cid.0);
                            return Ok(false);
                        }
                    }
                }
                for (i, tr) in arriving() {
                    let Flight::Sent(slot) = std::mem::replace(&mut flights[i], Flight::Arrived)
                    else {
                        continue;
                    };
                    if self.logical.is_some() {
                        st.arrived.put(dev, tr.payload, slot);
                    }
                }
                Ok(true)
            }
            Instr::Attn { items, .. } | Instr::AttnBwd { items, .. } => {
                let Some((layout, placement)) = self.logical else {
                    return Ok(true);
                };
                let backward = matches!(ins, Instr::AttnBwd { .. });
                if backward != self.backward {
                    let (is, phase) = if backward {
                        ("backward", "forward")
                    } else {
                        ("forward", "backward")
                    };
                    return Err(at.err(
                        ViolationKind::WrongPhase,
                        format!("{is} attention in {phase} phase"),
                    ));
                }
                let arrived = &st.arrived;
                // An input is a local read (`None`) or an arrived slot; the
                // error is the payload that is neither.
                let fetch = |p: Payload| match placement.token_dev(p.token_block()) == dev {
                    true => Ok(None),
                    false => arrived.get(dev, p).map(Some).ok_or(p),
                };
                let resolve = |c: CompBlockId| {
                    let cb = &layout.comp_blocks[c.0 as usize];
                    Ok(AttnItem {
                        q_block: cb.q_block,
                        kv_block: cb.kv_block,
                        q: fetch(Payload::Q(cb.q_block))?,
                        kv: fetch(Payload::Kv(cb.kv_block))?,
                        d_o: match backward {
                            true => fetch(Payload::DO(cb.q_block))?,
                            false => None,
                        },
                    })
                };
                let mut resolved = Vec::with_capacity(items.len());
                for &c in items {
                    resolved.push(resolve(c).map_err(|missing: Payload| {
                        let verb = if backward { "bwd" } else { "computes" };
                        let name = match missing {
                            Payload::Q(_) => "Q",
                            Payload::Kv(_) => "KV",
                            _ => "dO",
                        };
                        let tb = missing.token_block();
                        at.err(
                            ViolationKind::MissingInput,
                            format!("{verb} {c:?} without {name}({tb:?})"),
                        )
                    })?);
                }
                backend.attn(dev, backward, &resolved);
                Ok(true)
            }
            Instr::Reduce { items, .. } => {
                if self.logical.is_none() {
                    return Ok(true);
                }
                let sources = items.iter().map(|item| item.sources.len()).max();
                let mut parts = Vec::with_capacity(sources.unwrap_or(0));
                for item in items {
                    let tb = item.target;
                    if is_input(item.kind) || !kind_in_phase(item.kind, self.backward) {
                        return Err(at.err(
                            ViolationKind::WrongPhase,
                            format!("reduce of {:?} in the wrong phase", item.kind),
                        ));
                    }
                    // A forward reduce finalizes the block from the local
                    // accumulator and the sources: it needs at least one.
                    if !self.backward
                        && item.sources.is_empty()
                        && !backend.accumulates(dev, item.kind, tb)
                    {
                        return Err(at.err(
                            ViolationKind::MissingPartial,
                            format!("reduces {tb:?} from no source and no local accumulator"),
                        ));
                    }
                    parts.clear();
                    for &src in &item.sources {
                        let p = item
                            .source_payload(src)
                            .expect("partial kind checked above");
                        parts.push(st.arrived.get(dev, p).ok_or_else(|| {
                            at.err(
                                ViolationKind::MissingPartial,
                                format!("reduces {tb:?} without partial from {src}"),
                            )
                        })?);
                    }
                    backend.reduce(dev, item, &parts);
                }
                Ok(true)
            }
            Instr::Copy { .. } => Ok(true),
        }
    }
}
