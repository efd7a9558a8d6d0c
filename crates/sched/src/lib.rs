//! Division scheduling, buffer management and the execution-plan IR
//! (paper Sec. 4.3 and Sec. 5).
//!
//! Given a [`dcp_blocks::BatchLayout`] and a [`Placement`] (the device
//! assignment of every token block and computation block, produced by the
//! hypergraph partitioner or by a baseline), this crate:
//!
//! 1. derives the required communication (input fetches and output partial
//!    returns, deduplicated per destination device),
//! 2. groups each device's computation blocks into at most `T` *divisions*
//!    — the paper's greedy heuristic (Listing 3) orders them, the
//!    simulator's cost model places the cuts — so the communication of
//!    division `i+1` overlaps the computation of division `i`,
//! 3. emits per-device instruction streams over the paper's five
//!    instructions — blockwise attention, blockwise reduction, blockwise
//!    copy, communication launch, communication wait — for both the forward
//!    and the backward pass, and
//! 4. replays the streams through [`buffer::compute_stats`] to account for
//!    peak block-buffer memory with slot reuse.
//!
//! The resulting [`ExecutionPlan`] is given meaning by one driver, the
//! [`stream`] walker, which the numerical executor (`dcp-exec`), the
//! verifier ([`verify`]) and the cluster simulator (`dcp-sim`) plug
//! backends into. Plans serialize to
//! JSON for the dataloader-to-executor handoff the paper implements with a
//! distributed KV store.

pub mod buffer;
pub mod passes;
pub mod placement;
pub mod plan;
pub mod report;
pub mod schedule;
pub mod stream;
mod table;
pub mod verify;

pub use buffer::BufferStats;
pub use passes::{PassConfig, PassManager, PassOutcome};
pub use placement::Placement;
pub use plan::{
    CommId, CommOp, DeviceStream, ExecutionPlan, Instr, Payload, PayloadKind, PhasePlan,
    ReduceItem, Transfer,
};
pub use report::{DeviceReport, PlanReport};
pub use schedule::{build_plan, modelled_finish, DivisionLoad, ScheduleConfig};
pub use verify::{verify_plan, verify_structure, Diagnostic, ViolationKind};
