//! A discrete-event cluster simulator for DCP execution plans.
//!
//! This crate stands in for the paper's 32–64×A100 testbed (see DESIGN.md's
//! substitution table). It executes the per-device instruction streams of an
//! [`dcp_sched::ExecutionPlan`] against a [`dcp_types::ClusterSpec`]:
//!
//! - **Compute**: each fused attention/reduction/copy instruction occupies
//!   its device for `work / throughput + kernel_overhead` seconds — the
//!   per-kernel overhead term is what makes many-small-step baselines pay
//!   (the paper's Fig. 22 backward-overhead observation).
//! - **Network** ([`network`]): transfers are fluid flows sharing link
//!   capacity max-min fairly. Intra-node flows consume per-device NVSwitch
//!   ingress/egress; inter-node flows consume the per-node NIC
//!   ingress/egress shared by all eight GPUs of a node (the paper's p4de
//!   topology). Rates are recomputed whenever a flow starts or finishes.
//! - **Overlap**: `CommLaunch` is asynchronous; `CommWait` blocks the device
//!   and the blocked time is recorded as *exposed* communication, while flow
//!   activity concurrent with compute is recorded as *overlapped* — giving
//!   the decomposition of the paper's Fig. 1 and Fig. 22 directly.
//!
//! One entry point, [`simulate`]: a phase on a cluster under a
//! [`FaultSpec`] (deterministic stragglers, degraded/failed links and
//! delayed workers, see [`fault`]), returning result, trace and counters as
//! a [`SimRun`]. The streams are advanced by `dcp_sched::stream`'s walker,
//! as for the executor and the verifier; [`sim`] is its timing backend.
//! [`simulate_on`] is the same walk on a caller-built
//! [`network::Network`] (the scratch reference engine, for the tests and
//! reports that hold the incremental one to it). The other `simulate_*`
//! names are thin calls `benchmark/` uses.

pub mod fault;
pub mod network;
pub mod sim;
pub mod trace;

pub use fault::{Fault, FaultSpec, FAILED_LINK_FACTOR};
pub use sim::{
    simulate, simulate_on, simulate_phase_counted, simulate_plan, simulate_plan_faulted,
    DeviceTimeline, PhaseSim, PlanSim, SimCounters, SimRun,
};
pub use trace::{ascii_gantt, trace_to_obs, TraceEvent, TraceKind};
