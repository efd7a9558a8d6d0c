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
//! Entry points: [`simulate_phase`] and [`simulate_plan`]. The
//! fault-injected variants [`simulate_phase_faulted`] and
//! [`simulate_plan_faulted`] perturb a run with deterministic stragglers,
//! degraded/failed links and delayed workers (see [`fault`]).

pub mod fault;
pub mod network;
pub mod sim;
pub mod trace;

pub use fault::{estimate_fault_spec, Fault, FaultSpec, FAILED_LINK_FACTOR, MIN_CAPACITY_WEIGHT};
pub use sim::{
    simulate_phase, simulate_phase_counted, simulate_phase_faulted, simulate_phase_scratch,
    simulate_phase_traced, simulate_plan, simulate_plan_faulted, DeviceTimeline, PhaseSim, PlanSim,
    SimCounters,
};
pub use trace::{ascii_gantt, to_chrome_trace, trace_to_obs, TraceEvent, TraceKind};
