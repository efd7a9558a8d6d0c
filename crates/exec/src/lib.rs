//! Numerical executor for DCP execution plans (CPU, `f32`).
//!
//! The paper's executor runs fused FlashAttention/Triton kernels on GPUs; we
//! reproduce the *numerics* on the CPU to validate that any placement and
//! schedule the planner emits computes exactly the same attention (and
//! gradients) as a dense reference — the paper's precision claim (Sec. 7.4,
//! Fig. 21). Timing is the job of `dcp-sim`; this crate cares only about
//! values.
//!
//! - [`kernels`]: blockwise online-softmax attention forward, the
//!   rescale-and-merge reduction, and the exact FlashAttention-style
//!   backward for one (Q-block, KV-block) pair.
//! - [`reference`]: dense masked multi-head (GQA) attention forward and
//!   backward, the ground truth.
//! - [`executor`]: the numeric backend of the stream walker
//!   ([`dcp_sched::stream`]) for [`dcp_sched::ExecutionPlan`]s. Each device
//!   may only read data it owns or data that arrived through a waited
//!   communication operation — so a plan that under-communicates fails
//!   loudly instead of silently reading someone else's memory.
//! - [`train`]: a tiny real transformer with handwritten backprop, used to
//!   reproduce the loss-curve experiment (training with DCP-planned
//!   attention vs. dense attention).

pub mod executor;
pub mod kernels;
pub mod oracle;
pub mod reference;
pub mod train;

pub use executor::{
    execute_backward, execute_backward_recovery, execute_forward, execute_forward_obs,
    execute_forward_recovery, BatchData, BlockGrads, BlockOut, ExecObs,
};
pub use oracle::{
    forward_outputs_identical, grads_identical, plans_equivalent, random_output_grads,
};
