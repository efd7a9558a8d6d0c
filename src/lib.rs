//! # DCP: Dynamic Context Parallelism — facade crate
//!
//! A Rust reproduction of *DCP: Addressing Input Dynamism In Long-Context
//! Training via Dynamic Context Parallelism* (SOSP '25). This crate
//! re-exports the whole workspace under one roof; see the individual crates
//! for details:
//!
//! - [`types`]: cluster topology, attention/model shapes.
//! - [`mask`]: attention mask specifications (causal, lambda, causal
//!   blockwise, shared question) and blockwise sparsity queries.
//! - [`obs`]: unified observability layer — structured spans/counters/
//!   gauges threaded through planner, dataloader, executor and sim, with
//!   Chrome-trace and JSONL exporters and critical-path attribution.
//! - [`blocks`]: fine-grained data/computation block generation (paper §4.1).
//! - [`hypergraph`]: multilevel multi-constraint hypergraph partitioner
//!   (paper §4.2; a from-scratch KaHyPar replacement).
//! - [`sched`]: division scheduling, buffer management and the five-
//!   instruction execution-plan IR (paper §4.3, §5).
//! - [`exec`]: numerical blockwise attention executor (CPU f32) used to
//!   validate plan correctness and reproduce the loss-curve experiment.
//! - [`sim`]: discrete-event cluster simulator with a max-min fair network
//!   model, standing in for the paper's A100 testbed.
//! - [`baselines`]: RingFlashAttention (ring/zigzag), LoongTrain and
//!   TransformerEngine-style static context parallelism plan builders.
//! - [`data`]: synthetic long-context dataset generators and batching.
//! - [`core`]: the DCP planner, dataloader and end-to-end iteration model.
//!
//! ## Quickstart
//!
//! ```
//! use dcp::core::{Planner, PlannerConfig};
//! use dcp::mask::MaskSpec;
//! use dcp::types::{AttnSpec, ClusterSpec};
//!
//! // Two nodes of 8 GPUs, the paper's micro-benchmark attention op.
//! let cluster = ClusterSpec::p4de(2);
//! let planner = Planner::new(cluster, AttnSpec::paper_micro(), PlannerConfig::default());
//!
//! // A batch of three sequences with different masks.
//! let batch = vec![
//!     (4096u32, MaskSpec::Causal),
//!     (8192, MaskSpec::paper_lambda()),
//!     (2048, MaskSpec::Causal),
//! ];
//! let plan = planner.plan(&batch).unwrap();
//! assert_eq!(plan.num_devices(), 16);
//! ```

pub use dcp_baselines as baselines;
pub use dcp_blocks as blocks;
pub use dcp_core as core;
pub use dcp_data as data;
pub use dcp_exec as exec;
pub use dcp_hypergraph as hypergraph;
pub use dcp_mask as mask;
pub use dcp_obs as obs;
pub use dcp_sched as sched;
pub use dcp_sim as sim;
pub use dcp_types as types;
