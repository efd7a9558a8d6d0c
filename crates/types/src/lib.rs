//! Shared vocabulary types for the DCP (Dynamic Context Parallelism) stack.
//!
//! This crate defines the basic identifiers, hardware descriptions and model
//! shapes that every other crate in the workspace builds on:
//!
//! - [`DeviceId`] / [`NodeId`]: logical addresses inside a training cluster.
//! - [`ClusterSpec`]: the machine topology (devices per node, link bandwidths,
//!   compute throughput) used by the planner and the simulator.
//! - [`AttnSpec`]: the shape of one attention operator (GQA-aware).
//! - [`ModelSpec`]: the shape of a whole transformer used by the end-to-end
//!   iteration model.
//! - [`DcpError`]: the common error type.
//!
//! The default constants mirror the paper's testbed: Amazon EC2
//! `p4de.24xlarge` instances with 8 NVIDIA A100-80GB GPUs per node, NVSwitch
//! (600 GB/s bidirectional per GPU) inside a node and 4x100 Gbps EFA NICs
//! between nodes.

pub mod cluster;
pub mod error;
pub mod model;
pub mod robust;
pub mod units;

pub use cluster::{ClusterSpec, CostModel, DeviceId, NodeId, TierSpec, TopologySpec};
pub use error::{DcpError, DcpResult};
pub use model::{AttnSpec, ModelSpec};
pub use robust::PlanTier;
pub use units::{Bytes, Flops, Seconds};
