//! A multilevel, multi-constraint hypergraph partitioner.
//!
//! DCP (paper Sec. 4.2) models the placement of data and computation blocks
//! as **balanced hypergraph partitioning**: vertices are blocks with
//! 2-dimensional weights `[flops, bytes]`, each hyperedge connects a data
//! block to every computation block that consumes or produces it (with the
//! data block's size as edge weight), and the objective is the
//! *connectivity-minus-one* metric
//!
//! ```text
//!     sum_e  w_e * (lambda_e - 1)
//! ```
//!
//! which equals the total communication volume of the placement. The paper
//! solves this with KaHyPar; this crate is a from-scratch replacement
//! implementing the same algorithm family:
//!
//! 1. **Coarsening** ([`coarsen`]): heavy-edge style matching contracts the
//!    hypergraph level by level until it is small.
//! 2. **Initial partitioning** ([`initial`]): a portfolio of greedy
//!    strategies assigns coarse vertices to `k` parts under the two balance
//!    constraints.
//! 3. **Refinement** ([`refine`]): the assignment is projected back through
//!    the levels, with boundary FM-style greedy refinement and balance
//!    repair at each level.
//!
//! The entry point is [`partition`]; [`Hypergraph`] is built with
//! [`HypergraphBuilder`].
//!
//! # Examples
//!
//! ```
//! use dcp_hypergraph::{HypergraphBuilder, PartitionConfig, partition};
//!
//! // Two triangles joined by one light edge: the obvious bisection cuts it.
//! let mut b = HypergraphBuilder::new(6);
//! for v in 0..6 {
//!     b.set_vertex_weight(v, [1, 1]);
//! }
//! b.add_edge(100, &[0, 1, 2]);
//! b.add_edge(100, &[3, 4, 5]);
//! b.add_edge(1, &[2, 3]);
//! let hg = b.build().unwrap();
//! let part = partition(&hg, &PartitionConfig::new(2)).unwrap();
//! assert_eq!(part.cost, 1);
//! assert_eq!(part.assignment[0], part.assignment[1]);
//! assert_eq!(part.assignment[3], part.assignment[4]);
//! assert_ne!(part.assignment[0], part.assignment[5]);
//! ```

pub mod coarsen;
pub mod graph;
pub mod initial;
pub mod partitioner;
pub mod refine;

pub use graph::{Hypergraph, HypergraphBuilder, VertexWeight};
pub use partitioner::{
    partition, partition_warm_with_stats, partition_with_stats, Partition, PartitionConfig,
    PartitionStats, PartitionWork,
};
