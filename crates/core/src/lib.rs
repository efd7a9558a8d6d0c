//! The DCP planner, dataloader and end-to-end iteration model.
//!
//! This crate ties the stack together (paper Fig. 8):
//!
//! - [`planner`]: per-batch planning — block generation (`dcp-blocks`),
//!   hierarchical hypergraph placement (`dcp-hypergraph`; machines first
//!   with ε = 0.4, then devices within each machine with ε = 0.1), and
//!   division scheduling (`dcp-sched`) — producing a ready-to-execute
//!   [`dcp_sched::ExecutionPlan`].
//! - [`dataloader`]: the look-ahead dataloader of Sec. 6.1 — plans for the
//!   next κ batches are computed in parallel on the loader's own planning
//!   threads while the current iteration "executes", hiding planning
//!   latency.
//! - [`e2e`]: the end-to-end iteration model for the paper's 8B-GPT
//!   experiments — attention time comes from the plan simulator, while
//!   context-independent operators, gradient synchronization and the
//!   optimizer are charged identically for DCP and the baselines (which is
//!   the paper's own explanation for why end-to-end speedups are smaller
//!   than micro-benchmark speedups).

pub mod dataloader;
pub mod e2e;
pub mod groups;
pub mod planner;
pub mod recovery;

pub use dataloader::{
    DataloaderSnapshot, DcpDataloader, FailureClass, PlanFn, ReplanEvent, RetryConfig,
};
pub use e2e::{cp_cluster, simulate_iteration, E2eConfig, IterationBreakdown};
pub use groups::{plan_grouped, GroupedPlan};
pub use planner::{
    IncrementalConfig, PlanOutput, PlanStats, Planner, PlannerConfig, PlanningTimes,
};
pub use recovery::{FailureEvent, RecoveryPatch, RecoveryPlanner, RecoveryStats};
