//! Which placement produced a plan.
//!
//! The planner has one placement: the hierarchical hypergraph partition
//! (paper §4.2). A partition over its balance caps still ships, since it is
//! a legal plan and the best one the partitioner found. [`PlanTier`] names
//! that placement on every plan, span and report row.

use serde::{Deserialize, Serialize};

/// Which placement produced a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanTier {
    /// Hierarchical hypergraph partitioning (the paper's planner).
    Partitioned,
}

impl PlanTier {
    /// Short display label (used in reports and traces).
    pub fn label(&self) -> &'static str {
        match self {
            PlanTier::Partitioned => "partitioned",
        }
    }
}

impl std::fmt::Display for PlanTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(PlanTier::Partitioned.to_string(), "partitioned");
    }
}
