//! The common error type shared by all DCP crates.

use std::fmt;

/// Result alias using [`DcpError`].
pub type DcpResult<T> = Result<T, DcpError>;

/// Errors produced anywhere in the DCP stack.
///
/// The variants are deliberately coarse: each one carries a human readable
/// message describing the precise failure, and the variant selects the
/// subsystem so callers can match on the class of failure without parsing
/// strings.
#[derive(Debug, Clone, PartialEq)]
pub enum DcpError {
    /// An argument violated a documented precondition.
    InvalidArgument(String),
    /// A mask specification is inconsistent with the sequence it is applied
    /// to (e.g. boundaries out of range).
    InvalidMask(String),
    /// An execution plan is malformed (e.g. a `CommWait` without a matching
    /// `CommLaunch`, or a buffer index out of range).
    InvalidPlan(String),
    /// A numerical execution failed an internal consistency check.
    Numerics(String),
    /// Plan (de)serialization failed.
    Serialization(String),
    /// Planning a specific batch failed after all retries (look-ahead
    /// worker death/timeout plus synchronous re-planning). Carries enough
    /// structure for callers to account for the lost batch without parsing
    /// strings.
    PlanningFailed {
        /// Index of the batch whose plan could not be produced.
        batch_index: usize,
        /// Total planning attempts made (initial look-ahead + retries).
        attempts: u32,
        /// Human-readable description of the last failure.
        last_error: String,
    },
    /// A [`FailureEvent`](https://docs.rs/dcp-core) names an execution
    /// frontier the failed device never reached: `divisions_done` exceeds
    /// the number of attention divisions scheduled on that device's stream
    /// (summed over any recovery-shard streams it was hosting). Carries the
    /// device and the out-of-range frontier so fault-campaign drivers can
    /// clamp and retry without parsing strings.
    InvalidFailureEvent {
        /// Physical rank named by the failure event.
        device: u32,
        /// The out-of-range `divisions_done` frontier.
        frontier: u32,
    },
}

impl DcpError {
    /// Convenience constructor for [`DcpError::InvalidArgument`].
    pub fn invalid_argument(msg: impl Into<String>) -> Self {
        DcpError::InvalidArgument(msg.into())
    }

    /// Convenience constructor for [`DcpError::InvalidPlan`].
    pub fn invalid_plan(msg: impl Into<String>) -> Self {
        DcpError::InvalidPlan(msg.into())
    }

    /// Convenience constructor for [`DcpError::PlanningFailed`].
    pub fn planning_failed(
        batch_index: usize,
        attempts: u32,
        last_error: impl Into<String>,
    ) -> Self {
        DcpError::PlanningFailed {
            batch_index,
            attempts,
            last_error: last_error.into(),
        }
    }

    /// Convenience constructor for [`DcpError::InvalidFailureEvent`].
    pub fn invalid_failure_event(device: u32, frontier: u32) -> Self {
        DcpError::InvalidFailureEvent { device, frontier }
    }
}

impl fmt::Display for DcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcpError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            DcpError::InvalidMask(m) => write!(f, "invalid mask: {m}"),
            DcpError::InvalidPlan(m) => write!(f, "invalid plan: {m}"),
            DcpError::Numerics(m) => write!(f, "numerical check failed: {m}"),
            DcpError::Serialization(m) => write!(f, "serialization error: {m}"),
            DcpError::PlanningFailed {
                batch_index,
                attempts,
                last_error,
            } => write!(
                f,
                "planning failed for batch {batch_index} after {attempts} attempt(s): \
                 {last_error}"
            ),
            DcpError::InvalidFailureEvent { device, frontier } => write!(
                f,
                "invalid failure event: device {device} has fewer than divisions_done = \
                 {frontier} attention divisions"
            ),
        }
    }
}

impl std::error::Error for DcpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_subsystem_and_message() {
        let e = DcpError::invalid_argument("block size must be > 0");
        assert_eq!(e.to_string(), "invalid argument: block size must be > 0");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&DcpError::invalid_plan("x"));
    }

    #[test]
    fn planning_failed_carries_structure() {
        let e = DcpError::planning_failed(7, 3, "worker panicked");
        match &e {
            DcpError::PlanningFailed {
                batch_index,
                attempts,
                last_error,
            } => {
                assert_eq!(*batch_index, 7);
                assert_eq!(*attempts, 3);
                assert_eq!(last_error, "worker panicked");
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let s = e.to_string();
        assert!(s.contains("batch 7"), "{s}");
        assert!(s.contains("3 attempt"), "{s}");
    }

    #[test]
    fn invalid_failure_event_carries_structure() {
        let e = DcpError::invalid_failure_event(3, 1000);
        match &e {
            DcpError::InvalidFailureEvent { device, frontier } => {
                assert_eq!(*device, 3);
                assert_eq!(*frontier, 1000);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let s = e.to_string();
        assert!(s.contains("device 3"), "{s}");
        assert!(s.contains("divisions_done = 1000"), "{s}");
    }
}
