//! Error type for OS-level operations.

use std::fmt;

/// Errors surfaced by simulated OS calls.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Unknown process id.
    NoSuchProcess(usize),
    /// Unknown segment id within a process.
    NoSuchSegment(usize),
    /// A page range exceeded its segment.
    RangeOutOfBounds { start: u64, len: u64, segment_len: u64 },
    /// A policy referenced nodes outside the machine.
    InvalidNodes(String),
    /// Weighted interleave with invalid weights.
    InvalidWeights(String),
    /// An [`crate::AppProfile`] parameter out of range, or a bad phase
    /// timeline.
    InvalidProfile(String),
    /// Operation requires a running process but it already finished.
    ProcessFinished(usize),
    /// An arrival or departure time in the simulated past (or non-finite).
    InvalidTime(String),
    /// A [`crate::SimConfig`] parameter out of range.
    InvalidConfig(String),
    /// Physical memory exhausted while placing pages.
    OutOfMemory,
    /// A bounded run ended before the awaited process finished.
    Timeout {
        /// The process that was awaited.
        pid: usize,
        /// Simulated-time deadline that was hit.
        deadline: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoSuchProcess(p) => write!(f, "no such process {p}"),
            SimError::NoSuchSegment(s) => write!(f, "no such segment {s}"),
            SimError::RangeOutOfBounds { start, len, segment_len } => {
                write!(f, "range {start}+{len} out of bounds (segment has {segment_len} pages)")
            }
            SimError::InvalidNodes(s) => write!(f, "invalid node set: {s}"),
            SimError::InvalidWeights(s) => write!(f, "invalid weights: {s}"),
            SimError::InvalidProfile(s) => write!(f, "invalid workload profile: {s}"),
            SimError::ProcessFinished(p) => write!(f, "process {p} already finished"),
            SimError::InvalidTime(s) => write!(f, "invalid time: {s}"),
            SimError::InvalidConfig(s) => write!(f, "invalid simulator config: {s}"),
            SimError::OutOfMemory => write!(f, "physical memory exhausted"),
            SimError::Timeout { pid, deadline } => {
                write!(f, "process {pid} did not finish by simulated t={deadline}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SimError::NoSuchProcess(3).to_string().contains('3'));
        let e = SimError::RangeOutOfBounds { start: 10, len: 5, segment_len: 12 };
        assert!(e.to_string().contains("10+5"));
    }
}
