//! Error types for the simulation MPI layer.

use collectives::{select::UnsupportedAlgorithm, ScheduleError};
use core::fmt;

/// Errors surfaced by the public `mpisim` API.
#[derive(Debug, Clone, PartialEq)]
pub enum SimMpiError {
    /// Requested communicator size is outside the machine's valid range.
    InvalidSize {
        /// The size requested.
        requested: usize,
        /// The machine's measured maximum.
        max: usize,
    },
    /// A rank argument was out of range for the communicator.
    InvalidRank {
        /// The offending rank index.
        rank: usize,
        /// Communicator size.
        size: usize,
    },
    /// The machine specification failed validation.
    InvalidSpec(String),
    /// A schedule failed validation before execution.
    BadSchedule(ScheduleError),
    /// The algorithm cannot implement the requested operation.
    Unsupported(UnsupportedAlgorithm),
    /// A schedule's rank count does not match the communicator.
    SizeMismatch {
        /// Ranks in the schedule.
        schedule: usize,
        /// Ranks in the communicator.
        communicator: usize,
    },
    /// A run was given per-rank start times
    /// ([`crate::RunOptions::start_times`]) of the wrong length.
    BadStartTimes {
        /// Entries supplied.
        got: usize,
        /// Entries required (one per rank).
        expected: usize,
    },
    /// A run was given no segments.
    EmptySequence,
    /// A rank did not run through every segment even though validation
    /// passed (or was skipped via
    /// [`crate::RunOptions::skip_validation`]): the executor stalled
    /// waiting on a message that never arrived.
    ///
    /// Positions count over the whole sequence: each segment gives a
    /// rank one position for its entry, one per step of the rank's
    /// program, and one for its end, so a segment whose program for the
    /// rank has `n` steps spans `n + 2` positions.
    RankStalled {
        /// The stalled rank.
        rank: usize,
        /// Position reached.
        step: usize,
        /// The rank's positions in the whole sequence.
        of: usize,
    },
    /// A rank would step through more than 2³² positions (counted as in
    /// [`SimMpiError::RankStalled`]), more than the executor's `u32`
    /// step events can address. Refused before the run starts.
    SequenceTooLong {
        /// The first rank over the limit.
        rank: usize,
        /// Its positions in the whole sequence.
        positions: u64,
    },
}

impl fmt::Display for SimMpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimMpiError::InvalidSize { requested, max } => write!(
                f,
                "communicator size {requested} outside the machine's 1..={max} range"
            ),
            SimMpiError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for {size} ranks")
            }
            SimMpiError::InvalidSpec(msg) => write!(f, "invalid machine spec: {msg}"),
            SimMpiError::BadSchedule(e) => write!(f, "invalid schedule: {e}"),
            SimMpiError::Unsupported(e) => write!(f, "{e}"),
            SimMpiError::SizeMismatch {
                schedule,
                communicator,
            } => write!(
                f,
                "schedule built for {schedule} ranks, communicator has {communicator}"
            ),
            SimMpiError::BadStartTimes { got, expected } => {
                write!(f, "expected {expected} start times, got {got}")
            }
            SimMpiError::EmptySequence => write!(f, "sequence must contain a segment"),
            SimMpiError::RankStalled { rank, step, of } => {
                write!(f, "rank {rank} stalled at tape position {step}/{of}")
            }
            SimMpiError::SequenceTooLong { rank, positions } => write!(
                f,
                "rank {rank} would step through {positions} positions, more than 2^32"
            ),
        }
    }
}

impl std::error::Error for SimMpiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimMpiError::BadSchedule(e) => Some(e),
            SimMpiError::Unsupported(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for SimMpiError {
    fn from(e: ScheduleError) -> Self {
        SimMpiError::BadSchedule(e)
    }
}

impl From<UnsupportedAlgorithm> for SimMpiError {
    fn from(e: UnsupportedAlgorithm) -> Self {
        SimMpiError::Unsupported(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SimMpiError::InvalidSize {
            requested: 256,
            max: 128,
        };
        assert!(e.to_string().contains("256"));
        let e = SimMpiError::InvalidRank { rank: 9, size: 4 };
        assert!(e.to_string().contains("rank 9"));
    }

    #[test]
    fn conversions_wrap() {
        let se = ScheduleError::UnconsumedMessages { count: 2 };
        let e: SimMpiError = se.clone().into();
        assert_eq!(e, SimMpiError::BadSchedule(se));
    }
}
