//! Fleet-layer errors.

use core::fmt;

/// Everything that can go wrong building, running, checkpointing, or
/// resuming a fleet simulation.
#[derive(Debug)]
pub enum FleetError {
    /// A configuration field is out of range or inconsistent.
    InvalidConfig(String),
    /// A report was requested before every shard was folded.
    NotFinished {
        /// Shards folded so far.
        done: u64,
        /// Total shards in the run.
        total: u64,
    },
    /// Reading or writing a checkpoint file failed.
    Io(String),
    /// A checkpoint's bytes do not parse (bad magic, truncation, or a
    /// checksum mismatch).
    Corrupt(String),
    /// A checkpoint was written by an incompatible snapshot format.
    Version {
        /// The version byte found in the file.
        found: u8,
        /// The version this build writes and reads.
        expected: u8,
    },
    /// A checkpoint belongs to a different [`crate::FleetConfig`] (the
    /// config fingerprint does not match), so resuming from it would
    /// silently mix two different simulations.
    ConfigMismatch {
        /// Fingerprint stored in the checkpoint.
        found: u64,
        /// Fingerprint of the config attempting to resume.
        expected: u64,
    },
    /// A run with no fault plan still degraded — a real shard panic or a
    /// chip's NaN/Inf sample — so its report is not the clean run's.
    /// [`crate::run_fleet`] returns this where the supervised entry
    /// points would hand back the report.
    Degraded(Box<dh_fault::DegradedReport>),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig(why) => write!(f, "invalid fleet config: {why}"),
            Self::NotFinished { done, total } => {
                write!(f, "fleet run not finished: {done}/{total} shards folded")
            }
            Self::Io(why) => write!(f, "checkpoint I/O failed: {why}"),
            Self::Corrupt(why) => write!(f, "checkpoint is corrupt: {why}"),
            Self::Version { found, expected } => {
                write!(
                    f,
                    "checkpoint version {found} (this build reads {expected})"
                )
            }
            Self::ConfigMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match config {expected:#018x}"
            ),
            Self::Degraded(report) => write!(f, "fleet run degraded:\n{}", report.render()),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<dh_fault::wire::WireError> for FleetError {
    fn from(e: dh_fault::wire::WireError) -> Self {
        Self::Corrupt(e.0)
    }
}

impl From<dh_fault::CheckpointError> for FleetError {
    fn from(e: dh_fault::CheckpointError) -> Self {
        Self::Io(e.to_string())
    }
}
