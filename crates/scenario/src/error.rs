//! Typed errors for pack parsing, validation, registry resolution, and
//! checkpoint decode.
//!
//! Scenario packs are operator-supplied data files, so every way a pack
//! can be wrong gets its own variant with enough structure for a caller
//! (the CLI, the daemon's 400/422 mapping, tests) to branch without
//! string-matching prose. Nothing in this crate panics on bad input.

use std::fmt;

/// Everything the scenario layer can refuse with.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The pack text is not valid JSON (syntax error with byte offset).
    Json(String),
    /// The JSON is well-formed but not pack-shaped: a missing or
    /// unknown field, or a value of the wrong type.
    Schema {
        /// Dotted path of the offending field (`blocks[1].count`).
        field: String,
        /// What was wrong with it.
        why: String,
    },
    /// The pack parsed but describes an impossible scenario (zero
    /// blocks, duty outside [0, 1], non-finite hours, …).
    Invalid {
        /// Dotted path of the offending field.
        field: String,
        /// Why the value is out of range.
        why: String,
    },
    /// A name lookup missed the registry.
    UnknownScenario {
        /// The name that missed.
        name: String,
        /// Every name the registry does know, sorted.
        available: Vec<String>,
    },
    /// A pack file or checkpoint file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        why: String,
    },
    /// A checkpoint failed structural verification (bad magic, short
    /// read, checksum mismatch).
    Corrupt(String),
    /// A checkpoint is structurally sound but belongs to a different
    /// pack (fingerprint mismatch) — resuming it would silently blend
    /// two scenarios.
    Mismatch(String),
    /// A run with no fault plan still degraded — a real shard panic or a
    /// non-finite state value — so its report is not the clean run's.
    /// [`crate::run_pack`] returns this where [`crate::run_pack_supervised`]
    /// would hand back the report.
    Degraded(Box<dh_fault::DegradedReport>),
}

impl ScenarioError {
    /// Whether the error is the submitter's fault (malformed document)
    /// as opposed to a semantically invalid scenario — the daemon maps
    /// the former to 400 and the latter to 422.
    pub fn is_malformed(&self) -> bool {
        matches!(self, Self::Json(_) | Self::Schema { .. })
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Json(why) => write!(f, "bad JSON: {why}"),
            Self::Schema { field, why } => write!(f, "field `{field}`: {why}"),
            Self::Invalid { field, why } => write!(f, "invalid `{field}`: {why}"),
            Self::UnknownScenario { name, available } => {
                write!(
                    f,
                    "unknown scenario {name:?}; available: {}",
                    available.join(", ")
                )
            }
            Self::Io { path, why } => write!(f, "{path}: {why}"),
            Self::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            Self::Mismatch(why) => write!(f, "checkpoint mismatch: {why}"),
            Self::Degraded(report) => write!(f, "scenario run degraded:\n{}", report.render()),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<dh_fault::wire::WireError> for ScenarioError {
    fn from(e: dh_fault::wire::WireError) -> Self {
        Self::Corrupt(e.0)
    }
}

impl From<dh_fault::CheckpointError> for ScenarioError {
    fn from(e: dh_fault::CheckpointError) -> Self {
        Self::Io {
            path: e.path.display().to_string(),
            why: e.source.to_string(),
        }
    }
}

/// Shorthand constructor for [`ScenarioError::Schema`].
pub(crate) fn schema(field: impl Into<String>, why: impl Into<String>) -> ScenarioError {
    ScenarioError::Schema {
        field: field.into(),
        why: why.into(),
    }
}

/// Shorthand constructor for [`ScenarioError::Invalid`].
pub(crate) fn invalid(field: impl Into<String>, why: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid {
        field: field.into(),
        why: why.into(),
    }
}
