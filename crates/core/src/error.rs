//! The one error type of the Privacy-MaxEnt public API.
//!
//! Every fallible operation in this crate — [`crate::engine::Engine`],
//! [`crate::analyst::Analyst`], knowledge compilation, the individual
//! engine, report sweeps — returns [`PmError`]. The enum is
//! `#[non_exhaustive]` so future subsystems can add variants without a
//! breaking release, and it chains sources through
//! [`std::error::Error::source`]: a failed component re-solve surfaces as
//! [`PmError::Component`] whose source is the underlying solver/feasibility
//! error, so `anyhow`-style chain printers show
//! `component 17 failed: solver failed to converge (residual 3.1e0)`.

use std::fmt;

use crate::analyst::KnowledgeHandle;

/// Errors raised while compiling or solving a Privacy-MaxEnt instance.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PmError {
    /// The constraint system is infeasible: preprocessing derived a
    /// contradiction (e.g. a non-negative sum pinned to a negative value, or
    /// an emptied constraint with non-zero residual target).
    ///
    /// Knowledge mined from the original data can never trigger this
    /// (Section 4.2 — the true assignment is feasible); hand-written
    /// knowledge can.
    Infeasible {
        /// Human-readable description of the contradiction.
        detail: String,
    },
    /// A knowledge item references a QI tuple position, SA value, or
    /// pseudonym outside the published table's domains.
    InvalidKnowledge {
        /// Description of the offending reference.
        detail: String,
    },
    /// A probability parameter lies outside `[0, 1]`.
    InvalidProbability(f64),
    /// A solve stopped outside its accuracy bound, so no estimate is
    /// returned. For a component solve the bound is
    /// [`crate::engine::EngineConfig::residual_limit`] times the
    /// component's record mass.
    SolverFailed {
        /// The constraint residual the solve left (`‖A p − c‖∞`).
        residual: f64,
    },
    /// Knowledge about individuals was passed to an entry point that only
    /// handles distribution knowledge; use
    /// [`crate::individuals::IndividualEngine`] or
    /// [`crate::analyst::Analyst::set_individuals`] instead.
    RequiresIndividualEngine,
    /// A [`KnowledgeHandle`] that was never issued by this session, or
    /// whose item was already removed.
    StaleHandle {
        /// The offending handle.
        handle: KnowledgeHandle,
    },
    /// An independent component's re-solve failed during a session refresh.
    /// [`std::error::Error::source`] returns the underlying error.
    Component {
        /// Index of the failing component in the session's current
        /// partition (components ascend by smallest bucket id).
        index: usize,
        /// The underlying failure.
        source: Box<PmError>,
    },
    /// A record-level [`crate::delta::TableDelta`] operation is
    /// inconsistent with the published table (unknown bucket, SA value
    /// outside the domain, retracting a record the bucket does not hold).
    /// The whole delta is rejected; no new epoch is produced.
    InvalidDelta {
        /// Description of the offending operation.
        detail: String,
    },
    /// A handle from one table epoch was used against another: e.g.
    /// [`crate::analyst::Analyst::rebase`] was given an artifact that is
    /// not the direct successor of the session's current epoch (wrong
    /// lineage, skipped epochs, or going backwards).
    EpochMismatch {
        /// The epoch the session (or handle) is pinned to.
        session_epoch: u64,
        /// The epoch of the artifact it was used against.
        artifact_epoch: u64,
        /// What went wrong, human-readably.
        detail: String,
    },
    /// A persisted snapshot or WAL ([`crate::persist`]) failed validation:
    /// wrong magic, a checksum mismatch, a length running past the end of
    /// the file, an out-of-range id — anything that makes the bytes
    /// untrustworthy. The decoder never panics or over-allocates on
    /// corrupt input; it returns this, pointing at the offending bytes.
    Corrupt {
        /// The section (or file region) that failed: `"header"`,
        /// `"meta"`, `"buckets"`, `"wal"`, ….
        section: String,
        /// Absolute byte offset (within the file) where validation failed.
        offset: u64,
        /// What exactly was wrong.
        detail: String,
    },
    /// A persisted file declares a format version this build does not
    /// read. Bump-and-migrate is deliberate: the golden-fixture test fails
    /// loudly when the encoding drifts without a version bump.
    UnsupportedFormat {
        /// The version the file declares.
        found: u32,
        /// The version this build reads ([`crate::persist::FORMAT_VERSION`]).
        supported: u32,
    },
    /// An I/O failure while reading or writing a persisted artifact. The
    /// OS error is carried as text so [`PmError`] stays `Clone + PartialEq`.
    Io {
        /// The file or directory involved.
        path: String,
        /// The stringified OS error.
        detail: String,
    },
    /// Replaying a WAL record onto the snapshot failed: the record was
    /// fully committed (checksum and commit marker valid) but its delta no
    /// longer applies, or its recorded summary disagrees with the replay.
    /// [`std::error::Error::source`] returns the underlying error.
    WalReplay {
        /// The epoch the failing record was advancing the table to.
        epoch: u64,
        /// The underlying failure.
        source: Box<PmError>,
    },
}

impl PmError {
    /// Strips [`PmError::Component`] and [`PmError::WalReplay`] wrappers,
    /// returning the root cause.
    pub fn root_cause(&self) -> &PmError {
        match self {
            Self::Component { source, .. } | Self::WalReplay { source, .. } => {
                source.root_cause()
            }
            other => other,
        }
    }

    /// Unwraps one level of [`PmError::Component`] context (identity for
    /// every other variant) — the legacy `Engine::estimate` surface, which
    /// predates per-component context.
    pub(crate) fn into_root_cause(self) -> PmError {
        match self {
            Self::Component { source, .. } => source.into_root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for PmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Infeasible { detail } => write!(f, "infeasible constraint system: {detail}"),
            Self::InvalidKnowledge { detail } => write!(f, "invalid knowledge: {detail}"),
            Self::InvalidProbability(p) => write!(f, "probability {p} outside [0, 1]"),
            Self::SolverFailed { residual } => {
                write!(f, "solver failed to converge (residual {residual:.3e})")
            }
            Self::RequiresIndividualEngine => write!(
                f,
                "knowledge about individuals requires the pseudonym-expanded engine"
            ),
            Self::StaleHandle { handle } => {
                write!(f, "knowledge handle {handle:?} is not live in this session")
            }
            // Context only; the chain is walked via `source()`.
            Self::Component { index, .. } => {
                write!(f, "component {index} failed to re-solve")
            }
            Self::InvalidDelta { detail } => write!(f, "invalid table delta: {detail}"),
            Self::EpochMismatch { session_epoch, artifact_epoch, detail } => write!(
                f,
                "epoch mismatch: session at epoch {session_epoch}, artifact at epoch \
                 {artifact_epoch} ({detail})"
            ),
            Self::Corrupt { section, offset, detail } => {
                write!(f, "corrupt {section} section at byte {offset}: {detail}")
            }
            Self::UnsupportedFormat { found, supported } => write!(
                f,
                "persisted format version {found} is not readable by this build \
                 (supports version {supported})"
            ),
            Self::Io { path, detail } => write!(f, "i/o error on {path}: {detail}"),
            // Context only; the chain is walked via `source()`.
            Self::WalReplay { epoch, .. } => {
                write!(f, "replaying the WAL record for epoch {epoch} failed")
            }
        }
    }
}

impl std::error::Error for PmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Component { source, .. } | Self::WalReplay { source, .. } => {
                Some(source.as_ref())
            }
            _ => None,
        }
    }
}

/// Legacy name of [`PmError`], kept so pre-session call sites (and the
/// paper-era examples in downstream forks) keep compiling.
pub type CoreError = PmError;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn component_errors_chain_their_source() {
        let inner = PmError::SolverFailed { residual: 3.1 };
        let outer = PmError::Component { index: 17, source: Box::new(inner.clone()) };
        assert_eq!(outer.to_string(), "component 17 failed to re-solve");
        let chained = outer.source().expect("component carries a source");
        assert_eq!(chained.to_string(), inner.to_string());
        assert_eq!(outer.root_cause(), &inner);
        assert!(PmError::Infeasible { detail: "x".into() }.source().is_none());
    }

    #[test]
    fn persist_errors_display_and_chain() {
        let corrupt = PmError::Corrupt {
            section: "buckets".into(),
            offset: 96,
            detail: "checksum mismatch".into(),
        };
        assert_eq!(corrupt.to_string(), "corrupt buckets section at byte 96: checksum mismatch");
        assert!(corrupt.source().is_none());

        let version = PmError::UnsupportedFormat { found: 9, supported: 1 };
        assert_eq!(
            version.to_string(),
            "persisted format version 9 is not readable by this build (supports version 1)"
        );

        let io = PmError::Io { path: "/tmp/x.pmx".into(), detail: "permission denied".into() };
        assert_eq!(io.to_string(), "i/o error on /tmp/x.pmx: permission denied");

        let replay = PmError::WalReplay { epoch: 3, source: Box::new(corrupt.clone()) };
        assert_eq!(replay.to_string(), "replaying the WAL record for epoch 3 failed");
        assert_eq!(replay.source().expect("chained").to_string(), corrupt.to_string());
        assert_eq!(replay.root_cause(), &corrupt);
    }

    #[test]
    fn root_cause_strips_nested_wrappers() {
        let root = PmError::Infeasible { detail: "deep".into() };
        let nested = PmError::Component {
            index: 1,
            source: Box::new(PmError::Component { index: 2, source: Box::new(root.clone()) }),
        };
        assert_eq!(nested.root_cause(), &root);
        assert_eq!(nested.into_root_cause(), root);
    }
}
