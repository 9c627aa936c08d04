//! Engine errors.

use crate::dataset::DatasetId;
use std::fmt;
use std::time::Duration;

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A sketch failed to run (bad column, bad config).
    Sketch(String),
    /// Wire (de)serialization failed — a corrupt frame.
    Wire(String),
    /// A worker does not hold the requested dataset (soft state evicted or
    /// worker restarted). The root recovers by replaying the redo log.
    DatasetMissing {
        /// Worker reporting the miss.
        worker: usize,
        /// The dataset it lacks.
        dataset: DatasetId,
    },
    /// A worker is down (fault injection, crash, or heartbeat loss).
    WorkerDown(usize),
    /// The query was cancelled by the user.
    Cancelled,
    /// A data source failed to load.
    Source(String),
    /// The redo log has no entry for a dataset (nothing to replay).
    UnknownDataset(DatasetId),
    /// A named data source or UDF is not registered.
    Unregistered(String),
    /// A worker-side task (a leaf summarize or a dataset operation)
    /// panicked. The panic is isolated to the task — the pool thread, the
    /// worker, and the process all survive — and retrying is sound: leaf
    /// execution has no side effects and dataset ops are idempotent.
    LeafPanicked {
        /// Worker whose task panicked.
        worker: usize,
        /// The panic message.
        message: String,
    },
    /// The query exceeded its [`QueryOptions::deadline`](crate::cluster::QueryOptions::deadline)
    /// (`crate::cluster::QueryOptions::deadline`): a worker went silent or
    /// stragglers kept the tree from finishing in time.
    DeadlineExceeded {
        /// How long the query had run when the deadline fired.
        elapsed: Duration,
    },
    /// The retry budget ([`RetryPolicy`](crate::engine::RetryPolicy)) was
    /// exhausted without a successful attempt; carries the final failure.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// The last error observed.
        last: Box<EngineError>,
    },
    /// An engine invariant was violated (a "can't happen" state reached
    /// without panicking). Carries a description for the operator; never
    /// retryable, because the same broken state would be observed again.
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sketch(m) => write!(f, "sketch error: {m}"),
            EngineError::Wire(m) => write!(f, "wire error: {m}"),
            EngineError::DatasetMissing { worker, dataset } => {
                write!(f, "worker {worker} is missing dataset {dataset:?}")
            }
            EngineError::WorkerDown(w) => write!(f, "worker {w} is down"),
            EngineError::Cancelled => write!(f, "query cancelled"),
            EngineError::Source(m) => write!(f, "data source error: {m}"),
            EngineError::UnknownDataset(d) => write!(f, "no redo-log entry for dataset {d:?}"),
            EngineError::Unregistered(n) => write!(f, "not registered: {n}"),
            EngineError::LeafPanicked { worker, message } => {
                write!(f, "task panicked on worker {worker}: {message}")
            }
            EngineError::DeadlineExceeded { elapsed } => {
                write!(f, "query deadline exceeded after {elapsed:?}")
            }
            EngineError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            EngineError::Internal(m) => write!(f, "internal engine invariant violated: {m}"),
        }
    }
}

impl EngineError {
    /// True for failures that a bounded retry can plausibly heal:
    /// transient worker/infrastructure faults, as opposed to deterministic
    /// query errors (bad column, cancelled, unknown dataset) that would
    /// fail identically on every attempt.
    ///
    /// Deliberately an exhaustive match with no wildcard arm, enforced by
    /// the two clippy denies below: adding a variant without deciding its
    /// retry class is a compile error, not a silent default.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn is_retryable(&self) -> bool {
        match self {
            // Transient: soft state can be replayed, workers restart, and
            // corrupt frames / isolated task panics do not repeat
            // deterministically.
            EngineError::DatasetMissing { .. } => true,
            EngineError::WorkerDown(_) => true,
            EngineError::LeafPanicked { .. } => true,
            EngineError::Wire(_) => true,
            // Deterministic: the same query would fail the same way.
            EngineError::Sketch(_) => false,
            EngineError::Cancelled => false,
            EngineError::Source(_) => false,
            EngineError::UnknownDataset(_) => false,
            EngineError::Unregistered(_) => false,
            // Budget errors: retrying a deadline or an exhausted retry loop
            // inside another retry loop would multiply the budget.
            EngineError::DeadlineExceeded { .. } => false,
            EngineError::RetriesExhausted { .. } => false,
            // Broken invariants reproduce until the process is replaced.
            EngineError::Internal(_) => false,
        }
    }
}

impl std::error::Error for EngineError {}

impl From<hillview_sketch::SketchError> for EngineError {
    fn from(e: hillview_sketch::SketchError) -> Self {
        EngineError::Sketch(e.to_string())
    }
}

impl From<hillview_net::Error> for EngineError {
    fn from(e: hillview_net::Error) -> Self {
        EngineError::Wire(e.to_string())
    }
}

impl From<hillview_columnar::Error> for EngineError {
    fn from(e: hillview_columnar::Error) -> Self {
        EngineError::Sketch(e.to_string())
    }
}

/// Result alias using [`EngineError`].
pub type EngineResult<T> = Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_worker_and_dataset() {
        let e = EngineError::DatasetMissing {
            worker: 3,
            dataset: DatasetId(7),
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('7'));
    }

    #[test]
    fn conversions() {
        let e: EngineError = hillview_sketch::SketchError::BadConfig("x".into()).into();
        assert!(matches!(e, EngineError::Sketch(_)));
        let e: EngineError = hillview_net::Error::BadUtf8.into();
        assert!(matches!(e, EngineError::Wire(_)));
    }

    #[test]
    fn retryability_split() {
        assert!(EngineError::WorkerDown(0).is_retryable());
        assert!(EngineError::LeafPanicked {
            worker: 1,
            message: "x".into()
        }
        .is_retryable());
        assert!(EngineError::DatasetMissing {
            worker: 0,
            dataset: DatasetId(1)
        }
        .is_retryable());
        assert!(!EngineError::Cancelled.is_retryable());
        assert!(!EngineError::Sketch("bad column".into()).is_retryable());
        assert!(!EngineError::DeadlineExceeded {
            elapsed: Duration::from_secs(1)
        }
        .is_retryable());
        assert!(!EngineError::Internal("channel sender dropped".into()).is_retryable());
    }
}
