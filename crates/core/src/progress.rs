//! Progress reporting and cancellation.
//!
//! Paper §5.3: partial results flow to the UI as leaves complete; "Hillview
//! shows a progress bar that reflects the number of leafs that have
//! completed. Users can cancel the computation based on the partial results
//! they see." Cancellation "causes tree nodes to ... remove work for that
//! computation that was previously enqueued, and ignore requests for
//! micropartitions not yet started."

use bytes::Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cooperative cancellation flag shared across the execution tree.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A token that is not cancelled.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Request cancellation (idempotent).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once cancelled.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A partial result streamed to the client while a query runs.
///
/// Progress is measured in *work units* — one unit per selected row plus
/// one per micropartition — so a query over skewed partitions advances
/// smoothly as split sub-tasks complete, instead of jumping per partition.
#[derive(Debug, Clone)]
pub struct Partial {
    /// Fraction of work units completed, in `[0, 1]` (workers that have
    /// not reported yet contribute an estimated total).
    pub fraction: f64,
    /// Work units completed across reporting workers.
    pub work_done: u64,
    /// Work units total across reporting workers (0 until the first
    /// report arrives).
    pub work_total: u64,
    /// The partially merged summary, wire-encoded.
    pub summary: Bytes,
}

/// Callback invoked on each partial result (the "client web browser" side
/// of Fig. 1).
pub(crate) type PartialCallback = Arc<dyn Fn(&Partial) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_latches() {
        let t = CancellationToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancellationToken::new();
        let t2 = t.clone();
        t2.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn token_crosses_threads() {
        let t = CancellationToken::new();
        let t2 = t.clone();
        std::thread::spawn(move || t2.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }
}
