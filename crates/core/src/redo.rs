//! The root's redo log.
//!
//! Paper §5.7: *"To enable query re-execution, the root node maintains a
//! redo log with all executed operations. The redo log is the only
//! persistent data structure maintained by Hillview."* Entries record the
//! lineage of every dataset (including seeds inside predicates/specs) so a
//! worker's lost state can be reconstructed deterministically (§5.8).

use crate::dataset::{DatasetId, Lineage};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Append-only log of dataset-producing operations.
#[derive(Debug, Default)]
pub struct RedoLog {
    entries: Mutex<LogInner>,
}

#[derive(Debug, Default)]
struct LogInner {
    by_id: HashMap<DatasetId, Lineage>,
    order: Vec<DatasetId>,
}

impl RedoLog {
    /// Empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record the operation that produced `id`.
    pub(crate) fn record(&self, id: DatasetId, lineage: Lineage) {
        let mut inner = self.entries.lock();
        if inner.by_id.insert(id, lineage).is_none() {
            inner.order.push(id);
        }
    }

    /// The lineage of `id`, if logged.
    pub(crate) fn lineage(&self, id: DatasetId) -> Option<Lineage> {
        self.entries.lock().by_id.get(&id).cloned()
    }

    /// The chain of operations needed to rebuild `id`, root-first
    /// (Load before its Filters/Maps).
    pub(crate) fn chain(&self, id: DatasetId) -> Vec<(DatasetId, Lineage)> {
        let inner = self.entries.lock();
        let mut chain = Vec::new();
        let mut cursor = Some(id);
        while let Some(c) = cursor {
            match inner.by_id.get(&c) {
                Some(l) => {
                    cursor = l.parent();
                    chain.push((c, l.clone()));
                }
                None => break,
            }
        }
        chain.reverse();
        chain
    }

    /// Number of logged operations.
    pub fn len(&self) -> usize {
        self.entries.lock().order.len()
    }

    /// True if nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All operations in log order (root-node restart reads this, §5.8).
    pub(crate) fn all(&self) -> Vec<(DatasetId, Lineage)> {
        let inner = self.entries.lock();
        inner
            .order
            .iter()
            .map(|id| (*id, inner.by_id[id].clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SourceSpec;
    use hillview_columnar::Predicate;
    use std::sync::Arc;

    fn loaded(id: u64) -> Lineage {
        Lineage::Loaded {
            spec: SourceSpec {
                source: Arc::from("s"),
                snapshot: id,
            },
        }
    }

    #[test]
    fn chain_walks_to_the_root() {
        let log = RedoLog::new();
        log.record(DatasetId(1), loaded(1));
        log.record(
            DatasetId(2),
            Lineage::Filtered {
                parent: DatasetId(1),
                predicate: Predicate::True,
            },
        );
        log.record(
            DatasetId(3),
            Lineage::Mapped {
                parent: DatasetId(2),
                udf: Arc::from("f"),
                new_column: Arc::from("C"),
            },
        );
        let chain = log.chain(DatasetId(3));
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0].0, DatasetId(1), "load comes first");
        assert_eq!(chain[2].0, DatasetId(3));
    }

    #[test]
    fn unknown_dataset_has_empty_chain() {
        let log = RedoLog::new();
        assert!(log.chain(DatasetId(9)).is_empty());
        assert!(log.lineage(DatasetId(9)).is_none());
    }

    #[test]
    fn record_is_idempotent_in_order() {
        let log = RedoLog::new();
        log.record(DatasetId(1), loaded(1));
        log.record(DatasetId(1), loaded(1));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn all_preserves_insertion_order() {
        let log = RedoLog::new();
        log.record(DatasetId(5), loaded(5));
        log.record(DatasetId(2), loaded(2));
        let all = log.all();
        assert_eq!(all[0].0, DatasetId(5));
        assert_eq!(all[1].0, DatasetId(2));
    }
}
