//! Shared traffic counters.
//!
//! Figure 5 (bottom) of the paper plots "how many bytes the root node
//! received" per operation; these counters are incremented by every link
//! send so the benchmark harness reads real measurements.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative byte/message counters for one endpoint (cheaply cloneable).
#[derive(Debug, Clone, Default)]
pub struct NetMetrics {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    bytes: AtomicU64,
    messages: AtomicU64,
}

impl NetMetrics {
    /// Fresh zeroed counters.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one message of `bytes` payload (plus 4-byte frame header).
    pub(crate) fn record(&self, bytes: u64) {
        self.inner.bytes.fetch_add(bytes + 4, Ordering::Relaxed);
        self.inner.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Total bytes recorded (payload + headers).
    pub fn bytes(&self) -> u64 {
        self.inner.bytes.load(Ordering::Relaxed)
    }

    /// Total messages recorded.
    pub fn messages(&self) -> u64 {
        self.inner.messages.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_with_header_overhead() {
        let m = NetMetrics::new();
        m.record(100);
        m.record(50);
        assert_eq!(m.bytes(), 158, "2 × 4-byte headers included");
        assert_eq!(m.messages(), 2);
    }

    #[test]
    fn clones_share_state() {
        let m = NetMetrics::new();
        let m2 = m.clone();
        m2.record(10);
        assert_eq!(m.bytes(), 14);
    }

    #[test]
    fn concurrent_records_are_counted() {
        let m = NetMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.record(1);
                    }
                });
            }
        });
        assert_eq!(m.messages(), 8000);
        assert_eq!(m.bytes(), 8000 * 5);
    }
}
