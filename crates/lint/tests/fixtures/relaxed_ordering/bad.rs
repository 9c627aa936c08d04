// Fixture (virtual path outside the counters allowlist): an unmarked
// Ordering::Relaxed must fire.
use std::sync::atomic::{AtomicU64, Ordering};

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}
