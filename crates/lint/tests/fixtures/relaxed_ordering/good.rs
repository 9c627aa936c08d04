// Fixture: a justified marker exempts the site; test code is exempt too.
use std::sync::atomic::{AtomicU64, Ordering};

fn bump(c: &AtomicU64) {
    // lint: allow(relaxed, monotonic diagnostics counter with no paired load)
    c.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_use_relaxed() {
        let c = AtomicU64::new(0);
        c.store(7, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 7);
    }
}
