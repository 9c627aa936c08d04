// Fixture (virtual path crates/alpha/src/lib.rs): every public function is
// named outside the package's `src/` or carries a reasoned marker, so no
// finding.

/// Called by another package.
pub fn used_by_beta() {}

/// Called by an integration test of this package.
pub fn used_by_tests() {}

/// Called by an example.
pub fn used_by_examples() {}

/// Called by the frozen benchmark package.
pub async fn used_by_benchmark() {}

// lint: allow(pub-unused, reached through an exported macro's expansion)
pub fn allowed() {}

/// Not public outside the package, so not patrolled.
pub(crate) fn crate_only() {}

#[cfg(test)]
mod tests {
    /// Test code is not patrolled.
    pub fn helper() {}
}
