// Fixture: a feature-gated item with no `not(...)` path anywhere in the
// crate must fire.
#[cfg(feature = "ooc")]
pub fn mapped() -> u64 {
    42
}
