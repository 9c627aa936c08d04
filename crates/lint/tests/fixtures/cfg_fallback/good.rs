// Fixture: every positive feature gate has a `not(...)` twin in the same
// crate.
#[cfg(feature = "ooc")]
pub fn mapped() -> u64 {
    42
}

#[cfg(not(feature = "ooc"))]
pub fn mapped() -> u64 {
    42
}
