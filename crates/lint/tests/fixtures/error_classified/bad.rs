// Fixture (virtual path crates/core/src/error.rs): an unclassified
// variant and a wildcard arm must each fire.
pub enum EngineError {
    Alpha,
    Beta(String),
}

impl EngineError {
    fn is_retryable(&self) -> bool {
        match self {
            EngineError::Alpha => true,
            _ => false,
        }
    }
}
