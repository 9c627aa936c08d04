// Fixture: every variant named, no wildcard arm.
pub enum EngineError {
    Alpha,
    Beta(String),
}

impl EngineError {
    fn is_retryable(&self) -> bool {
        match self {
            EngineError::Alpha => true,
            EngineError::Beta(_) => false,
        }
    }
}
