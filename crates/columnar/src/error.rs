//! Error type shared by the columnar substrate.

use std::fmt;

/// Errors produced by columnar-layer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A column name was not found in a schema.
    UnknownColumn(String),
    /// A column was accessed with a type it does not have.
    TypeMismatch {
        /// Operation or column that failed.
        context: String,
        /// What the caller expected.
        expected: String,
        /// What was actually present.
        actual: String,
    },
    /// Two columns (or a column and a table) disagree on row count.
    LengthMismatch {
        /// What the caller expected.
        expected: usize,
        /// What was actually present.
        actual: usize,
    },
    /// A row index was out of bounds.
    RowOutOfBounds {
        /// The offending index.
        row: usize,
        /// The number of rows available.
        len: usize,
    },
    /// A schema already contains a column with this name.
    DuplicateColumn(String),
    /// An invalid regular expression was supplied to the lite regex engine.
    BadRegex(String),
    /// A user-defined map function was not found in the registry.
    UnknownUdf(String),
    /// A dictionary's strings would pass the 4 GiB its `u32` offsets address.
    DictionaryTooLarge,
    /// Front-coded dictionary bytes that break the layout: which entry,
    /// and what is wrong with it.
    BadDictionary(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownColumn(name) => write!(f, "unknown column: {name:?}"),
            Error::TypeMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch in {context}: expected {expected}, got {actual}"
            ),
            Error::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected} rows, got {actual}")
            }
            Error::RowOutOfBounds { row, len } => {
                write!(f, "row index {row} out of bounds for length {len}")
            }
            Error::DuplicateColumn(name) => write!(f, "duplicate column: {name:?}"),
            Error::BadRegex(msg) => write!(f, "invalid regex: {msg}"),
            Error::UnknownUdf(name) => write!(f, "unknown map function: {name:?}"),
            Error::DictionaryTooLarge => write!(f, "dictionary strings exceed 4 GiB"),
            Error::BadDictionary(what) => write!(f, "malformed dictionary: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias using [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::UnknownColumn("DepDelay".into());
        assert!(e.to_string().contains("DepDelay"));
        let e = Error::TypeMismatch {
            context: "histogram".into(),
            expected: "Double".into(),
            actual: "String".into(),
        };
        assert!(e.to_string().contains("histogram"));
        assert!(e.to_string().contains("Double"));
        let e = Error::RowOutOfBounds { row: 9, len: 3 };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::DuplicateColumn("x".into()));
    }
}
