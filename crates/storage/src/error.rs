//! Storage-layer errors.

use std::fmt;

/// Errors from readers, writers, and partitioning.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed input at a given line/offset.
    Parse {
        /// Format being parsed ("csv", "hvc").
        format: &'static str,
        /// 1-based line (text formats) or byte offset (binary).
        at: usize,
        /// What went wrong.
        message: String,
    },
    /// Columnar-layer error while assembling tables.
    Column(hillview_columnar::Error),
    /// A schema mismatch between file and expectation.
    Schema(String),
    /// A column section's decoded length disagrees with the file's declared
    /// row count. Structured (rather than a generic parse error) so callers
    /// can reject corrupt files before any data reaches the wire.
    RowCountMismatch {
        /// Column whose payload disagrees.
        column: String,
        /// Row count the file header declares.
        declared: usize,
        /// Rows the column section actually encodes.
        actual: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Parse {
                format,
                at,
                message,
            } => write!(f, "{format} parse error at {at}: {message}"),
            Error::Column(e) => write!(f, "column error: {e}"),
            Error::Schema(m) => write!(f, "schema error: {m}"),
            Error::RowCountMismatch {
                column,
                declared,
                actual,
            } => write!(
                f,
                "column {column:?} encodes {actual} rows but the file declares {declared}"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Column(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<hillview_columnar::Error> for Error {
    fn from(e: hillview_columnar::Error) -> Self {
        Error::Column(e)
    }
}

/// Result alias using [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location() {
        let e = Error::Parse {
            format: "csv",
            at: 42,
            message: "unterminated quote".into(),
        };
        let s = e.to_string();
        assert!(s.contains("csv") && s.contains("42") && s.contains("quote"));
    }
}
