//! Errors for the simulated network layer.

use std::fmt;

/// Errors produced by wire (de)serialization and link operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Ran out of bytes while decoding.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// An enum tag or framing byte had an unexpected value.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length prefix exceeded sanity limits.
    BadLength {
        /// What was being decoded.
        context: &'static str,
        /// The claimed length.
        len: u64,
    },
    /// A UTF-8 string payload was invalid.
    BadUtf8,
    /// The bytes spell a value, but not the way the encoder spells it: a
    /// padded varint, two zero runs in a row, a key that repeats a value it
    /// could have shared. Accepting them would give one value two frames.
    NotCanonical {
        /// Which rule was broken.
        context: &'static str,
    },
    /// The peer endpoint has disconnected.
    Disconnected,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated { context } => write!(f, "truncated input decoding {context}"),
            Error::BadTag { context, tag } => write!(f, "bad tag {tag} decoding {context}"),
            Error::BadLength { context, len } => {
                write!(f, "implausible length {len} decoding {context}")
            }
            Error::BadUtf8 => write!(f, "invalid UTF-8 in wire string"),
            Error::NotCanonical { context } => write!(f, "non-canonical encoding: {context}"),
            Error::Disconnected => write!(f, "link peer disconnected"),
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
    fn messages_name_context() {
        let e = Error::Truncated { context: "u64" };
        assert!(e.to_string().contains("u64"));
        let e = Error::BadTag {
            context: "Value",
            tag: 9,
        };
        assert!(e.to_string().contains("Value"));
        assert!(e.to_string().contains('9'));
    }
}
