//! Error types for trace parsing and I/O.

use std::error::Error;
use std::fmt;
use std::io;

/// Failure to parse a single trace record from its textual form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseRecordError {
    /// The line was empty.
    MissingLabel,
    /// The line had a label but no address field.
    MissingAddress,
    /// The label field was not an integer.
    BadLabel(String),
    /// The label was an integer outside `0..=2`.
    UnknownLabel(u8),
    /// The address field was not valid hexadecimal.
    BadAddress(String),
    /// The line was not valid UTF-8.
    NotUtf8,
}

impl fmt::Display for ParseRecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseRecordError::MissingLabel => write!(f, "missing access-kind label"),
            ParseRecordError::MissingAddress => write!(f, "missing address field"),
            ParseRecordError::BadLabel(s) => write!(f, "label `{s}` is not an integer"),
            ParseRecordError::UnknownLabel(l) => {
                write!(f, "label {l} is not a din access kind (expected 0, 1 or 2)")
            }
            ParseRecordError::BadAddress(s) => write!(f, "address `{s}` is not hexadecimal"),
            ParseRecordError::NotUtf8 => write!(f, "line is not valid UTF-8"),
        }
    }
}

impl Error for ParseRecordError {}

/// Errors produced while reading or writing trace files.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A malformed record, with its 1-based line (text) or record (binary)
    /// number.
    Parse {
        /// 1-based position of the offending record.
        position: u64,
        /// What went wrong.
        source: ParseRecordError,
    },
    /// The binary stream did not start with the expected magic bytes.
    BadMagic,
    /// The binary stream declared an unsupported format version.
    UnsupportedVersion(u8),
    /// The binary stream ended in the middle of a record.
    Truncated {
        /// 1-based position of the cut record.
        position: u64,
    },
    /// A varint field exceeded the 64-bit range.
    VarintOverflow {
        /// 1-based position of the offending record.
        position: u64,
    },
}

impl TraceError {
    /// Whether retrying the failed operation (re-opening the source and
    /// replaying to the failure point) could plausibly succeed.
    ///
    /// The taxonomy is: **I/O failures are transient** — interrupted reads,
    /// dropped connections, transiently unavailable files come and go —
    /// while **format failures are fatal**: a corrupt record, truncated
    /// stream, bad magic, unsupported version or overflowing varint is a
    /// property of the bytes themselves and will reproduce on every retry.
    /// Resilient sweep drivers use this split to decide between
    /// retry-with-backoff and failing the job.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, TraceError::Io(_))
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { position, source } => {
                write!(f, "bad record at position {position}: {source}")
            }
            TraceError::BadMagic => write!(f, "not a dew binary trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported binary trace version {v}")
            }
            TraceError::Truncated { position } => {
                write!(f, "binary trace ended mid-record at position {position}")
            }
            TraceError::VarintOverflow { position } => {
                write!(f, "varint field at position {position} exceeds 64 bits")
            }
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Parse { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants: Vec<TraceError> = vec![
            TraceError::Io(io::Error::other("x")),
            TraceError::Parse {
                position: 3,
                source: ParseRecordError::MissingLabel,
            },
            TraceError::BadMagic,
            TraceError::UnsupportedVersion(9),
            TraceError::Truncated { position: 4 },
            TraceError::VarintOverflow { position: 5 },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
        // Format errors name the record they stopped at.
        assert!(TraceError::Truncated { position: 4 }
            .to_string()
            .contains("position 4"));
        assert!(TraceError::VarintOverflow { position: 5 }
            .to_string()
            .contains("position 5"));
    }

    #[test]
    fn only_io_errors_are_transient() {
        assert!(TraceError::Io(io::Error::other("x")).is_transient());
        for fatal in [
            TraceError::Parse {
                position: 3,
                source: ParseRecordError::MissingLabel,
            },
            TraceError::BadMagic,
            TraceError::UnsupportedVersion(9),
            TraceError::Truncated { position: 4 },
            TraceError::VarintOverflow { position: 5 },
        ] {
            assert!(!fatal.is_transient(), "{fatal}");
        }
    }

    #[test]
    fn parse_error_is_source_of_trace_error() {
        let err = TraceError::Parse {
            position: 1,
            source: ParseRecordError::MissingAddress,
        };
        assert!(err.source().is_some());
    }
}
