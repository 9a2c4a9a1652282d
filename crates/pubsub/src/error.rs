//! Error type for broker, producer and consumer operations.

use std::fmt;

use strata_chaos::frame::FrameError;

/// A specialized `Result` whose error type is [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the pub/sub layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The referenced topic does not exist.
    UnknownTopic(String),
    /// A topic with this name already exists.
    TopicExists(String),
    /// The referenced partition index is out of range for the topic.
    UnknownPartition {
        /// Topic name.
        topic: String,
        /// Requested partition index.
        partition: u32,
    },
    /// A read referenced an offset below the log's start (compacted or
    /// retention-trimmed) or beyond its end.
    OffsetOutOfRange {
        /// Requested offset.
        requested: u64,
        /// First offset still stored.
        start: u64,
        /// One past the last stored offset.
        end: u64,
    },
    /// The consumer was fenced by a group rebalance and must re-poll
    /// to pick up its new assignment. Transient by design.
    RebalanceInProgress,
    /// A configuration parameter is invalid (e.g. zero partitions).
    InvalidConfig(String),
    /// A stored segment failed checksum or framing validation.
    Corrupt(String),
    /// An underlying file operation failed.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownTopic(name) => write!(f, "unknown topic `{name}`"),
            Error::TopicExists(name) => write!(f, "topic `{name}` already exists"),
            Error::UnknownPartition { topic, partition } => {
                write!(f, "topic `{topic}` has no partition {partition}")
            }
            Error::OffsetOutOfRange {
                requested,
                start,
                end,
            } => write!(
                f,
                "offset {requested} out of range (log covers [{start}, {end}))"
            ),
            Error::RebalanceInProgress => write!(f, "group rebalance in progress, poll again"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Corrupt(msg) => write!(f, "corrupt log data: {msg}"),
            Error::Io(err) => write!(f, "i/o failure: {err}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Self {
        Error::Io(err)
    }
}

impl From<FrameError> for Error {
    fn from(err: FrameError) -> Self {
        Error::Corrupt(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(Error::UnknownTopic("t".into()).to_string().contains("`t`"));
        let e = Error::OffsetOutOfRange {
            requested: 7,
            start: 10,
            end: 20,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains("[10, 20)"));
    }

    #[test]
    fn io_errors_chain_as_source() {
        use std::error::Error as _;
        let e = Error::from(std::io::Error::other("disk"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
