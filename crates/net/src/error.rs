//! Transport error type shared by the client and server halves.

use std::fmt;

use strata_chaos::frame::FrameError;
use strata_pubsub::Error as BrokerError;

use crate::protocol::ErrorCode;

/// A specialized `Result` whose error type is [`NetError`].
pub type NetResult<T> = std::result::Result<T, NetError>;

/// Errors produced by the TCP transport.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// The peer closed the connection (clean EOF between frames).
    Disconnected,
    /// A frame failed its length or CRC validation.
    Corrupt(String),
    /// A frame decoded, but violated the request/response protocol
    /// (unknown message type, wrong version, unexpected response).
    Protocol(String),
    /// The server reported a broker-side error.
    Broker(BrokerError),
    /// The retry budget ran out; holds the final attempt's error.
    RetriesExhausted {
        /// Attempts made (including the first, non-retried one).
        attempts: u32,
        /// The error of the last attempt.
        last: Box<NetError>,
    },
}

impl NetError {
    /// Whether a retry with a fresh connection could plausibly
    /// succeed. Socket failures and disconnects are transient;
    /// protocol violations and most broker errors are not (the
    /// request would fail identically on a healthy connection).
    pub fn is_transient(&self) -> bool {
        matches!(self, NetError::Io(_) | NetError::Disconnected)
    }

    /// Maps this error onto the broker error space, for callers that
    /// unify local and remote transports. Transport-layer failures
    /// become [`BrokerError::Io`].
    pub fn into_broker_error(self) -> BrokerError {
        match self {
            NetError::Broker(err) => err,
            NetError::Corrupt(msg) => BrokerError::Corrupt(msg),
            NetError::RetriesExhausted { last, .. } => last.into_broker_error(),
            other => BrokerError::Io(std::io::Error::other(other.to_string())),
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(err) => write!(f, "socket failure: {err}"),
            NetError::Disconnected => write!(f, "connection closed by peer"),
            NetError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Broker(err) => write!(f, "broker error: {err}"),
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(err) => Some(err),
            NetError::Broker(err) => Some(err),
            NetError::RetriesExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(err: std::io::Error) -> Self {
        if err.kind() == std::io::ErrorKind::UnexpectedEof {
            NetError::Disconnected
        } else {
            NetError::Io(err)
        }
    }
}

impl From<BrokerError> for NetError {
    fn from(err: BrokerError) -> Self {
        NetError::Broker(err)
    }
}

impl From<FrameError> for NetError {
    fn from(err: FrameError) -> Self {
        NetError::Corrupt(err.to_string())
    }
}

/// Reconstructs a broker error from its wire form (code, message,
/// numeric context). The inverse of
/// [`ErrorCode::from_broker_error`].
pub fn broker_error_from_wire(code: ErrorCode, message: String, context: &[u64]) -> BrokerError {
    match code {
        ErrorCode::UnknownTopic => BrokerError::UnknownTopic(message),
        ErrorCode::TopicExists => BrokerError::TopicExists(message),
        ErrorCode::UnknownPartition => BrokerError::UnknownPartition {
            topic: message,
            partition: context.first().copied().unwrap_or(0) as u32,
        },
        ErrorCode::OffsetOutOfRange => BrokerError::OffsetOutOfRange {
            requested: context.first().copied().unwrap_or(0),
            start: context.get(1).copied().unwrap_or(0),
            end: context.get(2).copied().unwrap_or(0),
        },
        ErrorCode::InvalidConfig => BrokerError::InvalidConfig(message),
        ErrorCode::Corrupt => BrokerError::Corrupt(message),
        ErrorCode::Io | ErrorCode::BadRequest => BrokerError::Io(std::io::Error::other(message)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        assert!(NetError::Disconnected.is_transient());
        assert!(NetError::Io(std::io::Error::other("x")).is_transient());
        assert!(!NetError::Corrupt("bad".into()).is_transient());
        assert!(!NetError::Broker(BrokerError::UnknownTopic("t".into())).is_transient());
    }

    #[test]
    fn eof_maps_to_disconnected() {
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(NetError::from(eof), NetError::Disconnected));
    }

    #[test]
    fn broker_errors_round_trip_through_wire_form() {
        let original = BrokerError::OffsetOutOfRange {
            requested: 9,
            start: 2,
            end: 5,
        };
        let (code, message, context) = ErrorCode::from_broker_error(&original);
        let back = broker_error_from_wire(code, message, &context);
        assert!(matches!(
            back,
            BrokerError::OffsetOutOfRange {
                requested: 9,
                start: 2,
                end: 5
            }
        ));
    }
}
