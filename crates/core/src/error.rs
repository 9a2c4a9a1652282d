//! Error type aggregating the substrate errors.

use std::fmt;

/// A specialized `Result` whose error type is [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the STRATA framework.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A pipeline was composed incorrectly (wrong module order,
    /// duplicate names, missing stages).
    InvalidPipeline(String),
    /// A tuple failed to decode at a connector boundary.
    Codec(String),
    /// The stream processing engine reported an error.
    Spe(strata_spe::Error),
    /// The pub/sub layer reported an error.
    PubSub(strata_pubsub::Error),
    /// The TCP transport to a remote broker reported an error.
    Net(strata_net::NetError),
    /// The key-value store reported an error.
    Kv(strata_kv::Error),
    /// The clustering library rejected its parameters.
    Cluster(strata_cluster::Error),
    /// The machine simulator rejected its configuration.
    Sim(strata_amsim::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidPipeline(msg) => write!(f, "invalid pipeline: {msg}"),
            Error::Codec(msg) => write!(f, "tuple codec failure: {msg}"),
            Error::Spe(err) => write!(f, "stream engine: {err}"),
            Error::PubSub(err) => write!(f, "pub/sub: {err}"),
            Error::Net(err) => write!(f, "broker transport: {err}"),
            Error::Kv(err) => write!(f, "key-value store: {err}"),
            Error::Cluster(err) => write!(f, "clustering: {err}"),
            Error::Sim(err) => write!(f, "simulator: {err}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Spe(err) => Some(err),
            Error::PubSub(err) => Some(err),
            Error::Net(err) => Some(err),
            Error::Kv(err) => Some(err),
            Error::Cluster(err) => Some(err),
            Error::Sim(err) => Some(err),
            _ => None,
        }
    }
}

impl From<strata_spe::Error> for Error {
    fn from(err: strata_spe::Error) -> Self {
        Error::Spe(err)
    }
}

impl From<strata_pubsub::Error> for Error {
    fn from(err: strata_pubsub::Error) -> Self {
        Error::PubSub(err)
    }
}

impl From<strata_net::NetError> for Error {
    fn from(err: strata_net::NetError) -> Self {
        // A broker-side failure relayed over the wire is a pub/sub
        // error wherever it surfaces; only transport-layer failures
        // stay in the Net variant.
        match err {
            strata_net::NetError::Broker(inner) => Error::PubSub(inner),
            other => Error::Net(other),
        }
    }
}

impl From<strata_pubsub::wire::FrameError> for Error {
    fn from(err: strata_pubsub::wire::FrameError) -> Self {
        Error::Codec(err.to_string())
    }
}

impl From<strata_kv::Error> for Error {
    fn from(err: strata_kv::Error) -> Self {
        Error::Kv(err)
    }
}

impl From<strata_cluster::Error> for Error {
    fn from(err: strata_cluster::Error) -> Self {
        Error::Cluster(err)
    }
}

impl From<strata_amsim::Error> for Error {
    fn from(err: strata_amsim::Error) -> Self {
        Error::Sim(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_substrate_errors_with_sources() {
        use std::error::Error as _;
        let err = Error::from(strata_spe::Error::InvalidQuery("x".into()));
        assert!(err.to_string().contains("stream engine"));
        assert!(err.source().is_some());
        let err = Error::from(strata_kv::Error::MemoryMode);
        assert!(err.to_string().contains("key-value store"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
