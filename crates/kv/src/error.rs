//! Error type for store operations.

use std::fmt;

use strata_chaos::frame::FrameError;

/// A specialized `Result` whose error type is [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the key-value store.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A stored file failed checksum or format validation.
    Corrupt(String),
    /// A configuration parameter is invalid.
    InvalidConfig(String),
    /// The operation needs a disk-backed store but the database was
    /// opened in memory (e.g. explicit flush to disk).
    MemoryMode,
    /// An underlying file operation failed.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Corrupt(msg) => write!(f, "corrupt store data: {msg}"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::MemoryMode => write!(f, "operation requires a disk-backed store"),
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
    fn display_and_source() {
        use std::error::Error as _;
        let e = Error::from(std::io::Error::other("x"));
        assert!(e.to_string().contains("i/o"));
        assert!(e.source().is_some());
        assert!(Error::Corrupt("bad magic".into())
            .to_string()
            .contains("bad magic"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
