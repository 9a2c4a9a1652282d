//! strata-net: a TCP transport for the strata pub/sub broker.
//!
//! Turns the in-process [`strata_pubsub::Broker`] into a networked
//! broker. The crate is layered like the in-process stack it mirrors:
//!
//! - [`protocol`] — request/response message types and their
//!   CRC-framed binary encoding (extends the `strata-pubsub` wire
//!   format to the network).
//! - [`codec`] — length-prefixed, CRC-checked frame I/O over any
//!   `Read`/`Write` transport.
//! - [`server`] — [`server::BrokerServer`]: a thread-per-connection
//!   TCP front end over an `Arc<Broker>` with graceful shutdown.
//! - [`client`] — [`client::BrokerClient`], the TCP
//!   [`strata_pubsub::Transport`]: producers call its `produce`, and
//!   the one `strata_pubsub::Consumer` reads through it
//!   ([`client::RemoteConsumer`]).
//! - `retry` — bounded exponential backoff with jitter, the client
//!   reliability layer's schedule.
//! - [`error`] — transport error type, convertible from and into the
//!   broker's [`strata_pubsub::Error`].

pub mod client;
pub mod codec;
pub mod error;
pub mod protocol;
mod retry;
pub mod server;

pub use client::{BrokerClient, RemoteConsumer};
pub use error::{NetError, NetResult};
pub use protocol::{ErrorCode, Request, Response};
pub use server::BrokerServer;
