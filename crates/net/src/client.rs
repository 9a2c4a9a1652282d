//! The remote client over a TCP connection, with a reliability layer
//! underneath (request timeouts, bounded retries with backoff,
//! transparent reconnect): [`BrokerClient`] is the [`Transport`] of
//! both ends of a topic. Producers call its
//! [`produce`](Transport::produce), and the one
//! `strata_pubsub::Consumer` reads through it, named
//! [`RemoteConsumer`] here.
//!
//! # Resume semantics
//!
//! A [`RemoteConsumer`] tracks its read positions client-side and
//! commits them to the server. Every reconnect bumps the connection's
//! *epoch*; when a poll observes an epoch change, the consumer drops
//! its in-memory positions and re-seeds them from the server's
//! committed offsets before reading on. Records polled after the last
//! commit are therefore re-delivered after a connection loss:
//! at-least-once overall, and exactly-once for consumers that commit
//! before acting on a batch's successor.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use strata_pubsub::record::{Record, StoredRecord};
use strata_pubsub::{
    Consumer, Error as BrokerError, PartitionRange, Result as BrokerResult, Transport,
};

use crate::codec;
use crate::error::{broker_error_from_wire, NetError, NetResult};
use crate::protocol::{Request, Response, TopicInfo};
use crate::retry::RetryPolicy;

/// Cap on one request/response exchange (socket read timeout). Must
/// exceed the longest `Fetch` wait a client requests.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Clients created so far in this process; each mixes its number into
/// its retry salt.
static CLIENTS: AtomicU64 = AtomicU64::new(0);

/// A single logical connection to a
/// [`BrokerServer`](crate::server::BrokerServer): serialized
/// request/response with reconnect-on-failure underneath.
pub struct BrokerClient {
    addr: String,
    stream: Option<TcpStream>,
    /// Bumped whenever the connection is torn down; lets consumers
    /// detect that a transparent reconnect happened mid-stream.
    epoch: u64,
    /// Decorrelates this client's retry jitter from its siblings'.
    salt: u64,
}

impl std::fmt::Debug for BrokerClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerClient")
            .field("addr", &self.addr)
            .field("connected", &self.stream.is_some())
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl BrokerClient {
    /// Connects to a broker server.
    ///
    /// # Errors
    ///
    /// Transport errors if no connection can be established within
    /// the retry budget.
    pub fn connect(addr: impl Into<String>) -> NetResult<Self> {
        let addr = addr.into();
        let salt = {
            use std::hash::{Hash, Hasher};
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            addr.hash(&mut hasher);
            std::process::id().hash(&mut hasher);
            CLIENTS.fetch_add(1, Ordering::Relaxed).hash(&mut hasher);
            hasher.finish()
        };
        let mut client = BrokerClient {
            addr,
            stream: None,
            epoch: 0,
            salt,
        };
        RetryPolicy::DEFAULT.run(salt, |_| client.ensure_connected())?;
        Ok(client)
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The connection epoch: bumped on every disconnect. Consumers
    /// compare epochs across calls to notice reconnects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn ensure_connected(&mut self) -> NetResult<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_nodelay(true)?;
        self.stream = Some(stream);
        Ok(())
    }

    fn drop_connection(&mut self) {
        if self.stream.take().is_some() {
            self.epoch += 1;
        }
    }

    /// One request/response exchange without retries. Transport
    /// failures tear the connection down so the next attempt
    /// reconnects.
    fn exchange(&mut self, request: &Request) -> NetResult<Response> {
        self.ensure_connected()?;
        let stream = self.stream.as_mut().expect("just connected");
        let result =
            codec::write_request(stream, request).and_then(|()| codec::read_response(stream));
        match result {
            Ok(response) => Ok(response),
            Err(err) => {
                self.drop_connection();
                Err(err)
            }
        }
    }

    /// Sends `request` and returns the response, retrying transient
    /// transport failures with capped, jittered exponential backoff. A
    /// server-reported error response becomes [`NetError::Broker`].
    ///
    /// # Errors
    ///
    /// [`NetError::Broker`] for broker-side failures, transport
    /// errors (possibly wrapped in [`NetError::RetriesExhausted`])
    /// otherwise.
    pub fn request(&mut self, request: &Request) -> NetResult<Response> {
        let salt = self.salt;
        let response = RetryPolicy::DEFAULT.run(salt, |_| self.exchange(request))?;
        match response {
            Response::Error {
                code,
                message,
                context,
            } => Err(NetError::Broker(broker_error_from_wire(
                code, message, &context,
            ))),
            other => Ok(other),
        }
    }

    /// Creates a memory-backed topic on the server.
    ///
    /// # Errors
    ///
    /// [`NetError::Broker`] with `TopicExists` (among others), or
    /// transport errors.
    pub fn create_topic(&mut self, topic: &str, partitions: u32) -> NetResult<()> {
        match self.request(&Request::CreateTopic {
            topic: topic.into(),
            partitions,
        })? {
            Response::Created => Ok(()),
            other => Err(unexpected("Created", &other)),
        }
    }

    /// Fetches topic metadata (all topics when `topics` is empty).
    ///
    /// # Errors
    ///
    /// Broker or transport errors.
    pub fn metadata(&mut self, topics: &[&str]) -> NetResult<Vec<TopicInfo>> {
        match self.request(&Request::Metadata {
            topics: topics.iter().map(|t| t.to_string()).collect(),
        })? {
            Response::Metadata(infos) => Ok(infos),
            other => Err(unexpected("Metadata", &other)),
        }
    }

    /// A Prometheus text dump of the server's metrics registry,
    /// covering the broker, its topics, and the transport itself.
    ///
    /// # Errors
    ///
    /// Broker or transport errors.
    pub fn metrics_text(&mut self) -> NetResult<String> {
        match self.request(&Request::Metrics)? {
            Response::MetricsText(text) => Ok(text),
            other => Err(unexpected("MetricsText", &other)),
        }
    }

    /// The total backlog of `group` on `topic`.
    ///
    /// # Errors
    ///
    /// Broker or transport errors.
    pub fn consumer_lag(&mut self, group: &str, topic: &str) -> NetResult<u64> {
        match self.request(&Request::ConsumerLag {
            group: group.into(),
            topic: topic.into(),
        })? {
            Response::Lag(lag) => Ok(lag),
            other => Err(unexpected("Lag", &other)),
        }
    }

    /// Tears the connection down, forcing the next request to
    /// reconnect. Mainly for tests of the resume path.
    pub fn drop_connection_for_test(&mut self) {
        self.drop_connection();
    }
}

fn unexpected(wanted: &str, got: &Response) -> NetError {
    NetError::Protocol(format!("expected {wanted} response, got {got:?}"))
}

/// A consumer whose broker lives across a TCP connection: the one
/// [`Consumer`] over a [`BrokerClient`]. It owns every partition of
/// its topics, which matches how the STRATA pipeline shards: one topic
/// per connector hop, one consumer per topic.
pub type RemoteConsumer = Consumer<BrokerClient>;

/// The broker calls, as requests over this connection. A reconnect
/// bumps the [`epoch`](BrokerClient::epoch); transport failures
/// surface as [`BrokerError::Io`].
impl Transport for BrokerClient {
    /// One `Produce` request; the server's broker picks the partition.
    /// Produces are at-least-once, like Kafka's pre-idempotence
    /// producer: a retried produce that succeeded server-side before
    /// the response was lost is appended again.
    fn produce(&mut self, topic: &str, record: Record) -> BrokerResult<(u32, u64)> {
        match self.request(&Request::Produce {
            topic: topic.into(),
            partition: None,
            record,
        }) {
            Ok(Response::Produced { partition, offset }) => Ok((partition, offset)),
            other => Err(failed("Produced", other)),
        }
    }

    fn partitions(&mut self, topics: &[String]) -> BrokerResult<Vec<PartitionRange>> {
        let topics: Vec<&str> = topics.iter().map(String::as_str).collect();
        let infos = self
            .metadata(&topics)
            .map_err(NetError::into_broker_error)?;
        Ok(infos
            .into_iter()
            .flat_map(|info| {
                let name = info.name;
                info.partitions
                    .into_iter()
                    .map(move |p| (name.clone(), p.partition, (p.start, p.end)))
            })
            .collect())
    }

    fn committed(&mut self, group: &str, topic: &str, partition: u32) -> BrokerResult<Option<u64>> {
        match self.request(&Request::FetchOffset {
            group: group.into(),
            topic: topic.into(),
            partition,
        }) {
            Ok(Response::CommittedOffset(offset)) => Ok(offset),
            other => Err(failed("CommittedOffset", other)),
        }
    }

    fn fetch(
        &mut self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_records: usize,
        wait: Duration,
    ) -> BrokerResult<Vec<StoredRecord>> {
        match self.request(&Request::Fetch {
            topic: topic.into(),
            partition,
            offset,
            max_records: u32::try_from(max_records).unwrap_or(u32::MAX),
            max_wait_ms: u32::try_from(wait.as_millis()).unwrap_or(u32::MAX),
        }) {
            Ok(Response::Records(records)) => Ok(records),
            other => Err(failed("Records", other)),
        }
    }

    fn commit(
        &mut self,
        group: &str,
        topic: &str,
        partition: u32,
        offset: u64,
    ) -> BrokerResult<()> {
        match self.request(&Request::CommitOffset {
            group: group.into(),
            topic: topic.into(),
            partition,
            offset,
        }) {
            Ok(Response::Committed) => Ok(()),
            other => Err(failed("Committed", other)),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The broker error for a failed exchange or an unexpected response.
fn failed(wanted: &str, got: NetResult<Response>) -> BrokerError {
    match got {
        Ok(other) => unexpected(wanted, &other),
        Err(err) => err,
    }
    .into_broker_error()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::BrokerServer;
    use strata_pubsub::Broker;

    #[test]
    fn clients_of_one_process_and_server_get_distinct_salts() {
        let server = BrokerServer::bind("127.0.0.1:0", Broker::new()).unwrap();
        let addr = server.local_addr().to_string();
        let a = BrokerClient::connect(addr.clone()).unwrap();
        let b = BrokerClient::connect(addr).unwrap();
        assert_ne!(a.salt, b.salt);
    }

    #[test]
    fn connect_waits_for_a_server_that_is_still_starting() {
        let reserved = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = reserved.local_addr().unwrap();
        drop(reserved);
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            BrokerServer::bind(addr, Broker::new()).unwrap()
        });
        let client = BrokerClient::connect(addr.to_string());
        let _server = late.join().unwrap();
        assert!(client.is_ok(), "{:?}", client.err());
    }
}
