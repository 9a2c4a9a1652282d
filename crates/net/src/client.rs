//! Remote clients: [`RemoteProducer`] and [`RemoteConsumer`] mirror
//! the in-process `Producer`/`Consumer` APIs over a TCP connection,
//! with a reliability layer underneath (request timeouts, bounded
//! retries with backoff, transparent reconnect).
//!
//! # Resume semantics
//!
//! A [`RemoteConsumer`] tracks its read positions client-side and
//! commits them to the server with [`RemoteConsumer::commit`]. Every
//! reconnect bumps the connection's *epoch*; when a poll observes an
//! epoch change it discards its in-memory positions and re-seeds them
//! from the server's committed offsets before reading on. Records
//! polled after the last commit are therefore re-delivered after a
//! connection loss — at-least-once overall, and exactly-once for
//! consumers that commit before acting on a batch's successor.

use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

use strata_pubsub::record::Record;
use strata_pubsub::PolledRecord;

use crate::codec;
use crate::error::{broker_error_from_wire, NetError, NetResult};
use crate::protocol::{Request, Response, TopicInfo};
use crate::retry::RetryPolicy;

/// Cap on one request/response exchange (socket read timeout). Must
/// exceed the longest `Fetch` wait a client requests.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Batch-size cap per poll of a new [`RemoteConsumer`]; see
/// [`RemoteConsumer::set_max_poll_records`].
const MAX_POLL_RECORDS: usize = 500;

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
            hasher.finish()
        };
        let mut client = BrokerClient {
            addr,
            stream: None,
            epoch: 0,
            salt,
        };
        client.ensure_connected()?;
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

/// A producer whose broker lives across a TCP connection. Mirrors
/// the in-process `Producer` API, returning `(partition, offset)`.
pub struct RemoteProducer {
    client: BrokerClient,
}

impl std::fmt::Debug for RemoteProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteProducer")
            .field("client", &self.client)
            .finish()
    }
}

impl RemoteProducer {
    /// Connects a producer to `addr` with default tuning.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn connect(addr: impl Into<String>) -> NetResult<Self> {
        Ok(RemoteProducer {
            client: BrokerClient::connect(addr)?,
        })
    }

    /// Access to the underlying connection (for `create_topic`,
    /// `metadata`, and test hooks).
    pub fn client_mut(&mut self) -> &mut BrokerClient {
        &mut self.client
    }

    /// Sends a record with the given key and value, server-side
    /// partitioning. Returns `(partition, offset)`.
    ///
    /// # Errors
    ///
    /// Broker or transport errors. Note a retried produce that
    /// succeeded server-side before the response was lost is
    /// re-appended: produces are at-least-once, like Kafka's
    /// pre-idempotence producer.
    pub fn send(
        &mut self,
        topic: &str,
        key: Option<&[u8]>,
        value: impl Into<bytes::Bytes>,
    ) -> NetResult<(u32, u64)> {
        let record = Record::new(key.map(bytes::Bytes::copy_from_slice), value.into());
        self.send_record(topic, record)
    }

    /// Sends a fully built record, server-side partitioning.
    ///
    /// # Errors
    ///
    /// Broker or transport errors.
    pub fn send_record(&mut self, topic: &str, record: Record) -> NetResult<(u32, u64)> {
        match self.client.request(&Request::Produce {
            topic: topic.into(),
            partition: None,
            record,
        })? {
            Response::Produced { partition, offset } => Ok((partition, offset)),
            other => Err(unexpected("Produced", &other)),
        }
    }

    /// Sends a record to an explicit partition. Returns the offset.
    ///
    /// # Errors
    ///
    /// Broker or transport errors.
    pub fn send_to_partition(
        &mut self,
        topic: &str,
        partition: u32,
        record: Record,
    ) -> NetResult<u64> {
        match self.client.request(&Request::Produce {
            topic: topic.into(),
            partition: Some(partition),
            record,
        })? {
            Response::Produced { offset, .. } => Ok(offset),
            other => Err(unexpected("Produced", &other)),
        }
    }
}

/// A consumer whose broker lives across a TCP connection.
///
/// Unlike the in-process `Consumer` there is no server-side group
/// membership: the consumer owns *all* partitions of its subscribed
/// topics and tracks positions client-side, committing them under its
/// group name. Scaling out therefore means partitioning by topic, not
/// by group membership — which matches how the STRATA pipeline
/// shards: one topic per connector hop, one consumer per topic.
pub struct RemoteConsumer {
    client: BrokerClient,
    group: String,
    topics: Vec<String>,
    /// `(topic, partition)` → next offset to read.
    positions: HashMap<(String, u32), u64>,
    /// Partitions in fixed iteration order, for fair polling.
    assignment: Vec<(String, u32)>,
    /// The client epoch the positions were last synced against.
    synced_epoch: u64,
    max_poll_records: usize,
}

impl std::fmt::Debug for RemoteConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteConsumer")
            .field("group", &self.group)
            .field("assignment", &self.assignment)
            .field("client", &self.client)
            .finish()
    }
}

impl RemoteConsumer {
    /// Connects a consumer in `group` subscribed to `topics`,
    /// starting each partition at the group's committed offset (or
    /// the partition start).
    ///
    /// # Errors
    ///
    /// [`NetError::Broker`] with `UnknownTopic` if a subscribed topic
    /// is missing, or transport errors.
    pub fn connect(
        addr: impl Into<String>,
        group: impl Into<String>,
        topics: &[&str],
    ) -> NetResult<Self> {
        let mut consumer = RemoteConsumer {
            client: BrokerClient::connect(addr)?,
            group: group.into(),
            topics: topics.iter().map(|t| t.to_string()).collect(),
            positions: HashMap::new(),
            assignment: Vec::new(),
            synced_epoch: 0,
            max_poll_records: MAX_POLL_RECORDS,
        };
        consumer.sync_positions()?;
        Ok(consumer)
    }

    /// The group this consumer commits under.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// The `(topic, partition)` pairs this consumer reads, in polling
    /// order.
    pub fn assignment(&self) -> &[(String, u32)] {
        &self.assignment
    }

    /// Caps the records returned by one [`poll`](Self::poll).
    pub fn set_max_poll_records(&mut self, max: usize) {
        self.max_poll_records = max.max(1);
    }

    /// Access to the underlying connection (for lag queries and test
    /// hooks such as killing the connection mid-stream).
    pub fn client_mut(&mut self) -> &mut BrokerClient {
        &mut self.client
    }

    /// (Re)derives the assignment from server metadata and seeds
    /// positions from committed offsets, falling back to each
    /// partition's start offset.
    fn sync_positions(&mut self) -> NetResult<()> {
        let topics: Vec<&str> = self.topics.iter().map(String::as_str).collect();
        let metadata = self.client.metadata(&topics)?;
        let mut assignment = Vec::new();
        let mut positions = HashMap::new();
        for info in &metadata {
            for p in &info.partitions {
                let committed = self.committed(&info.name, p.partition)?;
                let position = committed.unwrap_or(p.start).clamp(p.start, p.end);
                assignment.push((info.name.clone(), p.partition));
                positions.insert((info.name.clone(), p.partition), position);
            }
        }
        assignment.sort();
        self.assignment = assignment;
        self.positions = positions;
        self.synced_epoch = self.client.epoch();
        Ok(())
    }

    fn committed(&mut self, topic: &str, partition: u32) -> NetResult<Option<u64>> {
        match self.client.request(&Request::FetchOffset {
            group: self.group.clone(),
            topic: topic.into(),
            partition,
        })? {
            Response::CommittedOffset(offset) => Ok(offset),
            other => Err(unexpected("CommittedOffset", &other)),
        }
    }

    /// Polls for records across the assignment, long-polling up to
    /// `timeout` when all partitions are drained. Returns an empty
    /// batch on timeout.
    ///
    /// If the connection was lost (and transparently re-established)
    /// since the last poll, positions are first re-seeded from the
    /// group's committed offsets, so uncommitted reads re-deliver.
    ///
    /// # Errors
    ///
    /// Broker or transport errors.
    pub fn poll(&mut self, timeout: Duration) -> NetResult<Vec<PolledRecord>> {
        if self.client.epoch() != self.synced_epoch {
            self.sync_positions()?;
        }
        let mut out = Vec::new();
        // First pass: drain whatever is already stored, no waiting.
        self.poll_once(Duration::ZERO, &mut out)?;
        if !out.is_empty() || timeout.is_zero() {
            return Ok(out);
        }
        // Nothing buffered: spend the wait budget on a long poll of
        // the first partition, then sweep the rest without waiting so
        // one quiet partition cannot starve the others.
        self.poll_once(timeout, &mut out)?;
        Ok(out)
    }

    fn poll_once(&mut self, wait: Duration, out: &mut Vec<PolledRecord>) -> NetResult<()> {
        let mut remaining_wait = wait;
        for (topic, partition) in self.assignment.clone() {
            if out.len() >= self.max_poll_records {
                break;
            }
            let position = *self
                .positions
                .get(&(topic.clone(), partition))
                .unwrap_or(&0);
            let response = self.client.request(&Request::Fetch {
                topic: topic.clone(),
                partition,
                offset: position,
                max_records: (self.max_poll_records - out.len()) as u32,
                max_wait_ms: remaining_wait.as_millis().min(u32::MAX as u128) as u32,
            });
            // A reconnect mid-poll invalidates every position,
            // including ones this sweep already advanced: drop what
            // we have and let the caller's next poll re-sync.
            if self.client.epoch() != self.synced_epoch {
                out.clear();
                self.sync_positions()?;
                return Ok(());
            }
            let records = match response? {
                Response::Records(records) => records,
                other => return Err(unexpected("Records", &other)),
            };
            remaining_wait = Duration::ZERO; // Only the first fetch waits.
            if let Some(last) = records.last() {
                self.positions
                    .insert((topic.clone(), partition), last.offset + 1);
            }
            out.extend(records.into_iter().map(|stored| PolledRecord {
                topic: topic.clone(),
                partition,
                offset: stored.offset,
                record: stored.record,
            }));
        }
        Ok(())
    }

    /// Commits the current positions of every assigned partition
    /// under the consumer's group, making them the resume points for
    /// reconnects and successors.
    ///
    /// # Errors
    ///
    /// Broker or transport errors. On error, part of the assignment
    /// may have committed; re-committing is safe (idempotent).
    pub fn commit(&mut self) -> NetResult<()> {
        for ((topic, partition), offset) in self.positions.clone() {
            match self.client.request(&Request::CommitOffset {
                group: self.group.clone(),
                topic,
                partition,
                offset,
            })? {
                Response::Committed => {}
                other => return Err(unexpected("Committed", &other)),
            }
        }
        Ok(())
    }

    /// Rewinds every assigned partition to its start offset. Does not
    /// commit; pair with [`commit`](Self::commit) to persist.
    ///
    /// # Errors
    ///
    /// Broker or transport errors.
    pub fn seek_to_beginning(&mut self) -> NetResult<()> {
        let topics: Vec<&str> = self.topics.iter().map(String::as_str).collect();
        let metadata = self.client.metadata(&topics)?;
        for info in metadata {
            for p in info.partitions {
                self.positions
                    .insert((info.name.clone(), p.partition), p.start);
            }
        }
        Ok(())
    }
}
