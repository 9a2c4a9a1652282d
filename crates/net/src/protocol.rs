//! The request/response protocol spoken between
//! [`BrokerServer`](crate::server::BrokerServer) and the remote clients.
//!
//! Messages travel inside the CRC frame of [`codec`](crate::codec);
//! this module defines what the frame bodies mean:
//!
//! ```text
//! body := version u8 · message_type u8 · payload
//! ```
//!
//! Payload scalars are little-endian, strings are `u16 len · utf-8`
//! (metrics dumps `u32 len · utf-8`), all written and read through
//! [`strata_chaos::frame`]'s `put_*` functions and [`Reader`], and
//! records reuse the `strata-pubsub` segment framing
//! ([`wire::encode_frame`]) verbatim — a record's bytes are identical
//! at rest and in flight, covered by the same CRC-32.
//!
//! The protocol is strictly blocking request/response per connection:
//! every request produces exactly one response, in order. There is no
//! correlation id; pipelining is achieved with multiple connections.

use strata_pubsub::record::{Record, StoredRecord};
use strata_pubsub::wire::{self, put_str16, put_str32, put_u16, put_u32, put_u64, Reader};
use strata_pubsub::Error as BrokerError;

use crate::error::{NetError, NetResult};

/// Protocol version carried in every message body.
pub const PROTOCOL_VERSION: u8 = 1;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Creates a memory-backed topic with `partitions` partitions.
    CreateTopic {
        /// Topic name.
        topic: String,
        /// Partition count (≥ 1).
        partitions: u32,
    },
    /// Appends a record through `Broker::produce`. With
    /// `partition: None` the server's broker picks the partition (key
    /// hash, or the topic's round-robin); `Some(p)` bypasses the
    /// partitioner.
    Produce {
        /// Target topic.
        topic: String,
        /// Explicit partition, or `None` for server-side choice.
        partition: Option<u32>,
        /// The record to append.
        record: Record,
    },
    /// Reads up to `max_records` from one partition at `offset`,
    /// long-polling up to `max_wait_ms` when the log has no new data.
    Fetch {
        /// Topic to read.
        topic: String,
        /// Partition index.
        partition: u32,
        /// First offset wanted.
        offset: u64,
        /// Batch size cap.
        max_records: u32,
        /// Long-poll budget; 0 returns immediately.
        max_wait_ms: u32,
    },
    /// Commits `offset` as `(group, topic, partition)`'s resume point.
    CommitOffset {
        /// Consumer group.
        group: String,
        /// Topic.
        topic: String,
        /// Partition index.
        partition: u32,
        /// Next offset the group should read.
        offset: u64,
    },
    /// Asks for the committed offset of `(group, topic, partition)`.
    FetchOffset {
        /// Consumer group.
        group: String,
        /// Topic.
        topic: String,
        /// Partition index.
        partition: u32,
    },
    /// Asks for topic metadata: partition counts and per-partition
    /// `[start, end)` offsets. Empty `topics` means "all topics".
    Metadata {
        /// Topics of interest, or empty for all.
        topics: Vec<String>,
    },
    /// Asks for the total backlog of `group` on `topic`.
    ConsumerLag {
        /// Consumer group.
        group: String,
        /// Topic.
        topic: String,
    },
    /// Asks for a Prometheus text dump of the server's metrics
    /// registry.
    Metrics,
}

/// Per-partition metadata in a [`Response::Metadata`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionInfo {
    /// Partition index.
    pub partition: u32,
    /// First stored offset.
    pub start: u64,
    /// One past the last stored offset.
    pub end: u64,
}

/// Per-topic metadata in a [`Response::Metadata`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicInfo {
    /// Topic name.
    pub name: String,
    /// One entry per partition, in index order.
    pub partitions: Vec<PartitionInfo>,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Topic created.
    Created,
    /// Record appended at `(partition, offset)`.
    Produced {
        /// Partition the record landed in.
        partition: u32,
        /// Offset assigned to the record.
        offset: u64,
    },
    /// A fetch's batch (possibly empty after the wait budget).
    Records(Vec<StoredRecord>),
    /// Offset commit acknowledged.
    Committed,
    /// The committed offset asked for, if one exists.
    CommittedOffset(Option<u64>),
    /// Topic metadata.
    Metadata(Vec<TopicInfo>),
    /// Consumer lag of a group on a topic.
    Lag(u64),
    /// A Prometheus text dump of the server's metrics registry.
    MetricsText(String),
    /// The request failed broker-side.
    Error {
        /// Error category.
        code: ErrorCode,
        /// Human-readable detail (or the variant's string payload).
        message: String,
        /// Numeric detail (offsets, partition index) so structured
        /// errors survive the wire.
        context: Vec<u64>,
    },
}

/// Wire error categories, mirroring [`strata_pubsub::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// See [`strata_pubsub::Error::UnknownTopic`].
    UnknownTopic = 1,
    /// See [`strata_pubsub::Error::TopicExists`].
    TopicExists = 2,
    /// See [`strata_pubsub::Error::UnknownPartition`].
    UnknownPartition = 3,
    /// See [`strata_pubsub::Error::OffsetOutOfRange`].
    OffsetOutOfRange = 4,
    // 5 is unassigned: it was a group rebalance, which no longer
    // exists. Do not reuse it.
    /// See [`strata_pubsub::Error::InvalidConfig`].
    InvalidConfig = 6,
    /// See [`strata_pubsub::Error::Corrupt`].
    Corrupt = 7,
    /// See [`strata_pubsub::Error::Io`].
    Io = 8,
    /// The request itself was malformed (client bug).
    BadRequest = 9,
}

impl ErrorCode {
    /// Decodes a wire error code.
    pub fn from_u16(value: u16) -> Option<Self> {
        Some(match value {
            1 => ErrorCode::UnknownTopic,
            2 => ErrorCode::TopicExists,
            3 => ErrorCode::UnknownPartition,
            4 => ErrorCode::OffsetOutOfRange,
            6 => ErrorCode::InvalidConfig,
            7 => ErrorCode::Corrupt,
            8 => ErrorCode::Io,
            9 => ErrorCode::BadRequest,
            _ => return None,
        })
    }

    /// Flattens a broker error into `(code, message, context)` for
    /// the wire. Inverse of
    /// [`broker_error_from_wire`](crate::error::broker_error_from_wire).
    pub fn from_broker_error(err: &BrokerError) -> (Self, String, Vec<u64>) {
        match err {
            BrokerError::UnknownTopic(name) => (ErrorCode::UnknownTopic, name.clone(), vec![]),
            BrokerError::TopicExists(name) => (ErrorCode::TopicExists, name.clone(), vec![]),
            BrokerError::UnknownPartition { topic, partition } => (
                ErrorCode::UnknownPartition,
                topic.clone(),
                vec![*partition as u64],
            ),
            BrokerError::OffsetOutOfRange {
                requested,
                start,
                end,
            } => (
                ErrorCode::OffsetOutOfRange,
                String::new(),
                vec![*requested, *start, *end],
            ),
            BrokerError::InvalidConfig(msg) => (ErrorCode::InvalidConfig, msg.clone(), vec![]),
            BrokerError::Corrupt(msg) => (ErrorCode::Corrupt, msg.clone(), vec![]),
            BrokerError::Io(err) => (ErrorCode::Io, err.to_string(), vec![]),
            other => (ErrorCode::Io, other.to_string(), vec![]),
        }
    }
}

// ───────────────────────── encoding helpers ─────────────────────────

/// Encodes a record without an offset (the `Produce` payload) by
/// reusing the stored-record framing with a zero placeholder offset.
fn put_record(buf: &mut Vec<u8>, record: &Record) {
    let stored = StoredRecord {
        offset: 0,
        record: record.clone(),
    };
    wire::encode_frame(&stored, buf);
}

fn read_stored_record(r: &mut Reader<'_>) -> NetResult<StoredRecord> {
    // Frames are self-delimiting: decode one from the unread rest,
    // then read past it.
    let (stored, used) = wire::decode_frame(r.rest())?;
    r.bytes(used)?;
    Ok(stored)
}

// ───────────────────────── message encoding ─────────────────────────

const REQ_CREATE_TOPIC: u8 = 1;
const REQ_PRODUCE: u8 = 2;
const REQ_FETCH: u8 = 3;
const REQ_COMMIT_OFFSET: u8 = 4;
const REQ_FETCH_OFFSET: u8 = 5;
const REQ_METADATA: u8 = 6;
const REQ_CONSUMER_LAG: u8 = 7;
const REQ_METRICS: u8 = 8;

const RESP_CREATED: u8 = 1;
const RESP_PRODUCED: u8 = 2;
const RESP_RECORDS: u8 = 3;
const RESP_COMMITTED: u8 = 4;
const RESP_COMMITTED_OFFSET: u8 = 5;
const RESP_METADATA: u8 = 6;
const RESP_LAG: u8 = 7;
const RESP_ERROR: u8 = 8;
const RESP_METRICS_TEXT: u8 = 9;

/// Explicit-partition marker in `Produce` (1 = explicit, 0 = auto).
const PARTITION_EXPLICIT: u8 = 1;

impl Request {
    /// Encodes this request into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![PROTOCOL_VERSION];
        match self {
            Request::CreateTopic { topic, partitions } => {
                buf.push(REQ_CREATE_TOPIC);
                put_str16(&mut buf, topic);
                put_u32(&mut buf, *partitions);
            }
            Request::Produce {
                topic,
                partition,
                record,
            } => {
                buf.push(REQ_PRODUCE);
                put_str16(&mut buf, topic);
                match partition {
                    Some(p) => {
                        buf.push(PARTITION_EXPLICIT);
                        put_u32(&mut buf, *p);
                    }
                    None => {
                        buf.push(0);
                        put_u32(&mut buf, 0);
                    }
                }
                put_record(&mut buf, record);
            }
            Request::Fetch {
                topic,
                partition,
                offset,
                max_records,
                max_wait_ms,
            } => {
                buf.push(REQ_FETCH);
                put_str16(&mut buf, topic);
                put_u32(&mut buf, *partition);
                put_u64(&mut buf, *offset);
                put_u32(&mut buf, *max_records);
                put_u32(&mut buf, *max_wait_ms);
            }
            Request::CommitOffset {
                group,
                topic,
                partition,
                offset,
            } => {
                buf.push(REQ_COMMIT_OFFSET);
                put_str16(&mut buf, group);
                put_str16(&mut buf, topic);
                put_u32(&mut buf, *partition);
                put_u64(&mut buf, *offset);
            }
            Request::FetchOffset {
                group,
                topic,
                partition,
            } => {
                buf.push(REQ_FETCH_OFFSET);
                put_str16(&mut buf, group);
                put_str16(&mut buf, topic);
                put_u32(&mut buf, *partition);
            }
            Request::Metadata { topics } => {
                buf.push(REQ_METADATA);
                put_u16(&mut buf, topics.len() as u16);
                for topic in topics {
                    put_str16(&mut buf, topic);
                }
            }
            Request::ConsumerLag { group, topic } => {
                buf.push(REQ_CONSUMER_LAG);
                put_str16(&mut buf, group);
                put_str16(&mut buf, topic);
            }
            Request::Metrics => buf.push(REQ_METRICS),
        }
        buf
    }

    /// Decodes a request from a frame body.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on version/type mismatches,
    /// [`NetError::Corrupt`] on truncated payloads.
    pub fn decode(body: &[u8]) -> NetResult<Self> {
        let mut r = Reader::new(body);
        let (version, kind) = (r.u8()?, r.u8()?);
        if version != PROTOCOL_VERSION {
            return Err(NetError::Protocol(format!(
                "unsupported protocol version {version}"
            )));
        }
        let request = match kind {
            REQ_CREATE_TOPIC => Request::CreateTopic {
                topic: r.str16()?.to_string(),
                partitions: r.u32()?,
            },
            REQ_PRODUCE => {
                let topic = r.str16()?.to_string();
                let explicit = r.u8()? == PARTITION_EXPLICIT;
                let partition = r.u32()?;
                let stored = read_stored_record(&mut r)?;
                Request::Produce {
                    topic,
                    partition: explicit.then_some(partition),
                    record: stored.record,
                }
            }
            REQ_FETCH => Request::Fetch {
                topic: r.str16()?.to_string(),
                partition: r.u32()?,
                offset: r.u64()?,
                max_records: r.u32()?,
                max_wait_ms: r.u32()?,
            },
            REQ_COMMIT_OFFSET => Request::CommitOffset {
                group: r.str16()?.to_string(),
                topic: r.str16()?.to_string(),
                partition: r.u32()?,
                offset: r.u64()?,
            },
            REQ_FETCH_OFFSET => Request::FetchOffset {
                group: r.str16()?.to_string(),
                topic: r.str16()?.to_string(),
                partition: r.u32()?,
            },
            REQ_METADATA => {
                let count = r.u16()? as usize;
                let mut topics = Vec::with_capacity(count);
                for _ in 0..count {
                    topics.push(r.str16()?.to_string());
                }
                Request::Metadata { topics }
            }
            REQ_CONSUMER_LAG => Request::ConsumerLag {
                group: r.str16()?.to_string(),
                topic: r.str16()?.to_string(),
            },
            REQ_METRICS => Request::Metrics,
            other => return Err(NetError::Protocol(format!("unknown request type {other}"))),
        };
        r.finish()?;
        Ok(request)
    }
}

/// Cuts `records` to the longest prefix whose [`Response::Records`]
/// body stays within `max_body` bytes, keeping at least one record: a
/// record too large for any frame is already refused at produce time.
pub(crate) fn truncate_to_body(records: &mut Vec<StoredRecord>, max_body: usize) {
    let mut body = 1 + 1 + 4; // version · tag · count
    let fits = records
        .iter()
        .take_while(|stored| {
            body += wire::frame_len(stored);
            body <= max_body
        })
        .count();
    records.truncate(fits.max(1));
}

impl Response {
    /// Encodes this response into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![PROTOCOL_VERSION];
        match self {
            Response::Created => buf.push(RESP_CREATED),
            Response::Produced { partition, offset } => {
                buf.push(RESP_PRODUCED);
                put_u32(&mut buf, *partition);
                put_u64(&mut buf, *offset);
            }
            Response::Records(records) => {
                buf.push(RESP_RECORDS);
                put_u32(&mut buf, records.len() as u32);
                for stored in records {
                    wire::encode_frame(stored, &mut buf);
                }
            }
            Response::Committed => buf.push(RESP_COMMITTED),
            Response::CommittedOffset(offset) => {
                buf.push(RESP_COMMITTED_OFFSET);
                buf.push(offset.is_some() as u8);
                put_u64(&mut buf, offset.unwrap_or(0));
            }
            Response::Metadata(topics) => {
                buf.push(RESP_METADATA);
                put_u16(&mut buf, topics.len() as u16);
                for topic in topics {
                    put_str16(&mut buf, &topic.name);
                    put_u32(&mut buf, topic.partitions.len() as u32);
                    for p in &topic.partitions {
                        put_u32(&mut buf, p.partition);
                        put_u64(&mut buf, p.start);
                        put_u64(&mut buf, p.end);
                    }
                }
            }
            Response::Lag(lag) => {
                buf.push(RESP_LAG);
                put_u64(&mut buf, *lag);
            }
            Response::MetricsText(text) => {
                buf.push(RESP_METRICS_TEXT);
                put_str32(&mut buf, text);
            }
            Response::Error {
                code,
                message,
                context,
            } => {
                buf.push(RESP_ERROR);
                put_u16(&mut buf, *code as u16);
                put_str16(&mut buf, message);
                buf.push(context.len() as u8);
                for value in context {
                    put_u64(&mut buf, *value);
                }
            }
        }
        buf
    }

    /// Decodes a response from a frame body.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on version/type mismatches,
    /// [`NetError::Corrupt`] on truncated payloads.
    pub fn decode(body: &[u8]) -> NetResult<Self> {
        let mut r = Reader::new(body);
        let (version, kind) = (r.u8()?, r.u8()?);
        if version != PROTOCOL_VERSION {
            return Err(NetError::Protocol(format!(
                "unsupported protocol version {version}"
            )));
        }
        let response = match kind {
            RESP_CREATED => Response::Created,
            RESP_PRODUCED => Response::Produced {
                partition: r.u32()?,
                offset: r.u64()?,
            },
            RESP_RECORDS => {
                let count = r.u32()? as usize;
                let mut records = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    records.push(read_stored_record(&mut r)?);
                }
                Response::Records(records)
            }
            RESP_COMMITTED => Response::Committed,
            RESP_COMMITTED_OFFSET => {
                let present = r.u8()? != 0;
                let offset = r.u64()?;
                Response::CommittedOffset(present.then_some(offset))
            }
            RESP_METADATA => {
                let count = r.u16()? as usize;
                let mut topics = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = r.str16()?.to_string();
                    let partition_count = r.u32()? as usize;
                    let mut partitions = Vec::with_capacity(partition_count.min(4096));
                    for _ in 0..partition_count {
                        partitions.push(PartitionInfo {
                            partition: r.u32()?,
                            start: r.u64()?,
                            end: r.u64()?,
                        });
                    }
                    topics.push(TopicInfo { name, partitions });
                }
                Response::Metadata(topics)
            }
            RESP_LAG => Response::Lag(r.u64()?),
            RESP_METRICS_TEXT => Response::MetricsText(r.str32()?.to_string()),
            RESP_ERROR => {
                let raw_code = r.u16()?;
                let code = ErrorCode::from_u16(raw_code)
                    .ok_or_else(|| NetError::Protocol(format!("unknown error code {raw_code}")))?;
                let message = r.str16()?.to_string();
                let count = r.u8()? as usize;
                let mut context = Vec::with_capacity(count);
                for _ in 0..count {
                    context.push(r.u64()?);
                }
                Response::Error {
                    code,
                    message,
                    context,
                }
            }
            other => return Err(NetError::Protocol(format!("unknown response type {other}"))),
        };
        r.finish()?;
        Ok(response)
    }

    /// Converts a broker error into its wire response.
    pub fn from_broker_error(err: &BrokerError) -> Self {
        let (code, message, context) = ErrorCode::from_broker_error(err);
        Response::Error {
            code,
            message,
            context,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_truncated_to_the_body_budget() {
        let records: Vec<StoredRecord> = (0..5)
            .map(|offset| StoredRecord {
                offset,
                record: Record::new(Some("k"), vec![7u8; 100]),
            })
            .collect();
        let full = Response::Records(records.clone()).encode().len();
        let mut kept = records.clone();
        truncate_to_body(&mut kept, full);
        assert_eq!(kept.len(), 5, "an exact fit keeps everything");
        let mut kept = records.clone();
        truncate_to_body(&mut kept, full - 1);
        assert_eq!(kept.len(), 4);
        assert!(Response::Records(kept).encode().len() < full);
        let mut kept = records;
        truncate_to_body(&mut kept, 10);
        assert_eq!(kept.len(), 1, "at least one record is always returned");
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::CreateTopic {
                topic: "ot-images".into(),
                partitions: 4,
            },
            Request::Produce {
                topic: "t".into(),
                partition: Some(2),
                record: Record::new(Some("k"), "v").with_header("h", "x"),
            },
            Request::Produce {
                topic: "t".into(),
                partition: None,
                record: Record::new(None::<Vec<u8>>, vec![1u8, 2, 3]),
            },
            Request::Fetch {
                topic: "t".into(),
                partition: 1,
                offset: 42,
                max_records: 100,
                max_wait_ms: 250,
            },
            Request::CommitOffset {
                group: "g".into(),
                topic: "t".into(),
                partition: 0,
                offset: 7,
            },
            Request::FetchOffset {
                group: "g".into(),
                topic: "t".into(),
                partition: 0,
            },
            Request::Metadata { topics: vec![] },
            Request::Metadata {
                topics: vec!["a".into(), "b".into()],
            },
            Request::ConsumerLag {
                group: "g".into(),
                topic: "t".into(),
            },
            Request::Metrics,
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Created,
            Response::Produced {
                partition: 3,
                offset: 99,
            },
            Response::Records(vec![
                StoredRecord {
                    offset: 5,
                    record: Record::new(Some("k"), "v").with_timestamp(123),
                },
                StoredRecord {
                    offset: 6,
                    record: Record::new(None::<Vec<u8>>, "w"),
                },
            ]),
            Response::Records(vec![]),
            Response::Committed,
            Response::CommittedOffset(Some(17)),
            Response::CommittedOffset(None),
            Response::Metadata(vec![TopicInfo {
                name: "t".into(),
                partitions: vec![PartitionInfo {
                    partition: 0,
                    start: 2,
                    end: 9,
                }],
            }]),
            Response::Lag(1234),
            Response::MetricsText("# TYPE x counter\nx 1\n".into()),
            // Metrics dumps routinely exceed the u16 short-string cap;
            // the long-string framing must carry them intact.
            Response::MetricsText("m".repeat(100_000)),
            Response::Error {
                code: ErrorCode::OffsetOutOfRange,
                message: String::new(),
                context: vec![9, 2, 5],
            },
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode()).unwrap();
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut body = Request::Metadata { topics: vec![] }.encode();
        body[0] = 99;
        assert!(matches!(Request::decode(&body), Err(NetError::Protocol(_))));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut body = Response::Committed.encode();
        body.push(0xAB);
        assert!(matches!(Response::decode(&body), Err(NetError::Corrupt(_))));
    }

    #[test]
    fn unknown_types_are_rejected() {
        assert!(matches!(
            Request::decode(&[PROTOCOL_VERSION, 200]),
            Err(NetError::Protocol(_))
        ));
        assert!(matches!(
            Response::decode(&[PROTOCOL_VERSION, 200]),
            Err(NetError::Protocol(_))
        ));
    }
}
