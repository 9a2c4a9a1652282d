//! `strata-pubsub` — an in-process publish/subscribe broker.
//!
//! This crate is the pub/sub substrate of the STRATA reproduction,
//! standing in for the Apache Kafka deployment of the paper's
//! prototype (§4: the *Raw Data Connector* and *Event Connector*
//! modules "run in Apache Kafka"). It follows Kafka's storage and
//! consumption model:
//!
//! * named **topics** split into **partitions**;
//! * each partition is an append-only, offset-addressed **log**,
//!   either memory-resident or file-backed with segment files;
//! * [`Broker::produce`] appends a record, picking the partition by
//!   key hash, or round-robin per record for keyless records. Remote
//!   producers reach it through [`Transport::produce`];
//! * **consumers** poll every partition of their topics at their own
//!   pace and **commit** their positions under a **group**, so a
//!   successor in the group resumes after a restart. One
//!   [`Consumer`] serves both transports: it reads through a
//!   [`Transport`], which the in-process [`Broker`] implements here
//!   and `strata-net`'s client implements over TCP;
//! * optional per-partition **retention** bounds the log.
//!
//! Unlike Kafka there is no group membership or rebalancing, and the
//! network lives in `strata-net`. That preserves what
//! STRATA actually needs from the connector layer — decoupling of
//! modules, multiple independent subscribers, replay from arbitrary
//! offsets — while keeping the reproduction self-contained.
//!
//! # Example
//!
//! ```
//! use strata_pubsub::{Broker, Record, TopicConfig};
//!
//! let broker = Broker::new();
//! broker.create_topic("ot-images", TopicConfig::new(2))?;
//! let record = Record::new(Some("job-1"), b"layer-0 bytes".to_vec());
//! broker.produce("ot-images", None, record)?;
//!
//! let mut consumer = broker.consumer("monitor-group", &["ot-images"])?;
//! let records = consumer.poll(std::time::Duration::from_millis(100))?;
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].record.value.as_ref(), b"layer-0 bytes");
//! consumer.commit()?;
//! # Ok::<(), strata_pubsub::Error>(())
//! ```

pub mod broker;
pub mod checksum;
pub mod consumer;
pub mod error;
pub mod log;
pub mod offsets;
pub mod record;
pub mod retention;
pub mod topic;
pub mod wire;

pub use broker::{Broker, TopicConfig};
pub use consumer::{Consumer, PartitionRange, PolledRecord, Transport};
pub use error::{Error, Result};
pub use log::{LogKind, SyncPolicy};
pub use offsets::OffsetStore;
pub use record::{Record, StoredRecord};
pub use retention::RetentionPolicy;
