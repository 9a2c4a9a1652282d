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
//! * **producers** append records, picking the partition by key hash
//!   (or sticky round-robin for keyless records);
//! * **consumers** poll records at their own pace; consumers sharing
//!   a **group** split the partitions among themselves and can
//!   **commit** offsets to resume after a restart;
//! * optional per-partition **retention** bounds the log.
//!
//! Unlike Kafka there is no network: producers and consumers must
//! live in the same process as the [`Broker`]. That preserves what
//! STRATA actually needs from the connector layer — decoupling of
//! modules, multiple independent subscribers, replay from arbitrary
//! offsets — while keeping the reproduction self-contained.
//!
//! # Example
//!
//! ```
//! use strata_pubsub::{Broker, TopicConfig};
//!
//! let broker = Broker::new();
//! broker.create_topic("ot-images", TopicConfig::new(2))?;
//! let producer = broker.producer();
//! producer.send("ot-images", Some(b"job-1"), b"layer-0 bytes".to_vec())?;
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
pub mod producer;
pub mod record;
pub mod retention;
pub mod topic;
pub mod wire;

pub use broker::{Broker, TopicConfig};
pub use consumer::{Consumer, PolledRecord};
pub use error::{Error, Result};
pub use log::{LogKind, SyncPolicy};
pub use offsets::OffsetStore;
pub use producer::Producer;
pub use record::{Record, StoredRecord};
pub use retention::RetentionPolicy;
