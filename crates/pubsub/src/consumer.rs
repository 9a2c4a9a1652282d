//! The one consumer: polls every partition of its topics, tracks its
//! positions and commits them under its group, over any [`Transport`]
//! to the broker.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::broker::Broker;
use crate::error::{Error, Result};
use crate::record::{Record, StoredRecord};

/// Batch-size cap per poll of a new consumer; see
/// [`Consumer::set_max_poll_records`].
const MAX_POLL_RECORDS: usize = 500;

/// A record returned by [`Consumer::poll`], annotated with where it
/// came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolledRecord {
    /// Topic the record was read from.
    pub topic: String,
    /// Partition within the topic.
    pub partition: u32,
    /// The record's offset in that partition.
    pub offset: u64,
    /// The record itself.
    pub record: Record,
}

/// A topic's partition with its `(start, end)` offsets.
pub type PartitionRange = (String, u32, (u64, u64));

/// The broker calls a [`Consumer`] makes. [`Broker`] answers them in
/// process; `strata-net`'s `BrokerClient` sends them over TCP.
pub trait Transport: std::fmt::Debug {
    /// Every partition of `topics` with its `(start, end)` offsets.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTopic`] if a topic is missing, or transport
    /// errors.
    fn partitions(&mut self, topics: &[String]) -> Result<Vec<PartitionRange>>;

    /// The offset `group` last committed on `topic`/`partition`, if
    /// any.
    ///
    /// # Errors
    ///
    /// Transport errors.
    fn committed(&mut self, group: &str, topic: &str, partition: u32) -> Result<Option<u64>>;

    /// Up to `max_records` records of `topic`/`partition` from
    /// `offset` on, waiting up to `wait` for the first one to be
    /// appended.
    ///
    /// # Errors
    ///
    /// [`Error::OffsetOutOfRange`] when `offset` lies outside the
    /// partition's `[start, end]`, [`Error::UnknownTopic`], or
    /// transport errors.
    fn fetch(
        &mut self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_records: usize,
        wait: Duration,
    ) -> Result<Vec<StoredRecord>>;

    /// Commits `offset` as `group`'s resume point on
    /// `topic`/`partition`.
    ///
    /// # Errors
    ///
    /// I/O failures persisting the commit, or transport errors.
    fn commit(&mut self, group: &str, topic: &str, partition: u32, offset: u64) -> Result<()>;

    /// The connection epoch, bumped whenever the transport reconnects
    /// to the broker. Always 0 in process.
    fn epoch(&self) -> u64 {
        0
    }
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn partitions(&mut self, topics: &[String]) -> Result<Vec<PartitionRange>> {
        (**self).partitions(topics)
    }

    fn committed(&mut self, group: &str, topic: &str, partition: u32) -> Result<Option<u64>> {
        (**self).committed(group, topic, partition)
    }

    fn fetch(
        &mut self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_records: usize,
        wait: Duration,
    ) -> Result<Vec<StoredRecord>> {
        (**self).fetch(topic, partition, offset, max_records, wait)
    }

    fn commit(&mut self, group: &str, topic: &str, partition: u32, offset: u64) -> Result<()> {
        (**self).commit(group, topic, partition, offset)
    }

    fn epoch(&self) -> u64 {
        (**self).epoch()
    }
}

/// A consumer in a group, reading every partition of its topics.
///
/// There is no group membership: the consumer owns all partitions of
/// its topics and tracks its positions itself. Distinct groups each
/// see every record; a successor in the same group resumes where the
/// last [`commit`](Consumer::commit) left off.
///
/// - *Seeding.* Each partition starts at the group's committed offset.
///   With none, or with one outside the partition's `[start, end]`
///   (retention trimmed it, or the broker came back with less data),
///   it starts at the log start, like Kafka's `earliest` reset.
/// - *Retention.* A fetch that finds its position trimmed away
///   ([`Error::OffsetOutOfRange`]) snaps forward to the log start.
/// - *Reconnects.* When the transport's [`epoch`](Transport::epoch)
///   changes, the positions are re-seeded from the committed offsets
///   and the records read since are dropped, so uncommitted reads are
///   delivered again: at-least-once overall, and exactly-once for a
///   consumer that commits before acting on the next batch.
#[derive(Debug)]
pub struct Consumer<T: Transport = Broker> {
    transport: T,
    group: String,
    topics: Vec<String>,
    /// `(topic, partition)` → next offset to read, in polling order.
    positions: BTreeMap<(String, u32), u64>,
    /// The transport epoch the positions were seeded against.
    synced_epoch: u64,
    max_poll_records: usize,
}

impl<T: Transport> Consumer<T> {
    /// A consumer in `group` reading every partition of `topics` over
    /// `transport`, seeded from the group's committed offsets.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTopic`] if a topic is missing, or transport
    /// errors.
    pub fn new(transport: T, group: impl Into<String>, topics: &[&str]) -> Result<Self> {
        let mut consumer = Consumer {
            transport,
            group: group.into(),
            topics: topics.iter().map(|t| t.to_string()).collect(),
            positions: BTreeMap::new(),
            synced_epoch: 0,
            max_poll_records: MAX_POLL_RECORDS,
        };
        consumer.seed()?;
        Ok(consumer)
    }

    /// Caps how many records a single [`poll`](Consumer::poll)
    /// returns (default 500).
    pub fn set_max_poll_records(&mut self, max: usize) {
        self.max_poll_records = max.max(1);
    }

    /// The transport this consumer reads through (for lag queries and
    /// test hooks such as killing a connection mid-stream).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Starts every partition at its committed offset; see the seeding
    /// rule above.
    fn seed(&mut self) -> Result<()> {
        let mut positions = BTreeMap::new();
        for (topic, partition, (start, end)) in self.transport.partitions(&self.topics)? {
            let committed = self.transport.committed(&self.group, &topic, partition)?;
            let position = committed
                .filter(|offset| (start..=end).contains(offset))
                .unwrap_or(start);
            positions.insert((topic, partition), position);
        }
        self.positions = positions;
        self.synced_epoch = self.transport.epoch();
        Ok(())
    }

    /// Fetches available records from every partition, waiting up to
    /// `timeout` when none are stored. An empty vector after `timeout`
    /// means no data arrived.
    ///
    /// The first sweep asks every partition without waiting. Only if
    /// it finds nothing does a second sweep spend `timeout` on the
    /// first partition and then ask the rest without waiting.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTopic`] if a topic was deleted, storage or
    /// transport errors.
    pub fn poll(&mut self, timeout: Duration) -> Result<Vec<PolledRecord>> {
        if self.transport.epoch() != self.synced_epoch {
            self.seed()?;
        }
        let mut out = Vec::new();
        self.sweep(Duration::ZERO, &mut out)?;
        if out.is_empty() && !timeout.is_zero() {
            self.sweep(timeout, &mut out)?;
        }
        Ok(out)
    }

    /// Fetches from each partition in turn into `out`; only the first
    /// fetch waits, for up to `wait`.
    fn sweep(&mut self, mut wait: Duration, out: &mut Vec<PolledRecord>) -> Result<()> {
        let mut reconnected = false;
        for ((topic, partition), position) in &mut self.positions {
            if out.len() >= self.max_poll_records {
                break;
            }
            let max = self.max_poll_records - out.len();
            let fetched = match self
                .transport
                .fetch(topic, *partition, *position, max, wait)
            {
                Err(Error::OffsetOutOfRange { start, .. }) => {
                    *position = start;
                    self.transport.fetch(topic, *partition, start, max, wait)
                }
                fetched => fetched,
            };
            if self.transport.epoch() != self.synced_epoch {
                reconnected = true;
                break;
            }
            let records = fetched?;
            wait = Duration::ZERO;
            if let Some(last) = records.last() {
                *position = last.offset + 1;
            }
            out.extend(records.into_iter().map(|stored| PolledRecord {
                topic: topic.clone(),
                partition: *partition,
                offset: stored.offset,
                record: stored.record,
            }));
        }
        if reconnected {
            // The reconnect invalidated every position, also those this
            // sweep advanced: drop what it read and re-seed.
            out.clear();
            self.seed()?;
        }
        Ok(())
    }

    /// Commits the current position of every partition under the
    /// consumer's group, making them the resume points for reconnects
    /// and successors.
    ///
    /// # Errors
    ///
    /// I/O failures persisting a commit, or transport errors. On error
    /// some partitions may have committed; committing again is safe.
    pub fn commit(&mut self) -> Result<()> {
        for ((topic, partition), &offset) in &self.positions {
            self.transport
                .commit(&self.group, topic, *partition, offset)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::TopicConfig;
    use std::time::Instant;

    fn broker_with(topic: &str, partitions: u32) -> Broker {
        let broker = Broker::new();
        broker
            .create_topic(topic, TopicConfig::new(partitions))
            .unwrap();
        broker
    }

    #[test]
    fn polls_produced_records() {
        let broker = broker_with("t", 1);
        let producer = broker.producer();
        producer.send("t", None, "a").unwrap();
        producer.send("t", None, "b").unwrap();
        let mut consumer = broker.consumer("g", &["t"]).unwrap();
        let got = consumer.poll(Duration::from_millis(100)).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].record.value.as_ref(), b"a");
        assert_eq!(got[1].offset, 1);
    }

    #[test]
    fn poll_times_out_without_data() {
        let broker = broker_with("t", 1);
        let mut consumer = broker.consumer("g", &["t"]).unwrap();
        let start = Instant::now();
        let got = consumer.poll(Duration::from_millis(50)).unwrap();
        assert!(got.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn blocked_poll_wakes_on_produce() {
        let broker = broker_with("t", 1);
        let producer = broker.producer();
        let mut consumer = broker.consumer("g", &["t"]).unwrap();
        let handle = std::thread::spawn(move || consumer.poll(Duration::from_secs(5)).unwrap());
        std::thread::sleep(Duration::from_millis(30));
        producer.send("t", None, "late").unwrap();
        let got = handle.join().unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn independent_groups_both_see_everything() {
        let broker = broker_with("t", 2);
        let producer = broker.producer();
        for n in 0..10u8 {
            producer.send("t", Some(&[n]), vec![n]).unwrap();
        }
        for group in ["g1", "g2"] {
            let mut consumer = broker.consumer(group, &["t"]).unwrap();
            let got = consumer.poll(Duration::from_millis(100)).unwrap();
            assert_eq!(got.len(), 10, "group {group}");
        }
    }

    #[test]
    fn committed_offsets_resume_a_group() {
        let broker = broker_with("t", 1);
        let producer = broker.producer();
        for n in 0..6u8 {
            producer.send("t", None, vec![n]).unwrap();
        }
        {
            let mut c = broker.consumer("g", &["t"]).unwrap();
            c.set_max_poll_records(4);
            let got = c.poll(Duration::from_millis(100)).unwrap();
            assert_eq!(got.len(), 4);
            c.commit().unwrap();
        } // Consumer gone; offsets live in the group.
        let mut c2 = broker.consumer("g", &["t"]).unwrap();
        let got = c2.poll(Duration::from_millis(100)).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].offset, 4);
    }

    #[test]
    fn commits_are_timed() {
        let broker = broker_with("t", 1);
        broker.producer().send("t", None, "a").unwrap();
        let mut consumer = broker.consumer("g", &["t"]).unwrap();
        consumer.poll(Duration::from_millis(100)).unwrap();
        consumer.commit().unwrap();
        let metrics = broker.registry().render();
        assert!(
            metrics.contains("pubsub_commit_ns_count 1\n"),
            "one commit, one sample:\n{metrics}"
        );
    }

    #[test]
    fn retention_snaps_position_forward() {
        let broker = Broker::new();
        broker
            .create_topic(
                "t",
                TopicConfig::new(1).with_retention(
                    crate::retention::RetentionPolicy::default().with_max_records(2),
                ),
            )
            .unwrap();
        let producer = broker.producer();
        let mut consumer = broker.consumer("g", &["t"]).unwrap();
        producer.send("t", None, "a").unwrap();
        let _ = consumer.poll(Duration::from_millis(50)).unwrap();
        // Produce enough that offset 1 is trimmed away.
        for n in 0..5u8 {
            producer.send("t", None, vec![n]).unwrap();
        }
        let got = consumer.poll(Duration::from_millis(100)).unwrap();
        assert!(!got.is_empty(), "must recover instead of erroring");
        assert!(got[0].offset >= 1);
    }
}
