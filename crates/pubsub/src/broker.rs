//! The broker: topic registry, committed group offsets, and the
//! wakeup machinery connecting producers to blocked fetches.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};
use strata_obs::{Histogram, Registry};

use crate::consumer::{Consumer, PartitionRange, Transport};
use crate::error::{Error, Result};
use crate::log::{LogKind, SyncPolicy};
use crate::offsets::OffsetStore;
use crate::producer::Producer;
use crate::record::StoredRecord;
use crate::retention::RetentionPolicy;
use crate::topic::Topic;

/// Longest single wait of [`Broker::fetch_wait`]: how promptly it
/// notices its stop condition.
const STOP_POLL: Duration = Duration::from_millis(100);

/// Configuration for a new topic.
///
/// ```
/// use strata_pubsub::{LogKind, RetentionPolicy, TopicConfig};
/// let cfg = TopicConfig::new(4)
///     .with_log(LogKind::Memory)
///     .with_retention(RetentionPolicy::default().with_max_records(1_000));
/// ```
#[derive(Debug, Clone)]
pub struct TopicConfig {
    partitions: u32,
    log: LogKind,
    retention: RetentionPolicy,
}

impl TopicConfig {
    /// A topic with `partitions` memory-backed partitions and
    /// unbounded retention.
    pub fn new(partitions: u32) -> Self {
        TopicConfig {
            partitions,
            log: LogKind::Memory,
            retention: RetentionPolicy::unbounded(),
        }
    }

    /// Chooses the storage backing the partitions.
    pub fn with_log(mut self, log: LogKind) -> Self {
        self.log = log;
        self
    }

    /// Bounds the partitions with a retention policy.
    pub fn with_retention(mut self, retention: RetentionPolicy) -> Self {
        self.retention = retention;
        self
    }
}

pub(crate) struct BrokerInner {
    topics: RwLock<HashMap<String, Arc<Topic>>>,
    /// Committed group offsets, durable when opened from a file.
    offsets: Mutex<OffsetStore>,
    /// Bumped on every append; consumers block on it while idle.
    appends: Mutex<u64>,
    data_ready: Condvar,
    /// The metrics registry topics register their counters into; also
    /// where embedders (kv, net, spe) land so one render covers the
    /// whole process.
    registry: Registry,
    /// How long fetches blocked waiting for appends: the long-poll
    /// wait.
    fetch_wait_ns: Histogram,
    /// Offset-commit latency, durable persistence included.
    commit_ns: Histogram,
}

impl BrokerInner {
    pub(crate) fn topic(&self, name: &str) -> Result<Arc<Topic>> {
        self.topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownTopic(name.to_string()))
    }

    pub(crate) fn notify_append(&self) {
        *self.appends.lock() += 1;
        self.data_ready.notify_all();
    }
}

/// The in-process message broker. Cheap to clone ([`Arc`]-backed);
/// all clones address the same topics and groups.
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("topics", &self.inner.topics.read().len())
            .finish()
    }
}

impl Default for Broker {
    fn default() -> Self {
        Broker::new()
    }
}

impl Broker {
    /// Creates an empty broker with its own private metrics registry.
    pub fn new() -> Self {
        Broker::with_registry(Registry::new())
    }

    /// Creates an empty broker that registers its metrics (per-topic
    /// flow counters, fetch-wait and commit latency) into `registry`.
    /// Embedders share one registry across the broker, the kv store
    /// and the servers on top, so one render covers everything.
    pub fn with_registry(registry: Registry) -> Self {
        Broker {
            inner: Arc::new(Self::inner_with(registry, OffsetStore::in_memory())),
        }
    }

    fn inner_with(registry: Registry, offsets: OffsetStore) -> BrokerInner {
        let fetch_wait_ns = registry.histogram(
            "pubsub_fetch_wait_ns",
            "Time consumers spent blocked waiting for new appends",
            &[],
        );
        let commit_ns = registry.histogram(
            "pubsub_commit_ns",
            "Offset-commit latency including durable persistence",
            &[],
        );
        BrokerInner {
            topics: RwLock::new(HashMap::new()),
            offsets: Mutex::new(offsets),
            appends: Mutex::new(0),
            data_ready: Condvar::new(),
            registry,
            fetch_wait_ns,
            commit_ns,
        }
    }

    /// The registry this broker's metrics live in.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Creates a broker whose committed group offsets are kept in a
    /// durable [`OffsetStore`] at `path`, so a restarted broker
    /// resumes consumers from their last committed positions.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] if the store is damaged before its final
    /// frame (a torn final frame is truncated away), or I/O failures.
    pub fn with_offset_store(path: impl Into<PathBuf>, sync: SyncPolicy) -> Result<Self> {
        let store = OffsetStore::open(path, sync)?;
        Ok(Broker {
            inner: Arc::new(Self::inner_with(Registry::new(), store)),
        })
    }

    /// Creates a topic.
    ///
    /// # Errors
    ///
    /// [`Error::TopicExists`] if the name is taken,
    /// [`Error::InvalidConfig`] for zero partitions, or storage errors
    /// for file-backed logs.
    pub fn create_topic(&self, name: impl Into<String>, config: TopicConfig) -> Result<()> {
        let name = name.into();
        let mut topics = self.inner.topics.write();
        if topics.contains_key(&name) {
            return Err(Error::TopicExists(name));
        }
        let topic = Topic::create(
            name.clone(),
            config.partitions,
            &config.log,
            config.retention,
            &self.inner.registry,
        )?;
        topics.insert(name, Arc::new(topic));
        Ok(())
    }

    /// Deletes a topic. Consumers subscribed to it will error on
    /// their next poll.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTopic`] if it does not exist.
    pub fn delete_topic(&self, name: &str) -> Result<()> {
        self.inner
            .topics
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::UnknownTopic(name.to_string()))
    }

    /// Names of all existing topics, sorted.
    pub fn topics(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.topics.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of partitions of `name`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTopic`] if it does not exist.
    pub fn partition_count(&self, name: &str) -> Result<u32> {
        Ok(self.inner.topic(name)?.partition_count())
    }

    /// The `(start, end)` offsets of a partition.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTopic`] / [`Error::UnknownPartition`].
    pub fn offsets(&self, topic: &str, partition: u32) -> Result<(u64, u64)> {
        self.inner.topic(topic)?.offsets(partition)
    }

    /// Creates a producer for this broker.
    pub fn producer(&self) -> Producer {
        Producer::new(Arc::clone(&self.inner))
    }

    /// Creates a consumer in `group` reading every partition of
    /// `topics`, starting at the group's committed offsets. Distinct
    /// groups each see every record; see [`Consumer`] for the rules.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTopic`] if any subscribed topic is missing.
    pub fn consumer(&self, group: impl Into<String>, topics: &[&str]) -> Result<Consumer> {
        Consumer::new(self.clone(), group, topics)
    }

    /// Reads up to `max_records` records of `topic`/`partition`
    /// starting at `offset`, without any group bookkeeping.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTopic`] / [`Error::UnknownPartition`], or
    /// [`Error::OffsetOutOfRange`] when `offset` lies outside
    /// `[start, end]` (reading exactly at `end` returns an empty
    /// batch).
    pub fn fetch(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_records: usize,
    ) -> Result<Vec<StoredRecord>> {
        self.inner
            .topic(topic)?
            .read(partition, offset, max_records)
    }

    /// [`fetch`](Broker::fetch), but when there is nothing to read,
    /// waits up to `wait` for an append and reads again, until records
    /// arrive, the wait runs out or `stop` returns true (checked at
    /// least every 100 ms). This is the long poll of both transports:
    /// in-process consumers and the TCP server's `Fetch`.
    ///
    /// # Errors
    ///
    /// As [`fetch`](Broker::fetch).
    pub fn fetch_wait(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_records: usize,
        wait: Duration,
        stop: impl Fn() -> bool,
    ) -> Result<Vec<StoredRecord>> {
        let deadline = Instant::now() + wait;
        let mut seen = *self.inner.appends.lock();
        loop {
            let batch = self.fetch(topic, partition, offset, max_records)?;
            let now = Instant::now();
            if !batch.is_empty() || now >= deadline || stop() {
                return Ok(batch);
            }
            let started = Instant::now();
            let mut appends = self.inner.appends.lock();
            if *appends == seen {
                self.inner
                    .data_ready
                    .wait_for(&mut appends, (deadline - now).min(STOP_POLL));
            }
            seen = *appends;
            drop(appends);
            self.inner.fetch_wait_ns.record_since(started);
        }
    }

    /// Commits `offset` as the resume point of `(group, topic,
    /// partition)`, creating the group if it does not exist.
    ///
    /// # Errors
    ///
    /// I/O failures writing the durable offset store, when one is
    /// configured; the in-memory offset is not updated in that case.
    pub fn commit_offset(
        &self,
        group: &str,
        topic: &str,
        partition: u32,
        offset: u64,
    ) -> Result<()> {
        let started = Instant::now();
        self.inner
            .offsets
            .lock()
            .record(group, topic, partition, offset)?;
        self.inner.commit_ns.record_since(started);
        Ok(())
    }

    /// The committed offset of `(group, topic, partition)`, if any.
    pub fn committed_offset(&self, group: &str, topic: &str, partition: u32) -> Option<u64> {
        self.inner.offsets.lock().get(group, topic, partition)
    }

    /// The consumer lag of `group` on `topic`: how many stored
    /// records lie beyond the group's committed offsets, summed over
    /// partitions. Partitions with no committed offset count from the
    /// log start. This is the backlog a saturated pipeline builds up
    /// (the steeply-rising-latency regime of Figure 7).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTopic`] if the topic does not exist.
    pub fn consumer_lag(&self, group: &str, topic: &str) -> Result<u64> {
        let t = self.inner.topic(topic)?;
        let offsets = self.inner.offsets.lock();
        let mut lag = 0u64;
        for p in 0..t.partition_count() {
            let (start, end) = t.offsets(p)?;
            let committed = offsets
                .get(group, topic, p)
                .unwrap_or(start)
                .clamp(start, end);
            lag += end - committed;
        }
        Ok(lag)
    }
}

/// The in-process transport: the consumer's calls go straight to the
/// broker, and its epoch never changes.
impl Transport for Broker {
    fn partitions(&mut self, topics: &[String]) -> Result<Vec<PartitionRange>> {
        let mut partitions = Vec::new();
        for name in topics {
            let topic = self.inner.topic(name)?;
            for p in 0..topic.partition_count() {
                partitions.push((name.clone(), p, topic.offsets(p)?));
            }
        }
        Ok(partitions)
    }

    fn committed(&mut self, group: &str, topic: &str, partition: u32) -> Result<Option<u64>> {
        Ok(self.committed_offset(group, topic, partition))
    }

    fn fetch(
        &mut self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_records: usize,
        wait: Duration,
    ) -> Result<Vec<StoredRecord>> {
        self.fetch_wait(topic, partition, offset, max_records, wait, || false)
    }

    fn commit(&mut self, group: &str, topic: &str, partition: u32, offset: u64) -> Result<()> {
        self.commit_offset(group, topic, partition, offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_lifecycle() {
        let broker = Broker::new();
        broker.create_topic("a", TopicConfig::new(3)).unwrap();
        assert!(matches!(
            broker.create_topic("a", TopicConfig::new(1)),
            Err(Error::TopicExists(_))
        ));
        assert_eq!(broker.topics(), vec!["a".to_string()]);
        assert_eq!(broker.partition_count("a").unwrap(), 3);
        broker.delete_topic("a").unwrap();
        assert!(matches!(
            broker.delete_topic("a"),
            Err(Error::UnknownTopic(_))
        ));
    }

    #[test]
    fn consumer_requires_existing_topics() {
        let broker = Broker::new();
        assert!(matches!(
            broker.consumer("g", &["missing"]),
            Err(Error::UnknownTopic(_))
        ));
    }

    #[test]
    fn consumer_lag_tracks_committed_offsets() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::new(2)).unwrap();
        let producer = broker.producer();
        for i in 0..10u8 {
            producer.send("t", Some(&[i]), vec![i]).unwrap();
        }
        // No group state yet: everything is backlog.
        assert_eq!(broker.consumer_lag("g", "t").unwrap(), 10);
        let mut consumer = broker.consumer("g", &["t"]).unwrap();
        let polled = consumer
            .poll(std::time::Duration::from_millis(200))
            .unwrap();
        assert_eq!(polled.len(), 10);
        // Polled but not committed: lag unchanged.
        assert_eq!(broker.consumer_lag("g", "t").unwrap(), 10);
        consumer.commit().unwrap();
        assert_eq!(broker.consumer_lag("g", "t").unwrap(), 0);
        producer.send("t", Some(&[7]), vec![7]).unwrap();
        assert_eq!(broker.consumer_lag("g", "t").unwrap(), 1);
        assert!(broker.consumer_lag("g", "missing").is_err());
    }

    #[test]
    fn fetch_reads_without_group_state() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::new(1)).unwrap();
        let producer = broker.producer();
        for n in 0..4u8 {
            producer.send("t", None, vec![n]).unwrap();
        }
        let batch = broker.fetch("t", 0, 1, 2).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].offset, 1);
        // Reading at the end is an empty batch, past it an error.
        assert!(broker.fetch("t", 0, 4, 10).unwrap().is_empty());
        assert!(matches!(
            broker.fetch("t", 0, 5, 10),
            Err(Error::OffsetOutOfRange { .. })
        ));
    }

    #[test]
    fn commit_offset_creates_group_state() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::new(1)).unwrap();
        assert_eq!(broker.committed_offset("g", "t", 0), None);
        broker.commit_offset("g", "t", 0, 7).unwrap();
        assert_eq!(broker.committed_offset("g", "t", 0), Some(7));
        // A committed offset bounds consumer lag like any other.
        let producer = broker.producer();
        for n in 0..10u8 {
            producer.send("t", None, vec![n]).unwrap();
        }
        assert_eq!(broker.consumer_lag("g", "t").unwrap(), 3);
    }

    #[test]
    fn offset_store_survives_broker_restart() {
        let path = std::env::temp_dir().join(format!(
            "strata-pubsub-broker-offsets-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let broker = Broker::with_offset_store(&path, SyncPolicy::Always).unwrap();
            broker.create_topic("t", TopicConfig::new(2)).unwrap();
            broker.commit_offset("g", "t", 0, 5).unwrap();
            broker.commit_offset("g", "t", 1, 9).unwrap();
            broker.commit_offset("g", "t", 0, 6).unwrap(); // last write wins
        }
        let broker = Broker::with_offset_store(&path, SyncPolicy::Always).unwrap();
        assert_eq!(broker.committed_offset("g", "t", 0), Some(6));
        assert_eq!(broker.committed_offset("g", "t", 1), Some(9));
        assert_eq!(broker.committed_offset("other", "t", 0), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fetch_wait_wakes_on_produce_and_on_stop() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::new(1)).unwrap();
        let producer = broker.producer();
        let waiter = broker.clone();
        let handle = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let batch = waiter.fetch_wait("t", 0, 0, 10, Duration::from_secs(5), || false);
            (batch.unwrap().len(), start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(30));
        producer.send("t", None, "x").unwrap();
        let (got, waited) = handle.join().unwrap();
        assert_eq!(got, 1);
        assert!(
            waited < Duration::from_secs(4),
            "woke early, not by timeout"
        );

        let start = std::time::Instant::now();
        let batch = broker
            .fetch_wait("t", 0, 1, 10, Duration::from_secs(5), || true)
            .unwrap();
        assert!(batch.is_empty());
        assert!(start.elapsed() < Duration::from_secs(4), "stopped early");
    }
}
