//! Topics and partitions: named groups of ordered logs.

use std::sync::atomic::AtomicUsize;

use parking_lot::Mutex;
use strata_obs::{Counter, Registry};

use crate::error::{Error, Result};
use crate::log::{FileLog, LogKind, MemoryLog, PartitionLog};
use crate::record::{Record, StoredRecord};
use crate::retention::RetentionPolicy;

/// Per-topic flow counters, registered with a `{topic=...}` label.
struct TopicMetrics {
    records_in: Counter,
    bytes_in: Counter,
    records_out: Counter,
    bytes_out: Counter,
}

impl TopicMetrics {
    fn new(registry: &Registry, topic: &str) -> Self {
        let labels: &[(&str, &str)] = &[("topic", topic)];
        TopicMetrics {
            records_in: registry.counter(
                "pubsub_topic_records_in_total",
                "Records appended to the topic",
                labels,
            ),
            bytes_in: registry.counter(
                "pubsub_topic_bytes_in_total",
                "Payload bytes appended to the topic",
                labels,
            ),
            records_out: registry.counter(
                "pubsub_topic_records_out_total",
                "Records read from the topic",
                labels,
            ),
            bytes_out: registry.counter(
                "pubsub_topic_bytes_out_total",
                "Payload bytes read from the topic",
                labels,
            ),
        }
    }
}

/// One partition: a lock-protected log.
pub(crate) struct Partition {
    log: Mutex<Box<dyn PartitionLog>>,
}

impl Partition {
    fn new(log: Box<dyn PartitionLog>) -> Self {
        Partition {
            log: Mutex::new(log),
        }
    }
}

/// A named topic with a fixed number of partitions.
pub(crate) struct Topic {
    name: String,
    partitions: Vec<Partition>,
    retention: RetentionPolicy,
    /// Keyless records sent so far: the next one's round-robin turn.
    pub(crate) round_robin: AtomicUsize,
    metrics: TopicMetrics,
}

impl std::fmt::Debug for Topic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topic")
            .field("name", &self.name)
            .field("partitions", &self.partitions.len())
            .finish()
    }
}

impl Topic {
    pub(crate) fn create(
        name: String,
        partitions: u32,
        kind: &LogKind,
        retention: RetentionPolicy,
        registry: &Registry,
    ) -> Result<Self> {
        if partitions == 0 {
            return Err(Error::InvalidConfig(format!(
                "topic `{name}` needs at least one partition"
            )));
        }
        let mut parts = Vec::with_capacity(partitions as usize);
        for p in 0..partitions {
            let log: Box<dyn PartitionLog> = match kind {
                LogKind::Memory => Box::new(MemoryLog::new()),
                LogKind::File {
                    dir,
                    segment_bytes,
                    sync,
                } => Box::new(FileLog::open(
                    dir.join(&name).join(format!("p{p:04}")),
                    *segment_bytes,
                    *sync,
                )?),
            };
            parts.push(Partition::new(log));
        }
        let metrics = TopicMetrics::new(registry, &name);
        Ok(Topic {
            name,
            partitions: parts,
            retention,
            round_robin: AtomicUsize::new(0),
            metrics,
        })
    }

    pub(crate) fn partition_count(&self) -> u32 {
        self.partitions.len() as u32
    }

    fn partition(&self, partition: u32) -> Result<&Partition> {
        self.partitions
            .get(partition as usize)
            .ok_or_else(|| Error::UnknownPartition {
                topic: self.name.clone(),
                partition,
            })
    }

    /// Appends `record` to `partition`, applying retention, and
    /// returns the assigned offset.
    pub(crate) fn append(&self, partition: u32, record: Record) -> Result<u64> {
        let bytes = record.payload_size() as u64;
        let mut log = self.partition(partition)?.log.lock();
        let offset = log.append(record)?;
        self.retention.apply(log.as_mut())?;
        self.metrics.records_in.inc();
        self.metrics.bytes_in.add(bytes);
        Ok(offset)
    }

    /// Reads up to `max_records` records of `partition` starting at
    /// `offset`.
    pub(crate) fn read(
        &self,
        partition: u32,
        offset: u64,
        max_records: usize,
    ) -> Result<Vec<StoredRecord>> {
        let batch = self
            .partition(partition)?
            .log
            .lock()
            .read_from(offset, max_records)?;
        self.metrics.records_out.add(batch.len() as u64);
        self.metrics
            .bytes_out
            .add(batch.iter().map(|r| r.record.payload_size() as u64).sum());
        Ok(batch)
    }

    /// `(start, end)` offsets of `partition`.
    pub(crate) fn offsets(&self, partition: u32) -> Result<(u64, u64)> {
        let log = self.partition(partition)?.log.lock();
        Ok((log.start_offset(), log.end_offset()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic(partitions: u32) -> Topic {
        Topic::create(
            "t".into(),
            partitions,
            &LogKind::Memory,
            RetentionPolicy::unbounded(),
            &Registry::new(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_zero_partitions() {
        assert!(matches!(
            Topic::create(
                "t".into(),
                0,
                &LogKind::Memory,
                RetentionPolicy::unbounded(),
                &Registry::new(),
            ),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn partitions_are_independent() {
        let t = topic(2);
        t.append(0, Record::new(None::<Vec<u8>>, "a")).unwrap();
        t.append(1, Record::new(None::<Vec<u8>>, "b")).unwrap();
        t.append(1, Record::new(None::<Vec<u8>>, "c")).unwrap();
        assert_eq!(t.offsets(0).unwrap(), (0, 1));
        assert_eq!(t.offsets(1).unwrap(), (0, 2));
        assert_eq!(t.read(1, 1, 10).unwrap()[0].record.value.as_ref(), b"c");
    }

    #[test]
    fn unknown_partition_is_reported() {
        let t = topic(1);
        assert!(matches!(
            t.read(7, 0, 1),
            Err(Error::UnknownPartition { partition: 7, .. })
        ));
    }

    #[test]
    fn flow_counters_track_appends_and_reads() {
        let registry = Registry::new();
        let t = Topic::create(
            "t".into(),
            1,
            &LogKind::Memory,
            RetentionPolicy::unbounded(),
            &registry,
        )
        .unwrap();
        t.append(0, Record::new(None::<Vec<u8>>, "abc")).unwrap();
        let _ = t.read(0, 0, 10).unwrap();
        let text = registry.render();
        assert!(
            text.contains("pubsub_topic_records_in_total{topic=\"t\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pubsub_topic_bytes_in_total{topic=\"t\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("pubsub_topic_records_out_total{topic=\"t\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pubsub_topic_bytes_out_total{topic=\"t\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn retention_applies_on_append() {
        let t = Topic::create(
            "t".into(),
            1,
            &LogKind::Memory,
            RetentionPolicy::default().with_max_records(2),
            &Registry::new(),
        )
        .unwrap();
        for n in 0..5u8 {
            t.append(0, Record::new(None::<Vec<u8>>, vec![n])).unwrap();
        }
        assert_eq!(t.offsets(0).unwrap(), (3, 5));
    }
}
