//! Property-based tests: wire-format round-trips, log-backend
//! equivalence, and broker delivery invariants.

use proptest::prelude::*;
use strata_pubsub::log::{FileLog, MemoryLog, PartitionLog};
use strata_pubsub::wire;
use strata_pubsub::{Broker, Record, StoredRecord, SyncPolicy, TopicConfig};

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        proptest::option::of(proptest::collection::vec(any::<u8>(), 0..16)),
        proptest::collection::vec(any::<u8>(), 0..64),
        any::<u64>(),
        proptest::collection::vec(
            ("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 0..8)),
            0..3,
        ),
    )
        .prop_map(|(key, value, ts, headers)| {
            let mut r = Record::new(key.map(bytes::Bytes::from), value).with_timestamp(ts);
            for (name, hval) in headers {
                r = r.with_header(name, hval);
            }
            r
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary records survive the frame codec bit-exactly.
    #[test]
    fn frames_round_trip(record in record_strategy(), offset in any::<u64>()) {
        let stored = StoredRecord { offset, record };
        let mut buf = Vec::new();
        wire::encode_frame(&stored, &mut buf);
        let (decoded, used) = wire::decode_frame(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(decoded, stored);
    }

    /// The file-backed log and the memory log expose identical
    /// contents for the same appends, including across re-open.
    #[test]
    fn file_and_memory_logs_agree(
        records in proptest::collection::vec(record_strategy(), 1..20),
        segment_bytes in 64u64..512,
        case in 0u32..1_000_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "strata-pubsub-prop-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut mem = MemoryLog::new();
        {
            let mut file = FileLog::open(&dir, segment_bytes, SyncPolicy::Never).unwrap();
            for r in &records {
                let a = mem.append(r.clone()).unwrap();
                let b = file.append(r.clone()).unwrap();
                prop_assert_eq!(a, b);
            }
            prop_assert_eq!(
                mem.read_from(0, usize::MAX).unwrap(),
                file.read_from(0, usize::MAX).unwrap()
            );
        }
        // Recovery sees the same contents.
        let mut reopened = FileLog::open(&dir, segment_bytes, SyncPolicy::Never).unwrap();
        prop_assert_eq!(
            mem.read_from(0, usize::MAX).unwrap(),
            reopened.read_from(0, usize::MAX).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Per-key ordering: a consumer sees the records of any one key
    /// in production order, whatever the partition count.
    #[test]
    fn per_key_order_is_preserved(
        keys in proptest::collection::vec(0u8..4, 1..60),
        partitions in 1u32..5,
    ) {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::new(partitions)).unwrap();
        // Value = production sequence number.
        for (seq, key) in keys.iter().enumerate() {
            broker.produce("t", None, Record::new(Some(vec![*key]), (seq as u64).to_le_bytes().to_vec()))
                .unwrap();
        }
        let mut consumer = broker.consumer("g", &["t"]).unwrap();
        consumer.set_max_poll_records(1_000);
        let mut per_key: std::collections::HashMap<u8, Vec<u64>> = Default::default();
        let mut got = 0;
        while got < keys.len() {
            let polled = consumer.poll(std::time::Duration::from_millis(200)).unwrap();
            prop_assert!(!polled.is_empty(), "all records must be delivered");
            for r in polled {
                got += 1;
                let key = r.record.key.as_ref().unwrap()[0];
                let seq = u64::from_le_bytes(r.record.value.as_ref().try_into().unwrap());
                per_key.entry(key).or_default().push(seq);
            }
        }
        for (key, seqs) in per_key {
            prop_assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "key {} out of order: {:?}",
                key,
                seqs
            );
        }
    }
}
