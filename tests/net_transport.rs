//! End-to-end transport test: a networked broker on an ephemeral
//! loopback port, a producer thread streaming records while a remote
//! consumer in another thread loses its connection mid-stream. After
//! the reconnect the consumer must resume from its last committed
//! offsets and deliver every record exactly once.

use std::collections::HashMap;
use std::thread;
use std::time::Duration;

use strata_net::{BrokerClient, BrokerServer, RemoteConsumer, RemoteProducer};
use strata_pubsub::Broker;

const PARTITIONS: u32 = 3;
const RECORDS: u64 = 240;

#[test]
fn remote_consumer_resumes_exactly_once_after_disconnect() {
    let mut server = BrokerServer::bind("127.0.0.1:0", Broker::new()).expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut admin = RemoteProducer::connect(&addr).expect("admin connect");
    admin
        .client_mut()
        .create_topic("melt.pool", PARTITIONS)
        .expect("create topic");

    // Producer thread: keyed records trickle in while the consumer is
    // busy disconnecting and resuming on the other side.
    let producer_addr = addr.clone();
    let producer = thread::spawn(move || {
        let mut producer = RemoteProducer::connect(&producer_addr).expect("producer connect");
        for seq in 0..RECORDS {
            let key = format!("machine-{}", seq % 7);
            producer
                .send(
                    "melt.pool",
                    Some(key.as_bytes()),
                    seq.to_le_bytes().to_vec(),
                )
                .expect("produce");
            if seq % 48 == 0 {
                thread::sleep(Duration::from_millis(5));
            }
        }
    });

    let consumer_addr = addr.clone();
    let consumer = thread::spawn(move || {
        let client = BrokerClient::connect(&consumer_addr).expect("consumer connect");
        let mut consumer =
            RemoteConsumer::new(client, "qa", &["melt.pool"]).expect("consumer connect");
        consumer.set_max_poll_records(16);

        // (partition, offset) → payload sequence number. Duplicate
        // delivery would overwrite an entry and shrink the map, so we
        // count arrivals separately.
        let mut by_slot: HashMap<(u32, u64), u64> = HashMap::new();
        let mut arrivals = 0u64;
        let mut dropped = 0;
        let mut idle_polls = 0;
        while arrivals < RECORDS && idle_polls < 200 {
            let batch = consumer
                .poll(Duration::from_millis(50))
                .expect("poll survives reconnects");
            if batch.is_empty() {
                idle_polls += 1;
            } else {
                idle_polls = 0;
            }
            for polled in batch {
                let mut seq = [0u8; 8];
                seq.copy_from_slice(&polled.record.value);
                by_slot.insert((polled.partition, polled.offset), u64::from_le_bytes(seq));
                arrivals += 1;
            }
            // Checkpoint, then tear the TCP connection down a few
            // times mid-stream: the next poll must reconnect and
            // resume from exactly these committed offsets.
            consumer.commit().expect("commit positions");
            if dropped < 3 && arrivals >= (dropped + 1) * 60 {
                consumer.transport_mut().drop_connection_for_test();
                dropped += 1;
            }
        }
        assert_eq!(dropped, 3, "test must actually exercise reconnects");
        (by_slot, arrivals)
    });

    producer.join().expect("producer thread");
    let (by_slot, arrivals) = consumer.join().expect("consumer thread");

    // Exactly once: every record arrived (all sequence numbers are
    // present) and none arrived twice (arrival count equals the
    // number of distinct (partition, offset) slots).
    assert_eq!(arrivals, RECORDS, "every record must be delivered");
    assert_eq!(
        by_slot.len() as u64,
        RECORDS,
        "no record may be delivered twice"
    );
    let mut seqs: Vec<u64> = by_slot.values().copied().collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..RECORDS).collect::<Vec<_>>());

    // Offsets within each partition are contiguous from zero — the
    // resume logic never skipped or replayed a slot.
    let mut per_partition: HashMap<u32, Vec<u64>> = HashMap::new();
    for (partition, offset) in by_slot.keys() {
        per_partition.entry(*partition).or_default().push(*offset);
    }
    for (partition, mut offsets) in per_partition {
        offsets.sort_unstable();
        assert_eq!(
            offsets,
            (0..offsets.len() as u64).collect::<Vec<_>>(),
            "partition {partition} offsets must be gapless"
        );
    }

    // The committed positions on the server match what was consumed:
    // a successor consumer in the same group starts at the end.
    let client = BrokerClient::connect(&addr).expect("successor connect");
    let mut successor =
        RemoteConsumer::new(client, "qa", &["melt.pool"]).expect("successor connect");
    let tail = successor
        .poll(Duration::from_millis(100))
        .expect("successor poll");
    assert!(
        tail.is_empty(),
        "a same-group successor must resume past all committed records, got {}",
        tail.len()
    );

    server.shutdown();
}

/// A backlog whose fetch would encode above the 64 MiB frame cap must
/// still drain: the server splits it into frames that fit instead of
/// refusing the response (which made the client re-send the same
/// fetch forever). Twenty paper-scale 4 MiB OT images are 80 MiB.
#[test]
fn a_backlog_above_the_frame_cap_drains_in_order() {
    const IMAGES: u64 = 20;
    const IMAGE_BYTES: usize = 4 * 1024 * 1024;

    let mut server = BrokerServer::bind("127.0.0.1:0", Broker::new()).expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut producer = RemoteProducer::connect(&addr).expect("producer connect");
    producer
        .client_mut()
        .create_topic("ot.images", 1)
        .expect("create topic");
    for seq in 0..IMAGES {
        let mut image = vec![seq as u8; IMAGE_BYTES];
        image[..8].copy_from_slice(&seq.to_le_bytes());
        producer
            .send("ot.images", None, image)
            .expect("a 4 MiB record fits one frame");
    }

    let client = BrokerClient::connect(&addr).expect("consumer connect");
    let mut consumer =
        RemoteConsumer::new(client, "monitor", &["ot.images"]).expect("consumer connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut seqs = Vec::new();
    while (seqs.len() as u64) < IMAGES && std::time::Instant::now() < deadline {
        for polled in consumer
            .poll(Duration::from_millis(50))
            .expect("poll a large backlog")
        {
            assert_eq!(polled.record.value.len(), IMAGE_BYTES);
            let mut seq = [0u8; 8];
            seq.copy_from_slice(&polled.record.value[..8]);
            seqs.push(u64::from_le_bytes(seq));
        }
    }
    assert_eq!(
        seqs,
        (0..IMAGES).collect::<Vec<_>>(),
        "every image, in order"
    );

    server.shutdown();
}
