//! The one consumer behaves the same in process and over TCP: each
//! test body runs once against a `Broker` directly and once through a
//! `BrokerServer` on loopback.

use std::time::Duration;

use strata_net::{BrokerClient, BrokerServer};
use strata_pubsub::{Broker, Consumer, RetentionPolicy, TopicConfig, Transport};

type AnyConsumer = Consumer<Box<dyn Transport + Send>>;

/// Runs `test` on a fresh broker per transport. It gets the broker
/// itself, for setting up topics and commits, and a way to subscribe a
/// group to topic `t` over the transport under test.
fn on_each_transport(test: impl Fn(&Broker, &dyn Fn(&str) -> AnyConsumer)) {
    let broker = Broker::new();
    test(&broker, &|group| {
        let transport: Box<dyn Transport + Send> = Box::new(broker.clone());
        Consumer::new(transport, group, &["t"]).unwrap()
    });

    let broker = Broker::new();
    let mut server = BrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
    let addr = server.local_addr().to_string();
    test(&broker, &|group| {
        let transport: Box<dyn Transport + Send> =
            Box::new(BrokerClient::connect(addr.clone()).unwrap());
        Consumer::new(transport, group, &["t"]).unwrap()
    });
    server.shutdown();
}

/// Creates topic `t`, which keeps only its last 5 records.
fn create_topic(broker: &Broker) {
    let retention = RetentionPolicy::default().with_max_records(5);
    broker
        .create_topic("t", TopicConfig::new(1).with_retention(retention))
        .unwrap();
}

/// Produces 20 records to `t`, of which offsets 15..20 are kept.
fn produce(broker: &Broker) {
    let producer = broker.producer();
    for n in 0..20u8 {
        producer.send("t", None, vec![n]).unwrap();
    }
    assert_eq!(broker.offsets("t", 0).unwrap(), (15, 20));
}

fn offsets(consumer: &mut AnyConsumer) -> Vec<u64> {
    let polled = consumer.poll(Duration::from_millis(100)).unwrap();
    polled.iter().map(|r| r.offset).collect()
}

#[test]
fn a_consumer_behind_retention_snaps_forward() {
    on_each_transport(|broker, subscribe| {
        create_topic(broker);
        let mut consumer = subscribe("g");
        produce(broker);
        assert_eq!(offsets(&mut consumer), (15..20).collect::<Vec<_>>());
    });
}

#[test]
fn a_committed_offset_outside_the_log_starts_at_its_start() {
    on_each_transport(|broker, subscribe| {
        create_topic(broker);
        produce(broker);
        for (group, committed, expected) in
            [("above", 25, 15), ("below", 3, 15), ("inside", 18, 18)]
        {
            broker.commit_offset(group, "t", 0, committed).unwrap();
            let got = offsets(&mut subscribe(group));
            assert_eq!(
                got,
                (expected..20).collect::<Vec<_>>(),
                "committed {committed}"
            );
        }
    });
}
