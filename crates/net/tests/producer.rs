//! One partitioner serves both transports: each test body produces
//! through `Transport::produce` once on a `Broker` directly and once
//! through a `BrokerServer` on loopback, where the server's broker
//! picks the partition.

use std::collections::HashSet;

use strata_net::{BrokerClient, BrokerServer, Request, Response};
use strata_pubsub::{Broker, Error, Record, TopicConfig, Transport};

type AnyTransport = Box<dyn Transport + Send>;

/// Runs `test` on a fresh broker per transport. It gets the broker
/// itself, for creating topics and reading offsets, and a way to open
/// a new connection over the transport under test.
fn on_each_transport(test: impl Fn(&Broker, &dyn Fn() -> AnyTransport)) {
    let broker = Broker::new();
    test(&broker, &|| {
        let transport: AnyTransport = Box::new(broker.clone());
        transport
    });

    let broker = Broker::new();
    let mut server = BrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
    let addr = server.local_addr().to_string();
    test(&broker, &|| {
        let transport: AnyTransport = Box::new(BrokerClient::connect(addr.clone()).unwrap());
        transport
    });
    server.shutdown();
}

fn keyless(value: &str) -> Record {
    Record::new(None::<&[u8]>, value.to_string())
}

#[test]
fn keyed_records_stay_on_one_partition() {
    on_each_transport(|broker, connect| {
        broker.create_topic("t", TopicConfig::new(8)).unwrap();
        let mut producer = connect();
        let partitions: HashSet<u32> = (0..10)
            .map(|_| {
                let record = Record::new(Some("same-key"), "v");
                producer.produce("t", record).unwrap().0
            })
            .collect();
        assert_eq!(partitions.len(), 1);
    });
}

#[test]
fn keyless_records_round_robin() {
    on_each_transport(|broker, connect| {
        broker.create_topic("t", TopicConfig::new(4)).unwrap();
        let mut producer = connect();
        let partitions: Vec<u32> = (0..8)
            .map(|_| producer.produce("t", keyless("v")).unwrap().0)
            .collect();
        assert_eq!(partitions, [0, 1, 2, 3, 0, 1, 2, 3]);
    });
}

#[test]
fn offsets_are_dense_per_partition() {
    on_each_transport(|broker, connect| {
        broker.create_topic("t", TopicConfig::new(1)).unwrap();
        let mut producer = connect();
        for expected in 0..5u64 {
            assert_eq!(producer.produce("t", keyless("v")).unwrap(), (0, expected));
        }
    });
}

/// Keyless round-robin belongs to the topic, not to a connection: two
/// producers sending in turn still alternate the partitions.
#[test]
fn keyless_round_robin_spans_connections() {
    on_each_transport(|broker, connect| {
        broker.create_topic("t", TopicConfig::new(2)).unwrap();
        let mut producers = [connect(), connect()];
        let partitions: Vec<u32> = (0..6)
            .map(|n| producers[n % 2].produce("t", keyless("v")).unwrap().0)
            .collect();
        assert_eq!(partitions, [0, 1, 0, 1, 0, 1]);
    });
}

#[test]
fn an_explicit_partition_is_honoured_in_process_and_on_the_wire() {
    let broker = Broker::new();
    broker.create_topic("t", TopicConfig::new(3)).unwrap();
    assert_eq!(broker.produce("t", Some(2), keyless("x")).unwrap(), (2, 0));
    assert!(matches!(
        broker.produce("t", Some(3), keyless("x")),
        Err(Error::UnknownPartition { partition: 3, .. })
    ));

    let server = BrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
    let mut client = BrokerClient::connect(server.local_addr().to_string()).unwrap();
    let response = client.request(&Request::Produce {
        topic: "t".into(),
        partition: Some(2),
        record: keyless("y"),
    });
    assert_eq!(
        response.unwrap(),
        Response::Produced {
            partition: 2,
            offset: 1
        }
    );
    assert_eq!(broker.offsets("t", 2).unwrap(), (0, 2));
    assert_eq!(broker.offsets("t", 0).unwrap(), (0, 0));
    // Explicit partitions leave the keyless round-robin untouched.
    assert_eq!(client.produce("t", keyless("z")).unwrap(), (0, 0));
}
