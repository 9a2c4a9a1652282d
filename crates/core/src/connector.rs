//! The pub/sub connectors: publishing a stream into a topic and
//! subscribing a downstream module to it.
//!
//! These implement the paper's *Raw Data Connector* and *Event
//! Connector* modules: decoupled, replayable hand-off points between
//! the Raw Data Collector, the Event Monitor and the Event
//! Aggregator. Stream control (watermarks, end-of-stream) crosses the
//! broker in-band as [`ConnectorMessage`]s, so event time keeps
//! progressing on the other side.
//!
//! One connector serves both transports: the in-process
//! [`Broker`](strata_pubsub::Broker) and a broker server reached over
//! TCP ([`BrokerClient`](strata_net::BrokerClient)) are each a
//! [`Transport`], which the [`publisher`] produces through and the one
//! [`Consumer`] reads through. Either way a [`TopicSource`] commits its
//! group's offsets after every polled batch it fully hands to the
//! engine, and again when it stops, so a successor in the group
//! resumes where it left off.

use std::time::Duration;

use strata_pubsub::{Consumer, Record, Transport};
use strata_spe::{Element, Source, SourceContext};

use crate::codec::{self, ConnectorMessage};
use crate::error::Result;
use crate::tuple::AmTuple;

/// The subscribing end of a connector topic, over either transport.
pub type TopicConsumer = Consumer<Box<dyn Transport + Send>>;

/// Subscribes `group` to `topic` over `transport`.
///
/// # Errors
///
/// Broker or transport errors, such as a missing topic.
pub(crate) fn subscribe(
    transport: impl Transport + Send + 'static,
    group: String,
    topic: &str,
) -> Result<TopicConsumer> {
    let transport: Box<dyn Transport + Send> = Box::new(transport);
    Ok(Consumer::new(transport, group, &[topic])?)
}

/// Flattens a stream element into connector wire messages. The wire
/// format stays item-level at every engine batch size: a micro-batch
/// becomes that many consecutive `Tuple` messages, so the bytes in
/// the topic are identical whatever the SPE's batch size.
fn connector_messages(element: Element<AmTuple>) -> Vec<ConnectorMessage> {
    match element {
        Element::Batch(items) => items.into_iter().map(ConnectorMessage::Tuple).collect(),
        Element::Watermark(ts) => vec![ConnectorMessage::Watermark(ts)],
        Element::End => vec![ConnectorMessage::End],
    }
}

/// Encodes a connector message as a topic record. Keyed by
/// `job:layer` so a future multi-partition layout would keep
/// per-layer order.
fn connector_record(message: ConnectorMessage) -> Record {
    let key = match &message {
        ConnectorMessage::Tuple(t) => {
            format!("{}:{}", t.metadata().job, t.metadata().layer)
        }
        _ => "control".to_string(),
    };
    let timestamp = match &message {
        ConnectorMessage::Tuple(t) => t.metadata().timestamp.as_millis(),
        ConnectorMessage::Watermark(ts) => ts.as_millis(),
        ConnectorMessage::End => 0,
    };
    Record::new(Some(key.into_bytes()), codec::encode(&message)).with_timestamp(timestamp)
}

/// Builds the element-sink callback that republishes a stream into
/// `topic` over `transport`. A produce fails only when the topic was
/// deleted mid-run or a remote transport's retries ran out; dropping
/// the element then matches "subscriber gone".
pub fn publisher(
    mut transport: impl Transport + Send + 'static,
    topic: String,
) -> impl FnMut(Element<AmTuple>) + Send + 'static {
    move |element| {
        for message in connector_messages(element) {
            let _ = transport.produce(&topic, connector_record(message));
        }
    }
}

/// An SPE [`Source`] feeding a downstream module from a connector
/// topic: decodes tuples, re-emits watermarks, and ends when the
/// upstream's end-of-stream marker arrives.
#[derive(Debug)]
pub struct TopicSource<T: Transport> {
    consumer: Consumer<T>,
    poll_timeout: Duration,
}

impl<T: Transport> TopicSource<T> {
    /// Wraps a subscribed consumer. Each downstream module uses its
    /// own consumer group, so independent pipelines each see the full
    /// stream.
    pub fn new(consumer: Consumer<T>, poll_timeout: Duration) -> Self {
        TopicSource {
            consumer,
            poll_timeout,
        }
    }

    /// Hands polled records to the engine until end-of-stream, a stop
    /// request or a refused emit, committing after every whole batch.
    fn forward(&mut self, ctx: &mut SourceContext<AmTuple>) -> std::result::Result<(), String> {
        while !ctx.should_stop() {
            let records = self
                .consumer
                .poll(self.poll_timeout)
                .map_err(|e| format!("connector poll failed: {e}"))?;
            if records.is_empty() {
                continue; // Nothing new to commit.
            }
            for polled in records {
                let open = match codec::decode(&polled.record.value)
                    .map_err(|e| format!("connector decode failed: {e}"))?
                {
                    ConnectorMessage::Tuple(tuple) => ctx.emit(tuple),
                    ConnectorMessage::Watermark(ts) => ctx.emit_watermark(ts),
                    ConnectorMessage::End => false,
                };
                if !open {
                    return Ok(());
                }
            }
            let _ = self.consumer.commit();
        }
        Ok(())
    }
}

impl<T: Transport + Send> Source for TopicSource<T> {
    type Out = AmTuple;

    fn run(&mut self, ctx: &mut SourceContext<AmTuple>) -> std::result::Result<(), String> {
        self.forward(ctx)?;
        // A clean stop also moves the resume point past what was
        // handed over; a failed poll or decode keeps the last one.
        let _ = self.consumer.commit();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConnectorMode, Strata, StrataConfig};
    use strata_net::{BrokerClient, BrokerServer};
    use strata_pubsub::{Broker, TopicConfig};
    use strata_spe::prelude::*;

    /// A broker behind one of the connector's two transports.
    enum Bus {
        Local(Broker),
        Tcp(BrokerServer),
    }

    impl Bus {
        fn tcp() -> Bus {
            Bus::Tcp(BrokerServer::bind("127.0.0.1:0", Broker::new()).unwrap())
        }

        fn mode(&self) -> ConnectorMode {
            match self {
                Bus::Local(_) => ConnectorMode::PubSub,
                Bus::Tcp(server) => ConnectorMode::Remote {
                    addr: server.local_addr().to_string(),
                },
            }
        }

        /// Creates `topic` and connects a producer to it.
        fn producer(&self, topic: &str) -> Box<dyn Transport + Send> {
            match self {
                Bus::Local(broker) => {
                    broker.create_topic(topic, TopicConfig::new(1)).unwrap();
                    Box::new(broker.clone())
                }
                Bus::Tcp(server) => {
                    let mut producer =
                        BrokerClient::connect(server.local_addr().to_string()).unwrap();
                    producer.create_topic(topic, 1).unwrap();
                    Box::new(producer)
                }
            }
        }

        fn consumer(&self, group: &str, topic: &str) -> TopicConsumer {
            match self {
                Bus::Local(broker) => subscribe(broker.clone(), group.into(), topic).unwrap(),
                Bus::Tcp(server) => subscribe(
                    BrokerClient::connect(server.local_addr().to_string()).unwrap(),
                    group.into(),
                    topic,
                )
                .unwrap(),
            }
        }

        /// Every topic on the broker with the lag of the connector
        /// group subscribed to it, read over this transport.
        fn connector_lags(&self) -> Vec<(String, u64)> {
            match self {
                Bus::Local(broker) => broker
                    .topics()
                    .into_iter()
                    .map(|topic| {
                        let lag = broker.consumer_lag(&format!("{topic}.sub"), &topic);
                        (topic, lag.unwrap())
                    })
                    .collect(),
                Bus::Tcp(server) => {
                    let mut client =
                        BrokerClient::connect(server.local_addr().to_string()).unwrap();
                    let topics = client.metadata(&[]).unwrap();
                    topics
                        .into_iter()
                        .map(|info| {
                            let lag =
                                client.consumer_lag(&format!("{}.sub", info.name), &info.name);
                            (info.name, lag.unwrap())
                        })
                        .collect()
                }
            }
        }
    }

    #[test]
    fn stream_control_round_trips_over_each_transport() {
        for bus in [Bus::Local(Broker::new()), Bus::tcp()] {
            let mut publish = publisher(bus.producer("bridge"), "bridge".into());
            let t = AmTuple::new(Timestamp::from_millis(10), 1, 0);
            publish(Element::Batch(vec![t.clone()]));
            publish(Element::Watermark(Timestamp::from_millis(11)));
            publish(Element::End);

            // Drive the TopicSource manually through a collect query.
            let consumer = bus.consumer("g", "bridge");
            let mut qb = QueryBuilder::new("sub");
            let src = qb.source("in", TopicSource::new(consumer, Duration::from_millis(10)));
            let out = qb.collect_sink("out", &src);
            qb.build().unwrap().run().join().unwrap();
            let got = out.take();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].metadata(), t.metadata());
        }
    }

    #[test]
    fn drained_pipelines_leave_no_connector_lag() {
        let local = Strata::new(StrataConfig::default()).unwrap();
        let tcp = Bus::tcp();
        let remote = Strata::new(StrataConfig::default().connector_mode(tcp.mode())).unwrap();
        for (strata, bus) in [
            (local.clone(), Bus::Local(local.broker().clone())),
            (remote, tcp),
        ] {
            let mut pipeline = strata.pipeline("drain");
            let layers: Vec<AmTuple> = (0..5u32)
                .map(|l| AmTuple::new(Timestamp::from_millis(l as u64 * 100), 1, l))
                .collect();
            let src = pipeline.add_source("layers", IteratorSource::new(layers));
            let events = pipeline.detect_event("ev", &src, |t: &AmTuple| Some(vec![t.clone()]));
            let out = pipeline.correlate_events("corr", &events, 1, |w| {
                vec![AmTuple::new(Timestamp::MIN, w.job, w.layer)]
            });
            let reports = pipeline.deliver("expert", &out);
            pipeline.deploy().unwrap().join().unwrap();
            assert_eq!(reports.try_iter().count(), 5, "{:?}", bus.mode());

            let lags = bus.connector_lags();
            assert_eq!(lags.len(), 2, "{lags:?}");
            assert!(lags.iter().any(|(topic, _)| topic.contains(".raw.")));
            assert!(lags.iter().any(|(topic, _)| topic.contains(".events.")));
            for (topic, lag) in lags {
                assert_eq!(lag, 0, "{topic} over {:?}", bus.mode());
            }
        }
    }

    #[test]
    fn watermarks_drive_windows_across_the_bridge() {
        let broker = Broker::new();
        broker.create_topic("wm", TopicConfig::new(1)).unwrap();
        let mut publish = publisher(broker.clone(), "wm".into());
        for layer in 0..3u32 {
            let t = AmTuple::new(Timestamp::from_millis(layer as u64 * 100), 1, layer);
            publish(Element::Batch(vec![t]));
            publish(Element::Watermark(Timestamp::from_millis(
                (layer as u64 + 1) * 100,
            )));
        }
        publish(Element::End);

        let consumer = broker.consumer("g", &["wm"]).unwrap();
        let mut qb = QueryBuilder::new("windows");
        let src = qb.source("in", TopicSource::new(consumer, Duration::from_millis(10)));
        let counts = qb.aggregate(
            "count",
            &src,
            WindowSpec::tumbling(100).unwrap(),
            |_: &AmTuple| 0u8,
            |_, bounds, items: &[AmTuple]| vec![(bounds.index, items.len())],
        );
        let out = qb.collect_sink("out", &counts);
        qb.build().unwrap().run().join().unwrap();
        assert_eq!(out.take(), vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn independent_groups_both_receive_the_stream() {
        let broker = Broker::new();
        broker.create_topic("shared", TopicConfig::new(1)).unwrap();
        let mut publish = publisher(broker.clone(), "shared".into());
        publish(Element::Batch(vec![AmTuple::new(Timestamp::MIN, 1, 0)]));
        publish(Element::End);

        for group in ["monitor-a", "monitor-b"] {
            let consumer = broker.consumer(group, &["shared"]).unwrap();
            let mut qb = QueryBuilder::new(group);
            let src = qb.source("in", TopicSource::new(consumer, Duration::from_millis(10)));
            let out = qb.collect_sink("out", &src);
            qb.build().unwrap().run().join().unwrap();
            assert_eq!(out.len(), 1, "group {group}");
        }
    }
}
