//! The pub/sub connectors: publishing a stream into a topic and
//! subscribing a downstream module to it.
//!
//! These implement the paper's *Raw Data Connector* and *Event
//! Connector* modules: decoupled, replayable hand-off points between
//! the Raw Data Collector, the Event Monitor and the Event
//! Aggregator. Stream control (watermarks, end-of-stream) crosses the
//! broker in-band as [`ConnectorMessage`]s, so event time keeps
//! progressing on the other side.

use std::time::Duration;

use strata_net::RemoteConsumer;
use strata_pubsub::{Consumer, Producer, Record};
use strata_spe::{Element, Source, SourceContext};

use crate::codec::{self, ConnectorMessage};
use crate::tuple::AmTuple;

/// Flattens a stream element into connector wire messages. The wire
/// format stays item-level at every engine batch size: a micro-batch
/// becomes that many consecutive `Tuple` messages, so the bytes in
/// the topic are identical whatever the SPE's batch size.
fn connector_messages(element: Element<AmTuple>) -> Vec<ConnectorMessage> {
    match element {
        Element::Batch(batch) => batch
            .into_vec()
            .into_iter()
            .map(ConnectorMessage::Tuple)
            .collect(),
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
/// `topic` of the in-process broker.
pub fn publisher(
    producer: Producer,
    topic: String,
) -> impl FnMut(Element<AmTuple>) + Send + 'static {
    move |element| {
        // A send can only fail if the topic was deleted mid-run;
        // dropping the element then matches "subscriber gone".
        for message in connector_messages(element) {
            let _ = producer.send_record(&topic, connector_record(message));
        }
    }
}

/// Builds the element-sink callback that republishes a stream into
/// `topic` of a remote broker over TCP. Transient transport failures
/// are retried by the producer's reliability layer; elements that
/// still fail are dropped, like a deleted local topic.
pub fn remote_publisher(
    mut producer: strata_net::RemoteProducer,
    topic: String,
) -> impl FnMut(Element<AmTuple>) + Send + 'static {
    move |element| {
        for message in connector_messages(element) {
            let _ = producer.send_record(&topic, connector_record(message));
        }
    }
}

/// An SPE [`Source`] feeding a downstream module from a connector
/// topic: decodes tuples, re-emits watermarks, and ends when the
/// upstream's end-of-stream marker arrives.
pub struct TopicSource {
    consumer: Consumer,
    poll_timeout: Duration,
}

impl std::fmt::Debug for TopicSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopicSource")
            .field("consumer", &self.consumer)
            .finish()
    }
}

impl TopicSource {
    /// Wraps a subscribed consumer. Each downstream module uses its
    /// own consumer group, so independent pipelines each see the full
    /// stream.
    pub fn new(consumer: Consumer, poll_timeout: Duration) -> Self {
        TopicSource {
            consumer,
            poll_timeout,
        }
    }
}

impl Source for TopicSource {
    type Out = AmTuple;

    fn run(&mut self, ctx: &mut SourceContext<AmTuple>) -> Result<(), String> {
        loop {
            if ctx.should_stop() {
                return Ok(());
            }
            let records = self
                .consumer
                .poll(self.poll_timeout)
                .map_err(|e| format!("connector poll failed: {e}"))?;
            for polled in records {
                match codec::decode(&polled.record.value)
                    .map_err(|e| format!("connector decode failed: {e}"))?
                {
                    ConnectorMessage::Tuple(tuple) => {
                        if !ctx.emit(tuple) {
                            return Ok(());
                        }
                    }
                    ConnectorMessage::Watermark(ts) => {
                        if !ctx.emit_watermark(ts) {
                            return Ok(());
                        }
                    }
                    ConnectorMessage::End => return Ok(()),
                }
            }
        }
    }
}

/// An SPE [`Source`] feeding a downstream module from a connector
/// topic that lives across a TCP connection. The remote consumer
/// commits its offsets after every delivered batch, so a restarted
/// module resumes from the last batch it fully handed to the engine.
pub struct RemoteTopicSource {
    consumer: RemoteConsumer,
    poll_timeout: Duration,
}

impl std::fmt::Debug for RemoteTopicSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteTopicSource")
            .field("consumer", &self.consumer)
            .finish()
    }
}

impl RemoteTopicSource {
    /// Wraps a connected remote consumer.
    pub fn new(consumer: RemoteConsumer, poll_timeout: Duration) -> Self {
        RemoteTopicSource {
            consumer,
            poll_timeout,
        }
    }
}

impl Source for RemoteTopicSource {
    type Out = AmTuple;

    fn run(&mut self, ctx: &mut SourceContext<AmTuple>) -> Result<(), String> {
        loop {
            if ctx.should_stop() {
                let _ = self.consumer.commit();
                return Ok(());
            }
            let records = self
                .consumer
                .poll(self.poll_timeout)
                .map_err(|e| format!("remote connector poll failed: {e}"))?;
            if records.is_empty() {
                continue;
            }
            for polled in records {
                match codec::decode(&polled.record.value)
                    .map_err(|e| format!("remote connector decode failed: {e}"))?
                {
                    ConnectorMessage::Tuple(tuple) => {
                        if !ctx.emit(tuple) {
                            let _ = self.consumer.commit();
                            return Ok(());
                        }
                    }
                    ConnectorMessage::Watermark(ts) => {
                        if !ctx.emit_watermark(ts) {
                            let _ = self.consumer.commit();
                            return Ok(());
                        }
                    }
                    ConnectorMessage::End => {
                        let _ = self.consumer.commit();
                        return Ok(());
                    }
                }
            }
            // Batch fully handed to the engine: make it the resume
            // point for a successor or a reconnect.
            let _ = self.consumer.commit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_pubsub::{Broker, TopicConfig};
    use strata_spe::prelude::*;

    #[test]
    fn stream_control_round_trips_through_a_topic() {
        let broker = Broker::new();
        broker.create_topic("bridge", TopicConfig::new(1)).unwrap();
        let mut publish = publisher(broker.producer(), "bridge".into());

        let t = AmTuple::new(Timestamp::from_millis(10), 1, 0);
        publish(Element::Batch(Batch::new(vec![t.clone()])));
        publish(Element::Watermark(Timestamp::from_millis(11)));
        publish(Element::End);

        // Drive the TopicSource manually through a collect query.
        let consumer = broker.consumer("g", &["bridge"]).unwrap();
        let mut qb = QueryBuilder::new("sub");
        let src = qb.source("in", TopicSource::new(consumer, Duration::from_millis(10)));
        let out = qb.collect_sink("out", &src);
        qb.build().unwrap().run().join().unwrap();
        let got = out.take();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].metadata(), t.metadata());
    }

    #[test]
    fn watermarks_drive_windows_across_the_bridge() {
        let broker = Broker::new();
        broker.create_topic("wm", TopicConfig::new(1)).unwrap();
        let mut publish = publisher(broker.producer(), "wm".into());
        for layer in 0..3u32 {
            let t = AmTuple::new(Timestamp::from_millis(layer as u64 * 100), 1, layer);
            publish(Element::Batch(Batch::new(vec![t])));
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
        let mut publish = publisher(broker.producer(), "shared".into());
        publish(Element::Batch(Batch::new(vec![AmTuple::new(
            Timestamp::MIN,
            1,
            0,
        )])));
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

    #[test]
    fn remote_bridge_round_trips_over_tcp() {
        let broker = Broker::new();
        broker.create_topic("bridge", TopicConfig::new(1)).unwrap();
        let mut server = strata_net::BrokerServer::bind("127.0.0.1:0", broker).unwrap();
        let addr = server.local_addr().to_string();

        let producer = strata_net::RemoteProducer::connect(&addr).unwrap();
        let mut publish = remote_publisher(producer, "bridge".into());
        let t = AmTuple::new(Timestamp::from_millis(10), 1, 0);
        publish(Element::Batch(Batch::new(vec![t.clone()])));
        publish(Element::Watermark(Timestamp::from_millis(11)));
        publish(Element::End);

        let consumer = RemoteConsumer::connect(&addr, "g", &["bridge"]).unwrap();
        let mut qb = QueryBuilder::new("sub");
        let src = qb.source(
            "in",
            RemoteTopicSource::new(consumer, Duration::from_millis(10)),
        );
        let out = qb.collect_sink("out", &src);
        qb.build().unwrap().run().join().unwrap();
        let got = out.take();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].metadata(), t.metadata());
        server.shutdown();
    }
}
