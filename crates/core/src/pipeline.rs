//! Pipeline composition and deployment: the STRATA API of Table 1.
//!
//! A [`PipelineBuilder`] mirrors the paper's Algorithm 1: the expert
//! declares sources (`addSource`), fuses them (`fuse`), partitions
//! layers into specimens and portions (`partition`), detects events
//! (`detectEvent`) and correlates them within and across layers
//! (`correlateEvents`). On [`deploy`](PipelineBuilder::deploy) the
//! builder compiles the declaration into up to three stream-engine
//! queries — Raw Data Collector, Event Monitor, Event Aggregator —
//! bridged by pub/sub connector topics (or fused into a single query
//! under [`ConnectorMode::Direct`]).
//!
//! Every method is a composition of *native* operators: `fuse` is a
//! Join, `partition` and `detectEvent` are FlatMaps, and
//! `correlateEvents` is a watermark-driven windowed aggregate over
//! the last `L + 1` layers.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver};
use strata_net::{BrokerClient, NetError};
use strata_pubsub::{Broker, LogKind, RetentionPolicy, TopicConfig, Transport};
use strata_spe::operator::UnaryOperator;
use strata_spe::operators::{FlatMap, RoutePolicy};
use strata_spe::{QueryBuilder, QueryMetrics, RunningQuery, Source, Stream, Timestamp};

use crate::config::{ConnectorMode, StrataConfig};
use crate::connector::{publisher, subscribe, TopicConsumer, TopicSource};
use crate::error::{Error, Result};
use crate::report::ExpertReport;
use crate::tuple::AmTuple;

/// Which architectural module a stream lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Module {
    Monitor,
    Aggregator,
}

/// What produced a stream — used to validate the composition rules
/// Table 1 states for each method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Source,
    Fused,
    Partitioned,
    Event,
    Correlated,
}

/// A typed handle to a STRATA stream under construction.
#[derive(Debug, Clone, Copy)]
pub struct AmStream {
    module: Module,
    stage: Stage,
    stream: Stream<AmTuple>,
}

/// The events of the current layer plus the previous `L` layers for
/// one `(job, specimen)` group — what a `correlateEvents` function
/// receives.
#[derive(Debug)]
pub struct CorrelationWindow<'a> {
    /// The printing job.
    pub job: u32,
    /// The specimen the events belong to.
    pub specimen: u32,
    /// The just-completed layer that triggered this evaluation.
    pub layer: u32,
    /// Events of layers `[layer − L, layer]`, oldest layer first,
    /// arrival order within a layer.
    pub events: Vec<&'a AmTuple>,
}

/// The `correlateEvents` operator: buffers detected events per
/// `(job, specimen)` and, whenever the watermark confirms a layer is
/// complete, evaluates the user function over that layer and the
/// previous `L` layers. Layers that produced no events trigger no
/// evaluation (there is nothing new to correlate).
struct Correlate<F> {
    depth: u32,
    f: F,
    groups: HashMap<(u32, u32), GroupState>,
}

#[derive(Default)]
struct GroupState {
    /// layer → (layer timestamp, events in arrival order).
    layers: BTreeMap<u32, (Timestamp, Vec<AmTuple>)>,
    emitted_up_to: Option<u32>,
}

impl<F> Correlate<F>
where
    F: for<'a> FnMut(&CorrelationWindow<'a>) -> Vec<AmTuple> + Send,
{
    fn new(depth: u32, f: F) -> Self {
        Correlate {
            depth,
            f,
            groups: HashMap::new(),
        }
    }

    fn emit_ready(&mut self, limit: Timestamp, out: &mut Vec<AmTuple>) {
        // Deterministic group order.
        let mut keys: Vec<(u32, u32)> = self.groups.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let group = self.groups.get_mut(&key).expect("known key");
            let ready: Vec<u32> = group
                .layers
                .iter()
                .filter(|(layer, (ts, _))| {
                    *ts < limit && group.emitted_up_to.is_none_or(|e| **layer > e)
                })
                .map(|(layer, _)| *layer)
                .collect();
            for layer in ready {
                let window_start = layer.saturating_sub(self.depth);
                let (ts, _) = group.layers[&layer];
                let mut events: Vec<&AmTuple> = Vec::new();
                let mut max_ingest = 0u64;
                for (_, (_, tuples)) in group.layers.range(window_start..=layer) {
                    for t in tuples {
                        max_ingest = max_ingest.max(t.metadata().ingest_ns);
                        events.push(t);
                    }
                }
                let window = CorrelationWindow {
                    job: key.0,
                    specimen: key.1,
                    layer,
                    events,
                };
                let results = (self.f)(&window);
                for mut result in results {
                    let m = result.metadata_mut();
                    m.timestamp = ts;
                    m.job = key.0;
                    m.layer = layer;
                    m.specimen = Some(key.1);
                    // Latency counts from the *latest* contributing
                    // data: the instant all window data was available.
                    m.ingest_ns = max_ingest;
                    out.push(result);
                }
                group.emitted_up_to = Some(layer);
                // Layers older than the next window's reach are done.
                let keep_from = (layer + 1).saturating_sub(self.depth);
                group.layers.retain(|l, _| *l >= keep_from);
            }
        }
    }
}

impl<F> UnaryOperator<AmTuple, AmTuple> for Correlate<F>
where
    F: for<'a> FnMut(&CorrelationWindow<'a>) -> Vec<AmTuple> + Send,
{
    fn on_item(&mut self, item: AmTuple, _out: &mut Vec<AmTuple>) {
        let m = item.metadata();
        let key = (m.job, m.specimen.unwrap_or(0));
        let group = self.groups.entry(key).or_default();
        if group.emitted_up_to.is_some_and(|e| m.layer <= e) {
            return; // Late event for an already-correlated layer.
        }
        let entry = group
            .layers
            .entry(m.layer)
            .or_insert_with(|| (m.timestamp, Vec::new()));
        entry.0 = entry.0.max(m.timestamp);
        entry.1.push(item);
    }

    fn on_watermark(&mut self, watermark: Timestamp, out: &mut Vec<AmTuple>) {
        self.emit_ready(watermark, out);
    }

    fn on_end(&mut self, out: &mut Vec<AmTuple>) {
        self.emit_ready(Timestamp::MAX, out);
    }
}

/// Per-input buffer of every pipeline query node, in elements.
const CHANNEL_CAPACITY: usize = 64;

/// Raw topics carry whole OT images, so they are bounded by bytes.
const RAW_TOPIC_MAX_BYTES: u64 = 512 * 1024 * 1024;

/// Event topics carry small records, so they are bounded by count.
const EVENT_TOPIC_MAX_RECORDS: u64 = 1_000_000;

/// How long a connector subscriber blocks per poll. Only affects how
/// promptly it notices a stop request, not latency.
const POLL_TIMEOUT: Duration = Duration::from_millis(20);

/// The two ends of one connector topic: the publisher's transport and
/// the subscriber.
type ConnectorEnds = (Box<dyn Transport + Send>, TopicConsumer);

/// Builder for one expert pipeline. Created by
/// [`Strata::pipeline`](crate::Strata::pipeline); see the
/// [crate documentation](crate) for a complete example.
pub struct PipelineBuilder {
    name: String,
    topic_prefix: String,
    config: StrataConfig,
    broker: Broker,
    collector: QueryBuilder,
    monitor: QueryBuilder,
    aggregator: QueryBuilder,
    collector_nodes: usize,
    monitor_nodes: usize,
    aggregator_nodes: usize,
    monitor_sinks: usize,
    aggregator_sinks: usize,
    errors: Vec<Error>,
}

impl std::fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl PipelineBuilder {
    pub(crate) fn new(name: String, instance: u64, config: StrataConfig, broker: Broker) -> Self {
        let mut collector = QueryBuilder::new(format!("{name}.collector"));
        let mut monitor = QueryBuilder::new(format!("{name}.monitor"));
        let mut aggregator = QueryBuilder::new(format!("{name}.aggregator"));
        for qb in [&mut collector, &mut monitor, &mut aggregator] {
            qb.channel_capacity(CHANNEL_CAPACITY);
            qb.batch_size(config.batch_size_value());
        }
        // The process id keeps prefixes apart on a remote broker,
        // whose topic namespace every process pointed at the same
        // server shares.
        PipelineBuilder {
            topic_prefix: format!("strata.{name}.p{}.{instance}", std::process::id()),
            name,
            config,
            broker,
            collector,
            monitor,
            aggregator,
            collector_nodes: 0,
            monitor_nodes: 0,
            aggregator_nodes: 0,
            monitor_sinks: 0,
            aggregator_sinks: 0,
            errors: Vec::new(),
        }
    }

    /// The pipeline's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn fail(&mut self, message: impl Into<String>) {
        self.errors.push(Error::InvalidPipeline(message.into()));
    }

    /// Table 1 `addSource`: registers a raw-data collector whose
    /// stream carries `⟨τ, job, layer, payload⟩` tuples. In pub/sub
    /// mode the stream is published to a *Raw Data Connector* topic
    /// and re-consumed by the Event Monitor module.
    pub fn add_source<S>(&mut self, name: &str, source: S) -> AmStream
    where
        S: Source<Out = AmTuple> + 'static,
    {
        match self.config.connector_mode_value() {
            ConnectorMode::Direct => {
                let stream = self.monitor.source(name.to_string(), source);
                self.monitor_nodes += 1;
                AmStream {
                    module: Module::Monitor,
                    stage: Stage::Source,
                    stream,
                }
            }
            ConnectorMode::PubSub | ConnectorMode::Remote { .. } => {
                let raw = self.collector.source(name.to_string(), source);
                self.collector_nodes += 1;
                let stream = self.bridge(raw, &format!("raw.{name}"), Module::Monitor, true);
                AmStream {
                    module: Module::Monitor,
                    stage: Stage::Source,
                    stream,
                }
            }
        }
    }

    /// Publishes `upstream` into a connector topic and subscribes the
    /// target module to it. `from_collector` picks the upstream query
    /// and the topic's retention bound.
    fn bridge(
        &mut self,
        upstream: Stream<AmTuple>,
        label: &str,
        target: Module,
        from_collector: bool,
    ) -> Stream<AmTuple> {
        let topic = format!("{}.{label}", self.topic_prefix);
        let retention = if from_collector {
            RetentionPolicy::default().with_max_bytes(RAW_TOPIC_MAX_BYTES)
        } else {
            RetentionPolicy::default().with_max_records(EVENT_TOPIC_MAX_RECORDS)
        };
        let (transport, consumer) = match self.connect(&topic, retention) {
            Ok(ends) => ends,
            Err(err) => {
                // Deploy fails with the error before it builds a query,
                // so building goes on without the bridge.
                self.errors.push(err);
                return upstream;
            }
        };

        let name = format!("publish.{label}");
        let publish = publisher(transport, topic);
        if from_collector {
            self.collector.element_sink(name, &upstream, publish);
            self.collector_nodes += 1;
        } else {
            self.monitor.element_sink(name, &upstream, publish);
            self.monitor_nodes += 1;
            self.monitor_sinks += 1;
        }

        let name = format!("subscribe.{label}");
        let source = TopicSource::new(consumer, POLL_TIMEOUT);
        match target {
            Module::Monitor => {
                self.monitor_nodes += 1;
                self.monitor.source(name, source)
            }
            Module::Aggregator => {
                self.aggregator_nodes += 1;
                self.aggregator.source(name, source)
            }
        }
    }

    /// Creates `topic` on the connector mode's broker and connects
    /// both ends to it, the subscriber in group `<topic>.sub`. This is
    /// all that differs between the transports.
    ///
    /// On a remote broker `TopicExists` is fine: with several machine
    /// processes sharing one broker server, whoever binds first wins.
    /// Remote topics keep the server's retention defaults.
    fn connect(&self, topic: &str, retention: RetentionPolicy) -> Result<ConnectorEnds> {
        let group = format!("{topic}.sub");
        match self.config.connector_mode_value() {
            ConnectorMode::Remote { addr } => {
                let mut client = BrokerClient::connect(addr.clone())?;
                match client.create_topic(topic, 1) {
                    Ok(()) | Err(NetError::Broker(strata_pubsub::Error::TopicExists(_))) => {}
                    Err(err) => return Err(err.into()),
                }
                let consumer = subscribe(BrokerClient::connect(addr)?, group, topic)?;
                Ok((Box::new(client), consumer))
            }
            _ => {
                let config = TopicConfig::new(1)
                    .with_log(LogKind::Memory)
                    .with_retention(retention);
                self.broker.create_topic(topic, config)?;
                let consumer = subscribe(self.broker.clone(), group, topic)?;
                Ok((Box::new(self.broker.clone()), consumer))
            }
        }
    }

    fn monitor_qb(&mut self) -> &mut QueryBuilder {
        &mut self.monitor
    }

    fn expect_monitor(&mut self, s: &AmStream, method: &str, allowed: &[Stage]) {
        if s.module != Module::Monitor {
            self.fail(format!(
                "{method} operates in the Event Monitor module; got an Aggregator stream"
            ));
        }
        if !allowed.contains(&s.stage) {
            self.fail(format!(
                "{method} expects an input produced by one of {allowed:?}, got {:?}",
                s.stage
            ));
        }
    }

    /// Table 1 `fuse` without WS/WA: joins tuples of two streams that
    /// share the same `τ`, `job` and `layer`, concatenating their
    /// payloads (keys are assumed unique across the fused tuples).
    pub fn fuse(&mut self, name: &str, left: &AmStream, right: &AmStream) -> AmStream {
        self.fuse_windowed(name, left, right, 0)
    }

    /// Table 1 `fuse` with a window: joins tuples of the two streams
    /// with `|τ_L − τ_R| ≤ ws_millis` sharing `job` and `layer`.
    pub fn fuse_windowed(
        &mut self,
        name: &str,
        left: &AmStream,
        right: &AmStream,
        ws_millis: u64,
    ) -> AmStream {
        self.expect_monitor(left, "fuse", &[Stage::Source, Stage::Fused]);
        self.expect_monitor(right, "fuse", &[Stage::Source, Stage::Fused]);
        let stream = self.monitor_qb().join(
            name.to_string(),
            &left.stream,
            &right.stream,
            ws_millis,
            |t: &AmTuple| (t.metadata().job, t.metadata().layer),
            |t: &AmTuple| (t.metadata().job, t.metadata().layer),
            |l: &AmTuple, r: &AmTuple| {
                let mut fused = l.clone();
                fused.payload_mut().merge(r.payload());
                let m = fused.metadata_mut();
                m.timestamp = m.timestamp.max(r.metadata().timestamp);
                m.ingest_ns = m.ingest_ns.max(r.metadata().ingest_ns);
                Some(fused)
            },
        );
        self.monitor_nodes += 1;
        AmStream {
            module: Module::Monitor,
            stage: Stage::Fused,
            stream,
        }
    }

    fn normalize_partition(mut outputs: Vec<AmTuple>) -> Vec<AmTuple> {
        for t in &mut outputs {
            let m = t.metadata_mut();
            m.specimen.get_or_insert(0);
            m.portion.get_or_insert(0);
        }
        outputs
    }

    /// Table 1 `partition`: transforms each tuple into any number of
    /// tuples enriched with `specimen` and `portion` sub-attributes
    /// (defaults of 0 are filled in when `f` leaves them unset). The
    /// paper's use-case calls this twice: `isolateSpecimen()` then
    /// `isolateCell()`.
    pub fn partition<F>(&mut self, name: &str, input: &AmStream, f: F) -> AmStream
    where
        F: FnMut(&AmTuple) -> Vec<AmTuple> + Send + 'static,
    {
        self.expect_monitor(
            input,
            "partition",
            &[Stage::Source, Stage::Fused, Stage::Partitioned],
        );
        let mut f = f;
        let stream =
            self.monitor_qb()
                .flat_map(name.to_string(), &input.stream, move |t: AmTuple| {
                    Self::normalize_partition(f(&t))
                });
        self.monitor_nodes += 1;
        AmStream {
            module: Module::Monitor,
            stage: Stage::Partitioned,
            stream,
        }
    }

    /// [`partition`](Self::partition) with `parallelism` operator
    /// instances. Portions of a layer are independent (paper §4), so
    /// instances are fed round-robin.
    pub fn partition_parallel<F>(
        &mut self,
        name: &str,
        input: &AmStream,
        parallelism: usize,
        f: F,
    ) -> AmStream
    where
        F: FnMut(&AmTuple) -> Vec<AmTuple> + Clone + Send + 'static,
    {
        self.expect_monitor(
            input,
            "partition",
            &[Stage::Source, Stage::Fused, Stage::Partitioned],
        );
        let stream = self.monitor_qb().parallel_operator(
            name.to_string(),
            &input.stream,
            parallelism,
            RoutePolicy::RoundRobin,
            |_| {
                let mut f = f.clone();
                FlatMap::new(move |t: AmTuple| Self::normalize_partition(f(&t)))
            },
        );
        self.monitor_nodes += 1;
        AmStream {
            module: Module::Monitor,
            stage: Stage::Partitioned,
            stream,
        }
    }

    /// Table 1 `detectEvent`: transforms each tuple into any number
    /// of event tuples (`None` is shorthand for "no event"). The
    /// result is an *event stream*, ready for `correlateEvents`.
    pub fn detect_event<F>(&mut self, name: &str, input: &AmStream, f: F) -> AmStream
    where
        F: FnMut(&AmTuple) -> Option<Vec<AmTuple>> + Send + 'static,
    {
        self.expect_monitor(
            input,
            "detectEvent",
            &[Stage::Source, Stage::Fused, Stage::Partitioned],
        );
        let mut f = f;
        let stream =
            self.monitor_qb()
                .flat_map(name.to_string(), &input.stream, move |t: AmTuple| {
                    f(&t).unwrap_or_default()
                });
        self.monitor_nodes += 1;
        AmStream {
            module: Module::Monitor,
            stage: Stage::Event,
            stream,
        }
    }

    /// [`detect_event`](Self::detect_event) with `parallelism`
    /// operator instances fed round-robin.
    pub fn detect_event_parallel<F>(
        &mut self,
        name: &str,
        input: &AmStream,
        parallelism: usize,
        f: F,
    ) -> AmStream
    where
        F: FnMut(&AmTuple) -> Option<Vec<AmTuple>> + Clone + Send + 'static,
    {
        self.expect_monitor(
            input,
            "detectEvent",
            &[Stage::Source, Stage::Fused, Stage::Partitioned],
        );
        let stream = self.monitor_qb().parallel_operator(
            name.to_string(),
            &input.stream,
            parallelism,
            RoutePolicy::RoundRobin,
            |_| {
                let mut f = f.clone();
                FlatMap::new(move |t: AmTuple| f(&t).unwrap_or_default())
            },
        );
        self.monitor_nodes += 1;
        AmStream {
            module: Module::Monitor,
            stage: Stage::Event,
            stream,
        }
    }

    /// Table 1 `correlateEvents`: aggregates, per `(job, specimen)`,
    /// the events of each completed layer together with the events of
    /// the previous `L` layers, and applies `f` to every such window.
    /// Runs in the Event Aggregator module (bridged through the
    /// *Event Connector* in pub/sub mode).
    pub fn correlate_events<F>(
        &mut self,
        name: &str,
        input: &AmStream,
        depth_l: u32,
        f: F,
    ) -> AmStream
    where
        F: for<'a> FnMut(&CorrelationWindow<'a>) -> Vec<AmTuple> + Send + 'static,
    {
        if input.stage != Stage::Event {
            self.fail(format!(
                "correlateEvents expects a detectEvent stream, got {:?}",
                input.stage
            ));
        }
        let fused = matches!(self.config.connector_mode_value(), ConnectorMode::Direct);
        let bridged = if fused {
            input.stream
        } else {
            if input.module != Module::Monitor {
                self.fail("correlateEvents input must come from the Event Monitor");
            }
            self.bridge(
                input.stream,
                &format!("events.{name}"),
                Module::Aggregator,
                false,
            )
        };
        let op = Correlate::new(depth_l, f);
        let stream = if fused {
            let s = self.monitor.operator(name.to_string(), &bridged, op);
            self.monitor_nodes += 1;
            s
        } else {
            let s = self.aggregator.operator(name.to_string(), &bridged, op);
            self.aggregator_nodes += 1;
            s
        };
        AmStream {
            module: if fused {
                Module::Monitor
            } else {
                Module::Aggregator
            },
            stage: Stage::Correlated,
            stream,
        }
    }

    /// Delivers a stream to the expert: every tuple arrives on the
    /// returned channel as an [`ExpertReport`] with its measured
    /// latency and QoS verdict.
    pub fn deliver(&mut self, name: &str, input: &AmStream) -> Receiver<ExpertReport> {
        let (tx, rx) = unbounded();
        let qos = self.config.qos_threshold();
        let sink = move |tuple: AmTuple| {
            let latency = tuple.latency();
            let _ = tx.send(ExpertReport {
                qos_met: latency <= qos,
                latency,
                tuple,
            });
        };
        match input.module {
            Module::Monitor => {
                self.monitor.sink(name.to_string(), &input.stream, sink);
                self.monitor_nodes += 1;
                self.monitor_sinks += 1;
            }
            Module::Aggregator => {
                self.aggregator.sink(name.to_string(), &input.stream, sink);
                self.aggregator_nodes += 1;
                self.aggregator_sinks += 1;
            }
        }
        rx
    }

    /// Compiles and starts the pipeline's queries.
    ///
    /// # Errors
    ///
    /// The first composition error recorded by the builder methods,
    /// or [`Error::InvalidPipeline`] when no source or no delivery
    /// was declared.
    pub fn deploy(mut self) -> Result<DeployedPipeline> {
        if self.monitor_nodes == 0 && self.collector_nodes == 0 {
            self.fail("pipeline has no source");
        }
        if self.monitor_sinks == 0 && self.aggregator_sinks == 0 {
            self.fail("pipeline delivers nothing (call deliver on at least one stream)");
        }
        if let Some(err) = self.errors.into_iter().next() {
            return Err(err);
        }
        // Downstream modules first, so subscribers exist before the
        // collector floods the connector topics.
        let mut running = Vec::new();
        if self.aggregator_nodes > 0 {
            running.push(self.aggregator.build()?.run());
        }
        if self.monitor_nodes > 0 {
            running.push(self.monitor.build()?.run());
        }
        if self.collector_nodes > 0 {
            running.push(self.collector.build()?.run());
        }
        // Land every module's operator metrics in the instance-wide
        // registry so `Strata::metrics_text` covers live pipelines.
        for query in &running {
            query.metrics().register_into(self.broker.registry());
        }
        Ok(DeployedPipeline { running })
    }
}

/// A deployed pipeline: one running query per active module.
pub struct DeployedPipeline {
    running: Vec<RunningQuery>,
}

impl std::fmt::Debug for DeployedPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeployedPipeline")
            .field("queries", &self.running.len())
            .finish()
    }
}

impl DeployedPipeline {
    /// Asks every module to stop (sources wind down, state flushes).
    pub fn stop(&self) {
        for query in &self.running {
            query.stop();
        }
    }

    /// Live metrics of every module query.
    pub fn metrics(&self) -> Vec<&QueryMetrics> {
        self.running.iter().map(RunningQuery::metrics).collect()
    }

    /// Waits for all module queries to finish (after their sources
    /// ended naturally, or after [`stop`](DeployedPipeline::stop)).
    ///
    /// # Errors
    ///
    /// The first worker panic or source failure across modules.
    pub fn join(self) -> Result<Vec<QueryMetrics>> {
        let mut metrics = Vec::with_capacity(self.running.len());
        for query in self.running {
            metrics.push(query.join()?);
        }
        Ok(metrics)
    }

    /// [`stop`](DeployedPipeline::stop) followed by
    /// [`join`](DeployedPipeline::join).
    ///
    /// # Errors
    ///
    /// See [`join`](DeployedPipeline::join).
    pub fn shutdown(self) -> Result<Vec<QueryMetrics>> {
        self.stop();
        self.join()
    }
}
