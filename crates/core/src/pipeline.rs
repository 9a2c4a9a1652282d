//! Pipeline composition and deployment: the STRATA API of Table 1.
//!
//! A [`PipelineBuilder`] mirrors the paper's Algorithm 1: the expert
//! declares sources (`addSource`), fuses them (`fuse`), partitions
//! layers into specimens and portions (`partition`), detects events
//! (`detectEvent`) and correlates them within and across layers
//! (`correlateEvents`).
//!
//! The builder keeps one stream-engine query per architectural module
//! in a table indexed by `Module`: Raw Data Collector, Event Monitor,
//! Event Aggregator. `addSource` and `correlateEvents` pick the module
//! their stage runs in, and that pick is the only place the connector
//! mode matters: the pub/sub modes run sources in the collector and
//! correlation in the aggregator, and bridge each module boundary with
//! a connector topic (Raw Data Connector, Event Connector);
//! [`ConnectorMode::Direct`] runs both in the monitor, so everything is
//! one query and no bridge is built. Whether a topic lives on the
//! in-process broker or a remote one is decided where it is created.
//! On [`deploy`](PipelineBuilder::deploy) every module that received a
//! node is built and started.
//!
//! Every method is a composition of *native* operators: `fuse` is a
//! Join, `partition` and `detectEvent` are FlatMaps, and
//! `correlateEvents` is a watermark-driven windowed aggregate over
//! the last `L + 1` layers.

use std::collections::BTreeMap;
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

/// The architectural modules, in data-flow order; each compiles to one
/// query, and the value indexes `PipelineBuilder::queries`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Module {
    Collector,
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
    /// Keyed by `(job, specimen)`; iterated in key order.
    groups: BTreeMap<(u32, u32), GroupState>,
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
            groups: BTreeMap::new(),
        }
    }

    fn emit_ready(&mut self, limit: Timestamp, out: &mut Vec<AmTuple>) {
        for (key, group) in &mut self.groups {
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
    /// One query per `Module`, indexed by it.
    queries: [QueryBuilder; 3],
    /// Which modules received a node; only those are deployed.
    used: [bool; 3],
    /// Whether any stream reaches the expert.
    delivered: bool,
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
        let queries = ["collector", "monitor", "aggregator"].map(|module| {
            let mut query = QueryBuilder::new(format!("{name}.{module}"));
            query.channel_capacity(CHANNEL_CAPACITY);
            query.batch_size(config.batch_size_value());
            query
        });
        // The process id keeps prefixes apart on a remote broker,
        // whose topic namespace every process pointed at the same
        // server shares.
        PipelineBuilder {
            topic_prefix: format!("strata.{name}.p{}.{instance}", std::process::id()),
            name,
            config,
            broker,
            queries,
            used: [false; 3],
            delivered: false,
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

    /// The query of `module`, which `deploy` will therefore build.
    fn query(&mut self, module: Module) -> &mut QueryBuilder {
        self.used[module as usize] = true;
        &mut self.queries[module as usize]
    }

    /// Where a stage of `module` runs under the connector mode:
    /// [`ConnectorMode::Direct`] runs every stage in the monitor.
    fn placed(&self, module: Module) -> Module {
        match self.config.connector_mode_value() {
            ConnectorMode::Direct => Module::Monitor,
            ConnectorMode::PubSub | ConnectorMode::Remote { .. } => module,
        }
    }

    /// Table 1 `addSource`: registers a raw-data collector whose
    /// stream carries `⟨τ, job, layer, payload⟩` tuples. In pub/sub
    /// mode the stream is published to a *Raw Data Connector* topic
    /// and re-consumed by the Event Monitor module.
    pub fn add_source<S>(&mut self, name: &str, source: S) -> AmStream
    where
        S: Source<Out = AmTuple> + 'static,
    {
        let module = self.placed(Module::Collector);
        let raw = self.query(module).source(name.to_string(), source);
        AmStream {
            module: Module::Monitor,
            stage: Stage::Source,
            stream: self.bridge(module, raw, &format!("raw.{name}"), Module::Monitor),
        }
    }

    /// Publishes `upstream` from module `from` into a connector topic
    /// and subscribes module `to` to it; the topic's retention bound
    /// follows `from`. Within one module there is nothing to bridge.
    fn bridge(
        &mut self,
        from: Module,
        upstream: Stream<AmTuple>,
        label: &str,
        to: Module,
    ) -> Stream<AmTuple> {
        if from == to {
            return upstream;
        }
        let topic = format!("{}.{label}", self.topic_prefix);
        let retention = match from {
            Module::Collector => RetentionPolicy::default().with_max_bytes(RAW_TOPIC_MAX_BYTES),
            Module::Monitor | Module::Aggregator => {
                RetentionPolicy::default().with_max_records(EVENT_TOPIC_MAX_RECORDS)
            }
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
        let publish = publisher(transport, topic);
        self.query(from)
            .element_sink(format!("publish.{label}"), &upstream, publish);
        let subscribe = TopicSource::new(consumer, POLL_TIMEOUT);
        self.query(to)
            .source(format!("subscribe.{label}"), subscribe)
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

    /// Adds the Event Monitor stage that produces `stage`, after
    /// checking its inputs against the rule Table 1 states for the
    /// method behind it.
    fn monitor_stage(
        &mut self,
        stage: Stage,
        inputs: &[&AmStream],
        add: impl FnOnce(&mut QueryBuilder) -> Stream<AmTuple>,
    ) -> AmStream {
        let before_events = &[Stage::Source, Stage::Fused, Stage::Partitioned];
        let (method, allowed): (&str, &[Stage]) = match stage {
            Stage::Fused => ("fuse", &[Stage::Source, Stage::Fused]),
            Stage::Partitioned => ("partition", before_events),
            Stage::Event => ("detectEvent", before_events),
            Stage::Source | Stage::Correlated => unreachable!("not a monitor stage"),
        };
        for input in inputs {
            if input.module != Module::Monitor {
                self.fail(format!(
                    "{method} operates in the Event Monitor module; got an Aggregator stream"
                ));
            }
            if !allowed.contains(&input.stage) {
                self.fail(format!(
                    "{method} expects an input produced by one of {allowed:?}, got {:?}",
                    input.stage
                ));
            }
        }
        AmStream {
            module: Module::Monitor,
            stage,
            stream: add(self.query(Module::Monitor)),
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
        self.monitor_stage(Stage::Fused, &[left, right], |query| {
            query.join(
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
            )
        })
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
    pub fn partition<F>(&mut self, name: &str, input: &AmStream, mut f: F) -> AmStream
    where
        F: FnMut(&AmTuple) -> Vec<AmTuple> + Send + 'static,
    {
        self.monitor_stage(Stage::Partitioned, &[input], |query| {
            query.flat_map(name.to_string(), &input.stream, move |t: AmTuple| {
                Self::normalize_partition(f(&t))
            })
        })
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
        self.monitor_stage(Stage::Partitioned, &[input], |query| {
            query.parallel_operator(
                name.to_string(),
                &input.stream,
                parallelism,
                RoutePolicy::RoundRobin,
                |_| {
                    let mut f = f.clone();
                    FlatMap::new(move |t: AmTuple| Self::normalize_partition(f(&t)))
                },
            )
        })
    }

    /// Table 1 `detectEvent`: transforms each tuple into any number
    /// of event tuples (`None` is shorthand for "no event"). The
    /// result is an *event stream*, ready for `correlateEvents`.
    pub fn detect_event<F>(&mut self, name: &str, input: &AmStream, mut f: F) -> AmStream
    where
        F: FnMut(&AmTuple) -> Option<Vec<AmTuple>> + Send + 'static,
    {
        self.monitor_stage(Stage::Event, &[input], |query| {
            query.flat_map(name.to_string(), &input.stream, move |t: AmTuple| {
                f(&t).unwrap_or_default()
            })
        })
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
        self.monitor_stage(Stage::Event, &[input], |query| {
            query.parallel_operator(
                name.to_string(),
                &input.stream,
                parallelism,
                RoutePolicy::RoundRobin,
                |_| {
                    let mut f = f.clone();
                    FlatMap::new(move |t: AmTuple| f(&t).unwrap_or_default())
                },
            )
        })
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
        let module = self.placed(Module::Aggregator);
        let events = self.bridge(
            input.module,
            input.stream,
            &format!("events.{name}"),
            module,
        );
        let op = Correlate::new(depth_l, f);
        AmStream {
            module,
            stage: Stage::Correlated,
            stream: self.query(module).operator(name.to_string(), &events, op),
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
        self.query(input.module)
            .sink(name.to_string(), &input.stream, sink);
        self.delivered = true;
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
        // Sources land in the collector, or in the monitor under
        // `Direct`.
        if !self.used[Module::Collector as usize] && !self.used[Module::Monitor as usize] {
            self.fail("pipeline has no source");
        }
        if !self.delivered {
            self.fail("pipeline delivers nothing (call deliver on at least one stream)");
        }
        if let Some(err) = self.errors.into_iter().next() {
            return Err(err);
        }
        // Downstream modules first, so subscribers exist before the
        // collector floods the connector topics.
        let mut running = Vec::new();
        for (query, used) in self.queries.into_iter().zip(self.used).rev() {
            if used {
                running.push(query.build()?.run());
            }
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
