//! One measured round: set up a STRATA instance (and, for the TCP
//! workload, a loopback broker server in the same process), deploy
//! Algorithm 1, drain the expert's report channel, and tear it all down.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use strata::tuple::ingest_clock_ns;
use strata::usecase::thermal;
use strata::{AmTuple, ConnectorMode, DeployedPipeline, ExpertReport, Strata, StrataConfig};
use strata_amsim::PbfLbMachine;
use strata_net::BrokerServer;
use strata_pubsub::Broker;
use strata_spe::QueryMetrics;

use crate::reference::{self, Normalized};
use crate::trace::{self, Spans};
use crate::workload::{self, Workload};
use crate::BenchResult;

/// How long the expert waits for the next report before declaring the
/// pipeline stuck.
const REPORT_TIMEOUT: Duration = Duration::from_secs(60);

/// Renders of the instance's metrics dump timed after each round.
const RENDERS: usize = 5;

/// Leading layers of a round left out of the latency sample: they pay
/// for thread start-up and first-touch allocation, as in the figure
/// experiments' warm-up.
const WARMUP_LAYERS: u32 = 2;

/// Which composition of Algorithm 1 a round deploys.
#[derive(Clone, Copy)]
pub enum Pipeline<'a> {
    /// `strata::usecase::thermal::deploy_pipeline`, unmodified.
    Library,
    /// The same pipeline composed in the benchmark, with a span around
    /// every user function.
    Traced(&'a Spans),
}

/// One report as the expert received it.
pub struct Delivered {
    pub tuple: AmTuple,
    /// Ingest-clock instant the report left the expert channel.
    pub receipt_ns: u64,
}

/// What one round measured.
pub struct Round {
    /// `Strata::new`, the server bind and the deploy (which pre-renders
    /// the offered tuples), s.
    pub setup_s: f64,
    /// Ingest-clock instant the deployed source's schedule started.
    pub t0_ns: u64,
    /// Ingest-clock instant the expert channel closed: the pipeline
    /// drained.
    pub drain_ns: u64,
    pub reports: Vec<Delivered>,
    /// What `join` returned, one entry per module query.
    pub queries: Vec<QueryMetrics>,
    /// `Strata::metrics_text` after the run: spe, kv, and the
    /// in-process connector topics.
    pub instance_text: String,
    /// The loopback server broker's dump: remote topics and net.
    pub server_text: Option<String>,
    /// Time to render `Strata::metrics_text`, ms, once per render.
    pub render_ms: Vec<f64>,
}

impl Round {
    /// Each layer's completion latency, ms: to the receipt of its last
    /// report, when the expert has the layer's whole picture, from the
    /// layer's scheduled send time. A burst schedules every layer at
    /// once, which would only measure the backlog; there it counts from
    /// the layer's injection instead. Warm-up layers are left out. One
    /// sample per layer keeps layers with many clusters from weighing
    /// more than quiet ones.
    pub fn latencies_ms(&self, rate: f64) -> Vec<f64> {
        // layer → (injection stamp, last receipt)
        let mut layers: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for d in &self.reports {
            let m = d.tuple.metadata();
            let (injected, received) = layers.entry(m.layer).or_default();
            *injected = (*injected).max(m.ingest_ns);
            *received = (*received).max(d.receipt_ns);
        }
        layers
            .into_iter()
            .filter(|&(layer, _)| layer >= WARMUP_LAYERS)
            .map(|(layer, (injected, received))| {
                let start = if rate > 0.0 {
                    workload::due_ns(self.t0_ns, layer, rate)
                } else {
                    injected
                };
                (received as f64 - start as f64) / 1e6
            })
            .collect()
    }

    /// Layers over the time from the first scheduled send to the drain.
    pub fn images_per_s(&self, layers: u32) -> f64 {
        f64::from(layers) / ((self.drain_ns - self.t0_ns) as f64 / 1e9)
    }

    /// How late the generator injected each layer that produced a
    /// report, ms: the reports carry their layer's injection stamp.
    pub fn generator_late_ms(&self, rate: f64) -> Vec<f64> {
        let mut injected: BTreeMap<u32, u64> = BTreeMap::new();
        for d in &self.reports {
            let m = d.tuple.metadata();
            let stamp = injected.entry(m.layer).or_default();
            *stamp = (*stamp).max(m.ingest_ns);
        }
        injected
            .into_iter()
            .map(|(layer, ingest_ns)| {
                (ingest_ns as f64 - workload::due_ns(self.t0_ns, layer, rate) as f64) / 1e6
            })
            .collect()
    }

    /// The delivered reports, normalised for comparison.
    pub fn normalized(&self) -> Vec<Normalized> {
        self.reports
            .iter()
            .map(|d| reference::normalize(&d.tuple))
            .collect()
    }

    /// `(layer, receipt_ns)` of every report.
    pub fn receipts(&self) -> Vec<(u32, u64)> {
        self.reports
            .iter()
            .map(|d| (d.tuple.metadata().layer, d.receipt_ns))
            .collect()
    }

    /// The dump of the broker that hosts the connector topics.
    pub fn broker_text(&self) -> &str {
        self.server_text.as_deref().unwrap_or(&self.instance_text)
    }
}

/// A STRATA instance, plus the loopback broker server its connectors
/// cross in the TCP workload.
struct Stack {
    strata: Strata,
    server: Option<(BrokerServer, Broker)>,
}

impl Stack {
    fn new(workload: &Workload) -> BenchResult<Stack> {
        let mut config = StrataConfig::default();
        let mut server = None;
        if workload.remote {
            // A fresh broker per round: remote topic names repeat across
            // the rounds of one process.
            let broker = Broker::new();
            let bound = BrokerServer::bind("127.0.0.1:0", broker.clone())?;
            config = config.connector_mode(ConnectorMode::Remote {
                addr: bound.local_addr().to_string(),
            });
            server = Some((bound, broker));
        }
        Ok(Stack {
            strata: Strata::new(config)?,
            server,
        })
    }

    fn deploy(
        &self,
        machine: &Arc<PbfLbMachine>,
        workload: &Workload,
        layers: u32,
        rate: f64,
        pipeline: Pipeline<'_>,
    ) -> BenchResult<(DeployedPipeline, Receiver<ExpertReport>)> {
        let options = workload.options(layers, rate);
        Ok(match pipeline {
            Pipeline::Library => {
                thermal::deploy_pipeline(&self.strata, Arc::clone(machine), options)?
            }
            Pipeline::Traced(spans) => trace::deploy(&self.strata, machine, &options, spans)?,
        })
    }

    fn shut_down(self) {
        if let Some((mut server, _)) = self.server {
            server.shutdown();
        }
    }
}

/// Sets up, runs `layers` layers of `workload` to the drain, and tears
/// down.
pub fn measure(
    machine: &Arc<PbfLbMachine>,
    workload: &Workload,
    layers: u32,
    pipeline: Pipeline<'_>,
) -> BenchResult<Round> {
    let started = Instant::now();
    let stack = Stack::new(workload)?;
    let (deployed, reports) = stack.deploy(machine, workload, layers, workload.rate, pipeline)?;
    // The source's schedule starts as the deployed queries start.
    let t0_ns = ingest_clock_ns();
    let setup_s = started.elapsed().as_secs_f64();

    let mut delivered = Vec::new();
    loop {
        match reports.recv_timeout(REPORT_TIMEOUT) {
            Ok(report) => {
                // Receipt is timed before the expert acts on the report.
                let receipt_ns = ingest_clock_ns();
                // The expert persists each report, closing the loop back
                // into the key-value store.
                let kind = report.tuple.payload().str("report").unwrap_or("unknown");
                stack
                    .strata
                    .store(format!("reports/{:06}", delivered.len()), kind)?;
                delivered.push(Delivered {
                    tuple: report.tuple,
                    receipt_ns,
                });
            }
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                deployed.shutdown()?;
                stack.shut_down();
                return Err(format!(
                    "{}: no report for {} s",
                    workload.name,
                    REPORT_TIMEOUT.as_secs()
                )
                .into());
            }
        }
    }
    let drain_ns = ingest_clock_ns();
    let queries = deployed.join()?;
    let render_ms = (0..RENDERS)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(stack.strata.metrics_text());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let instance_text = stack.strata.metrics_text();
    let server_text = stack
        .server
        .as_ref()
        .map(|(_, broker)| broker.registry().render());
    stack.shut_down();
    Ok(Round {
        setup_s,
        t0_ns,
        drain_ns,
        reports: delivered,
        queries,
        instance_text,
        server_text,
        render_ms,
    })
}

/// Times one more set-up of the round's stack and pipeline, then stops
/// the pipeline before it does real work. The source replays as fast
/// as possible here, so it sees the stop request within a tuple instead
/// of sleeping out an open-loop gap; set-up itself does not depend on
/// the rate.
pub fn setup_only(
    machine: &Arc<PbfLbMachine>,
    workload: &Workload,
    layers: u32,
) -> BenchResult<f64> {
    let started = Instant::now();
    let stack = Stack::new(workload)?;
    let (deployed, reports) = stack.deploy(machine, workload, layers, 0.0, Pipeline::Library)?;
    let setup_s = started.elapsed().as_secs_f64();
    drop(reports);
    deployed.shutdown()?;
    stack.shut_down();
    Ok(setup_s)
}
