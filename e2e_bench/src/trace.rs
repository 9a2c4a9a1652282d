//! The outside-in trace: Algorithm 1 composed from the public
//! `PipelineBuilder` API the way `deploy_pipeline` composes it, with
//! every user function wrapped in a span, and the stage times derived
//! from the span edges.
//!
//! A span records the stage, the layer (the id the spans of one layer
//! share), the specimen, start and end on the ingest clock, and counts.
//! Per-call stages (`isolateSpecimen`, `isolateCell`, `correlateEvents`)
//! get one span per call; `labelCell` runs once per cell, so each
//! instance folds a layer's calls into one span with a call count and
//! busy time. Spans stay in per-instance buffers until the instance is
//! dropped at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crossbeam::channel::Receiver;
use strata::collector::OfferedRateSource;
use strata::pipeline::CorrelationWindow;
use strata::tuple::ingest_clock_ns;
use strata::usecase::thermal::{self, ThermalPipelineOptions};
use strata::{AmTuple, DeployedPipeline, ExpertReport, Strata};
use strata_amsim::{PbfLbMachine, ThermalModel};

use crate::workload;

/// A wrapped user function of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    IsolateSpecimen,
    IsolateCell,
    LabelCell,
    Correlate,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::IsolateSpecimen => "isolateSpecimen",
            Stage::IsolateCell => "isolateCell",
            Stage::LabelCell => "labelCell",
            Stage::Correlate => "correlateEvents",
        }
    }
}

/// Calls of one stage on one layer, timed on the ingest clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub stage: Stage,
    pub layer: u32,
    pub specimen: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    /// Time inside the user function (equals `end_ns − start_ns` for a
    /// single call).
    pub busy_ns: u64,
    /// Tuples the calls received (window events for `correlateEvents`).
    pub inputs: u64,
    /// Tuples the calls returned.
    pub outputs: u64,
    /// Latest ingest stamp among the inputs: the layer's injection time.
    pub ingest_ns: u64,
}

/// The shared span store of one traced run.
#[derive(Debug, Default)]
pub struct Spans {
    sink: Arc<Mutex<Vec<Span>>>,
}

impl Spans {
    fn recorder(&self) -> Recorder {
        Recorder {
            sink: Arc::clone(&self.sink),
            local: Vec::new(),
            open: None,
        }
    }

    /// Every span recorded so far. Call after the pipeline joined, when
    /// every instance has flushed its buffer.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.sink.lock().expect("a span recorder panicked"))
    }

    /// Wraps a `partition` function in one span per call.
    pub fn partition<F>(
        &self,
        stage: Stage,
        mut f: F,
    ) -> impl FnMut(&AmTuple) -> Vec<AmTuple> + Clone + Send + 'static
    where
        F: FnMut(&AmTuple) -> Vec<AmTuple> + Clone + Send + 'static,
    {
        let mut recorder = self.recorder();
        move |tuple: &AmTuple| {
            let start_ns = ingest_clock_ns();
            let out = f(tuple);
            let end_ns = ingest_clock_ns();
            let m = tuple.metadata();
            recorder.local.push(Span {
                stage,
                layer: m.layer,
                specimen: m.specimen,
                start_ns,
                end_ns,
                calls: 1,
                busy_ns: end_ns - start_ns,
                inputs: 1,
                outputs: out.len() as u64,
                ingest_ns: m.ingest_ns,
            });
            out
        }
    }

    /// Wraps `labelCell`, folding each layer's calls into one span.
    pub fn label<F>(
        &self,
        mut f: F,
    ) -> impl FnMut(&AmTuple) -> Option<Vec<AmTuple>> + Clone + Send + 'static
    where
        F: FnMut(&AmTuple) -> Option<Vec<AmTuple>> + Clone + Send + 'static,
    {
        let mut recorder = self.recorder();
        move |tuple: &AmTuple| {
            let start_ns = ingest_clock_ns();
            let out = f(tuple);
            let end_ns = ingest_clock_ns();
            recorder.fold(tuple, start_ns, end_ns, out.as_ref().map_or(0, Vec::len));
            out
        }
    }

    /// Wraps a `correlateEvents` function in one span per window.
    pub fn correlate<F>(
        &self,
        mut f: F,
    ) -> impl for<'a> FnMut(&CorrelationWindow<'a>) -> Vec<AmTuple> + Send + 'static
    where
        F: for<'a> FnMut(&CorrelationWindow<'a>) -> Vec<AmTuple> + Send + 'static,
    {
        let mut recorder = self.recorder();
        move |window: &CorrelationWindow<'_>| {
            let start_ns = ingest_clock_ns();
            let out = f(window);
            let end_ns = ingest_clock_ns();
            recorder.local.push(Span {
                stage: Stage::Correlate,
                layer: window.layer,
                specimen: Some(window.specimen),
                start_ns,
                end_ns,
                calls: 1,
                busy_ns: end_ns - start_ns,
                inputs: window.events.len() as u64,
                outputs: out.len() as u64,
                ingest_ns: window
                    .events
                    .iter()
                    .map(|e| e.metadata().ingest_ns)
                    .max()
                    .unwrap_or(0),
            });
            out
        }
    }
}

/// One operator instance's span buffer; flushed into the shared store
/// when the instance is dropped. A clone starts with an empty buffer.
struct Recorder {
    sink: Arc<Mutex<Vec<Span>>>,
    local: Vec<Span>,
    /// The `labelCell` span of the layer in progress.
    open: Option<Span>,
}

impl Recorder {
    fn fold(&mut self, tuple: &AmTuple, start_ns: u64, end_ns: u64, outputs: usize) {
        let m = tuple.metadata();
        if let Some(span) = self.open.as_mut().filter(|s| s.layer == m.layer) {
            span.end_ns = end_ns;
            span.calls += 1;
            span.busy_ns += end_ns - start_ns;
            span.inputs += 1;
            span.outputs += outputs as u64;
            span.ingest_ns = span.ingest_ns.max(m.ingest_ns);
            return;
        }
        self.local.extend(self.open.take());
        self.open = Some(Span {
            stage: Stage::LabelCell,
            layer: m.layer,
            specimen: None,
            start_ns,
            end_ns,
            calls: 1,
            busy_ns: end_ns - start_ns,
            inputs: 1,
            outputs: outputs as u64,
            ingest_ns: m.ingest_ns,
        });
    }
}

impl Clone for Recorder {
    fn clone(&self) -> Self {
        Recorder {
            sink: Arc::clone(&self.sink),
            local: Vec::new(),
            open: None,
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.local.extend(self.open.take());
        // A poisoned store means another recorder panicked; that run
        // fails at join anyway.
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.local);
        }
    }
}

/// Deploys Algorithm 1 as `deploy_pipeline` does at parallelism above 1,
/// composed here from the public API with every user function traced.
pub fn deploy(
    strata: &Strata,
    machine: &PbfLbMachine,
    options: &ThermalPipelineOptions,
    spans: &Spans,
) -> strata::Result<(DeployedPipeline, Receiver<ExpertReport>)> {
    thermal::seed_thresholds(
        strata,
        thermal::reference_thresholds(&ThermalModel::default()),
    )?;
    let tuples = options
        .layers
        .clone()
        .map(|layer| workload::fused_tuple(machine, layer))
        .collect();
    let rate = options.offered_rate.unwrap_or(0.0);
    let mut pipeline = strata.pipeline("thermal");
    let fused = pipeline.add_source(
        "replay",
        OfferedRateSource::new(tuples, rate, machine.recoat_ms()),
    );
    let spec = pipeline.partition(
        "spec",
        &fused,
        spans.partition(
            Stage::IsolateSpecimen,
            thermal::isolate_specimen(machine.plan().plate_mm()),
        ),
    );
    let cells = pipeline.partition_parallel(
        "cell",
        &spec,
        options.parallelism,
        spans.partition(
            Stage::IsolateCell,
            thermal::isolate_cell(strata, options.cell_px),
        ),
    );
    let events = pipeline.detect_event_parallel(
        "cellLabel",
        &cells,
        options.parallelism,
        spans.label(thermal::label_cell(strata)),
    );
    let correlator = workload::correlator_options(machine, options.cell_px);
    let out = pipeline.correlate_events(
        "out",
        &events,
        options.depth_l,
        spans.correlate(thermal::dbscan_correlator(correlator)),
    );
    let reports = pipeline.deliver("expert", &out);
    Ok((pipeline.deploy()?, reports))
}

/// Sums over the spans of one stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub calls: u64,
    pub busy_ns: u64,
    pub inputs: u64,
    pub outputs: u64,
}

/// The sums over every span of `stage`.
pub fn totals(spans: &[Span], stage: Stage) -> Totals {
    spans
        .iter()
        .filter(|s| s.stage == stage)
        .fold(Totals::default(), |t, s| Totals {
            calls: t.calls + s.calls,
            busy_ns: t.busy_ns + s.busy_ns,
            inputs: t.inputs + s.inputs,
            outputs: t.outputs + s.outputs,
        })
}

/// Per-layer stage times from span edges, ms; a layer contributes to a
/// stage only when both of the stage's edges were observed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StageTimes {
    /// Injection to the layer's first `isolateSpecimen`.
    pub raw_connector_ms: Vec<f64>,
    /// Monitor wall time (first `isolateSpecimen` start to last
    /// `labelCell` end) minus user-function self time, with the
    /// parallel stages' self time split evenly across instances: the
    /// SPE's hops, sends and queueing.
    pub monitor_gap_ms: Vec<f64>,
    /// The last `labelCell` end to the first `correlateEvents` start.
    pub event_connector_ms: Vec<f64>,
    /// The last `correlateEvents` end to the expert's last receipt.
    pub deliver_ms: Vec<f64>,
}

/// Derives [`StageTimes`] from the spans and the expert's
/// `(layer, receipt_ns)` pairs.
pub fn stage_times(spans: &[Span], receipts: &[(u32, u64)], parallelism: usize) -> StageTimes {
    #[derive(Default)]
    struct Edges {
        injected: Option<u64>,
        spec_start: Option<u64>,
        label_end: Option<u64>,
        correlate_start: Option<u64>,
        correlate_end: Option<u64>,
        received: Option<u64>,
        spec_busy: u64,
        cell_busy: u64,
    }
    let min = |a: Option<u64>, b: u64| Some(a.map_or(b, |a| a.min(b)));
    let max = |a: Option<u64>, b: u64| Some(a.map_or(b, |a| a.max(b)));
    let mut layers: BTreeMap<u32, Edges> = BTreeMap::new();
    for span in spans {
        let edges = layers.entry(span.layer).or_default();
        match span.stage {
            Stage::IsolateSpecimen => {
                edges.injected = max(edges.injected, span.ingest_ns);
                edges.spec_start = min(edges.spec_start, span.start_ns);
                edges.spec_busy += span.busy_ns;
            }
            Stage::IsolateCell => edges.cell_busy += span.busy_ns,
            Stage::LabelCell => {
                edges.label_end = max(edges.label_end, span.end_ns);
                edges.cell_busy += span.busy_ns;
            }
            Stage::Correlate => {
                edges.correlate_start = min(edges.correlate_start, span.start_ns);
                edges.correlate_end = max(edges.correlate_end, span.end_ns);
            }
        }
    }
    for &(layer, receipt_ns) in receipts {
        let edges = layers.entry(layer).or_default();
        edges.received = max(edges.received, receipt_ns);
    }
    let ms = |to: u64, from: u64| (to as f64 - from as f64) / 1e6;
    let mut times = StageTimes::default();
    for edges in layers.values() {
        if let (Some(injected), Some(start)) = (edges.injected, edges.spec_start) {
            times.raw_connector_ms.push(ms(start, injected));
        }
        if let (Some(start), Some(end)) = (edges.spec_start, edges.label_end) {
            let self_ns =
                edges.spec_busy as f64 + edges.cell_busy as f64 / parallelism.max(1) as f64;
            times.monitor_gap_ms.push(ms(end, start) - self_ns / 1e6);
        }
        if let (Some(end), Some(start)) = (edges.label_end, edges.correlate_start) {
            times.event_connector_ms.push(ms(start, end));
        }
        if let (Some(end), Some(received)) = (edges.correlate_end, edges.received) {
            times.deliver_ms.push(ms(received, end));
        }
    }
    times
}

/// Writes the spans as tab-separated values, one span per line.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::from(
        "stage\tlayer\tspecimen\tstart_ns\tend_ns\tcalls\tbusy_ns\tinputs\toutputs\tingest_ns\n",
    );
    for s in spans {
        let specimen = s
            .specimen
            .map_or_else(|| "-".to_string(), |v| v.to_string());
        let _ = writeln!(
            text,
            "{}\t{}\t{specimen}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.stage.name(),
            s.layer,
            s.start_ns,
            s.end_ns,
            s.calls,
            s.busy_ns,
            s.inputs,
            s.outputs,
            s.ingest_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_spe::Timestamp;

    const MS: u64 = 1_000_000;

    fn span(stage: Stage, start: u64, end: u64, busy: u64) -> Span {
        Span {
            stage,
            layer: 3,
            specimen: None,
            start_ns: start * MS,
            end_ns: end * MS,
            calls: 1,
            busy_ns: busy * MS,
            inputs: 1,
            outputs: 1,
            ingest_ns: 50 * MS,
        }
    }

    #[test]
    fn stage_times_come_from_span_edges() {
        let spans = vec![
            span(Stage::IsolateSpecimen, 100, 200, 100),
            span(Stage::IsolateCell, 200, 400, 200),
            span(Stage::IsolateCell, 210, 310, 100),
            span(Stage::LabelCell, 300, 900, 200),
            span(Stage::Correlate, 1_000, 1_200, 200),
            span(Stage::Correlate, 1_200, 1_500, 300),
        ];
        let times = stage_times(&spans, &[(3, 1_550 * MS), (3, 1_600 * MS)], 2);
        assert_eq!(times.raw_connector_ms, vec![50.0]);
        // Wall 800 ms, self 100 + (200 + 100 + 200) / 2 = 350 ms.
        assert_eq!(times.monitor_gap_ms, vec![450.0]);
        assert_eq!(times.event_connector_ms, vec![100.0]);
        assert_eq!(times.deliver_ms, vec![100.0]);

        // A layer with no events has no correlate edge.
        let quiet = stage_times(&spans[..4], &[], 2);
        assert!(quiet.event_connector_ms.is_empty() && quiet.deliver_ms.is_empty());
    }

    #[test]
    fn recorders_fold_label_calls_per_layer_and_flush_on_drop() {
        let spans = Spans::default();
        let mut label =
            spans.label(|t: &AmTuple| (t.metadata().portion == Some(0)).then(|| vec![t.clone()]));
        for (layer, portion) in [(0, 0), (0, 1), (0, 2), (1, 0)] {
            let t = AmTuple::new(Timestamp::MIN, 1, layer).with_portion(portion);
            label(&t);
        }
        let mut clone = label.clone();
        clone(&AmTuple::new(Timestamp::MIN, 1, 1).with_portion(5));
        drop(label);
        drop(clone);
        let mut got: Vec<(u32, u64, u64)> = spans
            .take()
            .iter()
            .map(|s| (s.layer, s.calls, s.outputs))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 3, 1), (1, 1, 0), (1, 1, 1)]);
        let totals = totals(&[span(Stage::LabelCell, 0, 1, 1)], Stage::LabelCell);
        assert_eq!((totals.calls, totals.busy_ns), (1, MS));
    }
}
