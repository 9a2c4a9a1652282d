//! The single-threaded reference for the pipeline's output: the four
//! public stage functions of Algorithm 1 called in a loop over the same
//! layer tuples, a copy of `correlateEvents`' per-(job, specimen)
//! `[layer − L, layer]` windowing, and the normalisation under which
//! delivered reports are compared with it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use strata::pipeline::CorrelationWindow;
use strata::usecase::thermal;
use strata::{AmTuple, Strata, StrataConfig, Value};
use strata_amsim::{PbfLbMachine, ThermalModel};
use strata_cluster::Point;
use strata_spe::Timestamp;

use crate::workload::{self, Workload};
use crate::BenchResult;

/// Events buffered per `(job, specimen)` group and layer, evaluated the
/// way the pipeline's `Correlate` operator does: when a layer completes,
/// every group with events on it sees that layer plus the previous
/// `depth` layers, oldest layer first and arrival order within a layer.
#[derive(Debug)]
pub struct Windows {
    depth: u32,
    groups: BTreeMap<(u32, u32), LayerEvents>,
}

/// Layer → (latest event time, events in arrival order).
type LayerEvents = BTreeMap<u32, (Timestamp, Vec<AmTuple>)>;

impl Windows {
    /// Windows reaching `depth` layers back.
    pub fn new(depth: u32) -> Self {
        Windows {
            depth,
            groups: BTreeMap::new(),
        }
    }

    /// Buffers one detected event.
    pub fn push(&mut self, event: AmTuple) {
        let m = *event.metadata();
        let layers = self
            .groups
            .entry((m.job, m.specimen.unwrap_or(0)))
            .or_default();
        let entry = layers
            .entry(m.layer)
            .or_insert_with(|| (m.timestamp, Vec::new()));
        entry.0 = entry.0.max(m.timestamp);
        entry.1.push(event);
    }

    /// Completes `layer`: applies `f` to the window of every group with
    /// events on it, in group order, stamps the results as `Correlate`
    /// does, and forgets layers no later window reaches.
    pub fn close_layer<F>(&mut self, layer: u32, mut f: F) -> Vec<AmTuple>
    where
        F: FnMut(&CorrelationWindow<'_>) -> Vec<AmTuple>,
    {
        let mut out = Vec::new();
        for (&(job, specimen), layers) in &mut self.groups {
            let Some(&(timestamp, _)) = layers.get(&layer) else {
                continue;
            };
            let events: Vec<&AmTuple> = layers
                .range(layer.saturating_sub(self.depth)..=layer)
                .flat_map(|(_, (_, events))| events)
                .collect();
            let ingest_ns = events
                .iter()
                .map(|e| e.metadata().ingest_ns)
                .max()
                .unwrap_or(0);
            let window = CorrelationWindow {
                job,
                specimen,
                layer,
                events,
            };
            for mut result in f(&window) {
                let m = result.metadata_mut();
                m.timestamp = timestamp;
                m.job = job;
                m.layer = layer;
                m.specimen = Some(specimen);
                m.ingest_ns = ingest_ns;
                out.push(result);
            }
            let keep_from = (layer + 1).saturating_sub(self.depth);
            layers.retain(|l, _| *l >= keep_from);
        }
        out
    }
}

/// The 3-D points `dbscan_correlator` clusters for `window`.
fn window_points(window: &CorrelationWindow<'_>, layer_pitch_mm: f64) -> Vec<Point> {
    window
        .events
        .iter()
        .map(|e| {
            Point::new(
                e.payload().float("x_mm").unwrap_or(0.0),
                e.payload().float("y_mm").unwrap_or(0.0),
                f64::from(e.metadata().layer) * layer_pitch_mm,
            )
        })
        .collect()
}

/// What the reference computed for one workload input.
pub struct Reference {
    /// Every report, stamped as the pipeline stamps it.
    pub reports: Vec<AmTuple>,
    /// Wall time of the four stage functions per image, rendering
    /// excluded.
    pub stage_ms_per_image: f64,
    /// Render time (`PbfLbMachine::ot_image`) of each layer, ms.
    pub render_ms: Vec<f64>,
    /// Layer 0's fused OT tuple, as the raw connector carries it.
    pub fused: AmTuple,
    /// The last layer's events, as the event connector carries them.
    pub events: Vec<AmTuple>,
    /// The DBSCAN input of the last layer's windows.
    pub windows: Vec<Vec<Point>>,
}

/// Runs the reference over layers `0..layers` of `machine`.
pub fn run(machine: &PbfLbMachine, workload: &Workload, layers: u32) -> BenchResult<Reference> {
    let strata = Strata::new(StrataConfig::default())?;
    thermal::seed_thresholds(
        &strata,
        thermal::reference_thresholds(&ThermalModel::default()),
    )?;
    let options = workload::correlator_options(machine, workload.cell_px());
    let mut isolate_specimen = thermal::isolate_specimen(machine.plan().plate_mm());
    let mut isolate_cell = thermal::isolate_cell(&strata, workload.cell_px());
    let mut label_cell = thermal::label_cell(&strata);
    let mut correlate = thermal::dbscan_correlator(options);
    let mut windows = Windows::new(workload.depth_l);

    let mut reports = Vec::new();
    let mut render_ms = Vec::with_capacity(layers as usize);
    let mut stage_time = Duration::ZERO;
    let mut first_fused = None;
    let mut last_events = Vec::new();
    let mut last_windows = Vec::new();
    for layer in 0..layers {
        let rendered = Instant::now();
        let fused = workload::fused_tuple(machine, layer);
        render_ms.push(rendered.elapsed().as_secs_f64() * 1e3);

        let started = Instant::now();
        let mut events = Vec::new();
        for specimen in isolate_specimen(&fused) {
            for cell in isolate_cell(&specimen) {
                events.extend(label_cell(&cell).unwrap_or_default());
            }
        }
        let last = layer + 1 == layers;
        if last {
            last_events = events.clone();
        }
        for event in events {
            windows.push(event);
        }
        reports.extend(windows.close_layer(layer, |window| {
            if last {
                last_windows.push(window_points(window, options.layer_pitch_mm));
            }
            correlate(window)
        }));
        stage_time += started.elapsed();
        if layer == 0 {
            first_fused = Some(fused);
        }
    }
    Ok(Reference {
        reports,
        stage_ms_per_image: stage_time.as_secs_f64() * 1e3 / f64::from(layers.max(1)),
        render_ms,
        fused: first_fused.ok_or("the reference needs at least one layer")?,
        events: last_events,
        windows: last_windows,
    })
}

/// A report reduced to what must not vary from run to run: event-time
/// metadata and payload. Left out are the metadata's `portion` (the
/// report inherits it from its window's first event) and the payload's
/// `cluster_id` (DBSCAN's discovery order): with parallel
/// `isolateCell`/`labelCell` instances, events reach `correlateEvents`
/// in varying order, and both depend on that order.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalized {
    layer: u32,
    specimen: Option<u32>,
    job: u32,
    timestamp_ms: u64,
    fields: Vec<(String, Field)>,
}

#[derive(Debug, Clone, PartialEq)]
enum Field {
    Int(i64),
    Float(f64),
    Text(String),
}

/// Payload keys whose values depend on event arrival order.
const ORDER_DEPENDENT: [&str; 1] = ["cluster_id"];

/// Reduces a delivered (or reference) report for comparison.
pub fn normalize(tuple: &AmTuple) -> Normalized {
    let m = tuple.metadata();
    Normalized {
        layer: m.layer,
        specimen: m.specimen,
        job: m.job,
        timestamp_ms: m.timestamp.as_millis(),
        fields: tuple
            .payload()
            .iter()
            .filter(|(key, _)| !ORDER_DEPENDENT.contains(key))
            .map(|(key, value)| {
                let field = match value {
                    Value::Int(v) => Field::Int(*v),
                    Value::Float(v) => Field::Float(*v),
                    Value::Str(v) => Field::Text(v.to_string()),
                    other => Field::Text(format!("{other:?}")),
                };
                (key.to_string(), field)
            })
            .collect(),
    }
}

impl Normalized {
    /// Equality with floats compared to a relative tolerance: cluster
    /// centroids sum their members in arrival order.
    pub fn matches(&self, other: &Normalized) -> bool {
        (self.layer, self.specimen, self.job, self.timestamp_ms)
            == (other.layer, other.specimen, other.job, other.timestamp_ms)
            && self.fields.len() == other.fields.len()
            && self
                .fields
                .iter()
                .zip(&other.fields)
                .all(|((ka, a), (kb, b))| {
                    ka == kb
                        && match (a, b) {
                            (Field::Float(x), Field::Float(y)) => {
                                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                            }
                            _ => a == b,
                        }
                })
    }
}

/// How a delivered report set compares with the expected one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Comparison {
    /// Reports expected.
    pub expected: usize,
    /// Reports delivered.
    pub delivered: usize,
    /// Expected reports that never arrived: per `(layer, specimen)`,
    /// the shortfall of delivered against expected reports.
    pub missing: usize,
    /// Reports missing, extra, or different: per `(layer, specimen)`,
    /// the larger of the unmatched expected and unmatched delivered
    /// counts, so a report that arrived altered counts once.
    pub failed: usize,
}

impl std::ops::AddAssign for Comparison {
    fn add_assign(&mut self, other: Comparison) {
        self.expected += other.expected;
        self.delivered += other.delivered;
        self.missing += other.missing;
        self.failed += other.failed;
    }
}

/// Matches `delivered` against `expected` within each
/// `(layer, specimen)`, in any order.
pub fn compare(expected: &[Normalized], delivered: &[Normalized]) -> Comparison {
    type Group<'a> = (Vec<&'a Normalized>, Vec<&'a Normalized>);
    let mut groups: BTreeMap<(u32, Option<u32>), Group<'_>> = BTreeMap::new();
    for report in expected {
        groups
            .entry((report.layer, report.specimen))
            .or_default()
            .0
            .push(report);
    }
    for report in delivered {
        groups
            .entry((report.layer, report.specimen))
            .or_default()
            .1
            .push(report);
    }
    let mut comparison = Comparison {
        expected: expected.len(),
        delivered: delivered.len(),
        ..Comparison::default()
    };
    for (wanted, mut got) in groups.into_values() {
        comparison.missing += wanted.len().saturating_sub(got.len());
        let mut unmatched = 0;
        for report in &wanted {
            match got.iter().position(|d| report.matches(d)) {
                Some(i) => {
                    got.swap_remove(i);
                }
                None => unmatched += 1,
            }
        }
        comparison.failed += unmatched.max(got.len());
    }
    comparison
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata::ConnectorMode;
    use strata_spe::TimedBatchSource;

    fn cluster_report(portion: u32, cluster_id: i64, size: i64, centroid_x: f64) -> AmTuple {
        let mut t = AmTuple::new(Timestamp::from_millis(63_000), 7, 1)
            .with_specimen(3)
            .with_portion(portion);
        t.payload_mut()
            .set_str("report", "cluster")
            .set_int("cluster_id", cluster_id)
            .set_int("size", size)
            .set_float("centroid_x_mm", centroid_x);
        t
    }

    #[test]
    fn normalisation_ignores_arrival_order_fields_only() {
        let a = normalize(&cluster_report(10, 0, 9, 12.5));
        assert!(a.matches(&normalize(&cluster_report(99, 4, 9, 12.5))));
        assert!(a.matches(&normalize(&cluster_report(10, 0, 9, 12.5 + 1e-12))));
        assert!(!a.matches(&normalize(&cluster_report(10, 0, 8, 12.5))));
        assert!(!a.matches(&normalize(&cluster_report(10, 0, 9, 12.6))));
        let mut other_layer = cluster_report(10, 0, 9, 12.5);
        other_layer.metadata_mut().layer = 2;
        assert!(!a.matches(&normalize(&other_layer)));
    }

    #[test]
    fn comparison_counts_missing_extra_and_altered_reports() {
        let expected: Vec<Normalized> = [(9, 1.0), (5, 2.0), (4, 3.0)]
            .iter()
            .map(|&(size, x)| normalize(&cluster_report(0, 0, size, x)))
            .collect();
        let same = compare(
            &expected,
            &expected.iter().rev().cloned().collect::<Vec<_>>(),
        );
        assert_eq!((same.failed, same.missing), (0, 0));

        let altered = vec![
            expected[0].clone(),
            expected[1].clone(),
            normalize(&cluster_report(0, 0, 4, 3.5)),
        ];
        assert_eq!(compare(&expected, &altered).failed, 1);
        assert_eq!(compare(&expected, &altered).missing, 0);

        let short = compare(&expected, &expected[..1]);
        assert_eq!((short.failed, short.missing), (2, 2));

        let mut extra = expected.clone();
        extra.push(expected[0].clone());
        let extra = compare(&expected, &extra);
        assert_eq!((extra.failed, extra.missing, extra.delivered), (1, 0, 4));
    }

    /// Two events per layer: specimen 0 on layers 0–3, 5 and 6 (a gap),
    /// specimen 1 on layers 1 and 4, as the pipeline would order them.
    fn fixture_layers() -> Vec<(Timestamp, Vec<AmTuple>)> {
        (0..7u32)
            .map(|layer| {
                let ts = Timestamp::from_millis(u64::from(layer) * 100);
                let mut events = Vec::new();
                for specimen in 0..2u32 {
                    let present = match specimen {
                        0 => layer != 4,
                        _ => layer == 1 || layer == 4,
                    };
                    for portion in 0..2u32 {
                        if present {
                            let mut e = AmTuple::new(ts, 1, layer)
                                .with_specimen(specimen)
                                .with_portion(portion);
                            e.payload_mut()
                                .set_int("id", i64::from(specimen * 100 + layer * 10 + portion));
                            events.push(e);
                        }
                    }
                }
                (ts, events)
            })
            .collect()
    }

    /// Describes each window as one tuple listing its event ids in order.
    fn describe(window: &CorrelationWindow<'_>) -> Vec<AmTuple> {
        let ids: Vec<String> = window
            .events
            .iter()
            .map(|e| e.payload().int("id").unwrap().to_string())
            .collect();
        let mut t = AmTuple::new(Timestamp::MIN, 0, 0);
        t.payload_mut().set_str("ids", ids.join(","));
        vec![t]
    }

    fn render(t: &AmTuple) -> String {
        let m = t.metadata();
        format!(
            "layer={} specimen={:?} ts={} ids={}",
            m.layer,
            m.specimen,
            m.timestamp.as_millis(),
            t.payload().str("ids").unwrap()
        )
    }

    #[test]
    fn windowing_copy_matches_correlate() {
        const DEPTH: u32 = 2;
        let strata =
            Strata::new(StrataConfig::default().connector_mode(ConnectorMode::Direct)).unwrap();
        let mut pipeline = strata.pipeline("windows");
        let source = pipeline.add_source("events", TimedBatchSource::new(fixture_layers()));
        let detected =
            pipeline.detect_event("detected", &source, |t: &AmTuple| Some(vec![t.clone()]));
        let out = pipeline.correlate_events("out", &detected, DEPTH, describe);
        let reports = pipeline.deliver("expert", &out);
        let deployed = pipeline.deploy().unwrap();
        let mut got: Vec<String> = reports.iter().map(|r| render(&r.tuple)).collect();
        deployed.join().unwrap();

        let mut windows = Windows::new(DEPTH);
        let mut want = Vec::new();
        for (layer, (_, events)) in fixture_layers().into_iter().enumerate() {
            for event in events {
                windows.push(event);
            }
            want.extend(
                windows
                    .close_layer(layer as u32, describe)
                    .iter()
                    .map(render),
            );
        }
        got.sort();
        want.sort();
        assert_eq!(
            want.len(),
            8,
            "six windows for specimen 0, two for specimen 1"
        );
        assert_eq!(got, want);
    }
}
