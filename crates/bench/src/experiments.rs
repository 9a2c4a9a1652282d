//! The figure experiments (paper §5, "Evaluation results").

use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;
use strata::usecase::thermal::{self, ThermalPipelineOptions};
use strata::{ExpertReport, LatencySummary, Strata, StrataConfig};
use strata_amsim::PbfLbMachine;

use crate::workload::{bench_machine, BenchScale};

/// How much wall clock to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Fast sanity pass (small layer counts).
    Quick,
    /// The default: enough samples for stable boxplots.
    Default,
    /// Paper-like sample counts (5 repetitions worth of layers).
    Full,
}

impl Effort {
    fn layers_for_latency(&self) -> u32 {
        match self {
            Effort::Quick => 8,
            Effort::Default => 14,
            Effort::Full => 30,
        }
    }

    fn layers_for_depth(&self, depth_l: u32) -> u32 {
        match self {
            Effort::Quick => depth_l / 4 + 6,
            Effort::Default => depth_l / 2 + 10,
            Effort::Full => depth_l + 12,
        }
    }
}

/// Serializable five-number latency summary (milliseconds).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BoxplotMs {
    /// Sample count.
    pub count: usize,
    /// Minimum, ms.
    pub min: f64,
    /// First quartile, ms.
    pub q1: f64,
    /// Median, ms.
    pub median: f64,
    /// Third quartile, ms.
    pub q3: f64,
    /// Maximum, ms.
    pub max: f64,
    /// Mean, ms.
    pub mean: f64,
}

impl From<LatencySummary> for BoxplotMs {
    fn from(s: LatencySummary) -> Self {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        BoxplotMs {
            count: s.count,
            min: ms(s.min),
            q1: ms(s.q1),
            median: ms(s.median),
            q3: ms(s.q3),
            max: ms(s.max),
            mean: ms(s.mean),
        }
    }
}

/// Drains the expert channel until it closes, returning all reports.
fn drain_reports(reports: &crossbeam::channel::Receiver<ExpertReport>) -> Vec<ExpertReport> {
    let mut out = Vec::new();
    while let Ok(report) = reports.recv_timeout(Duration::from_secs(300)) {
        out.push(report);
    }
    out
}

/// Per-layer completion latency: the slowest report of each layer
/// (the moment the expert has the complete up-to-date picture for the
/// image), skipping `warmup` layers.
pub(crate) fn per_layer_latencies(reports: &[ExpertReport], warmup: u32) -> Vec<Duration> {
    let mut by_layer: std::collections::BTreeMap<u32, Duration> = std::collections::BTreeMap::new();
    for report in reports {
        let layer = report.tuple.metadata().layer;
        let entry = by_layer.entry(layer).or_insert(Duration::ZERO);
        *entry = (*entry).max(report.latency);
    }
    by_layer
        .into_iter()
        .filter(|(layer, _)| *layer >= warmup)
        .map(|(_, latency)| latency)
        .collect()
}

/// One complete pipeline run in "one image at a time" mode: the
/// offered gap is calibrated so a layer finishes before the next one
/// arrives, mimicking the paper's live setting without waiting whole
/// minutes per layer.
fn run_latency_probe(
    machine: Arc<PbfLbMachine>,
    cell_px: u32,
    depth_l: u32,
    layers: u32,
    gap_factor: f64,
) -> (Vec<Duration>, Duration) {
    // Calibration pass: 3 layers as fast as possible.
    let calibration = {
        let strata = Strata::new(StrataConfig::default()).expect("in-memory strata");
        let (running, reports) = thermal::deploy_pipeline(
            &strata,
            Arc::clone(&machine),
            ThermalPipelineOptions {
                cell_px,
                depth_l,
                layers: 0..3,
                offered_rate: Some(0.0),
                parallelism: 2,
                ..ThermalPipelineOptions::default()
            },
        )
        .expect("calibration pipeline deploys");
        let collected = drain_reports(&reports);
        running.join().expect("calibration pipeline finishes");
        collected
            .iter()
            .map(|r| r.latency)
            .max()
            .unwrap_or(Duration::from_millis(50))
    };
    let gap = Duration::from_secs_f64(calibration.as_secs_f64() * 2.0 * gap_factor.max(1.0))
        .max(Duration::from_millis(50));

    // Measurement pass.
    let strata = Strata::new(StrataConfig::default()).expect("in-memory strata");
    let (running, reports) = thermal::deploy_pipeline(
        &strata,
        machine,
        ThermalPipelineOptions {
            cell_px,
            depth_l,
            layers: 0..layers,
            offered_rate: Some(1.0 / gap.as_secs_f64()),
            parallelism: 2,
            ..ThermalPipelineOptions::default()
        },
    )
    .expect("measurement pipeline deploys");
    let collected = drain_reports(&reports);
    running.join().expect("measurement pipeline finishes");
    (per_layer_latencies(&collected, 2), gap)
}

// ───────────────────────── Figure 5 ─────────────────────────

/// One row of Figure 5: the latency distribution at one cell size.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Row {
    /// Cell edge in paper pixels (2000-px frame).
    pub cell_px: u32,
    /// Cell area in mm² (the paper's secondary axis: 5 → 0.25 mm²).
    pub cell_area_mm2: f64,
    /// Cells analyzed per OT image.
    pub cells_per_image: u64,
    /// The latency boxplot.
    pub latency: BoxplotMs,
    /// Whether every sample met the 3 s QoS threshold.
    pub qos_met: bool,
}

/// Figure 5: latency vs cell size (40×40 → 2×2 paper pixels).
pub fn fig5(scale: BenchScale, effort: Effort) -> Vec<Fig5Row> {
    let layers = effort.layers_for_latency();
    let mut rows = Vec::new();
    for &cell_px in &[40u32, 20, 10, 4, 2] {
        let machine = bench_machine(50 + cell_px, scale);
        let scaled = scale.cell_px(cell_px);
        let (latencies, _gap) = run_latency_probe(Arc::clone(&machine), scaled, 20, layers, 1.0);
        let summary = LatencySummary::from_samples(&latencies).expect("probe produced samples");
        let mm_per_px = machine.plan().plate_mm() / 2000.0;
        let cell_mm = cell_px as f64 * mm_per_px;
        let specimen = &machine.plan().specimens()[0].rect;
        let per_spec = (specimen.w / cell_mm).ceil() * (specimen.h / cell_mm).ceil();
        rows.push(Fig5Row {
            cell_px,
            cell_area_mm2: cell_mm * cell_mm,
            cells_per_image: (per_spec as u64) * machine.plan().specimens().len() as u64,
            latency: BoxplotMs::from(summary),
            qos_met: summary.max <= Duration::from_secs(3),
        });
    }
    rows
}

// ───────────────────────── Figure 6 ─────────────────────────

/// One row of Figure 6: the latency distribution at one window depth.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// The `correlateEvents` depth `L`, in layers.
    pub depth_l: u32,
    /// The physical depth in mm (paper: 0.2 mm → 3.2 mm).
    pub depth_mm: f64,
    /// The latency boxplot.
    pub latency: BoxplotMs,
    /// Whether every sample met the 3 s QoS threshold.
    pub qos_met: bool,
}

/// Figure 6: latency vs the number of previous layers clustered
/// together (`L` ∈ 5 → 80).
pub fn fig6(scale: BenchScale, effort: Effort) -> Vec<Fig6Row> {
    let mut rows = Vec::new();
    for &depth_l in &[5u32, 10, 20, 40, 80] {
        // A dense event stream (high defect rate, small cells) makes
        // the cross-layer clustering cost dominate, which is the cost
        // that grows with L.
        let machine = crate::workload::bench_machine_scheduled(
            100 + depth_l,
            scale,
            30.0,
            strata_amsim::scan::ScanSchedule::new(90.0, 0.0),
        );
        let layers = effort.layers_for_depth(depth_l);
        // The calibration pass only fills a 3-layer window; deeper
        // windows cost more, so pad the offered gap to stay
        // queue-free.
        let (latencies, _gap) = run_latency_probe(
            Arc::clone(&machine),
            scale.cell_px(4),
            depth_l,
            layers,
            1.0 + depth_l as f64 / 16.0,
        );
        // Sample the second half of the run, where windows are as
        // deep as this run gets.
        let tail: Vec<Duration> = latencies[latencies.len() / 2..].to_vec();
        let summary = LatencySummary::from_samples(&tail).expect("probe produced samples");
        rows.push(Fig6Row {
            depth_l,
            depth_mm: depth_l as f64 * machine.plan().layer_thickness_mm(),
            latency: BoxplotMs::from(summary),
            qos_met: summary.max <= Duration::from_secs(3),
        });
    }
    rows
}

// ───────────────────────── Figure 7 ─────────────────────────

/// One point of Figure 7: one offered rate at one cell size.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Point {
    /// Cell edge in paper pixels.
    pub cell_px: u32,
    /// Offered OT images per second.
    pub offered_rate: f64,
    /// Achieved throughput in thousands of cells per second.
    pub kcells_per_s: f64,
    /// Achieved image completion rate per second.
    pub images_per_s: f64,
    /// Mean end-to-end latency, ms.
    pub mean_latency_ms: f64,
    /// Number of images replayed.
    pub images: u32,
}

/// Figure 7: throughput and latency for increasing offered OT-image
/// rates, at 20×20 and 10×10 (paper-pixel) cells.
pub fn fig7(scale: BenchScale, effort: Effort) -> Vec<Fig7Point> {
    let rates: &[f64] = match effort {
        Effort::Quick => &[2.0, 8.0, 32.0, 96.0],
        _ => &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
    };
    let mut points = Vec::new();
    for &cell_px in &[20u32, 10] {
        for &rate in rates {
            let images = match effort {
                Effort::Quick => ((rate * 2.0) as u32).clamp(12, 80),
                Effort::Default => ((rate * 4.0) as u32).clamp(16, 150),
                Effort::Full => ((rate * 8.0) as u32).clamp(24, 250),
            };
            let machine = bench_machine(200 + cell_px, scale);
            let strata = Strata::new(StrataConfig::default()).expect("in-memory strata");
            let started = std::time::Instant::now();
            let (running, reports) = thermal::deploy_pipeline(
                &strata,
                Arc::clone(&machine),
                ThermalPipelineOptions {
                    cell_px: scale.cell_px(cell_px),
                    depth_l: 20,
                    layers: 0..images,
                    offered_rate: Some(rate),
                    parallelism: 2,
                    ..ThermalPipelineOptions::default()
                },
            )
            .expect("fig7 pipeline deploys");
            let collected = drain_reports(&reports);
            let metrics = running.join().expect("fig7 pipeline finishes");
            let elapsed = started.elapsed();

            // Cells processed: the output count of the cell-splitting
            // stage, summed over its instances `cell.<i>` when parallel.
            let cells: u64 = metrics
                .iter()
                .flat_map(|qm| qm.nodes())
                .filter(|n| {
                    n.name() == "cell"
                        || n.name()
                            .strip_prefix("cell.")
                            .is_some_and(|i| !i.is_empty() && i.bytes().all(|b| b.is_ascii_digit()))
                })
                .map(|n| n.items_out())
                .sum();
            let latencies: Vec<Duration> = collected.iter().map(|r| r.latency).collect();
            let mean_ms = if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().map(|d| d.as_secs_f64()).sum::<f64>() / latencies.len() as f64
                    * 1e3
            };
            points.push(Fig7Point {
                cell_px,
                offered_rate: rate,
                kcells_per_s: cells as f64 / elapsed.as_secs_f64() / 1e3,
                images_per_s: images as f64 / elapsed.as_secs_f64(),
                mean_latency_ms: mean_ms,
                images,
            });
        }
    }
    points
}

// ───────────────────────── Figure 4 ─────────────────────────

/// Outcome of the Figure 4 artifact generation.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Artifacts {
    /// The specimen whose images were rendered.
    pub specimen: u32,
    /// The layer at which the window was rendered.
    pub layer: u32,
    /// Number of clusters in the rendered window.
    pub clusters: i64,
    /// Number of events in the rendered window.
    pub events: i64,
    /// Path of the raw OT specimen image (PGM).
    pub ot_image: String,
    /// Path of the cluster image (PGM).
    pub clusters_image: String,
}

/// Figure 4: renders the OT image of one specimen together with its
/// resulting thermal-energy clustering, into `out_dir`.
pub fn fig4(scale: BenchScale, out_dir: &std::path::Path) -> std::io::Result<Fig4Artifacts> {
    std::fs::create_dir_all(out_dir)?;
    let machine = bench_machine(4, scale);
    let strata = Strata::new(StrataConfig::default()).expect("in-memory strata");
    let layers = 14u32;
    let (running, reports) = thermal::deploy_pipeline(
        &strata,
        Arc::clone(&machine),
        ThermalPipelineOptions {
            cell_px: scale.cell_px(6),
            depth_l: 12,
            layers: 0..layers,
            offered_rate: Some(0.0),
            parallelism: 2,
            render_images: true,
            ..ThermalPipelineOptions::default()
        },
    )
    .expect("fig4 pipeline deploys");
    let collected = drain_reports(&reports);
    running.join().expect("fig4 pipeline finishes");

    // The most eventful summary of the last layers.
    let best = collected
        .iter()
        .filter(|r| r.tuple.payload().str("report") == Some("summary"))
        .filter(|r| r.tuple.payload().image("clusters_image").is_some())
        .max_by_key(|r| {
            (
                r.tuple.payload().int("event_count").unwrap_or(0),
                r.tuple.metadata().layer,
            )
        })
        .expect("at least one rendered summary");
    let specimen = best.tuple.metadata().specimen.unwrap_or(0);
    let layer = best.tuple.metadata().layer;

    // Left panel: the raw OT crop of that specimen at that layer.
    let params = machine.printing_parameters(layer);
    let (_, sx, sy, sw, sh) = params.specimen_px[specimen as usize];
    let ot = machine.ot_image(layer).crop(sx, sy, sw, sh);
    let ot_path = out_dir.join("fig4_ot_specimen.pgm");
    ot.write_pgm(&ot_path)?;

    // Right panel: the cluster image from the pipeline.
    let clusters_image = best
        .tuple
        .payload()
        .image("clusters_image")
        .expect("rendered image present");
    let clusters_path = out_dir.join("fig4_clusters.pgm");
    clusters_image.write_pgm(&clusters_path)?;

    Ok(Fig4Artifacts {
        specimen,
        layer,
        clusters: best.tuple.payload().int("cluster_count").unwrap_or(0),
        events: best.tuple.payload().int("event_count").unwrap_or(0),
        ot_image: ot_path.display().to_string(),
        clusters_image: clusters_path.display().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata::AmTuple;
    use strata_spe::Timestamp;

    fn report(layer: u32, latency_ms: u64) -> ExpertReport {
        ExpertReport {
            tuple: AmTuple::new(Timestamp::from_millis(layer as u64), 1, layer),
            latency: Duration::from_millis(latency_ms),
            qos_met: true,
        }
    }

    #[test]
    fn per_layer_latency_takes_the_layer_maximum() {
        let reports = vec![
            report(0, 5),
            report(1, 10),
            report(1, 30), // slowest of layer 1
            report(2, 20),
        ];
        let got = per_layer_latencies(&reports, 0);
        assert_eq!(
            got,
            vec![
                Duration::from_millis(5),
                Duration::from_millis(30),
                Duration::from_millis(20)
            ]
        );
    }

    #[test]
    fn warmup_layers_are_skipped() {
        let reports = vec![report(0, 5), report(1, 10), report(2, 20)];
        let got = per_layer_latencies(&reports, 2);
        assert_eq!(got, vec![Duration::from_millis(20)]);
    }

    #[test]
    fn boxplot_conversion_is_in_milliseconds() {
        let summary = strata::LatencySummary::from_samples(&[
            Duration::from_millis(10),
            Duration::from_millis(20),
        ])
        .unwrap();
        let b = BoxplotMs::from(summary);
        assert_eq!(b.count, 2);
        assert_eq!(b.min, 10.0);
        assert_eq!(b.max, 20.0);
        assert_eq!(b.median, 15.0);
    }

    #[test]
    fn effort_layer_budgets_scale_with_depth() {
        assert!(Effort::Full.layers_for_depth(80) > Effort::Default.layers_for_depth(80));
        assert!(Effort::Default.layers_for_depth(80) > Effort::Quick.layers_for_depth(80));
        assert!(Effort::Full.layers_for_latency() > Effort::Quick.layers_for_latency());
    }
}
