//! The paper's use-case (Algorithm 1): thermal-energy monitoring.
//!
//! ```text
//! 1  addSource(new PrintingParameterCollector(), pp)
//! 2  addSource(new OTImageCollector(), OT)
//! 3  fuse(OT, pp, OT&pp)
//! 4  partition(OT&pp, spec, isolateSpecimen())
//! 5  partition(spec, cell, isolateCell())
//! 6  detectEvent(cell, cellLabel, labelCell())
//! 7  correlateEvents(cellLabel, out, L, DBSCAN())
//! ```
//!
//! `isolateSpecimen` crops each OT image into per-specimen images
//! using the layout carried by the printing-parameters source;
//! `isolateCell` splits a specimen into square cells and computes
//! per-cell emission statistics; `labelCell` classifies each cell as
//! *very cold / cold / regular / warm / very warm* against thresholds
//! held in the key-value store (computed from historical jobs) and
//! forwards only the two extreme classes; the DBSCAN correlator
//! clusters events within and across the last `L` layers and reports
//! clusters above a volume threshold, together with a rendered
//! cluster image for the expert.

use std::ops::Range;
use std::sync::Arc;

use crossbeam::channel::Receiver;
use strata_amsim::{OtImage, PbfLbMachine, ThermalModel};
use strata_cluster::{dbscan, DbscanParams, Point};

use crate::collector::{OfferedRateSource, OtImageCollector, PrintingParameterCollector};
use crate::error::{Error, Result};
use crate::pipeline::{CorrelationWindow, DeployedPipeline};
use crate::report::ExpertReport;
use crate::strata::Strata;
use crate::tuple::{AmTuple, Payload};

/// Key-value store keys holding the classification thresholds.
pub mod keys {
    /// Pixel gray level below which a pixel is *very cold*.
    pub const PIXEL_VERY_COLD: &str = "thermal/pixel/very_cold";
    /// Pixel gray level below which a pixel is *cold*.
    pub const PIXEL_COLD: &str = "thermal/pixel/cold";
    /// Pixel gray level above which a pixel is *warm*.
    pub const PIXEL_WARM: &str = "thermal/pixel/warm";
    /// Pixel gray level above which a pixel is *very warm*.
    pub const PIXEL_VERY_WARM: &str = "thermal/pixel/very_warm";
    /// Minimum fraction of extreme pixels for a cell to take an
    /// extreme class.
    pub const CELL_MIN_FRACTION: &str = "thermal/cell/min_fraction";
}

/// Classification thresholds used by `isolateCell`/`labelCell`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Pixel level below which a pixel counts as very cold.
    pub pixel_very_cold: f64,
    /// Pixel level below which a pixel counts as cold.
    pub pixel_cold: f64,
    /// Pixel level above which a pixel counts as warm.
    pub pixel_warm: f64,
    /// Pixel level above which a pixel counts as very warm.
    pub pixel_very_warm: f64,
    /// Minimum extreme-pixel fraction for a cell to be classified
    /// into an extreme class.
    pub cell_min_fraction: f64,
}

/// Persists `thresholds` into the key-value store — in production
/// these come from historical jobs; benchmarks and examples seed them
/// from the simulator's [`ThermalModel`].
///
/// # Errors
///
/// Storage failures.
pub fn seed_thresholds(strata: &Strata, thresholds: Thresholds) -> Result<()> {
    strata.store_float(keys::PIXEL_VERY_COLD, thresholds.pixel_very_cold)?;
    strata.store_float(keys::PIXEL_COLD, thresholds.pixel_cold)?;
    strata.store_float(keys::PIXEL_WARM, thresholds.pixel_warm)?;
    strata.store_float(keys::PIXEL_VERY_WARM, thresholds.pixel_very_warm)?;
    strata.store_float(keys::CELL_MIN_FRACTION, thresholds.cell_min_fraction)?;
    Ok(())
}

/// Thresholds an expert would derive from historical jobs of a
/// machine with the given thermal behaviour.
pub fn reference_thresholds(model: &ThermalModel) -> Thresholds {
    let px = model.reference_thresholds();
    Thresholds {
        pixel_very_cold: px.very_cold,
        pixel_cold: px.cold,
        pixel_warm: px.warm,
        pixel_very_warm: px.very_warm,
        cell_min_fraction: 0.10,
    }
}

/// Loads the thresholds back from the key-value store.
///
/// # Errors
///
/// [`Error::InvalidPipeline`] when the thresholds were never seeded;
/// storage failures.
pub fn load_thresholds(strata: &Strata) -> Result<Thresholds> {
    let read = |key: &str| -> Result<f64> {
        strata.get_float(key)?.ok_or_else(|| {
            Error::InvalidPipeline(format!(
                "threshold `{key}` missing from the key-value store; call seed_thresholds first"
            ))
        })
    };
    Ok(Thresholds {
        pixel_very_cold: read(keys::PIXEL_VERY_COLD)?,
        pixel_cold: read(keys::PIXEL_COLD)?,
        pixel_warm: read(keys::PIXEL_WARM)?,
        pixel_very_warm: read(keys::PIXEL_VERY_WARM)?,
        cell_min_fraction: read(keys::CELL_MIN_FRACTION)?,
    })
}

/// `isolateSpecimen()`: crops the fused OT image into one image per
/// specimen, using the pixel layout provided by the
/// printing-parameters source. `plate_mm` maps pixels back to plate
/// coordinates downstream.
pub fn isolate_specimen(plate_mm: f64) -> impl FnMut(&AmTuple) -> Vec<AmTuple> + Clone {
    move |tuple: &AmTuple| {
        let Some(image) = tuple.payload().image("image") else {
            return Vec::new();
        };
        let Some(rects) = tuple.payload().rects("specimen_px") else {
            return Vec::new();
        };
        let mm_per_px = plate_mm / image.width().max(1) as f64;
        rects
            .iter()
            .map(|&(id, x, y, w, h)| {
                let crop = Arc::new(image.crop(x, y, w, h));
                let mut out = tuple.derive().with_specimen(id);
                out.payload_mut()
                    .set_image("image", crop)
                    .set_int("origin_x_px", x as i64)
                    .set_int("origin_y_px", y as i64)
                    .set_float("mm_per_px", mm_per_px);
                out
            })
            .collect()
    }
}

/// `isolateCell()`: splits a specimen image into square cells of
/// `cell_px` pixels and computes per-cell statistics against the
/// pixel thresholds from the key-value store: mean emission and the
/// fraction of pixels beyond each threshold.
pub fn isolate_cell(strata: &Strata, cell_px: u32) -> impl FnMut(&AmTuple) -> Vec<AmTuple> + Clone {
    let strata = strata.clone();
    let mut cached: Option<Thresholds> = None;
    move |tuple: &AmTuple| {
        let thresholds =
            *cached.get_or_insert_with(|| load_thresholds(&strata).expect("thresholds seeded"));
        let Some(image) = tuple.payload().image("image") else {
            return Vec::new();
        };
        let origin_x = tuple.payload().int("origin_x_px").unwrap_or(0) as f64;
        let origin_y = tuple.payload().int("origin_y_px").unwrap_or(0) as f64;
        let mm_per_px = tuple.payload().float("mm_per_px").unwrap_or(0.125);
        let cell = cell_px.max(1);
        let cols = image.width().div_ceil(cell);
        let rows = image.height().div_ceil(cell);
        let mut out = Vec::with_capacity((cols * rows) as usize);
        for row in 0..rows {
            for col in 0..cols {
                let x0 = col * cell;
                let y0 = row * cell;
                let x1 = (x0 + cell).min(image.width());
                let y1 = (y0 + cell).min(image.height());
                let mut sum = 0u64;
                let mut n_very_cold = 0u32;
                let mut n_cold = 0u32;
                let mut n_warm = 0u32;
                let mut n_very_warm = 0u32;
                for y in y0..y1 {
                    for x in x0..x1 {
                        let v = image.get(x, y) as f64;
                        sum += v as u64;
                        if v < thresholds.pixel_very_cold {
                            n_very_cold += 1;
                        }
                        if v < thresholds.pixel_cold {
                            n_cold += 1;
                        }
                        if v > thresholds.pixel_warm {
                            n_warm += 1;
                        }
                        if v > thresholds.pixel_very_warm {
                            n_very_warm += 1;
                        }
                    }
                }
                let count = ((x1 - x0) * (y1 - y0)).max(1) as f64;
                let center_x_mm = (origin_x + (x0 + x1) as f64 / 2.0) * mm_per_px;
                let center_y_mm = (origin_y + (y0 + y1) as f64 / 2.0) * mm_per_px;
                // One allocation per cell, and the keys in ascending
                // order so that every `set` appends: out of order, each
                // would binary-search and shift the entries after it.
                let mut payload = Payload::with_capacity(8);
                payload
                    .set_float("cell_mm", cell as f64 * mm_per_px)
                    .set_float("frac_cold", n_cold as f64 / count)
                    .set_float("frac_very_cold", n_very_cold as f64 / count)
                    .set_float("frac_very_warm", n_very_warm as f64 / count)
                    .set_float("frac_warm", n_warm as f64 / count)
                    .set_float("mean", sum as f64 / count)
                    .set_float("x_mm", center_x_mm)
                    .set_float("y_mm", center_y_mm);
                out.push(
                    AmTuple::from_parts(*tuple.metadata(), payload).with_portion(row * cols + col),
                );
            }
        }
        out
    }
}

/// The five thermal classes of the use-case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellClass {
    /// Far too little thermal energy.
    VeryCold,
    /// Slightly too little thermal energy.
    Cold,
    /// Nominal.
    Regular,
    /// Slightly too much thermal energy.
    Warm,
    /// Far too much thermal energy.
    VeryWarm,
}

impl CellClass {
    /// The class name used in event payloads.
    pub fn as_str(&self) -> &'static str {
        match self {
            CellClass::VeryCold => "very_cold",
            CellClass::Cold => "cold",
            CellClass::Regular => "regular",
            CellClass::Warm => "warm",
            CellClass::VeryWarm => "very_warm",
        }
    }
}

/// Classifies one cell tuple from its fraction statistics.
pub fn classify_cell(tuple: &AmTuple, min_fraction: f64) -> CellClass {
    let frac = |key: &str| tuple.payload().float(key).unwrap_or(0.0);
    if frac("frac_very_cold") >= min_fraction {
        CellClass::VeryCold
    } else if frac("frac_very_warm") >= min_fraction {
        CellClass::VeryWarm
    } else if frac("frac_cold") >= min_fraction {
        CellClass::Cold
    } else if frac("frac_warm") >= min_fraction {
        CellClass::Warm
    } else {
        CellClass::Regular
    }
}

/// `labelCell()`: classifies each cell as very cold / cold / regular
/// / warm / very warm and forwards an event tuple **only** for the
/// two extreme classes (Algorithm 1, line 6).
pub fn label_cell(strata: &Strata) -> impl FnMut(&AmTuple) -> Option<Vec<AmTuple>> + Clone {
    let strata = strata.clone();
    let mut cached: Option<f64> = None;
    move |tuple: &AmTuple| {
        let min_fraction = *cached.get_or_insert_with(|| {
            load_thresholds(&strata)
                .expect("thresholds seeded")
                .cell_min_fraction
        });
        let class = classify_cell(tuple, min_fraction);
        if !matches!(class, CellClass::VeryCold | CellClass::VeryWarm) {
            return None;
        }
        let severity = match class {
            CellClass::VeryCold => tuple.payload().float("frac_very_cold").unwrap_or(0.0),
            _ => tuple.payload().float("frac_very_warm").unwrap_or(0.0),
        };
        let cell = tuple.payload();
        let mut payload = Payload::with_capacity(5);
        payload
            .set_float("cell_mm", cell.float("cell_mm").unwrap_or(0.0))
            .set_str("class", class.as_str())
            .set_float("severity", severity)
            .set_float("x_mm", cell.float("x_mm").unwrap_or(0.0))
            .set_float("y_mm", cell.float("y_mm").unwrap_or(0.0));
        Some(vec![AmTuple::from_parts(*tuple.metadata(), payload)])
    }
}

/// Configuration of the DBSCAN correlator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatorOptions {
    /// ε in mm; pick ≥ 1.5 × the cell edge so adjacent event cells
    /// (diagonals included) connect.
    pub eps_mm: f64,
    /// DBSCAN core-point threshold.
    pub min_pts: usize,
    /// Only report clusters with at least this many member events
    /// (the "bigger than a certain volume" filter).
    pub min_cluster_size: usize,
    /// Layer thickness in mm (z pitch of the 3-D point cloud).
    pub layer_pitch_mm: f64,
    /// Render a cluster image into the summary tuple (Figure 4).
    pub render_image: bool,
}

impl CorrelatorOptions {
    /// Sensible defaults for a given cell edge length in mm.
    pub fn for_cell_mm(cell_mm: f64) -> Self {
        CorrelatorOptions {
            eps_mm: (1.6 * cell_mm).max(0.5),
            min_pts: 3,
            min_cluster_size: 4,
            layer_pitch_mm: 0.04,
            render_image: false,
        }
    }
}

/// `DBSCAN()`: the `correlateEvents` function — clusters the window's
/// events (current layer + previous `L` layers) in 3-D and emits one
/// tuple per cluster above the volume threshold, plus a per-window
/// summary tuple (optionally carrying a rendered cluster image).
pub fn dbscan_correlator(
    options: CorrelatorOptions,
) -> impl for<'a> FnMut(&CorrelationWindow<'a>) -> Vec<AmTuple> + Send {
    move |window: &CorrelationWindow<'_>| {
        let params = DbscanParams::new(options.eps_mm, options.min_pts)
            .expect("validated CorrelatorOptions");
        let points: Vec<Point> = window
            .events
            .iter()
            .map(|e| {
                Point::new(
                    e.payload().float("x_mm").unwrap_or(0.0),
                    e.payload().float("y_mm").unwrap_or(0.0),
                    e.metadata().layer as f64 * options.layer_pitch_mm,
                )
            })
            .collect();
        let labels = dbscan(&points, &params);

        // Collect members per cluster.
        let mut members: std::collections::BTreeMap<u32, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (idx, label) in labels.iter().enumerate() {
            if let Some(cluster) = label.cluster() {
                members.entry(cluster).or_default().push(idx);
            }
        }
        members.retain(|_, m| m.len() >= options.min_cluster_size);

        let template = window
            .events
            .first()
            .map(|e| e.derive())
            .unwrap_or_default_tuple(window);
        let mut out = Vec::with_capacity(members.len() + 1);
        for (cluster_id, idxs) in &members {
            let mut min = points[idxs[0]];
            let mut max = points[idxs[0]];
            let mut sum = (0.0, 0.0, 0.0);
            let mut hot = 0usize;
            for &i in idxs {
                let p = points[i];
                min.x = min.x.min(p.x);
                min.y = min.y.min(p.y);
                min.z = min.z.min(p.z);
                max.x = max.x.max(p.x);
                max.y = max.y.max(p.y);
                max.z = max.z.max(p.z);
                sum.0 += p.x;
                sum.1 += p.y;
                sum.2 += p.z;
                if window.events[i].payload().str("class") == Some("very_warm") {
                    hot += 1;
                }
            }
            let n = idxs.len() as f64;
            let mut t = template.clone();
            t.payload_mut()
                .set_str("report", "cluster")
                .set_int("cluster_id", *cluster_id as i64)
                .set_int("size", idxs.len() as i64)
                .set_int("hot_members", hot as i64)
                .set_float("centroid_x_mm", sum.0 / n)
                .set_float("centroid_y_mm", sum.1 / n)
                .set_float("centroid_z_mm", sum.2 / n)
                .set_float("bbox_min_x_mm", min.x)
                .set_float("bbox_min_y_mm", min.y)
                .set_float("bbox_max_x_mm", max.x)
                .set_float("bbox_max_y_mm", max.y)
                .set_float("depth_mm", max.z - min.z);
            out.push(t);
        }

        // Per-window summary.
        let mut summary = template.clone();
        summary
            .payload_mut()
            .set_str("report", "summary")
            .set_int("cluster_count", members.len() as i64)
            .set_int("event_count", window.events.len() as i64)
            .set_int("window_layer", window.layer as i64);
        if options.render_image {
            summary.payload_mut().set_image(
                "clusters_image",
                Arc::new(render_clusters(&points, &labels, &members)),
            );
        }
        out.push(summary);
        out
    }
}

/// A `correlateEvents` function with **stable cluster identities**:
/// like [`dbscan_correlator`], but clusters keep their id from layer
/// to layer (matched by bounding-box overlap through
/// [`strata_cluster::LayeredClusterer`]), so the expert can watch
/// defect *n* grow instead of re-identifying clusters per window.
///
/// Emits one tuple per reported cluster with the same payload schema
/// as [`dbscan_correlator`] plus a persistent `"tracked_id"`.
///
/// `depth_l` must equal the `L` passed to `correlateEvents` so the
/// tracker's sliding window matches the correlation window. Pass it to
/// [`PipelineBuilder::correlate_events`](crate::PipelineBuilder::correlate_events)
/// in place of [`dbscan_correlator`]; [`deploy_pipeline`] always uses
/// the latter.
pub fn tracked_correlator(
    options: CorrelatorOptions,
    depth_l: u32,
) -> impl for<'a> FnMut(&CorrelationWindow<'a>) -> Vec<AmTuple> + Send {
    use strata_cluster::{LayeredClusterer, LayeredParams};
    // One clusterer per (job, specimen) group, created on first use.
    let mut clusterers: std::collections::HashMap<(u32, u32), LayeredClusterer> =
        std::collections::HashMap::new();
    move |window: &CorrelationWindow<'_>| {
        let clusterer = clusterers
            .entry((window.job, window.specimen))
            .or_insert_with(|| {
                let params = LayeredParams::new(
                    // The correlate window spans the current layer plus
                    // L previous ones.
                    depth_l as usize + 1,
                    DbscanParams::new(options.eps_mm, options.min_pts)
                        .expect("validated CorrelatorOptions"),
                    options.layer_pitch_mm,
                )
                .expect("validated CorrelatorOptions")
                .min_cluster_size(options.min_cluster_size);
                LayeredClusterer::new(params)
            });
        // Only the window's newest layer is new to the tracker.
        let new_events: Vec<(f64, f64)> = window
            .events
            .iter()
            .filter(|e| e.metadata().layer == window.layer)
            .map(|e| {
                (
                    e.payload().float("x_mm").unwrap_or(0.0),
                    e.payload().float("y_mm").unwrap_or(0.0),
                )
            })
            .collect();
        let summaries = clusterer.push_layer(window.layer, new_events);

        let template = window
            .events
            .first()
            .map(|e| e.derive())
            .unwrap_or_default_tuple(window);
        let mut out = Vec::with_capacity(summaries.len() + 1);
        for s in &summaries {
            let mut t = template.clone();
            t.payload_mut()
                .set_str("report", "cluster")
                .set_int("tracked_id", s.id as i64)
                .set_int("cluster_id", s.id as i64)
                .set_int("size", s.size as i64)
                .set_float("centroid_x_mm", s.centroid.x)
                .set_float("centroid_y_mm", s.centroid.y)
                .set_float("centroid_z_mm", s.centroid.z)
                .set_float("bbox_min_x_mm", s.min.x)
                .set_float("bbox_min_y_mm", s.min.y)
                .set_float("bbox_max_x_mm", s.max.x)
                .set_float("bbox_max_y_mm", s.max.y)
                .set_float("depth_mm", s.max.z - s.min.z);
            out.push(t);
        }
        let mut summary = template;
        summary
            .payload_mut()
            .set_str("report", "summary")
            .set_int("cluster_count", summaries.len() as i64)
            .set_int("event_count", window.events.len() as i64)
            .set_int("window_layer", window.layer as i64);
        out.push(summary);
        out
    }
}

/// Renders the window's events with their cluster assignment into a
/// gray-scale image (8 px/mm): noise dim, each cluster in its own
/// gray band — the inspection artifact of Figure 4.
fn render_clusters(
    points: &[Point],
    labels: &[strata_cluster::Label],
    members: &std::collections::BTreeMap<u32, Vec<usize>>,
) -> OtImage {
    const PX_PER_MM: f64 = 8.0;
    if points.is_empty() {
        return OtImage::new(1, 1);
    }
    let (mut min_x, mut min_y, mut max_x, mut max_y) = (
        f64::INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
    );
    for p in points {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    let margin = 1.0;
    let width = (((max_x - min_x) + 2.0 * margin) * PX_PER_MM)
        .ceil()
        .max(1.0) as u32;
    let height = (((max_y - min_y) + 2.0 * margin) * PX_PER_MM)
        .ceil()
        .max(1.0) as u32;
    let mut image = OtImage::new(width.min(4000), height.min(4000));
    for (i, p) in points.iter().enumerate() {
        let x = (((p.x - min_x) + margin) * PX_PER_MM) as u32;
        let y = (((p.y - min_y) + margin) * PX_PER_MM) as u32;
        if x >= image.width() || y >= image.height() {
            continue;
        }
        let value = match labels[i].cluster() {
            Some(id) if members.contains_key(&id) => 80 + ((id * 37) % 176) as u8,
            _ => 30, // noise or sub-threshold cluster
        };
        image.set(x, y, value.max(image.get(x, y)));
    }
    image
}

/// Fallback template construction for windows whose event list is
/// empty (cannot happen through the pipeline, which only evaluates
/// layers with events, but keeps the correlator total).
trait TemplateFallback {
    fn unwrap_or_default_tuple(self, window: &CorrelationWindow<'_>) -> AmTuple;
}

impl TemplateFallback for Option<AmTuple> {
    fn unwrap_or_default_tuple(self, window: &CorrelationWindow<'_>) -> AmTuple {
        self.unwrap_or_else(|| {
            AmTuple::new(strata_spe::Timestamp::MIN, window.job, window.layer)
                .with_specimen(window.specimen)
        })
    }
}

/// Options for [`deploy_pipeline`]: the full Algorithm-1 pipeline in
/// one call, as used by the examples and every figure benchmark.
#[derive(Debug, Clone)]
pub struct ThermalPipelineOptions {
    /// Cell edge in pixels (Figure 5 varies 40 → 2).
    pub cell_px: u32,
    /// `correlateEvents` depth `L` (Figure 6 varies 5 → 80).
    pub depth_l: u32,
    /// Layer range to process.
    pub layers: Range<u32>,
    /// Wall-clock pacing factor for the collectors (1.0 = live,
    /// 0.0 = as fast as possible).
    pub pace: f64,
    /// Parallel instances for the cell-splitting and labeling stages.
    pub parallelism: usize,
    /// Render cluster images into the summary tuples.
    pub render_images: bool,
    /// When set, bypass the live collectors and replay pre-fused
    /// layer tuples at this offered rate (images/s; 0 = as fast as
    /// possible) — the Figure 7 workload.
    pub offered_rate: Option<f64>,
}

impl Default for ThermalPipelineOptions {
    fn default() -> Self {
        ThermalPipelineOptions {
            cell_px: 20,
            depth_l: 20,
            layers: 0..50,
            pace: 0.0,
            parallelism: 1,
            render_images: false,
            offered_rate: None,
        }
    }
}

/// Builds and deploys the complete use-case pipeline (Algorithm 1)
/// against a simulated machine, returning the deployed pipeline and
/// the expert's report channel.
///
/// # Errors
///
/// Pipeline composition or storage failures.
pub fn deploy_pipeline(
    strata: &Strata,
    machine: Arc<PbfLbMachine>,
    options: ThermalPipelineOptions,
) -> Result<(DeployedPipeline, Receiver<ExpertReport>)> {
    // Thresholds "from historical jobs".
    seed_thresholds(strata, reference_thresholds(&ThermalModel::default()))?;

    let plate_mm = machine.plan().plate_mm();
    let mut pipeline = strata.pipeline("thermal");
    let fused = match options.offered_rate {
        None => {
            // Alg. 1 lines 1–3.
            let pp = pipeline.add_source(
                "pp",
                PrintingParameterCollector::new(Arc::clone(&machine))
                    .layers(options.layers.clone())
                    .paced(options.pace),
            );
            let ot = pipeline.add_source(
                "OT",
                OtImageCollector::new(Arc::clone(&machine))
                    .layers(options.layers.clone())
                    .paced(options.pace),
            );
            pipeline.fuse("OT&pp", &ot, &pp)
        }
        Some(rate) => {
            // Figure 7 workload: pre-fused tuples at an offered rate.
            let tuples: Vec<AmTuple> = options
                .layers
                .clone()
                .map(|layer| {
                    let mut t = OtImageCollector::layer_tuple(&machine, layer);
                    t.payload_mut()
                        .merge(PrintingParameterCollector::layer_tuple(&machine, layer).payload());
                    t
                })
                .collect();
            pipeline.add_source(
                "replay",
                OfferedRateSource::new(tuples, rate, machine.recoat_ms()),
            )
        }
    };

    // Alg. 1 lines 4–6.
    let spec = pipeline.partition("spec", &fused, isolate_specimen(plate_mm));
    let parallelism = options.parallelism.max(1);
    let cell = isolate_cell(strata, options.cell_px);
    let cells = pipeline.partition_parallel("cell", &spec, parallelism, cell);
    let label = label_cell(strata);
    let events = pipeline.detect_event_parallel("cellLabel", &cells, parallelism, label);

    // Alg. 1 line 7. Recover mm/px from the machine's layout to size ε.
    let mm_per_px = {
        let params = machine.printing_parameters(0);
        let widest = params
            .specimen_px
            .iter()
            .map(|&(_, _, _, w, _)| w)
            .max()
            .unwrap_or(1);
        let specimen_w_mm = machine.plan().specimens()[0].rect.w;
        specimen_w_mm / widest as f64
    };
    let cell_mm = options.cell_px as f64 * mm_per_px;
    let mut correlator_options = CorrelatorOptions::for_cell_mm(cell_mm);
    correlator_options.layer_pitch_mm = machine.plan().layer_thickness_mm();
    correlator_options.render_image = options.render_images;
    let out = pipeline.correlate_events(
        "out",
        &events,
        options.depth_l,
        dbscan_correlator(correlator_options),
    );
    let reports = pipeline.deliver("expert", &out);
    let deployed = pipeline.deploy()?;
    Ok((deployed, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrataConfig;
    use strata_spe::{Timestamp, Timestamped};

    fn strata_with_thresholds() -> Strata {
        let strata = Strata::new(StrataConfig::default()).unwrap();
        seed_thresholds(&strata, reference_thresholds(&ThermalModel::default())).unwrap();
        strata
    }

    fn fused_tuple(image: OtImage, rects: Vec<(u32, u32, u32, u32, u32)>) -> AmTuple {
        let mut t = AmTuple::new(Timestamp::from_millis(100), 1, 0);
        t.payload_mut()
            .set_image("image", Arc::new(image))
            .set_rects("specimen_px", Arc::new(rects));
        t
    }

    #[test]
    fn thresholds_round_trip_through_the_store() {
        let strata = strata_with_thresholds();
        let loaded = load_thresholds(&strata).unwrap();
        assert_eq!(loaded, reference_thresholds(&ThermalModel::default()));
    }

    #[test]
    fn load_thresholds_requires_seeding() {
        let strata = Strata::new(StrataConfig::default()).unwrap();
        assert!(matches!(
            load_thresholds(&strata),
            Err(Error::InvalidPipeline(_))
        ));
    }

    #[test]
    fn isolate_specimen_crops_and_tags() {
        let image = OtImage::from_fn(100, 100, |x, _| if x < 50 { 10 } else { 200 });
        let tuple = fused_tuple(image, vec![(0, 0, 0, 50, 100), (1, 50, 0, 50, 100)]);
        let mut f = isolate_specimen(250.0);
        let out = f(&tuple);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].metadata().specimen, Some(0));
        assert_eq!(out[1].metadata().specimen, Some(1));
        let img0 = out[0].payload().image("image").unwrap();
        assert_eq!(img0.width(), 50);
        assert_eq!(img0.get(0, 0), 10);
        let img1 = out[1].payload().image("image").unwrap();
        assert_eq!(img1.get(0, 0), 200);
        assert_eq!(out[1].payload().int("origin_x_px"), Some(50));
    }

    #[test]
    fn isolate_cell_computes_fractions() {
        let strata = strata_with_thresholds();
        let thresholds = load_thresholds(&strata).unwrap();
        // A 4×4 specimen image: left half very cold, right half normal.
        let cold = (thresholds.pixel_very_cold - 10.0) as u8;
        let normal = 140u8;
        let image = OtImage::from_fn(4, 4, |x, _| if x < 2 { cold } else { normal });
        let mut spec_tuple = AmTuple::new(Timestamp::from_millis(1), 1, 0).with_specimen(0);
        spec_tuple
            .payload_mut()
            .set_image("image", Arc::new(image))
            .set_int("origin_x_px", 0)
            .set_int("origin_y_px", 0)
            .set_float("mm_per_px", 0.125);
        let mut f = isolate_cell(&strata, 2);
        let out = f(&spec_tuple);
        assert_eq!(out.len(), 4, "4×4 image in 2×2 cells");
        // Left cells fully very-cold, right cells clean.
        assert_eq!(out[0].payload().float("frac_very_cold"), Some(1.0));
        assert_eq!(out[1].payload().float("frac_very_cold"), Some(0.0));
        assert_eq!(out[0].metadata().portion, Some(0));
        assert!(out[0].payload().float("x_mm").unwrap() < out[1].payload().float("x_mm").unwrap());
    }

    #[test]
    fn classify_and_label_cells() {
        let strata = strata_with_thresholds();
        let mut cell = AmTuple::new(Timestamp::from_millis(1), 1, 0)
            .with_specimen(0)
            .with_portion(7);
        cell.payload_mut()
            .set_float("frac_very_cold", 0.5)
            .set_float("frac_cold", 0.6)
            .set_float("frac_warm", 0.0)
            .set_float("frac_very_warm", 0.0)
            .set_float("x_mm", 1.0)
            .set_float("y_mm", 2.0)
            .set_float("cell_mm", 0.25);
        assert_eq!(classify_cell(&cell, 0.1), CellClass::VeryCold);
        let mut f = label_cell(&strata);
        let events = f(&cell).expect("very cold cell is an event");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].payload().str("class"), Some("very_cold"));
        assert_eq!(events[0].metadata().portion, Some(7));

        // A merely cold cell is classified but NOT forwarded.
        cell.payload_mut()
            .set_float("frac_very_cold", 0.0)
            .set_float("frac_cold", 0.5);
        assert_eq!(classify_cell(&cell, 0.1), CellClass::Cold);
        assert!(f(&cell).is_none());

        // Regular cell.
        cell.payload_mut().set_float("frac_cold", 0.0);
        assert_eq!(classify_cell(&cell, 0.1), CellClass::Regular);
    }

    #[test]
    fn correlator_reports_clusters_above_threshold() {
        let mut events = Vec::new();
        // A 3×3 patch of very-warm events 0.25 mm apart + one stray.
        for i in 0..3 {
            for j in 0..3 {
                let mut e = AmTuple::new(Timestamp::from_millis(100), 1, 5).with_specimen(2);
                e.payload_mut()
                    .set_str("class", "very_warm")
                    .set_float("x_mm", 10.0 + i as f64 * 0.25)
                    .set_float("y_mm", 20.0 + j as f64 * 0.25);
                events.push(e);
            }
        }
        let mut stray = AmTuple::new(Timestamp::from_millis(100), 1, 5).with_specimen(2);
        stray
            .payload_mut()
            .set_str("class", "very_cold")
            .set_float("x_mm", 0.0)
            .set_float("y_mm", 0.0);
        events.push(stray);

        let window = CorrelationWindow {
            job: 1,
            specimen: 2,
            layer: 5,
            events: events.iter().collect(),
        };
        let mut f = dbscan_correlator(CorrelatorOptions {
            eps_mm: 0.4,
            min_pts: 3,
            min_cluster_size: 5,
            layer_pitch_mm: 0.04,
            render_image: true,
        });
        let out = f(&window);
        // One cluster report + one summary.
        assert_eq!(out.len(), 2);
        let cluster = &out[0];
        assert_eq!(cluster.payload().str("report"), Some("cluster"));
        assert_eq!(cluster.payload().int("size"), Some(9));
        assert_eq!(cluster.payload().int("hot_members"), Some(9));
        assert!((cluster.payload().float("centroid_x_mm").unwrap() - 10.25).abs() < 1e-9);
        let summary = &out[1];
        assert_eq!(summary.payload().str("report"), Some("summary"));
        assert_eq!(summary.payload().int("cluster_count"), Some(1));
        assert_eq!(summary.payload().int("event_count"), Some(10));
        assert!(summary.payload().image("clusters_image").is_some());
    }

    #[test]
    fn correlator_spans_layers() {
        // Two events per layer over 4 layers at the same (x, y):
        // a single vertical cluster.
        let mut events = Vec::new();
        for layer in 0..4u32 {
            for dx in [0.0, 0.25] {
                let mut e = AmTuple::new(Timestamp::from_millis(layer as u64 * 100), 1, layer)
                    .with_specimen(0);
                e.payload_mut()
                    .set_str("class", "very_cold")
                    .set_float("x_mm", 5.0 + dx)
                    .set_float("y_mm", 5.0);
                events.push(e);
            }
        }
        let window = CorrelationWindow {
            job: 1,
            specimen: 0,
            layer: 3,
            events: events.iter().collect(),
        };
        let mut f = dbscan_correlator(CorrelatorOptions {
            eps_mm: 0.4,
            min_pts: 3,
            min_cluster_size: 6,
            layer_pitch_mm: 0.04,
            render_image: false,
        });
        let out = f(&window);
        assert_eq!(out.len(), 2, "one cluster + summary");
        assert_eq!(out[0].payload().int("size"), Some(8));
        let depth = out[0].payload().float("depth_mm").unwrap();
        assert!((depth - 0.12).abs() < 1e-9, "3 layer gaps × 40 µm");
    }

    #[test]
    fn tracked_correlator_keeps_cluster_identity() {
        let options = CorrelatorOptions {
            eps_mm: 0.4,
            min_pts: 3,
            min_cluster_size: 5,
            layer_pitch_mm: 0.04,
            render_image: false,
        };
        let mut f = tracked_correlator(options, 10);
        let make_window = |layer: u32, events: &mut Vec<AmTuple>| {
            // A persistent 3×3 patch on every layer up to `layer`.
            for i in 0..3 {
                for j in 0..3 {
                    let mut e = AmTuple::new(Timestamp::from_millis(layer as u64 * 100), 1, layer)
                        .with_specimen(0);
                    e.payload_mut()
                        .set_str("class", "very_warm")
                        .set_float("x_mm", 5.0 + i as f64 * 0.25)
                        .set_float("y_mm", 5.0 + j as f64 * 0.25);
                    events.push(e);
                }
            }
        };
        let mut all_events = Vec::new();
        let mut ids = Vec::new();
        for layer in 0..4u32 {
            make_window(layer, &mut all_events);
            let window = CorrelationWindow {
                job: 1,
                specimen: 0,
                layer,
                events: all_events.iter().collect(),
            };
            let out = f(&window);
            let cluster = out
                .iter()
                .find(|t| t.payload().str("report") == Some("cluster"));
            if let Some(c) = cluster {
                ids.push(c.payload().int("tracked_id").unwrap());
                // Size grows by 9 per layer.
                assert_eq!(
                    c.payload().int("size"),
                    Some(9 * (layer as i64 + 1)),
                    "layer {layer}"
                );
            }
        }
        assert!(ids.len() >= 3, "cluster reported on most layers");
        assert!(
            ids.windows(2).all(|w| w[0] == w[1]),
            "identity must be stable: {ids:?}"
        );
    }

    #[test]
    fn end_to_end_pipeline_detects_seeded_defects() {
        use strata_amsim::{MachineConfig, PbfLbMachine};
        let machine = Arc::new(
            PbfLbMachine::new(
                MachineConfig::paper_build(9)
                    .image_px(400)
                    .timing(40, 5)
                    .defect_rate(2.0),
            )
            .unwrap(),
        );
        let strata = Strata::new(StrataConfig::default()).unwrap();
        let (deployed, reports) = deploy_pipeline(
            &strata,
            Arc::clone(&machine),
            ThermalPipelineOptions {
                cell_px: 4,
                depth_l: 10,
                layers: 0..8,
                ..ThermalPipelineOptions::default()
            },
        )
        .unwrap();
        let mut summaries = 0;
        let mut clusters = 0;
        while let Ok(report) = reports.recv_timeout(std::time::Duration::from_secs(30)) {
            assert!(report.tuple.timestamp() > Timestamp::MIN);
            match report.tuple.payload().str("report") {
                Some("summary") => summaries += 1,
                Some("cluster") => clusters += 1,
                other => panic!("unexpected report kind {other:?}"),
            }
            if summaries >= 8 {
                break;
            }
        }
        deployed.shutdown().unwrap();
        assert!(summaries > 0, "windows were evaluated");
        assert!(
            clusters > 0,
            "a defect-rate-2.0 build must produce reportable clusters"
        );
    }
}
