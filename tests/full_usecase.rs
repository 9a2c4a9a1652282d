//! Cross-crate integration: the complete Algorithm-1 pipeline
//! (simulator → collectors → connectors → monitor → aggregator →
//! expert) validated against the simulator's ground truth.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;
use strata::collector::{OtImageCollector, PrintingParameterCollector};
use strata::usecase::thermal::{self, CorrelatorOptions, ThermalPipelineOptions};
use strata::{DeployedPipeline, ExpertReport, Strata, StrataConfig};
use strata_amsim::{DefectKind, MachineConfig, PbfLbMachine, ThermalModel};

fn run_pipeline(
    machine: Arc<PbfLbMachine>,
    options: ThermalPipelineOptions,
    expected_summaries: usize,
) -> Vec<ExpertReport> {
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let (running, reports) = thermal::deploy_pipeline(&strata, machine, options).unwrap();
    collect_reports(running, &reports, expected_summaries)
}

/// Reads reports until `expected_summaries` summaries arrived (or the
/// stream stalls), then shuts the pipeline down.
fn collect_reports(
    running: DeployedPipeline,
    reports: &Receiver<ExpertReport>,
    expected_summaries: usize,
) -> Vec<ExpertReport> {
    let mut collected = Vec::new();
    let mut summaries = 0;
    while summaries < expected_summaries {
        match reports.recv_timeout(Duration::from_secs(120)) {
            Ok(report) => {
                if report.tuple.payload().str("report") == Some("summary") {
                    summaries += 1;
                }
                collected.push(report);
            }
            Err(_) => break,
        }
    }
    running.shutdown().unwrap();
    collected
}

#[test]
fn detected_clusters_sit_on_seeded_defects() {
    let machine = Arc::new(
        PbfLbMachine::new(
            MachineConfig::paper_build(11)
                .image_px(1000)
                .timing(40, 5)
                .schedule(strata_amsim::scan::ScanSchedule::new(90.0, 67.0))
                .defect_rate(1.5),
        )
        .unwrap(),
    );
    let reports = run_pipeline(
        Arc::clone(&machine),
        ThermalPipelineOptions {
            cell_px: 5,
            depth_l: 10,
            layers: 0..10,
            ..ThermalPipelineOptions::default()
        },
        8,
    );
    let clusters: Vec<_> = reports
        .iter()
        .filter(|r| r.tuple.payload().str("report") == Some("cluster"))
        .collect();
    assert!(!clusters.is_empty(), "defects must produce cluster reports");

    // Every reported cluster centroid must lie near a ground-truth
    // defect site of the same specimen that is active in the window.
    let mm_tolerance = 3.0;
    for cluster in &clusters {
        let cx = cluster.tuple.payload().float("centroid_x_mm").unwrap();
        let cy = cluster.tuple.payload().float("centroid_y_mm").unwrap();
        let specimen = cluster.tuple.metadata().specimen.unwrap();
        let near = machine.defects().iter().any(|d| {
            d.specimen == specimen && (d.x_mm - cx).hypot(d.y_mm - cy) < d.radius_mm + mm_tolerance
        });
        assert!(
            near,
            "cluster at ({cx:.1}, {cy:.1}) mm on specimen {specimen} matches no seeded defect"
        );
    }

    // And the defect kinds must be reflected: a hot defect produces
    // hot members somewhere.
    let has_hot_defect = machine
        .defects()
        .iter()
        .any(|d| d.kind == DefectKind::Hot && d.start_layer < 10);
    if has_hot_defect {
        let hot_members: i64 = clusters
            .iter()
            .filter_map(|c| c.tuple.payload().int("hot_members"))
            .sum();
        assert!(hot_members > 0, "hot defects should yield hot members");
    }
}

#[test]
fn a_clean_build_reports_no_clusters() {
    let machine = Arc::new(
        PbfLbMachine::new(
            MachineConfig::paper_build(12)
                .image_px(400)
                .timing(40, 5)
                .defect_rate(0.0), // no seeded defects at all
        )
        .unwrap(),
    );
    let reports = run_pipeline(
        machine,
        ThermalPipelineOptions {
            cell_px: 10,
            depth_l: 10,
            layers: 0..6,
            ..ThermalPipelineOptions::default()
        },
        1,
    );
    let clusters = reports
        .iter()
        .filter(|r| r.tuple.payload().str("report") == Some("cluster"))
        .count();
    assert_eq!(clusters, 0, "clean build must not raise defect clusters");
}

#[test]
fn latency_meets_the_qos_threshold_under_live_pacing() {
    // The paper's headline claim: sub-second latency, well within the
    // 3 s recoat gap. Uses live pacing so no queueing builds up.
    let machine = Arc::new(
        PbfLbMachine::new(
            MachineConfig::paper_build(13)
                .image_px(800)
                .timing(150, 30)
                .schedule(strata_amsim::scan::ScanSchedule::new(90.0, 67.0))
                .defect_rate(1.5),
        )
        .unwrap(),
    );
    let reports = run_pipeline(
        machine,
        ThermalPipelineOptions {
            cell_px: 10,
            depth_l: 10,
            layers: 0..8,
            pace: 1.0,
            ..ThermalPipelineOptions::default()
        },
        6,
    );
    assert!(!reports.is_empty());
    for report in &reports {
        assert!(
            report.qos_met,
            "latency {:?} violates the 3 s QoS threshold",
            report.latency
        );
    }
}

#[test]
fn parallel_and_serial_monitors_agree() {
    let machine = Arc::new(
        PbfLbMachine::new(
            MachineConfig::paper_build(14)
                .image_px(800)
                .timing(40, 5)
                .schedule(strata_amsim::scan::ScanSchedule::new(90.0, 67.0))
                .defect_rate(1.5),
        )
        .unwrap(),
    );
    let summarize = |parallelism: usize| {
        let reports = run_pipeline(
            Arc::clone(&machine),
            ThermalPipelineOptions {
                cell_px: 8,
                depth_l: 5,
                layers: 0..6,
                parallelism,
                ..ThermalPipelineOptions::default()
            },
            5,
        );
        let mut events: Vec<(u32, Option<u32>, i64)> = reports
            .iter()
            .filter(|r| r.tuple.payload().str("report") == Some("summary"))
            .map(|r| {
                (
                    r.tuple.metadata().layer,
                    r.tuple.metadata().specimen,
                    r.tuple.payload().int("event_count").unwrap_or(0),
                )
            })
            .collect();
        events.sort();
        events
    };
    assert_eq!(summarize(1), summarize(4));
}

#[test]
fn stable_ids_pipeline_reports_persistent_clusters() {
    let machine = Arc::new(
        PbfLbMachine::new(
            MachineConfig::paper_build(15)
                .image_px(800)
                .timing(40, 5)
                .schedule(strata_amsim::scan::ScanSchedule::new(90.0, 0.0))
                .defect_rate(2.0),
        )
        .unwrap(),
    );
    // Algorithm 1 as `deploy_pipeline` builds it, with
    // `tracked_correlator` in place of `dbscan_correlator`.
    let (cell_px, depth_l) = (8, 10);
    let strata = Strata::new(StrataConfig::default()).unwrap();
    thermal::seed_thresholds(
        &strata,
        thermal::reference_thresholds(&ThermalModel::default()),
    )
    .unwrap();
    let mut pipeline = strata.pipeline("thermal");
    let pp = pipeline.add_source(
        "pp",
        PrintingParameterCollector::new(Arc::clone(&machine)).layers(0..8),
    );
    let ot = pipeline.add_source(
        "OT",
        OtImageCollector::new(Arc::clone(&machine)).layers(0..8),
    );
    let fused = pipeline.fuse("OT&pp", &ot, &pp);
    let plate_mm = machine.plan().plate_mm();
    let spec = pipeline.partition("spec", &fused, thermal::isolate_specimen(plate_mm));
    let cells = pipeline.partition("cell", &spec, thermal::isolate_cell(&strata, cell_px));
    let events = pipeline.detect_event("cellLabel", &cells, thermal::label_cell(&strata));
    let params = machine.printing_parameters(0);
    let widest_px = params.specimen_px.iter().map(|s| s.3).max().unwrap();
    let mm_per_px = machine.plan().specimens()[0].rect.w / widest_px as f64;
    let mut options = CorrelatorOptions::for_cell_mm(cell_px as f64 * mm_per_px);
    options.layer_pitch_mm = machine.plan().layer_thickness_mm();
    let tracked = thermal::tracked_correlator(options);
    let out = pipeline.correlate_events("out", &events, depth_l, tracked);
    let reports = pipeline.deliver("expert", &out);
    let reports = collect_reports(
        pipeline.deploy().unwrap(),
        &reports,
        // Several specimens report per layer: budget enough summaries
        // to cover at least four full layers.
        24,
    );
    // Collect tracked ids per (specimen, layer).
    let mut per_specimen: std::collections::HashMap<u32, Vec<(u32, i64)>> = Default::default();
    for r in &reports {
        if r.tuple.payload().str("report") == Some("cluster") {
            let id = r.tuple.payload().int("tracked_id").expect("tracked id");
            per_specimen
                .entry(r.tuple.metadata().specimen.unwrap())
                .or_default()
                .push((r.tuple.metadata().layer, id));
        }
    }
    assert!(!per_specimen.is_empty(), "clusters were reported");
    // At least one specimen shows the same id across several layers —
    // a defect tracked while it grows.
    let persistent = per_specimen.values().any(|entries| {
        let mut by_id: std::collections::HashMap<i64, std::collections::BTreeSet<u32>> =
            Default::default();
        for (layer, id) in entries {
            by_id.entry(*id).or_default().insert(*layer);
        }
        by_id.values().any(|layers| layers.len() >= 3)
    });
    assert!(
        persistent,
        "some cluster identity persists across ≥3 layers"
    );
}

/// At parallelism 2 the monitor query of the replayed (Figure 7)
/// pipeline is seven nodes: the raw connector's subscriber, the
/// specimen split, the two instances of each parallel stage and the
/// event connector's publisher. No relay node sits between the stages.
#[test]
fn parallel_monitor_query_is_just_its_instances() {
    let machine = Arc::new(
        PbfLbMachine::new(MachineConfig::paper_build(16).image_px(400).timing(40, 5)).unwrap(),
    );
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let options = ThermalPipelineOptions {
        layers: 0..2,
        parallelism: 2,
        offered_rate: Some(0.0),
        ..ThermalPipelineOptions::default()
    };
    let (running, _reports) = thermal::deploy_pipeline(&strata, machine, options).unwrap();
    let metrics = running.shutdown().unwrap();
    let monitor = metrics
        .iter()
        .find(|q| q.query() == "thermal.monitor")
        .expect("a monitor query");
    let mut names: Vec<&str> = monitor.nodes().iter().map(|n| n.name()).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "cell.0",
            "cell.1",
            "cellLabel.0",
            "cellLabel.1",
            "publish.events.out",
            "spec",
            "subscribe.raw.replay",
        ]
    );
}
