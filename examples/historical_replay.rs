//! Reprocessing a historic printing job as fast as possible — the
//! paper's third experiment setting: "input data is replayed as fast
//! as possible", estimating how quickly past jobs can be reanalyzed
//! (e.g. after improving the thresholds in the key-value store).
//!
//! Demonstrates two STRATA capabilities:
//! 1. the key-value store carries knowledge *between* jobs (the
//!    thresholds survive in a persistent store directory);
//! 2. the same Algorithm-1 pipeline runs on replayed data at maximum
//!    rate, with the achieved throughput reported.
//!
//! ```sh
//! cargo run --release --example historical_replay
//! ```

use std::sync::Arc;

use strata::usecase::thermal::{self, ThermalPipelineOptions};
use strata::{Strata, StrataConfig};
use strata_amsim::{MachineConfig, PbfLbMachine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kv_dir = std::env::temp_dir().join("strata-replay-kv");
    let _ = std::fs::remove_dir_all(&kv_dir);

    // ── Job 1: the "historic" run; its thresholds persist on disk. ──
    {
        let strata = Strata::new(StrataConfig::default().kv_dir(&kv_dir))?;
        thermal::seed_thresholds(
            &strata,
            thermal::reference_thresholds(&strata_amsim::ThermalModel::default()),
        )?;
        println!("historic job processed; thresholds persisted to {kv_dir:?}");
    }

    // ── Job 2: replay through a fresh STRATA instance. ──
    let strata = Strata::new(StrataConfig::default().kv_dir(&kv_dir))?;
    let loaded = thermal::load_thresholds(&strata)?;
    println!(
        "thresholds recovered from the store: very_cold<{:.0} very_warm>{:.0}",
        loaded.pixel_very_cold, loaded.pixel_very_warm
    );

    let layers = 40u32;
    let machine = Arc::new(PbfLbMachine::new(
        MachineConfig::paper_build(7)
            .image_px(800)
            .schedule(strata_amsim::scan::ScanSchedule::new(90.0, 67.0))
            .defect_rate(1.5),
    )?);

    let started = std::time::Instant::now();
    let (running, reports) = thermal::deploy_pipeline(
        &strata,
        machine,
        ThermalPipelineOptions {
            cell_px: 8,
            depth_l: 20,
            layers: 0..layers,
            pace: 0.0,
            parallelism: 2,
            render_images: false,
            offered_rate: Some(0.0), // replay mode, as fast as possible
        },
    )?;

    let mut summaries = 0usize;
    let mut events = 0i64;
    while summaries < layers as usize - 1 {
        match reports.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(report) => {
                if report.tuple.payload().str("report") == Some("summary") {
                    summaries += 1;
                    events += report.tuple.payload().int("event_count").unwrap_or(0);
                }
            }
            Err(_) => break,
        }
    }
    running.shutdown()?;

    let elapsed = started.elapsed();
    println!(
        "replayed {layers} layers in {elapsed:.2?} → {:.1} images/s ({} window evaluations, {events} events)",
        layers as f64 / elapsed.as_secs_f64(),
        summaries,
    );
    Ok(())
}
