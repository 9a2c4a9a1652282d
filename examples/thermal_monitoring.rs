//! The paper's real-world use-case (§5, Algorithm 1): detect
//! specimen portions melted with too-low or too-high thermal energy
//! and cluster them within and across layers with DBSCAN.
//!
//! Prints per-layer cluster reports as the (simulated) print runs,
//! checks the 3-second QoS threshold of the paper, and writes the
//! cluster image of the last window to `target/thermal_clusters.pgm`
//! (Figure 4's right panel).
//!
//! ```sh
//! cargo run --release --example thermal_monitoring
//! ```

use std::sync::Arc;

use strata::usecase::thermal::{self, ThermalPipelineOptions};
use strata::{Strata, StrataConfig};
use strata_amsim::{MachineConfig, PbfLbMachine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = Arc::new(PbfLbMachine::new(
        MachineConfig::paper_build(42)
            .image_px(1000)
            .timing(300, 50) // compressed melt/recoat so the demo finishes quickly
            .defect_rate(1.5),
    )?);
    println!(
        "printing job {}: {} layers, {} specimens, {} seeded defect sites",
        machine.job(),
        machine.layer_count(),
        machine.plan().specimens().len(),
        machine.defects().len(),
    );

    let strata = Strata::new(StrataConfig::default())?;
    let (running, reports) = thermal::deploy_pipeline(
        &strata,
        Arc::clone(&machine),
        ThermalPipelineOptions {
            cell_px: 10,
            depth_l: 20,
            layers: 0..30,
            pace: 1.0, // live pacing against the machine's clock
            parallelism: 2,
            render_images: true,
            offered_rate: None,
        },
    )?;

    let mut dashboard = strata::Dashboard::new();
    let mut last_image = None;
    let mut qos_violations = 0;
    let mut summaries = 0;
    while let Ok(report) = reports.recv_timeout(std::time::Duration::from_secs(60)) {
        dashboard.observe(&report);
        let t = &report.tuple;
        match t.payload().str("report") {
            Some("cluster") => {
                println!(
                    "  layer {:>3} specimen {:>2} cluster {:>2}: {:>4} cells at ({:>5.1}, {:>5.1}) mm, depth {:.2} mm ({} hot)",
                    t.metadata().layer,
                    t.metadata().specimen.unwrap_or(0),
                    t.payload().int("cluster_id").unwrap_or(-1),
                    t.payload().int("size").unwrap_or(0),
                    t.payload().float("centroid_x_mm").unwrap_or(0.0),
                    t.payload().float("centroid_y_mm").unwrap_or(0.0),
                    t.payload().float("depth_mm").unwrap_or(0.0),
                    t.payload().int("hot_members").unwrap_or(0),
                );
            }
            Some("summary") => {
                summaries += 1;
                if !report.qos_met {
                    qos_violations += 1;
                }
                if let Some(image) = t.payload().image("clusters_image") {
                    last_image = Some(Arc::clone(image));
                }
                println!(
                    "layer {:>3} specimen {:>2}: {} cluster(s) from {} events  latency={:>8.2?} qos_met={}",
                    t.metadata().layer,
                    t.metadata().specimen.unwrap_or(0),
                    t.payload().int("cluster_count").unwrap_or(0),
                    t.payload().int("event_count").unwrap_or(0),
                    report.latency,
                    report.qos_met,
                );
            }
            _ => {}
        }
        if summaries >= 60 {
            break;
        }
    }

    running.shutdown()?;
    println!("\nbuild status board:\n{}", dashboard.render());
    println!(
        "{summaries} windows evaluated, {qos_violations} QoS violations (threshold {:?})",
        strata.config().qos_threshold()
    );
    if let Some(image) = last_image {
        std::fs::create_dir_all("target")?;
        image.write_pgm("target/thermal_clusters.pgm")?;
        println!("cluster image written to target/thermal_clusters.pgm");
        println!("{}", image.to_ascii(60));
    }
    Ok(())
}
