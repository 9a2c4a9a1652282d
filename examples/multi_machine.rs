//! Monitoring a manufacturing facility: several PBF-LB machines in
//! parallel — and genuinely multi-process. The parent spawns one
//! broker-server process (a `strata-net` TCP broker on loopback) and
//! one process per machine; each machine process runs the full
//! thermal pipeline with its connector topics on the shared remote
//! broker, the deployment the paper sketches (§3 requirement 3:
//! high-throughput facility monitoring; connectors in a shared
//! broker cluster, modules on separate machines).
//!
//! ```sh
//! cargo run --release --example multi_machine
//! ```
//!
//! The binary re-invokes itself for the worker roles:
//!
//! ```text
//! multi_machine                  # orchestrator (default)
//! multi_machine server           # broker server, prints LISTENING <addr>
//! multi_machine machine <j> <a>  # machine j's pipeline against broker at a
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use strata::usecase::thermal::{self, ThermalPipelineOptions};
use strata::{ConnectorMode, Strata, StrataConfig};
use strata_amsim::{MachineConfig, PbfLbMachine};
use strata_net::BrokerServer;
use strata_pubsub::Broker;

const MACHINES: u32 = 4;
const LAYERS: u32 = 12;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("server") => run_server(),
        Some("machine") => {
            let job: u32 = args
                .get(2)
                .ok_or("usage: multi_machine machine <job> <addr>")?
                .parse()?;
            let addr = args
                .get(3)
                .ok_or("usage: multi_machine machine <job> <addr>")?;
            run_machine(job, addr)
        }
        _ => run_orchestrator(),
    }
}

/// Broker-server role: bind an ephemeral loopback port, announce it,
/// serve until the orchestrator closes our stdin.
fn run_server() -> Result<(), Box<dyn std::error::Error>> {
    let mut server = BrokerServer::bind("127.0.0.1:0", Broker::new())?;
    println!("LISTENING {}", server.local_addr());
    std::io::stdout().flush()?;
    let mut sink = Vec::new();
    std::io::stdin().read_to_end(&mut sink)?; // Blocks until EOF.
    server.shutdown();
    Ok(())
}

/// Machine role: one simulated machine, one thermal pipeline whose
/// Raw Data Connector and Event Connector live on the remote broker.
fn run_machine(job: u32, addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let machine = Arc::new(PbfLbMachine::new(
        MachineConfig::paper_build(job)
            .image_px(800)
            .timing(100, 20)
            // Start scanning parallel to the gas flow: the first
            // stack is the defect-prone one, so even a 12-layer
            // demo has something to find.
            .schedule(strata_amsim::scan::ScanSchedule::new(90.0, 67.0))
            .defect_rate(1.5),
    )?);
    let strata = Strata::new(
        StrataConfig::default().connector_mode(ConnectorMode::Remote {
            addr: addr.to_string(),
        }),
    )?;
    let (running, reports) = thermal::deploy_pipeline(
        &strata,
        machine,
        ThermalPipelineOptions {
            cell_px: 8,
            depth_l: 10,
            layers: 0..LAYERS,
            pace: 0.0, // every machine streams as fast as it prints
            parallelism: 1,
            render_images: false,
            offered_rate: None,
        },
    )?;

    let mut summaries = 0usize;
    let mut clusters = 0usize;
    let mut max_latency = Duration::ZERO;
    while summaries < (LAYERS as usize).saturating_sub(1) {
        match reports.recv_timeout(Duration::from_secs(60)) {
            Ok(report) => {
                max_latency = max_latency.max(report.latency);
                match report.tuple.payload().str("report") {
                    Some("summary") => summaries += 1,
                    Some("cluster") => clusters += 1,
                    _ => {}
                }
            }
            Err(_) => break,
        }
    }
    running.shutdown()?;
    println!(
        "RESULT job={job} summaries={summaries} clusters={clusters} max_latency_ms={}",
        max_latency.as_millis()
    );
    Ok(())
}

/// Orchestrator role: spawn the broker server, then the machines,
/// collect their results, then retire the server.
fn run_orchestrator() -> Result<(), Box<dyn std::error::Error>> {
    let exe = std::env::current_exe()?;
    let started = Instant::now();

    let mut server = Command::new(&exe)
        .arg("server")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut server_out = BufReader::new(server.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    server_out.read_line(&mut line)?;
    let addr = line
        .strip_prefix("LISTENING ")
        .ok_or("broker server failed to announce its address")?
        .trim()
        .to_string();
    println!("broker server: pid {} on {addr}", server.id());

    let children: Vec<(u32, std::process::Child)> = (0..MACHINES)
        .map(|job| {
            let child = Command::new(&exe)
                .arg("machine")
                .arg(job.to_string())
                .arg(&addr)
                .stdout(Stdio::piped())
                .spawn()?;
            println!("machine {job}: pid {}", child.id());
            Ok((job, child))
        })
        .collect::<std::io::Result<_>>()?;

    let mut total_clusters = 0u64;
    let mut max_latency_ms = 0u64;
    let mut failures = 0usize;
    for (job, child) in children {
        let output = child.wait_with_output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = stdout.lines().find(|l| l.starts_with("RESULT "));
        match result {
            Some(result) if output.status.success() => {
                let field = |key: &str| -> u64 {
                    result
                        .split_whitespace()
                        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0)
                };
                println!(
                    "machine {job}: {} windows, {} cluster reports, max latency {} ms",
                    field("summaries"),
                    field("clusters"),
                    field("max_latency_ms"),
                );
                total_clusters += field("clusters");
                max_latency_ms = max_latency_ms.max(field("max_latency_ms"));
            }
            _ => {
                failures += 1;
                eprintln!("machine {job} failed: {:?}\n{stdout}", output.status);
            }
        }
    }

    drop(server.stdin.take()); // EOF: the server shuts down.
    server.wait()?;

    println!(
        "\n{MACHINES} machines × {LAYERS} layers across {} processes in {:.2?} — \
         {total_clusters} cluster reports, max latency {max_latency_ms} ms",
        MACHINES + 2,
        started.elapsed(),
    );
    if failures > 0 {
        return Err(format!("{failures} machine process(es) failed").into());
    }
    Ok(())
}
